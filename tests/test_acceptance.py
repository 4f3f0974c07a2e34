"""Acceptance suite: one test per acceptance criterion, run at the stated
tolerances.  Each test prints a single PASS/FAIL line (use ``pytest -s`` to
see them for passing runs)."""

import itertools
import time

import numpy as np

from hardtrain import autodiff as ad
from hardtrain import benchmarks as bm
from hardtrain import cli
from hardtrain import constraints as cs
from hardtrain import kkt
from hardtrain import trainers as tr
from hardtrain.krylov import (
    CONVERGED,
    MAX_ITERS,
    SINGULAR_MIN_LENGTH,
    STALLED,
    SolverConfig,
    minres_qlp,
)

from util import (
    AnchorProblem,
    LinearHead,
    LinearMap,
    ModelOutputs,
    dense_random_mlp,
    from_dense,
    materialize,
    random_symmetric_system,
    risk,
    risk_gradient,
)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_krylov_conformance():
    t0 = time.time()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    n_deficient = n_highcond = 0
    for _ in range(200):
        B, b, x_star, cond, deficient = random_symmetric_system(rng)
        cfg = SolverConfig(rtol=1e-11, max_iters=min(max(8 * B.shape[0], 400), 3000))
        sol = minres_qlp(from_dense(B), b, cfg)
        # a returned solve holds a finite iterate and residual
        assert np.all(np.isfinite(sol.x)) and np.isfinite(sol.residual_norm)
        assert sol.status in (CONVERGED, SINGULAR_MIN_LENGTH, MAX_ITERS, STALLED)
        err = np.linalg.norm(sol.x - x_star) / max(np.linalg.norm(x_star), 1e-300)
        tol = 1e-8 if (cond <= 1e6 and not deficient) else 1e-6
        n_deficient += deficient
        n_highcond += cond >= 1e8
        worst = max(worst, err / tol)
    elapsed = time.time() - t0
    ok = worst <= 1.0 and elapsed < 30.0 and n_deficient >= 20 and n_highcond >= 20
    _report(1, "krylov conformance", ok,
            f"200 systems ({n_deficient} rank-deficient, {n_highcond} cond>=1e8), "
            f"worst err/tol {worst:.3g}, {elapsed:.1f}s")


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_differentiation_exactness():
    t0 = time.time()
    rng = np.random.default_rng(42)
    h = 1e-5
    worst_fd = worst_adj = 0.0
    trials = 0
    while trials < 1000:
        widths = dense_random_mlp(rng, max_hidden=3, max_width=64)
        mlp = ad.Mlp(widths)
        w = mlp.init_params(rng)
        X = rng.standard_normal((2, widths[0]))
        Y = rng.standard_normal((2, widths[-1]))
        fvec = ModelOutputs(mlp, X)
        fres = ad.ScaledResiduals(mlp, X, Y)
        v = rng.standard_normal(mlp.n_params)
        v /= np.linalg.norm(v)
        masks_p = mlp.tape(w + h * v, X).masks
        masks_m = mlp.tape(w - h * v, X).masks
        if any(np.any(a != b) for a, b in zip(masks_p, masks_m)):
            continue  # ReLU kink inside the stencil: not differentiable there
        trials += 1
        u = rng.standard_normal(fvec.n_outputs)

        fd_vec = (ad.value(fvec, w + h * v) - ad.value(fvec, w - h * v)) / (2 * h)
        rop_v = ad.linearize(fvec, w).jvp(v)
        worst_fd = max(worst_fd, np.linalg.norm(rop_v - fd_vec)
                       / max(np.linalg.norm(fd_vec), 1e-8))

        lop_u = ad.linearize(fvec, w).vjp(u)
        worst_fd = max(worst_fd, abs(lop_u @ v - u @ fd_vec)
                       / max(abs(u @ fd_vec), 1e-8))

        fd_sca = (risk(fres, w + h * v) - risk(fres, w - h * v)) / (2 * h)
        grad_v = risk_gradient(fres, w) @ v
        worst_fd = max(worst_fd, abs(grad_v - fd_sca) / max(abs(fd_sca), 1e-8))

        lhs = u @ rop_v
        rhs = lop_u @ v
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
    elapsed = time.time() - t0
    ok = worst_fd <= 1e-5 and worst_adj <= 1e-10 and elapsed < 60.0
    _report(2, "differentiation exactness", ok,
            f"1000 trials, worst FD rel err {worst_fd:.3g}, "
            f"worst adjoint defect {worst_adj:.3g}, {elapsed:.1f}s")


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_kkt_structural_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        n_p = int(rng.integers(2, 51))
        n_a = int(rng.integers(0, 11))
        G = rng.standard_normal((n_a, n_p))
        c = rng.standard_normal(n_a)
        fn = LinearMap(G, shift=c) if n_a else None
        w = rng.standard_normal(n_p)
        eta = float(rng.uniform(0.2, 3.0))

        A = rng.standard_normal((int(rng.integers(1, 20)), n_p))
        mvec = rng.standard_normal(n_p)
        vvec = rng.uniform(0.0, 1.0, n_p)
        t = int(rng.integers(0, 30))
        f = np.sqrt(1.0 - 0.999 ** (t + 1)) / (1.0 - 0.9 ** (t + 1))
        adam_diag = eta * f * (np.sqrt(vvec) + 1e-8)

        # (diag, grad, curvature) handed to the kkt layer, and the D block expected
        variants = [
            (eta, np.zeros(n_p), None, np.eye(n_p) * eta),
            (eta, np.zeros(n_p), ad.linearize(LinearMap(A), w),
             A.T @ A + eta * np.eye(n_p)),
            (adam_diag, mvec, None, np.diag(adam_diag)),
        ]
        for diag, grad, curvature, D in variants:
            state = kkt.KktState(diag=diag, grad=grad,
                                 constraint=ad.linearize(fn, w) if fn else None,
                                 curvature=curvature)
            dense = np.zeros((n_p + n_a, n_p + n_a))
            dense[:n_p, :n_p] = D
            if n_a:
                dense[:n_p, n_p:] = G.T
                dense[n_p:, :n_p] = G
            got = materialize(kkt.kkt_operator(state))
            worst = max(worst, np.max(np.abs(got - dense)))
    ok = worst <= 1e-12
    _report(3, "kkt structural equivalence", ok,
            f"75 operators (sgd/gn/adam, N_P<=50, n_active<=10), "
            f"worst entry defect {worst:.3g}")


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_hard_exactness_on_linear_constraints():
    rng = np.random.default_rng(11)
    n_p, n_c = 12, 5
    H = rng.standard_normal((n_c, n_p))
    w_feasible = rng.standard_normal(n_p)
    # one pooled sample at the origin, shifts chosen so C(w_feasible) = 0
    shifts = -(H @ w_feasible)
    prob = AnchorProblem(rng.standard_normal(n_p),
                         cs.ConstraintPool(np.zeros((1, n_p)), LinearHead(H, shifts)))
    active = np.array([0])
    w = rng.standard_normal(n_p) * 2.0
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.7, iterations=1,
                         solver=SolverConfig(rtol=1e-12))
    step = tr.step_hard(tr.HARD_SGD, w, prob, prob.residual_function(None), active, cfg)
    assert step.solver_status == "converged"
    V = cs.violation_matrix(prob.pool, prob.model, step.w)
    residuals = V[active]
    worst = np.max(np.abs(residuals))
    ok = worst <= 1e-9
    _report(4, "hard-constraint exactness", ok,
            f"5 feasible linear constraints, one step: max |C| = {worst:.3g}")


# -- 5 ----------------------------------------------------------------------


def test_criterion_5_fixed_set_two_circle_convergence():
    centers = np.array([[0.0, 0.0], [1.0, 0.0]])
    pool = cs.ConstraintPool(centers, cs.SphereRadiusHead(10.0))

    prob = AnchorProblem([0.3, 9.0], pool)
    active = np.array([0, 1])
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=1.0, iterations=1,
                         solver=SolverConfig(rtol=1e-12))
    w = prob.x0.copy()
    iters_used = 200
    targets = np.array([[0.5, np.sqrt(99.75)], [0.5, -np.sqrt(99.75)]])
    for i in range(1, 201):
        w = tr.step_hard(tr.HARD_SGD, w, prob, prob.residual_function(None), active, cfg).w
        if min(np.linalg.norm(w - t) for t in targets) <= 1e-4:
            iters_used = i
            break
    err = min(np.linalg.norm(w - t) for t in targets)
    ok = err <= 1e-4
    _report(5, "fixed-set convergence", ok,
            f"two-circle intersection reached to {err:.2e} in {iters_used} iterations")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_sphere_comparison():
    t0 = time.time()
    seeds = (0, 1, 2, 3, 4)
    wins_final = wins_smooth = 0
    degradation = []
    for seed in seeds:
        hard, soft = bm.run_sphere_comparison(d=10_000, iters=500, n_active=20,
                                              seed=seed)
        hmv = hard.column("median_violation")
        smv = soft.column("median_violation")
        wins_final += smv[-1] <= hmv[-1]
        wins_smooth += np.std(np.diff(smv[99:])) < np.std(np.diff(hmv[99:]))
        degradation.append(float(np.mean(hard.column("active_delta") > 0)))
    elapsed = time.time() - t0
    mean_deg = float(np.mean(degradation))
    ok = (wins_final >= 4 and wins_smooth >= 4 and mean_deg >= 0.10
          and elapsed < 600.0)
    _report(6, "sphere comparison", ok,
            f"soft final mv <= hard in {wins_final}/5, smoother deltas in "
            f"{wins_smooth}/5, hard degradation fraction {mean_deg:.3f}, "
            f"{elapsed:.0f}s")


# -- 7 ----------------------------------------------------------------------


def test_criterion_7_toy_pose_end_to_end():
    t0 = time.time()
    seeds = (0, 1, 2)
    methods = ("soft_adam", "soft_sgd", "hard_sgd")
    pred_ratio = {m: [] for m in methods}
    reduction = {m: [] for m in methods}
    for seed in seeds:
        suite = bm.run_pose_suite(seed, methods)
        pred_u, mv_u = suite["baseline"]
        for m in methods:
            pred_c, mv_c = suite[m]
            pred_ratio[m].append(pred_c / pred_u)
            reduction[m].append(mv_u / mv_c)
    elapsed = time.time() - t0
    parts = []
    ok = elapsed < 900.0
    for m in methods:
        pr = float(np.mean(pred_ratio[m]))
        rr = float(np.mean(reduction[m]))
        ok = ok and pr <= 1.10 and rr >= 2.0
        parts.append(f"{m}: pred x{pr:.3f}, violation /{rr:.2f}")
    _report(7, "toy-pose end-to-end", ok, "; ".join(parts) + f"; {elapsed:.0f}s")


# -- 8 ----------------------------------------------------------------------


def test_criterion_8_mining_optimality():
    rng = np.random.default_rng(13)
    worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        n_c = int(rng.integers(1, 5))
        H = rng.standard_normal((n_c, 3))
        shift = rng.standard_normal(n_c)
        pool = cs.ConstraintPool(rng.standard_normal((n, 3)),
                                 LinearHead(H, shift))
        model = ad.IdentityOffset(3)
        w = rng.standard_normal(3)
        n_keep = int(rng.integers(1, n + 1))
        V = cs.violation_matrix(pool, model, w)
        med = np.median(np.abs(V), axis=1)
        best = max(float(np.sum(med[list(s)]))
                   for s in itertools.combinations(range(n), n_keep))
        mined = cs.select_mined(V, n_keep)
        got = float(np.sum(med[mined]))
        worst_gap = max(worst_gap, best - got)
    ok = worst_gap <= 1e-12
    _report(8, "mining optimality", ok,
            f"100 pools exhaustively checked, worst objective gap {worst_gap:.3g}")


# -- 9 ----------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    configs = {
        "spheres": ("kind = spheres\nmethod = hard_sgd\ndim = 200\n"
                    "n_constraints = 16\nn_active = 5\niterations = 30\nseed = 8\n"),
        "toy_pose": ("kind = toy_pose\nmethod = soft_adam\nsoft_lambda = 0.01\n"
                     "epochs = 3\nn_samples = 300\nn_pool = 60\nin_dim = 12\n"
                     "hidden = 16\nseed = 8\n"),
    }
    identical = True
    for name, text in configs.items():
        cfg_path = tmp_path / f"{name}.txt"
        cfg_path.write_text(text)
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}"
            assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
            outs.append((out / "metrics.csv").read_bytes())
        identical = identical and outs[0] == outs[1]
    _report(9, "determinism", identical,
            "sphere and pose reruns produced byte-identical metrics.csv")

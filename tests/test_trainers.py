import dataclasses

import numpy as np
import pytest

from hardtrain import autodiff as ad
from hardtrain import benchmarks as bm
from hardtrain import constraints as cs
from hardtrain import kkt
from hardtrain import trainers as tr
from hardtrain.krylov import SolverConfig

from util import AnchorProblem, LinearHead, OffsetModel


def sphere_pool(centers, radius):
    return cs.SpherePool(centers, radius)


def linear_pool(H, samples, c=None):
    H = np.atleast_2d(H)
    return cs.ConstraintPool(samples, LinearHead(H, c), OffsetModel(H.shape[1]))


def full_active(pool):
    return np.arange(pool.n_samples)


def active_median(prob, w, active):
    """Median |C| over the active samples at w, read off the pool's violation matrix."""
    V = prob.pool.violation_matrix(w)
    return float(np.median(np.abs(V[active])))


# ---------------------------------------------------------------------------
# Adam updates
# ---------------------------------------------------------------------------


def test_adam_first_update_moments():
    g = np.array([2.0, -1.0])
    state, _ = tr.adam_update(tr.AdamState.zeros(2), g, lr=0.1)
    np.testing.assert_allclose(state.m, 0.1 * g, rtol=1e-15)
    np.testing.assert_allclose(state.v, 0.001 * g * g, rtol=1e-15)
    assert state.t == 1


def test_adam_update_leaves_its_input_state_and_matches_the_closed_form():
    rng = np.random.default_rng(5)
    state = tr.AdamState(rng.standard_normal(4), rng.uniform(0.1, 1.0, 4), t=6)
    m0, v0 = state.m.copy(), state.v.copy()
    g = rng.standard_normal(4)
    new, dw = tr.adam_update(state, g, lr=0.01)
    np.testing.assert_array_equal(state.m, m0)
    np.testing.assert_array_equal(state.v, v0)
    assert state.t == 6
    m = 0.9 * m0 + (1.0 - 0.9) * g
    v = 0.999 * v0 + (1.0 - 0.999) * g * g
    f = np.sqrt(1.0 - 0.999 ** 7) / (1.0 - 0.9 ** 7)
    np.testing.assert_array_equal(new.m, m)
    np.testing.assert_array_equal(new.v, v)
    np.testing.assert_array_equal(dw, -0.01 * f * m / (np.sqrt(v) + 1e-8))
    assert new.t == 7


def test_adam_zero_gradient_never_moves():
    state = tr.AdamState.zeros(3)
    for _ in range(50):
        state, dw = tr.adam_update(state, np.zeros(3), lr=0.1)
        np.testing.assert_array_equal(dw, np.zeros(3))


def test_adam_constant_gradient_step_magnitude_approaches_lr():
    g = np.array([0.3, -2.0, 5.0])
    state = tr.AdamState.zeros(3)
    for _ in range(1000):
        state, dw = tr.adam_update(state, g, lr=0.05)
    np.testing.assert_allclose(np.abs(dw), 0.05, rtol=0.01)


def test_adam_bias_corrected_first_moment_is_exact_for_constant_gradient():
    g = np.array([1.7, -0.4])
    state = tr.AdamState.zeros(2)
    for t in range(1, 40):
        state, _ = tr.adam_update(state, g, lr=0.1)
        np.testing.assert_allclose(state.m / (1 - 0.9 ** t), g, rtol=1e-12)


# ---------------------------------------------------------------------------
# Soft objective (risk + lambda * sum C^2) through its steps
# ---------------------------------------------------------------------------


def soft_sgd_step(prob, w, lam, lr=0.1):
    cfg = tr.TrainConfig(method=tr.SOFT_SGD, lr=lr, soft_lambda=lam, iterations=1)
    return tr.step_soft(tr.SOFT_SGD, w, prob, prob.residual_function(None),
                        full_active(prob.pool), cfg)


def test_soft_objective_zero_lambda_is_risk():
    pool = sphere_pool([[5.0, 0.0]], 1.0)
    prob = AnchorProblem([1.0, 1.0], pool)
    w = np.array([0.5, -0.5])
    step = soft_sgd_step(prob, w, 0.0)
    np.testing.assert_allclose(step.w, w - 0.1 * (w - prob.x0), rtol=1e-15)


def test_soft_objective_satisfied_constraints_is_risk():
    pool = sphere_pool([[0.0, 0.0]], 1.0)
    prob = AnchorProblem([2.0, 0.0], pool)
    w = np.array([1.0, 0.0])  # exactly on the sphere
    step = soft_sgd_step(prob, w, 100.0)
    assert active_median(prob, w, full_active(pool)) == 0.0
    np.testing.assert_allclose(step.w, w - 0.1 * (w - prob.x0), atol=1e-12)


def test_soft_objective_single_constraint_hand_value():
    # residual 0.1 with lambda 100 adds 2 * 100 * 0.1 = 20 to the risk
    # gradient 1.1: w' = 1.1 - 0.01 * 21.1
    pool = sphere_pool([[0.0]], 1.0)
    prob = AnchorProblem([0.0], pool)
    step = soft_sgd_step(prob, np.array([1.1]), 100.0, lr=0.01)
    np.testing.assert_allclose(step.w, [0.889], rtol=1e-12)
    assert active_median(prob, np.array([1.1]), full_active(pool)) == pytest.approx(0.1, rel=1e-12)
    assert active_median(prob, step.w, full_active(pool)) == pytest.approx(0.111, rel=1e-12)


def test_step_soft_sgd_unconstrained_is_gradient_descent():
    pool = sphere_pool([[9.0, 9.0]], 1.0)
    prob = AnchorProblem([1.0, -1.0], pool)
    w = np.array([3.0, 2.0])
    empty = np.zeros(0, dtype=int)
    cfg = tr.TrainConfig(method=tr.SOFT_SGD, lr=0.1, soft_lambda=0.0, iterations=1)
    w2 = tr.step_soft(tr.SOFT_SGD, w, prob, prob.residual_function(None), empty, cfg).w
    np.testing.assert_allclose(w2, w - 0.1 * (w - prob.x0))


def test_step_soft_converges_to_analytic_penalized_minimizer():
    # 1-D: 0.5 (w-a)^2 + lam (w-b)^2 has minimizer (a + 2 lam b) / (1 + 2 lam)
    a, b, lam = 2.0, -1.0, 3.0
    pool = linear_pool([[1.0]], [[b]])     # C(w) = w - b
    prob = AnchorProblem([a], pool)
    cfg = tr.TrainConfig(method=tr.SOFT_SGD, lr=0.1, soft_lambda=lam, iterations=1)
    w = np.array([0.0])
    objective = prob.residual_function(None)
    for _ in range(500):
        w = tr.step_soft(tr.SOFT_SGD, w, prob, objective, full_active(pool), cfg).w
    np.testing.assert_allclose(w, [(a + 2 * lam * b) / (1 + 2 * lam)], atol=1e-10)


# ---------------------------------------------------------------------------
# Hard steps
# ---------------------------------------------------------------------------


def test_step_hard_two_fixed_circles_converges_to_intersection():
    pool = sphere_pool([[0.0, 0.0], [1.0, 0.0]], 10.0)
    prob = AnchorProblem([0.3, 9.0], pool)
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=1.0, iterations=1,
                         solver=SolverConfig(rtol=1e-12))
    w = prob.x0.copy()
    objective = prob.residual_function(None)
    for _ in range(100):
        w = tr.step_hard(tr.HARD_SGD, w, prob, objective, full_active(pool), cfg).w
    expect = np.array([0.5, np.sqrt(99.75)])
    assert np.linalg.norm(w - expect) <= 1e-6


def test_step_hard_tangent_gradient_matches_unconstrained():
    # satisfied constraint w0 = 0 with gradient along the tangent direction
    pool = linear_pool([[1.0, 0.0]], [[0.0, 0.0]])
    prob = AnchorProblem([0.0, -4.0], pool)    # gradient (w - x0) points along e1
    w = np.array([0.0, 2.0])
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.5, iterations=1,
                         solver=SolverConfig(rtol=1e-12))
    hstep = tr.step_hard(tr.HARD_SGD, w, prob, prob.residual_function(None),
                         full_active(pool), cfg)
    np.testing.assert_allclose(hstep.w, w - 0.5 * (w - prob.x0), atol=1e-10)
    np.testing.assert_allclose(hstep.multipliers, [0.0], atol=1e-10)


def test_step_hard_clears_violated_linear_constraint():
    pool = linear_pool([[1.0, 0.0]], [[0.0, 0.0]], c=[-1.0])  # C = w0 - 1
    prob = AnchorProblem([0.0, 0.0], pool)
    w = np.zeros(2)
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.5, iterations=1,
                         solver=SolverConfig(rtol=1e-12))
    hstep = tr.step_hard(tr.HARD_SGD, w, prob, prob.residual_function(None),
                         full_active(pool), cfg)
    assert abs(hstep.w[0] - 1.0) <= 1e-9
    assert active_median(prob, hstep.w, full_active(pool)) <= 1e-9
    assert len(hstep.multipliers) == 1 and np.isfinite(hstep.multipliers).all()


def test_step_hard_gn_and_adam_variants_run():
    pool = sphere_pool([[0.0, 0.0]], 2.0)
    prob = AnchorProblem([3.0, 0.0], pool)
    objective = prob.residual_function(None)
    cfg = tr.TrainConfig(method=tr.HARD_GN, lr=0.5, iterations=1,
                         solver=SolverConfig(rtol=1e-10))
    st = tr.step_hard(tr.HARD_GN, prob.x0.copy(), prob, objective, full_active(pool), cfg)
    assert np.isfinite(st.w).all()
    cfg = tr.TrainConfig(method=tr.HARD_ADAM, lr=0.05, iterations=1,
                         solver=SolverConfig(rtol=1e-10))
    st = tr.step_hard(tr.HARD_ADAM, prob.x0.copy(), prob, objective, full_active(pool), cfg,
                      adam=tr.AdamState.zeros(2))
    assert np.isfinite(st.w).all()
    assert st.adam.t == 1


def test_step_hard_adam_without_constraints_is_adam():
    # with no active constraint the saddle-point system is D dw = -m, and
    # its solution must be the bias-corrected Adam step
    prob = AnchorProblem([1.0, -2.0, 3.0, 0.5], sphere_pool([[0.0] * 4], 1.0))
    empty = np.zeros(0, dtype=int)
    cfg = tr.TrainConfig(method=tr.HARD_ADAM, lr=0.05, iterations=1,
                         solver=SolverConfig(rtol=1e-14))
    w = np.zeros(4)
    hard = ref = tr.AdamState.zeros(4)
    for _ in range(5):
        ref, dw = tr.adam_update(ref, w - prob.x0, cfg.lr)
        step = tr.step_hard(tr.HARD_ADAM, w, prob, prob.residual_function(None), empty, cfg,
                            adam=hard)
        assert np.linalg.norm((step.w - w) - dw) <= 1e-10 * np.linalg.norm(dw)
        w, hard = step.w, step.adam


# ---------------------------------------------------------------------------
# Full loop
# ---------------------------------------------------------------------------


def test_train_zero_iterations_reports_initial_metrics_only():
    pool = sphere_pool([[0.0, 0.0]], 1.0)
    prob = AnchorProblem([2.0, 0.0], pool)
    report = tr.train(tr.TrainConfig(method=tr.SOFT_SGD, lr=0.1, iterations=0), prob)
    assert report.rows == []
    assert report.initial_row.iteration == 0
    assert report.initial_row.median_violation == pytest.approx(1.0)


def test_train_seed_reproducibility():
    rng = np.random.default_rng(0)
    pool = sphere_pool(rng.normal(0, 0.1, (12, 3)), 2.0)
    prob = AnchorProblem(rng.normal(0, 1, 3) * 3, pool)
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=1.0, iterations=20,
                         batch_constraints=4, seed=42,
                         solver=SolverConfig(rtol=1e-10))
    r1 = tr.train(cfg, prob)
    r2 = tr.train(cfg, prob)
    assert len(r1.rows) == cfg.iterations  # row count == iterations executed
    np.testing.assert_array_equal(r1.final_params, r2.final_params)
    assert [r.active_fingerprint for r in r1.rows] == [r.active_fingerprint for r in r2.rows]
    np.testing.assert_array_equal(r1.column("median_violation"), r2.column("median_violation"))


def test_soft_and_hard_share_batch_streams():
    rng = np.random.default_rng(1)
    pool = sphere_pool(rng.normal(0, 0.1, (10, 2)), 3.0)
    prob = AnchorProblem(np.array([4.0, 0.0]), pool)
    base = dict(lr=1e-3, iterations=15, batch_constraints=3, seed=7,
                solver=SolverConfig(rtol=1e-10))
    soft = tr.train(tr.TrainConfig(method=tr.SOFT_SGD, **base), prob)
    hard = tr.train(tr.TrainConfig(method=tr.HARD_SGD, **base), prob)
    assert [r.active_fingerprint for r in soft.rows] == [r.active_fingerprint for r in hard.rows]


def test_train_fixed_feasible_linear_constraints_stay_satisfied():
    # every sample is active every iteration; constraint: first coordinate 0
    pool = linear_pool([[1.0, 0.0]], [[0.0, 0.0]])
    prob = AnchorProblem([-2.0, -3.0], pool)

    class Fixed(AnchorProblem):
        def initial_params(self, rng):
            return np.array([0.0, 5.0])

    prob = Fixed(prob.x0, pool)
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.5, iterations=30,
                         batch_constraints=1, solver=SolverConfig(rtol=1e-12))
    report = tr.train(cfg, prob)
    assert all(r.median_violation <= 1e-8 for r in report.rows)


def test_train_multiplier_counts_and_finiteness():
    rng = np.random.default_rng(2)
    pool = sphere_pool(rng.normal(0, 0.1, (6, 2)), 5.0)
    prob = AnchorProblem(np.array([7.0, 0.0]), pool)
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=1.0, iterations=5,
                         batch_constraints=6, solver=SolverConfig(rtol=1e-10))
    w = prob.initial_params(np.random.default_rng(0))
    active = full_active(pool)
    st = tr.step_hard(tr.HARD_SGD, w, prob, prob.residual_function(None), active, cfg)
    assert st.multipliers.shape == (len(active) * pool.n_constraints,)
    assert np.isfinite(st.multipliers).all()


def test_train_validation_checkpoint_keeper():
    rng = np.random.default_rng(3)
    pool = sphere_pool(rng.normal(0, 0.1, (5, 2)), 2.0)

    class WithVal(AnchorProblem):
        def prediction_error(self, w):
            return float(np.linalg.norm(w - self.x0))

    prob = WithVal(np.array([1.0, 1.0]), pool)
    cfg = tr.TrainConfig(method=tr.SOFT_SGD, lr=0.05, iterations=25,
                         batch_constraints=2, soft_lambda=0.1)
    report = tr.train(cfg, prob)
    best_seen = min([report.initial_row.pred_error] + [r.pred_error for r in report.rows])
    assert report.best_val_error == pytest.approx(best_seen)


def test_train_config_validation():
    with pytest.raises(ValueError, match="method"):
        tr.TrainConfig(method="sgd")
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="lr"):
            tr.TrainConfig(method=tr.SOFT_SGD, lr=bad)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="soft_lambda"):
            tr.TrainConfig(method=tr.SOFT_SGD, soft_lambda=bad)
    for name in ("epochs", "iterations"):
        with pytest.raises(ValueError, match=name):
            tr.TrainConfig(method=tr.SOFT_SGD, **{name: -1})
    for name in ("batch_data", "batch_constraints", "n_mined"):
        with pytest.raises(ValueError, match=name):
            tr.TrainConfig(method=tr.SOFT_SGD, **{name: 0})
    pool = sphere_pool([[0.0]], 1.0)
    prob = AnchorProblem([0.0], pool)
    with pytest.raises(ValueError, match="iterations"):
        tr.train(tr.TrainConfig(method=tr.SOFT_SGD), prob)


def _counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# two solver settings that run different numbers of KKT matvecs: a
# converged solve, and a two-iteration budget whose preconditioned sweep
# misses rtol and is followed by the squared-system sweep
SOLVER_BUDGETS = (SolverConfig(rtol=1e-10), SolverConfig(rtol=1e-10, max_iters=2))


def test_hard_step_tapes_the_mlp_a_fixed_number_of_times(monkeypatch):
    # one linearization of the constraints and one of the risk; the Krylov
    # iterations add no forward passes, and the new parameters are left to
    # the loop's pool evaluation.  The tapes hold the parameter views, so
    # only a tape or a jvp's tangent unpacks a flat vector
    problem = bm.gen_toy_pose(seed=0, n_samples=60, n_pool=20, in_dim=8, hidden=(12,))
    w = problem.initial_params(np.random.default_rng(0))
    active = cs.select_mined(problem.pool.violation_matrix(w), 3)
    tapes = _counting(monkeypatch, ad.Mlp, "tape")
    jvps = _counting(monkeypatch, ad.Mlp, "jvp")
    unpacks = _counting(monkeypatch, ad.Mlp, "unpack")
    matvecs = _counting(monkeypatch, kkt, "kkt_matvec")
    seen = []
    for solver in SOLVER_BUDGETS:
        cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.3, solver=solver)
        for calls in (tapes, jvps, unpacks, matvecs):
            calls.clear()
        tr.step_hard(tr.HARD_SGD, w, problem, problem.residual_function(np.arange(16)),
                     active, cfg)
        seen.append((len(matvecs), len(tapes)))
        assert len(unpacks) == len(tapes) + len(jvps)
    assert seen[0][0] != seen[1][0]
    assert [n for _, n in seen] == [2, 2]


def test_hard_sphere_step_gathers_the_centers_once_per_linearization(monkeypatch):
    # the active centers are gathered once for the step's linearization,
    # not once per matvec (test_constraints checks that w - X is never
    # formed)
    problem = bm.gen_spheres(50, 12, seed=2)
    w = problem.x0.copy()
    active = cs.select_random(problem.pool, 5, 0)
    gathers = []

    class CountedSamples(np.ndarray):
        def __getitem__(self, key):
            gathers.append(key)
            return np.asarray(super().__getitem__(key))

    problem.pool.sample_sq_norms  # the pool constants, computed before counting
    problem.pool.sample_gram
    problem.pool.samples = problem.pool.samples.view(CountedSamples)
    matvecs = _counting(monkeypatch, kkt, "kkt_matvec")
    seen = []
    for solver in SOLVER_BUDGETS:
        cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=1.0, iterations=1, solver=solver)
        gathers.clear()
        matvecs.clear()
        tr.step_hard(tr.HARD_SGD, w, problem, problem.residual_function(None), active, cfg)
        seen.append((len(matvecs), len(gathers)))
    assert seen[0][0] != seen[1][0]
    assert [n for _, n in seen] == [1, 1]


def test_only_a_scalar_d_hard_step_forms_the_pool_gram():
    # CC^T is read by the scalar-D Schur complement alone: soft steps and
    # hard_adam's vector D leave the pool without it
    for method in tr.METHODS:
        problem = bm.gen_spheres(50, 12, seed=2)
        cfg = tr.TrainConfig(method=method, lr=0.1, iterations=3, batch_constraints=5)
        tr.train(cfg, problem)
        assert ("sample_gram" in problem.pool.__dict__) == (method in (tr.HARD_SGD, tr.HARD_GN))


SMALL_POSE = dict(seed=0, n_samples=60, n_pool=20, in_dim=8, hidden=(12,))


def test_a_preconditioned_sweep_at_its_float64_floor_is_kept():
    # at step 9 the Schur complement's eigenvalue ratio (about 4e-11) sits
    # just below the preconditioner's cutoff: the preconditioned sweep
    # stops at the attainable floor (flag 3, relative residual about
    # 2.3e-8 against rtol 1e-8) after 22 iterations, and that iterate is
    # the step
    problem = bm.gen_toy_pose(**SMALL_POSE)
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.3, epochs=3, batch_data=8,
                         batch_constraints=10, seed=1, solver=bm.POSE_SOLVER)
    report = tr.train(cfg, problem)
    assert max(report.column("solver_iters")) <= 30
    assert report.rows[8].iteration == 9 and report.rows[8].solver_status == "stalled"


@pytest.mark.parametrize("settings, tapes", [
    # the constraint linearization and the risk gradient
    (dict(method=tr.SOFT_ADAM, lr=1e-3, soft_lambda=0.01, batch_constraints=4), 2),
    # lambda = 0: no constraint linearization
    (dict(method=tr.SOFT_ADAM, lr=1e-3, soft_lambda=0.0, batch_constraints=4), 1),
    # mining reads the pool evaluated at the end of the previous iteration
    (dict(method=tr.HARD_SGD, lr=0.3, mine=True, n_mined=3), 2),
], ids=["soft", "soft_lambda_0", "hard_mined"])
def test_iteration_tapes_the_mlp_a_fixed_number_of_times(monkeypatch, settings, tapes):
    # a one-epoch run of one iteration minus the zero-epoch run's initial
    # metrics; the validation error, the batch risk and the pool at the new
    # parameters are three forward-only passes, which record no tape
    problem = bm.gen_toy_pose(**SMALL_POSE)
    taped = _counting(monkeypatch, ad.Mlp, "tape")
    forward = _counting(monkeypatch, ad.Mlp, "forward")
    counts = []
    for epochs in (0, 1):
        cfg = tr.TrainConfig(epochs=epochs, batch_data=problem.n_train, **settings)
        taped.clear()
        forward.clear()
        report = tr.train(cfg, problem)
        counts.append((len(taped), len(forward)))
    assert len(report.rows) == 1
    assert counts[1][0] - counts[0][0] == tapes
    assert counts[1][1] - counts[0][1] == 3


def test_train_gathers_each_data_batch_once(monkeypatch):
    # the step and the row's risk share one objective per iteration, and
    # the initial row builds one over the whole training set
    problem = bm.gen_toy_pose(**SMALL_POSE)
    calls = _counting(monkeypatch, bm.ToyPoseProblem, "residual_function")
    for method in (tr.SOFT_ADAM, tr.HARD_SGD):
        calls.clear()
        cfg = tr.TrainConfig(method=method, lr=1e-3, soft_lambda=0.01, epochs=1,
                             batch_data=8, batch_constraints=4)
        report = tr.train(cfg, problem)
        assert len(report.rows) == 6
        assert len(calls) == 6 + 1


def test_train_evaluates_the_pool_once_per_iterate(monkeypatch):
    problem = bm.gen_toy_pose(**SMALL_POSE)
    calls = _counting(monkeypatch, cs.ConstraintPool, "violation_matrix")
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.3, mine=True, n_mined=3,
                         iterations=4, seed=1)
    report = tr.train(cfg, problem)
    assert len(report.rows) == 4
    assert len(calls) == 4 + 1


class PoolProtocol:
    """A pool with only what the trainer may read: its sizes, its violation
    matrix and the linearization of its active rows, each delegated to the
    wrapped pool."""

    __slots__ = ("_pool",)

    def __init__(self, pool):
        self._pool = pool

    n_samples = property(lambda self: self._pool.n_samples)
    n_constraints = property(lambda self: self._pool.n_constraints)

    def violation_matrix(self, w):
        return self._pool.violation_matrix(w)

    def linearize(self, w, samples):
        return self._pool.linearize(w, samples)


@pytest.mark.parametrize("method", [tr.HARD_SGD, tr.SOFT_SGD])
@pytest.mark.parametrize("problem, settings", [
    (bm.gen_spheres(200, 30, seed=0), dict(lr=1e-2, iterations=8, batch_constraints=6)),
    (bm.gen_toy_pose(**SMALL_POSE), dict(lr=0.05, epochs=1, batch_data=8, mine=True,
                                         n_mined=3)),
], ids=["spheres", "pose"])
def test_train_reads_the_pool_only_through_its_protocol(problem, settings, method):
    # the trainer asks the pool and never its head or a model: behind the
    # bare protocol every row and the final parameters are bit for bit the
    # same
    cfg = tr.TrainConfig(method=method, seed=1, **settings)
    expect = tr.train(cfg, problem)
    got = tr.train(cfg, dataclasses.replace(problem, pool=PoolProtocol(problem.pool)))
    assert len(got.rows) == len(expect.rows) > 0
    assert [repr(r) for r in got.rows] == [repr(r) for r in expect.rows]
    assert got.final_params.tobytes() == expect.final_params.tobytes()


def test_converged_hard_steps_build_the_rhs_once(monkeypatch):
    # one right-hand side per step: the acceptance test of a solve that
    # misses its tolerance reads the solve's own
    problem = bm.gen_spheres(200, 40, seed=0)
    calls = _counting(monkeypatch, kkt, "kkt_rhs")
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=bm.SPHERE_HARD_LR, iterations=20,
                         batch_constraints=10, solver=SolverConfig(rtol=1e-8, max_iters=500))
    report = tr.train(cfg, problem)
    assert set(report.column("solver_status")) == {"converged"}
    assert len(calls) == 20


def test_mined_hard_adam_on_small_pose_never_skips():
    # Adam's diagonal spans orders of magnitude; the Schur-complement
    # preconditioner keeps every solve on the contract, with no skipped step
    problem = bm.gen_toy_pose(**SMALL_POSE)
    cfg = tr.TrainConfig(method=tr.HARD_ADAM, lr=0.05, epochs=3, batch_data=8, mine=True,
                         n_mined=3, solver=SolverConfig(rtol=1e-8, max_iters=800))
    report = tr.train(cfg, problem)
    assert len(report.rows) == 18
    assert set(report.column("solver_status")) <= {"converged", "singular_min_length"}


@pytest.mark.parametrize("problem, settings", [
    (bm.gen_toy_pose(**SMALL_POSE),
     dict(method=tr.HARD_SGD, lr=0.3, epochs=2, batch_data=8, mine=True, n_mined=3)),
    (bm.gen_spheres(200, 40, seed=1),
     dict(method=tr.HARD_SGD, lr=1.0, iterations=20, batch_constraints=10)),
], ids=["pose", "spheres"])
def test_hard_solves_take_a_few_krylov_iterations(problem, settings):
    # a machine-independent counter: with the Schur-complement
    # preconditioner a solve takes about three iterations (tens without)
    report = tr.train(tr.TrainConfig(seed=1, solver=SolverConfig(rtol=1e-8, max_iters=500),
                                     **settings), problem)
    assert report.rows and np.mean(report.column("solver_iters")) <= 5.0


def test_report_holds_no_parameter_copies():
    # nothing writes a parameter vector in place, so the report shares the
    # last iterate when it is the best, and the warm start is left as given
    class WithVal(AnchorProblem):
        def prediction_error(self, w):
            return float(np.linalg.norm(w - self.x0))

    prob = WithVal(np.array([1.0, -1.0]), sphere_pool([[9.0, 9.0]], 1.0))
    w0 = np.array([3.0, 2.0])
    cfg = tr.TrainConfig(method=tr.SOFT_SGD, lr=0.1, soft_lambda=0.0, iterations=5)
    report = tr.train(cfg, prob, w0=w0)
    assert report.best_val_error == report.rows[-1].pred_error
    assert report.best_params is report.final_params
    np.testing.assert_array_equal(w0, [3.0, 2.0])


def test_constant_validation_reports_the_final_iterate_as_best():
    # equally good iterates keep the latest: with no validation signal the
    # best parameters are the final ones, not a copy of the initial ones
    prob = AnchorProblem([2.0, 0.0], sphere_pool([[0.0, 0.0]], 1.0))
    report = tr.train(tr.TrainConfig(method=tr.SOFT_SGD, lr=0.1, iterations=4), prob)
    assert report.best_val_error == 0.0
    assert report.best_params is report.final_params


def test_median_abs_is_np_median_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in list(range(1, 61)) + [200, 2304]:
        for scale in (1e-300, 1.0, 1e300):
            v = rng.standard_normal(n) * scale
            for values in (v, np.round(v / scale, 1) * scale, v.reshape(1, n)):
                got = cs.median_violation(values)
                assert type(got) is float
                assert got == float(np.median(np.abs(values))), (n, scale)
        # a NaN anywhere is NaN, so the row of a non-finite iterate fails
        v[rng.integers(n)] = np.nan
        assert np.isnan(cs.median_violation(v)), n


def test_a_skipped_step_reports_the_iterations_it_spent(monkeypatch):
    # a one-iteration budget leaves every solve short of the acceptance
    # residual; each skipped row still counts the iterations of its solve
    problem = bm.gen_toy_pose(**SMALL_POSE)
    solve, spent = kkt.minres_qlp, []

    def recording(*args, **kwargs):
        sol = solve(*args, **kwargs)
        spent.append(sol.iters)
        return sol

    monkeypatch.setattr(kkt, "minres_qlp", recording)
    cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=0.3, mine=True, n_mined=3, iterations=4,
                         solver=SolverConfig(rtol=1e-10, max_iters=1))
    report = tr.train(cfg, problem)
    assert list(report.column("solver_status")) == ["skipped"] * 4
    assert list(report.column("solver_iters")) == spent and min(spent) >= 2

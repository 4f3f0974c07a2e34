import numpy as np
import pytest

from hardtrain import autodiff as ad
from hardtrain import benchmarks as bm
from hardtrain import constraints as cs
from hardtrain import kkt
from hardtrain.krylov import SolverConfig
from hardtrain.linops import LinearOperator

from util import (LinearHead, LinearMap, OffsetModel, dense_random_mlp, materialize,
                  symmetry_defect)


def linear_constraints(G, c=None):
    """Analytic linear constraint stack C(w) = G w + c."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    return LinearMap(G, shift=c)


def sgd_state(w, grad, G, c=None, damping=1.0):
    fn = linear_constraints(G, c)
    return kkt.KktState(diag=damping, grad=np.asarray(grad, dtype=float),
                        constraint=ad.linearize(fn, w))


def dense_block(D, G):
    """Oracle: hand-assembled saddle-point matrix from analytic blocks."""
    n, m = D.shape[0], G.shape[0]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = D
    M[:n, n:] = G.T
    M[n:, :n] = G
    return M


def test_matvec_sgd_single_linear_constraint():
    w = np.zeros(2)
    state = sgd_state(w, grad=[0.0, 0.0], G=[[1.0, 0.0]])
    out = kkt.kkt_matvec(state, np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [2.0, 1.0, 1.0])


def test_matvec_sgd_zero_jacobian_decouples():
    w = np.zeros(3)
    state = sgd_state(w, grad=np.zeros(3), G=np.zeros((2, 3)), damping=0.7)
    v = np.array([1.0, -2.0, 3.0, 4.0, 5.0])
    out = kkt.kkt_matvec(state, v)
    np.testing.assert_allclose(out, np.concatenate([0.7 * v[:3], np.zeros(2)]))


def test_sgd_operator_materializes_to_block_matrix():
    rng = np.random.default_rng(0)
    G = rng.standard_normal((2, 3))
    state = sgd_state(np.zeros(3), grad=np.zeros(3), G=G, damping=1.3)
    got = materialize(kkt.kkt_operator(state))
    expect = dense_block(1.3 * np.eye(3), G)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_matvec_gn_identity_residuals():
    n = 4
    w = np.zeros(n)
    state = kkt.KktState(diag=0.5, grad=np.zeros(n),
                         curvature=ad.linearize(LinearMap(np.eye(n)), w))
    v = np.arange(1.0, n + 1)
    np.testing.assert_allclose(kkt.kkt_matvec(state, v), 1.5 * v)


def test_gn_operator_materializes_to_gauss_newton_block():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 3))
    G = rng.standard_normal((2, 3))
    fn = linear_constraints(G)
    state = kkt.KktState(diag=0.8, grad=np.zeros(3),
                         curvature=ad.linearize(LinearMap(A), np.zeros(3)),
                         constraint=ad.linearize(fn, np.zeros(3)))
    got = materialize(kkt.kkt_operator(state))
    expect = dense_block(A.T @ A + 0.8 * np.eye(3), G)
    np.testing.assert_allclose(got, expect, atol=1e-12)


def test_gn_symmetry_probe_on_mlp_residuals():
    rng = np.random.default_rng(2)
    widths = dense_random_mlp(rng, max_width=12, in_dim=4, out_dim=3)
    mlp = ad.Mlp(widths)
    w = mlp.init_params(rng)
    X = rng.standard_normal((5, 4))
    Y = rng.standard_normal((5, 3))
    state = kkt.KktState(diag=0.3, grad=np.zeros(mlp.n_params),
                         curvature=ad.linearize(ad.ScaledResiduals(mlp, X, Y), w))
    assert symmetry_defect(kkt.kkt_operator(state), n_probes=50, seed=3) <= 1e-10


def test_matvec_adam_zero_moments():
    # Adam's diagonal at zero second moment is eps / f, still positive
    n = 3
    f = np.sqrt(1 - 0.999) / (1 - 0.9)
    state = kkt.KktState(diag=np.full(n, 1e-8 / f), grad=np.zeros(n))
    v = np.ones(n)
    np.testing.assert_allclose(kkt.kkt_matvec(state, v), 1e-8 / f * v, rtol=1e-12)


def test_matvec_adam_uniform_second_moment_is_scaled_identity():
    n = 5
    c = 0.04
    f = np.sqrt(1 - 0.999 ** 4) / (1 - 0.9 ** 4)
    scale = 2.0 * (np.sqrt(c) + 1e-8) / f
    state = kkt.KktState(diag=np.full(n, scale), grad=np.zeros(n))
    v = np.linspace(-1, 1, n)
    np.testing.assert_allclose(kkt.kkt_matvec(state, v), scale * v, rtol=1e-12)


def test_adam_operator_materializes_to_diag_block():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((2, 3))
    fn = linear_constraints(G)
    mvec = rng.standard_normal(3)
    vvec = rng.uniform(0.0, 1.0, 3)
    f = np.sqrt(1 - 0.999 ** 6) / (1 - 0.9 ** 6)
    diag = 1.7 * (np.sqrt(vvec) + 1e-8) / f
    state = kkt.KktState(diag=diag, grad=mvec, constraint=ad.linearize(fn, np.zeros(3)))
    D = np.diag(diag)
    np.testing.assert_allclose(materialize(kkt.kkt_operator(state)),
                               dense_block(D, G), atol=1e-12)


def test_rhs_sgd_sign_and_concat():
    state = sgd_state(np.zeros(2), grad=[1.0, 2.0], G=[[0.0, 0.0]], c=[3.0])
    np.testing.assert_allclose(kkt.kkt_rhs(state), [-1.0, -2.0, -3.0])


def test_rhs_gn_zero_residuals():
    A = np.array([[1.0, 0.0], [0.0, 2.0]])
    lin = ad.linearize(LinearMap(A), np.zeros(2))
    state = kkt.KktState(diag=1.0, grad=lin.vjp(lin.value), curvature=lin)
    np.testing.assert_allclose(kkt.kkt_rhs(state), np.zeros(2))


def test_rhs_adam_first_step_moment():
    g = np.array([2.0, -4.0])
    m1 = (1 - 0.9) * g       # first-moment update from zero moments
    state = kkt.KktState(diag=np.sqrt(0.001 * g ** 2) + 1e-8, grad=m1)
    np.testing.assert_allclose(kkt.kkt_rhs(state), -0.1 * g)


def test_solve_step_unconstrained_is_scaled_gradient_descent():
    grad = np.array([3.0, -1.0, 2.0])
    state = kkt.KktState(diag=4.0, grad=grad)
    step = kkt.solve_step(state, SolverConfig(rtol=1e-12))
    np.testing.assert_allclose(step.dw, -grad / 4.0, atol=1e-12)
    assert step.multipliers.size == 0


def test_solve_step_inactive_orthogonal_constraint():
    # constraint already satisfied and its normal is orthogonal to the
    # gradient: the step must match the unconstrained one with zero multiplier
    grad = np.array([1.0, 0.0])
    state = sgd_state(np.zeros(2), grad=grad, G=[[0.0, 1.0]], damping=2.0)
    step = kkt.solve_step(state, SolverConfig(rtol=1e-12))
    np.testing.assert_allclose(step.dw, -grad / 2.0, atol=1e-10)
    np.testing.assert_allclose(step.multipliers, [0.0], atol=1e-10)


def test_solve_step_violated_linear_constraint():
    # C(w) = w0 - 1, violated at w=0; after the step the linearized
    # constraint must be satisfied to solver tolerance
    state = sgd_state(np.zeros(2), grad=[0.2, -0.3], G=[[1.0, 0.0]], c=[-1.0])
    step = kkt.solve_step(state, SolverConfig(rtol=1e-12))
    lin_residual = state.constraint_values + np.array([[1.0, 0.0]]) @ step.dw
    assert abs(lin_residual[0]) <= 1e-10


def test_solve_step_matches_dense_kkt_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n, m = 6, 3
        G = rng.standard_normal((m, n))
        c = rng.standard_normal(m)
        grad = rng.standard_normal(n)
        state = sgd_state(rng.standard_normal(n), grad=grad, G=G, c=c, damping=1.5)
        M = dense_block(1.5 * np.eye(n), G)
        rhs = np.concatenate([-grad, -state.constraint_values])
        expect = np.linalg.solve(M, rhs)
        step = kkt.solve_step(state, SolverConfig(rtol=1e-12))
        sol = np.concatenate([step.dw, step.multipliers])
        assert np.linalg.norm(sol - expect) <= 1e-8 * np.linalg.norm(expect)


def test_solve_step_invariant_to_constraint_ordering():
    rng = np.random.default_rng(5)
    n, m = 5, 3
    G = rng.standard_normal((m, n))
    c = rng.standard_normal(m)
    grad = rng.standard_normal(n)
    w = rng.standard_normal(n)
    perm = np.array([2, 0, 1])
    s1 = sgd_state(w, grad=grad, G=G, c=c)
    s2 = sgd_state(w, grad=grad, G=G[perm], c=c[perm])
    cfg = SolverConfig(rtol=1e-12)
    st1 = kkt.solve_step(s1, cfg)
    st2 = kkt.solve_step(s2, cfg)
    np.testing.assert_allclose(st1.dw, st2.dw, atol=1e-9)
    np.testing.assert_allclose(st1.multipliers[perm], st2.multipliers, atol=1e-9)


def test_all_variants_pass_symmetry_probe():
    rng = np.random.default_rng(6)
    G = rng.standard_normal((2, 4))
    fn = linear_constraints(G)
    common = dict(grad=np.zeros(4), constraint=ad.linearize(fn, np.zeros(4)))
    f = np.sqrt(1 - 0.999 ** 3) / (1 - 0.9 ** 3)
    states = [
        kkt.KktState(diag=1.0, **common),
        kkt.KktState(diag=1.0,
                     curvature=ad.linearize(LinearMap(rng.standard_normal((5, 4))),
                                            np.zeros(4)), **common),
        kkt.KktState(diag=(np.sqrt(rng.uniform(0, 1, 4)) + 1e-8) / f, **common),
    ]
    for state in states:
        assert symmetry_defect(kkt.kkt_operator(state), n_probes=50, seed=1) <= 1e-10


def test_breakdown_propagates_with_diagnostics():
    class Bad(ad.DiffFunction):
        n_params = 2
        n_outputs = 1

        def value(self, w):
            return np.array([1.0])

        def linearize(self, w):
            return self.value(w), lambda v: np.array([np.nan]), lambda u: np.full(2, np.nan)

    state = kkt.KktState(diag=1.0, grad=np.ones(2),
                         constraint=ad.linearize(Bad(), np.zeros(2)))
    with pytest.raises(FloatingPointError, match=r"broke down after \d+ iterations"):
        kkt.solve_step(state)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar_D", "vector_D"])
def test_zero_jacobian_step_is_unpreconditioned_and_minimum_length(vector):
    # constraints whose outputs do not depend on w give G = 0 and S = 0, so
    # no preconditioner applies; the inconsistent system's minimum-length
    # least-squares solution is the unconstrained step with zero multipliers.
    # A scalar D gives it to roundoff; a vector D spanning three decades
    # leaves the squared-system sweep about 1e-10 off it
    rng = np.random.default_rng(15)
    pool = cs.ConstraintPool(rng.standard_normal((4, 5)),
                             LinearHead(np.zeros((2, 5)), [1.0, -2.0]), OffsetModel(5))
    w = rng.standard_normal(5)
    lin = pool.linearize(w, [0, 2, 3])
    state = kkt.KktState(random_diag(rng, 5, vector), rng.standard_normal(5), lin)
    assert kkt.schur_preconditioner(state) is None
    step = kkt.solve_step(state)
    assert step.accepted and step.solution.status == "singular_min_length"
    expect = -state.grad / state.diag
    tol = 1e-8 if vector else 1e-15
    assert np.linalg.norm(step.dw - expect) <= tol * np.linalg.norm(expect)
    np.testing.assert_array_equal(step.multipliers, np.zeros(6))


def test_one_solve_per_step_accepts_or_skips(monkeypatch):
    rng = np.random.default_rng(7)
    G = rng.standard_normal((2, 4))
    state = sgd_state(rng.standard_normal(4), grad=rng.standard_normal(4), G=G)
    solve, calls = kkt.minres_qlp, []
    monkeypatch.setattr(kkt, "minres_qlp", lambda *a, **k: calls.append(None) or solve(*a, **k))
    # a one-iteration budget cannot reach the acceptance residual
    step = kkt.solve_step(state, SolverConfig(rtol=1e-14, max_iters=1))
    assert not step.accepted and step.solution.iters >= 1 and len(calls) == 1
    # a sane budget accepts
    step = kkt.solve_step(state, SolverConfig(rtol=1e-10))
    assert step.accepted and len(calls) == 2


def test_state_validation():
    with pytest.raises(ValueError, match="damping"):
        kkt.KktState(diag=0.0, grad=np.zeros(2))
    with pytest.raises(ValueError, match="damping"):
        kkt.KktState(diag=np.array([1.0, -1e-3]), grad=np.zeros(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="damping"):
            kkt.KktState(diag=bad, grad=np.zeros(2))
        with pytest.raises(ValueError, match="damping"):
            kkt.KktState(diag=np.array([1.0, bad]), grad=np.zeros(2))


def gram_linearization(G, c):
    """Linear constraints C = G w + c at w = 0, with their Gram product."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    return ad.Linearization(np.asarray(c, dtype=float), lambda v: G @ v, lambda u: u @ G,
                            lambda d_inv: (G * d_inv) @ G.T)


def random_diag(rng, n, vector):
    """A scalar D block, or a positive diagonal spanning three decades (Adam's spread)."""
    return float(rng.uniform(0.5, 3.0)) if not vector else 10.0 ** rng.uniform(-3, 0, n)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar_D", "vector_D"])
def test_preconditioned_step_matches_dense_solve(vector):
    rng = np.random.default_rng(8)
    for _ in range(10):
        n, m = int(rng.integers(5, 40)), int(rng.integers(1, 5))
        G = rng.standard_normal((m, n))
        diag = random_diag(rng, n, vector)
        state = kkt.KktState(diag, rng.standard_normal(n),
                             gram_linearization(G, rng.standard_normal(m)))
        assert kkt.schur_preconditioner(state) is not None
        step = kkt.solve_step(state, SolverConfig(rtol=1e-10))
        D = np.diag(np.broadcast_to(diag, n))
        expect = np.linalg.solve(dense_block(D, G), kkt.kkt_rhs(state))
        got = np.concatenate([step.dw, step.multipliers])
        assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)
        # the Schur complement leaves three distinct eigenvalues; its shift
        # can cost an iteration or two more at this tolerance
        assert step.solution.status == "converged" and step.solution.iters <= 5


@pytest.mark.parametrize("vector", [False, True], ids=["scalar_D", "vector_D"])
def test_preconditioned_step_on_rank_deficient_constraints(vector):
    # duplicated and dependent rows: for a compatible right-hand side the
    # step dw is unique, and dw and the minimum-length multipliers equal the
    # pseudoinverse solution's; for an incompatible one the solve ends on
    # the least-squares contract, at the pseudoinverse solution too, after
    # the preconditioned sweep and the squared-system sweep.  Rank loss
    # keeps the preconditioner with the pseudo-inverse of S, since the
    # shifted Schur complement would leave a null(G^T) component in the
    # multipliers (about 1e-6 to 1e-3 of them)
    rng = np.random.default_rng(9)
    for trial in range(12):
        n, m = 10, 5
        G = rng.standard_normal((m, n))
        G[3] = G[1]
        G[4] = 0.5 * G[0] - 2.0 * G[2]
        consistent = trial % 2 == 0
        c = G @ rng.standard_normal(n) if consistent else rng.standard_normal(m)
        state = kkt.KktState(random_diag(rng, n, vector), rng.standard_normal(n),
                             gram_linearization(G, c))
        assert kkt.schur_preconditioner(state) is not None
        step = kkt.solve_step(state, SolverConfig(rtol=1e-10))
        oracle = np.linalg.pinv(materialize(kkt.kkt_operator(state))) @ kkt.kkt_rhs(state)
        assert step.solution.status in ("converged", "singular_min_length")
        assert np.all(np.isfinite(step.solution.x)) and np.isfinite(step.solution.residual_norm)
        if consistent:
            assert np.linalg.norm(step.dw - oracle[:n]) <= 1e-8 * np.linalg.norm(oracle[:n])
            assert (np.linalg.norm(step.multipliers - oracle[n:])
                    <= 1e-8 * np.linalg.norm(oracle[n:]))
        else:
            got = np.concatenate([step.dw, step.multipliers])
            assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)
            assert step.solution.iters <= (40 if vector else 12)


def test_preconditioner_only_for_a_diagonal_block_with_a_gram_product():
    rng = np.random.default_rng(10)
    G = rng.standard_normal((2, 4))
    with_gram = gram_linearization(G, np.zeros(2))
    curvature = ad.linearize(LinearMap(rng.standard_normal((3, 4))), np.zeros(4))
    assert kkt.schur_preconditioner(kkt.KktState(1.0, np.ones(4), with_gram)) is not None
    assert kkt.schur_preconditioner(kkt.KktState(1.0, np.ones(4), with_gram, curvature)) is not None
    assert kkt.schur_preconditioner(kkt.KktState(1.0, np.ones(4))) is None
    without = ad.linearize(linear_constraints(G), np.zeros(4))
    assert without.gram is None
    assert kkt.schur_preconditioner(kkt.KktState(1.0, np.ones(4), without)) is None
    # a duplicated row leaves S singular: its pseudo-inverse keeps the
    # multipliers minimum-length
    dup = gram_linearization(np.vstack([G, G[:1]]), np.zeros(3))
    assert kkt.schur_preconditioner(kkt.KktState(1.0, np.ones(4), dup)) is not None


@pytest.mark.parametrize("vector", [False, True], ids=["scalar_D", "vector_D"])
@pytest.mark.parametrize("case", ["cholesky", "eigh", "cholesky_fails"])
def test_schur_preconditioner_is_spd(monkeypatch, case, vector):
    # MINRES-QLP needs an SPD P (a P^-1 with r . z < 0 breaks the solve
    # down): the Cholesky factor of the shifted S, and on rank loss or a
    # failed factorization the eigenvectors of S with the floored
    # eigenvalues, both give one, and the step it preconditions is the
    # minimum-length solution of the dense system
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(None) or eigh(a))
    if case == "cholesky_fails":
        def cholesky(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    rng = np.random.default_rng(13)
    for _ in range(5):
        n, m = 10, 5
        G = rng.standard_normal((m, n))
        if case == "eigh":
            G[3] = G[1]
        state = kkt.KktState(random_diag(rng, n, vector), rng.standard_normal(n),
                             gram_linearization(G, np.zeros(m)))
        calls.clear()
        p_inv = materialize(LinearOperator(n + m, kkt.schur_preconditioner(state)))
        assert len(calls) == (0 if case == "cholesky" else 1)
        np.testing.assert_allclose(p_inv, p_inv.T, rtol=0, atol=1e-12 * np.abs(p_inv).max())
        lam = np.linalg.eigvalsh(p_inv)
        assert lam[0] > 1e-8 * lam[-1]
        step = kkt.solve_step(state)
        oracle = np.linalg.pinv(materialize(kkt.kkt_operator(state))) @ kkt.kkt_rhs(state)
        got = np.concatenate([step.dw, step.multipliers])
        assert step.accepted
        assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_non_spd_preconditioner_breaks_the_step_down(monkeypatch):
    # r . z < 0 ends the sweep as non-finite, and the step raises
    rng = np.random.default_rng(14)
    state = kkt.KktState(1.0, rng.standard_normal(4),
                         gram_linearization(rng.standard_normal((2, 4)), np.ones(2)))
    monkeypatch.setattr(kkt, "schur_preconditioner", lambda state: lambda r: -r)
    with pytest.raises(FloatingPointError, match="broke down after"):
        kkt.solve_step(state)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_a_non_finite_schur_complement_raises_floating_point_error():
    # hard_adam's first step from a zero anchor gradient has D ~ 3e-308:
    # the sphere Gram product's X D w and w^T D w overflow, and the step
    # raises the FloatingPointError that training reports as a numerical
    # failure, not eigh's LinAlgError on a non-finite S
    problem = bm.gen_spheres(20, 8, seed=0)
    lin = problem.pool.linearize(problem.x0, [0, 3, 5, 6])
    state = kkt.KktState(np.full(20, 3e-308), np.zeros(20), lin)
    with pytest.raises(FloatingPointError, match="non-finite Schur complement"):
        kkt.solve_step(state)


def test_samples_below_every_relu_keep_the_preconditioner():
    # two pool samples that switch off every hidden unit both output the
    # last layer's bias, so their constraint rows coincide and G loses rank;
    # the step keeps the Schur preconditioner and converges to the
    # pseudoinverse solution
    problem = bm.gen_toy_pose(seed=0, n_samples=60, n_pool=20, in_dim=12, hidden=(8,))
    w = problem.mlp.init_params(np.random.default_rng(12))
    W1, b1 = problem.mlp.unpack(w)[0]
    dead = np.linalg.lstsq(W1, -1.0 - np.abs(b1) - b1, rcond=None)[0]
    problem.pool.samples[:2] = [dead, 2.0 * dead]
    assert np.all(problem.pool.samples[:2] @ W1.T + b1 < 0)
    res = ad.linearize(problem.residual_function(np.arange(16)), w)
    lin = problem.pool.linearize(w, np.arange(6))
    state = kkt.KktState(1.0 / 0.3, res.vjp(2.0 * res.value), lin)
    assert kkt.schur_preconditioner(state) is not None
    step = kkt.solve_step(state, SolverConfig(rtol=1e-8, max_iters=800))
    assert step.solution.status == "converged" and step.solution.iters <= 10
    oracle = np.linalg.pinv(materialize(kkt.kkt_operator(state))) @ kkt.kkt_rhs(state)
    got = np.concatenate([step.dw, step.multipliers])
    assert np.linalg.norm(got - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_gauss_newton_step_is_preconditioned_by_the_diagonal_part_of_d():
    # P = diag(eta I, G G^T / eta) clusters the spectrum of a Gauss-Newton
    # system on pose constraints: about 12 iterations, against about 50
    # with P = I
    problem = bm.gen_toy_pose(seed=0, n_samples=100, n_pool=20, in_dim=8, hidden=(12,))
    rng = np.random.default_rng(11)
    for _ in range(3):
        w = problem.mlp.init_params(rng)
        batch = rng.choice(problem.n_train, 32, replace=False)
        res = ad.linearize(problem.residual_function(batch), w)
        samples = np.sort(rng.choice(problem.pool.n_samples, 4, replace=False))
        lin = problem.pool.linearize(w, samples)
        state = kkt.KktState(1.0 / 0.3, 0.5 * res.vjp(2.0 * res.value), lin, res)
        step = kkt.solve_step(state, SolverConfig(rtol=1e-8, max_iters=800))
        assert step.solution.status == "converged" and step.solution.iters <= 16
        expect = np.linalg.solve(materialize(kkt.kkt_operator(state)), kkt.kkt_rhs(state))
        got = np.concatenate([step.dw, step.multipliers])
        assert np.linalg.norm(got - expect) <= 1e-7 * np.linalg.norm(expect)

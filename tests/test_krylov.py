import numpy as np
import pytest

from hardtrain import krylov, linops
from hardtrain.krylov import (
    CONVERGED,
    MAX_ITERS,
    SINGULAR_MIN_LENGTH,
    STALLED,
    KrylovSolution,
    SolverConfig,
    minres_qlp,
)

from util import from_dense, identity, random_symmetric_system


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.rtol == 1e-8
    assert cfg.resolve_max_iters(10) == 40
    assert cfg.resolve_max_iters(1000) == 2000  # capped
    assert SolverConfig(max_iters=5000).resolve_max_iters(1000) == 5000


def test_config_validation():
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rtol"):
            SolverConfig(rtol=bad)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_minres_identity_one_iteration():
    sol = minres_qlp(identity(3), np.array([5.0, -2.0, 0.0]))
    np.testing.assert_allclose(sol.x, [5.0, -2.0, 0.0], atol=1e-12)
    assert sol.iters <= 1
    assert sol.status == CONVERGED


def test_minres_diagonal():
    sol = minres_qlp(from_dense(np.diag([2.0, 3.0])), np.array([2.0, 3.0]))
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)
    assert sol.status == CONVERGED


def test_minres_matches_dense_solve():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((50, 50))
    a = (a + a.T) / 2 + 10 * np.eye(50)  # well conditioned
    b = rng.standard_normal(50)
    sol = minres_qlp(from_dense(a), b, SolverConfig(rtol=1e-10))
    expect = np.linalg.solve(a, b)
    assert np.linalg.norm(sol.x - expect) / np.linalg.norm(expect) <= 1e-8
    assert sol.status == CONVERGED


def test_minres_dimension_mismatch():
    with pytest.raises(linops.DimensionMismatch):
        minres_qlp(identity(3), np.ones(2))


def test_minres_zero_rhs():
    sol = minres_qlp(identity(4), np.zeros(4))
    np.testing.assert_array_equal(sol.x, np.zeros(4))
    assert sol.status == CONVERGED and sol.iters == 0


def test_qlp_identity():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(9)
    sol = minres_qlp(identity(9), b)
    np.testing.assert_allclose(sol.x, b, atol=1e-12)
    assert sol.status == CONVERGED


def test_qlp_singular_consistent_min_norm():
    # B = [[1,1],[1,1]], b = (2,2): solutions are x1+x2 = 2; min-norm (1,1)
    sol = minres_qlp(from_dense([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, 2.0]))
    np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-10)
    assert sol.status == CONVERGED


def test_qlp_singular_inconsistent_min_length():
    # B = diag(1, 0), b = (1,1): least-squares solutions are (1, t); min-length (1,0)
    sol = minres_qlp(from_dense([[1.0, 0.0], [0.0, 0.0]]), np.array([1.0, 1.0]))
    np.testing.assert_allclose(sol.x, [1.0, 0.0], atol=1e-10)
    assert sol.status == SINGULAR_MIN_LENGTH


def test_qlp_breakdown_on_nonfinite_matvec():
    op = linops.LinearOperator(3, lambda v: v * np.nan)
    with pytest.raises(FloatingPointError, match="broke down after 1 iterations"):
        minres_qlp(op, np.ones(3))


def test_residual_norm_matches_independent_recompute():
    rng = np.random.default_rng(5)
    for _ in range(20):
        B, b, _, _, _ = random_symmetric_system(rng)
        sol = minres_qlp(from_dense(B), b, SolverConfig(rtol=1e-10))
        recomputed = np.linalg.norm(b - B @ sol.x)
        assert abs(recomputed - sol.residual_norm) <= 1e-8 * np.linalg.norm(b)
        if sol.status == CONVERGED:
            assert sol.residual_norm <= 1e-10 * np.linalg.norm(b)


def test_minres_and_qlp_agree_on_well_conditioned():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 80))
        a = rng.standard_normal((n, n))
        a = (a + a.T) / 2 + (3 + n / 10) * np.eye(n)
        b = rng.standard_normal(n)
        x1 = np.linalg.solve(a, b)
        x2 = minres_qlp(from_dense(a), b, SolverConfig(rtol=1e-12)).x
        assert np.linalg.norm(x1 - x2) <= 1e-8 * np.linalg.norm(x1)


def test_solution_invariant_to_matrix_free_supply():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 30))
    a = (a + a.T) / 2
    b = rng.standard_normal(30)
    dense = minres_qlp(from_dense(a), b)
    free = minres_qlp(linops.LinearOperator(30, lambda v: a @ v), b)
    np.testing.assert_allclose(dense.x, free.x, rtol=0, atol=1e-12 * np.linalg.norm(dense.x))


def test_qlp_pseudoinverse_battery_small():
    # the full 200-system battery runs in the acceptance suite; this is a
    # fast slice of the same distribution
    rng = np.random.default_rng(20260809)
    for _ in range(60):
        B, b, x_star, cond, deficient = random_symmetric_system(rng)
        cfg = SolverConfig(rtol=1e-11, max_iters=min(max(8 * B.shape[0], 400), 3000))
        sol = minres_qlp(from_dense(B), b, cfg)
        err = np.linalg.norm(sol.x - x_star) / max(np.linalg.norm(x_star), 1e-300)
        tol = 1e-8 if (cond <= 1e6 and not deficient) else 1e-6
        assert err <= tol, f"cond={cond:.3g} n={B.shape[0]} deficient={deficient}: {err:.3g}"


def test_a_sweep_cut_at_the_iteration_cap_reports_max_iters():
    B = np.diag(np.arange(1.0, 11.0))
    sol = minres_qlp(from_dense(B), np.ones(10), SolverConfig(rtol=1e-10, max_iters=1))
    assert sol.status == MAX_ITERS
    # max_iters caps each sweep: the squared-system sweep adds its own
    assert sol.iters == 2
    assert not sol.ok


def _criterion_1_system(k):
    """The k-th system (1-based) of criterion 1's stream, with its iteration cap."""
    rng = np.random.default_rng(20260809)
    for _ in range(k):
        B, b, _, cond, deficient = random_symmetric_system(rng)
    return B, b, cond, deficient, min(max(8 * B.shape[0], 400), 3000)


def test_a_sweep_that_stops_short_of_rtol_reports_stalled():
    # the sixth system of criterion 1's stream (n=185, cond ~6e6) cannot
    # reach rtol=1e-11 in float64: the sweep stops at the attainable floor,
    # far below its iteration cap, and is not a least-squares point
    B, b, cond, deficient, maxit = _criterion_1_system(6)
    sol = minres_qlp(from_dense(B), b, SolverConfig(rtol=1e-11, max_iters=maxit))
    assert not deficient and 1e6 < cond < 1e7
    assert sol.status == STALLED
    assert sol.iters < maxit
    assert not sol.ok


def test_unpreconditioned_sweep_in_qlp_form_reaches_a_tight_rtol():
    # the second system of criterion 1's stream (n=171, cond ~4e3): the QLP
    # update form, taken from the first iteration, meets rtol=1e-11
    B, b, cond, deficient, maxit = _criterion_1_system(2)
    sol = minres_qlp(from_dense(B), b, SolverConfig(rtol=1e-11, max_iters=maxit))
    assert not deficient and cond < 1e4
    assert sol.status == CONVERGED and sol.iters == 30


def test_solution_dataclass_flags():
    # only a solve on the contract is ok: converged, or the minimum-length
    # least-squares solution of a singular system
    for status, ok in ((CONVERGED, True), (SINGULAR_MIN_LENGTH, True), (MAX_ITERS, False),
                       (STALLED, False)):
        assert KrylovSolution(np.zeros(2), 1.0, 5, status).ok is ok, status


def _spd(rng, n, cond):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.exp(rng.uniform(0.0, np.log(cond), n))) @ q.T


def test_preconditioned_solve_matches_dense_solve():
    # any SPD preconditioner gives the same solution of a nonsingular
    # indefinite system; the exact inverse takes one iteration
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(0, np.log(1e2), n))) @ q.T
        a = (a + a.T) / 2
        b = rng.standard_normal(n)
        p_inv = np.linalg.inv(_spd(rng, n, 1e2))
        cfg = SolverConfig(rtol=1e-10)
        calls = []

        def precond(r):
            calls.append(1)
            return p_inv @ r

        sol = minres_qlp(from_dense(a), b, cfg, precond=precond)
        expect = np.linalg.solve(a, b)
        # the result is the preconditioned sweep's: it applied P^-1 to b and
        # once per iteration, and no P = I sweep added iterations
        assert sol.status == CONVERGED
        assert len(calls) == sol.iters + 1
        assert np.linalg.norm(sol.x - expect) <= 1e-8 * np.linalg.norm(expect)
        assert np.linalg.norm(b - a @ sol.x) == pytest.approx(sol.residual_norm, rel=1e-12)
    spd = _spd(rng, 30, 1e3)
    exact = np.linalg.inv(spd)
    sol = minres_qlp(from_dense(spd), np.ones(30), precond=lambda r: exact @ r)
    assert sol.status == CONVERGED and sol.iters <= 2


def test_preconditioned_solve_without_spd_preconditioner_breaks_down():
    # r . z < 0 ends the preconditioned sweep as non-finite, before its
    # first iteration
    rng = np.random.default_rng(10)
    a = _spd(rng, 12, 10.0)
    b = rng.standard_normal(12)
    with pytest.raises(FloatingPointError, match="broke down after 0 iterations"):
        minres_qlp(from_dense(a), b, precond=lambda r: -r)


def test_preconditioned_inconsistent_system_ends_min_length():
    # preconditioned MINRES stops at a P-weighted least-squares point; the
    # solve must still return the minimum-length least-squares solution
    sol = minres_qlp(from_dense([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]),
                     np.array([1.0, 1.0, 1.0]),
                     precond=lambda r: np.array([4.0, 0.5, 1.0]) * r)
    np.testing.assert_allclose(sol.x, [1.0, 0.5, 0.0], atol=1e-10)
    assert sol.status == SINGULAR_MIN_LENGTH


def test_preconditioned_sweep_drops_the_direction_of_a_negligible_pivot():
    # the sweep's third iteration meets the zero eigenvalue at a pivot of
    # roundoff size; the QLP update takes no step along its direction, so
    # the sweep ends least-squares-type (flag 2) at the minimum-length answer
    op = from_dense([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])

    def precond(r):
        return np.array([4.0, 0.5, 1.0]) * r

    x, iters, flag, *_ = krylov._minres_qlp_pass(op, np.ones(3), SolverConfig(), 12, precond)
    assert (iters, flag) == (3, 2)
    np.testing.assert_allclose(x, [1.0, 0.5, 0.0], rtol=0, atol=1e-15)


def test_an_overlong_iterate_drops_its_direction_in_every_sweep():
    # B = diag(1e-13, 1), b = 1: the second iteration's step along the tiny
    # eigenvalue would take ||x|| past the norm cap, so with or without a
    # preconditioner the sweep stops there (flag 6) without taking it; x
    # keeps no component along that eigenvector, and its other one is 1 to
    # within what the 1e-13 eigenvalue perturbs in the Lanczos basis
    op = from_dense(np.diag([1e-13, 1.0]))
    b = np.ones(2)
    for precond in (None, lambda r: np.array([2.0, 0.5]) * r):
        x, iters, flag, *_ = krylov._minres_qlp_pass(op, b, SolverConfig(), 12, precond)
        assert (iters, flag) == (2, 6)
        assert abs(x[0]) <= 1e-15 and abs(x[1] - 1.0) <= 1e-11
        sol = minres_qlp(op, b, precond=precond)
        assert sol.status == SINGULAR_MIN_LENGTH
        assert np.all(np.isfinite(sol.x))


def _counting(a):
    """A dense operator that records a copy of every operand it is applied to."""
    a = np.asarray(a, dtype=np.float64)
    operands = []

    def matvec(v):
        operands.append(v.copy())
        return a @ v

    return linops.LinearOperator(a.shape[0], matvec), operands


def test_converged_solves_evaluate_the_final_residual_once():
    # one matvec per iteration, plus the single b - Bx that both the
    # preconditioned sweep's stopping check and the verdict read; P = |B|
    # passes that check the first time it is made
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(0, np.log(1e2), n))
        a = (q * lam) @ q.T
        a = (a + a.T) / 2
        b = rng.standard_normal(n)
        p_inv = (q / np.abs(lam)) @ q.T
        for precond in (None, lambda r: p_inv @ r):
            op, operands = _counting(a)
            sol = minres_qlp(op, b, SolverConfig(rtol=1e-10), precond=precond)
            assert sol.status == CONVERGED
            assert len(operands) == sol.iters + 1


def test_least_squares_verdict_evaluates_each_iterate_once(monkeypatch):
    # diag(1, 0), b = (1, 1) ends the first sweep least-squares-type and
    # takes the squared-system sweep, whose result is returned; outside the
    # sweeps the solve applies B to b once (the squared system's right-hand
    # side) and, for each of the two iterates, to x (for r = b - Bx) once.
    # The verdict reads the squared-system sweep's own stopping flag
    sweeps = []
    real_pass = krylov._minres_qlp_pass

    def recording_pass(*args, **kwargs):
        start = len(operands)
        out = real_pass(*args, **kwargs)
        sweeps.append(range(start, len(operands)))
        return out

    monkeypatch.setattr(krylov, "_minres_qlp_pass", recording_pass)
    op, operands = _counting([[1.0, 0.0], [0.0, 0.0]])
    sol = minres_qlp(op, np.array([1.0, 1.0]))
    assert sol.status == SINGULAR_MIN_LENGTH and len(sweeps) == 2
    assert len(operands) - sum(len(s) for s in sweeps) == 3

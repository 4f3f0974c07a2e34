"""Krylov solver for symmetric indefinite systems.

:func:`minres_qlp` is MINRES-QLP (Choi, Paige & Saunders 2011) over the
matvec-only operator abstraction: minimal-residual iterations that keep
working when the operator is singular or severely ill-conditioned and then
return the minimum-length least-squares solution.

It recomputes the true residual ``b - Bx`` on exit and classifies the
result from that, so ``status == "converged"`` always means the *recomputed*
residual is within ``rtol * ||b||``.  Systems that only converge in the
least-squares sense (singular, inconsistent) come back as
``"singular_min_length"``, read from the stopping flag of the sweep that
produced the iterate; one that meets neither test is ``"max_iters"`` when
its sweep ran to the iteration cap and ``"stalled"`` when another stopping
test ended it first.  Each iterate's residual is computed once and read by
every test after it.  A solve whose first sweep goes non-finite raises
``FloatingPointError`` where it is found, so every returned solution holds a
finite iterate.

Every solve takes one path.  Its first sweep runs the preconditioned
Lanczos recurrences for a symmetric positive definite P, given as a
function applying P^-1, or with the identity when none is given, which
makes them the plain ones.  A first sweep that misses ``rtol`` and ends
least-squares-type is followed by one P = I sweep on the consistent
squared system B^2 y = B b, whose result is returned and keeps the
minimum-length least-squares contract; ``iters`` counts both sweeps.

Every sweep updates x in QLP form from its first iteration, preconditioned
or not: a direction whose pivot is at roundoff level, or that would make
the iterate overlong, is dropped instead of divided by, which keeps x
minimum-length on singular and ill-conditioned systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import LinearOperator, apply, as_vector, check_length

CONVERGED = "converged"
MAX_ITERS = "max_iters"
STALLED = "stalled"
SINGULAR_MIN_LENGTH = "singular_min_length"

_EPS = np.finfo(np.float64).eps
_REALMIN = np.finfo(np.float64).tiny

# the standard MINRES-QLP safeguards: a norm cap on the iterate and a
# condition-estimate cap
_MAXXNORM = 1e12
_ACONDLIM = 1e15


@dataclass
class SolverConfig:
    """Tolerance and iteration cap of the solver.

    ``max_iters`` defaults to ``4 * dim`` capped at 2000 when left unset.
    It caps each sweep, not the solve: a solve that takes the
    squared-system sweep can report up to ``2 * max_iters`` iterations.
    """

    rtol: float = 1e-8
    max_iters: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.rtol < math.inf:
            raise ValueError(f"rtol must be positive and finite, got {self.rtol}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")

    def resolve_max_iters(self, dim: int) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return min(4 * dim, 2000)


@dataclass
class KrylovSolution:
    """Solver output.  ``residual_norm`` is ||b - Bx|| recomputed on exit;
    ``iters`` counts the iterations of both sweeps, so it can reach
    ``2 * max_iters``; ``acond`` is the solver's condition estimate.
    """

    x: np.ndarray
    residual_norm: float
    iters: int
    status: str
    acond: float = 1.0

    @property
    def ok(self) -> bool:
        return self.status in (CONVERGED, SINGULAR_MIN_LENGTH)


def _sym_givens(a: float, b: float):
    """Stable symmetric Givens rotation: returns (c, s, r) with r >= 0."""
    if b == 0.0:
        if a == 0.0:
            return 1.0, 0.0, 0.0
        return math.copysign(1.0, a), 0.0, abs(a)
    if a == 0.0:
        return 0.0, math.copysign(1.0, b), abs(b)
    if abs(b) > abs(a):
        t = a / b
        s = math.copysign(1.0, b) / math.sqrt(1.0 + t * t)
        c = s * t
        return c, s, b / s
    t = b / a
    c = math.copysign(1.0, a) / math.sqrt(1.0 + t * t)
    s = c * t
    return c, s, a / c


def _residual_norm(op: LinearOperator, b: np.ndarray, x: np.ndarray) -> float:
    """||b - Bx||, the norm every verdict on x reads."""
    return float(np.linalg.norm(b - apply(op, x)))


def _classify(x: np.ndarray, rnorm: float, bnorm: float, rtol: float, ls_flagged: bool,
              ran_out: bool, iters: int, acond: float) -> KrylovSolution:
    """Final verdict on the finite iterate x from its independently
    recomputed residual norm ``rnorm``.

    An iterate within ``rtol`` is ``converged``; otherwise the sweep that
    produced it decides: a least-squares stopping flag (``ls_flagged``)
    makes it ``singular_min_length``, a sweep that ran to the iteration cap
    (``ran_out``) ``max_iters``, and one that another stopping test ended
    ``stalled``.
    """
    if rnorm <= rtol * bnorm:
        status = CONVERGED
    elif ls_flagged:
        status = SINGULAR_MIN_LENGTH
    else:
        status = MAX_ITERS if ran_out else STALLED
    return KrylovSolution(x, rnorm, iters, status, acond)


def _minres_qlp_pass(op: LinearOperator, b: np.ndarray, cfg: SolverConfig, maxit: int,
                     precond=None):
    """One MINRES-QLP sweep; returns (x, iters, flag, anorm, acond,
    nonfinite, xres).

    The Lanczos recurrences are the preconditioned ones, with ``precond``
    applying P^-1 and the identity when it is None: each iteration takes
    z = P^-1 r and beta = sqrt(r . z), so the norms, estimates and
    stopping tests are in the P^-1-norm.  x is updated in QLP form
    throughout; an iteration that finds a negligible pivot or an overlong
    iterate (flag 9 or 6) takes no step along its direction (u = 0).  With
    ``precond``, when the convergence test passes but the recomputed
    Euclidean residual does not meet ``rtol``, the sweep goes on with the
    P^-1-norm target tightened by that gap.  ``xres`` is that Euclidean
    ||b - Bx|| when it was measured for the returned x, else None.  A preconditioner
    that gives r . z < 0 (not SPD) ends the sweep as non-finite.
    """
    n = op.dim
    rtol = rtol_p = cfg.rtol
    preconditioned = precond is not None
    if not preconditioned:
        precond = _identity

    z = precond(b)
    beta1 = _precond_norm(b, z)
    if not math.isfinite(beta1):
        return np.zeros(n), 0, 0, 0.0, 1.0, True, None
    if beta1 == 0.0:
        return np.zeros(n), 0, 0, 0.0, 1.0, False, None

    FLAG_GO = -2
    flag = FLAG_GO
    iters = 0
    nonfinite = False

    # Lanczos state
    r1 = np.zeros(n)
    r2 = b.copy()
    r3 = z.copy()
    beta, betan = 0.0, beta1

    # left reflection state
    tau, taul, phi = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    dltan, eplnn = 0.0, 0.0

    # right reflection state
    cr1, sr1 = -1.0, 0.0
    cr2, sr2 = -1.0, 0.0

    # QLP factors
    gama, gamal, gamal2 = 0.0, 0.0, 0.0
    eta, etal, etal2 = 0.0, 0.0, 0.0
    vepln, veplnl, veplnl2 = 0.0, 0.0, 0.0
    u, ul, ul2, ul3 = 0.0, 0.0, 0.0, 0.0

    rnorm = betan
    xnorm, xl2norm = 0.0, 0.0
    anorm, acond = 0.0, 1.0
    relres = rnorm / (beta1 + 1e-50)
    gmin = gminl = 0.0
    xres = None

    x = np.zeros(n)
    w = np.zeros(n)
    wl = np.zeros(n)
    wl2 = np.zeros(n)
    xl2 = np.zeros(n)

    while flag == FLAG_GO and iters < maxit:
        iters += 1

        # --- Lanczos step ---------------------------------------------
        betal = beta
        beta = betan
        v = r3 / beta
        r3 = apply(op, v)
        if iters > 1:
            r3 = r3 - (beta / betal) * r1
        alfa = float(r3 @ v)
        r3 = r3 - (alfa / beta) * r2
        r1 = r2
        r2 = r3
        r3 = precond(r2)
        betan = _precond_norm(r2, r3)
        if not (math.isfinite(alfa) and math.isfinite(betan)):
            nonfinite = True
            break
        if iters == 1 and betan == 0.0:
            if alfa == 0.0:
                break                      # B b = 0: x = 0 is minimum-length
            x = z / alfa                   # B z = alfa b
            flag = 1
            break
        pnorm = math.sqrt(betal * betal + alfa * alfa + betan * betan)

        # --- previous left reflection Q_{k-1} -------------------------
        dbar = dltan
        dlta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        eplnn = sn * betan
        dltan = -cs * betan

        # --- current left reflection Q_k ------------------------------
        gamal2 = gamal
        gamal = gama
        cs, sn, gama = _sym_givens(gbar, betan)
        taul2 = taul
        taul = tau
        tau = cs * phi
        phi = sn * phi

        # --- previous right reflection P_{k-2,k} ----------------------
        if iters > 2:
            veplnl2 = veplnl
            etal2 = etal
            etal = eta
            dlta_tmp = sr2 * vepln - cr2 * dlta
            veplnl = cr2 * vepln + sr2 * dlta
            dlta = dlta_tmp
            eta = sr2 * gama
            gama = -cr2 * gama

        # --- current right reflection P_{k-1,k} -----------------------
        if iters > 1:
            cr1, sr1, gamal = _sym_givens(gamal, dlta)
            vepln = sr1 * gama
            gama = -cr1 * gama

        # --- solution-norm recurrences --------------------------------
        ul4 = ul3
        ul3 = ul2
        if iters > 2:
            ul2 = (taul2 - etal2 * ul4 - veplnl2 * ul3) / gamal2
        if iters > 1:
            ul = (taul - etal * ul3 - veplnl * ul2) / gamal
        xnorm_tmp = math.sqrt(xl2norm * xl2norm + ul2 * ul2 + ul * ul)
        # numerical-rank test: a gamma at roundoff level relative to the
        # operator scale means the Krylov space just hit the range of B;
        # dividing by it would inject an arbitrary null-space component
        gama_tol = 100.0 * _EPS * max(anorm, pnorm)
        if abs(gama) > max(_REALMIN, gama_tol) and xnorm_tmp < _MAXXNORM:
            u = (tau - eta * ul2 - vepln * ul) / gama
            if math.hypot(xnorm_tmp, u) > _MAXXNORM:
                u = 0.0
                flag = 6
        else:
            u = 0.0
            flag = 9
        xl2norm = math.hypot(xl2norm, ul2)
        xnorm = math.sqrt(xl2norm * xl2norm + ul * ul + u * u)

        # --- update w and x in QLP form -------------------------------
        # u = 0 on flag 6 or 9 drops the direction of a gamma at roundoff
        # level or of an overlong step, which keeps x minimum-length
        if iters == 1:
            wl2 = wl
            wl = v * sr1
            w = -v * cr1
        elif iters == 2:
            wl2 = wl
            wl = w * cr1 + v * sr1
            w = w * sr1 - v * cr1
        else:
            wl2 = wl
            wl = w
            w = wl2 * sr2 - v * cr2
            wl2 = wl2 * cr2 + v * sr2
            v = wl * cr1 + w * sr1
            w = wl * sr1 - w * cr1
            wl = v
        xl2 = xl2 + wl2 * ul2
        x = xl2 + wl * ul + w * u

        # --- next right reflection P_{k-1,k+1} ------------------------
        cr2, sr2, gamal = _sym_givens(gamal, eplnn)

        # --- norm estimates and stopping tests ------------------------
        abs_gama = abs(gama)
        anorm = max(anorm, pnorm, gamal, abs_gama)
        if iters == 1:
            gmin = gama
            gminl = gmin
        else:
            gminl2 = gminl
            gminl = gmin
            gmin = min(gminl2, gamal, abs_gama)
        acond = anorm / max(gmin, _REALMIN)
        if flag != 9:
            rnorm = phi
        relres = rnorm / (anorm * xnorm + beta1)
        rootl = math.hypot(gbar, dltan)
        relaresl = rootl / max(anorm, _REALMIN)

        if flag == FLAG_GO or flag == 9:
            epsx = anorm * xnorm * _EPS
            if iters >= maxit:
                flag = 8
            if acond >= _ACONDLIM:
                flag = 7
            if xnorm >= _MAXXNORM:
                flag = 6
            if epsx >= beta1:
                flag = 5
            if 1.0 + relaresl <= 1.0:
                flag = 4
            if 1.0 + relres <= 1.0:
                flag = 3
            if relaresl <= rtol:
                flag = 2
            if rnorm <= rtol_p * beta1:
                flag = 1
            if flag == 1 and preconditioned and iters < maxit:
                # that test is in the P^-1-norm: continue, towards a
                # tighter target, until the Euclidean residual meets rtol
                xres = float(np.linalg.norm(b - apply(op, x)))
                rel = xres / float(np.linalg.norm(b))
                if not rel <= rtol:
                    rtol_p *= 0.5 * rtol / rel
                    flag = FLAG_GO
                    xres = None

    if flag == FLAG_GO:
        flag = 0
    return x, iters, flag, max(anorm, _REALMIN), acond, nonfinite, xres


def _identity(r: np.ndarray) -> np.ndarray:
    """P^-1 for P = I."""
    return r


def _precond_norm(r: np.ndarray, z: np.ndarray) -> float:
    """sqrt(r . z), the P^-1-norm of r for z = P^-1 r; NaN unless r . z >= 0."""
    rz = float(r @ z)
    return math.sqrt(rz) if rz >= 0.0 else math.nan


def minres_qlp(op: LinearOperator, b, cfg: SolverConfig | None = None,
               precond=None) -> KrylovSolution:
    """Minimum-length solution of a symmetric (possibly singular) system.

    One sweep runs with ``precond``, which applies P^-1 for a symmetric
    positive definite P, or with the identity when it is None.  A first
    sweep whose recurrences or iterate go non-finite, as a P that is not
    SPD (r . z < 0) makes them, raises ``FloatingPointError`` naming its
    iteration count.  In a preconditioned sweep the stopping flags, the
    norm estimate ``anorm`` and the condition estimate ``acond`` belong to
    P^-1 B.

    A sweep whose Euclidean residual met ``rtol``, or that stopped at the
    float64 floor, is the answer.  Any other exit is least-squares-type:
    the zero eigenvalue of a singular inconsistent system surfaces in the
    tridiagonal factor mid-run, and a preconditioned sweep stops at a
    P-weighted least-squares point whose null-space component is
    uncontrolled (with a vector D block, the multipliers of a
    rank-deficient KKT step carry a null(G^T) part that puts the step far
    from the pseudoinverse solution).  A P = I sweep on the consistent
    squared system B^2 y = B b follows, whose minimum-length solution is
    exactly the minimum-length least-squares solution of the original
    system; its result is returned when finite, the first sweep's iterate
    otherwise, and ``iters`` counts both sweeps.
    """
    cfg = cfg or SolverConfig()
    b = as_vector(b, "rhs")
    check_length(b, op.dim, "rhs")
    maxit = cfg.resolve_max_iters(op.dim)
    x, iters, flag, anorm, acond, nonfinite, xres = _minres_qlp_pass(op, b, cfg, maxit, precond)
    if nonfinite or not np.all(np.isfinite(x)):
        raise FloatingPointError(f"MINRES-QLP broke down after {iters} iterations")
    if xres is not None:
        return KrylovSolution(x, xres, iters, CONVERGED, acond)
    bnorm = float(np.linalg.norm(b))
    rnorm = _residual_norm(op, b, x)
    # flags 1/3/5 mean the sweep converged as far as f64 allows; the
    # squared-system sweep would only trade a floor-level iterate for one
    # with cond^2 error amplification.  So would a sweep that ran out of
    # iterations at a normwise relative backward error at roundoff level.
    done = (rnorm <= cfg.rtol * bnorm or flag in (1, 3, 5) or (
        flag == 8 and rnorm / (anorm * np.linalg.norm(x) + bnorm) <= 1e-10))
    if not done:
        # Least-squares-type exit: the sweep may carry an uncontrolled
        # null-space component.  The squared system is consistent, and its
        # minimum-length solution is the minimum-length least-squares
        # solution, so its finite result is returned as is.
        sq = LinearOperator(op.dim, lambda v: apply(op, apply(op, v)))
        x2, it2, flag2, _, acond2, nonfinite2, _ = _minres_qlp_pass(sq, apply(op, b), cfg,
                                                                     maxit)
        if not nonfinite2 and np.all(np.isfinite(x2)):
            return _classify(x2, _residual_norm(op, b, x2), bnorm, cfg.rtol,
                             flag2 in (1, 2, 3, 4), it2 >= maxit, iters + it2, max(acond, acond2))
    return _classify(x, rnorm, bnorm, cfg.rtol, flag in (2, 4), iters >= maxit, iters, acond)

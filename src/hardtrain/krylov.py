"""Krylov solver for symmetric indefinite systems.

:func:`minres_qlp` is MINRES-QLP (Choi, Paige & Saunders 2011) over the
matvec-only operator abstraction: minimal-residual iterations that keep
working when the operator is singular or severely ill-conditioned and then
return the minimum-length least-squares solution.  Every sweep updates its
iterate in QLP form; :func:`minres_qlp` says how a solve chains its sweeps.
A sweep writes its vector updates into arrays it allocated, reusing the
ones it frees, and never into a matvec's or preconditioner's operand or
result.  It forms the iterate x only where x is read: at the
preconditioned sweep's Euclidean residual check and on exit.

The solver recomputes the true residual r = b - Bx on exit and classifies
the result from that, so ``status == "converged"`` always means the
*recomputed* residual is within ``rtol * ||b||``.  ``"singular_min_length"``
is read from the stopping flag of the sweep that produced the iterate, and
it certifies a least-squares solution at ``rtol``, by the relative test
||B r|| <= rtol ||B|| ||r||.  A nonsingular B that is singular at that
tolerance passes it too: at the default rtol, B = diag(1e-13, 1) and
b = (1, 1) give x = (1e-13, 1), whose ||B r|| = 1e-13 is within
rtol ||B|| ||r|| = 1e-8.
A solve that meets neither test is ``"max_iters"`` when its sweep ran to
the iteration cap and ``"stalled"`` when another stopping test ended it
first.  Each iterate's residual is computed once and read by every test
after it.  A sweep that finds a non-finite value raises
``FloatingPointError`` there: from the first sweep it ends the solve, from
the squared-system sweep it leaves the first sweep's iterate, so every
returned solution holds a finite iterate.
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
    ``singular_min_length`` certifies a least-squares solution at ``rtol``,
    which a nonsingular B that is singular at that tolerance also gives.
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
    """One MINRES-QLP sweep; returns (x, iters, flag, anorm, acond, xres).

    The Lanczos recurrences are the preconditioned ones, with ``precond``
    applying P^-1 and the identity when it is None: each iteration takes
    z = P^-1 r and beta = sqrt(r . z), so the norms, estimates and
    stopping tests are in the P^-1-norm.  x is updated in QLP form
    throughout; an iteration that finds a negligible pivot or an overlong
    iterate (flag 9 or 6) takes no step along its direction (u = 0).  With
    ``precond``, when the convergence test passes but the Euclidean
    residual misses ``rtol * ||b||``, the sweep goes on with the
    P^-1-norm target tightened by that gap.  ``xres`` is that Euclidean
    ||b - Bx|| when it was measured for the returned x, else None.  Flag 0
    means no stopping test ended the sweep; b = 0 returns x = 0 at flag 1.
    The sweep raises ``FloatingPointError`` naming its iteration count
    where it finds a non-finite beta_1, alpha, beta_{k+1} or iterate; a
    preconditioner that gives r . z < 0 (not SPD) makes beta non-finite.
    """
    n = op.dim
    rtol = rtol_p = cfg.rtol
    preconditioned = precond is not None
    if not preconditioned:
        precond = _identity

    z = precond(b)
    beta1 = _precond_norm(b, z)
    if not math.isfinite(beta1):
        raise _breakdown(0)
    if beta1 == 0.0:
        return np.zeros(n), 0, 1, 0.0, 1.0, None   # x = 0 meets the residual test
    bnorm = float(np.linalg.norm(b))

    flag = 0
    iters = 0

    # Lanczos state; r1 and r2 are the sweep's own buffers, while r3 is
    # the latest matvec or preconditioner output, which it only reads
    r1 = np.empty(n)
    r2 = b.copy()
    r3 = z
    beta, betan = 0.0, beta1

    # left reflection state
    tau, taul, phi = 0.0, 0.0, beta1
    cs, sn = -1.0, 0.0
    dltan = 0.0

    # right reflection state
    cr1, sr1 = -1.0, 0.0

    # QLP factors
    gama, gamal, gamal2 = 0.0, 0.0, 0.0
    eta, etal, etal2 = 0.0, 0.0, 0.0
    vepln, veplnl, veplnl2 = 0.0, 0.0, 0.0
    ul, ul2, ul3 = 0.0, 0.0, 0.0

    rnorm = betan
    xl2norm = 0.0
    anorm, acond = 0.0, 1.0
    xres = None

    # x = xl2 + wl ul + w u is formed only where it is read, into the
    # scratch t; the direction buffers w, wl, wl2 and t rotate among four
    # arrays, and wl2's is scratch too once xl2 has taken it in
    x = None
    xl2 = np.zeros(n)
    wl = np.zeros(n)
    w, wl2, t = np.empty(n), np.empty(n), np.empty(n)

    while flag == 0 and iters < maxit:
        iters += 1

        # --- Lanczos step ---------------------------------------------
        # v is fresh: a matvec may keep its operand, so it is never written
        betal = beta
        beta = betan
        v = r3 / beta
        r3 = apply(op, v)
        if iters > 1:
            np.multiply(r1, beta / betal, out=r1)
            r3 = np.subtract(r3, r1, out=r1)
        alfa = float(r3 @ v)
        np.multiply(r2, alfa / beta, out=t)
        np.subtract(r3, t, out=r1)
        r1, r2 = r2, r1
        r3 = precond(r2)
        betan = _precond_norm(r2, r3)
        if not (math.isfinite(alfa) and math.isfinite(betan)):
            raise _breakdown(iters)
        if iters == 1 and betan == 0.0:
            if alfa == 0.0:
                x = np.zeros(n)            # B b = 0: x = 0 is minimum-length
                break
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

        # --- update w and xl2 in QLP form -----------------------------
        # u = 0 on flag 6 or 9 drops the direction of a gamma at roundoff
        # level or of an overlong step, which keeps x minimum-length.
        # Each product and sum is the one of the textbook update
        # [wl2, wl, w] <- rotations of [wl, w, v], in its order.
        if iters == 1:
            wl2, wl = wl, wl2
            np.multiply(v, sr1, out=wl)
            np.negative(v, out=w)
            np.multiply(w, cr1, out=w)
        elif iters == 2:
            wl2, wl = wl, wl2
            np.multiply(w, cr1, out=wl)
            np.multiply(v, sr1, out=t)
            np.add(wl, t, out=wl)
            np.multiply(w, sr1, out=w)
            np.multiply(v, cr1, out=t)
            np.subtract(w, t, out=w)
        else:
            # P_{k-2,k} on [wl, v] gives wl2, into its freed buffer, and
            # an interim w, into wl
            np.multiply(wl, cr2, out=wl2)
            np.multiply(v, sr2, out=t)
            np.add(wl2, t, out=wl2)
            np.multiply(wl, sr2, out=wl)
            np.multiply(v, cr2, out=t)
            np.subtract(wl, t, out=wl)
        np.multiply(wl2, ul2, out=t)
        np.add(xl2, t, out=xl2)
        if iters > 2:
            # P_{k-1,k} on [w, interim] gives wl, into t, and w, with
            # wl2's buffer as scratch
            np.multiply(w, cr1, out=t)
            np.multiply(wl, sr1, out=wl2)
            np.add(t, wl2, out=t)
            np.multiply(w, sr1, out=w)
            np.multiply(wl, cr1, out=wl)
            np.subtract(w, wl, out=w)
            wl, t = t, wl

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

        if flag == 0 or flag == 9:
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
                x = _qlp_iterate(xl2, wl, ul, w, u, t, wl2)
                xres = _residual_norm(op, b, x)
                if not xres <= rtol * bnorm:
                    rtol_p *= 0.5 * rtol / (xres / bnorm)
                    flag = 0
                    x = xres = None
                    t = np.empty(n)        # the matvec may keep x, its operand

    if x is None:
        x = _qlp_iterate(xl2, wl, ul, w, u, t, wl2)
    if not np.all(np.isfinite(x)):
        raise _breakdown(iters)
    return x, iters, flag, max(anorm, _REALMIN), acond, xres


def _qlp_iterate(xl2: np.ndarray, wl: np.ndarray, ul: float, w: np.ndarray, u: float,
                 out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """x = xl2 + wl ul + w u in ``out``, rounded as that expression is
    (floating-point addition commutes), with ``scratch`` for w u."""
    x = np.multiply(wl, ul, out=out)
    x += xl2
    np.multiply(w, u, out=scratch)
    x += scratch
    return x


def _breakdown(iters: int) -> FloatingPointError:
    return FloatingPointError(f"MINRES-QLP broke down after {iters} iterations")


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
    positive definite P, or with the identity when it is None.  A sweep
    whose recurrences or iterate go non-finite, as a P that is not SPD
    (r . z < 0) makes them, raises ``FloatingPointError``; from the first
    sweep it ends the solve.  In a preconditioned sweep the stopping flags,
    the norm estimate ``anorm`` and the condition estimate ``acond`` belong
    to P^-1 B, and the Euclidean residual it measured is the one the
    verdict on its iterate reads.

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
    system; its result is returned unless that sweep breaks down, the first
    sweep's iterate otherwise, and ``iters`` counts both sweeps.
    :func:`_classify` builds every returned solution.
    """
    cfg = cfg or SolverConfig()
    b = as_vector(b, "rhs")
    check_length(b, op.dim, "rhs")
    maxit = cfg.resolve_max_iters(op.dim)
    x, iters, flag, anorm, acond, rnorm = _minres_qlp_pass(op, b, cfg, maxit, precond)
    bnorm = float(np.linalg.norm(b))
    if rnorm is None:
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
        # solution, so its result is returned as is.
        sq = LinearOperator(op.dim, lambda v: apply(op, apply(op, v)))
        try:
            x2, it2, flag2, _, acond2, _ = _minres_qlp_pass(sq, apply(op, b), cfg, maxit)
        except FloatingPointError:
            pass                           # keep the first sweep's iterate
        else:
            return _classify(x2, _residual_norm(op, b, x2), bnorm, cfg.rtol,
                             flag2 in (1, 2, 3, 4), it2 >= maxit, iters + it2, max(acond, acond2))
    return _classify(x, rnorm, bnorm, cfg.rtol, flag in (2, 4), iters >= maxit, iters, acond)

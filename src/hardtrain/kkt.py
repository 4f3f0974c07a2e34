"""Saddle-point systems coupling a descent step with active constraints.

Each outer iteration linearizes the active constraints at the current
parameters and solves one symmetric block system

    [ D   G^T ] [ dw ]   [ -g    ]
    [ G    0  ] [ L  ] = [ -C(w) ]

for the step ``dw`` and multipliers ``L``, where G is the constraint
Jacobian (never formed: its products come from the jvp/vjp closures of the
constraints' linearization at w, built once per step).  Only the top-left
block D and the top of the right-hand side ``g`` depend on the optimizer:

* plain step: ``D = eta * I`` and ``g = 2 J^T r``, the gradient of the
  risk ||r||^2 of the batch residuals r, whose Jacobian is J;
* Gauss-Newton step: ``D = J^T J + eta * I`` and ``g = J^T r``;
* Adam-style step: the moment-scaled diagonal
  ``D = eta * diag(sqrt(v) + eps) / f`` with Adam's bias correction
  ``f = sqrt(1 - beta2^t) / (1 - beta1^t)``, and ``g = m``, so that with
  no active constraints the step is exactly Adam's.

Here ``eta`` is the inverse learning rate.  :class:`KktState` holds D as
its diagonal plus an optional curvature linearization whose ``J^T J`` is
added to it.

When the constraint linearization supplies its Gram product, the solve is
preconditioned with P = diag(diag(D), S), where S = G diag(D)^-1 G^T is
the Schur complement of D's diagonal part (:func:`schur_preconditioner`).
It takes about three MINRES-QLP iterations when D is diagonal.  The
Gauss-Newton step took 11 on each of the 12 steps of a one-epoch
``hard_gn`` pose fine-tune (lr 0.3, seed 0) of a 20-epoch ``soft_adam``
baseline, against 64-82 with P = I.  A step whose active constraints lose
rank keeps P, with the pseudo-inverse of S in its S block.  Each step is
one solve, taken or skipped on its residual; a solve that breaks down
raises ``FloatingPointError``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .linops import LinearOperator, Vector, check_length
from .krylov import KrylovSolution, SolverConfig, minres_qlp

log = logging.getLogger(__name__)

# relative shift of the Schur complement before its Cholesky factorization
_SCHUR_SHIFT = 1e-10
# a squared Cholesky pivot below this many shifts marks S as rank-deficient
_RANK_PIVOT = 1e3
# eigenvalues of a rank-deficient S below this fraction of the largest are
# taken as zero
_EIG_CUTOFF = 1e-10
# residual, relative to ||rhs||, below which a solve that missed its own
# tolerance is still taken as a step
_ACCEPT_RTOL = 1e-3


@dataclass
class KktState:
    """Everything one step's matvec and right-hand side need.

    ``diag`` is the diagonal of D: a positive float (a multiple of the
    identity) or a positive vector.  ``grad`` is the descent direction
    whose negative tops the right-hand side.  ``constraint`` is the
    linearization of the active constraints stacked as a function of the
    flat parameters (None when none are active).  ``curvature``, when
    given, is a residual model's linearization whose ``J^T J`` is added
    to D.
    """

    diag: float | Vector
    grad: Vector
    constraint: ad.Linearization | None = None
    curvature: ad.Linearization | None = None

    def __post_init__(self) -> None:
        diag = np.asarray(self.diag)
        if not np.all((0 < diag) & (diag < np.inf)):
            raise ValueError("damping diagonal must be positive and finite")

    @property
    def constraint_values(self) -> Vector:
        return self.constraint.value if self.constraint is not None else np.zeros(0)

    @property
    def n_params(self) -> int:
        return self.grad.shape[0]

    @property
    def n_active(self) -> int:
        return self.constraint_values.shape[0]

    @property
    def dim(self) -> int:
        return self.n_params + self.n_active


def kkt_matvec(state: KktState, v: Vector) -> Vector:
    check_length(v, state.dim, "kkt operand")
    n = state.n_params
    v1, v2 = v[:n], v[n:]
    out = np.empty(state.dim)
    top = np.multiply(state.diag, v1, out=out[:n])
    if state.curvature is not None:
        np.add(state.curvature.vjp(state.curvature.jvp(v1)), top, out=top)
    if state.constraint is not None:
        np.add(top, state.constraint.vjp(v2), out=top)
        out[n:] = state.constraint.jvp(v1)
    return out


def kkt_operator(state: KktState) -> LinearOperator:
    return LinearOperator(state.dim, lambda v: kkt_matvec(state, v))


def kkt_rhs(state: KktState) -> Vector:
    """Negative descent direction on top, negative constraint values below."""
    return np.concatenate([-state.grad, -state.constraint_values])


@dataclass
class KktStep:
    """The step, its multipliers and the solve's record; ``accepted`` says
    whether the step should be taken."""

    dw: Vector
    multipliers: Vector
    solution: KrylovSolution
    accepted: bool


def schur_preconditioner(state: KktState):
    """P^-1 for P = diag(diag(D), S), S = G diag(D)^-1 G^T, or None.

    P is built from D's diagonal part alone (eta * I for the Gauss-Newton
    step) when the constraint linearization supplies its Gram product.  For
    a diagonal D and a full-rank G, P^-1 times the saddle-point matrix has
    three distinct eigenvalues, so preconditioned MINRES stops in three
    iterations (Murphy, Golub & Wathen 2000); with curvature they cluster
    near those three (Benzi, Golub & Liesen 2005, section 10.1).  S is
    factored once, by Cholesky after a shift of ``_SCHUR_SHIFT`` times its
    mean diagonal.  When G loses rank (a failed factorization, or a squared
    pivot below ``_RANK_PIVOT`` shifts), the shift would leave a null(G^T)
    component in the multipliers, so the S block is built from the
    eigenvectors of S instead: 1/lambda on the eigenvalues above
    ``_EIG_CUTOFF`` times the largest, 1/lambda_max on the rest.  That block
    is SPD and maps range(G) into itself, so the multipliers stay
    minimum-length.  An S with no positive eigenvalue (G = 0) gives None,
    and a non-finite S raises ``FloatingPointError``.
    """
    lin = state.constraint
    if lin is None or lin.gram is None:
        return None
    d_inv = 1.0 / state.diag
    S = lin.gram(d_inv)
    if not np.all(np.isfinite(S)):
        raise FloatingPointError("non-finite Schur complement")
    m = S.shape[0]
    shift = _SCHUR_SHIFT * max(float(np.trace(S)) / m, np.finfo(np.float64).tiny)
    try:
        L = np.linalg.cholesky(S + shift * np.eye(m))
        full_rank = np.min(np.diagonal(L)) ** 2 >= _RANK_PIVOT * shift
    except np.linalg.LinAlgError:
        full_rank = False
    if full_rank:
        F = np.linalg.inv(L)
    else:
        # S^+ = F^T F with F = diag(lambda)^-1/2 V^T, lambda floored as above
        lam, V = np.linalg.eigh(S)
        if not lam[-1] > 0:
            return None
        F = V.T / np.sqrt(np.where(lam > _EIG_CUTOFF * lam[-1], lam, lam[-1]))[:, None]
    n = state.n_params

    def apply_inverse(r):
        z = np.empty(r.shape[0])
        np.multiply(r[:n], d_inv, out=z[:n])
        z[n:] = F.T @ (F @ r[n:])
        return z

    return apply_inverse


def solve_step(state: KktState, cfg: SolverConfig | None = None) -> KktStep:
    """Solve the system once with MINRES-QLP, preconditioned by
    :func:`schur_preconditioner` where it applies, and split the step.

    The step is accepted when the solve met its own tolerance or, failing
    that, left a residual within ``_ACCEPT_RTOL`` of ||rhs||; otherwise the
    caller should skip the update.  A solve that breaks down raises the
    solver's ``FloatingPointError``, which passes through unchanged.
    """
    op = kkt_operator(state)
    rhs = kkt_rhs(state)
    sol = minres_qlp(op, rhs, cfg, precond=schur_preconditioner(state))
    accepted = sol.ok or sol.residual_norm <= _ACCEPT_RTOL * float(np.linalg.norm(rhs))
    if not accepted:
        log.warning("inner solve residual %.3e above %.1e of rhs: step not accepted",
                    sol.residual_norm, _ACCEPT_RTOL)
    return KktStep(sol.x[:state.n_params], sol.x[state.n_params:], sol, accepted)

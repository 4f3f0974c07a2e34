"""Saddle-point systems coupling a descent step with active constraints.

Each outer iteration linearizes the active constraints at the current
parameters and solves one symmetric block system

    [ D   G^T ] [ dw ]   [ -g    ]
    [ G    0  ] [ L  ] = [ -C(w) ]

for the step ``dw`` and multipliers ``L``, where G is the constraint
Jacobian (never formed: its products come from the jvp/vjp closures of the
constraints' linearization at w, built once per step) and D depends on
the variant: ``eta * I`` for the plain step, ``J^T J + eta * I`` for the
Gauss-Newton step over a residual model, and the ``eta * f *
diag(sqrt(v) + eps)`` moment-scaled diagonal for the Adam-style step.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .linops import LinearOperator, Vector, check_length
from .krylov import BREAKDOWN, KrylovSolution, SolverConfig, minres_qlp

log = logging.getLogger(__name__)

SGD = "sgd"
GAUSS_NEWTON = "gauss_newton"
ADAM = "adam"


class SolverBreakdown(RuntimeError):
    """Inner solve produced non-finite values."""

    def __init__(self, solution: KrylovSolution):
        super().__init__(
            f"saddle-point solve broke down after {solution.iters} iterations "
            f"(residual norm {solution.residual_norm:.3e})")
        self.solution = solution


@dataclass
class KktState:
    """Everything one step's matvec and right-hand side need.

    ``constraint`` is the linearization at ``w`` of the active constraints
    stacked as a function of the flat parameters (None when none are
    active); ``residual`` is the Gauss-Newton residual model's
    linearization at ``w``.  For the Adam variant, ``adam_m``/``adam_v``
    are the already-updated moments and ``adam_t`` the number of updates
    applied *before* them, so the bias correction exponent is
    ``adam_t + 1``.
    """

    w: Vector
    damping: float
    variant: str = SGD
    constraint: ad.Linearization | None = None
    risk_grad: Vector | None = None
    residual: ad.Linearization | None = None
    adam_m: Vector | None = None
    adam_v: Vector | None = None
    adam_t: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.damping <= 0:
            raise ValueError(f"damping must be positive, got {self.damping}")
        if self.variant not in (SGD, GAUSS_NEWTON, ADAM):
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def constraint_values(self) -> Vector:
        return self.constraint.value if self.constraint is not None else np.zeros(0)

    @property
    def n_params(self) -> int:
        return self.w.shape[0]

    @property
    def n_active(self) -> int:
        return self.constraint_values.shape[0]

    @property
    def dim(self) -> int:
        return self.n_params + self.n_active


def adam_correction(beta1: float, beta2: float, t: int) -> float:
    """Bias-correction factor sqrt(1 - b2^(t+1)) / (1 - b1^(t+1))."""
    return math.sqrt(1.0 - beta2 ** (t + 1)) / (1.0 - beta1 ** (t + 1))


def _split(state: KktState, v: Vector):
    check_length(v, state.dim, "kkt operand")
    return v[:state.n_params], v[state.n_params:]


def _border(state: KktState, v1: Vector, v2: Vector):
    """Constraint coupling blocks: (G^T v2, G v1) via vjp/jvp."""
    if state.n_active == 0:
        return 0.0, np.zeros(0)
    return state.constraint.vjp(v2), state.constraint.jvp(v1)


def kkt_matvec_sgd(state: KktState, v: Vector) -> Vector:
    v1, v2 = _split(state, v)
    gt_v2, g_v1 = _border(state, v1, v2)
    return np.concatenate([state.damping * v1 + gt_v2, g_v1])


def kkt_matvec_gn(state: KktState, v: Vector) -> Vector:
    if state.residual is None:
        raise ValueError("gauss_newton variant needs a residual model")
    v1, v2 = _split(state, v)
    jjv = state.residual.vjp(state.residual.jvp(v1))
    gt_v2, g_v1 = _border(state, v1, v2)
    return np.concatenate([jjv + state.damping * v1 + gt_v2, g_v1])


def kkt_matvec_adam(state: KktState, v: Vector) -> Vector:
    if state.adam_v is None:
        raise ValueError("adam variant needs moment vectors")
    v1, v2 = _split(state, v)
    f = adam_correction(state.adam_beta1, state.adam_beta2, state.adam_t)
    diag = state.damping * f * (np.sqrt(state.adam_v) + state.adam_eps)
    gt_v2, g_v1 = _border(state, v1, v2)
    return np.concatenate([diag * v1 + gt_v2, g_v1])


_MATVECS = {SGD: kkt_matvec_sgd, GAUSS_NEWTON: kkt_matvec_gn, ADAM: kkt_matvec_adam}


def kkt_operator(state: KktState) -> LinearOperator:
    matvec = _MATVECS[state.variant]
    return LinearOperator(state.dim, lambda v: matvec(state, v))


def kkt_rhs(state: KktState) -> Vector:
    """Negative gradient surrogate on top, negative constraint values below."""
    if state.variant == SGD:
        if state.risk_grad is None:
            raise ValueError("sgd variant needs risk_grad")
        top = -state.risk_grad
    elif state.variant == GAUSS_NEWTON:
        if state.residual is None:
            raise ValueError("gauss_newton variant needs a residual model")
        top = -state.residual.vjp(state.residual.value)
    else:
        if state.adam_m is None:
            raise ValueError("adam variant needs moment vectors")
        top = -state.adam_m
    return np.concatenate([top, -state.constraint_values])


@dataclass
class KktStep:
    dw: Vector
    multipliers: Vector
    solution: KrylovSolution


def solve_step(state: KktState, cfg: SolverConfig | None = None) -> KktStep:
    """Solve the variant's system with MINRES-QLP and split the step.

    Raises :class:`SolverBreakdown` on non-finite solver output; any other
    status is reported upward through ``KktStep.solution``.
    """
    op = kkt_operator(state)
    rhs = kkt_rhs(state)
    sol = minres_qlp(op, rhs, cfg)
    if sol.status == BREAKDOWN:
        raise SolverBreakdown(sol)
    return KktStep(sol.x[:state.n_params], sol.x[state.n_params:], sol)


def solve_step_with_retry(state: KktState, cfg: SolverConfig | None = None,
                          accept_rtol: float = 1e-3):
    """Solve; on a poor solve retry once at doubled damping (a half-size
    step), then give up.

    Returns ``(step, retried)`` where ``step`` is None when both attempts
    left a residual above ``accept_rtol * ||rhs||`` (the caller should skip
    the update).
    """
    cfg = cfg or SolverConfig()
    step = solve_step(state, cfg)
    rhs_norm = float(np.linalg.norm(kkt_rhs(state)))
    if step.solution.ok or step.solution.residual_norm <= accept_rtol * rhs_norm:
        return step, False
    retry_state = replace(state, damping=2.0 * state.damping)
    step = solve_step(retry_state, cfg)
    rhs_norm = float(np.linalg.norm(kkt_rhs(retry_state)))
    if step.solution.ok or step.solution.residual_norm <= accept_rtol * rhs_norm:
        return step, True
    log.warning("skipping update: inner solve residual %.3e above %.1e of rhs "
                "after damping retry", step.solution.residual_norm, accept_rtol)
    return None, True

"""Outer optimization loops over soft penalties and hard constraint steps.

Five methods: plain SGD and Adam on the penalized objective (soft), and the
saddle-point step in its plain, Gauss-Newton and Adam-scaled variants
(hard).  A problem object supplies the constraint pool, the batch residuals
whose squared norm is the risk, and a validation error.  The loop asks the
pool for its violation matrix once per iterate, and the steps ask it to
linearize their active set; neither sees a model.  Soft and hard runs
that share a seed consume identical data and constraint batch streams, so
the two regimes can be compared pairwise.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import constraints as cs
from . import kkt
from .krylov import SolverConfig
from .linops import Vector

SOFT_SGD = "soft_sgd"
SOFT_ADAM = "soft_adam"
HARD_SGD = "hard_sgd"
HARD_GN = "hard_gn"
HARD_ADAM = "hard_adam"
METHODS = (SOFT_SGD, SOFT_ADAM, HARD_SGD, HARD_GN, HARD_ADAM)

# Adam's moment decay rates and the denominator's guard
_BETA1 = 0.9
_BETA2 = 0.999
_ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """A step, its damping, its inner solve or a metric went non-finite;
    carries the report so far, with the last finite parameters."""

    def __init__(self, message: str, report: "TrainReport"):
        super().__init__(message)
        self.report = report


@dataclass
class AdamState:
    """First/second moment estimates with their update counter."""

    m: Vector
    v: Vector
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n))

    def bias_correction(self) -> float:
        """f = sqrt(1 - beta2^t) / (1 - beta1^t) at the current counter."""
        return math.sqrt(1.0 - _BETA2 ** self.t) / (1.0 - _BETA1 ** self.t)


def adam_update(state: AdamState, grad: Vector, lr: float):
    """One moment update; returns the new state and the parameter step.

    The step is -lr * f * m / (sqrt(v) + eps) with the bias correction f
    at the new counter.  The new moments and the step are fresh arrays,
    updated in place; ``state`` is left unchanged.
    """
    grad = np.asarray(grad, dtype=np.float64)
    m = _BETA1 * state.m
    m += (1.0 - _BETA1) * grad
    v = _BETA2 * state.v
    sq = (1.0 - _BETA2) * grad
    sq *= grad
    v += sq
    state = AdamState(m, v, state.t + 1)
    dw = -lr * state.bias_correction() * m
    den = np.sqrt(v)
    den += _ADAM_EPS
    dw /= den
    return state, dw


@dataclass
class TrainConfig:
    method: str
    lr: float = 1e-3
    soft_lambda: float = 1.0
    epochs: int = 1
    iterations: int | None = None   # direct count; required for data-free problems
    batch_data: int = 128
    batch_constraints: int = 128
    mine: bool = False
    n_mined: int = 16
    solver: SolverConfig = field(default_factory=lambda: SolverConfig(rtol=1e-8))
    seed: int = 0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; pick one of {METHODS}")
        if not 0 < self.lr < math.inf:
            raise ValueError("lr must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not 0 <= self.soft_lambda < math.inf:
            raise ValueError("soft_lambda must be non-negative and finite")
        for name in ("batch_data", "batch_constraints", "n_mined"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(slots=True)
class IterationRow:
    iteration: int
    risk: float
    pred_error: float
    median_violation: float
    active_delta: float
    solver_iters: int
    solver_status: str
    step_norm: float
    active_fingerprint: str

    def finite(self) -> bool:
        return all(math.isfinite(x) for x in
                   (self.risk, self.pred_error, self.median_violation,
                    self.active_delta, self.step_norm))


@dataclass
class TrainReport:
    method: str
    seed: int
    initial_row: IterationRow
    rows: list
    final_params: Vector
    best_params: Vector
    best_val_error: float

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


# ---------------------------------------------------------------------------
# Single steps
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One outer step: the new parameters and optimizer state, and the
    step's multipliers and inner-solve record (empty and zero for soft
    steps)."""

    w: Vector
    adam: AdamState | None
    multipliers: Vector
    solver_iters: int
    solver_status: str


def step_soft(method: str, w: Vector, problem, objective: ad.DiffFunction,
              active: np.ndarray, cfg: TrainConfig, adam: AdamState | None = None) -> Step:
    """One descent step on the batch risk ||objective(w)||^2 plus
    ``cfg.soft_lambda`` times the squared residuals of the active samples."""
    res = ad.linearize(objective, w)
    g = res.vjp(2.0 * res.value)
    # with lambda = 0 the penalty's gradient is exactly zero
    if cfg.soft_lambda > 0 and len(active):
        lin = problem.pool.linearize(w, active)
        g = g + lin.vjp(2.0 * cfg.soft_lambda * lin.value)
    if method == SOFT_SGD:
        w_new = w - cfg.lr * g
    else:
        adam, dw = adam_update(adam, g, cfg.lr)
        w_new = w + dw
    return Step(w_new, adam, np.zeros(0), 0, "-")


def step_hard(method: str, w: Vector, problem, objective: ad.DiffFunction,
              active: np.ndarray, cfg: TrainConfig, adam: AdamState | None = None) -> Step:
    """One saddle-point step on the batch risk ||objective(w)||^2 over every
    constraint of the active samples."""
    lin = problem.pool.linearize(w, active) if len(active) else None
    res = ad.linearize(objective, w)
    g = res.vjp(2.0 * res.value)
    if method == HARD_ADAM:
        # D = diag(sqrt(v) + eps) / (lr * f) makes the unconstrained
        # solution D^-1 (-m) Adam's own step
        adam, _ = adam_update(adam, g, cfg.lr)
        diag = (np.sqrt(adam.v) + _ADAM_EPS) / (cfg.lr * adam.bias_correction())
    else:
        diag = 1.0 / cfg.lr
    if not np.all(np.isfinite(diag)):
        # an lr below 1 / DBL_MAX, or an overflowing second moment
        raise FloatingPointError("non-finite damping diagonal")
    if method == HARD_GN:
        state = kkt.KktState(diag, 0.5 * g, lin, res)
    elif method == HARD_SGD:
        state = kkt.KktState(diag, g, lin)
    else:
        state = kkt.KktState(diag, adam.m, lin)

    step = kkt.solve_step(state, cfg.solver)
    if not step.accepted:
        return Step(w, adam, np.zeros(len(active) * problem.pool.n_constraints),
                    step.solution.iters, "skipped")
    return Step(w + step.dw, adam, step.multipliers, step.solution.iters,
                step.solution.status)


# ---------------------------------------------------------------------------
# Full loop
# ---------------------------------------------------------------------------


def _select(problem, V: np.ndarray, cfg: TrainConfig, cseed) -> np.ndarray:
    """The iteration's active samples from the pool's violation matrix V."""
    if cfg.mine:
        return cs.select_mined(V, cfg.n_mined)
    batch = min(cfg.batch_constraints, problem.pool.n_samples)
    return cs.select_random(problem.pool, batch, cseed)


def _risk(objective: ad.DiffFunction, w: Vector) -> float:
    r = ad.value(objective, w)
    return float(r @ r)


def train(cfg: TrainConfig, problem, w0: Vector | None = None) -> TrainReport:
    """Run the configured method; deterministic for a fixed seed.

    The seed splits into an init stream and a batch stream; the batch
    stream is consumed identically by every method (one data batch and one
    constraint-selection seed per iteration), so paired soft/hard runs see
    the same batches.  ``w0`` overrides the problem's own initialization,
    e.g. to fine-tune a constrained run from an unconstrained checkpoint.
    No parameter vector is written in place, so ``w0`` is used as given
    and left unchanged.  The best parameters are the latest of the
    iterates with the lowest validation error: the final array itself
    whenever the last iterate is or ties the best.  So a problem whose
    validation error is constant keeps no copy of its initial iterate.  The
    pool's violation matrix V is computed once per iterate; the pool
    median, the next active set and the active-median delta all read it.
    Each iteration gathers its data batch once, into the objective that the
    step and the row's risk share.
    """
    n_train = problem.n_train
    if cfg.iterations is None and n_train == 0:
        raise ValueError("data-free problems need cfg.iterations")
    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    rng_batch = np.random.default_rng(batch_ss)
    w = problem.initial_params(np.random.default_rng(init_ss)) if w0 is None else w0
    adam = AdamState.zeros(len(w)) if cfg.method in (SOFT_ADAM, HARD_ADAM) else None
    hard = cfg.method in (HARD_SGD, HARD_GN, HARD_ADAM)

    def schedule():
        if cfg.iterations is not None:
            for _ in range(cfg.iterations):
                yield None
            return
        batch = min(cfg.batch_data, n_train)
        for _ in range(cfg.epochs):
            perm = rng_batch.permutation(n_train)
            for lo in range(0, n_train - batch + 1, batch):
                yield perm[lo:lo + batch]

    V = problem.pool.violation_matrix(w)
    val0 = float(problem.prediction_error(w))
    initial_row = IterationRow(0, _risk(problem.residual_function(None), w), val0,
                               cs.median_violation(V), 0.0, 0, "init", 0.0, "-")
    rows: list = []
    best_w, best_val = w, val0
    report = lambda: TrainReport(cfg.method, cfg.seed, initial_row, rows,
                                 w, best_w, best_val)

    it = 0
    for data_idx in schedule():
        it += 1
        w_prev = w
        cseed = int(rng_batch.integers(2 ** 63))  # drawn even when mining ignores it
        active = _select(problem, V, cfg, cseed)
        objective = problem.residual_function(data_idx)
        # resolved at call time, so a wrapper set on the module takes effect
        try:
            step = (step_hard if hard else step_soft)(cfg.method, w, problem, objective,
                                                      active, cfg, adam)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"{exc} at iteration {it}", report()) from exc
        adam = step.adam
        if not np.all(np.isfinite(step.w)):
            raise TrainingDiverged(f"non-finite step at iteration {it}", report())
        step_norm = float(np.linalg.norm(step.w - w))
        w = step.w
        V_prev, V = V, problem.pool.violation_matrix(w)
        val = float(problem.prediction_error(w))
        row = IterationRow(it, _risk(objective, w), val, cs.median_violation(V),
                           cs.median_violation(V[active]) - cs.median_violation(V_prev[active]),
                           step.solver_iters, step.solver_status, step_norm,
                           hashlib.sha1(active.astype("<i8").tobytes()).hexdigest()[:12])
        if not row.finite():
            w = w_prev  # keep the last finite parameters as the checkpoint
            raise TrainingDiverged(f"non-finite metrics at iteration {it}", report())
        rows.append(row)
        if val <= best_val:
            best_val, best_w = val, w
    return report()

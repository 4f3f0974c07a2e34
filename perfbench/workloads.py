"""The benchmark's workloads: problem set-up, one round of training, checks.

A round is a fixed, seeded piece of work: the same seed gives the same
problem and the same training runs, so repeated rounds in one process
must produce byte-identical ``metrics.csv`` files.  The program only
receives the generated problem; the seed is the benchmark's.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from hardtrain import autodiff as ad
from hardtrain import benchmarks as bm
from hardtrain import cli
from hardtrain import trainers as tr
from hardtrain.krylov import CONVERGED, SINGULAR_MIN_LENGTH, SolverConfig

OK_STATUSES = (CONVERGED, SINGULAR_MIN_LENGTH)

# criterion 6's solver settings, as in benchmarks.run_sphere_comparison
SPHERE_SOLVER = SolverConfig(rtol=1e-8, max_iters=500)
SPHERE_ACTIVE = 20

# Criterion 7's protocol, shortened so that one round takes a few seconds
# at one BLAS thread; the per-step work is unchanged.
POSE_EPOCHS = {"baseline": 40, "soft_adam": 10, "hard_sgd": 5}
POSE_SOLVER = SolverConfig(rtol=1e-8, max_iters=800)


@dataclass
class Run:
    """One ``trainers.train`` call of a round."""

    name: str
    hard: bool
    planned_steps: int
    seconds: float
    report: tr.TrainReport
    error: str = ""

    @property
    def steps(self) -> int:
        return len(self.report.rows)

    def final_values(self, with_pred: bool) -> dict:
        last = self.report.rows[-1] if self.report.rows else self.report.initial_row
        out = {"median_violation": last.median_violation}
        if with_pred:
            out["pred_error"] = last.pred_error
        return out


@dataclass
class Round:
    runs: list
    seconds: float            # wall time of the training runs
    write_seconds: float
    digest: str               # sha256 over the round's metrics.csv files
    solver_iters: int         # sum of solver_iters over the hard runs' rows
    failures: list = field(default_factory=list)
    failed_steps: int = 0

    @property
    def attempted(self) -> int:
        return sum(r.planned_steps for r in self.runs)

    def fail(self, message: str) -> None:
        """A failed check that fails every step of the round."""
        self.failures.append(message)
        self.failed_steps = self.attempted

    def rate(self, hard: bool) -> float:
        runs = [r for r in self.runs if r.hard == hard]
        return sum(r.steps for r in runs) / sum(r.seconds for r in runs)


def _planned_steps(cfg: tr.TrainConfig, problem) -> int:
    if cfg.iterations is not None:
        return cfg.iterations
    batch = min(cfg.batch_data, problem.n_train)
    return cfg.epochs * ((problem.n_train - batch) // batch + 1)


def _train(name: str, cfg: tr.TrainConfig, problem, span, w0=None) -> Run:
    t0 = time.perf_counter()
    error = ""
    with span("trainers.train"):
        try:
            report = tr.train(cfg, problem, w0=w0)
        except tr.TrainingDiverged as exc:
            report, error = exc.report, str(exc)
    return Run(name, cfg.method.startswith("hard"), _planned_steps(cfg, problem),
               time.perf_counter() - t0, report, error)


def _sphere_runs(problem, seed: int, span, iters: int) -> list:
    common = dict(iterations=iters, batch_constraints=SPHERE_ACTIVE, seed=seed,
                  solver=SPHERE_SOLVER)
    hard = tr.TrainConfig(method=tr.HARD_SGD, lr=bm.SPHERE_HARD_LR, **common)
    soft = tr.TrainConfig(method=tr.SOFT_SGD, lr=bm.SPHERE_SOFT_LR,
                          soft_lambda=bm.SPHERE_SOFT_LAMBDA, **common)
    return [_train("hard_sgd", hard, problem, span),
            _train("soft_sgd", soft, problem, span)]


def _pose_runs(problem, seed: int, span) -> list:
    def cfg(settings, name):
        return tr.TrainConfig(seed=seed, solver=POSE_SOLVER,
                              **{**settings, "epochs": POSE_EPOCHS[name]})

    base = _train("baseline", cfg(bm.POSE_BASELINE, "baseline"), problem, span)
    w_u = base.report.best_params
    return [base] + [_train(name, cfg(bm.POSE_CONSTRAINED[name], name), problem, span, w_u)
                     for name in ("soft_adam", "hard_sgd")]


@dataclass(frozen=True)
class Workload:
    name: str
    setups: int               # set-ups before each round
    setup: Callable           # seed -> problem
    runs: Callable            # (problem, seed, span) -> list of Run
    with_pred: bool = False   # check the final prediction error too


def _spheres(dim: int) -> Callable:
    return lambda seed: bm.gen_spheres(dim, bm.SPHERE_DEFAULT_CONSTRAINTS, seed)


# spheres_d1e6 is not in BENCHMARK.json: its times are set by the memory
# bandwidth other tenants of the machine leave, and spread too widely
# between runs to gate on.  It stays runnable for manual measurement.
WORKLOADS = {w.name: w for w in (
    Workload("spheres_d1e4", 5, _spheres(bm.SPHERE_DEMO_DIM), partial(_sphere_runs, iters=100)),
    Workload("pose", 10, lambda seed: bm.gen_toy_pose(seed=seed), _pose_runs, with_pred=True),
    Workload("spheres_d1e6", 3, _spheres(bm.SPHERE_FULL_DIM), partial(_sphere_runs, iters=2)),
)}


def _write_artifacts(out_dir: Path, problem, run: Run) -> bytes:
    """The CLI's artifacts for one run; returns the metrics.csv bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cli.write_metrics_csv(out_dir / "metrics.csv", run.report.initial_row, run.report.rows)
    layout = problem.mlp.layout_hash() if hasattr(problem, "mlp") else 0
    ad.save_params(out_dir / "params.bin", run.report.final_params, layout)
    ad.save_params(out_dir / "best_params.bin", run.report.best_params, layout)
    bm.save_problem_spec(problem, out_dir / "problem.json")
    last = run.report.rows[-1] if run.report.rows else run.report.initial_row
    with open(out_dir / "summary.json", "w") as fh:
        json.dump({"status": "numerical_failure" if run.error else "ok",
                   "method": run.report.method, "seed": run.report.seed,
                   "iterations": run.steps, "final_risk": last.risk,
                   "final_pred_error": last.pred_error,
                   "final_median_violation": last.median_violation,
                   "best_val_error": run.report.best_val_error},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (out_dir / "metrics.csv").read_bytes()


def check_run(run: Run, reference: dict | None, tolerance: float, with_pred: bool) -> list:
    """Failures of one run: divergence, non-finite or off-reference final
    values.  A failing run fails all its planned steps."""
    if run.error:
        return [f"{run.name}: {run.error}"]
    problems = []
    values = run.final_values(with_pred)
    for key, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{run.name}: final {key} is {value}")
        elif reference is not None:
            ref = reference[key]
            if abs(value - ref) > tolerance * abs(ref):
                problems.append(f"{run.name}: final {key} {value!r} is more than "
                                f"{tolerance:.0%} from the reference {ref!r}")
    return problems


def run_round(workload: Workload, problem, seed: int, out_dir: Path,
              references: dict | None, tolerance: float, tracer=None) -> Round:
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    runs = workload.runs(problem, seed, span)
    seconds = sum(r.seconds for r in runs)

    t0 = time.perf_counter()
    digest = hashlib.sha256()
    with span("cli.write"):
        for run in runs:
            digest.update(_write_artifacts(out_dir / run.name, problem, run))
    write_seconds = time.perf_counter() - t0

    rnd = Round(runs, seconds, write_seconds, digest.hexdigest(),
                sum(r.solver_iters for run in runs if run.hard for r in run.report.rows))
    for run in runs:
        ref = references.get(run.name) if references is not None else None
        problems = check_run(run, ref, tolerance, workload.with_pred)
        if problems:
            rnd.failures += problems
            rnd.failed_steps += run.planned_steps
        elif run.hard:
            bad = [r for r in run.report.rows if r.solver_status not in OK_STATUSES]
            if bad:
                rnd.failures.append(
                    f"{run.name}: {len(bad)} steps ended "
                    f"{sorted({r.solver_status for r in bad})}")
                rnd.failed_steps += len(bad)
    return rnd

"""Span tracing of hardtrain from outside the program.

Each traced function is wrapped at the module or class where the program
looks it up, so the program itself is unchanged.  Spans live in memory as
``[id, parent, name, start, end, info]`` lists (times from
``time.perf_counter``) and are written out once, when the run ends.  A
span's parent is the innermost traced call that was open when it started.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

from hardtrain import autodiff, benchmarks, constraints, kkt, krylov, linops, trainers

ID, PARENT, NAME, START, END, INFO = range(6)

# span names of the calls whose array operands count towards kkt.matvec_bytes
_OPERAND_SPANS = ("autodiff.tape", "autodiff.jvp", "autodiff.vjp", "autodiff.offset",
                  "constraints.head_value", "constraints.head_jvp", "constraints.head_vjp")


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Collects spans; ``wrap`` returns a traced version of a callable."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []

    @contextmanager
    def span(self, name: str):
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid, None)

    def _begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([sid, parent, name, time.perf_counter(), 0.0, None])
        self._open.append(sid)
        return sid

    def _end(self, sid: int, info) -> None:
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[INFO] = info
        self._open.pop()

    def wrap(self, fn, name: str, annotate=None):
        """``annotate(args, result)`` returns the span's info."""

        def traced(*args, **kwargs):
            sid = self._begin(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._end(sid, annotate(args, result) if annotate else None)

        return traced

    def write(self, path) -> None:
        """One line per span: id, parent, name, start and duration (us)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_us,dur_us\n")
            for s in self.spans:
                fh.write(f"{s[ID]},{s[PARENT]},{s[NAME]},"
                         f"{(s[START] - t0) * 1e6:.1f},{(s[END] - s[START]) * 1e6:.1f}\n")


def _operand_bytes(args, result):
    return _nbytes(args) + _nbytes(result if isinstance(result, tuple) else (result,))


def _solve_info(args, sol):
    return (sol.iters, sol.ok) if sol is not None else (0, False)


def _step_info(args, result):
    if result is None:
        return (False, False)
    step, retried = result
    return (bool(retried), step is None)


# (owner, attribute, span name, annotate) of every traced lookup site
_SITES = [
    *((mod, attr, "linops.validate", None)
      for mod, attr in ((linops, "as_vector"), (linops, "check_length"),
                        (autodiff, "as_vector"), (autodiff, "check_length"),
                        (krylov, "as_vector"), (krylov, "check_length"),
                        (kkt, "check_length"))),
    (kkt, "minres_qlp", "krylov.solve", _solve_info),
    (krylov, "_minres_qlp_pass", "krylov.sweep", None),
    (kkt, "kkt_rhs", "kkt.rhs", None),
    (kkt, "solve_step_with_retry", "kkt.step_solve", _step_info),
    *((autodiff.Mlp, attr, f"autodiff.{attr}", _operand_bytes)
      for attr in ("tape", "jvp", "vjp")),
    *((autodiff.IdentityOffset, attr, "autodiff.offset", _operand_bytes)
      for attr in ("forward", "jvp", "vjp")),
    *((head, attr, f"constraints.head_{attr}", _operand_bytes)
      for head in (constraints.SymmetryHead, constraints.SphereRadiusHead)
      for attr in ("value", "jvp", "vjp")),
    (trainers, "_select", "constraints.select", None),
    (constraints, "evaluate", "constraints.evaluate", None),
    (trainers, "step_hard", "trainers.step", None),
    (trainers, "step_soft", "trainers.step", None),
    (benchmarks.SphereProblem, "pool_median_violation", "benchmarks.pool_metric", None),
]


def _operator_factory(tracer: Tracer, make_operator):
    """``kkt.kkt_operator`` returning an operator whose matvec is traced."""

    def traced_operator(state):
        op = make_operator(state)
        return linops.LinearOperator(
            op.dim, tracer.wrap(op.matvec, "kkt.matvec", _operand_bytes))

    return traced_operator


@contextmanager
def installed(tracer: Tracer):
    """Patch every lookup site for the duration of the block; yields the
    sites that no longer exist in the program."""
    patches, missing = [], []
    for owner, attr, name, annotate in _SITES:
        if attr in owner.__dict__:
            original = owner.__dict__[attr]
            patches.append((owner, attr, original, tracer.wrap(original, name, annotate)))
        else:
            missing.append(f"{owner.__name__}.{attr}")
    if "kkt_operator" in kkt.__dict__:
        patches.append((kkt, "kkt_operator", kkt.kkt_operator,
                        _operator_factory(tracer, kkt.kkt_operator)))
    else:
        missing.append("kkt.kkt_operator")
    try:
        for owner, attr, _, replacement in patches:
            setattr(owner, attr, replacement)
        yield missing
    finally:
        for owner, attr, original, _ in patches:
            setattr(owner, attr, original)


def layer_metrics(spans: list, outer_steps: int) -> dict:
    """Per-layer figures of one traced round.

    Times are inclusive span durations summed over the round, except
    ``krylov.self_s`` (solve time minus the matvecs it made) and
    ``trainers.metric_s`` (outer-loop time outside select and step calls).
    """
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def total(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def p50_us(name):
        durs = [s[END] - s[START] for s in by_name.get(name, ())]
        return statistics.median(durs) * 1e6 if durs else 0.0

    solves = by_name.get("krylov.solve", [])
    n_solves = len(solves)
    iters = sum(s[INFO][0] for s in solves)
    sweeps_per_solve: dict = {}
    for s in by_name.get("krylov.sweep", ()):
        sweeps_per_solve[s[PARENT]] = sweeps_per_solve.get(s[PARENT], 0) + 1
    matvecs = by_name.get("kkt.matvec", [])
    n_matvecs = len(matvecs)

    # computed bytes: operands of the matvec and of the model/head calls it
    # makes; spans are in start order, so a parent is classified before its children
    in_matvec: dict = {}
    matvec_bytes = 0
    for s in spans:
        inside = in_matvec.get(s[PARENT], False)
        in_matvec[s[ID]] = inside or s[NAME] == "kkt.matvec"
        if s[NAME] == "kkt.matvec" or (inside and s[NAME] in _OPERAND_SPANS):
            matvec_bytes += s[INFO]

    steps = by_name.get("kkt.step_solve", [])
    train_s = total("trainers.train")
    trains = {s[ID] for s in by_name.get("trainers.train", ())}
    loop_children = sum(s[END] - s[START] for s in spans
                        if s[NAME] in ("trainers.step", "constraints.select")
                        and s[PARENT] in trains)
    metric_s = train_s - loop_children
    solve_s = total("krylov.solve")
    matvec_s = total("kkt.matvec")

    def frac(count, base):
        return count / base if base else 0.0

    return {
        "linops.validate_s": total("linops.validate"),
        "krylov.solves": n_solves,
        "krylov.iters_per_solve": frac(iters, n_solves),
        "krylov.iters_total": iters,
        "krylov.matvecs_per_solve": frac(n_matvecs, n_solves),
        "krylov.self_s": solve_s - matvec_s,
        "krylov.self_us_per_iter": frac(solve_s - matvec_s, iters) * 1e6,
        "krylov.second_sweep_frac": frac(sum(1 for c in sweeps_per_solve.values() if c > 1),
                                         n_solves),
        "krylov.not_ok_frac": frac(sum(1 for s in solves if not s[INFO][1]), n_solves),
        "kkt.matvec_s": matvec_s,
        "kkt.matvec_us.p50": p50_us("kkt.matvec"),
        "kkt.matvec_bytes": frac(matvec_bytes, n_matvecs),
        "kkt.rhs_s": total("kkt.rhs"),
        "kkt.retry_frac": frac(sum(1 for s in steps if s[INFO][0]), len(steps)),
        "kkt.skip_frac": frac(sum(1 for s in steps if s[INFO][1]), len(steps)),
        "autodiff.tape_per_step": frac(len(by_name.get("autodiff.tape", ())), outer_steps),
        "autodiff.tape_s": total("autodiff.tape"),
        "autodiff.jvp_s": total("autodiff.jvp"),
        "autodiff.vjp_s": total("autodiff.vjp"),
        "autodiff.jvp_us.p50": p50_us("autodiff.jvp"),
        "autodiff.offset_s": total("autodiff.offset"),
        "constraints.head_jvp_s": total("constraints.head_jvp"),
        "constraints.head_vjp_s": total("constraints.head_vjp"),
        "constraints.select_s": total("constraints.select"),
        "constraints.evaluate_s": total("constraints.evaluate"),
        "trainers.step_s": total("trainers.step"),
        "trainers.metric_s": metric_s,
        "trainers.metric_share": frac(metric_s, train_s),
        "benchmarks.pool_metric_s": total("benchmarks.pool_metric"),
        "cli.write_s": total("cli.write"),
    }

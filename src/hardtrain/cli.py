"""Experiment runner: strict key-value configs in, CSV/JSON artifacts out.

``hardtrain run config.txt`` executes one experiment (a sphere run or a
pose run) and writes ``metrics.csv``, the fully resolved config and a
``summary.json`` into the output directory.  ``hardtrain compare a.csv
b.csv`` emits paired statistics for two metric traces.

Exit codes: 0 success, 2 configuration error (a bad key or value with a
line/field diagnostic, or a failed set-up: an unreadable checkpoint, an
output directory that cannot be made, a problem too large to allocate),
3 numerical failure (the last finite checkpoint is kept).
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import benchmarks as bm
from . import trainers as tr

ENV_OUT_ROOT = "HARDTRAIN_OUT"

METRIC_COLUMNS = ("iter", "risk", "pred_error", "median_violation",
                  "active_delta", "solver_iters", "solver_status", "step_norm")


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config schema and parsing
# ---------------------------------------------------------------------------

def _parse_bool(s):
    if s.lower() in ("true", "yes", "1"):
        return True
    if s.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {s!r}")


def _parse_finite(s):
    x = float(s)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {s!r}")
    return x


def _parse_int_list(s):
    return tuple(int(x) for x in s.split(",") if x.strip())


# value checks, applied as each key is parsed: (predicate, requirement)
_AT_LEAST_1 = (lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = (lambda v: v >= 0, ">= 0")
_POSITIVE = (lambda v: v > 0, "> 0")
_METHOD = (lambda v: v in tr.METHODS, f"one of {', '.join(tr.METHODS)}")

# key: (parser, default, value check or None)
_COMMON = {
    "kind": (str, None, None),
    "seed": (int, 0, _NON_NEGATIVE),
    "out_dir": (str, "", None),
}

_SCHEMAS = {
    "spheres": {
        "method": (str, "hard_sgd", _METHOD),
        "dim": (int, bm.SPHERE_DEMO_DIM, (lambda v: v >= 2, ">= 2")),
        "n_constraints": (int, bm.SPHERE_DEFAULT_CONSTRAINTS, _AT_LEAST_1),
        "n_active": (int, 20, _AT_LEAST_1),
        "iterations": (int, 500, _NON_NEGATIVE),
        "lr": (_parse_finite, None, _POSITIVE),        # default depends on the method
        "soft_lambda": (_parse_finite, bm.SPHERE_SOFT_LAMBDA, _NON_NEGATIVE),
    },
    "toy_pose": {
        "method": (str, "soft_adam", _METHOD),
        "lr": (_parse_finite, 1e-3, _POSITIVE),
        "soft_lambda": (_parse_finite, 0.0, _NON_NEGATIVE),
        "epochs": (int, 100, _NON_NEGATIVE),
        "batch_data": (int, 128, _AT_LEAST_1),
        "batch_constraints": (int, 128, _AT_LEAST_1),
        "mine": (_parse_bool, False, None),
        "n_mined": (int, 16, _AT_LEAST_1),
        "n_samples": (int, 2000, (lambda v: v >= 2, ">= 2")),
        "n_pool": (int, 384, _AT_LEAST_1),
        "in_dim": (int, 48, _AT_LEAST_1),
        "hidden": (_parse_int_list, (192,), (lambda v: all(h >= 1 for h in v),
                                             "a list of widths >= 1")),
        "init_checkpoint": (str, "", None),
    },
}


def parse_config(path) -> dict:
    """Strict key=value parser; unknown keys and bad values are errors."""
    raw = {}
    lines = Path(path).read_text().splitlines()
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)

    if "kind" not in raw:
        raise ConfigError(f"{path}: missing required key 'kind'")
    kind = raw["kind"][0]
    if kind not in _SCHEMAS:
        raise ConfigError(f"{path}:{raw['kind'][1]}: unknown kind {kind!r} "
                          f"(expected one of {sorted(_SCHEMAS)})")
    schema = {**_COMMON, **_SCHEMAS[kind]}
    cfg = {name: default for name, (_, default, _) in schema.items()}
    cfg["kind"] = kind
    for key, (value, lineno) in raw.items():
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} for kind {kind!r}")
        parse, _, check = schema[key]
        try:
            cfg[key] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}")
        if check and not check[0](cfg[key]):
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: "
                              f"{value!r}, expected {check[1]}")
    return cfg


def resolve_out_dir(cfg: dict, config_path, override: str | None) -> Path:
    if override:
        return Path(override)
    if cfg.get("out_dir"):
        return Path(cfg["out_dir"])
    root = os.environ.get(ENV_OUT_ROOT, "hardtrain_runs")
    return Path(root) / Path(config_path).stem


# ---------------------------------------------------------------------------
# Output writers
# ---------------------------------------------------------------------------


def write_metrics_csv(path, initial_row, rows) -> None:
    """One row per iteration; csv writes each value as ``str``, which for a
    float is its shortest round-tripping ``repr``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for r in [initial_row, *rows]:
            writer.writerow([r.iteration, r.risk, r.pred_error, r.median_violation,
                             r.active_delta, r.solver_iters, r.solver_status, r.step_norm])


def write_resolved_config(path, cfg: dict) -> None:
    with open(path, "w") as fh:
        for key in sorted(cfg):
            value = cfg[key]
            if isinstance(value, tuple):
                value = ",".join(map(str, value))
            fh.write(f"{key} = {value}\n")


def _openblas():
    """(get, set) of numpy's OpenBLAS thread count, or None where no
    OpenBLAS library exposes them."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "openblas_{}_num_threads"):
            get, set_ = (getattr(dll, name.format(op), None) for op in ("get", "set"))
            if get is not None and set_ is not None:
                return get, set_
    return None


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    handle = _openblas()
    return None if handle is None else int(handle[0]())


@contextmanager
def _one_blas_thread():
    """Run the block at one OpenBLAS thread and restore the count after it.

    Byte-identical reruns hold only at a fixed count, so a run pins it
    wherever the library handle is found.
    """
    handle = _openblas()
    if handle is None:
        yield
        return
    get, set_ = handle
    previous = int(get())
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _write_summary(out_dir: Path, payload: dict) -> None:
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def _train_config(cfg: dict, **kind_fields) -> tr.TrainConfig:
    """The fields both kinds' schemas define, plus ``kind_fields``; any
    other field keeps TrainConfig's default."""
    return tr.TrainConfig(method=cfg["method"], lr=cfg["lr"], soft_lambda=cfg["soft_lambda"],
                          seed=cfg["seed"], **kind_fields)


def _finish_run(out_dir: Path, cfg: dict, problem, report, status: str) -> None:
    write_metrics_csv(out_dir / "metrics.csv", report.initial_row, report.rows)
    layout = getattr(getattr(problem, "mlp", None), "layout_hash", lambda: 0)()
    ad.save_params(out_dir / "params.bin", report.final_params, layout)
    ad.save_params(out_dir / "best_params.bin", report.best_params, layout)
    bm.save_problem_spec(problem, out_dir / "problem.json")
    last = report.rows[-1] if report.rows else report.initial_row
    _write_summary(out_dir, {
        "status": status,
        "method": cfg.get("method", ""),
        "seed": cfg["seed"],
        "iterations": len(report.rows),
        "final_risk": last.risk,
        "final_pred_error": last.pred_error,
        "final_median_violation": last.median_violation,
        "best_val_error": report.best_val_error,
        "blas_threads": _blas_threads(),
    })


def _train_and_write(out_dir: Path, cfg: dict, problem, train_cfg, w0=None) -> int:
    try:
        report = tr.train(train_cfg, problem, w0=w0)
    except tr.TrainingDiverged as exc:
        _finish_run(out_dir, cfg, problem, exc.report, "numerical_failure")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    _finish_run(out_dir, cfg, problem, report, "ok")
    return 0


def _setup_spheres(cfg: dict) -> tuple:
    """(problem, train config, initial parameters) of a sphere run."""
    if cfg["lr"] is None:
        cfg["lr"] = bm.SPHERE_HARD_LR if cfg["method"].startswith("hard") else bm.SPHERE_SOFT_LR
    problem = bm.gen_spheres(cfg["dim"], cfg["n_constraints"], cfg["seed"])
    train_cfg = _train_config(cfg, iterations=cfg["iterations"],
                              batch_constraints=cfg["n_active"], solver=bm.SPHERE_SOLVER)
    return problem, train_cfg, None


def _setup_toy_pose(cfg: dict) -> tuple:
    """(problem, train config, initial parameters) of a pose run."""
    problem = bm.gen_toy_pose(cfg["seed"], cfg["n_samples"], cfg["n_pool"],
                              cfg["in_dim"], cfg["hidden"])
    train_cfg = _train_config(cfg, solver=bm.POSE_SOLVER, **{key: cfg[key] for key in (
        "epochs", "batch_data", "batch_constraints", "mine", "n_mined")})
    if train_cfg.mine and train_cfg.n_mined > problem.pool.n_samples:
        raise ConfigError(f"bad value for 'n_mined': {train_cfg.n_mined}, expected "
                          f"<= n_pool ({problem.pool.n_samples}) when mining")
    w0 = None
    if cfg["init_checkpoint"]:
        try:
            w0 = ad.load_params(cfg["init_checkpoint"],
                                expect_hash=problem.mlp.layout_hash())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad value for 'init_checkpoint': {exc}") from exc
        if w0.shape[0] != problem.mlp.n_params:
            raise ConfigError(f"bad value for 'init_checkpoint': {w0.shape[0]} parameters, "
                              f"expected {problem.mlp.n_params}")
    return problem, train_cfg, w0


# everything a run needs is built before its output directory exists, so
# a bad value fails without writing any file
_SETUPS = {"spheres": _setup_spheres, "toy_pose": _setup_toy_pose}


def cmd_run(args) -> int:
    """Set up, train and write one run, at one OpenBLAS thread."""
    with _one_blas_thread():
        try:
            cfg = parse_config(args.config)
            if args.seed is not None:
                if not _NON_NEGATIVE[0](args.seed):
                    raise ConfigError(f"bad value for '--seed': {args.seed}, "
                                      f"expected {_NON_NEGATIVE[1]}")
                cfg["seed"] = args.seed
            if args.full_scale:
                if cfg["kind"] != "spheres":
                    raise ConfigError("--full-scale applies only to kind = spheres")
                cfg["dim"] = bm.SPHERE_FULL_DIM
            setup = _SETUPS[cfg["kind"]](cfg)
            out_dir = resolve_out_dir(cfg, args.config, args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            cfg["out_dir"] = str(out_dir)
            write_resolved_config(out_dir / "resolved_config.txt", cfg)
        except (ConfigError, ValueError, OSError, MemoryError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return _train_and_write(out_dir, cfg, *setup)


# ---------------------------------------------------------------------------
# Trace comparison
# ---------------------------------------------------------------------------


# the columns ``compare`` reads; a trace may carry others
COMPARE_COLUMNS = ("median_violation", "active_delta")


def read_metrics(path):
    """The rows of a metrics trace, with the ``COMPARE_COLUMNS`` cells as
    floats; a trace without rows or with a missing, non-numeric or
    non-finite cell in those columns is refused."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in COMPARE_COLUMNS if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError(f"{path}: metrics trace lacks column(s) {', '.join(missing)}")
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: metrics trace has no rows")
    for lineno, row in enumerate(rows, 2):
        for col in COMPARE_COLUMNS:
            try:
                value = float(row[col])
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ConfigError(f"{path}:{lineno}: bad value for {col!r}: "
                                  f"{row[col]!r}, expected a finite number")
            row[col] = value
    return rows


def compare(rows_a, rows_b) -> dict:
    """Paired statistics of two equal-length metric traces."""
    if len(rows_a) != len(rows_b):
        raise ConfigError(f"traces differ in length: {len(rows_a)} vs {len(rows_b)}")

    def trace(rows, col):
        return np.array([r[col] for r in rows], dtype=np.float64)

    mv_a, mv_b = trace(rows_a, "median_violation"), trace(rows_b, "median_violation")
    d_a, d_b = trace(rows_a, "active_delta"), trace(rows_b, "active_delta")
    lo = min(100, max(len(mv_a) // 2, 1))
    smooth_a = float(np.std(np.diff(mv_a[lo:]))) if len(mv_a) - lo >= 2 else 0.0
    smooth_b = float(np.std(np.diff(mv_b[lo:]))) if len(mv_b) - lo >= 2 else 0.0
    eps = 1e-300
    return {
        "rows": len(rows_a),
        "final_median_violation_a": float(mv_a[-1]),
        "final_median_violation_b": float(mv_b[-1]),
        "final_median_violation_diff": float(mv_a[-1] - mv_b[-1]),
        "delta_smoothness_a": smooth_a,
        "delta_smoothness_b": smooth_b,
        "delta_smoothness_ratio": float((smooth_a + eps) / (smooth_b + eps)),
        "degradation_fraction_a": float(np.mean(d_a > 0)),
        "degradation_fraction_b": float(np.mean(d_b > 0)),
        "smoother": "a" if smooth_a < smooth_b else ("b" if smooth_b < smooth_a else "tie"),
    }


def cmd_compare(args) -> int:
    try:
        summary = compare(read_metrics(args.trace_a), read_metrics(args.trace_b))
    except (ConfigError, OSError, ValueError) as exc:
        print(f"compare error: {exc}", file=sys.stderr)
        return 2
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hardtrain",
                                     description="constrained-training experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--full-scale", action="store_true",
                       help="spheres: use the full-scale dimension (1e6)")
    p_run.set_defaults(func=cmd_run)
    p_cmp = sub.add_parser("compare", help="paired statistics of two metric traces")
    p_cmp.add_argument("trace_a")
    p_cmp.add_argument("trace_b")
    p_cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

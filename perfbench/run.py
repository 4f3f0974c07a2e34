"""hardtrain benchmark: seeded workloads timed end to end, or per layer.

    python3 perfbench/run.py --workload pose --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout.  One process runs one workload:
until ``--seconds`` is spent it generates the problem a few times and
then runs the workload's round of training runs, and it reports the
median set-up time and medians over rounds.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer figures instead.
The last line of standard output is the result object; the line before
it carries the environment, the per-round figures and the checks.
Artifacts, traces and the determinism ledger go to ``.perfbench_out/``.

``--record-reference`` stores the final values of this seed's runs as the
reference later runs are checked against.
"""

import os

# Byte-identical metrics.csv files and exact Krylov counts hold only for a
# fixed BLAS thread count, so the count is pinned before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = ROOT / "BENCHMARK.json"


def _units(kind: str) -> dict:
    """Metric names and units of one kind, as BENCHMARK.json lists them."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas_threads": BLAS_THREADS, "blas_threads_runtime": _openblas_threads(np),
            "nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0]}


def _openblas_threads(np):
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                return int(fn())
    return None


def code_digest() -> str:
    """Digest of the program and benchmark sources: the ledger's notion of
    'the same code'."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hardtrain").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def check_ledger(key: str, entry: dict):
    """Compare this run's digest and counters with earlier runs of the same
    code, workload and seed, then record them; returns a failure or None."""
    path = OUT / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    seen = ledger.get(key)
    if seen is not None and seen != entry:
        return f"determinism: {entry} differs from an earlier run's {seen}"
    ledger[key] = entry
    _write_json(path, ledger)
    return None


def measure(workload, seed: int, seconds: float, trace: bool, references, tolerance):
    from workloads import run_round
    import tracing

    out_dir = OUT / f"{workload.name}-seed{seed}"
    setup_times, rounds, traced, missing = [], [], [], []
    tracer = tracing.Tracer() if trace else None
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        # set-ups are spread over the run, so their median covers the same
        # stretch of machine time as the rounds'
        for _ in range(workload.setups):
            problem = None        # free the previous problem before making the next
            t_setup = time.perf_counter()
            problem = workload.setup(seed)
            setup_times.append(time.perf_counter() - t_setup)
        if trace and len(rounds) > len(traced):
            first_span = len(tracer.spans)
            with tracing.installed(tracer) as missing:
                rnd = run_round(workload, problem, seed, out_dir, references, tolerance,
                                tracer)
            steps = sum(r.steps for r in rnd.runs)
            traced.append((rnd, tracing.layer_metrics(tracer.spans[first_span:], steps)))
        else:
            rounds.append(run_round(workload, problem, seed, out_dir, references,
                                    tolerance))
        durations.append(time.perf_counter() - t0)
        enough = not trace or traced
        if enough and time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    if tracer is not None:
        tracer.write(out_dir / "trace.csv")
    return setup_times, rounds, traced, missing


def cross_check(rounds, traced) -> None:
    """Fail rounds that disagree with the first round's metrics.csv files,
    and traced rounds whose Krylov total disagrees with their metrics.csv."""
    first = rounds[0]
    for rnd in rounds[1:] + [r for r, _ in traced]:
        if rnd.digest != first.digest:
            rnd.fail("determinism: a round wrote different metrics.csv files "
                     "than the first round")
    for rnd, m in traced:
        if m["kkt.retry_frac"] == 0 and m["krylov.iters_total"] != rnd.solver_iters:
            rnd.fail(f"trace: {m['krylov.iters_total']} Krylov iterations traced, "
                     f"metrics.csv sums solver_iters to {rnd.solver_iters}")


def summarize(setup_times, rounds, traced) -> dict:
    """The result metrics: medians over rounds (traced rounds when tracing)."""
    med = statistics.median
    if not traced:
        return {
            "setup_s": med(setup_times),
            "run_s": med(r.seconds for r in rounds),
            "hard_steps_per_s": med(r.rate(True) for r in rounds),
            "soft_steps_per_s": med(r.rate(False) for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    layers = [m for _, m in traced]
    metrics = {name: med(m[name] for m in layers) for name in layers[0]}
    metrics["benchmarks.gen_s"] = med(setup_times)
    metrics["trace.overhead_frac"] = (med(r.seconds for r, _ in traced)
                                      / med(r.seconds for r in rounds) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "hardtrain" / "__init__.py").is_file():
        print(f"error: no hardtrain sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    reference_file = json.loads(REFERENCE.read_text())
    tolerance = reference_file["tolerance"]
    references = reference_file["seeds"].get(workload.name, {}).get(str(args.seed))
    if args.record_reference:
        references = None

    setup_times, rounds, traced, untraced_sites = measure(
        workload, args.seed, args.seconds, bool(args.trace), references, tolerance)
    cross_check(rounds, traced)
    all_rounds = rounds + [r for r, _ in traced]
    first = rounds[0]
    ledger_entry = {"metrics_csv_sha256": first.digest, "solver_iters": first.solver_iters}
    mismatch = check_ledger(f"{workload.name}:{args.seed}:{code_digest()}:{BLAS_THREADS}",
                            ledger_entry)
    if mismatch:
        for rnd in all_rounds:
            rnd.fail(mismatch)
    failures = sorted({f for rnd in all_rounds for f in rnd.failures})
    attempted = sum(rnd.attempted for rnd in all_rounds)
    failed = sum(rnd.failed_steps for rnd in all_rounds)
    metrics = summarize(setup_times, rounds, traced)
    if args.record_reference:
        reference_file["seeds"].setdefault(workload.name, {})[str(args.seed)] = {
            run.name: run.final_values(workload.with_pred) for run in first.runs}
        _write_json(REFERENCE, reference_file)

    units = _units("per_layer" if args.trace else "end_to_end")
    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "reference": "checked" if references is not None else "none for this seed",
        "failures": failures,
        "untraced_sites": untraced_sites,
        "failed_step_frac": failed / attempted,
        "setup_s": setup_times,
        "rounds": [{"traced": False, "seconds": r.seconds, "write_s": r.write_seconds,
                    "digest": r.digest, "solver_iters": r.solver_iters,
                    "runs": {run.name: {"steps": run.steps, "seconds": run.seconds,
                                        **run.final_values(workload.with_pred)}
                             for run in r.runs}}
                   for r in rounds]
        + [{"traced": True, "seconds": r.seconds, "layers": m} for r, m in traced],
        "ledger": ledger_entry,
    }
    out_dir = OUT / f"{workload.name}-seed{args.seed}"
    _write_json(out_dir / f"result-trace{args.trace}.json", detail)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

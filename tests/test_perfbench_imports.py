import importlib
from pathlib import Path

import pytest

from hardtrain import benchmarks as bm
from hardtrain import trainers as tr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import(monkeypatch):
    # every benchmark run imports both modules, and tracing names program
    # classes and functions at import time: a rename in the program that
    # they still name fails every benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "tracing"):
        module = importlib.import_module(name)
        assert Path(module.__file__).parent == PERFBENCH


# the traced sites that name nothing in the program, and whose per-layer
# figures therefore read 0; a program change that drops another traced
# name fails here instead of zeroing one more figure unnoticed
UNTRACED_SITES = [
    "hardtrain.kkt.solve_step_with_retry",
    "IdentityOffset.jvp", "IdentityOffset.vjp",
    "SymmetryHead.jvp", "SymmetryHead.vjp",
    "SphereRadiusHead.value", "SphereRadiusHead.jvp", "SphereRadiusHead.vjp",
    "hardtrain.constraints.evaluate",
    "SphereProblem.pool_median_violation",
]


def test_only_the_known_trace_sites_are_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    with tracing.installed(tracing.Tracer()) as missing:
        assert missing == UNTRACED_SITES


@pytest.mark.parametrize("problem, settings", [
    (bm.gen_spheres(1000, 40, seed=0),
     dict(lr=bm.SPHERE_HARD_LR, iterations=10, batch_constraints=10, solver=bm.SPHERE_SOLVER)),
    (bm.gen_toy_pose(seed=0, n_samples=60, n_pool=20, in_dim=8, hidden=(12,)),
     dict(lr=0.3, epochs=2, batch_data=8, mine=True, n_mined=3, solver=bm.POSE_SOLVER)),
], ids=["spheres", "pose"])
def test_a_traced_hard_run_counts_the_iterations_its_rows_sum(monkeypatch, problem, settings):
    # a traced benchmark round checks that the Krylov iterations it traced
    # equal the sum of the rows' solver_iters; a program change that breaks
    # the tracing or that count fails every traced round
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        report = tr.train(tr.TrainConfig(method=tr.HARD_SGD, seed=1, **settings), problem)
    assert report.rows
    metrics = tracing.layer_metrics(tracer.spans, len(report.rows))
    assert metrics["krylov.iters_total"] == sum(report.column("solver_iters")) > 0

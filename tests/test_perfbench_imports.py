import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import(monkeypatch):
    # every benchmark run imports both modules, and tracing names program
    # classes and functions at import time: a rename in the program that
    # they still name fails every benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "tracing"):
        module = importlib.import_module(name)
        assert Path(module.__file__).parent == PERFBENCH

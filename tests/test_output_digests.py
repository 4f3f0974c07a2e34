import importlib
import re
from pathlib import Path

from hardtrain import cli

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(monkeypatch):
    """tools/output_digests.py, imported as a module; the environment and
    sys.path entries it sets at import are undone after the test."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(TOOLS))
    module = importlib.import_module("output_digests")
    assert Path(module.__file__).parent == TOOLS
    return module


def test_the_pools_digest_is_one_line_and_repeats(monkeypatch, capsys):
    # no other test runs the tool, so a program change that breaks a call
    # it makes would otherwise go unnoticed until the next bit-for-bit check
    tool = _tool(monkeypatch)
    lines = []
    for _ in range(2):
        tool.pools()
        lines.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64} pools\n", lines[0])
    assert lines[1] == lines[0]


def test_every_digested_config_parses(monkeypatch, tmp_path):
    tool = _tool(monkeypatch)
    configs = tool.configs(tmp_path)
    assert len(configs) == 17
    for name, text in configs.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        cli.parse_config(path)

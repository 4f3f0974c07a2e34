import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardtrain import autodiff as ad
from hardtrain import benchmarks as bm
from hardtrain import cli, kkt
from hardtrain import trainers as tr


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SPHERES_SMALL = """\
kind = spheres
method = hard_sgd
dim = 120
n_constraints = 12
n_active = 4
iterations = 25
seed = 3
"""


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg = cli.parse_config(write(tmp_path, "c.txt", SPHERES_SMALL))
    assert cfg["kind"] == "spheres" and cfg["dim"] == 120
    assert cfg["soft_lambda"] == bm.SPHERE_SOFT_LAMBDA  # default filled in
    assert cli.parse_config(write(tmp_path, "p.txt", POSE_SMALL + "mine = no\n"))["mine"] is False


def test_parse_config_unknown_key_has_line_number(tmp_path):
    p = write(tmp_path, "c.txt", "kind = spheres\nwibble = 3\n")
    with pytest.raises(cli.ConfigError, match=r":2: unknown key 'wibble'"):
        cli.parse_config(p)


def test_parse_config_rejects_bad_values_and_duplicates(tmp_path):
    with pytest.raises(cli.ConfigError, match="bad value"):
        cli.parse_config(write(tmp_path, "a.txt", "kind = spheres\ndim = fog\n"))
    with pytest.raises(cli.ConfigError, match="duplicate"):
        cli.parse_config(write(tmp_path, "b.txt", "kind = spheres\nseed = 1\nseed = 2\n"))
    with pytest.raises(cli.ConfigError, match="missing required"):
        cli.parse_config(write(tmp_path, "c.txt", "dim = 8\n"))
    with pytest.raises(cli.ConfigError, match="unknown kind"):
        cli.parse_config(write(tmp_path, "d.txt", "kind = lattice\n"))
    with pytest.raises(cli.ConfigError, match="unknown kind"):
        cli.parse_config(write(tmp_path, "e.txt", "kind = solve_check\n"))
    p = write(tmp_path, "f.txt", "kind = spheres\n# a comment\ndim 8\n")
    with pytest.raises(cli.ConfigError, match=re.escape(f"{p}:3: expected 'key = value'")):
        cli.parse_config(p)


def test_readme_config_examples_parse(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^cat > (\S+) <<'CFG'\n(.*?)^CFG$", readme, re.M | re.S)
    assert blocks
    for name, text in blocks:
        cli.parse_config(write(tmp_path, name, text))


def test_run_malformed_config_exits_2_without_outputs(tmp_path, capsys):
    p = write(tmp_path, "bad.txt", "kind = spheres\nbogus = 1\n")
    out = tmp_path / "out"
    rc = cli.main(["run", p, "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "unknown key" in capsys.readouterr().err


POSE_SMALL = "kind = toy_pose\nepochs = 1\nn_samples = 60\nn_pool = 10\n"

BAD_VALUE_BASES = {"spheres": SPHERES_SMALL, "toy_pose": POSE_SMALL,
                   "toy_pose_mined": POSE_SMALL + "mine = true\n"}


REMOVED_KEYS = ("solver_rtol", "solver_max_iters", "asym_noise", "input_noise")


@pytest.mark.parametrize("kind, line", [
    ("spheres", "method = hard_newton"),
    ("spheres", "lr = -1"),
    ("spheres", "lr = 0"),
    ("spheres", "lr = inf"),
    ("toy_pose", "soft_lambda = inf"),
    ("spheres", "dim = 1"),
    ("spheres", "n_active = 0"),
    ("spheres", "iterations = -1"),
    ("toy_pose", "hidden = 16,0"),
    ("toy_pose", "lr = -0.5"),
    ("spheres", "n_constraints = 0"),
    ("spheres", "seed = -1"),
    ("spheres", "solver_max_iters = 0"),
    ("spheres", "solver_rtol = 0"),
    # settings that became constants are unknown keys, even at their old values
    ("spheres", "solver_max_iters = 500"),
    ("spheres", "solver_rtol = 1e-8"),
    ("toy_pose", "solver_max_iters = 800"),
    ("toy_pose", "solver_rtol = 1e-8"),
    ("toy_pose", "asym_noise = 0.06"),
    ("toy_pose", "input_noise = 0.01"),
    ("spheres", "soft_lambda = -1"),
    ("toy_pose", "epochs = -1"),
    ("toy_pose", "batch_data = 0"),
    ("toy_pose_mined", "n_mined = 0"),
    ("toy_pose_mined", "n_mined = 11"),
    ("toy_pose", "mine = maybe"),
    ("toy_pose", "n_samples = 1"),
    ("toy_pose", "init_checkpoint = no_such_params.bin"),
    ("toy_pose", "init_checkpoint = {nan_checkpoint}"),
    # checkpoints of the model's layout hash whose header counts 5
    # parameters, or more than the file holds
    *(("toy_pose", f"init_checkpoint = {{checkpoint counting {n}}}") for n in (5, 2**61, 2**59)),
])
def test_run_bad_config_value_exits_2_without_outputs(tmp_path, capsys, kind, line):
    base = BAD_VALUE_BASES[kind]
    key = line.split(" = ")[0]
    counting = re.search(r"\{checkpoint counting (\d+)\}", line)
    if counting:
        cfg = cli.parse_config(write(tmp_path, "base.txt", base))
        mlp = ad.Mlp([cfg["in_dim"], *cfg["hidden"], 51])
        ckpt = tmp_path / "counted_params.bin"
        ad.save_params(ckpt, np.ones(5), mlp.layout_hash())
        raw = bytearray(ckpt.read_bytes())
        raw[8:16] = int(counting.group(1)).to_bytes(8, "little")
        ckpt.write_bytes(raw)
        line = line.replace(counting.group(0), str(ckpt))
    if "{nan_checkpoint}" in line:
        # a checkpoint of the right layout with one NaN parameter
        assert cli.main(["run", write(tmp_path, "base.txt", base),
                         "--out-dir", str(tmp_path / "base")]) == 0
        raw = bytearray((tmp_path / "base" / "best_params.bin").read_bytes())
        raw[24:32] = np.array([np.nan], dtype="<f8").tobytes()
        ckpt = tmp_path / "nan_params.bin"
        ckpt.write_bytes(raw)
        line = line.format(nan_checkpoint=ckpt)
    text = "".join(l + "\n" for l in base.splitlines() if not l.startswith(key + " "))
    out = tmp_path / "out"
    rc = cli.main(["run", write(tmp_path, "bad.txt", text + line + "\n"),
                   "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    expect = f"unknown key {key!r}" if key in REMOVED_KEYS else f"bad value for {key!r}"
    assert expect in err and "Traceback" not in err


@pytest.mark.parametrize("config, out_name", [
    # an output directory below a regular file
    (SPHERES_SMALL, "plain/out"),
    # 200 centers of dimension 1e12 take 1.6e15 bytes, beyond any user
    # address space: the allocation fails at once
    ("kind = spheres\ndim = 1000000000000\n", "out"),
], ids=["out_dir_below_a_file", "too_large_to_allocate"])
def test_run_failed_set_up_exits_2_without_outputs(tmp_path, capsys, config, out_name):
    (tmp_path / "plain").write_text("")
    out = tmp_path / out_name
    rc = cli.main(["run", write(tmp_path, "c.txt", config), "--out-dir", str(out)])
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err


def test_run_zero_iterations_writes_header_plus_initial_row(tmp_path):
    p = write(tmp_path, "z.txt", SPHERES_SMALL.replace("iterations = 25", "iterations = 0"))
    out = tmp_path / "out"
    assert cli.main(["run", p, "--out-dir", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].split(",") == list(cli.METRIC_COLUMNS)
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_paired_sphere_runs_have_matching_row_counts(tmp_path, capsys):
    soft = SPHERES_SMALL.replace("method = hard_sgd", "method = soft_sgd")
    out_h = tmp_path / "h"
    out_s = tmp_path / "s"
    assert cli.main(["run", write(tmp_path, "h.txt", SPHERES_SMALL), "--out-dir", str(out_h)]) == 0
    assert cli.main(["run", write(tmp_path, "s.txt", soft), "--out-dir", str(out_s)]) == 0
    rows_h = (out_h / "metrics.csv").read_text().splitlines()
    rows_s = (out_s / "metrics.csv").read_text().splitlines()
    assert len(rows_h) == len(rows_s) == 25 + 2  # header + initial + iterations
    # hardtrain compare prints the pair's statistics as one JSON object
    traces = [str(out_h / "metrics.csv"), str(out_s / "metrics.csv")]
    capsys.readouterr()
    assert cli.main(["compare", *traces]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out) == cli.compare(*map(cli.read_metrics, traces))


def test_rerun_is_byte_identical(tmp_path):
    p = write(tmp_path, "c.txt", SPHERES_SMALL)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["run", p, "--out-dir", str(out1)]) == 0
    assert cli.main(["run", p, "--out-dir", str(out2)]) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


def test_metrics_cells_all_finite(tmp_path):
    p = write(tmp_path, "c.txt", SPHERES_SMALL)
    out = tmp_path / "o"
    assert cli.main(["run", p, "--out-dir", str(out)]) == 0
    rows = cli.read_metrics(out / "metrics.csv")
    for r in rows:
        for col in ("risk", "pred_error", "median_violation", "active_delta", "step_norm"):
            assert np.isfinite(float(r[col]))


def test_seed_flag_overrides_config(tmp_path):
    p = write(tmp_path, "c.txt", SPHERES_SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", p, "--out-dir", str(out1), "--seed", "11"]) == 0
    assert cli.main(["run", p, "--out-dir", str(out2), "--seed", "12"]) == 0
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()
    assert "seed = 11" in (out1 / "resolved_config.txt").read_text()


def test_negative_seed_flag_exits_2_naming_the_flag(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["run", write(tmp_path, "c.txt", SPHERES_SMALL), "--out-dir", str(out),
                   "--seed", "-1"])
    assert rc == 2
    assert not out.exists()
    assert "bad value for '--seed': -1, expected >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    SPHERES_SMALL,
    POSE_SMALL + "method = hard_adam\nmine = true\nn_mined = 4\nhidden = 16,8\nin_dim = 12\n",
], ids=["spheres", "toy_pose"])
def test_resolved_config_reproduces_its_run(tmp_path, config):
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(["run", write(tmp_path, "c.txt", config), "--out-dir", str(first)]) == 0
    assert cli.main(["run", str(first / "resolved_config.txt"), "--out-dir", str(again)]) == 0
    assert (first / "metrics.csv").read_bytes() == (again / "metrics.csv").read_bytes()


def test_env_var_sets_default_output_root(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT_ROOT, str(tmp_path / "root"))
    config = SPHERES_SMALL.replace("iterations = 25", "iterations = 0")
    assert cli.main(["run", write(tmp_path, "myrun.txt", config)]) == 0
    assert (tmp_path / "root" / "myrun" / "metrics.csv").exists()
    # a config's out_dir key takes precedence over the root
    keyed = tmp_path / "keyed"
    assert cli.main(["run", write(tmp_path, "other.txt", config + f"out_dir = {keyed}\n")]) == 0
    assert (keyed / "metrics.csv").exists() and not (tmp_path / "root" / "other").exists()


def test_full_scale_flag_switches_dimension(tmp_path):
    cfg = ("kind = spheres\nmethod = soft_sgd\nn_constraints = 2\n"
           "n_active = 1\niterations = 0\n")
    p = write(tmp_path, "f.txt", cfg)
    out = tmp_path / "o"
    assert cli.main(["run", p, "--out-dir", str(out), "--full-scale"]) == 0
    assert f"dim = {bm.SPHERE_FULL_DIM}" in (out / "resolved_config.txt").read_text()


def test_full_scale_flag_on_a_pose_config_exits_2_without_outputs(tmp_path, capsys):
    # the flag names a sphere dimension: a pose run refuses it rather than
    # running the normal problem
    out = tmp_path / "o"
    p = write(tmp_path, "p.txt", POSE_SMALL)
    assert cli.main(["run", p, "--out-dir", str(out), "--full-scale"]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        "config error: --full-scale applies only to kind = spheres\n")


def test_toy_pose_run_with_checkpoint_chain(tmp_path):
    base_cfg = """\
kind = toy_pose
method = soft_adam
soft_lambda = 0.0
epochs = 2
n_samples = 200
n_pool = 40
in_dim = 12
hidden = 16
seed = 1
"""
    out1 = tmp_path / "base"
    assert cli.main(["run", write(tmp_path, "b.txt", base_cfg), "--out-dir", str(out1)]) == 0
    ckpt = out1 / "best_params.bin"
    assert ckpt.exists()
    fine_cfg = base_cfg.replace("soft_lambda = 0.0", "soft_lambda = 0.01") \
        + f"init_checkpoint = {ckpt}\n"
    out2 = tmp_path / "fine"
    assert cli.main(["run", write(tmp_path, "f.txt", fine_cfg), "--out-dir", str(out2)]) == 0
    summary = json.loads((out2 / "summary.json").read_text())
    assert summary["status"] == "ok"
    # checkpoints are loadable flat-parameter files
    w = ad.load_params(out2 / "params.bin")
    assert np.isfinite(w).all()


def test_summary_records_the_blas_thread_count(tmp_path):
    # a fresh process, so the pinned count is the one OpenBLAS starts with;
    # null where the BLAS is not an OpenBLAS the query can reach
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "run"
    subprocess.run([sys.executable, "-m", "hardtrain.cli", "run",
                    write(tmp_path, "s.txt", SPHERES_SMALL), "--out-dir", str(out)],
                   env=env, check=True, timeout=120)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["blas_threads"] in (1, None)


def test_a_run_writes_the_same_metrics_whatever_the_blas_thread_count(tmp_path):
    # criterion 9's sphere run at d = 1e4, where OpenBLAS splits the
    # products over threads when it may: the run pins one thread, so
    # starting at two writes the one-thread bytes
    src = Path(cli.__file__).resolve().parents[1]
    cfg = write(tmp_path, "s.txt", "kind = spheres\nmethod = hard_sgd\ndim = 10000\n"
                "n_constraints = 16\nn_active = 5\niterations = 5\nseed = 8\n")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"t{threads}"
        subprocess.run([sys.executable, "-m", "hardtrain.cli", "run", cfg, "--out-dir", str(out)],
                       env=env, check=True, timeout=120)
        assert json.loads((out / "summary.json").read_text())["blas_threads"] in (1, None)
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_numerical_failure_exits_3_and_keeps_checkpoint(tmp_path, capsys):
    cfg = """\
kind = toy_pose
method = soft_sgd
lr = 1e18
soft_lambda = 0.0
epochs = 10
n_samples = 200
n_pool = 40
in_dim = 12
hidden = 16
seed = 1
"""
    out = tmp_path / "o"
    rc = cli.main(["run", write(tmp_path, "div.txt", cfg), "--out-dir", str(out)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    # the retained checkpoint holds the last finite parameters
    w = ad.load_params(out / "params.bin")
    assert np.isfinite(w).all()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "numerical_failure"
    for r in cli.read_metrics(out / "metrics.csv"):
        assert np.isfinite(float(r["risk"]))


def test_overflowing_damping_exits_3(tmp_path, capsys):
    # D = I / lr overflows at a positive, finite lr below 1 / DBL_MAX: a
    # numerical failure of the step, not a traceback from the KKT state
    out = tmp_path / "o"
    cfg = write(tmp_path, "c.txt", SPHERES_SMALL + "lr = 1e-320\n")
    assert cli.main(["run", cfg, "--out-dir", str(out)]) == 3
    assert "non-finite damping diagonal at iteration 1" in capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["status"] == "numerical_failure"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_overflowing_soft_step_exits_3_with_the_initial_iterate(tmp_path, capsys):
    # w - lr * g overflows in the first step: the run keeps its initial row
    # and parameters
    out = tmp_path / "o"
    cfg = write(tmp_path, "c.txt", "kind = spheres\nmethod = soft_sgd\ndim = 200\n"
                "n_constraints = 16\nn_active = 5\nlr = 1e306\n")
    assert cli.main(["run", cfg, "--out-dir", str(out)]) == 3
    assert "non-finite step at iteration 1" in capsys.readouterr().err
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0,")
    np.testing.assert_array_equal(ad.load_params(out / "params.bin"),
                                  bm.gen_spheres(200, 16, 0).x0)
    assert json.loads((out / "summary.json").read_text())["status"] == "numerical_failure"


EXIT_SWEEP_BASES = {
    "spheres": "kind = spheres\ndim = 20\nn_constraints = 8\nn_active = 4\niterations = 3\n",
    "toy_pose": ("kind = toy_pose\nepochs = 1\nn_samples = 40\nn_pool = 8\nin_dim = 4\n"
                 "hidden = 6\nbatch_data = 16\nbatch_constraints = 4\n"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
@pytest.mark.parametrize("lr", ["1e-300", "1e300"])
@pytest.mark.parametrize("method", tr.METHODS)
@pytest.mark.parametrize("kind", list(EXIT_SWEEP_BASES))
def test_every_method_exits_0_or_3_with_every_artifact(tmp_path, capsys, kind, method, lr):
    # the exit-code contract at both ends of the lr range: a run ends ok or
    # as a numerical failure, never with a traceback, and writes every
    # artifact with the status its exit code says
    out = tmp_path / "o"
    cfg = write(tmp_path, "c.txt", EXIT_SWEEP_BASES[kind] + f"method = {method}\nlr = {lr}\n")
    code = cli.main(["run", cfg, "--out-dir", str(out)])
    assert code in (0, 3)
    for artifact in ("metrics.csv", "params.bin", "best_params.bin", "problem.json",
                     "summary.json"):
        assert (out / artifact).is_file(), artifact
    status = json.loads((out / "summary.json").read_text())["status"]
    assert status == {0: "ok", 3: "numerical_failure"}[code]


def test_solver_breakdown_exits_3_and_keeps_the_last_iterate(tmp_path, capsys, monkeypatch):
    # a breakdown at the 5th solve leaves the rows and parameters of a
    # 4-iteration run
    ref = tmp_path / "ref"
    four = SPHERES_SMALL.replace("iterations = 25", "iterations = 4")
    assert cli.main(["run", write(tmp_path, "four.txt", four), "--out-dir", str(ref)]) == 0
    solve, calls = kkt.minres_qlp, []

    def breaks_at_the_fifth_solve(op, b, *args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise FloatingPointError("MINRES-QLP broke down after 2 iterations")
        return solve(op, b, *args, **kwargs)

    monkeypatch.setattr(kkt, "minres_qlp", breaks_at_the_fifth_solve)
    out = tmp_path / "o"
    assert cli.main(["run", write(tmp_path, "c.txt", SPHERES_SMALL), "--out-dir", str(out)]) == 3
    assert "broke down" in capsys.readouterr().err
    assert len((out / "metrics.csv").read_text().splitlines()) == 1 + 5
    for name in ("metrics.csv", "params.bin"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()
    assert json.loads((out / "summary.json").read_text())["status"] == "numerical_failure"


def test_compare_self_is_unit_ratio(tmp_path):
    p = write(tmp_path, "c.txt", SPHERES_SMALL)
    out = tmp_path / "o"
    assert cli.main(["run", p, "--out-dir", str(out)]) == 0
    rows = cli.read_metrics(out / "metrics.csv")
    summary = cli.compare(rows, rows)
    assert summary["delta_smoothness_ratio"] == 1.0
    assert summary["final_median_violation_diff"] == 0.0
    assert summary["smoother"] == "tie"


def test_compare_rejects_mismatched_lengths(tmp_path, capsys):
    p = write(tmp_path, "c.txt", SPHERES_SMALL)
    q = write(tmp_path, "d.txt", SPHERES_SMALL.replace("iterations = 25", "iterations = 10"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", p, "--out-dir", str(out1)]) == 0
    assert cli.main(["run", q, "--out-dir", str(out2)]) == 0
    rc = cli.main(["compare", str(out1 / "metrics.csv"), str(out2 / "metrics.csv")])
    assert rc == 2
    assert "length" in capsys.readouterr().err


def test_compare_reads_only_the_columns_it_needs(tmp_path, capsys):
    out = tmp_path / "o"
    assert cli.main(["run", write(tmp_path, "c.txt", SPHERES_SMALL), "--out-dir", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    # one extra column compares as before
    extra = tmp_path / "extra.csv"
    extra.write_text("".join(f"{l},{'wall_s' if i == 0 else 0.5}\n"
                             for i, l in enumerate(lines)))
    rows = cli.read_metrics(out / "metrics.csv")
    assert cli.compare(cli.read_metrics(extra), rows) == cli.compare(rows, rows)
    # a trace without active_delta is refused, naming the column
    header = lines[0].split(",")
    drop = header.index("active_delta")
    missing = tmp_path / "missing.csv"
    missing.write_text("".join(",".join(c for j, c in enumerate(l.split(",")) if j != drop)
                               + "\n" for l in lines))
    rc = cli.main(["compare", str(missing), str(out / "metrics.csv")])
    assert rc == 2
    assert "active_delta" in capsys.readouterr().err


@pytest.mark.parametrize("body, expect", [
    ("", "has no rows"),
    ("1\n", ":2: bad value for 'active_delta': None"),
    ("0.5,fog\n", ":2: bad value for 'active_delta': 'fog'"),
    ("0.5,0\nnan,0\n", ":3: bad value for 'median_violation': 'nan'"),
    ("0.5,-inf\n", ":2: bad value for 'active_delta': '-inf'"),
], ids=["no_rows", "missing_cell", "non_numeric_cell", "nan_cell", "inf_cell"])
def test_compare_refuses_a_malformed_trace(tmp_path, capsys, body, expect):
    trace = write(tmp_path, "t.csv", "median_violation,active_delta\n" + body)
    assert cli.main(["compare", trace, trace]) == 2
    err = capsys.readouterr().err
    assert err.startswith("compare error: ") and expect in err


def test_compare_flags_soft_as_smoother(tmp_path):
    hard, soft = bm.run_sphere_comparison(d=120, iters=80, n_active=6, seed=1,
                                          n_constraints=24)
    out = tmp_path
    cli.write_metrics_csv(out / "hard.csv", hard.initial_row, hard.rows)
    cli.write_metrics_csv(out / "soft.csv", soft.initial_row, soft.rows)
    summary = cli.compare(cli.read_metrics(out / "hard.csv"),
                          cli.read_metrics(out / "soft.csv"))
    assert summary["smoother"] == "b"
    assert summary["degradation_fraction_a"] > 0.0

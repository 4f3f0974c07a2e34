"""Digests of the program's outputs, for bit-for-bit checks between checkouts.

    python3 tools/output_digests.py > digests.txt

It runs 16 CLI configs and the 200 solves of acceptance criterion 1 with
the package and test helpers of the checkout that holds this file, and
prints one ``sha256 name`` line per artifact, 82 in all.  Comparing two
checkouts is then one ``diff`` of their outputs.

The configs are the five methods on spheres (d = 3000, 40 iterations), a
soft_adam pose baseline (20 epochs) and the five methods as 3-epoch pose
fine-tunes from its ``best_params.bin``, on mined (12 samples) and on
random (128 samples) active sets, all at seed 0.  Each run's
``metrics.csv``, ``params.bin``, ``best_params.bin``, ``problem.json`` and
``summary.json`` are digested; ``resolved_config.txt`` is not, since it
holds the output paths.  Criterion 1 is one digest over every solution's
x bytes and ``repr((iters, status, residual_norm, acond))``.  The last
line, ``pools``, digests what the CLI artifacts show only through medians
and mined ranks: each pool family's violation matrix at two parameter
vectors, and one 12-sample active set's value, jvp, vjp, scalar Gram and
vector Gram.  Everything runs at one BLAS thread.  A run that does not
exit 0 is named on stderr and makes the script exit 1 after printing every
digest.
"""

import os

# reruns are byte-identical only at a fixed BLAS thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import collections  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from hardtrain import autodiff as ad  # noqa: E402
from hardtrain import benchmarks as bm  # noqa: E402
from hardtrain import cli  # noqa: E402
from hardtrain import constraints as cs  # noqa: E402
from hardtrain import trainers as tr  # noqa: E402
from hardtrain.krylov import SolverConfig, minres_qlp  # noqa: E402
from util import from_dense, random_symmetric_system  # noqa: E402

ARTIFACTS = ("metrics.csv", "params.bin", "best_params.bin", "problem.json", "summary.json")


def configs(work: Path) -> dict:
    """name -> config text, in run order (the baseline before its fine-tunes).

    A fine-tune takes its ``lr`` and ``soft_lambda`` from the acceptance
    protocol's ``benchmarks.POSE_CONSTRAINED``."""
    out = {f"spheres_{m}": f"kind = spheres\nmethod = {m}\ndim = 3000\niterations = 40\n"
           for m in tr.METHODS}
    out["pose_base"] = "kind = toy_pose\nmethod = soft_adam\nsoft_lambda = 0.0\nepochs = 20\n"
    base = work / "pose_base" / "best_params.bin"
    for active, keys in (("mined", "mine = true\nn_mined = 12\n"),
                         ("random", "mine = false\nbatch_constraints = 128\n")):
        for m in tr.METHODS:
            protocol = bm.POSE_CONSTRAINED[m]
            rates = "".join(f"{key} = {protocol[key]}\n" for key in ("lr", "soft_lambda")
                            if key in protocol)
            out[f"pose_{m}_{active}"] = (f"kind = toy_pose\nmethod = {m}\nepochs = 3\n"
                                         f"{rates}{keys}init_checkpoint = {base}\n")
    return {name: text + "seed = 0\n" for name, text in out.items()}


def run_configs(work: Path) -> bool:
    """Run every config into ``work``, print its artifacts' digests and
    say whether every run exited 0."""
    all_ok = True
    for name, text in configs(work).items():
        config = work / f"{name}.txt"
        config.write_text(text)
        code = cli.main(["run", str(config), "--out-dir", str(work / name)])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            all_ok = False
        for artifact in ARTIFACTS:
            path = work / name / artifact
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"
            print(f"{digest} {name}/{artifact}")
    return all_ok


def criterion_1() -> None:
    """Print the digest of criterion 1's 200 solutions; their statuses go
    to stderr."""
    rng = np.random.default_rng(20260809)
    h = hashlib.sha256()
    statuses = collections.Counter()
    for _ in range(200):
        B, b, _, _, _ = random_symmetric_system(rng)
        cfg = SolverConfig(rtol=1e-11, max_iters=min(max(8 * B.shape[0], 400), 3000))
        sol = minres_qlp(from_dense(B), b, cfg)
        h.update(sol.x.tobytes())
        h.update(repr((sol.iters, sol.status, sol.residual_norm, sol.acond)).encode())
        statuses[sol.status] += 1
    print(f"{h.hexdigest()} criterion_1")
    print("criterion 1: " + ", ".join(f"{n} {s}" for s, n in sorted(statuses.items())),
          file=sys.stderr)


def pools() -> None:
    """Print one digest over the sphere (d = 3000, 200 centers) and pose
    pools at seed 0: V at an initial point and at a perturbed one, and the
    rows of 12 random samples linearized at the second."""
    rng = np.random.default_rng(20261020)
    h = hashlib.sha256()
    spheres, pose = bm.gen_spheres(3000, 200, 0), bm.gen_toy_pose(0)
    for problem, w0 in ((spheres, spheres.x0), (pose, pose.initial_params(rng))):
        pool = problem.pool
        w = w0 + rng.normal(0.0, 0.1, len(w0))
        for at in (w0, w):
            h.update(pool.violation_matrix(at).tobytes())
        lin = ad.linearize(pool.rows(cs.select_random(pool, 12, 0)), w)
        v, u = rng.standard_normal(len(w)), rng.standard_normal(len(lin.value))
        d_inv = rng.uniform(0.5, 2.0, len(w))
        for out in (lin.value, lin.jvp(v), lin.vjp(u), lin.gram(0.3), lin.gram(d_inv)):
            h.update(out.tobytes())
    print(f"{h.hexdigest()} pools")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        all_ok = run_configs(Path(tmp))
    criterion_1()
    pools()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

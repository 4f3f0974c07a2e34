"""Synthetic problems and evaluation metrics at desk scale.

Two problem families: the hypersphere-intersection projection problem (a
decision vector pulled toward an anchor while constrained to 200 nearly
identical spheres) and a synthetic 17-joint pose regression task whose
labels carry asymmetry noise.  Both plug into
:func:`hardtrain.trainers.train`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import constraints as cs
from . import trainers as tr
from .krylov import SolverConfig
from .linops import Vector

SPHERE_RADIUS = 10.0
SPHERE_CENTER_STD = 0.1          # variance 0.01, two orders below the radius
SPHERE_SOFT_LAMBDA = 100.0
SPHERE_DEFAULT_CONSTRAINTS = 200
SPHERE_DEMO_DIM = 10_000         # full-scale flag switches to 1_000_000
SPHERE_FULL_DIM = 1_000_000

# chosen by a 5-point grid {3e-5, 1e-4, 3e-4, 1e-3, 3e-3} on held-out seed
# 999 at the demo dimension (lowest final median violation without blowup)
SPHERE_SOFT_LR = 3e-4
SPHERE_HARD_LR = 1.0

# inner-solve settings of the sphere and pose runs
SPHERE_SOLVER = SolverConfig(rtol=1e-8, max_iters=500)
POSE_SOLVER = SolverConfig(rtol=1e-8, max_iters=800)
# label and input noise of the synthetic pose task
POSE_ASYM_NOISE = 0.06
POSE_INPUT_NOISE = 0.01


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def prediction_error(preds, truths) -> float:
    """Mean over samples of the mean Euclidean joint distance."""
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {truths.shape}")
    return float(np.mean(cs.lengths_3d(preds.reshape(-1, 17, 3) - truths.reshape(-1, 17, 3))))


# ---------------------------------------------------------------------------
# Hypersphere projection problem
# ---------------------------------------------------------------------------


class _AnchorResiduals(ad.DiffFunction):
    """r(w) = (w - x0) / sqrt(2), so ||r||^2 is the anchor risk 0.5||w - x0||^2."""

    def __init__(self, x0):
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.n_params = self.n_outputs = self.x0.shape[0]
        self._s = 1.0 / np.sqrt(2.0)

    def value(self, w):
        return (w - self.x0) * self._s

    def linearize(self, w):
        return self.value(w), lambda v: v * self._s, lambda u: u * self._s


@dataclass
class SphereProblem:
    """Minimize 0.5||w - x0||^2 subject to ||w - c_i|| = SPHERE_RADIUS for all i."""

    seed: int
    x0: Vector = field(repr=False)
    pool: cs.SpherePool = field(repr=False)
    n_train: int = 0
    dim = property(lambda self: self.pool.n_params)
    n_constraints = property(lambda self: self.pool.n_samples)

    def initial_params(self, rng) -> Vector:
        return self.x0.copy()

    def residual_function(self, idx) -> ad.DiffFunction:
        return _AnchorResiduals(self.x0)

    def prediction_error(self, w) -> float:
        return 0.0

    def spec_dict(self) -> dict:
        return {"kind": "spheres", "dim": self.dim, "n_constraints": self.n_constraints,
                "seed": self.seed}


def gen_spheres(d: int, n_constraints: int = SPHERE_DEFAULT_CONSTRAINTS,
                seed: int = 0) -> SphereProblem:
    """Deterministic sphere problem: centers ~ N(0, SPHERE_CENTER_STD^2 I),
    anchor at a seeded random direction of norm 2 * SPHERE_RADIUS (outside
    every sphere)."""
    if d < 2 or n_constraints < 1:
        raise ValueError("need d >= 2 and at least one constraint")
    ss = np.random.SeedSequence([seed, 0x5EED])
    rng_centers, rng_anchor = (np.random.default_rng(s) for s in ss.spawn(2))
    centers = rng_centers.normal(0.0, SPHERE_CENTER_STD, (n_constraints, d))
    x0 = rng_anchor.standard_normal(d)
    x0 *= (2.0 * SPHERE_RADIUS) / np.linalg.norm(x0)
    return SphereProblem(seed=seed, x0=x0, pool=cs.SpherePool(centers, SPHERE_RADIUS))


def run_sphere_comparison(d: int, iters: int = 500, n_active: int = 20,
                          seed: int = 0,
                          n_constraints: int = SPHERE_DEFAULT_CONSTRAINTS):
    """Paired hard/soft runs over shared batch streams.

    Returns (hard_report, soft_report); both rotate the same random active
    subsets of constraints and log the active-median delta per iteration.
    """
    problem = gen_spheres(d, n_constraints, seed)
    hard_cfg = tr.TrainConfig(method=tr.HARD_SGD, lr=SPHERE_HARD_LR, iterations=iters,
                              batch_constraints=n_active, seed=seed, solver=SPHERE_SOLVER)
    soft_cfg = tr.TrainConfig(method=tr.SOFT_SGD, lr=SPHERE_SOFT_LR,
                              soft_lambda=SPHERE_SOFT_LAMBDA, iterations=iters,
                              batch_constraints=n_active, seed=seed, solver=SPHERE_SOLVER)
    hard = tr.train(hard_cfg, problem)
    soft = tr.train(soft_cfg, problem)
    return hard, soft


# ---------------------------------------------------------------------------
# Synthetic pose regression
# ---------------------------------------------------------------------------

# parent joint and bone length for every non-root joint; mirrored limbs
# share one length so the ground-truth symmetry residuals vanish exactly
_SKELETON = (
    ("spine", "pelvis", 0.25),
    ("chest", "spine", 0.25),
    ("neck", "chest", 0.12),
    ("head", "neck", 0.15),
    ("left shoulder", "chest", 0.18),
    ("right shoulder", "chest", 0.18),
    ("left elbow", "left shoulder", 0.28),
    ("right elbow", "right shoulder", 0.28),
    ("left hand", "left elbow", 0.25),
    ("right hand", "right elbow", 0.25),
    ("left hip", "pelvis", 0.12),
    ("right hip", "pelvis", 0.12),
    ("left knee", "left hip", 0.42),
    ("right knee", "right hip", 0.42),
    ("left heel", "left knee", 0.40),
    ("right heel", "right knee", 0.40),
)

def _random_unit(rng, n):
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_symmetric_poses(rng, n: int) -> np.ndarray:
    """n poses (n, 51) with mirrored bone lengths equal by construction.

    Bone directions are free (independent left/right), lengths are the
    template lengths times one per-pose scale, so all six symmetry
    residuals are exactly zero up to roundoff.
    """
    idx = {name: i for i, name in enumerate(cs.JOINT_NAMES)}
    scale = rng.uniform(0.9, 1.1, n)
    joints = np.zeros((n, 17, 3))
    for child, parent, length in _SKELETON:
        d = _random_unit(rng, n)
        joints[:, idx[child]] = joints[:, idx[parent]] + d * (length * scale[:, None])
    return joints.reshape(n, 51)


@dataclass
class ToyPoseProblem:
    """Regress flat poses from low-dimensional noisy encodings."""

    seed: int
    mlp: ad.Mlp
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    pool: cs.ConstraintPool

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]

    def initial_params(self, rng) -> Vector:
        return self.mlp.init_params(rng)

    def residual_function(self, idx) -> ad.DiffFunction:
        if idx is None:
            return ad.ScaledResiduals(self.mlp, self.train_x, self.train_y)
        return ad.ScaledResiduals(self.mlp, self.train_x[idx], self.train_y[idx])

    def prediction_error(self, w) -> float:
        return prediction_error(self.mlp.forward(w, self.val_x), self.val_y)

    def spec_dict(self) -> dict:
        return {"kind": "toy_pose", "seed": self.seed,
                "n_samples": self.n_train + self.val_x.shape[0],
                "n_pool": self.pool.n_samples,
                "in_dim": self.mlp.widths[0], "hidden": list(self.mlp.widths[1:-1])}


def gen_toy_pose(seed: int = 0, n_samples: int = 2000, n_pool: int = 384,
                 in_dim: int = 48, hidden=(192,)) -> ToyPoseProblem:
    """Synthetic pose task: symmetric ground truth, asymmetric label noise.

    Inputs are fixed random linear encodings of the clean pose plus noise;
    labels are the clean pose plus iid asymmetry noise; the constraint pool
    holds encodings of additional unlabeled poses.  Split 80/20.
    """
    ss = np.random.SeedSequence([seed, 0x705E])
    rng_pose, rng_enc, rng_noise, rng_pool = (np.random.default_rng(s) for s in ss.spawn(4))

    clean = sample_symmetric_poses(rng_pose, n_samples)
    encoder = rng_enc.standard_normal((in_dim, 51)) / np.sqrt(51)
    x = clean @ encoder.T + POSE_INPUT_NOISE * rng_noise.standard_normal((n_samples, in_dim))
    y = clean + POSE_ASYM_NOISE * rng_noise.standard_normal(clean.shape)

    n_train = int(0.8 * n_samples)
    pool_clean = sample_symmetric_poses(rng_pool, n_pool)
    pool_x = pool_clean @ encoder.T + POSE_INPUT_NOISE * rng_pool.standard_normal((n_pool, in_dim))
    mlp = ad.Mlp([in_dim, *hidden, 51])
    pool = cs.ConstraintPool(pool_x, cs.SymmetryHead(), mlp)
    return ToyPoseProblem(seed=seed, mlp=mlp,
                          train_x=x[:n_train], train_y=y[:n_train],
                          val_x=x[n_train:], val_y=y[n_train:],
                          pool=pool)


# Training protocol for the pose comparison: the unconstrained model is
# trained from scratch and selected by validation error; each constrained
# run fine-tunes from that checkpoint and is evaluated at its final
# parameters (the checkpoint-keeper would trivially return the warm start,
# whose validation error is minimal by construction).
POSE_BASELINE = dict(method=tr.SOFT_ADAM, lr=1e-3, soft_lambda=0.0, epochs=300)
POSE_CONSTRAINED = {
    "soft_adam": dict(method=tr.SOFT_ADAM, lr=1e-3, soft_lambda=0.001, epochs=120),
    "soft_sgd": dict(method=tr.SOFT_SGD, lr=0.1, soft_lambda=0.004, epochs=300),
    "hard_sgd": dict(method=tr.HARD_SGD, lr=0.3, epochs=30, mine=True, n_mined=12),
    "hard_gn": dict(method=tr.HARD_GN, lr=0.3, epochs=30, mine=True, n_mined=12),
    "hard_adam": dict(method=tr.HARD_ADAM, lr=0.05, epochs=30, mine=True, n_mined=12),
}


def pose_metrics(problem: ToyPoseProblem, w) -> tuple:
    """(validation prediction error, pool median violation) of one model."""
    mv = cs.median_violation(problem.pool.violation_matrix(w))
    return problem.prediction_error(w), mv


def run_pose_suite(seed: int, methods=("soft_adam", "soft_sgd", "hard_sgd")) -> dict:
    """Unconstrained baseline plus constrained fine-tunes for one seed.

    Returns per-method (prediction error, median violation) pairs along
    with the baseline's, all on the same generated problem.
    """
    problem = gen_toy_pose(seed=seed)
    base = tr.train(tr.TrainConfig(seed=seed, solver=POSE_SOLVER, **POSE_BASELINE),
                    problem)
    w_u = base.best_params
    out = {"baseline": pose_metrics(problem, w_u)}
    for name in methods:
        cfg = tr.TrainConfig(seed=seed, solver=POSE_SOLVER, **POSE_CONSTRAINED[name])
        report = tr.train(cfg, problem, w0=w_u)
        out[name] = pose_metrics(problem, report.final_params)
    return out


# ---------------------------------------------------------------------------
# Problem spec files: seeds and dimensions only, never raw vectors
# ---------------------------------------------------------------------------


def save_problem_spec(problem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem.spec_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

"""Data-dependent constraint pools and active-set selection.

A pool couples a set of unlabeled samples with a head that maps the model
output for one sample to a vector of constraint residuals, each tagged as
an equality or an inequality (``C <= 0`` convention).  The pool is
evaluated once per parameter vector, into the violation matrix of every
residual (:func:`violation_matrix`); each training iteration picks an
active subset of samples, either uniformly or by mining the worst
violators in that matrix, drops the inequalities it shows satisfied, and
stacks the remaining (sample, constraint) pairs into one differentiable
function of the flat parameters for the saddle-point machinery.

Stacking order is always sample-major, constraint-minor, so multiplier
indices are reproducible across runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .linops import Vector

EQUALITY = "eq"
INEQUALITY = "ineq"

# bytes of model output per chunk of the pool in violation_matrix
_CHUNK_BYTES = 1 << 20

# 17-joint skeleton used by the pose constraint family
JOINT_NAMES = (
    "pelvis", "spine", "chest", "neck", "head",
    "left shoulder", "left elbow", "left hand",
    "right shoulder", "right elbow", "right hand",
    "left hip", "left knee", "left heel",
    "right hip", "right knee", "right heel",
)

# six mirrored-length constraints: each row names the two joint pairs whose
# distances must match (arms, forearms, legs, calves, chest-to-shoulders,
# pelvis-to-hips)
SYMMETRY_ROWS = (
    ("left shoulder", "left elbow", "right shoulder", "right elbow"),
    ("left elbow", "left hand", "right elbow", "right hand"),
    ("left hip", "left knee", "right hip", "right knee"),
    ("left knee", "left heel", "right knee", "right heel"),
    ("chest", "left shoulder", "chest", "right shoulder"),
    ("pelvis", "left hip", "pelvis", "right hip"),
)


# SYMMETRY_ROWS as joint indices: the 6x4 joint(j, m) table
SYMMETRY_JOINTS = tuple(tuple(JOINT_NAMES.index(n) for n in row) for row in SYMMETRY_ROWS)


# ---------------------------------------------------------------------------
# Constraint heads: batched residuals of the model output.  ``value(Y)``
# maps outputs (n, out_dim) to residuals (n, n_constraints);
# ``linearize(Y)`` returns them with jvp (dY -> dC) and vjp (U -> dY)
# closures that hold everything depending on Y alone.
# ---------------------------------------------------------------------------


def lengths_3d(d: np.ndarray) -> np.ndarray:
    """Lengths of the 3-vectors along d's last axis: np.linalg.norm's sums
    in its order, without its slow reduction over an axis of length 3."""
    sq = d * d
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def _incidence(first, second, n_joints: int) -> np.ndarray:
    """Signed (rows x joints) matrix with +1 at first[j], -1 at second[j]."""
    m = np.zeros((len(first), n_joints))
    rows = np.arange(len(first))
    m[rows, first] = 1.0
    m[rows, second] = -1.0
    return m


class SymmetryHead:
    """Maps a batch of flat poses (n, 51) to the six symmetry residuals."""

    n_constraints = 6
    in_dim = 51

    def __init__(self):
        self._a, self._b, self._c, self._d = np.asarray(SYMMETRY_JOINTS).T
        # transposed incidence of the two bone vectors of every row:
        # the vjp scatters (n, 6, 3) bone cotangents back onto 17 joints
        self._inc1_t = _incidence(self._a, self._b, len(JOINT_NAMES)).T
        self._inc2_t = _incidence(self._c, self._d, len(JOINT_NAMES)).T

    def _bones(self, Y):
        """The two bone vectors (n, 6, 3) of every row and their lengths."""
        y = Y.reshape(-1, 17, 3)
        d1 = y[:, self._a] - y[:, self._b]
        d2 = y[:, self._c] - y[:, self._d]
        return d1, d2, lengths_3d(d1), lengths_3d(d2)

    def value(self, Y):
        _, _, n1, n2 = self._bones(Y)
        return n1 - n2

    def linearize(self, Y):
        d1, d2, n1, n2 = self._bones(Y)
        u1 = d1 / np.maximum(n1, 1e-30)[:, :, None]
        u2 = d2 / np.maximum(n2, 1e-30)[:, :, None]

        def jvp(dY):
            dy = np.asarray(dY).reshape(-1, 17, 3)
            t1 = np.sum(u1 * (dy[:, self._a] - dy[:, self._b]), axis=2)
            t2 = np.sum(u2 * (dy[:, self._c] - dy[:, self._d]), axis=2)
            return t1 - t2

        def vjp(U):
            out = (self._inc1_t @ (U[:, :, None] * u1)
                   - self._inc2_t @ (U[:, :, None] * u2))    # (n, 17, 3)
            return out.reshape(-1, 51)

        return n1 - n2, jvp, vjp


class SphereRadiusHead:
    """Single residual ||y|| - radius per sample (y = offset from a center)."""

    n_constraints = 1

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = radius

    def _norms(self, Y):
        return np.maximum(np.linalg.norm(Y, axis=1), 1e-30)

    def value(self, Y):
        return (self._norms(Y) - self.radius)[:, None]

    def directions(self, Y):
        """(residuals (n, 1), unit rows Y / ||Y||): the head's Jacobian.

        The unit rows are written over Y, so the only n x d array is the
        caller's.  The squares go through one d-vector, a row at a time,
        so the norms are ``value``'s bit for bit.
        """
        sq = np.empty(Y.shape[1])
        norms = np.empty(Y.shape[0])
        for i, row in enumerate(Y):
            np.multiply(row, row, out=sq)
            norms[i] = sq.sum()
        norms = np.maximum(np.sqrt(norms), 1e-30)
        Y /= norms[:, None]
        return (norms - self.radius)[:, None], Y

    def linearize(self, Y):
        C, units = self.directions(np.array(Y, dtype=np.float64))
        return (C, lambda dY: np.einsum("nd,nd->n", units, dY)[:, None],
                lambda U: U[:, :1] * units)


# ---------------------------------------------------------------------------
# Pools and active sets
# ---------------------------------------------------------------------------


@dataclass
class ConstraintPool:
    """Unlabeled samples plus a tagged constraint head."""

    samples: np.ndarray
    head: object
    kinds: tuple

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        self.kinds = tuple(self.kinds)
        if self.samples.shape[0] < 1:
            raise ValueError("pool needs at least one sample")
        if len(self.kinds) != self.head.n_constraints:
            raise ValueError("one kind tag per constraint required")
        if any(k not in (EQUALITY, INEQUALITY) for k in self.kinds):
            raise ValueError(f"kinds must be {EQUALITY!r} or {INEQUALITY!r}")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_constraints(self) -> int:
        return self.head.n_constraints

    @cached_property
    def sample_sq_norms(self) -> np.ndarray:
        """||x_k||^2 of every sample: a constant of the pool, computed on
        first use."""
        return np.einsum("ij,ij->i", self.samples, self.samples)


@dataclass(frozen=True)
class ActiveSet:
    """Explicit (sample, constraint) pairs, sample-major."""

    sample_indices: np.ndarray
    constraint_indices: np.ndarray
    max_samples: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "sample_indices",
                           np.asarray(self.sample_indices, dtype=np.intp))
        object.__setattr__(self, "constraint_indices",
                           np.asarray(self.constraint_indices, dtype=np.intp))
        if self.sample_indices.shape != self.constraint_indices.shape:
            raise ValueError("index arrays must have matching length")
        if self.max_samples is not None and self.n_active_samples > self.max_samples:
            raise ValueError("active set exceeds its sample bound")

    @property
    def n_pairs(self) -> int:
        return self.sample_indices.shape[0]

    @property
    def n_active_samples(self) -> int:
        return np.unique(self.sample_indices).shape[0]

    @classmethod
    def cross(cls, sample_idx, n_constraints: int, max_samples: int | None = None):
        """All constraints for each listed sample, sample-major."""
        sample_idx = np.sort(np.asarray(sample_idx, dtype=np.intp))
        ks = np.repeat(sample_idx, n_constraints)
        js = np.tile(np.arange(n_constraints, dtype=np.intp), len(sample_idx))
        return cls(ks, js, max_samples)

    def fingerprint(self) -> str:
        h = hashlib.sha1()
        h.update(self.sample_indices.astype("<i8").tobytes())
        h.update(self.constraint_indices.astype("<i8").tobytes())
        return h.hexdigest()[:12]


def _check_active(pool: ConstraintPool, active: ActiveSet) -> None:
    if active.n_pairs == 0:
        return
    if active.sample_indices.min() < 0 or active.sample_indices.max() >= pool.n_samples:
        raise IndexError("active sample index out of range")
    if active.constraint_indices.min() < 0 or active.constraint_indices.max() >= pool.n_constraints:
        raise IndexError("active constraint index out of range")


def _sphere_pool(pool: ConstraintPool, model) -> bool:
    """Whether the pool holds sphere residuals ||w - x_k|| - radius, whose
    values and products come from w and the samples alone."""
    return isinstance(model, ad.IdentityOffset) and isinstance(pool.head, SphereRadiusHead)


def violation_matrix(pool: ConstraintPool, model, w: Vector) -> np.ndarray:
    """All residuals C_jk as an (n_samples, n_constraints) matrix.

    A sphere pool is one GEMV: ||w - x_k||^2 = ||w||^2 - 2 x_k.w + ||x_k||^2
    with the pool constant ||x_k||^2, clamped at 0 so that rounding at a
    center keeps the square root real.  It differs from the row norms of
    w - x_k by rounding alone (about 1e-14 absolute at ||w - x_k|| ~ 10).
    Any other pool goes through the model in chunks of rows whose outputs
    take about ``_CHUNK_BYTES``: a pose pool is one batch.
    """
    if _sphere_pool(pool, model):
        sq = pool.samples @ w
        sq *= -2.0
        sq += w @ w
        sq += pool.sample_sq_norms
        np.maximum(sq, 0.0, out=sq)
        np.sqrt(sq, out=sq)
        np.maximum(sq, 1e-30, out=sq)
        sq -= pool.head.radius
        return sq[:, None]
    rows = max(1, _CHUNK_BYTES // (8 * model.out_dim))
    return np.concatenate([
        np.atleast_2d(pool.head.value(model.forward(w, pool.samples[lo:lo + rows])))
        for lo in range(0, pool.n_samples, rows)])


def median_violation(V: np.ndarray) -> float:
    """Median of the absolute residuals in V, 0.0 when there are none.

    np.median(|V|) bit for bit, without its wrapper's overhead: the middle
    element, or the mean of the middle two, of one partition.  The
    partition also places the largest element last, where a NaN sorts, so a
    NaN anywhere gives NaN as np.median does.
    """
    n = V.size
    if n == 0:
        return 0.0
    half, odd = divmod(n, 2)
    part = np.partition(np.abs(V).ravel(), (half - 1 + odd, half, n - 1))
    if np.isnan(part[-1]):
        return math.nan
    return float(part[half] if odd else (part[half - 1] + part[half]) / 2)


def select_random(pool: ConstraintPool, batch: int, rng_seed) -> ActiveSet:
    """Uniform sample-without-replacement of ``batch`` pool samples."""
    if not 1 <= batch <= pool.n_samples:
        raise ValueError(f"batch must be in [1, {pool.n_samples}], got {batch}")
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(pool.n_samples, size=batch, replace=False)
    return ActiveSet.cross(idx, pool.n_constraints, max_samples=batch)


def select_mined(V: np.ndarray, n_keep: int) -> ActiveSet:
    """The n_keep samples whose rows of V have the largest median |C|.

    The mined objective sums per-sample medians over the chosen subset, so
    it is separable across samples and the greedy top-n_keep selection is
    exact.  Ties break toward the lower sample index.
    """
    n_samples, n_constraints = V.shape
    if not 1 <= n_keep <= n_samples:
        raise ValueError(f"n_keep must be in [1, {n_samples}], got {n_keep}")
    med = np.median(np.abs(V), axis=1)
    order = np.argsort(-med, kind="stable")[:n_keep]
    return ActiveSet.cross(order, n_constraints, max_samples=n_keep)


def filter_inequalities(pool: ConstraintPool, V: np.ndarray, active: ActiveSet) -> ActiveSet:
    """Drop inequality pairs V shows satisfied; violated ones stay as equalities."""
    _check_active(pool, active)
    if active.n_pairs == 0:
        return active
    kinds = np.asarray(pool.kinds)
    is_ineq = kinds[active.constraint_indices] == INEQUALITY
    if not is_ineq.any():
        return active
    vals = V[active.sample_indices, active.constraint_indices]
    keep = ~(is_ineq & (vals <= 0.0))
    return ActiveSet(active.sample_indices[keep], active.constraint_indices[keep],
                     active.max_samples)


class StackedConstraints(ad.DiffFunction):
    """Active residuals as one differentiable function of the parameters."""

    def __init__(self, pool: ConstraintPool, model, active: ActiveSet):
        _check_active(pool, active)
        self.pool = pool
        self.model = model
        self.active = active
        self._uniq, self._rows = np.unique(active.sample_indices, return_inverse=True)
        self._cols = active.constraint_indices
        # flat positions of the active pairs in the (samples, constraints) grid
        self._flat = self._rows * pool.n_constraints + self._cols
        self.n_params = model.n_params
        self.n_outputs = active.n_pairs

    @property
    def X(self) -> np.ndarray:
        """The active samples, gathered on use so no copy outlives a call."""
        return self.pool.samples[self._uniq]

    def _gather(self, C) -> Vector:
        return np.atleast_2d(C).ravel()[self._flat]

    def _scatter(self, u) -> np.ndarray:
        """Adjoint of ``_gather``: u summed into the (samples, constraints) grid."""
        grid = (len(self._uniq), self.pool.n_constraints)
        return np.bincount(self._flat, u, grid[0] * grid[1]).reshape(grid)

    def value(self, w):
        return self._gather(self.pool.head.value(self.model.forward(w, self.X)))

    def _head_rows(self, head_vjp) -> np.ndarray:
        """H[k] = dC[s_k, j_k] / dY[s_k], one row per active pair.

        A head maps each sample's output to that sample's residuals alone,
        so one vjp of a constraint's indicator column gives that
        constraint's row for every active sample.
        """
        grid = np.zeros((len(self._uniq), self.pool.n_constraints))
        H = np.empty((self.n_outputs, self.model.out_dim))
        for j in np.unique(self._cols):
            grid[:, j] = 1.0
            pick = self._cols == j
            H[pick] = np.asarray(head_vjp(grid))[self._rows[pick]]
            grid[:, j] = 0.0
        return H

    def linearize(self, w):
        Y, model_jvp, model_vjp, model_gram = self.model.linearize(w, self.X)
        C, head_jvp, head_vjp = self.pool.head.linearize(Y)
        return (self._gather(C), lambda v: self._gather(head_jvp(model_jvp(v))),
                lambda u: model_vjp(head_vjp(self._scatter(u))),
                lambda d_inv: model_gram(self._rows, self._head_rows(head_vjp), d_inv))


class SphereRows(StackedConstraints):
    """Active sphere residuals of an :class:`~hardtrain.autodiff.IdentityOffset`
    model.  Their Jacobian is the matrix of unit directions
    U = (w - X) / ||w - X||, formed once per linearization in the buffer
    that gathers the active X, so a product is one GEMV: jvp is U v, vjp is
    u U, and the Gram matrix is U diag(d_inv) U^T gathered to the active
    rows."""

    def linearize(self, w):
        X = self.X
        C, units = self.pool.head.directions(self.model.forward(w, X, out=X))

        def gram(d_inv):
            S = d_inv * (units @ units.T) if np.ndim(d_inv) == 0 else (units * d_inv) @ units.T
            return S[np.ix_(self._rows, self._rows)]

        return (self._gather(C), lambda v: (units @ v)[self._rows],
                lambda u: self._scatter(u)[:, 0] @ units, gram)


def active_constraint_function(pool: ConstraintPool, model, active: ActiveSet) -> StackedConstraints:
    if _sphere_pool(pool, model):
        return SphereRows(pool, model, active)
    return StackedConstraints(pool, model, active)

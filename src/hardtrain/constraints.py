"""Data-dependent constraint pools and active-set selection.

A pool couples a set of unlabeled samples with a head that maps the model
output for one sample to a vector of equality residuals.  The pool is
evaluated once per parameter vector, into the violation matrix of every
residual (:func:`violation_matrix`); each training iteration picks an
active set of samples, either uniformly or by mining the worst violators
in that matrix, and stacks every constraint of each active sample into one
differentiable function of the flat parameters for the saddle-point
machinery.

An active set is the sorted array of its pool-sample indices.  Stacking
order is sample-major, constraint-minor, so multiplier indices are
reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .linops import Vector

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
# closures that hold everything depending on Y alone.  The sphere head is
# the exception: it holds a radius, and SphereRows does the rest.
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
    """The radius of a pool of sphere residuals ||w - x_k|| - radius, one per
    sample, which :func:`violation_matrix` and :class:`SphereRows` compute."""

    n_constraints = 1

    def __init__(self, radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self.radius = radius


# ---------------------------------------------------------------------------
# Pools and active sets
# ---------------------------------------------------------------------------


@dataclass
class ConstraintPool:
    """Unlabeled samples plus the constraint head applied to each."""

    samples: np.ndarray
    head: object

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.samples.shape[0] < 1:
            raise ValueError("pool needs at least one sample")

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


def _sphere_pool(pool: ConstraintPool, model) -> bool:
    """Whether the pool holds sphere residuals ||w - x_k|| - radius, whose
    values and products come from w and the samples alone."""
    return isinstance(model, ad.IdentityOffset) and isinstance(pool.head, SphereRadiusHead)


def _sphere_distances(Xw: np.ndarray, w: Vector, x_sq: np.ndarray) -> np.ndarray:
    """||w - x_k|| from the products Xw = X w and the squared norms x_sq of
    the rows of X, by ||w||^2 - 2 x_k.w + ||x_k||^2, clamped at 0 so that
    rounding at a center keeps the square root real, and floored at 1e-30
    so that a division by it stays finite.  Xw is left unchanged."""
    sq = Xw * -2.0
    sq += w @ w
    sq += x_sq
    np.maximum(sq, 0.0, out=sq)
    np.sqrt(sq, out=sq)
    np.maximum(sq, 1e-30, out=sq)
    return sq


def violation_matrix(pool: ConstraintPool, model, w: Vector) -> np.ndarray:
    """All residuals C_jk as an (n_samples, n_constraints) matrix.

    A sphere pool is one GEMV and :func:`_sphere_distances` with the pool
    constant ||x_k||^2.  It differs from the row norms of w - x_k by
    rounding alone (about 1e-14 absolute at ||w - x_k|| ~ 10).
    :class:`SphereRows` computes its active rows by the same formula; they
    agree with this matrix's rows to one rounding of ||w - x_k||, because
    the BLAS may sum a row's products x_k.w in another order when the row
    sits elsewhere in the matrix it multiplies.  Any other pool goes
    through the model in chunks of rows whose outputs take about
    ``_CHUNK_BYTES``: a pose pool is one batch.
    """
    if _sphere_pool(pool, model):
        dist = _sphere_distances(pool.samples @ w, w, pool.sample_sq_norms)
        dist -= pool.head.radius
        return dist[:, None]
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


def select_random(pool: ConstraintPool, batch: int, rng_seed) -> np.ndarray:
    """Uniform sample-without-replacement of ``batch`` pool samples, sorted."""
    if not 1 <= batch <= pool.n_samples:
        raise ValueError(f"batch must be in [1, {pool.n_samples}], got {batch}")
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(pool.n_samples, size=batch, replace=False))


def select_mined(V: np.ndarray, n_keep: int) -> np.ndarray:
    """The n_keep samples whose rows of V have the largest median |C|, sorted.

    The mined objective sums per-sample medians over the chosen subset, so
    it is separable across samples and the greedy top-n_keep selection is
    exact.  Ties break toward the lower sample index.
    """
    n_samples = V.shape[0]
    if not 1 <= n_keep <= n_samples:
        raise ValueError(f"n_keep must be in [1, {n_samples}], got {n_keep}")
    med = np.median(np.abs(V), axis=1)
    return np.sort(np.argsort(-med, kind="stable")[:n_keep])


class StackedConstraints(ad.DiffFunction):
    """Every constraint of each listed pool sample, sample-major, as one
    differentiable function of the parameters.  The samples need not be
    sorted or distinct: a repeated sample gives repeated rows."""

    def __init__(self, pool: ConstraintPool, model, samples):
        samples = np.asarray(samples, dtype=np.intp)
        if len(samples) and (samples.min() < 0 or samples.max() >= pool.n_samples):
            raise IndexError("active sample index out of range")
        self.pool = pool
        self.model = model
        self.samples = samples
        self.n_params = model.n_params
        self.n_outputs = len(samples) * pool.n_constraints

    @property
    def X(self) -> np.ndarray:
        """The active samples, gathered on use so no copy outlives a call."""
        return self.pool.samples[self.samples]

    def value(self, w):
        return self.pool.head.value(self.model.forward(w, self.X)).ravel()

    def _head_rows(self, head_vjp) -> np.ndarray:
        """H[i] = dC_i / dY of the sample that owns stacked residual i.

        A head maps each sample's output to that sample's residuals alone,
        so one vjp of a constraint's indicator column gives that
        constraint's row for every active sample.
        """
        k, c = len(self.samples), self.pool.n_constraints
        grid = np.zeros((k, c))
        H = np.empty((self.n_outputs, self.model.out_dim))
        for j in range(c):
            grid[:, j] = 1.0
            H[j::c] = head_vjp(grid)
            grid[:, j] = 0.0
        return H

    def linearize(self, w):
        k, c = len(self.samples), self.pool.n_constraints
        Y, model_jvp, model_vjp, model_gram = self.model.linearize(w, self.X)
        C, head_jvp, head_vjp = self.pool.head.linearize(Y)
        rows = np.repeat(np.arange(k), c)
        return (C.ravel(), lambda v: head_jvp(model_jvp(v)).ravel(),
                lambda u: model_vjp(head_vjp(u.reshape(k, c))),
                lambda d_inv: model_gram(rows, self._head_rows(head_vjp), d_inv))


class SphereRows(StackedConstraints):
    """Active sphere residuals ||w - x_k|| - radius of an
    :class:`~hardtrain.autodiff.IdentityOffset` model, one per listed
    sample.  The active centers X are gathered once per linearization and
    are its only m x d array; w - X is never formed.  The norms n come from
    X w as in :func:`violation_matrix`, whose rows the values equal to one
    rounding of n, and the Jacobian U = (w - X) / n stays implicit.  With
    a = u / n, jvp is (w.v - X v) / n, vjp is sum(a) w - a X, and the Gram
    matrix U D U^T is (X D X^T - p 1^T - 1 p^T + w^T D w) / (n_i n_j) with
    p = X D w, D = diag(d_inv)."""

    def value(self, w):
        return self.linearize(w)[0]

    def linearize(self, w):
        X = self.X
        Xw = X @ w
        n = _sphere_distances(Xw, w, self.pool.sample_sq_norms[self.samples])

        def vjp(u):
            a = u / n
            g = a @ X
            np.subtract(a.sum() * w, g, out=g)
            return g

        def gram(d_inv):
            scalar = np.ndim(d_inv) == 0
            if scalar:
                K, p, wDw = X @ X.T, Xw, w @ w
            else:
                Dw = d_inv * w
                K, p, wDw = (X * d_inv) @ X.T, X @ Dw, w @ Dw
            K -= p[:, None]
            K -= p
            K += wDw
            K /= np.multiply.outer(n, n)
            return d_inv * K if scalar else K

        return n - self.pool.head.radius, lambda v: (w @ v - X @ v) / n, vjp, gram


def active_constraint_function(pool: ConstraintPool, model, samples) -> StackedConstraints:
    if _sphere_pool(pool, model):
        return SphereRows(pool, model, samples)
    return StackedConstraints(pool, model, samples)

"""Shared generators for the solver test batteries, and the test oracles
and fixtures that the library itself does not need.  Each fixture lives
here once, whichever test modules use it.

``SphereHead`` and ``OffsetModel`` put the sphere family on the generic
``constraints.ConstraintPool`` (a head of a model's outputs), which
``constraints.SpherePool`` does without: a ``ConstraintPool`` of the two
is the reference that ``SpherePool.linearize`` is checked against, and
``OffsetModel`` lets any head constrain w - x_k."""

from typing import Sequence

import numpy as np

from hardtrain import autodiff as ad
from hardtrain import constraints as cs
from hardtrain.linops import LinearOperator, apply, as_vector

MATERIALIZE_CAP = 2048


def signed_spectrum(rng, n, cond):
    """Signed eigenvalue magnitudes spanning [1/cond, 1].

    Above cond 1e2 the magnitudes are drawn from a few log-spaced levels:
    finite-precision Lanczos on a filled indefinite spectrum needs O(cond)
    iterations, while clustered spectra keep the exact-arithmetic iteration
    counts, which is also how the saddle-point systems this library builds
    actually look (damping block plus a low-rank constraint border).
    """
    if cond > 1e2 and n > 3:
        mmax = 6 if cond > 1e8 else (8 if cond > 1e5 else 16)
        m = int(rng.integers(3, min(n, mmax) + 1))
        levels = np.exp(np.linspace(np.log(1.0 / cond), 0.0, m))
        mags = levels[rng.integers(0, m, n)]
    else:
        mags = np.exp(rng.uniform(np.log(1.0 / cond), 0.0, n))
    mags[0] = 1.0
    if n >= 2:
        mags[1] = 1.0 / cond
    return mags * rng.choice([-1.0, 1.0], n)


def random_symmetric_system(rng):
    """One conformance case: (B, b, x_star, cond, deficient).

    Sizes 2..200, condition numbers up to 1e10 (smaller and more clustered
    at the extreme end), ranks full and deficient, right-hand sides both
    consistent and inconsistent.  x_star is the pseudoinverse solution
    computed exactly from the eigenfactors.
    """
    n = int(rng.integers(2, 201))
    cond = 10.0 ** rng.uniform(0, 10)
    deficient = rng.random() < 0.3
    consistent = rng.random() < 0.5
    if cond > 2e9:
        # at the extreme end assemble a random diagonal system: rotating the
        # basis rounds matrix entries by eps * ||B||, which already perturbs
        # the true solution by ~ eps * cond -- more than the tolerance
        # being verified; a diagonal matrix keeps the oracle exact
        n = min(n, 60)
        levels = np.exp(np.linspace(np.log(1.0 / cond), 0.0, 3))
        mags = levels[rng.integers(0, 3, n)]
        mags[0] = 1.0
        mags[1] = 1.0 / cond
        lam = mags * rng.choice([-1.0, 1.0], n)
        B = np.diag(lam)
        b = rng.standard_normal(n)
        b /= np.linalg.norm(b)
        x_star = b / lam
        return B, b, x_star, cond, False
    if cond > 1e9:
        n = min(n, 40)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if cond > 1e9:
        levels = np.exp(np.linspace(np.log(1.0 / cond), 0.0, 3))
        mags = levels[rng.integers(0, 3, n)]
        mags[0] = 1.0
        mags[1] = 1.0 / cond
        lam = mags * rng.choice([-1.0, 1.0], n)
    elif deficient and n >= 3:
        # exact rank deficiency over a benign nonzero block, the shape
        # duplicated constraint rows produce
        lam = signed_spectrum(rng, n, min(cond, 1e4))
        k = int(rng.integers(1, max(2, n // 2 + 1)))
        idx = rng.choice(n, size=min(k, n - 2), replace=False)
        lam[idx] = 0.0
    else:
        lam = signed_spectrum(rng, n, cond)
    B = (q * lam) @ q.T
    B = (B + B.T) / 2
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    if consistent and (lam == 0).any():
        nz = lam != 0
        b = q[:, nz] @ (q[:, nz].T @ b)
        b /= max(np.linalg.norm(b), 1e-30)
    inv = np.where(lam != 0, 1.0 / np.where(lam == 0, 1.0, lam), 0.0)
    x_star = q @ (inv * (q.T @ b))
    deficient = bool((lam == 0).any())
    return B, b, x_star, cond, deficient


def stencil_crosses_kink(mlp, w, X, v, h=1e-5):
    """True when a ReLU flips sign inside the central-difference stencil;
    the function is not differentiable there and FD is no oracle."""
    mp = mlp.tape(w + h * v, X).masks
    mm = mlp.tape(w - h * v, X).masks
    return any(np.any(a != b) for a, b in zip(mp, mm))


def dense_random_mlp(rng, max_hidden=3, max_width=64, in_dim=None, out_dim=None):
    """Widths for a random small ReLU network."""
    din = in_dim or int(rng.integers(2, 9))
    dout = out_dim or int(rng.integers(1, 9))
    hidden = [int(rng.integers(2, max_width + 1)) for _ in range(int(rng.integers(0, max_hidden + 1)))]
    return [din] + hidden + [dout]


class ModelOutputs(ad.DiffFunction):
    """Stacked model outputs over a fixed input batch, flattened sample-major."""

    def __init__(self, model, X):
        self.model = model
        self.X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        self.n_params = model.n_params
        self.n_outputs = self.X.shape[0] * model.out_dim

    def value(self, w):
        return self.model.forward(w, self.X).ravel()

    def linearize(self, w):
        Y, jvp, vjp, _ = self.model.linearize(w, self.X)
        return (Y.ravel(), lambda v: jvp(v).ravel(),
                lambda u: vjp(u.reshape(Y.shape)))


def symmetry_residuals(pose):
    """Six signed length differences for one 17x3 pose (flat, length 51),
    one scalar distance at a time: the oracle of ``SymmetryHead``."""
    pose = np.asarray(pose, dtype=np.float64)
    if pose.shape != (51,):
        raise ValueError(f"pose must have 51 coordinates, got shape {pose.shape}")
    y = pose.reshape(17, 3)
    out = np.empty(6)
    for j, (a, b, c, d) in enumerate(cs.SYMMETRY_JOINTS):
        out[j] = np.linalg.norm(y[a] - y[b]) - np.linalg.norm(y[c] - y[d])
    return out


def hypersphere_residuals(w, centers, radius: float):
    """Residual i = ||w - c_i|| - radius."""
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    w = np.asarray(w, dtype=np.float64)
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    if centers.shape[1] != w.shape[0]:
        raise ValueError(f"center dim {centers.shape[1]} != w dim {w.shape[0]}")
    return np.linalg.norm(w[None, :] - centers, axis=1) - radius


class BoundHead:
    """Residuals y_i - cap_i per tracked output coordinate: a head of
    several constraints that each read one output coordinate."""

    def __init__(self, coords: Sequence[int], caps: Sequence[float]):
        self.coords = np.asarray(coords, dtype=int)
        self.caps = np.asarray(caps, dtype=np.float64)
        self.n_constraints = len(self.coords)

    def value(self, Y):
        return Y[:, self.coords] - self.caps

    def linearize(self, Y):
        def vjp(U):
            out = np.zeros_like(Y)
            out[:, self.coords] = U
            return out

        return self.value(Y), lambda dY: np.asarray(dY)[:, self.coords], vjp


class LinearHead:
    """Residuals C(y) = H y + c per sample."""

    def __init__(self, H, c=None):
        self.H = np.atleast_2d(np.asarray(H, dtype=float))
        self.c = np.zeros(self.H.shape[0]) if c is None else np.asarray(c, dtype=float)
        self.n_constraints = self.H.shape[0]

    def value(self, Y):
        return Y @ self.H.T + self.c

    def linearize(self, Y):
        return self.value(Y), lambda dY: np.asarray(dY) @ self.H.T, lambda U: U @ self.H


class SphereHead:
    """Residual ||y|| - radius per sample, from np.linalg.norm."""

    n_constraints = 1

    def __init__(self, radius: float):
        self.radius = radius

    def value(self, Y):
        return np.linalg.norm(Y, axis=1)[:, None] - self.radius

    def linearize(self, Y):
        norms = np.linalg.norm(Y, axis=1)[:, None]
        units = Y / norms
        return (norms - self.radius, lambda dY: np.einsum("nd,nd->n", units, dY)[:, None],
                lambda U: U[:, :1] * units)


class OffsetModel(ad.IdentityOffset):
    """w - x_k with the generic model linearization (outputs, jvp, vjp, gram)."""

    def linearize(self, w, X):
        """Every sample's output moves with w itself, so the gradient of
        <H[k], output k> is H[k] and the Gram matrix is H diag(d_inv) H^T."""
        Y = self.forward(w, X)
        return (Y, lambda v: np.broadcast_to(v, Y.shape),
                lambda U: np.atleast_2d(U).sum(axis=0),
                lambda c, H, d_inv: (H * d_inv) @ H.T)


class AnchorProblem:
    """Quadratic risk 0.5 ||w - x0||^2 under a given constraint pool,
    started at x0."""

    n_train = 0

    def __init__(self, x0, pool):
        self.x0 = np.asarray(x0, dtype=float)
        self.pool = pool

    def initial_params(self, rng):
        return self.x0.copy()

    def residual_function(self, idx):
        return anchor_residuals(self.x0)

    def prediction_error(self, w):
        return 0.0


class LinearMap(ad.DiffFunction):
    """f(w) = A w (+ optional shift)."""

    def __init__(self, A, shift=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        self.shift = np.zeros(self.A.shape[0]) if shift is None else as_vector(shift)
        self.n_params = self.A.shape[1]
        self.n_outputs = self.A.shape[0]

    def value(self, w):
        return self.A @ w + self.shift

    def linearize(self, w):
        return self.value(w), lambda v: self.A @ v, lambda u: u @ self.A


def anchor_residuals(x0) -> LinearMap:
    """r(w) = (w - x0) / sqrt(2), whose squared norm is 0.5 ||w - x0||^2."""
    x0 = as_vector(x0)
    return LinearMap(np.eye(len(x0)) / np.sqrt(2.0), -x0 / np.sqrt(2.0))


def risk(f, w) -> float:
    """||r(w)||^2, the risk of a residual function."""
    r = ad.value(f, w)
    return float(r @ r)


def risk_gradient(f, w):
    """2 J^T r, the gradient of ||r||^2, from one linearization at w."""
    lin = ad.linearize(f, w)
    return lin.vjp(2.0 * lin.value)


def identity(dim: int) -> LinearOperator:
    return LinearOperator(dim, lambda v: v.copy())


def from_dense(a) -> LinearOperator:
    """Wrap a dense symmetric matrix as an implicit operator."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return LinearOperator(a.shape[0], lambda v: a @ v)


def materialize(op: LinearOperator, cap: int = MATERIALIZE_CAP) -> np.ndarray:
    """Assemble the dense matrix column by column.

    Refuses operators above ``cap`` to keep accidental O(n^2) blowups out
    of the test batteries.
    """
    if op.dim > cap:
        raise ValueError(f"refusing to materialize operator of dim {op.dim} (cap {cap})")
    cols = np.empty((op.dim, op.dim))
    e = np.zeros(op.dim)
    for i in range(op.dim):
        e[i] = 1.0
        cols[:, i] = apply(op, e)
        e[i] = 0.0
    return cols


def symmetry_defect(op: LinearOperator, n_probes: int = 100, seed: int = 0) -> float:
    """Max of |<u,Bv> - <Bu,v>| / (||u|| ||v|| est||B||) over random probes.

    The operator norm estimate is the largest ||B w||/||w|| seen across the
    probes (floored at 1 so a zero operator does not divide by zero).
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    bnorm = 1.0
    for _ in range(n_probes):
        u = rng.standard_normal(op.dim)
        v = rng.standard_normal(op.dim)
        bu = apply(op, u)
        bv = apply(op, v)
        bnorm = max(bnorm, np.linalg.norm(bu) / np.linalg.norm(u),
                    np.linalg.norm(bv) / np.linalg.norm(v))
        defect = abs(u @ bv - bu @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        worst = max(worst, defect)
    return worst / bnorm

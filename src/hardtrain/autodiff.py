"""Differentiation over flat parameter vectors.

Provides exactly what the saddle-point matvecs need: a function's
linearization at one parameter vector -- its value together with the
Jacobian-times-vector (``jvp``) and vector-times-Jacobian (``vjp``)
products there -- for functions built from affine layers, ReLUs and a few
fixed heads.  Everything that depends only on the parameters (the MLP
tape, a head's unit vectors) is computed once by ``linearize`` and held by
the two closures, so a step's many products reuse it.  ``jvp`` propagates
tangents forward through the tape; ``vjp`` runs a reverse sweep over it.
A training objective is a residual vector r whose squared norm is the
risk (:class:`ScaledResiduals`), so the risk gradient ``2 J^T r`` is one
``vjp``.  Parameters always live in a single flat float64 vector; each
model keeps a layout registry mapping layers to slices of it.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .linops import Vector, as_vector, check_length

# ---------------------------------------------------------------------------
# Batched parametric models: y_k = f(x_k; w) for a fixed batch of inputs.
# ---------------------------------------------------------------------------


@dataclass
class MlpTape:
    """One forward pass's linearization state: the parameter views it ran
    with, and the activations and ReLU masks it recorded."""

    layers: list      # layers[l]: (W, b) views of the taped parameters
    acts: list        # acts[l]: input to layer l, shape (n, width_l)
    masks: list       # masks[l]: ReLU mask after layer l (hidden layers only)
    out: np.ndarray   # final output, shape (n, out_dim)


class Mlp:
    """Fully-connected ReLU network over a flat parameter vector.

    ``widths = (d_in, h_1, ..., d_out)``; ReLU sits between affine layers,
    the last layer is linear.  Layer l holds a weight block of shape
    (widths[l+1], widths[l]) followed by its bias, so the parameter count
    is sum over layers of (in+1)*out.
    """

    def __init__(self, widths: Sequence[int]):
        widths = tuple(int(x) for x in widths)
        if len(widths) < 2 or any(x < 1 for x in widths):
            raise ValueError(f"need at least two positive widths, got {widths}")
        self.widths = widths
        self.in_dim = widths[0]
        self.out_dim = widths[-1]
        # layout registry: per layer (weight slice, weight shape, bias slice)
        self.layout = []
        off = 0
        for din, dout in zip(widths[:-1], widths[1:]):
            w_sl = slice(off, off + din * dout)
            off += din * dout
            b_sl = slice(off, off + dout)
            off += dout
            self.layout.append((w_sl, (dout, din), b_sl))
        self.n_params = off

    @property
    def n_layers(self) -> int:
        return len(self.layout)

    def layout_hash(self) -> int:
        return zlib.crc32(("mlp:" + ",".join(map(str, self.widths))).encode())

    def unpack(self, w: Vector):
        """Views of the per-layer (W, b) blocks; no copies."""
        check_length(w, self.n_params, "params")
        return [(w[w_sl].reshape(shape), w[b_sl]) for w_sl, shape, b_sl in self.layout]

    def init_params(self, rng: np.random.Generator) -> Vector:
        """He-style initialization; biases start at zero."""
        w = np.zeros(self.n_params)
        for (w_sl, shape, _), width in zip(self.layout, self.widths[:-1]):
            w[w_sl] = rng.standard_normal(shape[0] * shape[1]) * np.sqrt(2.0 / width)
        return w

    def forward(self, w: Vector, X: np.ndarray) -> np.ndarray:
        """Outputs of the batch X; records nothing for differentiation."""
        return self._layers(self.unpack(w), X, None)

    def tape(self, w: Vector, X: np.ndarray) -> MlpTape:
        tape = MlpTape(self.unpack(w), [], [], None)
        tape.out = self._layers(tape.layers, X, tape)
        return tape

    def _layers(self, layers: list, X: np.ndarray, tape: MlpTape | None) -> np.ndarray:
        """The forward pass: each layer's bias add and ReLU run in place on
        its GEMM output; inputs and masks are appended to ``tape`` if given."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.in_dim:
            raise ValueError(f"input width {X.shape[1]} != {self.in_dim}")
        a = X
        for l, (W, b) in enumerate(layers):
            if tape is not None:
                tape.acts.append(a)
            z = a @ W.T
            z += b
            if l < self.n_layers - 1:
                mask = z > 0.0          # subgradient 0 at the ReLU kink
                z *= mask
                if tape is not None:
                    tape.masks.append(mask)
            a = z
        return a

    def linearize(self, w: Vector, X: np.ndarray):
        """(outputs, jvp, vjp, gram) over one tape of the batch X; the
        tape holds all the state the three products read."""
        tape = self.tape(w, X)
        return (tape.out, lambda v: self.jvp(v, tape), lambda U: self.vjp(U, tape),
                lambda c, H, d_inv: self.gram(c, H, d_inv, tape))

    def jvp(self, v: Vector, tape: MlpTape) -> np.ndarray:
        """Directional derivative of the taped batch's output along parameter tangent v.

        The inputs are fixed data, so layer 0 has no tangent-input term.
        """
        check_length(v, self.n_params, "tangent")
        da = None
        for l, ((W, _), (dW, db)) in enumerate(zip(tape.layers, self.unpack(v))):
            dz = tape.acts[l] @ dW.T
            if da is not None:
                dz += da @ W.T
            dz += db
            if l < self.n_layers - 1:
                dz *= tape.masks[l]
            da = dz
        return da

    def vjp(self, U: np.ndarray, tape: MlpTape) -> Vector:
        """Adjoint product: flat parameter gradient of <U, output> over the taped batch.

        Each layer's gradient is written straight into its slice of the
        flat result.
        """
        g = np.atleast_2d(np.asarray(U, dtype=np.float64))
        grad = np.empty(self.n_params)
        for l in range(self.n_layers - 1, -1, -1):
            w_sl, shape, b_sl = self.layout[l]
            np.matmul(g.T, tape.acts[l], out=grad[w_sl].reshape(shape))
            np.sum(g, axis=0, out=grad[b_sl])
            if l > 0:
                g = g @ tape.layers[l][0]
                g *= tape.masks[l - 1]
        return grad

    def gram(self, c: int, H: np.ndarray, d_inv, tape: MlpTape) -> np.ndarray:
        """G diag(d_inv) G^T, where row i of G is the parameter gradient of
        <H[i], output of taped sample i // c>: each taped sample owns c
        consecutive rows, the sample-major stacking of its constraints.

        The m rows of H are backpropagated together: at layer l, Delta_l
        holds each row's output cotangent and A_l its sample's layer input,
        and G's layer-l block of row i is the outer product
        Delta_l[i] A_l[i]^T plus the bias part Delta_l[i].  G is never
        formed.  For a scalar d_inv the Gram matrix is
        d_inv * sum_l (Delta_l Delta_l^T) * (A_l A_l^T + 1), elementwise.
        A vector d_inv weights layer l's weights by D_l (out x in) and its
        bias by d_b, so rows of samples a and b meet through
        M_a[b] = (A_a * A_b) D_l^T + d_b: the c rows of each sample a get
        Delta[rows of a] (Delta * M_a[sample of each row])^T.
        """
        scalar = np.ndim(d_inv) == 0
        g = np.atleast_2d(np.asarray(H, dtype=np.float64))
        m = g.shape[0]
        S = np.zeros((m, m))
        for l in range(self.n_layers - 1, -1, -1):
            if scalar:
                A = np.repeat(tape.acts[l], c, axis=0)
                S += (g @ g.T) * (A @ A.T + 1.0)
            else:
                w_sl, shape, b_sl = self.layout[l]
                A = tape.acts[l]
                D_t = d_inv[w_sl].reshape(shape).T
                for a in range(len(A)):
                    M = (A[a] * A) @ D_t
                    M += d_inv[b_sl]
                    K = slice(a * c, (a + 1) * c)
                    S[K] += g[K] @ (g * np.repeat(M, c, axis=0)).T
            if l > 0:
                g = (g @ tape.layers[l][0]) * np.repeat(tape.masks[l - 1], c, axis=0)
        return d_inv * S if scalar else S


class IdentityOffset:
    """Trivial model y_k = w - x_k, through which a head of the outputs
    constrains the parameters themselves; it has no ``linearize``."""

    def __init__(self, dim: int):
        self.n_params = dim
        self.out_dim = dim

    def forward(self, w: Vector, X: np.ndarray) -> np.ndarray:
        """w - x_k for every row of X."""
        return w - np.atleast_2d(X)


# ---------------------------------------------------------------------------
# DiffFunction: a vector-valued map of the flat parameters with exact
# forward and adjoint directional products at a linearization point.
# ---------------------------------------------------------------------------


class Linearization(NamedTuple):
    """A function at one parameter vector w: f(w), v -> J v, u -> u^T J.

    ``gram``, when the function supplies it, maps ``d_inv`` (a float or a
    vector over the parameters) to the m x m matrix J diag(d_inv) J^T,
    built without forming J; it is None otherwise.
    """

    value: Vector
    jvp: Callable[[Vector], Vector]
    vjp: Callable[[Vector], Vector]
    gram: Callable[[float | Vector], np.ndarray] | None = None


class DiffFunction:
    """Interface: linearize(w) -> (value, jvp, vjp[, gram]), and value(w).

    The closures ``linearize`` returns hold whatever depends only on w, so
    they cost one product each however often they are called.  The
    optional ``gram`` closure gives J diag(d_inv) J^T.  ``value`` is for
    callers that need the value alone, the training objectives; a function
    that is only linearized, such as a stack of constraint rows, need not
    define it.
    """

    n_params: int
    n_outputs: int

    def value(self, w: Vector) -> Vector:
        raise NotImplementedError

    def linearize(self, w: Vector):
        raise NotImplementedError


def value(f: DiffFunction, w: Vector) -> Vector:
    w = as_vector(w, "params")
    check_length(w, f.n_params, "params")
    out = np.atleast_1d(np.asarray(f.value(w), dtype=np.float64))
    check_length(out, f.n_outputs, "output")
    return out


def linearize(f: DiffFunction, w: Vector) -> Linearization:
    """Linearize f at w, validating w once; the returned closures check
    only their operand's length."""
    w = as_vector(w, "params")
    check_length(w, f.n_params, "params")
    y, f_jvp, f_vjp, *f_gram = f.linearize(w)
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    check_length(y, f.n_outputs, "output")

    def jvp(v: Vector) -> Vector:
        check_length(v, f.n_params, "direction")
        return np.atleast_1d(np.asarray(f_jvp(v), dtype=np.float64))

    def vjp(u: Vector) -> Vector:
        check_length(u, f.n_outputs, "adjoint")
        return np.asarray(f_vjp(u), dtype=np.float64)

    def gram(d_inv) -> np.ndarray:
        if np.ndim(d_inv):
            check_length(np.asarray(d_inv), f.n_params, "gram weights")
        return np.asarray(f_gram[0](d_inv), dtype=np.float64)

    return Linearization(y, jvp, vjp, gram if f_gram else None)


class ScaledResiduals(DiffFunction):
    """Flattened prediction residuals over a labeled batch, scaled so that
    ||r||^2 is the mean squared coordinate error, the batch risk."""

    def __init__(self, model, X, Y):
        self.model = model
        self.X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        self.Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
        if self.Y.shape != (self.X.shape[0], model.out_dim):
            raise ValueError(f"label shape {self.Y.shape} does not match batch")
        self.n_params = model.n_params
        self.n_outputs = self.Y.size
        self.scale = 1.0 / np.sqrt(self.Y.size)

    def value(self, w):
        r = self.model.forward(w, self.X)
        r -= self.Y
        r *= self.scale
        return r.ravel()

    def linearize(self, w):
        pred, jvp, vjp, _ = self.model.linearize(w, self.X)
        return ((pred - self.Y).ravel() * self.scale,
                lambda v: jvp(v).ravel() * self.scale,
                lambda u: vjp(u.reshape(self.Y.shape) * self.scale))


# ---------------------------------------------------------------------------
# Flat-parameter checkpoints: little-endian float64 payload behind a small
# header of (magic, count, layout hash).
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"HTFLATW1"


def save_params(path, w: Vector, layout_hash: int = 0) -> None:
    w = as_vector(w, "params")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<QQ", w.shape[0], layout_hash & 0xFFFFFFFFFFFFFFFF))
        fh.write(w.astype("<f8").tobytes())


def load_params(path, expect_hash: int | None = None) -> Vector:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _CKPT_MAGIC:
            raise ValueError(f"not a parameter checkpoint: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated checkpoint")
        n, h = struct.unpack("<QQ", header)
        if expect_hash is not None and h != (expect_hash & 0xFFFFFFFFFFFFFFFF):
            raise ValueError(f"layout hash mismatch: file has {h:#x}, expected {expect_hash:#x}")
        payload = fh.read()
    if len(payload) != 8 * n:
        raise ValueError(f"checkpoint header counts {n} parameters ({8 * n} bytes), "
                         f"but {len(payload)} bytes follow it")
    data = np.frombuffer(payload, dtype="<f8")
    if not np.all(np.isfinite(data)):
        raise ValueError("checkpoint holds non-finite parameters")
    return data.astype(np.float64)

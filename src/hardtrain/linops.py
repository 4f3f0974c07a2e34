"""Flat float64 vectors and implicit symmetric linear operators.

Everything downstream (Krylov solvers, saddle-point assembly) works with
1-D float64 arrays and operators that expose nothing but a matvec.  Dense
matrices appear only in test oracles, via :func:`materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray

MATERIALIZE_CAP = 2048


class DimensionMismatch(ValueError):
    """Raised when vector/operator lengths disagree."""

    def __init__(self, expected: int, got: int, what: str = "vector") -> None:
        super().__init__(f"{what} length mismatch: expected {expected}, got {got}")
        self.expected = expected
        self.got = got


def as_vector(x, name: str = "vector") -> Vector:
    """Validate and return a finite 1-D float64 array (copies only if needed)."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def check_length(v: Vector, expected: int, what: str = "vector") -> None:
    if v.shape[0] != expected:
        raise DimensionMismatch(expected, v.shape[0], what)


@dataclass(frozen=True)
class LinearOperator:
    """Square operator of dimension ``dim`` known only through ``matvec``.

    The matvec must be deterministic for fixed captured state and, by
    contract, symmetric: <u, Bv> == <Bu, v> up to roundoff.  Symmetry is
    not checked here; tests probe it with :func:`symmetry_defect`.
    """

    dim: int
    matvec: Callable[[Vector], Vector]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"operator dim must be positive, got {self.dim}")

    def __call__(self, v: Vector) -> Vector:
        return apply(self, v)


def apply(op: LinearOperator, v: Vector) -> Vector:
    """Return ``op.matvec(v)`` after validating the length; ``v`` is not mutated."""
    v = np.asarray(v, dtype=np.float64)
    check_length(v, op.dim, "operand")
    out = np.asarray(op.matvec(v), dtype=np.float64)
    check_length(out, op.dim, "matvec result")
    return out


def identity(dim: int) -> LinearOperator:
    return LinearOperator(dim, lambda v: v.copy())


def from_dense(a) -> LinearOperator:
    """Wrap a dense symmetric matrix as an implicit operator."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return LinearOperator(a.shape[0], lambda v: a @ v)


def materialize(op: LinearOperator, cap: int = MATERIALIZE_CAP) -> np.ndarray:
    """Assemble the dense matrix column by column.  Test oracle only.

    Refuses operators above ``cap`` to keep accidental O(n^2) blowups out
    of library code paths.
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

"""Flat float64 vectors and implicit symmetric linear operators.

Everything downstream (Krylov solvers, saddle-point assembly) works with
1-D float64 arrays and operators that expose nothing but a matvec; no
dense matrix enters or leaves the library (the tests wrap and assemble
dense matrices for their oracles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray


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
    not checked here; the tests probe it.
    """

    dim: int
    matvec: Callable[[Vector], Vector]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"operator dim must be positive, got {self.dim}")


def apply(op: LinearOperator, v: Vector) -> Vector:
    """Return ``op.matvec(v)`` after validating the length; ``v`` is not mutated."""
    v = np.asarray(v, dtype=np.float64)
    check_length(v, op.dim, "operand")
    out = np.asarray(op.matvec(v), dtype=np.float64)
    check_length(out, op.dim, "matvec result")
    return out

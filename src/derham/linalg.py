"""Exact linear algebra over Fraction entries.

Matrices are 2-d numpy arrays with ``dtype=object`` holding
:class:`fractions.Fraction` values, so every solve, inverse and rank
computation below is exact.  The matrices in this package are tiny
(order 20 at most), hence one Gauss-Jordan loop with first-nonzero
pivoting serves solve, invert and rank.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def frac_array(rows) -> np.ndarray:
    """Build an object array of Fractions from nested int/Fraction data."""
    arr = np.array([[Fraction(entry) for entry in row] for row in rows], dtype=object)
    return arr


def identity(n: int) -> np.ndarray:
    out = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        out[i, i] = Fraction(1)
    return out


def zeros(shape) -> np.ndarray:
    return np.full(shape, Fraction(0), dtype=object)


def _eliminate(a: np.ndarray, cols: int) -> int:
    """Gauss-Jordan elimination, in place, on the leading ``cols`` columns
    of ``a``, pivoting on first nonzero entries; returns the pivot count."""
    rows, r = a.shape[0], 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if a[i, col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * (Fraction(1) / Fraction(a[r, col]))
        for i in range(rows):
            if i != r and a[i, col] != 0:
                a[i] = a[i] - a[i, col] * a[r]
        r += 1
    return r


def solve(matrix: np.ndarray, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` exactly.

    ``rhs`` may be a vector or a matrix of compatible shape.  Raises
    ``ZeroDivisionError`` if the matrix is singular.
    """
    n = np.shape(matrix)[0]
    if np.shape(matrix) != (n, n):
        raise ValueError(f"matrix must be square, got {np.shape(matrix)}")
    b = np.array(rhs, dtype=object)
    augmented = np.hstack([np.asarray(matrix, dtype=object),
                           b[:, None] if b.ndim == 1 else b])
    if _eliminate(augmented, n) < n:
        raise ZeroDivisionError("matrix is singular")
    return augmented[:, n] if b.ndim == 1 else augmented[:, n:]


def invert(matrix: np.ndarray) -> np.ndarray:
    return solve(matrix, identity(matrix.shape[0]))


def rank(matrix: np.ndarray) -> int:
    """Exact rank by row reduction."""
    a = np.array(matrix, dtype=object)
    return _eliminate(a, a.shape[1]) if a.size else 0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Kronecker product of two object-array matrices."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = a[i, j] * b
    return out


def integer_form(values) -> tuple[np.ndarray, int]:
    """Rational array as (Python-int numerators, common denominator)."""
    a = np.asarray(values, dtype=object)
    den = math.lcm(*(x.denominator for x in a.flat))
    return np.frompyfunc(lambda x: x.numerator * (den // x.denominator),
                         1, 1)(a), den


def to_float(matrix: np.ndarray) -> np.ndarray:
    return np.array(matrix, dtype=float)

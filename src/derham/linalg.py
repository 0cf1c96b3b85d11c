"""Exact linear algebra over Fraction entries.

Matrices are 2-d numpy arrays with ``dtype=object`` holding
:class:`fractions.Fraction` values, so every solve, inverse and rank
computation below is exact.  The matrices in this package are tiny
(order 20 at most), hence plain Gaussian elimination with first-nonzero
pivoting is all we need.
"""

from __future__ import annotations

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


def solve(matrix: np.ndarray, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` exactly.

    ``rhs`` may be a vector or a matrix of compatible shape.  Raises
    ``ZeroDivisionError`` if the matrix is singular.
    """
    a = np.array(matrix, dtype=object)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    b = np.array(rhs, dtype=object)
    vector_input = b.ndim == 1
    if vector_input:
        b = b.reshape(n, 1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r, col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        inv = Fraction(1) / Fraction(a[col, col])
        a[col] = a[col] * inv
        b[col] = b[col] * inv
        for r in range(n):
            if r != col and a[r, col] != 0:
                factor = a[r, col]
                a[r] = a[r] - factor * a[col]
                b[r] = b[r] - factor * b[col]
    return b[:, 0] if vector_input else b


def invert(matrix: np.ndarray) -> np.ndarray:
    return solve(matrix, identity(matrix.shape[0]))


def rank(matrix: np.ndarray) -> int:
    """Exact rank by row reduction."""
    a = np.array(matrix, dtype=object)
    if a.size == 0:
        return 0
    rows, cols = a.shape
    r = 0
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
        if r == rows:
            break
    return r


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Kronecker product of two object-array matrices."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            out[i * rb:(i + 1) * rb, j * cb:(j + 1) * cb] = a[i, j] * b
    return out


def to_float(matrix: np.ndarray) -> np.ndarray:
    return np.array(matrix, dtype=float)

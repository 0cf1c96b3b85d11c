"""Exact linear algebra on rational matrices: entries are Python ints or
Fractions, in ``dtype=object`` arrays or nested lists, and any other
entry (a float, NaN, a bool, a numpy scalar) raises ``TypeError`` where
it enters.  Products, solve, invert and rank all run on Python-int rows;
the last three share one fraction-free (Bareiss) Gauss-Jordan loop.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_RATIONAL = {int, Fraction}


def _entries(values) -> list:
    """Flat list of the entries, each an int or a Fraction."""
    flat = np.asarray(values, dtype=object).ravel().tolist()
    if not _RATIONAL.issuperset(map(type, flat)):
        bad = next(x for x in flat if type(x) not in _RATIONAL)
        raise TypeError(f"entry {bad!r} is not an int or Fraction")
    return flat


def _scaled(entries: list) -> tuple[list[int], int]:
    """Entries times the lcm of their denominators, and that lcm."""
    pairs = [x.as_integer_ratio() for x in entries]
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _eliminate(rows: list[list[int]], cols: int) -> int:
    """Fraction-free (Bareiss) Gauss-Jordan elimination, in place, on the
    leading ``cols`` columns of integer rows with first-nonzero pivots;
    returns the pivot count.  Every other row becomes ``(p * row - row[col]
    * top) // prev``, an exact division by the previous pivot.  Columns
    left of ``col`` would only scale by p / prev and are not carried, so a
    full-rank square block ends as the last pivot times the reduced rows."""
    r, prev = 0, 1
    for col in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r][col:]
        p = top[0]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                row[col:] = [(p * x - f * y) // prev
                             for x, y in zip(row[col:], top)]
        prev, r = p, r + 1
    return r


def solve(matrix: np.ndarray, rhs) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` exactly; ``rhs`` is a vector or a matrix
    with as many rows as ``matrix``.  A singular matrix raises
    ``ZeroDivisionError``."""
    n = np.shape(matrix)[0]
    if np.shape(matrix) != (n, n):
        raise ValueError(f"matrix must be square, got {np.shape(matrix)}")
    b = np.asarray(rhs, dtype=object)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"rhs of shape {b.shape} does not fit a matrix of "
                         f"shape {(n, n)}")
    a, right, k = _entries(matrix), _entries(b), b.size // n if n else 0
    rows = [_scaled(a[i * n:(i + 1) * n] + right[i * k:(i + 1) * k])[0]
            for i in range(n)]
    if _eliminate(rows, n) < n:
        raise ZeroDivisionError("matrix is singular")
    last = rows[-1][n - 1] if n else 1
    return np.array([Fraction(x, last) for row in rows for x in row[n:]],
                    dtype=object).reshape(b.shape)


def invert(matrix: np.ndarray) -> np.ndarray:
    return solve(matrix, np.eye(np.shape(matrix)[0], dtype=int).astype(object))


def rank(matrix: np.ndarray) -> int:
    """Exact rank by fraction-free row reduction."""
    height, width = np.shape(matrix)
    flat = _entries(matrix)
    return _eliminate([_scaled(flat[i * width:(i + 1) * width])[0]
                       for i in range(height)], width)


def product(*factors) -> tuple[np.ndarray, int]:
    """Exact product of rational matrices and vectors as (Python-int
    numerators, denominator) in lowest terms; one factor gives its
    integer form.  Each factor is scaled to ints once."""
    nums, den = None, 1
    for factor in reversed(factors):
        scaled, scale = _scaled(_entries(factor))
        scaled = np.array(scaled, dtype=object).reshape(np.shape(factor))
        nums, den = scaled if nums is None else scaled @ nums, scale * den
    common = math.gcd(den, *np.ravel(nums).tolist())
    return nums // common, den // common


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Kronecker product of two object-array matrices."""
    return np.kron(a, b)

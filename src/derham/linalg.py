"""Exact linear algebra on rational matrices: :class:`Exact` pairs, or
``dtype=object`` arrays or nested lists of Python ints and Fractions;
any other entry (a float, NaN, a bool, a numpy scalar) raises
``TypeError`` where it enters.  Products, solve, invert and rank all run
on Python-int rows.  A lower-triangular ``Exact`` is inverted by forward
substitution, and has full rank when its diagonal is nonzero; solve,
every other rank and every other inverse share one fraction-free
(Bareiss) loop, and solve and invert return an ``Exact``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INT, _RATIONAL = {int}, {int, Fraction}


class Exact:
    """A rational vector or matrix as ``nums / den``: Python ints in an
    object array over one positive int, in lowest terms, so equal arrays
    are equal pairs.  Construction checks all of it; :meth:`trusted` and
    :meth:`reduced` build pairs that are valid by construction and skip
    the check."""

    __slots__ = ("nums", "den")  # unhashable: it defines __eq__

    def __init__(self, nums, den: int = 1):
        if isinstance(nums, np.ndarray) and nums.dtype != object:
            raise TypeError(f"nums is a {nums.dtype} array, not Python ints")
        self.nums, self.den = np.asarray(nums, dtype=object), den
        self.check()

    @classmethod
    def trusted(cls, nums: np.ndarray, den: int) -> "Exact":
        """The pair ``nums / den`` unchecked: its maker guarantees a
        vector or matrix of Python ints in an object array over a
        positive int, in lowest terms (``product`` returns such pairs)."""
        pair = object.__new__(cls)
        pair.nums, pair.den = nums, den
        return pair

    @classmethod
    def reduced(cls, nums, den: int) -> "Exact":
        """Python-int ``nums`` over a nonzero int ``den`` in lowest terms."""
        nums = np.asarray(nums, dtype=object)
        common = math.gcd(den, *nums.ravel().tolist()) * (-1 if den < 0 else 1)
        return cls.trusted(nums // common, den // common)

    def check(self, name: str = "", shape: tuple | None = None) -> None:
        """Raise ``TypeError`` or ``ValueError``, naming ``name`` (the field
        that holds the pair, if any) and the part at fault, unless the
        pair is what the class promises and has ``shape``, if given."""
        if self.nums.ndim not in (1, 2) or shape not in (None, self.shape):
            raise ValueError(f"{name or 'nums'} has shape {self.nums.shape}, "
                             f"expected {shape or 'a vector or matrix'}")
        prefix, flat = f"{name}: " if name else "", self.nums.ravel().tolist()
        if not _INT.issuperset(map(type, flat)):
            bad = next(x for x in flat if type(x) is not int)
            raise TypeError(f"{prefix}nums entry {bad!r} is not a Python int")
        if type(self.den) is not int or self.den <= 0:
            raise (ValueError if type(self.den) is int else TypeError)(
                f"{prefix}den {self.den!r} is not a positive Python int")
        if (common := math.gcd(self.den, *flat)) != 1:
            raise ValueError(f"{prefix}nums and den {self.den} share the "
                             f"factor {common}: not in lowest terms")

    @property
    def shape(self) -> tuple[int, ...]:  # np.shape reads it too
        return self.nums.shape

    def fractions(self) -> np.ndarray:
        """The entries as a Fraction object array."""
        return np.frompyfunc(Fraction, 2, 1)(self.nums, self.den)

    @property
    def flat(self):
        """The entries as Fractions in row-major order, like ndarray.flat."""
        return self.fractions().flat

    def __eq__(self, other) -> bool:  # never broadcast against an array
        return isinstance(other, Exact) and self.den == other.den \
            and np.array_equal(self.nums, other.nums)


def ratio_str(num: int, den: int, whole: bool = True) -> str:
    """``num / den`` (den > 0) in lowest terms, spelled as ``str(Fraction)``
    does, or always as "n/d" without ``whole``."""
    if not num:  # most table entries: no gcd to take
        return "0" if whole else "0/1"
    common = math.gcd(num, den)
    num, den = num // common, den // common
    return str(num) if whole and den == 1 else f"{num}/{den}"


def _entries(values) -> list:
    """Flat list of the entries, each an int or a Fraction."""
    flat = np.asarray(values, dtype=object).ravel().tolist()
    if not _RATIONAL.issuperset(map(type, flat)):
        bad = next(x for x in flat if type(x) not in _RATIONAL)
        raise TypeError(f"entry {bad!r} is not an int or Fraction")
    return flat


def _scaled(entries: list) -> tuple[list[int], int]:
    """Entries times the lcm of their denominators, and that lcm."""
    if _INT.issuperset(map(type, entries)):
        return entries, 1
    pairs = [x.as_integer_ratio() for x in entries]
    den = math.lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def integer_rows(rows, width: int) -> tuple[np.ndarray, int]:
    """Rows of ints and Fractions, each padded with zeros to ``width``,
    as (Python-int numerators, denominator): one pass of :func:`_scaled`
    over all of them, so in lowest terms."""
    nums, den = _scaled(_entries([x for row in rows
                                  for x in (*row, *[0] * (width - len(row)))]))
    return np.array(nums, dtype=object).reshape(len(rows), width), den


def _rows(matrix, right=None) -> list[list[int]]:
    """The rows of ``matrix`` (and of ``right`` beside them) scaled to
    coprime Python ints: rank and solutions stay, and the ints small."""
    if isinstance(matrix, Exact):  # nums x = den right
        rows, scale = matrix.nums.tolist(), matrix.den
    else:
        height, width = np.shape(matrix)
        flat, scale = _entries(matrix), 1
        rows = [flat[i * width:(i + 1) * width] for i in range(height)]
    if right is not None:
        rows = [row + [scale * x for x in _entries(extra)]
                for row, extra in zip(rows, right)]
    rows = [_scaled(row)[0] for row in rows]
    return [row if (g := math.gcd(*row)) <= 1 else [x // g for x in row]
            for row in rows]


def _eliminate(rows: list[list[int]], cols: int, back: bool) -> int:
    """Fraction-free (Bareiss) elimination, in place, on the leading
    ``cols`` columns of integer rows with first-nonzero pivots; returns
    the pivot count.  Each pivot clears the rows below it (and above it
    too with ``back``: Gauss-Jordan); a cleared row becomes ``(p * row -
    row[col] * top) // prev``, exact by Sylvester's identity even where
    columns are skipped.  Columns left of ``col`` are not carried, so a
    full-rank square block ends as the last pivot times I."""
    r, prev = 0, 1
    for col in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r][col:]
        p = top[0]
        for i in range(0 if back else r + 1, len(rows)):
            row = rows[i]
            f = row[col]
            if i != r and (f or p != prev):  # else the row stays as it is
                row[col:] = [(p * x - f * y) // prev
                             for x, y in zip(row[col:], top)]
        prev, r = p, r + 1
    return r


def solve(matrix, rhs) -> Exact:
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
    rows = _rows(matrix, b.reshape(n, -1) if n else None)
    if _eliminate(rows, n, back=True) < n:
        raise ZeroDivisionError("matrix is singular")
    last = rows[-1][n - 1] if n else 1
    return Exact.reduced(np.array([row[n:] for row in rows], dtype=object)
                         .reshape(b.shape), last)


def _lower_rows(matrix) -> list[list[int]] | None:
    """The numerator rows of ``matrix`` if it is a square lower-triangular
    ``Exact``, else None."""
    if isinstance(matrix, Exact) and matrix.shape == (len(matrix.nums),) * 2:
        rows = matrix.nums.tolist()
        if not any(any(row[i + 1:]) for i, row in enumerate(rows)):
            return rows
    return None


def invert(matrix) -> Exact:
    """The exact inverse of a square matrix; a singular one raises
    ``ZeroDivisionError``.  A lower-triangular ``Exact`` is forward
    substituted, anything else goes through solve's Bareiss loop."""
    if (rows := _lower_rows(matrix)) is not None:
        return _forward_inverse(rows, matrix.den)
    n = np.shape(matrix)[0]
    return solve(matrix, np.eye(n, dtype=int).astype(object))


def _forward_inverse(rows: list[list[int]], scale: int) -> Exact:
    """(L / scale)^-1 for the lower-triangular integer rows L: row i of
    L^-1 is (e_i - sum_{j<i} L_ij x_j) / L_ii, held as ints over its own
    denominator, L_ii times the lcm of those of the rows x_j it reads."""
    inverse, dens = [], []
    for i, row in enumerate(rows):
        den = math.lcm(*[dens[j] for j in range(i) if row[j]])
        out = [0] * i + [den]
        for j in range(i):
            if row[j]:
                f = row[j] * (den // dens[j])
                out[:j + 1] = [x - f * y for x, y in zip(out, inverse[j])]
        den *= row[i]
        if not den:
            raise ZeroDivisionError("matrix is singular")
        common = math.gcd(den, *out) * (-1 if den < 0 else 1)
        inverse.append([x // common for x in out])
        dens.append(den // common)
    n, den = len(rows), math.lcm(*dens)
    nums = [[x * (den // d * scale) for x in row] + [0] * (n - len(row))
            for row, d in zip(inverse, dens)]
    return Exact.reduced(np.array(nums, dtype=object).reshape(n, n), den)


def rank(matrix) -> int:
    """Exact rank by forward fraction-free row reduction, which a square
    lower-triangular ``Exact`` with a nonzero diagonal skips."""
    rows = _lower_rows(matrix)
    if rows is not None and all(row[i] for i, row in enumerate(rows)):
        return len(rows)
    return _eliminate(_rows(matrix), np.shape(matrix)[1], back=False)


def product(*factors) -> tuple[np.ndarray, int]:
    """Exact product of rational matrices and vectors as (Python-int
    numerators, denominator) in lowest terms; one factor gives its
    integer form.  An ``Exact`` factor is used as it is; any other is
    scaled to ints once."""
    nums, den = None, 1
    for factor in reversed(factors):
        if isinstance(factor, Exact):
            scaled, scale = factor.nums, factor.den
        else:
            scaled, scale = _scaled(_entries(factor))
            scaled = np.array(scaled, dtype=object).reshape(np.shape(factor))
        nums, den = scaled if nums is None else scaled @ nums, scale * den
    common = math.gcd(den, *np.ravel(nums).tolist())
    return nums // common, den // common


def kron(a, b):
    """Exact Kronecker product of two object arrays."""
    return np.kron(a, b)

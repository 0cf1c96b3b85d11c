"""Exact univariate polynomial algebra on the reference interval [0, 1].

Coefficients are :class:`fractions.Fraction` values indexed by monomial
power, so all ring operations, derivatives and definite integrals are
exact.  On top of the plain algebra this module provides the special
families everything else is built from, each a cached view of an int
column made from its closed form (``legendre_column``, ``hermite_column``):

* shifted Legendre polynomials ``legendre(j)``, orthogonal in L2(0, 1) and
  normalized by ``l_j(1) = 1``,
* their iterated antiderivatives ``integrated_legendre(alpha, j)``,
* the two-point Hermite interpolation basis ``hermite_basis(m, a, beta)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import comb, factorial, gcd, perm

from . import linalg

__all__ = ["Polynomial", "legendre", "integrated_legendre",
           "legendre_expansion", "hermite_basis"]


_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("exact coefficients required, got float; use Fraction or int")
    return Fraction(value)


class Polynomial:
    """Immutable polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of ``x**k``; trailing zeros are
    stripped, so the zero polynomial has an empty coefficient tuple and
    ``degree == -1`` (standing in for the conventional minus infinity).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients=()):
        coeffs = [_as_fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def monomial(power: int, coeff=1) -> "Polynomial":
        if power < 0:
            raise ValueError("power must be nonnegative")
        p = Polynomial((coeff,))
        if p.coeffs:  # one shared zero pads it
            object.__setattr__(p, "coeffs", (_ZERO,) * power + p.coeffs)
        return p

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        terms = [f"{c}*x^{k}" if k > 1 else f"{c}*x" if k else str(c)
                 for k, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + (" + ".join(terms) or "0") + ")"

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial(a + b for a, b in
                          zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.coeffs or not other.coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        scalar = _as_fraction(other)
        return Polynomial(tuple(c * scalar for c in self.coeffs))

    __rmul__ = __mul__

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(Fraction(k * c.numerator, c.denominator) if c
                           else c for k, c in enumerate(coeffs[1:], 1))
        return Polynomial(coeffs)

    def integral01(self) -> Fraction:
        """Exact definite integral over [0, 1]."""
        return sum((c / (k + 1) for k, c in enumerate(self.coeffs)), Fraction(0))

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments, float for float."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative_value(self, order: int, x):
        return self.derivative(order)(x)


def coefficients(polys, width: int | None = None) -> linalg.Exact:
    """Monomial coefficients of ``polys``, one column each of ``width``
    rows (default: the longest's), as ints over the lcm of their
    denominators (:func:`linalg.integer_rows`), so in lowest terms; a
    polynomial longer than ``width`` raises ``ValueError``."""
    rows = [p.coeffs for p in polys]
    if width is None:
        width = max(map(len, rows), default=0)
    for j, row in enumerate(rows):
        if len(row) > width:
            raise ValueError(f"column {j} has degree {len(row) - 1}, "
                             f"too high for width {width}")
    nums, den = linalg.integer_rows(rows, width)
    return linalg.Exact.trusted(nums.T, den)


def from_column(nums, den: int) -> Polynomial:
    """The polynomial with monomial coefficients ``nums`` over ``den``."""
    return Polynomial([Fraction(x, den) for x in nums])


def _lowest(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


@lru_cache(maxsize=None, typed=True)
def legendre_column(alpha: int, j: int) -> tuple[tuple[int, ...], int]:
    """L^alpha_j as (int monomial coefficients, denominator) in lowest
    terms.  l_j(x) = sum_k (-1)^(j+k) C(j,k) C(j+k,k) x^k, so x^(k+alpha)
    has that coefficient times k!/(k+alpha)!, an int over (j+alpha)!;
    the normalization d^alpha L^alpha_j(1) = l_j(1) = 1 is re-checked."""
    if type(alpha) is not int or type(j) is not int:  # bools too
        raise TypeError(f"alpha {alpha!r} or j {j!r} is not an int")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if j < 0:
        raise ValueError("Legendre index must be nonnegative")
    den = factorial(j + alpha)
    nums = [0] * alpha + [(-1) ** (j + k) * comb(j, k) * comb(j + k, k)
                          * (den // perm(k + alpha, alpha))
                          for k in range(j + 1)]
    if sum(perm(k, alpha) * c for k, c in enumerate(nums)) != den:
        raise ArithmeticError("Legendre normalization l_j(1) = 1 violated")
    return _lowest(nums, den)


@lru_cache(maxsize=None, typed=True)
def legendre(j: int) -> Polynomial:
    """Shifted Legendre polynomial l_j of degree j on [0, 1], with
    l_j(1) = 1: the view of ``legendre_column(0, j)``."""
    return from_column(*legendre_column(0, j))


@lru_cache(maxsize=None, typed=True)
def integrated_legendre(alpha: int, j: int) -> Polynomial:
    """L^alpha_j, the alpha-fold antiderivative of l_j with an alpha-fold
    root at x = 0: the view of ``legendre_column(alpha, j)``."""
    return from_column(*legendre_column(alpha, j))


def legendre_expansion(p: Polynomial) -> list[Fraction]:
    """Coefficients c with p = sum_i c[i] * legendre(i), exactly: by
    orthogonality, int_0^1 l_i^2 = 1/(2i+1), so c_i = (2i+1) int p l_i."""
    if p.is_zero():
        return []
    return [(2 * i + 1) * (p * legendre(i)).integral01()
            for i in range(p.degree + 1)]


@lru_cache(maxsize=None, typed=True)
def hermite_column(m: int, endpoint: int,
                   beta: int) -> tuple[tuple[int, ...], int]:
    """Two-point Hermite basis function h_{endpoint, beta} (d^g h(endpoint)
    = delta(g, beta) and d^g h(1 - endpoint) = 0 for g <= m) as (int
    monomial coefficients, denominator) in lowest terms: h_{0,b}(x) = x^b/b!
    (1-x)^(m+1) sum_{j<=m-b} C(m+j, j) x^j, the sum cutting (1-x)^-(m+1)
    after x^(m-b), and h_{1,b}(x) = (-1)^b h_{0,b}(1-x).  It fills 2m+2
    slots, so its degree is at most 2m+1 by construction.  The conditions
    are re-checked on the ints, apart from the formula (d^g h(0) = g! c_g,
    d^g h(1) = sum_k perm(k, g) c_k); a violation raises ArithmeticError."""
    if not all(type(x) is int for x in (m, endpoint, beta)):  # bools too
        raise TypeError(f"m, endpoint or beta in {(m, endpoint, beta)} "
                        "is not an int")
    if endpoint not in (0, 1):
        raise ValueError("endpoint must be 0 or 1")
    if not 0 <= beta <= m:
        raise ValueError(f"beta must lie in 0..{m}")
    nums = [0] * (2 * m + 2)
    for i in range(m + 2):
        for j in range(m - beta + 1):
            nums[beta + i + j] += (-1) ** i * comb(m + 1, i) * comb(m + j, j)
    if endpoint:  # the Taylor shift x -> 1 - x, times (-1)^beta
        nums = [(-1) ** (i + beta) * sum(comb(k, i) * c for k, c in
                                         enumerate(nums))
                for i in range(2 * m + 2)]
    nums, den = _lowest(nums, factorial(beta))
    for g in range(m + 1):
        at = (factorial(g) * nums[g],
              sum(perm(k, g) * c for k, c in enumerate(nums)))
        if at[endpoint] != den * (g == beta) or at[1 - endpoint]:
            raise ArithmeticError("Hermite basis postcondition violated")
    return nums, den


@lru_cache(maxsize=None, typed=True)
def hermite_basis(m: int, endpoint: int, beta: int) -> Polynomial:
    """Two-point Hermite basis polynomial h_{endpoint, beta} of degree
    2m+1: the view of ``hermite_column(m, endpoint, beta)``."""
    return from_column(*hermite_column(m, endpoint, beta))

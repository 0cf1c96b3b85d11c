"""Exact univariate polynomial algebra on the reference interval [0, 1].

Coefficients are :class:`fractions.Fraction` values indexed by monomial
power, so all ring operations, derivatives, antiderivatives and definite
integrals are exact.  On top of the plain algebra this module provides the
special families everything else is built from:

* shifted Legendre polynomials ``legendre(j)``, orthogonal in L2(0, 1) and
  normalized by ``l_j(1) = 1``,
* their iterated antiderivatives ``integrated_legendre(alpha, j)``,
* the two-point Hermite interpolation basis ``hermite_basis(m, a, beta)``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg

__all__ = [
    "Polynomial",
    "legendre",
    "integrated_legendre",
    "legendre_expansion",
    "hermite_basis",
]


def _as_fraction(value) -> Fraction:
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

    # -- constructors ----------------------------------------------------

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
        return Polynomial((0,) * power + (coeff,))

    # -- basic protocol ---------------------------------------------------

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
        if not self.coeffs:
            return "Polynomial(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{k}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

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

    # -- calculus ---------------------------------------------------------

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = self.coeffs
        for _ in range(order):
            coeffs = tuple(k * c for k, c in enumerate(coeffs))[1:]
        return Polynomial(coeffs)

    def antiderivative(self) -> "Polynomial":
        """The antiderivative vanishing at x = 0."""
        return Polynomial((Fraction(0),) + tuple(
            c / (k + 1) for k, c in enumerate(self.coeffs)))

    def integral01(self) -> Fraction:
        """Exact definite integral over [0, 1]."""
        return sum((c / (k + 1) for k, c in enumerate(self.coeffs)), Fraction(0))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int arguments, float for float."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative_value(self, order: int, x):
        return self.derivative(order)(x)

    def float_coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs], dtype=float) \
            if self.coeffs else np.zeros(1)


@lru_cache(maxsize=None)
def legendre(j: int) -> Polynomial:
    """Shifted Legendre polynomial of degree j on [0, 1].

    Three-term recurrence for the family orthogonal w.r.t. Lebesgue
    measure on [0, 1]; the recurrence already yields l_j(1) = 1, which is
    the normalization used throughout.
    """
    if j < 0:
        raise ValueError("Legendre index must be nonnegative")
    if j == 0:
        return Polynomial.one()
    if j == 1:
        return Polynomial((-1, 2))
    two_x_minus_1 = Polynomial((-1, 2))
    p_prev, p = legendre(j - 2), legendre(j - 1)
    k = j - 1
    return (Fraction(2 * k + 1, k + 1) * (two_x_minus_1 * p)
            - Fraction(k, k + 1) * p_prev)


@lru_cache(maxsize=None)
def integrated_legendre(alpha: int, j: int) -> Polynomial:
    """alpha-fold iterated antiderivative L^alpha_j of legendre(j).

    L^0_j = l_j and L^{alpha+1}_j(x) = int_0^x L^alpha_j; the result has
    degree j + alpha and an alpha-fold root at x = 0.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if alpha == 0:
        return legendre(j)
    return integrated_legendre(alpha - 1, j).antiderivative()


def legendre_expansion(p: Polynomial) -> list[Fraction]:
    """Coefficients c with p = sum_i c[i] * legendre(i), computed exactly.

    Uses orthogonality: int_0^1 l_i^2 = 1/(2i+1), so c_i = (2i+1) int p l_i.
    """
    if p.is_zero():
        return []
    return [(2 * i + 1) * (p * legendre(i)).integral01()
            for i in range(p.degree + 1)]


@lru_cache(maxsize=None)
def hermite_basis(m: int, endpoint: int, beta: int) -> Polynomial:
    """Two-point Hermite basis polynomial h_{endpoint, beta} of degree 2m+1.

    Defined by d^g h(endpoint) = delta(g, beta) and d^g h(1 - endpoint) = 0
    for g = 0..m.  Hermite interpolation is unisolvent, so the defining
    system always has a unique solution; the postconditions are re-checked
    and a violation raises ArithmeticError.
    """
    if endpoint not in (0, 1):
        raise ValueError("endpoint must be 0 or 1")
    if not 0 <= beta <= m:
        raise ValueError(f"beta must lie in 0..{m}")
    size = 2 * m + 2
    rows = []
    rhs = []
    for point, match in ((endpoint, True), (1 - endpoint, False)):
        for gamma in range(m + 1):
            row = []
            for k in range(size):
                if k < gamma:
                    row.append(Fraction(0))
                else:
                    falling = Fraction(1)
                    for s in range(gamma):
                        falling *= k - s
                    row.append(falling * Fraction(point) ** (k - gamma))
            rows.append(row)
            rhs.append(Fraction(1) if match and gamma == beta else Fraction(0))
    coeffs = linalg.solve(linalg.frac_array(rows), np.array(rhs, dtype=object))
    h = Polynomial(coeffs)
    for gamma in range(m + 1):
        want = Fraction(1) if gamma == beta else Fraction(0)
        if h.derivative_value(gamma, Fraction(endpoint)) != want \
                or h.derivative_value(gamma, Fraction(1 - endpoint)) != 0:
            raise ArithmeticError("Hermite basis postcondition violated")
    if h.degree > 2 * m + 1:
        raise ArithmeticError("Hermite basis degree exceeds 2m+1")
    return h

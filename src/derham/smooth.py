"""Smooth (non-polynomial) inputs for the floating-point paths.

Exact rational arithmetic covers polynomial inputs; everything else
enters through callback objects.  A :class:`SmoothFunction1D` bundles a
derivative callback (order 0 is the value itself), an optional exact
polynomial (so tests can cross-check float paths against the exact
ones), and an optional one-sided derivative callback for functions that
are smooth on each side of a point but not across it.

:class:`SmoothFunctionND` is the N-variable analogue keyed by a mixed
partial-derivative callback; sums and scalar multiples are provided so
exterior derivatives of component functions can be formed on the fly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polycore import Polynomial

_SPOT_CHECK_POINTS = (0.25, 0.75)
_SPOT_CHECK_TOL = 1e-9


class SmoothFunction1D:
    """A scalar function on [0,1] known through derivative callbacks."""

    __slots__ = ("_derivative", "exact_polynomial", "_sided", "name")

    def __init__(self, derivative, *, exact_polynomial: Polynomial | None = None,
                 sided=None, name: str = "u"):
        """``derivative(order, x)`` returns d^order u / dx^order at x.

        ``sided(order, x, side)`` (optional) returns the one-sided limit
        from the left (side=-1) or right (side=+1); it lets the two-cell
        continuity check work with inputs that have a kink.
        """
        self._derivative = derivative
        self.exact_polynomial = exact_polynomial
        self._sided = sided
        self.name = name
        if exact_polynomial is not None:
            for x in _SPOT_CHECK_POINTS:
                for order in (0, 1):
                    expect = float(exact_polynomial.derivative_value(order, Fraction(x)))
                    got = derivative(order, x)
                    if abs(got - expect) > _SPOT_CHECK_TOL * (1.0 + abs(expect)):
                        raise ValueError(
                            "derivative callback disagrees with exact_polynomial "
                            f"at x={x}, order={order}: {got} vs {expect}")

    @classmethod
    def from_polynomial(cls, p: Polynomial, name: str = "u") -> "SmoothFunction1D":
        return cls(lambda order, x: float(p.derivative_value(order, x)),
                   exact_polynomial=p, name=name)

    def value(self, x: float) -> float:
        return self._derivative(0, x)

    def derivative(self, order: int, x: float) -> float:
        return self._derivative(order, x)

    @property
    def has_sided(self) -> bool:
        return self._sided is not None

    def derivative_sided(self, order: int, x: float, side: int) -> float:
        """One-sided derivative; falls back to the two-sided callback."""
        if self._sided is not None:
            return self._sided(order, x, side)
        return self._derivative(order, x)

    def differentiated(self) -> "SmoothFunction1D":
        base = self._derivative
        sided = self._sided
        exact = None
        if self.exact_polynomial is not None:
            exact = self.exact_polynomial.derivative()
        return SmoothFunction1D(
            lambda order, x: base(order + 1, x),
            exact_polynomial=exact,
            sided=None if sided is None else
            (lambda order, x, side: sided(order + 1, x, side)),
            name=self.name + "'")


def sine() -> SmoothFunction1D:
    return SmoothFunction1D(
        lambda order, x: math.sin(x + order * math.pi / 2.0), name="sin")


def cosine() -> SmoothFunction1D:
    return SmoothFunction1D(
        lambda order, x: math.cos(x + order * math.pi / 2.0), name="cos")


def exponential() -> SmoothFunction1D:
    return SmoothFunction1D(lambda order, x: math.exp(x), name="exp")


_NAMED = {"sin": sine, "cos": cosine, "exp": exponential}


def named_function(name: str) -> SmoothFunction1D:
    try:
        return _NAMED[name]()
    except KeyError:
        raise ValueError(
            f"unknown function {name!r}; expected one of {sorted(_NAMED)} "
            "or a polynomial literal") from None


class SmoothFunctionND:
    """A scalar function on [0,1]^N known through mixed partials.

    ``mixed_derivative(orders, point)`` returns
    d^{orders[0]}_{x_0} ... d^{orders[N-1]}_{x_{N-1}} u at ``point``.
    ``rank_one_polynomials``, when present, is a list of N exact
    polynomials whose product equals the function; it gives exact paths
    something to cross-check against.
    """

    __slots__ = ("dimension", "_mixed", "rank_one_polynomials")

    def __init__(self, dimension: int, mixed_derivative, *,
                 rank_one_polynomials: list[Polynomial] | None = None):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if rank_one_polynomials is not None and len(rank_one_polynomials) != dimension:
            raise ValueError("rank-one factorization must have one factor per axis")
        self.dimension = dimension
        self._mixed = mixed_derivative
        self.rank_one_polynomials = rank_one_polynomials

    @classmethod
    def from_factors(cls, factors: list[SmoothFunction1D]) -> "SmoothFunctionND":
        """Product u(x) = f_0(x_0) * ... * f_{N-1}(x_{N-1})."""
        factors = list(factors)

        def mixed(orders, point):
            out = 1.0
            for f, order, x in zip(factors, orders, point):
                out *= f.derivative(order, x)
            return out

        exact = None
        if all(f.exact_polynomial is not None for f in factors):
            exact = [f.exact_polynomial for f in factors]
        return cls(len(factors), mixed, rank_one_polynomials=exact)

    @classmethod
    def from_polynomials(cls, polys: list[Polynomial]) -> "SmoothFunctionND":
        return cls.from_factors([SmoothFunction1D.from_polynomial(p) for p in polys])

    def value(self, point) -> float:
        return self._mixed((0,) * self.dimension, tuple(point))

    def derivative(self, orders, point) -> float:
        orders = tuple(orders)
        if len(orders) != self.dimension:
            raise ValueError("one derivative order per axis required")
        return self._mixed(orders, tuple(point))

    def differentiated(self, axis: int) -> "SmoothFunctionND":
        """Partial derivative along one axis."""
        if not 0 <= axis < self.dimension:
            raise ValueError("axis out of range")
        base = self._mixed
        dim = self.dimension

        def mixed(orders, point):
            bumped = tuple(o + (1 if t == axis else 0) for t, o in enumerate(orders))
            return base(bumped, point)

        exact = None
        if self.rank_one_polynomials is not None:
            exact = [p.derivative() if t == axis else p
                     for t, p in enumerate(self.rank_one_polynomials)]
        return SmoothFunctionND(dim, mixed, rank_one_polynomials=exact)

    def __add__(self, other: "SmoothFunctionND") -> "SmoothFunctionND":
        if not isinstance(other, SmoothFunctionND):
            return NotImplemented
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        a, b = self._mixed, other._mixed
        return SmoothFunctionND(
            self.dimension, lambda orders, point: a(orders, point) + b(orders, point))

    def __neg__(self) -> "SmoothFunctionND":
        return (-1.0) * self

    def __sub__(self, other: "SmoothFunctionND") -> "SmoothFunctionND":
        return self + (-other)

    def __rmul__(self, scalar) -> "SmoothFunctionND":
        scale = float(scalar)
        base = self._mixed
        return SmoothFunctionND(
            self.dimension, lambda orders, point: scale * base(orders, point))


def sinusoid(coefficients, phase: float = 0.0) -> SmoothFunctionND:
    """u(x) = sin(c . x + phase) with all mixed partials in closed form."""
    coeffs = tuple(float(c) for c in coefficients)

    def mixed(orders, point):
        total = sum(orders)
        arg = sum(c * x for c, x in zip(coeffs, point)) + phase
        scale = 1.0
        for c, order in zip(coeffs, orders):
            scale *= c ** order
        return scale * math.sin(arg + total * math.pi / 2.0)

    return SmoothFunctionND(len(coeffs), mixed)


def exponential_nd(coefficients) -> SmoothFunctionND:
    """u(x) = exp(c . x)."""
    coeffs = tuple(float(c) for c in coefficients)

    def mixed(orders, point):
        scale = 1.0
        for c, order in zip(coeffs, orders):
            scale *= c ** order
        return scale * math.exp(sum(c * x for c, x in zip(coeffs, point)))

    return SmoothFunctionND(len(coeffs), mixed)

"""Smooth (non-polynomial) inputs for the floating-point paths.

Exact rational arithmetic covers polynomial inputs; everything else
enters through callback objects.  A :class:`SmoothFunction1D` bundles a
derivative callback (order 0 is the value itself) and an optional
one-sided derivative callback for functions that are smooth on each
side of a point but not across it.

:class:`SmoothFunctionND` is the N-variable analogue keyed by a mixed
partial-derivative callback on point grids; sums and scalar multiples
let exterior derivatives of component functions be formed on the fly.
"""

from __future__ import annotations

import math

import numpy as np

from .polycore import Polynomial


class SmoothFunction1D:
    """A scalar function on [0,1] known through derivative callbacks."""

    __slots__ = ("_derivative", "_sided", "name")

    def __init__(self, derivative, *, sided=None, name: str = "u"):
        """``derivative(order, x)`` returns d^order u / dx^order at x.

        ``sided(order, x, side)`` (optional) returns the one-sided limit
        from the left (side=-1) or right (side=+1); it lets the two-cell
        continuity check work with inputs that have a kink.
        """
        self._derivative = derivative
        self._sided = sided
        self.name = name

    @classmethod
    def from_polynomial(cls, p: Polynomial, name: str = "u") -> "SmoothFunction1D":
        return cls(lambda order, x: float(p.derivative_value(order, x)),
                   name=name)

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
        base, sided = self._derivative, self._sided
        return SmoothFunction1D(
            lambda order, x: base(order + 1, x),
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
    d^{orders[0]}_{x_0} ... d^{orders[N-1]}_{x_{N-1}} u at ``point``, for
    a tuple of N int orders and a tuple of N float arrays that broadcast
    together (an open mesh, as ``numpy.ix_`` builds), in their broadcast
    shape (a scalar broadcasts); a point of N floats is the 0-d case.
    """

    __slots__ = ("dimension", "_mixed")

    def __init__(self, dimension: int, mixed_derivative):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._mixed = mixed_derivative

    def value(self, point):
        return self.derivative((0,) * self.dimension, point)

    def derivative(self, orders, point):
        orders, point = tuple(orders), tuple(point)
        if not len(orders) == len(point) == self.dimension:
            raise ValueError("need one order and one coordinate per axis")
        return self._mixed(orders, point)

    def differentiated(self, axis: int) -> "SmoothFunctionND":
        """Partial derivative along one axis."""
        if not 0 <= axis < self.dimension:
            raise ValueError("axis out of range")
        base = self._mixed
        return SmoothFunctionND(self.dimension, lambda orders, point: base(
            orders[:axis] + (orders[axis] + 1,) + orders[axis + 1:], point))

    def __add__(self, other: "SmoothFunctionND") -> "SmoothFunctionND":
        if not isinstance(other, SmoothFunctionND):
            return NotImplemented
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch")
        a, b = self._mixed, other._mixed
        return SmoothFunctionND(
            self.dimension, lambda orders, point: a(orders, point) + b(orders, point))

    def __rmul__(self, scalar) -> "SmoothFunctionND":
        scale, base = float(scalar), self._mixed
        return SmoothFunctionND(
            self.dimension, lambda orders, point: scale * base(orders, point))


def _elementwise(fn, values):
    """``fn`` on each entry, bitwise as scalar calls (numpy's SIMD ``exp``
    is not); a float goes to ``fn`` directly, other 0-d values give a
    float."""
    if isinstance(values, float):
        return fn(values)
    values = np.asarray(values, dtype=float)
    out = np.fromiter(map(fn, values.ravel().tolist()), float, values.size)
    return out.reshape(values.shape) if values.ndim else float(out[0])


def sinusoid(coefficients, phase: float = 0.0) -> SmoothFunctionND:
    """u(x) = sin(c . x + phase) with all mixed partials in closed form."""
    coeffs = tuple(float(c) for c in coefficients)

    def mixed(orders, point):
        arg = sum(c * x for c, x in zip(coeffs, point)) + phase
        scale = math.prod(c ** order for c, order in zip(coeffs, orders))
        return scale * _elementwise(math.sin, arg + sum(orders) * math.pi / 2)

    return SmoothFunctionND(len(coeffs), mixed)


def exponential_nd(coefficients) -> SmoothFunctionND:
    """u(x) = exp(c . x)."""
    coeffs = tuple(float(c) for c in coefficients)

    def mixed(orders, point):
        scale = math.prod(c ** order for c, order in zip(coeffs, orders))
        return scale * _elementwise(
            math.exp, sum(c * x for c, x in zip(coeffs, point)))

    return SmoothFunctionND(len(coeffs), mixed)

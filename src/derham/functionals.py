"""Node functionals of the interval element.

Three variants cover every degree of freedom: endpoint derivatives of
Hermite type, moments against shifted Legendre polynomials, and the sum
of the two endpoint values.  The same descriptors apply exactly to
polynomials and, as sums over pointwise "atoms" (quadrature nodes for
the moments), to smooth callback functions; products of them act on
functions of several variables through the same atoms.

Family layout for the degree-n element with smoothness m (the ordering is
frozen; serialized tables record ``FUNCTIONAL_ORDER_VERSION``):

* 0-forms, indices 1..n+1: derivatives ``u'(0), u'(1), .., u^(m)(0),
  u^(m)(1)``, then moments ``int l_{i-1} u'`` for i = 1..n-2m, then
  ``u(1)+u(0)``.
* 1-forms, indices 1..n: derivatives ``v(0), v(1), .., v^(m-1)(0),
  v^(m-1)(1)``, then moments ``int l_{i-1} v`` for i = 1..n-2m.

The first moment of the 0-form family equals ``u(1)-u(0)``; it is stored
as a moment so the two families stay structurally parallel, and the
endpoint identity is checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, isfinite, lcm, perm
from operator import mul
from typing import Union

from .polycore import Polynomial, legendre
from .quadrature import gauss_rule

FUNCTIONAL_ORDER_VERSION = 1

#: (weight, node, derivative order) triple; a functional is the sum over
#: its atoms of weight * d^order u(node).  Moment atoms carry quadrature
#: weights, so they are exact only up to the quadrature error.
Atom = tuple[float, float, int]

# A functional is linear: its exact value on a polynomial is its monomial
# row (f(1), f(x), ..), in closed form, dotted with the coefficients.
# Descriptors are frozen values, so equal functionals share one row, held
# as a tuple of int numerators over the lcm of the entries' denominators.
_ROWS: dict = {}

# Moment atoms per (descriptor, quadrature order), for the same reason.
_ATOMS: dict = {}


def monomial_row(f, length: int) -> tuple[tuple[int, ...], int]:
    """``f`` on 1, x, .., x^(length-1) as (numerators, denominator),
    memoized and read-only; the row may be longer, and its denominator
    is then the lcm over all of it."""
    nums, den = _ROWS.get(f, ((), 1))
    if len(nums) < length:
        values = [f.monomial_value(k) for k in range(len(nums), length)]
        grown = lcm(den, *[v.denominator for v in values])
        nums = tuple(x * (grown // den) for x in nums) + tuple(
            v.numerator * (grown // v.denominator) for v in values)
        _ROWS[f] = nums, den = nums, grown
    return nums, den


def _apply(f, u: Polynomial) -> Fraction:
    nums, den = monomial_row(f, len(u.coeffs))
    return sum(map(mul, nums, u.coeffs), Fraction(0)) / den


def _apply_smooth(f, u, quadrature_order: int = 0, telescope=False) -> float:
    value = sum(w * u.derivative(order, x)
                for w, x, order in f.atoms(quadrature_order, telescope))
    if not isfinite(value):
        raise ValueError(f"{f.describe()} of {u.name!r} is {value}, not finite")
    return value


@dataclass(frozen=True)
class EndpointDerivative:
    """d^order u evaluated at an endpoint (order 0 is the plain value)."""

    form_degree: int
    point: int
    order: int

    def __post_init__(self):
        if self.form_degree not in (0, 1):
            raise ValueError("form_degree must be 0 or 1")
        if self.point not in (0, 1):
            raise ValueError("endpoint must be 0 or 1")
        minimum = 1 if self.form_degree == 0 else 0
        if self.order < minimum:
            raise ValueError(
                f"endpoint derivative order must be >= {minimum} "
                f"for {self.form_degree}-forms")

    def monomial_value(self, k: int) -> int:
        """d^order x^k at 1 is perm(k, order); at 0, order! if k = order."""
        return perm(k, self.order) if self.point else \
            factorial(k) if k == self.order else 0

    apply = _apply
    apply_smooth = _apply_smooth

    def atoms(self, quadrature_order: int, telescope=False) -> tuple[Atom, ...]:
        return ((1.0, float(self.point), self.order),)

    def describe(self, var: str = "u") -> str:
        if self.order == 0:
            return f"{var}({self.point})"
        tick = "'" * self.order if self.order <= 2 else f"^({self.order})"
        return f"{var}{tick}({self.point})"

    def to_json(self) -> dict:
        return {"kind": "endpoint_derivative", "form": self.form_degree,
                "point": self.point, "order": self.order}


@dataclass(frozen=True)
class Moment:
    """Integral of l_{legendre_index} times u (or u' for 0-forms)."""

    form_degree: int
    legendre_index: int
    of_derivative: bool

    def __post_init__(self):
        if self.form_degree not in (0, 1):
            raise ValueError("form_degree must be 0 or 1")
        if self.legendre_index < 0:
            raise ValueError("legendre_index must be >= 0")
        if self.form_degree == 0 and not self.of_derivative:
            raise ValueError("0-form moments act on the derivative")
        if self.form_degree == 1 and self.of_derivative:
            raise ValueError("1-form moments act on the value")

    def monomial_value(self, k: int) -> Fraction:
        """int l_i x^k = (k!)^2 / ((k-i)! (k+i+1)!), zero for k < i by
        orthogonality; on the derivative, k times the x^(k-1) entry."""
        scale, k = (k, k - 1) if self.of_derivative else (1, k)
        i = self.legendre_index
        if k < i:
            return Fraction(0)
        return Fraction(scale * factorial(k) ** 2,
                        factorial(k - i) * factorial(k + i + 1))

    apply = _apply
    apply_smooth = _apply_smooth

    def atoms(self, quadrature_order: int, telescope=False) -> tuple[Atom, ...]:
        # telescoped, int l_0 u' is u(1) - u(0), free of quadrature error
        if telescope and self.of_derivative and self.legendre_index == 0:
            return ((1.0, 1.0, 0), (-1.0, 0.0, 0))
        key = (self, quadrature_order)
        if key not in _ATOMS:
            nodes, weights = gauss_rule(quadrature_order)
            l_i = legendre(self.legendre_index)
            _ATOMS[key] = tuple((w * l_i(x), x, int(self.of_derivative))
                                for x, w in zip(nodes, weights))
        return _ATOMS[key]

    def describe(self, var: str = "u") -> str:
        if self.of_derivative:
            if self.legendre_index == 0:
                # first moment of the derivative telescopes to endpoint values
                return f"{var}(1)-{var}(0)"
            return f"int(l{self.legendre_index}*{var}')"
        if self.legendre_index == 0:
            return f"int({var})"
        return f"int(l{self.legendre_index}*{var})"

    def to_json(self) -> dict:
        return {"kind": "moment", "form": self.form_degree,
                "legendre_index": self.legendre_index,
                "of_derivative": self.of_derivative}


@dataclass(frozen=True)
class EndpointSum:
    """u(1) + u(0); only the 0-form family carries it."""

    form_degree: int = 0

    def __post_init__(self):
        if self.form_degree != 0:
            raise ValueError("endpoint sum exists for 0-forms only")

    def monomial_value(self, k: int) -> int:
        return 2 if k == 0 else 1

    apply = _apply
    apply_smooth = _apply_smooth

    def atoms(self, quadrature_order: int, telescope=False) -> tuple[Atom, ...]:
        return ((1.0, 1.0, 0), (1.0, 0.0, 0))

    def describe(self, var: str = "u") -> str:
        return f"{var}(1)+{var}(0)"

    def to_json(self) -> dict:
        return {"kind": "endpoint_sum", "form": 0}


NodeFunctional = Union[EndpointDerivative, Moment, EndpointSum]


def _derivatives_and_moments(k: int, m: int, n: int) -> list[NodeFunctional]:
    """The endpoint derivatives and moments of the k-form family."""
    out: list[NodeFunctional] = []
    for i in range(m):
        out += [EndpointDerivative(k, 0, i + 1 - k),
                EndpointDerivative(k, 1, i + 1 - k)]
    return out + [Moment(k, i, of_derivative=k == 0)
                  for i in range(n - 2 * m)]


def zero_form_functionals(m: int, n: int) -> list[NodeFunctional]:
    """The n+1 functionals of the 0-form element, in frozen order."""
    return _derivatives_and_moments(0, m, n) + [EndpointSum()]


def one_form_functionals(m: int, n: int) -> list[NodeFunctional]:
    """The n functionals of the 1-form element, in frozen order."""
    return _derivatives_and_moments(1, m, n)

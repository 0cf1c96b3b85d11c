"""Gauss-Legendre quadrature on [0, 1]."""

from __future__ import annotations

from functools import lru_cache
from numbers import Integral

from numpy.polynomial.legendre import leggauss


def check_order(order: int) -> int:
    """``order`` itself if it is an int >= 1; a bool is not, though
    True == 1 would otherwise run as the 1-point rule."""
    if isinstance(order, bool) or not isinstance(order, Integral) or order < 1:
        raise ValueError(
            f"quadrature order must be an int >= 1, not {order!r}")
    return order


@lru_cache(maxsize=None)
def gauss_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the order-point Gauss rule mapped to [0, 1].

    Exact (up to rounding) for polynomials of degree <= 2*order - 1.
    """
    nodes, weights = leggauss(check_order(order))
    return tuple((x + 1.0) / 2.0 for x in nodes), tuple(w / 2.0 for w in weights)

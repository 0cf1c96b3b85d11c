"""Smooth callback wrappers for the floating-point interpolation paths."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from derham.polycore import Polynomial
from derham.smooth import (SmoothFunction1D, SmoothFunctionND, cosine,
                           exponential, exponential_nd, named_function, sine,
                           sinusoid)


class TestSmoothFunction1D:
    def test_from_polynomial(self):
        p = Polynomial([Fraction(1), Fraction(0), Fraction(2)])  # 1 + 2x^2
        u = SmoothFunction1D.from_polynomial(p)
        assert u.value(0.5) == pytest.approx(1.5)
        assert u.derivative(1, 0.5) == pytest.approx(2.0)
        assert u.derivative(2, 0.0) == pytest.approx(4.0)
        assert u.exact_polynomial == p

    def test_spot_check_rejects_mismatched_exact_polynomial(self):
        p = Polynomial([Fraction(0), Fraction(1)])  # x
        with pytest.raises(ValueError, match="disagrees"):
            SmoothFunction1D(lambda order, x: 0.0, exact_polynomial=p)

    def test_differentiated_shifts_orders(self):
        u = sine()
        du = u.differentiated()
        assert du.value(0.3) == pytest.approx(math.cos(0.3))
        assert du.derivative(1, 0.3) == pytest.approx(-math.sin(0.3))

    def test_differentiated_keeps_exact_polynomial(self):
        p = Polynomial([Fraction(0), Fraction(0), Fraction(1)])  # x^2
        du = SmoothFunction1D.from_polynomial(p).differentiated()
        assert du.exact_polynomial == p.derivative()

    def test_sided_fallback_and_propagation(self):
        u = SmoothFunction1D(lambda order, x: float(order))
        assert not u.has_sided
        assert u.derivative_sided(2, 0.5, +1) == 2.0

        kink = SmoothFunction1D(lambda order, x: 0.0,
                                sided=lambda order, x, side: float(side * order))
        assert kink.has_sided
        assert kink.derivative_sided(3, 0.5, -1) == -3.0
        dkink = kink.differentiated()
        assert dkink.derivative_sided(0, 0.5, -1) == -1.0

    def test_named_functions(self):
        assert named_function("sin").value(0.7) == pytest.approx(math.sin(0.7))
        assert named_function("cos").derivative(1, 0.2) == \
            pytest.approx(-math.sin(0.2))
        assert named_function("exp").derivative(5, 0.9) == \
            pytest.approx(math.exp(0.9))
        with pytest.raises(ValueError, match="unknown function"):
            named_function("tanh")

    def test_closed_form_derivatives(self):
        assert sine().derivative(4, 0.4) == pytest.approx(math.sin(0.4))
        assert cosine().derivative(2, 0.4) == pytest.approx(-math.cos(0.4))
        assert exponential().derivative(3, 0.4) == pytest.approx(math.exp(0.4))


def product(factors) -> SmoothFunctionND:
    """u(x) = f_0(x_0) * ... * f_{N-1}(x_{N-1}): each factor's derivative
    mapped over its axis of the mesh (or its coordinate of a point)."""
    def mixed(orders, point):
        return math.prod(
            np.reshape([f.derivative(order, x) for x in np.ravel(xs).tolist()],
                       np.shape(xs))
            for f, order, xs in zip(factors, orders, point))
    return SmoothFunctionND(len(factors), mixed)


class TestSmoothFunctionND:
    def test_product_of_factors(self):
        u = product([sine(), exponential()])
        point = (0.3, 0.6)
        assert u.value(point) == pytest.approx(math.sin(0.3) * math.exp(0.6))
        assert u.derivative((1, 0), point) == \
            pytest.approx(math.cos(0.3) * math.exp(0.6))
        assert u.derivative((1, 2), point) == \
            pytest.approx(math.cos(0.3) * math.exp(0.6))

    def test_mesh_values_are_bitwise_scalar_values(self):
        # an open mesh gives, entry by entry, exactly the scalar calls
        mesh = np.ix_([0.0, 0.3, 1.0], [0.25, 0.6])
        u, v = sinusoid((1.5, -2.0), phase=0.7), exponential_nd((0.5, -1.5))
        for w in (u, v, u.differentiated(0), u + v, -2.5 * v,
                  product([sine(), exponential()])):
            for orders in ((0, 0), (1, 0), (2, 1)):
                got = w.derivative(orders, mesh)
                assert got.shape == (3, 2)
                for (i, x), (j, y) in itertools.product(
                        enumerate(mesh[0].ravel().tolist()),
                        enumerate(mesh[1].ravel().tolist())):
                    assert got[i, j] == w.derivative(orders, (x, y))

    def test_differentiated_axis(self):
        u = product([
            SmoothFunction1D.from_polynomial(Polynomial(coeffs))
            for coeffs in ([0, 1], [0, 0, 1])])
        dy = u.differentiated(1)
        assert dy.value((0.5, 0.5)) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            u.differentiated(2)

    def test_arithmetic(self):
        u = sinusoid((1.0, 2.0))
        v = exponential_nd((0.5, 0.5))
        point = (0.2, 0.4)
        w = u + v
        assert w.value(point) == pytest.approx(u.value(point) + v.value(point))
        assert (u + (-1.0) * v).value(point) == \
            pytest.approx(u.value(point) - v.value(point))
        assert (3.0 * u).derivative((1, 0), point) == \
            pytest.approx(3.0 * u.derivative((1, 0), point))
        with pytest.raises(TypeError):  # a sum of functions only
            u + 1

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            SmoothFunctionND(0, lambda orders, point: 0.0)
        u = sinusoid((1.0, 1.0))
        with pytest.raises(ValueError):
            u.derivative((1,), (0.5, 0.5))
        # a point with a missing or extra coordinate is not cut to fit
        for point in ((0.5,), (0.5, 0.5, 0.5), np.ix_([0.5], [0.5], [0.5])):
            with pytest.raises(ValueError, match="one coordinate per axis"):
                u.derivative((0, 0), point)
            with pytest.raises(ValueError, match="one coordinate per axis"):
                u.value(point)
        with pytest.raises(ValueError):
            sinusoid((1.0,)) + sinusoid((1.0, 1.0))

    def test_sinusoid_mixed_partials(self):
        u = sinusoid((2.0, 3.0), phase=0.5)
        point = (0.1, 0.2)
        arg = 2.0 * 0.1 + 3.0 * 0.2 + 0.5
        assert u.value(point) == pytest.approx(math.sin(arg))
        assert u.derivative((1, 0), point) == pytest.approx(2.0 * math.cos(arg))
        assert u.derivative((1, 1), point) == pytest.approx(-6.0 * math.sin(arg))
        assert u.derivative((0, 2), point) == pytest.approx(-9.0 * math.sin(arg))

    def test_exponential_nd_mixed_partials(self):
        u = exponential_nd((1.0, -2.0))
        point = (0.3, 0.1)
        base = math.exp(0.3 - 0.2)
        assert u.value(point) == pytest.approx(base)
        assert u.derivative((2, 1), point) == pytest.approx(-2.0 * base)

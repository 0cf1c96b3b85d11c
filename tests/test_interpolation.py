"""Floating-point interpolation paths: smooth inputs, cells, continuity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from derham.cli import parse_input_function
from derham.element1d import (build_element, cell_interpolant, interpolate,
                              interpolate_smooth, two_cell_continuity_demo)
from derham.polycore import Polynomial
from derham.smooth import SmoothFunction1D, cosine, exponential, sine


def poly(*coeffs) -> Polynomial:
    return Polynomial(coeffs)


def sample_points(count=21):
    return [i / (count - 1) for i in range(count)]


class TestSmoothPathAgainstExact:
    @pytest.mark.parametrize("mn", [(0, 2), (1, 3), (2, 5)])
    @pytest.mark.parametrize("k", [0, 1])
    def test_polynomial_input_matches_exact_route(self, mn, k):
        e = build_element(*mn)
        u = poly(1, -3, 0, 5, 2)  # degree 4, outside the space for n <= 3
        exact = interpolate(e, k, u)
        smooth = interpolate_smooth(e, k, SmoothFunction1D.from_polynomial(u))
        for x in sample_points():
            assert smooth(x) == pytest.approx(float(exact(x)), abs=1e-12)

    def test_quadrature_order_validated(self):
        # every family holds a moment, and no Gauss rule has 0 points
        e = build_element(0, 1)
        with pytest.raises(ValueError, match="quadrature order"):
            interpolate_smooth(e, 0, sine(), 0)

    @pytest.mark.parametrize("k", [0, 1])
    def test_bool_quadrature_order_rejected(self, k):
        # True == 1 used to run the 1-point rule unnoticed
        e = build_element(0, 1)
        for order in (True, False):
            with pytest.raises(ValueError, match="quadrature order"):
                interpolate_smooth(e, k, sine(), order)

    def test_functional_data_for_sine(self):
        e = build_element(1, 3)
        u = sine()
        order = 12
        got = [f.apply_smooth(u, order) for f in e.functionals0]
        expected = [math.cos(0.0), math.cos(1.0),
                    math.sin(1.0) - math.sin(0.0),
                    math.sin(1.0) + math.sin(0.0)]
        assert got == pytest.approx(expected, abs=1e-13)


class TestCommutationResidual:
    @pytest.mark.parametrize("mn", [(1, 3), (2, 5)])
    @pytest.mark.parametrize("u", [sine(), exponential()],
                             ids=["sin", "exp"])
    def test_smooth_commutation_residual_small(self, mn, u):
        e = build_element(*mn)
        i0u = interpolate_smooth(e, 0, u, quadrature_order=12)
        i1du = interpolate_smooth(e, 1, u.differentiated(), quadrature_order=12)
        residual = i0u.deriv(1) - i1du
        worst = max(abs(residual(x)) for x in sample_points(101))
        assert worst <= 1e-12


class TestCellInterpolant:
    def test_reference_cell_matches_interpolate_smooth(self):
        # the same functionals and the same exact tail; only the first
        # moment of u' differs, u(1) - u(0) on the cell against Gauss
        # quadrature in interpolate_smooth, by one quadrature error
        e = build_element(1, 3)
        u = sine()
        a = cell_interpolant(e, u, 0.0, 1.0, quadrature_order=12)
        b = interpolate_smooth(e, 0, u, quadrature_order=12)
        assert isinstance(a, Polynomial)
        assert [float(c) for c in a.coeffs] == pytest.approx(list(b.coef),
                                                             abs=1e-15)

    def test_polynomial_reproduction_on_short_cell(self):
        # the interpolant in the reference variable equals u(a + h x)
        e = build_element(1, 3)
        u = poly(2, -1, 0, 3)  # degree 3 = n, reproduced exactly
        a, b = 0.25, 0.75
        h = b - a
        cell = cell_interpolant(e, SmoothFunction1D.from_polynomial(u), a, b)
        for x in sample_points():
            assert cell(x) == pytest.approx(float(u(a + h * x)), abs=1e-12)

    def test_degenerate_cell_rejected(self):
        e = build_element(0, 1)
        with pytest.raises(ValueError):
            cell_interpolant(e, sine(), 0.5, 0.5)


GRID_1D = [(m, n) for m in range(5) for n in range(2 * m + 1, 2 * m + 7)]


def kink():
    """u(x) = |x-1|(x-1): value and slope continuous at x=1, second
    derivative jumps from -2 to +2."""
    def two_sided(order, x, side):
        t = x - 1.0
        s = float(side) if t == 0.0 else math.copysign(1.0, t)
        return (s * t * t, 2.0 * s * t, 2.0 * s, 0.0)[order] \
            if order <= 3 else 0.0

    return SmoothFunction1D(lambda order, x: two_sided(order, x, 1.0),
                            sided=two_sided, name="kink")


def corner():
    """u(x) = |x-1| + |x-1|(x-1): continuous at x=1, slope jumps from -1
    to +1 and second derivative from -2 to +2."""
    def two_sided(order, x, side):
        t = x - 1.0
        s = float(side) if t == 0.0 else math.copysign(1.0, t)
        return (s * (t + t * t), s * (1.0 + 2.0 * t), 2.0 * s, 0.0)[order] \
            if order <= 3 else 0.0

    return SmoothFunction1D(lambda order, x: two_sided(order, x, 1.0),
                            sided=two_sided, name="corner")


def junction_oracle(cells, m):
    """The exact Polynomial route: d^s of each cell at the junction as
    Fractions, the difference rounded once."""
    left, right = cells
    return [float(abs(left.derivative(s)(1) - right.derivative(s)(0)))
            for s in range(m + 1)]


def bits(values):
    return [float(v).hex() for v in values]


class TestJunctionMismatchOracle:
    """The demo takes its junction derivatives on integer numerators; they
    must round to the bits of the Polynomial route."""

    @pytest.mark.parametrize("mn", GRID_1D)
    def test_grid_inputs(self, mn):
        e = build_element(*mn)
        for u in (sine(), cosine(), exponential(),
                  parse_input_function("3/2x^2-x+1")):
            cells = [cell_interpolant(e, u, a, a + 1) for a in (0.0, 1.0)]
            report = two_cell_continuity_demo(e, u, cells=cells)
            assert bits(report.details["junction_mismatch"]) == \
                bits(junction_oracle(cells, e.m)), u.name
            assert report == two_cell_continuity_demo(e, u)

    def test_sided_input_keeps_its_regularity_details(self):
        e = build_element(2, 5)
        cells = [cell_interpolant(e, kink(), a, a + 1) for a in (0.0, 1.0)]
        report = two_cell_continuity_demo(e, kink(), cells=cells)
        assert bits(report.details["junction_mismatch"]) == \
            bits(junction_oracle(cells, 2))
        assert report.details["input_regularity"] == {
            "message": "input lacks C^2 continuity at the junction",
            "jumps": [{"order": 2, "jump": 4.0}]}

    @pytest.mark.parametrize("cells", [
        # caller-supplied cells of degree above n = 3
        [Polynomial([Fraction(k + 1, 11 - k) for k in range(9)]),
         Polynomial([Fraction(-1, k + 2) for k in range(6)])],
        # cells shorter than m + 1, their trailing zeros stripped
        [poly(1, 0, 0, 0), poly(Fraction(1, 3), 2)],
        [Polynomial(), poly(Fraction(5, 2))],
        # no coefficients at all: the n + 1 rows alone hold order 0
        [Polynomial(), Polynomial()],
    ], ids=["above-n", "short", "zero", "both-zero"])
    def test_caller_supplied_cells(self, cells):
        for m, n in ((0, 1), (1, 3), (3, 7)):
            e = build_element(m, n)
            report = two_cell_continuity_demo(e, sine(), cells=cells)
            assert bits(report.details["junction_mismatch"]) == \
                bits(junction_oracle(cells, m))


class TestTwoCellContinuity:
    def test_polynomial_is_glued_exactly(self):
        e = build_element(1, 3)
        u = SmoothFunction1D.from_polynomial(poly(0, 0, 1), name="x^2")
        report = two_cell_continuity_demo(e, u)
        assert report.passed
        assert max(report.details["junction_mismatch"]) <= 1e-12

    def test_sine_is_glued_to_tolerance(self):
        for m, n in [(1, 3), (2, 5)]:
            report = two_cell_continuity_demo(build_element(m, n), sine(),
                                              tolerance=1e-13)
            assert report.passed, report.witness
            assert len(report.details["junction_mismatch"]) == m + 1

    @pytest.mark.parametrize("mn", [(1, 3), (2, 5), (3, 7), (4, 9)])
    @pytest.mark.parametrize("u", [sine(), exponential()],
                             ids=["sin", "exp"])
    def test_junction_derivatives_match_exactly(self, mn, u):
        # both cells share the exact endpoint dofs of orders 1..m, so the
        # exact tail reproduces them bit for bit; order 0 rounds the
        # endpoint sum and difference
        report = two_cell_continuity_demo(build_element(*mn), u)
        assert report.passed, report.witness
        value_gap, *derivative_gaps = report.details["junction_mismatch"]
        assert derivative_gaps == [0.0] * mn[0]
        assert value_gap <= 1e-14

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    @pytest.mark.parametrize("mn", [(0, 1), (1, 3), (2, 7)])
    @pytest.mark.parametrize("u", [sine(), exponential()],
                             ids=["sin", "exp"])
    def test_junction_value_free_of_quadrature_error(self, mn, u, order):
        # the first moment of u' is u(b) - u(a) on each cell, so even a
        # one-point rule leaves the junction value at rounding size
        report = two_cell_continuity_demo(build_element(*mn), u,
                                          quadrature_order=order)
        assert report.passed, report.witness
        assert report.details["junction_mismatch"][0] <= 1e-15

    def test_non_finite_node_value_rejected(self):
        e = build_element(1, 3)
        u = SmoothFunction1D(lambda order, x: math.inf if x == 1.0 else 0.0,
                             name="blowup")
        for build in (lambda: interpolate_smooth(e, 0, u),
                      lambda: cell_interpolant(e, u, 0.0, 1.0)):
            with pytest.raises(ValueError, match="'blowup' is inf"):
                build()

    def test_kink_is_detected_and_attributed(self):
        report = two_cell_continuity_demo(build_element(2, 5), kink())
        assert not report.passed
        assert report.witness[0]["order"] == 2
        assert report.witness[0]["mismatch"] == pytest.approx(4.0, abs=1e-10)
        regularity = report.details["input_regularity"]
        assert "lacks C^2" in regularity["message"]
        assert regularity["jumps"] == [{"order": 2, "jump": pytest.approx(4.0)}]

    def test_glued_cells_report_no_regularity(self):
        # the input's jumps only explain a failure: cells that agree at
        # x=1 pass, though the kink's second derivative jumps there
        e = build_element(2, 5)
        cells = [cell_interpolant(e, sine(), a, a + 1) for a in (0.0, 1.0)]
        report = two_cell_continuity_demo(e, kink(), cells=cells)
        assert report.passed and "input_regularity" not in report.details

    def test_regularity_jumps_stop_at_order_m(self):
        # slope and second derivative both jump at x=1; the m = 1 element
        # asks for C^1, so only the slope is reported
        report = two_cell_continuity_demo(build_element(1, 3), corner())
        assert report.details["input_regularity"]["jumps"] == [
            {"order": 1, "jump": 2.0}]

    def test_kink_passes_low_order_element(self):
        # a C^1 junction is all the m=1 element asks for
        report = two_cell_continuity_demo(build_element(1, 3), kink())
        assert report.passed, report.witness

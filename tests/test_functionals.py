"""Node functionals: exact action, quadrature action, atoms, descriptors."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from derham.functionals import (FUNCTIONAL_ORDER_VERSION, EndpointDerivative,
                                EndpointSum, Moment, functional_from_json,
                                one_form_functionals, zero_form_functionals)
from derham.polycore import Polynomial, legendre
from derham.smooth import SmoothFunction1D, cosine, exponential, sine

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polys_st = st.lists(fractions_st, min_size=0, max_size=7).map(Polynomial)

X = Polynomial.monomial(1)


class TestExactAction:
    def test_endpoint_derivative(self):
        x_cubed = Polynomial.monomial(3)
        assert EndpointDerivative(0, 0, 1).apply(x_cubed) == 0
        assert EndpointDerivative(0, 1, 1).apply(x_cubed) == 3
        assert EndpointDerivative(0, 1, 2).apply(x_cubed) == 6
        assert EndpointDerivative(1, 0, 0).apply(x_cubed) == 0

    def test_moment_of_derivative(self):
        # int l_0 u' = u(1) - u(0); on u = x this is 1
        assert Moment(0, 0, of_derivative=True).apply(X) == 1
        # int l_1 l_1 = 1/3
        assert Moment(1, 1, of_derivative=False).apply(legendre(1)) == Fraction(1, 3)

    def test_endpoint_sum(self):
        assert EndpointSum().apply(X) == 1
        assert EndpointSum().apply(Polynomial.one()) == 2

    @given(polys_st)
    @settings(max_examples=30, deadline=None)
    def test_first_derivative_moment_telescopes(self, p):
        telescoped = p(Fraction(1)) - p(Fraction(0))
        assert Moment(0, 0, of_derivative=True).apply(p) == telescoped


class TestSmoothAction:
    def test_endpoint_derivative_on_sine(self):
        u = sine()
        got = EndpointDerivative(0, 1, 2).apply_smooth(u)
        assert got == pytest.approx(-math.sin(1.0), abs=1e-15)

    def test_moment_on_exponential(self):
        u = exponential()
        got = Moment(0, 0, of_derivative=True).apply_smooth(u, quadrature_order=10)
        assert got == pytest.approx(math.e - 1.0, abs=1e-13)

    def test_endpoint_sum_on_cosine(self):
        got = EndpointSum().apply_smooth(cosine())
        assert got == pytest.approx(1.0 + math.cos(1.0), abs=1e-15)

    @given(polys_st, st.sampled_from([EndpointDerivative(0, 0, 1),
                                      EndpointDerivative(1, 1, 0),
                                      Moment(0, 2, True),
                                      Moment(1, 1, False),
                                      EndpointSum()]))
    @settings(max_examples=30, deadline=None)
    def test_smooth_path_agrees_with_exact(self, p, functional):
        exact = float(functional.apply(p))
        smooth = functional.apply_smooth(SmoothFunction1D.from_polynomial(p),
                                         quadrature_order=p.degree + 2)
        assert smooth == pytest.approx(exact, abs=1e-11 * (1 + abs(exact)))

    @given(polys_st, st.sampled_from([EndpointDerivative(0, 0, 1),
                                      EndpointDerivative(1, 1, 0),
                                      Moment(0, 2, True),
                                      Moment(1, 1, False),
                                      EndpointSum()]))
    @settings(max_examples=30, deadline=None)
    def test_atoms_reproduce_apply(self, p, functional):
        u = SmoothFunction1D.from_polynomial(p)
        order = max(p.degree + 2, 1)
        via_atoms = sum(w * u.derivative(s, x)
                        for w, x, s in functional.atoms(order))
        direct = functional.apply_smooth(u, quadrature_order=order)
        assert via_atoms == pytest.approx(direct, abs=1e-12 * (1 + abs(direct)))


class TestValidation:
    def test_zero_form_endpoint_derivative_needs_order_one(self):
        with pytest.raises(ValueError):
            EndpointDerivative(0, 0, 0)

    def test_bad_point_and_form(self):
        with pytest.raises(ValueError):
            EndpointDerivative(0, 2, 1)
        with pytest.raises(ValueError):
            EndpointDerivative(2, 0, 1)

    def test_moment_derivative_flag_is_tied_to_form_degree(self):
        with pytest.raises(ValueError):
            Moment(0, 0, of_derivative=False)
        with pytest.raises(ValueError):
            Moment(1, 0, of_derivative=True)
        with pytest.raises(ValueError):
            Moment(0, -1, of_derivative=True)

    def test_endpoint_sum_zero_forms_only(self):
        with pytest.raises(ValueError):
            EndpointSum(form_degree=1)


class TestDescribe:
    def test_grammar(self):
        assert EndpointDerivative(0, 0, 1).describe() == "u'(0)"
        assert EndpointDerivative(0, 1, 2).describe() == "u''(1)"
        assert EndpointDerivative(0, 1, 3).describe() == "u^(3)(1)"
        assert EndpointDerivative(1, 0, 0).describe("v") == "v(0)"
        assert Moment(0, 0, True).describe() == "u(1)-u(0)"
        assert Moment(0, 2, True).describe() == "int(l2*u')"
        assert Moment(1, 0, False).describe("v") == "int(v)"
        assert Moment(1, 3, False).describe() == "int(l3*u)"
        assert EndpointSum().describe() == "u(1)+u(0)"


class TestFamilies:
    def test_counts(self):
        for m in range(4):
            for n in range(2 * m + 1, 2 * m + 5):
                assert len(zero_form_functionals(m, n)) == n + 1
                assert len(one_form_functionals(m, n)) == n

    def test_frozen_order_m2_n5(self):
        texts0 = [f.describe() for f in zero_form_functionals(2, 5)]
        assert texts0 == ["u'(0)", "u'(1)", "u''(0)", "u''(1)",
                          "u(1)-u(0)", "u(1)+u(0)"]
        texts1 = [f.describe("v") for f in one_form_functionals(2, 5)]
        assert texts1 == ["v(0)", "v(1)", "v'(0)", "v'(1)", "int(v)"]

    def test_m0_families_are_pure_moments_plus_sum(self):
        fam0 = zero_form_functionals(0, 3)
        assert [f.describe() for f in fam0] == \
            ["u(1)-u(0)", "int(l1*u')", "int(l2*u')", "u(1)+u(0)"]
        fam1 = one_form_functionals(0, 3)
        assert [f.describe("v") for f in fam1] == \
            ["int(v)", "int(l1*v)", "int(l2*v)"]

    def test_order_version_pinned(self):
        assert FUNCTIONAL_ORDER_VERSION == 1


class TestJsonRoundTrip:
    @pytest.mark.parametrize("functional", [
        EndpointDerivative(0, 0, 2),
        EndpointDerivative(1, 1, 0),
        Moment(0, 4, True),
        Moment(1, 2, False),
        EndpointSum(),
    ])
    def test_roundtrip(self, functional):
        assert functional_from_json(functional.to_json()) == functional

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            functional_from_json({"kind": "nonsense"})

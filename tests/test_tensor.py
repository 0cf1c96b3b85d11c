"""Tensor-product spaces: representations, d, functionals, interpolation.

The two form representations (rank-one polynomial products vs basis
coefficients) are cross-checked against each other throughout; pointwise
evaluation is the common ground truth.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from derham.element1d import build_element, interpolate
from derham.polycore import Polynomial
from derham.smooth import SmoothFunctionND, sinusoid
from derham.tensor import (DEFAULT_ND_TOLERANCE, RankOneForm, SmoothFormND,
                           TensorForm, as_smooth_form, canonicalize,
                           d_rank_one, d_smooth, d_tensor, enumerate_chi,
                           evaluate_component, flat_sign, rank_one,
                           rank_one_monomial_probes, space_dimension,
                           tensor_interpolate, tensor_node_functionals, theta,
                           verify_dd_zero, verify_dimensions,
                           verify_kron_structure, verify_tensor_commutation)


def poly(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


@pytest.fixture(scope="module")
def e13():
    return build_element(1, 3)


@pytest.fixture(scope="module")
def e01():
    return build_element(0, 1)


def evaluate_terms(terms, chi, point):
    """Value of the chi component of a sum of rank-one terms at a point."""
    return sum((term.value(point) for term in terms if term.chi == chi),
               Fraction(0))


SAMPLE_POINTS_2D = [(Fraction(0), Fraction(1)), (Fraction(1, 3), Fraction(1, 2)),
                    (Fraction(2, 5), Fraction(4, 7)), (Fraction(1), Fraction(1))]


class TestChiAndSigns:
    def test_enumerate_chi(self):
        assert enumerate_chi(2, 1) == [(0, 1), (1, 0)]
        assert enumerate_chi(3, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert enumerate_chi(2, 0) == [(0, 0)]
        assert enumerate_chi(2, 2) == [(1, 1)]

    def test_enumerate_chi_validation(self):
        with pytest.raises(ValueError):
            enumerate_chi(0, 0)
        with pytest.raises(ValueError):
            enumerate_chi(2, 3)
        with pytest.raises(ValueError):
            enumerate_chi(2, -1)

    def test_theta_alternates_on_earlier_bits(self):
        assert theta((0, 0, 0), 2) == 1
        assert theta((1, 0, 0), 1) == -1
        assert theta((1, 0, 1), 1) == -1
        assert theta((1, 1, 0), 2) == 1
        assert theta((0, 1, 0), 2) == -1

    def test_flat_sign_is_constant(self):
        for chi in enumerate_chi(3, 1):
            for t in range(3):
                assert flat_sign(chi, t) == 1


class TestDimensions:
    def test_space_dimension_formulas(self, e13):
        n = 3
        assert space_dimension(2, 0, e13) == (n + 1) ** 2
        assert space_dimension(2, 1, e13) == 2 * n * (n + 1)
        assert space_dimension(2, 2, e13) == n ** 2
        assert space_dimension(3, 0, e13) == (n + 1) ** 3
        assert space_dimension(3, 3, e13) == n ** 3
        total = sum(space_dimension(3, nu, e13) for nu in range(4))
        assert total == (2 * n + 1) ** 3

    def test_verify_dimensions(self, e13, e01):
        for dim in (1, 2, 3):
            for e in (e13, e01):
                report = verify_dimensions(dim, e)
                assert report.passed, report.witness

    def test_functional_count_matches_dimension(self, e13):
        for nu in range(3):
            fns = tensor_node_functionals(2, nu, e13)
            assert len(fns) == space_dimension(2, nu, e13)
            assert len({(f.chi, f.index) for f in fns}) == len(fns)


class TestTensorForm:
    def test_block_validation(self, e13):
        with pytest.raises(ValueError, match="characteristic"):
            TensorForm(2, 1, 3, {(0, 1): np.zeros((4, 3))})
        with pytest.raises(ValueError, match="shape"):
            TensorForm(2, 1, 3, {(0, 1): np.zeros((3, 4)),
                                 (1, 0): np.zeros((3, 4))})

    def test_zero_and_arithmetic(self):
        a = TensorForm.zero(2, 1, 3)
        assert a.is_zero()
        assert a.max_abs() == 0
        b = a.copy()
        b.blocks[(0, 1)][0, 0] = Fraction(2)
        assert a.is_zero() and not b.is_zero()
        assert (b - b).is_zero()
        assert (b + b).blocks[(0, 1)][0, 0] == 4
        assert b == b and not (a == b)
        assert b.max_abs() == 2

    def test_mismatched_spaces_rejected(self):
        a = TensorForm.zero(2, 1, 3)
        b = TensorForm.zero(2, 2, 3)
        with pytest.raises(ValueError):
            a + b
        assert not (a == b)

    def test_degree_above_dimension_is_empty(self):
        top_plus = TensorForm(2, 3, 3, {})
        assert top_plus.is_zero()
        assert top_plus.max_abs() == 0


class TestRankOneForms:
    def test_properties_and_value(self):
        term = rank_one([(0, poly(0, 1)), (1, poly(1, 1))], sign=-2)
        assert term.dimension == 2
        assert term.chi == (0, 1)
        assert term.nu == 1
        assert term.value((Fraction(1, 2), Fraction(1))) == \
            Fraction(-2) * Fraction(1, 2) * 2

    def test_bits_validated_on_construction(self):
        with pytest.raises(ValueError, match="bit 2"):
            rank_one([(0, poly(1)), (2, poly(1))])
        with pytest.raises(ValueError, match="bit -1"):
            RankOneForm(Fraction(1), ((-1, poly(1)),))

    def test_d_rank_one_signs(self):
        # d(x0 * x1 dx1) = dx0 ^ (x1 dx1): only axis 0 contributes, sign +1
        term = rank_one([(0, poly(0, 1)), (1, poly(0, 1))])
        terms = d_rank_one(term)
        assert len(terms) == 1
        assert terms[0].chi == (1, 1)
        assert terms[0].sign == 1
        # d of (x0 dx0 * x1): axis 1, with one 1-form bit before it.
        term = rank_one([(1, poly(0, 1)), (0, poly(0, 1))])
        terms = d_rank_one(term)
        assert len(terms) == 1
        assert terms[0].sign == -1

    def test_d_rank_one_drops_constants(self):
        term = rank_one([(0, poly(5)), (0, poly(0, 1))])
        terms = d_rank_one(term)
        assert len(terms) == 1  # the constant factor's axis vanished
        assert terms[0].chi == (0, 1)

    def test_monomial_probes(self):
        probes = rank_one_monomial_probes(2, 1, [0, 2])
        # 2 chi vectors x 4 degree combinations
        assert len(probes) == 8
        assert all(p.nu == 1 for p in probes)


class TestCanonicalize:
    def test_roundtrip_against_evaluation(self, e13):
        terms = [rank_one([(0, poly(1, -2, 0, 3)), (1, poly(0, 0, 2))], sign=2),
                 rank_one([(0, poly(0, 1)), (1, poly(1))], sign=-1)]
        form = canonicalize(terms, e13)
        for chi in enumerate_chi(2, 1):
            for point in SAMPLE_POINTS_2D:
                direct = evaluate_terms(terms, chi, point)
                via_basis = evaluate_component(form, e13, chi, point)
                assert direct == via_basis

    def test_degree_too_high_rejected(self, e13):
        with pytest.raises(ValueError, match="does not lie"):
            canonicalize(rank_one([(0, poly(0, 0, 0, 0, 1)), (0, poly(1))]),
                         e13)

    def test_empty_terms_need_explicit_space(self, e13):
        with pytest.raises(ValueError):
            canonicalize([], e13)
        form = canonicalize([], e13, dimension=2, nu=1)
        assert form.is_zero()

    def test_d_representations_agree(self, e13):
        for probe in rank_one_monomial_probes(2, 0, [0, 1, 3]):
            form = canonicalize(probe, e13)
            route_index = d_tensor(form)
            route_poly = canonicalize(d_rank_one(probe), e13, 2, 1)
            assert route_index == route_poly

    def test_d_of_sum_canonicalizes_termwise(self, e13):
        probe = rank_one([(0, poly(0, 0, 1)), (0, poly(0, 1))])
        terms = d_rank_one(probe)
        assert len(terms) == 2
        form = canonicalize(terms, e13, 2, 1)
        assert form == \
            canonicalize(terms[0], e13) + canonicalize(terms[1], e13)
        assert form == d_tensor(canonicalize(probe, e13))


class TestNodeFunctionals:
    def test_describe_m2_n5(self):
        e = build_element(2, 5)
        fns = tensor_node_functionals(2, 0, e)
        assert fns[0].describe() == "u'(0)*v'(0)"
        by_index = {f.index: f for f in fns}
        assert by_index[(1, 5)].describe() == "u'(0)*(v(1)-v(0))"
        assert by_index[(1, 6)].describe() == "u'(0)*(v(1)+v(0))"
        one_forms = tensor_node_functionals(2, 2, e)
        by_index = {f.index: f for f in one_forms}
        assert by_index[(1, 5)].describe() == "u(0)*int(v)"

    def test_three_variable_names(self, e01):
        fns = tensor_node_functionals(3, 0, e01)
        assert fns[0].describe() == "(u(1)-u(0))*(v(1)-v(0))*(w(1)-w(0))"

    def test_apply_routes_agree(self, e13):
        terms = [rank_one([(0, poly(1, -1, 2)), (1, poly(3, -2))], sign=3),
                 rank_one([(0, poly(0, 1, 1)), (1, poly(0, 2))], sign=-1)]
        form = canonicalize(terms, e13)
        for f in tensor_node_functionals(2, 1, e13):
            via_terms = f.apply(terms)
            via_form = f.apply(form, element=e13)
            assert via_terms == via_form

    def test_apply_rank_one_chi_mismatch_is_zero(self, e13):
        f = tensor_node_functionals(2, 1, e13)[0]
        assert f.chi == (0, 1)
        other = rank_one([(1, poly(1)), (0, poly(0, 1))])
        assert f.apply_rank_one(other) == 0

    def test_tensorform_route_needs_element(self, e13):
        f = tensor_node_functionals(2, 1, e13)[0]
        with pytest.raises(ValueError, match="element"):
            f.apply(TensorForm.zero(2, 1, 3))

    def test_apply_smooth_mixed_endpoint_and_moment(self):
        # u'(0)*(v(1)-v(0)) on sin(x + 2y) integrates d/dy of
        # cos(x + 2y) at x=0 over y in [0,1]
        e = build_element(2, 5)
        f = next(f for f in tensor_node_functionals(2, 0, e)
                 if f.index == (1, 5))
        u = sinusoid((1.0, 2.0))
        got = f.apply_smooth(u, quadrature_order=12)
        assert got == pytest.approx(math.cos(2.0) - 1.0, abs=5e-13)

    def test_apply_smooth_cache_is_used(self, e13):
        f = next(f for f in tensor_node_functionals(2, 0, e13)
                 if f.index == (3, 3))
        u = sinusoid((1.0, 1.0))
        cache: dict = {}
        first = f.apply_smooth(u, 8, cache)
        assert cache
        second = f.apply_smooth(u, 8, cache)
        assert first == second


class TestSmoothForms:
    def test_as_smooth_form_wrapping(self):
        u = sinusoid((1.0, 1.0))
        form0 = as_smooth_form(u, 2, 0)
        assert set(form0.components) == {(0, 0)}
        form2 = as_smooth_form(u, 2, 2)
        assert set(form2.components) == {(1, 1)}
        with pytest.raises(ValueError, match="SmoothFormND"):
            as_smooth_form(u, 2, 1)
        with pytest.raises(ValueError, match="requested space"):
            as_smooth_form(form0, 2, 1)

    def test_component_validation(self):
        u = sinusoid((1.0, 1.0))
        with pytest.raises(ValueError, match="does not belong"):
            SmoothFormND(2, 1, {(0, 0): u})
        with pytest.raises(ValueError, match="dimension mismatch"):
            SmoothFormND(2, 1, {(0, 1): sinusoid((1.0, 1.0, 1.0))})

    def test_d_smooth_gradient_and_curl(self):
        u = sinusoid((2.0, 3.0))
        du = d_smooth(u)
        point = (0.3, 0.4)
        assert du.nu == 1
        assert du.components[(1, 0)].value(point) == \
            pytest.approx(u.derivative((1, 0), point))
        assert du.components[(0, 1)].value(point) == \
            pytest.approx(u.derivative((0, 1), point))
        ddu = d_smooth(du)
        assert ddu.nu == 2
        # curl of a gradient: d_x (d_y u) - d_y (d_x u) = 0
        assert ddu.components[(1, 1)].value(point) == pytest.approx(0.0, abs=1e-12)

    def test_d_smooth_sign_on_second_axis(self):
        v = SmoothFormND(2, 1, {(1, 0): sinusoid((1.0, 2.0))})
        dv = d_smooth(v)
        point = (0.25, 0.5)
        # differentiating past one 1-form bit flips the sign
        expected = -sinusoid((1.0, 2.0)).derivative((0, 1), point)
        assert dv.components[(1, 1)].value(point) == pytest.approx(expected)


class TestTensorInterpolate:
    def test_rank_one_factorizes(self, e13):
        u = rank_one([(0, poly(0, 0, 0, 0, 1)), (0, poly(0, 1))])
        form = tensor_interpolate(2, 0, u, e13)
        ix = interpolate(e13, 0, poly(0, 0, 0, 0, 1))  # 2x^3 - x^2
        assert ix == poly(0, 0, -1, 2)
        for point in SAMPLE_POINTS_2D:
            assert evaluate_component(form, e13, (0, 0), point) == \
                ix(point[0]) * point[1]

    def test_projection_returns_equal_copy(self, e13):
        form = canonicalize(rank_one([(0, poly(1, 1)), (1, poly(0, 1))]), e13)
        back = tensor_interpolate(2, 1, form, e13)
        assert back == form
        assert back is not form

    def test_space_mismatch_rejected(self, e13):
        with pytest.raises(ValueError, match="out of range"):
            tensor_interpolate(2, 3, [], e13)
        with pytest.raises(ValueError, match="expected"):
            tensor_interpolate(2, 1, rank_one([(0, poly(1)), (0, poly(1))]),
                               e13)
        other_degree = TensorForm.zero(2, 1, 4)
        with pytest.raises(ValueError, match="requested space"):
            tensor_interpolate(2, 1, other_degree, e13)

    def test_smooth_matches_exact_on_rank_one_input(self, e13):
        px, py = poly(1, -2, 0, 1), poly(0, 1, 1)
        exact = tensor_interpolate(2, 0, rank_one([(0, px), (0, py)]), e13)
        smooth = tensor_interpolate(2, 0, SmoothFunctionND.from_polynomials(
            [px, py]), e13)
        gap = np.abs(smooth.blocks[(0, 0)]
                     - np.vectorize(float)(exact.blocks[(0, 0)])).max()
        assert gap <= 1e-12

    def test_smooth_commutation_residual(self, e13):
        u = sinusoid((1.0, 2.0), phase=0.3)
        lhs = d_tensor(tensor_interpolate(2, 0, u, e13))
        rhs = tensor_interpolate(2, 1, d_smooth(u), e13)
        assert (lhs - rhs).max_abs() <= DEFAULT_ND_TOLERANCE


class TestVerifiers:
    def test_dd_zero_small(self, e01):
        for dim in (2, 3):
            report = verify_dd_zero(dim, e01)
            assert report.passed, report.witness
            assert report.parameters["basis_elements"] == \
                sum(space_dimension(dim, nu, e01) for nu in range(dim + 1))

    def test_dd_zero_fails_with_flat_sign(self, e13):
        report = verify_dd_zero(2, e13, sign_rule=flat_sign)
        assert not report.passed
        assert report.witness[0]["check"] == "dd-zero"

    def test_tensor_commutation_small(self, e13):
        for nu in range(3):
            probes = rank_one_monomial_probes(2, nu, range(5))
            report = verify_tensor_commutation(2, nu, probes, e13)
            assert report.passed, (nu, report.witness)

    def test_kron_structure(self, e13):
        for nu in range(3):
            report = verify_kron_structure(2, nu, e13)
            assert report.passed, (nu, report.witness)

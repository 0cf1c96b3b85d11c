"""Tensor-product spaces: representations, d, functionals, interpolation.

The two form representations (rank-one polynomial products vs basis
coefficients) are cross-checked against each other throughout; pointwise
evaluation is the common ground truth.
"""

import dataclasses
import itertools
import math
import operator
import random
import re
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from derham.element1d import build_element, interpolate
from derham.polycore import Polynomial
from derham.smooth import (SmoothFunction1D, SmoothFunctionND,
                           exponential_nd, sinusoid)
from derham.tensor import (DEFAULT_ND_TOLERANCE, RankOneForm, SmoothFormND,
                           TensorForm, _atom_grid, _folded_table,
                           as_smooth_form, canonicalize,
                           d_rank_one, d_smooth, d_tensor, enumerate_chi,
                           flat_sign, rank_one, rank_one_monomial_probes,
                           space_dimension, tensor_interpolate,
                           tensor_node_functionals, theta,
                           verify_dd_zero, verify_dimensions,
                           verify_kron_structure, verify_monomial_commutation,
                           verify_tensor_commutation)


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


def contract(block, vectors):
    """Sum of block[j1..jN] * v1[j1] * ... * vN[jN]."""
    for vec in vectors:
        block = reduce(operator.add,
                       [vj * block[j] for j, vj in enumerate(vec)])
    return block


def evaluate_component(form, element, chi, point):
    """Value of one chi component of a TensorForm at a point."""
    return contract(form.blocks[chi], [
        [p(x) for p in (element.basis0 if bit == 0 else element.basis1)]
        for bit, x in zip(chi, point)])


def product_functional(f, terms):
    """A product functional on a sum of rank-one terms: per term of its
    chi, the sign times the product of the 1D parts on the factors."""
    return sum((term.sign * math.prod(part.apply(p) for part, (_, p)
                                      in zip(f.parts, term.factors))
                for term in terms if term.chi == f.chi), Fraction(0))


# the benchmark's N-D grids: the acceptance TENSOR_GRID, and its points
# with n <= 4 in 3D
GRID_2D = [(m, n) for m in range(3) for n in range(2 * m + 1, 2 * m + 4)]
GRID_3D = [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)]


def seeded_form(rng, dimension, nu, families=(sinusoid, exponential_nd)):
    """A smooth nu-form with seeded sinusoid and exponential components."""
    sine, exp = families
    components = {}
    for i, chi in enumerate(enumerate_chi(dimension, nu)):
        coeffs = [rng.uniform(0.5, 2.0) * rng.choice((-1, 1))
                  for _ in range(dimension)]
        components[chi] = (sine(coeffs, phase=rng.uniform(0.0, 3.0))
                           if i % 2 == 0 else
                           exp([c / 2 for c in coeffs]))
    return SmoothFormND(dimension, nu, components)


def scalar_sinusoid(coefficients, phase=0.0):
    """``sinusoid`` as it was before the array contract: one point of
    Python floats per call."""
    coeffs = tuple(float(c) for c in coefficients)

    def mixed(orders, point):
        total = sum(orders)
        arg = sum(c * x for c, x in zip(coeffs, point)) + phase
        scale = 1.0
        for c, order in zip(coeffs, orders):
            scale *= c ** order
        return scale * math.sin(arg + total * math.pi / 2.0)

    return SmoothFunctionND(len(coeffs), mixed)


def scalar_exponential_nd(coefficients):
    """``exponential_nd`` as it was before the array contract."""
    coeffs = tuple(float(c) for c in coefficients)

    def mixed(orders, point):
        scale = 1.0
        for c, order in zip(coeffs, orders):
            scale *= c ** order
        return scale * math.exp(sum(c * x for c, x in zip(coeffs, point)))

    return SmoothFunctionND(len(coeffs), mixed)


def oracle_atom_grid(comp, atoms):
    """The per-atom loop that ``_atom_grid`` replaced: one scalar callback
    per (orders, point) of the product of the axes' atom lists."""
    combos = list(itertools.product(*atoms))
    # zip(*combo) splits the per-axis (order, node) pairs into orders, point
    values = np.array([comp.derivative(*zip(*combo)) for combo in combos],
                      dtype=float)
    return values.reshape([len(axis) for axis in atoms])


def axis_map(f, order, xs):
    """A 1D factor's derivative on every entry of one axis of a mesh."""
    return np.reshape([f.derivative(order, x) for x in np.ravel(xs).tolist()],
                      np.shape(xs))


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


class TestDTensorOutput:
    """d_tensor builds new blocks of its input's entry type, one for every
    chi of degree nu+1; at nu = N it gives the empty form."""

    @pytest.mark.parametrize("dimension", [1, 2, 3, 4])
    def test_new_typed_complete(self, dimension):
        rng = random.Random(dimension)
        for nu in range(dimension + 1):
            exact = TensorForm.zero(dimension, nu, 3)
            for block in exact.blocks.values():
                # dyadic entries, so the float form sums without rounding
                block.flat = [Fraction(rng.randint(-9, 9), rng.choice((1, 4)))
                              for _ in range(block.size)]
            floats = TensorForm(dimension, nu, 3, {
                chi: block.astype(float)
                for chi, block in exact.blocks.items()})
            d_exact, d_floats = d_tensor(exact), d_tensor(floats)
            expected = set(enumerate_chi(dimension, nu + 1)) \
                if nu < dimension else set()
            for u, du in ((exact, d_exact), (floats, d_floats)):
                assert (du.dimension, du.nu, du.degree) == \
                    (dimension, nu + 1, 3)
                assert set(du.blocks) == expected
                for block in du.blocks.values():
                    assert not any(np.shares_memory(block, source)
                                   for source in u.blocks.values())
            for chi, block in d_exact.blocks.items():
                assert block.dtype == object
                assert {type(x) for x in block.flat} == {Fraction}
                assert d_floats.blocks[chi].dtype == np.float64
                assert (d_floats.blocks[chi] == block.astype(float)).all()


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
        b = TensorForm.zero(2, 1, 3)
        b.blocks[(0, 1)][0, 0] = Fraction(2)
        assert a.is_zero() and not b.is_zero()
        assert (b - b).is_zero()
        assert (b + b).blocks[(0, 1)][0, 0] == 4
        assert b == b and not (a == b)
        assert b.max_abs() == 2

    @pytest.mark.parametrize("where", [(0, 1), (1, 0)])
    def test_max_abs_propagates_nan(self, where):
        # a nan residual must not read as a pass: nan > x is always False
        form = TensorForm.zero(2, 1, 3, exact=False)
        form.blocks[(1, 0)][0, 0] = 5.0
        form.blocks[where][0, 0] = math.nan
        assert math.isnan(form.max_abs())
        form.blocks[where][:] = math.nan
        assert math.isnan(form.max_abs())
        assert not form.max_abs() <= DEFAULT_ND_TOLERANCE

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
        x = poly(0, 1)
        with pytest.raises(ValueError, match="axis 1: factor bit 2"):
            rank_one([(0, poly(1)), (2, poly(1))])
        with pytest.raises(ValueError, match="axis 0: factor bit -1"):
            RankOneForm(Fraction(1), ((-1, poly(1)),))
        # bits are never coerced: a float, a string, a bool or a numpy
        # int is rejected on the axis that carries it
        for bit in (1.7, 1.0, "1", True, np.int64(1)):
            with pytest.raises(TypeError, match=f"axis 0: factor bit "
                                                f"{re.escape(repr(bit))}"):
                rank_one([(bit, x), (0, x)])
            with pytest.raises(TypeError, match="axis 1: factor bit"):
                RankOneForm(Fraction(1), ((0, x), (bit, x)))
        for factor in (3, Fraction(1, 2), (0, 1), None):
            with pytest.raises(TypeError, match="axis 0: factor .* is not "
                                                "a Polynomial"):
                RankOneForm(Fraction(1), ((0, factor), (0, x)))

    def test_sign_must_be_rational(self, e13):
        x = poly(0, 1)
        for sign in (0.1, 1.0, "1", 1j, True, np.int64(2)):
            with pytest.raises(TypeError, match="sign"):
                RankOneForm(sign, ((0, x), (0, x)))
            with pytest.raises(TypeError, match="sign"):
                rank_one([(0, x)], sign)
        for sign in (-2, Fraction(1, 3)):  # x * y lies in the space
            term = RankOneForm(sign, ((0, x), (0, x)))
            assert tensor_interpolate(2, 0, term, e13) == \
                canonicalize(term, e13)
            assert rank_one([(0, x), (0, x)], sign).sign == sign

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

    def test_chi_is_worked_out_once_and_is_not_a_field(self):
        factors = ((0, poly(0, 1)), (1, poly(1, 1)), (0, poly(2)))
        term = RankOneForm(Fraction(-2, 3), factors)
        assert term.chi == (0, 1, 0) and vars(term)["chi"] is term.chi
        # equality, hash and repr see sign and factors only, as before
        assert [f.name for f in dataclasses.fields(term)] == \
            ["sign", "factors"]
        assert repr(term) == \
            f"RankOneForm(sign={Fraction(-2, 3)!r}, factors={factors!r})"
        assert hash(term) == hash((Fraction(-2, 3), factors))
        twin = RankOneForm(Fraction(-2, 3), factors)
        assert twin == term and hash(twin) == hash(term)
        assert term != RankOneForm(Fraction(2, 3), factors)
        assert dataclasses.replace(term, factors=factors[:2]).chi == (0, 1)

    def test_monomial_probes(self):
        probes = rank_one_monomial_probes(2, 1, [0, 2])
        # 2 chi vectors x 4 degree combinations
        assert len(probes) == 8
        assert all(p.nu == 1 for p in probes)

    @pytest.mark.parametrize("build", [
        rank_one_monomial_probes,
        lambda N, nu, degrees: verify_monomial_commutation(
            N, nu, degrees, build_element(0, 1))])
    def test_monomial_probe_degrees_validated(self, build):
        # degrees are never coerced: 1.5 used to become 1
        for bad in (1.5, True, np.int64(2), "2", None):
            with pytest.raises(TypeError, match=f"probe degree "
                                                f"{re.escape(repr(bad))} "
                                                "is not an int"):
                build(2, 1, [0, bad])
        # a negative degree is named, not failed deep in Polynomial
        with pytest.raises(ValueError, match="probe degree -1 is negative"):
            build(2, 1, range(-1, 3))
        assert len(rank_one_monomial_probes(2, 0, (3, 0, 3))) == 4


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

    def test_explicit_space_is_checked_not_overridden(self, e13):
        terms = [rank_one([(0, poly(0, 1)), (1, poly(1))])]  # 2D 1-form
        for dimension, nu in ((3, 0), (2, 0), (3, 1)):
            with pytest.raises(ValueError, match="expected"):
                canonicalize(terms, e13, dimension=dimension, nu=nu)
        assert canonicalize(terms, e13, dimension=2, nu=1) == \
            canonicalize(terms, e13)

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
            via_form = contract(form.blocks[f.chi], [
                [part.apply(p) for p in (e13.basis0 if bit == 0
                                         else e13.basis1)]
                for bit, part in zip(f.chi, f.parts)])
            assert product_functional(f, terms) == via_form

    def test_apply_smooth_mixed_endpoint_and_moment(self):
        # u'(0)*(v(1)-v(0)) on sin(x + 2y) integrates d/dy of
        # cos(x + 2y) at x=0 over y in [0,1]
        e = build_element(2, 5)
        f = next(f for f in tensor_node_functionals(2, 0, e)
                 if f.index == (1, 5))
        u = sinusoid((1.0, 2.0))
        got = f.apply_smooth(u, quadrature_order=12)
        assert got == pytest.approx(math.cos(2.0) - 1.0, abs=5e-13)


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

    def test_space_mismatch_rejected(self, e13):
        with pytest.raises(ValueError, match="out of range"):
            tensor_interpolate(2, 3, [], e13)
        with pytest.raises(ValueError, match="expected"):
            tensor_interpolate(2, 1, rank_one([(0, poly(1)), (0, poly(1))]),
                               e13)
        # a form of the space is not an input to interpolate
        for form in (TensorForm.zero(2, 0, 3), TensorForm.zero(2, 1, 4)):
            with pytest.raises(TypeError, match="cannot interpolate"):
                tensor_interpolate(2, form.nu, form, e13)

    def test_smooth_matches_exact_on_rank_one_input(self, e13):
        px, py = poly(1, -2, 0, 1), poly(0, 1, 1)
        exact = tensor_interpolate(2, 0, rank_one([(0, px), (0, py)]), e13)
        sx, sy = (SmoothFunction1D.from_polynomial(p) for p in (px, py))
        smooth = tensor_interpolate(2, 0, SmoothFunctionND(
            2, lambda o, x: axis_map(sx, o[0], x[0]) * axis_map(sy, o[1], x[1])),
            e13)
        gap = np.abs(smooth.blocks[(0, 0)]
                     - np.vectorize(float)(exact.blocks[(0, 0)])).max()
        assert gap <= 1e-12

    @pytest.mark.parametrize("mn", sorted(set(GRID_2D) | set(GRID_3D)))
    def test_folded_table_bitwise_equals_fraction_route(self, mn):
        # the Fraction route: alpha_k times W_k held as Fractions, each
        # entry rounded by float(Fraction)
        e = build_element(*mn)
        for bit, functionals, alpha in ((0, e.functionals0, e.alpha0),
                                        (1, e.functionals1, e.alpha1)):
            for q in (3, e.default_quadrature_order):
                atoms, table = _folded_table(e, bit, q)
                assert set(atoms) == {(order, x) for f in functionals
                                      for _, x, order in f.atoms(q)}
                weights = np.array(
                    [[sum((Fraction(w) for w, x, order in f.atoms(q)
                           if (order, x) == atom), Fraction(0))
                      for atom in atoms] for f in functionals], dtype=object)
                oracle = np.array(alpha.fractions() @ weights, dtype=float)
                assert table.dtype == float and table.shape == oracle.shape
                assert table.tobytes() == oracle.tobytes(), (mn, bit, q)

    def test_smooth_commutation_residual(self, e13):
        u = sinusoid((1.0, 2.0), phase=0.3)
        lhs = d_tensor(tensor_interpolate(2, 0, u, e13))
        rhs = tensor_interpolate(2, 1, d_smooth(u), e13)
        assert (lhs - rhs).max_abs() <= DEFAULT_ND_TOLERANCE

    def test_smooth_matches_per_functional_route(self):
        # the folded-table route, mapped back to node values through
        # M_bit along every axis, against apply_smooth per functional
        rng = random.Random(2024)
        worst = 0.0
        for dimension, grid in ((2, GRID_2D), (3, GRID_3D)):
            for m, n in grid:
                e = build_element(m, n)
                matrices = {0: np.array(e.M0.fractions(), dtype=float),
                            1: np.array(e.M1.fractions(), dtype=float)}
                for nu in range(dimension):
                    form = seeded_form(rng, dimension, nu)
                    for u in (form, d_smooth(form)):
                        got = tensor_interpolate(dimension, u.nu, u, e)
                        for chi, comp in u.components.items():
                            values = got.blocks[chi]
                            for bit in chi:
                                values = np.tensordot(values, matrices[bit],
                                                      axes=(0, 1))
                            want = np.array([
                                f.apply_smooth(comp, e.default_quadrature_order)
                                for f in tensor_node_functionals(
                                    dimension, u.nu, e) if f.chi == chi])
                            gap = np.abs(values.ravel() - want).max()
                            worst = max(worst, gap / np.abs(want).max())
        assert worst <= 1e-13

    def test_each_atom_evaluated_once_per_component(self, e13):
        seen = {chi: Counter() for chi in enumerate_chi(2, 1)}
        calls = Counter()

        def counted(chi):
            u = sinusoid((1.0, -2.0), phase=0.5)

            def mixed(orders, point):
                calls[chi] += 1
                # an open mesh: axis t varies along dimension t only
                for t, xs in enumerate(point):
                    assert np.shape(xs) == tuple(
                        np.size(xs) if s == t else 1 for s in range(2))
                for x in itertools.product(
                        *(np.ravel(xs).tolist() for xs in point)):
                    seen[chi][orders, x] += 1
                return u.derivative(orders, point)
            return SmoothFunctionND(2, mixed)

        form = SmoothFormND(2, 1, {chi: counted(chi) for chi in seen})
        tensor_interpolate(2, 1, form, e13, quadrature_order=8)
        for chi, counts in seen.items():
            functionals = [f for f in tensor_node_functionals(2, 1, e13)
                           if f.chi == chi]
            atoms = {(tuple(o for _, _, o in combo),
                      tuple(x for _, x, _ in combo))
                     for f in functionals
                     for combo in itertools.product(
                         *(part.atoms(8) for part in f.parts))}
            assert set(counts) == atoms
            assert set(counts.values()) == {1}
            # one call per combination of per-axis derivative orders
            assert calls[chi] == math.prod(
                len({o for f in functionals for _, _, o in f.parts[t].atoms(8)})
                for t in range(2))

    def test_atom_grid_bitwise_equals_scalar_oracle(self):
        # seeded forms and their d_smooth, against the scalar closures
        # through the per-atom loop, with no tolerance
        scalar = (scalar_sinusoid, scalar_exponential_nd)
        compared = 0
        for dimension, grid in ((2, GRID_2D), (3, GRID_3D)):
            for m, n in grid:
                e = build_element(m, n)
                q = e.default_quadrature_order
                for nu in range(dimension + 1):
                    seed = f"{dimension} {m} {n} {nu}"
                    form = seeded_form(random.Random(seed), dimension, nu)
                    oracle = seeded_form(random.Random(seed), dimension, nu,
                                         scalar)
                    for u, v in ((form, oracle),
                                 (d_smooth(form), d_smooth(oracle))):
                        for chi, comp in u.components.items():
                            atoms = [_folded_table(e, bit, q)[0]
                                     for bit in chi]
                            assert np.array_equal(
                                _atom_grid(comp, chi, atoms),
                                oracle_atom_grid(v.components[chi], atoms)), \
                                (dimension, m, n, nu, chi)
                            compared += 1
        assert compared == 138

    def test_non_finite_node_value_rejected(self, e13):
        def mixed(orders, point):
            x, y = point
            return np.where((x == 0.0) & (y == 1.0), math.inf, 1.0)

        with pytest.raises(ValueError, match=r"component \(0, 0\): "
                           r"derivative \(\d, \d\) at \(0\.0, 1\.0\) "
                           "is inf, not finite"):
            tensor_interpolate(2, 0, SmoothFunctionND(2, mixed), e13)

    @pytest.mark.parametrize("returned", [
        np.ones(1000), np.ones((1, 1, 1)), [[1.0, 2.0]] * 3],
        ids=["long", "extra-axis", "wrong-shape"])
    def test_callback_output_must_broadcast_to_its_block(self, e13, returned):
        with pytest.raises(ValueError, match=r"component \(0, 0\): derivative "
                           r"\(\d, \d\) returned float64 values of shape"):
            tensor_interpolate(2, 0, SmoothFunctionND(
                2, lambda orders, point: returned), e13)

    @pytest.mark.parametrize("returned", [
        "1.0", None, Fraction(1, 2), True, 1j, np.array(["a", "b"])])
    def test_callback_output_must_be_real_numbers(self, e13, returned):
        with pytest.raises(ValueError, match=r"component \(0, 0\): derivative "
                           r"\(\d, \d\) returned .* not numbers"):
            tensor_interpolate(2, 0, SmoothFunctionND(
                2, lambda orders, point: returned), e13)

    @pytest.mark.parametrize("order", [0, True, False, 2.5])
    def test_quadrature_order_must_be_positive_int(self, e13, order):
        with pytest.raises(ValueError, match="quadrature order"):
            tensor_interpolate(2, 0, sinusoid((1.0, 1.0)), e13,
                               quadrature_order=order)


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

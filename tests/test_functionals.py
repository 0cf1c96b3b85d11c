"""Node functionals: exact action, quadrature action, atoms, descriptors."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from derham import cli, functionals
from derham.element1d import build_element
from derham.functionals import (FUNCTIONAL_ORDER_VERSION, EndpointDerivative,
                                EndpointSum, Moment, monomial_row,
                                one_form_functionals, zero_form_functionals)
from derham.polycore import Polynomial, legendre
from derham.smooth import SmoothFunction1D, cosine, exponential, sine

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polys_st = st.lists(fractions_st, min_size=0, max_size=7).map(Polynomial)

X = Polynomial.monomial(1)
GRID_1D = [(m, n) for m in range(5) for n in range(2 * m + 1, 2 * m + 7)]


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


def row_values(f, length: int) -> list[Fraction]:
    """The memoized row of ``f`` on 1, x, .., x^(length-1) as Fractions."""
    nums, den = monomial_row(f, length)
    return [Fraction(x, den) for x in nums[:length]]


def fraction_value(f, k: int) -> Fraction:
    """The entry of ``f``'s row at x^k on Fractions, the route the
    endpoint functionals took before their entries were ints."""
    if isinstance(f, EndpointSum):
        return Fraction(2 if k == 0 else 1)
    if isinstance(f, EndpointDerivative):
        if k < f.order:
            return Fraction(0)
        falling = math.factorial(k) // math.factorial(k - f.order)
        return falling * Fraction(f.point) ** (k - f.order)
    return f.monomial_value(k)


def family(m: int, n: int) -> set:
    """The distinct functionals of the (m, n) element's two families."""
    return set(zero_form_functionals(m, n)) | set(one_form_functionals(m, n))


def fraction_row(f, length: int) -> tuple[tuple[int, ...], int]:
    """``f``'s row of ``length`` Fraction entries over their lcm."""
    values = [fraction_value(f, k) for k in range(length)]
    den = math.lcm(*[v.denominator for v in values])
    return tuple(v.numerator * (den // v.denominator) for v in values), den


class TestMonomialRows:
    """The closed-form rows against the functionals' definitions."""

    def test_rows_equal_the_fraction_route(self):
        for m, n in GRID_1D:
            for f in family(m, n):
                for width in (n + 1, 2 * m + 20):
                    functionals.monomial_row.cache_clear()
                    nums, den = monomial_row(f, width)
                    assert (nums, den) == fraction_row(f, width), f
                    assert all(type(x) is int for x in nums)

    def test_endpoint_entries_are_ints(self):
        for f in (EndpointDerivative(0, 0, 2), EndpointDerivative(1, 1, 0),
                  EndpointSum()):
            assert all(type(f.monomial_value(k)) is int for k in range(9))

    def test_moment_rows(self):
        for i in range(15):
            value_row = row_values(Moment(1, i, of_derivative=False), 25)
            derivative_row = row_values(Moment(0, i, of_derivative=True), 25)
            for k in range(25):
                x_k = Polynomial.monomial(k)
                assert value_row[k] == (legendre(i) * x_k).integral01()
                assert derivative_row[k] == \
                    (legendre(i) * x_k.derivative()).integral01()

    def test_endpoint_rows(self):
        for order in range(8):
            for point in (0, 1):
                row = row_values(EndpointDerivative(1, point, order), 25)
                for k in range(25):
                    assert row[k] == Polynomial.monomial(k).derivative_value(
                        order, Fraction(point))
        assert row_values(EndpointSum(), 4) == [2, 1, 1, 1]

    def test_earlier_calls_do_not_change_a_row(self):
        # a 2-entry row asked after a 30-entry one used to have 30 entries
        for m, n in GRID_1D:
            for f in family(m, n):
                for length in (30, 2, n + 1, 2):
                    row = monomial_row(f, length)
                    nums, den = row
                    assert len(nums) == length and den > 0, (f, length)
                    assert row == fraction_row(f, length), (f, length)
                    assert math.gcd(den, *nums) == 1
                    assert monomial_row(f, length) is row

    def test_cold_start_fills_rows_and_atoms(self, capsys):
        def clear_caches():
            # every cache of every derham module, as the benchmark clears
            for name, module in list(sys.modules.items()):
                if module is not None and (name == "derham"
                                           or name.startswith("derham.")):
                    for value in vars(module).values():
                        if hasattr(value, "cache_clear"):
                            value.cache_clear()

        caches = (functionals.monomial_row, functionals._moment_atoms)
        clear_caches()
        # at n = 5 the one moment telescopes; n = 6 adds a Gauss moment
        assert cli.main(["verify", "--m", "2", "--n", "5..6", "--checks",
                         "commutation,continuity-demo"]) == 0
        capsys.readouterr()
        assert all(cache.cache_info().misses for cache in caches)
        clear_caches()
        assert [cache.cache_info().currsize for cache in caches] == [0, 0]

    def test_rows_are_read_only(self):
        f = Moment(0, 0, of_derivative=True)
        nums, _ = monomial_row(f, 4)
        with pytest.raises(TypeError):
            nums[1] = 99
        assert build_element(0, 1).M0.nums.tolist() == [[1, 0], [0, 1]]


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

    @pytest.mark.parametrize("order", [1, 4, 12])
    def test_telescoped_first_moment(self, order):
        # int l_0 u' becomes u(1) - u(0), whatever the rule; nothing else
        # changes
        first = Moment(0, 0, of_derivative=True)
        assert first.atoms(order, telescope=True) == ((1.0, 1.0, 0),
                                                      (-1.0, 0.0, 0))
        assert first.apply_smooth(exponential(), order, telescope=True) \
            == math.e - 1.0
        for other in (Moment(0, 1, True), Moment(1, 0, False),
                      EndpointDerivative(0, 1, 1), EndpointSum()):
            assert other.atoms(order, telescope=True) == other.atoms(order)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, value):
        u = SmoothFunction1D(lambda order, x: value, name="bad")
        for functional in (EndpointSum(), Moment(1, 0, False)):
            with pytest.raises(ValueError, match="'bad' is .*not finite"):
                functional.apply_smooth(u, 4)

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
        with pytest.raises(ValueError, match="form_degree must be 0 or 1"):
            Moment(2, 0, of_derivative=False)

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
    """The JSON fields of a descriptor rebuild it, so the serialized
    tables name every functional completely."""

    KINDS = {"endpoint_derivative": lambda d: EndpointDerivative(
                 d["form"], d["point"], d["order"]),
             "moment": lambda d: Moment(d["form"], d["legendre_index"],
                                        d["of_derivative"]),
             "endpoint_sum": lambda d: EndpointSum(d["form"])}

    @pytest.mark.parametrize("functional", [
        EndpointDerivative(0, 0, 2),
        EndpointDerivative(1, 1, 0),
        Moment(0, 4, True),
        Moment(1, 2, False),
        EndpointSum(),
    ])
    def test_roundtrip(self, functional):
        data = functional.to_json()
        assert self.KINDS[data["kind"]](data) == functional

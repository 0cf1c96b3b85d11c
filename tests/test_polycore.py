"""Exact polynomial core: ring axioms, calculus, Legendre and Hermite families.

Independent oracles: sympy (symbolic integration/differentiation and
linear solves), a from-scratch Gram-Schmidt construction of the
orthogonal family, and the routes the package used before the closed
forms: a Fraction solve of the Hermite conditions and the Legendre
three-term recurrence with its antiderivative chain.  Frozen values were
computed by hand and are asserted literally.
"""

from fractions import Fraction
import math
from math import factorial

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from derham import linalg, polycore
from derham.polycore import (Polynomial, coefficients, hermite_basis,
                             hermite_column, integrated_legendre, legendre,
                             legendre_column, legendre_expansion)

X = sympy.Symbol("x")

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)
polys_st = st.lists(fractions_st, min_size=0, max_size=7).map(Polynomial)


def to_sympy(p: Polynomial):
    return sum((sympy.Rational(c.numerator, c.denominator) * X ** i
                for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def from_coeffs(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


def monomial_derivative(k: int, order: int, point) -> Fraction:
    """d^order x^k at ``point``: a falling factorial times a power."""
    if k < order:
        return Fraction(0)
    falling = factorial(k) // factorial(k - order)
    return falling * Fraction(point) ** (k - order)


def solved_hermite(m: int, endpoint: int, beta: int) -> Polynomial:
    """h_{endpoint, beta} by a Fraction solve of its 2m+2 conditions,
    re-checked through ``derivative_value``."""
    conditions = [(point, gamma) for point in (endpoint, 1 - endpoint)
                  for gamma in range(m + 1)]
    h = Polynomial(linalg.solve(
        [[monomial_derivative(k, gamma, point) for k in range(2 * m + 2)]
         for point, gamma in conditions],
        [int(c == (endpoint, beta)) for c in conditions]).fractions())
    for gamma in range(m + 1):
        assert h.derivative_value(gamma, Fraction(endpoint)) == \
            (gamma == beta)
        assert h.derivative_value(gamma, Fraction(1 - endpoint)) == 0
    assert h.degree <= 2 * m + 1
    return h


def recurrence_legendre(j: int) -> Polynomial:
    """l_j by the three-term recurrence of the family orthogonal on
    [0, 1], which yields l_j(1) = 1."""
    two_x_minus_1, p_prev, p = Polynomial((-1, 2)), None, Polynomial.one()
    for k in range(j):
        p_prev, p = p, (two_x_minus_1 if k == 0 else
                        Fraction(2 * k + 1, k + 1) * (two_x_minus_1 * p)
                        - Fraction(k, k + 1) * p_prev)
    return p


def antiderivative(p: Polynomial) -> Polynomial:
    """The antiderivative of p vanishing at x = 0."""
    return Polynomial((Fraction(0),) + tuple(
        c / (k + 1) for k, c in enumerate(p.coeffs)))


def antiderivative_legendre(alpha: int, j: int) -> Polynomial:
    """L^alpha_j as alpha antiderivatives of the recurrence's l_j."""
    p = recurrence_legendre(j)
    for _ in range(alpha):
        p = antiderivative(p)
    return p


def as_column(p: Polynomial) -> tuple[tuple[int, ...], int]:
    """p's coefficients over the lcm of their denominators."""
    den = math.lcm(*[c.denominator for c in p.coeffs])
    return tuple(int(c * den) for c in p.coeffs), den


def clear_families():
    for family in (hermite_column, legendre_column, hermite_basis, legendre,
                   integrated_legendre):
        family.cache_clear()


class TestPolynomialRing:
    def test_zero_polynomial_conventions(self):
        zero = Polynomial.zero()
        assert zero.coeffs == ()
        assert zero.degree == -1
        assert zero.is_zero()
        assert not zero
        assert zero(Fraction(7)) == 0
        assert zero.derivative().is_zero()
        assert antiderivative(zero).is_zero()
        assert zero.integral01() == 0

    def test_trailing_zeros_stripped(self):
        p = from_coeffs(1, 2, 0, 0)
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Polynomial([0.5])

    def test_immutable_and_closed(self):
        p = from_coeffs(1, 2)
        with pytest.raises(AttributeError, match="immutable"):
            p.coeffs = ()
        # a foreign operand is left to the other side: p + 1 is no sum
        for method in (p.__eq__, p.__add__, p.__sub__):
            assert method(1) is NotImplemented
        assert p != (1, 2)
        with pytest.raises(TypeError):
            p + 1

    def test_monomial(self):
        for power in range(6):
            for coeff in (1, Fraction(-3, 4), 0):
                got = Polynomial.monomial(power, coeff)
                assert got == Polynomial([0] * power + [coeff])
                assert all(type(c) is Fraction for c in got.coeffs)
        with pytest.raises(TypeError, match="got float"):
            Polynomial.monomial(2, 1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            Polynomial.monomial(-1)

    def test_schoolbook_product(self):
        ell1 = from_coeffs(-1, 2)
        assert ell1 * ell1 == from_coeffs(1, -4, 4)

    @given(polys_st, polys_st, polys_st)
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p - p == Polynomial.zero()

    @given(polys_st, polys_st)
    @settings(max_examples=40, deadline=None)
    def test_degree_of_product(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(polys_st, polys_st, fractions_st)
    @settings(max_examples=40, deadline=None)
    def test_evaluation_is_ring_homomorphism(self, p, q, t):
        assert (p * q)(t) == p(t) * q(t)
        assert (p + q)(t) == p(t) + q(t)

    @given(polys_st, polys_st)
    @settings(max_examples=40, deadline=None)
    def test_product_rule(self, p, q):
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()

    @given(polys_st)
    @settings(max_examples=40, deadline=None)
    def test_antiderivative_inverts_derivative(self, p):
        anti = antiderivative(p)
        assert anti.derivative() == p
        assert anti(Fraction(0)) == 0
        assert p.integral01() == anti(Fraction(1))

    @given(polys_st)
    @settings(max_examples=15, deadline=None)
    def test_calculus_against_sympy(self, p):
        sym = to_sympy(p)
        assert to_sympy(p.derivative()) == sympy.expand(sympy.diff(sym, X))
        ours = p.integral01()
        theirs = sympy.integrate(sym, (X, 0, 1))
        assert sympy.Rational(ours.numerator, ours.denominator) == theirs

    def test_derivative_orders(self):
        p = from_coeffs(0, 0, 0, 1)  # x^3
        assert p.derivative(2) == from_coeffs(0, 6)
        assert p.derivative_value(3, Fraction(0)) == 6
        assert p.derivative(5).is_zero()
        with pytest.raises(ValueError, match="nonnegative"):
            p.derivative(-1)


class TestCoefficients:
    @given(st.lists(polys_st, max_size=4), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_columns_are_the_coefficients(self, polys, extra):
        """Column j holds polys[j]'s coefficients, zero-padded, over one
        denominator in lowest terms; the default width is the longest."""
        widest = max((len(p.coeffs) for p in polys), default=0)
        assert coefficients(polys).shape == (widest, len(polys))
        P = coefficients(polys, widest + extra)
        assert P.shape == (widest + extra, len(polys))
        assert all(type(x) is int for x in P.nums.flat)
        assert [Polynomial(column) for column in P.fractions().T] == polys
        assert P == linalg.Exact.reduced(P.nums, P.den)

    def test_frozen_matrix(self):
        P = coefficients([from_coeffs(Fraction(1, 2), 3),
                          from_coeffs(0, 0, Fraction(-2, 3)), Polynomial()], 4)
        assert P.den == 6
        assert P.nums.tolist() == [[3, 0, 0], [18, 0, 0], [0, -4, 0],
                                   [0, 0, 0]]
        assert coefficients(()).shape == (0, 0)

    def test_polynomial_longer_than_width_rejected(self):
        polys = [from_coeffs(1, 2), from_coeffs(1, 2, 3, 4, 5)]
        with pytest.raises(ValueError, match=r"column 1 has degree 4, too "
                           r"high for width 3"):
            coefficients(polys, 3)
        assert coefficients(polys, 5).shape == (5, 2)


class TestLegendre:
    def test_frozen_low_degrees(self):
        assert legendre(0) == from_coeffs(1)
        assert legendre(1) == from_coeffs(-1, 2)
        assert legendre(2) == from_coeffs(1, -6, 6)

    def test_normalization_at_one(self):
        for j in range(21):
            assert legendre(j)(Fraction(1)) == 1

    def test_orthogonality(self):
        for i in range(21):
            for j in range(i, 21):
                value = (legendre(i) * legendre(j)).integral01()
                if i == j:
                    assert value == Fraction(1, 2 * i + 1)
                else:
                    assert value == 0

    def test_against_gram_schmidt_oracle(self):
        """Rebuild the family by Gram-Schmidt on monomials (sympy)."""
        basis = []
        for k in range(7):
            candidate = X ** k
            for q in basis:
                candidate -= sympy.integrate(candidate * q, (X, 0, 1)) \
                    / sympy.integrate(q * q, (X, 0, 1)) * q
            basis.append(sympy.expand(candidate))
        for j, q in enumerate(basis):
            normalized = sympy.expand(q / q.subs(X, 1))
            assert to_sympy(legendre(j)) == normalized


class TestIntegratedLegendre:
    def test_frozen_values(self):
        assert integrated_legendre(1, 1) == from_coeffs(0, -1, 1)
        for j in range(8):
            assert integrated_legendre(0, j) == legendre(j)

    def test_antiderivative_chain(self):
        for alpha in range(1, 5):
            for j in range(8):
                assert integrated_legendre(alpha, j).derivative() == \
                    integrated_legendre(alpha - 1, j)

    def test_integral_identity(self):
        # 2(2j+1) L^1_j = l_{j+1} - l_{j-1}
        for j in range(1, 21):
            lhs = integrated_legendre(1, j) * Fraction(2 * (2 * j + 1))
            rhs = legendre(j + 1) - legendre(j - 1)
            assert lhs == rhs

    def test_roots_at_zero(self):
        for alpha in range(1, 5):
            for j in range(8):
                p = integrated_legendre(alpha, j)
                for s in range(alpha):
                    assert p.derivative_value(s, Fraction(0)) == 0

    def test_roots_at_one(self):
        # L^{m+1}_j vanishes to order at least m+1 at x=1 once j >= m+1
        for m in range(4):
            for j in range(m + 1, 9):
                p = integrated_legendre(m + 1, j)
                for s in range(m + 1):
                    assert p.derivative_value(s, Fraction(1)) == 0

    def test_root_at_one_needs_large_index(self):
        # for j = m the root at 1 is absent: L^2_1(1) = -1/6
        assert integrated_legendre(2, 1)(Fraction(1)) == Fraction(-1, 6)


class TestLegendreExpansion:
    def test_frozen_examples(self):
        assert legendre_expansion(legendre(3)) == [0, 0, 0, 1]
        assert legendre_expansion(integrated_legendre(1, 1)) == \
            [Fraction(-1, 6), 0, Fraction(1, 6)]
        assert legendre_expansion(Polynomial.zero()) == []

    @given(st.lists(fractions_st, min_size=0, max_size=13).map(Polynomial))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, p):
        coeffs = legendre_expansion(p)
        rebuilt = Polynomial.zero()
        for i, c in enumerate(coeffs):
            rebuilt = rebuilt + legendre(i) * c
        assert rebuilt == p
        assert len(coeffs) == p.degree + 1

    def test_band_and_parity(self):
        # L^m_j expands over l_{j-m} .. l_{j+m} with alternating gaps
        for m in range(5):
            for j in range(m, 11):
                coeffs = legendre_expansion(integrated_legendre(m, j))
                assert len(coeffs) == j + m + 1
                assert coeffs[j + m] != 0
                for i, c in enumerate(coeffs):
                    if i < j - m or (i - (j + m)) % 2 != 0:
                        assert c == 0, (m, j, i)


class TestHermiteBasis:
    def test_frozen_cubics(self):
        assert hermite_basis(1, 0, 0) == from_coeffs(1, 0, -3, 2)
        assert hermite_basis(1, 1, 1) == from_coeffs(0, 0, -1, 1)

    def test_delta_conditions(self):
        for m in range(5):
            for endpoint in (0, 1):
                for beta in range(m + 1):
                    h = hermite_basis(m, endpoint, beta)
                    assert h.degree <= 2 * m + 1
                    for gamma in range(m + 1):
                        here = h.derivative_value(gamma, Fraction(endpoint))
                        there = h.derivative_value(gamma, Fraction(1 - endpoint))
                        assert here == (1 if gamma == beta else 0)
                        assert there == 0

    def test_against_sympy_solve(self):
        m = 2
        coeffs = sympy.symbols("c0:6")
        poly = sum(c * X ** i for i, c in enumerate(coeffs))
        equations = []
        for gamma in range(m + 1):
            d = sympy.diff(poly, X, gamma)
            equations.append(sympy.Eq(d.subs(X, 0), 1 if gamma == 1 else 0))
            equations.append(sympy.Eq(d.subs(X, 1), 0))
        solution = sympy.solve(equations, coeffs, dict=True)[0]
        expected = sympy.expand(poly.subs(solution))
        assert to_sympy(hermite_basis(2, 0, 1)) == expected

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            hermite_basis(-1, 0, 0)
        with pytest.raises(ValueError):
            hermite_basis(1, 2, 0)
        with pytest.raises(ValueError):
            hermite_basis(1, 0, 2)


class TestClosedFormsAgainstOracles:
    """The integer closed forms equal the routes they replaced, entry
    for entry, and the Hermite postcondition catches a wrong column."""

    def test_hermite_equals_the_solve(self):
        for m in range(9):
            for endpoint in (0, 1):
                for beta in range(m + 1):
                    oracle = solved_hermite(m, endpoint, beta)
                    assert hermite_column(m, endpoint, beta) == \
                        as_column(oracle)
                    assert hermite_basis(m, endpoint, beta) == oracle

    def test_legendre_equals_the_recurrence(self):
        for j in range(25):
            assert legendre(j) == recurrence_legendre(j)
            for alpha in range(7):
                oracle = antiderivative_legendre(alpha, j)
                assert legendre_column(alpha, j) == as_column(oracle)
                assert integrated_legendre(alpha, j) == oracle

    def test_columns_are_ints_in_lowest_terms(self):
        for column in ([hermite_column(5, a, b) for a in (0, 1)
                        for b in range(6)]
                       + [legendre_column(a, 9) for a in range(7)]):
            nums, den = column
            assert all(type(x) is int for x in nums) and type(den) is int
            assert den > 0 and math.gcd(den, *nums) == 1

    @pytest.mark.parametrize("m, endpoint, beta",
                             [(0, 0, 0), (1, 1, 0), (3, 0, 2), (4, 1, 4)])
    def test_a_perturbed_column_fails_the_postcondition(
            self, monkeypatch, m, endpoint, beta):
        # one coefficient of the reduced column is moved by +-1 before
        # hermite_column checks the conditions on it
        lowest = polycore._lowest
        for k in range(2 * m + 2):
            for delta in (1, -1):
                def perturbed(nums, den):
                    nums, den = lowest(nums, den)
                    return nums[:k] + (nums[k] + delta,) + nums[k + 1:], den
                monkeypatch.setattr(polycore, "_lowest", perturbed)
                hermite_column.cache_clear()
                with pytest.raises(ArithmeticError, match="postcondition"):
                    hermite_column(m, endpoint, beta)
        monkeypatch.undo()
        hermite_column.cache_clear()
        assert hermite_column(m, endpoint, beta) == \
            as_column(solved_hermite(m, endpoint, beta))


class TestIntegerArguments:
    """A float or bool that equals an int is rejected whether or not the
    int's entry is cached."""

    CALLS = [(hermite_basis, (1, 0, 0)), (hermite_column, (1, 1, 1)),
             (legendre, (2,)), (integrated_legendre, (1, 2)),
             (legendre_column, (1, 2))]

    @pytest.mark.parametrize("family, args", CALLS)
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("bad", [float, bool], ids=["float", "bool"])
    def test_non_int_rejected(self, family, args, warm, bad):
        clear_families()
        if warm:
            family(*args)
        for i, value in enumerate(args):
            if bad is bool and value not in (0, 1):
                continue
            wrong = args[:i] + (bad(value),) + args[i + 1:]
            with pytest.raises(TypeError, match="is not an int"):
                family(*wrong)

    def test_negative_legendre_column_rejected(self):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            legendre_column(-1, 0)
        with pytest.raises(ValueError, match="index must be nonnegative"):
            legendre_column(0, -1)

"""The 1D element pair: construction, unisolvence, interpolation.

The interpolation oracle is the defining property itself (every node
functional agrees on u and I(u), and I(u) lies in the element space),
plus an independent sympy linear solve for a frozen instance.
"""

import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from derham import linalg, polycore
from derham.corruptions import permute_alpha
from derham.element1d import (Element1D, build_element, interpolate,
                              interpolant_columns, monomial_probes,
                              verify_commutation, verify_lemma_hypotheses,
                              verify_unisolvence)
from derham.functionals import (EndpointDerivative, EndpointSum, Moment,
                                one_form_functionals, zero_form_functionals)
from derham.polycore import (Polynomial, coefficients, hermite_basis,
                             integrated_legendre)

GRID = [(0, 1), (0, 3), (1, 3), (1, 5), (2, 5), (2, 6), (3, 7)]
GRID_1D = [(m, n) for m in range(5) for n in range(2 * m + 1, 2 * m + 7)]

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def identity(n: int) -> linalg.Exact:
    return linalg.Exact(np.eye(n, dtype=int).astype(object))


def poly(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


def zero_form_basis(m: int, n: int) -> list[Polynomial]:
    """The n+1 basis polynomials of the 0-form space, in frozen order, on
    Fractions: the route ``build_element`` took before it worked on
    integer columns."""
    half = Fraction(1, 2)
    basis: list[Polynomial] = []
    for j in range(m):
        basis.append(hermite_basis(m, 0, j + 1))
        basis.append(hermite_basis(m, 1, j + 1))
    basis.append((hermite_basis(m, 1, 0) - hermite_basis(m, 0, 0)) * half)
    for j in range(2, n - 2 * m + 1):
        basis.append(integrated_legendre(m + 1, j + m - 1))
    basis.append(Polynomial.monomial(0, half))
    return basis


def polynomial_route(m: int, n: int) -> Element1D:
    """The element built from the coefficients of the Fraction basis and
    its derivatives."""
    basis0 = zero_form_basis(m, n)
    return Element1D(m, n, zero_form_functionals(m, n),
                     one_form_functionals(m, n), coefficients(basis0, n + 1),
                     coefficients([p.derivative() for p in basis0[:n]], n))


@pytest.fixture(scope="module")
def e13() -> Element1D:
    return build_element(1, 3)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="m must be >= 0"):
            build_element(-1, 3)
        with pytest.raises(ValueError, match="n >= 5"):
            build_element(2, 4)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("m, n, name", [
        (True, 3, "m"), (1.0, 3, "m"), (1, 3.0, "n"), (0, True, "n")])
    def test_rejects_degrees_that_are_not_ints(self, e13, warm, m, n, name):
        # equal ints must not let a cache answer for a float or a bool
        for family in (polycore.hermite_column, polycore.legendre_column):
            family.cache_clear()
        if warm:
            build_element(int(m), int(n))
        with pytest.raises(TypeError, match=r"^m .* or n .* is not an int"):
            build_element(m, n)
        with pytest.raises(TypeError, match=r"^m .* or n .* is not an int"):
            dataclasses.replace(e13, **{name: {"m": m, "n": n}[name]})

    @pytest.mark.parametrize("field", ["functionals0", "functionals1"])
    def test_rejects_wrong_family_length(self, e13, field):
        with pytest.raises(ValueError, match=f"^{field} has"):
            dataclasses.replace(e13, **{field: getattr(e13, field)[:-1]})

    def test_rejects_entries_that_are_not_node_functionals(self, e13):
        # with the tables given no table reads the family, so the first
        # reader would be a verifier
        with pytest.raises(TypeError, match=r"^functionals1\[0\] is a int, "
                                            "not a node functional$"):
            dataclasses.replace(e13, functionals1=(1, 2, 3))

    @pytest.mark.parametrize("field, index, functional", [
        ("functionals0", 3, Moment(1, 0, of_derivative=False)),
        ("functionals1", 1, EndpointDerivative(0, 1, 1)),
        ("functionals1", 2, EndpointSum())])
    def test_rejects_functionals_of_the_other_form_degree(self, e13, field,
                                                          index, functional):
        family = list(getattr(e13, field))
        family[index] = functional
        k = int(field[-1])
        with pytest.raises(ValueError, match=rf"^{field}\[{index}\] is a "
                           rf"{1 - k}-form functional, not a {k}-form one$"):
            dataclasses.replace(e13, **{field: family})

    @pytest.mark.parametrize("field", ["B0", "B1", "M0", "M1", "alpha0",
                                       "alpha1"])
    def test_rejects_wrong_matrix_shape(self, e13, field):
        table = getattr(e13, field)
        for nums in (table.nums[:-1], table.nums[:, :-1], table.nums[0]):
            bad = linalg.Exact.reduced(nums, table.den)
            with pytest.raises(ValueError, match=f"^{field} has shape"):
                dataclasses.replace(e13, **{field: bad})

    def test_rejects_bad_degrees(self, e13):
        with pytest.raises(ValueError, match="m must be >= 0"):
            dataclasses.replace(e13, m=-1)
        with pytest.raises(ValueError, match="n=2 too low"):
            dataclasses.replace(e13, n=2)

    def test_malformed_element_never_reaches_the_verifiers(self, e13):
        # a 3x3 M0 used to die in verify_unisolvence with an IndexError
        with pytest.raises(ValueError, match="M0 has shape"):
            dataclasses.replace(e13, M0=linalg.Exact(e13.M0.nums[:3, :3]))

    # tables are checked again where they enter an element: an Exact's
    # arrays can be edited after it was built

    @staticmethod
    def edited(table: linalg.Exact) -> linalg.Exact:
        return linalg.Exact(table.nums.copy(), table.den)

    @pytest.mark.parametrize("field", ["B0", "M0", "alpha1"])
    @pytest.mark.parametrize("bad", [0.5, 1.0, True, np.int64(1),
                                     Fraction(1, 2)])
    def test_rejects_numerators_that_are_not_python_ints(self, e13, field,
                                                         bad):
        table = self.edited(getattr(e13, field))
        table.nums[0, 1] = bad
        with pytest.raises(TypeError, match=f"^{field}: nums entry .* is "
                                            "not a Python int"):
            dataclasses.replace(e13, **{field: table})

    @pytest.mark.parametrize("field", ["B1", "M1", "alpha0"])
    @pytest.mark.parametrize("bad, error", [(0, ValueError), (-1, ValueError),
                                            (1.0, TypeError),
                                            (True, TypeError),
                                            (np.int64(1), TypeError)])
    def test_rejects_denominators_that_are_not_positive_ints(
            self, e13, field, bad, error):
        table = self.edited(getattr(e13, field))
        table.den = bad
        with pytest.raises(error, match=f"^{field}: den "):
            dataclasses.replace(e13, **{field: table})

    @pytest.mark.parametrize("field", ["B0", "B1", "M0", "M1", "alpha0",
                                       "alpha1"])
    def test_rejects_tables_not_in_lowest_terms(self, e13, field):
        table = self.edited(getattr(e13, field))
        table.nums, table.den = table.nums * 6, table.den * 4
        with pytest.raises(ValueError, match=f"^{field}: nums and den "
                                             f"{table.den} share the "
                                             "factor 2"):
            dataclasses.replace(e13, **{field: table})

    @pytest.mark.parametrize("field", ["B0", "B1", "M0", "alpha1"])
    def test_rejects_tables_that_are_not_exact_pairs(self, e13, field):
        fractions = getattr(e13, field).fractions()
        with pytest.raises(TypeError,
                           match=f"^{field} is a ndarray, not a linalg.Exact"):
            dataclasses.replace(e13, **{field: fractions})

    def test_rejects_basis_outside_the_element_space(self, e13):
        # a basis polynomial of too high a degree has no column of the
        # right height, and a taller B_k has the wrong shape
        basis1 = (Polynomial.monomial(3),) + e13.basis1[1:]
        with pytest.raises(ValueError, match=r"^column 0 has degree 3, too "
                                             "high for width 3$"):
            coefficients(basis1, 3)
        with pytest.raises(ValueError, match=r"^B1 has shape \(4, 3\), "
                                             r"expected \(3, 3\)$"):
            dataclasses.replace(e13, B1=coefficients(basis1))

    def test_tables_are_exact_pairs(self):
        for m, n in GRID:
            e = build_element(m, n)
            for table in (e.M0, e.M1, e.alpha0, e.alpha1, e.B0, e.B1):
                assert type(table) is linalg.Exact
                assert {type(x) for x in table.nums.flat} <= {int}

    def test_counts_and_degrees(self):
        for m, n in GRID:
            e = build_element(m, n)
            assert len(e.basis0) == n + 1
            assert len(e.basis1) == n
            assert len(e.functionals0) == n + 1
            assert len(e.functionals1) == n
            assert e.default_quadrature_order == 2 * (n + 2)
            # Hermite block has degree 2m+1, bubble j has degree 2m+j,
            # the trailing constant degree 0
            for j in range(2 * m + 1):
                assert e.basis0[j].degree == 2 * m + 1
            for j in range(2, n - 2 * m + 1):
                assert e.basis0[2 * m + j - 1].degree == 2 * m + j
            assert e.basis0[n].degree == 0

    def test_one_form_basis_is_derived(self):
        for m, n in GRID:
            e = build_element(m, n)
            assert list(e.basis1) == [p.derivative() for p in e.basis0[:n]]

    def test_frozen_m1_n3(self, e13):
        assert list(e13.basis0) == [poly(0, 1, -2, 1), poly(0, 0, -1, 1),
                                    poly(Fraction(-1, 2), 0, 3, -2),
                                    poly(Fraction(1, 2))]
        assert e13.M0 == identity(4)
        assert e13.M1 == identity(3)

    def test_frozen_m0_n1(self):
        e = build_element(0, 1)
        assert list(e.basis0) == [poly(Fraction(-1, 2), 1), poly(Fraction(1, 2))]
        assert e.M0 == identity(2)

    def test_zero_form_basis_matches_element(self):
        for m, n in GRID:
            assert list(build_element(m, n).basis0) == zero_form_basis(m, n)

    @pytest.mark.parametrize("m, n", [(m, n) for m in range(5)
                                      for n in range(2 * m + 1, 2 * m + 13)])
    def test_integer_build_matches_polynomial_route(self, m, n):
        e, old = build_element(m, n), polynomial_route(m, n)
        for name in ("B0", "B1", "M0", "M1", "alpha0", "alpha1"):
            assert getattr(e, name) == getattr(old, name), name
        assert e.alpha1 == linalg.invert(e.M1)  # the block-sliced inverse
        assert "basis0" not in vars(e) and "basis1" not in vars(e)
        assert e.basis0 == tuple(zero_form_basis(m, n)) == old.basis0
        assert e.basis1 == tuple(p.derivative() for p in e.basis0[:n]) \
            == old.basis1

    def test_every_field_reads_on_a_built_element(self):
        # every field left out is built, and the basis views wait
        e = build_element(2, 6)
        assert "basis" not in repr(e) and "basis0" not in vars(e)
        for f in dataclasses.fields(e):
            assert getattr(e, f.name) is not None, f.name

    def test_alpha1_inverts_m1_when_m0_is_not_block_diagonal(self, e13):
        # h_{0,1} + 1 meets u(1)+u(0) and 1/2 plus the half difference
        # meets int l_0 u': M0 = [[A, b], [r, c]] with b, r nonzero, so
        # the leading block of M0^-1 is not A^-1
        half_difference = e13.basis0[2]
        basis0 = (e13.basis0[0] + Polynomial.one(), *e13.basis0[1:3],
                  e13.basis0[3] + half_difference)
        e = Element1D(1, 3, B0=coefficients(basis0, 4), B1=e13.B1)
        assert e.M0.nums[3, 0] and e.M0.nums[2, 3]
        assert e.M1 == identity(3) == e.alpha1 == linalg.invert(e.M1)
        assert linalg.Exact.reduced(e.alpha0.nums[:3, :3], e.alpha0.den) \
            != e.alpha1

    def test_alpha1_inverts_a_stored_m1(self, e13):
        nums = e13.M1.nums.copy()
        nums[2, 0] = 5
        M1 = linalg.Exact(nums)
        e = Element1D(1, 3, M1=M1)
        assert e.M0 == identity(4) and e.alpha1 == linalg.invert(M1)
        assert e.alpha1.nums[2, 0] == -5

    def test_alpha1_ignores_a_stored_alpha0(self, e13):
        # the leading block of a given alpha0 proves nothing about M1
        alpha0 = linalg.Exact(2 * np.eye(4, dtype=int).astype(object))
        e = Element1D(1, 3, alpha0=alpha0)
        assert e.alpha0 == alpha0 and e.alpha1 == identity(3)

    def test_stored_inverses(self):
        for m, n in GRID:
            e = build_element(m, n)
            assert linalg.Exact(*linalg.product(e.M0, e.alpha0)) == \
                identity(n + 1)
            assert linalg.Exact(*linalg.product(e.M1, e.alpha1)) == \
                identity(n)

    def test_interpolation_coefficients_are_alpha_times_node_values(self):
        # the monomial-matrix route against alpha_k (f_i(u))_i
        for m, n in GRID:
            e = build_element(m, n)
            for u in [Polynomial(), poly(Fraction(-2, 3)),
                      poly(1, Fraction(1, 5), 0, 0, 0, 0, 0, 0, 3, -1)]:
                for k, functionals, alpha in ((0, e.functionals0, e.alpha0),
                                              (1, e.functionals1, e.alpha1)):
                    nums, den = interpolant_columns(
                        e, k, coefficients([u]))
                    want = alpha.fractions() @ [f.apply(u)
                                                for f in functionals]
                    assert list(nums[:, 0] * Fraction(1, den)) == list(want)

    def test_form_degree_must_be_0_or_1(self, e13):
        with pytest.raises(ValueError, match="form degree must be 0 or 1"):
            interpolant_columns(e13, 2, coefficients([Polynomial.one()]))


class TestVerifiers:
    def test_unisolvence_on_grid(self):
        for m, n in GRID:
            report = verify_unisolvence(build_element(m, n))
            assert report.passed, (m, n, report.witness)
            assert report.name == "unisolvence"
            assert report.parameters == {"m": m, "n": n}

    def test_unisolvence_flags_deletion_identity(self, e13):
        nums = e13.M1.nums.copy()
        nums[1, 2] += e13.M1.den
        M1 = linalg.Exact.reduced(nums, e13.M1.den)
        report = verify_unisolvence(dataclasses.replace(e13, M1=M1))
        assert {"check": "deletion-identity", "row": 2, "col": 3,
                "value": "1"} in report.witness

    def test_unisolvence_checks_ranks_once_the_structure_fails(self, e13):
        # M0 with an entry above the diagonal and row 2 a copy of row 1:
        # not triangular, and singular
        nums = e13.M0.nums.copy()
        nums[0, 3] = e13.M0.den
        nums[1] = nums[0]
        M0 = linalg.Exact.reduced(nums, e13.M0.den)
        report = verify_unisolvence(dataclasses.replace(e13, M0=M0))
        assert {"check": "rank-M0", "rank": 3, "expected": 4} \
            in report.witness
        assert linalg.rank(M0) == 3

    def test_unisolvence_takes_full_rank_from_the_structure(self,
                                                             monkeypatch):
        # every structure check passing leaves M0 lower triangular with a
        # nonzero diagonal and M1 its leading block, of full rank
        def rank(matrix):
            raise AssertionError("rank computed")

        monkeypatch.setattr(linalg, "rank", rank)
        for m, n in GRID_1D:
            assert verify_unisolvence(build_element(m, n)).passed

    def test_lemma_takes_the_derived_rank_from_the_node_table(self,
                                                              monkeypatch):
        # the pairing passing makes the derived basis B1, and T1 B1 lower
        # triangular with a nonzero diagonal gives it rank n: linalg.rank
        # is asked only about the node table, and its triangular test
        # answers without elimination
        def eliminate(*args, **kwargs):
            raise AssertionError("rank computed")

        ranked, rank = [], linalg.rank
        monkeypatch.setattr(linalg, "rank", lambda matrix: ranked.append(
            matrix) or rank(matrix))
        monkeypatch.setattr(linalg, "_eliminate", eliminate)
        for m, n in GRID_1D:
            e = build_element(m, n)
            assert verify_lemma_hypotheses(e).passed
            assert len(ranked) == 1 and ranked.pop() is e.node_table(1)

    @pytest.mark.parametrize("m, n", GRID_1D)
    def test_inverse_tables_match_bareiss(self, m, n):
        # the node matrices are lower triangular, so invert forward
        # substitutes them; solve(M, I) and invert on their fractions
        # still go through the Bareiss loop
        e = build_element(m, n)
        for M, alpha in ((e.M0, e.alpha0), (e.M1, e.alpha1)):
            assert not np.triu(M.nums, 1).any()
            assert alpha == linalg.solve(M, identity(len(M.nums)).nums) \
                == linalg.invert(M.fractions()) == linalg.invert(M)

    def test_lemma_hypotheses_on_grid(self):
        for m, n in GRID:
            report = verify_lemma_hypotheses(build_element(m, n))
            assert report.passed, (m, n, report.witness)
            assert report.parameters["probe_degree"] == n + 5

    @pytest.mark.parametrize("corruption, digest", [
        (None, "82e81653c09a70c86e71ccfa372e858e"
               "cbdaed1b383c4d5ec7b4da94264afb26"),
        (permute_alpha, "e01b86ec3e7a794909038ffb3c5a2e83"
                        "8ac790b2ef00a6611e7eb6bb9a43a457")],
        ids=["pristine", "permute-alpha"])
    def test_default_commutation_probes_are_pinned(self, e13, corruption,
                                                   digest):
        # the default probes are x^0 .. x^(n+5), the degree the lemma
        # hypotheses and the CLI default to; under permute-alpha each
        # probe of degree 2 and up leaves a residual in the report
        e = corruption(e13) if corruption else e13
        report = verify_commutation(e)
        assert report.parameters["probes"] == e.n + 6
        text = json.dumps(report.to_json(), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_lemma_probe_degree_validated(self, e13):
        with pytest.raises(ValueError):
            verify_lemma_hypotheses(e13, probe_degree=2)
        # never coerced: True used to run as 1 and 4.0 failed in range
        for bad in (True, 4.0, np.int64(4), "4"):
            with pytest.raises(TypeError, match=re.escape(
                    f"probe_degree {bad!r} is not an int")):
                verify_lemma_hypotheses(e13, probe_degree=bad)

    def test_commutation_on_grid(self):
        for m, n in GRID:
            report = verify_commutation(build_element(m, n))
            assert report.passed, (m, n, report.witness)

    def test_commutation_with_explicit_probes(self, e13):
        probes = [poly(1, Fraction(2, 3), 0, 0, -4, 5),
                  poly(0, 0, 0, 0, 0, 0, 0, 1)]
        report = verify_commutation(e13, probes)
        assert report.passed
        assert report.parameters["probes"] == 2

    def test_commutation_rejects_probes_that_are_not_polynomials(self, e13):
        for bad in (1, Fraction(1, 2), [1, 2], None):
            with pytest.raises(TypeError, match=f"^probe 1 has type "
                                                f"{type(bad).__name__}, not "
                                                "a Polynomial$"):
                verify_commutation(e13, [Polynomial.one(), bad])

    def test_monomial_probes(self):
        probes = monomial_probes(3)
        assert [p.degree for p in probes] == [0, 1, 2, 3]
        assert monomial_probes(0) == [Polynomial.one()]

    @pytest.mark.parametrize("bad", [True, np.int64(2), 2.0])
    def test_monomial_probes_reject_a_degree_that_is_not_an_int(self, bad):
        # True used to give [1, x]
        with pytest.raises(TypeError, match=re.escape(
                f"probe degree {bad!r} is not an int")):
            monomial_probes(bad)

    def test_monomial_probes_reject_a_negative_degree(self):
        # used to give no probes, so commutation passed with probes=0
        with pytest.raises(ValueError, match="^probe degree -1 is negative$"):
            monomial_probes(-1)


class TestInterpolation:
    def test_frozen_quartic(self, e13):
        assert interpolate(e13, 0, poly(0, 0, 0, 0, 1)) == poly(0, 0, -1, 2)

    def test_invalid_form_degree(self, e13):
        with pytest.raises(ValueError):
            interpolate(e13, 2, poly(1))

    @given(st.lists(fractions_st, min_size=0, max_size=8).map(Polynomial),
           st.sampled_from(GRID))
    @settings(max_examples=25, deadline=None)
    def test_defining_property(self, u, mn):
        e = build_element(*mn)
        for k in (0, 1):
            functionals = e.functionals0 if k == 0 else e.functionals1
            projected = interpolate(e, k, u)
            assert projected.degree <= e.n - k
            for f in functionals:
                assert f.apply(projected) == f.apply(u)
            # idempotence
            assert interpolate(e, k, projected) == projected

    @given(st.lists(fractions_st, min_size=6, max_size=6),
           st.sampled_from(GRID))
    @settings(max_examples=25, deadline=None)
    def test_projection_fixes_the_space(self, coeffs, mn):
        e = build_element(*mn)
        u0 = Polynomial.zero()
        for c, p in zip(coeffs, e.basis0):
            u0 = u0 + p * c
        assert interpolate(e, 0, u0) == u0
        u1 = Polynomial(coeffs[:e.n])  # any degree <= n-1 polynomial
        assert interpolate(e, 1, u1) == u1

    def test_against_sympy_solve(self):
        # independent oracle for (m, n) = (1, 4), u = x^5 + x^2/3:
        # solve the defining linear system symbolically
        e = build_element(1, 4)
        u_sym = sympy.Symbol("x") ** 5 + sympy.Symbol("x") ** 2 / 3
        x = sympy.Symbol("x")
        coeffs = sympy.symbols("c0:5")
        p_sym = sum(c * x ** i for i, c in enumerate(coeffs))

        def conditions(w):
            return [sympy.diff(w, x).subs(x, 0),
                    sympy.diff(w, x).subs(x, 1),
                    w.subs(x, 1) - w.subs(x, 0),
                    sympy.integrate((2 * x - 1) * sympy.diff(w, x), (x, 0, 1)),
                    w.subs(x, 1) + w.subs(x, 0)]

        equations = [sympy.Eq(a, b) for a, b in
                     zip(conditions(p_sym), conditions(u_sym))]
        solution = sympy.solve(equations, coeffs, dict=True)[0]
        expected = sympy.expand(p_sym.subs(solution))

        ours = interpolate(e, 0, poly(0, 0, Fraction(1, 3), 0, 0, 1))
        ours_sym = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                       for i, c in enumerate(ours.coeffs))
        assert sympy.expand(ours_sym - expected) == 0

    def test_functional_agreement_beyond_space(self, e13):
        u = poly(1, -2, 0, 4, 7, Fraction(1, 5))
        projected = interpolate(e13, 0, u)
        assert projected != u
        for f in e13.functionals0:
            assert f.apply(projected) == f.apply(u)

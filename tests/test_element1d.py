"""The 1D element pair: construction, unisolvence, interpolation.

The interpolation oracle is the defining property itself (every node
functional agrees on u and I(u), and I(u) lies in the element space),
plus an independent sympy linear solve for a frozen instance.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from derham import linalg
from derham.element1d import (Element1D, build_element, interpolate,
                              interpolation_coefficients, monomial_probes,
                              verify_commutation, verify_lemma_hypotheses,
                              verify_unisolvence, zero_form_basis)
from derham.polycore import Polynomial

GRID = [(0, 1), (0, 3), (1, 3), (1, 5), (2, 5), (2, 6), (3, 7)]

fractions_st = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def poly(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


@pytest.fixture(scope="module")
def e13() -> Element1D:
    return build_element(1, 3)


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="m must be >= 0"):
            build_element(-1, 3)
        with pytest.raises(ValueError, match="n >= 5"):
            build_element(2, 4)

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
        assert (e13.M0 == linalg.identity(4)).all()
        assert (e13.M1 == linalg.identity(3)).all()

    def test_frozen_m0_n1(self):
        e = build_element(0, 1)
        assert list(e.basis0) == [poly(Fraction(-1, 2), 1), poly(Fraction(1, 2))]
        assert (e.M0 == linalg.identity(2)).all()

    def test_zero_form_basis_matches_element(self):
        for m, n in GRID:
            assert list(build_element(m, n).basis0) == zero_form_basis(m, n)

    def test_stored_inverses(self):
        for m, n in GRID:
            e = build_element(m, n)
            assert (e.M0 @ e.alpha0 == linalg.identity(n + 1)).all()
            assert (e.M1 @ e.alpha1 == linalg.identity(n)).all()

    def test_form_degree_must_be_0_or_1(self, e13):
        with pytest.raises(ValueError, match="form degree must be 0 or 1"):
            interpolation_coefficients(e13, 2, Polynomial.one())


class TestVerifiers:
    def test_unisolvence_on_grid(self):
        for m, n in GRID:
            report = verify_unisolvence(build_element(m, n))
            assert report.passed, (m, n, report.witness)
            assert report.name == "unisolvence"
            assert report.parameters == {"m": m, "n": n}

    def test_unisolvence_flags_deletion_identity(self, e13):
        M1 = e13.M1.copy()
        M1[1, 2] += 1
        report = verify_unisolvence(dataclasses.replace(e13, M1=M1))
        assert {"check": "deletion-identity", "row": 2, "col": 3,
                "value": str(M1[1, 2])} in report.witness

    def test_lemma_hypotheses_on_grid(self):
        for m, n in GRID:
            report = verify_lemma_hypotheses(build_element(m, n))
            assert report.passed, (m, n, report.witness)
            assert report.parameters["probe_degree"] == n + 5

    def test_lemma_probe_degree_validated(self, e13):
        with pytest.raises(ValueError):
            verify_lemma_hypotheses(e13, probe_degree=2)

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

    def test_monomial_probes(self):
        probes = monomial_probes(3)
        assert [p.degree for p in probes] == [0, 1, 2, 3]


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

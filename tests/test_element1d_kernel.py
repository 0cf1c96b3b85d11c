"""The 1D verifiers on monomial tables against the routes they replaced.

The oracles are the old implementations.  Each node functional acts
through ``Polynomial`` products, derivatives and integrals; the node
matrices are assembled entry by entry, and also as the old Fraction
``node_table`` built them (functional monomial rows times basis
coefficient columns), and inverted by Fraction Gauss-Jordan
elimination; the functional pairing is checked probe by probe; and
commutation interpolates every probe twice and differentiates, then
multiplies each stored inverse by the table of the functionals on the
basis, which must be the identity.  The integer tables and kernels must
reproduce their matrices and reports exactly, witness order and
residual strings included.
"""

import dataclasses
import json
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import cli, element1d, linalg
from derham.corruptions import permute_alpha, swap_basis, wrong_functional
from derham.element1d import (Element1D, _family, build_element,
                              monomial_probes, verify_commutation,
                              verify_lemma_hypotheses)
from derham.functionals import (EndpointDerivative, EndpointSum, Moment,
                                one_form_functionals, zero_form_functionals)
from derham.polycore import Polynomial, legendre
from derham.report import VerificationReport

UNISOLVENCE_GRID = [(m, n) for m in range(5)
                    for n in range(2 * m + 1, 2 * m + 7)]
CONTROLS = {None: None, "swap-basis": swap_basis,
            "wrong-functional": wrong_functional,
            "permute-alpha": permute_alpha}


@lru_cache(maxsize=None)
def polynomial_route(f, u: Polynomial) -> Fraction:
    """The old ``apply``: the functional evaluated on the polynomial."""
    if isinstance(f, EndpointDerivative):
        return u.derivative_value(f.order, Fraction(f.point))
    if isinstance(f, Moment):
        integrand = u.derivative() if f.of_derivative else u
        return (legendre(f.legendre_index) * integrand).integral01()
    assert isinstance(f, EndpointSum)
    return u(Fraction(1)) + u(Fraction(0))


def coefficient_matrix(polys, width: int) -> np.ndarray:
    """The old Fraction coefficient matrix: the monomial coefficients of
    ``polys``, one zero-padded row each."""
    out = np.full((len(polys), width), Fraction(0), dtype=object)
    for row, p in zip(out, polys):
        row[:len(p.coeffs)] = p.coeffs
    return out


def oracle_table(functionals, basis) -> np.ndarray:
    return np.array([[polynomial_route(f, b) for b in basis]
                     for f in functionals], dtype=object)


def fraction_node_table(functionals, basis) -> np.ndarray:
    """The old ``node_table``: Fraction monomial rows of the functionals
    (their closed-form values) times the Fraction coefficient columns of
    the basis."""
    width = max((len(p.coeffs) for p in basis), default=0)
    rows = np.array([[f.monomial_value(k) for k in range(width)]
                     for f in functionals],
                    dtype=object).reshape(len(functionals), width)
    return rows @ coefficient_matrix(basis, width).T


def fraction_inverse(matrix: np.ndarray) -> np.ndarray:
    """Fraction Gauss-Jordan inversion with first-nonzero pivots."""
    size = len(matrix)
    a = np.hstack([np.array(matrix, dtype=object),
                   np.eye(size, dtype=int).astype(object)]) * Fraction(1)
    for col in range(size):
        pivot = next(i for i in range(col, size) if a[i, col] != 0)
        a[[col, pivot]] = a[[pivot, col]]
        a[col] = a[col] / a[col, col]
        for i in range(size):
            if i != col and a[i, col] != 0:
                a[i] = a[i] - a[i, col] * a[col]
    return a[:, size:]


def oracle_interpolate(e, k, u: Polynomial) -> Polynomial:
    functionals, basis, alpha = ((e.functionals0, e.basis0, e.alpha0)
                                 if k == 0 else
                                 (e.functionals1, e.basis1, e.alpha1))
    values = np.array([polynomial_route(f, u) for f in functionals],
                      dtype=object)
    coeffs = alpha.fractions() @ values
    result = Polynomial.zero()
    for c, p in zip(coeffs, basis):
        result = result + p * c
    return result


def oracle_commutation(e, probes) -> VerificationReport:
    witness = []
    for index, u in enumerate(probes):
        residual = (oracle_interpolate(e, 0, u).derivative()
                    - oracle_interpolate(e, 1, u.derivative()))
        if not residual.is_zero():
            witness.append({"check": "commutation", "probe": index,
                            "probe_degree": u.degree,
                            "residual": [str(c) for c in residual.coeffs]})
    for k, (functionals, basis, alpha) in enumerate((
            (e.functionals0, e.basis0, e.alpha0),
            (e.functionals1, e.basis1, e.alpha1))):
        product = alpha.fractions() @ oracle_table(functionals, basis)
        for i in range(len(basis)):
            for j in range(len(basis)):
                if product[i, j] != (i == j):
                    witness.append({"check": "projection", "form": k,
                                    "row": i + 1, "col": j + 1})
    return VerificationReport(name="commutation", passed=not witness,
                              parameters={"m": e.m, "n": e.n,
                                          "probes": len(probes)},
                              witness=witness)


def oracle_lemma_hypotheses(e, probe_degree) -> VerificationReport:
    m, n = e.m, e.n
    witness = []
    if not e.basis0[n].derivative().is_zero():
        witness.append({"check": "kernel", "detail":
                        "d of the last basis function is not zero"})
    for i in range(n):
        value = polynomial_route(e.functionals0[i], e.basis0[n])
        if value != 0:
            witness.append({"check": "kernel-separation", "functional": i + 1,
                            "value": str(value)})
    for j in range(n):
        value = polynomial_route(e.functionals0[n], e.basis0[j])
        if value != 0:
            witness.append({"check": "kernel-separation", "basis": j + 1,
                            "value": str(value)})
    derived = [p.derivative() for p in e.basis0[:n]]
    if linalg.rank(coefficient_matrix(derived, n)) != n:
        witness.append({"check": "range", "detail":
                        "derivatives of the first n basis functions do not "
                        "span the 1-form space"})
    for j in range(n):
        if derived[j] != e.basis1[j]:
            witness.append({"check": "basis-pairing", "basis": j + 1})
    for probe in monomial_probes(probe_degree):
        du = probe.derivative()
        for i in range(n):
            left = polynomial_route(e.functionals1[i], du)
            right = polynomial_route(e.functionals0[i], probe)
            if left != right:
                witness.append({"check": "functional-pairing",
                                "functional": i + 1,
                                "probe_degree": probe.degree,
                                "left": str(left), "right": str(right)})
    return VerificationReport(name="lemma-hypotheses", passed=not witness,
                              parameters={"m": m, "n": n,
                                          "probe_degree": probe_degree},
                              witness=witness)


def report_json(report) -> str:
    return json.dumps(report.to_json(), indent=2)


def elements(m, n):
    """The pristine element and every 1D fixture that applies to it."""
    pristine = build_element(m, n)
    return {name: pristine if fixture is None else fixture(pristine)
            for name, fixture in CONTROLS.items()
            if n >= 2 or name in (None, "wrong-functional")}


def random_probes(seed, count, max_degree):
    """Rational probes drawn like the CLI's ``--random-probes``."""
    rng = random.Random(seed)
    return [Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(max_degree + 1)])
            for _ in range(count)]


@pytest.mark.parametrize("m, n", UNISOLVENCE_GRID)
def test_tables_match_entrywise_assembly(m, n):
    pristine = build_element(m, n)
    for name, e in elements(m, n).items():
        tables = (oracle_table(e.functionals0, e.basis0),
                  oracle_table(e.functionals1, e.basis1))
        for k, table in enumerate(tables):
            assert (fraction_node_table(_family(e, k)[0],
                                        getattr(e, f"basis{k}")) == table).all()
            assert (e.node_table(k).fractions() == table).all()
        # wrong-functional keeps the pristine tables on purpose, and
        # permute-alpha the pristine alpha_1 with two rows swapped
        stored = tables if name != "wrong-functional" else (
            oracle_table(pristine.functionals0, pristine.basis0),
            oracle_table(pristine.functionals1, pristine.basis1))
        inverses = [fraction_inverse(table) for table in stored]
        if name == "permute-alpha":
            inverses[1][[0, 1]] = inverses[1][[1, 0]]
        for k in (0, 1):
            M, alpha = (e.M0, e.alpha0) if k == 0 else (e.M1, e.alpha1)
            assert (M.fractions() == stored[k]).all()
            assert (alpha.fractions() == inverses[k]).all()
        parts = (m, n, e.functionals0, e.functionals1, e.B0, e.B1)
        if linalg.rank(tables[1]) < n:  # a wrong functional can do this
            with pytest.raises(ZeroDivisionError):
                Element1D(*parts)
            continue
        rebuilt = Element1D(*parts)
        for k, table in enumerate(tables):
            M, alpha = (rebuilt.M0, rebuilt.alpha0) if k == 0 else \
                (rebuilt.M1, rebuilt.alpha1)
            assert (M.fractions() == table).all()
            assert (alpha.fractions() == fraction_inverse(table)).all()
            assert alpha == linalg.invert(table)


@pytest.mark.parametrize("m, n", UNISOLVENCE_GRID)
def test_lemma_hypotheses_match_oracle(m, n):
    for name, e in elements(m, n).items():
        for degree in (n, n + 9):
            got = verify_lemma_hypotheses(e, degree)
            assert report_json(got) == \
                report_json(oracle_lemma_hypotheses(e, degree))
            assert got.passed == (name != "wrong-functional")


@pytest.mark.parametrize("m, n", UNISOLVENCE_GRID)
def test_commutation_matches_oracle(m, n, monkeypatch):
    for name, e in elements(m, n).items():
        for degree in (n, n + 9):
            probes = monomial_probes(degree) + random_probes(m + n, 3, degree)
            got = verify_commutation(e, probes)
            assert report_json(got) == \
                report_json(oracle_commutation(e, probes))
            assert got.passed == (name in (None, "swap-basis"))
            # a proved zero defect gives the report that building C gives
            with monkeypatch.context() as patch:
                patch.setattr(element1d, "_premises_hold", lambda e, w: False)
                assert report_json(verify_commutation(e, probes)) == \
                    report_json(got)


def spied_defect(monkeypatch) -> list:
    """The widths of every ``_defect`` call from now on."""
    widths, defect = [], element1d._defect
    monkeypatch.setattr(element1d, "_defect", lambda e, width: (
        widths.append(width), defect(e, width))[1])
    return widths


class TestDefectOnlyWhereAPremiseFails:
    ARGV = ["verify", "--checks", "unisolvence,lemma-hypotheses,commutation",
            "--random-probes", "3", "--seed", "1"]

    def test_not_built_on_the_pristine_grid(self, monkeypatch, capsys):
        widths = spied_defect(monkeypatch)
        assert cli.main(self.ARGV + ["--m", "0..4", "--n", "auto+5"]) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 90
        assert widths == []

    @pytest.mark.parametrize("corrupt", ["permute-alpha", "wrong-functional"])
    def test_built_on_the_controls(self, monkeypatch, capsys, corrupt):
        widths = spied_defect(monkeypatch)
        assert cli.main(self.ARGV + ["--m", "1", "--n", "3", "--corrupt",
                                     corrupt]) == 1
        assert widths == [9]  # the CLI's probes reach x^(n+5)

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 3), (2, 7)])
    def test_not_built_for_inverses_scaled_alike(self, monkeypatch, m, n):
        """alpha_0 / 7 and alpha_1 / 7 keep premise (c) over denominators
        other than 1 (a built element's inverses are integer): C is still
        zero, so only the projection check fails."""
        e = build_element(m, n)
        e = dataclasses.replace(e, **{
            name: linalg.Exact.reduced(table.nums, 7 * table.den)
            for name, table in (("alpha0", e.alpha0), ("alpha1", e.alpha1))})
        assert (e.alpha0.den, e.alpha1.den) == (7, 7)
        widths = spied_defect(monkeypatch)
        report = verify_commutation(e)
        assert widths == []
        assert {w["check"] for w in report.witness} == {"projection"}
        assert report_json(report) == report_json(
            oracle_commutation(e, monomial_probes(n + 5)))

    def test_functional_pairing_read_at_the_call_width(self, monkeypatch):
        e, widths = wrong_functional(build_element(1, 3)), []
        pairing = element1d._functional_pairing
        monkeypatch.setattr(element1d, "_functional_pairing", lambda e, w: (
            widths.append(w), pairing(e, w))[1])
        assert not verify_lemma_hypotheses(e, 3).passed
        # a narrower mask, cleared, must not stand in for the call's width
        left, right, differ = pairing(e, 4)
        e._memo["functional pairing", 4] = left, right, np.zeros_like(differ)
        report = verify_commutation(e, monomial_probes(12))
        assert widths == [4, 13]
        assert report_json(report) == report_json(
            oracle_commutation(e, monomial_probes(12)))
        assert report.witness[0]["check"] == "commutation"


@pytest.mark.parametrize("probes", [
    [], [Polynomial.zero()], [Polynomial.one()],
    [Polynomial.zero(), Polynomial.monomial(7, Fraction(-3, 4)),
     Polynomial.one()],
], ids=["empty", "zero", "constant", "mixed"])
@pytest.mark.parametrize("m, n", [(0, 1), (1, 3), (2, 7)])
def test_commutation_edge_probes(m, n, probes):
    for e in elements(m, n).values():
        got = verify_commutation(e, probes)
        assert report_json(got) == report_json(oracle_commutation(e, probes))
        assert got.parameters["probes"] == len(probes)


fractions_st = st.fractions(min_value=-7, max_value=7, max_denominator=9)
polys_st = st.lists(fractions_st, min_size=0, max_size=12).map(Polynomial)
mn_st = st.integers(0, 3).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(2 * m + 1, 2 * m + 5)))


@settings(max_examples=60, deadline=None)
@given(mn=mn_st, u=polys_st)
def test_closed_form_apply_matches_polynomial_route(mn, u):
    m, n = mn
    for f in (*zero_form_functionals(m, n), *one_form_functionals(m, n)):
        assert f.apply(u) == polynomial_route.__wrapped__(f, u)

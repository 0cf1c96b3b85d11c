"""The batched integer kernel against the per-form oracles it replaced.

The commutation oracle is the old Fraction route: every factor of every
probe is interpolated to a Polynomial, re-expanded over the basis
through the inverse of its monomial-coefficient matrix, and the N-D
blocks are built and compared probe by probe in Fraction object arrays.
The dd-zero oracle is the old per-basis-element loop: one dense
Fraction form per unit, d applied twice, and the polynomial routes
expanded through per-term outer products.  The kernel must reproduce
their reports exactly, witness order, ``blocks`` and ``max_abs``
included.
"""

import gc
import itertools
import json
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham.corruptions import permute_alpha, swap_basis, wrong_functional
from derham.element1d import assemble_element, build_element, interpolate
from derham.polycore import Polynomial
from derham.report import VerificationReport
from derham.tensor import (RankOneForm, TensorForm, d_rank_one, enumerate_chi,
                           expand_in_basis, flat_sign, rank_one,
                           rank_one_monomial_probes, tensor_interpolate, theta,
                           verify_dd_zero, verify_tensor_commutation)

TENSOR_GRID = [(m, n) for m in (0, 1, 2) for n in range(2 * m + 1, 2 * m + 4)]


def oracle_expand(dimension, nu, terms, element, column=expand_in_basis):
    out = TensorForm.zero(dimension, nu, element.n)
    for term in terms:
        arr = None
        for bit, p in term.factors:
            vec = column(element, bit, p)
            arr = vec if arr is None else np.multiply.outer(arr, vec)
        out.blocks[term.chi] = out.blocks[term.chi] + term.sign * arr
    return out


def oracle_interpolate(dimension, nu, terms, element):
    return oracle_expand(
        dimension, nu, terms, element,
        lambda e, bit, p: expand_in_basis(e, bit, interpolate(e, bit, p)))


def oracle_d(u, sign_rule):
    N, n = u.dimension, u.degree
    if u.nu >= N:
        return TensorForm(N, u.nu + 1, n, {})
    out = TensorForm.zero(N, u.nu + 1, n)
    for chi, block in u.blocks.items():
        for t in range(N):
            if chi[t] == 1:
                continue
            target = chi[:t] + (1,) + chi[t + 1:]
            slicer = tuple(slice(0, n) if axis == t else slice(None)
                           for axis in range(N))
            piece = block[slicer]
            if sign_rule(chi, t) < 0:
                piece = -piece
            out.blocks[target] = out.blocks[target] + piece
    return out


def oracle_verify(dimension, nu, probes, element, sign_rule=theta):
    witness = []
    for index, probe in enumerate(probes):
        terms = [probe] if isinstance(probe, RankOneForm) else list(probe)
        lhs = oracle_d(oracle_interpolate(dimension, nu, terms, element),
                       sign_rule)
        if nu == dimension:
            continue
        du = [piece for term in terms for piece in d_rank_one(term, sign_rule)]
        residual = lhs - oracle_interpolate(dimension, nu + 1, du, element)
        if not residual.is_zero():
            bad_blocks = [list(chi) for chi, block in residual.blocks.items()
                          if not bool((block == 0).all())]
            witness.append({"check": "tensor-commutation", "probe": index,
                            "blocks": bad_blocks,
                            "max_abs": str(residual.max_abs())})
    return VerificationReport(name="tensor-commutation", passed=not witness,
                              parameters={"N": dimension, "nu": nu,
                                          "m": element.m, "n": element.n,
                                          "probes": len(probes)},
                              witness=witness)


def oracle_dd_zero(dimension, element, sign_rule=theta):
    n = element.n
    witness = []
    checked = 0
    for nu in range(dimension + 1):
        for chi in enumerate_chi(dimension, nu):
            widths = [n + 1 - bit for bit in chi]
            for idx in itertools.product(*(range(w) for w in widths)):
                unit = TensorForm.zero(dimension, nu, n)
                unit.blocks[chi][idx] = Fraction(1)
                first = oracle_d(unit, sign_rule)
                second = oracle_d(first, sign_rule)
                checked += 1
                where = {"nu": nu, "chi": list(chi),
                         "index": [j + 1 for j in idx]}
                if not second.is_zero():
                    witness.append({"check": "dd-zero", **where})
                    continue
                poly = rank_one(
                    [(bit, (element.basis0 if bit == 0 else element.basis1)[j])
                     for bit, j in zip(chi, idx)])
                d_poly = d_rank_one(poly, sign_rule)
                via_poly = oracle_expand(dimension, nu + 1, d_poly, element) \
                    if nu < dimension else TensorForm(dimension, nu + 1, n, {})
                if not via_poly == first:
                    witness.append({"check": "representation-consistency",
                                    **where})
                    continue
                dd_terms = [piece for term in d_poly
                            for piece in d_rank_one(term, sign_rule)]
                if nu + 2 <= dimension:
                    ok = oracle_expand(dimension, nu + 2, dd_terms,
                                       element).is_zero()
                else:
                    ok = not dd_terms
                if not ok:
                    witness.append({"check": "dd-zero-polynomial", **where})
    return VerificationReport(name="dd-zero", passed=not witness,
                              parameters={"N": dimension, "m": element.m,
                                          "n": element.n,
                                          "basis_elements": checked},
                              witness=witness)


def report_json(report) -> str:
    return json.dumps(report.to_json(), indent=2)


def assert_same_report(dimension, nu, probes, element, sign_rule=theta):
    got = verify_tensor_commutation(dimension, nu, probes, element, sign_rule)
    want = oracle_verify(dimension, nu, probes, element, sign_rule)
    assert report_json(got) == report_json(want)
    return got


def scaled_basis1(e):
    """basis1[0] doubled, assembled consistently: d(basis0[0]) is then
    half a 1-form basis function, which the index rule cannot see."""
    basis1 = list(e.basis1)
    basis1[0] = basis1[0] * 2
    return assemble_element(e.m, e.n, e.functionals0, e.functionals1,
                            e.basis0, basis1)


_CORRUPTIONS = {"permute-alpha": permute_alpha,
                "wrong-functional": wrong_functional,
                "swap-basis": swap_basis,
                "scaled-basis1": scaled_basis1}
_ELEMENTS: dict = {}


def element(m, n, control=None):
    key = (m, n, control)
    if key not in _ELEMENTS:
        _ELEMENTS[key] = build_element(m, n) if control is None \
            else _CORRUPTIONS[control](element(m, n))
    return _ELEMENTS[key]


def controls(n):
    """(element control, sign rule) pairs; permute-alpha needs n >= 2."""
    out = [(None, theta), ("wrong-functional", theta), (None, flat_sign)]
    if n >= 2:
        out.append(("permute-alpha", theta))
    return out


def poly(*coeffs) -> Polynomial:
    return Polynomial([Fraction(c) for c in coeffs])


@pytest.mark.parametrize("mn", TENSOR_GRID)
def test_kernel_matches_oracle_on_tensor_grid(mn):
    m, n = mn
    failed = 0
    for control, sign_rule in controls(n):
        e = element(m, n, control)
        for dimension, degrees in ((2, {1, n, n + 3}), (3, {0, n + 3})):
            for nu in range(dimension + 1):
                probes = rank_one_monomial_probes(dimension, nu, degrees)
                report = assert_same_report(dimension, nu, probes, e,
                                            sign_rule)
                failed += not report.passed
    # the corrupted 1-form tables must actually produce witnesses
    assert failed > 0


MULTI_TERM_PROBES = {
    (2, 0): [
        [rank_one([(0, poly(Fraction(1, 3), -2, 0, 5)), (0, poly(0, 1, 7))],
                  sign=Fraction(-3, 7)),
         rank_one([(0, poly(2, Fraction(-5, 4))),
                   (0, poly(0, 0, 0, 0, 0, Fraction(2, 9)))],
                  sign=Fraction(5, 2))],
        [rank_one([(0, poly(1, 1)), (0, poly(1, -1))], sign=Fraction(2, 3)),
         rank_one([(0, poly(1, 1)), (0, poly(1, -1))], sign=Fraction(-2, 3))],
        [],
    ],
    (2, 1): [
        [rank_one([(0, poly(0, Fraction(3, 5), 1, 0, 0, 1)),
                   (1, poly(Fraction(-1, 2), 0, 3))], sign=Fraction(7, 11)),
         rank_one([(1, poly(4, 0, 0, Fraction(1, 6))),
                   (0, poly(0, 0, 1, 1, 1))], sign=Fraction(-9, 4)),
         rank_one([(0, poly(Fraction(5, 3), 1)), (1, poly(0, 2))],
                  sign=Fraction(1, 8))],
    ],
    (3, 1): [
        [rank_one([(0, poly(1, Fraction(1, 2), 0, 0, 0, 3)),
                   (1, poly(0, 0, Fraction(-4, 3))),
                   (0, poly(Fraction(2, 7), 0, 0, 1))], sign=Fraction(-5, 6)),
         rank_one([(0, poly(0, 1, 1)), (0, poly(3, 0, 0, 0, 0, 1)),
                   (1, poly(Fraction(1, 9), 2))], sign=Fraction(3, 2))],
    ],
    (3, 2): [
        [rank_one([(1, poly(0, Fraction(2, 3), 0, 1)), (0, poly(1, 0, 0, 1)),
                   (1, poly(Fraction(-1, 5), 1))], sign=Fraction(4, 3)),
         rank_one([(1, poly(1)), (1, poly(0, 0, 1)),
                   (0, poly(0, Fraction(1, 4), 0, 0, 0, 0, 1))],
                  sign=Fraction(-1, 12))],
    ],
}


@pytest.mark.parametrize("mn", [(0, 2), (1, 3), (2, 6)])
def test_multi_term_probes_match_oracle(mn):
    m, n = mn
    for control, sign_rule in controls(n):
        e = element(m, n, control)
        for (dimension, nu), probes in MULTI_TERM_PROBES.items():
            probes = probes + [probes[0][0]]  # a bare rank-one probe as well
            assert_same_report(dimension, nu, probes, e, sign_rule)


def test_tensor_interpolate_matches_oracle():
    e = element(1, 4, "permute-alpha")
    for (dimension, nu), probes in MULTI_TERM_PROBES.items():
        for probe in probes:
            got = tensor_interpolate(dimension, nu, probe, e)
            want = oracle_interpolate(dimension, nu, probe, e)
            assert got == want
            assert all(isinstance(v, Fraction)
                       for block in got.blocks.values() for v in block.flat)


@st.composite
def random_cases(draw):
    m = draw(st.integers(0, 2))
    n = draw(st.integers(2 * m + 1, 2 * m + 3))
    dimension = draw(st.sampled_from([2, 3]))
    nu = draw(st.integers(0, dimension))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    chis = enumerate_chi(dimension, nu)

    def term():
        chi = draw(st.sampled_from(chis))
        factors = [(bit, Polynomial(draw(st.lists(rationals, min_size=1,
                                                   max_size=n + 4))))
                   for bit in chi]
        return rank_one(factors, sign=draw(rationals))

    probes = [[term() for _ in range(draw(st.integers(1, 3)))]
              for _ in range(draw(st.integers(1, 4)))]
    control, sign_rule = draw(st.sampled_from(controls(n)))
    return element(m, n, control), dimension, nu, probes, sign_rule


@settings(max_examples=40, deadline=None)
@given(random_cases())
def test_kernel_matches_oracle_on_random_probes(case):
    e, dimension, nu, probes, sign_rule = case
    assert_same_report(dimension, nu, probes, e, sign_rule)


def test_probe_space_mismatch_rejected():
    e = element(0, 2)
    with pytest.raises(ValueError, match="expected 2 and 1"):
        verify_tensor_commutation(2, 1, [rank_one([(0, poly(1)),
                                                   (0, poly(1))])], e)


def test_no_probes_is_vacuous():
    report = verify_tensor_commutation(2, 1, [], element(0, 2))
    assert report.passed and report.parameters["probes"] == 0


def test_elements_collectable_after_tensor_verifiers():
    e = build_element(1, 3)
    verify_dd_zero(2, e)
    verify_tensor_commutation(2, 1, rank_one_monomial_probes(2, 1, range(6)),
                              e)
    ref = weakref.ref(e)
    del e
    gc.collect()
    assert ref() is None


def assert_same_dd_zero(dimension, e, sign_rule=theta):
    got = verify_dd_zero(dimension, e, sign_rule)
    want = oracle_dd_zero(dimension, e, sign_rule)
    assert report_json(got) == report_json(want)
    return {w["check"] for w in got.witness}


def check_dd_zero_controls(dimension, m, n, corruptions):
    assert assert_same_dd_zero(dimension, element(m, n)) == set()
    assert "dd-zero" in assert_same_dd_zero(dimension, element(m, n),
                                            flat_sign)
    # the index rule cannot see the scaled basis; only route 2 can
    assert assert_same_dd_zero(dimension, element(m, n, "scaled-basis1")) \
        == {"representation-consistency"}
    for control in corruptions:
        # consistent rebuilds and 1-form tables leave d after d intact
        assert assert_same_dd_zero(dimension, element(m, n, control)) == set()


@pytest.mark.parametrize("mn", TENSOR_GRID)
def test_dd_zero_matches_oracle_2d(mn):
    m, n = mn
    corruptions = ["wrong-functional"]
    if n >= 2:
        corruptions += ["swap-basis", "permute-alpha"]
    check_dd_zero_controls(2, m, n, corruptions)


@pytest.mark.parametrize("mn", [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)])
def test_dd_zero_matches_oracle_3d(mn):
    m, n = mn
    corruptions = ["wrong-functional", "swap-basis", "permute-alpha"] \
        if mn == (1, 3) else []
    check_dd_zero_controls(3, m, n, corruptions)


def test_dd_zero_matches_oracle_4d():
    check_dd_zero_controls(4, 0, 1, ["wrong-functional"])
    assert assert_same_dd_zero(4, element(1, 3, "scaled-basis1")) == \
        {"representation-consistency"}
    report = verify_dd_zero(4, element(1, 3))
    assert report.passed and report.parameters["basis_elements"] == 7 ** 4


@pytest.mark.parametrize("dd_zero_first", [True, False])
def test_column_sources_never_mix(dd_zero_first):
    """Interpolant columns and basis expansions share one memo per
    element; on permute-alpha they differ for the same (k, p), so a
    report must not depend on which verifier filled the memo first."""
    def fresh():
        return permute_alpha(build_element(1, 3))

    e = fresh()
    probes = [rank_one([(0, p), (0, q)]) for p in e.basis0 for q in e.basis0]
    runs = [lambda x: verify_dd_zero(2, x),
            lambda x: verify_tensor_commutation(2, 0, probes, x)]
    if not dd_zero_first:
        runs.reverse()
    for run in runs:
        assert report_json(run(e)) == report_json(run(fresh()))
    assert not verify_tensor_commutation(2, 0, probes, e).passed

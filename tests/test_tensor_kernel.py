"""The exact kernel and the factored grid verifiers against the
per-form oracles they replaced.

The commutation oracle is the old Fraction route: every factor of every
probe is interpolated to a Polynomial, re-expanded over the basis
through the inverse of its monomial-coefficient matrix, and the N-D
blocks are built and compared probe by probe in Fraction object arrays.
The dd-zero oracle is the old per-basis-element loop: one dense
Fraction form per unit, d applied twice, and the polynomial routes
expanded through per-term outer products (d twice included, so the
reports show that route never names a witness the other two miss).  The
kron-structure oracle applies every product functional to every
rank-one basis element and row-reduces the full product.  The verifiers
must reproduce their reports exactly, witness order, ``blocks`` and
``max_abs`` included.  The kernel, which fills blocks with Kronecker
products of 1D columns, is checked through its single-form entry points
(``canonicalize``, ``tensor_interpolate``) against the per-factor
Fraction columns, and the commutation residual it builds from the 1D
residual r entry by entry against d(I u) - I(du) of the oracles, with
du from the rank-one route ``d_rank_one``, which keeps its own loop
rather than the shared d rule.  The residual is in turn the oracle of
the factored ``verify_monomial_commutation``, which decides from 1D
columns and must give the report of ``verify_tensor_commutation`` on
the explicit probes; a guard counts the column products and term passes
of each verifier, and checks that neither grid verifier makes a
Polynomial.  Entries past 2**63 are checked against the Fraction
oracles.  The materializing dd-zero (the index rule twice on an all-ones
block per chi, and B_1^-1 D B_0 through two inverses) is the oracle of
the one that decides from axis pairs and from D B_0 against [B_1 | 0].
"""

import contextlib
import dataclasses
import gc
import io
import itertools
import json
import math
import random
import re
import weakref
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import element1d, linalg, polycore, tensor
from derham.cli import CHECKS, main
from derham.corruptions import (permute_alpha, scale_basis1, swap_basis,
                               wrong_functional)
from derham.element1d import Element1D, build_element, interpolate
from derham.polycore import Polynomial, coefficients
from derham.report import VerificationReport
from derham.smooth import sinusoid
from derham.tensor import (RankOneForm, TensorForm, _basis_inverse,
                           canonicalize, d_rank_one, d_smooth, d_tensor,
                           enumerate_chi, expand_in_basis, flat_sign, rank_one,
                           rank_one_monomial_probes, tensor_interpolate,
                           tensor_node_functionals, theta, verify_dd_zero,
                           verify_kron_structure, verify_monomial_commutation,
                           verify_tensor_commutation)

TENSOR_GRID = [(m, n) for m in (0, 1, 2) for n in range(2 * m + 1, 2 * m + 4)]


def coefficient_matrix(polys, width: int) -> np.ndarray:
    """The old Fraction coefficient matrix: the monomial coefficients of
    ``polys``, one zero-padded row each."""
    out = np.full((len(polys), width), Fraction(0), dtype=object)
    for row, p in zip(out, polys):
        row[:len(p.coeffs)] = p.coeffs
    return out


def fraction_expand(element, bit, p):
    """The Fraction route of the basis expansion: the inverse of the
    basis's monomial-coefficient matrix times p's coefficients."""
    return _basis_inverse(element, bit).fractions() @ \
        coefficient_matrix([p], element.n + 1 - bit)[0]


def oracle_expand(dimension, nu, terms, element, column=fraction_expand):
    out = TensorForm.zero(dimension, nu, element.n)
    for term in terms:
        arr = None
        for bit, p in term.factors:
            vec = column(element, bit, p)
            arr = vec if arr is None else np.multiply.outer(arr, vec)
        out.blocks[term.chi] = out.blocks[term.chi] + term.sign * arr
    return out


def interpolated_column(element, bit, p):
    """The Fraction route of I_k p: interpolate to a Polynomial, expand."""
    return fraction_expand(element, bit, interpolate(element, bit, p))


def oracle_interpolate(dimension, nu, terms, element):
    return oracle_expand(dimension, nu, terms, element, interpolated_column)


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
    return Element1D(e.m, e.n, e.functionals0, e.functionals1, e.B0,
                     coefficients(basis1, e.n))


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


@pytest.mark.parametrize("value", [0, 0.5, True])
def test_sign_rule_values_other_than_one_are_rejected(value):
    """A sign rule must give the int 1 or -1: a 0 would act as +1 in the
    index rule and the residual but weight d_rank_one's term by 0, and a
    0.5 or True would be taken silently.  Every d raises, naming chi,
    axis and value."""
    e = element(1, 3)

    def rule(chi, t):
        return value if t == 1 else theta(chi, t)

    u = rank_one([(0, poly(0, 1, 1)), (0, poly(1, 2))])
    runs = [lambda: d_tensor(canonicalize(u, e), rule),
            lambda: d_smooth(sinusoid([1.0, 2.0]), sign_rule=rule),
            lambda: verify_dd_zero(2, e, rule),
            lambda: verify_monomial_commutation(2, 0, 2, e, rule),
            lambda: verify_tensor_commutation(2, 0, [u], e, rule),
            lambda: d_rank_one(u, rule)]
    for run in runs:
        with pytest.raises(ValueError, match=rf"sign rule gave {value!r} "
                           r"for chi \(0, 0\), axis 1; expected the int 1"):
            run()


@pytest.mark.parametrize("run, bad", [
    (lambda e, u, x: verify_tensor_commutation(2, 0, [[1, 2]], e),
     "0 has type int"),
    (lambda e, u, x: canonicalize([u, x], e, 2, 0), "1 has type Polynomial"),
    (lambda e, u, x: tensor_interpolate(2, 0, [x], e),
     "0 has type Polynomial"),
], ids=["verify_tensor_commutation", "canonicalize", "tensor_interpolate"])
def test_non_rank_one_terms_are_rejected(run, bad):
    """A term that is not a RankOneForm is rejected where terms enter,
    naming its index and type, not deep in the term table."""
    x = poly(0, 1)
    with pytest.raises(TypeError, match=f"term {bad}, not RankOneForm"):
        run(element(1, 3), rank_one([(0, x), (0, x)]), x)


def test_bare_first_term_reaches_the_term_table():
    # dimension and nu are read off the first term only when it is one
    x = poly(0, 1)
    for terms in ([x], [x, rank_one([(0, x), (0, x)])]):
        with pytest.raises(TypeError, match="^term 0 has type Polynomial, "
                           "not RankOneForm$"):
            canonicalize(terms, element(1, 3))


@pytest.mark.parametrize("probes, index, kind", [
    ([1], 0, "int"), ([rank_one([(0, poly(1)), (0, poly(1))]), None], 1,
                      "NoneType")])
def test_probe_that_is_no_form_is_named(probes, index, kind):
    with pytest.raises(TypeError, match=rf"^probe {index} has type {kind}, "
                       "not a RankOneForm or a list of them$"):
        verify_tensor_commutation(2, 0, probes, element(1, 3))


def test_no_probes_is_vacuous():
    report = verify_tensor_commutation(2, 1, [], element(0, 2))
    assert report.passed and report.parameters["probes"] == 0


def test_elements_collectable_after_tensor_verifiers():
    e = build_element(1, 3)
    verify_dd_zero(2, e)
    verify_tensor_commutation(2, 1, rank_one_monomial_probes(2, 1, range(6)),
                              e)
    verify_monomial_commutation(2, 1, 5, e)
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


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1])
def test_dd_zero_rejects_a_singular_basis(dimension, k):
    """With its first function listed twice, the k-form basis has no
    inverse, so route 2 cannot read B_k^-1 B_k = I: dd-zero raises
    rather than report on the basis, as the inverting routes did.  The
    element is built through the constructor with the stored tables
    given, so nothing is inverted before dd-zero."""
    e = element(1, 3)
    basis = getattr(e, f"basis{k}")
    e = dataclasses.replace(e, **{f"B{k}": coefficients(
        [basis[0], *basis[:1], *basis[2:]], len(basis))})
    for verify in (routes_dd_zero, verify_dd_zero):
        with pytest.raises(ZeroDivisionError, match="^matrix is singular$"):
            verify(dimension, e)
        # a bad N is named first, by enumerate_chi for the form degree 0
        with pytest.raises(ValueError, match="^dimension must be >= 1$"):
            verify(0, e)
        with pytest.raises(TypeError, match="^dimension True or nu 0 is "
                                            "not an int$"):
            verify(True, e)


def test_dd_zero_matches_oracle_4d():
    check_dd_zero_controls(4, 0, 1, ["wrong-functional"])
    assert assert_same_dd_zero(4, element(1, 3, "scaled-basis1")) == \
        {"representation-consistency"}
    report = verify_dd_zero(4, element(1, 3))
    assert report.passed and report.parameters["basis_elements"] == 7 ** 4


def routes_dd_zero(dimension, e, sign_rule=theta):
    """The materializing dd-zero that the axis-pair one replaced.  Route
    1 applies the index rule twice to an all-ones block per chi and
    fails the nonzero entries; route 2 inverts B_0 (B_0^-1 B_0 = I) and
    B_1 and fails the basis elements with a nonzero column j_t of
    B_1^-1 D B_0 - [I_n | 0] on some 0-form axis t.  Both boolean masks
    are filled for every chi."""
    enumerate_chi(dimension, 0)
    n = e.n
    linalg.invert(e.B0)
    nums, den = linalg.product(linalg.invert(e.B1), element1d._derived(e.B0))
    moved = (nums != den * np.eye(n, n + 1, dtype=object)).any(axis=0)
    witness, checked = [], 0
    for nu in range(dimension + 1):
        for chi in enumerate_chi(dimension, nu):
            widths = tensor._block_widths(chi, n)
            checked += math.prod(widths)
            first = tensor._index_rule({chi: np.ones(widths, dtype=int)}, n,
                                       sign_rule)
            route1, route2 = np.zeros((2, *widths), dtype=bool)
            for block in tensor._index_rule(first, n, sign_rule).values():
                route1[tuple(map(slice, block.shape))] |= block != 0
            for t, _, _ in tensor._d_terms(chi, sign_rule):
                route2 |= tensor._along(moved, t, dimension)
            for index in np.argwhere(route1 | route2):
                witness.append({"check": "dd-zero" if route1[tuple(index)]
                                else "representation-consistency",
                                "nu": nu, "chi": list(chi),
                                "index": [int(j) + 1 for j in index]})
    return VerificationReport.of("dd-zero", witness, N=dimension, m=e.m,
                                 n=e.n, basis_elements=checked)


def mixed_sign(chi, t):
    """theta on the first two axes and +1 on the others: the two orders
    of the axis pair (0, 1) cancel, those of a pair with a later axis
    add up to +-2."""
    return theta(chi, t) if t < 2 else 1


DD_ZERO_CONTROLS = [(None, theta), ("swap-basis", theta),
                    ("wrong-functional", theta), ("permute-alpha", theta),
                    ("scaled-basis1", theta), (None, flat_sign),
                    (None, mixed_sign)]


@pytest.mark.parametrize("mn", TENSOR_GRID)
def test_dd_zero_matches_the_materializing_routes(mn):
    """verify_dd_zero, which decides route 1 from axis pairs and route 2
    from D B_0 against [B_1 | 0], gives the report of the two masks for
    N = 1..4, pristine and under every control."""
    m, n = mn
    checks = {}
    for control, sign_rule in DD_ZERO_CONTROLS:
        if n < 2 and control in ("swap-basis", "permute-alpha"):
            continue
        e = element(m, n, control)
        for dimension in (1, 2, 3, 4):
            got = verify_dd_zero(dimension, e, sign_rule)
            assert report_json(got) == \
                report_json(routes_dd_zero(dimension, e, sign_rule))
            checks[control, sign_rule, dimension] = \
                {w["check"] for w in got.witness}
    assert checks[None, flat_sign, 2] == {"dd-zero"}
    assert checks["scaled-basis1", theta, 2] == {"representation-consistency"}
    # only the cancelling pair (0, 1) exists at N = 2
    assert checks[None, mixed_sign, 2] == set()
    assert checks[None, mixed_sign, 3] == {"dd-zero"}
    assert not any(found for (control, rule, _), found in checks.items()
                   if rule is theta and control != "scaled-basis1")


CAPS = [1, 5, 37]  # 37 cuts inside a chi past the first in some cases


@pytest.mark.parametrize("cap", CAPS)
def test_capped_dd_zero_lists_the_first_witnesses_of_the_routes(
        monkeypatch, cap):
    """Under a lowered witness cap, verify_dd_zero lists the first ``cap``
    witnesses of the materializing routes' report (uncapped: each is
    under the real cap) and states that report's length as its count."""
    cases = [(3, element(1, 3), mixed_sign),
             (3, element(0, 2, "scaled-basis1"), theta),
             (3, element(1, 3, "scaled-basis1"), flat_sign),
             (4, element(0, 2), flat_sign)]
    for dimension, e, sign_rule in cases:
        want = routes_dd_zero(dimension, e, sign_rule).to_json()
        assert cap < len(want["witness"]) and want["details"] == {}
        monkeypatch.setattr("derham.report.WITNESS_CAP", cap)
        got = verify_dd_zero(dimension, e, sign_rule).to_json()
        monkeypatch.undo()
        assert got == {**want, "witness": want["witness"][:cap],
                       "details": {"failures": len(want["witness"]),
                                   "witness_cap": cap}}


@pytest.mark.parametrize("dimension, zeros", [
    (2, {((1, 0), 1), ((0, 1), 0)}),
    (3, {((0, 1, 0), 2), ((1, 0, 0), 2)}),
    (3, {((1, 1, 0), 2), ((0, 0, 1), 1)}),
    (3, {((0, 0, 0), 2), ((1, 0, 0), 1)}),
    (4, {((0, 1, 1, 0), 3), ((1, 0, 0, 1), 2), ((0, 0, 1, 0), 3)}),
])
def test_a_zero_sign_raises_the_routes_error(dimension, zeros):
    """A sign rule that gives 0, at a target of d or at a chi itself,
    raises the ValueError that the materializing routes raise: the sign
    rule is asked in their order, so the first bad (chi, axis) is the
    same."""
    def rule(chi, t):
        return 0 if (chi, t) in zeros else theta(chi, t)

    e = element(1, 3)
    with pytest.raises(ValueError, match="^sign rule gave 0") as want:
        routes_dd_zero(dimension, e, rule)
    with pytest.raises(ValueError) as got:
        verify_dd_zero(dimension, e, rule)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("k", [0, 1])
def test_a_singular_table_falls_back_to_the_basis_rank(monkeypatch, k):
    """A duplicated k-form functional makes T_k B_k singular, which
    proves nothing about B_k: dd-zero ranks B_k itself, finds it
    invertible and gives the report of the inverting routes."""
    e = element(1, 3)
    functionals = getattr(e, f"functionals{k}")
    e = dataclasses.replace(e, **{f"functionals{k}": (functionals[0],
                                                      *functionals[:-1])})
    assert linalg.rank(e.node_table(k)) < len(functionals)
    ranked = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda matrix: ranked.append(matrix)
                        or rank(matrix))
    failed = 0
    for sign_rule, dimension in itertools.product((theta, flat_sign),
                                                  (1, 2, 3)):
        got = report_json(verify_dd_zero(dimension, e, sign_rule))
        assert got == report_json(routes_dd_zero(dimension, e, sign_rule))
        failed += '"passed": false' in got
    assert failed == 2  # flat_sign at N = 2 and 3
    assert any(matrix is getattr(e, f"B{k}") for matrix in ranked)


def test_pristine_dd_zero_fills_no_mask(monkeypatch):
    """On a pristine element no axis pair fails and D B_0 is [B_1 | 0],
    so no chi fills a mask: (2, 7) at N = 8 never reaches _along (one
    block mask has 8^8 entries)."""
    def refuse(*args):
        raise AssertionError("a passing chi filled a mask")

    e = build_element(2, 7)
    monkeypatch.setattr(tensor, "_along", refuse)
    report = verify_dd_zero(8, e)
    assert report.passed and report.parameters["basis_elements"] == 15 ** 8


def test_built_elements_make_no_elimination(monkeypatch):
    """On built elements the node tables T_k B_k are lower triangular
    with a nonzero diagonal: that proves B_k invertible for dd-zero and
    gives kron-structure its ranks, so neither verifier reaches the
    Bareiss loop or an inverse."""
    elements = [build_element(m, n) for m, n in TENSOR_GRID]
    calls = []
    for name in ("_eliminate", "invert"):
        inner = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, name=name,
                            inner=inner, **kwargs: calls.append(name)
                            or inner(*args, **kwargs))
    for e in elements:
        for dimension in (2, 3):
            assert verify_dd_zero(dimension, e).passed
            for nu in range(dimension + 1):
                assert verify_kron_structure(dimension, nu, e).passed
    assert calls == []


@pytest.mark.parametrize("mn", TENSOR_GRID + [(3, 7), (4, 14)])
def test_scale_basis1_is_the_scaled_basis1_fixture(mn):
    """The CLI corruption doubles column 0 of B_1 on ints; its tables are
    the ones the fixture builds from doubled polynomials."""
    e = element(*mn)
    got, want = scale_basis1(e), scaled_basis1(e)
    for name in ("B0", "B1", "M0", "M1", "alpha0", "alpha1"):
        assert getattr(got, name) == getattr(want, name), name
    assert got.basis1 == want.basis1


def test_scale_basis1_targets(capsys):
    """The checks that the fixture fails, through the CLI: everything
    that compares coefficients over the 1-form basis with those over the
    0-form basis; commutation of polynomials, dimensions, kron-structure
    and the continuity demo pass, and tensor-commutation passes only at
    the top degree."""
    checks = ("unisolvence,lemma-hypotheses,commutation,dimensions,dd-zero,"
              "tensor-commutation,kron-structure,continuity-demo")
    assert main(["verify", "--m", "1", "--n", "3", "--N", "2", "--checks",
                 checks, "--corrupt", "scale-basis1"]) == 1
    reports = json.loads(capsys.readouterr().out)["reports"]
    failed = [(r["name"], r["parameters"].get("nu")) for r in reports
              if not r["passed"]]
    assert failed == [("unisolvence", None), ("lemma-hypotheses", None),
                      ("dd-zero", None), ("tensor-commutation", 0),
                      ("tensor-commutation", 1)]
    assert all(r["witness"] for r in reports if not r["passed"])


def test_scale_basis1_reaches_the_polynomial_route(capsys):
    """``derham verify --checks dd-zero --corrupt scale-basis1`` reports
    the representation-consistency witnesses of both oracles: the
    inverting routes and the per-basis-element Fraction loop."""
    assert main(["verify", "--m", "1", "--n", "3", "--N", "2", "--checks",
                 "dd-zero", "--corrupt", "scale-basis1"]) == 1
    report, = json.loads(capsys.readouterr().out)["reports"]
    e = element(1, 3, "scaled-basis1")
    for oracle in (routes_dd_zero, oracle_dd_zero):
        assert report == json.loads(report_json(oracle(2, e)))
    assert {w["check"] for w in report["witness"]} == \
        {"representation-consistency"}


def rank_one_d(terms, sign_rule, times):
    """d applied ``times`` times through d_rank_one, term by term."""
    for _ in range(times):
        terms = [piece for term in terms
                 for piece in d_rank_one(term, sign_rule)]
    return terms


# kernel source -> its single-form entry point and the per-factor
# Fraction column it replaces
SOURCES = {"interpolant": (tensor_interpolate, interpolated_column),
           "expansion": (lambda N, nu, terms, e: canonicalize(terms, e, N, nu),
                         fraction_expand)}


def assert_kernel_matches(e, dimension, nu, forms, source, times=0,
                          sign_rule=theta):
    """Each form, with d applied ``times`` times through d_rank_one, goes
    through the single-form entry point of ``source``, which must give
    the per-factor Fraction oracle's form."""
    public, column = SOURCES[source]
    got = []
    for form in forms:
        terms = rank_one_d(form, sign_rule, times)
        got.append(public(dimension, nu + times, terms, e))
        assert got[-1] == oracle_expand(dimension, nu + times, terms, e,
                                        column)
    return got


@pytest.mark.parametrize("control", ["permute-alpha", "scaled-basis1"])
@pytest.mark.parametrize("dd_zero_first", [True, False])
def test_column_sources_never_mix(control, dd_zero_first):
    """The interpolant (alpha_k T_k P) and the expansion (B_k^-1 P) are
    different products, and on these elements they differ for the same
    factors, of u and of du.  A report must not depend on which verifier
    ran first on the element, and each entry point, in either order,
    must match its own oracle."""
    def fresh():
        return _CORRUPTIONS[control](build_element(1, 3))

    e = fresh()
    probes = [rank_one([(0, p), (0, q)]) for p in e.basis0 for q in e.basis0]
    runs = [lambda x: verify_dd_zero(2, x),
            lambda x: verify_tensor_commutation(2, 0, probes, x)]
    if not dd_zero_first:
        runs.reverse()
    for run in runs:
        assert report_json(run(e)) == report_json(run(fresh()))
    forms = {0: [[probe] for probe in probes],
             1: [[rank_one([(0, p), (1, q)]), rank_one([(1, q), (0, p)])]
                 for p in e.basis0 for q in e.basis1]}
    batches = [(nu, source, times) for nu in forms for source in SOURCES
               for times in range(2)]
    if not dd_zero_first:
        batches.reverse()
    got = {batch: assert_kernel_matches(e, 2, batch[0], forms[batch[0]],
                                        *batch[1:])
           for batch in batches}
    pairs = [((nu, "interpolant", times), (nu, "expansion", times))
             for nu, times in ((0, 1), (1, 0), (1, 1))]
    if control == "permute-alpha":
        assert not verify_tensor_commutation(2, 0, probes, e).passed
        assert all(got[a] != got[b] for a, b in pairs)
    else:  # alpha_1 fits the scaled basis; only dd-zero's D B_0 sees it
        assert all(got[a] == got[b] for a, b in pairs)
        assert not verify_dd_zero(2, e).passed


@st.composite
def kernel_cases(draw):
    """Multi-form batches of multi-term rank-one forms, N = 1..3.  Each
    bit draws its factors from a small pool, so one factor object often
    recurs, and the pool may hold an equal but distinct copy; factors
    may be zero and have any width (within the element space when the
    case is an expansion)."""
    m = draw(st.integers(0, 1))
    n = draw(st.integers(2 * m + 1, 2 * m + 3))
    control = draw(st.sampled_from(
        [None, "wrong-functional", "scaled-basis1"]
        + (["permute-alpha"] if n >= 2 else [])))
    dimension = draw(st.integers(1, 3))
    nu = draw(st.integers(0, dimension))
    source = draw(st.sampled_from(sorted(SOURCES)))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    pools = {}
    for bit in (0, 1):
        top = n + 1 - bit if source == "expansion" else n + 4
        pools[bit] = [Polynomial(draw(st.lists(rationals, max_size=top)))
                      for _ in range(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            pools[bit].append(Polynomial(pools[bit][0].coeffs))
    chis = enumerate_chi(dimension, nu)

    def term():
        return rank_one([(bit, draw(st.sampled_from(pools[bit])))
                         for bit in draw(st.sampled_from(chis))],
                        sign=draw(rationals))

    forms = [[term() for _ in range(draw(st.integers(0, 3)))]
             for _ in range(draw(st.integers(1, 3)))]
    return element(m, n, control), dimension, nu, forms, source


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_kernel_matches_per_factor_oracles(case):
    e, dimension, nu, forms, source = case
    assert_kernel_matches(e, dimension, nu, forms, source)


@settings(max_examples=60, deadline=None)
@given(kernel_cases(), st.sampled_from([theta, flat_sign]))
def test_kernel_derivative_matches_d_rank_one(case, sign_rule):
    """The single-form entry points on du (d from the rank-one route,
    signs from ``sign_rule``) equal the per-factor oracles, form by form:
    for the interpolant that is I(du), the side of the diagram the
    residual's r replaces, for the expansion the basis coefficients of
    d(poly)."""
    e, dimension, nu, forms, source = case
    if nu < dimension:
        assert_kernel_matches(e, dimension, nu, forms, source, 1, sign_rule)


@settings(max_examples=60, deadline=None)
@given(kernel_cases(), st.sampled_from([theta, flat_sign]))
def test_residual_blocks_match_the_oracle(case, sign_rule):
    """Report equality sees only which blocks are nonzero and the peak.
    The residual that verify_tensor_commutation builds (``_kron_blocks``
    over ``_residual_sources``, divided by its denominator) must equal
    d(I u) - I(du) of the Fraction oracles, du from ``d_rank_one``,
    entry by entry and form by form."""
    e, dimension, nu, forms, _ = case
    if nu == dimension:
        return
    seen = {}

    def spy(name):
        inner = getattr(tensor, name)

        def wrapper(*args):
            seen[name] = args, inner(*args)
            return seen[name][1]
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_kron_blocks", "_residual_sources"):
            patch.setattr(tensor, name, spy(name))
        verify_tensor_commutation(dimension, nu, forms, e, sign_rule)
    (_, table, *_), blocks = seen["_kron_blocks"]
    _, (_, den) = seen["_residual_sources"]
    scale = Fraction(1, table.den * den ** dimension)
    for p, form in enumerate(forms):
        want = oracle_d(oracle_interpolate(dimension, nu, form, e),
                        sign_rule) - oracle_interpolate(
            dimension, nu + 1, rank_one_d(form, sign_rule, 1), e)
        assert list(blocks) == list(want.blocks)
        for chi, block in blocks.items():
            assert bool((block[..., p] * scale == want.blocks[chi]).all())


def test_d_rank_one_stays_independent_of_the_shared_rule(monkeypatch):
    """The index rule, d_smooth and the commutation residual all take d
    from ``_d_terms``; ``d_rank_one`` keeps its own loop.  With that one
    rule negated, d_rank_one is unchanged and d of the interpolant no
    longer matches the interpolant of d_rank_one, so the tests that
    compare against d_rank_one see a fault in the shared rule."""
    e = element(1, 3)
    u = rank_one([(0, poly(0, 1, 1)), (1, poly(2, 1)), (0, poly(1, 0, 3))])
    want = d_rank_one(u)

    def commutes():
        return d_tensor(tensor_interpolate(3, 1, u, e)) == \
            tensor_interpolate(3, 2, d_rank_one(u), e)

    assert commutes()
    shared = tensor._d_terms
    monkeypatch.setattr(tensor, "_d_terms", lambda chi, sign_rule: [
        (t, target, -sign) for t, target, sign in shared(chi, sign_rule)])
    assert d_rank_one(u) == want and len(want) == 2
    assert not commutes()


@pytest.mark.parametrize("control", [None, "wrong-functional",
                                     "permute-alpha"])
@pytest.mark.parametrize("sign_rule", [theta, flat_sign])
def test_interpolated_du_matches_d_rank_one_per_probe(control, sign_rule):
    """I(du) of every criterion-07 style probe, through
    ``tensor_interpolate`` of ``d_rank_one``, equals the per-factor
    oracle."""
    e = element(1, 4, control)
    for dimension, degrees in ((2, range(8)), (3, (0, 2, 4, 7))):
        for nu in range(dimension):
            probes = rank_one_monomial_probes(dimension, nu, degrees)
            assert_kernel_matches(e, dimension, nu, [[p] for p in probes],
                                  "interpolant", 1, sign_rule)


def test_entries_past_int64_stay_exact():
    """Signs of 64 and more bits give values past what int64 holds (an
    entry, or a denominator ratio in the residual); the single-form entry
    points and the commutation report still match their Fraction
    oracles."""
    e = element(1, 3, "permute-alpha")
    forms = [[rank_one([(0, poly(1, 2, 3)), (1, poly(1, -1))],
                       sign=Fraction(3 ** 41, 7))],
             [rank_one([(1, poly(2, 0, 1)), (0, poly(0, 5))],
                       sign=Fraction(5, 2 ** 70)),
              rank_one([(0, poly(1, 1)), (1, poly(3))], sign=2 ** 66)]]
    for source in SOURCES:
        assert_kernel_matches(e, 2, 1, forms, source)
    assert_kernel_matches(e, 2, 1, forms, "interpolant", 1)
    assert not assert_same_report(2, 1, forms, e).passed
    # a factor of 70-bit coefficients, plain and under d
    wide = [[rank_one([(0, poly(2 ** 70, 3, 2 ** 69)), (0, poly(1, 2))])]]
    for source, times in itertools.product(SOURCES, (0, 1)):
        assert_kernel_matches(e, 2, 0, wide, source, times)


def test_residuals_past_int64_stay_exact():
    """Probe coefficients near 2**40 make permute-alpha residuals past
    2**63.  int64 arithmetic is exact only modulo 2**64, so a kernel that
    ran these on int64 would report wrapped residuals; every witness's
    max_abs must be the Fraction oracle's."""
    e = element(1, 3, "permute-alpha")
    big = 2 ** 40
    probes = [rank_one([(0, poly(big + 1, 3 * big - 5, 7)),
                        (0, poly(5 * big, big - 3))]),
              rank_one([(0, poly(0, big + 7, 0, -3 * big)),
                        (0, poly(2 * big + 1, 0, 0, 1))],
                       sign=Fraction(-3, 5))]
    got = verify_tensor_commutation(2, 0, probes, e)
    want = oracle_verify(2, 0, probes, e)
    assert [w["probe"] for w in got.witness] == [0, 1]
    assert [w["max_abs"] for w in got.witness] == \
        [w["max_abs"] for w in want.witness]
    assert max(Fraction(w["max_abs"]).numerator
               for w in got.witness) > 2 ** 63


def test_witness_and_block_types():
    """Witness fields are plain JSON values (a Python int probe, a str
    max_abs), every report serializes, and the exact single-form entry
    points still give Fraction blocks over Python ints."""
    e = element(1, 4, "permute-alpha")
    reports = [verify_monomial_commutation(dimension, nu, 7, e)
               for dimension in (2, 3) for nu in range(dimension + 1)]
    reports += [verify_tensor_commutation(2, 1, MULTI_TERM_PROBES[2, 1], e),
                verify_dd_zero(2, e, flat_sign),
                verify_dd_zero(2, element(1, 4, "scaled-basis1"))]
    witnesses = [w for report in reports for w in report.witness]
    assert {w["check"] for w in witnesses} == {
        "tensor-commutation", "dd-zero", "representation-consistency"}
    for w in witnesses:
        if w["check"] == "tensor-commutation":
            assert type(w["probe"]) is int and type(w["max_abs"]) is str
        else:
            assert all(type(j) is int for j in w["index"] + w["chi"])
    for report in reports:
        json.dumps(report.to_json())
    (dimension, nu), (probe, *_) = next(iter(MULTI_TERM_PROBES.items()))
    for form in (canonicalize(rank_one([(0, e.basis0[1]), (1, e.basis1[2])],
                                       sign=Fraction(2, 3)), e),
                 tensor_interpolate(dimension, nu, probe, e)):
        for block in form.blocks.values():
            assert block.dtype == object
            assert all(type(v) is Fraction and type(v.numerator) is int
                       and type(v.denominator) is int for v in block.flat)


GRID_3D = [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)]


# (N, (m, n)) points of the grid entry's cross-check: the benchmark's
# grids, (4, 14) and three points in 4D
GRID_CHECKS = ([(2, mn) for mn in TENSOR_GRID] + [(2, (4, 14))]
               + [(3, mn) for mn in GRID_3D]
               + [(4, mn) for mn in ((0, 1), (0, 2), (1, 3))])


@pytest.mark.parametrize("dimension, mn", GRID_CHECKS)
def test_monomial_commutation_matches_explicit_probes(dimension, mn):
    """verify_monomial_commutation (decided from 1D columns) gives the
    report of verify_tensor_commutation (the kernel) on the explicit
    probes, probe indices included, for every nu, pristine and under
    every control, under both sign rules, on the CLI's default per-axis
    degrees 0..n+3.  Where it is cheap (n <= 3, and n <= 2 in 4D) the
    per-probe Fraction oracle gives the same reports too: as the
    monomial verifier's on those degrees in 2D, and as the kernel's on
    their lowest and highest beyond."""
    m, n = mn
    degrees = list(range(n + 4))  # the CLI's default per-axis degrees
    cheap = n <= (3 if dimension < 4 else 2)
    failed = 0
    for control in (None, "permute-alpha", "wrong-functional", "swap-basis",
                    "scaled-basis1"):
        if n < 2 and control in ("permute-alpha", "swap-basis"):
            continue
        e = element(m, n, control)
        for sign_rule in (theta, flat_sign):
            for nu in range(dimension + 1):
                got = report_json(verify_monomial_commutation(
                    dimension, nu, n + 3, e, sign_rule))
                probes = rank_one_monomial_probes(dimension, nu, degrees)
                assert got == report_json(verify_tensor_commutation(
                    dimension, nu, probes, e, sign_rule))
                failed += '"passed": false' in got
                if not cheap:
                    continue
                if dimension == 2:
                    assert got == report_json(oracle_verify(
                        dimension, nu, probes, e, sign_rule))
                    continue
                probes = rank_one_monomial_probes(dimension, nu,
                                                  degrees[::3])
                assert report_json(verify_tensor_commutation(
                    dimension, nu, probes, e, sign_rule)) == report_json(
                    oracle_verify(dimension, nu, probes, e, sign_rule))
    assert failed > 0


@pytest.mark.parametrize("cap", CAPS)
def test_capped_monomial_commutation_lists_the_first_witnesses_of_the_kernel(
        monkeypatch, cap):
    """Under a lowered witness cap, verify_monomial_commutation lists the
    first ``cap`` witnesses of verify_tensor_commutation's report on the
    explicit probes (uncapped: each is under the real cap) and states
    that report's length as its count; the kernel, which lists every
    witness, gives the same report under the same cap."""
    cases = [(3, nu, element(1, 3, "permute-alpha"), 6, theta)
             for nu in range(3)]
    cases += [(2, 1, element(2, 6, "wrong-functional"), 9, theta),
              (3, 1, element(0, 2, "scaled-basis1"), 5, theta)]
    for dimension, nu, e, degree, sign_rule in cases:
        probes = rank_one_monomial_probes(dimension, nu, range(degree + 1))
        want = verify_tensor_commutation(dimension, nu, probes, e,
                                         sign_rule).to_json()
        assert cap < len(want["witness"]) and want["details"] == {}
        monkeypatch.setattr("derham.report.WITNESS_CAP", cap)
        got = verify_monomial_commutation(dimension, nu, degree, e,
                                          sign_rule).to_json()
        assert got == verify_tensor_commutation(dimension, nu, probes, e,
                                                sign_rule).to_json()
        monkeypatch.undo()
        assert got == {**want, "witness": want["witness"][:cap],
                       "details": {"failures": len(want["witness"]),
                                   "witness_cap": cap}}


def test_monomial_commutation_matches_the_kernel_across_the_witness_cap(
        monkeypatch):
    """permute-alpha at (1, 3), N = 4, nu = 2 over the CLI's degrees 0..6
    fails more probes than the real cap: both verifiers list the first
    2000 witnesses of the uncapped kernel report and state its length."""
    e = element(1, 3, "permute-alpha")
    probes = rank_one_monomial_probes(4, 2, range(7))
    got = verify_monomial_commutation(4, 2, 6, e)
    assert report_json(got) == \
        report_json(verify_tensor_commutation(4, 2, probes, e))
    monkeypatch.setattr("derham.report.WITNESS_CAP", len(probes))
    uncapped = verify_tensor_commutation(4, 2, probes, e).witness
    assert len(uncapped) == 13230 and len(got.witness) == 2000
    assert got.witness == uncapped[:2000]
    assert got.details == {"failures": 13230, "witness_cap": 2000}


def test_capped_verifiers_build_no_witness_past_the_cap(monkeypatch):
    """verify_dd_zero, verify_monomial_commutation and the explicit-probe
    verify_tensor_commutation stop building witnesses at the cap, across
    chis, rather than leave the cut to VerificationReport.of: each hands
    it exactly ``cap`` of them."""
    handed = []
    inner = VerificationReport.of.__func__

    def of(cls, name, witness, *args, **kwargs):
        handed.append(len(witness))
        return inner(cls, name, witness, *args, **kwargs)
    monkeypatch.setattr(VerificationReport, "of", classmethod(of))
    monkeypatch.setattr("derham.report.WITNESS_CAP", 5)
    verify_dd_zero(3, element(1, 3), flat_sign)
    verify_monomial_commutation(3, 1, 6, element(1, 3, "permute-alpha"))
    verify_tensor_commutation(3, 1, rank_one_monomial_probes(3, 1, range(7)),
                              element(1, 3, "permute-alpha"))
    assert handed == [5, 5, 5]


def test_pristine_monomial_commutation_builds_no_probe_mask(monkeypatch):
    """On a pristine element the 1D residual r is zero, so every target
    of every chi passes without a mask over the probes: (2, 7) at N = 8,
    over every nu and the full degree range, never reaches _along (one
    such mask has 11^8 entries)."""
    def refuse(*args):
        raise AssertionError("a passing chi built a probe mask")

    e = build_element(2, 7)
    monkeypatch.setattr(tensor, "_along", refuse)
    for nu in range(9):
        report = verify_monomial_commutation(8, nu, e.n + 3, e)
        assert report.passed
        assert report.to_json()["parameters"]["probes"] == \
            math.comb(8, nu) * (e.n + 4) ** 8


def test_one_kernel_call_per_verifier_call(monkeypatch):
    """Each tensor-commutation call on explicit probes below the top
    degree makes one term pass, one set of residual sources and one
    kernel pass; at the top degree it makes neither.  Both read the 1D
    columns from the element's monomial table, built once per element
    and width (here width 5) by the first call below the top degree and
    by no later one; the grid entry ``verify_monomial_commutation`` makes
    no ``interpolant_columns`` call, no residual sources and no kernel
    pass, and dd-zero none: it compares D B_0 with [B_1 | 0].  The CLI's
    tensor-commutation goes through the grid entry, so one element's
    calls over every nu share one table build.  The verifiers make no
    Polynomial, and the grid verifiers read their integer coefficient
    matrices straight from the degrees and the element, turning no
    Polynomial into coefficients."""
    calls, built = {}, []

    def counting(module, name, counts=lambda *args: True):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            if counts(*args):
                calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    inner_cached = Element1D.cached

    def cached(self, key, build):  # records the key of every build run
        return inner_cached(self, key, lambda: built.append(key) or build())
    monkeypatch.setattr(Element1D, "cached", cached)

    def table_builds():
        widths = [key[1] for key in built if key[0] == "monomial columns"]
        built.clear()
        return widths

    for name in ("_kron_blocks", "_residual_sources", "_term_table",
                 "_expansion_columns", "verify_monomial_commutation"):
        counting(tensor, name)
    for module in (element1d, tensor):
        counting(module, "interpolant_columns")
    e = build_element(1, 3)
    counting(Polynomial, "__init__")
    for module in (polycore, element1d, tensor):  # every binding of it
        counting(module, "coefficients", lambda polys, *_: any(
            isinstance(p, Polynomial) for p in polys))
    has_table = False  # whether e holds the table of width 5
    table_builds()
    for dimension in (2, 3):
        for nu in range(dimension + 1):
            probes = rank_one_monomial_probes(dimension, nu, range(5))
            for verify, arg in ((verify_tensor_commutation, probes),
                                (tensor.verify_monomial_commutation, 4)):
                calls.clear()
                verify(dimension, nu, arg, e)
                below = nu < dimension
                want = {"_kron_blocks": below, "_residual_sources": below,
                        "_term_table": 1,  # one P_k per bit used
                        "coefficients": 1 + (0 < nu < dimension)} \
                    if verify is verify_tensor_commutation else \
                    {"verify_monomial_commutation": 1}
                assert calls == {k: v for k, v in want.items() if v}
                assert table_builds() == [5] * (below and not has_table)
                has_table = has_table or below
    for degree, widths in ((4, []), (5, [6]), (5, []), (2, [3])):
        calls.clear()
        verify_monomial_commutation(2, 0, degree, e)
        assert table_builds() == widths  # one table per width
        assert "interpolant_columns" not in calls
    for dimension in (1, 2, 3, 4):
        calls.clear()
        verify_dd_zero(dimension, e)
        assert calls == {} and table_builds() == []
    calls.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--m", "1", "--n", "3", "--N", "3",
                     "--checks", "tensor-commutation"]) == 0
    assert calls["verify_monomial_commutation"] == 4
    assert table_builds() == [7]  # degrees 0..6; nu = 0 only
    assert "_kron_blocks" not in calls and "_term_table" not in calls
    assert "interpolant_columns" not in calls


def test_a_used_element_gives_the_reports_of_a_fresh_one():
    """The node tables live in one element's memo.  After pristine
    dd-zero and tensor-commutation have filled it, each corruption of
    that element starts a memo of its own, and the flat sign rule reads
    the same tables: every report is the one a fresh element gives."""
    def reports(e, sign_rule=theta):
        return [report_json(report) for report in (
            verify_dd_zero(3, e, sign_rule),
            *(verify_monomial_commutation(3, nu, 7, e, sign_rule)
              for nu in range(4)))]

    used = build_element(1, 4)
    assert reports(used) == reports(build_element(1, 4))
    assert ("table", 0) in used._memo
    verdicts = []
    for corrupt in (swap_basis, wrong_functional, permute_alpha):
        assert corrupt(used)._memo.get(("table", 0)) is not \
            used._memo[("table", 0)]
        got = reports(corrupt(used))
        assert got == reports(corrupt(build_element(1, 4)))
        verdicts.append(got)
    got = reports(used, flat_sign)
    assert got == reports(build_element(1, 4), flat_sign)
    verdicts.append(got)
    assert all('"passed": false' in " ".join(texts)
               for texts in verdicts[1:])


GRID_1D = [(m, n) for m in range(5) for n in range(2 * m + 1, 2 * m + 7)]
ELEMENT_CONTROLS = (None, swap_basis, wrong_functional, permute_alpha,
                    scale_basis1)


def controlled(e, control):
    """``e`` under an element corruption (None: e itself); swap-basis and
    permute-alpha need n >= 2, else None."""
    if control in (swap_basis, permute_alpha) and e.n < 2:
        return None
    return e if control is None else control(e)


def old_route(e, P0, P1):
    """I_0 P_0, I_1 P_1 and r P_0 by the route the monomial table
    replaced, as Fraction arrays: alpha_k T_k P_k, T_k read at the height
    of P_k, and r P_0 = (I_0 P_0)[:n] - alpha_1 T_1 (D P_0), T_1 read
    again at the height of the derived columns D P_0."""
    def interpolants(k, P):
        return linalg.Exact.trusted(*linalg.product(
            element1d._family(e, k)[2], e.rows(k, len(P.nums)),
            P)).fractions()
    i0 = interpolants(0, P0)
    return [i0, interpolants(1, P1),
            i0[:e.n] - interpolants(1, element1d._derived(P0))]


def random_columns(rng, height):
    """One to three random coefficient columns of ``height`` rows."""
    return coefficients([Polynomial([
        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for _ in range(height)]) for _ in range(rng.randint(1, 3))], height)


def assert_columns_equal(got, den, want):
    assert [block.shape for block in got] == [block.shape for block in want]
    for block, oracle in zip(got, want):
        assert bool((linalg.Exact.trusted(block, den).fractions()
                     == oracle).all())


@pytest.mark.parametrize("mn", GRID_1D)
def test_monomial_columns_match_the_old_route(mn):
    """Every tensor reader takes its 1D columns from the monomial table.
    At widths 1 to n + 6, on every GRID_1D element, pristine and under
    the four element corruptions, the table equals the route it replaced
    entry for entry as Fractions: directly, against that route on the
    0/1 monomial matrix, and through ``_residual_sources`` on random
    coefficient columns, the taller of P_0 and P_1 at the width.  Its
    flags are those of the old route's nonzero columns, block by block,
    and whether any is set."""
    rng = random.Random(repr(mn))
    for control in ELEMENT_CONTROLS:
        e = controlled(build_element(*mn), control)
        if e is None:
            continue
        for width in range(1, e.n + 7):
            monomials = linalg.Exact.trusted(
                np.eye(width, dtype=int).astype(object), 1)
            blocks, den, live, alive = e.monomial_columns(width)
            want = old_route(e, monomials, monomials)
            assert_columns_equal(blocks, den, want)
            assert [flags.tolist() for flags in live] == \
                [(oracle != 0).any(axis=0).tolist() for oracle in want]
            assert alive == tuple(bool((oracle != 0).any())
                                  for oracle in want)
            heights = [width, rng.randint(0, width)]
            rng.shuffle(heights)
            P0, P1 = (random_columns(rng, height) for height in heights)
            assert_columns_equal(*tensor._residual_sources(e, P0, P1),
                                 old_route(e, P0, P1))


@pytest.mark.parametrize("control", ELEMENT_CONTROLS,
                         ids=["pristine", "swap-basis", "wrong-functional",
                              "permute-alpha", "scale-basis1"])
def test_the_lowest_degrees_match_the_kernel(control):
    """At the narrowest tables, degrees 0..0 and 0..1, the monomial
    verifier gives the kernel's report on the explicit probes, at every
    nu in 1D to 3D, on failing elements too."""
    for m, n in ((0, 2), (1, 3), (2, 6)):
        e = controlled(build_element(m, n), control)
        for dimension, nu, degree in itertools.product((1, 2, 3), range(4),
                                                       (0, 1)):
            if nu > dimension:
                continue
            probes = rank_one_monomial_probes(dimension, nu,
                                              range(degree + 1))
            assert report_json(verify_monomial_commutation(
                dimension, nu, degree, e)) == report_json(
                verify_tensor_commutation(dimension, nu, probes, e))


def table_keys(e):
    return sorted(key for key in e._memo if key[0] == "monomial columns")


@pytest.mark.parametrize("control", [
    None, swap_basis, wrong_functional, permute_alpha, scale_basis1,
    flat_sign], ids=["pristine", "swap-basis", "wrong-functional",
                     "permute-alpha", "scale-basis1", "flat-sign"])
def test_the_table_memo_gives_the_reports_of_fresh_elements(control):
    """verify_monomial_commutation reads the element's monomial table of
    width max_degree + 1, one memo entry per width.  For N <= 3, every
    nu run in turn on one shared element gives, nu by nu, the report of
    that nu on a freshly built element: pristine, under each element
    corruption and under the flat sign rule.  The shared element then
    holds one table per width it was asked: here max_degree n + 3 in
    every dimension and n in 3D."""
    sign_rule = flat_sign if control is flat_sign else theta
    corrupt = control if control not in (None, flat_sign) else lambda e: e
    verdicts = []
    for m, n in ((0, 2), (1, 3), (2, 6)):
        shared = corrupt(build_element(m, n))
        for dimension in (1, 2, 3):
            for degree in (n + 3,) if dimension <= 2 else (n + 3, n):
                for nu in range(dimension + 1):
                    got = report_json(verify_monomial_commutation(
                        dimension, nu, degree, shared, sign_rule))
                    fresh = corrupt(build_element(m, n))
                    assert got == report_json(verify_monomial_commutation(
                        dimension, nu, degree, fresh, sign_rule))
                    verdicts.append('"passed": false' in got)
        assert table_keys(shared) == [("monomial columns", n + 1),
                                      ("monomial columns", n + 4)]
    # the element corruptions reach tensor-commutation (swap-basis at
    # none of these points), the flat sign rule never does
    assert any(verdicts) == (control in (wrong_functional, permute_alpha,
                                         scale_basis1))


def test_one_table_build_per_width_serves_every_reader(monkeypatch):
    """verify_tensor_commutation, the rank-one tensor_interpolate and
    verify_monomial_commutation read one monomial table per element and
    width: whichever of them comes first builds it, once, and the others
    only read it, at every nu below the top.  A pure 0-form interpolant
    builds no table for the 1-form kind that none of its factors has, and
    an interpolant none for a kind whose factors are all zero (both used
    to leave a width-0 table in the memo).  The monomial verifier
    adds to the memo nothing but that table and the two functional row
    stacks it is built from, pristine and failing alike."""
    built = []
    inner = Element1D.cached

    def cached(self, key, build):  # records the key of every build run
        return inner(self, key, lambda: built.append(key) or build())
    monkeypatch.setattr(Element1D, "cached", cached)
    x = Polynomial.monomial
    readers = [
        lambda e, w, nu: verify_tensor_commutation(
            2, nu, rank_one_monomial_probes(2, nu, range(w)), e),
        # at nu = 1, so that both 1D kinds are interpolated
        lambda e, w, nu: tensor_interpolate(
            2, 1, rank_one([(0, x(w - 1)), (1, x(w - 1))]), e),
        lambda e, w, nu: verify_monomial_commutation(2, nu, w - 1, e),
        # at nu = 0, so that only the 0-form kind is interpolated
        lambda e, w, nu: tensor_interpolate(
            2, 0, rank_one([(0, x(w - 1)), (0, x(w - 2))]), e)]
    for width, order in itertools.product((3, 6), itertools.permutations(
            range(len(readers)))):
        for control in (None, permute_alpha):
            e = controlled(build_element(1, 3), control)
            built.clear()
            for reader in order:
                for nu in range(2):  # below the top degree
                    readers[reader](e, width, nu)
            assert [key for key in built if key[0] == "monomial columns"] \
                == [("monomial columns", width)]
            assert table_keys(e) == [("monomial columns", width)]
    for control in (None, permute_alpha):
        e = controlled(build_element(1, 4), control)
        before = set(e._memo)
        for nu in range(4):
            verify_monomial_commutation(3, nu, 5, e)
        assert set(e._memo) - before == {
            ("monomial columns", 6), ("rows", 0, 6), ("rows", 1, 6)}
    zero = Polynomial()
    for nu, factors, keys in (
            (0, [(0, zero), (0, zero)], []),
            (1, [(0, zero), (1, x(2))], [("monomial columns", 3)]),
            (1, [(0, x(3)), (1, zero)], [("monomial columns", 4)])):
        e = build_element(1, 3)
        assert tensor_interpolate(2, nu, rank_one(factors), e).is_zero()
        assert table_keys(e) == keys
        assert not any(key[0] == "rows" and key[2] == 0 for key in e._memo)


def test_a_passing_call_builds_no_peaks():
    """Column peaks are taken from the table's blocks only for a listed
    witness: with the blocks of the memo entry replaced by an object
    that refuses any use, every passing call still runs, pristine at
    every nu up to N = 3 under both sign rules and over a corrupted
    element's passing chis, and a failing call reaches the blocks."""
    class Refused:
        def __iter__(self):
            raise AssertionError("the blocks were read")

    def planted(e, width):
        _, den, live, alive = e.monomial_columns(width)
        e._memo[("monomial columns", width)] = (Refused(), den, live, alive)
        return e

    for m, n in ((0, 2), (1, 3), (2, 6)):
        e = planted(build_element(m, n), n + 4)
        for dimension, sign_rule in itertools.product((1, 2, 3),
                                                      (theta, flat_sign)):
            for nu in range(dimension + 1):
                assert verify_monomial_commutation(dimension, nu, n + 3, e,
                                                   sign_rule).passed
    e = planted(permute_alpha(build_element(1, 3)), 7)
    assert verify_monomial_commutation(2, 2, 6, e).passed
    with pytest.raises(AssertionError, match="the blocks were read"):
        verify_monomial_commutation(2, 0, 6, e)


def test_max_degree_is_checked_on_every_call():
    """max_degree is checked on every call, before the memo is read: on
    a fresh element and on one that holds the table of width 3, a bool,
    a numpy int, a float or a negative degree raises, at every nu, the
    top one included, and builds no table."""
    warm = build_element(1, 3)
    verify_monomial_commutation(2, 0, 2, warm)
    for e, keys in ((build_element(1, 3), []),
                    (warm, [("monomial columns", 3)])):
        for nu in range(3):
            for bad in (True, np.int64(1), 1.5, 2.0):
                with pytest.raises(TypeError, match=rf"^probe degree "
                                   rf"{re.escape(repr(bad))} is not an int$"):
                    verify_monomial_commutation(2, nu, bad, e)
            with pytest.raises(ValueError,
                               match="^probe degree -1 is negative$"):
                verify_monomial_commutation(2, nu, -1, e)
        assert table_keys(e) == keys


def test_a_replaced_element_starts_with_an_empty_memo():
    """The memo is not a field that dataclasses.replace copies: a copy
    with every field given starts empty, and each corruption holds only
    the tables it rebuilt, no monomial table of its source."""
    e = build_element(1, 3)
    verify_monomial_commutation(2, 0, 4, e)
    assert table_keys(e) == [("monomial columns", 5)]
    assert dataclasses.replace(e)._memo == {}
    for corrupt in (swap_basis, wrong_functional, permute_alpha,
                    scale_basis1):
        assert table_keys(corrupt(e)) == []


def test_a_second_call_leaves_the_cached_sources_unchanged():
    """The verifiers read the element's cached exact tables (the node
    tables, the functionals' monomial rows, the monomial table and its
    flags) without copying.  A second call on the same element reuses
    them, gives an identical report and leaves every cached table as it
    was."""
    e = permute_alpha(build_element(1, 4))
    probes = rank_one_monomial_probes(2, 0, range(8))
    runs = [lambda: verify_dd_zero(3, e, flat_sign),
            lambda: verify_tensor_commutation(2, 0, probes, e)] + [
        lambda nu=nu: verify_monomial_commutation(3, nu, 7, e)
        for nu in range(3)]
    first = [report_json(run()) for run in runs]
    assert any('"passed": false' in text for text in first)
    cached = {key: value for key, value in e._memo.items()
              if isinstance(value, linalg.Exact)}
    assert ("table", 1) in cached
    assert any(key[0] == "rows" for key in cached)
    copies = {key: (value.nums.copy(), value.den)
              for key, value in cached.items()}
    table = e._memo[("monomial columns", 8)]
    blocks, den, live, alive = table
    arrays = [array.copy() for array in (*blocks, *live)]
    assert [report_json(run()) for run in runs] == first
    for key, value in cached.items():
        want, want_den = copies[key]
        assert e._memo[key] is value and value.den == want_den
        assert value.nums.shape == want.shape
        assert bool((value.nums == want).all())
    assert e._memo[("monomial columns", 8)] is table
    assert table == (blocks, den, live, alive)
    assert all(bool((array == want).all()) for array, want in zip(
        (*blocks, *live), arrays))


def test_out_of_space_expansion_names_the_degree():
    e = element(1, 3)
    x = Polynomial.monomial
    for factors, message in (
            ([(0, x(1)), (0, x(5))], "degree 5 polynomial does not lie in "
                                     "the 0-form element space"),
            ([(1, x(3)), (0, x(0))], "degree 3 polynomial does not lie in "
                                     "the 1-form element space"),
            ([(0, x(2)), (1, poly(1, 0, 0, 0, 2))],
             "degree 4 polynomial does not lie in the 1-form element space")):
        with pytest.raises(ValueError, match=message + r".*\(degree <= "):
            canonicalize(rank_one(factors), e)
    with pytest.raises(ValueError, match="degree 3 polynomial .* 1-form "
                                         r"element space \(degree <= 2\)"):
        expand_in_basis(e, 1, x(3))
    # factors narrower than the space are zero-padded to its width
    nums, den = expand_in_basis(e, 0, poly(Fraction(1, 2)))
    assert list(nums) == [0, 0, 0, 1] and den == 1
    term = rank_one([(0, Polynomial.one()), (1, Polynomial())], sign=-2)
    assert canonicalize(term, e).is_zero()
    assert canonicalize(rank_one([(0, x(0)), (0, x(1))]), e) == \
        oracle_expand(2, 0, [rank_one([(0, x(0)), (0, x(1))])], e)


def oracle_kron_structure(dimension, nu, element):
    """The old direct route: every product functional applied to every
    rank-one basis element, entry by entry."""
    witness = []
    matrices = {0: element.M0.fractions(), 1: element.M1.fractions()}
    for chi in enumerate_chi(dimension, nu):
        bases = [element.basis0 if bit == 0 else element.basis1
                 for bit in chi]
        size = math.prod(len(basis) for basis in bases)
        functionals = [f for f in
                       tensor_node_functionals(dimension, nu, element)
                       if f.chi == chi]
        direct = np.full((size, size), Fraction(0), dtype=object)
        for row, functional in enumerate(functionals):
            for col, factors in enumerate(itertools.product(*bases)):
                term = rank_one(list(zip(chi, factors)))
                direct[row][col] = term.sign * math.prod(
                    part.apply(p)
                    for part, (_, p) in zip(functional.parts, term.factors))
        expected = reduce(linalg.kron, (matrices[bit] for bit in chi))
        if not bool((direct == expected).all()):
            witness.append({"check": "kron-factorization", "chi": list(chi)})
            continue
        if linalg.rank(direct) != size:
            witness.append({"check": "kron-invertibility", "chi": list(chi),
                            "size": size})
    return VerificationReport(name="kron-structure", passed=not witness,
                              parameters={"N": dimension, "nu": nu,
                                          "m": element.m, "n": element.n},
                              witness=witness)


@pytest.mark.parametrize("dimension, mn", [(2, mn) for mn in TENSOR_GRID]
                         + [(3, (0, 1)), (3, (1, 3))])
def test_kron_structure_matches_oracle(dimension, mn):
    m, n = mn
    for control in (None, "swap-basis", "wrong-functional", "permute-alpha",
                    "scaled-basis1"):
        if n < 2 and control in ("swap-basis", "permute-alpha"):
            continue
        e = element(m, n, control)
        for nu in range(dimension + 1):
            got = verify_kron_structure(dimension, nu, e)
            assert report_json(got) == \
                report_json(oracle_kron_structure(dimension, nu, e))
            if control == "wrong-functional":
                # the stored M_1 no longer matches the functionals, so
                # every block with a 1-form factor fails to factor
                assert got.witness == [
                    {"check": "kron-factorization", "chi": list(chi)}
                    for chi in enumerate_chi(dimension, nu) if 1 in chi]
            else:
                assert got.passed


def rank_deficient(m, n):
    """basis0[1] replaced by basis0[0], with node matrices that match the
    new basis: the tables factor, but neither is invertible."""
    e = element(m, n)
    basis0 = (e.basis0[0],) + e.basis0[:1] + e.basis0[2:]
    basis1 = tuple(p.derivative() for p in basis0[:n])
    e = dataclasses.replace(e, B0=coefficients(basis0, n + 1),
                            B1=coefficients(basis1, n))
    return dataclasses.replace(e, M0=e.node_table(0), M1=e.node_table(1))


@pytest.mark.parametrize("dimension, mn", [(2, (0, 2)), (2, (1, 4)),
                                           (3, (0, 2)), (3, (1, 3))])
def test_kron_invertibility_from_rank_deficient_tables(dimension, mn):
    e = rank_deficient(*mn)
    assert linalg.rank(e.M0) == e.n and linalg.rank(e.M1) == e.n - 1
    for nu in range(dimension + 1):
        got = verify_kron_structure(dimension, nu, e)
        assert report_json(got) == \
            report_json(oracle_kron_structure(dimension, nu, e))
        assert [w["check"] for w in got.witness] == \
            ["kron-invertibility"] * len(enumerate_chi(dimension, nu))


def zero_table(size):
    return linalg.Exact([[0] * size] * size)


def scaled_pair(m, n):
    """M_0 = 2 T_0 B_0 and M_1 = T_1 B_1 / 2: each factor differs from
    its table by a scalar, so a chi factors iff its scalars cancel."""
    e = element(m, n)
    T0, T1 = e.node_table(0), e.node_table(1)
    return dataclasses.replace(
        e, M0=linalg.Exact.reduced(2 * T0.nums, T0.den),
        M1=linalg.Exact.reduced(T1.nums, 2 * T1.den))


def zero_stored_M1(m, n):
    """M_1 = 0 alone: every product with a 1-form factor is zero on the
    stored side only."""
    return dataclasses.replace(element(m, n), M1=zero_table(n))


def zero_basis1(m, n, scale0=1):
    """B_1 = M_1 = 0 and M_0 = scale0 T_0 B_0: both products with a
    1-form factor are zero whatever their 0-form factors, so they factor
    but do not invert."""
    e = element(m, n)
    T0 = e.node_table(0)
    return dataclasses.replace(e, B1=zero_table(n), M1=zero_table(n),
                               M0=linalg.Exact.reduced(scale0 * T0.nums,
                                                       T0.den))


@pytest.mark.parametrize("mn", [(0, 1), (0, 2), (1, 3)])
def test_kron_structure_controls_match_oracle(mn):
    """Inputs that break the factor rule's premises: factors equal only
    up to scalars whose product does or does not cancel, and a zero
    factor on one side or on both.  Up to N = 3 the report is the
    oracle's, which builds both Kronecker products; up to N = 4 the
    verdicts are the ones the factor pairs give."""
    def checks(report):
        return {tuple(w["chi"]): w["check"] for w in report.witness}

    cases = (scaled_pair(*mn), zero_stored_M1(*mn), zero_basis1(*mn),
             zero_basis1(*mn, scale0=2))
    for dimension in (1, 2, 3, 4):
        for nu in range(dimension + 1):
            chis = enumerate_chi(dimension, nu)
            got = [verify_kron_structure(dimension, nu, e) for e in cases]
            if dimension <= 3:
                assert [report_json(report) for report in got] == [
                    report_json(oracle_kron_structure(dimension, nu, e))
                    for e in cases]
            scaled, one_side, both, both_scaled = map(checks, got)
            assert scaled == {chi: "kron-factorization" for chi in chis
                              if chi.count(0) != chi.count(1)}
            assert one_side == {chi: "kron-factorization" for chi in chis
                                if 1 in chi}
            assert both == {chi: "kron-invertibility" for chi in chis
                            if 1 in chi}
            assert both_scaled == {chi: "kron-invertibility" if 1 in chi
                                   else "kron-factorization"
                                   for chi in chis}


def test_every_trusted_pair_is_in_lowest_terms(monkeypatch):
    """``Exact.trusted`` skips the check, so its callers keep the promise:
    every pair made in a rank-one ``tensor_interpolate``, a
    ``canonicalize``, a ``verify_tensor_commutation`` and an all-checks
    ``derham verify --N 3`` is over a positive den in lowest terms."""
    made = []
    inner = linalg.Exact.trusted.__func__

    def trusted(cls, nums, den):
        made.append((nums.ravel().tolist(), den))
        return inner(cls, nums, den)
    monkeypatch.setattr(linalg.Exact, "trusted", classmethod(trusted))
    x = Polynomial.monomial
    for m, n in TENSOR_GRID:
        e = build_element(m, n)
        tensor_interpolate(3, 1, rank_one([(0, x(n + 2)), (1, x(3)),
                                           (0, x(1))]), e)
        canonicalize(rank_one([(0, x(n)), (1, x(n - 1))]), e)
        verify_tensor_commutation(
            2, 0, rank_one_monomial_probes(2, 0, range(n + 4)), e)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--m", "0..2", "--n", "auto+2", "--N", "3",
                     "--checks", ",".join(CHECKS)]) == 0
    assert made
    assert [(nums, den) for nums, den in made
            if den <= 0 or math.gcd(den, *nums) != 1] == []

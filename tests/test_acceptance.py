"""Acceptance gate: the ten shipping criteria, one test per criterion.

Each test checks one release criterion at its stated tolerance and
runtime budget, and prints a single PASS/FAIL summary line (shown with
``pytest -s``, or automatically when the test fails).  The ``pytest -v``
report line per test doubles as the machine-readable pass/fail record.

Exactness means Fraction arithmetic end to end: a criterion marked
exact admits no tolerance at all.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from derham.corruptions import permute_alpha, swap_basis, wrong_functional
from derham.element1d import (build_element, interpolate, monomial_probes,
                              two_cell_continuity_demo, verify_commutation,
                              verify_lemma_hypotheses, verify_unisolvence,
                              interpolate_smooth)
from derham.polycore import (Polynomial, integrated_legendre, legendre,
                             legendre_expansion)
from derham.smooth import exponential, sine, sinusoid
from derham.tensor import (flat_sign, rank_one_monomial_probes,
                           tensor_node_functionals, verify_dd_zero,
                           verify_tensor_commutation)

UNISOLVENCE_GRID = [(m, n) for m in range(5) for n in range(2 * m + 1, 2 * m + 7)]
TENSOR_GRID = [(m, n) for m in (0, 1, 2) for n in range(2 * m + 1, 2 * m + 4)]

_ELEMENTS: dict = {}


def element(m: int, n: int):
    key = (m, n)
    if key not in _ELEMENTS:
        _ELEMENTS[key] = build_element(m, n)
    return _ELEMENTS[key]


def conclude(label: str, failures: list, elapsed: float,
             budget: float | None = None) -> None:
    ok = not failures and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.1f}s" + (f" (budget {budget:.0f}s)" if budget else "")
    print(f"[{label}] {status} {timing}")
    assert not failures, failures[:3]
    if budget is not None:
        assert elapsed < budget, f"{elapsed:.1f}s exceeds {budget:.0f}s budget"


def test_criterion_01_unisolvence_exact_on_grid():
    started = time.perf_counter()
    failures = []
    for m, n in UNISOLVENCE_GRID:
        report = verify_unisolvence(element(m, n))
        if not report.passed:
            failures.append((m, n, report.witness[:2]))
    conclude("criterion 01: unisolvence grid", failures,
             time.perf_counter() - started, budget=30.0)


def test_criterion_02_structural_hypotheses_exact_on_grid():
    started = time.perf_counter()
    failures = []
    for m, n in UNISOLVENCE_GRID:
        report = verify_lemma_hypotheses(element(m, n), probe_degree=n + 5)
        if not report.passed:
            failures.append((m, n, report.witness[:2]))
    conclude("criterion 02: interpolation hypotheses", failures,
             time.perf_counter() - started, budget=30.0)


def test_criterion_03_commutation_exact_on_grid():
    started = time.perf_counter()
    failures = []
    rng = random.Random(2024)
    for m, n in UNISOLVENCE_GRID:
        probes = monomial_probes(n + 5)
        probes += [Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                               for _ in range(n + 6)]) for _ in range(3)]
        report = verify_commutation(element(m, n), probes)
        if not report.passed:
            failures.append((m, n, report.witness[:2]))
    conclude("criterion 03: 1D commutation d I0 = I1 d", failures,
             time.perf_counter() - started, budget=60.0)


def test_criterion_04_projection_exact_on_grid():
    started = time.perf_counter()
    failures = []
    rng = random.Random(2025)
    for m, n in UNISOLVENCE_GRID:
        e = element(m, n)
        # monomials span the spaces; interpolation is linear, so exact
        # reproduction of each monomial is reproduction of every element
        for d in range(n + 1):
            u = Polynomial.monomial(d)
            if interpolate(e, 0, u) != u:
                failures.append((m, n, 0, d))
            if d <= n - 1 and interpolate(e, 1, u) != u:
                failures.append((m, n, 1, d))
        dense = Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(n + 1)])
        if interpolate(e, 0, dense) != dense:
            failures.append((m, n, 0, "dense"))
    conclude("criterion 04: projection property", failures,
             time.perf_counter() - started)


def test_criterion_05_legendre_identities_exact():
    started = time.perf_counter()
    failures = []
    for j in range(1, 21):
        lhs = integrated_legendre(1, j) * Fraction(2 * (2 * j + 1))
        if lhs != legendre(j + 1) - legendre(j - 1):
            failures.append(("integral-identity", j))
    for j in range(21):
        if legendre(j)(Fraction(1)) != 1:
            failures.append(("normalization", j))
        for i in range(j + 1):
            value = (legendre(i) * legendre(j)).integral01()
            expected = Fraction(1, 2 * i + 1) if i == j else Fraction(0)
            if value != expected:
                failures.append(("orthogonality", i, j))
    # band/parity of the expansion of L^m_j over l_{j-m} .. l_{j+m};
    # the structure statement applies from j >= m on (L^m_j for j < m is
    # a polynomial of degree < j+m, e.g. L^m_0 = x^m/m!, and cannot
    # carry the full band)
    for m in range(5):
        for j in range(m, 11):
            coeffs = legendre_expansion(integrated_legendre(m, j))
            if len(coeffs) != j + m + 1 or coeffs[j + m] == 0:
                failures.append(("band-top", m, j))
            for i, c in enumerate(coeffs):
                if (i < j - m or (i - (j + m)) % 2 != 0) and c != 0:
                    failures.append(("band-parity", m, j, i))
    conclude("criterion 05: orthogonal family identities", failures,
             time.perf_counter() - started)


def test_criterion_06_dd_zero_exact_for_n2_n3():
    started = time.perf_counter()
    failures = []
    for m, n in TENSOR_GRID:
        e = element(m, n)
        for dimension in (2, 3):
            report = verify_dd_zero(dimension, e)
            if not report.passed:
                failures.append((dimension, m, n, report.witness[:2]))
    conclude("criterion 06: d after d vanishes", failures,
             time.perf_counter() - started, budget=120.0)


def test_criterion_07_tensor_commutation_exact_for_n2_n3():
    started = time.perf_counter()
    failures = []
    for m, n in TENSOR_GRID:
        e = element(m, n)
        for dimension in (2, 3):
            # full per-factor degree range 0..n+3 in 2D; in 3D a
            # deterministic subset that still reaches degree n+3 on
            # every factor
            degrees = range(n + 4) if dimension == 2 \
                else sorted({0, 2, n, n + 3})
            for nu in range(dimension + 1):
                probes = rank_one_monomial_probes(dimension, nu, degrees)
                report = verify_tensor_commutation(dimension, nu, probes, e)
                if not report.passed:
                    failures.append((dimension, nu, m, n, report.witness[:1]))
    conclude("criterion 07: tensor commutation I d = d I", failures,
             time.perf_counter() - started, budget=120.0)


def test_criterion_08_descriptor_tables_and_mixed_functional():
    started = time.perf_counter()
    failures = []
    e = element(2, 5)

    expected = {
        (0, 0): ["u'(0)*v'(0)", "u'(0)*v'(1)", "u'(0)*v''(0)", "u'(0)*v''(1)",
                 "u'(0)*(v(1)-v(0))", "u'(0)*(v(1)+v(0))"],
        (0, 1): ["u'(0)*v(0)", "u'(0)*v(1)", "u'(0)*v'(0)", "u'(0)*v'(1)",
                 "u'(0)*int(v)"],
        (1, 1): ["u(0)*v(0)", "u(0)*v(1)", "u(0)*v'(0)", "u(0)*v'(1)",
                 "u(0)*int(v)"],
    }
    for nu in (0, 1, 2):
        for chi, table in expected.items():
            if sum(chi) != nu:
                continue
            got = [f.describe() for f in tensor_node_functionals(2, nu, e)
                   if f.chi == chi and f.index[0] == 1]
            if got != table:
                failures.append((chi, got))

    # the (1,5) product functional pairs d/dx at the left edge with the
    # telescoping moment in y: N(u) = d_x u(0,1) - d_x u(0,0)
    functional = next(f for f in tensor_node_functionals(2, 0, e)
                      if f.chi == (0, 0) and f.index == (1, 5))
    u = sinusoid((1.0, 2.0))  # sin(x + 2y)
    got = functional.apply_smooth(u, quadrature_order=12)
    want = math.cos(2.0) - 1.0
    if abs(got - want) > 1e-12:
        failures.append(("mixed-functional", got, want))
    conclude("criterion 08: 2D descriptor tables (m=2, n=5)", failures,
             time.perf_counter() - started)


def test_criterion_09_smooth_input_commutation_and_continuity():
    started = time.perf_counter()
    failures = []
    grid = [i / 1000 for i in range(1001)]
    for m, n in [(1, 3), (2, 5)]:
        e = element(m, n)
        for u in (sine(), exponential()):
            i0u = interpolate_smooth(e, 0, u, quadrature_order=12)
            i1du = interpolate_smooth(e, 1, u.differentiated(),
                                      quadrature_order=12)
            residual = i0u.deriv(1) - i1du
            worst = max(abs(residual(x)) for x in grid)
            if worst > 1e-12:
                failures.append(("residual", m, n, u.name, worst))
            demo = two_cell_continuity_demo(e, u, tolerance=1e-12,
                                            quadrature_order=12)
            if not demo.passed:
                failures.append(("two-cell", m, n, u.name,
                                 demo.details["junction_mismatch"]))
    conclude("criterion 09: smooth inputs at 1e-12", failures,
             time.perf_counter() - started)


def test_criterion_10_negative_controls():
    started = time.perf_counter()
    failures = []
    e = element(1, 3)

    def outcomes(elt):
        return (verify_unisolvence(elt).passed,
                verify_lemma_hypotheses(elt).passed,
                verify_commutation(elt).passed)

    if outcomes(e) != (True, True, True):
        failures.append(("pristine", outcomes(e)))

    swapped = swap_basis(e)
    if outcomes(swapped) != (False, True, True):
        failures.append(("swap-basis", outcomes(swapped)))
    if not verify_unisolvence(swapped).witness:
        failures.append(("swap-basis", "empty witness"))

    wrong = wrong_functional(e)
    # the corrupted pairing also sinks commutation: that pairing is what
    # makes interpolation commute off-space, so the cascade is entailed
    if outcomes(wrong) != (True, False, False):
        failures.append(("wrong-functional", outcomes(wrong)))
    if not verify_lemma_hypotheses(wrong).witness:
        failures.append(("wrong-functional", "empty witness"))

    permuted = permute_alpha(e)
    if outcomes(permuted) != (True, True, False):
        failures.append(("permute-alpha", outcomes(permuted)))
    if not verify_commutation(permuted).witness:
        failures.append(("permute-alpha", "empty witness"))

    flat_report = verify_dd_zero(2, e, sign_rule=flat_sign)
    if flat_report.passed or not flat_report.witness:
        failures.append(("flip-theta", "dd-zero must fail with witness"))
    spared = verify_tensor_commutation(
        2, 1, rank_one_monomial_probes(2, 1, range(4)), e,
        sign_rule=flat_sign)
    if not spared.passed:
        failures.append(("flip-theta", "commutation must survive"))

    conclude("criterion 10: negative controls", failures,
             time.perf_counter() - started)

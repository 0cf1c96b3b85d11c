"""The one-dimensional C^m element pair and its verifiers.

For smoothness order m >= 0 and polynomial degree n >= 2m+1 the element
carries two spaces: degree-n polynomials ("0-forms") and their
derivatives of degree n-1 ("1-forms"), each with node functionals that
make interpolation well defined and make the diagram

    0-forms --d--> 1-forms
       |              |
      I0             I1
       v              v
    degree n ---d--> degree n-1

commute.  Everything is exact rational arithmetic except the paths that
take smooth callback inputs.

Basis layout for 0-forms (1-based index j as used in witnesses):
j = 2i+1, 2i+2 (i = 0..m-1): Hermite functions matching the i+1'st
derivative at endpoint 0 resp. 1; j = 2m+1: half the difference of the
two value-matching Hermite functions; j = 2m+2..n: integrated Legendre
bubbles; j = n+1: the constant 1/2.  The 1-form basis is the derivative
of the first n of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .functionals import (EndpointDerivative, EndpointSum, Moment,
                          NodeFunctional, one_form_functionals,
                          zero_form_functionals)
from .polycore import Polynomial, hermite_basis, integrated_legendre, legendre
from .quadrature import gauss_rule
from .report import VerificationReport
from .smooth import SmoothFunction1D


@dataclass(frozen=True, eq=False)
class Element1D:
    m: int
    n: int
    functionals0: tuple[NodeFunctional, ...]
    functionals1: tuple[NodeFunctional, ...]
    basis0: tuple[Polynomial, ...]
    basis1: tuple[Polynomial, ...]
    M0: np.ndarray
    M1: np.ndarray
    alpha0: np.ndarray
    alpha1: np.ndarray

    @property
    def default_quadrature_order(self) -> int:
        return 2 * (self.n + 2)


def zero_form_basis(m: int, n: int) -> list[Polynomial]:
    """The n+1 basis polynomials of the 0-form space, in frozen order."""
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


def assemble_element(m: int, n: int,
                     functionals0, functionals1,
                     basis0, basis1) -> Element1D:
    """Build the node matrices and their inverses from explicit parts.

    The standard construction goes through :func:`build_element`; this
    entry point exists so deliberately corrupted elements can be
    assembled for the negative-control tests.
    """
    M0 = np.array([[f.apply(b) for b in basis0] for f in functionals0],
                  dtype=object)
    M1 = np.array([[f.apply(b) for b in basis1] for f in functionals1],
                  dtype=object)
    alpha0 = linalg.invert(M0)
    alpha1 = linalg.invert(M1)
    return Element1D(m=m, n=n,
                     functionals0=tuple(functionals0),
                     functionals1=tuple(functionals1),
                     basis0=tuple(basis0),
                     basis1=tuple(basis1),
                     M0=M0, M1=M1, alpha0=alpha0, alpha1=alpha1)


def build_element(m: int, n: int) -> Element1D:
    if m < 0:
        raise ValueError("continuity order m must be >= 0")
    if n < 2 * m + 1:
        raise ValueError(
            f"degree n={n} too low to host the C^{m} Hermite block; "
            f"need n >= {2 * m + 1}")
    basis0 = zero_form_basis(m, n)
    basis1 = [p.derivative() for p in basis0[:n]]
    return assemble_element(m, n,
                            zero_form_functionals(m, n),
                            one_form_functionals(m, n),
                            basis0, basis1)


def apply_functional_smooth(f: NodeFunctional, u: SmoothFunction1D,
                            quadrature_order: int) -> float:
    if quadrature_order < 1:
        raise ValueError("quadrature_order must be >= 1")
    return f.apply_smooth(u, quadrature_order)


def _family(e: Element1D, k: int):
    """(functionals, basis, alpha) of the k-form space."""
    if k == 0:
        return e.functionals0, e.basis0, e.alpha0
    if k == 1:
        return e.functionals1, e.basis1, e.alpha1
    raise ValueError("form degree must be 0 or 1")


def interpolation_coefficients(e: Element1D, k: int,
                               u: Polynomial) -> np.ndarray:
    """Exact coefficients of I_k u over the k-form basis: alpha_k times
    the node-functional values of u."""
    functionals, _, alpha = _family(e, k)
    return alpha @ np.array([f.apply(u) for f in functionals], dtype=object)


def interpolate(e: Element1D, k: int, u: Polynomial) -> Polynomial:
    """Exact interpolation: the unique element-space polynomial with the
    same node-functional values as u."""
    result = Polynomial.zero()
    for c, p in zip(interpolation_coefficients(e, k, u), _family(e, k)[1]):
        result = result + p * c
    return result


def interpolate_smooth(e: Element1D, k: int, u: SmoothFunction1D,
                       quadrature_order: int | None = None) -> np.polynomial.Polynomial:
    """Floating-point interpolation of a smooth callback input."""
    if quadrature_order is None:
        quadrature_order = e.default_quadrature_order
    functionals, basis, alpha = _family(e, k)
    values = np.array([apply_functional_smooth(f, u, quadrature_order)
                       for f in functionals])
    coeffs = linalg.to_float(alpha) @ values
    width = max(e.n + 1 - k, 1)
    out = np.zeros(width)
    for c, p in zip(coeffs, basis):
        fc = p.float_coeffs()
        out[:fc.size] += c * fc
    return np.polynomial.Polynomial(out)


def monomial_probes(max_degree: int) -> list[Polynomial]:
    """1, x, .., x^max_degree — a spanning probe set for the verifiers."""
    return [Polynomial.monomial(d) for d in range(max_degree + 1)]


def _entry_witness(check: str, row: int, col: int, value) -> dict:
    return {"check": check, "row": row, "col": col, "value": str(value)}


def verify_unisolvence(e: Element1D) -> VerificationReport:
    """Exact structural check of the node matrices.

    The matrix M0[i][j] = (functional i)(basis j) must be: identity on
    the leading (2m+1)-block, zero where functionals of low derivative
    order meet bubbles, lower triangular on the bubble block, and pure
    e_{n+1} in the last row and column; M1 must be M0 without its last
    row and column; both must have full rank.  Witness indices are
    1-based.
    """
    m, n = e.m, e.n
    M0, M1 = e.M0, e.M1
    witness: list[dict] = []
    one, zero = Fraction(1), Fraction(0)

    head = 2 * m + 1
    for i in range(head):
        for j in range(head):
            expect = one if i == j else zero
            if M0[i][j] != expect:
                witness.append(_entry_witness("identity-block", i + 1, j + 1,
                                              M0[i][j]))
    for i in range(head):
        for j in range(head, n):
            if M0[i][j] != zero:
                witness.append(_entry_witness("bubble-columns", i + 1, j + 1,
                                              M0[i][j]))
    for i in range(head, n):
        for j in range(i + 1, n):
            if M0[i][j] != zero:
                witness.append(_entry_witness("bubble-triangular", i + 1, j + 1,
                                              M0[i][j]))
    for j in range(n + 1):
        expect = one if j == n else zero
        if M0[n][j] != expect:
            witness.append(_entry_witness("last-row", n + 1, j + 1, M0[n][j]))
    for i in range(n + 1):
        expect = one if i == n else zero
        if M0[i][n] != expect:
            witness.append(_entry_witness("last-column", i + 1, n + 1, M0[i][n]))
    for i in range(n + 1):
        if M0[i][i] == zero:
            witness.append(_entry_witness("diagonal", i + 1, i + 1, 0))

    truncated = M0[:-1, :-1]
    if not (truncated == M1).all():
        rows, cols = np.nonzero(truncated != M1)
        for i, j in zip(rows, cols):
            witness.append(_entry_witness("deletion-identity",
                                          int(i) + 1, int(j) + 1, M1[i][j]))

    if linalg.rank(M0) != n + 1:
        witness.append({"check": "rank-M0", "rank": linalg.rank(M0),
                        "expected": n + 1})
    if linalg.rank(M1) != n:
        witness.append({"check": "rank-M1", "rank": linalg.rank(M1),
                        "expected": n})

    return VerificationReport(name="unisolvence", passed=not witness,
                              parameters={"m": m, "n": n}, witness=witness)


def _coefficient_matrix(polys, width: int) -> np.ndarray:
    rows = []
    for p in polys:
        row = [Fraction(0)] * width
        for i, c in enumerate(p.coeffs):
            row[i] = c
        rows.append(row)
    return np.array(rows, dtype=object)


def verify_lemma_hypotheses(e: Element1D, probe_degree: int | None = None) -> VerificationReport:
    """Check the structural hypotheses behind the commutation property.

    (i) the constant basis function spans the kernel of d (rank d = n);
    (ii) the first n functionals annihilate it and the last functional
    annihilates the first n basis functions; (iii) the derivatives of
    the first n basis functions span the full 1-form space; (iv) those
    derivatives are exactly the 1-form basis; (v) the i'th 1-form
    functional of du equals the i'th 0-form functional of u for all
    probe polynomials.
    """
    m, n = e.m, e.n
    if probe_degree is None:
        probe_degree = n + 5
    if probe_degree < n:
        raise ValueError("probe_degree must be at least n")
    witness: list[dict] = []
    zero = Fraction(0)

    if not e.basis0[n].derivative().is_zero():
        witness.append({"check": "kernel", "detail":
                        "d of the last basis function is not zero"})

    for i in range(n):
        value = e.functionals0[i].apply(e.basis0[n])
        if value != zero:
            witness.append({"check": "kernel-separation", "functional": i + 1,
                            "value": str(value)})
    last = e.functionals0[n]
    for j in range(n):
        value = last.apply(e.basis0[j])
        if value != zero:
            witness.append({"check": "kernel-separation", "basis": j + 1,
                            "value": str(value)})

    derived = [p.derivative() for p in e.basis0[:n]]
    if linalg.rank(_coefficient_matrix(derived, n)) != n:
        witness.append({"check": "range", "detail":
                        "derivatives of the first n basis functions do not "
                        "span the 1-form space"})

    for j in range(n):
        if derived[j] != e.basis1[j]:
            witness.append({"check": "basis-pairing", "basis": j + 1})

    for probe in monomial_probes(probe_degree):
        du = probe.derivative()
        for i in range(n):
            left = e.functionals1[i].apply(du)
            right = e.functionals0[i].apply(probe)
            if left != right:
                witness.append({"check": "functional-pairing",
                                "functional": i + 1,
                                "probe_degree": probe.degree,
                                "left": str(left), "right": str(right)})

    return VerificationReport(name="lemma-hypotheses", passed=not witness,
                              parameters={"m": m, "n": n,
                                          "probe_degree": probe_degree},
                              witness=witness)


def verify_commutation(e: Element1D, probes=None) -> VerificationReport:
    """d(I0 u) == I1(du) exactly, for every probe polynomial u."""
    if probes is None:
        probes = monomial_probes(e.n + 5)
    witness: list[dict] = []
    for index, u in enumerate(probes):
        residual = interpolate(e, 0, u).derivative() - interpolate(e, 1, u.derivative())
        if not residual.is_zero():
            witness.append({"check": "commutation", "probe": index,
                            "probe_degree": u.degree,
                            "residual": [str(c) for c in residual.coeffs]})
    return VerificationReport(name="commutation", passed=not witness,
                              parameters={"m": e.m, "n": e.n,
                                          "probes": len(probes)},
                              witness=witness)


def cell_interpolant(e: Element1D, u: SmoothFunction1D, a: float, b: float,
                     quadrature_order: int | None = None) -> np.polynomial.Polynomial:
    """Interpolate u on the cell [a, b], returned in the reference variable.

    The cell dofs are the implementation-facing ones: endpoint values
    u(a), u(b) enter the two combination functionals exactly, endpoint
    derivatives of order s scale by h^s (h = b - a), and bubble moments
    are integrated over the cell by quadrature.  Endpoint data is taken
    from inside the cell (one-sided callbacks, when available), so cells
    that meet at a kink each see their own side.
    """
    if quadrature_order is None:
        quadrature_order = e.default_quadrature_order
    h = b - a
    if h <= 0:
        raise ValueError("cell must have positive width")
    nodes, weights = gauss_rule(quadrature_order)

    def endpoint(order: int, point: int) -> float:
        if point == 0:
            return u.derivative_sided(order, a, +1)
        return u.derivative_sided(order, b, -1)

    values = []
    for f in e.functionals0:
        if isinstance(f, EndpointDerivative):
            values.append(h ** f.order * endpoint(f.order, f.point))
        elif isinstance(f, EndpointSum):
            values.append(endpoint(0, 1) + endpoint(0, 0))
        elif isinstance(f, Moment) and f.legendre_index == 0:
            values.append(endpoint(0, 1) - endpoint(0, 0))
        else:
            weight_poly = legendre(f.legendre_index)
            values.append(h * sum(w * weight_poly(x) * u.derivative(1, a + h * x)
                                  for x, w in zip(nodes, weights)))

    coeffs = linalg.to_float(e.alpha0) @ np.array(values)
    out = np.zeros(e.n + 1)
    for c, p in zip(coeffs, e.basis0):
        fc = p.float_coeffs()
        out[:fc.size] += c * fc
    return np.polynomial.Polynomial(out)


def two_cell_continuity_demo(e: Element1D, u: SmoothFunction1D,
                             tolerance: float = 1e-12,
                             quadrature_order: int | None = None) -> VerificationReport:
    """Interpolate u on [0,1] and [1,2] and check C^m matching at x=1.

    Shared endpoint dofs force derivative orders 0..m to agree at the
    junction whenever u itself is C^m there.  If u carries one-sided
    callbacks that disagree at x=1, the report attributes the failure to
    the input's regularity rather than to the element.
    """
    left = cell_interpolant(e, u, 0.0, 1.0, quadrature_order)
    right = cell_interpolant(e, u, 1.0, 2.0, quadrature_order)
    witness: list[dict] = []
    mismatches = []
    for s in range(e.m + 1):
        gap = abs(left.deriv(s)(1.0) - right.deriv(s)(0.0))
        mismatches.append(gap)
        if gap > tolerance:
            witness.append({"check": "junction-continuity", "order": s,
                            "mismatch": gap})

    details = {"junction_mismatch": mismatches, "tolerance": tolerance}
    if witness and u.has_sided:
        jumps = []
        for s in range(e.m + 1):
            jump = abs(u.derivative_sided(s, 1.0, -1) - u.derivative_sided(s, 1.0, +1))
            if jump > tolerance:
                jumps.append({"order": s, "jump": jump})
        if jumps:
            details["input_regularity"] = {
                "message": f"input lacks C^{e.m} continuity at the junction",
                "jumps": jumps}

    return VerificationReport(name="continuity-demo", passed=not witness,
                              parameters={"m": e.m, "n": e.n,
                                          "function": u.name},
                              witness=witness, details=details)

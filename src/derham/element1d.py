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
from .functionals import (NodeFunctional, monomial_row, one_form_functionals,
                          zero_form_functionals)
from .polycore import (Polynomial, coefficient_matrix, hermite_basis,
                       integrated_legendre)
from .quadrature import check_order
from .report import VerificationReport
from .smooth import SmoothFunction1D


def _check_degrees(m: int, n: int) -> None:
    if m < 0:
        raise ValueError("continuity order m must be >= 0")
    if n < 2 * m + 1:
        raise ValueError(
            f"degree n={n} too low to host the C^{m} Hermite block; "
            f"need n >= {2 * m + 1}")


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

    def __post_init__(self):
        _check_degrees(self.m, self.n)
        for k, size in ((0, self.n + 1), (1, self.n)):
            for field, want in ((f"functionals{k}", (size,)),
                                (f"basis{k}", (size,)),
                                (f"M{k}", (size, size)),
                                (f"alpha{k}", (size, size))):
                value = getattr(self, field)
                shape = np.shape(value) if len(want) == 2 else (len(value),)
                if shape != want:
                    raise ValueError(f"{field} has shape {shape}, "
                                     f"expected {want}")

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


def _functional_table(functionals, width: int) -> np.ndarray:
    """Monomial rows of ``functionals``, truncated to ``width`` columns."""
    return np.array([monomial_row(f, width)[:width] for f in functionals],
                    dtype=object).reshape(len(functionals), width)


def node_table(functionals, basis) -> np.ndarray:
    """The table f(b) of every functional (rows) on every basis polynomial
    (columns): functional monomial rows times basis coefficient columns."""
    width = max((len(p.coeffs) for p in basis), default=0)
    nums, den = linalg.product(_functional_table(functionals, width),
                               coefficient_matrix(basis, width).T)
    return np.frompyfunc(Fraction, 2, 1)(nums, den)


def assemble_element(m: int, n: int,
                     functionals0, functionals1,
                     basis0, basis1) -> Element1D:
    """Build the node matrices and their inverses from explicit parts.

    The standard construction goes through :func:`build_element`; this
    entry point exists so deliberately corrupted elements can be
    assembled for the negative-control tests.
    """
    M0 = node_table(functionals0, basis0)
    M1 = node_table(functionals1, basis1)
    alpha0 = linalg.invert(M0)
    alpha1 = linalg.invert(M1)
    return Element1D(m=m, n=n,
                     functionals0=tuple(functionals0),
                     functionals1=tuple(functionals1),
                     basis0=tuple(basis0),
                     basis1=tuple(basis1),
                     M0=M0, M1=M1, alpha0=alpha0, alpha1=alpha1)


def build_element(m: int, n: int) -> Element1D:
    _check_degrees(m, n)
    basis0 = zero_form_basis(m, n)
    basis1 = [p.derivative() for p in basis0[:n]]
    return assemble_element(m, n,
                            zero_form_functionals(m, n),
                            one_form_functionals(m, n),
                            basis0, basis1)


def _family(e: Element1D, k: int):
    """(functionals, basis, alpha) of the k-form space."""
    if k == 0:
        return e.functionals0, e.basis0, e.alpha0
    if k == 1:
        return e.functionals1, e.basis1, e.alpha1
    raise ValueError("form degree must be 0 or 1")


def interpolant_columns(e: Element1D, k: int,
                        coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """alpha_k T_k P as (numerators, denominator): the interpolants I_k,
    over the k-form basis, of the polynomials whose monomial coefficients
    are P's columns; T_k holds the functionals' monomial rows."""
    functionals, _, alpha = _family(e, k)
    return linalg.product(alpha, _functional_table(functionals, len(coeffs)),
                          coeffs)


def interpolation_coefficients(e: Element1D, k: int,
                               u: Polynomial) -> tuple[np.ndarray, int]:
    """(Numerators, denominator) of I_k u over the k-form basis."""
    nums, den = interpolant_columns(
        e, k, coefficient_matrix([u], len(u.coeffs)).T)
    return nums[:, 0], den


def _interpolant(e: Element1D, k: int, values) -> Polynomial:
    """The k-form element polynomial with node values ``values``: basis
    columns times alpha_k times values, on integer numerators.  Every
    interpolant, exact or smooth, is built here."""
    _, basis, alpha = _family(e, k)
    width = max((len(p.coeffs) for p in basis), default=0)
    nums, den = linalg.product(coefficient_matrix(basis, width).T, alpha,
                               values)
    return Polynomial([Fraction(c, den) for c in nums])


def interpolate(e: Element1D, k: int, u: Polynomial) -> Polynomial:
    """Exact interpolation: the unique element-space polynomial with the
    same node-functional values as u."""
    return _interpolant(e, k, [f.apply(u) for f in _family(e, k)[0]])


def _smooth_values(e: Element1D, k: int, u: SmoothFunction1D,
                   quadrature_order: int | None, telescope=False) -> list[Fraction]:
    """Float node-functional values of u, held exactly as Fractions."""
    if quadrature_order is None:
        quadrature_order = e.default_quadrature_order
    check_order(quadrature_order)
    return [Fraction(f.apply_smooth(u, quadrature_order, telescope))
            for f in _family(e, k)[0]]


def rounded(p: Polynomial) -> np.polynomial.Polynomial:
    """``p`` with its coefficients rounded once to floats."""
    return np.polynomial.Polynomial([float(c) for c in p.coeffs] or [0.0])


def interpolate_smooth(e: Element1D, k: int, u: SmoothFunction1D,
                       quadrature_order: int | None = None) -> np.polynomial.Polynomial:
    """Interpolation of a smooth callback input: float node values, the
    exact tail, and coefficients rounded once."""
    return rounded(_interpolant(e, k, _smooth_values(e, k, u,
                                                     quadrature_order)))


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

    for name, matrix, expected in (("rank-M0", M0, n + 1), ("rank-M1", M1, n)):
        rank = linalg.rank(matrix)
        if rank != expected:
            witness.append({"check": name, "rank": rank, "expected": expected})

    return VerificationReport(name="unisolvence", passed=not witness,
                              parameters={"m": m, "n": n}, witness=witness)


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
    if linalg.rank(coefficient_matrix(derived, n)) != n:
        witness.append({"check": "range", "detail":
                        "derivatives of the first n basis functions do not "
                        "span the 1-form space"})

    for j in range(n):
        if derived[j] != e.basis1[j]:
            witness.append({"check": "basis-pairing", "basis": j + 1})

    # on the monomial probe x^k the pairing reads k f1_i(x^(k-1)) = f0_i(x^k)
    rows0 = [monomial_row(f, probe_degree + 1) for f in e.functionals0[:n]]
    rows1 = [monomial_row(f, probe_degree) for f in e.functionals1]
    for k in range(probe_degree + 1):
        for i in range(n):
            left = k * rows1[i][k - 1] if k else Fraction(0)
            right = rows0[i][k]
            if left != right:
                witness.append({"check": "functional-pairing",
                                "functional": i + 1, "probe_degree": k,
                                "left": str(left), "right": str(right)})

    return VerificationReport(name="lemma-hypotheses", passed=not witness,
                              parameters={"m": m, "n": n,
                                          "probe_degree": probe_degree},
                              witness=witness)


def verify_commutation(e: Element1D, probes=None) -> VerificationReport:
    """d(I0 u) == I1(du) exactly, for every probe polynomial u, and each
    I_k is a projection: alpha_k (T_k B_k) = I, so every basis function
    interpolates to itself (d kills the constant, so commutation alone
    cannot see alpha0's last row).  Projection witnesses are 1-based."""
    if probes is None:
        probes = monomial_probes(e.n + 5)
    count = len(probes)
    width = max([e.n + 1] + [len(u.coeffs) for u in probes])
    derived = [b.derivative() for b in e.basis0]
    height = max(len(p.coeffs) for p in derived + list(e.basis1))
    # per form degree: alpha_k T_k [P_k | B_k], T_k the functional rows,
    # holds the interpolants of the probes (P_0 = P, P_1 = P') and of the
    # basis; the probe columns map to the monomial coefficients of d(I0 u)
    # through d(basis0) and of I1(du) through basis1
    sides, projection = [], []
    for k, inputs, rows in ((0, probes, derived),
                            (1, [u.derivative() for u in probes], e.basis1)):
        basis = _family(e, k)[1]
        coeffs, den = interpolant_columns(
            e, k, coefficient_matrix([*inputs, *basis], width - k).T)
        nums, scale = linalg.product(coefficient_matrix(rows, height).T,
                                     coeffs[:, :count])
        sides.append((nums, scale * den))
        for i, j in zip(*np.nonzero(
                coeffs[:, count:] != den * np.eye(len(basis), dtype=object))):
            projection.append({"check": "projection", "form": k,
                               "row": int(i) + 1, "col": int(j) + 1})
    (left, left_den), (right, right_den) = sides
    residuals = left * right_den - right * left_den
    den = left_den * right_den
    witness: list[dict] = []
    for index, u in enumerate(probes):
        if residuals[:, index].any():
            residual = Polynomial([Fraction(c, den)
                                   for c in residuals[:, index]])
            witness.append({"check": "commutation", "probe": index,
                            "probe_degree": u.degree,
                            "residual": [str(c) for c in residual.coeffs]})
    witness += projection
    return VerificationReport(name="commutation", passed=not witness,
                              parameters={"m": e.m, "n": e.n,
                                          "probes": count},
                              witness=witness)


def cell_interpolant(e: Element1D, u: SmoothFunction1D, a: float, b: float,
                     quadrature_order: int | None = None) -> Polynomial:
    """Exact interpolant of u on the cell [a, b], in the reference variable.

    The 0-form functionals act on the pull-back x -> u(a + h x), h = b - a,
    whose order-s derivative scales by h^s.  Its endpoint data is taken
    from inside the cell (one-sided callbacks, when available), so cells
    that meet at a kink each see their own side.  The first moment of u'
    is u(b) - u(a), so neighbours agree to rounding at a shared point.
    """
    h = b - a
    if h <= 0:
        raise ValueError("cell must have positive width")

    def pulled_back(order: int, x: float) -> float:
        value = (u.derivative_sided(order, a, +1) if x == 0.0 else
                 u.derivative_sided(order, b, -1) if x == 1.0 else
                 u.derivative(order, a + h * x))
        return h ** order * value

    return _interpolant(e, 0, _smooth_values(
        e, 0, SmoothFunction1D(pulled_back, name=u.name), quadrature_order,
        telescope=True))


def two_cell_continuity_demo(e: Element1D, u: SmoothFunction1D,
                             tolerance: float = 1e-12,
                             quadrature_order: int | None = None,
                             cells=None) -> VerificationReport:
    """Interpolate u on [0,1] and [1,2] and check C^m matching at x=1.

    Shared endpoint dofs force derivative orders 0..m to agree at the
    junction whenever u itself is C^m there.  If u carries one-sided
    callbacks that disagree at x=1, the report attributes the failure to
    the input's regularity rather than to the element.  ``cells``, when
    given, are the two cell interpolants already built.
    """
    left, right = cells or [cell_interpolant(e, u, a, a + 1, quadrature_order)
                            for a in (0.0, 1.0)]
    # exact junction derivatives, rounded once
    mismatches = [float(abs(left.derivative(s)(1) - right.derivative(s)(0)))
                  for s in range(e.m + 1)]
    witness = [{"check": "junction-continuity", "order": s, "mismatch": gap}
               for s, gap in enumerate(mismatches) if gap > tolerance]

    details = {"junction_mismatch": mismatches, "tolerance": tolerance}
    if witness and u.has_sided:
        jumps = [abs(u.derivative_sided(s, 1.0, -1)
                     - u.derivative_sided(s, 1.0, +1)) for s in range(e.m + 1)]
        jumps = [{"order": s, "jump": jump}
                 for s, jump in enumerate(jumps) if jump > tolerance]
        if jumps:
            details["input_regularity"] = {
                "message": f"input lacks C^{e.m} continuity at the junction",
                "jumps": jumps}

    return VerificationReport(name="continuity-demo", passed=not witness,
                              parameters={"m": e.m, "n": e.n,
                                          "function": u.name},
                              witness=witness, details=details)

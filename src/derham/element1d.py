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

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .functionals import (NodeFunctional, monomial_row, one_form_functionals,
                          zero_form_functionals)
from .polycore import (Polynomial, coefficients, from_column, hermite_column,
                       legendre_column)
from .quadrature import check_order
from .report import VerificationReport
from .smooth import SmoothFunction1D


def _check_degrees(m: int, n: int) -> None:
    if type(m) is not int or type(n) is not int:  # bools too
        raise TypeError(f"m {m!r} or n {n!r} is not an int")
    if m < 0:
        raise ValueError("continuity order m must be >= 0")
    if n < 2 * m + 1:
        raise ValueError(
            f"degree n={n} too low to host the C^{m} Hermite block; "
            f"need n >= {2 * m + 1}")


@dataclass(frozen=True, eq=False)
class Element1D:
    """The element pair and its exact tables, all ``linalg.Exact``: the
    basis coefficients ``B_k``, one column per basis function, the node
    matrix ``M_k`` (functional i on basis function j) and its inverse
    ``alpha_k``.  A field left out is built on ints and never checked; a
    field given is checked in full and kept as it is (a corrupted
    element's tables may lie).  ``basis0`` and ``basis1`` are views of
    the columns of B_k, made on first use."""

    m: int
    n: int
    functionals0: tuple[NodeFunctional, ...] | None = None
    functionals1: tuple[NodeFunctional, ...] | None = None
    B0: linalg.Exact | None = field(default=None, repr=False)
    B1: linalg.Exact | None = field(default=None, repr=False)
    M0: linalg.Exact | None = None
    M1: linalg.Exact | None = None
    alpha0: linalg.Exact | None = None
    alpha1: linalg.Exact | None = None
    _memo: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        _check_degrees(self.m, self.n)
        fresh = self.alpha0 is None  # then alpha0 = M0^-1, built here
        for name in ("functionals0", "functionals1", "B0", "B1", "M0", "M1",
                     "alpha0", "alpha1"):  # each built from those before
            k, value = int(name[-1]), getattr(self, name)
            object.__setattr__(self, name, self._built(name, k, fresh)
                               if value is None else
                               _checked(name, k, self.n + 1 - k, value))

    def _built(self, name: str, k: int, fresh: bool):
        """Field ``name`` on ints: the frozen families, B_0 from the cached
        columns, B_1 = (D B_0)[:, :n] and M_k = T_k B_k.  With alpha_0 =
        M_0^-1 built here and M_0 = diag(M_1, c), checked entry by entry,
        alpha_1 = M_1^-1 is alpha_0's leading block."""
        m, n = self.m, self.n
        match name:
            case "functionals0":
                return tuple(zero_form_functionals(m, n))
            case "functionals1":
                return tuple(one_form_functionals(m, n))
            case "B0":
                return _zero_form_columns(m, n)
            case "B1":
                return _derived(linalg.Exact.trusted(self.B0.nums[:, :n],
                                                     self.B0.den))
            case "M0" | "M1":
                return self.node_table(k)
        M0, M1, alpha0 = self.M0, self.M1, self.alpha0
        if k and fresh and not M0.nums[n, :n].any() \
                and not M0.nums[:n, n].any() \
                and (M0.nums[:n, :n] * M1.den == M1.nums * M0.den).all():
            return linalg.Exact.reduced(alpha0.nums[:n, :n], alpha0.den)
        return linalg.invert(M1 if k else M0)

    @functools.cached_property
    def basis0(self) -> tuple[Polynomial, ...]:
        return _columns(self.B0)

    @functools.cached_property
    def basis1(self) -> tuple[Polynomial, ...]:
        return _columns(self.B1)

    @property
    def default_quadrature_order(self) -> int:
        return 2 * (self.n + 2)

    def probe_degree(self, degree: int | None = None) -> int:
        """``degree``, or where it is None the largest monomial probe
        degree of the 1D verifiers and the CLI: n + 5."""
        return self.n + 5 if degree is None else degree

    def cached(self, key, build):
        """``build()``, made once per element and ``key``."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def rows(self, k: int, width: int) -> linalg.Exact:
        """T_k: the k-form functionals on 1, x, .., x^(width-1), one row
        per functional: their memoized integer rows over one lcm."""
        def stack():
            rows = [monomial_row(f, width) for f in _family(self, k)[0]]
            den = math.lcm(*[d for _, d in rows])
            return linalg.Exact.reduced(np.array(
                [nums[:width] if d == den else
                 [x * (den // d) for x in nums[:width]] for nums, d in rows],
                dtype=object).reshape(len(rows), width), den)
        return self.cached(("rows", k, width), stack)

    def node_table(self, k: int) -> linalg.Exact:
        """T_k B_k from the functionals and basis themselves (a stored M_k
        may differ from it)."""
        basis = _family(self, k)[1]
        return self.cached(("table", k), lambda: linalg.Exact.trusted(
            *linalg.product(self.rows(k, len(basis.nums)), basis)))

    def table_rank(self, k: int) -> int:
        """The rank of :meth:`node_table` ``k``, once per k."""
        key = ("table rank", k)
        if key not in self._memo:
            self._memo[key] = linalg.rank(self.node_table(k))
        return self._memo[key]

    @property
    def sizes(self) -> tuple[tuple[int, int], ...]:
        """(node functionals, basis functions) per form degree."""
        return ((len(self.functionals0), self.B0.shape[1]),
                (len(self.functionals1), self.B1.shape[1]))

    @functools.cached_property
    def pairing(self) -> tuple[np.ndarray, bool]:
        """D B_0 against [B_1 | 0]: one flag per column j < n, set where d
        of 0-form basis function j is not 1-form basis function j, and the
        kernel flag, set where d of the constant is not zero."""
        D, B1, n = _derived(self.B0), self.B1, self.n
        return ((D.nums[:, :n] * B1.den != B1.nums * D.den).any(axis=0),
                bool(D.nums[:, n].any()))

    @functools.cached_property
    def kron_factors(self) -> list[tuple]:
        """Per form degree k, what kron-structure reads of (T_k B_k, M_k):
        their first nonzero entries (row-major, 0 if none) as integers in
        their ratio (each numerator times the other's denominator), whether
        the two agree once each is divided by its own, and the table rank."""
        factors = []
        for k, stored in enumerate((self.M0, self.M1)):
            table = self.node_table(k)
            a, b = (next((x for x in pair.nums.ravel().tolist() if x), 0)
                    for pair in (table, stored))
            # T_k B_k / a == M_k / b, on the numerators
            factors.append((a * stored.den, b * table.den,
                            bool((table.nums * b == stored.nums * a).all()),
                            self.table_rank(k)))
        return factors

    def monomial_columns(self, width: int) -> tuple:
        """The 1D columns of the monomials x^j, j < width, over one
        denominator: I_0 x^j = alpha_0 T_0, I_1 x^j = alpha_1 T_1 and the
        commutation residual r(x^j) = (I_0 x^j)[:n] - I_1 (x^j)', the one
        factor where the tensor d I u and I d u differ, as (blocks,
        denominator, each block's nonzero-column flags, whether each block
        has a nonzero column).  I_1 D shifts the I_1 columns, so a build,
        once per width, reads T_0 and T_1 at ``width`` only."""
        def build():
            (i0, i1), den = _shared([linalg.product(_family(self, k)[2],
                                                    self.rows(k, width))
                                     for k in (0, 1)])
            blocks = [i0, i1, i0[:self.n] - _shifted(i1)[:, :width]]
            live = [(block != 0).any(axis=0) for block in blocks]
            return blocks, den, live, tuple(bool(mask.any()) for mask in live)
        return self.cached(("monomial columns", width), build)


def _checked(name: str, k: int, size: int, value):
    """A given field: a family of ``size`` k-form node functionals, kept
    as a tuple, or a ``size`` x ``size`` Exact table; else ``TypeError``
    or ``ValueError`` naming the field and, in a family, the index."""
    if not name.startswith("functionals"):
        if not isinstance(value, linalg.Exact):
            raise TypeError(f"{name} is a {type(value).__name__}, "
                            "not a linalg.Exact")
        value.check(name, (size, size))
        return value
    family = tuple(value)
    if len(family) != size:
        raise ValueError(f"{name} has shape {(len(family),)}, "
                         f"expected {(size,)}")
    for i, f in enumerate(family):
        if not isinstance(f, NodeFunctional):
            raise TypeError(f"{name}[{i}] is a {type(f).__name__}, "
                            "not a node functional")
        if f.form_degree != k:
            raise ValueError(f"{name}[{i}] is a {f.form_degree}-form "
                             f"functional, not a {k}-form one")
    return family


def _columns(B: linalg.Exact) -> tuple[Polynomial, ...]:
    """The columns of B as Polynomials."""
    return tuple(from_column(column, B.den) for column in B.nums.T.tolist())


def _derived(P: linalg.Exact) -> linalg.Exact:
    """D P: the derivatives of P's monomial-coefficient columns (row i
    is i + 1 times row i + 1)."""
    return linalg.Exact.reduced(
        P.nums[1:] * np.arange(1, len(P.nums), dtype=object)[:, None], P.den)


def _functional_pairing(e: Element1D, width: int) -> tuple:
    """T_1 D and T_0[:n] on x^0..x^(width-1), each as (numerators,
    denominator), and the mask where they differ; once per width."""
    def build():
        T0, T1 = e.rows(0, width), e.rows(1, width - 1)
        left, right = _shifted(T1.nums), T0.nums[:e.n]
        return ((left, T1.den), (right, T0.den),
                left * T0.den != right * T1.den)
    return e.cached(("functional pairing", width), build)


def _zero_form_columns(m: int, n: int) -> linalg.Exact:
    """B_0 on ints, in the order of the module docstring: the cached
    Hermite and integrated Legendre columns, with the half difference of
    the two value-matching Hermite columns (both of degree 2m+1) and the
    constant 1/2 formed on their numerators."""
    h = [[hermite_column(m, a, j) for a in (0, 1)] for j in range(m + 1)]
    (zero, d0), (one, d1) = h[0]
    columns = [c for pair in h[1:] for c in pair] + [(
        [a * d0 - b * d1 for a, b in zip(one, zero)], 2 * d0 * d1)]
    columns += [legendre_column(m + 1, j + m - 1)
                for j in range(2, n - 2 * m + 1)] + [((1,), 2)]
    den = math.lcm(*[d for _, d in columns])
    nums = np.zeros((n + 1, n + 1), dtype=object)
    for j, (column, d) in enumerate(columns):
        nums[:len(column), j] = [x * (den // d) for x in column]
    return linalg.Exact.reduced(nums, den)


def build_element(m: int, n: int) -> Element1D:
    """The C^m element of degree n, every field built on ints."""
    return Element1D(m, n)


def _family(e: Element1D, k: int):
    """(functionals, B_k, alpha_k) of the k-form space."""
    if k == 0:
        return e.functionals0, e.B0, e.alpha0
    if k == 1:
        return e.functionals1, e.B1, e.alpha1
    raise ValueError("form degree must be 0 or 1")


def _shared(columns) -> tuple[list, int]:
    """(numerators, denominator) pairs over their lcm denominator."""
    den = math.lcm(*(d for _, d in columns))
    return [nums * (den // d) for nums, d in columns], den


def interpolant_columns(e: Element1D, k: int,
                        P: linalg.Exact) -> tuple[np.ndarray, int]:
    """alpha_k T_k P as (numerators, denominator): the interpolants I_k,
    over the k-form basis, of the polynomials whose monomial coefficients
    are P's columns, from block k of the element's monomial table (over
    both blocks' denominator, so reduced before it enters the product)."""
    _family(e, k)  # a form degree other than 0 or 1 raises
    columns, den, *_ = e.monomial_columns(len(P.nums))
    return linalg.product(linalg.Exact.reduced(columns[k], den), P)


def _interpolant(e: Element1D, k: int, values) -> Polynomial:
    """The k-form element polynomial with node values ``values``: B_k
    alpha_k times values, on integer numerators.  Every interpolant,
    exact or smooth, is built here."""
    return from_column(*linalg.product(*_family(e, k)[1:], values))


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
    """1, x, .., x^max_degree, built once per process: a spanning probe set."""
    return list(_monomials(max_degree))


@functools.lru_cache(maxsize=None)
def _monomials(max_degree: int) -> tuple[Polynomial, ...]:
    return tuple(Polynomial.monomial(d) for d in range(max_degree + 1))


def _entry_witness(check: str, row: int, col: int, num: int,
                   den: int = 1) -> dict:
    return {"check": check, "row": row, "col": col,
            "value": linalg.ratio_str(num, den)}


def verify_unisolvence(e: Element1D) -> VerificationReport:
    """Exact structural check of the node matrices.

    The matrix M0[i][j] = (functional i)(basis j) must be: identity on
    the leading (2m+1)-block, zero where functionals of low derivative
    order meet bubbles, lower triangular on the bubble block, and pure
    e_{n+1} in the last row and column; M1 must be M0 without its last
    row and column; both must have full rank, which the checks before
    imply, so ranks are computed only once one of them has failed.
    Witness indices are 1-based.
    """
    m, n, head = e.m, e.n, 2 * e.m + 1
    M0, den = e.M0.nums.tolist(), e.M0.den
    witness: list[dict] = []
    # a region's entries are M0's denominator on the diagonal, else zero
    regions = (("identity-block", [(i, j) for i in range(head)
                                   for j in range(head)]),
               ("bubble-columns", [(i, j) for i in range(head)
                                   for j in range(head, n)]),
               ("bubble-triangular", [(i, j) for i in range(head, n)
                                      for j in range(i + 1, n)]),
               ("last-row", [(n, j) for j in range(n + 1)]),
               ("last-column", [(i, n) for i in range(n + 1)]))
    for check, cells in regions:
        witness += [_entry_witness(check, i + 1, j + 1, M0[i][j], den)
                    for i, j in cells if M0[i][j] != (den if i == j else 0)]
    witness += [_entry_witness("diagonal", i + 1, i + 1, 0)
                for i in range(n + 1) if not M0[i][i]]

    M1 = e.M1
    for i, j in zip(*np.nonzero(e.M0.nums[:-1, :-1] * M1.den
                                != M1.nums * den)):
        witness.append(_entry_witness("deletion-identity", int(i) + 1,
                                      int(j) + 1, M1.nums[i, j], M1.den))

    # with every check above passed, M0 is lower triangular with a
    # nonzero diagonal and M1 its leading block: the ranks are n + 1, n
    if witness:
        for name, matrix, expected in (("rank-M0", e.M0, n + 1),
                                       ("rank-M1", M1, n)):
            rank = linalg.rank(matrix)
            if rank != expected:
                witness.append({"check": name, "rank": rank,
                                "expected": expected})

    return VerificationReport.of("unisolvence", witness, m=m, n=n)


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
    probe_degree = e.probe_degree(probe_degree)
    if type(probe_degree) is not int:  # bools too
        raise TypeError(f"probe_degree {probe_degree!r} is not an int")
    if probe_degree < n:
        raise ValueError("probe_degree must be at least n")
    witness: list[dict] = []

    moved, kernel = e.pairing
    if kernel:
        witness.append({"check": "kernel", "detail":
                        "d of the last basis function is not zero"})

    table = e.node_table(0)
    for key, values in (("functional", table.nums[:n, n]),
                        ("basis", table.nums[n, :n])):
        witness += [{"check": "kernel-separation", key: i + 1,
                     "value": linalg.ratio_str(value, table.den)}
                    for i, value in enumerate(values) if value]

    # with the pairing exact, D B_0[:, :n] is B_1, and a nonsingular
    # T_1 B_1 proves that B_1 has rank n
    pairing = np.flatnonzero(moved)
    if (len(pairing) or e.table_rank(1) < n) \
            and linalg.rank(_derived(e.B0).nums[:, :n]) != n:
        witness.append({"check": "range", "detail":
                        "derivatives of the first n basis functions do not "
                        "span the 1-form space"})
    witness += [{"check": "basis-pairing", "basis": int(j) + 1}
                for j in pairing]

    (left, left_den), (right, right_den), differ = _functional_pairing(
        e, probe_degree + 1)
    for k, i in zip(*np.nonzero(differ.T)):
        witness.append({"check": "functional-pairing",
                        "functional": int(i) + 1, "probe_degree": int(k),
                        "left": linalg.ratio_str(left[i, k], left_den),
                        "right": linalg.ratio_str(right[i, k], right_den)})

    return VerificationReport.of("lemma-hypotheses", witness, m=m, n=n,
                                 probe_degree=probe_degree)


def _shifted(nums: np.ndarray) -> np.ndarray:
    """T D for the numerators of T, over T's denominator: column k of
    T D is k times column k - 1 of T, and column 0 is zero (D maps
    monomial coefficients to those of the derivative)."""
    height, width = nums.shape
    out = np.zeros((height, width + 1), dtype=object)
    out[:, 1:] = nums * np.arange(1, width + 1, dtype=object)
    return out


def _defect(e: Element1D, width: int) -> tuple[np.ndarray, int]:
    """C = D B_0 alpha_0 T_0 - B_1 alpha_1 T_1 D on x^0..x^(width-1), as
    (n x width numerators, denominator): column j is d(I0 x^j) - I1(d x^j),
    so the commutation residual of a probe is C times its coefficient
    column.  Each side multiplies left to right, basis first."""
    T0, T1 = e.rows(0, width), e.rows(1, width - 1)
    left, left_den = linalg.product(_derived(e.B0), e.alpha0)
    right, right_den = linalg.product(e.B1, e.alpha1)
    left, left_den = left @ T0.nums, left_den * T0.den
    right, right_den = right @ _shifted(T1.nums), right_den * T1.den
    den = math.lcm(left_den, right_den)
    return left * (den // left_den) - right * (den // right_den), den


def _premises_hold(e: Element1D, width: int) -> bool:
    """Whether premises (a) ``e.pairing``, (b) :func:`_functional_pairing`
    at ``width`` and (c) of :func:`verify_commutation` hold exactly."""
    (moved, kernel), a0, a1, n = e.pairing, e.alpha0, e.alpha1, e.n
    return not (kernel or moved.any() or a0.nums[:n, n].any()
                or (a0.nums[:n, :n] * a1.den != a1.nums * a0.den).any()
                or _functional_pairing(e, width)[2].any())


def verify_commutation(e: Element1D, probes=None) -> VerificationReport:
    """d(I0 u) == I1(du) exactly, for every probe polynomial u, and each
    I_k is a projection: alpha_k (T_k B_k) = I, so every basis function
    interpolates to itself (d kills the constant, so commutation alone
    cannot see alpha0's last row).  Projection witnesses are 1-based.

    The residuals are the columns of C P, with P the probes' coefficient
    columns and C the defect on the monomials (:func:`_defect`), built
    only where a premise fails (:func:`_premises_hold`): with (a) D B_0 =
    [B_1 | 0], (b) T_1 D = T_0[:n] and (c) alpha_0[:n] = [alpha_1 | 0],
    C = D B_0 alpha_0 T_0 - B_1 alpha_1 T_1 D = B_1 alpha_0[:n] T_0 -
    B_1 alpha_1 T_0[:n] = B_1 (alpha_0[:n] - [alpha_1 | 0]) T_0 = 0."""
    if probes is None:
        probes = monomial_probes(e.probe_degree())
    for index, u in enumerate(probes):
        if not isinstance(u, Polynomial):
            raise TypeError(f"probe {index} has type {type(u).__name__}, "
                            "not a Polynomial")
    width = max([e.n + 1] + [len(u.coeffs) for u in probes])
    witness: list[dict] = []
    if not _premises_hold(e, width):  # else C = 0
        C, den = _defect(e, width)
        P = coefficients(probes, width)
        for index, (u, column) in enumerate(zip(probes, (C @ P.nums).T)):
            if column.any():
                last = np.flatnonzero(column)[-1] + 1
                witness.append({"check": "commutation", "probe": index,
                                "probe_degree": u.degree, "residual": [
                                    linalg.ratio_str(x, den * P.den)
                                    for x in column[:last].tolist()]})
    for k in (0, 1):
        nums, scale = linalg.product(_family(e, k)[2], e.node_table(k))
        for i, j in zip(*np.nonzero(
                nums != scale * np.eye(len(nums), dtype=object))):
            witness.append({"check": "projection", "form": k,
                            "row": int(i) + 1, "col": int(j) + 1})
    return VerificationReport.of("commutation", witness, m=e.m, n=e.n,
                                 probes=len(probes))


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
    if not (math.isfinite(tolerance) and tolerance >= 0):  # gap > nan: False
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    cells = cells or [cell_interpolant(e, u, a, a + 1, quadrature_order)
                      for a in (0.0, 1.0)]
    # exact junction derivatives d^s p(1) = sum_k k!/(k-s)! p_k and d^s p(0)
    # = s! p_s on numerators, rounded once as float(Fraction) rounds
    P = coefficients(cells, max([e.n + 1] + [len(p.coeffs) for p in cells]))
    left, right = P.nums.T.tolist()
    mismatches = [abs(sum(math.perm(k, s) * c for k, c in enumerate(left))
                      - math.factorial(s) * right[s]) / P.den
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

    return VerificationReport.of("continuity-demo", witness, details,
                                 m=e.m, n=e.n, function=u.name)

"""Tensor-product cochain complex on the N-dimensional unit box.

The 1D element pair tensorizes to N dimensions: a form of degree nu is a
sum over characteristic vectors chi (0/1 vectors with nu ones, marking
which axes carry the 1-form factor) of linear combinations of rank-one
basis functions.  Two representations coexist and are cross-checked:

* :class:`RankOneForm` — an explicit product of univariate polynomials
  with a scalar weight; the exterior derivative differentiates one
  factor at a time with the alternating sign ``theta``.
* :class:`TensorForm` — coefficients over the element basis, one dense
  array per characteristic vector; the exterior derivative is an index
  rule (the derivative of 0-form basis function j is 1-form basis
  function j, and the constant dies).

Interpolating a rank-one form factorizes into 1D interpolations, and
expanding one over the basis into 1D basis changes, so either way its
coefficients are the outer product of one 1D coefficient column per
factor.  Each column is computed once per element, source and factor
polynomial and kept as integer numerators over one denominator.  One
kernel stacks many forms on a trailing axis of Python-int numerator
blocks, one denominator per form, and fills each block with one face-
splitting (Khatri-Rao) product of the columns.  The commutation and
d-after-d verifiers both run on it and compare their routes exactly,
on numerators scaled to a common denominator per form.

The verifiers at the bottom are the executable content: dimension
counts, d after d vanishing, Kronecker structure of the node matrices,
and commutation of interpolation with the exterior derivative.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from . import linalg
from .element1d import Element1D, interpolation_coefficients
from .functionals import NodeFunctional
from .polycore import Polynomial
from .report import VerificationReport
from .smooth import SmoothFunctionND

Chi = tuple[int, ...]

DEFAULT_ND_TOLERANCE = 1e-11

_VARIABLE_NAMES = ("u", "v", "w")


def enumerate_chi(dimension: int, nu: int) -> list[Chi]:
    """All 0/1 vectors of the given length with nu ones, lexicographic."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if not 0 <= nu <= dimension:
        raise ValueError(f"form degree nu={nu} out of range 0..{dimension}")
    return [bits for bits in itertools.product((0, 1), repeat=dimension)
            if sum(bits) == nu]


def theta(chi: Chi, t: int) -> int:
    """Alternating sign for differentiating axis t: (-1)^(bits before t)."""
    return -1 if sum(chi[:t]) % 2 else 1


def flat_sign(chi: Chi, t: int) -> int:
    """Degenerate sign rule (always +1); breaks d after d = 0.

    Exists as a corruption hook for the negative-control tests: a global
    sign flip or a mirrored bit count would cancel out of d(d(u)) and of
    the commutation identity, so the falsifiable corruption is dropping
    the alternation altogether.
    """
    return 1


def _block_widths(chi: Chi, n: int) -> tuple[int, ...]:
    return tuple(n + 1 - i for i in chi)


def space_dimension(dimension: int, nu: int, element: Element1D) -> int:
    n = element.n
    return sum(math.prod(_block_widths(chi, n))
               for chi in enumerate_chi(dimension, nu))


@dataclass(frozen=True)
class RankOneForm:
    """sign * p_1(x_1) ... p_N(x_N), each factor tagged 0-form or 1-form."""

    sign: Fraction
    factors: tuple[tuple[int, Polynomial], ...]

    def __post_init__(self):
        for bit, _ in self.factors:
            if bit not in (0, 1):
                raise ValueError(f"factor bit {bit!r} is neither 0 (0-form) "
                                 "nor 1 (1-form)")

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def chi(self) -> Chi:
        return tuple(bit for bit, _ in self.factors)

    @property
    def nu(self) -> int:
        return sum(self.chi)

    def value(self, point):
        out = self.sign
        for (_, p), x in zip(self.factors, point):
            out = out * p(x)
        return out


def rank_one(factors, sign=1) -> RankOneForm:
    """Convenience builder: factors is a sequence of (bit, Polynomial)."""
    return RankOneForm(Fraction(sign),
                       tuple((int(bit), p) for bit, p in factors))


def d_rank_one(u: RankOneForm, sign_rule=theta) -> list[RankOneForm]:
    """Exterior derivative as a list of rank-one terms (may be empty)."""
    terms = []
    for t, (bit, p) in enumerate(u.factors):
        if bit == 1:
            continue
        dp = p.derivative()
        if dp.is_zero():
            continue
        factors = u.factors[:t] + ((1, dp),) + u.factors[t + 1:]
        terms.append(RankOneForm(u.sign * sign_rule(u.chi, t), factors))
    return terms


class TensorForm:
    """Coefficients over the rank-one element basis, one block per chi.

    ``degree`` is the underlying 1D polynomial degree n; the block for a
    characteristic vector chi has shape (n+1-chi[0], ..., n+1-chi[N-1]).
    Exact forms hold Fraction entries (object arrays), smooth-input
    paths hold floats.  A form of degree above N is identically zero
    and carries no blocks.
    """

    __slots__ = ("dimension", "nu", "degree", "blocks")

    def __init__(self, dimension: int, nu: int, degree: int, blocks: dict):
        if nu > dimension:
            expected: list[Chi] = []
        else:
            expected = enumerate_chi(dimension, nu)
        if set(blocks) != set(expected):
            raise ValueError("blocks must cover exactly the characteristic "
                             f"vectors of nu={nu}")
        for chi, block in blocks.items():
            if block.shape != _block_widths(chi, degree):
                raise ValueError(f"block {chi} has shape {block.shape}, "
                                 f"expected {_block_widths(chi, degree)}")
        self.dimension = dimension
        self.nu = nu
        self.degree = degree
        self.blocks = blocks

    @classmethod
    def zero(cls, dimension: int, nu: int, degree: int,
             exact: bool = True) -> "TensorForm":
        blocks = {}
        if nu <= dimension:
            for chi in enumerate_chi(dimension, nu):
                shape = _block_widths(chi, degree)
                if exact:
                    blocks[chi] = np.full(shape, Fraction(0), dtype=object)
                else:
                    blocks[chi] = np.zeros(shape)
        return cls(dimension, nu, degree, blocks)

    def _compatible(self, other: "TensorForm"):
        if (self.dimension, self.nu, self.degree) != \
                (other.dimension, other.nu, other.degree):
            raise ValueError("forms live in different spaces")

    def __add__(self, other: "TensorForm") -> "TensorForm":
        self._compatible(other)
        return TensorForm(self.dimension, self.nu, self.degree,
                          {chi: self.blocks[chi] + other.blocks[chi]
                           for chi in self.blocks})

    def __sub__(self, other: "TensorForm") -> "TensorForm":
        self._compatible(other)
        return TensorForm(self.dimension, self.nu, self.degree,
                          {chi: self.blocks[chi] - other.blocks[chi]
                           for chi in self.blocks})

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorForm):
            return NotImplemented
        if (self.dimension, self.nu, self.degree) != \
                (other.dimension, other.nu, other.degree):
            return False
        return all(bool((self.blocks[chi] == other.blocks[chi]).all())
                   for chi in self.blocks)

    def __hash__(self):
        return object.__hash__(self)

    def is_zero(self) -> bool:
        return all(bool((block == 0).all()) for block in self.blocks.values())

    def max_abs(self):
        """Largest absolute coefficient (0 for the empty top form)."""
        best = 0
        for block in self.blocks.values():
            if block.size:
                candidate = np.abs(block).max()
                if candidate > best:
                    best = candidate
        return best

    def copy(self) -> "TensorForm":
        return TensorForm(self.dimension, self.nu, self.degree,
                          {chi: block.copy() for chi, block in self.blocks.items()})


def d_tensor(u: TensorForm, sign_rule=theta) -> TensorForm:
    """Exterior derivative in the basis representation.

    Along every 0-form axis the coefficient of basis function j moves to
    1-form basis function j with the sign of ``sign_rule``; the trailing
    constant basis function is dropped (its derivative vanishes).
    """
    N, n = u.dimension, u.degree
    if u.nu >= N:
        return TensorForm(N, u.nu + 1, n, {})
    exact = not any(block.dtype == float for block in u.blocks.values())
    out = TensorForm.zero(N, u.nu + 1, n, exact=exact)
    _index_rule(u.blocks, n, sign_rule, out.blocks)
    return out


def _index_rule(blocks: dict, n: int, sign_rule, out: dict) -> dict:
    """Add d of the chi blocks into ``out`` (the blocks of degree nu+1).

    The rule acts on the leading N axes of each block; trailing axes,
    such as the probe axis of a batch, ride along untouched.
    """
    for chi, block in blocks.items():
        for t, bit in enumerate(chi):
            if bit == 1:
                continue
            target = chi[:t] + (1,) + chi[t + 1:]
            piece = block[(slice(None),) * t + (slice(0, n),)]
            if sign_rule(chi, t) < 0:
                piece = -piece
            out[target] = out[target] + piece
    return out


# Per-element memos.  They are keyed weakly, so an element and everything
# derived from it are freed together; a corrupted copy of an element is
# a different key and never sees the pristine element's entries.
_BASIS_INVERSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_COLUMNS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _basis_inverse(element: Element1D, k: int) -> np.ndarray:
    """Inverse of the monomial-coefficient matrix of the k-form basis."""
    memo = _BASIS_INVERSES.setdefault(element, {})
    if k not in memo:
        basis = element.basis0 if k == 0 else element.basis1
        width = element.n + 1 - k
        matrix = np.full((width, width), Fraction(0), dtype=object)
        for j, p in enumerate(basis):
            for i, c in enumerate(p.coeffs):
                matrix[i][j] = c
        memo[k] = linalg.invert(matrix)
    return memo[k]


def expand_in_basis(element: Element1D, k: int, p: Polynomial) -> np.ndarray:
    """Coefficients of p over the element's k-form basis (exact)."""
    width = element.n + 1 - k
    if p.degree >= width:
        raise ValueError(f"degree {p.degree} polynomial does not lie in the "
                         f"{k}-form element space (degree <= {width - 1})")
    vec = np.full(width, Fraction(0), dtype=object)
    for i, c in enumerate(p.coeffs):
        vec[i] = c
    return _basis_inverse(element, k) @ vec


def canonicalize(terms, element: Element1D, dimension: int | None = None,
                 nu: int | None = None) -> TensorForm:
    """Convert rank-one terms to the basis representation (exact)."""
    if isinstance(terms, RankOneForm):
        terms = [terms]
    else:
        terms = list(terms)
    if terms:
        dimension = terms[0].dimension
        nu = terms[0].nu
    if dimension is None or nu is None:
        raise ValueError("empty term list needs explicit dimension and nu")
    return _single_form(element, dimension, nu, terms, expand_in_basis)


def _column(element: Element1D, k: int, p: Polynomial, source,
            memo: dict) -> tuple[tuple[int, ...], int]:
    """``source(element, k, p)`` as (integer numerators, common
    denominator), computed once per memo.

    The source is part of the key: the interpolant I_k p and the basis
    expansion of p differ on a corrupted element, so one must never be
    served for the other.
    """
    key = (source, k, p)
    column = memo.get(key)
    if column is None:
        coeffs = source(element, k, p)
        den = math.lcm(*(c.denominator for c in coeffs))
        column = memo[key] = (
            tuple(c.numerator * (den // c.denominator) for c in coeffs), den)
    return column


def _zero_batch(dimension: int, nu: int, n: int, count: int) -> dict:
    return {chi: np.zeros(_block_widths(chi, n) + (count,), dtype=object)
            for chi in enumerate_chi(dimension, nu)}


def _coefficient_batch(element: Element1D, dimension: int, nu: int, terms,
                       owners, count: int, source) -> tuple[dict, list[int]]:
    """Basis coefficients of ``count`` forms, stacked on a trailing axis.

    ``terms[i]`` is a rank-one term of form ``owners[i]``; ``source`` maps
    one factor to its 1D coefficient column, either
    :func:`interpolation_coefficients` (the interpolant) or
    :func:`expand_in_basis` (the form itself, which must then lie in the
    element space).  Returns Python-int numerator blocks of shape
    widths(chi) + (count,) and one denominator per form: form p has
    coefficients ``blocks[chi][..., p] / dens[p]``.  Every chi block is
    one face-splitting product of the terms' 1D numerator columns.
    """
    memo = _COLUMNS.setdefault(element, {})
    columns, term_dens = [], []
    for term in terms:
        if term.dimension != dimension or term.nu != nu:
            raise ValueError(
                f"term has dimension {term.dimension}, degree {term.nu}; "
                f"expected {dimension} and {nu}")
        factor_columns = [_column(element, bit, p, source, memo)
                          for bit, p in term.factors]
        columns.append(factor_columns)
        term_dens.append(term.sign.denominator
                         * math.prod(den for _, den in factor_columns))
    dens = [1] * count
    for owner, den in zip(owners, term_dens):
        dens[owner] = math.lcm(dens[owner], den)

    blocks = _zero_batch(dimension, nu, element.n, count)
    members: dict = {chi: [] for chi in blocks}
    for i, term in enumerate(terms):
        members[term.chi].append(i)
    for chi, group in members.items():
        if not group:
            continue
        product = np.array(
            [terms[i].sign.numerator * (dens[owners[i]] // term_dens[i])
             for i in group],
            dtype=object)
        for axis in range(dimension):
            factor = np.array([columns[i][axis][0] for i in group],
                              dtype=object).T
            product = product[..., None, :] * factor
        np.add.at(blocks[chi], (Ellipsis, [owners[i] for i in group]),
                  product)
    return blocks, dens


def _single_form(element: Element1D, dimension: int, nu: int, terms,
                 source) -> TensorForm:
    """The sum of ``terms`` as one Fraction-valued TensorForm."""
    blocks, (den,) = _coefficient_batch(element, dimension, nu, terms,
                                        [0] * len(terms), 1, source)
    return TensorForm(dimension, nu, element.n,
                      {chi: block[..., 0] * Fraction(1, den)
                       for chi, block in blocks.items()})


def _contract(block: np.ndarray, vectors) -> object:
    """Sum of block[j1..jN] * v1[j1] * ... * vN[jN]."""
    arr = block
    for vec in vectors:
        pieces = [vj * arr[j] for j, vj in enumerate(vec)]
        arr = reduce(lambda a, b: a + b, pieces)
    return arr


def evaluate_component(form: TensorForm, element: Element1D, chi: Chi, point):
    """Value of one chi component of a TensorForm at a point."""
    vectors = []
    for bit, x in zip(chi, point):
        basis = element.basis0 if bit == 0 else element.basis1
        vectors.append([p(x) for p in basis])
    return _contract(form.blocks[chi], vectors)


@dataclass(frozen=True)
class TensorNodeFunctional:
    """Product of 1D node functionals, one per axis."""

    chi: Chi
    index: tuple[int, ...]
    parts: tuple[NodeFunctional, ...]

    def apply_rank_one(self, term: RankOneForm):
        if term.chi != self.chi:
            return Fraction(0)
        out = term.sign
        for part, (_, p) in zip(self.parts, term.factors):
            out = out * part.apply(p)
        return out

    def apply(self, u, element: Element1D | None = None):
        if isinstance(u, RankOneForm):
            return self.apply_rank_one(u)
        if isinstance(u, TensorForm):
            if element is None:
                raise ValueError("basis-represented input needs the element")
            vectors = []
            for bit, part in zip(self.chi, self.parts):
                basis = element.basis0 if bit == 0 else element.basis1
                vectors.append([part.apply(p) for p in basis])
            return _contract(u.blocks[self.chi], vectors)
        return sum((self.apply_rank_one(term) for term in u), Fraction(0))

    def apply_smooth(self, u: SmoothFunctionND, quadrature_order: int,
                     cache: dict | None = None) -> float:
        """Product functional on an N-variable callback function.

        Every 1D part expands into pointwise atoms (weight, node,
        derivative order); the product functional sums the product
        weights times mixed partials of u over the atom grid.
        """
        atoms = [part.atoms(quadrature_order) for part in self.parts]
        total = 0.0
        for combo in itertools.product(*atoms):
            weight = 1.0
            for w, _, _ in combo:
                weight *= w
            orders = tuple(order for _, _, order in combo)
            point = tuple(x for _, x, _ in combo)
            if cache is None:
                value = u.derivative(orders, point)
            else:
                key = (orders, point)
                value = cache.get(key)
                if value is None:
                    value = u.derivative(orders, point)
                    cache[key] = value
            total += weight * value
        return total

    def describe(self, variables=_VARIABLE_NAMES) -> str:
        pieces = []
        for t, part in enumerate(self.parts):
            var = variables[t] if t < len(variables) else f"u{t + 1}"
            text = part.describe(var)
            if "+" in text or "-" in text:
                text = f"({text})"
            pieces.append(text)
        return "*".join(pieces)


def tensor_node_functionals(dimension: int, nu: int,
                            element: Element1D) -> list[TensorNodeFunctional]:
    """All product functionals of the nu-form space, in frozen order.

    Characteristic vectors are lexicographic; within one chi block the
    index vectors (j_1, .., j_N) run in row-major order.
    """
    out = []
    for chi in enumerate_chi(dimension, nu):
        families = [element.functionals0 if bit == 0 else element.functionals1
                    for bit in chi]
        widths = [len(f) for f in families]
        for idx in itertools.product(*(range(w) for w in widths)):
            parts = tuple(families[t][j] for t, j in enumerate(idx))
            out.append(TensorNodeFunctional(
                chi=chi, index=tuple(j + 1 for j in idx), parts=parts))
    return out


@dataclass(frozen=True)
class SmoothFormND:
    """A smooth nu-form: one N-variable component function per chi."""

    dimension: int
    nu: int
    components: dict

    def __post_init__(self):
        allowed = set(enumerate_chi(self.dimension, self.nu)) \
            if self.nu <= self.dimension else set()
        for chi, comp in self.components.items():
            if chi not in allowed:
                raise ValueError(f"component {chi} does not belong to a "
                                 f"{self.nu}-form in {self.dimension}D")
            if comp.dimension != self.dimension:
                raise ValueError("component dimension mismatch")


def as_smooth_form(u, dimension: int, nu: int) -> SmoothFormND:
    """Wrap a bare scalar function as the single component of a form.

    Only 0-forms and top forms have a single component; anything in
    between must be passed as a :class:`SmoothFormND` explicitly.
    """
    if isinstance(u, SmoothFormND):
        if (u.dimension, u.nu) != (dimension, nu):
            raise ValueError("form does not match the requested space")
        return u
    if nu == 0:
        chi = (0,) * dimension
    elif nu == dimension:
        chi = (1,) * dimension
    else:
        raise ValueError("a bare function determines a component only for "
                         "nu = 0 or nu = N; pass a SmoothFormND")
    return SmoothFormND(dimension, nu, {chi: u})


def d_smooth(u, dimension: int | None = None, nu: int | None = None,
             sign_rule=theta) -> SmoothFormND:
    """Exterior derivative of a smooth form, via the component formula."""
    if isinstance(u, SmoothFunctionND):
        u = as_smooth_form(u, u.dimension, 0)
    N, nu = u.dimension, u.nu
    components: dict = {}
    for chi, comp in u.components.items():
        for t in range(N):
            if chi[t] == 1:
                continue
            target = chi[:t] + (1,) + chi[t + 1:]
            term = float(sign_rule(chi, t)) * comp.differentiated(t)
            if target in components:
                components[target] = components[target] + term
            else:
                components[target] = term
    return SmoothFormND(N, nu + 1, components)


def tensor_interpolate(dimension: int, nu: int, u, element: Element1D,
                       quadrature_order: int | None = None) -> TensorForm:
    """Interpolate onto the nu-form tensor space.

    Accepts a rank-one polynomial form (or a list of them), an element
    of the space itself (projection: returned unchanged), or a smooth
    callback input (bare function for nu in {0, N}, SmoothFormND
    otherwise).  On a rank-one input the operator factorizes into the 1D
    interpolations of the factors.
    """
    if not 0 <= nu <= dimension:
        raise ValueError(f"form degree nu={nu} out of range 0..{dimension}")

    if isinstance(u, RankOneForm):
        u = [u]
    if isinstance(u, (list, tuple)):
        return _single_form(element, dimension, nu, u,
                            interpolation_coefficients)

    if isinstance(u, TensorForm):
        if (u.dimension, u.nu, u.degree) != (dimension, nu, element.n):
            raise ValueError("form does not match the requested space")
        return u.copy()

    form = as_smooth_form(u, dimension, nu)
    if quadrature_order is None:
        quadrature_order = element.default_quadrature_order
    alphas = {0: linalg.to_float(element.alpha0),
              1: linalg.to_float(element.alpha1)}
    families = {0: element.functionals0, 1: element.functionals1}
    out = TensorForm.zero(dimension, nu, element.n, exact=False)
    for chi in enumerate_chi(dimension, nu):
        comp = form.components.get(chi)
        if comp is None:
            continue
        widths = _block_widths(chi, element.n)
        values = np.zeros(widths)
        cache: dict = {}
        for idx in itertools.product(*(range(w) for w in widths)):
            functional = TensorNodeFunctional(
                chi=chi, index=tuple(j + 1 for j in idx),
                parts=tuple(families[bit][j] for bit, j in zip(chi, idx)))
            values[idx] = functional.apply_smooth(comp, quadrature_order, cache)
        coeffs = values
        for axis, bit in enumerate(chi):
            coeffs = np.moveaxis(
                np.tensordot(alphas[bit], coeffs, axes=(1, axis)), 0, axis)
        out.blocks[chi] = coeffs
    return out


def _basis_rank_one(element: Element1D, chi: Chi, idx: tuple[int, ...]) -> RankOneForm:
    factors = []
    for bit, j in zip(chi, idx):
        basis = element.basis0 if bit == 0 else element.basis1
        factors.append((bit, basis[j]))
    return rank_one(factors)


def verify_dimensions(dimension: int, element: Element1D,
                      nu_values=None) -> VerificationReport:
    """Dimension bookkeeping of the tensor spaces.

    Checks the binomial count of characteristic vectors, the product
    formula against brute-force basis enumeration, and the closed-form
    total dimension (2n+1)^N across all form degrees.
    """
    n = element.n
    if nu_values is None:
        nu_values = range(dimension + 1)
    witness: list[dict] = []
    total = 0
    for nu in nu_values:
        chis = enumerate_chi(dimension, nu)
        expected_count = math.comb(dimension, nu)
        if len(chis) != expected_count or len(set(chis)) != len(chis):
            witness.append({"check": "chi-count", "nu": nu,
                            "count": len(chis), "expected": expected_count})
        if any(sum(chi) != nu for chi in chis):
            witness.append({"check": "chi-weight", "nu": nu})
        formula = space_dimension(dimension, nu, element)
        enumerated = 0
        for chi in chis:
            enumerated += sum(1 for _ in itertools.product(
                *(range(w) for w in _block_widths(chi, n))))
        if formula != enumerated:
            witness.append({"check": "dimension", "nu": nu,
                            "formula": formula, "enumerated": enumerated})
        functional_count = len(tensor_node_functionals(dimension, nu, element))
        if functional_count != formula:
            witness.append({"check": "functional-count", "nu": nu,
                            "count": functional_count, "expected": formula})
        total += formula
    if list(nu_values) == list(range(dimension + 1)):
        closed_form = (2 * n + 1) ** dimension
        if total != closed_form:
            witness.append({"check": "total-dimension", "total": total,
                            "expected": closed_form})
    return VerificationReport(name="dimensions", passed=not witness,
                              parameters={"N": dimension, "m": element.m,
                                          "n": element.n},
                              witness=witness)


def _d_batch(terms, owners, sign_rule) -> tuple[list, list]:
    """d_rank_one of every term; each piece keeps its term's owner."""
    out, out_owners = [], []
    for term, owner in zip(terms, owners):
        pieces = d_rank_one(term, sign_rule)
        out += pieces
        out_owners += [owner] * len(pieces)
    return out, out_owners


def _failing(count: int, blocks) -> np.ndarray:
    """Which of ``count`` batched forms has a nonzero entry in any block."""
    out = np.zeros(count, dtype=bool)
    for block in blocks:
        out |= (block != 0).reshape(-1, count).any(axis=0)
    return out


def verify_dd_zero(dimension: int, element: Element1D,
                   sign_rule=theta) -> VerificationReport:
    """d after d annihilates every rank-one basis element, exactly.

    Routes: (1) the index rule applied twice in the basis
    representation; (2) consistency of the index rule with honest
    polynomial differentiation (the basis expansion of d(poly) must equal
    the index rule's d); (3) the polynomial route applied twice and
    expanded.  Route 2 extends route 1 to the polynomial representation
    by linearity, route 3 checks that argument directly.  Every basis
    element takes all three routes: the elements of one characteristic
    vector run as one batch on a trailing axis, and each reports its
    first failing route only.
    """
    n = element.n
    witness: list[dict] = []
    checked = 0
    for nu in range(dimension + 1):
        for chi in enumerate_chi(dimension, nu):
            widths = _block_widths(chi, n)
            indices = list(itertools.product(*(range(w) for w in widths)))
            count = len(indices)
            checked += count
            if nu == dimension:
                continue  # d maps top forms into the empty (N+1)-form space
            units = np.eye(count, dtype=object).reshape(widths + (count,))
            first = _index_rule({chi: units}, n, sign_rule,
                                _zero_batch(dimension, nu + 1, n, count))
            d_terms, d_owners = _d_batch(
                [_basis_rank_one(element, chi, idx) for idx in indices],
                range(count), sign_rule)
            expanded, dens = _coefficient_batch(
                element, dimension, nu + 1, d_terms, d_owners, count,
                expand_in_basis)
            scale = np.array(dens, dtype=object)
            route2 = _failing(count,
                              (block * scale - expanded[target]
                               for target, block in first.items()))
            route1 = route3 = np.zeros(count, dtype=bool)
            if nu + 2 <= dimension:
                second = _index_rule(first, n, sign_rule,
                                     _zero_batch(dimension, nu + 2, n, count))
                route1 = _failing(count, second.values())
                twice, _ = _coefficient_batch(
                    element, dimension, nu + 2,
                    *_d_batch(d_terms, d_owners, sign_rule), count,
                    expand_in_basis)
                route3 = _failing(count, twice.values())
            routes = (("dd-zero", route1),
                      ("representation-consistency", route2),
                      ("dd-zero-polynomial", route3))
            for owner, idx in enumerate(indices):
                check = next((name for name, bad in routes if bad[owner]),
                             None)
                if check is not None:
                    witness.append({"check": check, "nu": nu,
                                    "chi": list(chi),
                                    "index": [j + 1 for j in idx]})
    return VerificationReport(name="dd-zero", passed=not witness,
                              parameters={"N": dimension, "m": element.m,
                                          "n": element.n,
                                          "basis_elements": checked},
                              witness=witness)


def rank_one_monomial_probes(dimension: int, nu: int,
                             degrees) -> list[RankOneForm]:
    """Rank-one probes with monomial factors x^a, a drawn from degrees."""
    degrees = sorted(set(int(d) for d in degrees))
    probes = []
    for chi in enumerate_chi(dimension, nu):
        for combo in itertools.product(degrees, repeat=dimension):
            probes.append(rank_one(
                [(bit, Polynomial.monomial(a)) for bit, a in zip(chi, combo)]))
    return probes


def verify_tensor_commutation(dimension: int, nu: int, probes,
                              element: Element1D,
                              sign_rule=theta) -> VerificationReport:
    """Interpolation commutes with d: I(du) == d(I(u)), exactly.

    A probe is a rank-one form or a list of them.  All probes run as one
    batch: d(I(u)) is the index rule applied to the batched interpolants,
    I(du) interpolates every term of every du with its probe as owner,
    and the two sides are compared per probe on integer numerators over
    the lcm of their denominators.  Top-degree probes need no comparison:
    d maps them into the empty (N+1)-form space.
    """
    forms = [[probe] if isinstance(probe, RankOneForm) else list(probe)
             for probe in probes]
    terms = [term for form in forms for term in form]
    owners = [index for index, form in enumerate(forms) for _ in form]
    count = len(forms)
    lhs, lhs_dens = _coefficient_batch(element, dimension, nu, terms, owners,
                                       count, interpolation_coefficients)
    witness: list[dict] = []
    if nu < dimension:
        # rebinding frees the interpolants before I(du) is built
        lhs = _index_rule(lhs, element.n, sign_rule,
                          _zero_batch(dimension, nu + 1, element.n, count))
        rhs, rhs_dens = _coefficient_batch(
            element, dimension, nu + 1, *_d_batch(terms, owners, sign_rule),
            count, interpolation_coefficients)
        common = [math.lcm(a, b) for a, b in zip(lhs_dens, rhs_dens)]
        left = np.array([c // a for c, a in zip(common, lhs_dens)],
                        dtype=object)
        right = np.array([c // b for c, b in zip(common, rhs_dens)],
                         dtype=object)
        leading = tuple(range(dimension))
        nonzero, peak = {}, {}
        for chi, block in lhs.items():
            residual = block * left - rhs[chi] * right
            nonzero[chi] = (residual != 0).any(axis=leading)
            peak[chi] = np.abs(residual).max(axis=leading)
        for index in range(count):
            bad_blocks = [list(chi) for chi in lhs if nonzero[chi][index]]
            if bad_blocks:
                largest = max(peak[chi][index] for chi in lhs)
                witness.append({"check": "tensor-commutation", "probe": index,
                                "blocks": bad_blocks,
                                "max_abs": str(Fraction(largest,
                                                        common[index]))})
    return VerificationReport(name="tensor-commutation", passed=not witness,
                              parameters={"N": dimension, "nu": nu,
                                          "m": element.m, "n": element.n,
                                          "probes": count},
                              witness=witness)


def verify_kron_structure(dimension: int, nu: int,
                          element: Element1D) -> VerificationReport:
    """Per-chi node matrices factor as Kronecker products and invert.

    The direct route applies every product functional to every rank-one
    basis element; the result must equal the Kronecker product of the 1D
    node matrices, and must be exactly invertible.
    """
    witness: list[dict] = []
    matrices = {0: element.M0, 1: element.M1}
    for chi in enumerate_chi(dimension, nu):
        widths = _block_widths(chi, element.n)
        size = math.prod(widths)
        functionals = [f for f in tensor_node_functionals(dimension, nu, element)
                       if f.chi == chi]
        direct = np.full((size, size), Fraction(0), dtype=object)
        for row, functional in enumerate(functionals):
            for col, idx in enumerate(itertools.product(
                    *(range(w) for w in widths))):
                direct[row][col] = functional.apply_rank_one(
                    _basis_rank_one(element, chi, idx))
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

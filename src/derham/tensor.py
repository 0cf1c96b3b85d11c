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
coefficients are the Kronecker product of one 1D column per factor.
One exact routine (:func:`_kron_blocks`) fills the blocks of a batch of
explicit forms with face-splitting (Khatri-Rao) products of such
columns on Python ints.  One chi-level rule (:func:`_d_terms`) gives d
to the index rule, to the smooth component formula and to the
commutation residual, which is the 1D commuting diagram with the other
axes riding along: on the target chi + e_t, d I u - I d u of a rank-one
term is, up to sign, the interpolants of the other axes times the 1D
residual r on axis t, columns of the element's monomial table
(:meth:`Element1D.monomial_columns`) with their nonzero flags.
On a grid input (dd-zero's basis, the monomial probes of degree 0..d
of :func:`verify_monomial_commutation`) the verifiers decide from the
1D columns alone: a Kronecker product is nonzero iff every factor is,
and its peak, taken only for a witness, is the product of theirs.

The verifiers at the bottom are the executable content: dimension
counts, d after d vanishing, Kronecker structure of the node matrices,
and commutation of interpolation with the exterior derivative.  On a
grid input each reads, beside the sign rule, only m, n and the width-free
1D facts that the element keeps (``sizes``, ``table_rank``, ``pairing``,
``kron_factors``) or its monomial table.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import linalg, report
from .element1d import (Element1D, _family, _shared, _valid_degree,
                        interpolant_columns)
from .functionals import NodeFunctional
from .polycore import Polynomial, coefficients
from .quadrature import check_order
from .report import VerificationReport
from .smooth import SmoothFunctionND

Chi = tuple[int, ...]

DEFAULT_ND_TOLERANCE = 1e-11

_VARIABLE_NAMES = ("u", "v", "w")


def enumerate_chi(dimension: int, nu: int) -> list[Chi]:
    """All 0/1 vectors of the given length with nu ones, lexicographic."""
    if type(dimension) is not int or type(nu) is not int:  # bools too
        raise TypeError(f"dimension {dimension!r} or nu {nu!r} is not an int")
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
    """Degenerate sign rule (always +1), the ``flip-theta`` corruption:
    it breaks d after d = 0 (see :mod:`derham.corruptions`)."""
    return 1


def _block_widths(chi: Chi, n: int) -> tuple[int, ...]:
    return tuple(n + 1 - i for i in chi)


def space_dimension(dimension: int, nu: int, element: Element1D) -> int:
    n = element.n
    return sum(math.prod(_block_widths(chi, n))
               for chi in enumerate_chi(dimension, nu))


@dataclass(frozen=True)
class RankOneForm:
    """sign * p_1(x_1) ... p_N(x_N), each factor tagged 0-form or 1-form.

    ``chi``, the tuple of factor bits, is worked out once on construction
    (it is not a field: equality, hash and repr see sign and factors).
    """

    sign: Fraction
    factors: tuple[tuple[int, Polynomial], ...]

    def __post_init__(self):
        if type(self.sign) not in (int, Fraction):
            raise TypeError(f"sign {self.sign!r} is not an int or Fraction")
        for axis, (bit, p) in enumerate(self.factors):
            if type(bit) is not int:
                raise TypeError(f"axis {axis}: factor bit {bit!r} is not "
                                "the int 0 or 1")
            if bit not in (0, 1):
                raise ValueError(f"axis {axis}: factor bit {bit!r} is "
                                 "neither 0 (0-form) nor 1 (1-form)")
            if not isinstance(p, Polynomial):
                raise TypeError(f"axis {axis}: factor {p!r} is not a "
                                "Polynomial")
        object.__setattr__(self, "chi",
                           tuple(bit for bit, _ in self.factors))

    @property
    def dimension(self) -> int:
        return len(self.factors)

    @property
    def nu(self) -> int:
        return sum(self.chi)

    def value(self, point):
        out = self.sign
        for (_, p), x in zip(self.factors, point):
            out = out * p(x)
        return out


def rank_one(factors, sign=1) -> RankOneForm:
    """Convenience builder: factors is a sequence of (bit, Polynomial),
    sign an int or Fraction (anything else is rejected, never coerced)."""
    if type(sign) in (int, Fraction):
        sign = Fraction(sign)
    return RankOneForm(sign, tuple((bit, p) for bit, p in factors))


def _sign(sign_rule, chi: Chi, t: int) -> int:
    """``sign_rule(chi, t)``, which must be the int 1 or -1."""
    sign = sign_rule(chi, t)
    if type(sign) is not int or sign not in (1, -1):
        raise ValueError(f"sign rule gave {sign!r} for chi {chi}, axis {t}; "
                         "expected the int 1 or -1")
    return sign


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
        terms.append(RankOneForm(u.sign * _sign(sign_rule, u.chi, t),
                                 factors))
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
        expected = enumerate_chi(dimension, nu) if nu <= dimension else []
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
        for chi in enumerate_chi(dimension, nu) if nu <= dimension else []:
            shape = _block_widths(chi, degree)
            blocks[chi] = np.full(shape, Fraction(0), dtype=object) \
                if exact else np.zeros(shape)
        return cls(dimension, nu, degree, blocks)

    def _space(self) -> tuple[int, int, int]:
        return self.dimension, self.nu, self.degree

    def _combine(self, other: "TensorForm", op) -> "TensorForm":
        if self._space() != other._space():
            raise ValueError("forms live in different spaces")
        return TensorForm(*self._space(), {chi: op(block, other.blocks[chi])
                                           for chi, block in
                                           self.blocks.items()})

    def __add__(self, other: "TensorForm") -> "TensorForm":
        return self._combine(other, np.add)

    def __sub__(self, other: "TensorForm") -> "TensorForm":
        return self._combine(other, np.subtract)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorForm):
            return NotImplemented
        return self._space() == other._space() and all(
            bool((self.blocks[chi] == other.blocks[chi]).all())
            for chi in self.blocks)

    def is_zero(self) -> bool:
        return all(bool((block == 0).all()) for block in self.blocks.values())

    def max_abs(self):
        """Largest absolute coefficient (0 for the empty top form, nan if
        any coefficient is nan)."""
        peaks = [np.abs(block).max() for block in self.blocks.values()
                 if block.size]
        if any(peak != peak for peak in peaks):  # nan compares False
            return math.nan
        return max(peaks, default=0)


def d_tensor(u: TensorForm, sign_rule=theta) -> TensorForm:
    """Exterior derivative in the basis representation.

    Along every 0-form axis the coefficient of basis function j moves to
    1-form basis function j with the sign of ``sign_rule``; the trailing
    constant basis function is dropped (its derivative vanishes).
    """
    return TensorForm(u.dimension, u.nu + 1, u.degree,
                      _index_rule(u.blocks, u.degree, sign_rule))


def _d_terms(chi: Chi, sign_rule) -> list[tuple[int, Chi, int]]:
    """d on one characteristic vector: for each 0-form axis t, the
    triple (t, chi with bit t set, ``sign_rule(chi, t)``)."""
    return [(t, chi[:t] + (1,) + chi[t + 1:], _sign(sign_rule, chi, t))
            for t, bit in enumerate(chi) if bit == 0]


def _index_rule(blocks: dict, n: int, sign_rule) -> dict:
    """d of the chi blocks: the blocks of degree nu+1 that it reaches,
    each a new array.  Entry j of an image block comes from entry j of
    its source blocks (d never moves a basis index).
    """
    out: dict = {}
    for chi, block in blocks.items():
        for t, target, sign in _d_terms(chi, sign_rule):
            piece = sign * block[(slice(None),) * t + (slice(0, n),)]
            out[target] = out.get(target, 0) + piece
    return out


def _basis_inverse(element: Element1D, k: int) -> linalg.Exact:
    """B_k^-1: the inverse of the k-form basis coefficient matrix."""
    return element.cached(("basis inverse", k),
                          lambda: linalg.invert(_family(element, k)[1]))


def _expansion_columns(element: Element1D, k: int,
                       P: linalg.Exact) -> tuple[np.ndarray, int]:
    """B_k^-1 P as (numerators, denominator): P's columns, which must lie
    in the k-form element space, over the k-form basis."""
    width, coeffs = element.n + 1 - k, P.nums
    outside = (coeffs[width:] != 0).any(axis=0)
    if outside.any():
        degree = np.flatnonzero(coeffs[:, outside.argmax()] != 0)[-1]
        raise ValueError(f"degree {degree} polynomial does not lie in the "
                         f"{k}-form element space (degree <= {width - 1})")
    padded = np.zeros((width, coeffs.shape[1]), dtype=object)
    padded[:len(coeffs)] = coeffs[:width]
    return linalg.product(_basis_inverse(element, k),
                          linalg.Exact.trusted(padded, P.den))


def expand_in_basis(element: Element1D, k: int, p: Polynomial) -> tuple:
    """(Numerators, denominator) of p over the element's k-form basis."""
    nums, den = _expansion_columns(element, k, coefficients([p]))
    return nums[:, 0], den


def canonicalize(terms, element: Element1D, dimension: int | None = None,
                 nu: int | None = None) -> TensorForm:
    """Convert rank-one terms to the basis representation (exact)."""
    terms = [terms] if isinstance(terms, RankOneForm) else list(terms)
    if not terms and (dimension is None or nu is None):
        raise ValueError("empty term list needs explicit dimension and nu")
    # explicit values are checked against the terms, not replaced; a first
    # term that is no RankOneForm is left to the term table to reject
    if terms and isinstance(terms[0], RankOneForm):
        dimension = terms[0].dimension if dimension is None else dimension
        nu = terms[0].nu if nu is None else nu
    return _single_form(element, dimension, nu, terms, _expansion_columns)


class _Terms(NamedTuple):
    """The rank-one terms of ``count`` forms of one space, as the kernel
    reads them.  ``groups`` maps each chi to its terms' column ids (one
    row per term, one column per axis), owners (the form each term
    belongs to) and signs, scaled to integers over the one denominator
    ``den`` of every sign; ``coefficients[k]`` is P_k, the monomial
    coefficients of bit k's factors by column id."""

    dimension: int
    count: int
    groups: dict
    coefficients: tuple
    den: int


def _term_table(dimension: int, nu: int, terms, owners, count: int) -> _Terms:
    """The table of explicit terms, ``terms[i]`` a term of form
    ``owners[i]``.  Factors of one bit are told apart by identity (hashing
    a Polynomial hashes its Fractions) and numbered in term order."""
    seen, rows, columns = ({}, {}), {}, []  # seen[bit]: id -> (column, p)
    for i, term in enumerate(terms):
        if not isinstance(term, RankOneForm):
            raise TypeError(f"term {i} has type {type(term).__name__}, "
                            "not RankOneForm")
        chi = term.chi
        if len(chi) != dimension or sum(chi) != nu:
            raise ValueError(
                f"term has dimension {len(chi)}, degree {sum(chi)}; "
                f"expected {dimension} and {nu}")
        rows.setdefault(chi, []).append(i)
        columns.append([seen[bit].setdefault(id(p), (len(seen[bit]), p))[0]
                        for bit, p in term.factors])
    enumerate_chi(dimension, nu)  # an empty batch must still fit a space
    columns = np.array(columns, dtype=np.intp).reshape(len(terms), dimension)
    owners = np.asarray(owners, dtype=np.intp)
    signs, den = linalg.integer_rows([[term.sign for term in terms]],
                                     len(terms))
    return _Terms(dimension, count,
                  {chi: (columns[r], owners[r], signs[0, r])
                   for chi, r in rows.items()},
                  tuple(coefficients([p for _, p in bit.values()])
                        for bit in seen), den)


def _residual_sources(element: Element1D, P0: linalg.Exact,
                      P1: linalg.Exact) -> tuple[list, int]:
    """The columns I_0 P_0, I_1 P_1 and r P_0 over one denominator: the
    element's monomial table times P_0, P_1 and P_0, r P_0 being the 1D
    commutation residual of P_0's columns."""
    columns, den, *_ = element.monomial_columns(max(len(P0.nums),
                                                    len(P1.nums)))
    scale = math.lcm(P0.den, P1.den)
    return [block[:, :len(P.nums)] @ (P.nums * (scale // P.den))
            for block, P in zip(columns, (P0, P1, P0))], den * scale


def _kron_blocks(n: int, table: _Terms, sources, nu: int, pieces) -> dict:
    """The nu-form blocks the table's terms fill, of shape widths(chi) +
    (count,), on Python ints.  For each (target, kinds, sign) of
    ``pieces(chi)``, every term of that chi adds to its form's column of
    the target block its scaled sign times ``sign`` times the Kronecker
    product of the columns its factors pick from ``sources[kinds[s]]``
    on axis s: one face-splitting product for all of the chi's terms."""
    blocks = {chi: np.zeros(_block_widths(chi, n) + (table.count,),
                            dtype=object)
              for chi in enumerate_chi(table.dimension, nu)}
    for chi, (ids, owners, signs) in table.groups.items():
        for target, kinds, sign in pieces(chi):
            product = sign * signs
            for axis, k in enumerate(kinds):
                product = product[..., None, :] * sources[k][:, ids[:, axis]]
            # owners may repeat: a form's terms add into one column
            np.add.at(blocks[target], (Ellipsis, owners), product)
    return blocks


def _single_form(element: Element1D, dimension: int, nu: int, terms,
                 source) -> TensorForm:
    """The sum of ``terms`` as one Fraction-valued TensorForm, its
    factors' columns taken from ``source`` for each bit some nonzero
    factor has (zero columns for the other bits)."""
    table = _term_table(dimension, nu, terms, [0] * len(terms), 1)
    sources, den = _shared([source(element, bit, P) if P.nums.any() else (
        np.zeros((element.n + 1 - bit, P.nums.shape[1]), dtype=object), 1)
        for bit, P in enumerate(table.coefficients)])
    blocks = _kron_blocks(element.n, table, sources, nu,
                          lambda chi: [(chi, chi, 1)])
    scale = Fraction(1, table.den * den ** dimension)
    return TensorForm(dimension, nu, element.n, {
        chi: block[..., 0] * scale for chi, block in blocks.items()})


@dataclass(frozen=True)
class TensorNodeFunctional:
    """Product of 1D node functionals, one per axis."""

    chi: Chi
    index: tuple[int, ...]
    parts: tuple[NodeFunctional, ...]

    def apply_smooth(self, u: SmoothFunctionND,
                     quadrature_order: int) -> float:
        """Product functional on an N-variable callback function.

        Every 1D part expands into pointwise atoms (weight, node,
        derivative order); the product functional sums the product
        weights times mixed partials of u over the atom grid.
        """
        atoms = [part.atoms(quadrature_order) for part in self.parts]
        total = 0.0
        for combo in itertools.product(*atoms):
            weight = math.prod(w for w, _, _ in combo)
            orders = tuple(order for _, _, order in combo)
            point = tuple(x for _, x, _ in combo)
            total += weight * u.derivative(orders, point)
        return total

    def describe(self) -> str:
        pieces = []
        for t, part in enumerate(self.parts):
            var = (_VARIABLE_NAMES[t] if t < len(_VARIABLE_NAMES)
                   else f"u{t + 1}")
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
        families = [_family(element, bit)[0] for bit in chi]
        for idx in itertools.product(*(range(len(f)) for f in families)):
            out.append(TensorNodeFunctional(
                chi=chi, index=tuple(j + 1 for j in idx),
                parts=tuple(f[j] for f, j in zip(families, idx))))
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
    if not isinstance(u, SmoothFunctionND):
        raise TypeError(f"cannot interpolate a {type(u).__name__}")
    if nu == 0:
        chi = (0,) * dimension
    elif nu == dimension:
        chi = (1,) * dimension
    else:
        raise ValueError("a bare function determines a component only for "
                         "nu = 0 or nu = N; pass a SmoothFormND")
    return SmoothFormND(dimension, nu, {chi: u})


def d_smooth(u, *, sign_rule=theta) -> SmoothFormND:
    """Exterior derivative of a smooth form (a bare function is a
    0-form), via the component formula."""
    if isinstance(u, SmoothFunctionND):
        u = as_smooth_form(u, u.dimension, 0)
    components: dict = {}
    for chi, comp in u.components.items():
        for t, target, sign in _d_terms(chi, sign_rule):
            term = float(sign) * comp.differentiated(t)
            components[target] = components[target] + term \
                if target in components else term
    return SmoothFormND(u.dimension, u.nu + 1, components)


def tensor_interpolate(dimension: int, nu: int, u, element: Element1D,
                       quadrature_order: int | None = None) -> TensorForm:
    """Interpolate onto the nu-form tensor space.

    Accepts a rank-one polynomial form (or a list of them) or a smooth
    callback input (bare function for nu in {0, N}, SmoothFormND
    otherwise).  On a rank-one input the operator factorizes into the 1D
    interpolations of the factors; a smooth component is evaluated once
    on its atom grid and contracted axis by axis with folded tables.
    """
    if not 0 <= nu <= dimension:
        raise ValueError(f"form degree nu={nu} out of range 0..{dimension}")

    if isinstance(u, RankOneForm):
        u = [u]
    if isinstance(u, (list, tuple)):
        return _single_form(element, dimension, nu, u, interpolant_columns)

    form = as_smooth_form(u, dimension, nu)
    if quadrature_order is None:
        quadrature_order = element.default_quadrature_order
    check_order(quadrature_order)
    blocks = {}
    for chi in enumerate_chi(dimension, nu):
        comp = form.components.get(chi)
        if comp is None:
            blocks[chi] = np.zeros(_block_widths(chi, element.n))
            continue
        atoms, tables = zip(*(_folded_table(element, bit, quadrature_order)
                              for bit in chi))
        # sum factorization: contracting the leading axis with each
        # family's table in turn leaves the axes in their original order
        coeffs = _atom_grid(comp, chi, atoms)
        for table in tables:
            coeffs = np.tensordot(coeffs, table, axes=(0, 1))
        blocks[chi] = coeffs
    return TensorForm(dimension, nu, element.n, blocks)


class _Atoms(tuple):
    """Distinct (derivative order, node) atoms, with ``groups``: per order,
    (order, those atoms' positions, their nodes), both as arrays."""

    def __new__(cls, atoms):
        self = super().__new__(cls, atoms)
        self.groups = [(order, *map(np.array, zip(*(
            (i, x) for i, (o, x) in enumerate(self) if o == order))))
            for order in dict.fromkeys(o for o, _ in self)]
        return self


def _folded_table(element: Element1D, bit: int,
                  quadrature_order: int) -> tuple[_Atoms, np.ndarray]:
    """The distinct (derivative order, node) atoms of the bit-form
    functionals and alpha_bit @ W, W[j, a] the summed weight of atom a in
    functional j, one exact product rounded once per entry."""
    def build():
        functionals, *_, alpha = _family(element, bit)
        weights: dict = {}
        for j, f in enumerate(functionals):
            for w, x, order in f.atoms(quadrature_order):
                column = weights.setdefault((order, x),
                                            [0] * len(functionals))
                column[j] += Fraction(w)
        nums, den = linalg.product(alpha, list(zip(*weights.values())))
        return _Atoms(weights), (nums / den).astype(float)
    return element.cached(("folded", bit, quadrature_order), build)


def _atom_grid(comp: SmoothFunctionND, chi: Chi, atoms) -> np.ndarray:
    """The component's mixed partials on the product of the axes' atom
    lists (``_Atoms``): one callback per combination of per-axis
    derivative orders, on the open mesh of those orders' nodes; bad or
    non-finite values raise."""
    groups = []  # each axis's groups, varying along its own mesh axis
    for t, axis in enumerate(atoms):
        shape = [-1 if s == t else 1 for s in range(len(atoms))]
        groups.append([(order, positions.reshape(shape), nodes.reshape(shape))
                       for order, positions, nodes in axis.groups])
    grid = np.empty([len(axis) for axis in atoms])
    for block in itertools.product(*groups):
        orders, positions, nodes = zip(*block)
        values = np.asarray(comp.derivative(orders, nodes))
        shape = tuple(p.size for p in positions)
        fits = values.ndim <= len(shape) and all(
            s in (1, t) for s, t in zip(values.shape[::-1], shape[::-1]))
        if values.dtype.kind not in "iuf" or not fits:
            raise ValueError(f"component {chi}: derivative {orders} returned "
                             f"{values.dtype} values of shape {values.shape},"
                             f" not numbers broadcasting to {shape}")
        grid[positions] = values
    bad = np.argwhere(~np.isfinite(grid))
    if bad.size:
        orders, point = zip(*(axis[i] for axis, i in zip(atoms, bad[0])))
        raise ValueError(f"component {chi}: derivative {orders} at {point} "
                         f"is {grid[tuple(bad[0])]}, not finite")
    return grid


def verify_dimensions(dimension: int,
                      element: Element1D) -> VerificationReport:
    """Dimension bookkeeping of the tensor spaces.

    Checks the binomial count of characteristic vectors, the product
    formula against the sizes of the basis and functional families, and
    the closed-form total dimension (2n+1)^N across all form degrees.
    """
    enumerate_chi(dimension, 0)  # a bad N raises before the loop
    sizes, witness, total = element.sizes, [], 0
    for nu in range(dimension + 1):
        chis = enumerate_chi(dimension, nu)
        expected_count = math.comb(dimension, nu)
        if len(chis) != expected_count or len(set(chis)) != len(chis):
            witness.append({"check": "chi-count", "nu": nu,
                            "count": len(chis), "expected": expected_count})
        if any(sum(chi) != nu for chi in chis):
            witness.append({"check": "chi-weight", "nu": nu})
        formula = space_dimension(dimension, nu, element)
        functional_count, enumerated = (
            sum(math.prod(sizes[bit][k] for bit in chi) for chi in chis)
            for k in (0, 1))
        if formula != enumerated:
            witness.append({"check": "dimension", "nu": nu,
                            "formula": formula, "enumerated": enumerated})
        if functional_count != formula:
            witness.append({"check": "functional-count", "nu": nu,
                            "count": functional_count, "expected": formula})
        total += formula
    closed_form = (2 * element.n + 1) ** dimension
    if total != closed_form:
        witness.append({"check": "total-dimension", "total": total,
                        "expected": closed_form})
    return VerificationReport.of("dimensions", witness, N=dimension,
                                 m=element.m, n=element.n)


def _along(vector: np.ndarray, axis: int, dimension: int) -> np.ndarray:
    """``vector`` as an array of ``dimension`` axes that runs along
    ``axis``: it broadcasts against any block as that axis's factor."""
    return vector.reshape([-1 if s == axis else 1 for s in range(dimension)])


def verify_dd_zero(dimension: int, element: Element1D,
                   sign_rule=theta) -> VerificationReport:
    """d after d annihilates every rank-one basis element, exactly.

    Routes: (1) the index rule applied twice in the basis
    representation; (2) the basis expansion of d(poly), by honest
    polynomial differentiation, against the index rule's d.  Route 2
    extends route 1 to the polynomial representation by linearity; a
    failing basis element reports its first failing route only.  The
    index rule never moves a basis index, so route 1 fails basis element
    j iff two 0-form axes s < t whose two orders of d do not cancel have
    j_s, j_t < n.  Route 2 reads 1D columns: on the target of 0-form axis
    t, j expands to the unit columns of the other axes times column j_t
    of B_1^-1 D B_0, where the index rule puts that of [I_n | 0]; so j
    fails iff column j_t of D B_0 is not that of [B_1 | 0], B_1 being
    invertible.  A nonsingular node table T_k B_k (``table_rank``) proves
    B_k invertible; only a singular one has B_k ranked, and a singular B_k
    raises.  Only a chi with a failing pair or column fills masks of its
    block's shape, which count its failures; witnesses stop at
    ``report.WITNESS_CAP``."""
    enumerate_chi(dimension, 0)  # a bad N raises before the loop
    n = element.n
    for k, size in ((0, n + 1), (1, n)):
        if element.table_rank(k) < size \
                and linalg.rank(getattr(element, f"B{k}")) < size:
            raise ZeroDivisionError("matrix is singular")
    below, moved = np.arange(n + 1) < n, np.append(*element.pairing)
    witness: list[dict] = []
    checked = failures = 0
    for nu in range(dimension + 1):
        for chi in enumerate_chi(dimension, nu):
            widths = _block_widths(chi, n)
            checked += math.prod(widths)
            terms = _d_terms(chi, sign_rule)
            # the sign of d along t, then along s, in the index rule's order
            order = {(t, s): first * second for t, target, first in terms
                     for s, _, second in _d_terms(target, sign_rule)}
            pairs = [(s, t) for s, t in order
                     if s < t and order[s, t] + order[t, s]]
            if not pairs and not (terms and moved.any()):
                continue
            route1, route2 = np.zeros((2, *widths), dtype=bool)
            for s, t in pairs:
                route1 |= _along(below, s, dimension) \
                    & _along(below, t, dimension)
            for t, _, _ in terms:
                route2 |= _along(moved, t, dimension)
            failed = route1 | route2
            failures += int(failed.sum())
            room = report.WITNESS_CAP - len(witness)
            for index in np.argwhere(failed)[:room] if room > 0 else ():
                witness.append({"check": "dd-zero" if route1[tuple(index)]
                                else "representation-consistency",
                                "nu": nu, "chi": list(chi),
                                "index": [int(j) + 1 for j in index]})
    return VerificationReport.of("dd-zero", witness, failures=failures,
                                 N=dimension, m=element.m, n=element.n,
                                 basis_elements=checked)


def rank_one_monomial_probes(dimension: int, nu: int,
                             degrees) -> list[RankOneForm]:
    """Rank-one probes with monomial factors x^a, a drawn from the distinct
    degrees, ascending: chi by chi, every choice of one degree per axis in
    row-major order."""
    monomials = [Polynomial.monomial(a)
                 for a in sorted({_valid_degree(d) for d in degrees})]
    return [rank_one(zip(chi, combo))
            for chi in enumerate_chi(dimension, nu)
            for combo in itertools.product(monomials, repeat=dimension)]


def verify_tensor_commutation(dimension: int, nu: int, probes,
                              element: Element1D,
                              sign_rule=theta) -> VerificationReport:
    """Interpolation commutes with d: I(du) == d(I(u)), exactly.

    A probe is a rank-one form or a list of them.  All probes run as one
    batch, and the residual d(I(u)) - I(du) is built directly: on the
    target chi + e_t of 0-form axis t, a term contributes its sign times
    the axis's sign times the Kronecker product of the interpolants
    I_{chi_s} p_s of the other axes and the 1D residual r(p_t)
    (:func:`_residual_sources`) on axis t.  Top-degree probes need no
    comparison: d maps them into the empty (N+1)-form space.  The masks
    count the failing probes; witnesses stop at ``report.WITNESS_CAP``.
    """
    forms = []
    for index, probe in enumerate(probes):
        if not isinstance(probe, (RankOneForm, Iterable)):
            raise TypeError(f"probe {index} has type {type(probe).__name__}, "
                            "not a RankOneForm or a list of them")
        forms.append([probe] if isinstance(probe, RankOneForm)
                     else list(probe))
    terms = [term for form in forms for term in form]
    owners = [index for index, form in enumerate(forms) for _ in form]
    table = _term_table(dimension, nu, terms, owners, len(forms))
    witness: list[dict] = []
    failures = 0
    if nu < dimension:
        sources, den = _residual_sources(element, *table.coefficients)
        residual = _kron_blocks(element.n, table, sources, nu + 1, lambda c: [
            (target, c[:t] + (2,) + c[t + 1:], sign)  # r on axis t
            for t, target, sign in _d_terms(c, sign_rule)])
        leading = tuple(range(dimension))
        nonzero = {chi: (block != 0).any(axis=leading)
                   for chi, block in residual.items()}
        failing = np.flatnonzero(np.any(list(nonzero.values()), axis=0))
        failures, failing = len(failing), failing[:report.WITNESS_CAP]
        # peaks only for the listed failing probes, over every block
        peaks = np.max([np.abs(block[..., failing]).max(axis=leading)
                        for block in residual.values()], axis=0)
        for index, largest in zip(failing.tolist(), peaks.tolist()):
            witness.append({"check": "tensor-commutation", "probe": index,
                            "blocks": [list(chi) for chi in residual
                                       if nonzero[chi][index]],
                            "max_abs": str(Fraction(
                                largest, table.den * den ** dimension))})
    return VerificationReport.of("tensor-commutation", witness,
                                 failures=failures, N=dimension, nu=nu,
                                 m=element.m, n=element.n, probes=len(forms))


def verify_monomial_commutation(dimension: int, nu: int, max_degree: int,
                                element: Element1D,
                                sign_rule=theta) -> VerificationReport:
    """:func:`verify_tensor_commutation` on
    ``rank_one_monomial_probes(dimension, nu, range(max_degree + 1))``,
    the same report with the same probe indices, decided from 1D columns
    without building the probes.  On the target chi + e_t of 0-form axis
    t, the residual of the probe with degrees a is, up to the sign of
    that axis, the Kronecker product of the interpolants I_{chi_s}(x^{a_s})
    of the other axes and r(x^{a_t}) on axis t, columns of the element's
    monomial table (:meth:`Element1D.monomial_columns`) of width
    ``max_degree + 1``: it is nonzero iff every one of those columns is,
    and its largest entry is the product of theirs.  A call reads the
    table's nonzero-column flags, and its column peaks only to list a
    failing probe.  A target whose factor kinds include a block with no
    nonzero column passes, so a chi with no other target builds no mask of
    its probes.  The masks count the failing probes; witnesses stop at
    ``report.WITNESS_CAP``."""
    _valid_degree(max_degree)  # checked on every call
    chis, shape = enumerate_chi(dimension, nu), (max_degree + 1,) * dimension
    witness: list[dict] = []
    failures, peaks = 0, None
    if nu < dimension:
        columns, den, live, alive = element.monomial_columns(max_degree + 1)
        for position, chi in enumerate(chis):
            targets = []
            for t, target, _ in _d_terms(chi, sign_rule):
                kinds = chi[:t] + (2,) + chi[t + 1:]
                if all(alive[k] for k in kinds):  # else it passes
                    targets.append((target, kinds, reduce(np.logical_and, (
                        _along(live[k], s, dimension)
                        for s, k in enumerate(kinds)))))
            if not targets:
                continue
            failing = reduce(np.logical_or, [fails for *_, fails in targets])
            failures += int(failing.sum())
            room = report.WITNESS_CAP - len(witness)
            for a in map(tuple, np.argwhere(failing)[:room]
                         if room > 0 else ()):
                peaks = peaks or [np.abs(block).max(axis=0).tolist()
                                  for block in columns]
                hits = sorted(entry[:2] for entry in targets if entry[2][a])
                witness.append({
                    "check": "tensor-commutation",
                    "probe": position * failing.size
                    + int(np.ravel_multi_index(a, shape)),
                    "blocks": [list(target) for target, _ in hits],
                    "max_abs": str(Fraction(max(math.prod(
                        peaks[k][j] for k, j in zip(kinds, a))
                        for _, kinds in hits), den ** dimension))})
    return VerificationReport.of("tensor-commutation", witness,
                                 failures=failures, N=dimension, nu=nu,
                                 m=element.m, n=element.n,
                                 probes=len(chis) * math.prod(shape))


def verify_kron_structure(dimension: int, nu: int,
                          element: Element1D) -> VerificationReport:
    """Per-chi node matrices factor as Kronecker products and invert.

    The direct route applies the product functionals to the rank-one
    basis elements.  Both act factor by factor, so the direct matrix is
    the Kronecker product of the 1D tables T_k B_k built from the
    element's functionals and basis; it must equal the Kronecker product
    of the stored node matrices M_k, and must be exactly invertible.
    Both are decided from the two 1D factor pairs (``kron_factors``),
    so no N-D matrix is built.  The first nonzero entry (row-major) of a
    Kronecker product is the product of its factors' first nonzero
    entries, and its nonzero factors are unique up to scalars (Van Loan,
    J. Comput. Appl. Math. 123, 2000): a chi's two products are equal iff
    the products of those first entries over its bits are, and, where
    that product is nonzero, each bit's two tables agree once each is
    divided by its first entry.  The rank of a Kronecker product is the
    product of the factors' ranks, so only the 1D tables are ranked
    (``table_rank``), on a built element without elimination.
    """
    factors, witness = element.kron_factors, []
    for chi in enumerate_chi(dimension, nu):
        size = math.prod(_block_widths(chi, element.n))
        direct, stored, agree, ranks = zip(*(factors[bit] for bit in chi))
        if math.prod(direct) != math.prod(stored) or (
                math.prod(direct) and not all(agree)):
            witness.append({"check": "kron-factorization", "chi": list(chi)})
        elif math.prod(ranks) != size:
            witness.append({"check": "kron-invertibility", "chi": list(chi),
                            "size": size})
    return VerificationReport.of("kron-structure", witness, N=dimension,
                                 nu=nu, m=element.m, n=element.n)

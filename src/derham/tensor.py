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
factor, linear in the factor's monomial coefficients.  One integer
kernel (:func:`_coefficient_batch`) reads a term table of a whole batch
of forms, takes every column from one exact product per form degree
and, once per characteristic vector and piece of d, fills a block with
one face-splitting (Khatri-Rao) product.  One call serves every order
of d a verifier needs (I(u) and I(du); both polynomial routes of
d-after-d), so the table and the products are made once per call.  The
table comes from explicit rank-one terms or, when the input is a full
grid of factors per chi (monomial probes, basis elements), straight
from the factor lists with no per-term Python work.

The verifiers at the bottom are the executable content: dimension
counts, d after d vanishing, Kronecker structure of the node matrices,
and commutation of interpolation with the exterior derivative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

import numpy as np

from . import linalg
from .element1d import (Element1D, _derivative_rows, _family,
                        interpolant_columns)
from .functionals import NodeFunctional
from .polycore import Polynomial, coefficient_matrix
from .quadrature import check_order
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

    def __hash__(self):
        return object.__hash__(self)

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


def _index_rule(blocks: dict, n: int, sign_rule) -> dict:
    """d of the chi blocks: the blocks of degree nu+1 that it reaches,
    each a new array.  Entry j of an image block comes from entry j of
    its source blocks (d never moves a basis index).

    The rule acts on the leading N axes of each block; trailing axes,
    such as the probe axis of a batch, ride along untouched.
    """
    out: dict = {}
    for chi, block in blocks.items():
        for t, bit in enumerate(chi):
            if bit == 1:
                continue
            target = chi[:t] + (1,) + chi[t + 1:]
            piece = block[(slice(None),) * t + (slice(0, n),)]
            if sign_rule(chi, t) < 0:
                piece = -piece
            out[target] = out.get(target, 0) + piece
    return out


def _basis_inverse(element: Element1D, k: int) -> linalg.Exact:
    """B_k^-1: the inverse of the k-form basis coefficient matrix."""
    return element.cached(("basis inverse", k),
                          lambda: linalg.invert(_family(element, k)[2]))


def _expansion_columns(element: Element1D, k: int,
                       coeffs: np.ndarray) -> tuple[np.ndarray, int]:
    """B_k^-1 P as (numerators, denominator): P's columns, which must lie
    in the k-form element space, over the k-form basis."""
    width = element.n + 1 - k
    outside = (coeffs[width:] != 0).any(axis=0)
    if outside.any():
        degree = np.flatnonzero(coeffs[:, outside.argmax()] != 0)[-1]
        raise ValueError(f"degree {degree} polynomial does not lie in the "
                         f"{k}-form element space (degree <= {width - 1})")
    padded = np.zeros((width, coeffs.shape[1]), dtype=object)
    padded[:len(coeffs)] = coeffs[:width]
    return linalg.product(_basis_inverse(element, k), padded)


def expand_in_basis(element: Element1D, k: int, p: Polynomial) -> tuple:
    """(Numerators, denominator) of p over the element's k-form basis."""
    nums, den = _expansion_columns(
        element, k, coefficient_matrix([p], len(p.coeffs)).T)
    return nums[:, 0], den


def canonicalize(terms, element: Element1D, dimension: int | None = None,
                 nu: int | None = None) -> TensorForm:
    """Convert rank-one terms to the basis representation (exact)."""
    terms = [terms] if isinstance(terms, RankOneForm) else list(terms)
    if terms:  # explicit values are checked against the terms, not replaced
        dimension = terms[0].dimension if dimension is None else dimension
        nu = terms[0].nu if nu is None else nu
    if dimension is None or nu is None:
        raise ValueError("empty term list needs explicit dimension and nu")
    return _single_form(element, dimension, nu, terms, _expansion_columns)


class _Terms(NamedTuple):
    """The rank-one terms of ``count`` forms of one space, as the kernel
    reads them.  ``groups`` maps each chi to its terms' column ids (one
    row per term, one column per axis), owners (the form each term
    belongs to), sign numerators and sign denominators; ``factors[k]``
    lists the distinct factors of bit k in column-id order."""

    dimension: int
    nu: int
    count: int
    groups: dict
    factors: tuple


def _term_table(dimension: int, nu: int, terms, owners, count: int) -> _Terms:
    """The table of explicit terms, ``terms[i]`` a term of form
    ``owners[i]``.  Factors of one bit are told apart by identity (hashing
    a Polynomial hashes its Fractions) and numbered in term order."""
    seen, rows, columns = ({}, {}), {}, []  # seen[bit]: id -> (column, p)
    for i, term in enumerate(terms):
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
    nums = np.array([term.sign.numerator for term in terms], dtype=object)
    sign_dens = np.array([term.sign.denominator for term in terms],
                         dtype=object)
    return _Terms(dimension, nu, count,
                  {chi: (columns[r], owners[r], nums[r], sign_dens[r])
                   for chi, r in rows.items()},
                  tuple([p for _, p in bit.values()] for bit in seen))


def _grid_table(dimension: int, nu: int, factors, chis=None) -> _Terms:
    """The table of full grids of sign-1 rank-one forms, one term each:
    for each chi in turn (default: every chi of the space), every choice
    of one factor from ``factors[chi[t]]`` per axis t, in row-major order.
    Column ids come from ``np.indices``, with no Python work per term; the
    table equals :func:`_term_table` of the same forms."""
    chis = enumerate_chi(dimension, nu) if chis is None else chis
    seen = ({}, {})  # seen[bit]: id -> (column, p), as in _term_table
    ids = [np.array([seen[bit].setdefault(id(p), (len(seen[bit]), p))[0]
                     for p in factors[bit]], dtype=np.intp) for bit in (0, 1)]
    groups, count = {}, 0
    for chi in chis:
        grid = np.indices([len(factors[bit]) for bit in chi],
                          dtype=np.intp).reshape(dimension, -1)
        size = grid.shape[1]
        if size:
            ones = np.ones(size, dtype=object)
            groups[chi] = (np.stack([ids[bit][axis]
                                     for bit, axis in zip(chi, grid)], 1),
                           np.arange(count, count + size, dtype=np.intp),
                           ones, ones)
            count += size
    used = {bit for chi in groups for bit in chi}
    return _Terms(dimension, nu, count, groups,
                  tuple([p for _, p in seen[bit].values()] if bit in used
                        else [] for bit in (0, 1)))


def _coefficient_batch(element: Element1D, table: _Terms, source, orders,
                       sign_rule=theta):
    """Basis coefficients of the table's forms, for each ``times`` in
    ``orders`` with d applied that many times (with ``sign_rule``): an
    iterator of one ``(blocks, dens)`` per order, each built only when it
    is asked for, so an earlier one can be freed first.

    The factors of bit k are the columns of a monomial-coefficient matrix
    P_k; ``source`` (:func:`interpolant_columns` or
    :func:`_expansion_columns`) maps P_0, P_1 and D P_0 to the columns of
    plain and differentiated axes, once for every order.  The terms of one
    chi share their pieces (one per ordered choice of 0-form axes to
    differentiate: target block, source per axis, sign; orders with the
    same sources merge), so each piece of each chi fills its block with
    one face-splitting product of picked columns.  Each order gives
    Python-int numerator blocks of shape widths(chi) + (count,) and one
    denominator per form: form p has coefficients
    ``blocks[chi][..., p] / dens[p]``.
    """
    matrices = [coefficient_matrix(
        polys, max((len(p.coeffs) for p in polys), default=0)).T
        for polys in table.factors]
    sources = [source(element, bit, P) for bit, P in enumerate(matrices)] \
        if orders else []
    if any(orders):
        sources.append(source(element, 1, _derivative_rows(matrices[0])))
    return (_order_batch(element, table, sources, times, sign_rule)
            for times in orders)


def _order_batch(element: Element1D, table: _Terms, sources, times: int,
                 sign_rule) -> tuple[dict, list[int]]:
    """One order of :func:`_coefficient_batch`."""
    dens = np.ones(table.count, dtype=object)
    pieces = {}  # chi -> {(target chi, source per axis): [sign, base]}
    for chi, (_, owners, _, sign_dens) in table.groups.items():
        # one piece per ordered choice of 0-form axes to differentiate;
        # orders that land on the same sources merge, their signs summed
        merged = pieces[chi] = {}
        for axes in itertools.permutations(
                [t for t, bit in enumerate(chi) if bit == 0], times):
            target, sign = chi, 1
            for t in axes:
                sign *= sign_rule(target, t)
                target = target[:t] + (1,) + target[t + 1:]
            kinds = tuple(2 if t in axes else bit for t, bit in enumerate(chi))
            merged.setdefault((target, kinds), [0, math.prod(
                sources[k][1] for k in kinds)])[0] += sign
        # lcm over the pieces of sign_den * base = sign_den * lcm(bases)
        np.lcm.at(dens, owners, sign_dens * math.lcm(
            *(base for _, base in merged.values())))
    blocks = {chi: np.zeros(_block_widths(chi, element.n) + (table.count,),
                            dtype=object)
              for chi in enumerate_chi(table.dimension, table.nu + times)}
    for chi, (columns, owners, nums, sign_dens) in table.groups.items():
        scale = nums * (dens[owners] // sign_dens)
        for (target, kinds), (sign, base) in pieces[chi].items():
            if not sign:
                continue
            product = sign * (scale // base)
            for axis, k in enumerate(kinds):
                product = product[..., None, :] * \
                    sources[k][0][:, columns[:, axis]]
            np.add.at(blocks[target], (Ellipsis, owners), product)
    return blocks, dens.tolist()


def _single_form(element: Element1D, dimension: int, nu: int, terms,
                 source) -> TensorForm:
    """The sum of ``terms`` as one Fraction-valued TensorForm."""
    (blocks, (den,)), = _coefficient_batch(
        element, _term_table(dimension, nu, terms, [0] * len(terms), 1),
        source, (0,))
    return TensorForm(dimension, nu, element.n,
                      {chi: block[..., 0] * Fraction(1, den)
                       for chi, block in blocks.items()})


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
    out = TensorForm.zero(dimension, nu, element.n, exact=False)
    for chi, comp in form.components.items():
        atoms, tables = zip(*(_folded_table(element, bit, quadrature_order)
                              for bit in chi))
        # sum factorization: contracting the leading axis with each
        # family's table in turn leaves the axes in their original order
        coeffs = _atom_grid(comp, chi, atoms)
        for table in tables:
            coeffs = np.tensordot(coeffs, table, axes=(0, 1))
        out.blocks[chi] = coeffs
    return out


def _folded_table(element: Element1D, bit: int,
                  quadrature_order: int) -> tuple[tuple, np.ndarray]:
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
        return tuple(weights), (nums / den).astype(float)
    return element.cached(("folded", bit, quadrature_order), build)


def _atom_grid(comp: SmoothFunctionND, chi: Chi, atoms) -> np.ndarray:
    """The component's mixed partials on the product of the axes' atom
    lists: one callback per combination of per-axis derivative orders, on
    the open mesh of those orders' nodes; bad or non-finite values raise."""
    # per axis and derivative order: (order, grid positions, nodes)
    groups = [[(order, *zip(*((i, x) for i, (o, x) in enumerate(axis)
                              if o == order)))
               for order in dict.fromkeys(o for o, _ in axis)]
              for axis in atoms]
    grid = np.empty([len(axis) for axis in atoms])
    for block in itertools.product(*groups):
        orders, positions, nodes = zip(*block)
        values = np.asarray(comp.derivative(orders, np.ix_(*nodes)))
        shape = tuple(map(len, positions))
        fits = values.ndim <= len(shape) and all(
            s in (1, t) for s, t in zip(values.shape[::-1], shape[::-1]))
        if values.dtype.kind not in "iuf" or not fits:
            raise ValueError(f"component {chi}: derivative {orders} returned "
                             f"{values.dtype} values of shape {values.shape},"
                             f" not numbers broadcasting to {shape}")
        grid[np.ix_(*positions)] = values
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
    n = element.n
    witness: list[dict] = []
    total = 0
    for nu in range(dimension + 1):
        chis = enumerate_chi(dimension, nu)
        expected_count = math.comb(dimension, nu)
        if len(chis) != expected_count or len(set(chis)) != len(chis):
            witness.append({"check": "chi-count", "nu": nu,
                            "count": len(chis), "expected": expected_count})
        if any(sum(chi) != nu for chi in chis):
            witness.append({"check": "chi-weight", "nu": nu})
        formula = space_dimension(dimension, nu, element)
        # the space's size per family (0: functionals, 1: basis)
        functional_count, enumerated = (
            sum(math.prod(len(_family(element, bit)[k]) for bit in chi)
                for chi in chis) for k in (0, 1))
        if formula != enumerated:
            witness.append({"check": "dimension", "nu": nu,
                            "formula": formula, "enumerated": enumerated})
        if functional_count != formula:
            witness.append({"check": "functional-count", "nu": nu,
                            "count": functional_count, "expected": formula})
        total += formula
    closed_form = (2 * n + 1) ** dimension
    if total != closed_form:
        witness.append({"check": "total-dimension", "total": total,
                        "expected": closed_form})
    return VerificationReport.of("dimensions", witness, N=dimension,
                                 m=element.m, n=element.n)


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
    vector are a grid of basis polynomials and run as one batch on a
    trailing axis, one kernel call for both polynomial routes, and each
    reports its first failing route only.  The index rule never moves a
    basis index, so routes 1 and 2 apply it to one all-ones block per
    characteristic vector and read basis element j off entry j.
    """
    n = element.n
    bases = [_family(element, bit)[1] for bit in (0, 1)]
    witness: list[dict] = []
    checked = 0
    for nu in range(dimension + 1):
        for chi in enumerate_chi(dimension, nu):
            widths = _block_widths(chi, n)
            count = math.prod(widths)
            checked += count
            if nu == dimension:
                continue  # d maps top forms into the empty (N+1)-form space
            twice = nu + 2 <= dimension
            batches = _coefficient_batch(
                element, _grid_table(dimension, nu, bases, [chi]),
                _expansion_columns, (1, 2) if twice else (1,), sign_rule)
            first = _index_rule({chi: np.ones(widths, dtype=object)}, n,
                                sign_rule)
            expanded, dens = next(batches)
            dens = np.array(dens, dtype=object)
            for target, block in first.items():
                entries = np.indices(block.shape)
                owners = np.ravel_multi_index(entries, widths)
                expanded[target][(*entries, owners)] -= block * dens[owners]
            route2 = _failing(count, expanded.values())
            route1, route3 = np.zeros((2, count), dtype=bool)
            if twice:
                for block in _index_rule(first, n, sign_rule).values():
                    route1[np.ravel_multi_index(np.nonzero(block),
                                                widths)] = True
                route3 = _failing(count, next(batches)[0].values())
            routes = (("dd-zero", route1),
                      ("representation-consistency", route2),
                      ("dd-zero-polynomial", route3))
            for owner in np.flatnonzero(route1 | route2 | route3):
                check = next(name for name, bad in routes if bad[owner])
                witness.append({"check": check, "nu": nu, "chi": list(chi),
                                "index": [int(j) + 1 for j in
                                          np.unravel_index(owner, widths)]})
    return VerificationReport.of("dd-zero", witness, N=dimension,
                                 m=element.m, n=element.n,
                                 basis_elements=checked)


def _monomials(degrees) -> list[Polynomial]:
    """x^a for each distinct probe degree a, ascending; a degree must be
    an int (not a bool or numpy int) and nonnegative, never coerced."""
    degrees = list(degrees)
    for a in degrees:
        if type(a) is not int:
            raise TypeError(f"probe degree {a!r} is not an int")
        if a < 0:
            raise ValueError(f"probe degree {a} is negative")
    return [Polynomial.monomial(a) for a in sorted(set(degrees))]


def rank_one_monomial_probes(dimension: int, nu: int,
                             degrees) -> list[RankOneForm]:
    """Rank-one probes with monomial factors x^a, a drawn from degrees:
    chi by chi, every choice of one degree per axis in row-major order."""
    monomials = _monomials(degrees)
    return [rank_one(zip(chi, combo))
            for chi in enumerate_chi(dimension, nu)
            for combo in itertools.product(monomials, repeat=dimension)]


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
    return _commutation_report(
        _term_table(dimension, nu, terms, owners, len(forms)), element,
        sign_rule)


def verify_monomial_commutation(dimension: int, nu: int, degrees,
                                element: Element1D,
                                sign_rule=theta) -> VerificationReport:
    """:func:`verify_tensor_commutation` on
    ``rank_one_monomial_probes(dimension, nu, degrees)``, the same report
    with the same probe indices, without building the probes: they are a
    full grid of monomials per chi, read straight into the kernel."""
    monomials = _monomials(degrees)
    return _commutation_report(
        _grid_table(dimension, nu, (monomials, monomials)), element,
        sign_rule)


def _commutation_report(table: _Terms, element: Element1D,
                        sign_rule) -> VerificationReport:
    """The tensor-commutation report of the table's forms: I(u) and I(du)
    from one kernel call."""
    dimension, nu, count = table.dimension, table.nu, table.count
    batches = _coefficient_batch(element, table, interpolant_columns,
                                 (0, 1) if nu < dimension else (),
                                 sign_rule)
    witness: list[dict] = []
    if nu < dimension:
        lhs, lhs_dens = next(batches)
        # rebinding frees the interpolants before I(du) is built
        lhs = _index_rule(lhs, element.n, sign_rule)
        rhs, rhs_dens = next(batches)
        common = [math.lcm(a, b) for a, b in zip(lhs_dens, rhs_dens)]
        left, right = (np.array([c // d for c, d in zip(common, dens)],
                                dtype=object) for dens in (lhs_dens, rhs_dens))
        leading = tuple(range(dimension))
        residual = {chi: lhs.get(chi, 0) * left - block * right
                    for chi, block in rhs.items()}
        nonzero = {chi: (block != 0).any(axis=leading)
                   for chi, block in residual.items()}
        failing = np.flatnonzero(np.any(list(nonzero.values()), axis=0))
        # peaks only for the failing probes, over every block
        peaks = np.max([np.abs(block[..., failing]).max(axis=leading)
                        for block in residual.values()], axis=0)
        for index, largest in zip(failing.tolist(), peaks):
            witness.append({"check": "tensor-commutation", "probe": index,
                            "blocks": [list(chi) for chi in residual
                                       if nonzero[chi][index]],
                            "max_abs": str(Fraction(largest,
                                                    common[index]))})
    return VerificationReport.of("tensor-commutation", witness,
                                 N=dimension, nu=nu, m=element.m,
                                 n=element.n, probes=count)


def verify_kron_structure(dimension: int, nu: int,
                          element: Element1D) -> VerificationReport:
    """Per-chi node matrices factor as Kronecker products and invert.

    The direct route applies the product functionals to the rank-one
    basis elements.  Both act factor by factor, so the direct matrix is
    the Kronecker product of the 1D tables f(b) built from the element's
    functionals and basis; it must equal the Kronecker product of the
    stored node matrices (built only when a factor differs), and must be
    exactly invertible.  The rank of a Kronecker product is the product
    of the factors' ranks, so only the 1D tables are row-reduced.
    """
    witness: list[dict] = []
    matrices = {0: element.M0, 1: element.M1}
    tables = {k: element.node_table(k) for k in matrices}
    ranks = {k: linalg.rank(table) for k, table in tables.items()}
    same = {k: tables[k] == matrices[k] for k in tables}
    for chi in enumerate_chi(dimension, nu):
        size = math.prod(_block_widths(chi, element.n))
        if not all(same[bit] for bit in chi) and (
                reduce(linalg.kron, (tables[bit] for bit in chi))
                != reduce(linalg.kron, (matrices[bit] for bit in chi))):
            witness.append({"check": "kron-factorization", "chi": list(chi)})
        elif math.prod(ranks[bit] for bit in chi) != size:
            witness.append({"check": "kron-invertibility", "chi": list(chi),
                            "size": size})
    return VerificationReport.of("kron-structure", witness, N=dimension,
                                 nu=nu, m=element.m, n=element.n)

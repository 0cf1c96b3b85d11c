"""Exact linear algebra, cross-checked against sympy matrices and against
the Fraction Gauss-Jordan route that the fraction-free loop replaced;
``Exact`` pairs are checked where they are built."""

import hashlib
import json
import math
import operator
import re
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from derham import linalg
from derham.corruptions import swap_basis
from derham.element1d import (build_element, verify_commutation,
                              verify_lemma_hypotheses, verify_unisolvence)

entries_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# mixed denominators up to 60, with plenty of exact zeros
mixed_st = st.one_of(st.just(Fraction(0)), st.integers(-5, 5),
                     st.fractions(min_value=-9, max_value=9,
                                  max_denominator=60))


def frac_array(rows) -> np.ndarray:
    """Object array of Fractions from nested int/Fraction data."""
    return np.array([[Fraction(entry) for entry in row] for row in rows],
                    dtype=object)


def identity(n: int) -> np.ndarray:
    return frac_array([[int(i == j) for j in range(n)]
                       for i in range(n)]).reshape(n, n)


def zeros(shape) -> np.ndarray:
    return np.full(shape, Fraction(0), dtype=object)


def oracle_eliminate(a: np.ndarray, cols: int) -> int:
    """Gauss-Jordan elimination over Fraction entries, in place, on the
    leading ``cols`` columns of ``a``, pivoting on first nonzero entries;
    returns the pivot count."""
    rows, r = a.shape[0], 0
    for col in range(cols):
        pivot = next((i for i in range(r, rows) if a[i, col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * (Fraction(1) / Fraction(a[r, col]))
        for i in range(rows):
            if i != r and a[i, col] != 0:
                a[i] = a[i] - a[i, col] * a[r]
        r += 1
    return r


def oracle_solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    n = matrix.shape[0]
    augmented = np.hstack([np.asarray(matrix, dtype=object),
                           rhs[:, None] if rhs.ndim == 1 else rhs])
    if oracle_eliminate(augmented, n) < n:
        raise ZeroDivisionError("matrix is singular")
    return augmented[:, n] if rhs.ndim == 1 else augmented[:, n:]


def oracle_rank(matrix: np.ndarray) -> int:
    a = np.array(matrix, dtype=object)
    return oracle_eliminate(a, a.shape[1]) if a.size else 0


def matrices(height, width):
    return st.lists(st.lists(mixed_st, min_size=width, max_size=width),
                    min_size=height, max_size=height).map(
        lambda rows: np.array(rows, dtype=object).reshape(height, width))


@st.composite
def square_systems(draw, max_size=5):
    """A square matrix, made singular about half the time (a zero row, a
    zero column or a dependent row), and a vector or matrix rhs."""
    n = draw(st.integers(0, max_size))
    a = draw(matrices(n, n))
    if n and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["row", "column", "dependent"]))
        if kind == "row":
            a[i] = Fraction(0)
        elif kind == "column":
            a[:, j] = Fraction(0)
        else:
            a[i] = draw(mixed_st) * a[j] + draw(mixed_st) * a[(j + 1) % n]
            if i in (j, (j + 1) % n):
                a[i] = Fraction(0)
    k = draw(st.integers(0, 3))
    rhs = draw(matrices(n, max(k, 1)))
    return a, rhs[:, 0] if k == 0 else rhs


@st.composite
def rectangular(draw, max_size=6):
    """Any shape, 0xk and kx0 included, sometimes with zero rows and
    columns or a repeated row."""
    a = draw(matrices(draw(st.integers(0, max_size)),
                      draw(st.integers(0, max_size))))
    height, width = a.shape
    if height and width and draw(st.booleans()):
        a[draw(st.integers(0, height - 1))] = Fraction(0)
        a[:, draw(st.integers(0, width - 1))] = Fraction(0)
    if height > 1 and draw(st.booleans()):
        a[-1] = draw(mixed_st) * a[0]
    return a


def outcome(route, *args):
    try:
        return route(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def square_matrices(max_size=4):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(entries_st, min_size=n, max_size=n),
            min_size=n, max_size=n))


def to_sympy(a: np.ndarray) -> sympy.Matrix:
    return sympy.Matrix(a.shape[0], a.shape[1],
                        lambda i, j: sympy.Rational(a[i, j].numerator,
                                                    a[i, j].denominator))


def test_solve_vector_and_matrix_rhs():
    a = frac_array([[2, 1], [1, 3]])
    x = linalg.solve(a, np.array([Fraction(3), Fraction(5)], dtype=object))
    assert x == linalg.Exact([4, 7], 5)
    assert (a @ x.fractions()
            == np.array([Fraction(3), Fraction(5)], dtype=object)).all()

    inv = linalg.invert(a)
    assert inv == linalg.Exact(np.array([[3, -1], [-1, 2]], dtype=object), 5)
    assert (a @ inv.fractions() == identity(2)).all()
    # an Exact matrix solves as its fractions do
    assert linalg.invert(linalg.Exact(inv.nums, inv.den)) == \
        linalg.Exact(*linalg.product(a))


def test_solve_requires_square():
    with pytest.raises(ValueError):
        linalg.solve(zeros((2, 3)), np.array([1, 2], dtype=object))


def test_singular_matrix_raises():
    singular = frac_array([[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        linalg.solve(singular, np.array([Fraction(1), Fraction(0)], dtype=object))
    with pytest.raises(ZeroDivisionError):
        linalg.invert(singular)


@given(square_matrices())
@settings(max_examples=25, deadline=None)
def test_invert_against_sympy(rows):
    a = frac_array(rows)
    sym = to_sympy(a)
    if sym.det() == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.invert(a)
        return
    ours = to_sympy(linalg.invert(a).fractions())
    assert ours == sym.inv()


@given(square_matrices())
@settings(max_examples=25, deadline=None)
def test_rank_against_sympy(rows):
    a = frac_array(rows)
    assert linalg.rank(a) == to_sympy(a).rank()


@given(square_systems())
@settings(max_examples=150, deadline=None)
def test_solve_and_invert_match_fraction_route(system):
    a, rhs = system
    for ours, oracle in ((outcome(linalg.solve, a, rhs),
                          outcome(oracle_solve, a, rhs)),
                         (outcome(linalg.invert, a),
                          outcome(oracle_solve, a, identity(a.shape[0])))):
        if oracle is ZeroDivisionError:
            assert ours is ZeroDivisionError
            continue
        assert type(ours) is linalg.Exact  # checked where it is built
        assert ours.nums.shape == oracle.shape
        assert ours.fractions().tolist() == oracle.tolist()
        exact = linalg.Exact(*linalg.product(a))
        if oracle.ndim == 2 and oracle.shape[1] == a.shape[0]:
            assert linalg.invert(exact).fractions().tolist() == \
                outcome(oracle_solve, a, identity(a.shape[0])).tolist()


@st.composite
def lower_triangular(draw, max_size=6):
    """A lower-triangular matrix of ints or of Fractions, its diagonal
    of either sign and, about half the time, with one zero on it."""
    n = draw(st.integers(0, max_size))
    entries = draw(st.sampled_from([st.integers(-9, 9), mixed_st]))
    a = np.zeros((n, n), dtype=int).astype(object)
    for i in range(n):
        a[i, :i] = [draw(entries) for _ in range(i)]
        a[i, i] = draw(entries.filter(bool))
    if n and draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        a[k, k] = 0
    return a


@given(lower_triangular())
@settings(max_examples=200, deadline=None)
def test_triangular_inverse_matches_bareiss_and_fraction_route(a):
    # an Exact lower-triangular matrix is forward substituted; solve, and
    # invert on the plain array, still run the Bareiss loop
    exact, eye = linalg.Exact(*linalg.product(a)), identity(a.shape[0])
    oracle = outcome(oracle_solve, a, eye)
    routes = (outcome(linalg.invert, exact), outcome(linalg.solve, exact, eye),
              outcome(linalg.invert, a))
    if oracle is ZeroDivisionError:
        assert routes == (ZeroDivisionError,) * 3
        with pytest.raises(ZeroDivisionError, match="^matrix is singular$"):
            linalg.invert(exact)
        return
    assert routes[0] == routes[1] == routes[2]
    assert routes[0].fractions().tolist() == oracle.tolist()


def test_only_triangular_exact_input_skips_bareiss(monkeypatch):
    lower = linalg.Exact(np.array([[2, 0, 0], [-3, 1, 0], [5, 7, -4]],
                                  dtype=object), 3)
    upper = linalg.Exact(lower.nums.T.copy(), 3)
    inverse = linalg.invert(lower)
    assert linalg.invert(upper) == linalg.Exact(inverse.nums.T.copy(),
                                                inverse.den)

    def bareiss(*args, **kwargs):
        raise AssertionError("Bareiss loop reached")

    monkeypatch.setattr(linalg, "_eliminate", bareiss)
    assert linalg.invert(lower) == inverse
    for matrix in (upper, lower.fractions()):
        with pytest.raises(AssertionError, match="Bareiss loop reached"):
            linalg.invert(matrix)


@given(lower_triangular())
@settings(max_examples=200, deadline=None)
def test_triangular_rank_matches_the_elimination(a):
    # a square lower-triangular Exact with a nonzero diagonal has full
    # rank without elimination; with a zero on its diagonal it is reduced
    exact = linalg.Exact(*linalg.product(a))
    want = linalg._eliminate(linalg._rows(exact), a.shape[1], back=False)
    eliminated, eliminate = [], linalg._eliminate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_eliminate", lambda *args, **kwargs: (
            eliminated.append(args) or eliminate(*args, **kwargs)))
        got = linalg.rank(exact)
    assert got == want == oracle_rank(a)
    assert bool(eliminated) == (not all(a.diagonal()))


def test_only_a_full_triangular_exact_skips_the_rank_elimination(
        monkeypatch):
    lower = linalg.Exact(np.array([[2, 0, 0], [-3, 1, 0], [5, 7, -4]],
                                  dtype=object), 3)
    others = [linalg.Exact(lower.nums.T.copy(), 3),  # upper triangular
              linalg.Exact.reduced(lower.nums[:, :2], 3),  # tall
              linalg.Exact.reduced(lower.nums[:2], 3),  # wide
              lower.fractions(), lower.nums.tolist(),
              linalg.Exact(np.array([[2, 0, 0], [-3, 0, 0], [5, 7, -4]],
                                    dtype=object), 3)]  # zero diagonal
    ranks = [linalg.rank(matrix) for matrix in others]
    assert ranks == [3, 2, 2, 3, 3, 2]

    def bareiss(*args, **kwargs):
        raise AssertionError("Bareiss loop reached")

    monkeypatch.setattr(linalg, "_eliminate", bareiss)
    assert linalg.rank(lower) == 3
    for matrix in others:
        with pytest.raises(AssertionError, match="Bareiss loop reached"):
            linalg.rank(matrix)


def test_swap_basis_unisolvence_ranks_by_elimination(monkeypatch):
    """swap-basis permutes M0's columns, so M0 and M1 are not lower
    triangular: the ranks that verify_unisolvence takes after its
    structure checks fail run the Bareiss loop, and the reports keep
    their bytes."""
    elements = [swap_basis(build_element(m, n)) for m in range(3)
                for n in range(max(2, 2 * m + 1), 2 * m + 4)]
    eliminated, eliminate = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args, **kwargs: (
        eliminated.append(args) or eliminate(*args, **kwargs)))
    texts = [json.dumps(verify_unisolvence(e).to_json(), indent=2)
             for e in elements]
    assert len(eliminated) == 2 * len(texts) == 16
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == \
        "f29de49e21799ec75d59baca6d0b5925ee094ce7a89fb276dce73fb1d243c1a7"


def test_lemma_range_ranks_the_node_table_first(monkeypatch):
    """verify_lemma_hypotheses asks linalg.rank whether T_1 B_1 is
    singular before it ranks the derived basis: a built element's table
    is lower triangular with a nonzero diagonal and needs no elimination,
    and swap-basis's column-permuted table needs exactly one."""
    eliminated, eliminate = [], linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args, **kwargs: (
        eliminated.append(args) or eliminate(*args, **kwargs)))
    for m in range(3):
        for n in range(max(2, 2 * m + 1), 2 * m + 4):
            e = build_element(m, n)
            assert verify_lemma_hypotheses(e).passed and eliminated == []
            assert verify_lemma_hypotheses(swap_basis(e)).passed
            assert len(eliminated) == 1 and len(eliminated[0][0]) == n
            eliminated.clear()


@given(rectangular())
@settings(max_examples=150, deadline=None)
def test_rank_matches_fraction_route(a):
    assert linalg.rank(a) == oracle_rank(a)
    assert linalg.rank(linalg.Exact(*linalg.product(a))) == oracle_rank(a)


@given(rectangular())
@settings(max_examples=150, deadline=None)
def test_forward_elimination_finds_the_gauss_jordan_pivots(a):
    # rank clears only the rows below each pivot; it must find as many
    # pivots as the full Gauss-Jordan loop that solve runs, on the same
    # integer rows (random, rank-deficient and zero-column cases)
    rows = [linalg._scaled(row)[0] for row in a.tolist()]
    counts = [linalg._eliminate([list(row) for row in rows], a.shape[1],
                                back)
              for back in (False, True)]
    assert counts[0] == counts[1] == oracle_rank(a)


def test_forward_elimination_on_skipped_columns():
    # zero and dependent columns make the pivots skip columns; Sylvester's
    # identity keeps every division exact all the same
    rows = [[0, 2, 4, 1, 3], [0, 1, 2, 5, 0], [0, 3, 6, 6, 3], [0, 0, 0, 7, 7]]
    for back in (False, True):
        work = [list(row) for row in rows]
        assert linalg._eliminate(work, 5, back) == 3
    assert oracle_rank(frac_array(rows)) == 3


def test_rank_rectangular_and_empty():
    a = frac_array([[1, 2, 3], [2, 4, 6]])
    assert linalg.rank(a) == 1
    assert linalg.rank(zeros((0, 0))) == 0
    assert linalg.rank(zeros((3, 2))) == 0


@pytest.mark.parametrize("bad", [0.1, float("nan"), True, np.float64(1.0),
                                 np.int64(1)])
def test_non_rational_entries_rejected(bad):
    matrix = frac_array([[1, 2], [3, 4]])
    matrix[1, 0] = bad
    message = f"entry {bad!r} is not an int or Fraction"
    for route, args in ((linalg.solve, (matrix, [1, 2])),
                        (linalg.solve, (identity(2), [1, bad])),
                        (linalg.invert, (matrix,)),
                        (linalg.rank, (matrix,)),
                        (linalg.product, (matrix,)),
                        (linalg.product, ([Fraction(1, 2), bad],)),
                        (linalg.product, (identity(2), matrix))):
        with pytest.raises(TypeError, match=re.escape(message)):
            route(*args)


@pytest.mark.parametrize("bad", [0.5, True, float("nan"), np.int64(1)])
def test_integer_rows_rejects_non_rational_entries(bad):
    message = f"entry {bad!r} is not an int or Fraction"
    with pytest.raises(TypeError, match=re.escape(message)):
        linalg.integer_rows([[Fraction(1, 2), 1], [bad]], 2)
    with pytest.raises(TypeError, match=re.escape("entry 0.5 is not")):
        linalg.integer_rows([[0.5, True]], 2)
    nums, den = linalg.integer_rows([[Fraction(1, 2), 1], [3]], 2)
    assert nums.tolist() == [[1, 2], [6, 0]] and den == 2


def test_rhs_row_count_must_match():
    with pytest.raises(ValueError, match=r"rhs of shape \(3,\) does not fit "
                                         r"a matrix of shape \(2, 2\)"):
        linalg.solve(identity(2), [1, 2, 3])
    with pytest.raises(ValueError, match=r"\(1, 2\).*\(2, 2\)"):
        linalg.solve(identity(2), [[1, 2]])


@st.composite
def chains(draw, max_size=4):
    """1 to 4 factors whose inner sizes match, 0 included; the first may
    be a (row) vector and the last a (column) vector."""
    count = draw(st.integers(1, 4))
    sizes = [draw(st.integers(0, max_size)) for _ in range(count + 1)]
    factors = [draw(matrices(sizes[i], sizes[i + 1])) for i in range(count)]
    if draw(st.booleans()):
        factors[0] = draw(matrices(1, sizes[1]))[0]
    if draw(st.booleans()) and (count > 1 or factors[0].ndim == 2):
        factors[-1] = draw(matrices(sizes[-2], 1))[:, 0]
    return factors


@given(chains())
@settings(max_examples=150, deadline=None)
def test_product_matches_fraction_chain(factors):
    nums, den = linalg.product(*factors)
    oracle = np.asarray(reduce(operator.matmul, factors), dtype=object)
    nums = np.asarray(nums, dtype=object)
    assert nums.shape == oracle.shape
    assert all(type(v) is int for v in nums.flat) and den >= 1
    assert (nums * Fraction(1, den) == oracle).all()
    assert math.gcd(den, *nums.flat) == 1  # lowest terms


@given(rectangular())
@settings(max_examples=50, deadline=None)
def test_one_factor_is_its_integer_form(a):
    nums, den = linalg.product(a)
    assert nums.shape == a.shape and all(type(v) is int for v in nums.flat)
    assert den == math.lcm(*(Fraction(v).denominator for v in a.flat))
    assert (nums * Fraction(1, den) == a).all()


def test_product_of_zero_size_factors():
    nums, den = linalg.product(zeros((2, 0)), zeros((0, 3)))
    assert nums.tolist() == [[0] * 3] * 2 and den == 1
    nums, den = linalg.product(zeros((0, 2)), frac_array([[Fraction(1, 3)]] * 2))
    assert nums.shape == (0, 1) and den == 1


def test_kron_definition():
    a = frac_array([[1, 2], [3, 4]])
    b = frac_array([[0, 5], [6, 7]])
    k = linalg.kron(a, b)
    assert k.shape == (4, 4)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k[2 * i + p, 2 * j + q] == a[i, j] * b[p, q]
    # float cross-check against numpy's kron
    assert np.allclose(np.array(k, dtype=float),
                       np.kron(np.array(a, dtype=float),
                               np.array(b, dtype=float)))


def test_kron_identity_neutral():
    a = frac_array([[1, 2], [3, 4]])
    assert (linalg.kron(identity(1), a) == a).all()


def test_solve_does_not_mutate_inputs():
    a = frac_array([[2, 1], [1, 3]])
    b = np.array([Fraction(3), Fraction(5)], dtype=object)
    a_copy, b_copy = a.copy(), b.copy()
    linalg.solve(a, b)
    assert (a == a_copy).all()
    assert (b == b_copy).all()


@pytest.mark.parametrize("bad", [0.5, 2.0, float("nan"), True,
                                 np.int64(1), Fraction(1, 2), Fraction(3)])
def test_exact_rejects_numerators_that_are_not_python_ints(bad):
    with pytest.raises(TypeError, match=re.escape(
            f"nums entry {bad!r} is not a Python int")):
        linalg.Exact(np.array([[1, bad], [0, 1]], dtype=object), 3)
    with pytest.raises(TypeError, match="nums is a int64 array"):
        linalg.Exact(np.array([[1, 2]]), 3)


@pytest.mark.parametrize("bad, error", [(0, ValueError), (-2, ValueError),
                                        (2.0, TypeError), (True, TypeError),
                                        (np.int64(3), TypeError),
                                        (Fraction(3), TypeError)])
def test_exact_rejects_denominators_that_are_not_positive_ints(bad, error):
    with pytest.raises(error, match=re.escape(f"den {bad!r}"
                                              if error is TypeError
                                              else f"den {bad} is not")):
        linalg.Exact([[1, 2]], bad)


def test_only_the_public_constructor_checks(monkeypatch):
    # Exact(nums, den) still rejects a float entry, a den that is not
    # positive and a pair not in lowest terms
    for nums, den, error in (([[1, 0.5]], 3, TypeError),
                             ([[1, 2]], 0, ValueError),
                             ([[1, 2]], -3, ValueError),
                             ([[2, 4]], 6, ValueError)):
        with pytest.raises(error):
            linalg.Exact(nums, den)
    # the pairs that are valid by construction never run check(): an
    # element builds and verifies with it disabled
    def unexpected(self, *args):
        raise AssertionError("check() ran on an internal pair")
    monkeypatch.setattr(linalg.Exact, "check", unexpected)
    e = build_element(1, 3)
    assert verify_commutation(e).passed
    assert verify_lemma_hypotheses(e).passed
    assert linalg.Exact.reduced([[3, 0], [9, -3]], 6).den == 2
    assert linalg.Exact.trusted(e.M0.nums, e.M0.den) == e.M0
    with pytest.raises(AssertionError, match="internal pair"):
        linalg.Exact([[1]], 1)


def test_exact_rejects_pairs_not_in_lowest_terms():
    with pytest.raises(ValueError, match="nums and den 6 share the factor 3"):
        linalg.Exact([[3, 0], [9, -3]], 6)
    assert linalg.Exact.reduced([[3, 0], [9, -3]], 6) == \
        linalg.Exact([[1, 0], [3, -1]], 2)
    # the sign goes to the numerators; a zero array is 0/1
    assert linalg.Exact.reduced([4, -2], -6) == linalg.Exact([-2, 1], 3)
    assert linalg.Exact.reduced([[0, 0]], 7) == linalg.Exact([[0, 0]], 1)


@pytest.mark.parametrize("nums", [5, [[[1]]]])
def test_exact_rejects_shapes_that_are_not_vectors_or_matrices(nums):
    with pytest.raises(ValueError, match="expected a vector or matrix"):
        linalg.Exact(nums, 1)


def test_exact_views_equality_and_text():
    a = linalg.Exact([[1, -2], [3, 4]], 6)
    assert a.nums.shape == (2, 2)
    assert a.fractions().tolist() == [[Fraction(1, 6), Fraction(-1, 3)],
                                      [Fraction(1, 2), Fraction(2, 3)]]
    assert tuple(a.flat) == tuple(a.fractions().flat)
    assert a == linalg.Exact([[1, -2], [3, 4]], 6)
    assert a != linalg.Exact([[1, -2], [3, 4]], 5)
    assert a != linalg.Exact([1, -2, 3, 4], 6)
    assert a != a.fractions()
    assert [linalg.ratio_str(x, a.den) for x in a.nums.flat] == \
        ["1/6", "-1/3", "1/2", "2/3"]
    assert linalg.ratio_str(-4, 2) == "-2"
    assert linalg.ratio_str(0, 9) == "0"
    assert linalg.ratio_str(0, 9, whole=False) == "0/1"
    assert linalg.ratio_str(-4, 2, whole=False) == "-2/1"


@given(chains())
@settings(max_examples=100, deadline=None)
def test_exact_factors_multiply_as_their_fractions(factors):
    exact = [linalg.Exact(*linalg.product(f)) for f in factors]
    assert [e.fractions().tolist() for e in exact] == \
        [np.asarray(f, dtype=object).tolist() for f in factors]
    nums, den = linalg.product(*exact)
    want, scale = linalg.product(*factors)
    assert den == scale and np.array_equal(nums, want)

"""Exact Fraction linear algebra, cross-checked against sympy matrices."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from derham import linalg

entries_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def square_matrices(max_size=4):
    return st.integers(min_value=1, max_value=max_size).flatmap(
        lambda n: st.lists(
            st.lists(entries_st, min_size=n, max_size=n),
            min_size=n, max_size=n))


def to_sympy(a: np.ndarray) -> sympy.Matrix:
    return sympy.Matrix(a.shape[0], a.shape[1],
                        lambda i, j: sympy.Rational(a[i, j].numerator,
                                                    a[i, j].denominator))


def test_frac_array_and_constructors():
    a = linalg.frac_array([[1, 2], [3, Fraction(1, 2)]])
    assert a.dtype == object
    assert a[1, 1] == Fraction(1, 2)
    assert isinstance(a[0, 0], Fraction)

    eye = linalg.identity(3)
    assert (eye == linalg.frac_array([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).all()

    z = linalg.zeros((2, 3))
    assert z.shape == (2, 3)
    assert all(v == 0 for v in z.flat)


def test_solve_vector_and_matrix_rhs():
    a = linalg.frac_array([[2, 1], [1, 3]])
    x = linalg.solve(a, np.array([Fraction(3), Fraction(5)], dtype=object))
    assert list(x) == [Fraction(4, 5), Fraction(7, 5)]
    assert (a @ x == np.array([Fraction(3), Fraction(5)], dtype=object)).all()

    inv = linalg.invert(a)
    assert (a @ inv == linalg.identity(2)).all()


def test_solve_requires_square():
    with pytest.raises(ValueError):
        linalg.solve(linalg.zeros((2, 3)), np.array([1, 2], dtype=object))


def test_singular_matrix_raises():
    singular = linalg.frac_array([[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        linalg.solve(singular, np.array([Fraction(1), Fraction(0)], dtype=object))
    with pytest.raises(ZeroDivisionError):
        linalg.invert(singular)


@given(square_matrices())
@settings(max_examples=25, deadline=None)
def test_invert_against_sympy(rows):
    a = linalg.frac_array(rows)
    sym = to_sympy(a)
    if sym.det() == 0:
        with pytest.raises(ZeroDivisionError):
            linalg.invert(a)
        return
    ours = to_sympy(linalg.invert(a))
    assert ours == sym.inv()


@given(square_matrices())
@settings(max_examples=25, deadline=None)
def test_rank_against_sympy(rows):
    a = linalg.frac_array(rows)
    assert linalg.rank(a) == to_sympy(a).rank()


def test_rank_rectangular_and_empty():
    a = linalg.frac_array([[1, 2, 3], [2, 4, 6]])
    assert linalg.rank(a) == 1
    assert linalg.rank(linalg.zeros((0, 0))) == 0
    assert linalg.rank(linalg.zeros((3, 2))) == 0


def test_kron_definition():
    a = linalg.frac_array([[1, 2], [3, 4]])
    b = linalg.frac_array([[0, 5], [6, 7]])
    k = linalg.kron(a, b)
    assert k.shape == (4, 4)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k[2 * i + p, 2 * j + q] == a[i, j] * b[p, q]
    # float cross-check against numpy's kron
    assert np.allclose(linalg.to_float(k),
                       np.kron(linalg.to_float(a), linalg.to_float(b)))


def test_kron_identity_neutral():
    a = linalg.frac_array([[1, 2], [3, 4]])
    assert (linalg.kron(linalg.identity(1), a) == a).all()


def test_to_float():
    a = linalg.frac_array([[Fraction(1, 2), 2]])
    out = linalg.to_float(a)
    assert out.dtype == float
    assert out.tolist() == [[0.5, 2.0]]


def test_solve_does_not_mutate_inputs():
    a = linalg.frac_array([[2, 1], [1, 3]])
    b = np.array([Fraction(3), Fraction(5)], dtype=object)
    a_copy, b_copy = a.copy(), b.copy()
    linalg.solve(a, b)
    assert (a == a_copy).all()
    assert (b == b_copy).all()

"""Stable serialization of elements, tensor tables, and sample data.

Rationals always serialize as "num/den" strings (lowest terms, sign on
the numerator, denominator always spelled out) so element tables are
exact and byte-comparable across runs.  Floating values appear only in
sample CSVs, printed with 17 significant digits.  Dictionaries are
built in a fixed field order and dumped without re-sorting, so repeated
runs with the same configuration produce identical bytes.  ``json_text``
writes exactly what ``json.dumps(data, indent=2)`` would, plus a
newline; the tests use ``json.dumps`` as its oracle.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quoted

import numpy as np

from .element1d import Element1D, _family
from .functionals import FUNCTIONAL_ORDER_VERSION
from .linalg import Exact, ratio_str
from .tensor import (_block_widths, enumerate_chi, space_dimension,
                     tensor_node_functionals)

SCHEMA_VERSION = 1
_STR = {str}


def float_str(value: float) -> str:
    return "%.17g" % float(value)


def matrix_json(matrix: Exact) -> list[list[str]]:
    return [[ratio_str(num, matrix.den, whole=False) for num in row]
            for row in matrix.nums.tolist()]


def columns_json(matrix: Exact) -> list[list[str]]:
    """The columns of a coefficient matrix (``B_k``) as polynomials:
    ascending powers, trailing zeros stripped."""
    out = []
    for column in matrix.nums.T.tolist():
        while column and not column[-1]:
            column.pop()
        out.append([ratio_str(x, matrix.den, whole=False) for x in column])
    return out


def functional_json(f) -> dict:
    data = f.to_json()
    data["text"] = f.describe()
    return data


def element_json(e: Element1D) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "functional_order_version": FUNCTIONAL_ORDER_VERSION,
        "m": e.m,
        "n": e.n,
        "functionals0": [functional_json(f) for f in e.functionals0],
        "functionals1": [functional_json(f) for f in e.functionals1],
        "basis0": columns_json(e.B0),
        "basis1": columns_json(e.B1),
        "M0": matrix_json(e.M0),
        "M1": matrix_json(e.M1),
        "alpha0": matrix_json(e.alpha0),
        "alpha1": matrix_json(e.alpha1),
    }


def tensor_tables_json(dimension: int, element: Element1D,
                       nu_values=None) -> dict:
    if nu_values is None:
        nu_values = list(range(dimension + 1))
    spaces = []
    for nu in nu_values:
        texts: dict = {}  # chi -> its functionals' texts, in frozen order
        for f in tensor_node_functionals(dimension, nu, element):
            texts.setdefault(f.chi, []).append(f.describe())
        blocks = []
        for chi in enumerate_chi(dimension, nu):
            widths = _block_widths(chi, element.n)
            blocks.append({
                "chi": list(chi),
                "widths": list(widths),
                "dimension": int(np.prod(widths)),
                "functionals": texts[chi],
            })
        spaces.append({
            "nu": nu,
            "dimension": space_dimension(dimension, nu, element),
            "blocks": blocks,
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "functional_order_version": FUNCTIONAL_ORDER_VERSION,
        "N": dimension,
        "m": element.m,
        "n": element.n,
        "spaces": spaces,
    }


def json_text(data) -> str:
    """``json.dumps(data, indent=2)`` and a newline, byte for byte.

    With ``indent`` set, json runs its pure-Python encoder, one generator
    frame per value; this writer lays the containers out the same way
    but quotes a list of strings (a matrix row, a basis column) in one
    join over json's C string encoder.  Scalars and keys are spelled,
    and anything else rejected with ``TypeError``, as json does."""
    return _json(data, "\n") + "\n"


def _json(x, newline: str) -> str:
    if isinstance(x, str):
        return _quoted(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _float(x)
    inner = newline + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        items = map(_quoted, x) if _STR.issuperset(map(type, x)) else \
            [_json(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        return "{" + inner + ("," + inner).join([
            _key(k) + ": " + _json(v, inner) for k, v in x.items()]) \
            + newline + "}"
    raise TypeError(f"Object of type {type(x).__name__} "
                    "is not JSON serializable")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    """A dict key quoted, converted first as json converts it."""
    if isinstance(k, str):
        return _quoted(k)
    if k is None or isinstance(k, (int, float)):
        return _quoted(_json(k, ""))
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {type(k).__name__}")


def uniform_grid(count: int) -> list[float]:
    """``count`` evenly spaced points from 0 to 1 (just 0 for one)."""
    return [i / (count - 1) if count > 1 else 0.0 for i in range(count)]


def csv_text(header, rows) -> str:
    """A CSV of numeric rows under ``header``, each value by float_str."""
    return "\n".join([",".join(header)] + [
        ",".join(map(float_str, row)) for row in rows]) + "\n"


def basis_samples_csv(e: Element1D, k: int, count: int = 101) -> str:
    """Uniform-grid samples of every k-form basis function (plot data)."""
    _family(e, k)  # a form degree other than 0 or 1 raises
    basis = getattr(e, f"basis{k}")
    return csv_text(["x"] + [f"phi{k}_{j + 1}" for j in range(len(basis))],
                    ([x] + [p(x) for p in basis] for x in uniform_grid(count)))


def tensor_basis_samples_csv(e: Element1D, chi, index, count: int = 33) -> str:
    """Grid samples of one 2D rank-one basis function (plot data)."""
    if len(chi) != 2 or len(index) != 2:
        raise ValueError("grid sampling covers the 2D case")
    if any(bit not in (0, 1) for bit in chi):
        raise ValueError(f"characteristic vector {list(chi)} may hold only "
                         "0 (0-form) and 1 (1-form)")
    grid, (xs, ys) = uniform_grid(count), ([], [])
    for values, bit, j in zip((xs, ys), chi, index):  # each factor once
        basis = getattr(e, f"basis{bit}")
        if not 1 <= j <= len(basis):
            raise ValueError(f"basis index {j} out of range 1..{len(basis)}")
        values += [float(basis[j - 1](t)) for t in grid]
    return csv_text(["x", "y", "value"], (
        (x, y, a * b) for x, a in zip(grid, xs) for y, b in zip(grid, ys)))

"""Stable serialization of elements, tensor tables, and sample data.

Rationals always serialize as "num/den" strings (lowest terms, sign on
the numerator, denominator always spelled out) so element tables are
exact and byte-comparable across runs.  Floating values appear only in
sample CSVs, printed with 17 significant digits.  Dictionaries are
built in a fixed field order and dumped without re-sorting, so repeated
runs with the same configuration produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from .element1d import Element1D
from .functionals import FUNCTIONAL_ORDER_VERSION
from .polycore import Polynomial
from .tensor import (_block_widths, enumerate_chi, space_dimension,
                     tensor_node_functionals)

SCHEMA_VERSION = 1


def fraction_str(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def float_str(value: float) -> str:
    return "%.17g" % float(value)


def poly_json(p: Polynomial) -> list[str]:
    return [fraction_str(c) for c in p.coeffs]


def matrix_json(matrix: np.ndarray) -> list[list[str]]:
    return [[fraction_str(entry) for entry in row] for row in matrix]


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
        "basis0": [poly_json(p) for p in e.basis0],
        "basis1": [poly_json(p) for p in e.basis1],
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
        blocks = []
        for chi in enumerate_chi(dimension, nu):
            widths = _block_widths(chi, element.n)
            functionals = [f for f in
                           tensor_node_functionals(dimension, nu, element)
                           if f.chi == chi]
            blocks.append({
                "chi": list(chi),
                "widths": list(widths),
                "dimension": int(np.prod(widths)),
                "functionals": [f.describe() for f in functionals],
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


def json_text(data: dict) -> str:
    return json.dumps(data, indent=2) + "\n"


def basis_samples_csv(e: Element1D, k: int, count: int = 101) -> str:
    """Uniform-grid samples of every k-form basis function (plot data)."""
    basis = e.basis0 if k == 0 else e.basis1
    header = ["x"] + [f"phi{k}_{j + 1}" for j in range(len(basis))]
    lines = [",".join(header)]
    for i in range(count):
        x = i / (count - 1) if count > 1 else 0.0
        row = [float_str(x)] + [float_str(float(p(x))) for p in basis]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def tensor_basis_samples_csv(e: Element1D, chi, index, count: int = 33) -> str:
    """Grid samples of one 2D rank-one basis function (plot data)."""
    if len(chi) != 2 or len(index) != 2:
        raise ValueError("grid sampling covers the 2D case")
    if any(bit not in (0, 1) for bit in chi):
        raise ValueError(f"characteristic vector {list(chi)} may hold only "
                         "0 (0-form) and 1 (1-form)")
    factors = []
    for bit, j in zip(chi, index):
        basis = e.basis0 if bit == 0 else e.basis1
        if not 1 <= j <= len(basis):
            raise ValueError(f"basis index {j} out of range 1..{len(basis)}")
        factors.append(basis[j - 1])
    lines = ["x,y,value"]
    for i in range(count):
        x = i / (count - 1) if count > 1 else 0.0
        fx = float(factors[0](x))
        for jj in range(count):
            y = jj / (count - 1) if count > 1 else 0.0
            value = fx * float(factors[1](y))
            lines.append(",".join([float_str(x), float_str(y),
                                   float_str(value)]))
    return "\n".join(lines) + "\n"


def interp_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(float_str(row[c]) for c in columns))
    return "\n".join(lines) + "\n"

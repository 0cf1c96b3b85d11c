"""Deterministic serialization: exact rationals, stable field order."""

import json
from fractions import Fraction

import pytest

from derham.element1d import build_element
from derham.functionals import functional_from_json
from derham.polycore import Polynomial
from derham.serialize import (SCHEMA_VERSION, basis_samples_csv, element_json,
                              float_str, fraction_str, interp_csv, json_text,
                              matrix_json, poly_json, tensor_basis_samples_csv,
                              tensor_tables_json)


def test_fraction_str_always_spells_denominator():
    assert fraction_str(Fraction(1, 2)) == "1/2"
    assert fraction_str(Fraction(-3, 4)) == "-3/4"
    assert fraction_str(Fraction(5)) == "5/1"
    assert fraction_str(Fraction(0)) == "0/1"
    assert fraction_str(Fraction(2, 4)) == "1/2"  # lowest terms


def test_float_str_17_digits():
    assert float_str(0.5) == "0.5"
    assert float_str(1 / 3) == "0.33333333333333331"
    assert float_str(-0.0) == "-0"


def test_poly_and_matrix_json():
    p = Polynomial([Fraction(1, 3), Fraction(-2)])
    assert poly_json(p) == ["1/3", "-2/1"]
    e = build_element(0, 1)
    assert matrix_json(e.M0) == [["1/1", "0/1"], ["0/1", "1/1"]]


def test_element_json_layout_and_roundtrip():
    e = build_element(1, 3)
    data = element_json(e)
    assert list(data) == ["schema_version", "functional_order_version",
                          "m", "n", "functionals0", "functionals1",
                          "basis0", "basis1", "M0", "M1", "alpha0", "alpha1"]
    assert data["schema_version"] == SCHEMA_VERSION
    assert data["m"] == 1 and data["n"] == 3
    assert len(data["basis0"]) == 4 and len(data["basis1"]) == 3
    # descriptors carry both machine fields and display text
    first = data["functionals0"][0]
    assert first["text"] == "u'(0)"
    assert functional_from_json(first) == e.functionals0[0]
    # the whole thing must be plain JSON
    parsed = json.loads(json_text(data))
    assert parsed["M0"][0][0] == "1/1"


def test_json_text_shape():
    text = json_text({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": 2}
    # insertion order preserved, not re-sorted
    assert text.index('"b"') < text.index('"a"')


def test_tensor_tables_json():
    e = build_element(2, 5)
    data = tensor_tables_json(2, e)
    assert [s["nu"] for s in data["spaces"]] == [0, 1, 2]
    space1 = data["spaces"][1]
    assert space1["dimension"] == 2 * 5 * 6
    chis = [tuple(b["chi"]) for b in space1["blocks"]]
    assert chis == [(0, 1), (1, 0)]
    block01 = space1["blocks"][0]
    assert block01["widths"] == [6, 5]
    assert block01["dimension"] == 30
    assert block01["functionals"][0] == "u'(0)*v(0)"
    total = sum(s["dimension"] for s in data["spaces"])
    assert total == 11 ** 2


def test_basis_samples_csv():
    e = build_element(0, 1)
    text = basis_samples_csv(e, 0, count=3)
    lines = text.strip().split("\n")
    assert lines[0] == "x,phi0_1,phi0_2"
    assert len(lines) == 4
    assert lines[1].split(",")[0] == "0"
    assert lines[3].split(",")[0] == "1"
    # basis0 = [x - 1/2, 1/2] sampled at 1/2
    assert lines[2] == "0.5,0,0.5"


def test_tensor_basis_samples_csv():
    e = build_element(0, 1)
    text = tensor_basis_samples_csv(e, (0, 1), (1, 1), count=2)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == 5
    with pytest.raises(ValueError, match="2D"):
        tensor_basis_samples_csv(e, (0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="out of range"):
        tensor_basis_samples_csv(e, (0, 1), (1, 5))
    with pytest.raises(ValueError, match="only 0"):
        tensor_basis_samples_csv(e, (0, 2), (1, 1))


def test_interp_csv():
    text = interp_csv([{"x": 0.0, "u": 1.5}, {"x": 1.0, "u": -2.0}],
                      ["x", "u"])
    assert text == "x,u\n0,1.5\n1,-2\n"


def test_byte_identical_reruns():
    a = json_text(element_json(build_element(2, 6)))
    b = json_text(element_json(build_element(2, 6)))
    assert a == b
    t1 = json_text(tensor_tables_json(3, build_element(1, 3)))
    t2 = json_text(tensor_tables_json(3, build_element(1, 3)))
    assert t1 == t2

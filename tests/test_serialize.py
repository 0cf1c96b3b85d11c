"""Deterministic serialization: exact rationals, stable field order."""

import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import serialize
from derham.element1d import build_element
from derham.polycore import Polynomial, coefficients
from derham.serialize import (SCHEMA_VERSION, basis_samples_csv, columns_json,
                              csv_text, element_json, float_str, json_text,
                              matrix_json, tensor_basis_samples_csv,
                              tensor_tables_json)


def test_columns_json_always_spells_denominator():
    # each entry in lowest terms, over its own denominator; trailing zeros
    # of a column are stripped, so the zero polynomial is empty
    polys = [Polynomial([Fraction(1, 2), Fraction(-3, 4), 5, 0,
                         Fraction(2, 4)]), Polynomial(), Polynomial([0, 7])]
    assert columns_json(coefficients(polys, 6)) == [
        ["1/2", "-3/4", "5/1", "0/1", "1/2"], [], ["0/1", "7/1"]]


def test_float_str_17_digits():
    assert float_str(0.5) == "0.5"
    assert float_str(1 / 3) == "0.33333333333333331"
    assert float_str(-0.0) == "-0"


def test_columns_and_matrix_json():
    p = Polynomial([Fraction(1, 3), Fraction(-2)])
    assert columns_json(coefficients([p], 3)) == [["1/3", "-2/1"]]
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
    assert first == {**e.functionals0[0].to_json(), "text": "u'(0)"}
    # the whole thing must be plain JSON
    parsed = json.loads(json_text(data))
    assert parsed["M0"][0][0] == "1/1"


@pytest.mark.parametrize("m, n", [(0, 1), (1, 3), (2, 9), (4, 15)])
def test_element_json_basis_spells_the_polynomials(m, n):
    # the entries written from B_k are those of the basis views'
    # Fraction coefficients
    e = build_element(m, n)
    data = element_json(e)
    for k in (0, 1):
        assert data[f"basis{k}"] == [
            [f"{c.numerator}/{c.denominator}" for c in p.coeffs]
            for p in getattr(e, f"basis{k}")]


def test_json_text_shape():
    text = json_text({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert json.loads(text) == {"b": 1, "a": 2}
    # insertion order preserved, not re-sorted
    assert text.index('"b"') < text.index('"a"')


class Mode(enum.IntEnum):
    OFF, ON = 0, 1


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


class Text(str):
    def __repr__(self):
        return "Text()"


# json_text against its oracle, json.dumps(indent=2): the scalars at
# the edges of json's spelling, and keys of every type json converts
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-2 ** 300, max_value=2 ** 300),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324,
                     np.float64(-0.0), np.float64("nan")]),
    st.text(), st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é∑😀", "\ud800"]))
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(),
                 st.none())
JSON = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children), st.lists(children).map(tuple),
    st.lists(st.text()), st.lists(st.lists(st.text())),
    st.dictionaries(KEYS, children)), max_leaves=40)


@given(JSON)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_json_text_is_json_dumps(data):
    assert json_text(data) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("data", [
    [], {}, (), [[]], {"a": {}}, [(), [[], {}]], {"": [""]}, "top", 7,
    {1: "int", 2.5: "float", True: "bool", None: "none", "s": "str"},
    {-0.0: 0, math.inf: 1, -math.inf: 2}, {math.nan: [math.nan]},
    # subclasses spelled by int, float and str themselves, not their repr
    {Mode.ON: [Mode.OFF, Ratio(0.5), Text("x")], Ratio(2.0): Text("y")},
    [Text("a"), "b"]])
def test_json_text_edge_containers_and_keys(data):
    assert json_text(data) == json.dumps(data, indent=2) + "\n"


@pytest.mark.parametrize("data", [
    np.int64(1), Fraction(1, 2), {1, 2}, {(1, 2): 3}, np.bool_(True),
    ["ok", np.int64(1)], {"a": [Fraction(1, 2)]}, {"a": {b"k": 1}}])
def test_json_text_rejects_what_json_rejects(data):
    with pytest.raises(TypeError) as expected:
        json.dumps(data, indent=2)
    with pytest.raises(TypeError) as got:
        json_text(data)
    assert str(got.value) == str(expected.value)


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


def test_basis_samples_reject_a_form_degree_other_than_0_or_1():
    e = build_element(0, 1)
    assert basis_samples_csv(e, 1, count=2).startswith("x,phi1_1\n")
    for k in (-1, 2, 7):
        with pytest.raises(ValueError, match="form degree must be 0 or 1"):
            basis_samples_csv(e, k)


def test_tensor_tables_build_the_functionals_once_per_degree(monkeypatch):
    calls = []
    inner = serialize.tensor_node_functionals

    def counting(dimension, nu, element):
        calls.append(nu)
        return inner(dimension, nu, element)

    monkeypatch.setattr(serialize, "tensor_node_functionals", counting)
    data = tensor_tables_json(3, build_element(1, 3))
    assert calls == [0, 1, 2, 3]
    assert [f for space in data["spaces"] for block in space["blocks"]
            for f in block["functionals"]] == \
        [f.describe() for nu in range(4)
         for f in inner(3, nu, build_element(1, 3))]


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
    text = csv_text(["x", "u"], [[0.0, 1.5], [1.0, -2.0]])
    assert text == "x,u\n0,1.5\n1,-2\n"


def test_byte_identical_reruns():
    a = json_text(element_json(build_element(2, 6)))
    b = json_text(element_json(build_element(2, 6)))
    assert a == b
    t1 = json_text(tensor_tables_json(3, build_element(1, 3)))
    t2 = json_text(tensor_tables_json(3, build_element(1, 3)))
    assert t1 == t2

"""Command-line interface: parsing, artifacts, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import cli, element1d, functionals, linalg, polycore, serialize
from derham.cli import (CHECK_ORDER, degrees_for, main, parse_int_list,
                        parse_polynomial, parse_input_function)
from derham.corruptions import (CORRUPTION_NAMES, ELEMENT_CORRUPTIONS,
                                permute_alpha)
from derham.element1d import build_element
from derham.polycore import Polynomial
from derham.tensor import (flat_sign, rank_one_monomial_probes, theta,
                           verify_tensor_commutation)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentParsing:
    def test_parse_int_list(self):
        assert parse_int_list("3", "m") == [3]
        assert parse_int_list("0..3", "m") == [0, 1, 2, 3]
        assert parse_int_list("1,3,5", "m") == [1, 3, 5]
        with pytest.raises(ValueError):
            parse_int_list("3..1", "m")
        with pytest.raises(ValueError, match="^--m 'one': 'one' is not an "):
            parse_int_list("one", "m")
        with pytest.raises(ValueError, match="empty list"):
            parse_int_list(",", "m")
        for text in ("1,", ",1", "1,,3", "1, ,3"):
            with pytest.raises(ValueError, match="empty item in list"):
                parse_int_list(text, "m")

    def test_degrees_for(self):
        assert degrees_for(1, "auto") == [3]
        assert degrees_for(2, "auto+2") == [5, 6, 7]
        assert degrees_for(0, "2..4") == [2, 3, 4]
        with pytest.raises(ValueError, match="too low"):
            degrees_for(2, "3")
        with pytest.raises(ValueError, match="bad degree spec"):
            degrees_for(0, "auto+x")

    def test_parse_polynomial(self):
        half = Fraction(1, 2)
        assert parse_polynomial("3/2x^2-x+1") == \
            Polynomial([1, -1, 3 * half])
        assert parse_polynomial("x^3") == Polynomial([0, 0, 0, 1])
        assert parse_polynomial("-2/5") == Polynomial([Fraction(-2, 5)])
        assert parse_polynomial("-x") == Polynomial([0, -1])
        assert parse_polynomial("2*x") == Polynomial([0, 2])
        assert parse_polynomial("1 + x") == Polynomial([1, 1])
        for bad in ("", "x**2", "3//2", "y"):
            with pytest.raises(ValueError):
                parse_polynomial(bad)

    def test_parse_input_function(self):
        assert parse_input_function("sin").name == "sin"
        u = parse_input_function("x^2")
        assert u.exact_polynomial == Polynomial([0, 0, 1])
        with pytest.raises(ValueError, match="not a polynomial literal"):
            parse_input_function("bogus")


class TestElementCommand:
    def test_matrix_json_to_stdout(self, capsys):
        code, out, err = run(capsys, "element", "--m", "1", "--n", "3",
                             "--emit", "matrix")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["M0"] == [["1/1", "0/1", "0/1", "0/1"],
                              ["0/1", "1/1", "0/1", "0/1"],
                              ["0/1", "0/1", "1/1", "0/1"],
                              ["0/1", "0/1", "0/1", "1/1"]]

    def test_full_element_fields(self, capsys):
        code, out, _ = run(capsys, "element", "--m", "0", "--n", "2")
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 0 and data["n"] == 2
        assert [f["text"] for f in data["functionals0"]] == \
            ["u(1)-u(0)", "int(l1*u')", "u(1)+u(0)"]

    def test_basis_samples_csv(self, capsys):
        code, out, _ = run(capsys, "element", "--m", "0", "--n", "1",
                           "--emit", "basis-samples", "--samples", "3",
                           "--form", "1")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,phi1_1"
        assert len(lines) == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "element.json"
        code, out, _ = run(capsys, "element", "--m", "0", "--n", "1",
                           "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 1

    def test_outdir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DERHAM_OUTDIR", str(tmp_path))
        code, out, _ = run(capsys, "element", "--m", "0", "--n", "1",
                           "--output", "sub/element.json")
        assert code == 0
        assert (tmp_path / "sub" / "element.json").exists()

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "element", "--m", "2", "--n", "6")
        _, second, _ = run(capsys, "element", "--m", "2", "--n", "6")
        assert first == second

    def test_invalid_degree_is_a_cli_error(self, capsys):
        code, out, err = run(capsys, "element", "--m", "2", "--n", "3")
        assert code == 2
        assert "error:" in err


class TestVerifyCommand:
    def test_text_format_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "0..1", "--n", "auto",
                           "--checks", "unisolvence,commutation",
                           "--format", "text")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "PASS unisolvence (m=0,n=1)"
        assert lines[-1] == "4/4 checks passed"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3",
                           "--checks", "unisolvence,lemma-hypotheses")
        assert code == 0
        data = json.loads(out)
        assert data["all_pass"] is True
        assert [r["name"] for r in data["reports"]] == \
            ["unisolvence", "lemma-hypotheses"]

    def test_tensor_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "0", "--n", "1",
                           "--checks", "dimensions,dd-zero,tensor-commutation",
                           "--N", "2")
        assert code == 0
        data = json.loads(out)
        names = [r["name"] for r in data["reports"]]
        assert names == ["dimensions", "dd-zero", "tensor-commutation",
                         "tensor-commutation", "tensor-commutation"]

    def test_kron_structure_is_an_opt_in_per_nu_row(self, capsys):
        assert "kron-structure" in cli.CHECKS
        assert "kron-structure" not in CHECK_ORDER  # the default list
        args = ("verify", "--m", "1", "--n", "3", "--checks",
                "kron-structure", "--N", "2")
        code, out, _ = run(capsys, *args)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [(r["name"], r["passed"], r["parameters"]) for r in reports] \
            == [("kron-structure", True, {"N": 2, "nu": nu, "m": 1, "n": 3})
                for nu in range(3)]
        code, out, _ = run(capsys, *args, "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            f"PASS kron-structure (N=2,nu={nu},m=1,n=3)" for nu in range(3)
        ] + ["3/3 checks passed"]
        # the stored M1 of wrong-functional no longer matches its functionals
        code, out, _ = run(capsys, *args, "--nu", "1", "--format", "text",
                           "--corrupt", "wrong-functional")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL kron-structure (N=2,nu=1,m=1,n=3) witness[2]: "
            "{'check': 'kron-factorization', 'chi': [0, 1]}")

    def test_text_format_states_the_count_past_the_witness_cap(self,
                                                               capsys):
        # a report past the cap lists 2000 witnesses; the line gives the
        # exact count, and one under the cap stays as it was
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3", "--N",
                           "4", "--checks", "tensor-commutation", "--corrupt",
                           "permute-alpha", "--nu", "2", "--format", "text")
        assert code == 1
        assert out.splitlines() == [
            "FAIL tensor-commutation (N=4,nu=2,m=1,n=3,probes=14406) "
            "witness[13230, first 2000 listed]: {'check': "
            "'tensor-commutation', 'probe': 98, 'blocks': [[0, 1, 1, 1]], "
            "'max_abs': '4'}", "0/1 checks passed"]
        code, out, _ = run(capsys, "verify", "--m", "0", "--n", "1", "--N",
                           "5", "--checks", "dd-zero", "--corrupt",
                           "flip-theta", "--format", "text")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL dd-zero (N=5,m=0,n=1,basis_elements=243) witness[131]: "
            "{'check': 'dd-zero', 'nu': 0, 'chi': [0, 0, 0, 0, 0], "
            "'index': [1, 1, 1, 1, 1]}")

    @pytest.mark.parametrize("checks, flags", [
        ("commutation", ("--random-probes", "3", "--seed", "0")),
        ("commutation", ("--random-probes", "0")),
        ("continuity-demo", ("--tolerance", "1e-12"))])
    def test_optional_flags_default_where_read(self, capsys, checks, flags):
        # argparse leaves --seed, --random-probes and --tolerance None, so
        # that cli._resolve sees them given; left out, each reads as 0, 0
        # and 1e-12
        args = ("verify", "--m", "1", "--n", "3", "--checks", checks)
        given = run(capsys, *args, *flags)
        omitted = run(capsys, *args, *flags[:-2])
        assert given == omitted and given[0] == 0

    def test_nu_restriction(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "0", "--n", "1",
                           "--checks", "tensor-commutation", "--N", "2",
                           "--nu", "1")
        assert code == 0
        data = json.loads(out)
        assert len(data["reports"]) == 1
        assert data["reports"][0]["parameters"]["nu"] == 1

    def test_successive_calls_do_not_leak_flags(self, capsys):
        # the parser is built once; every call still starts from defaults
        base = ("verify", "--m", "0", "--n", "1", "--checks",
                "tensor-commutation", "--N", "2")
        _, out, _ = run(capsys, *base, "--nu", "1")
        assert len(json.loads(out)["reports"]) == 1
        _, out, _ = run(capsys, *base)
        assert [r["parameters"]["nu"] for r in json.loads(out)["reports"]] \
            == [0, 1, 2]
        unisolvence = ("verify", "--m", "1", "--n", "3", "--checks",
                       "unisolvence")
        assert run(capsys, *unisolvence, "--corrupt", "swap-basis")[0] == 1
        code, out, _ = run(capsys, *unisolvence)
        assert code == 0 and json.loads(out)["all_pass"] is True
        assert cli.build_parser() is cli.build_parser()

    def test_corrupt_fails_with_witness(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3",
                           "--checks", "unisolvence", "--corrupt",
                           "swap-basis", "--format", "text")
        assert code == 1
        assert "FAIL unisolvence" in out
        assert "witness" in out

    def test_random_probes_reproducible(self, capsys):
        args = ("verify", "--m", "1", "--n", "3", "--checks", "commutation",
                "--random-probes", "3", "--seed", "11")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["reports"][0]["parameters"]["probes"] == 9 + 3

    @pytest.mark.parametrize("flag", ["--probe-degree", "--random-probes"])
    def test_negative_probe_count_rejected(self, capsys, flag):
        # a negative degree used to yield probes=0 and a vacuous pass
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--m", "1", "--n", "3", "--checks",
                  "commutation,tensor-commutation", flag, "-1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be >= 0, got -1" in captured.err

    def test_unknown_check_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--checks", "nonsense")
        assert code == 2
        assert "unknown checks" in err

    def test_probe_degree_zero_is_not_the_default(self, capsys):
        code, out, err = run(capsys, "verify", "--m", "1", "--n", "3",
                             "--probe-degree", "0", "--format", "text")
        assert code == 2 and out == ""
        assert err == "error: --probe-degree 0: below n=3 in the grid; " \
            "lemma-hypotheses needs at least n\n"

    @pytest.mark.parametrize("dimension, flag, probes", [
        (2, (), 7 ** 2), (2, ("--probe-degree", "0"), 1),
        (3, (), 7 ** 3), (3, ("--probe-degree", "0"), 1),
        (3, ("--probe-degree", "2"), 3 ** 3),
        (3, ("--probe-degree", "5"), 6 ** 3),
        (3, ("--probe-degree", "9"), 7 ** 3)])
    def test_probe_degree_caps_tensor_commutation(self, capsys, dimension,
                                                  flag, probes):
        # every N runs the degrees 0..min(n+3, --probe-degree), here n = 3
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3",
                           "--N", str(dimension), "--nu", "0", "--checks",
                           "tensor-commutation", *flag)
        assert code == 0
        report, = json.loads(out)["reports"]
        assert report["parameters"]["probes"] == probes

    def test_timings_to_file(self, capsys, tmp_path):
        # one run through every row of the check table; the benchmark sums
        # timings by the label prefix before "["
        args = ("verify", "--m", "0", "--n", "1..2", "--nu", "0,2")
        _, plain, _ = run(capsys, *args)
        path = tmp_path / "timings.tsv"
        code, out, err = run(capsys, *args, "--timings", str(path))
        assert code == 0 and err == ""
        assert out == plain  # timings never enter the report
        labels = [line.split("\t")[0] for line in
                  path.read_text().splitlines()]
        assert labels == [
            label for n in (1, 2) for label in (
                f"unisolvence[m=0,n={n}]",
                f"lemma-hypotheses[m=0,n={n}]",
                f"commutation[m=0,n={n}]",
                f"dimensions[N=2,m=0,n={n}]",
                f"dd-zero[N=2,m=0,n={n}]",
                f"tensor-commutation[N=2,nu=0,m=0,n={n}]",
                f"tensor-commutation[N=2,nu=2,m=0,n={n}]",
                f"continuity-demo[m=0,n={n}]")]
        assert [label.split("[")[0] for label in labels[:8]] == \
            [name for name in CHECK_ORDER for _ in
             range(2 if name == "tensor-commutation" else 1)]

    def test_timings_to_stderr(self, capsys):
        code, out, err = run(capsys, "verify", "--m", "1", "--n", "3",
                             "--checks", "unisolvence", "--timings", "-")
        assert code == 0 and "timings" not in out
        label, seconds = err.rstrip("\n").split("\t")
        assert label == "unisolvence[m=1,n=3]"
        assert float(seconds) >= 0

    def test_continuity_demo_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "1", "--n", "3",
                           "--checks", "continuity-demo")
        assert code == 0
        data = json.loads(out)
        assert data["reports"][0]["name"] == "continuity-demo"
        assert data["reports"][0]["parameters"]["function"] == "sin"

    def test_continuity_demo_passes_the_acceptance_grid(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "0..4", "--n", "auto+5",
                           "--checks", "continuity-demo")
        reports = json.loads(out)["reports"]
        assert code == 0 and len(reports) == 30
        for report in reports:
            assert report["details"]["junction_mismatch"][1:] == \
                [0.0] * report["parameters"]["m"]


def cold_families(monkeypatch):
    """Empty every cached polynomial family and the functionals' rows."""
    for family in (polycore.hermite_column, polycore.legendre_column,
                   polycore.hermite_basis, polycore.legendre,
                   polycore.integrated_legendre):
        family.cache_clear()
    monkeypatch.setattr(functionals, "_ROWS", {})


class TestNoPolynomialRoundTrip:
    """A pristine 1D verify and an element call, from cold caches, work
    on integer columns alone: no Polynomial is differentiated and
    neither basis view is built; a cold build makes no Polynomial and
    solves no system (counts, not timings)."""

    @pytest.mark.parametrize("command", [
        ["verify", "--checks", "unisolvence,lemma-hypotheses,commutation",
         "--random-probes", "3"],
        ["element"]], ids=["verify", "element"])
    @pytest.mark.parametrize("m, n", [(0, 1), (1, 4), (3, 9)])
    def test_counts(self, capsys, monkeypatch, command, m, n):
        cold_families(monkeypatch)
        differentiated, built = [], []
        derivative, build = Polynomial.derivative, element1d.build_element
        monkeypatch.setattr(Polynomial, "derivative", lambda p, order=1: (
            differentiated.append(p) or derivative(p, order)))
        monkeypatch.setattr(element1d, "build_element", lambda m, n: (
            built.append(build(m, n)) or built[-1]))
        code, _, _ = run(capsys, *command, "--m", str(m), "--n", str(n))
        assert code == 0 and len(built) == 1
        assert differentiated == []
        assert not {"basis0", "basis1"} & set(vars(built[0]))

    @pytest.mark.parametrize("command, exit_code", [
        (["verify", "--checks", "unisolvence,lemma-hypotheses,commutation",
          "--random-probes", "3"], 1),
        (["element"], 0)], ids=["verify", "element"])
    @pytest.mark.parametrize("m, n", [(0, 2), (1, 4), (3, 9)])
    def test_swap_basis_counts(self, capsys, monkeypatch, command,
                               exit_code, m, n):
        # the swapped element is made on B_k too: no basis view on it or
        # on the element it came from, and no Polynomial differentiated
        cold_families(monkeypatch)
        differentiated, swapped = [], []
        derivative, swap = Polynomial.derivative, ELEMENT_CORRUPTIONS[
            "swap-basis"]
        monkeypatch.setattr(Polynomial, "derivative", lambda p, order=1: (
            differentiated.append(p) or derivative(p, order)))
        monkeypatch.setitem(ELEMENT_CORRUPTIONS, "swap-basis", lambda e: (
            swapped.extend([e, swap(e)]) or swapped[-1]))
        code, _, _ = run(capsys, *command, "--m", str(m), "--n", str(n),
                         "--corrupt", "swap-basis")
        assert code == exit_code and len(swapped) == 2
        assert differentiated == []
        for e in swapped:
            assert not {"basis0", "basis1"} & set(vars(e))

    @pytest.mark.parametrize("m, n", [(0, 1), (1, 4), (3, 9)])
    def test_cold_build_makes_no_polynomial_and_no_solve(self, monkeypatch,
                                                          m, n):
        cold_families(monkeypatch)
        made, solved = [], []
        init, solve = Polynomial.__init__, linalg.solve
        monkeypatch.setattr(Polynomial, "__init__", lambda p, *args: (
            made.append(args) or init(p, *args)))
        monkeypatch.setattr(linalg, "solve", lambda *args: (
            solved.append(args) or solve(*args)))
        element1d.build_element(m, n)
        assert made == [] and solved == []
        # every column was made here, not read from a warm cache
        assert polycore.hermite_column.cache_info().misses == 2 * (m + 1)
        assert polycore.legendre_column.cache_info().misses == n - 2 * m - 1


class TestExactArtifacts:
    """The exact-arithmetic artifacts are pinned byte for byte; a change
    that moves one of these hashes changes what users read."""

    ND_VERIFY = ("verify", "--m", "1", "--n", "3", "--N", "3", "--checks",
                 "dimensions,dd-zero,tensor-commutation")

    # (m, n) = (4, 14) at N = 2: numerators of 56 bits over denominators
    # of 25 bits, so the commutation residual runs on Python ints
    WIDE_VERIFY = ("verify", "--m", "4", "--n", "14", "--N", "2", "--checks",
                   "tensor-commutation")

    # N = 4: dd-zero takes d twice from chis of four and three 0-form
    # axes, where pieces of both orders of an axis pair merge; under
    # permute-alpha each tensor-commutation report below the top degree
    # fails 2385 to 13230 probes and lists the first 2000 (the witness cap)
    VERIFY_4D = ("verify", "--m", "1", "--n", "3", "--N", "4", "--checks",
                 "dd-zero,tensor-commutation")

    # the 1D checks on two elements per m = 1, 2 with three random probes:
    # the rows pin unisolvence witnesses (swap-basis: 36), functional-
    # pairing and commutation ones (wrong-functional: 12 and 68) and
    # commutation residuals with projection witnesses (permute-alpha: 96)
    VERIFY_1D = ("verify", "--m", "1..2", "--n", "auto+2", "--checks",
                 "unisolvence,lemma-hypotheses,commutation",
                 "--random-probes", "3", "--seed", "1")

    # the corrupted N = 3 rows pin witnesses: tensor-commutation ones with
    # their blocks and max_abs (permute-alpha, and wrong-functional with
    # 218, 504 and 294 witnesses at nu = 0, 1, 2), dd-zero ones (flip-theta)
    @pytest.mark.parametrize("argv, exit_code, digest", [
        (("element", "--m", "2", "--n", "6"), 0,
         "ad6e89fe1ba6e403e3b272d307df1444bb8c34799f601fb52e720240dadaae05"),
        (("tensor", "--m", "1", "--n", "3", "--N", "3"), 0,
         "deac72b44bb4d6069c3d3443463111e36aface62f54963df1320b1864da66980"),
        (("verify", "--m", "1", "--n", "3", "--checks",
          ",".join(c for c in CHECK_ORDER if c != "continuity-demo")), 0,
         "40e56589dbc866beabea8ecf3eb5202e56f07196395b6d2e7959b34e0e1cd3a1"),
        (ND_VERIFY, 0,
         "10aaef75545fe24740575f39b55345ade5670716ebcb80a153a872e8a9ef00cc"),
        (ND_VERIFY + ("--corrupt", "permute-alpha"), 1,
         "d62bafaf97dfecd7e28d4ee3f0ca127c33c923f79c4207078937fbdf02354b5e"),
        (ND_VERIFY + ("--corrupt", "flip-theta"), 1,
         "94db0ef909fa5bbb18807d9dde0951a45faada607380b47aaf80ba0459e6aa0f"),
        (ND_VERIFY + ("--corrupt", "wrong-functional"), 1,
         "5a3bfa9c1315a2acc3961a78ff4817f9dc2da6c598ada0537118bbbd7f55bfe3"),
        (WIDE_VERIFY, 0,
         "ecc1758ab0af8d2471cb88e4588c2c114853131c57aaaf0a1b3468c328dfeed4"),
        (WIDE_VERIFY + ("--corrupt", "permute-alpha"), 1,
         "76545eb0804505c2787dbfaf946b9405006a4463b795078c8093e216d67ef66a"),
        (VERIFY_4D + ("--corrupt", "permute-alpha"), 1,
         "4d51fee85bf47f88ca097fbc37c2c4697aa5b142393f2242e6e00392d33922f8"),
        (VERIFY_4D + ("--corrupt", "flip-theta"), 1,
         "531f60a593ae9071d0d7cc37b59ab4fb52e769a2b928afe1f63e532f9f3ce2d8"),
        (VERIFY_1D, 0,
         "8a517c758ab7e429c3d8e4239ce9ab0ea635072738bc50990184593e957eb4f2"),
        (VERIFY_1D + ("--corrupt", "swap-basis"), 1,
         "810d1783f00b0f931f90845c84b795debd7e86b52fd78e23ad3d64cd19d58870"),
        (VERIFY_1D + ("--corrupt", "wrong-functional"), 1,
         "1cb3d7080a97dc7400839116a285c277ce2f1dadf513ed9b82a8c0174066d7fe"),
        (VERIFY_1D + ("--corrupt", "permute-alpha"), 1,
         "69ded1af190bd22326ef46d8355c300f2f50d415c4b47dc8ee540e9d9f63232c"),
        (("element", "--m", "4", "--n", "14"), 0,
         "7572211c2752f60c3e7f989b7e736a9e2951e951d39caac1536fb41ceace4ae1"),
        (("element", "--m", "2", "--n", "6", "--emit", "matrix"), 0,
         "c47e154a2111065b109a79d5cb74d8b922a9e93a2468a54576347f6a779af038"),
        (("element", "--m", "2", "--n", "6", "--emit", "basis"), 0,
         "93e48a584b67a774b44011addbad5c04896fbd630057f8161a06a33b41178729"),
        (("element", "--m", "2", "--n", "6", "--emit", "functionals"), 0,
         "efa2f08f567e85f2f7319420f4bc215b9cc23d32edaf00b7d5e5b9ee2d96440c"),
        (("element", "--m", "1", "--n", "3", "--corrupt", "swap-basis"), 0,
         "ea6a1f4b5ef24b805ed855fd1c6b5cd530220b490f5d7fe8649918dd5de69488"),
        (("element", "--m", "1", "--n", "3", "--corrupt", "permute-alpha"), 0,
         "55c7b52271c760f5688632c90a336451c842b11154e344fa96aa34b9852106a3"),
        (("tensor", "--m", "2", "--n", "5", "--N", "2", "--nu", "1"), 0,
         "1161d002768232d8b3ec023c9fe3bccbb3c6e2aa3f0500321454b12509cb601c"),
    ], ids=["element", "tensor", "verify", "verify-3d",
            "verify-3d-permute-alpha", "verify-3d-flip-theta",
            "verify-3d-wrong-functional", "verify-wide",
            "verify-wide-permute-alpha", "verify-4d-permute-alpha",
            "verify-4d-flip-theta", "verify-1d", "verify-1d-swap-basis",
            "verify-1d-wrong-functional", "verify-1d-permute-alpha",
            "element-wide", "element-matrix", "element-basis",
            "element-functionals", "element-swap-basis",
            "element-permute-alpha", "tensor-2d-nu1"])
    def test_sha256(self, capsys, argv, exit_code, digest):
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the float paths: interp samples its rounded interpolants and the
    # continuity demo rounds exact junction derivatives once; both must
    # keep every bit through any rewrite of how they are evaluated
    @pytest.mark.parametrize("argv, digest", [
        (("interp", "--m", "2", "--n", "5", "--input", "sin"),
         "67256823354d438499505425ba827a2ce6f4654dbe199e8fbe806eeba88a191a"),
        (("interp", "--m", "2", "--n", "5", "--input", "exp"),
         "4c4739115ac61530e8329f186103a9aeab7f8dbbf64798190444dc1136d79a73"),
        (("interp", "--m", "2", "--n", "5", "--input", "3/2x^2-x+1"),
         "df68154667a0454b73927d0d169fbaf8c5d5c5b2b9f464904b37885460d570b8"),
        (("interp", "--m", "1", "--n", "3", "--input", "sin", "--two-cell"),
         "04ff839b370347097679d7991491e681f0a45a1b8002675b26324893fc69322e"),
        (("interp", "--m", "4", "--n", "9", "--input", "cos", "--samples",
          "1"),
         "a4b682450949d34a5f0626e3d80c3133e552f4036c0de3595d1106fbf144d2ac"),
        (("verify", "--m", "0..4", "--n", "auto+5", "--checks",
          "continuity-demo", "--format", "json"),
         "4ed810d573b98bfddb23763ed55975978e8fe1376241a7b73ad87d89a9332e43"),
    ], ids=["interp-sin", "interp-exp", "interp-polynomial",
            "interp-two-cell", "interp-one-sample", "continuity-demo"])
    def test_float_sha256(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tensor_commutation_reports_sha256(self):
        """The CLI's tensor-commutation runs the factored check, so no row
        above reaches verify_tensor_commutation: its report JSON on the
        criterion-07 inputs (the 2D and 3D tensor grid, every nu, the
        acceptance degrees), pristine and under each element corruption,
        with theta and the flat sign rule, is pinned here, witnesses,
        blocks and max_abs included."""
        texts = []
        for m, n in [(m, n) for m in (0, 1, 2)
                     for n in range(2 * m + 1, 2 * m + 4)]:
            pristine = build_element(m, n)
            for name in (None, "permute-alpha", "wrong-functional",
                         "swap-basis"):
                if name and n < 2 and name != "wrong-functional":
                    continue  # nothing to swap or permute at n = 1
                e = ELEMENT_CORRUPTIONS[name](pristine) if name else pristine
                for sign_rule, dimension in itertools.product(
                        (theta, flat_sign), (2, 3)):
                    degrees = range(n + 4) if dimension == 2 \
                        else sorted({0, 2, n, n + 3})
                    for nu in range(dimension + 1):
                        report = verify_tensor_commutation(
                            dimension, nu, rank_one_monomial_probes(
                                dimension, nu, degrees), e, sign_rule)
                        texts.append(json.dumps(report.to_json(), indent=2))
        assert len(texts) == 476
        assert sum('"passed": false' in text for text in texts) == 170
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == \
            "dbb0aebf7c3f853a61eb791a0aaa1594935ef85d68c4a86a21509c232d0de6b5"


class TestTensorCommand:
    def test_tables(self, capsys):
        code, out, _ = run(capsys, "tensor", "--m", "2", "--n", "5",
                           "--N", "2")
        assert code == 0
        data = json.loads(out)
        assert data["N"] == 2
        space0 = data["spaces"][0]
        assert space0["blocks"][0]["functionals"][0] == "u'(0)*v'(0)"
        assert sum(s["dimension"] for s in data["spaces"]) == 11 ** 2

    def test_basis_samples(self, capsys):
        code, out, _ = run(capsys, "tensor", "--m", "0", "--n", "1",
                           "--emit", "basis-samples", "--chi", "0,1",
                           "--index", "1,1", "--samples", "2")
        assert code == 0
        assert out.startswith("x,y,value\n")

    def test_bad_chi_bit_is_cli_error(self, capsys):
        code, out, err = run(capsys, "tensor", "--m", "0", "--n", "1",
                             "--emit", "basis-samples", "--chi", "0,2")
        assert code == 2 and out == ""
        assert "may hold only 0" in err

    def test_bad_index_is_cli_error(self, capsys):
        code, _, err = run(capsys, "tensor", "--m", "0", "--n", "1",
                           "--emit", "basis-samples", "--chi", "0,1",
                           "--index", "9,9")
        assert code == 2
        assert "out of range" in err


class TestInterpCommand:
    def test_polynomial_reproduced(self, capsys):
        code, out, _ = run(capsys, "interp", "--m", "1", "--n", "3",
                           "--input", "x^2", "--samples", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,u,I0u,dI0u,I1du,residual"
        for line in lines[1:]:
            x, u, i0u, di0u, i1du, residual = map(float, line.split(","))
            assert i0u == pytest.approx(u, abs=1e-13)
            assert abs(residual) <= 1e-12

    @pytest.mark.parametrize("mn", [(0, 1), (1, 4), (2, 5), (4, 9)])
    @pytest.mark.parametrize("text", ["sin", "exp", "3/2x^2-x+1"])
    @pytest.mark.parametrize("samples", [1, 7, 101])
    def test_samples_equal_the_scalar_loop(self, capsys, mn, text, samples):
        # interp evaluates each rounded interpolant once on the sample
        # list; the per-sample scalar loop is the reference, bit for bit
        e, u = build_element(*mn), parse_input_function(text)
        grid = [i / (samples - 1) if samples > 1 else 0.0
                for i in range(samples)]
        i0u = element1d.interpolate_smooth(e, 0, u)
        d_i0u = i0u.deriv(1)
        i1du = element1d.interpolate_smooth(e, 1, u.differentiated())
        rows = [[x, u.value(x), i0u(x), d_i0u(x), i1du(x),
                 d_i0u(x) - i1du(x)] for x in grid]
        argv = ("interp", "--m", str(mn[0]), "--n", str(mn[1]), "--input",
                text, "--samples", str(samples))
        assert run(capsys, *argv)[1] == serialize.csv_text(
            ["x", "u", "I0u", "dI0u", "I1du", "residual"], rows)

        left, right = (element1d.rounded(element1d.cell_interpolant(
            e, u, a, a + 1)) for a in (0.0, 1.0))
        rows = [[x, u.value(x), left(x) if x <= 1.0 else right(x - 1.0)]
                for x in (2.0 * g for g in grid)]
        assert run(capsys, *argv, "--two-cell")[1].startswith(
            serialize.csv_text(["x", "u", "interp"], rows))

    def test_sine_residual_within_default_tolerance(self, capsys):
        code, out, _ = run(capsys, "interp", "--m", "2", "--n", "5",
                           "--input", "sin", "--samples", "21",
                           "--quadrature-order", "12")
        assert code == 0

    def test_impossible_tolerance_fails(self, capsys, monkeypatch):
        # a pristine element leaves no residual on these samples, so the
        # exit-1 path runs on an element whose 1-form inverse is permuted
        monkeypatch.setattr(cli, "_build", lambda m, n, corrupt:
                            permute_alpha(build_element(m, n)))
        code, out, _ = run(capsys, "interp", "--m", "2", "--n", "5",
                           "--input", "exp", "--samples", "21")
        assert code == 1
        residuals = [float(line.rsplit(",", 1)[1])
                     for line in out.strip().split("\n")[1:]]
        assert max(map(abs, residuals)) > 1e-3

    def test_two_cell_output(self, capsys):
        code, out, _ = run(capsys, "interp", "--m", "1", "--n", "3",
                           "--input", "sin", "--samples", "9", "--two-cell")
        assert code == 0
        assert out.startswith("x,u,interp\n")
        assert "# junction mismatch order 0:" in out
        assert "# junction mismatch order 1:" in out

    def test_two_cell_builds_each_cell_once(self, capsys, monkeypatch):
        built = []
        original = element1d.cell_interpolant

        def counted(e, u, a, b, order=None):
            built.append((a, b))
            return original(e, u, a, b, order)
        monkeypatch.setattr(element1d, "cell_interpolant", counted)
        code, _, _ = run(capsys, "interp", "--m", "2", "--n", "5",
                         "--input", "exp", "--two-cell")
        assert code == 0 and built == [(0.0, 1.0), (1.0, 2.0)]

    @pytest.mark.parametrize("order", ["1", "4"])
    def test_two_cell_passes_at_low_quadrature_order(self, capsys, order):
        for argv in (("interp", "--input", "sin", "--two-cell"),
                     ("verify", "--checks", "continuity-demo")):
            code, _, _ = run(capsys, *argv, "--m", "1", "--n", "3",
                             "--quadrature-order", order)
            assert code == 0

    @pytest.mark.parametrize("extra", [(), ("--two-cell",)])
    def test_quadrature_order_zero_is_rejected(self, capsys, extra):
        err = rejected(capsys, "interp", "--m", "1", "--n", "3",
                       "--input", "sin", "--quadrature-order", "0", *extra)
        assert "--quadrature-order: must be >= 1, got 0" in err

    def test_unknown_input_is_cli_error(self, capsys):
        code, _, err = run(capsys, "interp", "--m", "0", "--n", "1",
                           "--input", "bogus")
        assert code == 2
        assert "error:" in err


@pytest.mark.parametrize("command", [
    ("element", "--emit", "basis-samples"),
    ("tensor", "--emit", "basis-samples"),
    ("interp", "--input", "sin"),
    ("interp", "--input", "sin", "--two-cell"),
])
@pytest.mark.parametrize("samples", ["0", "-2"])
def test_samples_must_be_positive(capsys, command, samples):
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--samples", samples])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no CSV header before the error
    assert f"--samples: must be >= 1, got {samples}" in captured.err


FLAG_TABLES = {"element": cli.ELEMENT_FLAGS, "verify": cli.VERIFY_FLAGS,
               "tensor": cli.TENSOR_FLAGS, "interp": cli.INTERP_FLAGS}


def subparser(command: str):
    """The built parser of one command."""
    action, = cli.build_parser()._subparsers._group_actions
    return action.choices[command]


@pytest.mark.parametrize("command", FLAG_TABLES)
class TestFlagTables:
    """Each command's flag table against the parser built from it."""

    def test_every_table_flag_is_declared(self, command):
        declared = {option for action in subparser(command)._actions
                    for option in action.option_strings}
        assert declared == {"-h", "--help", *FLAG_TABLES[command]}

    def test_every_reader_exists(self, command):
        # a check row for verify, else a value of the command's --emit
        emits = [action.choices for action in subparser(command)._actions
                 if "--emit" in action.option_strings]
        known = set(cli.CHECKS) if command == "verify" else {
            value for choices in emits for value in choices}
        for flag, (_, _, readers) in FLAG_TABLES[command].items():
            assert set(readers) <= known, flag
            assert len(set(readers)) == len(readers), flag

    def test_help_states_every_default(self, command, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no default split by a wrap
        # one entry per option: its invocation, then its help
        entries = [" ".join(entry.split()) for entry in re.split(
            r"\n  (?=-)", subparser(command).format_help())]
        for flag, (_, default, _) in FLAG_TABLES[command].items():
            if default is not None:
                entry, = [e for e in entries if e.split()[0] == flag]
                assert f"(default {default})" in entry, flag


def rejected(capsys, *argv) -> str:
    """Run argv, expect exit status 2 and an empty stdout; return stderr."""
    try:
        code = main(list(argv))
    except SystemExit as exit_info:  # argparse rejections
        code = exit_info.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    return captured.err


class TestRejectedAtEntry:
    """Input that would make a check pass vacuously, or that a command
    would ignore, exits 2 before any artifact is written."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--N", "0", "--checks", "dd-zero"),
        ("verify", "--N", "-1", "--checks", "tensor-commutation"),
        ("tensor", "--N", "-1"),
    ])
    def test_dimension_below_one(self, capsys, argv):
        assert "--N: must be >= 1" in rejected(capsys, *argv)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-12"])
    @pytest.mark.parametrize("command", [
        ("verify", "--m", "4", "--checks", "continuity-demo"),
        ("interp", "--input", "sin"),
        ("interp", "--input", "sin", "--two-cell"),
    ])
    def test_tolerance_finite_and_nonnegative(self, capsys, command, value):
        err = rejected(capsys, *command, f"--tolerance={value}")
        assert f"--tolerance: must be finite and >= 0, got {value}" in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--m", ","),
        ("verify", "--n", ","),
        ("verify", "--nu", ",", "--checks", "tensor-commutation"),
        ("element", "--m", ","),
        ("tensor", "--nu", ","),
        ("verify", "--checks", ","),
    ])
    def test_empty_list(self, capsys, argv):
        flag = argv[argv.index(",") - 1]
        assert rejected(capsys, *argv) == f"error: {flag} ',': empty list\n"

    @pytest.mark.parametrize("argv, flag, text, item", [
        (("verify", "--m", "x"), "m", "x", "x"),
        (("element", "--m", "1", "--n", "3..x"), "n", "3..x", "x"),
        (("verify", "--nu", "", "--checks", "tensor-commutation"), "nu",
         "", ""),
        (("tensor", "--emit", "basis-samples", "--chi", "0,x"), "chi",
         "0,x", "x"),
        (("tensor", "--emit", "basis-samples", "--index", "1..2.5"),
         "index", "1..2.5", "2.5"),
    ], ids=["m", "n", "nu", "chi", "index"])
    def test_integer_flag_names_itself(self, capsys, argv, flag, text,
                                       item):
        err = rejected(capsys, *argv)
        assert err == f"error: --{flag} {text!r}: {item!r} is not an " \
            "integer\n"

    @pytest.mark.parametrize("argv", [
        ("verify", "--m", "1", "--n", "3,,4", "--N", "2"),
        ("verify", "--m", "1,"),
        ("verify", "--nu", "0,,1", "--checks", "tensor-commutation"),
        ("verify", "--checks", "dimensions,,dd-zero"),
        ("tensor", "--emit", "basis-samples", "--chi", "0,,1"),
    ])
    def test_empty_item(self, capsys, argv):
        # an empty item is rejected, not dropped: the list quoted in the
        # message is the flag's value as given
        err = rejected(capsys, *argv)
        value = next(a for a in argv if "," in a)
        flag = argv[argv.index(value) - 1]
        assert err == f"error: {flag} {value!r}: empty item in list\n"

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--m", "1..0"), "--m '1..0': empty range"),
        (("verify", "--n", "auto+x"), "--n 'auto+x': bad degree spec; "
         "expected auto, auto+K, a value, or a range"),
        (("verify", "--m", "1", "--n", "2"),
         "--n '2': degree n=2 too low for m=1; need n >= 3"),
        (("verify", "--m", "1,,2"), "--m '1,,2': empty item in list"),
        (("verify", "--m", "1", "--n", "3,,4"),
         "--n '3,,4': empty item in list"),
        (("verify", "--nu", "0,,1", "--checks", "tensor-commutation"),
         "--nu '0,,1': empty item in list"),
        (("tensor", "--emit", "basis-samples", "--chi", "0,,1"),
         "--chi '0,,1': empty item in list"),
        (("tensor", "--emit", "basis-samples", "--index", "1,,1"),
         "--index '1,,1': empty item in list"),
        (("verify", "--checks", "dd-zero,,unisolvence"),
         "--checks 'dd-zero,,unisolvence': empty item in list"),
        (("verify", "--checks", "foo"),
         "--checks 'foo': unknown checks ['foo']"),
        (("tensor", "--m", "1", "--n", "3", "--emit", "basis-samples",
          "--chi", "0,2"), "--chi '0,2': characteristic vector [0, 2] may "
         "hold only 0 (0-form) and 1 (1-form)"),
        (("tensor", "--m", "1", "--n", "3", "--emit", "basis-samples",
          "--chi", "0,0,0"), "--chi '0,0,0': grid sampling covers the 2D "
         "case"),
        (("tensor", "--m", "1", "--n", "3", "--emit", "basis-samples",
          "--index", "1,9"), "--index '1,9': basis index 9 out of range "
         "1..4"),
        (("tensor", "--m", "1", "--n", "3", "--emit", "basis-samples",
          "--chi", "1,1", "--index", "4,1"), "--index '4,1': basis index 4 "
         "out of range 1..3"),
        # an element too small for its corruption
        (("element", "--m", "0", "--n", "1", "--corrupt", "swap-basis"),
         "--corrupt 'swap-basis': need at least two basis functions to "
         "swap (m=0, n=1)"),
        (("verify", "--m", "0", "--n", "1", "--corrupt", "permute-alpha",
          "--checks", "unisolvence"), "--corrupt 'permute-alpha': need at "
         "least a 2x2 inverse to permute (m=0, n=1)"),
        # used to print "error: Fraction(3, 0)"
        (("interp", "--m", "0", "--n", "1", "--input", "3/0"),
         "--input '3/0': zero denominator in term '3/0'"),
        # an unwritable path ({tmp}, a directory) used to end in a
        # traceback with exit 1, the status of a failed check
        (("verify", "--m", "0", "--n", "1", "--checks", "unisolvence",
          "--output", "{tmp}"), "--output '{tmp}': Is a directory"),
        (("verify", "--m", "0", "--n", "1", "--checks", "unisolvence",
          "--output", "{tmp}/report.json", "--timings", "{tmp}"),
         "--timings '{tmp}': Is a directory"),
    ], ids=["empty-range", "degree-spec", "degree-too-low", "empty-item-m",
            "empty-item-n", "empty-item-nu", "empty-item-chi",
            "empty-item-index", "empty-item-checks", "unknown-check",
            "chi-bit", "chi-length", "index-range", "index-range-1-form",
            "corrupt-swap-basis", "corrupt-permute-alpha",
            "input-zero-denominator", "output-directory",
            "timings-directory"])
    def test_value_error_names_its_flag(self, capsys, tmp_path, argv,
                                        message):
        # each message starts with the flag and its quoted value
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        message = message.replace("{tmp}", str(tmp_path))
        assert rejected(capsys, *argv) == f"error: {message}\n"

    @pytest.mark.parametrize("argv, flag, readers", [
        (("--checks", "dd-zero", "--nu", "0..1"), "--nu",
         "tensor-commutation, kron-structure"),
        (("--checks", "unisolvence,continuity-demo", "--probe-degree", "4"),
         "--probe-degree",
         "lemma-hypotheses, commutation, tensor-commutation"),
        (("--checks", "commutation,dd-zero", "--quadrature-order", "8"),
         "--quadrature-order", "continuity-demo"),
        (("--checks", "dd-zero", "--random-probes", "2"), "--random-probes",
         "commutation"),
        (("--checks", "unisolvence", "--seed", "3"), "--seed",
         "commutation"),
        (("--checks", "commutation", "--tolerance", "1e-9"), "--tolerance",
         "continuity-demo"),
    ], ids=["nu", "probe-degree", "quadrature-order", "random-probes", "seed",
            "tolerance"])
    def test_flag_that_no_selected_check_reads(self, capsys, argv, flag,
                                               readers):
        # used to exit 0 with the flag ignored
        err = rejected(capsys, "verify", "--m", "1", "--n", "3", *argv)
        assert err == f"error: {flag}: only {readers} read it\n"
        # a seed is read only with random probes to draw
        drawn = ("--random-probes", "1") if flag == "--seed" else ()
        for reader in readers.split(", "):  # one reader is enough
            checks = argv.index("--checks") + 1
            code, _, err = run(capsys, "verify", "--m", "1", "--n", "3",
                               *argv[:checks], argv[checks] + "," + reader,
                               *argv[checks + 1:], *drawn)
            assert code == 0 and err == ""

    @pytest.mark.parametrize("drawn", [(), ("--random-probes", "0")],
                             ids=["no-random-probes", "zero-random-probes"])
    def test_seed_without_random_probes(self, capsys, drawn):
        # used to exit 0 with a report byte-identical to the unseeded one
        err = rejected(capsys, "verify", "--m", "1", "--n", "3", "--checks",
                       "commutation", "--seed", "5", *drawn)
        assert err == "error: --seed 5: no random probes to draw\n"

    @pytest.mark.parametrize("grid", [("--m", "0..2"), ("--m", "0,1"),
                                      ("--n", "auto+1"), ("--n", "3,4")])
    @pytest.mark.parametrize("command", [
        ("element",), ("element", "--emit", "basis-samples"),
        ("tensor",), ("interp", "--input", "sin"),
    ])
    def test_single_element_commands_reject_grids(self, capsys, command,
                                                  grid):
        assert "takes one (m, n)" in rejected(capsys, *command, *grid)

    def test_element_rejects_the_sign_rule_corruption(self, capsys):
        err = rejected(capsys, "element", "--m", "1", "--n", "3",
                       "--corrupt", "flip-theta")
        assert "invalid choice" in err

    @pytest.mark.parametrize("name", ELEMENT_CORRUPTIONS)
    def test_element_corruptions_change_the_tables(self, capsys, name):
        _, pristine, _ = run(capsys, "element", "--m", "1", "--n", "3")
        code, out, _ = run(capsys, "element", "--m", "1", "--n", "3",
                           "--corrupt", name)
        assert code == 0 and out != pristine

    @pytest.mark.parametrize("value", ["0", "-7"])
    @pytest.mark.parametrize("command", [
        ("verify", "--checks", "dimensions"),
        ("verify", "--checks", "unisolvence,commutation"),
        ("verify", "--checks", "continuity-demo"),
        ("interp", "--input", "sin"),
        ("interp", "--input", "sin", "--two-cell"),
    ])
    def test_quadrature_order_below_one(self, capsys, command, value):
        # rejected whether or not a selected check reads it
        err = rejected(capsys, *command, "--m", "1", "--n", "3",
                       "--quadrature-order", value)
        assert f"--quadrature-order: must be >= 1, got {value}" in err

    @pytest.mark.parametrize("argv, message", [
        # no selected check reads --nu, so 7 used to pass unnoticed
        (("verify", "--checks", "unisolvence", "--nu", "7"),
         "--nu '7': 7 out of range 0..2"),
        (("verify", "--checks", "tensor-commutation", "--nu", "3"),
         "--nu '3': 3 out of range 0..2"),
        (("verify", "--checks", "dimensions", "--N", "3", "--nu", "0..4"),
         "--nu '0..4': 4 out of range 0..3"),
        (("verify", "--nu=-1"), "--nu '-1': -1 out of range 0..2"),
        (("verify", "--nu", "0,3"), "--nu '0,3': 3 out of range 0..2"),
        (("tensor", "--nu", "3"), "--nu '3': 3 out of range 0..2"),
        (("tensor", "--N", "1", "--nu", "0,2"),
         "--nu '0,2': 2 out of range 0..1"),
    ])
    def test_nu_outside_zero_to_dimension(self, capsys, argv, message):
        err = rejected(capsys, *argv, "--m", "1", "--n", "3")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, repeated", [
        # each used to run (or emit) the same thing twice
        (("verify", "--m", "1", "--n", "3", "--nu", "1,1",
          "--checks", "tensor-commutation"), "--nu '1,1': repeats 1"),
        (("verify", "--m", "1,1", "--n", "3"), "--m '1,1': repeats 1"),
        (("verify", "--m", "0,1,0", "--checks", "dimensions"),
         "--m '0,1,0': repeats 0"),
        (("verify", "--m", "1", "--n", "3,3"), "--n '3,3': repeats 3"),
        (("verify", "--m", "0..1", "--n", "3,4,3"),
         "--n '3,4,3': repeats 3"),
        # used to be silently de-duplicated
        (("verify", "--checks", "unisolvence,dd-zero,unisolvence"),
         "--checks 'unisolvence,dd-zero,unisolvence': repeats unisolvence"),
        (("tensor", "--m", "1", "--n", "3", "--nu", "0,2,0"),
         "--nu '0,2,0': repeats 0"),
        (("tensor", "--m", "1,1", "--n", "3"), "--m '1,1': repeats 1"),
    ])
    def test_repeated_values(self, capsys, argv, repeated):
        assert rejected(capsys, *argv) == f"error: {repeated}\n"

    @pytest.mark.parametrize("argv, message", [
        (("verify", "--m", "1", "--n", "2,2"),
         "--n '2,2': degree n=2 too low for m=1; need n >= 3"),
        (("verify", "--m", "1", "--n", "3,3,2"), "--n '3,3,2': repeats 3"),
        (("verify", "--m=-1,0,0"),
         "--m '-1,0,0': continuity order m=-1 too low; need m >= 0"),
        (("verify", "--m=0,0,-1"), "--m '0,0,-1': repeats 0"),
        (("tensor", "--m", "1", "--n", "3", "--nu", "5,0,0"),
         "--nu '5,0,0': 5 out of range 0..2"),
        (("tensor", "--m", "1", "--n", "3", "--nu", "0,0,5"),
         "--nu '0,0,5': repeats 0"),
    ])
    def test_first_fault_of_a_list_is_named(self, capsys, argv, message):
        # one rule per list flag: its values in order, the first that
        # repeats an earlier one or is out of range named
        assert rejected(capsys, *argv) == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        # each used to reach the library and print its message
        (("verify", "--m=-1"),
         "--m '-1': continuity order m=-1 too low; need m >= 0"),
        (("element", "--m=-2", "--n", "3"),
         "--m '-2': continuity order m=-2 too low; need m >= 0"),
        (("tensor", "--m=-1..1", "--n", "3"),
         "--m '-1..1': continuity order m=-1 too low; need m >= 0"),
        (("verify", "--m", "0", "--n", "1", "--probe-degree", "0",
          "--checks", "lemma-hypotheses"), "--probe-degree 0: below n=1 "
         "in the grid; lemma-hypotheses needs at least n"),
        (("verify", "--m", "0..1", "--n", "auto+2", "--probe-degree", "3"),
         "--probe-degree 3: below n=4 in the grid; lemma-hypotheses "
         "needs at least n"),
    ], ids=["verify-m", "element-m", "tensor-m-range", "probe-degree",
            "probe-degree-grid"])
    def test_rejected_before_any_check_runs(self, capsys, monkeypatch, argv,
                                            message):
        monkeypatch.setattr(cli, "run_verify_suite", None)  # never reached
        monkeypatch.setattr(element1d, "build_element", None)
        assert rejected(capsys, *argv) == f"error: {message}\n"

    def test_probe_degree_below_n_without_the_lemma(self, capsys):
        # only lemma-hypotheses needs probe degree >= n
        code, _, _ = run(capsys, "verify", "--m", "0", "--n", "1..3",
                         "--probe-degree", "0", "--checks", "commutation")
        assert code == 0

    def test_repeats_kept_where_they_name_a_basis_function(self, capsys):
        code, out, _ = run(capsys, "tensor", "--m", "1", "--n", "3",
                           "--emit", "basis-samples", "--chi", "0,0",
                           "--index", "1,1", "--samples", "2")
        assert code == 0 and out

    @pytest.mark.parametrize("command", ["element", "tensor"])
    def test_quadrature_order_only_where_it_acts(self, capsys, command):
        err = rejected(capsys, command, "--m", "1", "--n", "3",
                       "--quadrature-order", "-7")
        assert "unrecognized arguments: --quadrature-order" in err

    @pytest.mark.parametrize("argv", [
        # a bad bit or index used to pass unnoticed under --emit tables
        ("--chi", "0,2", "--index", "9,9", "--samples", "3"),
        ("--chi", "0,1"),
        ("--index", "1,1"),
        ("--samples", "33"),
        ("--emit", "tables", "--samples", "3"),
    ])
    def test_sample_flags_only_with_basis_samples(self, capsys, argv):
        err = rejected(capsys, "tensor", "--m", "1", "--n", "3", *argv)
        assert "only --emit basis-samples reads them" in err

    @pytest.mark.parametrize("argv, named", [
        # each used to be silently ignored, exit 0
        (("--form", "1", "--emit", "matrix"), "--form"),
        (("--samples", "5", "--emit", "functionals"), "--samples"),
        (("--form", "0", "--samples", "101"), "--form, --samples"),
        (("--emit", "basis", "--samples", "101"), "--samples"),
    ])
    def test_element_sample_flags_only_with_basis_samples(self, capsys, argv,
                                                          named):
        err = rejected(capsys, "element", "--m", "1", "--n", "3", *argv)
        assert err == f"error: {named}: only --emit basis-samples reads " \
            "them\n"

    def test_element_sample_defaults(self, capsys):
        # form 0 and 101 samples, given or left out
        _, default, _ = run(capsys, "element", "--m", "1", "--n", "3",
                            "--emit", "basis-samples")
        code, given, _ = run(capsys, "element", "--m", "1", "--n", "3",
                             "--emit", "basis-samples", "--form", "0",
                             "--samples", "101")
        assert code == 0 and given == default
        assert default.startswith("x,phi0_1,") \
            and len(default.strip().split("\n")) == 102

    @pytest.mark.parametrize("argv, named", [
        # the 2D sample used to come out whatever --N and --nu said
        (("--N", "3", "--nu", "1"), "--N, --nu"),
        (("--N", "2"), "--N"),
        (("--nu", "0"), "--nu"),
        (("--nu", "1", "--chi", "0,1"), "--nu"),
    ])
    def test_tables_flags_not_with_basis_samples(self, capsys, argv, named):
        err = rejected(capsys, "tensor", "--m", "1", "--n", "3", "--emit",
                       "basis-samples", *argv)
        assert f"error: {named}: only --emit tables reads them" in err

    @pytest.mark.parametrize("extra", [(), ("--two-cell",)])
    def test_non_finite_node_value(self, capsys, extra):
        # 1e308 is finite, but u(1) + u(0) overflows
        err = rejected(capsys, "interp", "--m", "0", "--n", "1",
                       "--input", "1" + "0" * 308, *extra)
        assert "u(1)+u(0) of '1000" in err and "is inf, not finite" in err


# flag -> (values to try, values every command must reject where they
# enter); the value "" marks a switch
GRID = {"--m": (["0", "1", "0..1"], ["-1", "1..0", "x", ","]),
        "--n": (["auto", "auto+1", "1", "2", "3", "4", "2..4", "1,3"],
                ["auto+x", "4..2", "x", ",", "-1", "0"])}
DIMENSION = {"--N": (["1", "2"], ["0", "-1", "x"])}
NU = {"--nu": (["0", "1", "2", "0..2", "0,2"], ["3", "-1", ",", "a"])}
TOLERANCE = {"--tolerance": (["1e-12", "0", "1e-3", "-0"],
                             ["nan", "-1", "inf", "x"])}
QUADRATURE = {"--quadrature-order": (["1", "2", "5"], ["0", "-3", "x"])}
SAMPLES = {"--samples": (["1", "2", "5"], ["0", "x"])}
CORRUPT = {"--corrupt": (list(CORRUPTION_NAMES), ["bogus"])}
VOCABULARY = {
    "verify": {**GRID, **DIMENSION, **NU, **TOLERANCE, **QUADRATURE,
               **CORRUPT,
               "--checks": ([",".join(subset) for subset in (
                   CHECK_ORDER, CHECK_ORDER[:3], CHECK_ORDER[3:6],
                   ("continuity-demo",), ("tensor-commutation",),
                   ("dd-zero", "unisolvence"), ("kron-structure",))],
                   ["", ",", "bogus", "dd-zero,bogus"]),
               "--probe-degree": (["0", "3", "6"], ["-1", "x"]),
               "--random-probes": (["0", "2"], ["-1"]),
               "--seed": (["0", "7"], ["x"]),
               "--format": (["json", "text"], ["csv"])},
    "element": {**GRID, **SAMPLES,
                **{"--corrupt": (list(ELEMENT_CORRUPTIONS),
                                 ["flip-theta", "bogus"])},
                "--emit": (["element", "matrix", "basis", "functionals",
                            "basis-samples"], ["bogus"]),
                "--form": (["0", "1"], ["2"])},
    "tensor": {**GRID, **DIMENSION, **NU, **SAMPLES,
               "--emit": (["tables", "basis-samples"], ["bogus"]),
               # without --emit basis-samples these three flags exit 2,
               # and --N and --nu exit 2 with it
               "--chi": (["0,0", "0,1", "1,1", "0,2", "1", "1,1,1"], ["x"]),
               "--index": (["1,1", "2,1", "9,9", "0,1", "1"], ["x", ","])},
    "interp": {**GRID, **TOLERANCE, **QUADRATURE, **SAMPLES,
               "--input": (["sin", "cos", "exp", "x^2", "3/2x^2-x+1", "-2/5",
                            "0", "x^3+1/7x"],
                           ["1/0", "x**2", "y", "", "sin(x)", "3//2"]),
               "--two-cell": ([""], [])},
}


@st.composite
def argvs(draw):
    """A command with a random subset of its flags, in random order, and
    the one flag, if any, that takes a value the command must reject."""
    command = draw(st.sampled_from(sorted(VOCABULARY)))
    flags = VOCABULARY[command]
    bad = draw(st.one_of(st.none(), st.sampled_from(
        [flag for flag, (_, rejected) in flags.items() if rejected])))
    argv = [command]
    for flag in draw(st.permutations(sorted(flags))):
        accepted, rejected_values = flags[flag]
        if flag == bad:
            argv.append(f"{flag}={draw(st.sampled_from(rejected_values))}")
        elif flag == "--input" or draw(st.booleans()):
            value = draw(st.sampled_from(accepted))
            argv.append(f"{flag}={value}" if value else flag)
    return argv, bad


def run_captured(argv) -> tuple[int, str]:
    """Exit status and stdout of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exit_info:  # argparse rejections
            status = exit_info.code
    return status, out.getvalue()


class TestProperties:
    @given(argvs())
    @settings(max_examples=200, deadline=None)
    def test_any_argv_exits_0_1_or_2(self, case):
        argv, bad = case
        status, out = run_captured(argv)
        assert status in (0, 1, 2), (argv, status)
        given = dict(arg.split("=", 1) for arg in argv if "=" in arg)
        # a seed with no random probes to draw is rejected too
        unread_seed = "--seed" in given \
            and given.get("--random-probes", "0") == "0"
        # so is element --form or --samples without --emit basis-samples
        unread_sample = argv[0] == "element" \
            and {"--form", "--samples"} & set(given) \
            and given.get("--emit") != "basis-samples"
        if bad is not None or unread_seed or unread_sample:
            assert status == 2, argv
        if status == 2:
            assert out == "", argv

    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12),
                              st.integers(0, 6), st.sampled_from(["", "*"]),
                              st.booleans(), st.sampled_from(["", " "])),
                    min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_parse_polynomial_round_trip(self, terms):
        expected, text = Polynomial.zero(), ""
        for num, den, power, star, implicit, space in terms:
            coeff = Fraction(num, den)
            variable = "" if power == 0 else star + (
                "x" if power == 1 else f"x^{power}")
            magnitude = f"{abs(num)}/{den}"
            if variable and implicit and abs(coeff) == 1:
                magnitude = ""  # "x" and "-x" carry coefficient 1
            text += space + ("-" if num < 0 else "+") + magnitude + variable
            expected = expected + Polynomial.monomial(power, coeff)
        assert parse_polynomial(text) == expected

"""Command-line interface: parsing, artifacts, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from derham import cli, element1d
from derham.cli import (CHECK_ORDER, degrees_for, main, parse_int_list,
                        parse_polynomial, parse_input_function)
from derham.corruptions import (CORRUPTION_NAMES, ELEMENT_CORRUPTIONS,
                                permute_alpha)
from derham.element1d import build_element
from derham.polycore import Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentParsing:
    def test_parse_int_list(self):
        assert parse_int_list("3") == [3]
        assert parse_int_list("0..3") == [0, 1, 2, 3]
        assert parse_int_list("1,3,5") == [1, 3, 5]
        with pytest.raises(ValueError):
            parse_int_list("3..1")
        with pytest.raises(ValueError):
            parse_int_list("one")
        with pytest.raises(ValueError, match="empty list"):
            parse_int_list(",")
        for text in ("1,", ",1", "1,,3", "1, ,3"):
            with pytest.raises(ValueError, match="empty item in list"):
                parse_int_list(text)

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
        assert "error: probe_degree must be at least n" in err

    @pytest.mark.parametrize("dimension, flag, probes", [
        (2, (), 7 ** 2), (2, ("--probe-degree", "0"), 1),
        (3, (), 4 ** 3), (3, ("--probe-degree", "0"), 1),
        (3, ("--probe-degree", "2"), 2 ** 3),
        (3, ("--probe-degree", "5"), 3 ** 3),
        (3, ("--probe-degree", "9"), 4 ** 3)])
    def test_probe_degree_caps_tensor_commutation(self, capsys, dimension,
                                                  flag, probes):
        # N = 3 keeps the degrees 0, 2, n, n+3 (here 0, 2, 3, 6) that are
        # at most min(n+3, --probe-degree); N = 2 keeps all of 0..that cap
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


class TestExactArtifacts:
    """The exact-arithmetic artifacts are pinned byte for byte; a change
    that moves one of these hashes changes what users read."""

    ND_VERIFY = ("verify", "--m", "1", "--n", "3", "--N", "3", "--checks",
                 "dimensions,dd-zero,tensor-commutation")

    # the corrupted N = 3 rows pin witnesses: tensor-commutation ones with
    # their blocks and max_abs (permute-alpha), dd-zero ones (flip-theta)
    @pytest.mark.parametrize("argv, exit_code, digest", [
        (("element", "--m", "2", "--n", "6"), 0,
         "ad6e89fe1ba6e403e3b272d307df1444bb8c34799f601fb52e720240dadaae05"),
        (("tensor", "--m", "1", "--n", "3", "--N", "3"), 0,
         "deac72b44bb4d6069c3d3443463111e36aface62f54963df1320b1864da66980"),
        (("verify", "--m", "1", "--n", "3", "--checks",
          ",".join(c for c in CHECK_ORDER if c != "continuity-demo")), 0,
         "40e56589dbc866beabea8ecf3eb5202e56f07196395b6d2e7959b34e0e1cd3a1"),
        (ND_VERIFY, 0,
         "19ffcb65c15cedf2a331e6d7a9cfae5893d9c3b799701b2a0b396cc31566020e"),
        (ND_VERIFY + ("--corrupt", "permute-alpha"), 1,
         "c289720e53856eaa148e80f7151674283a5dd36285ba2d055c046cd2450803df"),
        (ND_VERIFY + ("--corrupt", "flip-theta"), 1,
         "b3979bb0d7ddf45dfd955ef8d3f107db31e00dc65896e077af2cd8de658c5f87"),
    ], ids=["element", "tensor", "verify", "verify-3d",
            "verify-3d-permute-alpha", "verify-3d-flip-theta"])
    def test_sha256(self, capsys, argv, exit_code, digest):
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        assert "error: empty list" in rejected(capsys, *argv)

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
        flag = next(a for a in argv if "," in a)
        assert f"error: empty item in list {flag!r}" in err

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

    @pytest.mark.parametrize("argv", [
        # no selected check reads --nu, so 7 used to pass unnoticed
        ("verify", "--checks", "unisolvence", "--nu", "7"),
        ("verify", "--checks", "tensor-commutation", "--nu", "3"),
        ("verify", "--checks", "dimensions", "--N", "3", "--nu", "0..4"),
        ("verify", "--nu=-1"),
        ("tensor", "--nu", "3"),
        ("tensor", "--N", "1", "--nu", "0,2"),
    ])
    def test_nu_outside_zero_to_dimension(self, capsys, argv):
        err = rejected(capsys, *argv, "--m", "1", "--n", "3")
        assert "--nu" in err and "out of range 0.." in err

    @pytest.mark.parametrize("argv, repeated", [
        # each used to run (or emit) the same thing twice
        (("verify", "--m", "1", "--n", "3", "--nu", "1,1",
          "--checks", "tensor-commutation"), "--nu repeats 1"),
        (("verify", "--m", "1,1", "--n", "3"), "--m repeats 1"),
        (("verify", "--m", "0,1,0", "--checks", "dimensions"),
         "--m repeats 0"),
        (("verify", "--m", "1", "--n", "3,3"), "--n repeats 3"),
        (("verify", "--m", "0..1", "--n", "3,4,3"), "--n repeats 3"),
        # used to be silently de-duplicated
        (("verify", "--checks", "unisolvence,dd-zero,unisolvence"),
         "--checks repeats unisolvence"),
        (("tensor", "--m", "1", "--n", "3", "--nu", "0,2,0"),
         "--nu repeats 0"),
        (("tensor", "--m", "1,1", "--n", "3"), "--m repeats 1"),
    ])
    def test_repeated_values(self, capsys, argv, repeated):
        assert f"error: {repeated}" in rejected(capsys, *argv)

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
               # without --emit basis-samples these three flags exit 2
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
        if bad is not None:
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

"""Command-line interface: parsing, artifacts, exit codes, determinism."""

import json
from fractions import Fraction

import pytest

from derham.cli import (degrees_for, main, parse_int_list, parse_polynomial,
                        parse_input_function)
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

    def test_nu_restriction(self, capsys):
        code, out, _ = run(capsys, "verify", "--m", "0", "--n", "1",
                           "--checks", "tensor-commutation", "--N", "2",
                           "--nu", "1")
        assert code == 0
        data = json.loads(out)
        assert len(data["reports"]) == 1
        assert data["reports"][0]["parameters"]["nu"] == 1

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

    def test_timings_to_file(self, capsys, tmp_path):
        args = ("verify", "--m", "0", "--n", "1..2",
                "--checks", "unisolvence,tensor-commutation", "--nu", "1")
        _, plain, _ = run(capsys, *args)
        path = tmp_path / "timings.tsv"
        code, out, err = run(capsys, *args, "--timings", str(path))
        assert code == 0 and err == ""
        assert out == plain  # timings never enter the report
        labels = [line.split("\t")[0] for line in
                  path.read_text().splitlines()]
        assert labels == ["unisolvence[m=0,n=1]",
                          "tensor-commutation[N=2,nu=1,m=0,n=1]",
                          "unisolvence[m=0,n=2]",
                          "tensor-commutation[N=2,nu=1,m=0,n=2]"]

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

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "interp", "--m", "2", "--n", "5",
                           "--input", "exp", "--samples", "21",
                           "--tolerance", "1e-18")
        assert code == 1  # residual is roundoff-sized, never below 1e-18

    def test_two_cell_output(self, capsys):
        code, out, _ = run(capsys, "interp", "--m", "1", "--n", "3",
                           "--input", "sin", "--samples", "9", "--two-cell")
        assert code == 0
        assert out.startswith("x,u,interp\n")
        assert "# junction mismatch order 0:" in out
        assert "# junction mismatch order 1:" in out

    @pytest.mark.parametrize("extra", [(), ("--two-cell",)])
    def test_quadrature_order_zero_is_rejected(self, capsys, extra):
        code, out, err = run(capsys, "interp", "--m", "1", "--n", "3",
                             "--input", "sin", "--quadrature-order", "0",
                             *extra)
        assert code == 2 and out == ""
        assert "error: quadrature" in err and "must be >= 1" in err

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

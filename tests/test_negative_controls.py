"""Negative controls: every verifier must fail on its targeted corruption.

The matrix below is asserted exactly: each corruption trips its own
verifier, and the checks that are structurally independent of the
corruption keep passing (so a red result always points at the actual
defect).  One cascade is entailed rather than independent: a corrupted
functional table breaks the functional pairing, and that pairing is
precisely what makes interpolation commute with d for inputs outside
the element space, so the commutation verifier necessarily fails with
it.
"""

import dataclasses
import json

import numpy as np
import pytest

from derham.cli import main
from derham.corruptions import (CORRUPTION_NAMES, corrupt, permute_alpha,
                                swap_basis, wrong_functional)
from derham.element1d import (build_element, verify_commutation,
                              verify_lemma_hypotheses, verify_unisolvence)
from derham.linalg import Exact
from derham.tensor import flat_sign, verify_dd_zero, verify_tensor_commutation, \
    rank_one_monomial_probes, verify_dimensions

GRID = [(0, 2), (1, 3), (2, 5)]


def one_d_outcomes(element):
    return {
        "unisolvence": verify_unisolvence(element).passed,
        "lemma-hypotheses": verify_lemma_hypotheses(element).passed,
        "commutation": verify_commutation(element).passed,
    }


class TestPristineBaseline:
    @pytest.mark.parametrize("mn", GRID)
    def test_all_pass(self, mn):
        assert one_d_outcomes(build_element(*mn)) == {
            "unisolvence": True, "lemma-hypotheses": True, "commutation": True}


class TestSwapBasis:
    @pytest.mark.parametrize("mn", GRID)
    def test_only_unisolvence_fails(self, mn):
        corrupted = swap_basis(build_element(*mn))
        outcomes = one_d_outcomes(corrupted)
        # the permuted element is still a valid element, so interpolation
        # and the structural hypotheses survive; the frozen matrix layout
        # does not
        assert outcomes == {"unisolvence": False, "lemma-hypotheses": True,
                            "commutation": True}

    def test_witness_points_at_the_matrix(self):
        report = verify_unisolvence(swap_basis(build_element(1, 3)))
        checks = {w["check"] for w in report.witness}
        assert checks <= {"identity-block", "diagonal", "bubble-columns",
                          "bubble-triangular", "deletion-identity"}
        assert "identity-block" in checks

    def test_needs_two_basis_functions(self):
        with pytest.raises(ValueError):
            swap_basis(build_element(0, 1))


class TestWrongFunctional:
    @pytest.mark.parametrize("mn", GRID)
    def test_pairing_fails_and_commutation_is_entailed(self, mn):
        corrupted = wrong_functional(build_element(*mn))
        outcomes = one_d_outcomes(corrupted)
        assert outcomes == {"unisolvence": True, "lemma-hypotheses": False,
                            "commutation": False}

    def test_witness_is_the_functional_pairing(self):
        report = verify_lemma_hypotheses(wrong_functional(build_element(1, 3)))
        assert any(w["check"] == "functional-pairing" for w in report.witness)
        assert all(w["check"] == "functional-pairing" for w in report.witness)


class TestPermuteAlpha:
    @pytest.mark.parametrize("mn", GRID)
    def test_only_commutation_fails(self, mn):
        corrupted = permute_alpha(build_element(*mn))
        outcomes = one_d_outcomes(corrupted)
        # the node matrices themselves are untouched, so the structural
        # checks stay green; interpolation uses the broken inverse
        assert outcomes == {"unisolvence": True, "lemma-hypotheses": True,
                            "commutation": False}

    def test_witness_carries_residual(self):
        report = verify_commutation(permute_alpha(build_element(1, 3)))
        assert report.witness[0]["check"] == "commutation"
        assert report.witness[0]["residual"]

    def test_projection_witnesses_follow(self):
        # the swapped rows of alpha1 times M1 swap the first two rows of I
        report = verify_commutation(permute_alpha(build_element(1, 3)))
        checks = [w["check"] for w in report.witness]
        assert checks == sorted(checks)  # commutation, then projection
        assert [w for w in report.witness if w["check"] == "projection"] == [
            {"check": "projection", "form": 1, "row": row, "col": col}
            for row, col in ((1, 1), (1, 2), (2, 1), (2, 2))]


def perturbed(element, field: str, index):
    """``element`` with 1/7 added to one entry of a stored table."""
    table = getattr(element, field)
    nums = table.nums * 7
    nums[index] += table.den
    return dataclasses.replace(
        element, **{field: Exact.reduced(nums, 7 * table.den)})


class TestStoredTableMutants:
    """Every single-entry perturbation of a stored node matrix or inverse
    fails a 1D check.  Nothing is rebuilt, so the tables lie about the
    functionals and basis they came from.  Commutation alone cannot see
    alpha0's last row, the coefficient of the constant basis function
    that d kills; the projection part of the commutation check does."""

    @pytest.mark.parametrize("mn", GRID)
    def test_no_mutant_survives(self, mn):
        e = build_element(*mn)
        checks = (verify_unisolvence, verify_lemma_hypotheses,
                  verify_commutation)
        mutants = [(field, index)
                   for field in ("alpha0", "alpha1", "M0", "M1")
                   for index in np.ndindex(getattr(e, field).nums.shape)]
        # 26 + 50 + 122 = 198 mutants over the grid
        assert len(mutants) == 2 * ((e.n + 1) ** 2 + e.n ** 2)
        survivors = [(field, index) for field, index in mutants
                     if all(check(perturbed(e, field, index)).passed
                            for check in checks)]
        assert survivors == []

    def test_constant_row_fails_projection_only(self):
        e = build_element(1, 3)
        report = verify_commutation(perturbed(e, "alpha0", (3, 0)))
        # alpha0' M0 = I + e_4 (M0's first row) / 7, and that row is e_1
        assert report.witness == [{"check": "projection", "form": 0,
                                   "row": 4, "col": 1}]


class TestShortFamily:
    """The element constructor rejects a family of the wrong size, so the
    control drops the last 1-form functional or basis function after the
    build; every nu with a 1-form axis then counts short."""

    @pytest.mark.parametrize("field, check", [
        ("functionals1", "functional-count"), ("basis1", "dimension")])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_dimensions_fails(self, field, check, dimension):
        e = dataclasses.replace(build_element(1, 3))
        object.__setattr__(e, field, getattr(e, field)[:-1])
        report = verify_dimensions(dimension, e)
        assert not report.passed
        assert [(w["check"], w["nu"]) for w in report.witness] == [
            (check, nu) for nu in range(1, dimension + 1)]

    def test_witness_counts(self):
        e = dataclasses.replace(build_element(1, 3))
        object.__setattr__(e, "functionals1", e.functionals1[:-1])
        # nu = 1 in 1D: two 1-form functionals for three basis functions
        assert verify_dimensions(1, e).witness == [
            {"check": "functional-count", "nu": 1, "count": 2,
             "expected": 3}]


class TestFlatSign:
    @pytest.mark.parametrize("mn", [(0, 1), (1, 3)])
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_dd_zero_fails(self, mn, dimension):
        report = verify_dd_zero(dimension, build_element(*mn),
                                sign_rule=flat_sign)
        assert not report.passed
        assert report.witness[0]["check"] == "dd-zero"

    @pytest.mark.parametrize("nu", [0, 1])
    def test_commutation_survives_the_flat_sign(self, nu):
        # the sign rule multiplies the same terms on both sides of the
        # commutation identity, so any sign rule commutes; d after d is
        # the check with the power to falsify it
        e = build_element(1, 3)
        probes = rank_one_monomial_probes(2, nu, range(4))
        report = verify_tensor_commutation(2, nu, probes, e,
                                           sign_rule=flat_sign)
        assert report.passed


class TestDispatcher:
    def test_names_round_trip(self):
        e = build_element(1, 3)
        assert corrupt(e, "flip-theta") is e
        for name in CORRUPTION_NAMES:
            corrupt(e, name)
        with pytest.raises(ValueError, match="unknown corruption"):
            corrupt(e, "nonsense")


class TestThroughCli:
    def test_flip_theta_breaks_dd_zero(self, capsys):
        code = main(["verify", "--m", "0", "--n", "1", "--checks", "dd-zero",
                     "--N", "2", "--corrupt", "flip-theta"])
        out = capsys.readouterr().out
        assert code == 1
        assert json.loads(out)["all_pass"] is False

    def test_flip_theta_spares_tensor_commutation(self, capsys):
        code = main(["verify", "--m", "0", "--n", "1",
                     "--checks", "tensor-commutation", "--N", "2",
                     "--corrupt", "flip-theta"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    @pytest.mark.parametrize("name,check", [
        ("swap-basis", "unisolvence"),
        ("wrong-functional", "lemma-hypotheses"),
        ("permute-alpha", "commutation"),
    ])
    def test_targeted_check_fails(self, capsys, name, check):
        code = main(["verify", "--m", "1", "--n", "3", "--checks", check,
                     "--corrupt", name])
        out = capsys.readouterr().out
        assert code == 1
        report = json.loads(out)["reports"][0]
        assert report["name"] == check
        assert report["passed"] is False
        assert report["witness"]

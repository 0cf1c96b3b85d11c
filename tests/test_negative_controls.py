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
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from derham import element1d, linalg, tensor
from derham.cli import main
from derham.corruptions import (CORRUPTION_NAMES, corrupt, permute_alpha,
                                swap_basis, wrong_functional)
from derham.element1d import (Element1D, build_element, verify_commutation,
                              verify_lemma_hypotheses, verify_unisolvence)
from derham.linalg import Exact
from derham.polycore import Polynomial, coefficients
from derham.tensor import flat_sign, verify_dd_zero, verify_tensor_commutation, \
    rank_one_monomial_probes, verify_dimensions, verify_kron_structure, \
    verify_monomial_commutation

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

    def test_witnesses_are_pinned(self):
        # the swapped M0 is not triangular: its inverse is the source's
        # with two rows swapped, its ranks take the Bareiss loop, and
        # every report below stays as it was
        texts = [json.dumps(verify_unisolvence(swap_basis(
            build_element(m, n))).to_json(), indent=2)
            for m in range(5) for n in range(max(2, 2 * m + 1), 2 * m + 7)]
        assert sum(text.count('"check"') for text in texts) == 164
        assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == \
            "53d11a1bc33c9b1fde0d1656e8b649c37d839931a009f3527cdb50fece663628"

    @pytest.mark.parametrize("mn", [(m, n) for m in range(5)
                                    for n in range(2 * m + 1, 2 * m + 7)
                                    if n >= 2])
    def test_inverses_match_the_bareiss_route(self, mn):
        # oracle: the swapped node matrices are not lower triangular, so
        # linalg.invert takes solve's Bareiss loop; the source's inverses
        # with two rows swapped, built with no solve, must equal it
        calls, solve = [], linalg.solve
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "solve",
                          lambda *args: calls.append(1) or solve(*args))
            got = swap_basis(build_element(*mn))
            assert calls == []
            for k, (M, alpha) in enumerate(((got.M0, got.alpha0),
                                            (got.M1, got.alpha1))):
                assert M == got.node_table(k)
                assert linalg.invert(M) == alpha
                assert len(calls) == k + 1

    def test_needs_two_basis_functions(self):
        with pytest.raises(ValueError):
            swap_basis(build_element(0, 1))

    @pytest.mark.parametrize("m", range(5))
    def test_matches_the_polynomial_route(self, m):
        # oracle: swap the basis polynomials, differentiate them and build
        # every table from their coefficients
        for n in range(max(2, 2 * m + 1), 2 * m + 8):
            e = build_element(m, n)
            basis0 = list(e.basis0)
            basis0[0], basis0[1] = basis0[1], basis0[0]
            want = Element1D(m, n, B0=coefficients(basis0, n + 1),
                             B1=coefficients([p.derivative()
                                              for p in basis0[:n]], n))
            got = swap_basis(e)
            for name in ("B0", "B1", "M0", "M1", "alpha0", "alpha1"):
                assert getattr(got, name) == getattr(want, name), (n, name)


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


class TestCopiesStayOnIntegers:
    """The patching corruptions copy the element with
    ``dataclasses.replace``: the integer B_k are shared, no Polynomial
    view is made, and every given table is still checked."""

    @pytest.mark.parametrize("corruption", [permute_alpha, wrong_functional])
    def test_no_basis_view_is_made(self, corruption):
        pristine = build_element(2, 7)
        corrupted = corruption(pristine)
        for e in (pristine, corrupted):
            assert not {"basis0", "basis1"} & set(vars(e))
        assert corrupted.B0 is pristine.B0 and corrupted.B1 is pristine.B1
        assert corrupted._memo is not pristine._memo
        assert corrupted.basis0 == pristine.basis0

    def test_given_tables_are_checked(self):
        e = build_element(1, 3)
        bad = Exact.trusted(e.alpha1.nums * 2, e.alpha1.den * 2)
        with pytest.raises(ValueError, match="^alpha1: .* not in lowest"):
            dataclasses.replace(e, alpha1=bad)


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


def plus_one(element, field: str, index):
    """``element`` with 1 added to one entry of ``alpha_k``, ``M_k`` or
    ``B_k``.  A changed ``B_k`` is given with the other basis table and
    its ``M_k`` and ``alpha_k`` are rebuilt from it; a changed node table
    or inverse is stored as it is."""
    table = getattr(element, field)
    nums = table.nums.copy()
    nums[index] += table.den
    value = Exact.reduced(nums, table.den)
    if field[0] == "B":
        return Element1D(element.m, element.n,
                         **{"B0": element.B0, "B1": element.B1, field: value})
    return dataclasses.replace(element, **{field: value})


class TestPerturbationSweep:
    """Every check that decides from a shortcut (the triangular ranks,
    the dd-zero pair and column skip, the monomial table's flags, the
    kron ``same`` skip) must still see a single-entry error in any table.
    Adding 1 to one entry of alpha_k, M_k or B_k, on four elements, makes
    an element that fails at least one of unisolvence, lemma-hypotheses,
    commutation, and at N = 2 dd-zero, kron-structure and
    tensor-commutation on the CLI's degrees."""

    POINTS = ((0, 1), (1, 3), (1, 4), (2, 7))
    FIELDS = ("alpha0", "alpha1", "M0", "M1", "B0", "B1")

    @staticmethod
    def tensor_commutation_passes(e):
        return all(verify_monomial_commutation(2, nu, e.n + 3, e)
                   .passed for nu in range(3))

    @pytest.mark.parametrize("mn", POINTS)
    def test_every_perturbation_fails_a_check(self, mn):
        e = build_element(*mn)
        checks = [verify_unisolvence, verify_lemma_hypotheses,
                  verify_commutation, lambda e: verify_dd_zero(2, e)] + [
            lambda e, nu=nu: verify_kron_structure(2, nu, e)
            for nu in range(3)]
        mutants = [(field, index) for field in self.FIELDS
                   for index in np.ndindex(getattr(e, field).nums.shape)]
        assert len(mutants) == 3 * ((e.n + 1) ** 2 + e.n ** 2)

        def passes(p):
            return all(check(p).passed for check in checks) \
                and self.tensor_commutation_passes(p)
        assert [(field, index) for field, index in mutants
                if passes(plus_one(e, field, index))] == []

    @pytest.mark.parametrize("mn", POINTS)
    def test_commutation_premises_match_the_defect_route(self, mn,
                                                         monkeypatch):
        """Where the premises of the commutation lemma hold, the defect
        C is zero without being built; the report must be the one that
        building C gives, perturbation by perturbation."""
        e = build_element(*mn)
        perturbations = [plus_one(e, field, index) for field in self.FIELDS
                         for index in np.ndindex(getattr(e, field).nums.shape)]

        def reports():
            return [json.dumps(verify_commutation(p).to_json())
                    for p in perturbations]
        shortcut = reports()
        monkeypatch.setattr(element1d, "_premises_hold", lambda e, w: False)
        assert reports() == shortcut

    @pytest.mark.parametrize("mn", POINTS)
    def test_only_premise_c_broken(self, mn):
        """1 added to alpha0[i, n], i < n, keeps D B_0 = [B_1 | 0] and the
        functional pairing but not alpha0[:n] = [alpha1 | 0]: C is then
        delta B_1[:, i] T_0[n] with T_0[n] = (2, 1, 1, ..), so every
        monomial probe fails, before the projection witnesses."""
        e = build_element(*mn)
        n, width = e.n, e.default_probe_degree + 1
        for i in range(n):
            p = plus_one(e, "alpha0", (i, n))
            moved, kernel = element1d._pairing(p)
            assert not (moved.any() or kernel)
            assert not element1d._functional_pairing(p, width)[2].any()
            assert not element1d._premises_hold(p, width)
            report = verify_commutation(p)
            assert [w["probe"] for w in report.witness
                    if w["check"] == "commutation"] == list(range(width))
            assert {w["check"] for w in report.witness[width:]} \
                == {"projection"}

    @pytest.mark.parametrize("mn", POINTS)
    def test_tensor_commutation_sees_every_interpolant_change(self, mn):
        """On its own, tensor-commutation fails every perturbation of
        alpha_1 and B_1, and of alpha_0 and B_0 but for alpha_0's last row
        and B_0's first row.  Both change only the coefficient of the
        constant basis function, which d kills: a constant added to a
        0-form basis function changes only the row of M_0 of the one
        functional that sees constants, u(1)+u(0)."""
        e = build_element(*mn)
        passing = [(field, index) for field in ("alpha0", "alpha1", "B0",
                                                "B1")
                   for index in np.ndindex(getattr(e, field).nums.shape)
                   if self.tensor_commutation_passes(
                       plus_one(e, field, index))]
        assert passing == [("alpha0", (e.n, j)) for j in range(e.n + 1)] \
            + [("B0", (0, j)) for j in range(e.n + 1)]


class TestShortFamily:
    """The element constructor rejects a family of the wrong size, so the
    control drops the last 1-form functional or basis function (the last
    column of B1) after the build; every nu with a 1-form axis then
    counts short."""

    @pytest.mark.parametrize("field, check", [
        ("functionals1", "functional-count"), ("basis1", "dimension")])
    @pytest.mark.parametrize("dimension", [1, 2, 3])
    def test_dimensions_fails(self, field, check, dimension):
        e = dataclasses.replace(build_element(1, 3))
        if field == "basis1":
            object.__setattr__(e, "B1", Exact.trusted(e.B1.nums[:, :-1],
                                                      e.B1.den))
        else:
            object.__setattr__(e, field, e.functionals1[:-1])
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


class TestSubChecks:
    """One control per sub-check that no other control reaches: each
    pins the sub-check's exact witness."""

    def test_bubble_superdiagonal_fails_bubble_triangular(self,
                                                          monkeypatch):
        # one entry on the first superdiagonal of the bubble block; the
        # structure has failed, so both ranks are computed (and are full)
        e = build_element(1, 5)
        nums = e.M0.nums.copy()
        nums[3, 4] = 1
        ranked = []
        rank = linalg.rank
        monkeypatch.setattr(linalg, "rank",
                            lambda matrix: ranked.append(matrix) or
                            rank(matrix))
        report = verify_unisolvence(
            dataclasses.replace(e, M0=Exact.reduced(nums, e.M0.den)))
        assert report.witness == [
            {"check": "bubble-triangular", "row": 4, "col": 5,
             "value": f"1/{e.M0.den}"},
            {"check": "deletion-identity", "row": 4, "col": 5,
             "value": "0"}]
        assert len(ranked) == 2

    def test_lower_hermite_entry_fails_identity_block(self):
        # M0 and M1 both given 1 at (2m, 0), below the diagonal in the last
        # row of the Hermite block: the deletion identity holds and M0
        # stays lower triangular of full rank, so only the identity-block
        # region, all 2m + 1 rows of it, sees the entry
        e = build_element(2, 5)
        M0, M1 = e.M0.nums.copy(), e.M1.nums.copy()
        M0[4, 0] = M1[4, 0] = 1
        report = verify_unisolvence(
            dataclasses.replace(e, M0=Exact(M0), M1=Exact(M1)))
        assert report.witness == [{"check": "identity-block", "row": 5,
                                   "col": 1, "value": "1"}]

    def test_zero_corner_fails_each_region_through_it(self):
        # M0[n][n] lies in the last row, the last column and the diagonal,
        # and with it zero M0 has rank n
        e = build_element(1, 3)
        nums = e.M0.nums.copy()
        nums[3, 3] = 0
        report = verify_unisolvence(dataclasses.replace(e, M0=Exact(nums)))
        assert report.witness == [
            *[{"check": check, "row": 4, "col": 4, "value": "0"}
              for check in ("last-row", "last-column", "diagonal")],
            {"check": "rank-M0", "rank": 3, "expected": 4}]

    def test_basis_pairing_names_the_changed_basis_function(self):
        e = build_element(1, 3)
        basis1 = list(e.basis1)
        basis1[2] = basis1[2] * 2
        report = verify_lemma_hypotheses(Element1D(
            1, 3, B1=coefficients(basis1, 3)))
        assert report.witness == [{"check": "basis-pairing", "basis": 3}]

    @pytest.mark.parametrize("j, added, expected", [
        # b_2 + 1/2: the last functional u(1)+u(0) no longer kills b_2
        (1, [Fraction(1, 2)], [{"check": "kernel-separation", "basis": 2,
                                "value": "1"}]),
        # the constant made 1/2 + x: d no longer kills it, and the first
        # n functionals no longer annihilate it
        (3, [0, 1], [{"check": "kernel", "detail":
                      "d of the last basis function is not zero"}] + [
            {"check": "kernel-separation", "functional": i, "value": "1"}
            for i in (1, 2, 3)]),
    ], ids=["basis", "functional"])
    def test_kernel_separation_names_the_entry(self, j, added, expected):
        e = build_element(1, 3)
        basis0 = list(e.basis0)
        basis0[j] = basis0[j] + Polynomial(added)
        report = verify_lemma_hypotheses(Element1D(
            1, 3, B0=coefficients(basis0, 4), B1=e.B1))
        assert report.witness == expected

    @pytest.mark.parametrize("derived", [True, False],
                             ids=["paired", "unpaired"])
    def test_rank_deficient_derivatives_fail_range(self, derived):
        # b0 + b1 twice: T1 B1 is [[1, 1, 0], [1, 1, 0], [0, 0, 1]] when
        # basis1 is the derived basis, a full diagonal that proves nothing;
        # kept pristine, basis1 is triangular but no longer the derived
        # basis.  The stored tables stay pristine, so nothing is inverted.
        e = build_element(1, 3)
        s = e.basis0[0] + e.basis0[1]
        basis0 = (s, s, *e.basis0[2:])
        basis1 = tuple(p.derivative() for p in basis0[:3]) if derived \
            else e.basis1
        report = verify_lemma_hypotheses(dataclasses.replace(
            e, B0=coefficients(basis0, 4), B1=coefficients(basis1, 3)))
        unpaired = [] if derived else [{"check": "basis-pairing", "basis": j}
                                       for j in (1, 2)]
        assert report.witness == [
            {"check": "range", "detail": "derivatives of the first n basis "
             "functions do not span the 1-form space"}, *unpaired]

    @pytest.mark.parametrize("wrong, witness", [
        (lambda chis: chis[:-1] + chis[:1],  # a duplicate for the last
         [{"check": "chi-count", "nu": 1, "count": 2, "expected": 2}]),
        (lambda chis: chis[:-1],  # the last one missing
         [{"check": "chi-count", "nu": 1, "count": 1, "expected": 2},
          {"check": "total-dimension", "total": 37, "expected": 49}])],
        ids=["duplicate", "missing"])
    def test_wrong_enumeration_fails_chi_count(self, monkeypatch, wrong,
                                               witness):
        enumerate_chi = tensor.enumerate_chi
        monkeypatch.setattr(tensor, "enumerate_chi", lambda dimension, nu: (
            wrong if nu == 1 else list)(enumerate_chi(dimension, nu)))
        assert verify_dimensions(2, build_element(1, 3)).witness == witness


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

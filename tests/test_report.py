"""Verification report invariants."""

import pytest

from derham.report import WITNESS_CAP, SuiteResult, VerificationReport


def test_failing_report_requires_witness():
    with pytest.raises(ValueError, match="witness"):
        VerificationReport(name="anything", passed=False)


def test_passing_report_needs_no_witness():
    r = VerificationReport(name="ok", passed=True, parameters={"m": 1})
    assert r.to_json() == {"name": "ok", "passed": True,
                           "parameters": {"m": 1}, "witness": [],
                           "details": {}}


def test_suite_exit_status():
    good = VerificationReport(name="a", passed=True)
    bad = VerificationReport(name="b", passed=False,
                             witness=[{"check": "x", "value": "1"}])
    assert SuiteResult(reports=[good]).exit_status == 0
    assert SuiteResult(reports=[good]).all_pass
    suite = SuiteResult(reports=[good, bad])
    assert suite.exit_status == 1
    assert not suite.all_pass
    assert SuiteResult().exit_status == 0  # vacuous


def test_timings_excluded_from_json():
    suite = SuiteResult(reports=[VerificationReport(name="a", passed=True)],
                        timings=[("a", 0.123)])
    out = suite.to_json()
    assert "timings" not in out
    assert out["all_pass"] is True
    assert [r["name"] for r in out["reports"]] == ["a"]


def test_a_report_at_the_witness_cap_lists_every_witness():
    witness = [{"check": "x", "index": i} for i in range(WITNESS_CAP)]
    r = VerificationReport.of("a", witness, {"k": 1}, m=1)
    assert r.witness == witness and r.details == {"k": 1}
    assert r.to_json() == VerificationReport(
        "a", False, {"m": 1}, witness, {"k": 1}).to_json()


def test_a_report_past_the_witness_cap_states_the_count():
    witness = [{"check": "x", "index": i} for i in range(WITNESS_CAP + 1)]
    r = VerificationReport.of("a", witness, {"k": 1}, m=1)
    assert not r.passed and r.witness == witness[:WITNESS_CAP]
    assert r.details == {"k": 1, "failures": WITNESS_CAP + 1,
                         "witness_cap": WITNESS_CAP}
    assert r.parameters == {"m": 1}


def test_failures_counts_the_witnesses_not_listed():
    """A verifier that stops listing at the cap passes its exact count:
    the report takes the larger of it and the list's length, and states
    it only past the cap."""
    witness = [{"check": "x", "index": i} for i in range(WITNESS_CAP)]
    r = VerificationReport.of("a", witness, failures=WITNESS_CAP + 7)
    assert r.witness == witness
    assert r.details == {"failures": WITNESS_CAP + 7,
                         "witness_cap": WITNESS_CAP}
    assert VerificationReport.of("a", witness[:3], failures=2).details == {}
    assert VerificationReport.of("a", [], failures=0).passed
    with pytest.raises(ValueError, match="witness"):
        VerificationReport.of("a", [], failures=1)

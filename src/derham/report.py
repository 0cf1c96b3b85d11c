"""Machine-readable verification outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field

WITNESS_CAP = 2000  # the most witnesses a report lists


@dataclass
class VerificationReport:
    """Outcome of one verified property.

    ``witness`` carries the offending indices / residuals when the check
    fails; a failing report without a witness is rejected outright so a
    red result can always be traced.
    """

    name: str
    passed: bool
    parameters: dict = field(default_factory=dict)
    witness: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.passed and not self.witness:
            raise ValueError("failing report requires a non-empty witness")

    @classmethod
    def of(cls, name: str, witness: list, details: dict | None = None,
           failures: int = 0, **parameters) -> "VerificationReport":
        """The report of check ``name``: it passes iff ``max(failures,
        len(witness))`` is 0, lists the first ``WITNESS_CAP`` witnesses, and
        past the cap states that count and the cap in ``details``."""
        failures, details = max(failures, len(witness)), details or {}
        if failures > WITNESS_CAP:
            details = {**details, "failures": failures,
                       "witness_cap": WITNESS_CAP}
        return cls(name, not failures, parameters, witness[:WITNESS_CAP],
                   details)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "parameters": dict(self.parameters),
            "witness": list(self.witness),
            "details": dict(self.details),
        }


@dataclass
class SuiteResult:
    """Ordered collection of reports plus per-check wall times.

    Timings are kept out of :meth:`to_json` so report artifacts are
    byte-identical across reruns of the same configuration.
    """

    reports: list[VerificationReport] = field(default_factory=list)
    timings: list[tuple[str, float]] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def exit_status(self) -> int:
        return 0 if self.all_pass else 1

    def to_json(self) -> dict:
        return {
            "all_pass": self.all_pass,
            "reports": [r.to_json() for r in self.reports],
        }

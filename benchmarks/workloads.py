"""The four benchmark workloads and the known-answer gate.

Each workload is a fixed list of calls made once per pass.  A call runs
one ``derham`` command in-process (``cli.main``) or one library call,
and yields an artifact (the exact text the program emitted) plus one
verdict per report.  The gate compares every verdict with an answer
known from the mathematics or from the documented target of the
negative-control fixture in ``derham/corruptions.py``; it never asks
the program under test what the answer should be.

Why each workload was chosen is recorded in ``README.md`` and in
``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# GRID_1D is the acceptance UNISOLVENCE_GRID, GRID_2D the acceptance
# TENSOR_GRID, GRID_3D the TENSOR_GRID points with n <= 4.
GRID_1D = [(m, n) for m in range(5) for n in range(2 * m + 1, 2 * m + 7)]
GRID_2D = [(m, n) for m in range(3) for n in range(2 * m + 1, 2 * m + 4)]
GRID_3D = [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4)]

ONE_D_CHECKS = ("unisolvence", "lemma-hypotheses", "commutation")

# Documented targets of each negative-control fixture (corruptions.py).
CORRUPTION_TARGETS = {
    None: (),
    "swap-basis": ("unisolvence",),
    "wrong-functional": ("lemma-hypotheses", "commutation"),
    "permute-alpha": ("commutation",),
    "flip-theta": ("dd-zero",),
}

ND_TOLERANCE = 1e-11  # derham.tensor.DEFAULT_ND_TOLERANCE


def known_discrepancy(check: str, params: dict) -> bool:
    """The two float-accuracy defects the seed ships with.

    * continuity-demo with sin at m=4: the 4th-derivative junction
      mismatch is about 2e-10 against the 1e-12 tolerance;
    * N-D smooth commutation of a generic 1-form at N=2, m=2: the
      residual is 1e-11..3e-10 at n=7 (and, for some inputs, just above
      1e-11 at n=6) against DEFAULT_ND_TOLERANCE.

    They are counted as wrong verdicts; they only keep ``correct`` true.
    """
    if check == "continuity-demo":
        return params.get("m") == 4 and params.get("function") == "sin"
    if check == "nd-smooth-commutation":
        return (params["N"], params["m"], params["nu"]) == (2, 2, 1) \
            and params["n"] in (6, 7)
    return False


@dataclass
class Verdict:
    check: str
    params: dict
    passed: bool
    has_witness: bool


@dataclass
class Call:
    """One request of a pass.

    ``execute`` runs it and returns (exit status, artifact text, verifier
    latencies in seconds); it is the only part that is timed.  ``judge``
    turns the emitted bytes into verdicts after the pass.  The known
    answer of a verdict is "passes" unless ``corrupt`` names a fixture
    that targets its check.  ``inverted`` marks the harness self-test:
    its known answer is deliberately flipped, so its verdicts must come
    out wrong.  ``reports`` is how many verdicts the call must yield.
    """

    key: str
    execute: object
    judge: object
    reports: int
    corrupt: str | None = None
    inverted: bool = False

    def expected(self, verdict: Verdict) -> bool:
        passes = verdict.check not in CORRUPTION_TARGETS[self.corrupt]
        return passes != self.inverted


def _capture_cli(derham, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = derham.cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _report_verdicts(status, text):
    """Verdicts of a JSON report, or of a ``derham verify`` suite."""
    data = json.loads(text)
    reports = data["reports"] if "reports" in data else [data]
    return [Verdict(r["name"], r["parameters"], r["passed"],
                    bool(r["witness"])) for r in reports]


class SuiteCapture:
    """Keeps the SuiteResult of each in-process ``derham verify``.

    ``SuiteResult.timings`` are the CLI's own per-check wall times; they
    are the verifier-call latencies of CLI calls.
    """

    def __init__(self, cli):
        self.cli = cli
        self.original = cli.run_verify_suite
        self.last = None
        self.timings: list[tuple[str, float]] = []

        def capture(cfg):
            self.last = self.original(cfg)
            self.timings += self.last.timings
            return self.last
        cli.run_verify_suite = capture

    def restore(self):
        self.cli.run_verify_suite = self.original


def _verify_call(derham, capture, key, argv, reports, corrupt=None,
                 inverted=False):
    full = ["verify", *argv, "--format", "json"]
    if corrupt:
        full += ["--corrupt", corrupt]

    def execute():
        capture.last = None
        status, text, err = _capture_cli(derham, full)
        if capture.last is None:
            raise RuntimeError(f"exit {status}: {err.strip()}")
        return status, text, [t for _, t in capture.last.timings]
    return Call(key, execute, _report_verdicts, reports, corrupt, inverted)


def _element_call(derham, m, n):
    """``derham element`` JSON; known answer: alpha_k inverts M_k exactly."""
    def execute():
        status, text, err = _capture_cli(
            derham, ["element", "--m", str(m), "--n", str(n)])
        if status != 0:
            raise RuntimeError(f"exit {status}: {err.strip()}")
        return status, text, []

    def judge(status, text):
        return [Verdict("element-tables", {"m": m, "n": n},
                        _tables_consistent(json.loads(text), m, n), True)]
    return Call(f"element m={m} n={n}", execute, judge, 1)


def _tables_consistent(data, m, n) -> bool:
    if (data["m"], data["n"]) != (m, n):
        return False
    for matrix, inverse, size in (("M0", "alpha0", n + 1),
                                  ("M1", "alpha1", n)):
        a = [[Fraction(x) for x in row] for row in data[matrix]]
        b = [[Fraction(x) for x in row] for row in data[inverse]]
        if len(a) != size or len(b) != size \
                or any(len(row) != size for row in a + b):
            return False
        for i in range(size):
            for j in range(size):
                if sum(a[i][k] * b[k][j] for k in range(size)) != (i == j):
                    return False
    return True


def _interp_call(derham, m, n, function):
    """``derham interp``; known answer: d I0 u = I1 du holds (exit 0)."""
    argv = ["interp", "--m", str(m), "--n", str(n), "--input", function]

    def execute():
        started = perf_counter()
        status, text, err = _capture_cli(derham, argv)
        elapsed = perf_counter() - started
        if status not in (0, 1):
            raise RuntimeError(f"exit {status}: {err.strip()}")
        return status, text, [elapsed]

    def judge(status, text):
        return [Verdict("interp-commutation",
                        {"m": m, "n": n, "function": function},
                        status == 0, True)]
    return Call(f"interp m={m} n={n} {function}", execute, judge, 1)


def _kron_call(derham, element, nu):
    def execute():
        started = perf_counter()
        report = derham.tensor.verify_kron_structure(2, nu, element)
        elapsed = perf_counter() - started
        return 0, derham.serialize.json_text(report.to_json()), [elapsed]
    return Call(f"kron N=2 nu={nu} m={element.m} n={element.n}", execute,
                _report_verdicts, 1)


def _smooth_component(derham, rng, dimension, sine: bool):
    coeffs = [rng.uniform(0.5, 2.0) * rng.choice((-1, 1))
              for _ in range(dimension)]
    if sine:
        return derham.smooth.sinusoid(coeffs, phase=rng.uniform(0.0, 3.0))
    return derham.smooth.exponential_nd([c / 2 for c in coeffs])


def _nd_smooth_call(derham, element, dimension, nu, u):
    """d I u = I d u for a smooth nu-form, within DEFAULT_ND_TOLERANCE."""
    tensor = derham.tensor
    params = {"N": dimension, "m": element.m, "n": element.n, "nu": nu}

    def execute():
        started = perf_counter()
        lhs = tensor.d_tensor(tensor.tensor_interpolate(dimension, nu, u,
                                                        element))
        rhs = tensor.tensor_interpolate(dimension, nu + 1,
                                        tensor.d_smooth(u), element)
        residual = float((lhs - rhs).max_abs())
        elapsed = perf_counter() - started
        passed = residual <= ND_TOLERANCE
        witness = [] if passed else [
            {"max_abs": derham.serialize.float_str(residual)}]
        record = {"name": "nd-smooth-commutation", "passed": passed,
                  "parameters": params, "witness": witness,
                  "details": {"max_abs": derham.serialize.float_str(residual)}}
        return 0, derham.serialize.json_text(record), [elapsed]
    return Call("nd-smooth N={N} nu={nu} m={m} n={n}".format(**params),
                execute, _report_verdicts, 1)


def _nd_smooth_form(derham, rng, dimension, nu):
    """A smooth nu-form with seeded coefficients.

    The family of each component (sinusoid or exponential) is fixed by
    its position, so the cost of a call does not depend on the seed.
    """
    if nu == 0:
        return _smooth_component(derham, rng, dimension, sine=True)
    chis = derham.tensor.enumerate_chi(dimension, nu)
    return derham.tensor.SmoothFormND(dimension, nu, {
        chi: _smooth_component(derham, rng, dimension, (i + nu) % 2 == 0)
        for i, chi in enumerate(chis)})


def build_calls(name: str, derham, capture, seed: int, elements: dict):
    """The calls of one pass of workload ``name``, generated from seed.

    The tensor workloads run fixed grids; the seed enters ``grid_1d``
    through ``--random-probes 3 --seed`` and ``smooth`` through the
    coefficients of its N-D inputs.  Every workload ends with one
    harness self-test call whose known answer is inverted.
    """
    def verify(key, argv, reports, corrupt=None, inverted=False):
        return _verify_call(derham, capture, key, argv, reports, corrupt,
                            inverted)

    def grid(checks, dimension, points, reports, extra=()):
        """One ``derham verify`` per element of the grid."""
        calls = []
        for m, n in points:
            argv = ["--m", str(m), "--n", str(n), "--checks", checks, *extra]
            if dimension:
                argv += ["--N", str(dimension)]
            calls.append(verify("verify " + " ".join(argv), argv, reports))
        return calls

    if name == "grid_1d":
        checks = ",".join(ONE_D_CHECKS)
        flags = ["--random-probes", "3", "--seed", str(seed)]
        calls = grid(checks, 0, GRID_1D, len(ONE_D_CHECKS), flags)
        for corrupt in ("swap-basis", "wrong-functional", "permute-alpha"):
            calls.append(verify(f"control {corrupt} m=1 n=3",
                                ["--m", "1", "--n", "3", "--checks", checks,
                                 *flags], len(ONE_D_CHECKS), corrupt))
        calls += [_element_call(derham, m, n) for m, n in GRID_1D]
        calls.append(verify("self-test swap-basis unisolvence m=0 n=2",
                            ["--m", "0", "--n", "2", "--checks",
                             "unisolvence"], 1, "swap-basis", inverted=True))
        return calls

    if name == "tensor_structure":
        calls = grid("dimensions,dd-zero", 2, GRID_2D, 2)
        calls += grid("dimensions,dd-zero", 3, GRID_3D, 2)
        calls += [_kron_call(derham, elements[m, n], nu)
                  for m, n in GRID_2D for nu in range(3)]
        calls += [verify(f"control flip-theta dd-zero N={dimension} m=1 n=3",
                         ["--m", "1", "--n", "3", "--checks", "dd-zero",
                          "--N", str(dimension)], 1, "flip-theta")
                  for dimension in (2, 3)]
        calls.append(verify("self-test flip-theta dd-zero N=2 m=0 n=1",
                            ["--m", "0", "--n", "1", "--checks", "dd-zero",
                             "--N", "2"], 1, "flip-theta", inverted=True))
        return calls

    if name == "tensor_interp":
        calls = grid("tensor-commutation", 2, GRID_2D, 3)
        calls += grid("tensor-commutation", 3, GRID_3D, 4)
        calls += [verify(f"control flip-theta commutation N={dimension} "
                         "m=1 n=3",
                         ["--m", "1", "--n", "3", "--checks",
                          "tensor-commutation", "--N", str(dimension)],
                         dimension + 1, "flip-theta")
                  for dimension in (2, 3)]
        calls.append(verify("self-test flip-theta commutation N=2 m=0 n=1",
                            ["--m", "0", "--n", "1", "--checks",
                             "tensor-commutation", "--N", "2", "--nu", "1"],
                            1, "flip-theta", inverted=True))
        return calls

    if name == "smooth":
        calls = grid("continuity-demo", 0, GRID_1D, 1)
        calls += [_interp_call(derham, m, 2 * m + 1, function)
                  for m in range(5) for function in ("sin", "exp")]
        rng = random.Random(seed)
        for dimension, points in ((2, GRID_2D), (3, GRID_3D)):
            for m, n in points:
                for nu in range(dimension):
                    u = _nd_smooth_form(derham, rng, dimension, nu)
                    calls.append(_nd_smooth_call(derham, elements[m, n],
                                                 dimension, nu, u))
        calls.append(verify("self-test continuity-demo m=0 n=1",
                            ["--m", "0", "--n", "1", "--checks",
                             "continuity-demo"], 1, inverted=True))
        return calls

    raise ValueError(f"unknown workload {name!r}")


class Gate:
    """Known-answer gate and determinism check over all passes."""

    def __init__(self):
        self.first_digest: dict[str, str] = {}
        self.judged: dict[tuple[str, str], list] = {}
        self.attempted = 0
        self.wrong = {"self-test": 0, "known": 0, "unexpected": 0}
        self.self_test_tripped = True
        self.problems: list[str] = []

    def note(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def check_pass(self, results) -> None:
        for call, status, artifact, error in results:
            if error is not None:
                self.attempted += call.reports
                self.wrong["unexpected"] += call.reports
                self.note(f"{call.key}: raised {error}")
                continue
            digest = hashlib.sha256(
                f"{status}\n{artifact}".encode()).hexdigest()
            first = self.first_digest.setdefault(call.key, digest)
            verdicts = self.judged.get((call.key, digest))
            if verdicts is None:
                try:
                    verdicts = call.judge(status, artifact)
                except (ValueError, KeyError, TypeError) as error:
                    self.note(f"{call.key}: unreadable artifact: {error}")
                    verdicts = []
                self.judged[call.key, digest] = verdicts
            self.attempted += max(len(verdicts), call.reports)
            if len(verdicts) != call.reports:
                missing = abs(call.reports - len(verdicts))
                self.wrong["unexpected"] += missing
                self.note(f"{call.key}: {len(verdicts)} reports, "
                          f"expected {call.reports}")
            if digest != first:
                self.wrong["unexpected"] += len(verdicts)
                self.note(f"{call.key}: artifact differs from first pass")
                continue
            wrong_here = 0
            for verdict in verdicts:
                want = call.expected(verdict)
                right = verdict.passed == want and \
                    (want or verdict.has_witness)
                if right:
                    continue
                wrong_here += 1
                if call.inverted:
                    self.wrong["self-test"] += 1
                elif known_discrepancy(verdict.check, verdict.params):
                    self.wrong["known"] += 1
                else:
                    self.wrong["unexpected"] += 1
                    self.note(f"{call.key}: {verdict.check} "
                              f"{verdict.params} passed={verdict.passed}")
            if call.inverted and wrong_here != len(verdicts):
                self.self_test_tripped = False
                self.note(f"{call.key}: self-test verdict matched its "
                          "inverted answer")

    @property
    def wrong_total(self) -> int:
        return sum(self.wrong.values())

    @property
    def correct(self) -> bool:
        return self.wrong["unexpected"] == 0 and self.self_test_tripped


# The elements each workload builds up front (set-up): the library calls
# reuse them, the CLI builds its own on every call.
SETUP_ELEMENTS = {
    "grid_1d": GRID_1D,
    "tensor_structure": GRID_2D,
    "tensor_interp": GRID_2D,
    "smooth": GRID_1D,
}
WORKLOADS = tuple(SETUP_ELEMENTS)

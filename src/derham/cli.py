"""Command-line front end.

Four subcommands:

* ``element`` — build one (m, n) element and emit its tables (JSON) or
  basis samples (CSV).
* ``verify``  — run selected verifiers over an (m, n) grid, optionally
  tensorized to N dimensions and optionally corrupted (negative
  controls); exit status 0 iff everything passes.
* ``tensor``  — emit the N-dimensional space tables or 2D basis samples.
* ``interp``  — interpolate a named function (sin, cos, exp) or a
  polynomial literal like ``3/2x^2-x+1`` and emit sample columns with
  the commutation residual, or run the two-cell continuity demo.

Artifacts are deterministic: rationals are exact "num/den" strings,
floats carry 17 significant digits, and no timings or timestamps are
embedded.  Relative ``--output`` paths resolve under ``$DERHAM_OUTDIR``
when that variable is set.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import corruptions, element1d, serialize, tensor
from .polycore import Polynomial
from .report import SuiteResult, VerificationReport
from .smooth import SmoothFunction1D, named_function
from .tensor import flat_sign, theta

CHECK_ORDER = ("unisolvence", "lemma-hypotheses", "commutation", "dimensions",
               "dd-zero", "tensor-commutation", "continuity-demo")
ONE_D_CHECKS = {"unisolvence", "lemma-hypotheses", "commutation",
                "continuity-demo"}
TENSOR_CHECKS = {"dimensions", "dd-zero", "tensor-commutation"}

OUTDIR_ENV = "DERHAM_OUTDIR"


@dataclass
class RunConfig:
    command: str
    m_values: list[int] = field(default_factory=lambda: [0])
    n_spec: str = "auto+0"
    dimension: int = 2
    nu_values: list[int] | None = None
    checks: list[str] = field(default_factory=lambda: list(CHECK_ORDER))
    corrupt: str | None = None
    fmt: str = "json"
    output: str | None = None
    quadrature_order: int | None = None
    probe_degree: int | None = None
    seed: int = 0
    random_probes: int = 0
    tolerance: float = 1e-12
    timings: str | None = None


def parse_int_list(text: str) -> list[int]:
    """Accepts "3", "0..3", or "1,3,5"."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    if "," in text:
        return [int(part) for part in text.split(",") if part.strip()]
    return [int(text)]


def degrees_for(m: int, n_spec: str) -> list[int]:
    """Resolve the --n specification for one m.

    "auto+K" means n = 2m+1 .. 2m+1+K, keeping the n >= 2m+1 constraint
    implicit; explicit values are validated against it.
    """
    n_spec = n_spec.strip()
    if n_spec.startswith("auto"):
        extra = 0
        if n_spec != "auto":
            match = re.fullmatch(r"auto\+(\d+)", n_spec)
            if not match:
                raise ValueError(f"bad degree spec {n_spec!r}; "
                                 "expected auto, auto+K, a value, or a range")
            extra = int(match.group(1))
        base = 2 * m + 1
        return list(range(base, base + extra + 1))
    values = parse_int_list(n_spec)
    for n in values:
        if n < 2 * m + 1:
            raise ValueError(f"degree n={n} too low for m={m}; "
                             f"need n >= {2 * m + 1}")
    return values


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<coeff>\d+(?:/\d+)?)?(?P<x>\*?x(?:\^(?P<power>\d+))?)?$")


def parse_polynomial(text: str) -> Polynomial:
    """Parse literals like "3/2x^2-x+1", "x^3", "-2/5"."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial literal")
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise ValueError(f"cannot parse polynomial literal {text!r}")
    result = Polynomial.zero()
    for chunk in chunks:
        match = _TERM_RE.fullmatch(chunk)
        if not match or (match.group("coeff") is None and match.group("x") is None):
            raise ValueError(f"cannot parse term {chunk!r} in {text!r}")
        coeff = Fraction(match.group("coeff") or 1)
        if match.group("sign") == "-":
            coeff = -coeff
        power = int(match.group("power") or 1) if match.group("x") else 0
        result = result + Polynomial.monomial(power, coeff)
    return result


def parse_input_function(text: str) -> SmoothFunction1D:
    try:
        return named_function(text)
    except ValueError:
        pass
    try:
        p = parse_polynomial(text)
    except ValueError:
        raise ValueError(f"unknown function {text!r}: not a built-in name "
                         "(sin, cos, exp) and not a polynomial literal")
    return SmoothFunction1D.from_polynomial(p, name=text)


def resolve_output(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def emit(text: str, path: str | None) -> None:
    path = resolve_output(path)
    if path is None:
        sys.stdout.write(text)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)


def _build(cfg: RunConfig, m: int, n: int):
    element = element1d.build_element(m, n)
    if cfg.corrupt and cfg.corrupt != "flip-theta":
        element = corruptions.corrupt(element, cfg.corrupt)
    return element


def _sign_rule(cfg: RunConfig):
    return flat_sign if cfg.corrupt == "flip-theta" else theta


def _random_probe_polys(seed: int, count: int, max_degree: int) -> list[Polynomial]:
    rng = random.Random(seed)
    probes = []
    for _ in range(count):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(max_degree + 1)]
        probes.append(Polynomial(coeffs))
    return probes


def run_verify_suite(cfg: RunConfig) -> SuiteResult:
    checks = [c for c in CHECK_ORDER if c in cfg.checks]
    reports: list[VerificationReport] = []
    timings: list[tuple[str, float]] = []

    def record(label: str, report: VerificationReport, started: float) -> None:
        reports.append(report)
        timings.append((label, time.perf_counter() - started))

    for m in cfg.m_values:
        for n in degrees_for(m, cfg.n_spec):
            element = _build(cfg, m, n)
            probe_degree = n + 5 if cfg.probe_degree is None \
                else cfg.probe_degree
            nu_values = cfg.nu_values if cfg.nu_values is not None \
                else list(range(cfg.dimension + 1))
            for check in checks:
                label = f"{check}[m={m},n={n}]"
                started = time.perf_counter()
                if check == "unisolvence":
                    record(label, element1d.verify_unisolvence(element), started)
                elif check == "lemma-hypotheses":
                    record(label, element1d.verify_lemma_hypotheses(
                        element, probe_degree), started)
                elif check == "commutation":
                    probes = element1d.monomial_probes(probe_degree)
                    if cfg.random_probes:
                        probes += _random_probe_polys(cfg.seed, cfg.random_probes,
                                                      probe_degree)
                    record(label, element1d.verify_commutation(element, probes),
                           started)
                elif check == "continuity-demo":
                    record(label, element1d.two_cell_continuity_demo(
                        element, named_function("sin"), cfg.tolerance,
                        cfg.quadrature_order), started)
                elif check == "dimensions":
                    record(f"{check}[N={cfg.dimension},m={m},n={n}]",
                           tensor.verify_dimensions(cfg.dimension, element),
                           started)
                elif check == "dd-zero":
                    record(f"{check}[N={cfg.dimension},m={m},n={n}]",
                           tensor.verify_dd_zero(cfg.dimension, element,
                                                 sign_rule=_sign_rule(cfg)),
                           started)
                elif check == "tensor-commutation":
                    for nu in nu_values:
                        started = time.perf_counter()
                        degrees = range(min(n + 3, probe_degree) + 1) \
                            if cfg.dimension <= 2 else \
                            sorted({0, 2, n, n + 3})
                        probes = tensor.rank_one_monomial_probes(
                            cfg.dimension, nu, degrees)
                        record(f"{check}[N={cfg.dimension},nu={nu},m={m},n={n}]",
                               tensor.verify_tensor_commutation(
                                   cfg.dimension, nu, probes, element,
                                   sign_rule=_sign_rule(cfg)),
                               started)
    return SuiteResult(reports=reports, timings=timings)


def cmd_verify(cfg: RunConfig) -> int:
    suite = run_verify_suite(cfg)
    if cfg.fmt == "json":
        emit(serialize.json_text(suite.to_json()), cfg.output)
    else:
        lines = []
        for report in suite.reports:
            status = "PASS" if report.passed else "FAIL"
            params = ",".join(f"{k}={v}" for k, v in report.parameters.items())
            line = f"{status} {report.name} ({params})"
            if not report.passed:
                line += f" witness[{len(report.witness)}]: {report.witness[0]}"
            lines.append(line)
        total = len(suite.reports)
        good = sum(1 for r in suite.reports if r.passed)
        lines.append(f"{good}/{total} checks passed")
        emit("\n".join(lines) + "\n", cfg.output)
    if cfg.timings is not None:
        text = "".join(f"{label}\t{seconds:.6f}\n"
                       for label, seconds in suite.timings)
        if cfg.timings == "-":
            sys.stderr.write(text)
        else:
            emit(text, cfg.timings)
    return suite.exit_status


def cmd_element(cfg: RunConfig, emit_what: str, samples: int, form: int) -> int:
    m, n = cfg.m_values[0], degrees_for(cfg.m_values[0], cfg.n_spec)[0]
    element = _build(cfg, m, n)
    if emit_what == "basis-samples":
        emit(serialize.basis_samples_csv(element, form, samples), cfg.output)
        return 0
    data = serialize.element_json(element)
    if emit_what == "matrix":
        data = {"m": m, "n": n, "M0": data["M0"], "M1": data["M1"]}
    elif emit_what == "basis":
        data = {"m": m, "n": n, "basis0": data["basis0"],
                "basis1": data["basis1"]}
    elif emit_what == "functionals":
        data = {"m": m, "n": n,
                "functionals0": data["functionals0"],
                "functionals1": data["functionals1"]}
    emit(serialize.json_text(data), cfg.output)
    return 0


def cmd_tensor(cfg: RunConfig, emit_what: str, chi, index, samples: int) -> int:
    m, n = cfg.m_values[0], degrees_for(cfg.m_values[0], cfg.n_spec)[0]
    element = _build(cfg, m, n)
    if emit_what == "basis-samples":
        emit(serialize.tensor_basis_samples_csv(element, chi, index, samples),
             cfg.output)
        return 0
    nu_values = cfg.nu_values if cfg.nu_values is not None else None
    emit(serialize.json_text(
        serialize.tensor_tables_json(cfg.dimension, element, nu_values)),
        cfg.output)
    return 0


def cmd_interp(cfg: RunConfig, input_text: str, samples: int,
               two_cell: bool) -> int:
    m, n = cfg.m_values[0], degrees_for(cfg.m_values[0], cfg.n_spec)[0]
    element = element1d.build_element(m, n)
    u = parse_input_function(input_text)
    order = element.default_quadrature_order \
        if cfg.quadrature_order is None else cfg.quadrature_order

    if two_cell:
        report = element1d.two_cell_continuity_demo(
            element, u, cfg.tolerance, cfg.quadrature_order)
        left = element1d.cell_interpolant(element, u, 0.0, 1.0, order)
        right = element1d.cell_interpolant(element, u, 1.0, 2.0, order)
        rows = []
        for i in range(samples):
            x = 2.0 * i / (samples - 1) if samples > 1 else 0.0
            interp = left(x) if x <= 1.0 else right(x - 1.0)
            rows.append({"x": x, "u": u.value(x), "interp": interp})
        text = serialize.interp_csv(rows, ["x", "u", "interp"])
        mismatches = report.details["junction_mismatch"]
        text += "".join(
            f"# junction mismatch order {s}: {serialize.float_str(gap)}\n"
            for s, gap in enumerate(mismatches))
        emit(text, cfg.output)
        return 0 if report.passed else 1

    i0u = element1d.interpolate_smooth(element, 0, u, order)
    d_i0u = i0u.deriv(1)
    i1du = element1d.interpolate_smooth(element, 1, u.differentiated(), order)
    rows = []
    for i in range(samples):
        x = i / (samples - 1) if samples > 1 else 0.0
        rows.append({
            "x": x,
            "u": u.value(x),
            "I0u": i0u(x),
            "dI0u": d_i0u(x),
            "I1du": i1du(x),
            "residual": d_i0u(x) - i1du(x),
        })
    emit(serialize.interp_csv(
        rows, ["x", "u", "I0u", "dI0u", "I1du", "residual"]), cfg.output)
    worst = max(abs(row["residual"]) for row in rows)
    return 0 if worst <= cfg.tolerance else 1


def _int_at_least(low: int):
    """argparse type for integers >= low; argparse rejects the rest."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derham",
        description="Exact C^m finite element cochain complexes on [0,1]^N: "
                    "construction, interpolation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid: bool):
        p.add_argument("--m", default="0",
                       help="continuity order; value, range 0..3, or list")
        p.add_argument("--n", default="auto",
                       help="polynomial degree; value, range, list, or "
                            "auto+K for 2m+1..2m+1+K"
                       + (" (grids allowed)" if grid else ""))
        p.add_argument("--output", help="output file (default: stdout); "
                       f"relative paths resolve under ${OUTDIR_ENV}")
        p.add_argument("--quadrature-order", type=int, default=None,
                       help="Gauss points for smooth inputs "
                            "(default 2(n+2))")

    p_element = sub.add_parser("element", help="emit one element's tables")
    common(p_element, grid=False)
    p_element.add_argument("--emit", default="element",
                           choices=["element", "matrix", "basis",
                                    "functionals", "basis-samples"])
    p_element.add_argument("--form", type=int, default=0, choices=[0, 1],
                           help="form degree for basis-samples")
    p_element.add_argument("--samples", type=_int_at_least(1), default=101)
    p_element.add_argument("--corrupt", choices=corruptions.CORRUPTION_NAMES)

    p_verify = sub.add_parser("verify", help="run verifier suites on a grid")
    common(p_verify, grid=True)
    p_verify.add_argument("--checks", default=",".join(CHECK_ORDER),
                          help="comma list from: " + ", ".join(CHECK_ORDER))
    p_verify.add_argument("--N", type=int, default=2, dest="dimension",
                          help="tensorization order for tensor checks")
    p_verify.add_argument("--nu", default=None,
                          help="form degrees for tensor-commutation "
                               "(default: all)")
    p_verify.add_argument("--corrupt", choices=corruptions.CORRUPTION_NAMES,
                          help="negative-control fixture")
    p_verify.add_argument("--probe-degree", type=_int_at_least(0),
                          default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--random-probes", type=_int_at_least(0), default=0,
                          help="extra seeded random probes for commutation")
    p_verify.add_argument("--tolerance", type=float, default=1e-12)
    p_verify.add_argument("--format", default="json", dest="fmt",
                          choices=["json", "text"])
    p_verify.add_argument("--timings", metavar="PATH|-",
                          help="write per-check wall times as "
                               "label<TAB>seconds lines to PATH, or to "
                               "stderr for -; never part of the report")

    p_tensor = sub.add_parser("tensor", help="emit tensor space tables")
    common(p_tensor, grid=False)
    p_tensor.add_argument("--N", type=int, default=2, dest="dimension")
    p_tensor.add_argument("--nu", default=None)
    p_tensor.add_argument("--emit", default="tables",
                          choices=["tables", "basis-samples"])
    p_tensor.add_argument("--chi", default="0,0",
                          help="characteristic vector for basis-samples")
    p_tensor.add_argument("--index", default="1,1",
                          help="1-based basis indices for basis-samples")
    p_tensor.add_argument("--samples", type=_int_at_least(1), default=33)

    p_interp = sub.add_parser("interp",
                              help="interpolate a function and emit samples")
    common(p_interp, grid=False)
    p_interp.add_argument("--input", required=True,
                          help="sin, cos, exp, or a polynomial literal "
                               "like 3/2x^2-x+1")
    p_interp.add_argument("--samples", type=_int_at_least(1), default=101)
    p_interp.add_argument("--two-cell", action="store_true",
                          help="run the two-cell continuity demo on [0,2]")
    p_interp.add_argument("--tolerance", type=float, default=1e-12)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(command=args.command)
        cfg.m_values = parse_int_list(args.m)
        cfg.n_spec = args.n
        cfg.output = args.output
        cfg.quadrature_order = args.quadrature_order
        cfg.corrupt = getattr(args, "corrupt", None)
        cfg.tolerance = getattr(args, "tolerance", 1e-12)
        if hasattr(args, "dimension"):
            cfg.dimension = args.dimension
        if getattr(args, "nu", None) is not None:
            cfg.nu_values = parse_int_list(args.nu)

        if args.command == "element":
            return cmd_element(cfg, args.emit, args.samples, args.form)
        if args.command == "verify":
            cfg.checks = [c.strip() for c in args.checks.split(",") if c.strip()]
            unknown = set(cfg.checks) - set(CHECK_ORDER)
            if unknown:
                raise ValueError(f"unknown checks: {sorted(unknown)}")
            if not cfg.checks:
                raise ValueError("verify needs at least one check")
            cfg.fmt = args.fmt
            cfg.probe_degree = args.probe_degree
            cfg.seed = args.seed
            cfg.random_probes = args.random_probes
            cfg.timings = args.timings
            return cmd_verify(cfg)
        if args.command == "tensor":
            chi = tuple(parse_int_list(args.chi))
            index = tuple(parse_int_list(args.index))
            return cmd_tensor(cfg, args.emit, chi, index, args.samples)
        if args.command == "interp":
            return cmd_interp(cfg, args.input, args.samples, args.two_cell)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, ZeroDivisionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

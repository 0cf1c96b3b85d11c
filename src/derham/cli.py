"""Command-line front end, four subcommands:

* ``element`` — one (m, n) element's tables (JSON) or basis samples (CSV).
* ``verify``  — the selected rows of the check table ``CHECKS`` over an
  (m, n) grid, optionally tensorized to N dimensions and corrupted
  (negative controls); exit status 0 iff everything passes.
* ``tensor``  — the N-dimensional space tables or 2D basis samples.
* ``interp``  — samples of a named function (sin, cos, exp) or a
  polynomial literal like ``3/2x^2-x+1``, its interpolants and their
  commutation residual, or the two-cell continuity demo.

Artifacts are deterministic: rationals are exact "num/den" strings,
floats carry 17 significant digits, and no timings or timestamps are
embedded.  Relative ``--output`` paths resolve under ``$DERHAM_OUTDIR``
when that variable is set.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import random
import re
import sys
import time
from fractions import Fraction

from . import corruptions, element1d, serialize, tensor
from .polycore import Polynomial
from .report import SuiteResult
from .smooth import SmoothFunction1D, named_function

OUTDIR_ENV = "DERHAM_OUTDIR"


def _split_items(text: str) -> list[str]:
    """The stripped items of a comma list; a blank item is never dropped
    but rejected, quoting ``text``."""
    items = [item.strip() for item in text.split(",")]
    if not all(items):
        empty = "empty item in" if any(items) else "empty"
        raise ValueError(f"{empty} list {text!r}")
    return items


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
        return [int(part) for part in _split_items(text)]
    return [int(text)]


def _distinct(flag: str, values: list) -> list:
    """``values``; a repeat would run (or emit) the same thing twice."""
    repeated = [value for i, value in enumerate(values) if value in values[:i]]
    if repeated:
        raise ValueError(f"--{flag} repeats {repeated[0]}")
    return values


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


def _build(m: int, n: int, corrupt: str | None):
    element = element1d.build_element(m, n)
    return corruptions.corrupt(element, corrupt) if corrupt else element


def _one_element(args, corrupt: str | None = None):
    """The element of a command that takes exactly one (m, n)."""
    if len(args.grid) != 1:
        raise ValueError(f"{args.command} takes one (m, n); --m {args.m} "
                         f"--n {args.n} gives {len(args.grid)}")
    (m, n), = args.grid
    return _build(m, n, corrupt)


def _random_probe_polys(seed: int, count: int, max_degree: int) -> list[Polynomial]:
    rng = random.Random(seed)
    return [Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(max_degree + 1)]) for _ in range(count)]


def _probe_degree(cfg, n: int) -> int:
    return n + 5 if cfg.probe_degree is None else cfg.probe_degree


def _commutation(cfg, element, nu):
    degree = _probe_degree(cfg, element.n)
    probes = element1d.monomial_probes(degree)
    if cfg.random_probes:
        probes += _random_probe_polys(cfg.seed, cfg.random_probes, degree)
    return element1d.verify_commutation(element, probes)


def _tensor_commutation(cfg, element, nu):
    n = element.n
    cap = min(n + 3, _probe_degree(cfg, n))
    degrees = range(cap + 1) if cfg.dimension <= 2 else \
        [a for a in sorted({0, 2, n, n + 3}) if a <= cap]
    return tensor.verify_monomial_commutation(
        cfg.dimension, nu, degrees, element,
        sign_rule=corruptions.sign_rule(cfg.corrupt))


# Label scopes: the parameters that name one report (and one timing).
# A scope with "nu" runs its check once per form degree.
_1D, _ND, _PER_NU = ("m", "n"), ("N", "m", "n"), ("N", "nu", "m", "n")

# check name -> (label scope, verifier call(cfg, element, nu)), in run order
CHECKS = {
    "unisolvence":
        (_1D, lambda cfg, e, nu: element1d.verify_unisolvence(e)),
    "lemma-hypotheses":
        (_1D, lambda cfg, e, nu: element1d.verify_lemma_hypotheses(
            e, _probe_degree(cfg, e.n))),
    "commutation": (_1D, _commutation),
    "dimensions":
        (_ND, lambda cfg, e, nu: tensor.verify_dimensions(cfg.dimension, e)),
    "dd-zero":
        (_ND, lambda cfg, e, nu: tensor.verify_dd_zero(
            cfg.dimension, e, sign_rule=corruptions.sign_rule(cfg.corrupt))),
    "tensor-commutation": (_PER_NU, _tensor_commutation),
    "kron-structure":
        (_PER_NU, lambda cfg, e, nu: tensor.verify_kron_structure(
            cfg.dimension, nu, e)),
    "continuity-demo":
        (_1D, lambda cfg, e, nu: element1d.two_cell_continuity_demo(
            e, named_function("sin"), cfg.tolerance, cfg.quadrature_order)),
}
# the default --checks: every row but the opt-in kron-structure
CHECK_ORDER = tuple(name for name in CHECKS if name != "kron-structure")


def run_verify_suite(cfg) -> SuiteResult:
    """Run the selected checks on every (m, n) of ``cfg.grid``.

    ``cfg`` is the parsed ``verify`` namespace.  Each report gets one
    timing, labelled ``name[scope]``, e.g. ``dd-zero[N=2,m=1,n=3]``.
    """
    rows = [(name, *row) for name, row in CHECKS.items()
            if name in cfg.checks]
    nu_values = cfg.nu if cfg.nu is not None else range(cfg.dimension + 1)
    suite = SuiteResult()
    for m, n in cfg.grid:
        element = _build(m, n, cfg.corrupt)
        for name, scope, check in rows:
            for nu in nu_values if "nu" in scope else (None,):
                values = {"N": cfg.dimension, "nu": nu, "m": m, "n": n}
                params = ",".join(f"{k}={values[k]}" for k in scope)
                started = time.perf_counter()
                suite.reports.append(check(cfg, element, nu))
                suite.timings.append((f"{name}[{params}]",
                                      time.perf_counter() - started))
    return suite


def cmd_verify(args) -> int:
    args.checks = _distinct("checks", _split_items(args.checks))
    unknown = set(args.checks) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    suite = run_verify_suite(args)
    if args.fmt == "json":
        emit(serialize.json_text(suite.to_json()), args.output)
    else:
        lines = []
        for report in suite.reports:
            status = "PASS" if report.passed else "FAIL"
            params = ",".join(f"{k}={v}" for k, v in report.parameters.items())
            line = f"{status} {report.name} ({params})"
            if not report.passed:
                line += f" witness[{len(report.witness)}]: {report.witness[0]}"
            lines.append(line)
        good = sum(report.passed for report in suite.reports)
        lines.append(f"{good}/{len(suite.reports)} checks passed")
        emit("\n".join(lines) + "\n", args.output)
    if args.timings is not None:
        text = "".join(f"{label}\t{seconds:.6f}\n"
                       for label, seconds in suite.timings)
        if args.timings == "-":
            sys.stderr.write(text)
        else:
            emit(text, args.timings)
    return suite.exit_status


# element --emit -> the element_json fields it keeps besides m and n
# (absent: all of them)
ELEMENT_FIELDS = {"matrix": ("M0", "M1"), "basis": ("basis0", "basis1"),
                  "functionals": ("functionals0", "functionals1")}


def cmd_element(args) -> int:
    element = _one_element(args, args.corrupt)
    if args.emit == "basis-samples":
        emit(serialize.basis_samples_csv(element, args.form, args.samples),
             args.output)
        return 0
    data = serialize.element_json(element)
    if args.emit in ELEMENT_FIELDS:
        data = {"m": element.m, "n": element.n,
                **{key: data[key] for key in ELEMENT_FIELDS[args.emit]}}
    emit(serialize.json_text(data), args.output)
    return 0


def cmd_tensor(args) -> int:
    given = [f"--{flag}" for flag in ("chi", "index", "samples")
             if getattr(args, flag) is not None]
    if given and args.emit != "basis-samples":
        raise ValueError(f"{', '.join(given)}: only --emit basis-samples "
                         "reads them")
    element = _one_element(args)
    if args.emit == "basis-samples":
        chi = parse_int_list("0,0" if args.chi is None else args.chi)
        index = parse_int_list("1,1" if args.index is None else args.index)
        samples = 33 if args.samples is None else args.samples
        emit(serialize.tensor_basis_samples_csv(
            element, tuple(chi), tuple(index), samples), args.output)
        return 0
    emit(serialize.json_text(
        serialize.tensor_tables_json(args.dimension, element, args.nu)),
        args.output)
    return 0


def cmd_interp(args) -> int:
    element = _one_element(args)
    u = parse_input_function(args.input)
    order, samples = args.quadrature_order, args.samples
    grid = [i / (samples - 1) if samples > 1 else 0.0 for i in range(samples)]

    if args.two_cell:
        cells = [element1d.cell_interpolant(element, u, a, a + 1, order)
                 for a in (0.0, 1.0)]
        report = element1d.two_cell_continuity_demo(
            element, u, args.tolerance, cells=cells)
        left, right = map(element1d.rounded, cells)
        rows = [{"x": x, "u": u.value(x),
                 "interp": left(x) if x <= 1.0 else right(x - 1.0)}
                for x in (2.0 * g for g in grid)]
        text = serialize.interp_csv(rows, ["x", "u", "interp"])
        mismatches = report.details["junction_mismatch"]
        text += "".join(
            f"# junction mismatch order {s}: {serialize.float_str(gap)}\n"
            for s, gap in enumerate(mismatches))
        emit(text, args.output)
        return 0 if report.passed else 1

    i0u = element1d.interpolate_smooth(element, 0, u, order)
    d_i0u = i0u.deriv(1)
    i1du = element1d.interpolate_smooth(element, 1, u.differentiated(), order)
    rows = [{"x": x, "u": u.value(x), "I0u": i0u(x), "dI0u": d_i0u(x),
             "I1du": i1du(x), "residual": d_i0u(x) - i1du(x)} for x in grid]
    emit(serialize.interp_csv(
        rows, ["x", "u", "I0u", "dI0u", "I1du", "residual"]), args.output)
    worst = max(abs(row["residual"]) for row in rows)
    return 0 if worst <= args.tolerance else 1


def _int_at_least(low: int):
    """argparse type for integers >= low; argparse rejects the rest."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _tolerance(text: str) -> float:
    """argparse type for finite tolerances >= 0; a NaN or infinite one
    would let every comparison pass."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


_tolerance.__name__ = "float"  # argparse names the type in its messages


@functools.cache  # parse_args builds a fresh namespace on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derham",
        description="Exact C^m finite element cochain complexes on [0,1]^N: "
                    "construction, interpolation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, grid: bool, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(run=run)
        p.add_argument("--m", default="0",
                       help="continuity order; value, range 0..3, or list")
        p.add_argument("--n", default="auto",
                       help="polynomial degree; value, range, list, or "
                            "auto+K for 2m+1..2m+1+K"
                       + (" (grids allowed)" if grid else ""))
        p.add_argument("--output", help="output file (default: stdout); "
                       f"relative paths resolve under ${OUTDIR_ENV}")
        return p

    def quadrature_order(p):
        p.add_argument("--quadrature-order", type=_int_at_least(1),
                       default=None,
                       help="Gauss points for smooth inputs "
                            "(default 2(n+2))")

    p_element = command("element", cmd_element, grid=False,
                        help="emit one element's tables")
    p_element.add_argument("--emit", default="element",
                           choices=["element", *ELEMENT_FIELDS,
                                    "basis-samples"])
    p_element.add_argument("--form", type=int, default=0, choices=[0, 1],
                           help="form degree for basis-samples")
    p_element.add_argument("--samples", type=_int_at_least(1), default=101)
    p_element.add_argument("--corrupt",
                           choices=tuple(corruptions.ELEMENT_CORRUPTIONS))

    p_verify = command("verify", cmd_verify, grid=True,
                       help="run verifier suites on a grid")
    quadrature_order(p_verify)
    p_verify.add_argument("--checks", default=",".join(CHECK_ORDER),
                          help="comma list from: " + ", ".join(CHECKS)
                          + " (default: all but kron-structure)")
    p_verify.add_argument("--N", type=_int_at_least(1), default=2,
                          dest="dimension",
                          help="tensorization order for tensor checks")
    p_verify.add_argument("--nu", default=None,
                          help="form degrees for tensor-commutation and "
                               "kron-structure (default: all)")
    p_verify.add_argument("--corrupt", choices=corruptions.CORRUPTION_NAMES,
                          help="negative-control fixture")
    p_verify.add_argument("--probe-degree", type=_int_at_least(0),
                          default=None,
                          help="largest monomial probe degree (default "
                               "n+5); tensor-commutation caps it at n+3 "
                               "and for N >= 3 keeps only the degrees "
                               "0, 2, n, n+3 up to that cap")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--random-probes", type=_int_at_least(0), default=0,
                          help="extra seeded random probes for commutation")
    p_verify.add_argument("--tolerance", type=_tolerance, default=1e-12)
    p_verify.add_argument("--format", default="json", dest="fmt",
                          choices=["json", "text"])
    p_verify.add_argument("--timings", metavar="PATH|-",
                          help="write per-check wall times as "
                               "label<TAB>seconds lines to PATH, or to "
                               "stderr for -; never part of the report")

    p_tensor = command("tensor", cmd_tensor, grid=False,
                       help="emit tensor space tables")
    p_tensor.add_argument("--N", type=_int_at_least(1), default=2,
                          dest="dimension")
    p_tensor.add_argument("--nu", default=None)
    p_tensor.add_argument("--emit", default="tables",
                          choices=["tables", "basis-samples"])
    p_tensor.add_argument("--chi", help="characteristic vector for "
                          "basis-samples (default 0,0)")
    p_tensor.add_argument("--index", help="1-based basis indices for "
                          "basis-samples (default 1,1)")
    p_tensor.add_argument("--samples", type=_int_at_least(1),
                          help="samples per axis for basis-samples "
                               "(default 33)")

    p_interp = command("interp", cmd_interp, grid=False,
                       help="interpolate a function and emit samples")
    quadrature_order(p_interp)
    p_interp.add_argument("--input", required=True,
                          help="sin, cos, exp, or a polynomial literal "
                               "like 3/2x^2-x+1")
    p_interp.add_argument("--samples", type=_int_at_least(1), default=101)
    p_interp.add_argument("--two-cell", action="store_true",
                          help="run the two-cell continuity demo on [0,2]")
    p_interp.add_argument("--tolerance", type=_tolerance, default=1e-12)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.grid = [(m, n) for m in _distinct("m", parse_int_list(args.m))
                     for n in _distinct("n", degrees_for(m, args.n))]
        if getattr(args, "nu", None) is not None:
            args.nu = _distinct("nu", parse_int_list(args.nu))
            if not all(0 <= nu <= args.dimension for nu in args.nu):
                raise ValueError(f"--nu {args.nu} out of range "
                                 f"0..{args.dimension}")
        return args.run(args)
    except (ValueError, ZeroDivisionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

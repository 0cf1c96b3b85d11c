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


def _split_items(text: str, flag: str) -> list[str]:
    """The stripped items of the comma list ``text`` of ``--flag``; a
    blank item is never dropped but rejected, quoting ``text``."""
    items = [item.strip() for item in text.split(",")]
    if not all(items):
        empty = "empty item in list" if any(items) else "empty list"
        raise ValueError(f"--{flag} {text!r}: {empty}")
    return items


def parse_int_list(text: str, flag: str) -> list[int]:
    """Accepts "3", "0..3", or "1,3,5" as the value of ``--flag``; an item
    that is no int is rejected, naming the flag and quoting the item and
    the value."""
    text = text.strip()

    def number(item: str) -> int:
        try:
            return int(item)
        except ValueError:
            raise ValueError(f"--{flag} {text!r}: {item.strip()!r} is not "
                             "an integer") from None

    if ".." in text:
        lo, hi = map(number, text.split("..", 1))
        if hi < lo:
            raise ValueError(f"--{flag} {text!r}: empty range")
        return list(range(lo, hi + 1))
    if "," in text:
        return [number(part) for part in _split_items(text, flag)]
    return [number(text)]


def _distinct(flag: str, text: str, values: list,
              bad=lambda value: None) -> list:
    """``values``, read from the value ``text`` of ``--flag``; the first
    repeat (it would run or emit the same thing twice) or value for which
    ``bad`` gives a reason (a message; a false value is none) is
    rejected, quoting ``text``."""
    for i, value in enumerate(values):
        reason = f"repeats {value}" if value in values[:i] else bad(value)
        if reason:
            raise ValueError(f"--{flag} {text!r}: {reason}")
    return values


def degrees_for(m: int, n_spec: str) -> list[int]:
    """Resolve the --n specification for one m.

    "auto+K" means n = 2m+1 .. 2m+1+K, keeping the n >= 2m+1 constraint
    implicit; explicit values are validated against it.
    """
    n_spec = n_spec.strip()
    if n_spec.startswith("auto"):
        match = re.fullmatch(r"auto(?:\+(\d+))?", n_spec)
        if not match:
            raise ValueError(f"--n {n_spec!r}: bad degree spec; expected "
                             "auto, auto+K, a value, or a range")
        base = 2 * m + 1
        return list(range(base, base + int(match.group(1) or 0) + 1))
    return _distinct("n", n_spec, parse_int_list(n_spec, "n"), lambda n: (
        n < 2 * m + 1 and f"degree n={n} too low for m={m}; "
        f"need n >= {2 * m + 1}"))


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
        if (match.group("coeff") or "").rstrip("0").endswith("/"):  # n/0..0
            raise ZeroDivisionError(f"zero denominator in term {chunk!r}")
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
    except ZeroDivisionError as error:
        raise ValueError(f"--input {text!r}: {error}") from None
    except ValueError:
        raise ValueError(f"unknown function {text!r}: not a built-in name "
                         "(sin, cos, exp) and not a polynomial literal")
    return SmoothFunction1D.from_polynomial(p, name=text)


def emit(text: str, path: str | None, flag: str = "--output") -> None:
    """``text`` to stdout, or to the file ``path``, the value of ``flag``."""
    if path is None:
        sys.stdout.write(text)
        return
    # under $DERHAM_OUTDIR when it is set; join keeps an absolute path
    full = os.path.join(os.environ.get(OUTDIR_ENV, ""), path)
    try:
        os.makedirs(os.path.dirname(full) or ".", exist_ok=True)
        with open(full, "w") as handle:
            handle.write(text)
    except OSError as error:
        raise ValueError(f"{flag} {path!r}: {error.strerror}") from None


def _build(m: int, n: int, corrupt: str | None):
    element = element1d.build_element(m, n)
    if not corrupt:
        return element
    try:
        return corruptions.corrupt(element, corrupt)
    except ValueError as error:  # too small an element to corrupt
        raise ValueError(f"--corrupt {corrupt!r}: {error} "
                         f"(m={m}, n={n})") from None


def _one_element(args, corrupt: str | None = None):
    """The element of a command that takes exactly one (m, n)."""
    if len(args.grid) != 1:
        raise ValueError(f"{args.command} takes one (m, n); --m {args.m} "
                         f"--n {args.n} gives {len(args.grid)}")
    (m, n), = args.grid
    return _build(m, n, corrupt)


# every coefficient a random probe can draw, each Fraction built once
_RATIOS = {(a, b): Fraction(a, b) for a in range(-9, 10) for b in range(1, 10)}


def _random_probe_polys(seed: int, count: int, max_degree: int) -> list[Polynomial]:
    rng = random.Random(seed)
    return [Polynomial([_RATIOS[rng.randint(-9, 9), rng.randint(1, 9)]
                        for _ in range(max_degree + 1)]) for _ in range(count)]


def _commutation(cfg, element, nu):
    degree = element.probe_degree(cfg.probe_degree)
    probes = element1d.monomial_probes(degree) + _random_probe_polys(
        cfg.seed, cfg.random_probes, degree)
    return element1d.verify_commutation(element, probes)


# Label scopes: the parameters that name one report (and one timing).
# A scope with "nu" runs its check once per form degree.
_1D, _ND, _PER_NU = ("m", "n"), ("N", "m", "n"), ("N", "nu", "m", "n")

# check name -> (label scope, verifier call(cfg, element, nu)), in run order
CHECKS = {
    "unisolvence":
        (_1D, lambda cfg, e, nu: element1d.verify_unisolvence(e)),
    "lemma-hypotheses":
        (_1D, lambda cfg, e, nu: element1d.verify_lemma_hypotheses(
            e, cfg.probe_degree)),
    "commutation": (_1D, _commutation),
    "dimensions":
        (_ND, lambda cfg, e, nu: tensor.verify_dimensions(cfg.dimension, e)),
    "dd-zero":
        (_ND, lambda cfg, e, nu: tensor.verify_dd_zero(
            cfg.dimension, e, sign_rule=corruptions.sign_rule(cfg.corrupt))),
    "tensor-commutation":  # probe degrees 0..min(n+3, --probe-degree)
        (_PER_NU, lambda cfg, e, nu: tensor.verify_monomial_commutation(
            cfg.dimension, nu, min(e.n + 3, e.probe_degree(cfg.probe_degree)),
            e, sign_rule=corruptions.sign_rule(cfg.corrupt))),
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
    suite = SuiteResult()
    for m, n in cfg.grid:
        element = _build(m, n, cfg.corrupt)
        for name, scope, check in rows:
            for nu in cfg.nu if "nu" in scope else (None,):
                values = {"N": cfg.dimension, "nu": nu, "m": m, "n": n}
                params = ",".join(f"{k}={values[k]}" for k in scope)
                started = time.perf_counter()
                suite.reports.append(check(cfg, element, nu))
                suite.timings.append((f"{name}[{params}]",
                                      time.perf_counter() - started))
    return suite


def _form_degrees(text: str | None, dimension: int) -> list[int]:
    """The distinct form degrees of ``--nu text``, each in 0..dimension;
    all of them where the flag is left out."""
    if text is None:
        return list(range(dimension + 1))
    return _distinct("nu", text, parse_int_list(text, "nu"), lambda nu: (
        not 0 <= nu <= dimension and f"{nu} out of range 0..{dimension}"))


def _resolve(args, flags: dict, selected) -> set[str]:
    """Fills each flag of the table ``flags`` that ``args`` left out
    (None) with its default, and rejects a flag given, even at its
    default, that no reader in ``selected`` reads; returns the flags that
    came with a value."""
    given, unread, selected = set(), [], set(selected)
    for flag, (keywords, default, readers) in flags.items():
        dest = keywords.get("dest", flag[2:].replace("-", "_"))
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        else:
            given.add(flag)
            if readers and selected.isdisjoint(readers):
                unread.append(flag)
    if unread:  # named in the order of their names
        unread.sort()
        readers = ", ".join(flags[unread[0]][2])
        if args.command == "verify":  # the first, with the checks that read it
            raise ValueError(f"{unread[0]}: only {readers} read it")
        raise ValueError(f"{', '.join(unread)}: only --emit {readers} "
                         "reads them")
    return given


def cmd_verify(args) -> int:
    """Run verifier suites on a grid."""
    nu = _form_degrees(args.nu, args.dimension)  # named before an unread --nu
    text, args.checks = args.checks, _distinct(
        "checks", args.checks, _split_items(args.checks, "checks"))
    unknown = set(args.checks) - set(CHECKS)
    if unknown:
        raise ValueError(f"--checks {text!r}: unknown checks "
                         f"{sorted(unknown)}")
    given = _resolve(args, VERIFY_FLAGS, args.checks)
    args.nu = nu
    if "--seed" in given and not args.random_probes:
        raise ValueError(f"--seed {args.seed}: no random probes to draw")
    if "--probe-degree" in given and "lemma-hypotheses" in args.checks:
        above = [n for _, n in args.grid if n > args.probe_degree]
        if above:
            raise ValueError(f"--probe-degree {args.probe_degree}: below "
                             f"n={min(above)} in the grid; lemma-hypotheses "
                             "needs at least n")
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
                count = len(report.witness)
                if "failures" in report.details:  # past the witness cap
                    count = f"{report.details['failures']}, first {count} " \
                        "listed"
                line += f" witness[{count}]: {report.witness[0]}"
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
            emit(text, args.timings, "--timings")
    return suite.exit_status


# element --emit -> the element_json fields it keeps besides m and n
# (absent: all of them)
ELEMENT_FIELDS = {"matrix": ("M0", "M1"), "basis": ("basis0", "basis1"),
                  "functionals": ("functionals0", "functionals1")}


def cmd_element(args) -> int:
    """Emit one element's tables."""
    _resolve(args, ELEMENT_FLAGS, (args.emit,))
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
    """Emit tensor space tables."""
    _resolve(args, TENSOR_FLAGS, (args.emit,))
    nu = _form_degrees(args.nu, args.dimension)
    element = _one_element(args)
    if args.emit == "basis-samples":
        chi, index = (tuple(parse_int_list(getattr(args, flag), flag))
                      for flag in ("chi", "index"))
        try:
            text = serialize.tensor_basis_samples_csv(element, chi, index,
                                                      args.samples)
        except ValueError as error:  # the sampler checks chi, then index
            flag = "chi" if len(chi) != 2 or set(chi) - {0, 1} else "index"
            raise ValueError(f"--{flag} {getattr(args, flag)!r}: "
                             f"{error}") from None
        emit(text, args.output)
        return 0
    emit(serialize.json_text(
        serialize.tensor_tables_json(args.dimension, element, nu)),
        args.output)
    return 0


def cmd_interp(args) -> int:
    """Interpolate a function and emit samples."""
    element = _one_element(args)
    u = parse_input_function(args.input)
    order, grid = args.quadrature_order, serialize.uniform_grid(args.samples)

    if args.two_cell:
        cells = [element1d.cell_interpolant(element, u, a, a + 1, order)
                 for a in (0.0, 1.0)]
        report = element1d.two_cell_continuity_demo(
            element, u, args.tolerance, cells=cells)
        left, right = map(element1d.rounded, cells)
        xs = [2.0 * g for g in grid]
        pairs = zip(left(xs).tolist(), right([x - 1.0 for x in xs]).tolist())
        text = serialize.csv_text(["x", "u", "interp"], (
            [x, u.value(x), a if x <= 1.0 else b]
            for x, (a, b) in zip(xs, pairs)))
        mismatches = report.details["junction_mismatch"]
        text += "".join(
            f"# junction mismatch order {s}: {serialize.float_str(gap)}\n"
            for s, gap in enumerate(mismatches))
        emit(text, args.output)
        return 0 if report.passed else 1

    i0u = element1d.interpolate_smooth(element, 0, u, order)
    i1du = element1d.interpolate_smooth(element, 1, u.differentiated(), order)
    values = zip(*(p(grid).tolist() for p in (i0u, i0u.deriv(1), i1du)))
    rows = [[x, u.value(x), a, b, c, b - c]
            for x, (a, b, c) in zip(grid, values)]
    emit(serialize.csv_text(["x", "u", "I0u", "dI0u", "I1du", "residual"],
                            rows), args.output)
    worst = max(abs(row[-1]) for row in rows)
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


# A command's flag table maps each flag to (argparse keywords, default,
# readers).  Readers are CHECKS rows (verify) or --emit values (element,
# tensor): a flag given, even at its default, while no selected reader
# reads it exits 2, and one with no readers is always read.  A None
# default is no file or fixture, every form degree (--nu), or the
# library's pick per element.
def _flag(default=None, readers=(), **keywords) -> tuple:
    return keywords, default, readers


_COMMON = {
    "--m": _flag("0", help="continuity order; value, range 0..3, or list"),
    "--n": _flag("auto", help="polynomial degree; value, range, list, or "
                 "auto+K for 2m+1..2m+1+K"),
    "--output": _flag(help="output file (default: stdout); relative paths "
                      f"resolve under ${OUTDIR_ENV}"),
}
# flags of two commands, each command naming its own readers
_DIMENSION = dict(default=2, dest="dimension", type=_int_at_least(1),
                  help="dimension N of the tensor spaces")
_NU = dict(help="form degrees, each in 0..N (default: all)")
_QUADRATURE = dict(type=_int_at_least(1),
                   help="Gauss points for smooth inputs (default 2(n+2))")
_SAMPLES = dict(default=101, type=_int_at_least(1), help="sample points")
_TOLERANCE = dict(default=1e-12, type=_tolerance,
                  help="largest junction mismatch or residual that passes")
_SAMPLED = ("basis-samples",)

ELEMENT_FLAGS = {
    **_COMMON,
    "--emit": _flag("element", choices=["element", *ELEMENT_FIELDS, *_SAMPLED],
                    help="what to emit"),
    "--form": _flag(0, _SAMPLED, type=int, choices=[0, 1], help="form degree"),
    "--samples": _flag(readers=_SAMPLED, **_SAMPLES),
    "--corrupt": _flag(choices=tuple(corruptions.ELEMENT_CORRUPTIONS),
                       help="negative-control fixture"),
}
VERIFY_FLAGS = {
    **_COMMON,
    "--quadrature-order": _flag(readers=("continuity-demo",), **_QUADRATURE),
    "--checks": _flag(",".join(CHECK_ORDER),
                      help="comma list from: " + ", ".join(CHECKS)),
    "--N": _flag(**_DIMENSION),
    "--nu": _flag(readers=("tensor-commutation", "kron-structure"), **_NU),
    "--corrupt": _flag(choices=corruptions.CORRUPTION_NAMES,
                       help="negative-control fixture"),
    "--probe-degree": _flag(
        None, ("lemma-hypotheses", "commutation", "tensor-commutation"),
        type=_int_at_least(0), help="largest monomial probe degree (default "
        "n+5); tensor-commutation caps it at n+3"),
    "--seed": _flag(0, ("commutation",), type=int, help="random probe seed"),
    "--random-probes": _flag(0, ("commutation",), type=_int_at_least(0),
                             help="extra seeded random probes"),
    "--tolerance": _flag(readers=("continuity-demo",), **_TOLERANCE),
    "--format": _flag("json", dest="fmt", choices=["json", "text"],
                      help="report format"),
    "--timings": _flag(metavar="PATH|-", help="write per-check wall times "
                       "as label<TAB>seconds lines to PATH, or to stderr "
                       "for -; never part of the report"),
}
TENSOR_FLAGS = {
    **_COMMON,
    "--N": _flag(readers=("tables",), **_DIMENSION),
    "--nu": _flag(readers=("tables",), **_NU),
    "--emit": _flag("tables", choices=["tables", *_SAMPLED],
                    help="what to emit"),
    "--chi": _flag("0,0", _SAMPLED, help="characteristic vector"),
    "--index": _flag("1,1", _SAMPLED, help="1-based basis indices"),
    "--samples": _flag(33, _SAMPLED, type=_int_at_least(1),
                       help="sample points per axis"),
}
INTERP_FLAGS = {
    **_COMMON,
    "--quadrature-order": _flag(**_QUADRATURE),
    "--input": _flag(required=True, help="sin, cos, exp, or a polynomial "
                     "literal like 3/2x^2-x+1"),
    "--samples": _flag(**_SAMPLES),
    "--two-cell": _flag(False, action="store_true",
                        help="run the two-cell continuity demo on [0,2]"),
    "--tolerance": _flag(**_TOLERANCE),
}


@functools.cache  # parse_args builds a fresh namespace on every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derham",
        description="Exact C^m finite element cochain complexes on [0,1]^N: "
                    "construction, interpolation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for run, flags in ((cmd_element, ELEMENT_FLAGS),
                       (cmd_verify, VERIFY_FLAGS), (cmd_tensor, TENSOR_FLAGS),
                       (cmd_interp, INTERP_FLAGS)):
        command = sub.add_parser(run.__name__[4:], help=run.__doc__)
        command.set_defaults(run=run)
        for flag, (keywords, default, readers) in flags.items():
            if default is not None:
                keywords = {**keywords,
                            "help": f"{keywords['help']} (default {default})"}
            # a flag with readers stays None, for _resolve to see it given
            command.add_argument(flag, default=None if readers else default,
                                 **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        orders = _distinct("m", args.m, parse_int_list(args.m, "m"),
                           lambda m: m < 0 and f"continuity order m={m} too "
                           "low; need m >= 0")
        args.grid = [(m, n) for m in orders for n in degrees_for(m, args.n)]
        return args.run(args)
    except (ValueError, ZeroDivisionError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

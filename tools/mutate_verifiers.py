"""Mutation score of the verifier functions (opt-in; not a Tier-1 test).

A verifier that no mutation of its own code can make fail proves
nothing.  This script applies one small change at a time inside the
named verifier functions of ``src/derham`` and runs a named pytest
selection against each mutant in a scratch copy of the repository.  It
also scores the command line's value rules (its list and bound rules
and the ``--n`` grammar), whose faults would let a bad value through to
a verifier or reject a good one:

* comparison: each comparison operator made its negation
  (``==``/``!=``, ``<``/``>=``, ``<=``/``>``, ``in``/``not in``,
  ``is``/``is not``);
* boolean operator: ``and``/``or`` swapped, and ``&``/``|`` swapped
  (also in ``&=``/``|=``), the boolean mask operators;
* arithmetic operator: ``+``/``-`` swapped and ``*``/``//`` swapped
  (also in augmented assignments), for the exact integer kernels;
* int constant: each int literal (not a bool) made one larger and,
  separately, one smaller;
* ``not``: a ``not x`` made ``x``.

A mutant is killed when its selection fails (any nonzero pytest exit,
a run past ``TIMEOUT`` seconds included).  The table lists, per
function, the sites, the mutants run, the kills and the score, then
every survivor with its line; a survivor is either a gap in the tests
or an equivalent mutant.

Usage (standard library only; one pytest process at a time)::

    python tools/mutate_verifiers.py --seed 1 --sample 12
    python tools/mutate_verifiers.py --functions verify_commutation --sample 0

``--sample K`` runs K mutants per function, drawn with ``--seed`` (0:
all of them); ``--functions`` names the verifiers to score (default:
all of them), and ``--root`` points at another checkout to score.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

# verifier -> the pytest selection run against its mutants, fast files
# first (with -x a kill usually comes early)
ELEMENT_TESTS = ("tests/test_negative_controls.py",
                 "tests/test_acceptance.py", "tests/test_cli.py",
                 "tests/test_element1d.py", "tests/test_element1d_kernel.py")
TENSOR_TESTS = ("tests/test_negative_controls.py",
                "tests/test_acceptance.py", "tests/test_cli.py",
                "tests/test_tensor.py", "tests/test_tensor_kernel.py")
# every file that calls the two-cell continuity demo, directly or by the CLI
DEMO_TESTS = ("tests/test_interpolation.py", "tests/test_acceptance.py",
              "tests/test_cli.py", "tests/test_tensor_kernel.py")
CLI_TESTS = ("tests/test_cli.py",)
TIMEOUT = 300.0  # seconds per pytest run
SELECTIONS = {
    "verify_commutation": ELEMENT_TESTS,
    # the premises that let verify_commutation skip its defect operator
    "_premises_hold": ELEMENT_TESTS,
    "_functional_pairing": ELEMENT_TESTS,
    "verify_lemma_hypotheses": ELEMENT_TESTS,
    "verify_unisolvence": ELEMENT_TESTS,
    "verify_dd_zero": TENSOR_TESTS,
    "verify_monomial_commutation": TENSOR_TESTS,
    "verify_tensor_commutation": TENSOR_TESTS,
    "verify_kron_structure": TENSOR_TESTS,
    "verify_dimensions": TENSOR_TESTS,
    "two_cell_continuity_demo": DEMO_TESTS,
    # the element's 1D facts that the N-D verifiers decide from: the
    # family sizes, the node-table ranks, the pairing D B_0 against
    # [B_1 | 0], the factor pairs and the monomial columns and flags
    "sizes": TENSOR_TESTS,
    "table_rank": TENSOR_TESTS,
    "pairing": TENSOR_TESTS,
    "kron_factors": TENSOR_TESTS,
    "monomial_columns": TENSOR_TESTS,
    # the chi-level helpers every tensor verifier shares
    "_residual_sources": TENSOR_TESTS,
    "_d_terms": TENSOR_TESTS,
    "_along": TENSOR_TESTS,
    "_kron_blocks": TENSOR_TESTS,
    # the command line's value rules: every list flag, every bounded
    # number and the --n grammar
    "_values": CLI_TESTS,
    "_bounded": CLI_TESTS,
    "_int_at_least": CLI_TESTS,
    "degrees_for": CLI_TESTS,
}

NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
           ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
           ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
           ast.IsNot: ast.Is}
SWAPPED = {ast.And: ast.Or, ast.Or: ast.And, ast.BitAnd: ast.BitOr,
           ast.BitOr: ast.BitAnd}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv,
              ast.FloorDiv: ast.Mult}
SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.GtE: ">=",
          ast.LtE: "<=", ast.Gt: ">", ast.In: "in", ast.NotIn: "not in",
          ast.Is: "is", ast.IsNot: "is not", ast.And: "and", ast.Or: "or",
          ast.BitAnd: "&", ast.BitOr: "|", ast.Add: "+", ast.Sub: "-",
          ast.Mult: "*", ast.FloorDiv: "//"}


@dataclass(frozen=True)
class Site:
    """One mutation: the ``ordinal``-th node of ``kind`` in ``function``
    (walk order), changed as ``change`` says."""

    path: Path
    function: str
    kind: str
    ordinal: int
    change: str  # the operand index, or "+1"/"-1" for a constant
    line: int
    text: str

    def label(self) -> str:
        return f"{self.path.name}:{self.line} {self.kind}: {self.text}"


def _nodes(tree: ast.Module, function: str):
    """(kind, node) for every mutable node in the body of ``function``
    (not its signature: annotations are never evaluated), walk order."""
    for top in ast.walk(tree):
        if isinstance(top, ast.FunctionDef) and top.name == function:
            break
    else:
        return
    for node in ast.walk(ast.Module(body=top.body, type_ignores=[])):
        if isinstance(node, ast.Compare):
            yield "comparison", node
        elif isinstance(node, ast.BoolOp) or (
                isinstance(node, (ast.BinOp, ast.AugAssign))
                and type(node.op) in SWAPPED):
            yield "boolean", node
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) \
                and type(node.op) in ARITHMETIC:
            yield "arithmetic", node
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield "constant", node
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield "not", node


def find_sites(src: Path, functions) -> list[Site]:
    sites = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for function in functions:
            for ordinal, (kind, node) in enumerate(_nodes(tree, function)):
                if kind == "comparison":
                    changes = [(str(i), f"{SYMBOL[type(op)]} -> "
                                f"{SYMBOL[NEGATED[type(op)]]}")
                               for i, op in enumerate(node.ops)]
                elif kind in ("boolean", "arithmetic"):
                    op = type(node.op)
                    swap = SWAPPED if kind == "boolean" else ARITHMETIC
                    changes = [("0", f"{SYMBOL[op]} -> {SYMBOL[swap[op]]}")]
                elif kind == "constant":
                    changes = [(step, f"{node.value} -> "
                                f"{node.value + int(step)}")
                               for step in ("+1", "-1")]
                else:
                    changes = [("0", "not x -> x")]
                sites += [Site(path.relative_to(src.parent.parent), function,
                               kind, ordinal, change, node.lineno, text)
                          for change, text in changes]
    return sorted(sites, key=lambda s: (s.function, s.line))


def mutated_source(root: Path, site: Site) -> str:
    tree = ast.parse((root / site.path).read_text())
    kind, target = list(_nodes(tree, site.function))[site.ordinal]
    assert kind == site.kind, (kind, site)
    if kind == "comparison":
        i = int(site.change)
        target.ops[i] = NEGATED[type(target.ops[i])]()
    elif kind == "boolean":
        target.op = SWAPPED[type(target.op)]()
    elif kind == "arithmetic":
        target.op = ARITHMETIC[type(target.op)]()
    elif kind == "constant":
        target.value += int(site.change)
    else:  # not x -> x: x takes the place of the ``not`` in its parent
        for parent in ast.walk(tree):
            for field, value in ast.iter_fields(parent):
                if value is target:
                    setattr(parent, field, target.operand)
                elif isinstance(value, list) and target in value:
                    value[value.index(target)] = target.operand
    return ast.unparse(tree)


def run_selection(work: Path, selection) -> str:
    """'pass', 'fail' or 'timeout' for one pytest run in ``work``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-o", "addopts=", *selection],
            cwd=work, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 5:
        raise SystemExit(f"error: pytest collected no tests from {selection}")
    return "pass" if done.returncode == 0 else "fail"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="repository to score (default: this one)")
    parser.add_argument("--functions", default=",".join(SELECTIONS),
                        help="comma-separated verifier names")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=12,
                        help="mutants per function (0: all)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    functions = args.functions.split(",")
    unknown = [f for f in functions if f not in SELECTIONS]
    if unknown:
        parser.error(f"no test selection for {', '.join(unknown)}")
    sites = find_sites(root / "src" / "derham", functions)

    rng = random.Random(args.seed)
    chosen = {}
    for function in functions:
        own = [s for s in sites if s.function == function]
        if args.sample and len(own) > args.sample:
            own = sorted(rng.sample(own, args.sample),
                         key=sites.index)
        chosen[function] = own

    with tempfile.TemporaryDirectory(prefix="mutate-verifiers-") as scratch:
        work = Path(scratch) / "repo"
        shutil.copytree(root, work, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis",
            ".bench_out"))
        for selection in sorted({SELECTIONS[f] for f in functions}):
            if run_selection(work, selection) != "pass":
                raise SystemExit("error: the unmutated selection fails: "
                                 + " ".join(selection))
        results = {}
        for function, own in chosen.items():
            for site in own:
                original = (work / site.path).read_text()
                (work / site.path).write_text(mutated_source(work, site))
                started = time.perf_counter()
                try:
                    outcome = run_selection(work, SELECTIONS[function])
                finally:
                    (work / site.path).write_text(original)
                results[site] = outcome
                print(f"{outcome:8} {time.perf_counter() - started:6.1f} s "
                      f"{site.label()}", file=sys.stderr, flush=True)

    print(f"{'function':30} {'sites':>5} {'run':>4} {'killed':>6} "
          f"{'score':>6}")
    for function, own in chosen.items():
        total = sum(s.function == function for s in sites)
        killed = sum(results[s] != "pass" for s in own)
        score = f"{100 * killed / len(own):.0f}%" if own else "-"
        print(f"{function:30} {total:5} {len(own):4} {killed:6} {score:>6}")
    survivors = [s for s in results if results[s] == "pass"]
    if survivors:
        print("\nsurvivors:")
        for site in survivors:
            print(f"  {site.function}: {site.label()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

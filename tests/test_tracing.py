"""The benchmark tracer's contract with the package.

``benchmarks/tracing.py`` wraps named functions and class attributes of
``derham`` for a traced pass and puts them back afterwards.  A layer
that is deleted or renamed in ``src/`` must fail here, not only in a
traced benchmark run.
"""

import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import derham  # noqa: F401  (imports every submodule the tracer patches)
from derham import cli, functionals  # noqa: F401
from derham.corruptions import permute_alpha
from derham.element1d import build_element

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("derham_bench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings() -> dict:
    """Every name the tracer may rebind: the globals of each ``derham``
    module and the attributes of each class defined in the package."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "derham" and not name.startswith("derham."):
            continue
        for attr, value in vars(module).items():
            out[module, attr] = value
            if inspect.isclass(value) and \
                    value.__module__.startswith("derham"):
                out.update(((value, a), v) for a, v in vars(value).items())
    return out


def test_install_then_restore_returns_every_original():
    tracing = load_tracing()
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        during = bindings()
    finally:
        tracer.restore()
    after = bindings()
    patched = {key for key, value in before.items()
               if during.get(key) is not value}
    assert (functionals.Moment, "apply_smooth") in patched
    assert (cli, "run_verify_suite") in patched
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] \
        == []


def test_element_fingerprint_is_a_value_identity():
    # the tracer hashes tuple(e.alpha0.flat): the stored inverses must
    # stay arrays of hashable exact entries
    fingerprint = load_tracing().Tracer().element_fingerprint
    first, second = build_element(1, 3), build_element(1, 3)
    assert first is not second
    assert fingerprint(first) == fingerprint(second)
    assert fingerprint(permute_alpha(first)) != fingerprint(first)


@pytest.mark.parametrize("workload", ["grid_1d", "tensor_structure",
                                      "tensor_interp", "smooth"])
def test_one_traced_pass_runs_and_passes_the_gate(workload):
    """One traced benchmark pass of each workload (spans go to the
    git-ignored ``.bench_out/``): the tracer's named lookups resolve, and
    the gate sees every verdict right."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload",
         workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    last = json.loads(run.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0

"""Byte identity of every benchmark artifact.

One pass of each workload in ``benchmarks/workloads.py`` at seeds 1 and
3 emits a fixed set of texts (reports, tables, CSVs).  Their joined
``status\\nartifact`` texts must hash to the digest pinned here, so a
refactor that changes any emitted byte fails in Tier 1 instead of only
in a benchmark run.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import derham
from derham import cli, serialize, smooth, tensor  # noqa: F401
from derham.element1d import build_element

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "benchmarks" / "workloads.py"

PINNED = "f74d46dbcf5ee52a2a9244c179674ef0d7521e2d0786810a0803c204a6437c92"


def load_workloads():
    spec = importlib.util.spec_from_file_location("derham_bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def artifact_digest() -> str:
    workloads = load_workloads()
    digest = hashlib.sha256()
    for name in workloads.WORKLOADS:
        elements = {(m, n): build_element(m, n)
                    for m, n in workloads.SETUP_ELEMENTS[name]}
        for seed in (1, 3):
            capture = workloads.SuiteCapture(derham.cli)
            try:
                calls = workloads.build_calls(name, derham, capture, seed,
                                              elements)
                for call in calls:
                    status, artifact, _ = call.execute()
                    digest.update(f"{name} {seed} {call.key}\n"
                                  f"{status}\n{artifact}".encode())
            finally:
                capture.restore()
    return digest.hexdigest()


def test_every_workload_artifact_is_byte_identical():
    assert artifact_digest() == PINNED

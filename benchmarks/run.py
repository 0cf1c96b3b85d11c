"""The derham benchmark: four verifier workloads, one closed loop.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload grid_1d --seed 1 --seconds 12 \
        --trace 0

One process makes one verifier call at a time, with no threads.  A run
repeats full passes of the workload (see ``workloads.py``) until the
passes add up to ``--seconds`` of scaled time and at least two passes
and 100 verifier calls are timed; a pass is never cut short.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
three fresh interpreters that import ``derham`` and build the
workload's elements), ``wall_s`` (median pass), ``check_p50_ms`` /
``check_p90_ms`` (latency of each verifier call), ``peak_rss_mb`` and
``wrong_verdict_frac``.  ``--trace 1`` runs one untraced and one traced
pass, both from cold caches, and prints the per-layer metrics and the
tracing overhead.  Spans are written to ``.bench_out/``.

Times are scaled to a reference CPU speed sampled while each call runs
(``speed.py``); the metric lines also give unscaled medians.

Every pass goes through the known-answer gate and the determinism check
(artifact hashes must match across passes, and between the traced and
the untraced pass).  The last line of standard output is the JSON
result; the lines before it give the environment, each metric with its
unit and sample count, and the verdict counts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import SETUP_ELEMENTS, WORKLOADS  # noqa: E402

MIN_PASSES = 2
MIN_LATENCIES = 100
MAX_SECONDS = 120  # stop early rather than run past the 180 s limit
SETUP_PROBES = 3

# derham.cli.CHECK_ORDER, spelled out because BENCHMARK.json lists the
# per-layer metric names
CHECK_NAMES = ("unisolvence", "lemma-hypotheses", "commutation",
               "dimensions", "dd-zero", "tensor-commutation",
               "continuity-demo")

PER_LAYER = (
    "polycore.mul.calls", "polycore.add.calls", "polycore.derivative.calls",
    "polycore.eval.calls", "polycore.legendre.miss_frac",
    "polycore.hermite_basis.miss_frac",
    "functionals.apply.calls", "functionals.apply.self_s",
    "functionals.apply_smooth.calls", "functionals.atoms.calls",
    "linalg.solve.calls", "linalg.solve.self_s", "linalg.rank.calls",
    "linalg.rank.self_s", "linalg.kron.self_s",
    "quadrature.gauss_rule.miss_frac",
    "element1d.build_element.calls", "element1d.build_element.self_s",
    "element1d.interpolate.calls", "element1d.interpolate.self_s",
    "element1d.interpolate.distinct_frac",
    "element1d.interpolate_smooth.self_s",
    "element1d.cell_interpolant.self_s",
    "element1d.verify_unisolvence.self_s",
    "element1d.verify_lemma_hypotheses.self_s",
    "element1d.verify_commutation.self_s",
    "element1d.two_cell_continuity_demo.self_s",
    "tensor.d_tensor.calls", "tensor.d_tensor.self_s",
    "tensor.TensorForm.zero.calls", "tensor.canonicalize.calls",
    "tensor.canonicalize.self_s", "tensor.expand_in_basis.calls",
    "tensor.expand_in_basis.self_s", "tensor.expand_in_basis.distinct_frac",
    "tensor.d_rank_one.calls", "tensor.tensor_interpolate.calls",
    "tensor.tensor_interpolate.self_s",
    "tensor.TensorNodeFunctional.apply_smooth.calls",
    "tensor.TensorNodeFunctional.apply_smooth.self_s",
    "tensor.verify_dimensions.self_s", "tensor.verify_dd_zero.self_s",
    "tensor.verify_tensor_commutation.self_s",
    "tensor.verify_kron_structure.self_s",
    "tensor.verify_dd_zero.unit_forms",
    "tensor.verify_tensor_commutation.probes",
    "smooth.derivative.calls",
    "serialize.json_text.self_s", "serialize.bytes_out",
    "cli.run_verify_suite.self_s",
    *(f"cli.check.{name}.s" for name in CHECK_NAMES),
    "trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s",
)


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_frac"):
        return "frac"
    if stat == "bytes_out":
        return "B"
    if stat == "s" or stat.endswith("_s"):
        return "s"
    return "count"


def load_derham():
    """Import derham from this checkout's ``src``, nowhere else."""
    if not (SRC / "derham" / "__init__.py").is_file():
        sys.exit(f"error: no derham sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import derham
    from derham import (cli, element1d, polycore,  # noqa: F401
                        quadrature, serialize, smooth, tensor)
    if Path(derham.__file__).resolve().parent != SRC / "derham":
        sys.exit(f"error: imported derham from {derham.__file__}")
    return derham


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit()}


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of fresh interpreters."""
    points = ";".join(f"{m},{n}" for m, n in SETUP_ELEMENTS[workload])
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), points],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        one_scaled, one_raw = map(float, done.stdout.split())
        scaled.append(one_scaled)
        raw.append(one_raw)
    return scaled, raw


def clear_caches() -> None:
    """Empty every lru_cache in derham."""
    caches = {id(value): value for module in tracing.derham_modules()
              for value in vars(module).values()
              if hasattr(value, "cache_clear")}
    for cache in caches.values():
        cache.cache_clear()


@dataclass
class PassTiming:
    wall: float = 0.0      # scaled to the reference CPU speed
    raw_wall: float = 0.0  # as read from the clock
    latencies: list = field(default_factory=list)  # scaled, seconds


def run_pass(calls):
    """One timed pass; returns its PassTiming and the raw results.

    Each call's time and verifier latencies are scaled by the CPU speed
    sampled while it ran, and the sampling time is taken out of them
    (see ``speed.py``).
    """
    gc.collect()
    results, intervals = [], []
    with speed.Sampler() as sampler:
        for call in calls:
            paused = sampler.paused
            started = perf_counter()
            try:
                status, artifact, latencies = call.execute()
                results.append((call, status, artifact, None))
            except Exception as error:  # counted as wrong by the gate
                results.append((call, None, None,
                                f"{type(error).__name__}: {error}"))
                latencies = []
            ended = perf_counter()
            intervals.append((started, ended, sampler.paused - paused,
                              latencies))
    timing = PassTiming()
    for started, ended, paused, latencies in intervals:
        raw = ended - started
        scale = sampler.factor(started, ended) * (raw - paused) / raw
        timing.wall += raw * scale
        timing.raw_wall += raw
        timing.latencies += [t * scale for t in latencies]
    return timing, results


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A beta-weighted average of all order statistics (F. E. Harrell and
    C. E. Davis, Biometrika 69 (1982) 635-640).  A pass holds a few
    dozen distinct calls whose costs lie far apart near p90, so a single
    order statistic jumps whenever two neighbours swap; the weighted
    average does not.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.cumsum(np.exp(log_pdf - log_pdf.max()))
    cdf = np.concatenate(([0.0], cdf / cdf[-1]))
    edges = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], t)), cdf)
    return float(np.diff(edges) @ x)


def timed_run(args, calls, gate, report):
    setup, raw_setup = measure_setup(args.workload)
    walls, raw_walls, latencies = [], [], []
    started = perf_counter()
    # the budget counts scaled time, so CPU drift does not change how
    # many passes a run makes
    while (sum(walls) < args.seconds or len(walls) < MIN_PASSES
           or len(latencies) < MIN_LATENCIES):
        timing, results = run_pass(calls)
        gate.check_pass(results)
        walls.append(timing.wall)
        raw_walls.append(timing.raw_wall)
        latencies += timing.latencies
        if not timing.latencies or perf_counter() - started > MAX_SECONDS:
            break
    if len(latencies) < 2:
        sys.exit("error: no verifier call completed; " +
                 "; ".join(gate.problems[:3]))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report("setup_s", statistics.median(setup), "s", len(setup),
           raw=statistics.median(raw_setup))
    report("wall_s", statistics.median(walls), "s", len(walls),
           raw=statistics.median(raw_walls))
    report("check_p50_ms", quantile(latencies, 0.5) * 1e3, "ms",
           len(latencies))
    report("check_p90_ms", quantile(latencies, 0.9) * 1e3, "ms",
           len(latencies))
    report("peak_rss_mb", rss_mb, "MB", 1)
    report("wrong_verdict_frac", gate.wrong_total / gate.attempted, "frac",
           gate.attempted)


def traced_run(args, derham, calls, capture, gate, report):
    """One untraced and one traced pass, both from cold caches."""
    clear_caches()
    untraced, results = run_pass(calls)
    gate.check_pass(results)

    clear_caches()
    capture.timings.clear()
    tracer = tracing.Tracer()
    tracer.pass_id = 1
    traced_calls = [replace(call, execute=tracer.make_wrapper(
        f"call {call.key}", call.execute, "span")) for call in calls]
    tracing.install(tracer)
    try:
        traced, results = run_pass(traced_calls)
    finally:
        tracer.restore()
    gate.check_pass(results)

    # self times are scaled like the pass that contains them
    scale = traced.wall / traced.raw_wall
    values = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = tracer.calls.get(layer, 0)
        elif stat == "self_s":
            values[name] = tracer.self_s.get(layer, 0.0) * scale
        elif stat == "distinct_frac":
            values[name] = tracer.distinct_frac(layer)
        elif stat in ("unit_forms", "probes"):
            values[name] = tracer.tallies.get(name, 0)
    for layer, cache in (("polycore.legendre", derham.polycore.legendre),
                         ("polycore.hermite_basis",
                          derham.polycore.hermite_basis),
                         ("quadrature.gauss_rule",
                          derham.quadrature.gauss_rule)):
        info = cache.cache_info()
        lookups = info.hits + info.misses
        values[f"{layer}.miss_frac"] = info.misses / lookups if lookups else 0
    values["serialize.bytes_out"] = sum(
        len(artifact.encode()) for _, _, artifact, _ in results
        if artifact is not None)
    for name in CHECK_NAMES:
        values[f"cli.check.{name}.s"] = scale * sum(
            seconds for label, seconds in capture.timings
            if label.split("[", 1)[0] == name)
    values["trace.untraced_wall_s"] = untraced.wall
    values["trace.traced_wall_s"] = traced.wall
    values["trace.overhead_s"] = traced.wall - untraced.wall

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.csv")
    for name in PER_LAYER:
        report(name, values[name], layer_unit(name), 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    derham = load_derham()
    env = environment(args)
    elements = {(m, n): derham.element1d.build_element(m, n)
                for m, n in SETUP_ELEMENTS[args.workload]}
    capture = workloads.SuiteCapture(derham.cli)
    calls = workloads.build_calls(args.workload, derham, capture, args.seed,
                                  elements)
    gate = workloads.Gate()
    metrics, samples = {}, {}

    def report(name, value, unit, count, raw=None):
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = f"samples={count}" + \
            ("" if raw is None else f" unscaled={raw:.6g}")

    try:
        if args.trace:
            traced_run(args, derham, calls, capture, gate, report)
        else:
            timed_run(args, calls, gate, report)
    finally:
        capture.restore()

    print("env " + json.dumps(env))
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']} "
              f"{samples[name]}")
    print("verdicts " + json.dumps({"attempted": gate.attempted,
                                    "wrong": gate.wrong_total,
                                    **{f"wrong_{k}": v
                                       for k, v in gate.wrong.items()}}))
    for problem in gate.problems:
        print("problem " + problem)
    print(json.dumps({"correct": gate.correct, "attempted": gate.attempted,
                      "failed": gate.wrong["unexpected"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Call-time tracing of the ``derham`` layers, from outside ``src/``.

The tracer never edits ``src/``.  It replaces, for the duration of a
traced pass, the objects that ``derham`` code looks up at call time:

* module globals, in every ``derham.*`` module that binds the function
  (so ``derham.tensor.interpolate`` is wrapped as well as
  ``derham.element1d.interpolate``);
* class attributes, for methods (``Polynomial.__mul__``,
  ``TensorForm.zero`` and so on).

Three kinds of wrapper exist:

* ``count`` -- hot tiny calls (``Polynomial`` ring operations, ``d_rank_one``,
  callback evaluations): a call counter and nothing else;
* ``timed`` -- counted and timed, but no span record (functional
  ``apply``, whose self time is asked for but whose call volume is high);
* ``span`` -- counted, timed and recorded as a span
  ``(pass, id, parent, name, start, end)``.

A layer's self time is its duration minus the part covered by timed
children.  Spans stay in memory and are written out by :meth:`write`.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from time import perf_counter


def derham_modules() -> list:
    """The imported ``derham`` package and its submodules."""
    return [module for name, module in list(sys.modules.items())
            if module is not None and
            (name == "derham" or name.startswith("derham."))]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.tallies: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.spans: list[tuple] = []
        self.pass_id = 0
        self._stack: list[list] = []  # frames: [child_time, span_id]
        self._next_span = 0
        self._patches: list[tuple] = []
        self._fingerprints: dict[int, tuple] = {}

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timer(self, name, fn, record, key, tally):
        calls, self_s = self.calls, self.self_s
        stack, spans = self._stack, self.spans
        seen = self.distinct[name] if key else None

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if seen is not None:
                seen.add(key(*args, **kwargs))
            span_id = self._next_span
            self._next_span += 1
            parent = stack[-1][1] if stack else None
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if record:
                    spans.append((self.pass_id, span_id, parent, name,
                                  start, end))
            if tally:
                label, measure = tally
                self.tallies[label] += measure(result)
            return result
        return wrapper

    def make_wrapper(self, name, fn, kind, key=None, tally=None):
        if kind == "count":
            return self._counter(name, fn)
        return self._timer(name, fn, kind == "span", key, tally)

    def patch_function(self, name, module, attr, kind, key=None, tally=None):
        """Wrap ``module.attr`` in every derham module that binds it."""
        original = getattr(module, attr)
        wrapper = self.make_wrapper(name, original, kind, key, tally)
        for mod in derham_modules():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original))
                    setattr(mod, binding, wrapper)

    def patch_method(self, name, cls, attr, kind, key=None):
        """Wrap a class attribute; classmethods keep their descriptor."""
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.make_wrapper(name, original.__func__, kind, key))
        else:
            replacement = self.make_wrapper(name, original, kind, key)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- helpers for distinct-argument keys -----------------------------

    def element_fingerprint(self, e) -> tuple:
        """Value identity of an element (corrupted copies differ)."""
        entry = self._fingerprints.get(id(e))
        if entry is None or entry[0] is not e:
            fingerprint = hash((e.m, e.n, e.functionals0, e.functionals1,
                                e.basis0, e.basis1, tuple(e.alpha0.flat),
                                tuple(e.alpha1.flat)))
            # keep e alive so its id cannot be reused within the pass
            entry = (e, fingerprint)
            self._fingerprints[id(e)] = entry
        return entry[1]

    # -- results ----------------------------------------------------------

    def distinct_frac(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return len(self.distinct.get(name, ())) / calls if calls else 0.0

    def write(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("pass", "span", "parent", "name", "start_s",
                             "end_s"))
            for pass_id, span_id, parent, name, start, end in self.spans:
                writer.writerow((pass_id, span_id,
                                 "" if parent is None else parent, name,
                                 f"{start:.9f}", f"{end:.9f}"))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    from derham import (cli, element1d, functionals, linalg, polycore,
                        serialize, smooth, tensor)

    P = polycore.Polynomial
    for attr in ("__mul__", "__rmul__"):
        tracer.patch_method("polycore.mul", P, attr, "count")
    tracer.patch_method("polycore.add", P, "__add__", "count")
    tracer.patch_method("polycore.derivative", P, "derivative", "count")
    tracer.patch_method("polycore.eval", P, "__call__", "count")

    for cls in (functionals.EndpointDerivative, functionals.Moment,
                functionals.EndpointSum):
        tracer.patch_method("functionals.apply", cls, "apply", "timed")
        tracer.patch_method("functionals.apply_smooth", cls, "apply_smooth",
                            "count")
        tracer.patch_method("functionals.atoms", cls, "atoms", "count")

    for attr in ("solve", "rank", "kron"):
        tracer.patch_function(f"linalg.{attr}", linalg, attr, "span")

    fingerprint = tracer.element_fingerprint
    tracer.patch_function("element1d.build_element", element1d,
                          "build_element", "span")
    tracer.patch_function("element1d.interpolate", element1d, "interpolate",
                          "span", key=lambda e, k, u: (fingerprint(e), k, u))
    for attr in ("interpolate_smooth", "cell_interpolant",
                 "verify_unisolvence", "verify_lemma_hypotheses",
                 "verify_commutation", "two_cell_continuity_demo"):
        tracer.patch_function(f"element1d.{attr}", element1d, attr, "span")

    tracer.patch_function("tensor.d_tensor", tensor, "d_tensor", "span")
    tracer.patch_method("tensor.TensorForm.zero", tensor.TensorForm, "zero",
                        "count")
    tracer.patch_function("tensor.canonicalize", tensor, "canonicalize",
                          "span")
    tracer.patch_function("tensor.expand_in_basis", tensor, "expand_in_basis",
                          "span", key=lambda e, k, p: (fingerprint(e), k, p))
    tracer.patch_function("tensor.d_rank_one", tensor, "d_rank_one", "count")
    tracer.patch_function("tensor.tensor_interpolate", tensor,
                          "tensor_interpolate", "span")
    tracer.patch_method("tensor.TensorNodeFunctional.apply_smooth",
                        tensor.TensorNodeFunctional, "apply_smooth", "timed")
    tracer.patch_function(
        "tensor.verify_dd_zero", tensor, "verify_dd_zero", "span",
        tally=("tensor.verify_dd_zero.unit_forms",
               lambda report: report.parameters["basis_elements"]))
    tracer.patch_function(
        "tensor.verify_tensor_commutation", tensor,
        "verify_tensor_commutation", "span",
        tally=("tensor.verify_tensor_commutation.probes",
               lambda report: report.parameters["probes"]))
    for attr in ("verify_dimensions", "verify_kron_structure"):
        tracer.patch_function(f"tensor.{attr}", tensor, attr, "span")

    for cls, attrs in ((smooth.SmoothFunction1D, ("derivative",
                                                  "derivative_sided")),
                       (smooth.SmoothFunctionND, ("derivative",))):
        for attr in attrs:
            tracer.patch_method("smooth.derivative", cls, attr, "count")

    tracer.patch_function("serialize.json_text", serialize, "json_text",
                          "span")
    tracer.patch_function("cli.run_verify_suite", cli, "run_verify_suite",
                          "span")

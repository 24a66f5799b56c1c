"""Spans around the calls into boxdot's public functions, for the traced run.

``Tracer.install`` replaces each traced function wherever a boxdot module
binds it (``boxdot.fuzz.hotel_eval``, ``boxdot.cli.parse``, ...), and each
traced method on its class, with a wrapper that records a span: layer name,
start, end, parent span and the exception type it raised, if any.  A call
into a layer that is already open on the stack (recursion, or
``extension`` calling ``extension_mask``) records no span of its own, so
each layer counts outermost calls only.  Spans stay in memory until
``write``; ``uninstall`` puts the originals back, and ``install`` may be
called again after it.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time

# layer -> the functions or methods it covers, as (module, qualified name)
LAYERS = {
    "formulas.parse": [("boxdot.formulas", "parse")],
    "formulas.substitute": [("boxdot.formulas", "substitute")],
    "proofs.parse_proof_script": [("boxdot.proofs", "parse_proof_script")],
    "proofs.check_derivation": [("boxdot.proofs", "check_derivation")],
    "proofs.match_schema": [("boxdot.proofs", "match_schema")],
    "proofs.is_tautology": [("boxdot.proofs", "is_tautology")],
    "proofs.random_theorem": [("boxdot.proofs", "random_theorem")],
    "models.evaluator": [("boxdot.models", "_Evaluator.__init__")],
    "models.extension": [("boxdot.models", "extension"), ("boxdot.models", "satisfies"),
                         ("boxdot.models", "_Evaluator.extension_mask")],
    "models.model_from_json": [("boxdot.models", "model_from_json")],
    "hotel.hotel_eval": [("boxdot.hotel", "hotel_eval")],
    "hotel.counterexample_report": [("boxdot.hotel", "counterexample_report")],
    "unravelling.random_universe": [("boxdot.unravelling", "random_universe")],
    "unravelling.universe_report": [("boxdot.unravelling", "universe_report")],
    "fuzz.run_soundness_fuzz": [("boxdot.fuzz", "run_soundness_fuzz")],
    "fuzz.random_model": [("boxdot.fuzz", "random_model")],
    "cli.cli": [("boxdot.cli", "cli")],
    "corpus.corpus": [("boxdot.corpus", "corpus")],
}

# layers whose spans can have child spans, and so get a .self_s metric
WITH_CHILDREN = ("proofs.parse_proof_script", "proofs.check_derivation", "models.extension",
                 "hotel.counterexample_report", "fuzz.run_soundness_fuzz", "cli.cli",
                 "corpus.corpus")


def metric_names():
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.busy_s"]
        if layer in WITH_CHILDREN:
            names.append(f"{layer}.self_s")
    return names + ["proofs.random_theorem.retry_frac", "hotel.capacity_errors"]


class Tracer:
    def __init__(self):
        self.spans = []   # (layer, start, end, parent index, exception name)
        self.stack = []
        self.open = {layer: 0 for layer in LAYERS}
        self.restore = []

    def _wrap(self, layer, fn):
        spans, stack, open_ = self.spans, self.stack, self.open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_[layer]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_[layer] = 1
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                open_[layer] = 0
                stack.pop()
                spans[idx] = (layer, start, end, parent, error)

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "boxdot" or name.startswith("boxdot.")]
        for layer, targets in LAYERS.items():
            for module_name, qualname in targets:
                owner = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self.restore.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(layer, original))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self.restore.append((m, name, original))
                            setattr(m, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self.restore):
            setattr(owner, name, original)
        self.restore.clear()

    def summary(self, busy_s, windows):
        """Per-layer metrics for each of the traced windows, plus the part
        of their timed calls (busy_s in all) that no root span covers."""
        calls = {layer: 0 for layer in LAYERS}
        busy = {layer: 0.0 for layer in LAYERS}
        child = {layer: 0.0 for layer in LAYERS}
        errors = {}
        root_busy = 0.0
        for layer, start, end, parent, error in self.spans:
            d = end - start
            calls[layer] += 1
            busy[layer] += d
            if parent < 0:
                root_busy += d
            else:
                child[self.spans[parent][0]] += d
            if error is not None:
                errors[(layer, error)] = errors.get((layer, error), 0) + 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / windows
            out[f"{layer}.busy_s"] = busy[layer] / windows
            if layer in WITH_CHILDREN:
                out[f"{layer}.self_s"] = (busy[layer] - child[layer]) / windows
        out["proofs.random_theorem.retry_frac"] = (
            errors.get(("proofs.random_theorem", "GenerationError"), 0)
            / max(1, calls["proofs.random_theorem"]))
        out["hotel.capacity_errors"] = (
            errors.get(("hotel.hotel_eval", "CapacityError"), 0) / windows)
        out["bench.unattributed_s"] = (busy_s - root_busy) / windows
        return out

    def write(self, path, origin):
        """Write the spans as tab-separated lines: layer, start and end in
        seconds from origin, parent span's line number (-1 for none), and
        the exception raised (- for none)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for layer, start, end, parent, error in self.spans:
                fh.write(f"{layer}\t{start - origin:.7f}\t{end - origin:.7f}\t{parent}\t"
                         f"{error or '-'}\n")

"""Per-layer tracing from the benchmark's side.

Tracer.install() replaces the public boolkit functions named in LAYERS with
wrappers that open a span around each call, everywhere the function is
bound: on its own module and on every boolkit module that imported the name
(consprop binds Poset and ro_completion at import).  uninstall() puts the
originals back.  A call made while a span of the same function is open (a
recursive nnf, say) runs unwrapped inside the outer span.

A span's self time is its duration minus the time covered by its child
spans.  Helpers called very often inside the layers (render, canon, __eq__)
are not wrapped: wrapping them would distort the trace, so their cost stays
in the calling layer's self time.
"""
from __future__ import annotations

import functools
import json
import sys
import time

# (layer, module, function); several functions may feed one layer
LAYERS = [
    ("compact.oracle", "compact", "consistency_oracle"),
    ("compact.materialize", "compact", "materialize_compactness_property"),
    ("compact.fincons", "compact", "is_finitely_conservative"),
    ("compact.conservative", "compact", "is_conservative_strengthening"),
    ("consprop.verify", "consprop", "verify_consistency_property"),
    ("consprop.model", "consprop", "model_from_consprop"),
    ("consprop.saturate", "consprop", "saturate_theory"),
    ("balg.poset", "balg", "Poset"),
    ("balg.ro_completion", "balg", "ro_completion"),
    ("balg.ultrafilters", "balg", "ultrafilters"),
    ("bvmodel.eval", "bvmodel", "eval_formula"),
    ("bvmodel.validate", "bvmodel", "validate_model"),
    ("bvmodel.mixing", "bvmodel", "mixing_completion"),
    ("bvmodel.quotient", "bvmodel", "quotient_model"),
    ("proofs.check", "proofs", "check_proof"),
    ("proofs.probe", "proofs", "soundness_probe"),
    ("forcing.build", "forcing", "build_sphi"),
    ("forcing.dense", "forcing", "dense_decision_set"),
    ("forcing.dense", "forcing", "dense_commitment_set"),
    ("forcing.dense", "forcing", "is_dense"),
    ("forcing.generic", "forcing", "generic_filter"),
    ("forcing.term_model", "forcing", "term_model"),
    ("syntax.parse", "syntax", "parse"),
    ("syntax.nnf", "syntax", "nnf"),
    ("syntax.qe", "syntax", "qe_transform"),
]


def _oracle_key(syntax, args, kwargs):
    theory, sig = args[0], args[1]
    require_qe = kwargs.get("require_qe", args[3] if len(args) > 3 else False)
    sentences = theory.sentences if hasattr(theory, "sentences") else theory
    return (
        frozenset(syntax.render(f) for f in sentences),
        tuple(sorted(sig.relations.items())),
        tuple(sorted(sig.base_constants)),
        tuple(sorted(sig.fresh_constants)),
        require_qe,
    )


class Layer:
    __slots__ = ("calls", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n


class Tracer:
    """Spans and per-layer totals for the calls made while installed."""

    def __init__(self, package):
        self.package = package
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name.startswith(package.__name__ + ".") and m is not None]
        self.layers = {layer: Layer() for layer, _, _ in LAYERS}
        self.spans = []  # (id, parent id, verdict, layer, start, end)
        self.stack = []  # open spans: [id, layer, start, child time]
        self.verdict = None
        self.seen = set()
        self.patched = []

    # -- verdict scope ------------------------------------------------------

    def begin_verdict(self, verdict_id):
        """Spans from here on belong to this verdict; oracle repeats are
        counted against the queries made since."""
        self.verdict = verdict_id
        self.seen = set()

    # -- spans --------------------------------------------------------------

    def _open(self, layer):
        frame = [len(self.spans) + len(self.stack), layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self.stack.pop()
        span_id, layer, start, child = frame
        duration = end - start
        stats = self.layers[layer]
        stats.calls += 1
        stats.self_s += duration - child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.verdict, layer, start, end))

    def _count(self, counter, layer, args, kwargs, out):
        """Run a counter; its time is charged to no layer."""
        start = time.perf_counter()
        counter(self.layers[layer], args, kwargs, out)
        if self.stack:
            self.stack[-1][3] += time.perf_counter() - start

    def _wrap_function(self, layer, fn, counter):
        tracer = self
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            frame = tracer._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
                depth[0] -= 1
            if counter is not None:
                tracer._count(counter, layer, args, kwargs, out)
            return out

        return wrapper

    def _wrap_class(self, layer, cls, counter):
        tracer = self

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                frame = tracer._open(layer)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(frame)
                tracer._count(counter, layer, args, kwargs, self)

        Traced.__name__ = cls.__name__
        Traced.__qualname__ = cls.__qualname__
        return Traced

    # -- counts taken at the layer boundaries -------------------------------

    def _counters(self):
        syntax = sys.modules[self.package.__name__ + ".syntax"]
        compact = sys.modules[self.package.__name__ + ".compact"]

        def oracle(stats, args, kwargs, verdict):
            key = _oracle_key(syntax, args, kwargs)
            if key in self.seen:
                stats.add("repeats", 1)
            else:
                self.seen.add(key)
                stats.add("nodes", verdict.budget_used)
            stats.add("unknown", verdict.status == compact.UNKNOWN)

        return {
            "consistency_oracle": oracle,
            "materialize_compactness_property": lambda s, a, k, out: s.add("members", len(out)),
            "is_conservative_strengthening": lambda s, a, k, out: s.add("subsets", out.checked_subsets),
            "saturate_theory": lambda s, a, k, out: s.add("members", len(out)),
            "Poset": lambda s, a, k, out: s.add("elements", len(out)),
            "ro_completion": lambda s, a, k, out: s.add("atoms", out.algebra.atom_count),
            "soundness_probe": lambda s, a, k, out: s.add("trials", out.trials),
            "build_sphi": lambda s, a, k, out: s.add("conditions", len(out.conditions)),
        }

    # -- installation -------------------------------------------------------

    def install(self):
        counters = self._counters()
        for layer, module_name, attr in LAYERS:
            home = sys.modules[f"{self.package.__name__}.{module_name}"]
            original = getattr(home, attr)
            counter = counters.get(attr)
            if isinstance(original, type):
                replacement = self._wrap_class(layer, original, counter)
            else:
                replacement = self._wrap_function(layer, original, counter)
            for module in [self.package] + self.modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, replacement)
                        self.patched.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self.patched):
            setattr(module, name, original)
        self.patched = []

    def write_spans(self, path):
        """One JSON array per span: id, parent id, verdict, layer, start, end."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

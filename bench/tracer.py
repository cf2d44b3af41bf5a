"""Spans around casdrift's public entry points, recorded from outside.

The tracer replaces each traced name where its caller looks it up (a module
attribute) with a wrapper that opens a span, calls the original and closes
the span.  Spans live in memory until ``write()``.  Amplitude pairs run
hundreds of thousands of times per second, so they get no span each:
``amplitude_fn`` returns a wrapped closure that adds its call count and
time to the innermost open span, per layer.  A span's self time is its
duration minus its child spans and the pair time added to it.

``_term_integrals`` skips the second plate's amplitude call when
``pair2 is pair1``; the wrapper therefore hands out one wrapped closure per
underlying closure, so identical plates keep sharing it under tracing.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

# (module, attribute, span name); each name is patched where the code that
# calls it looks it up: the CLI handlers import their operations into
# casdrift.cli, entropy() and nernst_sweep() call through casdrift.thermo,
# and the benchmark itself calls cli.main, lifshitz.pressure and
# spatial.verify_equivalence through their modules.
SPANS = (
    ("casdrift.cli", "main", "cli"),
    ("casdrift.cli", "build_run_config", "config.build"),
    ("casdrift.cli", "free_energy_per_area", "lifshitz.sum"),
    ("casdrift.cli", "pressure_op", "lifshitz.sum"),
    ("casdrift.cli", "entropy_op", "thermo.entropy"),
    ("casdrift.cli", "nernst_sweep", "thermo.sweep"),
    ("casdrift.thermo", "entropy", "thermo.entropy"),
    ("casdrift.thermo", "free_energy_per_area", "lifshitz.sum"),
    ("casdrift.lifshitz", "pressure", "lifshitz.sum"),
    ("casdrift.spatial", "verify_equivalence", "spatial.verify"),
)
# amplitude_fn as the Lifshitz engine and the pointwise workload look it up
AMPLITUDE_FNS = (("casdrift.lifshitz", "amplitude_fn"), ("casdrift.reflection", "amplitude_fn"))
# pair layer by reflection-model class name
PAIR_LAYERS = {
    "Bare": "reflection.bare",
    "Conductivity": "reflection.cond",
    "Drift": "reflection.drift",
    "Nonlocal": "spatial.nonlocal",
}


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "terms", "pairs")

    def __init__(self, sid, name, parent, start):
        self.id, self.name, self.parent, self.start = sid, name, parent, start
        self.end = start
        self.terms = 0
        self.pairs = {}  # layer -> [calls, seconds]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "terms": self.terms,
                "pairs": self.pairs}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.closures = {}  # id(original closure) -> (original, wrapped)
        self._saved = []

    # --- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def _span_wrapper(self, fn, name):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.terms = len(getattr(result, "per_n_terms", ()))
            return result
        return traced

    def _pair_wrapper(self, pair, layer):
        stack = self.stack

        def traced_pair(xi, k):
            t0 = perf_counter()
            result = pair(xi, k)
            dt = perf_counter() - t0
            acc = stack[-1].pairs.get(layer)
            if acc is None:
                acc = stack[-1].pairs[layer] = [0, 0.0]
            acc[0] += 1
            acc[1] += dt
            return result
        return traced_pair

    def _amplitude_wrapper(self, fn):
        def traced_amplitude_fn(model, spec, T):
            pair = fn(model, spec, T)
            entry = self.closures.get(id(pair))
            if entry is None or entry[0] is not pair:
                layer = PAIR_LAYERS.get(type(model).__name__, "reflection.other")
                entry = self.closures[id(pair)] = (pair, self._pair_wrapper(pair, layer))
            return entry[1]
        return traced_amplitude_fn

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        import importlib

        for mod_name, attr, span_name in SPANS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._span_wrapper(original, span_name))
        for mod_name, attr in AMPLITUDE_FNS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._amplitude_wrapper(original))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


# --- per-layer metrics ------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, round_ids, overhead_s: float) -> dict:
    """Per-layer metrics from the spans under each traced round span.

    Counts are those of one round (every round makes the same calls);
    times per round are medians over the traced rounds.
    """
    children = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)

    def subtree(root_id):
        todo, out = list(children.get(root_id, ())), []
        while todo:
            span = todo.pop()
            out.append(span)
            todo.extend(children.get(span.id, ()))
        return out

    def self_time(span):
        kids = sum(c.seconds for c in children.get(span.id, ()))
        return span.seconds - kids - sum(s for _, s in span.pairs.values())

    def pair_totals(spans, prefix):
        accs = [a for sp in spans for layer, a in sp.pairs.items() if layer.startswith(prefix)]
        return sum(a[0] for a in accs), sum((a[1] for a in accs), 0.0)

    rounds = [subtree(rid) + [tracer.spans[rid]] for rid in round_ids]
    first = rounds[0]
    every = [sp for spans in rounds for sp in spans]

    def named(spans, name):
        return [sp for sp in spans if sp.name == name]

    sums_1 = named(first, "lifshitz.sum")
    points_1 = named(first, "thermo.entropy")
    terms_1 = sum(sp.terms for sp in sums_1)
    sums_all = named(every, "lifshitz.sum")
    terms_all = sum(sp.terms for sp in sums_all)
    sum_pairs_1 = sum(a[0] for sp in sums_1 for a in sp.pairs.values())
    point_sums_1 = [sp for sp in sums_1 if tracer.spans[sp.parent].name == "thermo.entropy"] \
        if points_1 else []
    refl_1 = pair_totals(first, "reflection.")
    spat_1 = pair_totals(first, "spatial.")

    def per_pair_us(layer):
        n, s = pair_totals(every, layer)
        return 1e6 * s / n if n else 0.0

    return {
        "cli.self_s": _median([sum((self_time(sp) for sp in named(r, "cli")), 0.0)
                                for r in rounds]),
        "config.build_ms": 1e3 * _median([sp.seconds for sp in named(every, "config.build")]),
        "thermo.points": len(points_1),
        "thermo.sums_per_point": len(point_sums_1) / len(points_1) if points_1 else 0.0,
        "thermo.point_ms_p50": 1e3 * _median([sp.seconds for sp in named(every, "thermo.entropy")]),
        "lifshitz.sums": len(sums_1),
        "lifshitz.terms": terms_1,
        "lifshitz.terms_per_sum": terms_1 / len(sums_1) if sums_1 else 0.0,
        "lifshitz.term_ms": 1e3 * sum(sp.seconds for sp in sums_all) / terms_all if terms_all else 0.0,
        "lifshitz.evals_per_term": sum_pairs_1 / terms_1 if terms_1 else 0.0,
        "lifshitz.self_s": _median([sum((self_time(sp) for sp in named(r, "lifshitz.sum")), 0.0)
                                    for r in rounds]),
        "reflection.pair_calls": refl_1[0],
        "reflection.pair_s": _median([pair_totals(r, "reflection.")[1] for r in rounds]),
        "reflection.bare.pair_us": per_pair_us("reflection.bare"),
        "reflection.cond.pair_us": per_pair_us("reflection.cond"),
        "reflection.drift.pair_us": per_pair_us("reflection.drift"),
        "spatial.nonlocal.pair_us": per_pair_us("spatial.nonlocal"),
        "spatial.pair_s": _median([pair_totals(r, "spatial.")[1] for r in rounds]),
        "spatial.pair_calls": spat_1[0],
        "materials.states_built": len(tracer.closures),
        "trace.overhead_s": overhead_s,
    }

"""Layer spans recorded from outside the package.

The tracer replaces each layer's public entry points, under every name a
module of the package bound them to (so `morphisms.satisfies`,
`search.satisfies` and `repetitions.satisfies` are all wrapped), records a
span per call, and puts the originals back on `restore()`.  The per-letter
hot path (`IncrementalChecker.push`) is deliberately not wrapped.

A span is (layer, function, start, end, parent index, self seconds); self
time is the span's duration minus the time covered by its child spans.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import inspect
import os
from collections import Counter
from time import perf_counter

LAYERS = ("words", "repetitions", "antisquares", "morphisms", "search", "enumeration", "fibanalysis")

FUNCTIONS = {
    "words": ["factor_texts"],
    "repetitions": ["satisfies", "critical_exponent", "maximal_repetitions"],
    "antisquares": ["inventory", "is_good"],
    "morphisms": [
        "verify_construction", "is_synchronizing", "image_power_check", "complement_factor_bound",
        "_complement_pair_bound_many", "morphic_antisquare_inventory", "squarefree_ternary_words",
        "apply", "fixed_point_prefix", "load_registry",
    ],
    "search": ["longest_word", "count_by_length", "extendable_cores", "check_word"],
    "enumeration": [
        "build_avoidance_automaton", "count_series", "growth_rate", "supergolden",
        "pansiot_block_counts", "verify_pansiot_recurrence", "expand_polynomial_identity",
    ],
    "fibanalysis": [
        "word_w_prefix", "fibonacci_word_prefix", "analyze_w_repetitions", "fibonacci_word_antisquares",
        "verify_h_construction", "decompose_good_word", "verify_phi_identities",
    ],
}

METHODS = {
    "search": [("_DFS", "run"), ("_DFS", "save_checkpoint"), ("_DFS", "restore")],
    "morphisms": [("Morphism", "apply_text")],
}


def _letters(counter_name):
    def hook(counts, args, result, before):
        counts[counter_name] += len(args[0])
    return hook


def _count_valid(counts, args, result, before):
    valid = sum(result.counts[1:])
    counts["search.count_valid"] += valid // 2 if args[0].complement_closed else valid
    counts["search.count_nodes"] += result.nodes_explored


def _repetitions_found(counts, args, result, before):
    counts["fibanalysis.repetitions_found"] += len(result.rows) + len(result.sporadic) + len(result.unmatched)


# (layer, function) -> (hook run before the call or None, hook run after it)
HOOKS = {
    ("repetitions", "satisfies"): (None, _letters("repetitions.letters")),
    ("repetitions", "critical_exponent"): (None, _letters("repetitions.letters")),
    ("repetitions", "maximal_repetitions"): (None, _letters("repetitions.letters")),
    ("antisquares", "inventory"): (None, _letters("antisquares.letters")),
    ("antisquares", "is_good"): (None, _letters("antisquares.letters")),
    ("morphisms", "apply_text"): (
        None, lambda counts, args, result, before: counts.update({"morphisms.image_letters": len(result)})),
    ("morphisms", "_complement_pair_bound_many"): (
        None, lambda counts, args, result, before: counts.update({"morphisms.complement_bound_sweeps": 1})),
    ("enumeration", "build_avoidance_automaton"): (
        None, lambda counts, args, result, before: counts.update({"enumeration.states": result.num_states})),
    ("search", "run"): (
        lambda args: args[0].nodes,
        lambda counts, args, result, before: counts.update({"search.nodes": args[0].nodes - before})),
    ("search", "save_checkpoint"): (
        None, lambda counts, args, result, before: counts.update({"search.checkpoint_bytes": os.path.getsize(args[1])})),
    ("search", "count_by_length"): (None, _count_valid),
    ("fibanalysis", "analyze_w_repetitions"): (None, _repetitions_found),
    ("fibanalysis", "decompose_good_word"): (
        None, lambda counts, args, result, before: counts.update({"fibanalysis.decompositions": 1})),
}

# Inclusive stage times reported beside the layer self times.
STAGES = {
    "morphisms.sync_s": "is_synchronizing",
    "morphisms.image_check_s": "image_power_check",
    "morphisms.complement_bound_s": "complement_factor_bound",
    "morphisms.inventory_s": "morphic_antisquare_inventory",
    "words.factor_texts_s": "factor_texts",
    "search.checkpoint_s": "save_checkpoint",
    "search.resume_s": "restore",
}


class Tracer:
    """Installs span-recording wrappers into the package's modules."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules  # short name -> module object
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._installed: list[tuple] = []

    def call(self, layer, name, fn, args, kwargs, hooks):
        before = hooks[0](args) if hooks and hooks[0] else None
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans[index] = (layer, name, start, end, parent, end - start - frame[1])
        self.counts[layer + ".calls"] += 1
        if hooks and hooks[1]:
            hooks[1](self.counts, args, result, before)
        return result

    def _wrapper(self, layer, name, fn):
        hooks = HOOKS.get((layer, name))
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.call(layer, name, next, (items,), {}, None)
                    except StopIteration:
                        return
                    tracer.counts[f"{layer}.{name}"] += 1
                    yield item
        else:
            def traced(*args, **kwargs):
                return tracer.call(layer, name, fn, args, kwargs, hooks)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer in LAYERS:
            home = self.modules[layer]
            for name in FUNCTIONS[layer]:
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapped = self._wrapper(layer, name, original)
                for module in self.modules.values():
                    if vars(module).get(name) is original:
                        self._installed.append((module, name, original))
                        setattr(module, name, wrapped)
            for cls_name, name in METHODS.get(layer, ()):
                cls = getattr(home, cls_name, None)
                original = vars(cls).get(name) if cls is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{cls_name}.{name}")
                    continue
                self._installed.append((cls, name, original))
                setattr(cls, name, self._wrapper(layer, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def summarize(self, first_span: int, wall: float, counts: Counter) -> dict:
        """Per-layer metrics for the spans recorded since `first_span`,
        which cover one iteration lasting `wall` seconds."""
        spans = self.spans[first_span:]
        self_s = Counter()
        stage = Counter()
        top = 0.0
        functions: dict[str, list] = {}
        for layer, name, start, end, parent, own in spans:
            self_s[layer] += own
            stage[name] += end - start
            if parent < first_span:
                top += end - start
            entry = functions.setdefault(f"{layer}.{name}", [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += own
        m = {f"{layer}.self_s": float(self_s[layer]) for layer in LAYERS}
        m.update({metric: float(stage[name]) for metric, name in STAGES.items()})
        m.update({
            "search.nodes": counts["search.nodes"],
            "search.us_per_node": 1e6 * self_s["search"] / counts["search.nodes"] if counts["search.nodes"] else 0.0,
            "search.valid_frac": (counts["search.count_valid"] / counts["search.count_nodes"]
                                  if counts["search.count_nodes"] else 0.0),
            "search.checkpoint_bytes": counts["search.checkpoint_bytes"],
            "repetitions.calls": counts["repetitions.calls"],
            "repetitions.letters": counts["repetitions.letters"],
            "repetitions.us_per_letter": (1e6 * self_s["repetitions"] / counts["repetitions.letters"]
                                          if counts["repetitions.letters"] else 0.0),
            "words.factor_texts_calls": counts["words.calls"],
            "antisquares.calls": counts["antisquares.calls"],
            "antisquares.letters": counts["antisquares.letters"],
            "morphisms.sf_words": counts["morphisms.squarefree_ternary_words"],
            "morphisms.image_letters": counts["morphisms.image_letters"],
            "morphisms.complement_bound_sweeps": counts["morphisms.complement_bound_sweeps"],
            "enumeration.calls": counts["enumeration.calls"],
            "enumeration.states": counts["enumeration.states"],
            "fibanalysis.repetitions_found": counts["fibanalysis.repetitions_found"],
            "fibanalysis.decompositions": counts["fibanalysis.decompositions"],
            "bench.self_s": float(wall - top),
            "trace.wall_s": wall,
        })
        m["functions"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]} for k, v in sorted(functions.items())}
        return m

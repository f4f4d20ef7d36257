"""Per-layer spans and counts, taken from outside the program.

Each layer's public function is wrapped at the name the layer above uses to
call it, so the program itself is unchanged.  A span records its layer,
parent span, operation and start and end times; spans stay in memory and are
written out when the run ends.  A layer's self time is its span's duration
minus the time its child spans cover.  A call made from inside a span of the
same layer (``modified_mechanism`` falling back to ``uniform_mechanism``,
``refusal_transform`` calling ``refuse_row``) adds self time but is not
counted as another call.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

SWEEP_FUNCTIONS = (
    "sweep_ete",
    "sweep_no_strict_dominance",
    "sweep_demotion_waste",
    "sweep_demotion_weak_dominance",
    "sweep_demotion_strict_gain",
)

# Layer name -> the (module, attribute) bindings through which callers reach it.
LAYER_SITES = {
    "parse": [("specfile", "parse_market_spec")],
    "solve": [("mechanisms", "enumerate_rank_minimizers")],
    "eval": [
        ("mechanisms", "uniform_mechanism"),
        ("mechanisms", "modified_mechanism"),
        ("sweeps", "uniform_mechanism"),
    ],
    "build": [
        ("mechanisms", "build_assignment"),
        ("strategy", "build_assignment"),
        ("assignment", "build_assignment"),
    ],
    "decompose": [("assignment", "decompose")],
    "waste": [("assignment", "wastefulness_witness")],
    "refusal": [
        ("strategy", "refusal_transform"),
        ("strategy", "refuse_row"),
        ("sweeps", "refusal_transform"),
    ],
    "dominance": [("strategy", "check_dominance"), ("sweeps", "check_dominance")],
    "sweep": [("sweeps", name) for name in SWEEP_FUNCTIONS],
}

# Per-layer metric -> (layer it needs, unit).
METRICS = {
    "specfile.parse_ms": ("parse", "ms"),
    "mechanisms.solve_calls": ("solve", "count"),
    "mechanisms.solve_distinct": ("solve", "count"),
    "mechanisms.minimizers": ("solve", "count"),
    "mechanisms.solve_ms": ("solve", "ms"),
    "mechanisms.eval_calls": ("eval", "count"),
    "mechanisms.average_ms": ("eval", "ms"),
    "assignment.build_calls": ("build", "count"),
    "assignment.build_ms": ("build", "ms"),
    "assignment.decompose_ms": ("decompose", "ms"),
    "assignment.decompose_parts": ("decompose", "count"),
    "assignment.waste_ms": ("waste", "ms"),
    "strategy.refusal_ms": ("refusal", "ms"),
    "strategy.dominance_calls": ("dominance", "count"),
    "strategy.opponent_profiles": ("dominance", "count"),
    "strategy.dominance_ms": ("dominance", "ms"),
    "sweeps.units": ("sweep", "count"),
    "sweeps.ms": ("sweep", "ms"),
}


class Tracer:
    """Wraps the layers of one imported program and accumulates their spans."""

    def __init__(self) -> None:
        self.layers = list(LAYER_SITES)
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_layer = array("B")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, layer, child seconds]
        self.next_id = 0
        self.op = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.solved: set = set()
        self.installed: set[str] = set()
        self.broken: set[str] = set()

    def install(self, rm) -> None:
        """Wrap every binding in LAYER_SITES that ``rm``'s modules still have."""
        hooks = {
            "solve": self._after_solve,
            "decompose": self._after_decompose,
            "sweep": self._after_sweep,
        }
        for layer, sites in LAYER_SITES.items():
            for module_name, attr in sites:
                module = getattr(rm, module_name)
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._wrap(fn, layer, hooks.get(layer)))
                    self.installed.add(layer)

    def _wrap(self, fn, layer, after):
        code = self.layers.index(layer)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            nested = parent is not None and parent[1] == layer
            frame = [self.next_id, layer, 0.0]
            self.next_id += 1
            before = self.calls["eval"]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[2] += duration
                self.self_s[layer] += duration - frame[2]
                if not nested:
                    self.calls[layer] += 1
                self.span_id.append(frame[0])
                self.span_parent.append(parent[0] if parent is not None else -1)
                self.span_op.append(self.op)
                self.span_layer.append(code)
                self.span_start.append(start)
                self.span_end.append(end)
            if layer == "dominance":
                # One candidate and one truth evaluation per opponent profile.
                self.counts["opponent_evals"] += self.calls["eval"] - before
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def _guarded(self, metric, compute):
        if metric in self.broken:
            return
        try:
            compute()
        except (AttributeError, TypeError, IndexError):
            self.broken.add(metric)

    def _after_solve(self, args, result):
        # A (market, profile) pair solved for the first time; the set sizes
        # summed are those of first-time solves only.
        def distinct():
            key = args[:2]
            if key not in self.solved:
                self.solved.add(key)
                self._guarded("mechanisms.minimizers", lambda: self.counts.update(
                    minimizers=len(result.members)))

        self._guarded("mechanisms.solve_distinct", distinct)

    def _after_decompose(self, args, result):
        self._guarded("assignment.decompose_parts", lambda: self.counts.update(
            decompose_parts=len(result.parts)))

    def _after_sweep(self, args, result):
        self._guarded("sweeps.units", lambda: self.counts.update(units=result.checked))

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric whose layer was found, as (value, unit)."""
        ms = {layer: 1000.0 * seconds for layer, seconds in self.self_s.items()}
        values = {
            "specfile.parse_ms": ms.get("parse", 0.0),
            "mechanisms.solve_calls": self.calls["solve"],
            "mechanisms.solve_distinct": len(self.solved),
            "mechanisms.minimizers": self.counts["minimizers"],
            "mechanisms.solve_ms": ms.get("solve", 0.0),
            "mechanisms.eval_calls": self.calls["eval"],
            "mechanisms.average_ms": ms.get("eval", 0.0),
            "assignment.build_calls": self.calls["build"],
            "assignment.build_ms": ms.get("build", 0.0),
            "assignment.decompose_ms": ms.get("decompose", 0.0),
            "assignment.decompose_parts": self.counts["decompose_parts"],
            "assignment.waste_ms": ms.get("waste", 0.0),
            "strategy.refusal_ms": ms.get("refusal", 0.0),
            "strategy.dominance_calls": self.calls["dominance"],
            "strategy.opponent_profiles": self.counts["opponent_evals"] // 2,
            "strategy.dominance_ms": ms.get("dominance", 0.0),
            "sweeps.units": self.counts["units"],
            "sweeps.ms": ms.get("sweep", 0.0),
        }
        return {
            name: (values[name], unit)
            for name, (layer, unit) in METRICS.items()
            if layer in self.installed and name not in self.broken
        }

    def absent(self) -> list[str]:
        return [name for name in METRICS if name not in self.metrics()]

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV, times in microseconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.span_start, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,parent,op,layer,start_us,end_us\n")
            for i in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[i]},{self.span_parent[i]},{self.span_op[i]},"
                    f"{self.layers[self.span_layer[i]]},"
                    f"{(self.span_start[i] - origin) * 1e6:.1f},"
                    f"{(self.span_end[i] - origin) * 1e6:.1f}\n"
                )

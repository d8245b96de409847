"""Spans and counters recorded around calls into bitwave's public functions.

Wrappers are installed on the module attributes that bitwave's callers look
up at call time (``am.simulate_inference``, ``wir.with_bits`` ...), so the
program itself is not edited. Spans are kept in memory as parallel lists
(name, parent, start, end) and written out once the run ends. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module attribute, span name) pairs; the module is looked up in ``mods``.
SPANS = (
    ("bse.execute_dot", "bitslice_engine.execute_dot"),
    ("bse.reconstruct", "bitslice_engine.reconstruct"),
    ("am.simulate_inference", "arch_model.simulate_inference"),
    ("am.max_power", "arch_model.max_power"),
    ("am.simulate_baseline", "arch_model.simulate_baseline"),
    ("am.load_arch_config", "arch_model.load_arch_config"),
    ("am.load_baseline_spec", "arch_model.load_baseline_spec"),
    ("wir.with_bits", "workload_ir.with_bits"),
    ("wir.load_workload", "workload_ir.load_workload"),
    ("dc.apply_device_overrides", "device_catalog.apply_device_overrides"),
    ("dse.explore", "dse.explore"),
    ("dse.enumerate_configs", "dse.enumerate_configs"),
    ("dse.load_search_space", "dse.load_search_space"),
)
# Called tens of thousands of times per command: counted, not spanned.
# arch_model imports them by name, so its own attributes are the ones patched.
COUNTED = (
    ("am.min_laser_power", "device_catalog.min_laser_power.calls"),
    ("am.aggregate_photoloss", "device_catalog.aggregate_photoloss.calls"),
)
MAIN = "cli.main"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Tracer:
    """Records spans and counters while installed; restores the originals on uninstall."""

    def __init__(self, mods: dict):
        self.mods = mods
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        fc = mods["bse"].FC

        def on_dot(result, a, w, p_a, p_w, b, mode=fc):
            na, nw = _ceil_div(p_a, b), _ceil_div(p_w, b)
            steps = na * nw if mode == fc else na
            lanes_per_step = len(a) if mode == fc else len(a) * nw
            self.counts["bitslice_engine.steps"] += steps
            self.counts["bitslice_engine.lane_products"] += steps * lanes_per_step

        def on_sim(result, model, *args, **kwargs):
            self.counts["arch_model.layers_simulated"] += len(model.layers)

        def on_explore(result, models, space, *args, **kwargs):
            enumerated = math.prod(len(set(getattr(space, d))) for d in ("v", "k", "b", "V", "K"))
            self.counts["dse.configs_enumerated"] += enumerated
            self.counts["dse.configs_evaluated"] += len(result.ranked)
            self.counts["dse.evaluated_model_pairs"] += len(result.ranked) * len(models)
            for cause in ("max_power", "laser"):
                self.counts[f"dse.rejected.{cause}"] += result.diagnostics.get(cause, 0)

        # Called with (result, *args, **kwargs) after a spanned call returns.
        self._after = {
            "bitslice_engine.execute_dot": on_dot,
            "arch_model.simulate_inference": on_sim,
            "dse.explore": on_explore,
        }

    # -- recording -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = time.perf_counter()
            self._stack.pop()

    def _spanned(self, name: str, fn):
        after = self._after.get(name)
        call = self.call

        def wrapper(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._spanned), (COUNTED, self._counted)):
            for target, name in table:
                mod_key, attr = target.split(".")
                mod = self.mods[mod_key]
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, make(name, orig))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    # -- reporting -------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total seconds and self seconds."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child = defaultdict(float)
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls[name] += 1
            total[name] += dur
            if self.parents[i] >= 0:
                child[self.parents[i]] += dur
        self_s: Counter = Counter()
        for i, name in enumerate(self.names):
            self_s[name] += self.ends[i] - self.starts[i] - child[i]
        return calls, total, self_s

    def children_of(self, child: str, parent: str) -> int:
        """How many ``child`` spans ran directly inside a ``parent`` span."""
        return sum(
            1 for i, name in enumerate(self.names)
            if name == child and self.parents[i] >= 0 and self.names[self.parents[i]] == parent
        )

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each normalised per ``cli.main`` command where it is a count or a time."""
        calls, total, self_s = self.totals()
        n_cmd = max(calls[MAIN], 1)
        out: dict[str, tuple[float, str]] = {}
        for _, name in SPANS + ((MAIN, MAIN),):
            out[f"{name}.calls"] = (calls[name] / n_cmd, "count")
            out[f"{name}.self_s"] = (self_s[name] / n_cmd, "s")
        for _, name in COUNTED:
            out[name] = (self.counts[name] / n_cmd, "count")
        c = self.counts
        for name in ("bitslice_engine.steps", "bitslice_engine.lane_products",
                     "arch_model.layers_simulated", "dse.configs_enumerated",
                     "dse.configs_evaluated", "dse.rejected.max_power", "dse.rejected.laser"):
            out[name] = (c[name] / n_cmd, "count")
        dot_s = total["bitslice_engine.execute_dot"]
        out["bitslice_engine.ns_per_lane_product"] = (
            _ratio(dot_s * 1e9, c["bitslice_engine.lane_products"]), "ns")
        out["arch_model.us_per_layer"] = (
            _ratio(self_s["arch_model.simulate_inference"] * 1e6, c["arch_model.layers_simulated"]), "us")
        out["dse.feasible_ratio"] = (
            _ratio(c["dse.configs_evaluated"], c["dse.configs_enumerated"]), "ratio")
        out["dse.useful_sim_ratio"] = (
            _ratio(c["dse.evaluated_model_pairs"],
                   self.children_of("arch_model.simulate_inference", "dse.explore")), "ratio")
        out["cli.self_share"] = (_ratio(self_s[MAIN], total[MAIN]), "ratio")
        return out

    def write(self, path: Path) -> None:
        """Write every span as CSV: id, name, parent id, start and end in ns from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_ns,end_ns\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.parents[i]},"
                         f"{round((self.starts[i] - t0) * 1e9)},{round((self.ends[i] - t0) * 1e9)}\n")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 where the layer did no work on this workload."""
    return num / den if den else 0.0

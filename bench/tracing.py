"""Per-layer tracing for the benchmark, installed from outside the package.

A `Tracer` wraps the public functions named in `TARGETS` at run time.  A
plain function is rebound in every ``kolmex`` module namespace that holds
the same function object (which catches ``from .graphs import ...``
imports); a method is replaced on its class.  Each recorded call is a span
(function id, parent span, start, end) kept in flat in-memory arrays and
written out only when the batch ends.  Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# (qualified name, reported stats, extra count).  The qualified name is
# "<module>.<function>" or "<module>.<Class>.<method>" under kolmex.  An
# extra count is (stat name, fn(args, result) -> int), summed over calls.
TARGETS = (
    ("rng.SplitMix64.sample_sorted", ("calls", "self_s"), None),
    ("complexity.synthetic_zipf_corpus", ("self_s",), None),
    ("fields.rs_wordset", ("self_s",), None),
    ("fields.min_weight_of_rowspace", ("calls", "self_s"), None),
    ("codes.sample_codes", ("calls", "self_s"), None),
    ("codes.Code.__post_init__", ("self_s",), None),
    ("codes.code_params", ("calls", "self_s"), None),
    ("codes.partition_sum", ("calls", "self_s"), None),
    ("codes.cloud_rows", ("self_s",), None),
    ("complexity.ComplexityProxy.proxy_complexity", ("calls", "self_s"), None),
    ("complexity.ComplexityProxy.complexity_bits", ("calls", "self_s"), None),
    ("complexity.lzw_compress", ("calls", "self_s", "bytes_in"),
     ("bytes_in", lambda args, result: len(args[0]))),
    ("complexity.Description.serialize", ("calls", "self_s"), None),
    ("complexity.kolmogorov_order", ("self_s",), None),
    ("complexity.zipf_analyze", ("self_s",), None),
    ("graphs.enumerate_vacuum_graphs", ("calls", "self_s", "classes"),
     ("classes", lambda args, result: len(result))),
    ("graphs.canonical_label", ("calls", "self_s"), None),
    ("graphs.graph_from_label", ("calls", "self_s"), None),
    ("graphs.enumerate_cuts", ("calls", "self_s"), None),
    ("graphs.multigraph_data", ("calls",), None),
    ("feynman.graph_expansion", ("self_s",), None),
    ("feynman.graph_weight", ("calls", "self_s"), None),
    ("feynman.gaussian_oracle", ("self_s",), None),
    ("feynman.wick_pairing_sum", ("calls",), None),
    ("hopf.enumerate_connected_oriented", ("self_s",), None),
    ("hopf.coproduct_of_generator", ("calls", "self_s", "misses", "hit_ratio"), None),
    ("hopf.coproduct_of_monomial", ("calls", "self_s", "terms"),
     ("terms", lambda args, result: len(result))),
    ("hopf.tensor_mul", ("calls", "self_s"), None),
    ("hopf.antipode", ("calls", "self_s"), None),
    ("renorm.GMap.__call__", ("calls", "self_s"), None),
    ("renorm.MSElement.__mul__", ("calls", "self_s"), None),
    ("renorm.MSElement.__add__", ("calls", "self_s"), None),
    ("renorm.birkhoff", ("calls",), None),
    ("renorm.character_from_json", ("self_s",), None),
    ("halting.integer_window_order", ("self_s",), None),
    ("halting.phi_partial", ("self_s",), None),
    ("halting.classify_orbit", ("calls", "self_s", "certified", "certified_ratio"),
     ("certified", lambda args, result: result.verdict != "inconclusive")),
    ("svgplot.cloud_svg", ("self_s",), None),
)

STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "bytes_in": "bytes",
    "classes": "count",
    "misses": "count",
    "hit_ratio": "ratio",
    "terms": "count",
    "certified": "count",
    "certified_ratio": "ratio",
}

# Computed by the run from all its batches, not by one batch's tracer.
OVERHEAD_RATIO = "trace.overhead_ratio"
TRACE_UNITS = {"trace.spans": "count", OVERHEAD_RATIO: "ratio"}


def per_layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{qual}.{stat}" for qual, stats, _ in TARGETS for stat in stats]
    return names + list(TRACE_UNITS)


def metric_unit(name: str) -> str:
    return TRACE_UNITS.get(name) or STAT_UNITS[name.rsplit(".", 1)[1]]


def self_times(starts, ends, parents) -> list[int]:
    """Self time of each span: its duration minus its direct children's."""
    child = [0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    return [ends[i] - starts[i] - child[i] for i in range(len(starts))]


class Tracer:
    """Records spans around the wrapped functions while `recording` is set."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter_ns):
        self.targets = targets
        self.clock = clock
        self.recording = False
        self.fn_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.extras = [dict() for _ in targets]  # per target: stat -> total
        self.misses = [0] * len(targets)
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every target; the originals come back with `uninstall`."""
        for qual, _, _ in self.targets:
            importlib.import_module("kolmex." + qual.split(".", 1)[0])
        modules = [m for name, m in sys.modules.items()
                   if name == "kolmex" or name.startswith("kolmex.")]
        for fid, (qual, _, extra) in enumerate(self.targets):
            mod_name, *path = qual.split(".")
            mod = sys.modules[f"kolmex.{mod_name}"]
            if len(path) == 2:
                cls = getattr(mod, path[0])
                orig = cls.__dict__[path[1]]
                setattr(cls, path[1], self._wrap(fid, orig, extra))
                self._restore.append((cls, path[1], orig))
                continue
            orig = getattr(mod, path[0])
            wrapper = self._wrap(fid, orig, extra)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, fid: int, fn, extra):
        clock = self.clock
        stack = self._stack
        fn_ids, parents, starts, ends = self.fn_ids, self.parents, self.starts, self.ends
        totals = self.extras[fid]
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(starts)
            fn_ids.append(fid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            if cache_info is not None:
                before = cache_info().misses
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if cache_info is not None:
                self.misses[fid] += cache_info().misses - before
            if extra is not None:
                stat, count = extra
                totals[stat] = totals.get(stat, 0) + int(count(args, result))
            return result

        if cache_info is not None:
            wrapper.cache_info = cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-target stats; every stat of every target, zero if never called."""
        calls = [0] * len(self.targets)
        self_ns = [0] * len(self.targets)
        for fid, t in zip(self.fn_ids, self_times(self.starts, self.ends, self.parents)):
            calls[fid] += 1
            self_ns[fid] += t
        out = {}
        for fid, (qual, stats, _) in enumerate(self.targets):
            n = calls[fid]
            certified = self.extras[fid].get("certified", 0)
            values = {
                "calls": n,
                "self_s": self_ns[fid] / 1e9,
                "misses": self.misses[fid],
                "hit_ratio": 1 - self.misses[fid] / n if n else 0.0,
                "certified_ratio": certified / n if n else 0.0,
                **self.extras[fid],
            }
            for stat in stats:
                out[f"{qual}.{stat}"] = values.get(stat, 0)
        out["trace.spans"] = len(self.starts)
        return out

    def calls_by_layer(self) -> dict:
        counts: dict = {}
        for fid in self.fn_ids:
            layer = self.targets[fid][0].split(".", 1)[0]
            counts[layer] = counts.get(layer, 0) + 1
        return counts

    def write_spans(self, path):
        """One line per span: id, parent id, function, start ns, end ns."""
        names = [qual for qual, _, _ in self.targets]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.starts)):
                fh.write(f"{i}\t{self.parents[i]}\t{names[self.fn_ids[i]]}\t"
                         f"{self.starts[i]}\t{self.ends[i]}\n")

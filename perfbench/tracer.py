"""Spans around fault_atlas's public functions, recorded from outside the package.

install() wraps every public module-level function of each fault_atlas
module, plus WitnessStore.load and WitnessStore.save, and puts the wrapper at
every import site: each fault_atlas module namespace that holds the function.
While `recording` is set, each call appends one span (name, parent span,
start and end in perf_counter_ns) to flat arrays kept in memory, and a few
results are counted where they are returned.  dump() writes the spans out;
summary() reduces them to per-function and per-layer totals.  A layer is the
module a function is defined in.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import json
import pkgutil
import sys
import time
from array import array

# The board tables behind topology.tables_ms.
TABLES = frozenset({"topology.placements", "topology.fault_curves",
                    "topology.placement_index", "topology.curve_index"})


def _count(key: str, measure):
    def hook(counts: dict, result) -> None:
        counts[key] = counts.get(key, 0) + measure(result)
    return hook


# Counts taken from results at the boundary where the work happens.
HOOKS = {
    "search.find_fault_free": _count("search.nodes", lambda r: r.nodes),
    "search.find_tiling": _count("search.nodes", lambda r: r.nodes),
    "counting.counting_feasible": _count("counting.parity_classes", lambda r: r.parity_classes_examined),
    "tiling.encode": _count("tiling.encode_bytes", lambda r: len(r.encode("utf-8"))),
    "witnesses.WitnessStore.load": _count("witnesses.store_hits", lambda r: r is not None),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.recording = False
        self.gc_ns = 0
        self.gc_collections = 0
        self._gc_started: int | None = None
        self._fault_curves = None

    def install(self) -> None:
        import fault_atlas

        for info in pkgutil.iter_modules(fault_atlas.__path__):
            importlib.import_module(f"fault_atlas.{info.name}")
        modules = [m for n, m in sys.modules.items() if n == "fault_atlas" or n.startswith("fault_atlas.")]
        self._fault_curves = sys.modules["fault_atlas.topology"].fault_curves
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(mod, attr, found[1])
        store = sys.modules["fault_atlas.witnesses"].WitnessStore
        for method in ("load", "save"):
            setattr(store, method, self._wrap(getattr(store, method), f"witnesses.WitnessStore.{method}"))
        gc.callbacks.append(self._on_gc)

    def _wrap(self, fn, name: str):
        sid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(sid)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns() if self.recording else None
        elif self._gc_started is not None:
            self.gc_ns += time.perf_counter_ns() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    def dump(self, path) -> None:
        """Write the spans: one JSON header line, then the four arrays in order."""
        header = {"names": self.names, "spans": len(self.name_of),
                  "arrays": ["name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for column in (self.name_of, self.parent, self.start, self.end):
                column.tofile(f)

    def summary(self) -> dict:
        """Per-function calls and inclusive ns; per-layer outermost calls, inclusive and self ns."""
        layer_names = sorted({n.partition(".")[0] for n in self.names})
        layer_bit = {layer: 1 << i for i, layer in enumerate(layer_names)}
        table_bit = 1 << len(layer_names)
        span_bits = [layer_bit[n.partition(".")[0]] | (table_bit if n in TABLES else 0) for n in self.names]
        n = len(self.name_of)
        children = [0] * n
        above = [0] * n  # bits of the layers (and table group) among a span's ancestors
        functions = {name: [0, 0] for name in self.names}
        layers = {layer: [0, 0, 0] for layer in layer_names}
        tables_ns = 0
        for i in range(n):
            sid = self.name_of[i]
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                children[p] += dur
                above[i] = above[p] | span_bits[self.name_of[p]]
            name = self.names[sid]
            totals = functions[name]
            totals[0] += 1
            totals[1] += dur
            bits = span_bits[sid]
            if bits & table_bit and not above[i] & table_bit:
                tables_ns += dur
            if not above[i] & bits & ~table_bit:
                layer = layers[name.partition(".")[0]]
                layer[0] += 1
                layer[1] += dur
        for i in range(n):
            layers[self.names[self.name_of[i]].partition(".")[0]][2] += (self.end[i] - self.start[i]) - children[i]
        return {
            "spans": n,
            "functions": functions,
            "layers": layers,
            "tables_ns": tables_ns,
            "counts": dict(self.counts),
            "gc_ns": self.gc_ns,
            "gc_collections": self.gc_collections,
            "boards_cached": self._fault_curves.cache_info().currsize,
        }


# The layers whose self times the coverage share adds up; `cli` is glue.
LISTED_LAYERS = ("search", "topology", "counting", "expansion", "witnesses", "tiling", "classify", "charts")

def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes; boards_cached is the largest."""
    total = {"functions": {}, "layers": {}, "tables_ns": 0, "counts": {}, "gc_ns": 0,
             "gc_collections": 0, "boards_cached": 0}
    for s in summaries:
        for key in ("functions", "layers"):
            for name, values in s[key].items():
                into = total[key].setdefault(name, [0] * len(values))
                for i, v in enumerate(values):
                    into[i] += v
        for name, v in s["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + v
        for key in ("tables_ns", "gc_ns", "gc_collections"):
            total[key] += s[key]
        total["boards_cached"] = max(total["boards_cached"], s["boards_cached"])
    return total


def layer_metrics(summaries: list[dict], wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced round whose timed phase took wall_s."""
    t = merge(summaries)

    def layer(name):  # [outermost calls, their inclusive ns, self ns]
        return t["layers"].get(name, [0, 0, 0])

    def func(name):  # [calls, inclusive ns]
        return t["functions"].get(name, [0, 0])

    def per_s(count, ns):
        return count / (ns / 1e9) if ns else 0.0

    nodes = t["counts"].get("search.nodes", 0)
    classes = t["counts"].get("counting.parity_classes", 0)
    expands, witnesses = func("expansion.expand")[0], func("witnesses.witness")[0]
    loads, hits = func("witnesses.WitnessStore.load")[0], t["counts"].get("witnesses.store_hits", 0)
    out = {
        "search.calls": layer("search")[0], "search.ms": layer("search")[1] / 1e6,
        "search.nodes": nodes, "search.nodes_per_s": per_s(nodes, layer("search")[1]),
        "topology.tables_ms": t["tables_ns"] / 1e6, "topology.boards_cached": t["boards_cached"],
        "py.gc_ms": t["gc_ns"] / 1e6, "py.gc_collections": t["gc_collections"],
        "counting.calls": layer("counting")[0], "counting.ms": layer("counting")[1] / 1e6,
        "counting.parity_classes": classes,
        "counting.classes_per_s": per_s(classes, func("counting.counting_feasible")[1]),
        "expansion.calls": expands, "witnesses.calls": witnesses,
        "witnesses.expands_per_witness": expands / witnesses if witnesses else 0.0,
        "tiling.verify_calls": func("tiling.verify")[0], "tiling.verify_ms": func("tiling.verify")[1] / 1e6,
        "tiling.encode_ms": func("tiling.encode")[1] / 1e6,
        "tiling.encode_bytes": t["counts"].get("tiling.encode_bytes", 0),
        "tiling.decode_calls": func("tiling.decode")[0], "tiling.decode_ms": func("tiling.decode")[1] / 1e6,
        "witnesses.store_loads": loads, "witnesses.store_hits": hits,
        "witnesses.store_hit_ratio": hits / loads if loads else 0.0,
        "classify.calls": layer("classify")[0], "classify.ms": layer("classify")[1] / 1e6,
        "charts.ms": layer("charts")[1] / 1e6,
    }
    for name in LISTED_LAYERS + ("cli",):
        out[f"{name}.self_ms"] = layer(name)[2] / 1e6
    covered = sum(layer(name)[2] for name in LISTED_LAYERS) / 1e9
    out["trace.self_coverage_pct"] = 100 * covered / wall_s
    return out

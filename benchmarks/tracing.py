"""Span tracing of demkit's layers, installed from outside the package.

:func:`install` replaces public demkit functions with recording wrappers in
every ``demkit`` module namespace that holds them, so a caller that did
``from .cover import vertex_cover_number`` is traced exactly like one that
calls ``cover.vertex_cover_number``. :func:`uninstall` puts the originals
back and :func:`restored` confirms it.

Each timed call records a span (name, start, end, parent span, operation id)
in compact in-memory arrays; nothing is written until :meth:`Tracer.write`.
Per-node helpers of the branch and bound are only counted, which keeps the
overhead of the search near zero. Self time is derived afterwards as a
span's duration minus the durations of its direct children.

Work the hitting-set engine does inside ``vertex_cover_number`` is left out
of the ``hitting.*`` figures and shows only in ``cover.*``, so the layers of
one ``dem_number`` call add up to its time.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute, span name); a dotted attribute names a method
TIMED = (
    ("demkit.exprs", "parse_expr", "exprs.parse"),
    ("demkit.exprs", "build", "exprs.build"),
    ("demkit.graph", "Graph.distances_from", "graph.bfs"),
    ("demkit.monitoring", "monitor_matrix", "monitoring.matrix"),
    ("demkit.monitoring", "greedy_dem", "monitoring.greedy"),
    ("demkit.monitoring", "dem_number", "monitoring.dem"),
    ("demkit.cover", "vertex_cover_number", "cover"),
    ("demkit.hitting", "minimum_hitting_set", "hitting.search"),
    ("demkit.hitting", "lexicographically_smallest", "hitting.witness"),
    ("demkit.hitting", "exists_hitting_set", "hitting.exists"),
    ("demkit.hitting", "enumerate_minimum_sets", "hitting.enum"),
    ("demkit.formulas", "predicted_dem", "formulas.predict"),
    ("demkit.formulas", "verify_instance", "formulas.verify"),
    ("demkit.formulas", "check_upper_equality_condition", "formulas.sharpness"),
    ("demkit.formulas", "check_lower_equality_condition", "formulas.sharpness"),
)
COUNTED = (
    ("demkit.hitting", "disjoint_lower_bound", "hitting.lb"),
    ("demkit.hitting", "greedy_hitting", "hitting.greedy"),
    ("demkit.hitting", "reduce_columns", "hitting.reduce"),
)
# spans opened by the benchmark itself rather than by a wrapper
CLI_SPAN = "cli.main"
OP_SPAN = "bench.op"

# Spans whose calls are reported per instance in the count ledger: the
# benchmark's own operation span and the verify harness's per-instance calls.
INSTANCE_SPANS = (OP_SPAN, "formulas.verify", "formulas.sharpness")
LEDGER_FIELDS = ("hitting.nodes", "graph.bfs_calls", "hitting.exists_calls")

# per-layer metric -> (how it is derived from the spans, span name)
#   "ms"       time inside outermost spans of that name
#   "self_ms"  self time of spans of that name
#   "calls"    number of spans (or counted calls) of that name
#   "sum"      sum of the value each span's call returned
LAYER_METRICS = {
    "exprs.parse_ms": ("ms", "exprs.parse"),
    "exprs.build_ms": ("ms", "exprs.build"),
    "exprs.build_calls": ("calls", "exprs.build"),
    "graph.bfs_calls": ("calls", "graph.bfs"),
    "graph.bfs_ms": ("ms", "graph.bfs"),
    "monitoring.matrix_ms": ("ms", "monitoring.matrix"),
    "monitoring.matrix_self_ms": ("self_ms", "monitoring.matrix"),
    "monitoring.greedy_ms": ("ms", "monitoring.greedy"),
    "monitoring.dem_calls": ("calls", "monitoring.dem"),
    "monitoring.dem_self_ms": ("self_ms", "monitoring.dem"),
    "cover.calls": ("calls", "cover"),
    "cover.ms": ("ms", "cover"),
    "hitting.search_ms": ("ms", "hitting.search"),
    "hitting.nodes": ("sum", "hitting.search"),
    "hitting.lb_calls": ("calls", "hitting.lb"),
    "hitting.greedy_calls": ("calls", "hitting.greedy"),
    "hitting.reduce_calls": ("calls", "hitting.reduce"),
    "hitting.witness_ms": ("ms", "hitting.witness"),
    "hitting.exists_calls": ("calls", "hitting.exists"),
    "hitting.exists_ms": ("ms", "hitting.exists"),
    "hitting.enum_ms": ("ms", "hitting.enum"),
    "hitting.enum_sets": ("sum", "hitting.enum"),
    "formulas.predict_ms": ("ms", "formulas.predict"),
    "formulas.verify_ms": ("ms", "formulas.verify"),
    "formulas.sharpness_ms": ("ms", "formulas.sharpness"),
    "cli.self_ms": ("self_ms", CLI_SPAN),
}

# what a wrapped call's return value contributes to its span
_PAYLOAD = {
    "hitting.search": lambda result: result[1],  # (value, nodes)
    "hitting.enum": len,
    "formulas.verify": lambda record: record.instance,
    "formulas.sharpness": lambda record: record.instance,
}

_NAMES = tuple(
    dict.fromkeys(
        [CLI_SPAN, OP_SPAN] + [name for _, _, name in TIMED + COUNTED]
    )
)
_NAME_ID = {name: i for i, name in enumerate(_NAMES)}
_COVER = _NAME_ID["cover"]
_HITTING = frozenset(i for name, i in _NAME_ID.items() if name.startswith("hitting."))


def unit(metric: str) -> str:
    return "ms" if LAYER_METRICS[metric][0] in ("ms", "self_ms") else "count"


def scale_times(metrics: dict[str, float], factor: float) -> dict[str, float]:
    """The metrics with every time multiplied by ``factor``, counts as they are."""
    return {k: v * factor if unit(k) == "ms" else v for k, v in metrics.items()}


class Tracer:
    """In-memory span recorder for one traced process or pass."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.outermost = array("b")
        self.in_cover = array("b")  # a hitting.* span inside vertex_cover_number
        self.payload: dict[int, object] = {}
        self.counts = [0] * len(_NAMES)
        self._depth = [0] * len(_NAMES)
        self._stack: list[int] = []
        self.op_id = 0

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.outermost.append(self._depth[nid] == 0)
        self.in_cover.append(nid in _HITTING and self._depth[_COVER] > 0)
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    @contextmanager
    def span(self, name: str, payload: object = None):
        i = self._open(_NAME_ID[name])
        if payload is not None:
            self.payload[i] = payload
        try:
            yield
        finally:
            self._close(i)

    def timed(self, name: str, fn):
        nid = _NAME_ID[name]
        extract = _PAYLOAD.get(name)

        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if extract is not None:
                self.payload[i] = extract(result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        nid = _NAME_ID[name]
        counts, depth = self.counts, self._depth

        def wrapper(*args, **kwargs):
            if not depth[_COVER]:
                counts[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived figures ------------------------------------------------------

    def _self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of :data:`LAYER_METRICS` for the spans so far."""
        own = self._self_times()
        k = len(_NAMES)
        incl, self_ms, calls, total = [0.0] * k, [0.0] * k, list(self.counts), [0] * k
        for i, nid in enumerate(self.name):
            if self.in_cover[i]:
                continue
            if self.outermost[i]:
                incl[nid] += self.end[i] - self.start[i]
            self_ms[nid] += own[i]
            calls[nid] += 1
            value = self.payload.get(i)
            if isinstance(value, int):
                total[nid] += value
        out: dict[str, float] = {}
        for metric, (how, span) in LAYER_METRICS.items():
            nid = _NAME_ID[span]
            if how == "ms":
                out[metric] = incl[nid] * 1000.0
            elif how == "self_ms":
                out[metric] = self_ms[nid] * 1000.0
            elif how == "calls":
                out[metric] = calls[nid]
            else:
                out[metric] = total[nid]
        return out

    def ledger(self) -> dict[str, list[int]]:
        """Exact counts per instance: ``name -> [nodes, bfs calls, exists calls]``.

        An instance is the outermost span of an :data:`INSTANCE_SPANS` kind;
        its payload names it.
        """
        roots = {_NAME_ID[n] for n in INSTANCE_SPANS}
        bfs, exists, search = (
            _NAME_ID["graph.bfs"], _NAME_ID["hitting.exists"], _NAME_ID["hitting.search"],
        )
        root = array("l")
        out: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            r = root[p] if p >= 0 else -1
            if r < 0 and nid in roots:
                r = i
            root.append(r)
        for i, nid in enumerate(self.name):
            if root[i] < 0 or self.in_cover[i]:
                continue
            row = out.setdefault(str(self.payload.get(root[i])), [0, 0, 0])
            if nid == search:
                row[0] += self.payload.get(i, 0)
            elif nid == bfs:
                row[1] += 1
            elif nid == exists:
                row[2] += 1
        return out

    def write(self, path) -> None:
        """Write every span as ``[name, start, end, parent, op]`` rows."""
        rows = [
            [_NAMES[nid], self.start[i], self.end[i], self.parent[i], self.op[i]]
            for i, nid in enumerate(self.name)
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}, fh)
            fh.write("\n")


def _targets(modname: str, attr: str):
    """The original function and every (namespace, name) that holds it."""
    module = sys.modules[modname]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return cls.__dict__[meth], [(cls, meth)]
    fn = getattr(module, attr)
    holders = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "demkit" or name.startswith("demkit.")):
            continue
        for key, value in vars(mod).items():
            if value is fn:
                holders.append((mod, key))
    return fn, holders


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every traced function; returns the patches for :func:`uninstall`."""
    patches = []
    for group, make in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for modname, attr, name in group:
            fn, holders = _targets(modname, attr)
            wrapper = make(name, fn)
            for holder, key in holders:
                patches.append((holder, key, fn))
                setattr(holder, key, wrapper)
    return patches


def uninstall(patches) -> None:
    for holder, key, fn in reversed(patches):
        setattr(holder, key, fn)


def restored(patches) -> bool:
    """True when every patched attribute holds its original object again."""
    return all(
        (holder.__dict__[key] if isinstance(holder, type) else getattr(holder, key)) is fn
        for holder, key, fn in patches
    )

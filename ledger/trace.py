"""Spans around the calls into each layer, recorded from this file only.

Nothing in ``src/`` knows it is traced.  :class:`Tracer` swaps the attribute
each caller resolves — a class's method, or every ``repro`` module global bound
to a function — for a wrapper that records a span

    ``(id, op, layer, name, start, end, parent, count)``

in memory; ``parent`` is the span that was open on the same thread, ``op`` the
operation in flight (the traced replay keeps exactly one), and ``count`` a
layer-specific size measured at the boundary (candidates returned, rows
scanned, bytes encoded).  A layer's *self time* is its span minus the part its
child spans cover.  ``service.aio`` has no entry point to wrap: it is the
client-observed time of each op minus everything the spans cover — event
loops, sockets and thread hand-offs.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import threading
from collections import defaultdict
from importlib import import_module
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional, Sequence


class Span(NamedTuple):
    sid: int
    op: Optional[int]
    layer: str
    name: str
    start: float
    end: float
    parent: Optional[int]
    count: int = 0


RESIDUAL_LAYER = "service.aio"


def _returned(_args: tuple, result: Any) -> int:
    return len(result)


#: ``(layer, module, entry point, count measured at the boundary)``.
#: The cold store is part of the tiering layer: it exists only to back it.
TARGETS: tuple[tuple[str, str, str, Optional[Callable[[tuple, Any], int]]], ...] = (
    ("sqlparser", "repro.sqlparser.parser", "parse_statement", None),
    ("core.compiler", "repro.core.compiler", "compile_entangled", None),
    ("core.safety", "repro.core.safety", "check", None),
    ("core.coordinator", "repro.core.coordinator", "Coordinator.submit", None),
    ("core.coordinator", "repro.core.coordinator", "Coordinator.submit_many", None),
    ("core.coordinator", "repro.core.coordinator", "Coordinator.cancel", None),
    ("core.matchplan", "repro.core.matchplan", "GridProviderIndex.candidates_compiled", _returned),
    ("core.matchplan", "repro.core.matchplan", "GridProviderIndex.add_query", None),
    ("core.matchplan", "repro.core.matchplan", "GridProviderIndex.remove_query", None),
    ("core.matchplan", "repro.core.matchplan", "MatchPlanCache.plan_for", None),
    ("core.matching", "repro.core.matching", "Matcher.find_group",
     lambda _args, group: int(group is not None)),
    ("core.matching", "repro.core.matching", "Matcher.enumerate_groups", _returned),
    ("core.executor", "repro.core.executor", "JointExecutor.execute", None),
    ("core.durability", "repro.core.durability", "WriteAheadLog.append", None),
    ("core.durability", "repro.core.durability", "WriteAheadLog.sync", None),
    ("core.durability", "repro.core.durability", "write_snapshot", None),
    ("core.durability", "repro.core.durability", "DurabilityManager.recover", None),
    ("core.tiering", "repro.core.tiering", "TieredPool.get", None),
    ("core.tiering", "repro.storage.backends", "SQLitePendingStore.put", None),
    ("core.tiering", "repro.storage.backends", "SQLitePendingStore.get", None),
    ("core.tiering", "repro.storage.backends", "SQLitePendingStore.delete", None),
    ("core.tiering", "repro.storage.backends", "SQLitePendingStore.sync", None),
    ("relalg", "repro.relalg.engine", "QueryEngine.execute", None),
    ("storage", "repro.storage.table", "Table.insert", None),
    ("storage", "repro.storage.table", "Table.update_where", lambda args, _n: len(args[0])),
    ("storage", "repro.storage.table", "Table.delete_where", None),
    ("service.remote.codec", "repro.service.remote.codec", "encode_frame", _returned),
    ("service.remote.codec", "repro.service.remote.codec", "decode_frame_body",
     lambda args, _frame: len(args[0])),
    ("service.remote.codec", "repro.service.remote.codec", "encode_done_push", _returned),
)  # fmt: skip

LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS)) + (RESIDUAL_LAYER,)

_FAILED = object()


class Tracer:
    """Installs the wrappers, holds the spans and the per-op windows."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: client-observed ``(op, start, end)`` of every replayed op
        self.windows: list[tuple[int, float, float]] = []
        self._op: Optional[int] = None
        self._ids = itertools.count()
        self._open = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- the replay's observer surface (generator.OpObserver) ---------------------------

    def begin_op(self, index: int) -> None:
        self._op = index

    def end_op(self, index: int, start: float, end: float) -> None:
        self.windows.append((index, start, end))

    # -- patching -----------------------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, entry, measure in TARGETS:
            module = import_module(module_name)
            owner_name, _, attribute = entry.rpartition(".")
            if owner_name:  # a method: every caller resolves it through the class
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                self._swap(owner, attribute, self._wrap(layer, entry, original, measure))
                continue
            # a function: callers resolve whatever global they imported it as
            original = getattr(module, attribute)
            wrapper = self._wrap(layer, entry, original, measure)
            for name, loaded in list(sys.modules.items()):
                if name == "repro" or name.startswith("repro."):
                    for global_name, value in list(vars(loaded).items()):
                        if value is original:
                            self._swap(loaded, global_name, wrapper)

    def _swap(self, owner: Any, attribute: str, wrapper: Any) -> None:
        self._restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _wrap(
        self,
        layer: str,
        name: str,
        original: Callable[..., Any],
        measure: Optional[Callable[[tuple, Any], int]],
    ) -> Callable[..., Any]:
        spans, ids, open_spans = self.spans, self._ids, self._open
        # a generator's work happens while it is consumed: span its iteration
        materialize = inspect.isgeneratorfunction(original)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = open_spans.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = _FAILED
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                count = measure(args, result) if measure and result is not _FAILED else 0
                spans.append(Span(sid, self._op, layer, name, start, end, parent, count))

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced


# -- span arithmetic --------------------------------------------------------------------


def covered(intervals: Sequence[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_seconds(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.sid: (span.end - span.start)
        - covered(children.get(span.sid, ()), span.start, span.end)
        for span in spans
    }


def residual_seconds(spans: Sequence[Span], windows: Sequence[tuple[int, float, float]]) -> float:
    """Client-observed op time that no span covers, summed over the ops."""
    roots: dict[Optional[int], list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is None:
            roots[span.op].append((span.start, span.end))
    return sum(
        (end - start) - covered(roots.get(op, ()), start, end) for op, start, end in windows
    )


def layer_table(
    spans: Sequence[Span], windows: Sequence[tuple[int, float, float]], round_trips: int
) -> dict[str, dict[str, float]]:
    """``{layer: {calls_per_op, self_ms_per_op}}`` for all thirteen layers."""
    ops = max(1, len(windows))
    own = self_seconds(spans)
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span.layer] += 1
        seconds[span.layer] += own[span.sid]
    calls[RESIDUAL_LAYER] = round_trips
    seconds[RESIDUAL_LAYER] = residual_seconds(spans, windows)
    return {
        layer: {
            "calls_per_op": calls[layer] / ops,
            "self_ms_per_op": 1000.0 * seconds[layer] / ops,
        }
        for layer in LAYERS
    }


def ratios(
    spans: Sequence[Span], ops: int, answered: int
) -> dict[str, tuple[float, str]]:
    """The waste and size ratios measured at the layer boundaries."""
    by_sid = {span.sid: span for span in spans}
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def mean_count(name: str) -> float:
        found = by_name.get(name, ())
        return sum(span.count for span in found) / len(found) if found else 0.0

    wal_bytes = wire_bytes = 0
    for span in by_name.get("encode_frame", []) + by_name.get("encode_done_push", []):
        parent = by_sid.get(span.parent) if span.parent is not None else None
        if parent is not None and parent.layer == "core.durability":
            wal_bytes += span.count
        else:
            wire_bytes += span.count
    page_in_parents = {span.parent for span in by_name.get("SQLitePendingStore.get", ())}
    page_ins = [span for span in by_name.get("TieredPool.get", ()) if span.sid in page_in_parents]
    attempts = by_name.get("Matcher.find_group", []) + by_name.get("Matcher.enumerate_groups", [])
    snapshots = by_name.get("write_snapshot", ())
    return {
        "matching.groups_per_attempt": (
            sum(span.count for span in attempts) / len(attempts) if attempts else 0.0,
            "ratio",
        ),
        "matchplan.candidates_per_probe": (
            mean_count("GridProviderIndex.candidates_compiled"),
            "ratio",
        ),
        "storage.rows_scanned_per_update": (mean_count("Table.update_where"), "rows"),
        "durability.wal_bytes_per_op": (wal_bytes / ops, "bytes/op"),
        "durability.snapshot_ms_max": (
            1000.0 * max((span.end - span.start for span in snapshots), default=0.0),
            "ms",
        ),
        "tiering.page_ins_per_answered": (len(page_ins) / answered if answered else 0.0, "ratio"),
        "tiering.page_in_ms": (
            1000.0 * sum(span.end - span.start for span in page_ins) / len(page_ins)
            if page_ins
            else 0.0,
            "ms",
        ),
        "codec.bytes_per_op": (wire_bytes / ops, "bytes/op"),
    }

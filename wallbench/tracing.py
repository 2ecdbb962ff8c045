"""Per-layer tracing from outside the program.

The traced run wraps the public entry point of each layer (one method per
row of :data:`ENTRY_POINTS`) with a function that records a span: which
entry point, start and end, the span that called it, and the benchmark
operation it belongs to.  Spans stay in memory and are written out when
the run ends.  Nothing under ``src/`` changes: the wrappers are installed
on the classes for the traced segments of a run and removed afterwards.

A span's *self time* is the part of its interval not covered by a child
span.  Attribution sweeps each operation's timeline: every instant goes to
the innermost active span (split evenly if spans of several threads are
innermost at once), or to ``unattributed`` when no span is active, so per
operation the self times plus the unattributed time add up to the
operation's duration exactly.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


def _delta_size(args, result) -> int:
    delta = args[2]
    return delta.atom_count() if hasattr(delta, "atom_count") else delta.entry_count()


#: (span key, module, class, method, value recorded from (args, result)).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("sources.execute", "repro.sources.base", "SourceDatabase", "execute", None),
    ("sources.announce", "repro.sources.base", "SourceDatabase",
     "take_announcement_versioned", None),
    ("sources.poll", "repro.core.links", "DirectLink", "poll_many", None),
    ("sources.pushdown", "repro.sources.sqlite_source", "SQLiteSource", "poll_and_query", None),
    ("update_queue.flush", "repro.core.update_queue", "UpdateQueue", "flush",
     lambda args, result: len(result[1])),
    ("iup.txn", "repro.core.iup", "IncrementalUpdateProcessor", "run_transaction", None),
    ("rules.fire", "repro.core.rules", "BagNodeRule", "fire", None),
    ("rules.fire", "repro.core.rules", "SetNodeRule", "fire", None),
    ("relalg.evaluate", "repro.relalg.evaluator", "Evaluator", "evaluate", None),
    ("local_store.apply", "repro.core.local_store", "LocalStore", "apply_delta", _delta_size),
    ("vap.materialize", "repro.core.vap", "VirtualAttributeProcessor", "materialize", None),
    ("vap.plan", "repro.core.vap", "VirtualAttributeProcessor", "plan", None),
    ("vap.construct", "repro.core.vap", "VirtualAttributeProcessor", "construct", None),
    ("vap.invalidate", "repro.core.vap", "VirtualAttributeProcessor", "invalidate_cache", None),
    ("vap.lookup", "repro.core.vap_cache", "VAPTempCache", "lookup",
     lambda args, result: result is not None),
    ("query_processor.query", "repro.core.query_processor", "QueryProcessor", "query", None),
    ("durability.commit", "repro.durability.manager", "DurabilityManager",
     "on_transaction_commit", None),
    ("durability.wal_append", "repro.durability.wal", "WriteAheadLog", "append",
     lambda args, result: result),
    ("durability.checkpoint", "repro.durability.manager", "DurabilityManager", "checkpoint", None),
    ("replication.tick", "repro.replication.shipper", "WalShipper", "tick", None),
    ("replication.apply", "repro.replication.replica", "ReplicaMediator", "apply_record",
     lambda args, result: bool(result)),
    ("replication.route", "repro.replication.router", "ReadRouter", "query", None),
)

#: Span keys in report order.
SPAN_KEYS = tuple(dict.fromkeys(key for key, *_ in ENTRY_POINTS))

# A span is a list: [key, start, end, parent span or None, op index, value].
KEY, START, END, PARENT, OP, VALUE = range(6)


class LayerTracer:
    """Records spans around layer entry points while an operation runs."""

    def __init__(self, counters: Callable[[], Dict[str, float]]):
        self.counters = counters
        self.spans: List[list] = []
        self.ops: List[list] = []  # [kind, start, end]
        self.op: Optional[int] = None
        self.main_ident = threading.get_ident()
        self.main_stack: List[list] = []
        self._local = threading.local()
        self._saved: List[Tuple[type, str, object]] = []
        #: Counter movement over the traced measured phases only.
        self.window: Dict[str, float] = {}
        self._base: Optional[Dict[str, float]] = None

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        for key, module, cls_name, method, value_fn in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(key, original, value_fn))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def _wrap(self, key: str, original: Callable, value_fn: Optional[Callable]):
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return original(*args, **kwargs)
            if threading.get_ident() == tracer.main_ident:
                stack = tracer.main_stack
                parent = stack[-1] if stack else None
            else:
                # A worker of the mediator's poll pool: its caller is
                # whatever the main thread is inside right now.
                stack = getattr(tracer._local, "stack", None)
                if stack is None:
                    stack = tracer._local.stack = []
                parent = stack[-1] if stack else (
                    tracer.main_stack[-1] if tracer.main_stack else None
                )
            span = [key, 0.0, 0.0, parent, op, None]
            tracer.spans.append(span)
            stack.append(span)
            span[START] = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf()
                stack.pop()
            if value_fn is not None:
                span[VALUE] = value_fn(args, result)
            return result

        return traced

    # -- operations and the counter window --------------------------------------
    def begin(self, kind: str) -> None:
        self.op = len(self.ops)
        self.ops.append([kind, perf(), 0.0])

    def end(self) -> None:
        self.ops[self.op][2] = perf()
        self.op = None

    def start_window(self) -> None:
        self._base = self.counters()

    def stop_window(self) -> None:
        now = self.counters()
        for name, value in now.items():
            self.window[name] = self.window.get(name, 0.0) + value - self._base.get(name, 0.0)
        self._base = None

    pause = stop_window
    resume = start_window

    # -- analysis ---------------------------------------------------------------
    def attribute(self) -> Dict[str, object]:
        """Self time per span key and unattributed time, summed over all
        operations; also checks that each operation reconciles."""
        self_s: Dict[str, float] = {key: 0.0 for key in SPAN_KEYS}
        by_op: Dict[int, List[list]] = {}
        for span in self.spans:
            by_op.setdefault(span[OP], []).append(span)
        unattributed = 0.0
        total = 0.0
        worst_gap = 0.0
        bad_nesting = 0
        for index, (kind, start, end) in enumerate(self.ops):
            spans = by_op.get(index, ())
            op_self: Dict[int, float] = {}
            op_unattributed = 0.0
            events = []
            for span in spans:
                parent = span[PARENT]
                if parent is not None and not (
                    parent[START] <= span[START] and span[END] <= parent[END]
                ):
                    bad_nesting += 1
                events.append((span[START], 1, span))
                events.append((span[END], 0, span))
            events.sort(key=lambda e: (e[0], e[1]))
            active: Dict[int, list] = {}
            busy_children: Dict[int, int] = {}
            previous = start
            for when, is_start, span in events:
                step = when - previous
                if step > 0:
                    leaves = [s for i, s in active.items() if not busy_children.get(i)]
                    if leaves:
                        share = step / len(leaves)
                        for leaf in leaves:
                            op_self[id(leaf)] = op_self.get(id(leaf), 0.0) + share
                    else:
                        op_unattributed += step
                previous = when
                parent = span[PARENT]
                if is_start:
                    active[id(span)] = span
                    if parent is not None and id(parent) in active:
                        busy_children[id(parent)] = busy_children.get(id(parent), 0) + 1
                else:
                    active.pop(id(span), None)
                    if parent is not None and busy_children.get(id(parent)):
                        busy_children[id(parent)] -= 1
            op_unattributed += max(0.0, end - previous)
            attributed = 0.0
            for span in spans:
                share = op_self.get(id(span), 0.0)
                self_s[span[KEY]] += share
                attributed += share
            duration = end - start
            worst_gap = max(worst_gap, abs(attributed + op_unattributed - duration))
            unattributed += op_unattributed
            total += duration
        return {
            "self_s": self_s,
            "unattributed_s": unattributed,
            "ops_s": total,
            "worst_reconcile_gap_s": worst_gap,
            "bad_nesting": bad_nesting,
        }

    def calls(self) -> Dict[str, int]:
        out = {key: 0 for key in SPAN_KEYS}
        for span in self.spans:
            out[span[KEY]] += 1
        return out

    def values(self, key: str) -> List[object]:
        return [span[VALUE] for span in self.spans if span[KEY] == key]

    def under(self, key: str, ancestor: str) -> int:
        """Spans of ``key`` with an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span[KEY] != key:
                continue
            parent = span[PARENT]
            while parent is not None and parent[KEY] != ancestor:
                parent = parent[PARENT]
            count += parent is not None
        return count

    def inclusive_s(self, key: str) -> float:
        return sum(s[END] - s[START] for s in self.spans if s[KEY] == key)

    def write(self, path: str) -> None:
        """Write the operations and spans out, one JSON object a line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, (kind, start, end) in enumerate(self.ops):
                fh.write(json.dumps({"type": "op", "id": i, "kind": kind,
                                     "start": start, "end": end}) + "\n")
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                fh.write(json.dumps({
                    "type": "span", "id": i, "key": span[KEY], "op": span[OP],
                    "start": span[START], "end": span[END],
                    "parent": None if parent is None else index[id(parent)],
                    "value": span[VALUE],
                }) + "\n")

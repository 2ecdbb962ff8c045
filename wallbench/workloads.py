"""The three benchmark workloads: inputs generated from a seed, one round
of client operations, and the off-clock correctness checks.

Every workload is a closed loop with one client: a round issues its
operations one after another and the next round starts when the last one
returns.  A round has the same composition every time (no alternating
round types), and the source data stays stationary: relation sizes and
the sizes of ``E``, ``F`` and ``T`` do not drift over a run, and every
source log is trimmed to the mediator's reflected cursor after each
refresh, as an autonomous source reclaiming its log would.

How the inputs keep sizes flat (Figure 4, ``E = A ⋈[a1²+a2 < b2²] B``):

* ``A`` keys come in pairs ``(2j, 2j+1)`` with exactly one of each pair
  present; a round deletes the present one and inserts the other.
* ``a2`` lies in ``[0, 2·a1]`` and every ``b2`` is even, so a row of ``A``
  joins exactly the rows of ``B`` with ``b2 > a1`` and both keys of a pair
  join the same rows: ``|E| = Σ_b b2/2`` whatever keys are present.
* ``b2`` is a fixed multiset of even levels; ``B`` transactions swap the
  ``b2`` values of two rows, so the multiset (and ``|E|``) never changes.
* ``D`` holds every key of ``[0, 2·pairs_c)`` and ``C`` one key of each
  pair, so ``|F| = |C ⋈ D| = pairs_c`` while ``C`` toggles pairs.
* Figure 1 (``replicated``): every ``R`` row passes ``r4 = 100`` and joins
  one ``S`` row passing ``s3 < 50``, and ``R`` keys toggle within pairs
  whose two rows share ``r2``, so ``|T| = |R|`` is constant.
"""

from __future__ import annotations

import os
import random
from array import array
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import SquirrelMediator, annotate
from repro.correctness import assert_materialized_correct, assert_view_correct, recompute_all
from repro.deltas import SetDelta
from repro.durability import CheckpointPolicy, DurabilityManager
from repro.relalg import Evaluator, Predicate, Project, Scan, Select, parse_predicate, row
from repro.replication import ReadRouter, ReplicaMediator, WalShipper
from repro.sources import MemorySource, SQLiteSource
from repro.workloads import (
    FIGURE1_ANNOTATIONS,
    figure1_schemas,
    figure1_vdp,
    figure4_mediator,
    figure4_schemas,
)

perf = time.perf_counter

#: Modules no workload drives.  ``faults``/``sim``/``runtime``/``soak``
#: are test and simulation harnesses around the mediator, and
#: ``planner``/``matching`` are design-time tools; none of them is on the
#: request path of a deployed mediator, so the benchmark leaves them out.
NOT_EXERCISED = ("faults", "sim", "runtime", "soak", "planner", "matching")


class Samples:
    """Latency samples of one run, by metric and operation class.

    Stored as packed doubles so the benchmark's own memory grows by 8
    bytes a sample, not by a Python object a sample."""

    def __init__(self) -> None:
        self.by_metric: Dict[str, Dict[str, array]] = {}
        self.ops = 0

    def add(self, metric: str, ms: float, cls: str) -> None:
        classes = self.by_metric.setdefault(metric, {})
        values = classes.get(cls)
        if values is None:
            values = classes[cls] = array("d")
        values.append(ms)


class NullOps:
    """Stand-in for the layer tracer when a run is untraced."""

    def begin(self, kind: str) -> None:
        pass

    def end(self) -> None:
        pass

    def pause(self) -> None:
        pass

    def resume(self) -> None:
        pass


class Workload:
    """One seeded system under test plus the client that drives it."""

    name = ""
    #: Rounds between two off-clock correctness checks.
    check_every = 50

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ops = NullOps()
        self.samples = Samples()
        self.round_no = 0
        #: Seconds spent in correctness checks (kept off the clock).
        self.offclock_s = 0.0
        self.checks = 0
        self.wrong: List[str] = []

    # -- driven by run.py ---------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def final_check(self) -> List[str]:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def mediators(self) -> List[SquirrelMediator]:
        raise NotImplementedError

    def sources(self) -> Dict[str, object]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """The program's own counters that the traced run reconciles against."""
        out = dict.fromkeys(
            ("update_transactions", "rules_fired", "nodes_processed", "queries",
             "cache_hits", "cache_misses", "rows_hashed", "index_probes", "link_polls",
             "source_txns", "pushdown_queries", "fallback_queries"),
            0,
        )
        for m in self.mediators():
            out["update_transactions"] += m.iup.stats.transactions
            out["rules_fired"] += m.iup.stats.rules_fired
            out["nodes_processed"] += m.iup.stats.nodes_processed
            out["queries"] += m.qp.stats.queries
            out["cache_hits"] += m.vap.stats.cache_hits
            out["cache_misses"] += m.vap.stats.cache_misses
            out["rows_hashed"] += m.store.counters.rows_hashed
            out["index_probes"] += m.store.counters.index_probes
            out["link_polls"] += sum(link.poll_count for link in m.links.values())
        for source in self.sources().values():
            out["source_txns"] += source.txn_count
            out["pushdown_queries"] += getattr(source, "pushdown_queries", 0)
            out["fallback_queries"] += getattr(source, "fallback_queries", 0)
        return out

    # -- helpers ------------------------------------------------------------
    def check_due(self) -> bool:
        return (self.round_no + 1) % self.check_every == 0

    def verify(self, check: Callable[[], List[str]]) -> None:
        """Run one sampled correctness check off the clock."""
        self.ops.pause()
        start = perf()
        self.wrong.extend(check())
        self.checks += 1
        self.offclock_s += perf() - start
        self.ops.resume()

    def timed(self, kind: str, fn: Callable, *args, **kwargs):
        """Run one client operation; returns ``(result, start, end)``."""
        self.ops.begin(kind)
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf()
            self.ops.end()
        self.samples.ops += 1
        return result, start, end

    def trim_logs(self, mediator: SquirrelMediator) -> None:
        """Trim every source log through the mediator's reflected cursor."""
        for name, source in mediator.sources.items():
            cursor = mediator.queue.reflected_cursor(name)
            if cursor is not None:
                source.compact_log(cursor)


# ---------------------------------------------------------------------------
# Figure 4 inputs (ingest, hybrid_read)
# ---------------------------------------------------------------------------
class Figure4Data:
    """Seeded, stationary Figure 4 sources and the transactions that keep
    them stationary (see the module docstring)."""

    def __init__(self, seed: int, pairs_a: int, n_b: int, b2_levels: int, pairs_c: int):
        rng = random.Random(seed)
        self.rng = random.Random(seed * 7919 + 1)
        self.a = {}
        for j in range(pairs_a):
            key = 2 * j + rng.randrange(2)
            self.a[key] = rng.randint(0, 2 * key)
        levels = [2 * (i % b2_levels) for i in range(n_b)]
        rng.shuffle(levels)
        self.b = dict(enumerate(levels))
        self.d = {k: rng.randrange(n_b) for k in range(2 * pairs_c)}
        self.c = {2 * j + rng.randrange(2): rng.randrange(2 * pairs_a) for j in range(pairs_c)}
        self.pairs_a = pairs_a
        self.pairs_c = pairs_c
        self.n_b = n_b
        self.b2_levels = b2_levels

    def initial(self) -> Dict[str, List[Tuple[int, int]]]:
        return {
            "A": sorted(self.a.items()),
            "B": sorted(self.b.items()),
            "C": sorted(self.c.items()),
            "D": sorted(self.d.items()),
        }

    def txn_a(self) -> SetDelta:
        """Toggle one key pair and change ``a2`` of another row.

        Both keys lie above every ``b2``: each change costs a full scan of
        ``B`` for the theta join and moves no ``E`` row, so every round
        does the same work (``E`` moves through ``B`` swaps)."""
        rng, a = self.rng, self.a
        first = self.b2_levels  # pairs j >= first have a1 >= 2*levels > max b2
        delta = SetDelta()
        j = rng.randrange(first, self.pairs_a)
        old = 2 * j if 2 * j in a else 2 * j + 1
        new = old ^ 1
        delta.delete("A", row(a1=old, a2=a.pop(old)))
        a[new] = rng.randint(0, 2 * new)
        delta.insert("A", row(a1=new, a2=a[new]))
        k = j
        while k == j:
            k = rng.randrange(first, self.pairs_a)
        key = 2 * k if 2 * k in a else 2 * k + 1
        value = (a[key] + 1 + rng.randrange(2 * key)) % (2 * key + 1)
        delta.delete("A", row(a1=key, a2=a[key]))
        delta.insert("A", row(a1=key, a2=value))
        a[key] = value
        return delta

    def txn_b(self) -> SetDelta:
        """Swap the ``b2`` values of two rows on adjacent levels, so every
        swap moves the same number of ``E`` rows (one ``A`` pair's worth)."""
        rng, b = self.rng, self.b
        x = rng.randrange(self.n_b)
        target = b[x] + 2 if b[x] < 2 * (self.b2_levels - 1) else b[x] - 2
        y = rng.randrange(self.n_b)
        while b[y] != target:
            y = rng.randrange(self.n_b)
        delta = SetDelta()
        delta.delete("B", row(b1=x, b2=b[x]))
        delta.delete("B", row(b1=y, b2=b[y]))
        delta.insert("B", row(b1=x, b2=b[y]))
        delta.insert("B", row(b1=y, b2=b[x]))
        b[x], b[y] = b[y], b[x]
        return delta

    def txn_c(self) -> SetDelta:
        """Toggle one key pair and change ``c2`` of another row."""
        rng, c = self.rng, self.c
        delta = SetDelta()
        j = rng.randrange(self.pairs_c)
        old = 2 * j if 2 * j in c else 2 * j + 1
        new = old ^ 1
        delta.delete("C", row(c1=old, c2=c.pop(old)))
        c[new] = rng.randrange(2 * self.pairs_a)
        delta.insert("C", row(c1=new, c2=c[new]))
        key = old
        while key // 2 == j:
            key = 2 * rng.randrange(self.pairs_c)
            key = key if key in c else key + 1
        value = (c[key] + 1 + rng.randrange(2 * self.pairs_a - 1)) % (2 * self.pairs_a)
        delta.delete("C", row(c1=key, c2=c[key]))
        delta.insert("C", row(c1=key, c2=value))
        c[key] = value
        return delta

    def txn_d(self) -> SetDelta:
        """Change ``d2`` of one row whose key ``C`` holds, so every update
        moves one ``F`` row (its key stays)."""
        rng, c, d = self.rng, self.c, self.d
        j = rng.randrange(self.pairs_c)
        key = 2 * j if 2 * j in c else 2 * j + 1
        value = (d[key] + 1 + rng.randrange(self.n_b - 1)) % self.n_b
        delta = SetDelta()
        delta.delete("D", row(d1=key, d2=d[key]))
        delta.insert("D", row(d1=key, d2=value))
        d[key] = value
        return delta


def figure4_sources(data: Figure4Data, sqlite_b: bool) -> Dict[str, object]:
    schemas = figure4_schemas()
    initial = data.initial()
    sources: Dict[str, object] = {}
    for db, rel in (("dbA", "A"), ("dbB", "B"), ("dbC", "C"), ("dbD", "D")):
        cls = SQLiteSource if (sqlite_b and rel == "B") else MemorySource
        sources[db] = cls(db, [schemas[rel]], initial={rel: initial[rel]})
    return sources


def gate(mediator: SquirrelMediator) -> List[str]:
    """The end-of-run gate: exports and every stored repository equal
    their from-scratch recompute."""
    try:
        assert_view_correct(mediator)
        assert_materialized_correct(mediator)
    except AssertionError as exc:
        return [str(exc)]
    return []


def query_truth(truth, relation: str, attrs, predicate: Predicate):
    """The answer ``π_attrs σ_predicate relation`` over recomputed state."""
    expr = Scan(relation)
    if predicate is not None:
        expr = Select(expr, predicate)
    return Evaluator(truth).evaluate(Project(expr, tuple(attrs)), "answer")


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------
class Ingest(Workload):
    """``figure4_mediator("all_m")``: every round commits one transaction on
    each of A, B, C and D, then runs one ``refresh()``.  The materialized
    path (queue fold, IUP kernel, rule firing, store apply) does the work;
    the VAP, durability and replication stay idle."""

    name = "ingest"
    check_every = 50
    SIZES = dict(pairs_a=250, n_b=250, b2_levels=8, pairs_c=250)

    def setup(self) -> None:
        self.data = Figure4Data(self.seed, **self.SIZES)
        self.srcs = figure4_sources(self.data, sqlite_b=False)
        self.mediator, _ = figure4_mediator("all_m", sources=self.srcs)

    def round(self) -> None:
        data, srcs, m = self.data, self.srcs, self.mediator
        committed = []
        for db, make in (("dbA", data.txn_a), ("dbB", data.txn_b),
                         ("dbC", data.txn_c), ("dbD", data.txn_d)):
            delta = make()
            _, _, end = self.timed("execute", srcs[db].execute, delta)
            committed.append((db, end))
        _, _, visible = self.timed("refresh", m.refresh)
        for db, end in committed:
            self.samples.add("commit_visible_ms", (visible - end) * 1e3, db)
        self.trim_logs(m)
        if self.check_due():
            self.verify(self.check)

    def check(self) -> List[str]:
        truth = recompute_all(self.mediator.vdp, self.srcs)
        wrong = []
        for name in ("E", "G", "F"):
            if self.mediator.store.repo(name) != truth[name]:
                wrong.append(f"round {self.round_no}: stored {name} differs from recompute")
        return wrong

    def final_check(self) -> List[str]:
        return gate(self.mediator)

    def mediators(self):
        return [self.mediator]

    def sources(self):
        return self.srcs


# ---------------------------------------------------------------------------
# hybrid_read
# ---------------------------------------------------------------------------
class HybridRead(Workload):
    """``figure4_mediator("paper")`` (``E = [a1^m, a2^v, b1^m]``, ``B_p``
    and ``F`` virtual) with ``dbB`` on SQLite.  A round runs a fixed list
    of stored-only and virtual query templates, then commits one small
    ``B`` transaction and refreshes, which invalidates the cached ``E``
    and ``B_p`` temporaries (``F`` stays cached).  The query path does the
    work; the write shows when reads get faster at the cost of refresh."""

    name = "hybrid_read"
    check_every = 40
    SIZES = dict(pairs_a=150, n_b=150, b2_levels=8, pairs_c=150)

    #: (class, virtual?, relation, attrs, predicate with ``{a}``/``{b}``/``{l}``).
    #: Full-relation reads fill the VAP cache; the point reads after
    #: them are answered from it by subsumption.
    TEMPLATES = (
        ("E_stored_point", False, "E", ("a1", "b1"), "b1 = {b}"),
        ("G_stored_point", False, "G", ("a1", "b1"), "a1 = {a}"),
        ("A_p_stored_point", False, "A_p", ("a1", "a2"), "a1 = {a}"),
        ("E_full_construct", True, "E", ("a1", "a2", "b1"), None),
        ("E_point_cached", True, "E", ("a1", "a2", "b1"), "b1 = {b}"),
        ("B_p_full_poll", True, "B_p", ("b1", "b2"), None),
        ("B_p_point_cached", True, "B_p", ("b1", "b2"), "b2 > {l}"),
        ("F_point_cached", True, "F", ("a1", "b1"), "b1 = {b}"),
    )

    def setup(self) -> None:
        self.data = Figure4Data(self.seed, **self.SIZES)
        self.srcs = figure4_sources(self.data, sqlite_b=True)
        self.mediator, _ = figure4_mediator("paper", sources=self.srcs)
        self.qrng = random.Random(self.seed * 104729 + 3)
        self.last_answers: List[Tuple[str, Tuple[str, ...], Optional[Predicate], object]] = []
        # Warm the F entry once: C and D never change here, so every later
        # F read is a cache hit (the steady state of this workload).
        self.mediator.query_relation("F")

    def _params(self) -> Dict[str, int]:
        rng = self.qrng
        return {"a": 2 * rng.randrange(self.data.pairs_a), "b": rng.randrange(self.data.n_b),
                "l": 2 * rng.randrange(4, 12)}

    def round(self) -> None:
        m = self.mediator
        params = self._params()
        check = self.check_due()
        self.last_answers = []
        for cls, virtual, relation, attrs, pred in self.TEMPLATES:
            predicate = parse_predicate(pred.format(**params)) if pred else None
            args = (relation, attrs) if predicate is None else (relation, attrs, predicate)
            answer, start, end = self.timed("query", m.query_relation, *args)
            metric = "query_virtual_ms" if virtual else "query_stored_ms"
            self.samples.add(metric, (end - start) * 1e3, cls)
            if check:
                self.last_answers.append((relation, attrs, predicate, answer))
        if check:
            self.verify(self.check)
        delta = self.data.txn_b()
        _, _, committed = self.timed("execute", self.srcs["dbB"].execute, delta)
        _, _, visible = self.timed("refresh", m.refresh)
        self.samples.add("commit_visible_ms", (visible - committed) * 1e3, "dbB")
        self.trim_logs(m)

    def check(self) -> List[str]:
        truth = recompute_all(self.mediator.vdp, self.srcs)
        wrong = []
        for relation, attrs, predicate, answer in self.last_answers:
            if answer != query_truth(truth, relation, attrs, predicate):
                wrong.append(f"round {self.round_no}: {relation} {predicate} wrong")
        return wrong

    def final_check(self) -> List[str]:
        return gate(self.mediator)

    def teardown(self) -> None:
        self.srcs["dbB"].close()

    def mediators(self):
        return [self.mediator]

    def sources(self):
        return self.srcs


# ---------------------------------------------------------------------------
# replicated
# ---------------------------------------------------------------------------
class Figure1Data:
    """Seeded, stationary Figure 1 sources.  Every ``R`` row passes
    ``r4 = 100`` and joins one ``S`` row passing ``s3 < 50``, so every ``R``
    change moves ``T``: keys toggle within pairs whose rows share ``r2``,
    and ``r3`` updates keep keys."""

    def __init__(self, seed: int, pairs_r: int, n_s: int):
        rng = random.Random(seed)
        self.rng = random.Random(seed * 7919 + 2)
        self.pairs_r = pairs_r
        # S: s3 is stratified, so exactly the even s1 values pass s3 < 50.
        self.s = [(i, rng.randrange(1000), (i % 2) * 50 + rng.randrange(50)) for i in range(n_s)]
        self.pair_r2 = [2 * rng.randrange(n_s // 2) for _ in range(pairs_r)]
        self.r = {}
        for j in range(pairs_r):
            key = 2 * j + rng.randrange(2)
            self.r[key] = rng.randrange(1000)

    def initial(self):
        r_rows = [(key, self.pair_r2[key // 2], r3, 100) for key, r3 in sorted(self.r.items())]
        return {"R": r_rows, "S": self.s}

    def _row(self, key: int, r3: int):
        return row(r1=key, r2=self.pair_r2[key // 2], r3=r3, r4=100)

    def txn_r(self) -> SetDelta:
        """Toggle one key pair and change ``r3`` of another row."""
        rng, r = self.rng, self.r
        delta = SetDelta()
        j = rng.randrange(self.pairs_r)
        old = 2 * j if 2 * j in r else 2 * j + 1
        new = old ^ 1
        delta.delete("R", self._row(old, r.pop(old)))
        r[new] = rng.randrange(1000)
        delta.insert("R", self._row(new, r[new]))
        k = j
        while k == j:
            k = rng.randrange(self.pairs_r)
        key = 2 * k if 2 * k in r else 2 * k + 1
        value = (r[key] + 1 + rng.randrange(999)) % 1000
        delta.delete("R", self._row(key, r[key]))
        delta.insert("R", self._row(key, value))
        r[key] = value
        return delta


class Replicated(Workload):
    """A Figure 1 ``ex21`` primary under a ``DurabilityManager`` (WAL with
    ``sync=False``, the default: flushed to the OS, not fsynced; a
    checkpoint every 4 transactions) shipping through a ``WalShipper`` to 2
    ``ReplicaMediator``s.  A round runs one source transaction, ``refresh``,
    one shipper ``tick`` and 4 reads routed by a ``ReadRouter`` with
    ``staleness_budget=0``.  Durability and replication do the work."""

    name = "replicated"
    check_every = 100
    SIZES = dict(pairs_r=800, n_s=200)
    CHECKPOINT_EVERY = 4
    REPLICAS = 2
    READS = 4

    def setup(self) -> None:
        self.data = Figure1Data(self.seed, **self.SIZES)
        schemas = figure1_schemas()
        initial = self.data.initial()
        self.srcs = {
            "db1": MemorySource("db1", [schemas["R"]], initial={"R": initial["R"]}),
            "db2": MemorySource("db2", [schemas["S"]], initial={"S": initial["S"]}),
        }
        self.directory = os.path.join(self.workdir, "durability")
        shutil.rmtree(self.directory, ignore_errors=True)
        annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
        self.primary = SquirrelMediator(annotated, self.srcs)
        self.primary.initialize()
        self.durability = DurabilityManager.attach(
            self.primary,
            self.directory,
            policy=CheckpointPolicy(every_txns=self.CHECKPOINT_EVERY, every_wal_bytes=0),
            sync=False,
        )
        self.shipper = WalShipper(self.durability)
        self.replicas = []
        for i in range(self.REPLICAS):
            replica = ReplicaMediator(
                f"replica-{i}",
                annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"]),
                self.srcs,
                self.directory,
            )
            self.shipper.attach_replica(replica, now=0.0)
            self.replicas.append(replica)
        self.router = ReadRouter(self.replicas, primary=self.primary)
        self.step = 0
        self.qrng = random.Random(self.seed * 104729 + 5)
        self.last_answers = []

    def round(self) -> None:
        delta = self.data.txn_r()
        checkpoints = self.durability.stats.checkpoints
        _, _, committed = self.timed("execute", self.srcs["db1"].execute, delta)
        _, _, visible = self.timed("refresh", self.primary.refresh)
        cls = "checkpoint" if self.durability.stats.checkpoints != checkpoints else "wal_only"
        self.samples.add("commit_visible_ms", (visible - committed) * 1e3, cls)
        self.step += 1
        _, _, applied = self.timed("tick", self.shipper.tick, float(self.step))
        self.samples.add("replica_visible_ms", (applied - committed) * 1e3, cls)
        self.trim_logs(self.primary)
        check = self.check_due()
        self.last_answers = []
        now = float(self.step)
        for _ in range(self.READS):
            s1 = self.qrng.randrange(self.SIZES["n_s"])
            predicate = parse_predicate(f"s1 = {s1}")
            answer, start, end = self.timed(
                "read", self.router.query, "T", now, 0.0,
                attrs=("r1", "r3", "s1", "s2"), predicate=predicate,
            )
            self.samples.add("query_stored_ms", (end - start) * 1e3, "replica_read")
            if check:
                self.last_answers.append((predicate, answer))
        if check:
            self.verify(self.check)

    def check(self) -> List[str]:
        truth = recompute_all(self.primary.vdp, self.srcs)
        wrong = []
        for predicate, answer in self.last_answers:
            if answer.tag.worst() != 0.0:
                wrong.append(f"round {self.round_no}: routed read served stale")
            if answer.value != query_truth(truth, "T", ("r1", "r3", "s1", "s2"), predicate):
                wrong.append(f"round {self.round_no}: routed read {predicate} wrong")
        return wrong

    def final_check(self) -> List[str]:
        problems = gate(self.primary)
        for replica in self.replicas:
            for export in sorted(self.primary.vdp.exports):
                if replica.mediator.query_relation(export) != self.primary.query_relation(export):
                    problems.append(f"{replica.name} export {export} differs from the primary")
        return problems

    def teardown(self) -> None:
        self.shipper.close()
        self.durability.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def mediators(self):
        return [self.primary] + [r.mediator for r in self.replicas]

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        stats = self.durability.stats
        out["wal_records"] = stats.wal_records
        out["wal_bytes"] = stats.wal_bytes
        out["checkpoints"] = stats.checkpoints
        out["records_applied"] = sum(r.records_applied for r in self.replicas)
        out["routed_reads"] = sum(self.router.served.values())
        return out

    def sources(self):
        return self.srcs


WORKLOADS = {w.name: w for w in (Ingest, HybridRead, Replicated)}

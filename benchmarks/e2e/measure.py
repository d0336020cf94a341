"""Timed phases, counter snapshots, metric assembly and output checking.

The driver stays out of the measurement: op streams are generated before
the timed phase, each op appends one tuple to a history list, counters are
read only at chunk boundaries, and every check runs after the clock stops.

Two clocks never mix.  *Simulated* metrics and counts are taken over the
workload's exact window (a fixed stretch of simulated time), so they
repeat exactly for a seed.  *Host* metrics are taken over every untraced
chunk the host fits into ``--seconds``.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import math
import resource
import statistics
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.chaos import ChaosEngine, standard_schedules
from repro.check import (
    CheckLimitExceeded,
    HistoryRecorder,
    check_linearizable,
    check_monotonic,
)
from repro.core import ClusterConfig, NiceCluster
from repro.workloads.synthetic import keys_in_partition

import workloads as wl

#: History tuple layout: (is_put, key, value, invoke_ts, return_ts, ok).
IS_PUT, KEY, VALUE, INVOKE, RETURN, OK = range(6)

#: Wall seconds :func:`calibrate` takes on the reference box (the 2-core
#: sandbox this benchmark was sized on) when nothing else competes for it.
CALIBRATION_REF_S = 0.0060

#: Chunks of simulated time run before the clock starts.
WARM_CHUNKS = 2

#: In a traced run every third chunk runs bare, the others under the
#: profiler, so tracing overhead is measured against interleaved bare chunks.
BARE_EVERY = 3


# ------------------------------------------------------------ calibration
_TABLE: List[List[int]] = []


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: 40 000 dependent,
    cache-missing reads and writes over a 5 MB table of small lists.

    The sandbox's speed drifts by 10-40 % for seconds to minutes at a time
    (other tenants), the simulator and this loop slow down together, and so
    every host time is reported in *reference seconds*: wall time scaled by
    ``CALIBRATION_REF_S / calibrate()`` measured right next to it.  A loop
    that lives in the L1 cache over-corrects (it slows down more than the
    simulator does); one that misses the cache like the simulator's own
    object graph tracks it to within ~5-9 %.  The loop uses nothing from
    ``src/repro`` and must never change: it is the yardstick, not the
    thing measured.
    """
    if not _TABLE:
        _TABLE.extend([0, 1, 2] for _ in range(50_000))
    table, n = _TABLE, len(_TABLE)
    collecting = gc.isenabled()
    gc.disable()  # a collection of the program's garbage is not the yardstick's
    try:
        t0 = time.perf_counter()
        idx = acc = 1
        for _ in range(40_000):
            idx = (idx * 1103515245 + 12345) % n
            cell = table[idx]
            acc += cell[1]
            cell[0] = acc & 0xFF
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


def reference_seconds(wall_s: float, calibration_s: float) -> float:
    return wall_s * CALIBRATION_REF_S / calibration_s


def timed(fn, k: int, profiler=None):
    """Run chunk number ``k``: returns ``(fn(), wall seconds, traced)``.

    With a ``profiler``, chunks run under it except every ``BARE_EVERY``-th.
    """
    traced = profiler is not None and k % BARE_EVERY != 0
    t0 = time.perf_counter()
    if traced:
        profiler.enable()
    try:
        result = fn()
    finally:
        if traced:
            profiler.disable()
    return result, time.perf_counter() - t0, traced


class Chunk(NamedTuple):
    """One timed stretch (a slice of simulated time, or one chaos cell)
    with the calibration loop timed right after it."""

    wall_s: float
    ops: int
    events: int
    traced: bool
    calibration_s: float

    @property
    def ref_s(self) -> float:
        return reference_seconds(self.wall_s, self.calibration_s)


# --------------------------------------------------------------- counters
def _total(objects, attr: str) -> int:
    """Sum of one ``Counter`` attribute over the objects that have it (the
    NICE and NOOB node classes each lack some of the other's counters)."""
    return sum(getattr(o, attr).value for o in objects if hasattr(o, attr))


def snapshot(cluster) -> Dict[str, object]:
    """Raw totals of every public counter the per-layer metrics read."""
    pools = cluster.sim.pool_stats()
    entry, call = pools["entry_pool"], pools["call_pool"]
    channels = [ch for link in cluster.network.links for ch in link.channels]
    switches = getattr(cluster, "switches", None) or [cluster.switch]
    nodes = list(cluster.nodes.values())
    disks = [n.disk for n in nodes]
    stacks = [n.stack for n in nodes] + [c.stack for c in cluster.clients]
    endpoints = [n.mc_endpoint for n in nodes if hasattr(n, "mc_endpoint")]
    # NICE only: NOOB has no controller, control plane or metadata service.
    control = [cluster.control_plane] if hasattr(cluster, "control_plane") else []
    controller = [cluster.controller] if hasattr(cluster, "controller") else []
    metadata = [cluster.metadata_active] if hasattr(cluster, "metadata_active") else []
    return {
        "events": entry["hits"] + entry["misses"],
        "entry_hits": entry["hits"],
        "call_hits": call["hits"],
        "call_total": call["hits"] + call["misses"],
        "link_bytes": _total(channels, "tx_bytes"),
        "link_packets": _total(channels, "tx_packets"),
        "link_dropped": _total(channels, "dropped_packets"),
        "switch_forwarded": _total(switches, "forwarded"),
        "switch_table_misses": _total(switches, "table_misses"),
        "flow_hits": sum(sw.table.cache_hits for sw in switches),
        "flow_misses": sum(sw.table.cache_misses for sw in switches),
        "rules_max": max(len(sw.table) for sw in switches),
        "rules_total": sum(len(sw.table) for sw in switches),
        "ctrl_msgs": _total(control, "messages_to_switch"),
        "mc_nacks": sum(ep.nacks_sent for ep in endpoints),
        "mc_repairs": sum(ep.repairs_received for ep in endpoints),
        "tcp_handshakes": sum(s.tcp.handshakes for s in stacks),
        "disk_writes": _total(disks, "writes"),
        "disk_flushes": _total(disks, "flushes"),
        "disk_bytes": _total(disks, "bytes_written"),
        "wal_appended": sum(n.wal.appended for n in nodes),
        "puts_served": _total(nodes, "puts_served"),
        "gets_by_node": [n.gets_served.value for n in nodes],
        "gets_forwarded": _total(nodes, "gets_forwarded"),
        "aborts": _total(nodes, "aborts"),
        "noob_forwards": _total(nodes, "forwards"),
        "client_retries": _total(cluster.clients, "retries"),
        "plan_recomputes": _total(controller, "plan_recomputes"),
        "plan_cache_hits": _total(controller, "plan_cache_hits"),
        "failures_declared": _total(metadata, "failures_declared"),
        "rejoins_completed": _total(metadata, "rejoins_completed"),
        "membership_msgs": _total(metadata, "membership_messages"),
    }


#: Snapshot keys that are levels, not running totals.
_GAUGES = ("rules_max", "rules_total")


def delta(before: Dict, after: Dict) -> Dict[str, object]:
    out = {}
    for k, a in after.items():
        if k in _GAUGES:
            out[k] = a
        elif isinstance(a, list):
            out[k] = [x - y for x, y in zip(a, before[k])]
        else:
            out[k] = a - before[k]
    return out


def add_deltas(total: Optional[Dict], d: Dict) -> Dict:
    """Accumulate per-cell deltas (chaos_nice sums over its cells)."""
    if total is None:
        return dict(d)
    for k, v in d.items():
        if k in _GAUGES:
            total[k] = max(total[k], v)
        elif isinstance(v, list):
            total[k] = [x + y for x, y in zip(total[k], v)]
        else:
            total[k] += v
    return total


# ------------------------------------------------------------------ set-up
#: The preload runs in slices of this much simulated time, the calibration
#: loop timed after each, so a slow spell of the host is scaled out where it
#: happens (one set-up of the 300-node fabric takes ~8 s).
PRELOAD_SLICE_SIM_S = 0.05


def set_up(workload: wl.Workload):
    """Build, warm and preload one cluster.

    Returns ``(cluster, set-up time, constructor time)``, both in
    reference seconds.
    """
    t0 = time.perf_counter()
    cluster = wl.build_cluster(workload)
    build_s = reference_seconds(time.perf_counter() - t0, calibrate())
    sim = cluster.sim
    client = cluster.clients[0]

    def load():
        for record in range(workload.n_records):
            r = yield client.put(
                wl.key_name(record), wl.preload_value(record), wl.OBJECT_BYTES
            )
            if not r.ok:
                raise RuntimeError(f"preload put {record} failed: {r.status}")

    total_s = build_s
    t0 = time.perf_counter()
    cluster.warm_up()
    proc = sim.process(load())
    while not proc.triggered:
        sim.run(until=sim.now + PRELOAD_SLICE_SIM_S)
        t1 = time.perf_counter()
        total_s += reference_seconds(t1 - t0, calibrate())
        t0 = time.perf_counter()
    if proc.ok is False:
        raise proc.value
    return cluster, total_s, build_s


def repeated_set_up(workload: wl.Workload, repeats: int):
    """Set up ``repeats`` times; keep the last cluster.  Returns it with
    the median set-up and constructor times."""
    totals, builds = [], []
    cluster = None
    for _ in range(repeats):
        cluster = None
        gc.collect()
        cluster, total_s, build_s = set_up(workload)
        totals.append(total_s)
        builds.append(build_s)
    return cluster, statistics.median(totals), statistics.median(builds)


# ------------------------------------------------------------- timed phase
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """What one timed phase produced, before any metric is derived."""

    def __init__(self) -> None:
        self.history: List[Tuple] = []
        self.chunks: List[Chunk] = []
        self.warm_ops = 0  # len(history) when the clock started
        self.warm_ref_s = 0.0
        self.exact_ops = 0  # len(history) at the end of the exact window
        self.exact_t0 = 0.0  # simulated time at which the clock started
        self.exact_sim_s = 0.0
        self.exact_counts: Dict[str, object] = {}
        self.peak_rss_mb = 0.0


def closed_loop(cluster, workload, streams, seconds, exact_chunks, profiler=None):
    """Run the closed-loop threads for ``seconds`` of host time (and at
    least the exact window), then drain them; see :func:`timed` for what a
    ``profiler`` does."""
    sim = cluster.sim
    phase = Phase()
    history = phase.history
    stop = []

    def thread(client, tid, ops):
        n = len(ops)
        base = tid * wl.VALUE_STRIDE
        record = history.append
        put, get = client.put, client.get
        i = 0
        while not stop:
            is_put, key = ops[i % n]
            t0 = sim.now
            if is_put:
                value = base + i
                r = yield put(key, value, wl.OBJECT_BYTES)
                record((True, key, value, t0, sim.now, r.ok))
            else:
                r = yield get(key)
                record((False, key, r.value, t0, sim.now, r.ok))
            i += 1

    procs = [
        sim.process(thread(cluster.clients[tid // workload.threads], tid, ops))
        for tid, ops in enumerate(streams)
    ]

    def events() -> int:
        entry = sim.pool_stats()["entry_pool"]
        return entry["hits"] + entry["misses"]

    # Warm-up, charged to set-up: connections open, flow caches fill and
    # every thread reaches its steady pipeline depth before the clock starts.
    h0 = time.perf_counter()
    sim.run(until=sim.now + WARM_CHUNKS * workload.chunk_sim_s)
    phase.warm_ref_s = reference_seconds(time.perf_counter() - h0, calibrate())
    phase.warm_ops = len(history)

    before = snapshot(cluster)
    sim_t0 = phase.exact_t0 = sim.now
    seen_ops, seen_events = phase.warm_ops, events()
    k = 0
    deadline = time.perf_counter() + seconds
    while k < exact_chunks or time.perf_counter() < deadline:
        until = sim_t0 + (k + 1) * workload.chunk_sim_s
        _, wall, traced = timed(lambda: sim.run(until=until), k, profiler)
        n_ops, n_events = len(history), events()
        phase.chunks.append(
            Chunk(wall, n_ops - seen_ops, n_events - seen_events, traced, calibrate())
        )
        seen_ops, seen_events = n_ops, n_events
        k += 1
        if k == exact_chunks:
            phase.exact_ops = n_ops
            phase.exact_sim_s = sim.now - sim_t0
            phase.exact_counts = delta(before, snapshot(cluster))
    phase.peak_rss_mb = peak_rss_mb()

    # Drain: every thread finishes the op it has in flight, so the served
    # and acknowledged counts can be compared exactly.
    stop.append(True)
    sim.run_until(sim.all_of(procs))
    return phase


def read_back(cluster, workload, history) -> None:
    """Read every record once after the drain, appended to the history so
    the same checker judges the final state of the store."""
    sim = cluster.sim
    client = cluster.clients[-1]

    def run():
        for record in range(workload.n_records):
            key = wl.key_name(record)
            t0 = sim.now
            r = yield client.get(key)
            history.append((False, key, r.value, t0, sim.now, r.ok))

    proc = sim.process(run())
    sim.run_until(proc)


# ---------------------------------------------------------------- checking
def check_history(history, streams) -> List[str]:
    """Problems with the recorded outputs (empty when all are correct).

    Every op must succeed; every get must return a value the driver wrote
    to that key (or its preload) and must not be *stale*: overwritten by a
    put that was acknowledged before the get was even invoked.
    """
    problems: List[str] = []
    failed = sum(1 for op in history if not op[OK])
    if failed:
        problems.append(f"{failed} of {len(history)} ops failed")

    acked: Dict[str, List[Tuple[float, float]]] = {}
    put_return: Dict[int, float] = {}
    for op in history:
        if op[IS_PUT] and op[OK]:
            acked.setdefault(op[KEY], []).append((op[RETURN], op[INVOKE]))
            put_return[op[VALUE]] = op[RETURN]
    returns: Dict[str, List[float]] = {}
    latest_invoke: Dict[str, List[float]] = {}
    for key, puts in acked.items():
        puts.sort()
        returns[key] = [p[0] for p in puts]
        best, prefix = -math.inf, []
        for _, invoke in puts:
            best = max(best, invoke)
            prefix.append(best)
        latest_invoke[key] = prefix

    for op in history:
        if op[IS_PUT] or not op[OK]:
            continue
        key, value = op[KEY], op[VALUE]
        if not isinstance(value, int):
            problems.append(f"get({key}) returned a foreign value {value!r}")
            continue
        if value < 0:
            written_to, writer_return = wl.key_name(-value - 1), -math.inf
        else:
            tid, i = divmod(value, wl.VALUE_STRIDE)
            ops = streams[tid] if tid < len(streams) else None
            is_put, written_to = ops[i % len(ops)] if ops else (False, None)
            if not is_put:
                problems.append(f"get({key}) returned {value}, which nobody wrote")
                continue
            # A put still in flight may legally be read: return time +inf.
            writer_return = put_return.get(value, math.inf)
        if written_to != key:
            problems.append(f"get({key}) returned a value written to {written_to}")
            continue
        n_before = bisect.bisect_left(returns.get(key, ()), op[INVOKE])
        if n_before and latest_invoke[key][n_before - 1] > writer_return:
            problems.append(
                f"stale read: get({key}) at {op[INVOKE]:.6f} returned {value}, "
                "overwritten by a put acknowledged before the get was invoked"
            )
        if len(problems) >= 10:
            break
    return problems


# --------------------------------------------------------------- metrics
def latency_stats(history) -> Dict[str, Dict[str, float]]:
    """Latency numbers (ms) for all ops, puts and gets of ``history``.

    ``mean`` and ``slowest1pct`` (mean of the slowest hundredth: the tail a
    caller sees) move smoothly with the inputs and are the reported
    metrics; ``p50``/``p99`` sit on the simulator's few discrete latency
    plateaus and are printed beside them for reading.  Failed ops count
    with the time their failure took to come back.
    """
    groups = {
        "op": sorted(op[RETURN] - op[INVOKE] for op in history),
        "put": sorted(op[RETURN] - op[INVOKE] for op in history if op[IS_PUT]),
        "get": sorted(op[RETURN] - op[INVOKE] for op in history if not op[IS_PUT]),
    }
    out = {}
    for name, lats in groups.items():
        n = len(lats)
        tail = lats[-max(1, n // 100) :]
        out[name] = {
            "samples": n,
            "mean": 1e3 * sum(lats) / n if n else 0.0,
            "slowest1pct": 1e3 * sum(tail) / len(tail) if n else 0.0,
            "p50": 1e3 * float(np.percentile(lats, 50)) if n else 0.0,
            "p99": 1e3 * float(np.percentile(lats, 99)) if n else 0.0,
        }
    return out


def longest_gap_ms(history, start: float, end: float) -> float:
    """Longest simulated stretch of ``[start, end]`` in which no op
    completed successfully: the unavailability a caller would notice."""
    marks = sorted(op[RETURN] for op in history if op[OK])
    edges = [start, *marks, end]
    return 1e3 * max(b - a for a, b in zip(edges, edges[1:]))


def host_rate(chunks: List[Chunk]) -> Dict[str, float]:
    """Host throughput from the untraced chunks, in reference seconds.

    A chunk's cost follows the kernel events it processed, not the ops that
    happened to complete inside it (closed-loop threads finish in waves), so
    each chunk gives an event rate; the median chunk's rate times the ops
    per event of the whole phase is the value, quartiles beside it.  The
    traced chunks give the same number under the profiler.
    """

    def rates(part: List[Chunk]) -> List[float]:
        ops_per_event = sum(c.ops for c in part) / sum(c.events for c in part)
        return [ops_per_event * c.events / c.ref_s for c in part]

    bare = [c for c in chunks if not c.traced]
    traced = [c for c in chunks if c.traced]
    bare_rates = rates(bare)
    if len(bare_rates) > 1:
        q1, _, q3 = statistics.quantiles(bare_rates, n=4)
    else:
        q1 = q3 = bare_rates[0]
    return {
        "median": statistics.median(bare_rates),
        "q1": q1,
        "q3": q3,
        "chunks": len(bare),
        "wall_s": sum(c.wall_s for c in bare),
        "ref_s": sum(c.ref_s for c in bare),
        "ops": sum(c.ops for c in bare),
        "events": sum(c.events for c in bare),
        "calibration_s": statistics.median(c.calibration_s for c in chunks),
        "traced_median": statistics.median(rates(traced)) if traced else 0.0,
        "traced_ops": sum(c.ops for c in traced),
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_counts(counts: Dict, n_ops: int, acked_puts: int, system: str) -> Dict[str, float]:
    """Per-layer count metrics from one counter delta: per op, unless the
    name is a total, a rate or a level (the README glossary says which)."""
    gets = counts["gets_by_node"]
    lookups = counts["flow_hits"] + counts["flow_misses"]
    node = {
        "puts_served": ratio(counts["puts_served"], n_ops),
        "gets_served": ratio(sum(gets), n_ops),
        "get_imbalance": ratio(max(gets), sum(gets) / len(gets)),
    }
    nice, noob = (node, {}) if system == "nice" else ({}, node)
    return {
        "sim.entry_pool_reuse": ratio(counts["entry_hits"], counts["events"]),
        "sim.call_pool_reuse": ratio(counts["call_hits"], counts["call_total"]),
        "net.link.tx_packets": ratio(counts["link_packets"], n_ops),
        "net.link.dropped": counts["link_dropped"],
        "net.switch.forwarded": ratio(counts["switch_forwarded"], n_ops),
        "net.switch.table_misses": counts["switch_table_misses"],
        "net.flowtable.lookups": ratio(lookups, n_ops),
        "net.flowtable.cache_hit_rate": ratio(counts["flow_hits"], lookups),
        "net.flowtable.rules_max": counts["rules_max"],
        "net.controlplane.msgs_to_switch": counts["ctrl_msgs"],
        "transport.mc.nacks": counts["mc_nacks"],
        "transport.mc.repairs": counts["mc_repairs"],
        "transport.tcp.handshakes": ratio(counts["tcp_handshakes"], n_ops),
        "kv.disk.writes": ratio(counts["disk_writes"], n_ops),
        "kv.disk.flushes": ratio(counts["disk_flushes"], n_ops),
        "kv.disk.bytes_written_per_user_byte": ratio(
            counts["disk_bytes"], acked_puts * wl.OBJECT_BYTES
        ),
        "kv.wal.appended": ratio(counts["wal_appended"], n_ops),
        "core.node.puts_served": nice.get("puts_served", 0.0),
        "core.node.gets_served": nice.get("gets_served", 0.0),
        "core.node.gets_forwarded": ratio(counts["gets_forwarded"], n_ops),
        "core.node.aborts": counts["aborts"],
        "core.node.get_imbalance": nice.get("get_imbalance", 0.0),
        "core.client.retries": counts["client_retries"],
        "core.controller.plan_recomputes": counts["plan_recomputes"],
        "core.controller.plan_cache_hits": counts["plan_cache_hits"],
        "core.controller.rules_total": counts["rules_total"],
        "core.metadata.failures_declared": counts["failures_declared"],
        "core.metadata.rejoins_completed": counts["rejoins_completed"],
        "core.metadata.membership_msgs": counts["membership_msgs"],
        "noob.node.puts_served": noob.get("puts_served", 0.0),
        "noob.node.gets_served": noob.get("gets_served", 0.0),
        "noob.node.forwards": ratio(counts["noob_forwards"], n_ops),
    }


# ------------------------------------------------------------- chaos_nice
class ChaosCell:
    """One (schedule, seed) cell: a fresh 6-node cluster under one fault
    schedule with one paced writer and two paced readers."""

    def __init__(self, schedule_name: str, seed: int):
        self.schedule_name = schedule_name
        self.seed = seed
        t0 = time.perf_counter()
        self.cluster = NiceCluster(ClusterConfig(**wl.CHAOS_CONFIG))
        self.build_s = time.perf_counter() - t0
        self.cluster.warm_up()
        cluster = self.cluster
        self.keys = keys_in_partition(0, cluster.config.n_partitions, wl.CHAOS_KEYS)
        schedule = standard_schedules(self.keys[0])[schedule_name]
        self.recorder = HistoryRecorder().attach(*cluster.clients)
        self.engine = ChaosEngine(cluster, schedule, seed=seed)
        # Every key holds a recorded value before the readers start, so no
        # get of the timed phase can miss.
        sim = cluster.sim
        writer = cluster.clients[0]
        seeded = [
            writer.put(key, f"{writer.host.name}:seed{i}", wl.OBJECT_BYTES)
            for i, key in enumerate(self.keys)
        ]
        sim.run_until(sim.all_of(seeded))
        self.n_seeded = len(self.recorder.ops)
        # Pacing gaps and key choices are drawn here, before the clock runs.
        n = int(3 * wl.CHAOS_CELL_SIM_S / wl.CHAOS_PACE_S)
        for idx, client in enumerate(cluster.clients):
            rng = np.random.default_rng([seed, idx])
            gaps = rng.exponential(wl.CHAOS_PACE_S, size=n).tolist()
            if idx == 0:
                sim.process(self._writer(client, gaps))
            else:
                picks = rng.integers(len(self.keys), size=n).tolist()
                sim.process(self._reader(client, gaps, picks))

    def _writer(self, client, gaps):
        sim, keys = self.cluster.sim, self.keys
        for seq, gap in enumerate(gaps):
            yield sim.timeout(gap)
            if sim.now >= wl.CHAOS_CELL_SIM_S:
                return
            yield client.put(
                keys[seq % len(keys)], f"{client.host.name}:{seq}", wl.OBJECT_BYTES
            )

    def _reader(self, client, gaps, picks):
        sim, keys = self.cluster.sim, self.keys
        for gap, pick in zip(gaps, picks):
            yield sim.timeout(gap)
            if sim.now >= wl.CHAOS_CELL_SIM_S:
                return
            yield client.get(keys[pick])

    def run(self) -> Dict[str, object]:
        """Play the cell and check its history; returns the cell's row."""
        cluster = self.cluster
        before = snapshot(cluster)
        self.engine.start()
        cluster.sim.run(until=wl.CHAOS_CELL_SIM_S)
        counts = delta(before, snapshot(cluster))
        ops = self.recorder.ops
        t0 = time.perf_counter()
        problems = []
        states = 0
        mono = check_monotonic(ops)
        if not mono.ok:
            problems.append(f"monotonic: {mono.reason}")
        try:
            lin = check_linearizable(ops)
            states = lin.states
            if not lin.ok:
                problems.append(f"linearizability: {lin.reason}")
        except CheckLimitExceeded as exc:
            problems.append(f"checker gave up: {exc}")
        check_s = time.perf_counter() - t0
        history = [
            (op.kind == "put", op.key, op.value, op.invoke_ts, op.return_ts, op.ok)
            for op in ops[self.n_seeded :]
            if op.completed
        ]
        return {
            "schedule": self.schedule_name,
            "seed": self.seed,
            "history": history,
            "counts": counts,
            "faults": len(self.engine.events),
            "states": states,
            "check_s": check_s,
            "unavail_ms": longest_gap_ms(history, 0.0, wl.CHAOS_CELL_SIM_S),
            "problems": problems,
        }


def chaos_cells(seed: int):
    """The endless round-robin of (schedule name, cell seed) pairs."""
    for k in itertools.count():
        yield wl.CHAOS_SCHEDULES[k % len(wl.CHAOS_SCHEDULES)], seed * 1000 + k

"""A unified, queryable tree of the simulation's metrics.

Clients, storage nodes, switches and links each grow their own ad-hoc
:class:`~repro.sim.Counter` / :class:`~repro.sim.Tally` /
:class:`~repro.sim.RateSeries` instances.  :class:`MetricsRegistry` binds
them into one dotted-name tree (``client.c0.put_latency``,
``node.n3.aborts``, ``link.sw0->n3.tx_bytes``, …) without copying — the
registry holds references, so a snapshot always reflects live state.

Plain-``int`` statistics (e.g. the flow-cache hit counters) register as
*gauges*: zero-argument callables sampled at snapshot time.

Snapshots are deterministic: same cluster state → byte-identical JSON
(names sorted, nan rendered as ``null`` by the metric ``snapshot()``
methods).
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..sim.monitor import Counter, RateSeries, Tally

__all__ = ["MetricsRegistry"]

#: Metric classes picked up by the attribute scan in :meth:`collect_object`.
_METRIC_TYPES = (Counter, Tally, RateSeries)


class MetricsRegistry:
    """Named references to live metric objects, exported as one tree."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._gauges: Dict[str, Callable[[], Any]] = {}

    # -- registration -------------------------------------------------------
    def register(self, name: str, metric) -> Any:
        """Bind ``metric`` (Counter/Tally/RateSeries) under ``name``."""
        self._check_name(name)
        self._metrics[name] = metric
        return metric

    def gauge(self, name: str, fn: Callable[[], Any]) -> None:
        """Bind a zero-arg callable sampled at snapshot time."""
        self._check_name(name)
        self._gauges[name] = fn

    def _check_name(self, name: str) -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        if name in self._metrics or name in self._gauges:
            raise KeyError(f"metric name already registered: {name!r}")

    # -- queries ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._metrics) + len(self._gauges)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics or name in self._gauges

    def get(self, name: str):
        if name in self._metrics:
            return self._metrics[name]
        return self._gauges[name]

    def names(self, prefix: str = "") -> List[str]:
        """All registered names (sorted), optionally under a dotted prefix."""
        every = sorted([*self._metrics, *self._gauges])
        if not prefix:
            return every
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return [n for n in every if n == prefix or n.startswith(dotted)]

    def query(self, prefix: str = "") -> Dict[str, Any]:
        """Live metric objects under ``prefix`` (gauges appear as callables)."""
        return {n: self.get(n) for n in self.names(prefix)}

    # -- export -------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The metric tree as nested dicts of JSON-safe leaves."""
        tree: Dict[str, Any] = {}
        for name in self.names():
            if name in self._metrics:
                leaf = self._metrics[name].snapshot()
            else:
                leaf = {"type": "gauge", "value": self._gauges[name]()}
            node = tree
            parts = name.split(".")
            for part in parts[:-1]:
                nxt = node.setdefault(part, {})
                if not isinstance(nxt, dict) or "type" in nxt:
                    raise ValueError(f"metric name {name!r} collides with a leaf")
                node = nxt
            if parts[-1] in node:
                raise ValueError(f"metric name {name!r} collides with a subtree")
            node[parts[-1]] = leaf
        return tree

    def to_json(self, indent: Optional[int] = 2) -> str:
        # allow_nan=False: the snapshot contract is strict JSON (nan -> null
        # happens in the metric snapshot() methods, not here).
        return json.dumps(
            self.snapshot(), indent=indent, sort_keys=True, allow_nan=False
        )

    # -- collection walkers -------------------------------------------------
    def collect_object(self, obj, base: str) -> int:
        """Register every metric-typed attribute of ``obj`` under ``base``."""
        n = 0
        for attr, val in sorted(vars(obj).items()):
            if isinstance(val, _METRIC_TYPES):
                self.register(f"{base}.{attr}", val)
                n += 1
        return n

    @classmethod
    def from_cluster(cls, cluster, prefix: str = "") -> "MetricsRegistry":
        """Walk a NICE or NOOB cluster (a
        :class:`~repro.core.system.ClusterBase`) and register everything
        measurable; the parts a deployment lacks are ``None``/empty there."""
        reg = cls()
        p = f"{prefix}." if prefix else ""
        for client in cluster.clients:
            reg.collect_object(client, f"{p}client.{client.host.name}")
        for name, node in sorted(cluster.nodes.items()):
            reg.collect_object(node, f"{p}node.{name}")
            # Disk health (DESIGN.md §5k): durability barrier, unflushed
            # window, degradation and WAL recovery counters — the obs feed
            # the fail-slow detector and the durability chaos cells read.
            disk, base = node.disk, f"{p}node.{name}.disk"
            reg.collect_object(disk, base)
            reg.gauge(f"{base}.dirty_bytes", lambda d=disk: d.dirty_bytes)
            reg.gauge(f"{base}.durable_seq", lambda d=disk: d.durable_seq)
            reg.gauge(f"{base}.degraded_factor", lambda d=disk: d.degraded_factor)
            wal, base = node.wal, f"{p}node.{name}.wal"
            reg.gauge(f"{base}.appended", lambda w=wal: w.appended)
            reg.gauge(f"{base}.removed", lambda w=wal: w.removed)
            reg.gauge(f"{base}.torn_records", lambda w=wal: w.torn_records)
            reg.gauge(f"{base}.lost_records", lambda w=wal: w.lost_records)
            reg.gauge(
                f"{base}.resurrected_records", lambda w=wal: w.resurrected_records
            )
            if hasattr(node, "failslow"):  # the NICE node's health verdict
                reg.gauge(f"{p}node.{name}.failslow", lambda n=node: int(n.failslow))
        for sw in cluster.switches:
            base, table = f"{p}switch.{sw.name}", sw.table
            reg.collect_object(sw, base)
            reg.gauge(f"{base}.flowtable.rules", lambda t=table: len(t))
            reg.gauge(f"{base}.flowtable.cache_hits", lambda t=table: t.cache_hits)
            reg.gauge(f"{base}.flowtable.cache_misses", lambda t=table: t.cache_misses)
        for gw in cluster.gateways:
            reg.collect_object(gw, f"{p}gateway.{gw.host.name}")
        if cluster.control_plane is not None:
            reg.collect_object(cluster.control_plane, f"{p}controlplane")
        controller = cluster.controller
        if controller is not None:
            # Incremental-planner instrumentation (DESIGN.md §5i):
            # cumulative planning wall time plus recompute/cache-hit
            # counts.  sync_ms is host wall clock — trend data, never part
            # of a determinism comparison.
            reg.gauge(
                f"{p}controlplane.plan.sync_ms",
                lambda c=controller: round(c.plan_wall_s * 1e3, 3),
            )
            reg.gauge(
                f"{p}controlplane.plan.partitions_recomputed",
                lambda c=controller: c.plan_recomputes.value,
            )
            reg.gauge(
                f"{p}controlplane.plan.cache_hits",
                lambda c=controller: c.plan_cache_hits.value,
            )
        ha = cluster.metadata_ha
        if ha is not None:
            reg.collect_object(cluster.metadata, f"{p}metadata")
            reg.gauge(f"{p}metadata.epoch", lambda c=cluster: c.metadata_active.epoch)
            reg.collect_object(ha, f"{p}metadata.ha")
            reg.gauge(
                f"{p}metadata.ha.log_records",
                lambda h=ha: max(len(r.log) for r in h.replicas),
            )
        for link in cluster.network.links:
            for channel in link.channels:
                reg.collect_object(channel, f"{p}link.{channel.name}")
        # Kernel health (DESIGN.md §5g): reuse rates near 1.0 mean the hot
        # path runs allocation-free; a heap that is mostly dead records
        # makes every push and pop pay for them; spawns count the generator
        # processes, which only code that waits between steps should need.
        for block, field in (
            ("call_pool", "reuse_rate"),
            ("entry_pool", "reuse_rate"),
            ("heap", "size"),
            ("heap", "live"),
            ("heap", "dead"),
            ("processes", "spawned"),
        ):
            reg.gauge(
                f"{p}sim.{block}.{field}",
                lambda s=cluster.sim, b=block, f=field: s.pool_stats()[b][f],
            )
        return reg

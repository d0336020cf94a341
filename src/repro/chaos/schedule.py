"""Declarative fault schedules.

A schedule is data, not code: a named, time-sorted list of
:class:`FaultEvent` records that :class:`~repro.chaos.engine.ChaosEngine`
interprets.  Keeping schedules declarative makes them printable, hashable
into test IDs, and — together with the deterministic simulator — makes a
chaos run reproducible from ``(seed, schedule)`` alone.

Event kinds (see the engine for exact semantics):

=================  ==========================================================
``crash``          fail-stop the target node (volatile state lost)
``rejoin``         power the node back on; NICE runs the two-stage rejoin
``isolate``        take the node's access link down (node alive, link dark)
``heal``           restore the node's access link
``partition``      install switch drop rules between the node and its
                   storage/metadata peers — clients still reach it (the
                   asymmetric partition that exposes stale replicas)
``heal_partition`` remove those drop rules
``loss``           random packet loss on the node's link for ``duration``
``jitter``         extra random delivery delay on the link for ``duration``
``flap``           delete the partition's vring flow rules, re-sync after
                   ``down_s`` (NICE only)
``stall``          raise the controller's control-plane latency for
                   ``duration`` (NICE only)
``metadata_crash`` fail-stop the acting metadata leader; a standby must
                   promote itself (NICE with ``metadata_standbys`` only)
``metadata_rejoin`` power the crashed metadata replica back on (it returns
                   as a standby and syncs the membership log)
``controller_crash`` sever the controller↔switch channel: flow-mods and
                   packet-ins are dropped (NICE only)
``controller_recover`` restore the channel and run the epoch-stamped
                   reconciliation pass (diff-repair, not reinstall)
``rack_isolate``   cut every spine uplink of one rack's leaf switch — the
                   whole failure domain drops off the fabric (leaf-spine
                   clusters only; target ``"rack:<idx>"``)
``rack_heal``      restore the rack's uplinks and two-phase-rejoin every
                   node the metadata service declared failed meanwhile
``disk_slow``      degrade the target node's disk by ``factor`` (fail-slow
                   fault: the device still works, just slower)
``disk_heal``      restore the disk's factory service times
``disk_corrupt``   silently flip bits in ``count`` stored objects on the
                   target node (bit-rot; checksums catch it on read/scrub)
``power_failure``  whole-cluster power loss: every up node crashes with
                   volatile state *and* unflushed disk caches discarded;
                   the metadata leader and controller channel go dark too
``power_restore``  power returns: controller + metadata first, then the
                   storage nodes restart staggered by ``stagger_s``; each
                   cold-restarts from its durable image + WAL replay (§4.4
                   complete-cluster-failure recovery)
=================  ==========================================================

Targets are symbolic and resolved by the engine *at fire time* (membership
may have changed): ``"node:<name>"``, ``"primary:<key>"``,
``"secondary:<key>"`` (first non-primary replica), ``"key:<key>"`` (the
key's partition, for ``flap``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "controlplane_schedules",
    "durability_schedules",
    "named",
    "standard_schedules",
]


@dataclass(frozen=True)
class FaultEvent:
    """One timed fault: *at* ``at`` seconds, do ``kind`` to ``target``."""

    at: float
    kind: str
    target: str = ""
    params: Tuple[Tuple[str, object], ...] = ()

    def param(self, name: str, default=None):
        return dict(self.params).get(name, default)

    @staticmethod
    def make(at: float, kind: str, target: str = "", **params) -> "FaultEvent":
        """Build an event with params given as keyword arguments."""
        return FaultEvent(float(at), kind, target, tuple(sorted(params.items())))

    def __str__(self) -> str:
        p = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"@{self.at:g}s {self.kind}({self.target}{', ' if p else ''}{p})"


@dataclass(frozen=True)
class FaultSchedule:
    """A named, time-ordered fault script."""

    name: str
    events: Tuple[FaultEvent, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.at))
        )

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    @property
    def horizon(self) -> float:
        """Time of the last scheduled event."""
        return self.events[-1].at if self.events else 0.0

    # -- named schedules ----------------------------------------------------------
    @staticmethod
    def crash_rejoin(key: str, fail_at: float = 2.0, rejoin_at: float = 6.0) -> "FaultSchedule":
        """The Fig 11 scenario: a secondary replica crashes and rejoins."""
        return FaultSchedule(
            "crash_rejoin",
            (
                FaultEvent.make(fail_at, "crash", f"secondary:{key}"),
                FaultEvent.make(rejoin_at, "rejoin", f"secondary:{key}"),
            ),
            "secondary replica fail-stop crash, later restart + rejoin",
        )

    @staticmethod
    def primary_crash(key: str, fail_at: float = 2.0, rejoin_at: float = 6.0) -> "FaultSchedule":
        """Crash the key's *primary* mid-traffic: exercises failover
        reconciliation (committed-anywhere ⇒ commit-everywhere, §4.4)."""
        return FaultSchedule(
            "primary_crash",
            (
                FaultEvent.make(fail_at, "crash", f"primary:{key}"),
                FaultEvent.make(rejoin_at, "rejoin", f"primary:{key}"),
            ),
            "primary crash during 2PC traffic, later restart + rejoin",
        )

    @staticmethod
    def partition_rejoin(key: str, start: float = 2.0, heal_at: float = 5.0) -> "FaultSchedule":
        """Asymmetric partition of a secondary from its peers, then heal.

        The node stays reachable from clients the whole time — exactly the
        window where a system without NICE's consistent-rejoin discipline
        serves stale data.  After healing, the node is explicitly rejoined
        (an isolated node is declared failed and must rejoin, §4.5)."""
        return FaultSchedule(
            "partition_rejoin",
            (
                FaultEvent.make(start, "partition", f"secondary:{key}"),
                FaultEvent.make(heal_at, "heal_partition", f"secondary:{key}"),
                FaultEvent.make(heal_at, "rejoin", f"secondary:{key}"),
            ),
            "secondary partitioned from peers (clients still reach it), heal + rejoin",
        )

    @staticmethod
    def isolate_rejoin(key: str, start: float = 2.0, heal_at: float = 5.0) -> "FaultSchedule":
        """Full access-link blackout of a secondary, then heal + rejoin."""
        return FaultSchedule(
            "isolate_rejoin",
            (
                FaultEvent.make(start, "isolate", f"secondary:{key}"),
                FaultEvent.make(heal_at, "heal", f"secondary:{key}"),
                FaultEvent.make(heal_at, "rejoin", f"secondary:{key}"),
            ),
            "secondary's access link fully dark, heal + rejoin",
        )

    @staticmethod
    def rack_outage(rack: int = 1, start: float = 2.0, heal_at: float = 5.0) -> "FaultSchedule":
        """Take a whole rack off the fabric (leaf uplinks dark), then heal.

        The rack-aware placement guarantees every replica set spans >= 2
        racks, so the surviving fabric must keep every partition available
        and linearizable; on heal, the rack's nodes run the §4.4 two-phase
        rejoin."""
        return FaultSchedule(
            "rack_outage",
            (
                FaultEvent.make(start, "rack_isolate", f"rack:{rack}"),
                FaultEvent.make(heal_at, "rack_heal", f"rack:{rack}"),
            ),
            f"rack {rack} isolated from the spines, later healed + rejoined",
        )

    @staticmethod
    def lossy_network(key: str, start: float = 1.0, rate: float = 0.05, duration: float = 4.0) -> "FaultSchedule":
        """A loss + jitter burst on every replica link of the key."""
        return FaultSchedule(
            "lossy_network",
            (
                FaultEvent.make(start, "loss", f"primary:{key}", rate=rate, duration=duration),
                FaultEvent.make(start, "loss", f"secondary:{key}", rate=rate, duration=duration),
                FaultEvent.make(start, "jitter", f"secondary:{key}", jitter_s=200e-6, duration=duration),
            ),
            f"{rate:.0%} loss burst + delay jitter on the key's replica links",
        )

    @staticmethod
    def rule_flap(key: str, at: float = 2.0, down_s: float = 0.2, times: int = 2, gap: float = 1.5) -> "FaultSchedule":
        """Repeatedly delete and re-sync the key partition's flow rules."""
        events = tuple(
            FaultEvent.make(at + i * gap, "flap", f"key:{key}", down_s=down_s)
            for i in range(times)
        )
        return FaultSchedule(
            "rule_flap", events, "vring flow rules deleted and re-synced (NICE only)"
        )

    @staticmethod
    def controller_stall(at: float = 1.5, latency_s: float = 0.05, duration: float = 3.0) -> "FaultSchedule":
        """Slow the control plane 100×: packet-ins and flow-mods crawl."""
        return FaultSchedule(
            "controller_stall",
            (FaultEvent.make(at, "stall", latency_s=latency_s, duration=duration),),
            "control-plane latency raised for a window (NICE only)",
        )

    @staticmethod
    def metadata_failover(crash_at: float = 2.0, rejoin_at: float = 5.5) -> "FaultSchedule":
        """Kill the metadata leader mid-2PC traffic; a standby must detect
        the lease expiry, replay the membership log, mint the next epoch
        and reconcile the switches.  The deposed leader later returns and
        must demote itself (its stale-epoch messages are fenced)."""
        return FaultSchedule(
            "metadata_failover",
            (
                FaultEvent.make(crash_at, "metadata_crash"),
                FaultEvent.make(rejoin_at, "metadata_rejoin"),
            ),
            "metadata leader crash -> standby promotion -> deposed leader returns",
        )

    @staticmethod
    def controller_outage(
        key: str,
        node_fail_at: float = 1.5,
        crash_at: float = 3.8,
        node_rejoin_at: float = 4.0,
        recover_at: float = 5.5,
    ) -> "FaultSchedule":
        """Sever the switch channel across a node rejoin: the metadata
        leader defers the rejoin (its visibility flow-mods would be
        dropped), the node retries, and the post-recovery reconciliation
        repairs exactly the rules that diverged."""
        return FaultSchedule(
            "controller_outage",
            (
                FaultEvent.make(node_fail_at, "crash", f"secondary:{key}"),
                FaultEvent.make(crash_at, "controller_crash"),
                FaultEvent.make(node_rejoin_at, "rejoin", f"secondary:{key}"),
                FaultEvent.make(recover_at, "controller_recover"),
            ),
            "controller channel dark across a node rejoin; reconcile on recovery",
        )

    @staticmethod
    def node_meta_crash(
        key: str,
        node_fail_at: float = 1.5,
        meta_crash_at: float = 2.2,
        meta_rejoin_at: float = 4.6,
        node_rejoin_at: float = 6.4,
    ) -> "FaultSchedule":
        """Combined data+control failure: a storage node dies, then the
        metadata leader dies before declaring it.  The promoted standby
        must declare the node from its own (replayed) state, and the node's
        rejoin lands on the new leader via redirect/failover."""
        return FaultSchedule(
            "node_meta_crash",
            (
                FaultEvent.make(node_fail_at, "crash", f"secondary:{key}"),
                FaultEvent.make(meta_crash_at, "metadata_crash"),
                FaultEvent.make(meta_rejoin_at, "metadata_rejoin"),
                FaultEvent.make(node_rejoin_at, "rejoin", f"secondary:{key}"),
            ),
            "storage node + metadata leader crash; promoted standby handles both",
        )

    @staticmethod
    def power_blackout(
        fail_at: float = 3.0, restore_at: float = 5.0, stagger_s: float = 0.25
    ) -> "FaultSchedule":
        """Complete cluster power failure (§4.4, Complete Cluster Failure).

        Every node loses volatile state *and* its disk's unflushed write
        cache — only flushed (forced + flush-covered) bytes survive.  On
        restore, nodes cold-restart from the durable image + WAL replay;
        every acknowledged put must still be readable."""
        return FaultSchedule(
            "power_blackout",
            (
                FaultEvent.make(fail_at, "power_failure"),
                FaultEvent.make(restore_at, "power_restore", stagger_s=stagger_s),
            ),
            "whole-cluster power loss; staggered cold restart from durable state",
        )

    @staticmethod
    def bit_rot(
        key: str, at: float = 2.5, count: int = 4, target_role: str = "secondary"
    ) -> "FaultSchedule":
        """Silent on-disk corruption of stored objects on one replica.

        Per-object checksums must catch the rot on the next read (read
        path) or scrubber pass (cold data) and repair from a consistent
        peer — no client may ever observe a corrupted value."""
        return FaultSchedule(
            "bit_rot",
            (
                FaultEvent.make(at, "disk_corrupt", f"{target_role}:{key}", count=count),
            ),
            f"silent bit-rot in {count} objects on the {target_role}; "
            "checksums + scrub-and-repair must recover",
        )

    @staticmethod
    def fail_slow(
        key: str,
        at: float = 1.5,
        heal_at: float = 6.0,
        factor: float = 8.0,
        target_role: str = "primary",
    ) -> "FaultSchedule":
        """A fail-slow (gray-failure) disk: the device answers, just
        ``factor``× slower.  The obs-layer health signal must flag it, the
        metadata service must drain it from the read path and hand off the
        primary role; on heal the node is restored."""
        return FaultSchedule(
            "fail_slow",
            (
                FaultEvent.make(at, "disk_slow", f"{target_role}:{key}", factor=factor),
                FaultEvent.make(heal_at, "disk_heal", f"{target_role}:{key}"),
            ),
            f"disk {factor:g}x slower on the {target_role}; detector must "
            "drain + hand off, then restore on heal",
        )

    @staticmethod
    def random(seed: int, key: str, horizon: float = 8.0, n_episodes: int = 3) -> "FaultSchedule":
        """A seeded random schedule of fault episodes.

        Episodes never overlap (each heals before the next begins) so
        recovery paths — not pile-ups — are what gets exercised.  The same
        ``seed`` always produces the same schedule.
        """
        rng = np.random.default_rng(seed)
        kinds = ["crash", "partition", "isolate", "loss", "jitter"]
        events: List[FaultEvent] = []
        t = 0.5 + float(rng.uniform(0.0, 1.0))
        for _ in range(n_episodes):
            if t >= horizon - 1.0:
                break
            kind = kinds[int(rng.integers(len(kinds)))]
            role = "primary" if rng.random() < 0.3 else "secondary"
            target = f"{role}:{key}"
            dur = float(rng.uniform(0.8, 2.0))
            if kind == "crash":
                events += [
                    FaultEvent.make(t, "crash", target),
                    FaultEvent.make(t + dur, "rejoin", target),
                ]
            elif kind == "partition":
                events += [
                    FaultEvent.make(t, "partition", target),
                    FaultEvent.make(t + dur, "heal_partition", target),
                    FaultEvent.make(t + dur, "rejoin", target),
                ]
            elif kind == "isolate":
                events += [
                    FaultEvent.make(t, "isolate", target),
                    FaultEvent.make(t + dur, "heal", target),
                    FaultEvent.make(t + dur, "rejoin", target),
                ]
            elif kind == "loss":
                events.append(
                    FaultEvent.make(
                        t, "loss", target, rate=float(rng.uniform(0.02, 0.15)), duration=dur
                    )
                )
            else:  # jitter
                events.append(
                    FaultEvent.make(
                        t, "jitter", target, jitter_s=float(rng.uniform(1e-4, 5e-4)), duration=dur
                    )
                )
            t += dur + 0.5 + float(rng.uniform(0.0, 1.0))
        return FaultSchedule(
            f"random[{seed}]", tuple(events), f"seeded random episodes (seed={seed})"
        )


def _by_name(*schedules: FaultSchedule) -> Dict[str, FaultSchedule]:
    return {s.name: s for s in schedules}


def standard_schedules(key: str) -> Dict[str, FaultSchedule]:
    """The named schedule suite the chaos bench sweeps, keyed by name."""
    return _by_name(
        FaultSchedule.crash_rejoin(key),
        FaultSchedule.primary_crash(key),
        FaultSchedule.partition_rejoin(key),
        FaultSchedule.isolate_rejoin(key),
        FaultSchedule.lossy_network(key),
    )


def controlplane_schedules(key: str) -> Dict[str, FaultSchedule]:
    """The control-plane fault family (NICE with metadata standbys)."""
    return _by_name(
        FaultSchedule.metadata_failover(),
        FaultSchedule.controller_outage(key),
        FaultSchedule.node_meta_crash(key),
    )


def durability_schedules(key: str) -> Dict[str, FaultSchedule]:
    """The durability fault family (DESIGN.md §5k): power loss, bit-rot,
    and fail-slow disks."""
    return _by_name(
        FaultSchedule.power_blackout(),
        FaultSchedule.bit_rot(key),
        FaultSchedule.fail_slow(key),
    )


_RANDOM_NAME = re.compile(r"random\[(\d+)\]")


def named(name: str, key: str) -> FaultSchedule:
    """The schedule a cell carries by ``name``, aimed at ``key``: any of the
    three families above, ``rule_flap``, or the seeded ``random[N]``."""
    seeded = _RANDOM_NAME.fullmatch(name)
    if seeded:
        return FaultSchedule.random(int(seeded.group(1)), key)
    suite = {
        **standard_schedules(key),
        **controlplane_schedules(key),
        **durability_schedules(key),
        "rule_flap": FaultSchedule.rule_flap(key),
    }
    if name not in suite:
        raise ValueError(f"unknown schedule {name!r}; have {sorted(suite)} or random[N]")
    return suite[name]

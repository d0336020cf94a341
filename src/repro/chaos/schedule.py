"""Declarative fault schedules.

A schedule is data, not code: a named, time-sorted list of
:class:`FaultEvent` records that :class:`~repro.chaos.engine.ChaosEngine`
interprets.  Keeping schedules declarative makes them printable, hashable
into test IDs, and — together with the deterministic simulator — makes a
chaos run reproducible from ``(seed, schedule)`` alone.

The event kinds, what each does and the parameters it takes are the
records of :data:`repro.chaos.faults.FAULTS` (``FAULTS[kind].doc``); an
event naming an unknown kind or parameter is rejected when it is built.

Targets are symbolic and resolved by the engine *at fire time* (membership
may have changed): ``"node:<name>"``, ``"primary:<key>"``,
``"secondary:<key>"`` (first non-primary replica), ``"rack:<idx>"`` (a
fabric's failure domain), ``"key:<key>"`` (the key's partition, for
``flap``); cluster-wide kinds take none.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .faults import FAULTS

__all__ = [
    "FaultEvent",
    "FaultSchedule",
    "controlplane_schedules",
    "durability_schedules",
    "episode",
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

    def __post_init__(self) -> None:
        if self.kind not in FAULTS:
            raise ValueError(f"unknown fault kind {self.kind!r}; have {sorted(FAULTS)}")
        takes = FAULTS[self.kind].defaults
        unknown = sorted(name for name, _ in self.params if name not in takes)
        if unknown:
            raise ValueError(f"{self.kind} takes {sorted(takes)}, not {unknown}")

    @staticmethod
    def make(at: float, kind: str, target: str = "", **params) -> "FaultEvent":
        """Build an event with params given as keyword arguments."""
        return FaultEvent(float(at), kind, target, tuple(sorted(params.items())))


def episode(
    kind: str, target: str, start: float, duration: float, **params
) -> Tuple[FaultEvent, ...]:
    """One whole fault of ``kind``, from ``start`` until it is over.

    A kind that another kind ends (``Fault.ends``) gets that kind
    ``duration`` later, and after it the ``rejoin`` a node needs once it
    has been declared failed (``Fault.rejoins``); a self-healing kind
    takes ``duration`` as its own parameter."""
    enders = [fault.name for fault in FAULTS.values() if fault.ends == kind]
    if not enders:
        return (FaultEvent.make(start, kind, target, duration=duration, **params),)
    if FAULTS[kind].rejoins:
        enders.append("rejoin")
    return (
        FaultEvent.make(start, kind, target, **params),
        *(FaultEvent.make(start + duration, ender, target) for ender in enders),
    )


def _schedule(events):
    """Make ``events(...)``, which returns the events, the constructor of
    the schedule named after it."""

    @functools.wraps(events)
    def build(*args, **kwargs) -> "FaultSchedule":
        return FaultSchedule(events.__name__, tuple(events(*args, **kwargs)))

    return staticmethod(build)


@dataclass(frozen=True)
class FaultSchedule:
    """A named, time-ordered fault script."""

    name: str
    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=lambda e: e.at))
        )

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # -- named schedules ----------------------------------------------------------
    @_schedule
    def crash_rejoin(key: str, fail_at: float = 2.0, rejoin_at: float = 6.0):
        """The Fig 11 scenario: a secondary replica crashes and rejoins."""
        return episode("crash", f"secondary:{key}", fail_at, rejoin_at - fail_at)

    @_schedule
    def primary_crash(key: str, fail_at: float = 2.0, rejoin_at: float = 6.0):
        """Crash the key's *primary* mid-traffic: exercises failover
        reconciliation (committed-anywhere ⇒ commit-everywhere, §4.4)."""
        return episode("crash", f"primary:{key}", fail_at, rejoin_at - fail_at)

    @_schedule
    def partition_rejoin(key: str, start: float = 2.0, heal_at: float = 5.0):
        """Asymmetric partition of a secondary from its peers, then heal.

        The node stays reachable from clients the whole time — exactly the
        window where a system without NICE's consistent-rejoin discipline
        serves stale data.  After healing, the node is explicitly rejoined
        (an isolated node is declared failed and must rejoin, §4.5)."""
        return episode("partition", f"secondary:{key}", start, heal_at - start)

    @_schedule
    def isolate_rejoin(key: str, start: float = 2.0, heal_at: float = 5.0):
        """Full access-link blackout of a secondary, then heal + rejoin."""
        return episode("isolate", f"secondary:{key}", start, heal_at - start)

    @_schedule
    def rack_outage(rack: int = 1, start: float = 2.0, heal_at: float = 5.0):
        """Take a whole rack off the fabric (leaf uplinks dark), then heal.

        The rack-aware placement guarantees every replica set spans >= 2
        racks, so the surviving fabric must keep every partition available
        and linearizable; on heal, the rack's nodes run the §4.4 two-phase
        rejoin."""
        return episode("rack_isolate", f"rack:{rack}", start, heal_at - start)

    @_schedule
    def lossy_network(key: str, start: float = 1.0, rate: float = 0.05, duration: float = 4.0):
        """A loss + jitter burst on every replica link of the key."""
        return (
            *episode("loss", f"primary:{key}", start, duration, rate=rate),
            *episode("loss", f"secondary:{key}", start, duration, rate=rate),
            *episode("jitter", f"secondary:{key}", start, duration, jitter_s=200e-6),
        )

    @_schedule
    def rule_flap(key: str, at: float = 2.0, down_s: float = 0.2, times: int = 2, gap: float = 1.5):
        """Repeatedly delete and re-sync the key partition's flow rules
        (NICE only)."""
        return (
            FaultEvent.make(at + i * gap, "flap", f"key:{key}", down_s=down_s)
            for i in range(times)
        )

    @_schedule
    def metadata_failover(crash_at: float = 2.0, rejoin_at: float = 5.5):
        """Kill the metadata leader mid-2PC traffic; a standby must detect
        the lease expiry, replay the membership log, mint the next epoch
        and reconcile the switches.  The deposed leader later returns and
        must demote itself (its stale-epoch messages are fenced)."""
        return (
            FaultEvent.make(crash_at, "metadata_crash"),
            FaultEvent.make(rejoin_at, "metadata_rejoin"),
        )

    @_schedule
    def controller_outage(
        key: str,
        node_fail_at: float = 1.5,
        crash_at: float = 3.8,
        node_rejoin_at: float = 4.0,
        recover_at: float = 5.5,
    ):
        """Sever the switch channel across a node rejoin: the metadata
        leader defers the rejoin (its visibility flow-mods would be
        dropped), the node retries, and the post-recovery reconciliation
        repairs exactly the rules that diverged."""
        return (
            FaultEvent.make(node_fail_at, "crash", f"secondary:{key}"),
            FaultEvent.make(crash_at, "controller_crash"),
            FaultEvent.make(node_rejoin_at, "rejoin", f"secondary:{key}"),
            FaultEvent.make(recover_at, "controller_recover"),
        )

    @_schedule
    def node_meta_crash(
        key: str,
        node_fail_at: float = 1.5,
        meta_crash_at: float = 2.2,
        meta_rejoin_at: float = 4.6,
        node_rejoin_at: float = 6.4,
    ):
        """Combined data+control failure: a storage node dies, then the
        metadata leader dies before declaring it.  The promoted standby
        must declare the node from its own (replayed) state, and the node's
        rejoin lands on the new leader via redirect/failover."""
        return (
            FaultEvent.make(node_fail_at, "crash", f"secondary:{key}"),
            FaultEvent.make(meta_crash_at, "metadata_crash"),
            FaultEvent.make(meta_rejoin_at, "metadata_rejoin"),
            FaultEvent.make(node_rejoin_at, "rejoin", f"secondary:{key}"),
        )

    @_schedule
    def power_blackout(fail_at: float = 3.0, restore_at: float = 5.0, stagger_s: float = 0.25):
        """Complete cluster power failure (§4.4, Complete Cluster Failure).

        Every node loses volatile state *and* its disk's unflushed write
        cache — only flushed (forced + flush-covered) bytes survive.  On
        restore, nodes cold-restart from the durable image + WAL replay;
        every acknowledged put must still be readable."""
        return (
            FaultEvent.make(fail_at, "power_failure"),
            FaultEvent.make(restore_at, "power_restore", stagger_s=stagger_s),
        )

    @_schedule
    def bit_rot(key: str, at: float = 2.5, count: int = 4, target_role: str = "secondary"):
        """Silent on-disk corruption of stored objects on one replica.

        Per-object checksums must catch the rot on the next read (read
        path) or scrubber pass (cold data) and repair from a consistent
        peer — no client may ever observe a corrupted value."""
        return (FaultEvent.make(at, "disk_corrupt", f"{target_role}:{key}", count=count),)

    @_schedule
    def fail_slow(
        key: str,
        at: float = 1.5,
        heal_at: float = 6.0,
        factor: float = 8.0,
        target_role: str = "primary",
    ):
        """A fail-slow (gray-failure) disk: the device answers, just
        ``factor``× slower.  The obs-layer health signal must flag it, the
        metadata service must drain it from the read path and hand off the
        primary role; on heal the node is restored."""
        return (
            FaultEvent.make(at, "disk_slow", f"{target_role}:{key}", factor=factor),
            FaultEvent.make(heal_at, "disk_heal", f"{target_role}:{key}"),
        )

    @staticmethod
    def random(seed: int, key: str, horizon: float = 8.0, n_episodes: int = 3) -> "FaultSchedule":
        """A seeded random schedule of fault episodes.

        Episodes never overlap (each heals before the next begins) so
        recovery paths — not pile-ups — are what gets exercised.  The same
        ``seed`` always produces the same schedule.
        """
        rng = np.random.default_rng(seed)
        #: kind -> the one parameter drawn for it (name, low, high), if any.
        menu = {
            "crash": None,
            "partition": None,
            "isolate": None,
            "loss": ("rate", 0.02, 0.15),
            "jitter": ("jitter_s", 1e-4, 5e-4),
        }
        kinds = list(menu)
        events: List[FaultEvent] = []
        t = 0.5 + float(rng.uniform(0.0, 1.0))
        for _ in range(n_episodes):
            if t >= horizon - 1.0:
                break
            kind = kinds[int(rng.integers(len(kinds)))]
            role = "primary" if rng.random() < 0.3 else "secondary"
            dur = float(rng.uniform(0.8, 2.0))
            drawn = {}
            if menu[kind] is not None:
                name, low, high = menu[kind]
                drawn[name] = float(rng.uniform(low, high))
            events += episode(kind, f"{role}:{key}", t, dur, **drawn)
            t += dur + 0.5 + float(rng.uniform(0.0, 1.0))
        return FaultSchedule(f"random[{seed}]", tuple(events))


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

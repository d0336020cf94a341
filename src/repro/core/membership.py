"""Membership state: replica sets and the partition map.

The metadata service is "the only component that maintains the system
membership and metadata" (§4.1).  Each partition (vring subgroup) has a
replica set; storage nodes receive only the O(R) slice relevant to them.

A replica set distinguishes:

* *members* — the original replicas (element 0 is the original primary);
* *absent* — failed or not-yet-consistent members, hidden from clients
  (consistency-aware fault tolerance, §3.3);
* *joining* — rejoining members in phase 1: visible to puts (multicast
  group) but not yet to gets (§4.4, Node Recovery);
* *handoffs* — stand-in secondaries covering for absent members (§4.4);
* *uncovered* — absent members whose missed writes are NOT fully covered
  by the current handoffs (a handoff died, or none could be appointed).
  Correlated failures (e.g. a rack outage) can kill a handoff that was
  itself inside the failing domain; a rejoiner listed here must run a
  full partition fetch from the acting primary instead of trusting the
  incremental handoff catch-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..kv import ConsistentHashRing, key_hash

__all__ = ["ReplicaSet", "PartitionMap"]

#: Virtual points per node on the physical ring: smooths node placement.
RING_POINTS_PER_NODE = 32


@dataclass
class ReplicaSet:
    """Current membership of one partition."""

    partition: int
    members: List[str]
    primary: str = ""
    absent: Set[str] = field(default_factory=set)
    joining: Set[str] = field(default_factory=set)
    handoffs: List[str] = field(default_factory=list)
    uncovered: Set[str] = field(default_factory=set)
    #: Mutation counter bumped by every membership transition; the
    #: controller's plan cache keys on it.  Excluded from equality so
    #: wire round-trips and test fixtures compare by content.
    rev: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"partition {self.partition}: empty replica set")
        if not self.primary:
            self.primary = self.members[0]

    # -- views ------------------------------------------------------------
    def put_targets(self) -> List[str]:
        """Multicast-group membership: consistent members, phase-1 joiners,
        and handoffs — everyone who must receive new puts."""
        out = [m for m in self.members if m not in self.absent]
        out += [m for m in self.members if m in self.joining and m in self.absent]
        out += list(self.handoffs)
        return out

    def get_targets(self) -> List[str]:
        """Unicast/LB targets: only nodes holding consistent data."""
        return [m for m in self.members if m not in self.absent] + list(self.handoffs)

    def secondaries(self) -> List[str]:
        """Current secondary replicas from the acting primary's view."""
        return [n for n in self.put_targets() if n != self.primary]

    def is_member(self, node: str) -> bool:
        return node in self.members or node in self.handoffs

    def live_original_members(self) -> List[str]:
        return [m for m in self.members if m not in self.absent]

    # -- transitions (driven by the metadata service) -----------------------------
    def mark_failed(self, node: str) -> None:
        self.rev += 1
        if node in self.members:
            self.absent.add(node)
            self.joining.discard(node)
            if self.primary == node:
                live = self.live_original_members()
                # §4.4: "the metadata service selects one of the secondary
                # nodes to act as a primary node".
                if live:
                    self.primary = live[0]
                elif self.handoffs:
                    self.primary = self.handoffs[0]
        elif node in self.handoffs:
            self.handoffs.remove(node)
            # The dead handoff may have been the only holder of writes its
            # absent members missed; their catch-up can no longer rely on
            # the (remaining) handoff chain.
            self.uncovered |= set(self.absent)

    def add_handoff(self, node: str) -> None:
        if self.is_member(node):
            raise ValueError(f"{node} already serves partition {self.partition}")
        self.rev += 1
        self.handoffs.append(node)

    def set_primary(self, node: str) -> bool:
        """Hand the primary role to ``node`` (fail-slow drain, §5k): the
        old primary stays a consistent member — its data is fine, only
        its device is slow.  Returns whether anything changed."""
        if node == self.primary or node not in self.members or node in self.absent:
            return False
        self.rev += 1
        self.primary = node
        return True

    def begin_rejoin(self, node: str) -> None:
        """Phase 1: put-visible only (still 'absent' for gets)."""
        if node not in self.members:
            raise ValueError(f"{node} is not an original member of p{self.partition}")
        self.rev += 1
        self.joining.add(node)

    def complete_rejoin(self, node: str) -> List[str]:
        """Phase 2: node is consistent — restore it, drop handoffs.

        Returns the handoff nodes released by this transition.
        """
        if node not in self.joining:
            raise ValueError(f"{node} has not begun rejoin on p{self.partition}")
        self.rev += 1
        self.joining.discard(node)
        self.absent.discard(node)
        self.uncovered.discard(node)
        released, self.handoffs = self.handoffs, []
        if self.members and self.members[0] == node:
            self.primary = node  # original primary resumes its role
        elif self.primary not in self.live_original_members():
            self.primary = self.live_original_members()[0]
        return released

    def to_wire(self) -> dict:
        """Serializable O(R) slice sent to affected storage nodes."""
        return {
            "partition": self.partition,
            "members": list(self.members),
            "primary": self.primary,
            "absent": sorted(self.absent),
            "joining": sorted(self.joining),
            "handoffs": list(self.handoffs),
            "uncovered": sorted(self.uncovered),
        }

    @staticmethod
    def from_wire(data: dict) -> "ReplicaSet":
        return ReplicaSet(
            partition=data["partition"],
            members=list(data["members"]),
            primary=data["primary"],
            absent=set(data["absent"]),
            joining=set(data["joining"]),
            handoffs=list(data["handoffs"]),
            uncovered=set(data.get("uncovered", ())),
        )


class PartitionMap:
    """All replica sets, plus the placement logic that seeds them."""

    def __init__(self, replica_sets: List[ReplicaSet]):
        self._sets: Dict[int, ReplicaSet] = {rs.partition: rs for rs in replica_sets}
        #: Bumped whenever a replica-set *object* is swapped in (HA log
        #: replay); plan-cache entries keyed on the old object die with it.
        self.generation = 0

    @staticmethod
    def build(
        node_names: List[str],
        n_partitions: int,
        replication_level: int,
        racks: Optional[Dict[str, int]] = None,
    ) -> "PartitionMap":
        """Initial placement: partitions land on the physical consistent-hash
        ring; the R clockwise successors form the replica set (§3.1).

        With ``racks`` (node -> failure domain), placement is rack-aware:
        if the R successors all share one rack, the last member is swapped
        for the next clockwise node from a different rack, so every
        replica set spans >= 2 failure domains whenever the cluster does.
        The swap is deterministic (pure ring order) and a no-op when
        ``racks`` is None or single-rack — the pre-fabric placement.
        """
        ring = ConsistentHashRing(points_per_node=RING_POINTS_PER_NODE)
        for name in node_names:
            ring.add_node(name)
        multi_rack = racks is not None and len(set(racks.values())) > 1
        sets = []
        for p in range(n_partitions):
            point = ConsistentHashRing.partition_point(p, n_partitions)
            members = [str(n) for n in ring.successors(point, replication_level)]
            if multi_rack and len({racks[m] for m in members}) == 1:
                order = [str(n) for n in ring.successors(point, len(node_names))]
                home = racks[members[0]]
                for candidate in order[replication_level:]:
                    if racks[candidate] != home:
                        members[-1] = candidate
                        break
            sets.append(ReplicaSet(partition=p, members=members))
        return PartitionMap(sets)

    def __len__(self) -> int:
        return len(self._sets)

    def __iter__(self):
        return iter(self._sets.values())

    def get(self, partition: int) -> ReplicaSet:
        try:
            return self._sets[partition]
        except KeyError:
            raise KeyError(f"unknown partition {partition}") from None

    def replicas_of_key(self, key: str) -> List[str]:
        """Replica names serving ``key``, primary first — the placement
        lookup every full-membership holder (NOOB client, node, gateway)
        does locally (§2.1)."""
        rs = self.get(ConsistentHashRing.partition_of_hash(key_hash(key), len(self._sets)))
        return [rs.primary] + [m for m in rs.members if m != rs.primary]

    def install(self, rs: ReplicaSet) -> None:
        """Replace one partition's replica set (membership-log replay)."""
        self._sets[rs.partition] = rs
        self.generation += 1

    def partitions_of(self, node: str) -> List[ReplicaSet]:
        """Every replica set ``node`` currently serves (member or handoff)."""
        return [rs for rs in self._sets.values() if rs.is_member(node)]

    def partitions_where_member(self, node: str) -> List[ReplicaSet]:
        return [rs for rs in self._sets.values() if node in rs.members]

    def eligible_handoffs(self, partition: int, candidates: List[str]) -> List[str]:
        """Nodes that may stand in for a failure on ``partition``: "any
        storage node ... that is not already part of the affected
        replication set" (§4.4)."""
        rs = self.get(partition)
        return [c for c in candidates if not rs.is_member(c)]

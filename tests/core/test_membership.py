"""Unit tests for replica sets and the partition map."""

import pytest

from repro.core import PartitionMap, ReplicaSet


def rs(members=("n0", "n1", "n2"), **kw):
    return ReplicaSet(partition=0, members=list(members), **kw)


def test_primary_defaults_to_first_member():
    r = rs()
    assert r.primary == "n0"
    assert r.secondaries() == ["n1", "n2"]


def test_empty_replica_set_rejected():
    with pytest.raises(ValueError):
        ReplicaSet(partition=0, members=[])


def test_mark_failed_secondary():
    r = rs()
    r.mark_failed("n1")
    assert "n1" in r.absent
    assert r.primary == "n0"
    assert r.get_targets() == ["n0", "n2"]
    assert r.put_targets() == ["n0", "n2"]


def test_mark_failed_primary_promotes_live_member():
    r = rs()
    r.mark_failed("n0")
    assert r.primary == "n1"
    assert r.secondaries() == ["n2"]


def test_mark_failed_handoff_just_removes_it():
    r = rs()
    r.add_handoff("h1")
    r.mark_failed("h1")
    assert r.handoffs == []
    assert r.absent == set()


def test_add_handoff_rejects_existing_member():
    r = rs()
    with pytest.raises(ValueError):
        r.add_handoff("n1")
    r.add_handoff("h1")
    with pytest.raises(ValueError):
        r.add_handoff("h1")


def test_handoff_serves_puts_and_gets():
    r = rs()
    r.mark_failed("n2")
    r.add_handoff("h1")
    assert r.put_targets() == ["n0", "n1", "h1"]
    assert r.get_targets() == ["n0", "n1", "h1"]


def test_rejoin_two_phases():
    r = rs()
    r.mark_failed("n2")
    r.add_handoff("h1")
    r.begin_rejoin("n2")
    # Phase 1: put-visible, not get-visible.
    assert "n2" in r.put_targets()
    assert "n2" not in r.get_targets()
    released = r.complete_rejoin("n2")
    assert released == ["h1"]
    assert r.put_targets() == ["n0", "n1", "n2"]
    assert r.get_targets() == ["n0", "n1", "n2"]
    assert r.absent == set()


def test_rejoining_original_primary_resumes_role():
    r = rs()
    r.mark_failed("n0")
    assert r.primary == "n1"
    r.begin_rejoin("n0")
    assert r.primary == "n1"  # still acting primary during phase 1
    r.complete_rejoin("n0")
    assert r.primary == "n0"


def test_rejoin_guards():
    r = rs()
    with pytest.raises(ValueError):
        r.begin_rejoin("ghost")
    with pytest.raises(ValueError):
        r.complete_rejoin("n1")  # never began


def test_wire_roundtrip():
    r = rs()
    r.mark_failed("n1")
    r.add_handoff("h1")
    r.begin_rejoin("n1")
    back = ReplicaSet.from_wire(r.to_wire())
    assert back.members == r.members
    assert back.primary == r.primary
    assert back.absent == r.absent
    assert back.joining == r.joining
    assert back.handoffs == r.handoffs


def test_partition_map_build_shapes():
    names = [f"n{i}" for i in range(8)]
    pm = PartitionMap.build(names, n_partitions=16, replication_level=3)
    assert len(pm) == 16
    for p in range(16):
        replicas = pm.get(p)
        assert len(replicas.members) == 3
        assert len(set(replicas.members)) == 3
        assert all(m in names for m in replicas.members)


def test_partition_map_places_on_a_ring_of_fixed_virtual_points():
    """Placement is the R clockwise successors of each partition point on
    a ring with ``RING_POINTS_PER_NODE`` virtual points per node."""
    from repro.core.membership import RING_POINTS_PER_NODE
    from repro.kv import ConsistentHashRing

    assert RING_POINTS_PER_NODE == 32
    nodes = [f"n{i}" for i in range(8)]
    ring = ConsistentHashRing(points_per_node=RING_POINTS_PER_NODE)
    for name in nodes:
        ring.add_node(name)
    pm = PartitionMap.build(nodes, 16, 3)
    for p in range(16):
        point = ConsistentHashRing.partition_point(p, 16)
        assert pm.get(p).members == [str(n) for n in ring.successors(point, 3)]


def test_partition_map_every_node_serves_something():
    names = [f"n{i}" for i in range(8)]
    pm = PartitionMap.build(names, 16, 3)
    for n in names:
        assert pm.partitions_of(n), f"{n} serves nothing"


def test_partition_map_o_r_property():
    """Nodes participate in a bounded number of partitions — the O(R)
    membership-knowledge claim (§4.1) needs partition spread, not blowup."""
    names = [f"n{i}" for i in range(16)]
    pm = PartitionMap.build(names, 16, 3)
    counts = [len(pm.partitions_of(n)) for n in names]
    assert sum(counts) == 16 * 3


def test_eligible_handoffs_excludes_replica_set():
    names = [f"n{i}" for i in range(6)]
    pm = PartitionMap.build(names, 8, 3)
    rs0 = pm.get(0)
    eligible = pm.eligible_handoffs(0, names)
    assert set(eligible) == set(names) - set(rs0.members)


def test_partition_map_unknown_partition():
    pm = PartitionMap.build(["a", "b", "c"], 4, 2)
    with pytest.raises(KeyError):
        pm.get(99)


def test_partitions_where_member_excludes_handoffs():
    pm = PartitionMap.build(["a", "b", "c", "d"], 4, 2)
    rs0 = pm.get(0)
    outsider = next(n for n in ["a", "b", "c", "d"] if n not in rs0.members)
    rs0.mark_failed(rs0.members[1])
    rs0.add_handoff(outsider)
    assert rs0 in pm.partitions_of(outsider)
    assert rs0 not in pm.partitions_where_member(outsider)

"""The fault table (``repro.chaos.FAULTS``): its records are consistent
with each other, every kind fires on a cluster that has every part and
degrades to a "skipped" mark on one that does not, a schedule naming an
unknown kind or parameter is rejected when it is built, and the seeded
random schedules still draw what they drew before the table existed."""

import pytest

from repro.chaos import FAULTS, ChaosEngine, FaultEvent, FaultSchedule, episode
from repro.core import ClusterConfig, NiceCluster
from repro.noob import NoobCluster, NoobConfig

KEY = "k"
TARGET = {"node": f"primary:{KEY}", "rack": "rack:1", "key": f"key:{KEY}", "cluster": ""}


def _with_lead_up(kind):
    """``kind`` preceded by the outage it ends (and the one that one ends…)."""
    kinds = [kind]
    while FAULTS[kinds[0]].ends is not None:
        kinds.insert(0, FAULTS[kinds[0]].ends)
    return kinds


def _fire(cluster, kind, settle_s=0.15):
    """Store ``KEY``, then fire ``kind`` (after its lead-up) 0.1 s apart;
    returns the engine once the last event has had ``settle_s``."""
    cluster.warm_up()
    sim = cluster.sim

    def store_key():
        yield cluster.clients[0].put(KEY, "v", 512)

    sim.process(store_key())
    sim.run(until=sim.now + 0.05)
    kinds = _with_lead_up(kind)
    t0 = sim.now + 0.05
    schedule = FaultSchedule(
        kind,
        tuple(
            FaultEvent.make(t0 + 0.1 * i, k, TARGET[FAULTS[k].scope])
            for i, k in enumerate(kinds)
        ),
    )
    engine = ChaosEngine(cluster, schedule, seed=3)
    engine.start()
    sim.run(until=t0 + 0.1 * len(kinds) + settle_s)
    assert len(engine.events) >= len(kinds), engine.events
    return engine


def test_both_cluster_kinds_answer_the_declared_surface():
    declared = (
        "sim config network nodes clients directory partition_map switches "
        "fabric controller control_plane metadata metadata_ha metadata_active "
        "edge_switches gateways"
    ).split()
    for cluster in (
        NiceCluster(ClusterConfig(n_storage_nodes=4, n_clients=1)),
        NoobCluster(NoobConfig(n_storage_nodes=4, n_clients=1)),
    ):
        for name in declared:
            getattr(cluster, name)  # AttributeError = an undeclared part
        assert 0 <= cluster.partition_of_key(KEY) < len(cluster.partition_map)
    noob = NoobCluster(NoobConfig(n_storage_nodes=4, n_clients=1))
    assert noob.fabric is noob.control_plane is noob.metadata_ha is None
    assert noob.switches == [noob.switch] and not noob.edge_switches


def test_records_are_consistent():
    parts = ChaosEngine(NoobCluster(NoobConfig()), FaultSchedule("none", ())).parts
    for kind, fault in FAULTS.items():
        assert fault.name == kind and fault.doc
        assert fault.scope in TARGET
        assert fault.binding in ("none", "bind", "unbind", "peek")
        assert fault.binding == "none" or fault.scope == "node"
        assert set(fault.needs) <= set(parts)
        if fault.ends is not None:
            assert FAULTS[fault.ends].scope == fault.scope, kind
            assert FAULTS[fault.ends].ends is None  # an outage, not another recovery


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_every_kind_applies_to_a_fabric_with_a_standby(kind):
    cluster = NiceCluster(
        ClusterConfig(n_storage_nodes=8, n_clients=2, n_racks=2, metadata_standbys=1)
    )
    engine = _fire(cluster, kind)
    assert not [label for _, label in engine.events if "skipped" in label]


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_every_kind_applies_or_is_skipped_on_noob(kind):
    engine = _fire(NoobCluster(NoobConfig(n_storage_nodes=4, n_clients=1)), kind)
    skipped = [label for _, label in engine.events if "skipped" in label]
    nice_only = bool(FAULTS[kind].needs)
    assert bool(skipped) == nice_only, engine.events


def test_a_lone_metadata_leader_survives_leader_crashes_and_power_loss():
    """A group of one has no standby to take over: ``metadata_crash`` is
    skipped and ``power_failure`` leaves the leader up.  Crashed and
    restored, it would judge every node by heartbeat clocks that stopped
    with it and declare the whole fleet failed."""
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=4, n_clients=1))
    leader = cluster.metadata_ha.leader
    schedule = FaultSchedule("lone", (
        FaultEvent.make(0.5, "metadata_crash"),
        FaultEvent.make(0.6, "metadata_rejoin"),
        FaultEvent.make(1.0, "power_failure"),
        FaultEvent.make(1.5, "power_restore"),
    ))
    engine = ChaosEngine(cluster, schedule)
    engine.start()
    cluster.sim.run(until=1.2)
    assert leader.host.up and cluster.metadata_ha.leader is leader
    cluster.sim.run(until=8.0)
    labels = [label for _, label in engine.events]
    assert labels[:2] == ["metadata_crash skipped (no leader)",
                          "metadata_rejoin skipped (no crashed replica)"]
    assert not any("metadata replica" in label for label in labels)
    assert cluster.metadata_active is cluster.metadata and leader.host.up
    assert sum(label.endswith(" consistent") for label in labels) == 4
    assert cluster.metadata.failures_declared.value == 0
    assert set(cluster.metadata.status.values()) == {"up"}


def test_stall_raises_control_plane_latency_for_its_duration():
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=4, n_clients=1))
    before = cluster.control_plane.latency_s
    schedule = FaultSchedule(
        "stall", (FaultEvent.make(0.5, "stall", latency_s=0.02, duration=0.25),)
    )
    engine = ChaosEngine(cluster, schedule)
    engine.start()
    cluster.sim.run(until=0.6)
    assert cluster.control_plane.latency_s == 0.02
    cluster.sim.run(until=1.0)
    assert cluster.control_plane.latency_s == before
    assert engine.events == [
        (0.5, "controller stalled to 20ms for 0.25s"),
        (0.75, "controller stall ends"),
    ]


def test_unknown_kind_or_parameter_is_rejected_when_the_event_is_built():
    with pytest.raises(ValueError, match="unknown fault kind 'crahs'"):
        FaultEvent.make(1.0, "crahs", "node:n0")
    with pytest.raises(ValueError, match="rat"):
        FaultEvent.make(1.0, "loss", "node:n0", rat=0.1)
    with pytest.raises(ValueError, match="duration"):
        episode("flap", "key:k", 1.0, 2.0)  # heals after its own down_s


def test_random_schedules_draw_what_they_always_drew():
    """Literal copies of what the hand-written menu produced (PR 23): the
    table-driven ``episode`` must keep every rng draw in the same order."""

    def literal(*events):
        return tuple(FaultEvent(at, kind, "secondary:k", params) for at, kind, params in events)

    assert FaultSchedule.random(101, "k").events == literal(
        (1.443532505610554, "loss",
         (("duration", 1.5095338222752943), ("rate", 0.05826271295560066))),
        (4.375792014308763, "partition", ()),
        (5.61275812585739, "heal_partition", ()),
        (5.61275812585739, "rejoin", ()),
    )
    assert FaultSchedule.random(202, "k").events == literal(
        (0.8462874999237423, "isolate", ()),
        (2.471277516863926, "heal", ()),
        (2.471277516863926, "rejoin", ()),
        (3.2717035080749217, "isolate", ()),
        (4.747916489966849, "heal", ()),
        (4.747916489966849, "rejoin", ()),
        (6.084655304204487, "jitter",
         (("duration", 1.178485343937202), ("jitter_s", 0.00041130272376018373))),
    )

"""Unit tests for control-plane HA: membership log replay, epoch fencing,
standby promotion, reconciliation diffs, and the detection edge cases the
HA work hardened (dead-at-registration nodes, racing failure reports)."""

import dataclasses

from repro.core import (
    ClusterConfig,
    MetadataReplica,
    MetadataService,
    NiceCluster,
    replay_log,
)
from repro.core.metadata import DOWN, JOINING, UP


def make_cluster(**kw):
    defaults = dict(n_storage_nodes=6, n_clients=2, replication_level=3)
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def make_ha_cluster(**kw):
    kw.setdefault("metadata_standbys", 1)
    return make_cluster(**kw)


# -- one code path: a standby-less cluster is a group of one -----------------

def _spy(monkeypatch, cls, name):
    """Count calls to ``cls.name`` on every instance."""
    calls, original = [], getattr(cls, name)

    def spy(self, *args):
        calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(cls, name, spy)
    return calls


def test_default_cluster_is_a_replica_group_of_one(monkeypatch):
    ticks = _spy(monkeypatch, MetadataReplica, "_tick_loop")
    beats = _spy(monkeypatch, MetadataService, "send_leader_beat")
    cluster = make_cluster()
    cluster.sim.run(until=2.9)
    ha = cluster.metadata_ha
    assert ha.size == 1 and len(ha.replicas) == 1
    assert ha.leader.service is cluster.metadata is cluster.metadata_active
    assert cluster.metadata.epoch == 1 and cluster.metadata.log is None
    assert len(ha.leader.log) == 0  # no membership-log record, no disk write
    assert ticks == [] and beats == []


def test_a_group_with_a_standby_ticks_once_per_replica(monkeypatch):
    ticks = _spy(monkeypatch, MetadataReplica, "_tick_loop")
    beats = _spy(monkeypatch, MetadataService, "send_leader_beat")
    cluster = make_ha_cluster()
    cluster.sim.run(until=2.9)
    assert len(ticks) == 2 == cluster.metadata_ha.size
    # One leader_hb per heartbeat interval (0.5 s), sent from the leader's
    # tick; the standby's tick sees a fresh lease and stays a standby.
    assert len(beats) == 5
    assert cluster.metadata_ha.promotions.value == 0


# -- satellite: liveness clock seeded at registration ------------------------

def test_node_dead_at_registration_is_declared():
    """A node that crashes before sending its first heartbeat must still
    be declared within the miss limit (the liveness clock is seeded at
    ``register_node`` time, not at first beat)."""
    cluster = NiceCluster(ClusterConfig(n_storage_nodes=6, n_clients=1))
    cfg = cluster.config
    cluster.nodes["n4"].host.fail()  # dead at t=0: zero beats ever sent
    assert "n4" in cluster.metadata.last_heartbeat
    deadline = cfg.heartbeat_interval_s * (cfg.heartbeat_miss_limit + 2)
    cluster.sim.run(until=deadline)
    assert cluster.metadata.status["n4"] == DOWN


# -- satellite: idempotent failure declaration under races -------------------

def test_redeclare_during_rejoin_does_not_stack_handoffs():
    """report_failure racing a rejoin: the re-declaration restarts the
    node at phase 1 but must not install a second handoff on a replica
    set that already holds a replacement."""
    cluster = make_cluster()
    meta = cluster.metadata
    victim = "n1"
    meta.declare_failed(victim)
    rs = next(iter(cluster.partition_map.partitions_of(victim)))
    assert victim in rs.absent
    assert len(rs.handoffs) == 1

    meta.begin_rejoin(victim)           # phase 1: node is JOINING
    assert meta.status[victim] == JOINING
    meta.declare_failed(victim)         # racing peer report lands now
    assert meta.status[victim] == DOWN
    assert len(rs.handoffs) == 1        # replacement kept, not stacked

    meta.declare_failed(victim)         # duplicate report: pure no-op
    assert len(rs.handoffs) == 1
    assert meta.failures_declared.value == 2  # UP->DOWN, JOINING->DOWN


# -- membership log replay ---------------------------------------------------

def test_replay_log_reconstructs_map_and_status():
    cluster = make_ha_cluster()
    meta = cluster.metadata
    meta.declare_failed("n2")
    meta.begin_rejoin("n5")  # leave one node mid-rejoin in the log

    pm, status = replay_log(meta.log.records())
    assert status["n2"] == DOWN
    assert status["n5"] == JOINING  # mid-rejoin replays as JOINING
    assert {n for n, s in status.items() if s == UP} == {"n0", "n1", "n3", "n4"}
    live = {rs.partition: rs.to_wire() for rs in cluster.partition_map}
    replayed = {rs.partition: rs.to_wire() for rs in pm}
    assert replayed == live


# -- promotion ---------------------------------------------------------------

def test_standby_promotes_and_mints_next_epoch():
    cluster = make_ha_cluster()
    ha = cluster.metadata_ha
    cfg = cluster.config
    assert ha.leader.host.name == "meta"
    ha.replica_named("meta").crash()
    lease = cfg.heartbeat_miss_limit * cfg.heartbeat_interval_s
    cluster.sim.run(until=cluster.sim.now + 3 * lease)
    assert ha.promotions.value == 1
    leader = ha.leader
    assert leader.host.name == "meta1"
    assert leader.service.epoch == 2
    # The reactive packet-in path stamps with controller.epoch: it must
    # track the acting leader or switches would fence the controller.
    assert cluster.controller.epoch == 2


def test_returning_old_leader_demotes_and_resyncs_log():
    cluster = make_ha_cluster()
    ha = cluster.metadata_ha
    cfg = cluster.config
    old = ha.replica_named("meta")
    old.crash()
    lease = cfg.heartbeat_miss_limit * cfg.heartbeat_interval_s
    cluster.sim.run(until=cluster.sim.now + 3 * lease)
    assert ha.leader.host.name == "meta1"
    old.recover()
    cluster.sim.run(until=cluster.sim.now + 3 * lease)
    assert ha.demotions.value == 1
    assert old.role == "standby"
    assert ha.leader.host.name == "meta1"
    # Post-demotion log sync: both replicas hold the same history.
    assert old.log.records() == ha.leader.log.records()


# -- epoch fencing -----------------------------------------------------------

def test_switch_fences_stale_epochs_only():
    cluster = make_cluster()
    sw = cluster.switch
    fenced0 = sw.fenced_mods.value
    assert sw.accept_epoch(None)      # legacy unstamped path: never fenced
    assert sw.accept_epoch(2)
    assert not sw.accept_epoch(1)     # stale leader
    assert sw.accept_epoch(2)         # current epoch stays valid
    assert sw.accept_epoch(3)
    assert sw.fenced_mods.value == fenced0 + 1
    assert sw.control_epoch == 3


def test_node_fences_stale_membership_epoch():
    cluster = make_ha_cluster()
    node = cluster.nodes["n0"]
    node.meta.epoch = 2
    assert node.meta.fence(1)        # stale: fenced
    assert not node.meta.fence(2)    # current: accepted
    assert not node.meta.fence(None)  # unstamped legacy path: accepted
    assert not node.meta.fence(3)    # newer: adopted
    assert node.meta_epoch == 3
    assert node.membership_fenced.value == 1


# -- reconciliation ----------------------------------------------------------

def test_reconcile_settled_cluster_is_noop():
    cluster = make_cluster()
    stats = cluster.controller.reconcile()
    assert stats["installed"] == 0
    assert stats["deleted"] == 0
    assert stats["matched"] > 0


def test_reconcile_repairs_only_the_diff():
    cluster = make_cluster()
    sw = cluster.switch
    # Keep an untouched rule's identity to prove matching rules survive
    # reconciliation in place (flow caches stay warm).
    survivor = next(r for r in sw.table.iter_rules() if r.cookie == "arp")
    # Damage the table: drop one legitimate rule, add one stray.
    victim_cookie = next(
        r.cookie for r in sw.table.iter_rules() if r.cookie.startswith("uni:")
    )
    sw.remove_cookie(victim_cookie)
    stray = dataclasses.replace(survivor, cookie="stray:test")
    sw.install_rule(stray)

    stats = cluster.controller.reconcile()
    cluster.sim.run(until=cluster.sim.now + 0.01)  # let flow-mods land

    assert stats["installed"] >= 1
    assert stats["deleted"] == 1
    cookies = {r.cookie for r in sw.table.iter_rules()}
    assert victim_cookie in cookies
    assert "stray:test" not in cookies
    assert survivor in list(sw.table.iter_rules())  # same object, untouched


# -- satellite: failover while a heartbeat/control exchange is in flight -----

def test_promotion_completes_with_control_exchange_in_flight():
    """Crash the metadata primary while a node's failure report is in
    flight toward it: the standby must still promote, the node must fail
    over (resetting cached TCP state toward the dead primary), and the
    striker's report must land at the new leader."""
    cluster = make_ha_cluster()
    ha = cluster.metadata_ha
    cfg = cluster.config
    reporter = cluster.nodes["n0"]
    resets = []
    orig_reset = reporter.stack.tcp.reset_peer
    reporter.stack.tcp.reset_peer = lambda ip: (resets.append(ip), orig_reset(ip))

    old_ip = ha.replica_named("meta").host.ip

    def strikes():
        yield from reporter.meta.strike("n3")
        yield from reporter.meta.strike("n3")

    def driver(sim):
        cluster.nodes["n3"].host.fail()
        yield sim.timeout(0.01)
        sim.process(strikes())
        yield sim.timeout(0.001)  # report now in flight toward the primary
        ha.replica_named("meta").crash()

    cluster.sim.process(driver(cluster.sim))
    lease = cfg.heartbeat_miss_limit * cfg.heartbeat_interval_s
    cluster.sim.run(until=cluster.sim.now + 6 * lease)

    assert ha.promotions.value == 1
    leader = ha.leader
    assert leader.host.name == "meta1"
    # The striker rotated to the standby and dropped TCP state toward the
    # dead primary.
    assert reporter.metadata_ip == leader.host.ip
    assert old_ip in resets
    assert reporter.meta_failovers.value >= 1
    # The in-flight report was not lost: the new leader knows n3 is down.
    assert leader.service.status["n3"] == DOWN


# -- a node mid-rejoin when the leader dies (Recovery.on_rejoin_restart) ------

def _joining_when_leader_dies(rejoin):
    """Crash n1, wait until it is declared, let ``rejoin(cluster, node)``
    start its way back, and kill the metadata leader the moment the
    membership log says JOINING.  Returns the cluster 6 s later, with every
    ``rejoin_restart`` the node received as ``(sim time, rejoin running)``."""
    cluster = make_ha_cluster(n_clients=1)
    sim, node, received = cluster.sim, cluster.nodes["n1"], []
    handler = node.recovery.on_rejoin_restart

    def spy(body):
        received.append((sim.now, node.recovery._rejoining))
        handler(body)

    node.recovery.on_rejoin_restart = spy

    def run_until(status):
        while cluster.metadata_active.status["n1"] != status:
            assert sim.now < 8.0, f"n1 never became {status}"
            sim.run(until=sim.now + 100e-6)

    node.crash()
    run_until(DOWN)
    rejoin(cluster, node)
    run_until(JOINING)
    cluster.metadata_ha.leader.crash()
    sim.run(until=sim.now + 6.0)
    assert cluster.metadata_ha.promotions.value == 1
    return cluster, received


def test_promoted_standby_tells_a_joining_node_to_restart_its_rejoin():
    """The node's own rejoin outlives the takeover (its ``consistent``
    fails over to the new leader), so the notice finds it still rejoining
    and must not start a second one."""
    cluster, received = _joining_when_leader_dies(lambda cluster, node: node.restart())
    assert [running for _, running in received] == [True]
    assert cluster.metadata_active.status["n1"] == UP
    assert cluster.metadata_active.rejoins_completed.value == 1


def test_rejoin_restart_revives_a_rejoin_that_died_with_the_old_leader():
    """Phase 1 reached the old leader but nothing on the node is driving
    the rejoin any more: without the promoted standby's ``rejoin_restart``
    the node would stay JOINING — put-visible, never get-visible — for good."""

    def phase_one_only(cluster, node):
        node.host.recover()
        node.replica_sets.clear()
        cluster.sim.process(
            node.meta.request({"type": "rejoin", "node": "n1"}, reply_type="rejoin_ack")
        )

    cluster, received = _joining_when_leader_dies(phase_one_only)
    assert [running for _, running in received] == [False]
    service = cluster.metadata_active
    assert service.status["n1"] == UP and service.rejoins_completed.value == 1
    assert not any("n1" in rs.joining or "n1" in rs.absent for rs in cluster.partition_map)

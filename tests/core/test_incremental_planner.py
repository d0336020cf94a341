"""Incremental rule planning (DESIGN.md §5i).

The controller caches each (switch, partition) plan keyed on membership
and topology version counters.  The contracts under test:

* a settled cluster reconciles as a table no-op with **zero** plan
  recomputes — every partition served from the plan cache;
* ``sync_partition`` always replans (the caller is declaring the
  partition dirty) and refreshes the cache for the reconcile that follows;
* membership churn through the metadata service yields the same desired
  state whether planned incrementally or from scratch;
* every invalidation edge (map rebind, ARP relearn, explicit
  ``invalidate_plans``) forces recomputation instead of serving stale
  plans.
"""

from repro.core import ClusterConfig, NiceCluster, PartitionMap
from repro.obs import MetricsRegistry
from tests.helpers import desired_snapshot, planner_snapshot


def make_cluster(**kw):
    defaults = dict(n_storage_nodes=6, n_clients=3, n_partitions=8)
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def reset_counters(controller):
    controller.plan_recomputes.reset()
    controller.plan_cache_hits.reset()


def test_settled_reconcile_is_noop_with_zero_recomputes():
    cluster = make_cluster()
    ctrl = cluster.controller
    reset_counters(ctrl)
    stats = ctrl.reconcile()
    cluster.warm_up()
    assert stats["installed"] == 0 and stats["deleted"] == 0
    assert ctrl.plan_recomputes.value == 0
    assert ctrl.plan_cache_hits.value > 0


def test_settled_reconcile_is_noop_on_fabric():
    cluster = make_cluster(
        n_storage_nodes=12, n_racks=3, n_clients=3, switch_rule_budget=1024
    )
    ctrl = cluster.controller
    reset_counters(ctrl)
    stats = ctrl.reconcile()
    cluster.warm_up()
    assert stats["installed"] == 0 and stats["deleted"] == 0
    assert ctrl.plan_recomputes.value == 0


def test_sync_partition_always_replans():
    cluster = make_cluster()
    ctrl = cluster.controller
    n_switches = len(ctrl.channel.switches)
    reset_counters(ctrl)
    ctrl.sync_partition(0)
    assert ctrl.plan_recomputes.value == n_switches
    # Even with nothing changed: the caller saying "dirty" wins over the cache.
    ctrl.sync_partition(0)
    assert ctrl.plan_recomputes.value == 2 * n_switches


def test_plan_key_has_no_per_partition_counter():
    """``sync_partition`` refreshes the entries it replans under the same
    three-part key every other entry holds: the reconcile that follows
    recomputes nothing."""
    cluster = make_cluster()
    ctrl = cluster.controller
    ctrl.sync_partition(3)
    cluster.warm_up()
    reset_counters(ctrl)
    stats = ctrl.reconcile()
    assert ctrl.plan_recomputes.value == 0
    assert stats["installed"] == 0 and stats["deleted"] == 0


def test_incremental_equals_scratch_after_service_churn():
    cluster = make_cluster()
    ctrl = cluster.controller
    cluster.metadata.declare_failed("n1")
    cluster.sim.run(until=cluster.sim.now + 0.2)
    incremental = desired_snapshot(ctrl)
    assert incremental == planner_snapshot(ctrl)
    ctrl.invalidate_plans()
    scratch = desired_snapshot(ctrl)
    assert incremental == scratch


def test_direct_transition_bumps_rev_and_invalidates_plan():
    cluster = make_cluster()
    ctrl = cluster.controller
    desired_snapshot(ctrl)  # populate the cache
    rs = ctrl.partition_map.get(0)
    reset_counters(ctrl)
    rs.mark_failed(rs.members[0])
    after = desired_snapshot(ctrl)
    # Partition 0 replanned on every switch; the rest served from cache.
    assert ctrl.plan_recomputes.value == len(ctrl.channel.switches)
    assert after == planner_snapshot(ctrl)
    ctrl.invalidate_plans()
    assert desired_snapshot(ctrl) == after


def test_partition_map_rebind_invalidates_every_plan():
    cluster = make_cluster()
    ctrl = cluster.controller
    desired_snapshot(ctrl)
    rebuilt = PartitionMap.build(
        [f"n{i}" for i in range(6)], 8, cluster.config.replication_level
    )
    reset_counters(ctrl)
    ctrl.partition_map = rebuilt
    desired_snapshot(ctrl)
    assert ctrl.plan_cache_hits.value == 0
    assert ctrl.plan_recomputes.value == len(ctrl.channel.switches) * 8


def test_map_install_invalidates_that_partition():
    cluster = make_cluster()
    ctrl = cluster.controller
    desired_snapshot(ctrl)
    from repro.core import ReplicaSet

    rs = ctrl.partition_map.get(0)
    ctrl.partition_map.install(ReplicaSet.from_wire(rs.to_wire()))
    reset_counters(ctrl)
    desired_snapshot(ctrl)
    # The generation bump keys every partition's entry stale (coarse but
    # correct: install happens only on HA log replay).
    assert ctrl.plan_recomputes.value == len(ctrl.channel.switches) * 8


def test_arp_relearn_invalidates_location_dependent_plans():
    cluster = make_cluster()
    ctrl = cluster.controller
    desired_snapshot(ctrl)
    rec = ctrl.directory.hosts["n0"]
    loc = ctrl.directory.arp.lookup(rec.ip)
    reset_counters(ctrl)
    ctrl.directory.arp.learn(rec.ip, rec.mac, loc.switch_name, loc.port_no)
    desired_snapshot(ctrl)
    assert ctrl.plan_recomputes.value > 0


def test_plan_gauges_surface_in_metrics_registry():
    cluster = make_cluster()
    reg = MetricsRegistry.from_cluster(cluster)
    plan = reg.snapshot()["controlplane"]["plan"]
    assert plan["sync_ms"]["value"] >= 0
    assert plan["partitions_recomputed"]["value"] > 0
    cluster.controller.reconcile()
    plan2 = reg.snapshot()["controlplane"]["plan"]
    assert plan2["cache_hits"]["value"] > 0


def test_reconcile_after_chaos_rule_removal_repairs_and_matches():
    """A cookie yanked behind the controller's back must be reinstalled
    from the *cached* plan, and the repaired table must equal scratch."""
    cluster = make_cluster()
    ctrl = cluster.controller
    switch = cluster.switch
    victim = next(
        r.cookie for r in switch.table.iter_rules() if r.cookie.startswith("uni:")
    )
    switch.remove_cookie(victim)
    reset_counters(ctrl)
    stats = ctrl.reconcile()
    cluster.warm_up()
    assert stats["installed"] > 0
    assert ctrl.plan_recomputes.value == 0  # repair used cached plans
    assert any(
        r.cookie == victim for r in switch.table.iter_rules()
    ), "reconcile did not reinstall the removed cookie"

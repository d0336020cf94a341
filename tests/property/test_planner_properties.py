"""Property test: incremental planning equals from-scratch planning under
random membership churn (the DESIGN.md §5i cache-coherence contract).

Hypothesis drives a random sequence of replica-set transitions —
crash (mark_failed), handoff appointment, rejoin phase 1 and phase 2 —
against the controller, optionally interleaving the metadata service's
``sync_partition`` calls.  After every sequence the cached desired state
of every switch must be identical to a from-scratch recomputation.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ClusterConfig, NiceCluster
from tests.helpers import desired_snapshot, planner_snapshot, table_snapshot

N_NODES = 8
N_PARTITIONS = 8

#: One churn step: (action, partition, node index, resync-after?).
steps = st.lists(
    st.tuples(
        st.sampled_from(["fail", "handoff", "begin_rejoin", "complete_rejoin"]),
        st.integers(min_value=0, max_value=N_PARTITIONS - 1),
        st.integers(min_value=0, max_value=N_NODES - 1),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


def apply_step(controller, action, partition, node_idx):
    """Apply one transition if its preconditions hold; False when skipped."""
    rs = controller.partition_map.get(partition)
    node = f"n{node_idx}"
    if action == "fail":
        if not rs.is_member(node) or len(rs.get_targets()) <= 1:
            return False
        rs.mark_failed(node)
    elif action == "handoff":
        if rs.is_member(node):
            return False
        rs.add_handoff(node)
    elif action == "begin_rejoin":
        if node not in rs.members or node not in rs.absent:
            return False
        rs.begin_rejoin(node)
    else:  # complete_rejoin
        if node not in rs.joining:
            return False
        rs.complete_rejoin(node)
    return True


@given(seq=steps)
@settings(max_examples=25, deadline=None)
def test_incremental_planning_equals_scratch_under_churn(seq):
    cluster = NiceCluster(
        ClusterConfig(
            n_storage_nodes=N_NODES, n_clients=2, n_partitions=N_PARTITIONS
        )
    )
    cluster.warm_up()
    ctrl = cluster.controller
    desired_snapshot(ctrl)  # populate the plan cache
    for action, partition, node_idx, resync in seq:
        if apply_step(ctrl, action, partition, node_idx) and resync:
            # The metadata service's path: explicit dirty-partition resync.
            ctrl.sync_partition(partition)
    incremental = desired_snapshot(ctrl)
    # The contract, stated directly: cached value == this call.
    assert incremental == planner_snapshot(ctrl)
    ctrl.invalidate_plans()
    scratch = desired_snapshot(ctrl)
    assert incremental == scratch


@given(seq=steps)
@settings(max_examples=10, deadline=None)
def test_reconcile_after_churn_matches_scratch_sync(seq):
    """After churn + resync, reconcile() must leave the tables exactly as
    a from-scratch sync_all would."""
    cluster = NiceCluster(
        ClusterConfig(
            n_storage_nodes=N_NODES, n_clients=2, n_partitions=N_PARTITIONS
        )
    )
    cluster.warm_up()
    ctrl = cluster.controller
    sim = cluster.sim
    for action, partition, node_idx, _ in seq:
        if apply_step(ctrl, action, partition, node_idx):
            ctrl.sync_partition(partition)
    sim.run(until=sim.now + 0.05)

    ctrl.reconcile()
    sim.run(until=sim.now + 0.05)
    reconciled = table_snapshot(ctrl)
    # Repaired tables hold exactly what the pure planner says, this call ...
    assert reconciled == planner_snapshot(ctrl)
    # ... and what a from-scratch sync installs.
    ctrl.invalidate_plans()
    ctrl.sync_all()
    sim.run(until=sim.now + 0.05)
    assert table_snapshot(ctrl) == reconciled

"""Integration: a whole rack isolated mid-workload on the leaf–spine fabric.

The fabric-scale Jepsen loop (DESIGN.md §5h): `rack_isolate` cuts every
uplink of one leaf, stranding its hosts — including any handoffs living
there — mid-2PC.  After heal + rejoin the recorded history must still be
linearizable (uncovered partitions are repaired by full fetch, see
ReplicaSet.uncovered), and diff-based switch reconciliation must converge
to exactly the tables a from-scratch sync would install.
"""

from repro.bench.scale import scale_chaos_cell
from repro.chaos import FaultSchedule


def test_rack_isolate_stays_linearizable_and_reconciles():
    row = scale_chaos_cell(
        racks=4, hosts_per_rack=4, n_clients=4, budget=1024,
        duration=8.0, seed=11,
    )["rows"][0]
    assert row["linearizable"], row["reason"]
    assert row["ok_ops"] > 50
    # Diff-based reconcile after heal == from-scratch sync, on every switch.
    assert row["reconcile_matches_scratch"]
    # Steady state after heal + rejoin settled: the diff pass repairs
    # whatever the outage left behind, but never deletes live state twice.
    steady = row["steady_reconcile"]
    assert set(steady) >= {"installed", "deleted", "matched"}
    assert steady["matched"] > 0
    # Rule budgets held throughout.
    assert row["budget_ok"], (row["max_switch_rules"], row["rule_budget"])
    labels = [label for _, label in row["chaos_events"]]
    assert any("isolat" in l for l in labels), labels
    assert any("heal" in l for l in labels), labels


def test_rack_isolate_schedule_names_leaf_uplinks():
    sched = FaultSchedule.rack_outage(rack=1, start=2.0, heal_at=5.0)
    kinds = [e.kind for e in sched.events]
    assert kinds == ["rack_isolate", "rack_heal"]
    for event in sched.events:
        assert event.target == "rack:1"

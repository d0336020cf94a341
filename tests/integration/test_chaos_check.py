"""Integration: chaos schedules + history checking on real clusters.

The Jepsen-style closing of the loop: every scenario runs a live cluster
under fault injection with the op history recorded, then the checkers
decide whether the consistency claim held.  NICE and honestly configured
NOOB must verify; the weak NOOB configuration must be *caught*.
"""

import numpy as np
import pytest

from repro.bench.chaos import chaos_cell
from repro.bench.harness import build_nice, build_noob, run_to_completion
from repro.chaos import ChaosEngine, FaultSchedule
from repro.check import HistoryRecorder, check_linearizable, check_monotonic
from repro.workloads.synthetic import keys_in_partition


# -- the Fig-11 scenario, now *verified* rather than just plotted ------------------


def test_fig11_timeline_history_is_linearizable():
    """Secondary crash + two-stage rejoin (the Fig 11 fault scenario):
    the recorded history must be linearizable and the engine must log the
    crash → restart → consistent progression in order."""
    row = chaos_cell(
        "nice", lambda key: FaultSchedule.crash_rejoin(key, 2.0, 5.0), duration=8.0, seed=7
    )
    assert row["linearizable"], row["reason"]
    assert row["monotonic_ok"]
    labels = [label for _, label in row["chaos_events"]]
    assert any("crashes" in l for l in labels)
    assert any("restarts" in l for l in labels)
    assert any("consistent" in l for l in labels)
    # Two-stage rejoin: "consistent" strictly after "restarts".
    times = dict((label.split()[-1], t) for t, label in row["chaos_events"])
    assert times["consistent"] >= times["restarts"]
    assert row["ok_ops"] > 100


# -- crash during the 2PC prepare window -------------------------------------------


def _crash_mid_put(cluster, keys, victim_name, n_background=40):
    """Issue a put and crash ``victim_name`` 300 µs later — inside the
    prepare/ack window — then keep traffic flowing and rejoin the node."""
    sim = cluster.sim
    recorder = HistoryRecorder()
    client = cluster.clients[0]
    reader = cluster.clients[1 % len(cluster.clients)]
    recorder.attach(client, reader)
    victim = cluster.nodes[victim_name]

    def driver():
        r = yield client.put(keys[0], "w:0", 1000)
        assert r.ok
        # The straddling put: crash fires while its 2PC is in flight.
        sim.call_in(300e-6, victim.crash)
        yield client.put(keys[0], "w:1", 1000, max_retries=2)
        for i in range(n_background):
            yield sim.timeout(0.02)
            if i % 3 == 0:
                yield client.put(keys[0], f"w:{i + 2}", 1000, max_retries=1)
            else:
                yield reader.get(keys[0], max_retries=1)
        proc = victim.restart()
        if proc is not None:
            yield proc
        for i in range(10):
            yield sim.timeout(0.02)
            yield reader.get(keys[0], max_retries=1)

    run_to_completion(cluster, sim.process(driver()), horizon_s=300.0)
    return recorder


def test_nice_crash_during_2pc_prepare():
    cluster = build_nice(n_storage_nodes=6, n_clients=2, seed=11)
    keys = keys_in_partition(0, cluster.config.n_partitions, 1)
    rs = cluster.partition_map.get(0)
    victim = [m for m in rs.members if m != rs.primary][0]
    recorder = _crash_mid_put(cluster, keys, victim)
    result = check_linearizable(recorder.ops)
    assert result.ok, result.describe()
    assert check_monotonic(recorder.ops).ok


def test_noob_quorum_crash_during_put():
    cluster = build_noob(
        n_storage_nodes=6, n_clients=2, seed=11, access="rac", consistency="quorum"
    )
    keys = keys_in_partition(0, cluster.config.n_partitions, 1)
    rs = cluster.partition_map.get(0)
    victim = [m for m in rs.members if m != rs.primary][0]
    # Quorum reads probe the (dead) first peer with a 2 s timeout each, so
    # keep the degraded window short to bound sim time.
    recorder = _crash_mid_put(cluster, keys, victim, n_background=12)
    result = check_linearizable(recorder.ops)
    assert result.ok, result.describe()


# -- partition then rejoin ----------------------------------------------------------


@pytest.mark.parametrize("mode", ["nice", "rac-quorum"])
def test_partition_then_rejoin_verifies(mode):
    row = chaos_cell(mode, "partition_rejoin", duration=8.0, seed=3)
    assert row["linearizable"], row["reason"]
    labels = [label for _, label in row["chaos_events"]]
    assert any("partitioned" in l for l in labels)
    assert any("healed" in l for l in labels)


# -- the weak configuration must be caught ------------------------------------------


def test_noob_primary_round_robin_under_partition_is_caught():
    """Primary-only replication + round-robin reads: during an asymmetric
    partition the stale secondary keeps serving clients — the checker must
    find the violation and shrink it to a small counterexample."""
    row = chaos_cell("rac-weak", "partition_rejoin", duration=8.0, seed=1)
    assert not row["linearizable"]
    assert not row["monotonic_ok"]  # even the cheap screen sees it
    # Minimal counterexample: a handful of ops, at least one stale get.
    assert 2 <= len(row["violation"]) <= 6
    assert any("get(" in v for v in row["violation"])
    assert any("put(" in v for v in row["violation"])


# -- NICE across schedules × seeds (the headline acceptance matrix) -----------------


@pytest.mark.parametrize(
    "schedule",
    ["crash_rejoin", "primary_crash", "partition_rejoin"],
)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_nice_matrix_linearizable(schedule, seed):
    builders = {
        "crash_rejoin": FaultSchedule.crash_rejoin,
        "primary_crash": FaultSchedule.primary_crash,
        "partition_rejoin": FaultSchedule.partition_rejoin,
    }
    row = chaos_cell(
        "nice", lambda key: builders[schedule](key, 2.0, 5.0), duration=8.0, seed=seed
    )
    assert row["linearizable"], f"{schedule}/seed{seed}: {row['reason']}"
    assert not row["inconclusive"]
    assert row["n_ops"] > 200


def test_released_handoff_forwards_instead_of_miss():
    """Regression for a bug this suite caught: when a node is released
    from handoff duty its membership slice updates before the switch's LB
    flow-mods re-sync, and a get routed there in that window used to be
    answered as an authoritative miss from the wrong store.  The node must
    forward to the primary instead (§4.3: only consistent replicas
    answer).  seed 3 deterministically lands a get in the window."""
    row = chaos_cell("nice", "crash_rejoin", duration=10.0, seed=3)
    assert row["linearizable"], row["reason"]
    assert row["monotonic_ok"]


# -- determinism of a whole chaos case ---------------------------------------------


def test_chaos_case_reproducible():
    """(seed, schedule) fully determines a case, histories included."""
    a = chaos_cell("nice", "partition_rejoin", duration=6.0, seed=9)
    b = chaos_cell("nice", "partition_rejoin", duration=6.0, seed=9)
    assert a["chaos_events"] == b["chaos_events"]
    assert a["n_ops"] == b["n_ops"]
    assert a["states"] == b["states"]


def test_engine_resolves_targets_at_fire_time():
    """After the primary crashes, a later 'primary:<key>' event must hit
    the *promoted* primary, not the dead one — and paired recovery events
    must reuse the binding of the outage they heal."""
    cluster = build_nice(n_storage_nodes=6, n_clients=1, seed=5)
    keys = keys_in_partition(0, cluster.config.n_partitions, 1)
    rs = cluster.partition_map.get(0)
    old_primary = rs.primary
    schedule = FaultSchedule(
        "two-crashes",
        (
            # crash the primary; detection promotes a replica
            FaultSchedule.primary_crash(keys[0], 1.0, 4.0).events[0],
            # crash the (new) primary as well
            FaultSchedule.primary_crash(keys[0], 3.0, 5.0).events[0],
            # both rejoin
            FaultSchedule.primary_crash(keys[0], 1.0, 4.0).events[1],
            FaultSchedule.primary_crash(keys[0], 3.0, 5.0).events[1],
        ),
    )
    engine = ChaosEngine(cluster, schedule, seed=0)
    engine.start()
    cluster.sim.run(until=6.0)
    crashed = [l.split()[0] for _, l in engine.events if "crashes" in l]
    restarted = [l.split()[0] for _, l in engine.events if "restarts" in l]
    assert len(crashed) == 2
    assert crashed[0] == old_primary
    assert crashed[1] != old_primary  # fire-time resolution saw the promotion
    assert sorted(restarted) == sorted(crashed)  # bindings paired correctly

"""Harmonia protocol mode (DESIGN.md §5j): switch dirty-set, any-replica
conflict-free reads, and the directed rack-isolation-mid-put battery.

The mid-put recipe drives the race the dirty-set exists for: a put is cut
off by a rack isolation *between* the primary's local commit and the
commit multicast reaching a stranded secondary.  The secondary then holds
the old value while the primary holds the new one — a correct dirty-set
must keep every switch off the stale replica (the key was marked on the
put's data transit and is pinned by the failed put_reply), while the
``harmonia_commit_clear`` mutant (dirty entry cleared on the *commit's*
transit, before replicas apply) leaks a stale conflict-free read that the
Wing–Gong checker must catch.
"""

import pytest

from repro.check import HistoryRecorder, check_linearizable
from repro.check.mutants import MUTANTS
from repro.core import ClusterConfig, NiceCluster


def build(mode, **kw):
    # heartbeat_miss_limit is huge so the stranded rack is never declared
    # failed: the replica set keeps the stale secondary as a live target —
    # the configuration the dirty-set has to defend.
    defaults = dict(
        n_storage_nodes=8, n_clients=2, replication_level=3, n_racks=2,
        protocol_mode=mode, heartbeat_miss_limit=10_000,
    )
    defaults.update(kw)
    cluster = NiceCluster(ClusterConfig(**defaults))
    cluster.warm_up()
    return cluster


def pick_split_key(cluster):
    """A key whose primary lives in rack 0 with a secondary in rack 1."""
    for i in range(500):
        key = f"hk{i}"
        part = cluster.uni_vring.subgroup_of_key(key)
        rs = cluster.partition_map.get(part)
        prim = rs.primary
        if cluster.rack_of[prim] != 0:
            continue
        strays = [m for m in rs.get_targets()
                  if m != prim and cluster.rack_of[m] == 1]
        if strays:
            return key, prim, strays[0]
    raise AssertionError("no rack-split replica set found")


def isolate_mid_put(cluster, key, primary, secondary):
    """Cut rack 1's uplinks after the primary commits but before the
    commit multicast reaches the rack-1 secondary (>= 4 link hops away:
    the poll interval sits far inside that window)."""
    sim = cluster.sim
    p_node = cluster.nodes[primary]
    s_node = cluster.nodes[secondary]
    while True:
        prepared = any(p.key == key and p.value == "v2"
                       for p in s_node.puts.participant.pending.values())
        obj = p_node.store.get(key)
        if prepared and obj is not None and obj.value == "v2":
            break
        yield sim.timeout(10e-6)
    assert not any(p.key == key and p.value == "v2"
                   for p in p_node.puts.participant.pending.values())
    for link in cluster.fabric.uplinks_of(1):
        link.set_down(True)


def run_mid_put_scenario(mode):
    cluster = build(mode)
    sim = cluster.sim
    c0, c1 = cluster.clients  # round-robin placement: rack 0, rack 1
    recorder = HistoryRecorder()
    for c in cluster.clients:
        c.recorder = recorder
    key, primary, secondary = pick_split_key(cluster)
    out = {}

    def driver():
        r = yield c0.put(key, "v1", 1000)
        assert r.ok
        sim.process(isolate_mid_put(cluster, key, primary, secondary))
        r2 = yield c0.put(key, "v2", 1000, max_retries=0)
        out["put2"] = r2
        # Rack-0 reads first: they can reach the committed primary and
        # force the ambiguous put's effect into the history ...
        g0 = yield c0.get(key, max_retries=1)
        out["rack0_get"] = g0
        # ... then rack-1 reads: any switch that serves the stale rack-1
        # secondary "conflict-free" now creates the stale-read pattern.
        gets1 = []
        for _ in range(4):
            g1 = yield c1.get(key, max_retries=0)
            gets1.append(g1)
        out["rack1_gets"] = gets1

    proc = sim.process(driver())
    sim.run(until=60.0)
    assert proc.triggered, "scenario driver did not finish"
    out["cluster"] = cluster
    out["key"] = key
    out["secondary"] = secondary
    out["check"] = check_linearizable(recorder.ops)
    return out


def test_rack_isolate_mid_put_harmonia_serves_no_stale_read():
    out = run_mid_put_scenario("harmonia")
    cluster, key = out["cluster"], out["key"]
    # The interrupted put failed at the client (ambiguous effect).
    assert not out["put2"].ok
    # Rack-0 read: dirty/pinned key falls back to the primary — new value.
    assert out["rack0_get"].ok and out["rack0_get"].value == "v2"
    # No switch served the stranded secondary's stale copy: every rack-1
    # read either reached the primary's value or failed — never "v1".
    for g in out["rack1_gets"]:
        assert g.value != "v1", "stale conflict-free read of a dirty key"
    assert cluster.nodes[out["secondary"]].gets_served.value == 0
    # The dirty mark was converted to a pin by the failed put_reply and
    # every read since went through the primary fallback.
    stats = cluster.harmonia.stats()
    assert stats["pinned"] >= 1
    assert stats["fallback_reads"] >= 1
    assert out["check"].ok, out["check"].describe()


def test_rack_isolate_mid_put_weakened_variant_is_caught():
    with MUTANTS["harmonia_commit_clear"].patch:
        out = run_mid_put_scenario("harmonia")
    # The weakened dirty-set cleared the key on the commit's *transit*, so
    # rack-1's leaf was free to serve the stranded secondary rack-locally.
    stale = [g for g in out["rack1_gets"] if g.ok and g.value == "v1"]
    assert stale, "weak variant never leaked the stale read it exists to model"
    result = out["check"]
    assert not result.ok, "checker missed the weakened-harmonia violation"
    # The counterexample is the classic stale-read core on this key.
    assert result.key == out["key"]
    assert not check_linearizable(result.violation).ok


def test_harmonia_balances_clean_reads_and_falls_back_when_dirty():
    cluster = build("harmonia")
    sim = cluster.sim
    c0, c1 = cluster.clients
    key, primary, secondary = pick_split_key(cluster)
    served = {}

    def driver():
        r = yield c0.put(key, "v0", 1000)
        assert r.ok
        for i in range(30):
            g = yield (c0 if i % 2 else c1).get(key)
            assert g.ok and g.value == "v0"

    proc = sim.process(driver())
    sim.run(until=120.0)
    assert proc.triggered
    stats = cluster.harmonia.stats()
    # Clean-key reads round-robin over every consistent replica ...
    assert stats["balanced_reads"] == 30
    part = cluster.uni_vring.subgroup_of_key(key)
    rs = cluster.partition_map.get(part)
    served = {m: cluster.nodes[m].gets_served.value for m in rs.get_targets()}
    assert all(n > 0 for n in served.values()), served
    # ... and the registry drained: nothing left dirty or pinned.
    assert stats["inflight"] == 0 and stats["pinned"] == 0
    assert cluster.harmonia.dirty_keys() == set()

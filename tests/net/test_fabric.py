"""Leaf–spine fabric battery (DESIGN.md §5h).

Covers the multi-switch topology end to end: wiring invariants, host-pair
reachability through the full put/get path, deterministic ECMP, forwarding
loop freedom (TTL-style bounds on packet paths), and exactly-once
multicast delivery to every put target.
"""

import pytest

from repro.bench.harness import build_nice, run_to_completion
from repro.core.config import GET_PORT, PUT_PORT
from repro.net import ecmp_index
from repro.net.host import Host
from repro.workloads.synthetic import keys_in_partition
from tests.helpers import HopRecorder

FABRIC = dict(n_storage_nodes=16, n_clients=4, n_racks=4, n_spines=2)


def build_fabric_cluster(**overrides):
    params = dict(FABRIC)
    params.update(overrides)
    return build_nice(**params)


# -- wiring -----------------------------------------------------------------


def test_fabric_wiring_invariants():
    cluster = build_fabric_cluster()
    fab = cluster.fabric
    assert fab is not None
    assert [s.name for s in fab.leaves] == [f"leaf{r}" for r in range(4)]
    assert [s.name for s in fab.spines] == [f"spine{s}" for s in range(2)]
    assert [s.name for s in fab.switches] == (
        [s.name for s in fab.leaves] + [s.name for s in fab.spines]
    )
    # Full leaf <-> spine mesh, with both port directions registered.
    for leaf in fab.leaves:
        for spine in fab.spines:
            link = fab.uplinks[(leaf.name, spine.name)]
            assert {link.a.device, link.b.device} == {leaf, spine}
            up = fab.uplink_ports[(leaf.name, spine.name)]
            down = fab.uplink_ports[(spine.name, leaf.name)]
            assert leaf.ports[up].peer.device is spine
            assert spine.ports[down].peer.device is leaf
    for rack in range(4):
        assert len(fab.uplinks_of(rack)) == 2
    # Every storage host hangs off the leaf of its rack.
    for name, rack in cluster.rack_of.items():
        host = cluster.nodes[name].host
        assert fab.rack_of_host[host.name] == rack
        assert host.port.peer.device is fab.leaves[rack]
        assert cluster.controller.directory.rack_of_node(name) == rack


def test_rack_aware_placement_spans_failure_domains():
    cluster = build_fabric_cluster()
    for rs in cluster.metadata.partition_map:
        racks = {cluster.rack_of[m] for m in rs.members}
        assert len(racks) >= 2, (
            f"p{rs.partition} members {rs.members} all in rack {racks}"
        )


# -- reachability -----------------------------------------------------------


def test_host_pair_reachability_across_racks():
    """Every client can reach a primary in every rack (put + read-back)."""
    cluster = build_fabric_cluster()
    n_parts = len(cluster.metadata.partition_map)
    # One key per destination rack, chosen by its primary's rack.
    key_for_rack = {}
    for p in range(n_parts):
        rs = cluster.metadata.partition_map.get(p)
        rack = cluster.rack_of[rs.primary]
        if rack not in key_for_rack:
            key_for_rack[rack] = keys_in_partition(p, n_parts, 1)[0]
    assert set(key_for_rack) == set(range(4))

    failures = []

    def driver():
        for ci, client in enumerate(cluster.clients):
            for rack, key in sorted(key_for_rack.items()):
                val = f"v{ci}-{rack}"
                res = yield client.put(key, val, 64)
                if not res.ok:
                    failures.append(("put", ci, rack, res.status))
                    continue
                got = yield client.get(key)
                if not got.ok or got.value != val:
                    failures.append(("get", ci, rack, got.status, got.value))

    run_to_completion(cluster, cluster.sim.process(driver()))
    assert not failures


# -- ECMP determinism -------------------------------------------------------


def test_ecmp_index_deterministic_and_in_range():
    for n in (1, 2, 3, 8):
        for keys in (("leaf0", 3, 0), ("mc", 11, 7), ("a", "b")):
            i = ecmp_index(n, *keys)
            assert 0 <= i < n
            assert i == ecmp_index(n, *keys)
    # Distinct flow keys actually spread (not a constant function).
    picks = {ecmp_index(4, "leaf0", rack, 0) for rack in range(16)}
    assert len(picks) > 1


def test_ecmp_choice_is_function_of_src_dst_seed():
    a = build_fabric_cluster()
    b = build_fabric_cluster()
    for leaf in (f"leaf{r}" for r in range(4)):
        for rack in range(4):
            assert a.controller.directory.spine_toward(leaf, rack) == \
                b.controller.directory.spine_toward(leaf, rack)
    for p in range(len(a.metadata.partition_map)):
        assert a.controller.directory.mc_spine(p) == b.controller.directory.mc_spine(p)
    # The whole installed rule plan is identical across rebuilds.
    assert a.controller.rule_counts_by_switch() == \
        b.controller.rule_counts_by_switch()


def test_ecmp_choices_hash_on_flow_key_and_fixed_seed():
    """Spine choice is ``ecmp_index`` over the flow key plus the fixed
    ``ECMP_SEED``, for unicast (leaf, rack) and multicast (partition)."""
    from repro.core.controller.directory import ECMP_SEED

    cluster = build_fabric_cluster(n_spines=4)
    directory = cluster.controller.directory
    spines = directory.spines
    assert ECMP_SEED == 0 and len(spines) == 4
    picks = set()
    for leaf in (f"leaf{r}" for r in range(4)):
        for rack in range(4):
            want = spines[ecmp_index(4, leaf, rack, ECMP_SEED)]
            assert directory.spine_toward(leaf, rack) == want
            picks.add(want)
    for p in range(len(cluster.metadata.partition_map)):
        assert directory.mc_spine(p) == spines[ecmp_index(4, "mc", p, ECMP_SEED)]
    assert len(picks) > 1  # unicast flows spread over the spines


# -- loop freedom + multicast delivery --------------------------------------


def _spy_deliveries(monkeypatch):
    """Record every packet any host delivers (after handling it)."""
    seen = []
    orig = Host.receive

    def spy(self, packet, in_port_no):
        orig(self, packet, in_port_no)
        seen.append((self.name, packet))

    monkeypatch.setattr(Host, "receive", spy)
    return seen


def test_no_forwarding_loops_trace_bounded(monkeypatch):
    """TTL-style probe: a forwarding loop would grow packet paths without
    bound; in a 2-tier fabric no delivered packet ever revisits a device."""
    cluster = build_fabric_cluster()
    seen = _spy_deliveries(monkeypatch)
    hops = HopRecorder(monkeypatch)

    def driver():
        for i in range(12):
            yield cluster.clients[i % 4].put(f"loopprobe{i}", "x", 128)
            yield cluster.clients[i % 4].get(f"loopprobe{i}")

    run_to_completion(cluster, cluster.sim.process(driver()))
    checked = 0
    for host_name, packet in seen:
        if packet.dport not in (PUT_PORT, GET_PORT):
            continue
        checked += 1
        trace = hops.path(packet)
        # client -> leaf -> spine -> leaf -> host is the longest legal path
        # (the ingress leaf legally repeats when same-rack multicast bounces
        # off the tree's spine root; anything longer is a loop).
        assert len(trace) <= 5, f"overlong path to {host_name}: {trace}"
        for dev in trace:
            crossings = trace.count(dev)
            # The ingress leaf repeats on same-rack mc bounces, and the
            # origin host repeats when a primary multicasts to a group
            # containing itself; spines and transit devices never repeat.
            limit = 2 if dev.startswith("leaf") or dev == trace[0] else 1
            assert crossings <= limit, f"loop in path: {trace}"
    assert checked > 0


def test_multicast_exactly_once_per_put_target(monkeypatch):
    cluster = build_fabric_cluster()
    seen = _spy_deliveries(monkeypatch)
    n_parts = len(cluster.metadata.partition_map)
    keys = [keys_in_partition(p, n_parts, 1)[0] for p in range(0, n_parts, 3)]

    results = []

    def driver():
        for key in keys:
            res = yield cluster.clients[0].put(key, "x", 256)
            results.append(res)

    run_to_completion(cluster, cluster.sim.process(driver()))
    assert all(r.ok and r.retries == 0 for r in results)

    per_op = {}
    for host_name, packet in seen:
        payload = packet.payload
        # Multicast data legs arrive as ('mc_data', op_id, size, body).
        if packet.dport != PUT_PORT or not isinstance(payload, tuple):
            continue
        if payload[0] != "mc_data" or payload[3].get("type") != "put":
            continue
        body = payload[3]
        op = tuple(body["op_id"])
        per_op.setdefault(op, []).append((host_name, body["key"]))
    assert len(per_op) == len(keys)
    for op, deliveries in per_op.items():
        key = deliveries[0][1]
        p = cluster.uni_vring.subgroup_of_key(key)
        targets = set(cluster.metadata.partition_map.get(p).put_targets())
        hosts = [h for h, _ in deliveries]
        assert sorted(hosts) == sorted(targets), (
            f"op {op} key {key}: delivered to {sorted(hosts)}, "
            f"put targets {sorted(targets)}"
        )

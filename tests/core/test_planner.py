"""The pure planner, planned from a hand-built directory: no ``NiceCluster``,
no ``Simulator``, no switch object anywhere in this file.

Per role — core, leaf + spine, edge OVS — what one partition's plan must
hold, and the parity the single read-rule family gives by construction:
the replica an edge plan picks for its client is the replica the core's
division rules would match for that client.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ClusterConfig, GET_PORT, PartitionMap, VirtualRing
from repro.core.controller import Directory, Planner
from repro.net import HarmoniaRead, IPv4Address, OutputGroup, Packet, Proto, SetIpDst

NODES = [f"n{i}" for i in range(6)]
N_PARTITIONS = 8
R = 3
CLIENT_IN_DIVISION_1 = IPv4Address("10.20.0.70")  # 10.20.0.64/26
CLIENT_OUTSIDE = IPv4Address("10.99.0.1")


def add_hosts(d, switch_of):
    for i, name in enumerate(NODES):
        rec = d.register_host(name, IPv4Address("10.0.0.1") + i, 0x020000000001 + i)
        d.learn_location(rec.ip, switch_of(i), 1 + i)


def core_directory(can_rewrite=True):
    d = Directory()
    d.register_switch("sw0", role="core", can_rewrite=can_rewrite)
    add_hosts(d, lambda i: "sw0")
    return d


def edge_directory(client_ip):
    """§5.1 deployment: a plain core plus one client-side OVS."""
    d = core_directory(can_rewrite=False)
    d.register_switch("ovs0", role="edge", client_ip=client_ip, uplink_port=2)
    return d


def fabric_directory(discovered=True):
    """Two racks of three nodes, two spines, full mesh."""
    d = Directory()
    for rack in range(2):
        d.register_switch(f"leaf{rack}", role="leaf", rack=rack)
    for s in range(2):
        d.register_switch(f"spine{s}", role="spine", can_rewrite=False)
    if discovered:
        for rack in range(2):
            for s in range(2):
                d.fabric_ports[(f"leaf{rack}", f"spine{s}")] = 10 + s
                d.fabric_ports[(f"spine{s}", f"leaf{rack}")] = 1 + rack
    add_hosts(d, lambda i: f"leaf{i // 3}")
    return d


def make(directory, **cfg):
    config = ClusterConfig(n_partitions=N_PARTITIONS, replication_level=R, **cfg)
    planner = Planner(
        config, directory,
        VirtualRing(config.unicast_vring, N_PARTITIONS),
        VirtualRing(config.multicast_vring, N_PARTITIONS),
    )
    return planner, PartitionMap.build(NODES, N_PARTITIONS, R)


def rewrite_ip(actions):
    return next(a.ip for a in actions if isinstance(a, SetIpDst))


def get_rule_for(rules, planner, partition, client_ip):
    """The rule a get from ``client_ip`` to the partition's subgroup hits."""
    packet = Packet(
        src_ip=client_ip, dst_ip=planner.uni_prefixes[partition].address,
        proto=Proto.UDP, dport=GET_PORT,
    )
    hits = [r for r in rules if r.match.matches(packet)]
    return max(hits, key=lambda r: r.priority)


# -- core ------------------------------------------------------------------------
def test_core_plan_has_r_buckets_and_the_sec46_rule_count():
    for lb, n_rules in ((True, R + 3), (False, 3)):
        planner, pmap = make(core_directory(), load_balancing=lb)
        for rs in pmap:
            plan = planner.partition(rs, "sw0")
            assert len(plan.group.buckets) == R
            assert len(plan.pre) + len(plan.post) == n_rules
            assert all(r.actions == [OutputGroup(rs.partition)] for r in plan.post)


def test_dark_partition_plans_no_read_rules():
    planner, pmap = make(core_directory())
    rs = pmap.get(0)
    for node in list(rs.members):
        rs.absent.add(node)
    assert rs.get_targets() == []
    assert planner.partition(rs, "sw0").pre == []


def test_degraded_secondary_leaves_read_rules_but_keeps_its_bucket():
    d = core_directory()
    planner, pmap = make(d)
    rs = pmap.get(0)
    slow = next(n for n in rs.members if n != rs.primary)
    d.set_degraded(slow)
    plan = planner.partition(rs, "sw0")
    slow_ip = d.hosts[slow].ip
    assert slow_ip not in {rewrite_ip(r.actions) for r in plan.pre}
    assert slow_ip in {rewrite_ip(b.actions) for b in plan.group.buckets}
    # The primary is never drained from the read path, degraded or not.
    d.set_degraded(rs.primary)
    plan = planner.partition(rs, "sw0")
    assert rewrite_ip(plan.pre[-1].actions) == d.hosts[rs.primary].ip


def test_harmonia_choices_start_with_the_acting_primary():
    d = core_directory()
    planner, pmap = make(d, protocol_mode="harmonia")
    rs = pmap.get(0)
    assert rs.set_primary(rs.members[1])
    plan = planner.partition(rs, "sw0")
    (hread,) = [a for r in plan.pre for a in r.actions if isinstance(a, HarmoniaRead)]
    assert rewrite_ip(hread.choices[0]) == d.hosts[rs.members[1]].ip
    assert {rewrite_ip(c) for c in hread.choices} == {d.hosts[n].ip for n in rs.members}


# -- leaf + spine ------------------------------------------------------------------
def test_fabric_tree_reaches_each_put_target_once_through_one_spine():
    d = fabric_directory()
    planner, pmap = make(d)
    for rs in pmap:
        leaf_plans = [planner.partition(rs, f"leaf{rack}") for rack in range(2)]
        bucket_ips = [
            rewrite_ip(b.actions) for p in leaf_plans if p.group for b in p.group.buckets
        ]
        assert sorted(bucket_ips) == sorted(d.hosts[n].ip for n in rs.put_targets())
        carrying = [s for s in d.spines if planner.partition(rs, s).group is not None]
        assert carrying == [d.mc_spine(rs.partition)]
        (spine_plan,) = [planner.partition(rs, s) for s in carrying]
        racks = {d.rack_of_node(n) for n in rs.put_targets()}
        assert sorted(b.port for b in spine_plan.group.buckets) == sorted(1 + r for r in racks)


def test_pre_discovery_fabric_plans_no_multicast_entry():
    planner, pmap = make(fabric_directory(discovered=False))
    for rs in pmap:
        for name in ("leaf0", "leaf1", "spine0", "spine1"):
            plan = planner.partition(rs, name)
            assert plan.group is None and plan.post == []


# -- edge ----------------------------------------------------------------------------
def test_edge_get_rule_targets_its_clients_division():
    for client_ip, lb, want in (
        (CLIENT_IN_DIVISION_1, True, 1),   # second /26 -> second get target
        (CLIENT_OUTSIDE, True, None),      # no division covers it -> primary
        (CLIENT_IN_DIVISION_1, False, None),  # LB off -> primary
    ):
        d = edge_directory(client_ip)
        planner, pmap = make(d, load_balancing=lb, deployment="ovs")
        for rs in pmap:
            plan = planner.partition(rs, "ovs0")
            target = rs.primary if want is None else rs.get_targets()[want]
            get_rule = get_rule_for(plan.pre, planner, rs.partition, client_ip)
            assert get_rule.match.ip_src is None  # nobody else is behind an OVS
            assert rewrite_ip(get_rule.actions) == d.hosts[target].ip
            assert plan.group is None and plan.post == []


@st.composite
def membership(draw):
    """One partition's replica set after random churn, a random drain set,
    a client inside or outside the client space, LB on or off."""
    return dict(
        partition=draw(st.integers(0, N_PARTITIONS - 1)),
        failed=draw(st.lists(st.integers(0, R - 1), unique=True, max_size=R - 1)),
        handoff=draw(st.booleans()),
        degraded=draw(st.sets(st.sampled_from(NODES), max_size=2)),
        client=draw(st.one_of(
            st.integers(0, 255).map(lambda i: IPv4Address("10.20.0.0") + i),
            st.just(CLIENT_OUTSIDE),
        )),
        lb=draw(st.booleans()),
        mode=draw(st.sampled_from(["nice", "harmonia"])),
    )


@given(case=membership())
@settings(max_examples=150, deadline=None)
def test_edge_plan_picks_the_replica_the_core_rules_would_match(case):
    """One read-rule family, two hops: a rewriting core and that client's
    OVS must agree on who serves the client's gets."""
    core_d, edge_d = core_directory(), edge_directory(case["client"])
    picks = []
    for d, name in ((core_d, "sw0"), (edge_d, "ovs0")):
        for node in case["degraded"]:
            d.set_degraded(node)
        planner, pmap = make(d, load_balancing=case["lb"], protocol_mode=case["mode"])
        rs = pmap.get(case["partition"])
        for i in case["failed"]:
            rs.mark_failed(rs.members[i])
        if case["handoff"] and case["failed"]:
            rs.add_handoff(next(n for n in NODES if not rs.is_member(n)))
        rule = get_rule_for(
            planner.partition(rs, name).pre, planner, rs.partition, case["client"]
        )
        action = rule.actions[0]
        if isinstance(action, HarmoniaRead):
            picks.append([rewrite_ip(choice) for choice in action.choices])
        else:
            picks.append(rewrite_ip(rule.actions))
    assert picks[0] == picks[1]

"""Per-family rule census audit (DESIGN.md §4.6 budget accounting).

``rule_counts_by_switch`` is the number the budget verdicts are computed
from, so its accounting rules are pinned here: chaos-engine rules (cookie
``chaos:*``) are fault machinery and must never inflate the census, the
harmonia read family (``hread:*``) must be counted like any planned rule,
and the itemized ``rule_census_by_switch`` must re-add to exactly the
same totals.
"""

from repro.core import ClusterConfig, NiceCluster
from repro.net import Drop, Match, Rule


def build(mode):
    cluster = NiceCluster(ClusterConfig(
        n_storage_nodes=8, n_clients=2, replication_level=3, n_racks=2,
        protocol_mode=mode,
    ))
    cluster.warm_up()
    return cluster


def test_census_counts_hread_family_and_matches_totals():
    cluster = build("harmonia")
    controller = cluster.controller
    counts = controller.rule_counts_by_switch()
    census = controller.rule_census_by_switch()
    assert set(counts) == set(census)
    for name, families in census.items():
        assert sum(families.values()) == counts[name], (name, families)
    # The dirty-set read rule family is planned state and is counted; the
    # rewriting hop in the ovs deployment is the client edge, and in
    # harmonia mode it carries one hread entry per partition it covers.
    assert any("hread" in fam for fam in census.values()), census
    total_hread = sum(fam.get("hread", 0) for fam in census.values())
    assert total_hread > 0
    # hread replaces the per-division LB entries on the same switches:
    # wherever hread rules live, no LB division family sits beside them
    # for the same partition (the uni family there is the PRIO_VRING
    # default only — at most one per partition).
    n_parts = cluster.config.n_partitions
    for name, fam in census.items():
        if fam.get("hread"):
            assert fam["hread"] <= n_parts
            assert fam.get("uni", 0) <= n_parts


def test_census_excludes_chaos_cookies():
    cluster = build("harmonia")
    controller = cluster.controller
    switch = cluster.switch
    before_counts = controller.rule_counts_by_switch()
    before_census = controller.rule_census_by_switch()
    raw_before = len(list(switch.table.iter_rules()))
    switch.install_rule(
        Rule(Match(), [Drop()], 10_000, cookie="chaos:partition:test")
    )
    assert len(list(switch.table.iter_rules())) == raw_before + 1
    # The census is blind to the injected fault rule ...
    assert controller.rule_counts_by_switch() == before_counts
    assert controller.rule_census_by_switch() == before_census
    # ... and recovers nothing extra once it is removed again.
    assert switch.remove_cookie("chaos:partition:test") == 1
    assert controller.rule_counts_by_switch() == before_counts


def test_nice_mode_census_has_no_hread_family():
    cluster = build("nice")
    census = cluster.controller.rule_census_by_switch()
    assert all("hread" not in fam for fam in census.values()), census


def test_budget_compliance_at_thousand_node_rung():
    """The 1000-node scale rung (20 racks x 50 hosts) must
    hold the 8192-rule switch budget with the harmonia family planned in
    — the hread entries replace the LB divisions, they don't stack on
    top of them."""
    cluster = NiceCluster(ClusterConfig(
        n_storage_nodes=20 * 50, n_clients=12, n_racks=20,
        switch_rule_budget=8192, protocol_mode="harmonia",
    ))
    cluster.warm_up()
    controller = cluster.controller
    counts = controller.rule_counts_by_switch()
    census = controller.rule_census_by_switch()
    assert max(counts.values()) <= cluster.config.switch_rule_budget, (
        sorted(counts.items(), key=lambda kv: -kv[1])[:3]
    )
    for name, families in census.items():
        assert sum(families.values()) == counts[name]
    # Every rewriting hop carries the read family for its partitions.
    assert sum(f.get("hread", 0) for f in census.values()) > 0

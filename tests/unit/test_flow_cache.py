"""Unit + property tests for the FlowTable classifier and its memo.

Neither the destination index nor the exact-match memo may ever change
which rule a lookup returns, only how fast.  These tests pin the hit/miss
accounting, every invalidation edge (flow-mod, remove, remove-by-cookie),
what the memo key keeps and drops, the memo-off path, and —
via hypothesis — that lookup *is* the linear scan of the rule list (kept
in ``tests/helpers.py`` as the reference) on randomized rule sets under
interleaved mutation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import GET_PORT
from repro.net import (
    Drop,
    FlowTable,
    IPv4Address,
    IPv4Network,
    MacAddress,
    Match,
    Output,
    Packet,
    Proto,
    Rule,
)
from tests.helpers import linear_scan


def pkt(src="10.0.0.1", dst="10.10.1.5", proto=Proto.UDP, dport=4000, dst_mac=None):
    return Packet(
        src_ip=IPv4Address(src),
        dst_ip=IPv4Address(dst),
        proto=proto,
        dport=dport,
        payload_bytes=10,
        dst_mac=dst_mac,
    )


def cached_table():
    return FlowTable(cache_enabled=True)


# ------------------------------------------------------------ hit/miss path
def test_first_lookup_misses_second_hits():
    table = cached_table()
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    assert table.lookup(pkt()) is rule
    assert (table.cache_hits, table.cache_misses) == (0, 1)
    assert table.lookup(pkt()) is rule
    assert (table.cache_hits, table.cache_misses) == (1, 1)


def test_distinct_flows_get_distinct_entries():
    table = cached_table()
    r1 = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    r2 = table.add(Rule(Match(ip_dst="10.10.1.6"), [Output(2)]))
    assert table.lookup(pkt(dst="10.10.1.5")) is r1
    assert table.lookup(pkt(dst="10.10.1.6")) is r2
    assert table.cache_misses == 2
    assert table.lookup(pkt(dst="10.10.1.5")) is r1
    assert table.lookup(pkt(dst="10.10.1.6")) is r2
    assert table.cache_hits == 2


def test_negative_result_is_cached():
    table = cached_table()
    table.add(Rule(Match(ip_dst="1.2.3.4"), [Output(1)]))
    assert table.lookup(pkt()) is None
    assert table.lookup(pkt()) is None
    assert (table.cache_hits, table.cache_misses) == (1, 1)


def test_in_port_is_part_of_the_key():
    table = cached_table()
    rule = table.add(Rule(Match(in_port=3), [Output(1)]))
    assert table.lookup(pkt(), in_port=3) is rule
    assert table.lookup(pkt(), in_port=4) is None
    assert table.cache_misses == 2  # two distinct keys, no false sharing


# ------------------------------------------------------------- invalidation
def test_flow_mod_add_invalidates():
    table = cached_table()
    low = table.add(Rule(Match(), [Drop()], priority=1))
    assert table.lookup(pkt()) is low
    high = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)], priority=10))
    # A stale cache would still return `low` here.
    assert table.lookup(pkt()) is high


def test_remove_invalidates():
    table = cached_table()
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    fallback = table.add(Rule(Match(), [Drop()], priority=1))
    assert table.lookup(pkt()) is rule
    table.remove(rule)
    assert table.lookup(pkt()) is fallback


def test_remove_by_cookie_invalidates():
    table = cached_table()
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)], cookie="uni:x"))
    assert table.lookup(pkt()) is rule
    assert table.remove_by_cookie("uni:x") == 1
    assert table.lookup(pkt()) is None


def test_remove_by_absent_cookie_keeps_cache_warm():
    table = cached_table()
    table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)], cookie="uni:x"))
    table.lookup(pkt())
    assert table.remove_by_cookie("no-such-cookie") == 0
    table.lookup(pkt())
    assert table.cache_hits == 1


def test_removing_an_uninstalled_rule_keeps_cache_warm():
    table = cached_table()
    table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    table.lookup(pkt())
    table.remove(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))  # an equal twin, never added
    assert len(table) == 1
    table.lookup(pkt())
    assert table.cache_hits == 1


def test_cache_limit_resets_memo():
    table = cached_table()
    table.CACHE_LIMIT = 4
    rule = table.add(Rule(Match(), [Drop()]))
    for i in range(10):
        assert table.lookup(pkt(dst=f"10.10.1.{i}")) is rule
    assert table.cache_misses == 10  # every flow distinct; memo wiped twice
    assert len(table._cache) <= 5


# ------------------------------------------------------------- the memo key
def test_ephemeral_dports_share_one_entry_until_a_rule_names_a_port():
    """No rule can tell two ports apart unless one of them is named by a
    rule, so a put's ephemeral ack port must not mint a memo entry."""
    table = cached_table()
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    for port in range(50000, 50010):
        assert table.lookup(pkt(dport=port)) is rule
    assert (table.cache_hits, table.cache_misses) == (9, 1)
    assert len(table._cache) == 1

    gets = table.add(
        Rule(Match(ip_dst="10.10.1.5", proto=Proto.UDP, dport=GET_PORT), [Output(2)],
             priority=200)
    )
    assert table.lookup(pkt(dport=GET_PORT)) is gets  # the named port stays distinct
    assert table.lookup(pkt(dport=50000)) is rule
    assert table.lookup(pkt(dport=50001)) is rule     # unnamed ones still share
    assert table.lookup(pkt(dport=GET_PORT)) is gets
    assert len(table._cache) == 2


def test_eth_dst_enters_the_key_only_when_a_rule_names_it():
    table = cached_table()
    named, other = MacAddress(42), MacAddress(43)
    rule = table.add(Rule(Match(eth_dst=named), [Output(1)]))
    assert table.lookup(pkt(dst_mac=named)) is rule
    assert table.lookup(pkt(dst_mac=other)) is None
    assert table.lookup(pkt(dst_mac=None)) is None  # shares `other`'s entry
    assert (table.cache_hits, table.cache_misses) == (1, 2)


# ------------------------------------------------------- cache-off reference
def test_cache_disabled_never_counts():
    table = FlowTable(cache_enabled=False)
    rule = table.add(Rule(Match(), [Drop()]))
    for _ in range(3):
        assert table.lookup(pkt()) is rule
    assert (table.cache_hits, table.cache_misses) == (0, 0)


def test_cache_on_by_default_and_flippable_on_a_live_table():
    """The determinism tests flip ``cache_enabled`` on built switches to
    get their reference leg: from then on lookups scan and never count."""
    table = FlowTable()
    assert table.cache_enabled is True
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))
    assert table.lookup(pkt()) is rule
    table.cache_enabled = False
    assert table.lookup(pkt()) is rule
    assert (table.cache_hits, table.cache_misses) == (0, 1)


# ------------------------------------------- property: lookup is the scan
_PREFIXES = [
    None,
    "0.0.0.0/0",
    "10.10.0.0/16",
    "10.10.1.0/24",
    "10.10.1.5/32",
    "10.20.0.0/24",
]

_rule_specs = st.fixed_dictionaries(
    dict(
        priority=st.integers(min_value=1, max_value=3),  # few values: ties
        ip_dst=st.sampled_from(_PREFIXES),
        ip_src=st.sampled_from([None, "10.0.0.0/31", "10.0.0.2/32"]),
        in_port=st.sampled_from([None, None, 1]),
        proto=st.sampled_from([None, Proto.UDP, Proto.TCP]),
        dport=st.sampled_from([None, 4000, 4001]),
        cookie=st.sampled_from(["a", "b", "c"]),
    )
)

_packet_specs = st.tuples(
    st.sampled_from(["10.10.1.5", "10.10.1.7", "10.10.2.1", "10.20.0.9", "1.1.1.1"]),
    st.sampled_from(["10.0.0.1", "10.0.0.2", "10.0.0.3"]),
    st.sampled_from([Proto.UDP, Proto.TCP]),
    st.sampled_from([4000, 4001, 50123]),
    st.sampled_from([None, 1, 2]),                # in_port
)

_ops = st.one_of(
    st.tuples(st.just("add"), _rule_specs),
    st.tuples(st.just("lookup"), _packet_specs),
    st.tuples(st.just("lookup"), _packet_specs),
    st.tuples(st.just("lookup"), _packet_specs),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("remove_by_cookie"), st.sampled_from(["a", "b"])),
)


def _rule(spec):
    spec = dict(spec)
    match = Match(**{k: spec.pop(k) for k in ("ip_dst", "ip_src", "in_port", "proto", "dport")})
    return Rule(match, [Drop()], **spec)


@given(
    rules=st.lists(_rule_specs, min_size=0, max_size=12),
    ops=st.lists(_ops, min_size=1, max_size=40),
    cache_enabled=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_cached_lookup_always_agrees_with_scan(rules, ops, cache_enabled):
    """Index and memo must be invisible: under any interleaving of
    flow-mods and lookups, ``lookup()`` returns the very rule object the
    linear scan of the rule list returns, memo on or off."""
    table = FlowTable(cache_enabled=cache_enabled)
    for spec in rules:
        table.add(_rule(spec))
    for op, arg in ops:
        if op == "add":
            table.add(_rule(arg))
        elif op == "remove":
            if len(table):
                table.remove(table.rules[arg % len(table)])
        elif op == "remove_by_cookie":
            table.remove_by_cookie(arg)
        else:
            dst, src, proto, dport, in_port = arg
            p = pkt(src=src, dst=dst, proto=proto, dport=dport)
            hit = table.lookup(p, in_port)
            assert hit is linear_scan(table, p, in_port)

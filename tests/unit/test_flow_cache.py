"""Unit + property tests for the FlowTable exact-match cache.

The cache is a pure memo: it must never change which rule a lookup
returns, only skip the linear scan.  These tests pin the hit/miss
accounting, every invalidation edge (flow-mod, remove, remove-by-cookie,
idle expiry), the cache-off reference path, and — via hypothesis —
agreement between the cached lookup and the wildcard scan on randomized
rule sets.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    Drop,
    FlowTable,
    IPv4Address,
    IPv4Network,
    Match,
    Output,
    Packet,
    Proto,
    Rule,
)


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


def test_idle_expiry_invalidates():
    table = cached_table()
    rule = table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)], idle_timeout=5.0))
    assert table.lookup(pkt()) is rule
    rule.last_used = 0.0
    assert table.expire_idle(now=10.0) == 1
    assert table.lookup(pkt()) is None


def test_expire_with_no_evictions_keeps_cache_warm():
    table = cached_table()
    table.add(Rule(Match(ip_dst="10.10.1.5"), [Output(1)]))  # no timeout
    table.lookup(pkt())
    assert table.expire_idle(now=1e9) == 0
    table.lookup(pkt())
    assert table.cache_hits == 1


def test_cache_limit_resets_memo():
    table = cached_table()
    table.CACHE_LIMIT = 4
    rule = table.add(Rule(Match(), [Drop()]))
    for i in range(10):
        assert table.lookup(pkt(dport=4000 + i)) is rule
    assert table.cache_misses == 10  # every flow distinct; memo wiped twice
    assert len(table._cache) <= 5


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


# ------------------------------------------------------- property: memo-only
_PREFIXES = [
    None,
    "10.10.0.0/16",
    "10.10.1.0/24",
    "10.10.1.5/32",
    "10.20.0.0/24",
]

_rule_specs = st.tuples(
    st.integers(min_value=1, max_value=5),        # priority
    st.sampled_from(_PREFIXES),                   # ip_dst
    st.sampled_from([None, Proto.UDP, Proto.TCP]),
    st.sampled_from([None, 4000, 4001]),          # dport
    st.sampled_from(["a", "b", "c"]),             # cookie
)

_packet_specs = st.tuples(
    st.sampled_from(["10.10.1.5", "10.10.1.7", "10.10.2.1", "10.20.0.9", "1.1.1.1"]),
    st.sampled_from([Proto.UDP, Proto.TCP]),
    st.sampled_from([4000, 4001]),
    st.sampled_from([None, 1, 2]),                # in_port
)


@given(
    rules=st.lists(_rule_specs, min_size=0, max_size=12),
    lookups=st.lists(_packet_specs, min_size=1, max_size=30),
    evict_cookie=st.sampled_from([None, "a", "b"]),
)
@settings(max_examples=200, deadline=None)
def test_cached_lookup_always_agrees_with_scan(rules, lookups, evict_cookie):
    """The cache must be invisible: lookup() == the wildcard linear scan,
    before and after a mid-stream flow-mod."""
    table = FlowTable(cache_enabled=True)
    for prio, dst, proto, dport, cookie in rules:
        table.add(
            Rule(
                Match(ip_dst=IPv4Network(dst) if dst else None, proto=proto, dport=dport),
                [Drop()],
                priority=prio,
                cookie=cookie,
            )
        )
    half = len(lookups) // 2
    for i, (dst, proto, dport, in_port) in enumerate(lookups):
        if i == half and evict_cookie is not None:
            table.remove_by_cookie(evict_cookie)
        p = pkt(dst=dst, proto=proto, dport=dport)
        assert table.lookup(p, in_port) is table._scan(p, in_port)

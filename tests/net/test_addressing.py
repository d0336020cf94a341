"""Unit tests for IPv4/MAC addressing and prefix matching."""

import pytest

from repro.net import IPv4Address, IPv4Network, MULTICAST_NET, MacAddress


def test_parse_and_str_roundtrip():
    a = IPv4Address("10.10.1.5")
    assert str(a) == "10.10.1.5"
    assert IPv4Address(str(a)) == a


def test_int_construction():
    assert IPv4Address(0x0A0A0105) == IPv4Address("10.10.1.5")


def test_copy_construction():
    a = IPv4Address("1.2.3.4")
    assert IPv4Address(a) == a


@pytest.mark.parametrize("bad", ["10.10.1", "256.0.0.1", "a.b.c.d", "1.2.3.4.5"])
def test_malformed_addresses_rejected(bad):
    with pytest.raises(ValueError):
        IPv4Address(bad)


def test_out_of_range_int_rejected():
    with pytest.raises(ValueError):
        IPv4Address(1 << 32)


def test_bad_type_rejected():
    with pytest.raises(TypeError):
        IPv4Address(3.14)  # type: ignore[arg-type]


def test_ordering_and_arithmetic():
    a = IPv4Address("10.0.0.1")
    b = a + 5
    assert str(b) == "10.0.0.6"
    assert type(b) is IPv4Address
    assert a < b
    assert b - a == 5


@pytest.mark.parametrize("offset", [1, -(0x0A000001 + 1)])
def test_arithmetic_out_of_range_rejected(offset):
    base = IPv4Address("255.255.255.255") if offset > 0 else IPv4Address("10.0.0.1")
    with pytest.raises(ValueError):
        base + offset


def test_hashable():
    assert len({IPv4Address("1.1.1.1"), IPv4Address("1.1.1.1")}) == 1


def test_multicast_detection():
    assert IPv4Address("224.0.0.1").is_multicast
    assert IPv4Address("239.255.255.255").is_multicast
    assert not IPv4Address("10.0.0.1").is_multicast
    assert IPv4Address("224.1.2.3") in MULTICAST_NET


def test_network_contains():
    net = IPv4Network("10.10.1.0/24")
    assert IPv4Address("10.10.1.0") in net
    assert IPv4Address("10.10.1.255") in net
    assert IPv4Address("10.10.2.0") not in net
    assert "10.10.1.7" in net


def test_network_normalizes_host_bits():
    net = IPv4Network("10.10.1.77/24")
    assert str(net) == "10.10.1.0/24"


def test_network_num_addresses():
    assert IPv4Network("10.0.0.0/30").num_addresses == 4
    assert IPv4Network("0.0.0.0/0").num_addresses == 1 << 32


def test_network_from_address_and_prefixlen():
    net = IPv4Network(IPv4Address("10.10.0.0"), 16)
    assert str(net) == "10.10.0.0/16"


def test_network_missing_prefix_rejected():
    with pytest.raises(ValueError):
        IPv4Network("10.0.0.0")


def test_network_invalid_prefixlen_rejected():
    with pytest.raises(ValueError):
        IPv4Network("10.0.0.0/33")


def test_subnets_split():
    net = IPv4Network("10.10.0.0/16")
    subs = list(net.subnets(18))
    assert len(subs) == 4
    assert str(subs[0]) == "10.10.0.0/18"
    assert str(subs[-1]) == "10.10.192.0/18"


def test_subnets_invalid_split_rejected():
    with pytest.raises(ValueError):
        list(IPv4Network("10.0.0.0/24").subnets(16))


def test_hosts_enumeration():
    hosts = list(IPv4Network("10.0.0.0/30").hosts())
    assert [str(h) for h in hosts] == ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]


def test_overlaps():
    a = IPv4Network("10.10.0.0/16")
    b = IPv4Network("10.10.1.0/24")
    c = IPv4Network("10.11.0.0/16")
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c)


def test_network_equality_and_hash():
    assert IPv4Network("10.0.0.0/8") == IPv4Network("10.1.2.3/8")
    assert len({IPv4Network("10.0.0.0/8"), IPv4Network("10.0.0.0/8")}) == 1


def test_mac_parse_and_str():
    m = MacAddress("02:00:00:00:00:2a")
    assert m.value == 0x02000000002A
    assert str(m) == "02:00:00:00:00:2a"


def test_mac_broadcast():
    assert MacAddress.BROADCAST.is_broadcast
    assert not MacAddress(1).is_broadcast


def test_mac_malformed_rejected():
    with pytest.raises(ValueError):
        MacAddress("02:00:00:00:00")
    with pytest.raises(ValueError):
        MacAddress(1 << 48)


def test_mac_and_ip_hash_do_not_collide():
    # Distinct types with the same numeric value must remain distinct keys.
    d = {MacAddress(5): "mac", IPv4Address(5): "ip"}
    assert len(d) == 2


# -- an address is an int that prints dotted ----------------------------------


def _echo(addrs):
    """Runs in a worker process: what arrived there, and the addresses back."""
    return [(type(a).__name__, str(a), hash(a)) for a in addrs], addrs


def test_hash_equality_and_order_are_the_integers():
    a, b = IPv4Address("10.0.0.3"), IPv4Address("10.0.0.12")
    assert hash(a) == hash(int(a)) == hash(0x0A000003)
    assert a == IPv4Address("10.0.0.3") and a != b
    assert a < b and b > a and a <= a and sorted([b, a]) == [a, b]
    assert IPv4Address(a) is a
    assert type(a + 1) is IPv4Address and b - a == 9
    assert not IPv4Address("0.0.0.0")  # an int: the zero address is falsy


def test_an_address_equals_its_integer():
    """Pinned decision: an address equals the ``int`` it holds (hash and
    equality are the integer's, which is what puts them in C).  Accepted
    because no container in the simulator keys addresses and plain ints
    together — ports, uids and sequence numbers are far below 10.0.0.0
    (167 772 160) — while a string never equals an address."""
    a = IPv4Address("10.0.0.3")
    assert a == 0x0A000003 and {a: "x"}[0x0A000003] == "x"
    assert a != "10.0.0.3"


def test_str_repr_and_format_are_dotted():
    a = IPv4Address("10.0.0.3")
    assert str(a) == f"{a}" == "%s" % a == "{}".format(a) == "10.0.0.3"
    assert repr(a) == "IPv4Address('10.0.0.3')" and repr([a]) == "[IPv4Address('10.0.0.3')]"
    assert f"{a:>10}|" == "  10.0.0.3|"


def test_addresses_pickle_through_a_worker_process():
    """``--jobs N`` runs cells in a ProcessPoolExecutor: addresses cross
    it by pickle both ways and arrive as addresses, not bare ints."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    addrs = [IPv4Address("10.0.0.3"), IPv4Address("224.1.2.3")]
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        seen, back = pool.submit(_echo, addrs).result()
    assert seen == [("IPv4Address", str(a), hash(a)) for a in addrs]
    assert back == addrs and [type(a) for a in back] == [IPv4Address, IPv4Address]

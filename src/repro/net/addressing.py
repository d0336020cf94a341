"""IPv4 and MAC addressing, including prefix (CIDR) matching.

The NICE design leans on prefix matching: virtual-ring subgroups are
power-of-two IP ranges (§3.2), and the load balancer divides the *client*
address space into power-of-two source prefixes (§4.5).  These classes give
OpenFlow-style longest-prefix semantics to the simulated switches.
"""

from __future__ import annotations

from typing import Iterator, Union

__all__ = ["IPv4Address", "IPv4Network", "MacAddress", "MULTICAST_NET"]


class IPv4Address(int):
    """An immutable IPv4 address: an ``int`` that prints dotted.

    Hash, equality and ordering are the integer's, so they run in C and
    ``hash(addr) == hash(int(addr))``; an address also equals its integer
    (``IPv4Address("0.0.0.1") == 1``).  ``str``, ``repr`` and ``format``
    are dotted.  ``json`` writes an ``int`` subclass as a number, so
    exporters stringify addresses themselves (:mod:`repro.obs.export`).
    """

    __slots__ = ()

    def __new__(cls, value: Union[int, str, "IPv4Address"]):
        if type(value) is cls:
            return value
        if isinstance(value, str):
            parts = value.split(".")
            if len(parts) != 4:
                raise ValueError(f"malformed IPv4 address: {value!r}")
            acc = 0
            for p in parts:
                octet = int(p)
                if not 0 <= octet <= 255:
                    raise ValueError(f"malformed IPv4 address: {value!r}")
                acc = (acc << 8) | octet
            return int.__new__(cls, acc)
        if isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"IPv4 address out of range: {value:#x}")
            return int.__new__(cls, value)
        raise TypeError(f"cannot build IPv4Address from {type(value).__name__}")

    @property
    def value(self) -> int:
        return int(self)

    @property
    def is_multicast(self) -> bool:
        """True for 224.0.0.0/4 (IP multicast group addresses)."""
        return (self >> 28) == 0xE

    def __str__(self) -> str:
        return f"{self >> 24 & 255}.{self >> 16 & 255}.{self >> 8 & 255}.{self & 255}"

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)

    def __add__(self, offset: int) -> "IPv4Address":
        value = int(self) + offset
        if type(value) is int and 0 <= value <= 0xFFFFFFFF:
            return int.__new__(IPv4Address, value)
        return IPv4Address(value)  # raises the constructor's error


class IPv4Network:
    """A CIDR prefix, e.g. ``IPv4Network("10.10.1.0/24")``."""

    __slots__ = ("address", "prefixlen", "_netmask", "_value")

    def __init__(self, spec: Union[str, "IPv4Network"], prefixlen: int = None):
        if isinstance(spec, IPv4Network):
            self.address, self.prefixlen = spec.address, spec.prefixlen
        elif isinstance(spec, str) and prefixlen is None:
            addr, _, plen = spec.partition("/")
            if not plen:
                raise ValueError(f"missing prefix length in {spec!r}")
            self.address = IPv4Address(addr)
            self.prefixlen = int(plen)
        else:
            self.address = IPv4Address(spec)  # type: ignore[arg-type]
            self.prefixlen = int(prefixlen)  # type: ignore[arg-type]
        if not 0 <= self.prefixlen <= 32:
            raise ValueError(f"invalid prefix length: {self.prefixlen}")
        self._netmask = (0xFFFFFFFF << (32 - self.prefixlen)) & 0xFFFFFFFF if self.prefixlen else 0
        if self.address.value & ~self._netmask & 0xFFFFFFFF:
            # Normalize to the network address so equality behaves sanely.
            self.address = IPv4Address(self.address.value & self._netmask)
        #: The (already-masked) network address as a bare int — the flow
        #: table indexes and compares on this without attribute chains.
        self._value = int(self.address)

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.prefixlen)

    def __contains__(self, addr: Union[IPv4Address, str]) -> bool:
        if type(addr) is not IPv4Address:
            addr = IPv4Address(addr)
        return (addr & self._netmask) == self._value

    def overlaps(self, other: "IPv4Network") -> bool:
        shorter = self if self.prefixlen <= other.prefixlen else other
        longer = other if shorter is self else self
        return longer.address in shorter

    def subnets(self, new_prefixlen: int) -> Iterator["IPv4Network"]:
        """Yield the subdivisions of this prefix at ``new_prefixlen``."""
        if new_prefixlen < self.prefixlen or new_prefixlen > 32:
            raise ValueError(
                f"cannot split /{self.prefixlen} into /{new_prefixlen} subnets"
            )
        step = 1 << (32 - new_prefixlen)
        for base in range(self.address.value, self.address.value + self.num_addresses, step):
            yield IPv4Network(IPv4Address(base), new_prefixlen)

    def hosts(self) -> Iterator[IPv4Address]:
        """Yield every address in the prefix (simulation: no net/bcast carve-out)."""
        for v in range(self.address.value, self.address.value + self.num_addresses):
            yield IPv4Address(v)

    def __str__(self) -> str:
        return f"{self.address}/{self.prefixlen}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IPv4Network)
            and self.address == other.address
            and self.prefixlen == other.prefixlen
        )

    def __hash__(self) -> int:
        return hash((self.address, self.prefixlen))


#: All IP multicast groups.
MULTICAST_NET = IPv4Network("224.0.0.0/4")


class MacAddress:
    """An immutable 48-bit MAC address."""

    __slots__ = ("_value",)

    BROADCAST: "MacAddress"

    def __init__(self, value: Union[int, str, "MacAddress"]):
        if isinstance(value, MacAddress):
            self._value = value._value
        elif isinstance(value, str):
            parts = value.split(":")
            if len(parts) != 6:
                raise ValueError(f"malformed MAC address: {value!r}")
            self._value = int("".join(parts), 16)
        elif isinstance(value, int):
            if not 0 <= value <= 0xFFFFFFFFFFFF:
                raise ValueError(f"MAC address out of range: {value:#x}")
            self._value = value
        else:
            raise TypeError(f"cannot build MacAddress from {type(value).__name__}")

    @property
    def value(self) -> int:
        return self._value

    @property
    def is_broadcast(self) -> bool:
        return self._value == 0xFFFFFFFFFFFF

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and self._value == other._value

    def __hash__(self) -> int:
        return hash(("mac", self._value))


MacAddress.BROADCAST = MacAddress(0xFFFFFFFFFFFF)

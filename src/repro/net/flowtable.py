"""OpenFlow-style flow tables: matches, actions, rules and groups.

This mirrors the OpenFlow 1.3 feature subset the paper uses (§2.2, §5):
prefix wildcards on IP source/destination, exact matches on protocol and
ports, set-field rewrites of destination IP/MAC, unicast output, group
(multicast) output, and send-to-controller.  Rules carry priorities; the
controller owns rule lifecycle (no timeouts).
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from typing import List, Optional, Union

from .addressing import IPv4Address, IPv4Network, MacAddress
from .packet import Packet, Proto

__all__ = [
    "Match",
    "Rule",
    "FlowTable",
    "Group",
    "Bucket",
    "Action",
    "SetIpDst",
    "SetEthDst",
    "Output",
    "OutputGroup",
    "ToController",
    "Drop",
    "HarmoniaRead",
]


def _as_network(value: Union[IPv4Address, IPv4Network, str, None]) -> Optional[IPv4Network]:
    if value is None or isinstance(value, IPv4Network):
        return value
    if isinstance(value, IPv4Address):
        return IPv4Network(value, 32)
    if isinstance(value, str):
        return IPv4Network(value) if "/" in value else IPv4Network(IPv4Address(value), 32)
    raise TypeError(f"cannot interpret {value!r} as an IP match")


@dataclass(frozen=True)
class Match:
    """Wildcard match over header fields; ``None`` means "don't care"."""

    in_port: Optional[int] = None
    eth_dst: Optional[MacAddress] = None
    ip_src: Optional[IPv4Network] = None
    ip_dst: Optional[IPv4Network] = None
    proto: Optional[Proto] = None
    dport: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip_src", _as_network(self.ip_src))
        object.__setattr__(self, "ip_dst", _as_network(self.ip_dst))
        # Precompiled (mask, value) int pairs: the flow table indexes rules
        # by ``(_dst_mask, _dst_val)`` and ``matches`` runs on every bucket
        # candidate of a memo miss, so neither pays
        # IPv4Network.__contains__'s dispatch.
        src, dst = self.ip_src, self.ip_dst
        object.__setattr__(self, "_src_mask", None if src is None else src._netmask)
        object.__setattr__(self, "_src_val", None if src is None else src._value)
        object.__setattr__(self, "_dst_mask", None if dst is None else dst._netmask)
        object.__setattr__(self, "_dst_val", None if dst is None else dst._value)

    def matches(self, packet: Packet, in_port: Optional[int] = None) -> bool:
        if self.in_port is not None and in_port != self.in_port:
            return False
        mask = self._dst_mask
        if mask is not None and (packet.dst_ip & mask) != self._dst_val:
            return False
        mask = self._src_mask
        if mask is not None and (packet.src_ip & mask) != self._src_val:
            return False
        if self.eth_dst is not None and packet.dst_mac != self.eth_dst:
            return False
        if self.proto is not None and packet.proto is not self.proto:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = []
        for name in ("in_port", "eth_dst", "ip_src", "ip_dst", "proto", "dport"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        return "Match(" + ", ".join(parts) + ")" if parts else "Match(*)"


class Action:
    """Base class for flow actions (applied in list order)."""

    __slots__ = ()


@dataclass(frozen=True)
class SetIpDst(Action):
    ip: IPv4Address

    def __post_init__(self) -> None:
        object.__setattr__(self, "ip", IPv4Address(self.ip))


@dataclass(frozen=True)
class SetEthDst(Action):
    mac: MacAddress


@dataclass(frozen=True)
class Output(Action):
    port: int


@dataclass(frozen=True)
class OutputGroup(Action):
    group_id: int


@dataclass(frozen=True)
class ToController(Action):
    pass


@dataclass(frozen=True)
class Drop(Action):
    pass


@dataclass(frozen=True)
class HarmoniaRead(Action):
    """Dirty-set-aware replica selection for gets (DESIGN.md §5j).

    ``choices`` holds one pre-planned action tuple per consistent replica
    of ``partition`` (each ends in an :class:`Output`); index 0 is the
    primary.  The switch resolves the choice *per packet* against its
    shared dirty-set registry: clean keys round-robin across all choices,
    dirty (or pinned) keys always take ``choices[0]`` — the conflict-free
    read rule of Harmonia (arXiv 1904.08964) on NICE's vring rules.
    """

    partition: int
    choices: tuple  # tuple of action tuples, primary first


_rule_seq = itertools.count(1)


@dataclass
class Rule:
    """A flow entry: priority + match + actions.  NICE's controller
    installs and removes every rule itself, so rules carry no timeout."""

    match: Match
    actions: List[Action]
    priority: int = 100
    cookie: str = ""
    seq: int = field(default_factory=lambda: next(_rule_seq))
    packets: int = 0
    bytes: int = 0

    @property
    def content(self) -> tuple:
        """What the rule *is* — two rules with equal content forward
        identically.  Generated equality also compares ``seq`` and the hit
        counters, so "same rule" is spelled this way everywhere."""
        return (self.cookie, self.priority, self.match, tuple(self.actions))


def _rule_sort_key(rule: Rule) -> tuple:
    return (-rule.priority, rule.seq)


#: Sentinel distinguishing "cached table miss" (None) from "not cached".
_NOT_CACHED = object()


class FlowTable:
    """Priority-ordered rule set with OpenFlow-like lookup semantics.

    Lookup returns the highest-priority matching rule; ties break on
    insertion order (deterministic).  The table enforces a capacity so the
    §4.6 switch-scalability analysis can be exercised for real.

    ``_rules`` is the canonical list, sorted by ``(-priority, seq)``; a
    lookup never walks it.  The classifier is an index over the one field
    almost every rule constrains (tuple-space search restricted to
    ``ip_dst``): for each distinct destination mask in the table, a dict
    from masked destination value to that bucket's rules in table order
    (the few rules with no ``ip_dst`` at all are the /0 bucket).  A lookup
    probes each mask once, takes the first full :meth:`Match.matches` hit
    of each bucket and returns the candidate that sorts first — by
    construction the rule a linear scan of ``_rules`` would return — so a
    miss costs the prefix lengths in use, not the rules installed (the
    one-stage match §4.6 assumes).  Every table mutation (``add`` / ``remove`` /
    ``remove_by_cookie``) bumps a generation counter and the next lookup
    rebuilds the index, once per generation.

    An exact-match memo (the Open vSwitch microflow cache, which the §5.1
    OVS deployment relies on) fronts the classifier: a dict keyed on
    ``(in_port, eth_dst, src_ip, dst_ip, proto, dport)``, discarded
    wholesale with the index.  ``eth_dst`` and ``dport`` enter the key only
    when some installed rule names that very value — no rule can tell two
    unnamed values apart, so every ephemeral ack port shares one entry
    instead of minting a dead one per put.  The memo is pure: it never
    changes which rule a packet selects — only how fast.
    """

    #: Cached exact-match entries before the memo is wiped (bounds memory on
    #: adversarial many-flow workloads; eviction-by-reset keeps determinism).
    CACHE_LIMIT = 65536

    def __init__(
        self,
        capacity: int = 128 * 1024,
        cache_enabled: bool = True,
        owner=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        #: The device (switch) this table belongs to, if any.  Only used to
        #: reach ``owner.sim.tracer`` for flow-mod trace events — the table
        #: itself has no simulator reference.
        self.owner = owner
        self._rules: List[Rule] = []
        self._generation = 0
        #: Generation the index and the memo below were built for.
        self._index_generation = 0
        #: ``(mask, {masked ip_dst: [rules, table order]})`` per distinct mask;
        #: rules with no ``ip_dst`` sit under mask 0 beside any /0 prefix.
        self._by_dst_mask: tuple = ()
        #: ``eth_dst`` / ``dport`` values some rule matches on (memo key).
        self._named_eth_dst: set = set()
        self._named_dport: set = set()
        self.cache_enabled = cache_enabled
        self._cache: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def __len__(self) -> int:
        return len(self._rules)

    @property
    def rules(self) -> tuple:
        """Public snapshot of the rule list (copy; safe to hold)."""
        return tuple(self._rules)

    def iter_rules(self):
        """Internal read-only view for iteration-only callers (no copy).

        Callers must not mutate the table while iterating.
        """
        return iter(self._rules)

    def _trace_mod(self, name: str, **args) -> None:
        """Emit a flow-mod trace event via the owning switch (if traced)."""
        owner = self.owner
        if owner is None:
            return
        tr = owner.sim.tracer
        if tr is not None:
            tr.instant(name, "flowtable", node=owner.name, **args)

    def add(self, rule: Rule) -> Rule:
        if len(self._rules) >= self.capacity:
            raise OverflowError(
                f"flow table full ({self.capacity} entries) — see §4.6 scalability"
            )
        insort(self._rules, rule, key=_rule_sort_key)
        self._generation += 1
        self._trace_mod(
            "flow_add", cookie=rule.cookie, priority=rule.priority,
            match=str(rule.match), rules=len(self._rules),
        )
        return rule

    def remove(self, rule: Rule) -> None:
        """Delete ``rule`` itself (by identity, never an equal-looking twin)."""
        for i, installed in enumerate(self._rules):
            if installed is rule:
                break
        else:
            return
        del self._rules[i]
        self._generation += 1
        self._trace_mod("flow_remove", cookie=rule.cookie, rules=len(self._rules))

    def remove_by_cookie(self, cookie: str) -> int:
        """Delete all rules tagged with ``cookie``; returns removal count."""
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.cookie != cookie]
        removed = before - len(self._rules)
        if removed:
            self._generation += 1
            self._trace_mod(
                "flow_remove_cookie", cookie=cookie, removed=removed,
                rules=len(self._rules),
            )
        return removed

    def lookup(self, packet: Packet, in_port: Optional[int] = None) -> Optional[Rule]:
        if self._index_generation != self._generation:
            self._reindex()
        if not self.cache_enabled:
            return self._classify(packet, in_port)
        cache = self._cache
        if len(cache) > self.CACHE_LIMIT:
            cache.clear()
        eth_dst = packet.dst_mac
        if eth_dst not in self._named_eth_dst:
            eth_dst = None
        dport = packet.dport
        if dport not in self._named_dport:
            dport = None
        key = (in_port, eth_dst, packet.src_ip, packet.dst_ip, packet.proto, dport)
        hit = cache.get(key, _NOT_CACHED)
        if hit is not _NOT_CACHED:
            self.cache_hits += 1
            return hit
        self.cache_misses += 1
        rule = self._classify(packet, in_port)
        cache[key] = rule
        return rule

    def _reindex(self) -> None:
        """Rebuild the classifier from ``_rules`` and drop the stale memo."""
        by_mask: dict = {}
        eth_dsts = set()
        dports = set()
        for rule in self._rules:  # table order, so every bucket inherits it
            match = rule.match
            if match.eth_dst is not None:
                eth_dsts.add(match.eth_dst)
            if match.dport is not None:
                dports.add(match.dport)
            # No ip_dst at all is the /0 prefix: mask 0, value 0.
            buckets = by_mask.setdefault(match._dst_mask or 0, {})
            buckets.setdefault(match._dst_val or 0, []).append(rule)
        self._by_dst_mask = tuple(by_mask.items())
        self._named_eth_dst = eth_dsts
        self._named_dport = dports
        self._cache.clear()
        self._index_generation = self._generation

    def _classify(self, packet: Packet, in_port: Optional[int]) -> Optional[Rule]:
        """The wildcard path: one probe per destination mask in use."""
        best = None
        dst = packet.dst_ip
        for mask, buckets in self._by_dst_mask:
            bucket = buckets.get(dst & mask)
            if bucket is None:
                continue
            for rule in bucket:
                if rule.match.matches(packet, in_port):
                    # First hit is the bucket's best; keep it if it sorts
                    # before the other buckets' in table order.
                    if best is None or _rule_sort_key(rule) < _rule_sort_key(best):
                        best = rule
                    break
        return best


@dataclass(frozen=True)
class Bucket:
    """One multicast replication leg: header rewrites, then an output port.

    The switch applies the rewrites inline on each clone, so a bucket
    holds :class:`SetIpDst` / :class:`SetEthDst` and nothing else."""

    actions: tuple
    port: int

    def __post_init__(self) -> None:
        for action in self.actions:
            if type(action) not in (SetIpDst, SetEthDst):
                raise TypeError(f"a bucket only rewrites headers, not {action!r}")


@dataclass
class Group:
    """An OpenFlow ALL-type group: the packet is cloned into every bucket.

    This is the switch-level multicast primitive NICE uses for replication
    (§4.2): one ingress packet, one egress copy per replica port.
    """

    group_id: int
    buckets: List[Bucket] = field(default_factory=list)
    packets: int = 0

    def __len__(self) -> int:
        return len(self.buckets)

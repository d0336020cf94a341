"""The client library: one attempt loop for NICE and NOOB (§3.2, §5, Fig 11).

:class:`KvClient` is what every client machine has — a protocol stack, the
reply socket and its waiters, latency tallies, counters, the recorder hook
— and *the* attempt loop: a failed operation is retried after a fixed
back-off (Fig 11 uses 2 s).  The two systems differ only in how one attempt
is addressed and sent, which each subclass hands the loop as a closure.

:class:`NiceClient` addresses the *virtual* storage system: it hashes the
object name, finds the responsible vnode, and fires a UDP request at the
vnode address — the unicast vring for gets, the multicast vring for puts
(with the object data on the reliable multicast transport).  Retried puts
reuse the original client timestamp, so commits are idempotent across
retries (§4.3).
"""

from __future__ import annotations

import itertools
from typing import Dict, Tuple

from ..net import Host, IPv4Address
from ..sim import AnyOf, Counter, Event, Simulator, Tally
from ..transport import MulticastSender, ProtocolStack
from .config import (
    CLIENT_PORT,
    BaseConfig,
    ClusterConfig,
    GET_PORT,
    PUT_PORT,
    REQUEST_BYTES,
)
from .vring import VirtualRing

__all__ = ["KvClient", "NiceClient", "OpResult"]


class OpResult:
    """Outcome of one client operation."""

    __slots__ = ("ok", "latency", "retries", "value", "status")

    def __init__(self, ok: bool, latency: float, retries: int, value=None, status=""):
        self.ok = ok
        self.latency = latency
        self.retries = retries
        self.value = value
        self.status = status

    def __repr__(self) -> str:  # pragma: no cover
        return f"<OpResult {'ok' if self.ok else self.status} {self.latency * 1e3:.3f}ms>"


class KvClient:
    """One client machine: reply socket, waiters, counters, attempt loop."""

    def __init__(self, sim: Simulator, host: Host, config: BaseConfig):
        self.sim = sim
        self.host = host
        self.config = config
        #: The dotted address every op id and request carries.
        self.ip_str = str(host.ip)
        self.stack = ProtocolStack(sim, host)
        self._reply_inbox = self.stack.tcp.listen(CLIENT_PORT)
        self._waiters: Dict[Tuple, Event] = {}
        self._op_seq = itertools.count(1)
        self.put_latency = Tally(f"{host.name}.put")
        self.get_latency = Tally(f"{host.name}.get")
        self.failures = Counter(f"{host.name}.failures")
        self.retries = Counter(f"{host.name}.retries")
        #: Optional :class:`~repro.check.HistoryRecorder`; when set, every
        #: op is captured with invoke/return stamps for consistency checks.
        self.recorder = None
        self._reply_inbox.serve(self._on_reply)

    @property
    def ip(self) -> IPv4Address:
        return self.host.ip

    def _traced(self, kind: str, key: str, value, gen):
        if self.recorder is not None:
            gen = self.recorder.record(self.host.name, kind, key, value, self.sim, gen)
        return self.sim.process(gen)

    def _on_reply(self, msg) -> None:
        body = msg.payload or {}
        op_id = tuple(body.get("op_id", ()))
        waiter = self._waiters.pop(op_id, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(body)
        # Late duplicates (replies to retried ops) are dropped.

    def _new_op(self) -> Tuple:
        return (self.ip_str, next(self._op_seq))

    def _request(self, kind: str, op_id: Tuple, key: str, **extra) -> dict:
        """The fields every request carries, plus the caller's own."""
        return {
            "type": kind,
            "op_id": op_id,
            "key": key,
            "client_ip": self.ip_str,
            "client_port": CLIENT_PORT,
            **extra,
        }

    def _attempts(self, kind: str, key: str, max_retries: int, address):
        """The attempt loop shared by every put and get.

        ``address(attempt)`` resolves where one attempt goes and returns
        ``(send, span_attrs)``; ``send(op_id)`` fires the request.  Each
        attempt gets a fresh op id and waits for its reply or the retry
        timeout.  ``ok`` ends the op; so does a get's authoritative miss
        (an answer — the checker reads it as "initial value" — not a
        failure to reach the store).  Anything else is retried, and an
        early rejection (e.g. an aborted 2PC, which arrives well before the
        retry timeout fires) still waits out the fixed back-off: without it
        the client re-sends in the same sim instant, so a rejecting
        replica set sees max_retries+1 requests in zero sim time.
        """
        t0 = self.sim.now
        tr = self.sim.tracer
        backoff = self.config.client_retry_timeout_s
        for attempt in range(max_retries + 1):
            send, span_attrs = address(attempt)
            op_id = self._new_op()
            span = None
            if tr is not None:
                span = tr.begin(kind, "op", node=self.host.name, op=op_id,
                                key=key, attempt=attempt, **span_attrs)
            waiter = Event(self.sim)
            self._waiters[op_id] = waiter
            send(op_id)
            got = yield AnyOf(self.sim, [waiter, self.sim.timeout(backoff)])
            self._waiters.pop(op_id, None)
            replied = waiter in got
            status = got[waiter].get("status", "error") if replied else "timeout"
            if span is not None:
                span.end(status=status)
            if status == "ok":
                latency = self.sim.now - t0
                (self.put_latency if kind == "put" else self.get_latency).observe(latency)
                return OpResult(True, latency, attempt, value=got[waiter].get("value"))
            if status == "miss" and kind == "get":
                return OpResult(False, self.sim.now - t0, attempt, status="miss")
            if attempt < max_retries:
                self.retries.add()
                if replied:
                    yield self.sim.timeout(backoff)
        self.failures.add()
        return OpResult(False, self.sim.now - t0, max_retries, status="timeout")


class NiceClient(KvClient):
    """One client machine's NICEKV library instance."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: ClusterConfig,
        unicast_vring: VirtualRing,
        multicast_vring: VirtualRing,
    ):
        super().__init__(sim, host, config)
        self.uni = unicast_vring
        self.mc = multicast_vring
        self.mc_sender = MulticastSender(self.stack)

    # -- public API -----------------------------------------------------------
    def put(self, key: str, value, size: int, max_retries: int = 3):
        """Store ``value`` under ``key``; returns a Process → :class:`OpResult`."""
        return self._traced("put", key, value, self._put(key, value, size, max_retries))

    def get(self, key: str, max_retries: int = 3):
        """Fetch ``key``; returns a Process → :class:`OpResult`."""
        return self._traced("get", key, None, self._get(key, max_retries))

    def put_anyk(self, key: str, value, size: int, quorum: int):
        """Quorum-mode put (§5): the reliable any-k multicast returns when
        ``quorum`` replicas hold the data; no 2PC round (Fig 8's NICE side)."""
        return self._traced("put", key, value, self._put_anyk(key, value, size, quorum))

    # -- how one attempt is addressed and sent ------------------------------------
    def _multicast_put(self, kind: str, op_id: Tuple, key: str, value, size: int,
                       client_ts: float, quorum: int):
        return self.mc_sender.send(
            self.mc.vnode_for_key(key),
            PUT_PORT,
            self._request(kind, op_id, key, value=value, size=size, client_ts=client_ts),
            size,
            n_receivers=self.config.replication_level,
            quorum=quorum,
        )

    def _put(self, key: str, value, size: int, max_retries: int):
        client_ts = self.sim.now  # reused across retries: idempotence token
        tr = self.sim.tracer
        if tr is not None:
            tr.instant("vnode_resolve", "client", node=self.host.name, key=key,
                       vnode=str(self.mc.vnode_for_key(key)), kind="put")

        def send(op_id):
            self._multicast_put("put", op_id, key, value, size, client_ts, quorum=1)

        return (yield from self._attempts("put", key, max_retries, lambda attempt: (send, {})))

    def _resolve_get_route(self, key: str, attempt: int):
        """Vnode address for one get attempt.

        Attempt 0 is the canonical hash-resolved vnode.  Retries
        *re-resolve*: they rotate deterministically to a different vnode
        address of the same subgroup, so a retry never re-presents the
        byte-identical header tuple its failed predecessor used — the
        switches must re-scan it against their *current* tables instead
        of serving whatever per-flow state (exact-match cache entries,
        in-flight buffered copies) the pre-flap/pre-reconcile route left
        behind.  The subgroup — and therefore the partition and every
        rule that can match — is unchanged; only the flow identity moves.
        """
        vaddr = self.uni.vnode_for_key(key)
        if attempt == 0:
            return vaddr
        prefix = self.uni.subgroup_prefix(self.uni.subgroup_of_key(key))
        offset = (vaddr - prefix.address + attempt) % prefix.num_addresses
        return prefix.address + offset

    def _get(self, key: str, max_retries: int):
        def address(attempt):
            vaddr = self._resolve_get_route(key, attempt)
            tr = self.sim.tracer
            if tr is not None:
                tr.instant("vnode_resolve", "client", node=self.host.name,
                           key=key, vnode=str(vaddr), kind="get",
                           attempt=attempt)

            def send(op_id):
                self.stack.udp_send(
                    vaddr, GET_PORT, self._request("get", op_id, key), REQUEST_BYTES
                )

            return send, {}

        return (yield from self._attempts("get", key, max_retries, address))

    def _put_anyk(self, key: str, value, size: int, quorum: int):
        t0 = self.sim.now
        op_id = self._new_op()
        tr = self.sim.tracer
        span = None
        if tr is not None:
            span = tr.begin("put_anyk", "op", node=self.host.name, op=op_id,
                            key=key, quorum=quorum)
        sender = self._multicast_put("put_anyk", op_id, key, value, size, t0, quorum)
        # Same timeout contract as a put attempt: if quorum replicas are
        # unreachable (crash/partition) the reliable multicast never
        # completes — without this bound the op would hang forever and
        # still report ok=True.
        got = yield AnyOf(
            self.sim, [sender, self.sim.timeout(self.config.client_retry_timeout_s)]
        )
        if sender not in got:
            self.failures.add()
            if span is not None:
                span.end(status="timeout")
            return OpResult(False, self.sim.now - t0, 0, status="timeout")
        acks = got[sender]
        latency = self.sim.now - t0
        self.put_latency.observe(latency)
        if span is not None:
            span.end(status="ok", acks=len(acks))
        return OpResult(True, latency, 0, value=len(acks))

"""The client library: one attempt loop for NICE and NOOB (§3.2, §5, Fig 11).

:class:`KvClient` is what every client machine has — a protocol stack, the
reply socket and its waiters, latency tallies, counters, the recorder hook
— and *the* attempt loop: a failed operation is retried after a fixed
back-off (Fig 11 uses 2 s).  The two systems differ only in how one attempt
is addressed and sent, which each subclass hands the loop as a closure.
An op is not a process: the loop is a callback chain (:class:`_Op`, an
Event whose value is the :class:`OpResult`) that schedules the records the
process did (DESIGN.md §5g).

:class:`NiceClient` addresses the *virtual* storage system: it hashes the
object name, finds the responsible vnode, and fires a UDP request at the
vnode address — the unicast vring for gets, the multicast vring for puts
(with the object data on the reliable multicast transport).  Retried puts
reuse the original client timestamp, so commits are idempotent across
retries (§4.3).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Tuple

from ..net import Host, IPv4Address
from ..sim import URGENT, Counter, Event, Race, Simulator, Tally
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
        #: op id -> the callback its reply goes to.
        self._waiters: Dict[Tuple, Callable[[dict], None]] = {}
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

    def _on_reply(self, msg) -> None:
        """Hand a reply to its op's waiter in a NORMAL zero-delay record of
        its own (where a reply event's record went)."""
        body = msg.payload or {}
        then = self._waiters.pop(tuple(body.get("op_id", ())), None)
        if then is not None:
            self.sim._schedule_call(0.0, then, body)
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

    def _op(self, kind: str, key: str, value, max_retries: int, address) -> "_Op":
        """Start the attempt loop of one op; returns it (an Event →
        :class:`OpResult`).  ``value`` is what a put writes (``None`` for a
        get): the recorder's, if one is attached now."""
        return _Op(self, kind, key, value, max_retries, address)


class _Op(Race, Event):
    """The attempt loop shared by every put and get, as a callback chain
    that schedules the records of the process it replaced (DESIGN.md §5g):
    the URGENT start, per attempt the request, its reply (a call to
    ``_replied`` in the reply event's slot) and its retry timer, one
    NORMAL zero-delay join where the attempt's ``AnyOf`` triggered, the
    back-off; it completes like a process, with the
    :class:`OpResult` as its value.

    ``address(attempt)`` resolves where one attempt goes and returns
    ``(send, span_attrs)``; ``send(op_id)`` fires the request.  Each
    attempt gets a fresh op id and waits for its reply or the retry
    timeout.  ``ok`` ends the op; so does a get's authoritative miss (an
    answer — the checker reads it as "initial value" — not a failure to
    reach the store).  Anything else is retried, and an early rejection
    (e.g. an aborted 2PC, which arrives well before the retry timeout
    fires) still waits out the fixed back-off: without it the client
    re-sends in the same sim instant, so a rejecting replica set sees
    max_retries+1 requests in zero sim time.

    Each attempt is a :class:`~repro.sim.Race` of its reply against the
    retry timer (a reply to an earlier attempt is ignored); the back-off
    is a timer call.  The history recorder's hooks and the tracer's spans
    run at the instants the process stamped them.
    """

    __slots__ = (
        "client", "kind", "key", "written", "max_retries", "address",
        "recorder", "operation", "t0", "attempt", "op_id", "span",
        "settled", "reply", "timer",
    )

    def __init__(self, client: KvClient, kind: str, key: str, written,
                 max_retries: int, address):
        super().__init__(client.sim)
        self.client = client
        self.kind = kind
        self.key = key
        self.written = written
        self.max_retries = max_retries
        self.address = address
        self.recorder = client.recorder
        self.operation = None
        self.attempt = 0
        client.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _start(self) -> None:
        client = self.client
        if self.recorder is not None:
            self.operation = self.recorder.invoke(
                client.host.name, self.kind, self.key, self.written, client.sim.now)
        self.t0 = client.sim.now
        self._attempt()

    def _attempt(self) -> None:
        client = self.client
        sim = client.sim
        send, span_attrs = self.address(self.attempt)
        self.op_id = op_id = client._new_op()
        tr = sim.tracer
        self.span = None if tr is None else tr.begin(
            self.kind, "op", node=client.host.name, op=op_id, key=self.key,
            attempt=self.attempt, **span_attrs)
        client._waiters[op_id] = self._replied
        send(op_id)
        self._race(sim, client.config.client_retry_timeout_s)

    def _replied(self, reply) -> None:
        if tuple(reply["op_id"]) == self.op_id:  # not an earlier attempt's
            self._won(reply)

    def _settled(self, reply) -> None:
        client = self.client
        sim = client.sim
        attempt = self.attempt
        client._waiters.pop(self.op_id, None)
        replied = reply is not None
        status = reply.get("status", "error") if replied else "timeout"
        if self.span is not None:
            self.span.end(status=status)
        if status == "ok":
            latency = sim.now - self.t0
            (client.put_latency if self.kind == "put" else client.get_latency).observe(latency)
            self._finish(OpResult(True, latency, attempt, value=reply.get("value")))
        elif status == "miss" and self.kind == "get":
            self._finish(OpResult(False, sim.now - self.t0, attempt, status="miss"))
        elif attempt < self.max_retries:
            client.retries.add()
            self.attempt = attempt + 1
            if replied:
                sim._schedule_call(client.config.client_retry_timeout_s, self._attempt)
            else:
                self._attempt()
        else:
            client.failures.add()
            self._finish(OpResult(False, sim.now - self.t0, self.max_retries, status="timeout"))

    def _finish(self, result: "OpResult") -> None:
        if self.operation is not None:
            self.recorder.complete(self.operation, result, self.client.sim.now)
        self._complete(result)


class _AnykOp(_Op):
    """A quorum-mode put (§5) as one attempt of :class:`_Op`'s chain: it
    waits for the reliable any-k multicast itself instead of a reply, under
    the same timeout contract — if ``quorum`` replicas are unreachable
    (crash/partition) the multicast never completes, and without the bound
    the op would hang forever and still report ok=True."""

    __slots__ = ("quorum", "size")

    def __init__(self, client: "NiceClient", key: str, value, size: int, quorum: int):
        self.quorum = quorum
        self.size = size
        super().__init__(client, "put", key, value, 0, None)

    def _attempt(self) -> None:
        client = self.client
        self.op_id = op_id = client._new_op()
        tr = client.sim.tracer
        self.span = None if tr is None else tr.begin(
            "put_anyk", "op", node=client.host.name, op=op_id, key=self.key,
            quorum=self.quorum)
        sender = client._multicast_put(
            "put_anyk", op_id, self.key, self.written, self.size, self.t0, self.quorum)
        self._race(client.sim, client.config.client_retry_timeout_s)
        sender._callbacks = [self._sent]

    def _sent(self, sender: Event) -> None:
        self._won(sender._value)

    def _settled(self, acks) -> None:
        client = self.client
        now = client.sim.now
        if acks is None:
            client.failures.add()
            if self.span is not None:
                self.span.end(status="timeout")
            self._finish(OpResult(False, now - self.t0, 0, status="timeout"))
            return
        latency = now - self.t0
        client.put_latency.observe(latency)
        if self.span is not None:
            self.span.end(status="ok", acks=len(acks))
        self._finish(OpResult(True, latency, 0, value=len(acks)))


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
        """Store ``value`` under ``key``; returns an Event → :class:`OpResult`."""
        client_ts = self.sim.now  # reused across retries: idempotence token

        def send(op_id):
            self._multicast_put("put", op_id, key, value, size, client_ts, quorum=1)

        def address(attempt):
            tr = self.sim.tracer
            if attempt == 0 and tr is not None:
                tr.instant("vnode_resolve", "client", node=self.host.name, key=key,
                           vnode=str(self.mc.vnode_for_key(key)), kind="put")
            return send, {}

        return self._op("put", key, value, max_retries, address)

    def get(self, key: str, max_retries: int = 3):
        """Fetch ``key``; returns an Event → :class:`OpResult`."""

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

        return self._op("get", key, None, max_retries, address)

    def put_anyk(self, key: str, value, size: int, quorum: int):
        """Quorum-mode put (§5): the reliable any-k multicast returns when
        ``quorum`` replicas hold the data; no 2PC round (Fig 8's NICE side)."""
        return _AnykOp(self, key, value, size, quorum)

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

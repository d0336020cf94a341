"""Request chains vs the processes they replaced (DESIGN.md §5g).

A client op's attempt loop (``KvClient._op``, the any-k put), a multicast
send (``MulticastSender.send``) and a replica's get service
(``ReadPath.serve`` / ``serve_forwarded``) run as callback chains that
schedule the records the generator processes below did: the URGENT start,
the same request, timer, grant, read and send events, one NORMAL
zero-delay join per attempt where its ``AnyOf`` triggered, and a
completion record only when someone waits — a get service waits for its
reply's or forward's delivery only to end a tracer's span.  The
references are those processes — with the history recorder's generator
wrapper — kept here the way ``test_leaf_chains.py`` keeps the disk and TCP
ones.  Each scenario runs on both and must agree on every outcome,
counter, recorded operation and trace event, the number of event ids
consumed and the ``(now, delay, priority)`` slot of every record
scheduled.  The multicast send is also checked against its Event form,
and a warm get against the reply that always waited for its delivery.
"""

import collections
import copy
from functools import partial

import pytest

from repro.check import HistoryRecorder, Operation
from repro.core import ClusterConfig, NiceCluster
from repro.core.client import KvClient, NiceClient, OpResult
from repro.core.config import NODE_PORT, REQUEST_BYTES
from repro.core.storage_node.read_path import ReadPath, _Serve
from repro.kv import StoredObject
from repro.noob import NoobCluster, NoobConfig
from repro.obs import install as install_tracer
from repro.sim import AnyOf, Counter, Event
from repro.transport import MulticastEndpoint, MulticastSender
from repro.net import IPv4Address
from tests.helpers import (
    Star,
    install_event_forms,
    record_slots,
    record_targets,
    ref_cpu_work,
    ref_mc_send,
    ref_reply_get,
    ref_serve_reply,
)


# -- the reference processes ---------------------------------------------------------
def _ref_attempts(self, kind, key, max_retries, address):
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


def _ref_on_reply(self, msg):
    """``KvClient._on_reply`` as it was: the reply succeeds its op's Event
    waiter.  (The get scenario below registers callbacks in both runs.)"""
    body = msg.payload or {}
    waiter = self._waiters.pop(tuple(body.get("op_id", ())), None)
    if isinstance(waiter, Event):
        if not waiter.triggered:
            waiter.succeed(body)
    elif waiter is not None:
        self.sim._schedule_call(0.0, waiter, body)


def _ref_record(recorder, client, kind, key, value, sim, gen):
    op = Operation(op_index=len(recorder.ops), client=client, kind=kind, key=key,
                   invoke_ts=sim.now, value=None if kind == "get" else value)
    recorder.ops.append(op)
    result = yield from gen
    op.return_ts = sim.now
    op.ok = bool(result.ok)
    op.status = result.status if result.status else ("ok" if result.ok else "error")
    op.retries = result.retries
    if kind == "get" and result.ok:
        op.value = result.value
    return result


def _ref_spawn(self, kind, key, value, gen):
    if self.recorder is not None:
        gen = _ref_record(self.recorder, self.host.name, kind, key, value, self.sim, gen)
    return self.sim.process(gen)


def _ref_op(self, kind, key, value, max_retries, address):
    return _ref_spawn(self, kind, key, value, _ref_attempts(self, kind, key, max_retries, address))


def _ref_put_anyk_gen(self, key, value, size, quorum):
    t0 = self.sim.now
    op_id = self._new_op()
    tr = self.sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("put_anyk", "op", node=self.host.name, op=op_id,
                        key=key, quorum=quorum)
    sender = self.sim.wait(self._multicast_put, "put_anyk", op_id, key, value, size, t0,
                           quorum)
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


def _ref_put_anyk(self, key, value, size, quorum):
    return _ref_spawn(self, "put", key, value, _ref_put_anyk_gen(self, key, value, size, quorum))


def _ref_mc_gen(self, group_ip, dport, payload, payload_bytes, k):
    sim = self.stack.sim
    op = (self.stack.ip, next(self._op_seq))
    ack_port = self.stack.ephemeral_port()
    inbox = self.stack.udp_bind(ack_port)
    self.stack.udp_send(
        IPv4Address(group_ip), dport, ("mc_data", op, ack_port, payload),
        payload_bytes, sport=ack_port,
    )
    acks = []
    while len(acks) < k:
        dgram = yield inbox.get()
        body = dgram.payload
        if type(body) is tuple and len(body) == 2 and body[0] == "mc_ack" and body[1] == op:
            acks.append((dgram.src_ip, sim.now))
    self.stack.udp_unbind(ack_port)
    return acks


def _ref_mc_send(self, group_ip, dport, payload, payload_bytes, n_receivers, quorum=None,
                 then=None):
    k = n_receivers if quorum is None else quorum
    proc = self.stack.sim.process(_ref_mc_gen(self, group_ip, dport, payload, payload_bytes, k))
    if then is not None:
        proc._callbacks = [lambda done: then(done._value)]


def _ref_serve_gen(self, body, virtual_dst):
    node = self.node
    tr = node.sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("get.serve", "op", node=node.name,
                        op=tuple(body["op_id"]), key=body["key"])
    yield from ref_cpu_work(node)
    key = body["key"]
    if "partition" in body:
        partition = body["partition"]
    elif virtual_dst is not None and virtual_dst in node.uni.prefix:
        partition = node.uni.subgroup_of_address(virtual_dst)
    else:
        partition = node.uni.subgroup_of_key(key)
    body = dict(body, partition=partition)
    my_role = node.role(partition)
    forwarded = None
    if my_role == "handoff":
        obj = node.store.get_handoff(key)
        if obj is None:
            forwarded = "forwarded"
    elif my_role is None:
        forwarded = "forwarded_stale"
    else:
        rs = node.replica_sets.get(partition)
        if rs is not None and node.name in rs.absent and node.name not in rs.handoffs:
            forwarded = "forwarded_joining"
        else:
            obj = node.store.get(key)
            if obj is not None and not node.store.verify(obj):
                obj = yield from self._read_repair(key, rs)
                if obj is not None:
                    node.read_repairs.add()
    if forwarded is not None:
        send = _ref_forward(self, partition, body)
        status = forwarded
    else:
        send = yield from ref_reply_get(node, body, obj)
        status = "ok" if obj is not None else "miss"
    # Only the span waits for the reply or forward to arrive.
    if span is None:
        if send is not None:
            send()
        return
    if send is not None:
        yield node.sim.wait(send)
    span.end(status=status)


def _ref_forward(self, partition, body):
    """The forward's send, ``send(then=None)``; ``None`` if the primary is
    unknown."""
    node = self.node
    rs = node.replica_sets.get(partition)
    primary_ip = node.directory.get(rs.primary) if rs else None
    if primary_ip is None:
        return None
    node.gets_forwarded.add()
    return partial(node.stack.tcp.send_message, primary_ip, NODE_PORT,
                   {"type": "get_forward", "request": body}, REQUEST_BYTES)


def _ref_serve_forwarded_gen(self, request):
    node = self.node
    obj = node.store.get(request["key"])
    node.gets_forwarded.add()
    (yield from ref_reply_get(node, request, obj))()  # no span: nobody waits for it


def _both(scenario, monkeypatch):
    """``scenario()`` on the chains, then on the reference processes and
    the Event forms of their waits (``tests.helpers.install_event_forms``)."""
    chain = scenario()
    install_event_forms(monkeypatch)
    monkeypatch.setattr(KvClient, "_op", _ref_op)
    monkeypatch.setattr(KvClient, "_on_reply", _ref_on_reply)
    monkeypatch.setattr(NiceClient, "put_anyk", _ref_put_anyk)
    monkeypatch.setattr(MulticastSender, "send", _ref_mc_send)
    monkeypatch.setattr(
        ReadPath, "serve",
        lambda self, body, vdst: self.node.sim.process(_ref_serve_gen(self, body, vdst)))
    monkeypatch.setattr(
        ReadPath, "serve_forwarded",
        lambda self, request: self.node.sim.process(_ref_serve_forwarded_gen(self, request)))
    return chain, scenario()


# -- observation ---------------------------------------------------------------------
MODES = ("bare", "recorder", "tracer")


def _observe(cluster, mode):
    """Attach what ``mode`` asks for; the slot log starts here."""
    sim = cluster.sim
    recorder = tracer = None
    if mode == "recorder":
        recorder = HistoryRecorder().attach(*cluster.clients)
    elif mode == "tracer":
        tracer = install_tracer(sim, label="chains")
    return recorder, tracer, record_slots(sim)


def _counters(obj):
    return sorted((name, c.value) for name, c in vars(obj).items() if isinstance(c, Counter))


def _seen(cluster, recorder, tracer, slots):
    """Everything two equal runs must agree on, after the run."""
    sim = cluster.sim
    clients = [(_counters(c), c.put_latency.count, c.get_latency.count)
               for c in cluster.clients]
    nodes = [(_counters(n), _counters(n.disk)) for n in cluster.nodes.values()]
    ops = recorder.as_tuples() if recorder is not None else None
    # The kernel's own spawn/wake instants (cat "proc") name processes.
    trace = None if tracer is None else [
        (ev.ts, ev.ph, ev.name, ev.cat, ev.node, ev.op, ev.args)
        for ev in tracer.events if ev.cat != "proc"
    ]
    return clients, nodes, ops, trace, sim._eid, sim.now, sim.pending_events, slots


def _result(r):
    return (r.ok, r.latency, r.retries, r.value, r.status)


# -- the client attempt loop ---------------------------------------------------------
def _nice(**kw):
    # A crashed replica is never declared failed (huge miss limit): the
    # replica set stays degraded and every 2PC put against it aborts.
    cfg = dict(n_storage_nodes=6, n_clients=2, replication_level=3,
               heartbeat_miss_limit=10_000)
    cfg.update(kw)
    cluster = NiceCluster(ClusterConfig(**cfg))
    cluster.warm_up()
    return cluster


def _noob():
    cluster = NoobCluster(NoobConfig(n_storage_nodes=6, n_clients=2, replication_level=3))
    cluster.warm_up()
    return cluster


def _crash_secondary(cluster, key):
    rs = cluster.partition_map.get(cluster.partition_of_key(key))
    cluster.nodes[next(m for m in rs.members if m != rs.primary)].crash()


def _store(cluster, *keys):
    """Put ``keys`` (value ``"v"``) and let the cluster settle."""
    sim = cluster.sim

    def puts():
        for key in keys:
            assert (yield cluster.clients[0].put(key, "v", 3000)).ok

    sim.process(puts())
    sim.run(until=sim.now + 0.1)


def _client_run(build, mode, ops, setup=None, until=30.0):
    """``ops`` is a list of ``(client index, start, call)``; each call
    starts one op on that client once ``k0`` and ``k1`` are stored.  Every
    op's outcome is logged with its end time and the live records then (a
    timer left armed shows there)."""
    cluster = build()
    sim = cluster.sim
    _store(cluster, "k0", "k1")
    recorder, tracer, slots = _observe(cluster, mode)
    if setup is not None:
        setup(cluster)
    log = []

    def driver(i, idx, start, call):
        yield sim.timeout(start)
        op = call(cluster.clients[idx])
        result = yield op
        log.append((i, sim.now, _result(result), sim.pending_events))

    for i, (idx, start, call) in enumerate(ops):
        sim.process(driver(i, idx, start, call))
    # Fire-and-forget ops: nobody waits, so they complete without a record.
    sim.call_in(0.003, lambda: cluster.clients[1].get("k0"))
    sim.run(until=sim.now + until)
    return sorted(log), _seen(cluster, recorder, tracer, slots)


def _put(key, value="v", size=1000, **kw):
    return lambda c: c.put(key, value, size, **kw)


def _get(key, **kw):
    return lambda c: c.get(key, **kw)


def _dark(cluster, host, start, end):
    """``host``'s NIC is down from ``start`` to ``end`` (relative to now)."""
    sim = cluster.sim
    sim.call_in(start, host.fail)
    sim.call_in(end, host.recover)


#: case -> (cluster, ops, set-up, each op's status, total retries, failures).
CLIENT_CASES = {
    # Two clients interleave puts and gets, hits and overwrites.
    "ok": (_nice, [(0, 0.0, _put("k0")), (1, 0.0, _put("k1", "w")), (0, 0.001, _get("k0")),
                   (1, 0.0015, _get("k1")), (0, 0.002, _put("k0", "v2"))], None,
           ["ok"] * 5, 0, 0),
    "get_miss": (_nice, [(0, 0.0, _get("never")), (1, 0.0, _get("nor-this"))], None,
                 ["miss", "miss"], 0, 0),
    # A degraded replica set aborts 2PC: "fail" replies, back-off, retry.
    "rejected_then_retried": (
        _nice, [(0, 0.0, _put("stormy", max_retries=2)), (1, 0.0001, _get("k0"))],
        lambda c: _crash_secondary(c, "stormy"), ["ok", "ok"], 2, 0),
    # The first attempts are lost on a dark NIC: timeout, retry at once.
    "timed_out_then_retried": (
        _nice, [(0, 0.0, _get("k0")), (0, 0.0, _put("k2")), (1, 0.0, _get("k1"))],
        lambda c: _dark(c, c.clients[0].host, 0.0, 1.0), ["ok"] * 3, 2, 0),
    "final_failure": (
        _nice, [(0, 0.0, _get("k0", max_retries=1)), (0, 0.0, _put("k2", max_retries=1))],
        lambda c: _dark(c, c.clients[0].host, 0.0, 10.0), ["timeout"] * 2, 2, 2),
    "noob": (_noob, [(0, 0.0, _put("k0")), (1, 0.0, _put("k1")), (0, 0.001, _get("k0")),
                     (1, 0.001, _get("nothing"))], None, ["ok", "ok", "ok", "miss"], 0, 0),
    "noob_timed_out": (
        _noob, [(0, 0.0, _put("k0", max_retries=1)), (1, 0.0, _get("k1"))],
        lambda c: _dark(c, c.clients[0].host, 0.0, 1.0), ["ok", "ok"], 1, 0),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", sorted(CLIENT_CASES))
def test_client_op_chain_equals_process(case, mode, monkeypatch):
    build, ops, setup, statuses, retries, failures = CLIENT_CASES[case]
    chain, ref = _both(lambda: _client_run(build, mode, ops, setup), monkeypatch)
    assert chain == ref
    log, (clients, _, recorded, trace, *_rest) = chain
    assert [r[-1] or "ok" for _, _, r, _ in log] == statuses
    counters = [dict(c[0]) for c in clients]
    assert sum(c["retries"] for c in counters) == retries
    assert sum(c["failures"] for c in counters) == failures
    if mode == "recorder":
        assert len(recorded) == len(ops) + 1  # and the fire-and-forget get
        assert all(op[6] is not None for op in recorded)
    if mode == "tracer":
        spans = [ev for ev in trace if ev[3] == "op" and ev[2] in ("put", "get")]
        assert len(spans) == 2 * (len(ops) + 1 + retries)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("quorum", ["ok", "timeout"])
def test_put_anyk_chain_equals_process(quorum, mode, monkeypatch):
    """The any-k put at quorum R: acks from every replica, or a crashed
    one and the client timeout."""
    setup = (lambda c: _crash_secondary(c, "anyk")) if quorum == "timeout" else None
    ops = [(0, 0.0, lambda c: c.put_anyk("anyk", "v", 4000, quorum=3)),
           (1, 0.0, lambda c: c.put_anyk("other", "w", 100, quorum=1))]
    chain, ref = _both(lambda: _client_run(_nice, mode, ops, setup), monkeypatch)
    assert chain == ref
    log = chain[0]
    assert log[0][2][0] is (quorum == "ok") and log[1][2][:1] == (True,)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("quorum", ["ok", "timeout"])
def test_multicast_send_schedules_the_slots_of_its_event_form(quorum, mode, monkeypatch):
    """The any-k put's multicast send calls ``then(acks)`` in the slot the
    Event form (``tests.helpers.RefSend``) completed in, and a plain put's,
    which nobody waits on, schedules no completion in either form: the
    same records, slots and outcomes, one Event fewer per send."""
    setup = (lambda c: _crash_secondary(c, "anyk")) if quorum == "timeout" else None
    ops = [(0, 0.0, lambda c: c.put_anyk("anyk", "v", 4000, quorum=3)),
           (1, 0.0, lambda c: c.put_anyk("other", "w", 100, quorum=1)),
           (1, 0.001, _put("plain"))]
    init = Event.__init__
    runs = []
    for send in (MulticastSender.send, ref_mc_send):
        built = collections.Counter()

        def counted_init(ev, sim, built=built):
            built[type(ev).__name__] += 1
            init(ev, sim)

        monkeypatch.setattr(MulticastSender, "send", send)
        monkeypatch.setattr(Event, "__init__", counted_init)
        runs.append((_client_run(_nice, mode, ops, setup), built))
    (chain, chain_built), (ref, ref_built) = runs
    assert chain == ref
    assert [r[2][0] for r in chain[0]] == [quorum == "ok", True, True]
    # Two stored keys and three puts, each one multicast send.
    sends = ref_built["RefSend"]
    assert sends >= 5 and ref_built - collections.Counter(RefSend=sends) == chain_built


# -- the multicast sender ------------------------------------------------------------
def _mc_run():
    """Quorum 1, 2 and R, waited on and fire-and-forget, with a stray
    datagram on one ack port; returns what every sender saw."""
    star = Star(n_hosts=5)
    sim = star.sim
    slots = record_slots(sim)
    receivers = star.hosts[1:4]
    group = IPv4Address("10.9.0.0")
    star.add_multicast_group(1, "10.9.0.0/30", receivers)
    sender = MulticastSender(star.stacks[0])
    log = []
    for stack in star.stacks[1:4]:
        def deliver(msg, stack=stack):
            log.append(("rx", stack.host.name, sim.now, msg.payload))

        MulticastEndpoint(stack, 7000).messages.serve(deliver)
    # Ahead of q2's acks, its ack port (the third one drawn) gets an ack
    # for another op and a datagram that is no ack at all: both skipped.
    q2_port = star.stacks[0]._next_ephemeral + 2
    for junk in (("mc_ack", (star.hosts[0].ip, 99)), "junk"):
        sim.call_in(1.5e-5, star.stacks[4].udp_send, star.hosts[0].ip, q2_port, junk, 10)

    def send(tag, k, size, delay):
        yield sim.timeout(delay)
        acks = yield sim.wait(sender.send, group, 7000, tag, size, n_receivers=3, quorum=k)
        log.append((tag, sim.now, [(str(ip), t) for ip, t in acks]))

    sim.process(send("q1", 1, 500, 0.0))
    sim.process(send("qR", None, 20_000, 0.0))
    sim.process(send("q2", 2, 100, 1e-5))
    sim.call_in(2e-5, sender.send, group, 7000, "ff", 300, 3, 3)
    sim.run(until=0.1)
    return log, sim._eid, sim.now, sim.pending_events, slots


def test_multicast_send_chain_equals_process(monkeypatch):
    chain, ref = _both(_mc_run, monkeypatch)
    assert chain == ref
    acked = {entry[0]: len(entry[2]) for entry in chain[0] if entry[0] != "rx"}
    assert acked == {"q1": 1, "q2": 2, "qR": 3}
    senders = {ip for entry in chain[0] if entry[0] != "rx" for ip, _ in entry[2]}
    assert senders <= {"10.0.0.2", "10.0.0.3", "10.0.0.4"}


# -- the get service -----------------------------------------------------------------
KEY = "k-served"


def _roles(cluster, key):
    """(partition, its replica set, primary, a secondary, a non-member)."""
    part = cluster.partition_of_key(key)
    rs = cluster.partition_map.get(part)
    secondary = next(m for m in rs.members if m != rs.primary)
    outsider = next(n for n in sorted(cluster.nodes) if n not in rs.members)
    return part, rs, rs.primary, secondary, outsider


def _view(cluster, node, part, **changes):
    """Give ``node`` its own altered view of the partition's replica set."""
    rs = copy.deepcopy(cluster.partition_map.get(part))
    for field, value in changes.items():
        setattr(rs, field, value)
    cluster.nodes[node].replica_sets[part] = rs


def _handoff(cluster, holds):
    part, rs, _, _, outsider = _roles(cluster, KEY)
    _view(cluster, outsider, part, handoffs=[outsider])
    if holds:
        obj = cluster.nodes[rs.primary].store.get(KEY)
        cluster.nodes[outsider].store.put_handoff(
            StoredObject(obj.name, "handoff-copy", obj.size_bytes, obj.stamp))
    return outsider


def _stale(cluster, known):
    part, _, _, _, outsider = _roles(cluster, KEY)
    if known:
        _view(cluster, outsider, part)
    else:
        cluster.nodes[outsider].replica_sets.pop(part, None)
    return outsider


def _joining(cluster):
    part, _, _, secondary, _ = _roles(cluster, KEY)
    _view(cluster, secondary, part, absent={secondary})
    return secondary


def _rotten(cluster, everywhere):
    _, rs, _, secondary, _ = _roles(cluster, KEY)
    for name in rs.members if everywhere else [secondary]:
        cluster.nodes[name].store.corrupt(KEY)
    return secondary


#: case -> (set-up returning the node the gets land on, key, forwarded by a
#: peer, the statuses the client sees, how the node's serve span ends).
GET_CASES = {
    "hit": (lambda c: _roles(c, KEY)[3], KEY, False, {"ok"}, {"ok"}),
    "miss": (lambda c: _roles(c, "absent-key")[3], "absent-key", False, {"miss"}, {"miss"}),
    "handoff_served": (lambda c: _handoff(c, holds=True), KEY, False, {"ok"}, {"ok"}),
    "handoff_forward": (lambda c: _handoff(c, holds=False), KEY, False, {"ok"},
                        {"forwarded"}),
    "stale_forward": (lambda c: _stale(c, known=True), KEY, False, {"ok"},
                      {"forwarded_stale"}),
    "stale_silent": (lambda c: _stale(c, known=False), KEY, False, set(),
                     {"forwarded_stale"}),
    "joining_forward": (_joining, KEY, False, {"ok"}, {"forwarded_joining"}),
    "read_repair_ok": (lambda c: _rotten(c, everywhere=False), KEY, False, {"ok"}, {"ok"}),
    "read_repair_no_peer": (lambda c: _rotten(c, everywhere=True), KEY, False, {"miss"},
                            {"miss"}),
    "forwarded_on_primary": (lambda c: _roles(c, KEY)[2], KEY, True, {"ok"}, set()),
}


def _get_run(case, mode):
    """Store ``KEY``, set up ``case``, then hand the chosen node three gets
    at once (the CPU step contends) through its get path; returns what the
    client's waiters saw and everything ``_seen`` compares."""
    cluster = _nice()
    sim = cluster.sim
    client = cluster.clients[0]
    _store(cluster, KEY)
    recorder, tracer, slots = _observe(cluster, mode)
    setup, key, forwarded, _, _ = GET_CASES[case]
    node = cluster.nodes[setup(cluster)]
    log = []
    for i in range(3):
        op_id = client._new_op()
        client._waiters[op_id] = lambda reply, i=i: log.append(
            (i, sim.now, reply.get("status"), reply.get("value")))
        body = client._request("get", op_id, key)
        if forwarded:
            node.reads.serve_forwarded(dict(body, partition=cluster.partition_of_key(key)))
        else:
            node.reads.serve(body, None)
    sim.run(until=sim.now + 2.0)
    stored = [n.store.get(KEY) for n in cluster.nodes.values()]
    stored = [None if o is None else (o.value, o.stamp) for o in stored]
    own = node.store.get(KEY)
    return log, stored, own and own.value, _seen(cluster, recorder, tracer, slots)


@pytest.mark.parametrize("mode", ("bare", "tracer"))
@pytest.mark.parametrize("case", sorted(GET_CASES))
def test_get_service_chain_equals_process(case, mode, monkeypatch):
    chain, ref = _both(lambda: _get_run(case, mode), monkeypatch)
    assert chain == ref
    log, _, own, (_, nodes, _, trace, *_rest) = chain
    _, _, _, answered, served = GET_CASES[case]
    assert len(log) == 3 * len(answered) and {entry[2] for entry in log} == answered
    if case == "handoff_served":
        assert {entry[3] for entry in log} == {"handoff-copy"}
    repairs = sum(dict(counters)["read_repairs"] for counters, _ in nodes)
    assert repairs == (3 if case == "read_repair_ok" else 0)
    if case.startswith("read_repair"):
        # Repaired from a peer, or dropped: a rotten copy is never kept.
        assert own == ("v" if case == "read_repair_ok" else None)
    if mode == "tracer":
        ends = {ev[6]["status"] for ev in trace if ev[2] == "get.serve" and ev[1] == "E"}
        assert ends == served


_ON_REPLY = KvClient._on_reply


def _warm_gets(traced, monkeypatch):
    """Four warm gets, one after another, from one client; returns every
    reply as the client got it (time, op id, status, value), the records
    scheduled from the first get on, the event ids they took and the
    trace."""
    replies = []

    def logged(client, msg):
        body = msg.payload
        if body.get("type") == "get_reply":
            replies.append((client.sim.now, tuple(body["op_id"]), body["status"],
                            body.get("value")))
        _ON_REPLY(client, msg)

    monkeypatch.setattr(KvClient, "_on_reply", logged)
    cluster = _nice(n_clients=1)
    sim = cluster.sim
    keys = [f"k{i}" for i in range(4)]
    _store(cluster, *keys)
    tracer = install_tracer(sim, label="gets") if traced else None
    log = record_targets(sim)
    eid = sim._eid

    def gets():
        for key in keys:
            assert (yield cluster.clients[0].get(key)).ok

    sim.process(gets())
    sim.run(until=sim.now + 0.1)
    trace = None if tracer is None else [
        (ev.ts, ev.ph, ev.name, ev.op, ev.args) for ev in tracer.events if ev.cat != "proc"]
    return replies, log, sim._eid - eid, trace


#: What a get's serve chain scheduled only to end its span: the reply's
#: delivery and the end it called.
SPAN_ONLY = {"_SendMessage._delivered", "_Serve._end"}


@pytest.mark.parametrize("traced", [False, True], ids=["bare", "tracer"])
def test_a_warm_get_waits_for_its_reply_only_under_a_tracer(traced, monkeypatch):
    """Against the serve chain's reply as it was (``ref_serve_reply``),
    which waited for the reply's delivery whether or not a span was open:
    untraced, a warm get schedules the same records in the same slots less
    exactly those two per get, and the client gets the same replies at the
    same times; traced, it schedules the same records, and the node's
    ``get.serve`` span ends at the instant its reply reaches the client."""
    replies, log, eids, trace = _warm_gets(traced, monkeypatch)
    monkeypatch.setattr(_Serve, "_reply", ref_serve_reply)
    old_replies, old_log, old_eids, old_trace = _warm_gets(traced, monkeypatch)
    assert replies == old_replies and trace == old_trace
    assert [r[2] for r in replies] == ["ok"] * 4
    dropped = collections.Counter(e[3] for e in old_log if e[3] in SPAN_ONLY)
    assert dropped == {name: 4 for name in SPAN_ONLY}
    if traced:
        assert log == old_log and eids == old_eids
        ends = {op: ts for ts, ph, name, op, _ in trace if name == "get.serve" and ph == "E"}
        assert ends == {op: t for t, op, _, _ in replies}
    else:
        assert [e[:3] for e in log] == [e[:3] for e in old_log if e[3] not in SPAN_ONLY]
        assert not [e for e in log if e[3] in SPAN_ONLY]
        assert eids == old_eids - 2 * 4


# -- no process on the request path --------------------------------------------------
def test_warm_gets_spawn_no_process():
    cluster = _nice(n_clients=1)
    sim = cluster.sim
    client = cluster.clients[0]
    keys = [f"k{i}" for i in range(8)]
    results = []

    def driver():
        for key in keys:
            yield client.put(key, "v", 1000)
        yield sim.timeout(0.01)
        spawned = sim._spawned
        for _ in range(3):
            for key in keys:
                results.append((yield client.get(key)))
        results.append(sim._spawned - spawned)

    sim.process(driver())
    sim.run(until=sim.now + 5.0)
    assert len(results) == 3 * len(keys) + 1
    assert all(r.ok for r in results[:-1])
    assert results[-1] == 0, f"{results[-1]} processes spawned by {3 * len(keys)} gets"

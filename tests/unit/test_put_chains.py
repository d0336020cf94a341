"""Put chains vs the processes they replaced (DESIGN.md §5g).

A NICE replica's put (``PutEngine.prepare``: admit, CPU step, the
participant's prepare, the ack or the primary's coordination with its two
gathers and the strikes), its commit handler and its any-k store, and every
NOOB node handler (the put in all four modes with its replication requests
and RPCs, the get with its quorum read, the replica-side handlers and the
membership ack) run as callback chains that schedule the records the
generator processes below did.  The references are those processes — with
the generator form of ``TwoPhaseParticipant.prepare`` they called — kept
here the way ``test_request_chains.py`` keeps the client's.  Each scenario
runs on both, bare and traced, and must agree on every outcome, counter,
stored object, trace event, the number of event ids consumed and the
``(now, delay, priority)`` slot of every record scheduled.  A send nobody
waits for — the ack2, a replica's forward down the chain, the replica
handlers' replies — completes without a record, so the references send
those without yielding them.
"""

import copy

import pytest

from repro.core import ClusterConfig, NiceCluster
from repro.core.config import ACK_BYTES, COMMIT_BYTES, NODE_PORT, PUT_PORT, REQUEST_BYTES
from repro.core.storage_node.put_engine import PutEngine
from repro.core.storage_node.shell import NiceStorageNode
from repro.core.vring import mc_group_address
from repro.kv import PreparedOp, PutStamp, StoredObject
from repro.noob import NoobCluster, NoobConfig
from repro.noob.storage_node import NoobStorageNode
from repro.obs import install as install_tracer
from repro.sim import AllOf, AnyOf, Counter, Event
from tests.helpers import (
    RefCoordination,
    install_event_forms,
    record_slots,
    ref_cpu_work,
    ref_record_ack,
    ref_reply_get,
)


# -- the reference processes: the participant ----------------------------------------
def _ref_participant_prepare(part, op):
    op_id, key = op.op_id, op.key
    try:
        yield part.locks.request(part.sim, key, op_id)
        if part._resolved(op_id):
            part.locks.release(key, op_id)
            return "raced"
        yield part.sim.wait(part.wal.append, op)
        data_write = part.sim.wait(part.disk.write, op.size_bytes, forced=False)
        op.data_seq = part.disk.issued_seq
        yield data_write
        if not part.is_up():
            return "crashed"
        part._pending[op_id] = op
    finally:
        part._preparing.pop(op_id, None)
    early_stamp = part._early_commits.pop(op_id, None)
    if op_id in part._aborted:
        part.abort(op_id)
        return "aborted"
    if early_stamp is not None:
        part.commit(op_id, early_stamp)
        return "early_commit"
    return "prepared"


# -- the reference processes: the NICE replica ---------------------------------------
def _ref_prepare(self, msg, body):
    node = self.node
    if msg.virtual_dst is None or msg.virtual_dst not in node.mc.prefix:
        return
    partition = node.mc.subgroup_of_address(msg.virtual_dst)
    my_role = node.role(partition)
    if my_role is None:
        return
    op = PreparedOp(
        tuple(body["op_id"]), body["key"], body["size"], body["client_ip"],
        body["client_ts"], value=body["value"], client_port=body["client_port"],
        partition=partition, role=my_role,
    )
    op_id = op.op_id
    if not self.participant.admit(op):
        return
    tr = node.sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("2pc.prepare", "2pc", node=node.name, op=op_id,
                        role=my_role, key=op.key)
    yield from ref_cpu_work(node)
    status = yield from _ref_participant_prepare(self.participant, op)
    if status in ("raced", "crashed"):
        if span is not None:
            span.end(status=status)
        return
    self._clients_seen.setdefault(partition, set()).add(op.client_addr)
    rs = node.replica_sets[partition]
    if status == "aborted":
        self._after_abort(op_id)
    if span is not None:
        span.end(status=status)
    if status == "early_commit":
        self._after_commit(op)
        if my_role != "primary":
            yield from _ref_ack_primary(self, rs, op_id, phase=2)
    elif status == "prepared":
        if my_role == "primary":
            yield from _ref_coordinate(self, op, rs)
        else:
            yield from _ref_ack_primary(self, rs, op_id, phase=1)


def _ref_send_ack(self, rs, op_id, phase, then=None):
    """Send ``put_ack{phase}`` to the primary, then ``then()`` — at once,
    without a send, when the primary is unknown."""
    node = self.node
    primary_ip = node.directory.get(rs.primary) if rs else None
    if primary_ip is not None:
        node.stack.tcp.send_message(
            primary_ip, NODE_PORT,
            {"type": f"put_ack{phase}", "op_id": op_id, "node": node.name}, ACK_BYTES,
            then=then,
        )
    elif then is not None:
        then()


def _ref_ack_primary(self, rs, op_id, phase):
    yield self.node.sim.wait(_ref_send_ack, self, rs, op_id, phase)


def _ref_store_anyk(self, body):
    node = self.node
    yield node.sim.wait(node.disk.write, body["size"], forced=True)
    stamp = PutStamp(node.ip_str, node.sim.now, body["client_ip"], body["client_ts"])
    node.store.put(StoredObject(body["key"], body["value"], body["size"], stamp))
    node.puts_served.add()
    tr = node.sim.tracer
    if tr is not None:
        tr.instant("store_anyk", "op", node=node.name, op=tuple(body["op_id"]), key=body["key"])


def _ref_on_commit(self, body):
    op_id = tuple(body["op_id"])
    op = self.participant.pending.get(op_id)
    if op is None:
        self.participant.commit_early(op_id, body["stamp"])
        return
    if op.role == "primary":
        return
    self.apply_commit(op_id, body["stamp"])
    # Nothing waits for the ack2 to arrive: it completes without a record.
    _ref_send_ack(self, self.node.replica_sets.get(op.partition), op_id, phase=2)
    return
    yield  # a generator, spawned where the chain's URGENT call runs


def _ref_coordinate(self, op, rs):
    node = self.node
    op_id = op.op_id
    tr = node.sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("2pc.coordinate", "2pc", node=node.name, op=op_id, key=op.key)
    secondaries = {s for s in rs.secondaries() if s not in rs.joining}
    coord = self._coord[op_id] = RefCoordination(node.sim, need=secondaries)
    early = self._early_acks.pop(op_id, None)
    if early:
        for phase, peers in early.items():
            for peer in peers:
                self.record_ack(op_id, peer, phase)
    if not secondaries:
        for done in coord.done.values():
            if not done.triggered:
                done.succeed()
    group_addr = mc_group_address(op.partition)
    if not (yield from _ref_await(self, coord.done[1])):
        missing = coord.need - coord.acks[1]
        node.aborts.add()
        node.mc_sender.send_ctrl(group_addr, PUT_PORT, {"type": "abort", "op_id": op_id},
                                 ACK_BYTES)
        self.apply_abort(op_id)
        self._coord.pop(op_id, None)
        node.reply_put(op.client_addr, op.client_port, op_id, "fail")
        for peer in sorted(missing):
            yield from node.meta.strike(peer)
        if span is not None:
            span.end(status="aborted", missing=sorted(missing))
        return
    stamp = PutStamp(node.ip_str, node.sim.now, op.client_addr, op.client_ts)
    node.mc_sender.send_ctrl(group_addr, PUT_PORT,
                             {"type": "commit", "op_id": op_id, "stamp": stamp}, COMMIT_BYTES)
    if tr is not None:
        tr.instant("commit_mcast", "2pc", node=node.name, op=op_id)
    if not node.host.up:
        if span is not None:
            span.end(status="crashed")
        return
    self.apply_commit(op_id, stamp)
    ok2 = yield from _ref_await(self, coord.done[2])
    self._coord.pop(op_id, None)
    if not ok2:
        missing = coord.need - coord.acks[2]
        for peer in sorted(missing):
            yield from node.meta.strike(peer)
        node.reply_put(op.client_addr, op.client_port, op_id, "fail")
        if span is not None:
            span.end(status="fail", missing=sorted(missing))
        return
    node.puts_served.add()
    node.reply_put(op.client_addr, op.client_port, op_id, "ok")
    if span is not None:
        span.end(status="ok")


def _ref_await(self, ev):
    sim = self.node.sim
    got = yield AnyOf(sim, [ev, sim.timeout(self.node.config.peer_timeout_s)])
    return ev in got


def _ref_on_put_msg(self, msg):
    body = msg.payload or {}
    kind = body.get("type")
    if kind == "put":
        self.sim.process(_ref_prepare(self.puts, msg, body))
    elif kind == "put_anyk":
        self.sim.process(_ref_store_anyk(self.puts, body))
    elif kind == "commit":
        self.sim.process(_ref_on_commit(self.puts, body))
    elif kind == "abort":
        self.puts.apply_abort(tuple(body["op_id"]))


# -- the reference processes: the NOOB node ------------------------------------------
def _ref_noob_on_msg(self, msg):
    body = msg.payload or {}
    kind = body.get("type")
    handler = {
        "put": lambda: _ref_handle_put(self, body),
        "get": lambda: _ref_handle_get(self, body),
        "replicate": lambda: _ref_handle_replicate(self, msg, body),
        "prepare": lambda: _ref_handle_prepare(self, msg, body),
        "commit2pc": lambda: _ref_handle_commit2pc(self, msg, body),
        "chain_put": lambda: _ref_handle_chain_put(self, body),
        "read_version": lambda: _ref_handle_read_version(self, msg, body),
        "membership_update": lambda: _ref_ack(self, msg),
    }.get(kind)
    if kind == "membership_update":
        self.membership_updates.add()
    if handler is not None:
        self.sim.process(handler())


# The replica-side handlers end with their reply: nothing waits for its
# delivery, which completes without a record.
def _ref_ack(self, msg):
    msg.conn.send({"type": "membership_ack"}, ACK_BYTES)
    return
    yield  # a generator, spawned where the chain's URGENT call runs


def _ref_rpc(self, peer, body, size, timeout_factor):
    token = self.new_token()
    conn = yield self.sim.wait(self._send, self.directory[peer], dict(body, token=token), size)
    return (yield from self.await_reply(
        conn, lambda m: (m.payload or {}).get("token") == token,
        self.config.peer_timeout_s * timeout_factor,
    ))


def _ref_handle_read_version(self, msg, body):
    yield from ref_cpu_work(self)
    obj = self.store.get(body["key"])
    if obj is not None:
        yield self.sim.wait(self.disk.read, obj.size_bytes)
    msg.conn.send(
        {"type": "read_version_reply", "token": body["token"],
         "stamp": obj.stamp if obj else None, "value": obj.value if obj else None,
         "size": obj.size_bytes if obj else 0},
        (obj.size_bytes if obj else 0) + ACK_BYTES,
    )


def _ref_handle_put(self, body):
    yield from ref_cpu_work(self)
    key = body["key"]
    replicas = self.partition_map.replicas_of_key(key)
    tr = self.sim.tracer
    if replicas[0] != self.name:
        self.forwards.add()
        if tr is not None:
            tr.instant("put_forward", "op", node=self.name, op=tuple(body["op_id"]),
                       to=replicas[0])
        yield self.sim.wait(self._send, self.directory[replicas[0]], dict(body), body["size"])
        return
    secondaries = replicas[1:]
    mode = self.config.consistency
    span = None
    if tr is not None:
        span = tr.begin(f"put.{mode}", "op", node=self.name, op=tuple(body["op_id"]), key=key)
    if mode == "primary":
        yield from _ref_put_primary_only(self, body, secondaries)
    elif mode == "2pc":
        yield from _ref_put_2pc(self, body, secondaries)
    elif mode == "quorum":
        yield from _ref_put_quorum(self, body, secondaries)
    elif mode == "chain":
        yield from _ref_put_chain(self, body, replicas)
    if span is not None:
        span.end()


def _ref_commit_local(self, body, stamp):
    yield self.sim.wait(self.disk.write, body["size"], forced=True)
    self.store.put(StoredObject(body["key"], body["value"], body["size"], stamp))


def _ref_replication_request(self, peer, body, stamp, msg_type):
    yield from ref_cpu_work(self)
    copy_ = self._copy(body, stamp, msg_type)
    return (yield from _ref_rpc(self, peer, copy_, body["size"], timeout_factor=4))


def _ref_put_primary_only(self, body, secondaries):
    stamp = self._stamp(body)
    transfers = [self.sim.process(_ref_replication_request(self, s, body, stamp, "replicate"))
                 for s in secondaries]
    yield from _ref_commit_local(self, body, stamp)
    if transfers:
        yield AllOf(self.sim, transfers)
    self.puts_served.add()
    self._reply_put(body, "ok")


def _ref_noob_prepare(self, body, role):
    op = PreparedOp(tuple(body["op_id"]), body["key"], body["size"], body["client_ip"],
                    body["client_ts"], value=body["value"], role=role)
    self.participant.admit(op)
    yield from _ref_participant_prepare(self.participant, op)


def _ref_put_2pc(self, body, secondaries):
    op_id = tuple(body["op_id"])
    yield from _ref_noob_prepare(self, body, "primary")
    stamp = self._stamp(body)
    prepares = [self.sim.process(_ref_replication_request(self, s, body, stamp, "prepare"))
                for s in secondaries]
    if prepares:
        replies = yield AllOf(self.sim, prepares)
        if any(v is None for v in replies.values()):
            self.participant.abort(op_id)
            self._reply_put(body, "fail")
            return
    commit = {"type": "commit2pc", "op_id": op_id, "key": body["key"], "stamp": stamp}
    commits = [self.sim.process(_ref_rpc(self, s, commit, COMMIT_BYTES, timeout_factor=4))
               for s in secondaries]
    self.participant.commit(op_id, stamp)
    if commits:
        yield AllOf(self.sim, commits)
    self.puts_served.add()
    self._reply_put(body, "ok")


def _ref_put_quorum(self, body, secondaries):
    stamp = self._stamp(body)
    k = self.config.quorum_k
    transfers = [self.sim.process(_ref_replication_request(self, s, body, stamp, "replicate"))
                 for s in secondaries]
    yield from _ref_commit_local(self, body, stamp)
    needed = k - 1
    if needed > 0:
        done = Event(self.sim)
        state = {"acks": 0}

        def on_done(ev):
            if ev.ok and ev.value is not None:
                state["acks"] += 1
                if state["acks"] >= needed and not done.triggered:
                    done.succeed()

        for t in transfers:
            t.add_callback(on_done)
        if len(transfers) >= needed:
            yield done
    self.puts_served.add()
    self._reply_put(body, "ok")


def _ref_put_chain(self, body, replicas):
    stamp = self._stamp(body)
    yield from _ref_commit_local(self, body, stamp)
    yield self.sim.wait(_ref_chain_forward, self, body, replicas, 0, stamp)


def _ref_chain_forward(self, body, replicas, position, stamp, then=None):
    """Forward down the chain, then ``then(conn)``; or, at the tail, ack
    and ``then()`` at once."""
    if position + 1 < len(replicas):
        nxt = replicas[position + 1]
        copy_ = self._copy(body, stamp, "chain_put", client_port=body["client_port"],
                           position=position + 1)
        self._send(self.directory[nxt], copy_, body["size"], then)
        return
    self.puts_served.add()
    self._reply_put(body, "ok")
    if then is not None:
        then()


def _ref_handle_replicate(self, msg, body):
    yield from ref_cpu_work(self)
    yield from _ref_commit_local(self, body, body["stamp"])
    msg.conn.send({"type": "replicate_ack", "token": body["token"]}, ACK_BYTES)


def _ref_handle_prepare(self, msg, body):
    yield from ref_cpu_work(self)
    tr = self.sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("2pc.prepare", "2pc", node=self.name, op=tuple(body["op_id"]),
                        key=body["key"])
    yield from _ref_noob_prepare(self, body, "secondary")
    if span is not None:
        span.end(status="prepared")
    msg.conn.send({"type": "prepare_ack", "token": body["token"]}, ACK_BYTES)


def _ref_handle_commit2pc(self, msg, body):
    op_id = tuple(body["op_id"])
    op = self.participant.commit(op_id, body["stamp"])
    if op is None:
        self.wal.remove(op_id)
    tr = self.sim.tracer
    if tr is not None:
        tr.instant("commit", "2pc", node=self.name, op=op_id, applied=op is not None)
    msg.conn.send({"type": "commit_ack", "token": body["token"]}, ACK_BYTES)
    return
    yield  # a generator, spawned where the chain's URGENT call runs


def _ref_handle_chain_put(self, body):
    yield from ref_cpu_work(self)
    yield from _ref_commit_local(self, body, body["stamp"])
    replicas = self.partition_map.replicas_of_key(body["key"])
    _ref_chain_forward(self, body, replicas, body["position"], body["stamp"])


def _ref_handle_get(self, body):
    tr = self.sim.tracer
    span = None
    if tr is not None:
        span = tr.begin("get.serve", "op", node=self.name, op=tuple(body["op_id"]),
                        key=body["key"])
    yield from ref_cpu_work(self)
    key = body["key"]
    replicas = self.partition_map.replicas_of_key(key)
    can_serve = (
        self.name in replicas
        if self.config.consistency in ("2pc", "chain", "quorum")
        or self.config.get_lb == "round_robin"
        else self.name == replicas[0]
    )
    if not can_serve:
        self.forwards.add()
        yield self.sim.wait(self._send, self.directory[replicas[0]], dict(body), REQUEST_BYTES)
        if span is not None:
            span.end(status="forwarded")
        return
    obj = self.store.get(key)
    if self.config.consistency == "quorum":
        read_set = self.config.replication_level - self.config.quorum_k + 1
        peers = [r for r in replicas if r != self.name][: read_set - 1]
        votes = []
        for peer in peers:
            reply = yield from _ref_rpc(self, peer, {"type": "read_version", "key": key},
                                        REQUEST_BYTES, timeout_factor=2)
            if reply is not None and reply.get("stamp") is not None:
                votes.append((reply["stamp"], reply["value"], reply["size"]))
        if obj is not None:
            votes.append((obj.stamp, obj.value, obj.size_bytes))
        if votes:
            votes.sort(key=lambda v: v[0])
            stamp, value, size = votes[-1]
            obj = StoredObject(key, value, size, stamp)
        else:
            obj = None
    (yield from ref_reply_get(self, body, obj))()  # nobody waits for the reply
    if span is not None:
        span.end(status="ok" if obj is not None else "miss")


def _both(scenario, monkeypatch):
    """``scenario()`` on the chains, then on the reference processes and
    the Event forms of their waits (``tests.helpers.install_event_forms``)."""
    chain = scenario()
    install_event_forms(monkeypatch)
    monkeypatch.setattr(NiceStorageNode, "_on_put_msg", _ref_on_put_msg)
    monkeypatch.setattr(NoobStorageNode, "_on_msg", _ref_noob_on_msg)
    monkeypatch.setattr(PutEngine, "record_ack", ref_record_ack)
    return chain, scenario()


# -- observation ---------------------------------------------------------------------
def _counters(obj):
    return sorted((name, c.value) for name, c in vars(obj).items() if isinstance(c, Counter))


def _participant(node):
    part = node.puts.participant if hasattr(node, "puts") else node.participant
    return (sorted(part.pending), sorted(part._preparing), sorted(part.committed),
            sorted(part._aborted), len(node.wal), len(node.locks))


def _stored(node):
    return sorted((key, obj.value, obj.stamp) for key in node.store.names()
                  for obj in [node.store.get(key)] if obj is not None)


def _seen(cluster, tracer, slots):
    """Everything two equal runs must agree on, after the run."""
    sim = cluster.sim
    clients = [(_counters(c), c.put_latency.count, c.get_latency.count)
               for c in cluster.clients]
    nodes = [(name, _counters(n), _counters(n.disk), _participant(n), _stored(n))
             for name, n in sorted(cluster.nodes.items())]
    trace = None if tracer is None else [
        (ev.ts, ev.ph, ev.name, ev.cat, ev.node, ev.op, ev.args)
        for ev in tracer.events if ev.cat != "proc"
    ]
    return clients, nodes, trace, sim._eid, sim.now, sim.pending_events, slots


def _run(build, mode, ops, setup=None, until=3.0):
    """Build a warm cluster, attach what ``mode`` asks for, run ``setup``
    and then ``ops`` — ``(client index, start, call)`` — logging each op's
    outcome with its end time and the live records then (a timer left
    armed shows there)."""
    cluster = build()
    sim = cluster.sim
    tracer = install_tracer(sim, label="put-chains") if mode == "tracer" else None
    slots = record_slots(sim)
    if setup is not None:
        setup(cluster)
    log = []

    def driver(i, idx, start, call):
        yield sim.timeout(start)
        r = yield call(cluster.clients[idx])
        log.append((i, sim.now, r.ok, r.latency, r.retries, r.value, r.status,
                    sim.pending_events))

    for i, (idx, start, call) in enumerate(ops):
        sim.process(driver(i, idx, start, call))
    sim.run(until=sim.now + until)
    return sorted(log), _seen(cluster, tracer, slots)


def _put(key, value="v", size=1000, **kw):
    return lambda c: c.put(key, value, size, **kw)


def _get(key, **kw):
    return lambda c: c.get(key, **kw)


def _status(entry):
    return entry[6] or ("ok" if entry[2] else "error")


# -- NICE ----------------------------------------------------------------------------
def _nice(**kw):
    # A silent replica is never declared failed (huge miss limit), so the
    # replica set stays degraded and its puts keep timing out on it.
    cfg = dict(n_storage_nodes=6, n_clients=2, replication_level=3,
               heartbeat_miss_limit=10_000)
    cfg.update(kw)
    cluster = NiceCluster(ClusterConfig(**cfg))
    cluster.warm_up()
    return cluster


def _replicas(cluster, key):
    """(partition, primary, secondaries, a non-member) of ``key``."""
    part = cluster.partition_of_key(key)
    rs = cluster.partition_map.get(part)
    secondaries = [m for m in rs.members if m != rs.primary]
    outsider = next(n for n in sorted(cluster.nodes) if n not in rs.members)
    return part, rs.primary, secondaries, outsider


def _view(cluster, node, part, **changes):
    """Give ``node`` its own altered view of the partition's replica set."""
    rs = copy.deepcopy(cluster.partition_map.get(part))
    for field, value in changes.items():
        setattr(rs, field, value)
    cluster.nodes[node].replica_sets[part] = rs


def _crash_secondary(cluster, key="hot"):
    cluster.nodes[_replicas(cluster, key)[2][0]].crash()


def _dark_after_ack1(cluster, key="hot"):
    """The first secondary goes dark once its ack1 reached the primary: the
    commit never reaches it, and ack2 never comes."""
    _, primary, (victim, _), _ = _replicas(cluster, key)
    engine = cluster.nodes[primary].puts
    record = engine.record_ack

    def record_then_crash(op_id, peer, phase):
        record(op_id, peer, phase)
        if peer == victim and phase == 1 and cluster.nodes[victim].host.up:
            cluster.nodes[victim].crash()

    engine.record_ack = record_then_crash


def _slow_joiner(cluster, key="hot"):
    """The primary counts a secondary as joining (its ack is not awaited)
    whose disk is slow: the commit overtakes that secondary's prepare."""
    part, primary, (joiner, _), _ = _replicas(cluster, key)
    _view(cluster, primary, part, joining={joiner})
    cluster.nodes[joiner].disk.base_latency_s = 5e-3


def _joining(cluster, key="hot"):
    part, primary, (joiner, _), _ = _replicas(cluster, key)
    _view(cluster, primary, part, joining={joiner})


def _abort_queued(cluster, key="hot", at=3e-4):
    """Abort, on one secondary, the put queued behind the lock holder."""
    node = cluster.nodes[_replicas(cluster, key)[2][0]]
    part = node.puts.participant

    def abort():
        for op_id in sorted(part._preparing):
            if node.locks.holder(key) != op_id:
                node.puts.apply_abort(op_id)

    cluster.sim.call_in(at, abort)


def _crash_mid_prepare(cluster, key="hot"):
    cluster.sim.call_in(1.5e-4, cluster.nodes[_replicas(cluster, key)[2][0]].crash)


def _capture(node):
    """Log every message ``node``'s multicast mailbox hands its handler."""
    store = node.mc_endpoint.messages
    handler, seen = store._handler, []

    def logged(msg):
        seen.append(msg)
        handler(msg)

    store._handler = logged
    return seen


def _redeliver(cluster, to, seen, kinds, at):
    """Hand ``to`` the captured messages of ``kinds`` at ``at``."""
    def deliver():
        for msg in list(seen):
            if msg.payload.get("type") in kinds:
                to._on_put_msg(msg)

    cluster.sim.call_in(at, deliver)


def _duplicate(cluster, key="hot"):
    _, _, (secondary, _), _ = _replicas(cluster, key)
    node = cluster.nodes[secondary]
    seen = _capture(node)
    _redeliver(cluster, node, seen, {"put"}, at=5e-4)  # prepared, not committed
    _redeliver(cluster, node, seen, {"put"}, at=0.1)  # committed


def _handoff(cluster, key="hot"):
    """A non-member whose view names it the partition's handoff is handed
    the put and the commit the members saw (§4.4)."""
    part, primary, _, outsider = _replicas(cluster, key)
    _view(cluster, outsider, part, handoffs=[outsider])
    seen = _capture(cluster.nodes[primary])
    _redeliver(cluster, cluster.nodes[outsider], seen, {"put"}, at=5e-4)
    _redeliver(cluster, cluster.nodes[outsider], seen, {"commit"}, at=0.05)


#: case -> (cluster, ops, set-up, each op's status in op order).
NICE_CASES = {
    # Two clients, three keys, one of them written by both at once.
    "ok": (_nice, [(0, 0.0, _put("hot")), (1, 0.0, _put("hot", "w")), (0, 0.0, _put("k1")),
                   (1, 0.002, _put("k2", size=20_000)), (0, 0.003, _get("hot"))],
           None, ["ok"] * 5),
    # No secondaries: the second gather's acks are processed before it
    # starts, and its peer timer stays armed.
    "r1": (lambda: _nice(replication_level=1),
           [(0, 0.0, _put("hot")), (1, 0.0, _put("k1")), (0, 0.002, _put("hot", "w"))],
           None, ["ok"] * 3),
    # A silent secondary: phase 1 times out, the put aborts, the primary
    # strikes the peer — twice over two attempts, which reports it.
    "missing_ack1": (_nice, [(0, 0.0, _put("hot", max_retries=1))], _crash_secondary,
                     ["timeout"]),
    "missing_ack2": (_nice, [(0, 0.0, _put("hot", max_retries=1))], _dark_after_ack1,
                     ["timeout"]),
    "early_commit": (_nice, [(0, 0.0, _put("hot")), (1, 0.0, _put("k1"))], _slow_joiner,
                     ["ok", "ok"]),
    "joining": (_nice, [(0, 0.0, _put("hot")), (0, 0.003, _put("hot", "w"))], _joining,
                ["ok", "ok"]),
    # The queued put is aborted on one secondary before it gets the lock.
    "raced": (_nice, [(0, 0.0, _put("hot")), (1, 0.0, _put("hot", "w"))], _abort_queued,
              ["ok", "ok"]),
    "crashed": (_nice, [(0, 0.0, _put("hot", max_retries=1))], _crash_mid_prepare,
                ["timeout"]),
    "duplicate": (_nice, [(0, 0.0, _put("hot"))], _duplicate, ["ok"]),
    "handoff": (_nice, [(0, 0.0, _put("hot"))], _handoff, ["ok"]),
    "store_anyk": (_nice, [(0, 0.0, lambda c: c.put_anyk("hot", "v", 4000, quorum=3)),
                           (1, 0.0, lambda c: c.put_anyk("k1", "w", 100, quorum=1))],
                   None, ["ok", "ok"]),
}


@pytest.mark.parametrize("mode", ("bare", "tracer"))
@pytest.mark.parametrize("case", sorted(NICE_CASES))
def test_nice_put_chain_equals_process(case, mode, monkeypatch):
    build, ops, setup, statuses = NICE_CASES[case]
    until = 6.0 if case.startswith(("missing", "crashed", "raced")) else 1.0
    chain, ref = _both(lambda: _run(build, mode, ops, setup, until), monkeypatch)
    assert chain == ref
    log, (_, nodes, trace, *_rest) = chain
    assert [_status(entry) for entry in log] == statuses
    counters = {name: dict(c) for name, c, *_ in nodes}
    aborts = sum(c["aborts"] for c in counters.values())
    assert aborts == ABORTS.get(case, 0), aborts
    if mode == "tracer":
        ends = {ev[6].get("status") for ev in trace
                if ev[1] == "E" and ev[2] in ("2pc.prepare", "2pc.coordinate")}
        assert ends >= EXPECTED_SPAN_ENDS[case], ends
        roles = {ev[6].get("role") for ev in trace if ev[1] == "B" and ev[2] == "2pc.prepare"}
        assert ("handoff" in roles) == (case == "handoff"), roles


#: Puts the primaries aborted in phase 1, per case.
ABORTS = {"missing_ack1": 2, "missing_ack2": 1, "crashed": 2, "raced": 1}

#: How at least some 2PC spans end in each case (traced runs).
EXPECTED_SPAN_ENDS = {
    "ok": {"prepared", "ok"},
    "r1": {"prepared", "ok"},
    "missing_ack1": {"prepared", "aborted"},
    "missing_ack2": {"prepared", "fail"},
    "early_commit": {"prepared", "early_commit", "ok"},
    "joining": {"prepared", "ok"},
    "raced": {"prepared", "raced", "aborted", "ok"},
    "crashed": {"prepared", "crashed", "aborted"},
    "duplicate": {"prepared", "ok"},
    "handoff": {"prepared", "ok"},
    "store_anyk": set(),
}


# -- NOOB ----------------------------------------------------------------------------
def _noob(**kw):
    cfg = dict(n_storage_nodes=6, n_clients=2, replication_level=3)
    cfg.update(kw)
    cluster = NoobCluster(NoobConfig(**cfg))
    cluster.warm_up()
    return cluster


def _dark_on(cluster, kind, which=1, key="hot"):
    """Replica ``which`` of ``key`` crashes the moment a ``kind`` request
    reaches it: the request's send completes, its reply never comes."""
    node = cluster.replica_nodes(key)[which]
    handler = node._inbox._handler

    def handle_then_crash(msg):
        handler(msg)
        if msg.payload.get("type") == kind and node.host.up:
            node.crash()

    node._inbox._handler = handle_then_crash


def _slow_disk(cluster, which, latency_s, key="hot"):
    cluster.replica_nodes(key)[which].disk.base_latency_s = latency_s


def _membership(cluster):
    cluster.sim.call_in(5e-4, cluster.broadcast_membership_change)


_MIX = [(0, 0.0, _put("hot")), (1, 0.0, _put("hot", "w")), (0, 0.0, _put("k1")),
        (1, 0.003, _get("hot")), (0, 0.003, _get("k1")), (1, 0.003, _get("absent"))]

#: case -> (cluster, ops, set-up, each op's status in op order).
NOOB_CASES = {
    "primary": (lambda: _noob(consistency="primary"), _MIX, None, ["ok"] * 5 + ["miss"]),
    "2pc": (lambda: _noob(consistency="2pc"), _MIX, None, ["ok"] * 5 + ["miss"]),
    "quorum": (lambda: _noob(consistency="quorum"), _MIX, None, ["ok"] * 5 + ["miss"]),
    "chain": (lambda: _noob(consistency="chain"), _MIX, None, ["ok"] * 5 + ["miss"]),
    # A secondary never answers the prepare: the put aborts (after the
    # client gave up on it).
    "2pc_failed_prepare": (lambda: _noob(consistency="2pc"),
                           [(0, 0.0, _put("hot", max_retries=0))],
                           lambda c: _dark_on(c, "prepare"), ["timeout"]),
    # The one peer of the read set is silent: its vote times out.
    "quorum_silent_peer": (lambda: _noob(consistency="quorum"),
                           [(0, 0.0, _put("hot")), (1, 0.003, _get("hot"))],
                           lambda c: _dark_on(c, "read_version"), ["ok", "ok"]),
    # The vote arrives after its timeout: the withdrawn get leaves it queued.
    "quorum_late_vote": (lambda: _noob(consistency="quorum"),
                         [(0, 0.0, _put("hot")), (1, 0.003, _get("hot"))],
                         lambda c: c.sim.call_in(0.002, _slow_disk, c, 1, 1.5), ["ok", "ok"]),
    # The copies are acked before the primary's own write lands.
    "quorum_slow_primary": (lambda: _noob(consistency="quorum"), [(0, 0.0, _put("hot"))],
                            lambda c: _slow_disk(c, 0, 5e-3), ["ok"]),
    # A replica-oblivious gateway: puts and gets land anywhere and are forwarded.
    "rog_forward": (lambda: _noob(access="rog"), _MIX, None, ["ok"] * 5 + ["miss"]),
    "membership_ack": (lambda: _noob(consistency="2pc"), [(0, 0.0, _put("hot"))],
                       _membership, ["ok"]),
}


@pytest.mark.parametrize("mode", ("bare", "tracer"))
@pytest.mark.parametrize("case", sorted(NOOB_CASES))
def test_noob_handler_chain_equals_process(case, mode, monkeypatch):
    build, ops, setup, statuses = NOOB_CASES[case]
    chain, ref = _both(lambda: _run(build, mode, ops, setup, until=3.0), monkeypatch)
    assert chain == ref
    log, (_, nodes, trace, *_rest) = chain
    assert [_status(entry) for entry in log] == statuses
    counters = {name: dict(c) for name, c, *_ in nodes}
    aborted = [name for name, _c, _d, participant, _s in nodes if participant[3]]
    assert bool(aborted) == (case == "2pc_failed_prepare"), aborted
    if case == "rog_forward":
        assert sum(c["forwards"] for c in counters.values()) > 0
    if case == "membership_ack":
        assert all(c["membership_updates"] == 1 for c in counters.values())


# -- no process on the put path ------------------------------------------------------
@pytest.mark.parametrize("build", [_nice, lambda: _noob(consistency="2pc")],
                         ids=["nice", "noob_2pc"])
def test_warm_puts_spawn_no_process(build):
    cluster = build()
    sim = cluster.sim
    client = cluster.clients[0]
    results = []

    def driver():
        yield client.put("seed", "v", 1000)  # connections are up
        spawned = sim._spawned
        for i in range(12):
            results.append((yield client.put(f"k{i % 4}", i, 1000)))
        results.append(sim._spawned - spawned)

    sim.process(driver())
    sim.run(until=sim.now + 5.0)
    assert len(results) == 13 and all(r.ok for r in results[:-1])
    assert results[-1] == 0, f"{results[-1]} processes spawned by 12 puts"

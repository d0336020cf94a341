"""Shared test fixtures: a star topology with static L3 forwarding, a
recorder of the devices each packet crossed, a log of the slots a simulator
schedules records in (and of what each record runs), the Event forms of
every one-shot wait the chains now schedule as a call
(``install_event_forms``), the generator forms of a node's CPU step and
get reply, a get service's reply that always waits for its delivery, and
the Event form of the NICE primary's ack gathers that the request and put
chains are checked against, the process forms of a membership push and a
lock-query reply that the background sends are checked against, the linear
rule scan the flow table's index is checked against, and the content
snapshots the controller's plan-cache contract is stated in."""

from collections import Counter, deque
from functools import partial

from repro.net import (
    Bucket,
    Group,
    Host,
    IPv4Address,
    MacAddress,
    Match,
    Network,
    OpenFlowSwitch,
    Output,
    Packet,
    Rule,
    SetEthDst,
    SetIpDst,
)
import repro.core.node_shell as node_shell_module
import repro.kv.disk as disk_module
from repro.core.config import ACK_BYTES, MEMBERSHIP_BYTES, NODE_PORT, REQUEST_BYTES
from repro.core.metadata import DOWN
from repro.kv import Disk, LockTable
from repro.sim import NORMAL, URGENT, Event, Resource, Simulator, Store
from repro.transport import MulticastSender, ProtocolStack, TcpConnection, TcpLayer


class Star:
    """N hosts on one switch, exact-match L3 rules pre-installed."""

    def __init__(self, n_hosts=4, bandwidth_bps=1e9, latency_s=50e-6, sim=None):
        self.sim = sim or Simulator()
        self.net = Network(self.sim)
        self.switch = OpenFlowSwitch(self.sim, "sw")
        self.net.register(self.switch)
        self.hosts = []
        self.stacks = []
        for i in range(n_hosts):
            host = Host(
                self.sim,
                f"h{i}",
                IPv4Address(f"10.0.0.{i + 1}"),
                MacAddress(0x020000000001 + i),
            )
            self.net.register(host)
            self.net.connect(self.switch, host, bandwidth_bps, latency_s)
            self.hosts.append(host)
            self.stacks.append(ProtocolStack(self.sim, host))
        for host in self.hosts:
            self.switch.install_rule(
                Rule(Match(ip_dst=host.ip), [Output(self.port_of(host))], priority=10)
            )

    def port_of(self, host):
        link = self.net.link_between(self.switch, host)
        return (link.a if link.a.device is self.switch else link.b).number

    def add_multicast_group(self, group_id, vprefix, receivers):
        """Map a virtual prefix to a switch multicast group over receivers."""
        buckets = [
            Bucket(actions=(SetIpDst(h.ip), SetEthDst(h.mac)), port=self.port_of(h))
            for h in receivers
        ]
        self.switch.install_group(Group(group_id, buckets))
        from repro.net import OutputGroup

        self.switch.install_rule(
            Rule(Match(ip_dst=vprefix), [OutputGroup(group_id)], priority=50)
        )

    def link_of(self, host):
        return self.net.link_between(self.switch, host)

    def downlink_of(self, host):
        """The channel from the switch to ``host``."""
        link = self.link_of(host)
        return (link.a if link.a.device is self.switch else link.b).channel


class HopRecorder:
    """The devices each packet crossed, kept beside the packets, not in them.

    A host's ``send`` and every ``receive`` (the ingress a link
    schedules; a switch runs it again for a packet its controller
    releases) of a host or switch append the device's name to that
    packet's path; a ``Packet.copy`` (a switch output, a fan-out clone)
    starts from its original's path.  Installed through ``monkeypatch``, so the test undoes
    it; the recorder holds every packet it saw, so ids are never reused.
    """

    def __init__(self, monkeypatch):
        self._paths = {}  # id(packet) -> (packet, [device names])
        for cls, name in ((Host, "send"), (Host, "receive"),
                          (OpenFlowSwitch, "receive")):
            monkeypatch.setattr(cls, name, self._hop(getattr(cls, name)))
        copy = Packet.copy

        def tracked_copy(packet):
            new = copy(packet)
            self._path(new).extend(self._path(packet))
            return new

        monkeypatch.setattr(Packet, "copy", tracked_copy)

    def _hop(self, method):
        def wrapped(device, packet, *args):
            self._path(packet).append(device.name)
            return method(device, packet, *args)

        return wrapped

    def _path(self, packet):
        entry = self._paths.get(id(packet))
        if entry is None:
            entry = self._paths[id(packet)] = (packet, [])
        return entry[1]

    def path(self, packet):
        """Device names ``packet`` (and what it was copied from) crossed."""
        return list(self._path(packet))


def record_slots(sim):
    """Log ``(now, delay, priority)`` of every record ``sim`` schedules
    from here on, in order (``now`` is a call's ``after`` when it has one:
    the time its delay counts from): two runs that schedule the same
    records in the same slots — event or call, whatever the target — log
    the same list."""
    slots = []
    schedule_call, schedule_event = sim._schedule_call, sim._schedule_event

    def call(delay, func, *args, priority=NORMAL, after=None):
        slots.append((sim.now if after is None else after, delay, priority))
        schedule_call(delay, func, *args, priority=priority, after=after)

    def event(ev, priority, delay=0.0):
        slots.append((sim.now, delay, priority))
        schedule_event(ev, priority, delay)

    sim._schedule_call, sim._schedule_event = call, event
    return slots


def record_targets(sim):
    """``record_slots`` with what each record runs: log ``(now, delay,
    priority, target)`` of every record ``sim`` schedules from here on,
    ``target`` the qualified name of the call's function or the event's
    class."""
    log = []
    schedule_call, schedule_event = sim._schedule_call, sim._schedule_event

    def call(delay, func, *args, priority=NORMAL, after=None):
        name = getattr(func, "__qualname__", None) or type(func).__name__
        log.append((sim.now if after is None else after, delay, priority, name))
        schedule_call(delay, func, *args, priority=priority, after=after)

    def event(ev, priority, delay=0.0):
        log.append((sim.now, delay, priority, type(ev).__name__))
        schedule_event(ev, priority, delay)

    sim._schedule_call, sim._schedule_event = call, event
    return log


# -- the Event forms of the one-shot waits -------------------------------------------
# Each wait a chain now schedules as a call record — a resource or lock
# grant, a store getter, a TCP connect, delivery and send, a disk transfer
# with its group-commit flush, a multicast send — as the Event (or
# process) it replaced, whose record takes the same slot.
# ``install_event_forms`` swaps them in for a reference run.
class RefResource(Resource):
    """``Resource`` with its old Event requests: ``request()`` returns an
    Event that triggers when the slot is granted, ``release(req)`` frees
    it (or withdraws it while queued).  ``request_then`` is the old chain
    step, a callback on that Event."""

    def __init__(self, sim, capacity=1, name="resource"):
        super().__init__(sim, capacity, name)
        self._users = []

    def request(self):
        req = Event(self.sim)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def request_then(self, then):
        self.request()._callbacks = [lambda _req: then()]

    def release(self, req=None):
        if req is None:
            req = self._users[0]
        try:
            self._users.remove(req)
        except ValueError:
            try:
                self._queue.remove(req)
            except ValueError:
                pass
            return
        while self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.append(nxt)
            nxt.succeed()


class RefLockTable(LockTable):
    """``LockTable`` with its old lock-grant Event (``request``)."""

    def request(self, sim, key, op_id):
        ev = Event(sim)
        if self.acquire(key, op_id):
            ev.succeed()
        else:
            self._queues.setdefault(key, deque()).append((op_id, ev))
        return ev

    def request_then(self, sim, key, op_id, then):
        self.request(sim, key, op_id)._callbacks = [lambda _grant: then()]

    def _grant_next(self, key):
        queue = self._queues.get(key)
        while queue:
            next_op, ev = queue.popleft()
            if ev.triggered:
                continue
            self._owners[key] = next_op
            ev.succeed()
            break
        if queue is not None and not queue:
            del self._queues[key]


def ref_get_then(store, then, filter=None):
    """``Store.get_then`` as a ``get()`` Event with one callback."""
    ev = store.get(filter)
    ev._callbacks = [lambda got: then(got._value)]
    return ev


def ref_connect(layer, dst_ip, dport):
    """``TcpLayer.connect`` as the Event it returned (with
    ``ref_on_synack`` completing the shared handshake)."""
    dst_ip = IPv4Address(dst_ip)
    done = Event(layer.stack.sim)
    conn = layer._client_conns.get((dst_ip, dport))
    if conn is None:
        layer.handshakes += 1
        local_port = layer.stack.ephemeral_port()
        conn = TcpConnection(layer, local_port, dst_ip, dport)
        conn._waiters = [done]
        layer._client_conns[(dst_ip, dport)] = conn
        layer._conns[(dst_ip, dport, local_port)] = conn
        layer._send_syn(conn)
        ref_syn_retry(layer, conn)
    elif conn.established:
        done.succeed(conn)
    else:
        conn._waiters.append(done)
    return done


def ref_syn_retry(layer, conn):
    """Arm the SYN retransmit timer in an URGENT record, as ``connect`` does."""
    layer.stack.sim._schedule_call(0.0, layer._arm_syn, conn, priority=URGENT)


def ref_on_synack(layer, packet):
    conn = layer._conns.get((packet.src_ip, packet.sport, packet.dport))
    if conn is None:
        return
    conn.established = True
    layer._send_ctrl(conn, "ack")
    for waiter in layer._end_handshake(conn):
        if not waiter.triggered:
            waiter.succeed(conn)


def _then_on(ev, then, with_value=False):
    """The old chain step: ``then`` as the one callback of ``ev``."""
    ev._callbacks = [(lambda got: then(got._value)) if with_value else (lambda _got: then())]
    return ev


def ref_send_message(layer, dst_ip, dport, payload, payload_bytes, then=None):
    """``TcpLayer.send_message`` as the process it replaced.  A send
    nobody waits on by the time it is on the wire does not wait for its
    delivery either, which then completes on the spot (no record), as
    ``ref_send``'s does."""

    def run():
        conn = yield ref_connect(layer, dst_ip, dport)
        delivered = ref_send(conn, payload, payload_bytes)
        if proc._callbacks:
            yield delivered
        return conn

    proc = layer.stack.sim.process(run())
    return proc if then is None else _then_on(proc, then, with_value=True)


def ref_send(conn, payload, payload_bytes, then=None):
    """``TcpConnection.send`` as its delivery Event, processed on the spot
    (no record) when nobody waits for it by then."""
    done = Event(conn.layer.stack.sim)
    body = {"kind": "data", "msg": next(conn._msg_seq), "payload": payload,
            "_delivered": done._complete}
    conn.layer._send_segment(conn, body, payload_bytes)
    if then is None:
        return done
    _then_on(done, then)


class RefSend(Event):
    """``MulticastSender.send``'s chain as the Event it was: the same
    records, and on the ``k``-th ack it completes with the acks as its
    value — a record only if someone waits (``ref_mc_send``)."""

    def __init__(self, sender, group_ip, dport, payload, payload_bytes, k):
        super().__init__(sender.stack.sim)
        self.sender = sender
        self.group_ip = group_ip
        self.dport = dport
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.k = k
        self.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _start(self):
        stack = self.sender.stack
        self.op = op = (stack.ip, next(self.sender._op_seq))
        self.ack_port = ack_port = stack.ephemeral_port()
        self.inbox = stack.udp_bind(ack_port)
        stack.udp_send(IPv4Address(self.group_ip), self.dport,
                       ("mc_data", op, ack_port, self.payload), self.payload_bytes,
                       sport=ack_port)
        self.acks = []
        self.inbox.get_then(self._on_dgram)

    def _on_dgram(self, dgram):
        body = dgram.payload
        if type(body) is tuple and len(body) == 2 and body[0] == "mc_ack" and body[1] == self.op:
            self.acks.append((dgram.src_ip, self.sim.now))
        if len(self.acks) < self.k:
            self.inbox.get_then(self._on_dgram)
            return
        self.sender.stack.udp_unbind(self.ack_port)
        self._complete(self.acks)


def ref_mc_send(sender, group_ip, dport, payload, payload_bytes, n_receivers,
                quorum=None, then=None):
    """``MulticastSender.send`` as the :class:`RefSend` Event it returned,
    with ``then(acks)`` as its one callback."""
    done = RefSend(sender, group_ip, dport, payload, payload_bytes,
                   n_receivers if quorum is None else quorum)
    return done if then is None else _then_on(done, then, with_value=True)


def _ref_io(disk, nbytes, forced, write, seq, epoch):
    req = disk._device.request()
    yield req
    try:
        bw = disk.write_bandwidth_bps if write else disk.read_bandwidth_bps
        service = disk.base_latency_s + nbytes * 8.0 / bw
        yield disk.sim.timeout(service)
        if write:
            disk.bytes_written.add(nbytes)
            disk.writes.add()
        else:
            disk.bytes_read.add(nbytes)
            disk.reads.add()
        nom_w, nom_r, nom_base = disk._nominal
        expected = nom_base + nbytes * 8.0 / (nom_w if write else nom_r)
        if expected > 0.0:
            disk._ratio_sum += service / expected
            disk._ratio_n += 1
        if write and epoch == disk._epoch:
            disk._completed_seq = seq
            disk._dirty.append((seq, nbytes))
            disk.dirty_bytes += nbytes
    finally:
        disk._device.release(req)
    if forced:
        done = Event(disk.sim)
        disk._flush_waiters.append(done)
        if not disk._flusher_running:
            disk._flusher_running = True
            disk.sim.process(_ref_flusher(disk))
        yield done


def _ref_flusher(disk):
    while disk._flush_waiters:
        covered, disk._flush_waiters = disk._flush_waiters, []
        epoch, barrier = disk._epoch, disk._completed_seq
        disk.flush_cycles_started += 1
        yield disk.sim.timeout(disk.flush_latency_s)
        disk.flushes.add()
        if epoch == disk._epoch:
            disk._advance_barrier(barrier)
            disk.flush_cycles_done += 1
        for ev in covered:
            ev.succeed()
    disk._flusher_running = False


def ref_write(disk, nbytes, forced=False, then=None):
    """``Disk.write`` as the process it replaced (needs ``RefResource``)."""
    if nbytes < 0:
        raise ValueError(f"negative write size: {nbytes}")
    disk._issued_seq += 1
    proc = disk.sim.process(_ref_io(disk, nbytes, forced, True, disk._issued_seq, disk._epoch))
    return proc if then is None else _then_on(proc, then)


def ref_read(disk, nbytes, then=None):
    """``Disk.read`` as the process it replaced (needs ``RefResource``)."""
    proc = disk.sim.process(_ref_io(disk, nbytes, False, False, 0, disk._epoch))
    return proc if then is None else _then_on(proc, then)


def install_event_forms(monkeypatch):
    """Swap every one-shot wait the chains schedule as a call back to the
    Event or process it replaced, for the nodes, disks and stacks built
    from here on: a run under these forms schedules the old records."""
    monkeypatch.setattr(node_shell_module, "Resource", RefResource)
    monkeypatch.setattr(disk_module, "Resource", RefResource)
    monkeypatch.setattr(node_shell_module, "LockTable", RefLockTable)
    monkeypatch.setattr(Store, "get_then", ref_get_then)
    monkeypatch.setattr(
        TcpLayer, "connect",
        lambda layer, dst_ip, dport, then: _then_on(
            ref_connect(layer, dst_ip, dport), then, with_value=True))
    monkeypatch.setattr(TcpLayer, "_on_synack", ref_on_synack)
    monkeypatch.setattr(TcpLayer, "send_message", ref_send_message)
    monkeypatch.setattr(TcpConnection, "send", ref_send)
    monkeypatch.setattr(Disk, "write", ref_write)
    monkeypatch.setattr(Disk, "read", ref_read)
    monkeypatch.setattr(MulticastSender, "send", ref_mc_send)


def connected(stack, ip, port):
    """An Event that fires with the connection ``stack.tcp.connect`` hands
    over — for generator tests of the handshake."""
    ev = Event(stack.sim)
    stack.tcp.connect(ip, port, ev.succeed)
    return ev


def ref_cpu_work(node):
    """``NodeShell.cpu_work_then`` as the generator it replaced: one
    request's worth of CPU service time, serialized per node (needs
    ``RefResource``)."""
    cost = node.config.node_cpu_per_op_s
    if cost <= 0:
        return
    req = node.cpu.request()
    yield req
    try:
        yield node.sim.timeout(cost)
    finally:
        node.cpu.release(req)


def ref_serve_reply(serve, obj):
    """``_Serve._reply`` as it was: the chain waits for its reply's
    delivery, to end its span, whether or not a tracer is installed."""
    serve.status = "ok" if obj is not None else "miss"
    serve.reads.node.reply_get_then(serve.body, obj, sent=serve._end)


def ref_reply_get(node, request, obj):
    """``NodeShell.reply_get_then`` as the generator it replaced: the disk
    read on a hit, then the reply; returns the reply's send,
    ``send(then=None)``, to call or to ``yield sim.wait(send)`` on."""
    node.gets_served.add()
    reply = {"type": "get_reply", "op_id": tuple(request["op_id"])}
    if obj is not None:
        yield node.sim.wait(node.disk.read, obj.size_bytes)
        reply.update(status="ok", value=obj.value, size=obj.size_bytes)
        size = REQUEST_BYTES + obj.size_bytes
    else:
        reply["status"] = "miss"
        size = ACK_BYTES
    return partial(node.stack.tcp.send_message,
                   IPv4Address(request["client_ip"]), request["client_port"], reply, size)


# -- the process forms of two background sends nobody waits on ----------------------
def ref_inform_replicas(service, rs, extra=None):
    """``MetadataService._inform_replicas`` as it was: one process per
    target, which sends the slice and waits for its delivery."""
    targets = set(rs.put_targets()) | set(rs.get_targets()) | set(extra or [])
    wire = rs.to_wire()
    for name in sorted(targets):
        ip = service.node_ip(name)
        if ip is None or service.status.get(name) == DOWN:
            continue
        service.membership_messages.add()
        service.sim.process(_ref_send_membership(service, ip, wire))


def _ref_send_membership(service, ip, wire):
    yield service.sim.wait(
        service.stack.tcp.send_message, ip, NODE_PORT,
        {"type": "membership", "epoch": service.epoch, "replica_set": wire},
        MEMBERSHIP_BYTES,
    )


def ref_serve_query_locks(recovery, msg, body):
    """``Recovery.serve_query_locks`` as the process it was: the reply,
    waited for until it is delivered."""
    participant = recovery.node.puts.participant
    yield recovery.node.sim.wait(msg.conn.send, {
        "type": "query_locks_reply",
        "token": body["token"],
        "locked": list(participant.locked_ops(body["partition"])),
        "committed": dict(participant.committed),
    }, MEMBERSHIP_BYTES)


# -- the Event form of the NICE primary's ack gathers --------------------------------
class RefCoordination:
    """What ``PutEngine`` kept per coordinated op before its gathers were
    folds: per phase (1 = prepared, 2 = committed), who acked and the
    event that fires when all needed have (``ref_record_ack``)."""

    def __init__(self, sim, need):
        self.need = need
        self.acks = {1: set(), 2: set()}
        self.done = {1: Event(sim), 2: Event(sim)}


def ref_record_ack(engine, op_id, peer, phase):
    """``PutEngine.record_ack`` over a :class:`RefCoordination`."""
    coord = engine._coord.get(op_id)
    if coord is None:
        if op_id not in engine.participant.committed:
            engine._early_acks.setdefault(op_id, {}).setdefault(phase, set()).add(peer)
        return
    coord.acks[phase].add(peer)
    engine.node.meta.clear_strikes(peer)
    if coord.need <= coord.acks[phase] and not coord.done[phase].triggered:
        coord.done[phase].succeed()


def linear_scan(table, packet, in_port=None):
    """What ``FlowTable.lookup`` must return: the first match walking the
    rule list in table order — the scan the destination index replaced,
    kept as the reference for the property and determinism tests."""
    for rule in table.iter_rules():
        if rule.match.matches(packet, in_port):
            return rule
    return None


def _by_content(rules_by_cookie, groups):
    """Comparable form of one switch's state (``Rule`` equality includes
    ``seq`` and hit counters; ``Rule.content`` is what the rule *is*)."""
    return (
        {cookie: Counter(r.content for r in rules) for cookie, rules in rules_by_cookie.items()},
        {gid: tuple(g.buckets) for gid, g in groups.items()},
    )


def desired_snapshot(controller):
    """Every switch's desired state as the controller serves it — plans
    from its cache where their version key still holds."""
    return {
        switch.name: _by_content(*controller.desired_state(switch))
        for switch in controller.channel.switches
    }


def planner_snapshot(controller):
    """The same state computed by the pure planner in *this call*, no cache
    involved — what ``desired_snapshot`` must always equal (DESIGN.md §5i)."""
    planner, snap = controller.planner, {}
    for switch in controller.channel.switches:
        name = switch.name
        rules = planner.static_rules(name) + planner.l3_rules(name)
        groups = {}
        for rs in controller.partition_map:
            plan = planner.partition(rs, name)
            rules += plan.pre + plan.post
            if plan.group is not None:
                groups[plan.group.group_id] = plan.group
        by_cookie = {}
        for rule in rules:
            by_cookie.setdefault(rule.cookie, []).append(rule)
        snap[name] = _by_content(by_cookie, groups)
    return snap


def table_snapshot(controller):
    """What every switch's tables hold right now, by content."""
    snap = {}
    for switch in controller.channel.switches:
        by_cookie = {}
        for rule in switch.table.iter_rules():
            by_cookie.setdefault(rule.cookie, []).append(rule)
        snap[switch.name] = _by_content(by_cookie, switch.groups)
    return snap

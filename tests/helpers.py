"""Shared test fixtures: a star topology with static L3 forwarding, a
recorder of the devices each packet crossed, a log of the slots a simulator
schedules records in, the generator forms of a node's CPU step and get
reply that the request chains are checked against, the linear rule scan
the flow table's index is checked against, and the content snapshots the
controller's plan-cache contract is stated in."""

from collections import Counter

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
from repro.core.config import ACK_BYTES, REQUEST_BYTES
from repro.sim import NORMAL, Simulator
from repro.transport import ProtocolStack


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

    A host's ``send`` and every ``handle_packet`` of a host or switch
    append the device's name to that packet's path; a
    ``Packet.copy`` (a switch output, a fan-out clone) starts from its
    original's path.  Installed through ``monkeypatch``, so the test undoes
    it; the recorder holds every packet it saw, so ids are never reused.
    """

    def __init__(self, monkeypatch):
        self._paths = {}  # id(packet) -> (packet, [device names])
        for cls, name in ((Host, "send"), (Host, "handle_packet"),
                          (OpenFlowSwitch, "handle_packet")):
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
    from here on, in order: two runs that schedule the same records in the
    same slots — event or call, whatever the target — log the same list."""
    slots = []
    schedule_call, schedule_event = sim._schedule_call, sim._schedule_event

    def call(delay, func, *args, priority=NORMAL):
        slots.append((sim.now, delay, priority))
        schedule_call(delay, func, *args, priority=priority)

    def event(ev, priority, delay=0.0):
        slots.append((sim.now, delay, priority))
        schedule_event(ev, priority, delay)

    sim._schedule_call, sim._schedule_event = call, event
    return slots


def ref_cpu_work(node):
    """``NodeShell.cpu_work_then`` as the generator it replaced: one
    request's worth of CPU service time, serialized per node."""
    cost = node.config.node_cpu_per_op_s
    if cost <= 0:
        return
    req = node.cpu.request()
    yield req
    try:
        yield node.sim.timeout(cost)
    finally:
        req.release()


def ref_reply_get(node, request, obj):
    """``NodeShell.reply_get_then`` as the generator it replaced: the disk
    read on a hit, then the reply; returns the reply's send Event."""
    node.gets_served.add()
    reply = {"type": "get_reply", "op_id": tuple(request["op_id"])}
    if obj is not None:
        yield node.disk.read(obj.size_bytes)
        reply.update(status="ok", value=obj.value, size=obj.size_bytes)
        size = REQUEST_BYTES + obj.size_bytes
    else:
        reply["status"] = "miss"
        size = ACK_BYTES
    return node.stack.tcp.send_message(
        IPv4Address(request["client_ip"]), request["client_port"], reply, size
    )


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

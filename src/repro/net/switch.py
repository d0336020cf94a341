"""The OpenFlow-enabled switch.

Forwarding pipeline: per-packet lookup latency, then highest-priority rule
wins; its action list runs in order (header rewrites, then output /
group-multicast / controller).  A table miss raises a *packet-in* to the
attached controller and buffers the packet, exactly as OpenFlow reason
``NO_MATCH`` does; the controller later releases or drops the buffer.

Hardware vs software switching (§5.1 deployment experience): hardware
lookup is ~5 µs; the one switch the authors found that could rewrite
headers did it in software, three orders of magnitude slower — modeled by
``software_rewrite_penalty`` so that ablation is runnable.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..obs.tracer import packet_op
from ..sim import Counter, Simulator
from .flowtable import (
    Action,
    Drop,
    FlowTable,
    Group,
    HarmoniaRead,
    Output,
    OutputGroup,
    Rule,
    SetEthDst,
    SetIpDst,
    ToController,
)
from .link import Port, transmit_fanout
from .packet import Packet
from .topology import Device

__all__ = ["OpenFlowSwitch", "FLOOD"]

#: Pseudo-port: flood out of every port except the ingress.
FLOOD = -1


class OpenFlowSwitch(Device):
    """A programmable switch with a flow table and a group (multicast) table."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        lookup_latency_s: float = 5e-6,
        table_capacity: int = 128 * 1024,
        rewrite_penalty_s: float = 0.0,
    ):
        super().__init__(sim, name)
        if lookup_latency_s < 0:
            raise ValueError(f"lookup latency must be non-negative: {lookup_latency_s}")
        self.table = FlowTable(capacity=table_capacity, owner=self)
        self.groups: Dict[int, Group] = {}
        self.lookup_latency_s = lookup_latency_s
        #: Extra per-packet delay when a rule rewrites headers — 0 for the
        #: client-side OVS deployment; set large to model the software-path
        #: hardware switch of §5.1.
        self.rewrite_penalty_s = rewrite_penalty_s
        self.controller = None  # set by ControlPlane.attach
        self._buffer_ids = itertools.count(1)
        self._buffered: Dict[int, Tuple[Packet, int]] = {}
        self.forwarded = Counter(f"{name}.forwarded")
        self.table_misses = Counter(f"{name}.table_misses")
        self.dropped = Counter(f"{name}.dropped")
        #: Highest controller epoch seen on this switch.  Flow-mods stamped
        #: with an older epoch come from a deposed controller/metadata
        #: leader and are fenced (§4.4-style zombie guard for the control
        #: plane).  0 accepts everything until a stamped message arrives.
        self.control_epoch = 0
        self.fenced_mods = Counter(f"{name}.fenced_mods")
        #: Shared dirty-set registry when the cluster runs in Harmonia
        #: mode (DESIGN.md §5j); None keeps the NICE read path untouched.
        self._harmonia = None

    # -- data plane ---------------------------------------------------------
    def handle_packet(self, packet: Packet, in_port: Port) -> None:
        self.sim._schedule_call(self.lookup_latency_s, self._pipeline, packet, in_port.number)

    def _pipeline(self, packet: Packet, in_port_no: int) -> None:
        if self._harmonia is not None:
            self._harmonia.observe(packet)
        rule = self.table.lookup(packet, in_port_no)
        tr = self.sim.tracer
        if rule is None:
            if tr is not None:
                tr.instant(
                    "table_miss", "switch", node=self.name,
                    op=packet_op(packet.payload), dst=packet.dst_ip,
                )
            self._packet_in(packet, in_port_no)
            return
        rule.packets += 1
        rule.bytes += packet._wire_size
        if tr is not None:
            tr.instant(
                "rule_hit", "switch", node=self.name,
                op=packet_op(packet.payload), cookie=rule.cookie,
                priority=rule.priority, dst=packet.dst_ip,
            )
        self.apply_actions(packet, rule.actions, in_port_no)

    def apply_actions(self, packet: Packet, actions, in_port_no: int) -> None:
        """Run an action list on ``packet`` (used by rules and packet-out)."""
        rewrote = False
        for action in actions:
            if isinstance(action, SetIpDst):
                if packet.virtual_dst is None:
                    packet.virtual_dst = packet.dst_ip
                tr = self.sim.tracer
                if tr is not None:
                    tr.instant(
                        "rewrite", "switch", node=self.name,
                        op=packet_op(packet.payload),
                        field="ip_dst", old=packet.dst_ip, new=action.ip,
                    )
                packet.dst_ip = action.ip
                rewrote = True
            elif isinstance(action, SetEthDst):
                packet.dst_mac = action.mac
                rewrote = True
            elif isinstance(action, Output):
                self._output(packet.copy(), action.port, in_port_no, rewrote)
            elif isinstance(action, OutputGroup):
                self._output_group(packet, action.group_id)
            elif isinstance(action, ToController):
                self._packet_in(packet, in_port_no)
            elif isinstance(action, HarmoniaRead):
                self.apply_actions(
                    packet, self._harmonia_choice(packet, action), in_port_no
                )
            elif isinstance(action, Drop):
                self.dropped.add()
                return
            else:
                raise TypeError(f"{self.name}: unknown action {action!r}")

    def _harmonia_choice(self, packet: Packet, action: HarmoniaRead):
        """Resolve a :class:`HarmoniaRead` per packet (DESIGN.md §5j).

        Clean keys round-robin over every planned replica leg; dirty or
        pinned keys — and anything we cannot attribute to a key — take
        ``choices[0]``, the primary.  With no registry attached (a rule
        outliving a mode change) the primary leg is the safe default.
        """
        choices = action.choices
        reg = self._harmonia
        if reg is None or len(choices) == 1:
            return choices[0]
        payload = packet.payload
        key = payload.get("key") if isinstance(payload, dict) else None
        if reg.is_dirty(key):
            reg.fallback_reads += 1
            tr = self.sim.tracer
            if tr is not None:
                tr.instant(
                    "harmonia_fallback", "switch", node=self.name,
                    key=key, partition=action.partition,
                )
            return choices[0]
        reg.balanced_reads += 1
        return choices[reg.next_index(action.partition, len(choices))]

    def _output(self, packet: Packet, port_no: int, in_port_no: int, rewrote: bool) -> None:
        delay = self.rewrite_penalty_s if rewrote else 0.0
        if port_no == FLOOD:
            for no, port in self.ports.items():
                if no != in_port_no and port.channel is not None:
                    self._emit(packet.copy(), port, delay)
            return
        port = self.ports.get(port_no)
        if port is None or port.channel is None:
            self.dropped.add()
            return
        self._emit(packet, port, delay)

    def _emit(self, packet: Packet, port: Port, delay: float) -> None:
        self.forwarded.value += 1
        if delay > 0:
            self.sim.call_in(delay, port.send, packet)
        else:
            port.send(packet)

    def _output_group(self, packet: Packet, group_id: int) -> None:
        """Fan ``packet`` out over an ALL-group: one clone per bucket, its
        header rewrites applied inline (a :class:`Bucket` holds nothing
        else), one egress leg each.

        The legs share one end-of-serialization event when their channels
        are all idle, distinct and of equal bandwidth; otherwise each leg
        transmits alone, so chaos cases like per-link throttling keep their
        exact event order.  A rewriting leg under ``rewrite_penalty_s`` is
        sent that much later, on its own.
        """
        group = self.groups.get(group_id)
        if group is None:
            self.dropped.add()
            return
        group.packets += 1
        tr = self.sim.tracer
        if tr is not None:
            tr.instant(
                "mc_fanout", "switch", node=self.name,
                op=packet_op(packet.payload), group=group_id,
                buckets=len(group.buckets),
            )
        penalty = self.rewrite_penalty_s
        legs = []
        batchable = True
        for bucket in group.buckets:
            clone = packet.copy()
            for action in bucket.actions:
                if type(action) is SetIpDst:
                    if clone.virtual_dst is None:
                        clone.virtual_dst = clone.dst_ip
                    if tr is not None:
                        tr.instant(
                            "rewrite", "switch", node=self.name,
                            op=packet_op(clone.payload),
                            field="ip_dst", old=clone.dst_ip, new=action.ip,
                        )
                    clone.dst_ip = action.ip
                else:  # SetEthDst
                    clone.dst_mac = action.mac
            port = self.ports.get(bucket.port)
            channel = None if port is None else port.channel
            if channel is None:
                self.dropped.add()
                continue
            self.forwarded.value += 1
            if penalty > 0 and bucket.actions:
                self.sim.call_in(penalty, port.send, clone)
                continue
            if channel._sending or channel._queue or (
                legs and channel.bandwidth_bps != legs[0][0].bandwidth_bps
            ):
                batchable = False
            legs.append((channel, clone))
        if batchable and len(legs) > 1 and len({id(ch) for ch, _ in legs}) == len(legs):
            transmit_fanout(self.sim, legs)
            return
        for channel, clone in legs:
            channel.transmit(clone)

    # -- controller interaction ----------------------------------------------
    def _packet_in(self, packet: Packet, in_port_no: int) -> None:
        self.table_misses.add()
        if self.controller is None:
            self.dropped.add()
            return
        buffer_id = next(self._buffer_ids)
        self._buffered[buffer_id] = (packet, in_port_no)
        self.controller.channel.packet_in(self, packet, in_port_no, buffer_id)

    def release_buffered(self, buffer_id: int) -> None:
        """Re-run the pipeline for a buffered packet (post flow-mod)."""
        entry = self._buffered.pop(buffer_id, None)
        if entry is not None:
            self._pipeline(*entry)

    def drop_buffered(self, buffer_id: int) -> None:
        if self._buffered.pop(buffer_id, None) is not None:
            self.dropped.add()

    @property
    def buffered_count(self) -> int:
        return len(self._buffered)

    # -- table management (invoked via the control plane) ---------------------
    def accept_epoch(self, epoch: Optional[int]) -> bool:
        """Epoch fence for control messages.

        ``None`` means an unstamped (legacy / reactive) message and always
        passes; otherwise the message is accepted only if it is at least as
        new as the highest epoch seen, and the switch adopts that epoch.
        """
        if epoch is None:
            return True
        if epoch < self.control_epoch:
            self.fenced_mods.add()
            tr = self.sim.tracer
            if tr is not None:
                tr.instant(
                    "fenced_mod", "ctrl", node=self.name,
                    epoch=epoch, current=self.control_epoch,
                )
            return False
        self.control_epoch = epoch
        return True

    def install_rule(self, rule: Rule) -> Rule:
        return self.table.add(rule)

    def remove_cookie(self, cookie: str) -> int:
        return self.table.remove_by_cookie(cookie)

    def install_group(self, group: Group) -> Group:
        self.groups[group.group_id] = group
        return group

    def remove_group(self, group_id: int) -> None:
        self.groups.pop(group_id, None)

"""The controller ↔ switch control channel.

OpenFlow messages (packet-in, flow-mod, group-mod, packet-out) cross a
TCP control connection in reality; here each message is applied after a
configurable one-way latency.  The channel also counts messages so the
membership-maintenance scalability claim (§4.1: O(S) switch updates per
membership change) can be measured directly.

For control-plane fault tolerance, table-mutating messages may carry an
**epoch**: the switch fences any flow-mod stamped older than the highest
epoch it has seen, so a deposed metadata leader / controller cannot
corrupt tables after a takeover.  Unstamped messages (``epoch=None`` and
no ``epoch`` attribute on the controller) bypass fencing — the legacy
single-controller path is unchanged.  The channel can also be taken
``down`` (controller crash): while down every message in both directions
is dropped and table-miss packets are discarded at the switch, which
keeps forwarding on its installed rules — the standard SDN
fail-standalone behavior.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim import Counter, Simulator
from .packet import Packet

__all__ = ["ControlPlane", "ControllerApp"]


class ControllerApp:
    """Base class for controller applications.

    Subclasses (the NICE controller, the plain L3 learning switch) override
    :meth:`on_packet_in`.  ``self.channel`` is bound by
    :meth:`ControlPlane.attach`.
    """

    def __init__(self) -> None:
        self.channel: Optional["ControlPlane"] = None

    def on_packet_in(self, switch, packet: Packet, in_port_no: int, buffer_id: int) -> None:
        raise NotImplementedError  # pragma: no cover


class ControlPlane:
    """Binds one controller app to one or more switches with message latency."""

    def __init__(self, sim: Simulator, controller: ControllerApp, latency_s: float = 500e-6):
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative: {latency_s}")
        self.sim = sim
        self.controller = controller
        self.latency_s = latency_s
        self.switches: List = []
        controller.channel = self
        self.messages_to_switch = Counter("ctrl.to_switch")
        self.messages_to_controller = Counter("ctrl.to_controller")
        #: Controller outage flag (chaos ``controller_crash``).
        self.down = False
        self.dropped_down = Counter("ctrl.dropped_down")

    def attach(self, switch) -> None:
        """Register ``switch`` under this controller."""
        switch.controller = self.controller
        self.switches.append(switch)

    def set_down(self, down: bool) -> None:
        """Controller outage: while down, every control message (both
        directions) is dropped — switches keep forwarding on installed
        rules, table-miss packets are discarded instead of buffered
        forever."""
        self.down = bool(down)

    def _epoch(self, epoch: Optional[int]) -> Optional[int]:
        if epoch is not None:
            return epoch
        return getattr(self.controller, "epoch", None)

    # -- switch -> controller -------------------------------------------------
    def packet_in(self, switch, packet: Packet, in_port_no: int, buffer_id: int) -> None:
        if self.down:
            self.dropped_down.add()
            switch.drop_buffered(buffer_id)
            return
        self.messages_to_controller.add()
        self.sim.call_in(
            self.latency_s,
            self.controller.on_packet_in,
            switch,
            packet,
            in_port_no,
            buffer_id,
        )

    # -- controller -> switch ---------------------------------------------------
    def apply_batch(self, switch, ops, epoch: Optional[int] = None) -> None:
        """Ship a list of table operations to ``switch`` in one burst.

        ``ops`` is a sequence of ``(kind, arg)`` pairs — ``("rule", Rule)``,
        ``("delete", cookie)``, ``("group", Group)``, ``("group_delete", id)``
        — applied in order after the control latency, the moral equivalent
        of an OpenFlow bundle.  Each operation still counts as one message
        (the §4.1 O(S)-updates-per-membership-change accounting is
        unchanged); what collapses is the event-queue cost: one scheduled
        delivery per switch instead of one per message, which is where the
        controller's 1000-node sync time went.  The epoch fence is checked
        once at delivery, equivalent to per-message checks since every
        operation in the batch carries the same epoch.
        """
        if not ops:
            return
        if self.down:
            self.dropped_down.add(len(ops))
            return
        self.messages_to_switch.add(len(ops))
        self.sim.call_in(self.latency_s, self._apply_batch, switch, self._epoch(epoch), ops)

    _BATCH_DISPATCH = {
        "rule": "install_rule",
        "delete": "remove_cookie",
        "group": "install_group",
        "group_delete": "remove_group",
    }

    @staticmethod
    def _apply_batch(switch, epoch: Optional[int], ops) -> None:
        # The fence is checked at apply time (after the channel latency):
        # what matters is the highest epoch the switch has seen when the
        # message *lands*, not when it was sent.
        if not switch.accept_epoch(epoch):
            return
        dispatch = ControlPlane._BATCH_DISPATCH
        for kind, arg in ops:
            getattr(switch, dispatch[kind])(arg)

    def role_claim(self, switch, epoch: Optional[int] = None) -> None:
        """OFPT_ROLE_REQUEST-style mastership claim: advance the switch's
        controller epoch (OpenFlow generation_id) without touching tables.

        A new leader sends this before/with its reconciliation pass so the
        fence engages even when reconcile finds nothing to repair —
        otherwise a deposed leader whose epoch was never superseded *at
        the switch* could still mutate rules."""
        if self.down:
            self.dropped_down.add()
            return
        self.messages_to_switch.add()
        self.sim.call_in(self.latency_s, switch.accept_epoch, self._epoch(epoch))

    def packet_out(self, switch, packet: Packet, actions) -> None:
        """Inject ``packet`` at ``switch`` and run ``actions`` on it."""
        if self.down:
            self.dropped_down.add()
            return
        self.messages_to_switch.add()
        self.sim.call_in(self.latency_s, switch.apply_actions, packet, actions, 0)

    def release_buffered(self, switch, buffer_id: int) -> None:
        if self.down:
            self.dropped_down.add()
            return
        self.messages_to_switch.add()
        self.sim.call_in(self.latency_s, switch.release_buffered, buffer_id)

    def drop_buffered(self, switch, buffer_id: int) -> None:
        if self.down:
            self.dropped_down.add()
            return
        self.messages_to_switch.add()
        self.sim.call_in(self.latency_s, switch.drop_buffered, buffer_id)

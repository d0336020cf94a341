"""Links, channels and ports.

A :class:`Link` is a duplex cable: two independent unidirectional
:class:`Channel` objects.  Each channel is a FIFO wire — concurrent
transfers queue behind one another, which is the mechanism that reproduces
the paper's contention effects (a NOOB primary pushing R−1 copies up a
single 1 Gbps uplink, Figs 5–9).

Transmission model (flow-burst store-and-forward; DESIGN.md §5): a packet
holds the channel for ``size_bytes * 8 / bandwidth`` seconds, then is
delivered to the far device after the propagation latency.  Channels count
transmitted bytes for the network-load figures and can drop packets with a
configured loss rate: whole packets, the simulator's one loss model.

Hot path (DESIGN.md §5g): a transmission is two pooled kernel callbacks —
end-of-serialization (counters, loss/jitter draws, queue hand-off), scheduled
the moment the packet gets the wire, and delivery: the far device's
``receive`` ``ingress_delay_s`` after the arrival (a switch's pipeline one
lookup later), with no record between.  A packet gets the wire in
:meth:`Channel.transmit` when the channel is idle, else in the
end-of-serialization of the packet ahead of it, so both moments are known
without a grant or serialize-start hop and the simulated times are those of
the process-per-packet model this replaced.  :func:`transmit_fanout`
additionally collapses a multicast fan-out over idle, equal-bandwidth
channels into ONE shared end-of-serialization carrying the recipient list
(per-receiver loss/jitter draws run at fire time, in leg order, so RNG
streams see the same sequence as per-leg transmission).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional, TYPE_CHECKING

import numpy as np

from ..obs.tracer import packet_op
from ..sim import Counter, Simulator
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Device

__all__ = ["Channel", "Link", "Port", "transmit_fanout", "GBPS", "MBPS"]

GBPS = 1_000_000_000.0
MBPS = 1_000_000.0


class Port:
    """One attachment point of a device; at most one link plugs into it."""

    __slots__ = ("device", "number", "link", "channel")

    def __init__(self, device: "Device", number: int):
        self.device = device
        self.number = number
        #: The link's direction leaving through this port; ``None`` while
        #: the port is unplugged (the one plugged-in test).
        self.channel: Optional[Channel] = None
        #: The attached duplex link, for faults that cut both directions.
        self.link: Optional[Link] = None

    @property
    def peer(self) -> Optional["Port"]:
        """The port at the far end of the attached link (None if unplugged)."""
        channel = self.channel
        return None if channel is None else channel.dst

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission out of this port."""
        channel = self.channel
        if channel is None:
            raise RuntimeError(f"port {self.device.name}:{self.number} is unplugged")
        channel.transmit(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Port {self.device.name}:{self.number}>"


class Channel:
    """A unidirectional wire with bandwidth, latency, loss and counters."""

    def __init__(
        self,
        sim: Simulator,
        src: Port,
        dst: Port,
        bandwidth_bps: float,
        latency_s: float,
        name: str = "",
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        if latency_s < 0:
            raise ValueError(f"latency must be non-negative: {latency_s}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.latency_s = latency_s
        self.name = name or f"{src.device.name}->{dst.device.name}"
        self.tx_bytes = Counter(f"{self.name}.tx_bytes")
        self.tx_packets = Counter(f"{self.name}.tx_packets")
        self.dropped_packets = Counter(f"{self.name}.dropped")
        self.loss_rate = 0.0
        self._loss_rng: Optional[np.random.Generator] = None
        self.delay_jitter_s = 0.0
        self._jitter_rng: Optional[np.random.Generator] = None
        self.down = False
        #: True while a packet occupies the wire; later transmits queue FIFO.
        self._sending = False
        #: Packets waiting for the wire, FIFO.
        self._queue: deque = deque()

    def set_loss(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        """Enable random packet loss: each packet, control message or bulk
        burst, is dropped whole with probability ``rate``.

        ``rate`` must be in ``[0, 1)`` — total loss is modeled by taking
        the channel :meth:`set_down`, not by a loss rate of 1.0.  A rate of
        0.0 disables loss injection again (the rng may then be omitted).
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1): {rate}")
        if rate > 0.0 and rng is None:
            raise ValueError("a loss rate > 0 needs an rng")
        self.loss_rate = rate
        self._loss_rng = rng if rate > 0.0 else None

    def set_delay_jitter(self, jitter_s: float, rng: Optional[np.random.Generator] = None) -> None:
        """Add a random extra delay in ``[0, jitter_s)`` to every delivery.

        This is the chaos-injection hook for delay bursts: latency stays
        configured as built, the jitter rides on top and can be turned off
        again with ``jitter_s=0.0`` (no monkey-patching of ``latency_s``).
        """
        if jitter_s < 0:
            raise ValueError(f"delay jitter must be non-negative: {jitter_s}")
        if jitter_s > 0.0 and rng is None:
            raise ValueError("a delay jitter > 0 needs an rng")
        self.delay_jitter_s = jitter_s
        self._jitter_rng = rng if jitter_s > 0.0 else None

    def set_down(self, down: bool = True) -> None:
        """Cut (or restore) the channel: packets transmit but never arrive.

        Unlike :meth:`~repro.net.host.Host.fail` the attached devices stay
        alive — this models a network partition, not a crash."""
        self.down = down

    def transmit(self, packet: Packet) -> None:
        """Start (or queue) transmission of ``packet``."""
        sim = self.sim
        if self._sending:
            tr = sim.tracer
            if tr is not None:
                tr.instant(
                    "queued", "link", node=self.name, op=packet_op(packet.payload),
                    depth=len(self._queue) + 1,
                )
            self._queue.append(packet)
            return
        self._sending = True
        sim._schedule_call(
            packet._wire_size * 8.0 / self.bandwidth_bps, self._finish_tx, packet
        )

    def _finish_tx(self, packet: Packet) -> None:
        """End of serialization: counters, fault draws, delivery, hand-off."""
        sim = self.sim
        self.tx_bytes.value += packet._wire_size
        self.tx_packets.value += 1
        dropped = False
        if self.down:
            self.dropped_packets.add()
            dropped = True
            tr = sim.tracer
            if tr is not None:
                tr.instant("drop", "link", node=self.name,
                           op=packet_op(packet.payload), reason="down")
        elif (
            self.loss_rate
            and self._loss_rng is not None
            and self._loss_rng.random() < self.loss_rate
        ):
            self.dropped_packets.add()
            dropped = True
            tr = sim.tracer
            if tr is not None:
                tr.instant("drop", "link", node=self.name,
                           op=packet_op(packet.payload), reason="loss")
        if not dropped:
            delay = self.latency_s
            if self.delay_jitter_s and self._jitter_rng is not None:
                delay += self._jitter_rng.random() * self.delay_jitter_s
            # Counted from the arrival time: bit-equal to a delivery record
            # that schedules the ingress delay (float + is not associative).
            rx = self.dst.device
            sim._schedule_call(
                rx.ingress_delay_s, rx.receive, packet, self.dst.number,
                after=sim._now + delay,
            )
        queue = self._queue
        if queue:
            packet = queue.popleft()
            sim._schedule_call(
                packet._wire_size * 8.0 / self.bandwidth_bps, self._finish_tx, packet
            )
        else:
            self._sending = False

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Channel {self.name} {self.bandwidth_bps/GBPS:g}Gbps>"


def transmit_fanout(sim: Simulator, legs: List[tuple]) -> None:
    """Vectorized multicast fan-out: ONE end-of-serialization event for R legs.

    ``legs`` is ``[(channel, packet), ...]``; the caller guarantees every
    channel is idle and distinct and all share one bandwidth (same packet
    size across legs makes serialization end simultaneously).  The shared
    event replaces R consecutive per-leg events of the same timestamp and
    priority, which preserves tie-breaking against any third-party event;
    per-leg delivery events, loss/jitter draws and queue hand-offs run at
    fire time in leg order — the same order the per-leg chains produced —
    so RNG streams and delivery ordering are bit-identical.
    """
    for ch, _ in legs:
        ch._sending = True
    ch0, p0 = legs[0]
    sim._schedule_call(p0._wire_size * 8.0 / ch0.bandwidth_bps, _fanout_finish, legs)


def _fanout_finish(legs: List[tuple]) -> None:
    # Unpacked at fire time: each leg runs the normal end-of-serialization
    # step (counters, draws, delivery, queue hand-off) in leg order.
    for ch, packet in legs:
        ch._finish_tx(packet)


class Link:
    """A duplex link: two channels sharing configuration."""

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        bandwidth_bps: float = GBPS,
        latency_s: float = 50e-6,
        name: str = "",
    ):
        if a.channel is not None or b.channel is not None:
            raise RuntimeError("port already linked")
        self.sim = sim
        self.a = a
        self.b = b
        self.name = name or f"{a.device.name}<->{b.device.name}"
        self.ab = Channel(sim, a, b, bandwidth_bps, latency_s)
        self.ba = Channel(sim, b, a, bandwidth_bps, latency_s)
        a.link = self
        b.link = self
        a.channel = self.ab
        b.channel = self.ba

    @property
    def channels(self) -> List[Channel]:
        return [self.ab, self.ba]

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Reconfigure both directions (Fig 8 throttles replicas to 50 Mbps)."""
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        self.ab.bandwidth_bps = bandwidth_bps
        self.ba.bandwidth_bps = bandwidth_bps

    def set_loss(self, rate: float, rng=None) -> None:
        """Enable/disable random loss on both directions (chaos bursts)."""
        self.ab.set_loss(rate, rng)
        self.ba.set_loss(rate, rng)

    def set_delay_jitter(self, jitter_s: float, rng=None) -> None:
        """Enable/disable extra random delay on both directions."""
        self.ab.set_delay_jitter(jitter_s, rng)
        self.ba.set_delay_jitter(jitter_s, rng)

    def set_down(self, down: bool = True) -> None:
        """Cut (or restore) both directions — the partition primitive."""
        self.ab.set_down(down)
        self.ba.set_down(down)

    @property
    def down(self) -> bool:
        return self.ab.down and self.ba.down

    @property
    def total_bytes(self) -> int:
        return self.ab.tx_bytes.value + self.ba.tx_bytes.value

    def reset_counters(self) -> None:
        for ch in self.channels:
            ch.tx_bytes.reset()
            ch.tx_packets.reset()
            ch.dropped_packets.reset()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name}>"

"""A node's link to the metadata service, and the health it reports over it:
the control/heartbeat targets with their epoch fence and failover, the
bounded metadata request every recovery step uses, the §4.4 two-strikes
report about a silent peer, and the heartbeat with the fail-slow disk
detector that rides on it (§5k).
"""

from __future__ import annotations

from typing import Dict, List

from ...net import IPv4Address
from ..config import HEARTBEAT_BYTES, META_PORT, REQUEST_BYTES

__all__ = ["MetaLink", "FAILSLOW_THRESHOLD", "FAILSLOW_STRIKES"]

#: Fail-slow detector (§5k): a node reports its disk degraded once the
#: observed/nominal service-time ratio stays at or above the threshold for
#: this many consecutive heartbeats; the metadata service then drains the
#: node from the read round-robin and, if it is a primary, hands the role
#: off.
FAILSLOW_THRESHOLD = 4.0
FAILSLOW_STRIKES = 2


class MetaLink:
    """Metadata targets, epoch fence, control requests, health reports."""

    def __init__(self, node, metadata_ips):
        self.node = node
        #: Metadata control/heartbeat targets, preference order.  ``_idx``
        #: points at the current target; it rotates on control timeouts
        #: and snaps to the leader announced by ``meta_leader`` /
        #: ``meta_redirect`` messages.
        self.ips: List[IPv4Address] = [IPv4Address(ip) for ip in metadata_ips]
        self._idx = 0
        #: Highest metadata epoch seen; stale-epoch membership and control
        #: messages from a deposed leader are fenced.
        self.epoch = 0
        self._timeout_strikes: Dict[str, int] = {}
        # Fail-slow detector state: consecutive heartbeat windows whose
        # disk service-time ratio met the threshold.
        self._slow_strikes = 0
        self.failslow = False

    @property
    def ip(self) -> IPv4Address:
        """The metadata target currently believed to be the leader."""
        return self.ips[self._idx]

    # -- targets ----------------------------------------------------------------
    def fence(self, epoch) -> bool:
        """True (and counted) if a control message carries a stale epoch."""
        node = self.node
        if epoch is None:
            return False
        if epoch < self.epoch:
            node.membership_fenced.add()
            tr = node.sim.tracer
            if tr is not None:
                tr.instant(
                    "membership_fenced", "ctrl",
                    node=node.name, epoch=epoch, current=self.epoch,
                )
            return True
        if epoch > self.epoch:
            self.epoch = epoch
        return False

    def _fail_over(self, target: IPv4Address) -> None:
        """A control exchange with ``target`` timed out: drop any cached
        transport state (half-open connections to a dead leader otherwise
        look established forever) and rotate to the next candidate."""
        node = self.node
        node.stack.tcp.reset_peer(target)
        if len(self.ips) > 1 and self.ips[self._idx] == target:
            self._idx = (self._idx + 1) % len(self.ips)
            node.meta_failovers.add()
            tr = node.sim.tracer
            if tr is not None:
                tr.instant(
                    "meta_failover", "ctrl",
                    node=node.name, target=str(self.ip),
                )

    def adopt_leader(self, epoch, ip_str) -> None:
        """Point heartbeats/control at an announced leader (``meta_leader``
        broadcast after a takeover, or a standby's redirect)."""
        if not ip_str or epoch is None or epoch < self.epoch:
            return
        self.epoch = max(self.epoch, epoch)
        ip = IPv4Address(ip_str)
        if ip not in self.ips:
            self.ips.append(ip)
        if self.ip != ip:
            self.node.stack.tcp.reset_peer(self.ip)
            self._idx = self.ips.index(ip)
            self.node.meta_failovers.add()

    # -- requests ------------------------------------------------------------------
    def _send(self, target: IPv4Address, body: dict, wait_s: float):
        """One bounded send to ``target``; a dead leader costs ``wait_s``,
        then we fail over.  Returns the connection, or ``None``."""
        conn = yield from self.node.stack.tcp.bounded_send(
            target, META_PORT, body, REQUEST_BYTES, wait_s)
        if conn is None:
            self._fail_over(target)
        return conn

    def request(self, body: dict, reply_type: str):
        """One metadata request/response, with control-target failover.

        Copes with three failure shapes: the send wedging on a dead leader
        (bounded, then ``reset_peer`` + rotate targets), a standby
        redirecting us to the leader it follows (``meta_redirect``), and a
        live leader deferring the request (``retry_later`` — e.g. a rejoin
        while the controller channel is down and visibility flow-mods
        cannot be staged).
        """
        node = self.node
        accept = (reply_type, "meta_redirect", "retry_later")
        wait = node.config.peer_timeout_s * 4
        attempts = 2 * max(1, len(self.ips))
        patience = 12
        while attempts > 0 and patience > 0:
            target = self.ip
            conn = yield from self._send(target, body, wait)
            if conn is None:
                attempts -= 1
                continue
            payload = yield from conn.await_reply(
                lambda m: (m.payload or {}).get("type") in accept, wait
            )
            if payload is None:
                attempts -= 1
                self._fail_over(target)
                continue
            kind = payload.get("type")
            if kind == reply_type:
                return payload
            patience -= 1
            if kind == "meta_redirect":
                self.adopt_leader(payload.get("epoch"), payload.get("ip"))
                continue
            # retry_later: the leader is up but cannot act yet.
            yield node.sim.timeout(node.config.peer_timeout_s)
        return None

    # -- health ----------------------------------------------------------------------
    def clear_strikes(self, peer: str) -> None:
        """``peer`` answered: its timeouts were not consecutive."""
        self._timeout_strikes.pop(peer, None)

    def strike(self, peer: str):
        """Two consecutive timeouts on a peer ⇒ report it failed (§4.4)."""
        self._timeout_strikes[peer] = self._timeout_strikes.get(peer, 0) + 1
        if self._timeout_strikes[peer] >= 2:
            self._timeout_strikes[peer] = 0
            body = {"type": "report_failure", "suspect": peer, "reporter": self.node.name}
            for _ in range(max(2, len(self.ips))):
                wait = self.node.config.peer_timeout_s * 2
                if (yield from self._send(self.ip, body, wait)) is not None:
                    return

    def heartbeat_loop(self):
        node = self.node
        while True:
            yield node.sim.timeout(node.config.heartbeat_interval_s)
            if not node.host.up:
                continue
            stats = node.puts.drain_client_stats()
            # Fail-slow detector (§5k): strikes accumulate while the
            # observed/nominal disk service-time ratio holds at or above
            # the threshold; one healthy window clears them (hysteresis).
            # Piggybacks the existing heartbeat — payload keys ride in the
            # same HEARTBEAT_BYTES datagram, so timing is unchanged.
            ratio = node.disk.consume_service_ratio()
            if ratio is not None:
                if ratio >= FAILSLOW_THRESHOLD:
                    self._slow_strikes += 1
                    if self._slow_strikes >= FAILSLOW_STRIKES:
                        self.failslow = True
                else:
                    self._slow_strikes = 0
                    self.failslow = False
            node.puts.prune_volatile()
            node.stack.udp_send(
                self.ip,
                META_PORT,
                {
                    "type": "hb",
                    "node": node.name,
                    "stats": stats,
                    "disk_slow": self.failslow,
                    "disk_ratio": 1.0 if ratio is None else ratio,
                },
                HEARTBEAT_BYTES,
            )

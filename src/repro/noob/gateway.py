"""NOOB access gateways (§2.1).

* **ROG** — replica-oblivious gateway: a generic load balancer that picks a
  storage node at random; a mis-hit node forwards to the responsible node,
  so requests pay two extra hops.
* **RAG** — replica-aware gateway: forwards straight to the responsible
  node (one extra hop).

Either way the storage node replies *directly* to the client — only the
request (and, for puts, its data) transits the gateway.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.config import NODE_PORT
from ..core.membership import PartitionMap
from ..net import Host, IPv4Address
from ..sim import Counter, Simulator
from ..transport import ProtocolStack
from .config import GW_PORT, NoobConfig

__all__ = ["Gateway"]


class Gateway:
    """One ROG or RAG load-balancer machine."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: NoobConfig,
        partition_map: PartitionMap,
        directory: Dict[str, IPv4Address],
        rng: np.random.Generator,
    ):
        if config.access not in ("rog", "rag"):
            raise ValueError(f"gateway deployed under access mode {config.access!r}")
        self.sim = sim
        self.host = host
        self.config = config
        self.partition_map = partition_map
        self.directory = directory
        self.rng = rng
        self.stack = ProtocolStack(sim, host)
        self._inbox = self.stack.tcp.listen(GW_PORT)
        self.requests_forwarded = Counter(f"{host.name}.forwarded")
        self._inbox.serve(self._on_request)

    def _target_for(self, key: str) -> IPv4Address:
        names = sorted(self.directory)
        if self.config.access == "rog":
            # Replica-oblivious: any node, uniformly at random (§2.1).
            return self.directory[names[int(self.rng.integers(len(names)))]]
        replicas = self.partition_map.replicas_of_key(key)
        if (
            self.config.get_lb == "round_robin"
            and self.config.consistency in ("2pc", "chain")
        ):
            return self.directory[replicas[int(self.rng.integers(len(replicas)))]]
        return self.directory[replicas[0]]

    def _on_request(self, msg) -> None:
        body = msg.payload or {}
        if body.get("type") in ("put", "get"):
            self.requests_forwarded.add()
            target = self._target_for(body["key"])
            tr = self.sim.tracer
            if tr is not None:
                tr.instant(
                    "gw_forward", "op", node=self.host.name,
                    op=tuple(body.get("op_id", ())) or None,
                    kind=body["type"], target=str(target),
                )
            # Forward the full request (put data transits the gateway).
            self.stack.tcp.send_message(
                target, NODE_PORT, dict(body), msg.payload_bytes
            )

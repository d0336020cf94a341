"""NOOB client library (§2.1 access mechanisms).

* **RAC** — replica-aware client: holds the placement metadata (the cache
  of [33]) and sends straight to the responsible node.  Gets may
  round-robin over replicas when the consistency mode keeps them identical
  (the NOOB-2PC configuration of Fig 10).
* **RAG/ROG** — clients send everything to a gateway.

Requests and data travel over TCP; replies come straight from the serving
node to the client's reply socket.  The attempt loop, reply socket and
counters are :class:`~repro.core.client.KvClient`'s; this module only says
where one attempt goes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.client import KvClient
from ..core.config import NODE_PORT, REQUEST_BYTES
from ..core.membership import PartitionMap
from ..net import Host, IPv4Address
from ..sim import Simulator
from .config import GW_PORT, NoobConfig

__all__ = ["NoobClient"]


class NoobClient(KvClient):
    """One client machine under the configured access mode."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: NoobConfig,
        partition_map: PartitionMap,
        directory: Dict[str, IPv4Address],
        gateway_ips: List[IPv4Address],
        rng: np.random.Generator,
    ):
        super().__init__(sim, host, config)
        self.partition_map = partition_map
        self.directory = directory
        self.gateway_ips = gateway_ips
        self.rng = rng
        self._rr = 0

    # -- target selection ------------------------------------------------------
    def _request_target(self, key: str, is_get: bool) -> Tuple[IPv4Address, int]:
        if self.config.access in ("rog", "rag"):
            gw = self.gateway_ips[self._rr % len(self.gateway_ips)]
            self._rr += 1
            return gw, GW_PORT
        # get_lb defaults to the safe choice per consistency mode
        # (__post_init__); an explicit "round_robin" on a weaker mode is an
        # intentional misconfiguration (the chaos suite's violation oracle).
        replicas = self.partition_map.replicas_of_key(key)
        if (
            is_get
            and self.config.get_lb == "round_robin"
            and len(replicas) > 1
        ):
            pick = replicas[int(self.rng.integers(len(replicas)))]
            return self.directory[pick], NODE_PORT
        return self.directory[replicas[0]], NODE_PORT

    # -- operations ---------------------------------------------------------------
    def put(self, key: str, value, size: int, max_retries: int = 3):
        return self._tcp_op("put", key, size, max_retries, value=value, size=size)

    def get(self, key: str, max_retries: int = 3):
        return self._tcp_op("get", key, REQUEST_BYTES, max_retries)

    def _tcp_op(self, kind: str, key: str, wire_bytes: int, max_retries: int, **payload):
        client_ts = self.sim.now

        def address(attempt):
            ip, port = self._request_target(key, is_get=(kind == "get"))

            def send(op_id):
                body = self._request(kind, op_id, key, client_ts=client_ts, **payload)
                self.stack.tcp.send_message(ip, port, body, wire_bytes)

            return send, {"target": str(ip)}

        return self._op(kind, key, payload.get("value"), max_retries, address)

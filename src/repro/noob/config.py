"""NOOB baseline configuration (§2.1, §6).

The evaluation's NOOB prototype has "rich configuration options": three
access mechanisms (ROG / RAG / RAC) and multiple consistency/replication
modes (primary-only, 2PC, quorum, plus chain replication from §4.2's
related-work discussion)."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import BaseConfig

__all__ = ["NoobConfig", "GW_PORT"]

#: TCP port gateways (ROG/RAG load balancers) listen on.
GW_PORT = 7400

ACCESS_MODES = ("rac", "rag", "rog")
CONSISTENCY_MODES = ("primary", "2pc", "quorum", "chain")
GET_LB_MODES = ("primary", "round_robin")


@dataclass
class NoobConfig(BaseConfig):
    """The knobs both builders share plus the NOOB-specific switches; the
    NICE-only ones (control plane, vrings, fabric, protocol variants) are
    not accepted."""

    #: Request routing: replica-aware client (RAC), replica-aware gateway
    #: (RAG, +1 hop) or replica-oblivious gateway (ROG, +2 hops) — §2.1.
    access: str = "rac"
    #: Replication/consistency protocol run by the primary.
    consistency: str = "primary"
    #: Write-set size for quorum mode (Fig 8).
    quorum_k: int = 2
    #: Client-side get spreading: 2PC keeps replicas identical, so gets may
    #: round-robin (the Fig 10 NOOB-2PC behaviour); primary-only must read
    #: the primary.
    get_lb: str = ""
    #: Number of gateway machines (ROG/RAG deployments).
    n_gateways: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.access not in ACCESS_MODES:
            raise ValueError(f"access must be one of {ACCESS_MODES}: {self.access!r}")
        if self.consistency not in CONSISTENCY_MODES:
            raise ValueError(
                f"consistency must be one of {CONSISTENCY_MODES}: {self.consistency!r}"
            )
        if not self.get_lb:
            # 2PC keeps all replicas consistent at commit: reads spread.
            self.get_lb = "round_robin" if self.consistency == "2pc" else "primary"
        if self.get_lb not in GET_LB_MODES:
            raise ValueError(f"get_lb must be one of {GET_LB_MODES}: {self.get_lb!r}")
        if self.consistency == "quorum" and not 1 <= self.quorum_k <= self.replication_level:
            raise ValueError(
                f"quorum_k {self.quorum_k} out of range 1..{self.replication_level}"
            )
        if self.access != "rac" and self.n_gateways < 1:
            raise ValueError("gateway access modes need at least one gateway")

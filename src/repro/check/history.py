"""Op-history recording for consistency checking.

A :class:`HistoryRecorder` captures every client operation as an
:class:`Operation` with simulated-time invoke/return stamps — the raw
material for the linearizability and monotonic-reads checkers.  The
client's attempt loop calls two hooks: :meth:`HistoryRecorder.invoke` in
the op's start record (the exact invocation instant: when the op starts
running, not when it was created — so ``op_index`` is start order) and
:meth:`HistoryRecorder.complete` in the record that returns its
:class:`OpResult`.

Recording is attached per client (``client.recorder = recorder``); clients
without a recorder pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = ["HistoryRecorder", "Operation"]


@dataclass
class Operation:
    """One client operation in a recorded history.

    ``value`` is the written value for puts and the *returned* value for
    gets (``None`` until completion, and for misses).  ``return_ts`` stays
    ``None`` for operations still pending when the run was cut off; the
    checkers treat those like timeouts (effect ambiguous).
    """

    op_index: int
    client: str
    kind: str  # "put" | "get"
    key: str
    invoke_ts: float
    value: Any = None
    return_ts: Optional[float] = None
    ok: Optional[bool] = None
    status: str = "pending"
    retries: int = 0

    @property
    def completed(self) -> bool:
        return self.return_ts is not None

    @property
    def acked(self) -> bool:
        """Did the client observe success (so the effect is guaranteed)?"""
        return self.ok is True

    def as_tuple(self) -> Tuple:
        """Canonical form for determinism comparisons across runs."""
        return (
            self.op_index,
            self.client,
            self.kind,
            self.key,
            self.invoke_ts,
            self.value,
            self.return_ts,
            self.ok,
            self.status,
            self.retries,
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        ret = f"{self.return_ts:.6f}" if self.completed else "…"
        val = "" if self.kind == "get" and not self.completed else f"={self.value!r}"
        return (
            f"[{self.invoke_ts:.6f},{ret}] {self.client} "
            f"{self.kind}({self.key}){val} -> {self.status}"
        )


@dataclass
class HistoryRecorder:
    """Collects :class:`Operation` records from any number of clients."""

    ops: List[Operation] = field(default_factory=list)

    def attach(self, *clients) -> "HistoryRecorder":
        """Point each client's ``recorder`` attribute at this recorder."""
        for client in clients:
            client.recorder = self
        return self

    def invoke(self, client: str, kind: str, key: str, value: Any, now: float) -> Operation:
        """Open the record of one op, invoked at ``now`` (the instant its
        chain starts running, not when it was created)."""
        op = Operation(
            op_index=len(self.ops),
            client=client,
            kind=kind,
            key=key,
            invoke_ts=now,
            value=None if kind == "get" else value,
        )
        self.ops.append(op)
        return op

    @staticmethod
    def complete(op: Operation, result, now: float) -> None:
        """Close ``op`` with the client's :class:`~repro.core.client.OpResult`
        at ``now``, the instant the op returned it."""
        op.return_ts = now
        op.ok = bool(result.ok)
        op.status = result.status if result.status else ("ok" if result.ok else "error")
        op.retries = result.retries
        if op.kind == "get" and result.ok:
            op.value = result.value

    # -- views -----------------------------------------------------------------
    def pending(self) -> List[Operation]:
        return [op for op in self.ops if not op.completed]

    def as_tuples(self) -> List[Tuple]:
        return [op.as_tuple() for op in self.ops]

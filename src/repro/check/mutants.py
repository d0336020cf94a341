"""The mutant table: deliberately broken code, kept out of the protocol.

An oracle that never fails proves nothing, so each one is shown a bug it
must catch.  A :class:`Mutant` is one in-process
``unittest.mock.patch.object`` on the honest code — or no patch, for a
legal but unsafe configuration such as ``rac-weak`` — plus the one
existing chaos cell (function, parameters, seed) that must kill it.  A
mutant is *killed* when its conclusive row fails the gates every honest
chaos cell must pass (``bench.chaos.suite.killed``); ``bench chaos`` runs the
table and fails unless the killed set is exactly the one the table
expects.  A mutant no cell kills yet is listed as an expected survivor
(``killed=False``) rather than hidden.

:func:`mutant_cell` applies the patch inside the cell body, so a
``--jobs N`` worker and the result cache (keyed on the mutant's name) see
the same mutant an inline run does, and the patch is undone when the
cell returns or raises.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional
from unittest import mock

from ..bench.chaos.cells import chaos_cell, durability_cell, harmonia_midput_cell
from ..bench.parallel import Cell
from ..core.controller.app import NiceControllerApp
from ..core.storage_node.recovery import Recovery
from ..kv.wal import WriteAheadLog
from ..net.harmonia import HarmoniaRegistry
from ..net.switch import OpenFlowSwitch

__all__ = ["MUTANTS", "Mutant", "mutant_cell"]


@dataclass(frozen=True)
class Mutant:
    """One named bug and the cell that must catch it."""

    name: str
    #: What is broken, in one line.
    doc: str
    #: ``mock.patch.object(...)`` on the honest code; ``None`` when the
    #: cell's own parameters are the bug.
    patch: Optional[Any]
    cell: Callable[..., Dict]
    params: Dict[str, Any]
    seed: int
    #: Whether the cell must kill it (``False``: a known survivor).
    killed: bool = True

    @property
    def label(self) -> str:
        return Cell(self.cell, self.params, seed=self.seed).label


# -- the broken bodies: each differs from the honest method in one thing --
_honest_observe = HarmoniaRegistry.observe
_honest_append = WriteAheadLog.append
_honest_reconcile = NiceControllerApp.reconcile


def _observe_clearing_on_commit(self, packet) -> None:
    _honest_observe(self, packet)
    payload = packet.payload
    if type(payload) is tuple and len(payload) >= 2 and payload[0] == "mc_ctrl":
        body = payload[1]
        if isinstance(body, dict) and body.get("type") == "commit":
            # The commit is still in flight to the replicas: clearing now
            # races their apply.
            self._resolve(tuple(body["op_id"]), pin=False)


def _append_unflushed(self, record):
    write = self.disk.write
    with mock.patch.object(self.disk, "write", lambda nbytes, forced: write(nbytes, forced=False)):
        return _honest_append(self, record)


def _mark_committed_in_memory(self, op_id, stamp) -> None:
    rec = self._records.get(op_id)
    if rec is not None:
        rec.committed = True
        rec.stamp = stamp


def _fetch_nothing(self, ip, kind, partition, wait_s=None):
    return 0
    yield  # a generator, like the honest fetch


def _accept_every_epoch(self, epoch) -> bool:
    if epoch is not None and epoch > self.control_epoch:
        self.control_epoch = epoch
    return True


def _no_drain(self, partition):
    return
    yield  # a generator, like the honest drain


def _reconcile_without_deletes(self, epoch=None):
    apply_batch = self.channel.apply_batch

    def additive(switch, ops, epoch=None):
        kept = [op for op in ops if op[0] not in ("delete", "group_delete")]
        apply_batch(switch, kept, epoch=epoch)

    with mock.patch.object(self.channel, "apply_batch", additive):
        return _honest_reconcile(self, epoch)


#: name -> mutant, in the order ``bench chaos`` runs and reports them.
MUTANTS: Dict[str, Mutant] = {m.name: m for m in (
    Mutant(
        "harmonia_commit_clear",
        "the switch dirty-set clears a key when the commit multicast transits, "
        "before the replicas apply it",
        mock.patch.object(HarmoniaRegistry, "observe", _observe_clearing_on_commit),
        harmonia_midput_cell, dict(mode="harmonia"), seed=1,
    ),
    Mutant(
        "wal_unflushed",
        "log appends skip the flush, so put acks race durability",
        mock.patch.object(WriteAheadLog, "append", _append_unflushed),
        durability_cell, dict(mode="nice", schedule="power_blackout", duration=10.0), seed=1,
    ),
    Mutant(
        "commit_bit_off",
        "the commit bit reaches the in-memory record but never its journal frame",
        mock.patch.object(WriteAheadLog, "mark_committed", _mark_committed_in_memory),
        durability_cell, dict(mode="nice", schedule="power_blackout", duration=10.0), seed=1,
    ),
    Mutant(
        "catchup_skipped",
        "a rejoining or joining replica fetches nothing and still reports consistent",
        mock.patch.object(Recovery, "_fetch", _fetch_nothing),
        chaos_cell, dict(mode="nice", schedule="crash_rejoin", duration=8.0), seed=2,
    ),
    Mutant(
        "epoch_fence_off",
        "switches adopt newer control epochs but never reject an older one",
        mock.patch.object(OpenFlowSwitch, "accept_epoch", _accept_every_epoch),
        chaos_cell,
        dict(mode="nice", schedule="metadata_failover", duration=8.0, standbys=1), seed=1,
    ),
    Mutant(
        "rac-weak",
        "NOOB primary-only replication with round-robin reads (a legal config)",
        None,
        chaos_cell, dict(mode="rac-weak", schedule="partition_rejoin", duration=8.0), seed=1,
    ),
    Mutant(
        "drain_off",
        "a rejoin snapshot is served without waiting out in-flight puts (§4.4)",
        mock.patch.object(Recovery, "_drain_partition_writes", _no_drain),
        chaos_cell, dict(mode="nice", schedule="crash_rejoin", duration=8.0), seed=1,
        killed=False,
    ),
    Mutant(
        "reconcile_no_deletes",
        "reconciliation installs what is missing but deletes nothing orphaned",
        mock.patch.object(NiceControllerApp, "reconcile", _reconcile_without_deletes),
        chaos_cell,
        dict(mode="nice", schedule="controller_outage", duration=8.0, standbys=1), seed=1,
        killed=False,
    ),
)}


def mutant_cell(name: str, seed: int) -> Dict:
    """Run mutant ``name``'s cell at ``seed`` with its patch applied; the
    row is the cell's own, labelled ``mutant: name``."""
    mutant = MUTANTS[name]
    with mutant.patch or contextlib.nullcontext():
        row = mutant.cell(**mutant.params, seed=seed)
    return {**row, "mutant": name}

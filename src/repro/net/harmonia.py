"""Switch-side dirty-set registry for Harmonia-mode reads (DESIGN.md §5j).

Harmonia (arXiv 1904.08964) lets the network serve strongly-consistent
reads from *any* replica: the switch tracks in-flight writes in a
dirty-set and only load-balances reads whose key has no write in flight;
dirty keys fall back to the primary, which serializes them behind the
write lock.  NICE's data plane already sees every message the dirty-set
needs — the multicast put, the 2PC commit/abort control multicasts and
the put reply all transit the rewriting switch — so the registry is fed
purely by passive observation in the switch pipeline, no protocol change.

One :class:`HarmoniaRegistry` is shared by every switch of a cluster
(the paper's switch state, factored out so a leaf–spine fabric behaves
like one logical switch).  Lifecycle of one put:

* first ``put`` data packet observed  -> ``op_id`` marked dirty on its key
* ``abort`` control multicast         -> entry cleared (nothing committed)
* ``put_reply status=ok``             -> entry cleared (every consistent
  replica applied before the primary's reply was sent)
* ``put_reply status=fail``           -> the key is *pinned* to the
  primary until the partition's next rule re-sync: some replica missed
  the commit, so only the primary is known-fresh (§4.4 drain guard)

The *commit* multicast's transit clears nothing: the replicas have not
applied it yet (``check/mutants.py``'s ``harmonia_commit_clear`` is that
bug, and the chaos suite must catch it).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

__all__ = ["HarmoniaRegistry"]

#: Resolved-op memory bound (mirrors the storage node's dedup caches).
_RESOLVED_LIMIT = 4096


class HarmoniaRegistry:
    """Cluster-wide dirty-set, pin-set and round-robin state."""

    def __init__(self, ring):
        #: The unicast vring — key -> partition (uni and mc share the
        #: key -> subgroup mapping, so either ring works).
        self.ring = ring
        #: op_id -> key, for every put currently in flight.
        self._key_of: Dict[Tuple, str] = {}
        #: key -> set of in-flight op_ids writing it.
        self._dirty: Dict[str, Set[Tuple]] = {}
        #: key -> partition, for keys stuck on the primary after a failed
        #: put; cleared by :meth:`on_sync` for that partition.
        self._pinned: Dict[str, int] = {}
        #: op_ids already resolved (dedups the same message observed at
        #: several switches, and late data-packet copies).  Insertion
        #: ordered; oldest entries are evicted at the bound.
        self._resolved: Dict[Tuple, bool] = {}
        #: partition -> round-robin cursor for clean reads.
        self._rr: Dict[int, int] = {}
        # Observation counters (obs/figure plumbing reads these).
        self.marks = 0
        self.clears = 0
        self.pins = 0
        self.balanced_reads = 0
        self.fallback_reads = 0

    # -- pipeline observation hook -----------------------------------------
    def observe(self, packet) -> None:
        """Feed one transiting packet; idempotent per logical message."""
        payload = packet.payload
        if type(payload) is tuple:
            if not payload:
                return
            kind = payload[0]
            if kind == "mc_data" and len(payload) >= 4:
                body = payload[3]
                if isinstance(body, dict) and body.get("type") == "put":
                    self._mark(tuple(body["op_id"]), body["key"])
            elif kind == "mc_ctrl" and len(payload) >= 2:
                body = payload[1]
                if isinstance(body, dict) and body.get("type") == "abort":
                    self._resolve(tuple(body["op_id"]), pin=False)
        elif isinstance(payload, dict) and payload.get("kind") == "data":
            body = payload.get("payload")
            if isinstance(body, dict) and body.get("type") == "put_reply":
                op_id = tuple(body["op_id"])
                self._resolve(op_id, pin=body.get("status") != "ok")

    def _mark(self, op_id: Tuple, key: str) -> None:
        if op_id in self._resolved or op_id in self._key_of:
            return
        self._key_of[op_id] = key
        self._dirty.setdefault(key, set()).add(op_id)
        self.marks += 1

    def _resolve(self, op_id: Tuple, pin: bool) -> None:
        if op_id in self._resolved:
            return
        self._resolved[op_id] = True
        if len(self._resolved) > _RESOLVED_LIMIT:
            self._resolved.pop(next(iter(self._resolved)))
        key = self._key_of.pop(op_id, None)
        if key is None:
            return
        ops = self._dirty.get(key)
        if ops is not None:
            ops.discard(op_id)
            if not ops:
                del self._dirty[key]
        self.clears += 1
        if pin:
            self._pinned[key] = self.ring.subgroup_of_key(key)
            self.pins += 1

    # -- read-path queries ---------------------------------------------------
    def is_dirty(self, key: Optional[str]) -> bool:
        """Must this key's reads go to the primary right now?"""
        if key is None:
            return True  # unparseable get: be conservative
        return key in self._dirty or key in self._pinned

    def next_index(self, partition: int, n: int) -> int:
        """Round-robin cursor for a clean read over ``n`` replicas."""
        i = self._rr.get(partition, 0)
        self._rr[partition] = i + 1
        return i % n

    # -- control-plane lifecycle ---------------------------------------------
    def on_sync(self, partition: int) -> None:
        """A rule re-sync for ``partition`` landed: post-sync rules only
        target get-visible replicas (and the §4.4 server-side drain guards
        forward anything stale), so pins and leftover in-flight entries of
        the partition — e.g. a put whose reply was lost — can drop."""
        for key in [k for k, p in self._pinned.items() if p == partition]:
            del self._pinned[key]
        stale = [
            op_id
            for op_id, key in self._key_of.items()
            if self.ring.subgroup_of_key(key) == partition
        ]
        for op_id in stale:
            key = self._key_of.pop(op_id)
            ops = self._dirty.get(key)
            if ops is not None:
                ops.discard(op_id)
                if not ops:
                    del self._dirty[key]

    # -- introspection ---------------------------------------------------------
    def dirty_keys(self) -> Set[str]:
        return set(self._dirty) | set(self._pinned)

    def stats(self) -> Dict[str, int]:
        return {
            "marks": self.marks,
            "clears": self.clears,
            "pins": self.pins,
            "balanced_reads": self.balanced_reads,
            "fallback_reads": self.fallback_reads,
            "inflight": len(self._key_of),
            "pinned": len(self._pinned),
        }

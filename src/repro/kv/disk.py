"""Simulated persistent storage device.

Models an SSD (the testbed nodes have 120 GB SSDs, §6) as a capacity-1
resource with per-op base latency plus byte-rate service time.  *Forced*
writes (the gray boxes of Fig 3 — log appends and object writes that must
be durable before acknowledging) additionally wait for a flush.

Flushes are *group-committed*: concurrent forced writes share one flush
cycle, as real write-ahead logs do — a lone put still pays the full flush
latency, but a node absorbing hundreds of concurrent puts is not
flush-count-bound.

Crash consistency (DESIGN.md §5k): completed writes land in a modeled
volatile cache first.  Every write is issued a monotonically increasing
sequence number; a flush cycle advances the *durability barrier*
``durable_seq`` to the highest sequence whose transfer had completed
before the cycle started (the capacity-1 FIFO device guarantees writes
complete in issue order).  ``dirty_bytes`` tracks the unflushed window.
``crash()`` models power loss: everything above the barrier is gone.
A *process* crash, by contrast, does not touch the disk at all — the
write cache is below the failing software, exactly as an OS page cache
survives an application crash.

The epoch guard keeps chaos runs bit-reproducible: in-flight IO and
flush cycles continue on their original timeline across a crash (their
events fire exactly when they would have), but completions from a
pre-crash epoch no longer advance the post-crash durability state.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..sim import URGENT, Counter, Event, Resource, Simulator

__all__ = ["Disk"]


class Disk:
    """One node's storage device; all IO serializes through it."""

    def __init__(
        self,
        sim: Simulator,
        write_bandwidth_bps: float = 400e6 * 8,
        read_bandwidth_bps: float = 900e6 * 8,
        base_latency_s: float = 60e-6,
        flush_latency_s: float = 300e-6,
        name: str = "disk",
    ):
        if write_bandwidth_bps <= 0 or read_bandwidth_bps <= 0:
            raise ValueError("disk bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.write_bandwidth_bps = write_bandwidth_bps
        self.read_bandwidth_bps = read_bandwidth_bps
        self.base_latency_s = base_latency_s
        self.flush_latency_s = flush_latency_s
        #: Factory parameters; ``set_degraded`` scales away from these and
        #: the fail-slow health signal is measured against them.
        self._nominal = (write_bandwidth_bps, read_bandwidth_bps, base_latency_s)
        self.degraded_factor = 1.0
        self._device = Resource(sim, capacity=1, name=f"{name}.device")
        self._flush_waiters: List[Event] = []
        self._flusher_running = False
        # -- durability state (§5k) ------------------------------------
        self._epoch = 0
        self._issued_seq = 0
        self._completed_seq = 0
        #: Highest write sequence covered by a completed flush; writes at
        #: or below the barrier survive power loss.
        self.durable_seq = 0
        self.dirty_bytes = 0
        self._dirty: Deque[Tuple[int, int]] = deque()
        # -- fail-slow health signal -----------------------------------
        self._ratio_sum = 0.0
        self._ratio_n = 0
        #: Flush-cycle clock for cache-resident metadata (WAL removals):
        #: an update made at time T is durable once a cycle that *started*
        #: after T completes — ``done > started_at_T``.
        self.flush_cycles_started = 0
        self.flush_cycles_done = 0
        self.bytes_written = Counter(f"{name}.bytes_written")
        self.bytes_read = Counter(f"{name}.bytes_read")
        self.writes = Counter(f"{name}.writes")
        self.reads = Counter(f"{name}.reads")
        self.flushes = Counter(f"{name}.flushes")
        self.power_losses = Counter(f"{name}.power_losses")

    @property
    def issued_seq(self) -> int:
        """Sequence number of the most recently issued write.  Read this
        immediately after ``write()`` returns to tag the write."""
        return self._issued_seq

    def is_durable(self, seq: int) -> bool:
        """Whether write ``seq`` has been covered by a flush.  Only
        meaningful for sequences issued in the current power epoch."""
        return seq <= self.durable_seq

    def write(self, nbytes: int, forced: bool = False) -> Event:
        """Persist ``nbytes``; returns an Event to ``yield`` on."""
        if nbytes < 0:
            raise ValueError(f"negative write size: {nbytes}")
        self._issued_seq += 1
        return _Io(self, nbytes, forced, True, self._issued_seq)

    def read(self, nbytes: int) -> Event:
        """Fetch ``nbytes``; returns an Event to ``yield`` on."""
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        return _Io(self, nbytes, False, False, 0)

    def _flush_cycle(self) -> None:
        """Back-to-back flush cycles while demand exists; each cycle covers
        every write that finished its transfer before the cycle started
        (the cycle rides on its timer's value)."""
        if not self._flush_waiters:
            self._flusher_running = False
            return
        covered, self._flush_waiters = self._flush_waiters, []
        self.flush_cycles_started += 1
        timer = self.sim.timeout(
            self.flush_latency_s, (covered, self._epoch, self._completed_seq)
        )
        timer._callbacks = [self._end_cycle]

    def _end_cycle(self, timer: Event) -> None:
        covered, epoch, barrier = timer._value
        self.flushes.value += 1
        if epoch == self._epoch:
            self._advance_barrier(barrier)
            self.flush_cycles_done += 1
        for ev in covered:
            ev.succeed()
        self._flush_cycle()

    def _advance_barrier(self, barrier: int):
        if barrier <= self.durable_seq:
            return
        self.durable_seq = barrier
        dirty = self._dirty
        while dirty and dirty[0][0] <= barrier:
            self.dirty_bytes -= dirty.popleft()[1]

    def crash(self) -> int:
        """Power loss: the volatile write cache is discarded.  Returns the
        durability barrier — everything issued above it never reached the
        platter.  In-flight IO and flush cycles keep their original
        timeline (their waiters fire on schedule; the resumed processes
        observe the dead host and bail), but pre-crash completions no
        longer advance post-crash durability state."""
        self._epoch += 1
        self._dirty.clear()
        self.dirty_bytes = 0
        self._completed_seq = self.durable_seq
        self._ratio_sum = 0.0
        self._ratio_n = 0
        self.power_losses.add()
        return self.durable_seq

    # -- fail-slow -----------------------------------------------------
    def set_degraded(self, factor: float = 1.0) -> None:
        """Scale service times by ``factor`` (the chaos ``disk_slow``
        knob); ``factor <= 1`` restores the factory parameters."""
        factor = max(1.0, float(factor))
        nom_w, nom_r, nom_base = self._nominal
        self.degraded_factor = factor
        self.write_bandwidth_bps = nom_w / factor
        self.read_bandwidth_bps = nom_r / factor
        self.base_latency_s = nom_base * factor

    def consume_service_ratio(self) -> Optional[float]:
        """Mean observed/nominal service-time ratio since the last call
        (the heartbeat-driven fail-slow detector's input), or ``None``
        when no IO completed in the window."""
        if self._ratio_n == 0:
            return None
        ratio = self._ratio_sum / self._ratio_n
        self._ratio_sum = 0.0
        self._ratio_n = 0
        return ratio


class _Io(Event):
    """One transfer, returned by :meth:`Disk.write` / :meth:`Disk.read`: a
    callback chain that schedules the records of the process it replaced
    (DESIGN.md §5g) — the URGENT start, the device grant, the service
    timeout and, for a forced write, the flush-join event — and completes
    like a process, through a record only when someone waits on it.  Each
    event below is fresh and unwatched, so it takes its one callback by
    assignment, exactly as a process yielding it would."""

    __slots__ = ("disk", "nbytes", "forced", "write", "seq", "epoch", "_req")

    def __init__(self, disk: Disk, nbytes: int, forced: bool, write: bool, seq: int):
        super().__init__(disk.sim)
        self.disk = disk
        self.nbytes = nbytes
        self.forced = forced
        self.write = write
        self.seq = seq
        self.epoch = disk._epoch
        disk.sim._schedule_call(0.0, self._start, priority=URGENT)

    def _start(self) -> None:
        self._req = req = self.disk._device.request()
        req._callbacks = [self._granted]

    def _granted(self, _req: Event) -> None:
        disk = self.disk
        bw = disk.write_bandwidth_bps if self.write else disk.read_bandwidth_bps
        timer = disk.sim.timeout(disk.base_latency_s + self.nbytes * 8.0 / bw)
        timer._callbacks = [self._served]

    def _served(self, timer: Event) -> None:
        disk, nbytes, write = self.disk, self.nbytes, self.write
        if write:
            disk.bytes_written.value += nbytes
            disk.writes.value += 1
        else:
            disk.bytes_read.value += nbytes
            disk.reads.value += 1
        # Health signal: observed service time over the factory-spec
        # expectation for the same transfer (queueing excluded, so a
        # degraded device reads as exactly its slowdown factor).
        nom_w, nom_r, nom_base = disk._nominal
        expected = nom_base + nbytes * 8.0 / (nom_w if write else nom_r)
        if expected > 0.0:  # zero-cost transfers carry no signal
            disk._ratio_sum += timer.delay / expected
            disk._ratio_n += 1
        if write and self.epoch == disk._epoch:
            disk._completed_seq = self.seq
            disk._dirty.append((self.seq, nbytes))
            disk.dirty_bytes += nbytes
        self._req.release()
        if not self.forced:
            self._complete()
            return
        # Group commit: join the next flush cycle; the flusher's start
        # record goes where its process used to be spawned.
        done = Event(disk.sim)
        done._callbacks = [self._flushed]
        disk._flush_waiters.append(done)
        if not disk._flusher_running:
            disk._flusher_running = True
            disk.sim._schedule_call(0.0, disk._flush_cycle, priority=URGENT)

    def _flushed(self, _done: Event) -> None:
        self._complete()

"""The paper's claims, each stated once and held to a band over the rows.

A :class:`Claim` names the experiment it reads, the paper's wording and
number, the measured value as a function of the experiment's
:class:`~repro.bench.harness.ExperimentResult` (rows *and* notes), and
the closed band ``[lo, hi]`` that value must fall in.  :func:`check` is
the ``check`` of every figure, §4.6 and ablation record: ``bench figN``
and ``bench all`` print :func:`table` and exit 1 on a failure, and tier-1
runs the same function over the committed ``BENCH_figures.json``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .harness import ExperimentResult
from .report import _fmt

MB = 1 << 20
INF = math.inf
PRIMARY, TWO_PC = "NOOB primary-only", "NOOB 2PC"

Measure = Callable[[ExperimentResult], float]


@dataclass(frozen=True)
class Claim:
    """One claim of the paper about one experiment of ``bench all``."""

    figure: str
    #: What is measured, then the paper's wording and number in parentheses.
    paper: str
    measured: Measure
    band: Tuple[float, float]

    def verdict(self, result: ExperimentResult) -> Tuple[float, bool]:
        """The measured value (nan when a row, field or note it reads is
        missing or a denominator is zero) and whether it lies in the band."""
        try:
            value = float(self.measured(result))
        except (LookupError, ValueError, ZeroDivisionError):
            value = math.nan
        return value, self.band[0] <= value <= self.band[1]


# ----------------------------------------------------------------- readers
def _at(result: ExperimentResult, metric: str, **where) -> float:
    """``metric`` of the one row matching ``where`` (ValueError otherwise)."""
    (value,) = result.column(metric, where)
    return value


def _get(metric: str, **where) -> Measure:
    return lambda r: _at(r, metric, **where)


def _ratio(metric: str, num: str, den: str, **where) -> Measure:
    """``metric`` of system ``num`` over system ``den``, both at ``where``."""
    return lambda r: _at(r, metric, system=num, **where) / _at(r, metric, system=den, **where)


def _steps(metric: str, systems: Tuple[str, ...], **where) -> Measure:
    """Smallest ratio between neighbours of ``systems`` (fastest first):
    at least 1 exactly when the ordering holds."""
    return lambda r: min(
        _ratio(metric, b, a, **where)(r) for a, b in zip(systems, systems[1:])
    )


def _over_r(agg, metric: str, num: str, den: str, size: int, least_r: int = 1) -> Measure:
    """``agg`` (min or max) of ``num / den`` over the replication levels
    from ``least_r`` up."""
    return lambda r: agg(
        _ratio(metric, num, den, replication=n, size_bytes=size)(r)
        for n in r.column("replication", {"system": num, "size_bytes": size})
        if n >= least_r
    )


def _r9_over_r1(metric: str, system: str) -> Measure:
    """How ``system``'s 1 MB ``metric`` degrades from R = 1 to R = 9."""
    return lambda r: _at(r, metric, system=system, replication=9, size_bytes=MB) / _at(
        r, metric, system=system, replication=1, size_bytes=MB
    )


def _one(values: List[float]) -> float:
    """The value every row shares; nan when they differ (or there are none)."""
    return values[0] if len(set(values)) == 1 else math.nan


def _entries_per_node(lb: bool) -> Measure:
    return lambda r: _one([
        row["entries"] / row["nodes"]
        for row in r.rows
        if row["source"] == "measured" and row["load_balancing"] == lb
    ])


_EVENT = re.compile(r"t=([\d.]+)s: \S+ (\w+)$")


def _when(result: ExperimentResult, event: str) -> float:
    """The time the run's own notes give for ``event`` (fails / rejoins /
    consistent)."""
    (t,) = [float(m[1]) for m in map(_EVENT.match, result.notes) if m and m[2] == event]
    return t


def _mean_rate(result: ExperimentResult, column: str, start: float, end: float) -> float:
    """Mean of ``column`` over the bins that start in [start, end)."""
    values = [row[column] for row in result.rows if start <= row["t_s"] < end]
    return sum(values) / len(values)


def _gets_every_phase(r: ExperimentResult) -> float:
    fail, rejoin = _when(r, "fails"), _when(r, "rejoins")
    phases = ((0.0, fail), (fail, rejoin), (rejoin, INF))
    return min(_mean_rate(r, "gets_per_s", *phase) for phase in phases)


def _put_outage(r: ExperimentResult) -> float:
    """Seconds from the failure to the end of the last bin holding a failed
    put; inf when a put failed before the node did."""
    fail = _when(r, "fails")
    width = r.rows[1]["t_s"] - r.rows[0]["t_s"]
    ends = [row["t_s"] + width for row in r.rows if row["failed_puts_per_s"] > 0]
    return INF if any(end <= fail for end in ends) else max(ends, default=fail) - fail


def _handoff_put_rate(r: ExperimentResult) -> float:
    fail = _when(r, "fails")
    during = _mean_rate(r, "puts_per_s", fail + 2.0, _when(r, "rejoins"))
    return during / _mean_rate(r, "puts_per_s", 0.0, fail)


def _ovs_over_hw(r: ExperimentResult, size: int) -> float:
    return _at(r, "get_ms", deployment="ovs", size_bytes=size) / _at(
        r, "get_ms", deployment="hw", size_bytes=size
    )


def _c(figure: str, paper: str, measured: Measure, lo: float, hi: float = INF) -> Claim:
    return Claim(figure, paper, measured, (lo, hi))


CLAIMS: Tuple[Claim, ...] = (
    # Fig 4 — get routing
    _c("fig4", "get time |RAC / NICE - 1|, worst size (paper: NICE and RAC completely overlap)",
       lambda r: max(abs(_ratio("get_ms", "NOOB+RAC", "NICE", size_bytes=s)(r) - 1)
                     for s in r.column("size_bytes", {"system": "NICE"})), 0, 0.1),
    _c("fig4", "get time ROG / NICE at 4 B (paper: ~2x up to 64 KB)",
       _ratio("get_ms", "NOOB+ROG", "NICE", size_bytes=4), 1.5),
    _c("fig4", "get time RAG / NICE at 4 B (paper: ~1.5x up to 64 KB)",
       _ratio("get_ms", "NOOB+RAG", "NICE", size_bytes=4), 1.2, 2.0),
    _c("fig4", "get time slowest / fastest system at 1 MB (paper: the benefit disappears)",
       lambda r: max(r.column("get_ms", {"size_bytes": MB}))
       / min(r.column("get_ms", {"size_bytes": MB})), 1, 1.15),
    # Fig 5 — put time
    _c("fig5", "put time, smallest step of NICE < RAC < RAG < ROG at 1 MB (paper: that order)",
       _steps("put_ms", ("NICE", "NOOB+RAC", "NOOB+RAG", "NOOB+ROG"), size_bytes=MB), 1),
    *(
        _c("fig5", f"put time {name[5:]} / NICE at 1 MB (paper: up to {paper})",
           _ratio("put_ms", name, "NICE", size_bytes=MB), lo, hi)
        for name, paper, lo, hi in (
            ("NOOB+RAC", "2.6x", 1.8, 3.5),
            ("NOOB+RAG", "3.4x", 2.3, 4.5),
            ("NOOB+ROG", "4.3x", 3.0, 5.5),
        )
    ),
    _c("fig5", "put time NICE / RAC at 4 B (paper Fig 9a: comparable)",
       _ratio("put_ms", "NICE", "NOOB+RAC", size_bytes=4), 0, 1.6),
    # Fig 6 — link load at 1 MB, in object sizes: a hop-count identity
    *(
        _c("fig6", f"link bytes / object, {name} at 1 MB ({why})",
           _get("x_object_size", system=system, size_bytes=MB), want * (1 - tol), want * (1 + tol))
        for name, system, why, want, tol in (
            ("NICE", "NICE", "1 uplink + R = 3 downlinks = 4", 4.0, 0.02),
            ("RAC", "NOOB+RAC", "2 + 2(R - 1) = 6", 6.0, 0.02),
            ("RAG", "NOOB+RAG", "RAC + 2 gateway links = 8", 8.0, 0.02),
            ("ROG", "NOOB+ROG", "a random extra hop: ~10", 10.0, 0.08),
        )
    ),
    *(
        _c("fig6", f"link load {name[5:]} / NICE at 1 MB (paper: 1.7x-3.5x less)",
           _ratio("link_bytes_per_op", name, "NICE", size_bytes=MB), lo)
        for name, lo in (("NOOB+RAC", 1.4), ("NOOB+RAG", 1.9), ("NOOB+ROG", 2.3))
    ),
    # Fig 7 — storage load ratio at 1 MB
    *(
        _c("fig7", f"primary / secondary IO, {name[5:]} at 1 MB (paper: R = 3)",
           _get("load_ratio", system=name, size_bytes=MB), 2.85, 3.15)
        for name in ("NOOB+RAC", "NOOB+RAG")
    ),
    _c("fig7", "primary / secondary IO, ROG at 1 MB (paper: R = 3; a random first hop "
       "sometimes lands on a secondary)",
       _get("load_ratio", system="NOOB+ROG", size_bytes=MB), 2.0, 3.3),
    _c("fig7", "primary / secondary IO, NICE at 1 MB (paper: 1, balanced by design)",
       _get("load_ratio", system="NICE", size_bytes=MB), 0.9, 1.1),
    # Fig 8 — 1 MB quorum puts, R = 7, three replicas at 50 Mbps
    _c("fig8", "put time NOOB / NICE, lower of k = 1 and 3 (paper: up to 5.6x)",
       lambda r: min(_ratio("put_ms", "NOOB", "NICE", quorum=k)(r) for k in (1, 3)), 2.0),
    _c("fig8", "put time at k = 7 / NICE at k = 1, faster system (paper: both suffer at "
       "k = 5, 7)",
       lambda r: min(r.column("put_ms", {"quorum": 7}))
       / _at(r, "put_ms", system="NICE", quorum=1), 3.0),
    _c("fig8", "NOOB / NICE put time at k = 7 over at k = 1 (paper: the gap narrows)",
       lambda r: _ratio("put_ms", "NOOB", "NICE", quorum=7)(r)
       / _ratio("put_ms", "NOOB", "NICE", quorum=1)(r), 0, 1),
    _c("fig8", "|bandwidth x put time / 1 MB - 1|, worst row (paper: (b) restates (a))",
       lambda r: max(abs(row["bandwidth_MBps"] * row["put_ms"] * 1e3 / MB - 1) for row in r.rows),
       0, 1e-6),
    # Fig 9 — put time vs replication level
    _c("fig9", "4 B put time NICE / primary-only, worst R (paper: comparable despite the "
       "extra phase)",
       _over_r(max, "put_ms", "NICE", PRIMARY, 4), 0, 1.5),
    _c("fig9", "4 B put time 2PC / NICE, least over R >= 3 (paper: up to 1.3x)",
       _over_r(min, "put_ms", TWO_PC, "NICE", 4, least_r=3), 1.2),
    _c("fig9", "1 MB put time 2PC / NICE at R = 9 (paper: up to 5.5x)",
       _ratio("put_ms", TWO_PC, "NICE", replication=9, size_bytes=MB), 3.5),
    _c("fig9", "1 MB primary-only put time R = 9 / R = 1 (paper: 7x)",
       _r9_over_r1("put_ms", PRIMARY), 3.5),
    _c("fig9", "1 MB NICE put time R = 9 / R = 1 (paper: +17 %)",
       _r9_over_r1("put_ms", "NICE"), 0, 1.25),
    _c("fig9", "4 B put time 2PC / primary-only, least over R >= 3 (paper: 2PC costs a phase)",
       _over_r(min, "put_ms", TWO_PC, PRIMARY, 4, least_r=3), 1),
    # Fig 10 — hot-object weak scaling
    _c("fig10", "1 MB primary-only op time R = 9 / R = 1 (paper: 3.5x)",
       _r9_over_r1("op_ms", PRIMARY), 2.5),
    _c("fig10", "1 MB NICE op time R = 9 / R = 1 (paper: +20 %)",
       _r9_over_r1("op_ms", "NICE"), 0, 1.4),
    _c("fig10", "1 MB op time primary-only / NICE at R = 9 (paper: up to 7.5x)",
       _ratio("op_ms", PRIMARY, "NICE", replication=9, size_bytes=MB), 3.0),
    _c("fig10", "1 MB op time 2PC / NICE at R = 9 (paper: up to 5.5x)",
       _ratio("op_ms", TWO_PC, "NICE", replication=9, size_bytes=MB), 1.3),
    _c("fig10", "4 B get-only marker primary-only / NICE at R = 9 (paper: NICE spreads gets, "
       "primary-only cannot)",
       _ratio("get_only_ms", PRIMARY, "NICE", replication=9, size_bytes=4), 1),
    _c("fig10", "1 MB 2PC op time / its get-only marker at R = 9 (paper: 2PC's significant "
       "overhead)",
       lambda r: _at(r, "op_ms", system=TWO_PC, replication=9, size_bytes=MB)
       / _at(r, "get_only_ms", system=TWO_PC, replication=9, size_bytes=MB), 1),
    # Fig 11 — the failure, rejoin and consistent times are the run's own notes
    _c("fig11", "gets/s, lowest mean of before / during / after the failure (paper: service "
       "continues)",
       _gets_every_phase, 1),
    _c("fig11", "s from the failure to the end of the last failed put (paper: under 2 s)",
       _put_outage, 0, 2.0),
    _c("fig11", "put rate from failure + 2 s to the rejoin / before the failure (paper: the "
       "handoff takes over)", _handoff_put_rate, 0.8, 1.2),
    _c("fig11", "s from the rejoin to get-visible (paper: ~5 s)",
       lambda r: _when(r, "consistent") - _when(r, "rejoins"), 0, 5.0),
    # Fig 12 — YCSB C and F
    _c("fig12", "errors over every leg (paper: none)", lambda r: sum(r.column("errors")), 0, 0),
    *(
        _c("fig12", f"{wl} throughput NICE / {other[5:]} (paper: {paper})",
           _ratio("throughput_ops_s", "NICE", other, workload=wl), 1)
        for other, wl, paper in (
            (PRIMARY, "C", "1.6x"), (PRIMARY, "F", "2.3x"),
            (TWO_PC, "C", "1.25x"), (TWO_PC, "F", "1.5x"),
        )
    ),
    # §4.6 — forwarding-table usage
    _c("sec46", "measured entries / N without LB (paper: 2; +1 group match per partition = 3)",
       _entries_per_node(False), 3, 3),
    _c("sec46", "measured entries / N with LB (paper: R + 1; + default + group match = 6)",
       _entries_per_node(True), 6, 6),
    _c("sec46", "entries at 65 536 nodes without LB (paper: fit a 128K table)",
       _get("entries", source="analytic", load_balancing=False, nodes=65536), 0, 128 * 1024),
    _c("sec46", "entries at 32 768 nodes with LB, R = 3 (paper: (R + 1)N = 128K, fit)",
       _get("entries", source="analytic", load_balancing=True, nodes=32768),
       128 * 1024, 128 * 1024),
    # Ablations (EXPERIMENTS.md §Ablations)
    _c("ablation-chain", "1 MB put time, smallest step of NICE < fan-out < chain (§4.2: chain "
       "latency grows with its length)",
       _steps("put_ms", ("NICE", "NOOB primary fan-out", "NOOB chain"), size_bytes=MB), 1),
    *(
        _c("ablation-lb", f"LB {'on' if on else 'off'}: {what} (§4.5)",
           _get(column, load_balancing=on), lo, hi)
        for on, what, column, lo, hi in (
            (True, "replicas serving hot-object gets, all R = 3", "replicas_serving", 3, 3),
            (True, "primary's share of gets, 2 of 5 getters", "primary_share", 0.35, 0.45),
            (False, "replicas serving hot-object gets, the primary only", "replicas_serving", 1, 1),
            (False, "primary's share of gets, all", "primary_share", 1, 1),
        )
    ),
    _c("ablation-membership", "NOOB messages per membership change / N (§4.1: a broadcast to "
       "every node)",
       lambda r: _one([m / n for m, n in zip(r.column("noob_node_msgs"), r.column("nodes"))]),
       1, 1),
    _c("ablation-membership", "NICE node messages mod R = 3, worst N (§4.1: R per affected "
       "partition)", lambda r: max(m % 3 for m in r.column("nice_node_msgs")), 0, 0),
    _c("ablation-deployment", "get time ovs / hw, worst size (§5.1: one extra software-switch "
       "hop)",
       lambda r: max(_ovs_over_hw(r, s) for s in r.column("size_bytes", {"deployment": "hw"})),
       1, 1.5),
    _c("ablation-deployment", "ovs / hw get time at 1 MB over at 4 B (a store-and-forward hop "
       "grows with size: no convergence)",
       lambda r: _ovs_over_hw(r, MB) / _ovs_over_hw(r, 4), 1),
    _c("ablation-sw-rewrite", "1 KB get time, 5 ms software rewrite / hardware (§5.1: ~1000x "
       "slower switching)",
       lambda r: _at(r, "get_ms", rewrite_penalty_s=5e-3) / _at(r, "get_ms", rewrite_penalty_s=0.0),
       10),
)


def _verdicts(result: ExperimentResult):
    for claim in CLAIMS:
        if claim.figure == result.name:
            yield (claim, *claim.verdict(result))


def _band(claim: Claim) -> str:
    return f"[{claim.band[0]:g}, {claim.band[1]:g}]"


def check(result: ExperimentResult) -> List[str]:
    """One failure string per claim on ``result`` whose value left its band."""
    return [
        f"{claim.figure}: {claim.paper}: measured {_fmt(value)}, want {_band(claim)}"
        for claim, value, holds in _verdicts(result)
        if not holds
    ]


def table(result: ExperimentResult) -> str:
    """Each claim on ``result`` as holds / measured / band / the claim
    ("" if it has none)."""
    lines = [
        f"{'yes' if holds else 'NO':>5}  {_fmt(value):>9}  {_band(claim):<16}  {claim.paper}"
        for claim, value, holds in _verdicts(result)
    ]
    header = f"{'holds':>5}  {'measured':>9}  {'band':<16}  claim"
    return "\n".join([header, *lines]) if lines else ""

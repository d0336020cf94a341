"""The chaos × consistency matrix: its plan, its report and its gate.

For every (access mode, fault schedule, seed) the plan names one cell of
:mod:`~repro.bench.chaos.cells`; :func:`run_suite` runs them, plus one
cell per entry of the mutant table (:mod:`repro.check.mutants`), and
writes the pass/fail matrix to ``BENCH_chaos.json``.  Everything else
here — :func:`summarize`, :func:`check`, :func:`format_report` — is a
pure function of the report's rows.

Expectations encode the paper's claim (§3.3, §4.5): NICE and the honestly
configured baselines stay linearizable and durable through every
schedule.  The mutant table shows the oracles bite: the suite fails
(non-zero exit) if an honest cell fails a gate *or* the set of killed
mutants differs from the one the table expects.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from ...chaos import controlplane_schedules, named, standard_schedules
from ...check import mutants as mutant_table
from ..parallel import Cell, drain_records, provenance, run_cells
from .cells import (
    bit_rot_cell,
    chaos_cell,
    durability_cell,
    fail_slow_cell,
    harmonia_midput_cell,
    torn_wal_cell,
)

DEFAULT_OUT = "BENCH_chaos.json"
SCHEMA_VERSION = 7

#: The matrix's access modes (keys of ``harness.SYSTEMS``, which say how
#: each is built), in plan order.
MODES = ("nice", "rac-2pc", "rag-2pc", "rog-2pc", "rac-quorum", "harmonia")

#: Honest modes with a *known* hazard under packet loss: NOOB-2PC never
#: retransmits a lost commit, so one replica can stay prepared/stale while
#: round-robin reads serve the other — a genuine partial-commit window the
#: chaos suite documents rather than hides.  Their violations under a
#: loss-bearing schedule are recorded as "tolerated"; anywhere else they
#: fail the suite.  NICE is never fragile (§4.3; see ROADMAP item 1).
LOSS_FRAGILE = frozenset({"rac-2pc", "rag-2pc", "rog-2pc"})

#: The schedule families ``run_suite`` plans: the standard matrix every
#: mode runs, and the NICE-only control-plane (one metadata standby) and
#: §5k durability cells beside it.  (Names do not depend on the key.)
STANDARD_SCHEDULES = (*standard_schedules(""), "random[101]", "random[202]")
CP_SCHEDULES = tuple(sorted(controlplane_schedules("")))
#: A durability name that is a directed cell, not a schedule for ``chaos_cell``.
DIRECTED = {"torn_wal": torn_wal_cell, "bit_rot": bit_rot_cell, "fail_slow": fail_slow_cell}
DURABILITY_SCHEDULES = ("power_blackout", *DIRECTED)


def plan(
    modes: List[str], schedules: List[str], seeds: int, baseline_seeds: int, duration: float
) -> List[Cell]:
    """The matrix as cells, in case order (mode → schedule → seed).

    NICE gets the full ``seeds`` sweep (the paper's headline claim);
    baselines get ``baseline_seeds`` each to bound wall time.  An unknown
    schedule name is rejected here, before any cell runs."""
    for name in schedules:
        if name not in DIRECTED:
            named(name, "")
    std_names = [n for n in schedules if n not in CP_SCHEDULES + DURABILITY_SCHEDULES]
    cells = [
        Cell(chaos_cell, dict(mode=mode, schedule=name, duration=duration), seed=seed)
        for mode in modes
        if mode != "harmonia"
        for name in std_names
        for seed in range(1, (seeds if mode == "nice" else baseline_seeds) + 1)
    ]
    if "harmonia" in modes:
        # Harmonia runs the standard suite plus the rule_flap schedule (its
        # read rules are flow state the flap attacks) and the directed
        # mid-put cell (the window its dirty-set exists for).
        h_names = std_names if "rule_flap" in std_names else [*std_names, "rule_flap"]
        cells += [
            Cell(chaos_cell, dict(mode="harmonia", schedule=name, duration=duration), seed=seed)
            for name in h_names
            for seed in range(1, baseline_seeds + 1)
        ]
        cells += [
            Cell(harmonia_midput_cell, dict(mode="harmonia"), seed=seed)
            for seed in range(1, baseline_seeds + 1)
        ]
    if "nice" in modes:
        # The control-plane family (metadata-leader crash/failover,
        # controller channel outages), with one metadata standby.
        cells += [
            Cell(
                chaos_cell,
                dict(mode="nice", schedule=name, duration=duration, standbys=1),
                seed=seed,
            )
            for name in CP_SCHEDULES
            if name in schedules
            for seed in range(1, seeds + 1)
        ]
        # The durability family (§5k): power blackout, the directed
        # torn-tail cell, bit-rot vs the scrubber, the fail-slow drain
        # (harmonia reads).
        d_seeds = range(1, baseline_seeds + 1)
        if "power_blackout" in schedules:
            cells += [
                Cell(
                    durability_cell,
                    dict(mode="nice", schedule="power_blackout", duration=max(duration, 10.0)),
                    seed=seed,
                )
                for seed in d_seeds
            ]
        for name, fn in DIRECTED.items():
            if name in schedules:
                cells += [Cell(fn, {}, seed=seed) for seed in d_seeds]
    return cells


def run_suite(
    seeds: int = 5,
    baseline_seeds: int = 2,
    modes: Optional[List[str]] = None,
    schedules: Optional[List[str]] = None,
    duration: float = 10.0,
    smoke: bool = False,
    out_path: Optional[str] = None,
) -> Dict:
    """Run the :func:`plan`; returns the report dict and writes it to
    ``out_path`` when one is given.

    ``smoke`` shrinks everything for CI.  An unfiltered call (no ``modes``,
    no ``schedules``) also runs the whole mutant table.  Cells fan across
    workers per the session's ``--jobs`` setting; the merged case order
    and every case payload are identical to a sequential run.  The verdict
    is :func:`check`'s, over the finished report.
    """
    mutants = list(mutant_table.MUTANTS) if modes is None and schedules is None else []
    if smoke:
        seeds, baseline_seeds, duration = 2, 1, 8.0
        modes = modes or ["nice", "rac-2pc", "harmonia"]
        schedules = schedules or [
            "crash_rejoin", "partition_rejoin", "primary_crash",
            *CP_SCHEDULES, *DURABILITY_SCHEDULES,
        ]
    modes = modes or list(MODES)
    # ``schedules`` spans all three families; ``None`` means everything.
    if schedules is None:
        schedules = [*STANDARD_SCHEDULES, *CP_SCHEDULES, *DURABILITY_SCHEDULES]
    cells = plan(modes, schedules, seeds, baseline_seeds, duration) + [
        Cell(mutant_table.mutant_cell, dict(name=name), seed=mutant_table.MUTANTS[name].seed)
        for name in mutants
    ]
    t0 = time.perf_counter()
    drain_records()  # isolate this suite's cell records from earlier runs
    cases: List[Dict] = run_cells(cells)
    cell_records = drain_records()
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": "chaos",
        "smoke": smoke,
        "duration_s_per_case": duration,
        "modes": modes,
        "schedules": schedules,
        "planned_mutants": mutants,
        "provenance": provenance(records=cell_records, seeds=seeds),
        "cases": cases,
        "cells": cell_records,
        "wall_s": round(time.perf_counter() - t0, 1),
    }
    report.update(summarize(report))
    report["failures"] = check(report)
    report["passed"] = not report["failures"]
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return report


def _tag(case: Dict) -> str:
    family = case["family"]
    head = family if family in ("controlplane", "durability") else case["mode"]
    return f"{head}/{case['schedule']}/seed{case['seed']}"


def _tolerated(case: Dict) -> bool:
    """A violation the matrix documents rather than fails: a loss-fragile
    mode (see :data:`LOSS_FRAGILE`) under a loss-bearing schedule."""
    return not case["linearizable"] and case["mode"] in LOSS_FRAGILE and case["has_loss"]


def summarize(report: Dict) -> Dict:
    """The human-facing count blocks of a report (``summary``, ``harmonia``,
    ``durability``, ``mutants``), derived from its ``cases``.  :func:`check`
    never reads them back."""
    honest = [c for c in report["cases"] if "mutant" not in c]
    matrix = [c for c in honest if c["family"] not in ("controlplane", "durability")]
    summary: Dict[str, Dict] = {}
    for mode in report["modes"]:
        rows = [c for c in matrix if c["mode"] == mode]
        summary[mode] = {
            "cases": len(rows),
            "violations": sum(not c["linearizable"] for c in rows),
            "tolerated": sum(_tolerated(c) for c in rows),
            "inconclusive": sum(c["inconclusive"] for c in rows),
        }
    blocks: Dict[str, Dict] = {"summary": summary}
    cp_rows = [c for c in honest if c["family"] == "controlplane"]
    if cp_rows:
        cp = [c["controlplane"] for c in cp_rows]
        summary["controlplane"] = {
            "cases": len(cp_rows),
            "violations": sum(not c["linearizable"] for c in cp_rows),
            "tolerated": 0,  # NICE is never loss-fragile
            "inconclusive": sum(c["inconclusive"] for c in cp_rows),
            "promotions": sum(v["promotions"] for v in cp),
            "fenced_flow_mods": sum(v["fenced_flow_mods"] for v in cp),
            "reconcile_matches_scratch": all(v["reconcile_matches_scratch"] for v in cp),
        }
    h_rows = [c for c in matrix if c["mode"] == "harmonia"]
    if h_rows:
        directed = [c for c in h_rows if c["family"] == "harmonia-directed"]
        dirty: Dict[str, int] = {}
        for c in directed:
            for k, v in c["dirty_set"].items():
                dirty[k] = dirty.get(k, 0) + v
        blocks["harmonia"] = {
            "cases": len(h_rows),
            "violations": sum(not c["linearizable"] for c in h_rows),
            "directed_cells": len(directed),
            "stale_replica_reads": sum(c.get("stale_replica_reads", 0) for c in h_rows),
            "dirty_set": dirty,
        }
    d_rows = [c for c in honest if c["family"] == "durability"]
    if d_rows:
        blocks["durability"] = {
            "cells": len(d_rows),
            "acked_lost": sum(not c["durable"] for c in d_rows),
            "torn_detected": sum(c["torn_records"] for c in d_rows),
            "scrub_repairs": sum(c["scrub_repairs"] for c in d_rows),
            "failslow_detected": any(c.get("failslow_detections", 0) > 0 for c in d_rows),
            "failslow_handoffs": sum(c.get("failslow_handoffs", 0) for c in d_rows),
        }
    per: Dict[str, Dict] = {}
    for c in report["cases"]:
        if "mutant" in c:
            mutant = mutant_table.MUTANTS.get(c["mutant"])
            per[c["mutant"]] = {
                "cell": mutant.label if mutant else None,
                "killed": killed(c),
                "failures": gate_failures(c),
            }
    if per:
        n_killed = sum(v["killed"] for v in per.values())
        blocks["mutants"] = {"killed": n_killed, "total": len(per), "per_mutant": per}
    return blocks


def _cell_gates(c: Dict):
    """``(ok, failure text)`` pairs one honest cell must satisfy: a clean,
    conclusive history plus its family's "the trap must spring" conditions."""
    yield c["linearizable"] or _tolerated(c), f"unexpected violation: {c['reason']}"
    yield not c["inconclusive"], f"inconclusive: {c['reason']}"
    family, schedule = c["family"], c["schedule"]
    if family == "controlplane":
        cp = c["controlplane"]
        steady = cp["steady_reconcile"]
        if schedule in ("metadata_failover", "node_meta_crash"):
            yield cp["promotions"], "metadata leader crashed but no standby promoted"
            yield cp["fenced_flow_mods"], "no flow-mod of the deposed leader was fenced"
        yield cp["reconcile_matches_scratch"], "reconciled tables diverge from scratch sync"
        yield (
            not (steady["installed"] or steady["deleted"]),
            f"settled cluster still needed repair: {steady}",
        )
    elif family == "harmonia-directed":
        stale = c["stale_replica_reads"]
        yield stale == 0, f"{stale} stale replica reads served"
    elif family == "durability":
        yield c["durable"], f"acked put lost: {c['durability_reason']}"
        if schedule == "torn_wal":
            yield c["torn_records"], "crash mid-append left no torn tail"
        elif schedule == "bit_rot":
            yield c["scrub_repairs"], "scrubber repaired nothing"
            yield not c["remaining_corrupt"], f"{c['remaining_corrupt']} objects still corrupt"
            yield not c["bitrot_served"], f"{c['bitrot_served']} corrupt values served"
        elif schedule == "fail_slow":
            yield c["failslow_detections"], "fail-slow disk never detected"
            yield c["failslow_handoffs"], "degraded primary never handed off"
            yield not c["degraded_after"], f"still degraded after heal: {c['degraded_after']}"


def gate_failures(c: Dict) -> List[str]:
    """The gates row ``c`` fails, as texts.  An honest cell must fail none."""
    return [text for ok, text in _cell_gates(c) if not ok]


def killed(c: Dict) -> bool:
    """Whether a mutant's row is *killed*: it fails a gate on a conclusive
    history (a search that hit its state limit caught no bug)."""
    return not c["inconclusive"] and bool(gate_failures(c))


def check(report: Dict) -> List[str]:
    """Every gate of the suite, as failure strings (empty = pass).

    A pure function of ``cases`` plus the planned ``modes``/``schedules``/
    ``planned_mutants``, which say what *must* be there: a matrix whose
    trap cell is missing, or never springs, proves nothing; a planned
    mutant's row must be conclusive and :func:`killed` exactly when the
    mutant table says.  ``run_suite``, the CLI exit code, CI and the tier-1
    test over the committed ``BENCH_chaos.json`` take their verdict here.
    """
    if report["schema_version"] != SCHEMA_VERSION:
        return [f"schema_version {report['schema_version']} != {SCHEMA_VERSION}"]
    cases, modes, schedules = report["cases"], report["modes"], report["schedules"]
    failures: List[str] = []
    # The (family, schedule) groups of honest trap cells the plan contains.
    groups = []
    if "harmonia" in modes:
        groups += [("standard", "rule_flap"), ("harmonia-directed", "rack_isolate_midput")]
    if "nice" in modes:
        groups += [("controlplane", n) for n in CP_SCHEDULES if n in schedules]
        groups += [("durability", n) for n in DURABILITY_SCHEDULES if n in schedules]
    mutant_rows = {c["mutant"]: c for c in cases if "mutant" in c}
    ran = set()
    for c in cases:
        if "mutant" not in c:
            ran.add((c["family"], c["schedule"]))
            failures += [f"{_tag(c)}: {text}" for text in gate_failures(c)]
    failures += [
        f"{family}/{schedule}: planned but no honest cell ran"
        for family, schedule in groups
        if (family, schedule) not in ran
    ]
    for name in report["planned_mutants"]:
        row, mutant = mutant_rows.get(name), mutant_table.MUTANTS.get(name)
        if mutant is None:
            failures.append(f"mutant {name}: not in the mutant table")
        elif row is None:
            failures.append(f"mutant {name}: planned but no cell ran")
        elif row["inconclusive"]:
            failures.append(f"mutant {name} inconclusive")
        elif killed(row) != mutant.killed:
            failures.append(
                f"mutant {name} survived" if mutant.killed
                else f"mutant {name} killed; table expects it to survive"
            )
    return failures


def format_report(report: Dict) -> str:
    lines = ["chaos × consistency matrix (ops verified per cell):", ""]
    header = f"{'mode':<12} {'schedule':<18} {'seed':>4} {'ops':>5} {'lin':>5} {'note'}"
    lines.append(header)
    lines.append("-" * len(header))
    for c in report["cases"]:
        if "mutant" in c:
            continue
        note = "inconclusive" if c["inconclusive"] else (c["reason"][:50] if not c["linearizable"] else "")
        lines.append(
            f"{c['mode']:<12} {c['schedule']:<18} {c['seed']:>4} "
            f"{c['n_ops']:>5} {'ok' if c['linearizable'] else 'VIOL':>5} {note}"
        )
    lines.append("")
    for mode, s in report["summary"].items():
        line = (
            f"  {mode:<12} {s['cases']} cases, {s['violations']} violations, "
            f"{s['tolerated']} tolerated (loss-fragile), {s['inconclusive']} inconclusive"
        )
        if mode == "controlplane":
            line += (
                f", {s['promotions']} promotions, {s['fenced_flow_mods']} fenced mods, "
                f"reconcile==scratch: {s['reconcile_matches_scratch']}"
            )
        lines.append(line)
    h = report.get("harmonia")
    if h:
        lines.append(
            f"  harmonia: {h['cases']} cases ({h['violations']} violations), "
            f"{h['directed_cells']} directed mid-put cells, "
            f"{h['stale_replica_reads']} stale replica reads"
        )
    d = report.get("durability")
    if d:
        lines.append(
            f"  durability: {d['cells']} cells, {d['acked_lost']} acked losses, "
            f"{d['torn_detected']} torn records, {d['scrub_repairs']} scrub "
            f"repairs, fail-slow detected: {d['failslow_detected']} "
            f"({d['failslow_handoffs']} handoffs)"
        )
    m = report.get("mutants")
    if m:
        lines += ["", f"mutants killed: {m['killed']} / {m['total']}"]
        for name, v in m["per_mutant"].items():
            lines.append(f"  {name:<22} {'killed' if v['killed'] else 'survived':<9} {v['cell']}")
    lines.append("")
    lines.append("PASS" if report["passed"] else "FAIL:")
    for f in report["failures"]:
        lines.append(f"  {f}")
    return "\n".join(lines)

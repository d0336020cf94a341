"""CLI: regenerate any figure of the paper.

Examples::

    python -m repro.bench fig5                 # quick scale
    python -m repro.bench fig5 --full          # paper scale (1000 ops/point)
    python -m repro.bench all --ops 100 --jobs 4   # exit 1 if a paper claim fails
    nice-bench fig12 --ops 500
    python -m repro.bench diff A.json B.json   # exit 1 unless rows and notes are identical
    python -m repro.bench reach                # what the rows / tier-1 / nothing reaches

Figure and chaos sweeps decompose into independent cells (see
``repro.bench.parallel``) that fan across ``--jobs`` worker processes and
merge deterministically — ``--jobs 1`` and ``--jobs N`` output is
bit-identical.  Results are cached content-addressed in ``.bench_cache/``
(keyed on cell params + a fingerprint of ``src/repro``), so re-running
after an unrelated edit skips unchanged cells; ``--no-cache`` disables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import claims, parallel
from ..obs import runtime as obs_runtime
from .harness import EXPERIMENTS, run
from .report import diff_reports, format_result, ratio_summary

#: Default path of the figure-suite JSON report; only ``all`` writes it.
FIGURES_OUT = "BENCH_figures.json"

#: Differences ``diff`` prints before it just counts the rest.
DIFF_SHOWN = 10


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nice-bench",
        description="Regenerate the figures of NICE (HPDC 2017) on the simulator.",
    )
    parser.add_argument(
        "experiment",
        nargs="+",
        help="fig4..fig12, sec46, scale, ablation-*, 'perf', 'chaos', "
             "'all' (= the figure suite; 'scale' runs separately), "
             "'diff A.json B.json' to compare the result rows and notes of two "
             "figure/scale/chaos reports, or 'reach' (the reachability "
             "census of src/repro; from a checkout)",
    )
    parser.add_argument(
        "--ops", type=int, default=100,
        help="operations per data point (default 100; paper uses 1000)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale run (1000 ops/point, 20K YCSB ops/client)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="perf/chaos/scale suites and reach: shrunk matrices for CI sanity runs",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for figure/chaos cells "
             "(default: all cores; 1 = inline, no pool)",
    )
    parser.add_argument(
        "--cache-dir", default=parallel.DEFAULT_CACHE_DIR, metavar="DIR",
        help="content-addressed result cache for figure/chaos cells "
             f"(default {parallel.DEFAULT_CACHE_DIR}; invalidated by any "
             "src/repro edit)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always recompute cells; do not read or write the cache",
    )
    parser.add_argument(
        "--figures-out", default=None, metavar="PATH",
        help=f"figure/scale JSON report path ('-' disables); without it "
             f"only 'all' writes a report, to {FIGURES_OUT}",
    )
    parser.add_argument(
        "--perf-out", default=None, metavar="PATH",
        help="perf suite only: output JSON path (default BENCH_perf.json)",
    )
    parser.add_argument(
        "--seeds", type=int, default=5,
        help="chaos suite only: seeds per NICE schedule (default 5)",
    )
    parser.add_argument(
        "--chaos-out", default=None, metavar="PATH",
        help="chaos suite only: output JSON path; without it only "
             "'chaos --smoke' writes a report, to BENCH_chaos.json",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a sim-time trace of every cluster built during the "
             "run; written as Chrome trace JSON (open in chrome://tracing "
             "or Perfetto), or JSONL if PATH ends in .jsonl.  Forces "
             "--jobs 1 and --no-cache (tracers live in this process; a "
             "cached cell would leave a hole in the trace)",
    )
    args = parser.parse_args(argv)
    if args.experiment[0] == "diff":
        if len(args.experiment) != 3:
            parser.error("diff takes exactly two report paths")
        return _diff(*args.experiment[1:])
    if args.experiment == ["reach"]:
        from . import reach

        return reach.main(smoke=args.smoke)
    n_ops = 1000 if args.full else args.ops
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
    cache_dir = None if args.no_cache else args.cache_dir
    if args.trace:
        if args.jobs is not None and args.jobs != 1:
            print(f"--trace: overriding --jobs {args.jobs} -> 1", file=sys.stderr)
        jobs = 1
        cache_dir = None
        obs_runtime.start(args.trace)
    prior_config = parallel.configure(jobs=jobs, cache_dir=cache_dir)
    try:
        return _run(parser, args, n_ops, jobs)
    finally:
        parallel.configure(**prior_config)
        session = obs_runtime.stop()
        if session is not None and session.tracers:
            summary = session.export()
            print(
                f"wrote {summary['path']} ({summary['format']} trace, "
                f"{summary['events']} events from {summary['runs']} runs)"
            )


def _diff(path_a: str, path_b: str) -> int:
    """Exit status 1 unless both reports hold the same result rows and notes."""
    reports = []
    for path in (path_a, path_b):
        with open(path) as fh:
            reports.append(json.load(fh))
        if not ("experiments" in reports[-1] or "cases" in reports[-1]):
            raise SystemExit(f"diff: {path} is not a figure, scale or chaos report")
    compared, diffs = diff_reports(*reports)
    for line in diffs[:DIFF_SHOWN]:
        print(line)
    if len(diffs) > DIFF_SHOWN:
        print(f"... and {len(diffs) - DIFF_SHOWN} more")
    print(f"{compared} rows compared, {len(diffs)} differences: A={path_a} B={path_b}")
    return int(bool(diffs))


def _run(parser, args, n_ops: int, jobs: int) -> int:
    # Each suite's verdict is its own ``check``; the exit code is all CI reads.
    failed = False
    wanted = args.experiment
    if "perf" in wanted:
        from . import perf

        out_path = args.perf_out or perf.DEFAULT_OUT
        t0 = time.perf_counter()
        report = perf.run_suite(smoke=args.smoke, out_path=out_path)
        print(perf.format_report(report))
        print(f"wrote {out_path}")
        print(f"({time.perf_counter() - t0:.1f}s wall)\n")
        failed |= not report["passed"]
        wanted = [w for w in wanted if w != "perf"]
    if "chaos" in wanted:
        from . import chaos

        # The committed BENCH_chaos.json is the smoke matrix: a full run
        # writes only where --chaos-out points.
        out_path = args.chaos_out or (chaos.DEFAULT_OUT if args.smoke else None)
        report = chaos.run_suite(
            seeds=args.seeds, smoke=args.smoke, out_path=out_path
        )
        print(chaos.format_report(report))
        cells = report.get("cells", [])
        hits = sum(1 for c in cells if c["cache_hit"])
        print(f"({len(cells)} cells, {hits} cache hits, --jobs {jobs})")
        if out_path:
            print(f"wrote {out_path}")
        print(f"({report['wall_s']:.1f}s wall)\n")
        failed |= not report["passed"]
        wanted = [w for w in wanted if w != "chaos"]
    if not wanted:
        return int(failed)
    # The committed BENCH_figures.json is ``all``'s: any other run writes
    # only where --figures-out points.
    figures_out = args.figures_out or (FIGURES_OUT if "all" in wanted else "-")
    if "all" in wanted:
        # "all" = the paper's figure suite; the opt-in experiments (python
        # -m repro.bench scale / read_scaling) are their own runs.
        wanted = [name for name, exp in EXPERIMENTS.items() if exp.in_all]
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    parallel.drain_records()  # figure records start clean for the report
    experiments = []
    all_cells = []
    shared = {}  # fig5 fig6 fig7 read one sweep: run it once per invocation
    for name in wanted:
        exp = EXPERIMENTS[name]
        t0 = time.perf_counter()
        result = run(name, shared=shared, **exp.cli(n_ops, args.full, args.smoke))
        elapsed = time.perf_counter() - t0
        for failure in exp.check(result) if exp.check else ():
            result.note(f"FAIL: {failure}")
            failed = True
        cells = parallel.drain_records()
        all_cells.extend(cells)
        print(format_result(result))
        if exp.chart:
            print(exp.chart(result))
        if exp.summary is not None:
            metric, baseline, groups = exp.summary
            text = ratio_summary(result, metric, baseline, group_cols=groups)
            if text:
                print("summary:")
                for line in text.splitlines():
                    print(f"  {line}")
        verdicts = claims.table(result)
        if verdicts:
            print("claims:")
            for line in verdicts.splitlines():
                print(f"  {line}")
        hits = sum(1 for c in cells if c["cache_hit"])
        cell_note = f", {len(cells)} cells, {hits} cache hits" if cells else ""
        print(f"({elapsed:.1f}s wall{cell_note})\n")
        experiments.append(dict(vars(result), wall_s=elapsed, cells=cells))
    if experiments and figures_out != "-":
        prov = parallel.provenance(
            records=all_cells, ops=n_ops, jobs=jobs, full=args.full
        )
        session = obs_runtime.current()
        if session is not None:
            prov["trace"] = {
                "path": session.path,
                "runs": len(session.tracers),
                "events": session.total_events,
            }
        report = {
            "schema_version": 1,
            "suite": "figures",
            "provenance": prov,
            "experiments": experiments,
        }
        with open(figures_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {figures_out}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())

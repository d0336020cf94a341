"""CLI: regenerate any figure of the paper.

Examples::

    python -m repro.bench fig5                 # quick scale
    python -m repro.bench fig5 --full          # paper scale (1000 ops/point)
    python -m repro.bench all --ops 100 --jobs 4   # exit 1 if a paper claim fails
    python -m repro.bench chaos --smoke --out BENCH_chaos.json   # no report without --out
    nice-bench fig12 --ops 500
    python -m repro.bench diff A.json B.json   # exit 1 unless rows and notes are identical
    python -m repro.bench reach                # what the rows / tier-1 / nothing reaches

Figure and chaos sweeps decompose into independent cells (see
``repro.bench.parallel``) that fan across ``--jobs`` worker processes and
merge deterministically — ``--jobs 1`` and ``--jobs N`` output is
bit-identical.
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

#: Differences ``diff`` prints before it just counts the rest.
DIFF_SHOWN = 10


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nice-bench",
        description="Regenerate the figures of NICE (HPDC 2017) on the simulator.",
    )
    parser.add_argument(
        "experiment",
        nargs="+",
        help="fig4..fig12, sec46, scale, ablation-*, 'all' (= the figure "
             "suite; 'scale' runs separately), 'perf' or 'chaos' (each alone), "
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
        "--seeds", type=int, default=5,
        help="chaos suite only: seeds per NICE schedule (default 5)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the suite's JSON report to PATH; without it no run "
             "writes one",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a sim-time trace of every cluster built during the "
             "run; written as Chrome trace JSON (open in chrome://tracing "
             "or Perfetto), or JSONL if PATH ends in .jsonl.  Forces "
             "--jobs 1 (tracers live in this process)",
    )
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.out:  # checked before any suite runs: a bad path must not cost the run
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(out_dir):
            parser.error(f"--out: no such directory: {out_dir}")
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
    if args.trace:
        if args.jobs is not None and args.jobs != 1:
            print(f"--trace: overriding --jobs {args.jobs} -> 1", file=sys.stderr)
        jobs = 1
        obs_runtime.start(args.trace)
    prior_config = parallel.configure(jobs)
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
    """Run the one suite ``args.experiment`` names, print it, write its
    report where ``--out`` points; the exit status is its ``check``'s."""
    wanted = args.experiment
    if ("perf" in wanted or "chaos" in wanted) and len(wanted) > 1:
        parser.error("'perf' and 'chaos' each run alone: one suite per invocation")
    if wanted == ["perf"]:
        from . import perf

        t0 = time.perf_counter()
        report = perf.run_suite(smoke=args.smoke)
        print(perf.format_report(report))
        print(f"({time.perf_counter() - t0:.1f}s wall)\n")
        failed = not report["passed"]
    elif wanted == ["chaos"]:
        from . import chaos

        report = chaos.run_suite(seeds=args.seeds, smoke=args.smoke)
        print(chaos.format_report(report))
        print(f"({len(report.get('cells', []))} cells, --jobs {jobs})")
        print(f"({report['wall_s']:.1f}s wall)\n")
        failed = not report["passed"]
    else:
        report, failed = _figures(parser, args, n_ops, jobs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return int(failed)


def _figures(parser, args, n_ops: int, jobs: int):
    """Run figure/§4.6/scale/ablation experiments; (report, any claim failed)."""
    wanted = args.experiment
    if "all" in wanted:
        # "all" = the paper's figure suite; the opt-in experiments (python
        # -m repro.bench scale / read_scaling) are their own runs.
        wanted = [name for name, exp in EXPERIMENTS.items() if exp.in_all]
    unknown = [w for w in wanted if w not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    parallel.drain_records()  # figure records start clean for the report
    failed = False
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
        cell_note = f", {len(cells)} cells" if cells else ""
        print(f"({elapsed:.1f}s wall{cell_note})\n")
        experiments.append(dict(vars(result), wall_s=elapsed, cells=cells))
    prov = parallel.provenance(records=all_cells, ops=n_ops, jobs=jobs, full=args.full)
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
    return report, failed


if __name__ == "__main__":
    sys.exit(main())

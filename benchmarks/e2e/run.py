"""End-to-end benchmark of the NICE simulator: five workloads, one command.

    python3 benchmarks/e2e/run.py                      # every workload, untraced
    python3 benchmarks/e2e/run.py --trace 1            # per-layer tables
    python3 benchmarks/e2e/run.py --workload ycsb_c --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --repeat 2 --compare # same code twice, PASS/FAIL
    python3 benchmarks/e2e/run.py --smoke              # tiny windows, ~30 s in all

With ``--workload`` the run happens in this interpreter and the last line
of stdout is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  Without it every workload runs alone in a fresh interpreter,
one after another.  The exit code is non-zero if any output was wrong.
README.md in this directory is the glossary.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before the heavy imports: they are set-up

import argparse
import cProfile
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_ROOT = os.path.join(ROOT, "src", "repro")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

if not os.path.isdir(SRC_ROOT):
    sys.exit(f"run.py: no simulator source at {SRC_ROOT}; nothing to measure")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers
import measure
import workloads as wl

#: Interpreter start-up and imports, in reference seconds: part of set-up.
IMPORT_REF_S = measure.reference_seconds(time.perf_counter() - T_START, measure.calibrate())

#: Host-clock metrics: compared within their bound; everything else in
#: ``end_to_end`` is simulated or a count and must repeat exactly.
HOST_METRICS = ("setup_s", "host_ops_per_s", "peak_rss_mb")

#: ``other`` (driver + numpy) above this share of traced self time means
#: the driver, not the program, is being measured: the run fails.
OTHER_SHARE_MAX = 0.10


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


# ------------------------------------------------------------ one workload
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in this interpreter; returns its full record."""
    profiler = cProfile.Profile() if trace else None
    if name == "chaos_nice":
        record = _run_chaos(seed, seconds, profiler, smoke)
    else:
        record = _run_closed_loop(wl.WORKLOADS[name], seed, seconds, profiler, smoke)
    record.update(workload=name, seed=seed, seconds=seconds, traced=trace, smoke=smoke)
    if profiler is not None:
        _add_trace_rows(record, profiler)
    return record


def _window(full: int, profiler, smoke: bool) -> int:
    """Exact-window size: a quarter under the profiler (it costs ~3x per
    op), two units for ``--smoke``."""
    if smoke:
        return min(full, 2)
    return max(1, full // 4) if profiler is not None else full


def _run_closed_loop(workload, seed, seconds, profiler, smoke) -> dict:
    t0 = time.perf_counter()
    streams = wl.op_streams(workload, seed)
    opgen_s = measure.reference_seconds(time.perf_counter() - t0, measure.calibrate())
    cluster, setup_ref_s, build_s = measure.repeated_set_up(
        workload, 1 if smoke else wl.SETUP_REPEATS
    )
    exact_chunks = _window(workload.exact_chunks, profiler, smoke)
    phase = measure.closed_loop(
        cluster, workload, streams, seconds, exact_chunks, profiler
    )
    n_timed = len(phase.history) - phase.warm_ops
    measure.read_back(cluster, workload, phase.history)

    problems = measure.check_history(phase.history, streams)
    acked_puts = sum(1 for op in phase.history if op[measure.IS_PUT] and op[measure.OK])
    served = measure.snapshot(cluster)["puts_served"]
    if served != workload.n_records + acked_puts:
        # Each put is coordinated by exactly one node (Fig 7's 1x storage load).
        problems.append(
            f"nodes served {served} puts, clients saw "
            f"{workload.n_records} preload + {acked_puts} acknowledged"
        )

    exact = phase.history[phase.warm_ops : phase.exact_ops]
    record = _assemble(
        system=workload.system,
        history=exact,
        counts=phase.exact_counts,
        sim_s=phase.exact_sim_s,
        chunks=phase.chunks,
        setup_s=IMPORT_REF_S + opgen_s + setup_ref_s + phase.warm_ref_s,
        build_s=build_s,
        peak_rss_mb=phase.peak_rss_mb,
    )
    record["per_layer"]["unavail_ms"] = measure.longest_gap_ms(
        exact, phase.exact_t0, phase.exact_t0 + phase.exact_sim_s
    )
    record["info"].update(
        opgen_s=opgen_s,
        setup_ref_s=setup_ref_s,
        warm_ref_s=phase.warm_ref_s,
        exact_chunks=exact_chunks,
        chunk_sim_s=workload.chunk_sim_s,
        timed_ops=n_timed,
    )
    failed = sum(1 for op in phase.history if not op[measure.OK])
    record.update(attempted=len(phase.history), failed=failed, problems=problems)
    return record


def _run_chaos(seed, seconds, profiler, smoke) -> dict:
    cells = measure.chaos_cells(seed)
    n_exact = len(wl.CHAOS_SCHEDULES) * _window(wl.CHAOS_EXACT_ROUNDS, profiler, smoke)
    exact_ids = [next(cells) for _ in range(n_exact)]
    # Set-up = building the exact window's clusters, workloads and fault
    # engines; done three times, the last set is the one that runs.
    setups = []
    for _ in range(1 if smoke else wl.SETUP_REPEATS):
        t0 = time.perf_counter()
        built = [measure.ChaosCell(*cell_id) for cell_id in exact_ids]
        setups.append(
            measure.reference_seconds(time.perf_counter() - t0, measure.calibrate())
        )
    setup_ref_s = statistics.median(setups)
    build_s = measure.reference_seconds(
        statistics.median(cell.build_s for cell in built), measure.calibrate()
    )

    rows, chunks = [], []
    deadline = time.perf_counter() + seconds
    while len(rows) < n_exact or time.perf_counter() < deadline:
        k = len(rows)
        cell = built[k] if k < n_exact else measure.ChaosCell(*next(cells))
        if k < n_exact:
            built[k] = None  # one cluster alive at a time once the clock runs
        row, wall, traced = measure.timed(cell.run, k, profiler)
        rows.append(row)
        chunks.append(
            measure.Chunk(
                wall, len(row["history"]), row["counts"]["events"], traced,
                measure.calibrate(),
            )
        )  # fmt: skip
    peak_rss_mb = measure.peak_rss_mb()

    exact_rows = rows[:n_exact]
    counts = None
    for row in exact_rows:
        counts = measure.add_deltas(counts, row["counts"])
    history = [op for row in exact_rows for op in row["history"]]
    record = _assemble(
        system="nice",
        history=history,
        counts=counts,
        sim_s=n_exact * wl.CHAOS_CELL_SIM_S,
        chunks=chunks,
        setup_s=IMPORT_REF_S + setup_ref_s,
        build_s=build_s,
        peak_rss_mb=peak_rss_mb,
    )
    record["per_layer"].update(
        {
            "unavail_ms": statistics.median(row["unavail_ms"] for row in exact_rows),
            "chaos.faults_injected": sum(row["faults"] for row in exact_rows),
            "check.states_per_op": measure.ratio(
                sum(row["states"] for row in exact_rows), len(history)
            ),
            "check.wall_share": sum(row["check_s"] for row in rows)
            / sum(c.wall_s for c in chunks),
        }
    )
    record["info"].update(
        setup_ref_s=setup_ref_s,
        exact_cells=n_exact,
        cells=[(row["schedule"], row["seed"]) for row in rows],
        timed_ops=sum(len(row["history"]) for row in rows),
    )
    every = [op for row in rows for op in row["history"]]
    problems = [
        f"{row['schedule']}[{row['seed']}]: {p}" for row in rows for p in row["problems"]
    ]
    failed = sum(1 for op in every if not op[measure.OK])
    if failed:
        problems.append(f"{failed} of {len(every)} ops failed")
    record.update(attempted=len(every), failed=failed, problems=problems)
    return record


def _assemble(system, history, counts, sim_s, chunks, setup_s, build_s, peak_rss_mb) -> dict:
    """End-to-end and per-layer count metrics of one exact window."""
    n_ops = len(history)
    ok_ops = sum(1 for op in history if op[measure.OK])
    acked_puts = sum(1 for op in history if op[measure.IS_PUT] and op[measure.OK])
    lat = measure.latency_stats(history)
    host = measure.host_rate(chunks)
    end_to_end = {
        "setup_s": setup_s,
        "host_ops_per_s": host["median"],
        "peak_rss_mb": peak_rss_mb,
        "events_per_op": counts["events"] / n_ops,
        "sim_ops_per_s": ok_ops / sim_s,
        "op_ms_mean": lat["op"]["mean"],
        "op_ms_slowest1pct": lat["op"]["slowest1pct"],
        "link_bytes_per_op": counts["link_bytes"] / n_ops,
        "ok_op_share": ok_ops / n_ops,
    }
    per_layer = measure.layer_counts(counts, n_ops, acked_puts, system)
    per_layer.update(
        {
            "sim.us_per_event": 1e6 * host["ops"] / (host["median"] * host["events"]),
            "cluster.build_s": build_s,
            "put_vs_op_latency": lat["put"]["mean"] / lat["op"]["mean"],
            "get_vs_op_latency": lat["get"]["mean"] / lat["op"]["mean"],
            # Filled in by chaos_nice only; zero where no fault is injected.
            "chaos.faults_injected": 0,
            "check.states_per_op": 0.0,
            "check.wall_share": 0.0,
        }
    )
    info = {
        "import_ref_s": IMPORT_REF_S,
        "exact_ops": n_ops,
        "exact_sim_s": sim_s,
        "latency_ms": lat,
        "host_rate": host,
    }
    return {"end_to_end": end_to_end, "per_layer": per_layer, "info": info}


def _add_trace_rows(record: dict, profiler) -> None:
    """``<row>.self_share`` from the profile, the traced cost per op in
    function calls and reference time, the tracing overhead, and the
    driver-share gate."""
    host = record["info"]["host_rate"]
    seconds, calls = layers.self_seconds(profiler, SRC_ROOT)
    total = sum(seconds.values())
    per_layer = record["per_layer"]
    for row, s in seconds.items():
        per_layer[f"{row}.self_share"] = s / total
    per_layer["trace.calls_per_op"] = calls / host["traced_ops"]
    per_layer["trace.us_per_op"] = 1e6 / host["traced_median"]
    per_layer["trace.overhead_x"] = host["median"] / host["traced_median"]
    if per_layer["other.self_share"] > OTHER_SHARE_MAX:
        record["problems"].append(
            f"other.self_share {per_layer['other.self_share']:.3f} > {OTHER_SHARE_MAX}: "
            "the driver is being measured, not the program"
        )


# ----------------------------------------------------------------- output
def result_line(record: dict, spec: dict) -> str:
    """The contract's last line: the metrics ``BENCHMARK.json`` names for
    this kind of run, each with its unit."""
    section = "per_layer" if record["traced"] else "end_to_end"
    values = record[section]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    return json.dumps(
        {
            "correct": not record["problems"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def print_record(record: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = record["info"]
    host, lat = info["host_rate"], info["latency_ms"]
    print(
        f"== {record['workload']}  seed={record['seed']}  "
        f"{'traced' if record['traced'] else 'untraced'}"
        f"{'  smoke' if record['smoke'] else ''}"
    )
    print(
        f"   exact window: {info['exact_ops']} ops in {info['exact_sim_s']:.4f} sim s; "
        f"timed: {info['timed_ops']} ops, {host['wall_s']:.2f} untraced wall s = "
        f"{host['ref_s']:.2f} reference s (calibration {1e3 * host['calibration_s']:.1f} ms); "
        f"{host['chunks']} chunks q1/med/q3 = "
        f"{host['q1']:.1f}/{host['median']:.1f}/{host['q3']:.1f} ops/s"
    )
    for kind in ("op", "put", "get"):
        row = lat[kind]
        if row["samples"]:
            print(
                f"   {kind:<3} latency ms: n={row['samples']} mean {row['mean']:.4f} "
                f"p50 {row['p50']:.4f} p99 {row['p99']:.4f} "
                f"slowest 1 % {row['slowest1pct']:.4f}"
            )
    sections = ["end_to_end"] + (["per_layer"] if record["traced"] else [])
    for section in sections:
        print(f"   -- {section}")
        for name, value in record[section].items():
            if name in units:
                print(f"   {name:<44} {value:>16.6g} {units[name]}")
    for problem in record["problems"]:
        print(f"   WRONG: {problem}")


# ------------------------------------------------------------ every workload
def run_all(args, spec) -> list:
    """Each workload alone in a fresh interpreter, one after another."""
    records = []
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--record", "-",
        ]  # fmt: skip
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stdout.write(proc.stdout)
            sys.exit(f"run.py: workload {name} died with code {proc.returncode}")
        record = json.loads(lines[-1])
        print_record(record, spec)
        records.append(record)
    return records


def compare(sets: list, spec: dict) -> bool:
    """Same code, same seed, run twice: exact metrics must be identical and
    host metrics within their bound.  Prints PASS/FAIL per pair."""
    ok = True
    first, second = sets[0], sets[-1]
    print("== compare: run 1 vs run 2")
    for a, b in zip(first, second):
        for m in spec["end_to_end"]:
            name = m["name"]
            x, y = a["end_to_end"][name], b["end_to_end"][name]
            if name in HOST_METRICS:
                rel = abs(y - x) / x
                passed = rel <= m["bound"]
                note = f"{100 * rel:5.2f} % (bound {100 * m['bound']:.0f} %)"
            else:
                passed = x == y
                note = "identical" if passed else "DIFFERS (must repeat exactly)"
            ok &= passed
            print(
                f"   {a['workload']:<14} {name:<18} {x:>14.6g} {y:>14.6g} "
                f"{y - x:>+12.4g} {m['unit']:<6} {note:<28} {'PASS' if passed else 'FAIL'}"
            )
    return ok


def provenance() -> dict:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or None,
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names, help="run only this one, in-process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="host seconds of timed phase per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: run under cProfile and print the per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="two-chunk exact windows, five chaos cells, no time box")
    ap.add_argument("--repeat", type=int, default=1, help="run the whole set N times")
    ap.add_argument("--compare", action="store_true",
                    help="with --repeat 2: PASS/FAIL each metric between the sets")
    ap.add_argument("--json", metavar="OUT", help="write every record to this file")
    ap.add_argument("--record", metavar="-", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 0.0

    in_process = args.workload and args.repeat == 1 and not args.json
    if in_process:
        record = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
        if args.record:  # child of run_all: hand the whole record back
            print(json.dumps(record))
        else:
            print_record(record, spec)
            print(result_line(record, spec))
        return 1 if record["problems"] else 0

    sets = [run_all(args, spec) for _ in range(args.repeat)]
    ok = all(not r["problems"] for s in sets for r in s)
    if args.compare and len(sets) > 1:
        ok &= compare(sets, spec)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"provenance": provenance(), "sets": sets}, fh, indent=1)
    print("ALL CORRECT" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

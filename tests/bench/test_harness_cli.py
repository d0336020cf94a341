"""Tests for the bench harness plumbing and the CLI."""

import json

import pytest

from repro.bench import __main__ as cli
from repro.bench import build_nice, build_noob, chaos, run_to_completion
from repro.bench.__main__ import main
from repro.bench.harness import ExperimentResult


def test_build_nice_is_warm():
    cluster = build_nice(n_storage_nodes=4, n_clients=1, replication_level=2)
    assert cluster.sim.now > 0
    assert cluster.controller.rule_count() > 0


def test_build_noob_modes():
    cluster = build_noob(
        n_storage_nodes=4, n_clients=1, replication_level=2, access="rag"
    )
    assert cluster.gateways


def test_run_to_completion_returns_value():
    cluster = build_nice(n_storage_nodes=4, n_clients=1, replication_level=2)

    def p(sim):
        yield sim.timeout(1.0)
        return 42

    assert run_to_completion(cluster, cluster.sim.process(p(cluster.sim))) == 42


def test_run_to_completion_propagates_failure():
    cluster = build_nice(n_storage_nodes=4, n_clients=1, replication_level=2)

    def p(sim):
        yield sim.timeout(0.1)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        run_to_completion(cluster, cluster.sim.process(p(cluster.sim)))


def test_run_to_completion_detects_drained_sim():
    cluster = build_nice(n_storage_nodes=2, n_clients=1, replication_level=1)

    def stuck(sim):
        yield sim.event()  # never triggered

    # Heartbeat loops keep the sim busy forever, so use a tiny horizon to
    # exercise the horizon error path instead.
    with pytest.raises(RuntimeError, match="horizon"):
        run_to_completion(cluster, cluster.sim.process(stuck(cluster.sim)), horizon_s=5.0)


def test_cli_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["no-such-figure", "--no-cache", "--figures-out", "-"])


def test_cli_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["sec46", "--jobs", "0", "--no-cache", "--figures-out", "-"])


def test_cli_runs_sec46(capsys):
    rc = main(["sec46", "--jobs", "1", "--no-cache", "--figures-out", "-"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sec46" in out
    assert "65,536" in out or "65536" in out


def test_cli_writes_figures_report_with_provenance(tmp_path, capsys):
    out_path = tmp_path / "BENCH_figures.json"
    rc = main(["sec46", "--jobs", "1", "--no-cache", "--figures-out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["suite"] == "figures"
    prov = report["provenance"]
    assert prov["jobs"] == 1 and prov["ops"] == 100
    assert prov["cells"] == 1 and prov["cache_hits"] == 0
    assert prov["python"] and prov["git_sha"]
    (exp,) = report["experiments"]
    assert exp["name"] == "sec46"
    assert exp["rows"] and exp["cells"][0]["cache_hit"] is False


def test_cli_uses_cache_on_second_run(tmp_path, capsys):
    argv = [
        "sec46", "--jobs", "1",
        "--cache-dir", str(tmp_path / "bc"),
        "--figures-out", str(tmp_path / "out.json"),
    ]
    assert main(argv) == 0
    first = json.loads((tmp_path / "out.json").read_text())
    assert main(argv) == 0
    second = json.loads((tmp_path / "out.json").read_text())
    assert first["experiments"][0]["rows"] == second["experiments"][0]["rows"]
    assert second["provenance"]["cache_hits"] == 1


def test_cli_memoizes_shared_fig5_6_7_sweep(tmp_path, capsys):
    """fig5 fig6 fig7 must run the shared replication sweep exactly once:
    one execution of the shared cell per system, all charged to fig5."""
    rc = main(["fig5", "fig6", "fig7", "--ops", "3", "--jobs", "1", "--no-cache",
               "--figures-out", str(tmp_path / "out.json")])
    assert rc == 0
    report = json.loads((tmp_path / "out.json").read_text())
    assert [e["name"] for e in report["experiments"]] == ["fig5", "fig6", "fig7"]
    executed = [c["fn"] for e in report["experiments"] for c in e["cells"]]
    assert executed == ["repro.bench.figures.fig5_6_7_cell"] * 4
    assert [len(e["cells"]) for e in report["experiments"]] == [4, 0, 0]
    assert all(e["rows"] for e in report["experiments"])


def test_cli_traced_cluster_equals_untraced_and_put_spans_have_children(tmp_path):
    """The obs determinism contract on a *real* cluster (DESIGN.md §5e):
    ``--trace`` changes no figure row, and the exported trace holds
    complete put spans correlated, by op id, with their switch hops and
    2PC phases."""
    plain, traced, trace = (tmp_path / n for n in ("plain.json", "traced.json", "t.trace.json"))
    assert main(["fig5", "--ops", "5", "--jobs", "1", "--no-cache",
                 "--figures-out", str(plain)]) == 0
    assert main(["fig5", "--ops", "5", "--trace", str(trace),
                 "--figures-out", str(traced)]) == 0

    def rows(path):
        return [e["rows"] for e in json.loads(path.read_text())["experiments"]]

    assert rows(traced) == rows(plain)
    events = json.loads(trace.read_text())["traceEvents"]
    phases = {}
    for e in events:
        if e.get("cat") == "op" and e["name"] == "put":
            phases.setdefault(e["id"], set()).add(e["ph"])
    complete = {op for op, phs in phases.items() if {"b", "e"} <= phs}
    hops = {e["args"].get("op") for e in events if e.get("cat") == "switch"}
    two_pc = {e["id"] for e in events if e.get("cat") == "2pc" and e["ph"] == "b"}
    assert complete & hops & two_pc, "no put span with switch-hop and 2PC children"


def test_cli_diff_compares_result_rows_and_notes_and_nothing_else(tmp_path, capsys):
    """``bench diff``: wall-clock, cell-cache and provenance fields may
    differ freely; one moved row field, note (Fig 11's failure, rejoin and
    consistent times live only there) or chaos case is exit status 1 with
    the row and field named."""
    figures = {
        "suite": "figures",
        "provenance": {"git_sha": "aaa", "generated_unix": 1.0, "cache_hits": 0},
        "experiments": [
            {"name": "fig5", "wall_s": 1.0, "cells": [{"cache_hit": False}],
             "rows": [{"system": "NICE", "put_ms": 1.5}, {"system": "NOOB", "put_ms": 3.0}]},
            {"name": "fig11", "rows": [],
             "notes": ["t=30.05s: n7 fails", "t=90.08s: n7 consistent"]},
        ],
    }
    rerun = json.loads(json.dumps(figures))
    rerun["provenance"] = {"git_sha": "bbb", "generated_unix": 2.0, "cache_hits": 1}
    rerun["experiments"][0].update(wall_s=9.0, cells=[{"cache_hit": True}])
    moved = json.loads(json.dumps(rerun))
    moved["experiments"][0]["rows"][1]["put_ms"] = 3.0000000000000004
    late = json.loads(json.dumps(rerun))
    late["experiments"][1]["notes"][1] = "t=93.08s: n7 consistent"
    chaos = {"suite": "chaos", "wall_s": 5.0, "cases": [{"mode": "nice", "ok_ops": 617}]}
    chaos_moved = {"suite": "chaos", "wall_s": 5.0, "cases": [{"mode": "nice", "ok_ops": 616}]}
    paths = {}
    for name, report in dict(a=figures, b=rerun, c=moved, d=chaos, e=chaos_moved, f=late).items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(report, fh)

    assert main(["diff", paths["a"], paths["b"]]) == 0
    assert "4 rows compared, 0 differences" in capsys.readouterr().out
    assert main(["diff", paths["a"], paths["c"]]) == 1
    out = capsys.readouterr().out
    assert "fig5[1]: put_ms: 3.0 != 3.0000000000000004" in out
    assert "4 rows compared, 1 differences" in out
    assert main(["diff", paths["a"], paths["f"]]) == 1
    out = capsys.readouterr().out
    assert "fig11 notes[1]: note: 't=90.08s: n7 consistent' != 't=93.08s: n7 consistent'" in out
    assert "4 rows compared, 1 differences" in out
    assert main(["diff", paths["d"], paths["e"]]) == 1
    assert "cases[0]: ok_ops: 617 != 616" in capsys.readouterr().out
    assert main(["diff", paths["a"], paths["d"]]) == 1  # different suites share no table
    with pytest.raises(SystemExit):
        main(["diff", paths["a"]])


def test_only_all_and_chaos_smoke_write_the_default_reports(tmp_path, monkeypatch, capsys):
    """A single figure (or scale, or the full chaos matrix) used to write
    over the committed BENCH_figures.json / BENCH_chaos.json; without
    ``--figures-out``/``--chaos-out`` only ``all`` and ``chaos --smoke``
    write them."""
    monkeypatch.chdir(tmp_path)
    assert main(["sec46", "--ops", "3", "--jobs", "1", "--no-cache"]) == 0
    assert list(tmp_path.iterdir()) == []

    # Where the reports land is under test, not the rows: stub the runs.
    monkeypatch.setattr(cli, "run", lambda name, **_kw: ExperimentResult(name, "stub", []))
    main(["all", "--jobs", "1", "--no-cache"])  # exit 1: stub rows fail the claims
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_figures.json"]

    written = []

    def stub_suite(smoke, out_path, **_kw):
        written.append(out_path)
        return dict(cells=[], wall_s=0.0, passed=True)

    monkeypatch.setattr(chaos, "run_suite", stub_suite)
    monkeypatch.setattr(chaos, "format_report", lambda report: "")
    assert main(["chaos", "--jobs", "1", "--no-cache"]) == 0
    assert main(["chaos", "--smoke", "--jobs", "1", "--no-cache"]) == 0
    assert written == [None, chaos.DEFAULT_OUT]

"""Tests for the parallel sweep orchestrator (repro.bench.parallel).

The bar (set by PR 1 for the flow cache): the optimization must be
invisible in the results.  ``--jobs N`` output must be bit-identical to
``--jobs 1`` output, and a cache hit must be indistinguishable from a
fresh run.
"""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os
import subprocess

import pytest

from repro.bench import chaos, parallel, run, scale
from repro.bench.chaos.cells import durability_cell
from repro.bench.chaos.suite import gate_failures, killed
from repro.bench.parallel import (
    Cell,
    canonical,
    derive_seed,
    drain_records,
    provenance,
    run_cells,
    source_fingerprint,
)
from repro.check.mutants import MUTANTS, mutant_cell
from repro.kv import WriteAheadLog


# Module-level cell functions: picklable by reference for pool workers.
def square_cell(x, seed):
    return {"rows": [{"x": x, "sq": x * x, "seed": seed}]}


def float_cell(x, seed):
    # An awkward float: exercises exact JSON round-tripping.
    return {"v": x / 3.0 + 0.1, "third": 1.0 / 3.0}


def boom_cell(x, seed):
    raise ValueError("boom")


@pytest.fixture(autouse=True)
def _clean_records():
    drain_records()
    yield
    drain_records()


# ------------------------------------------------------------------ cells
def test_cell_canonicalizes_params():
    cell = Cell(square_cell, {"x": (1, 2), "y": {"b": 2, "a": 1}}, seed=7)
    assert cell.params == {"x": [1, 2], "y": {"b": 2, "a": 1}}


def test_cell_cache_key_independent_of_param_order():
    a = Cell(square_cell, {"x": 1, "y": 2}, seed=3)
    b = Cell(square_cell, {"y": 2, "x": 1}, seed=3)
    assert a.cache_key("fp") == b.cache_key("fp")


def test_cell_cache_key_sensitive_to_params_seed_and_source():
    base = Cell(square_cell, {"x": 1}, seed=3)
    assert base.cache_key("fp") != Cell(square_cell, {"x": 2}, seed=3).cache_key("fp")
    assert base.cache_key("fp") != Cell(square_cell, {"x": 1}, seed=4).cache_key("fp")
    assert base.cache_key("fp") != base.cache_key("other-src")
    assert base.cache_key("fp") != Cell(float_cell, {"x": 1}, seed=3).cache_key("fp")


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "fig4", "NICE") == derive_seed(42, "fig4", "NICE")
    assert derive_seed(42, "fig4", "NICE") != derive_seed(42, "fig4", "NOOB")
    assert derive_seed(42, "a") != derive_seed(43, "a")
    assert 0 <= derive_seed(0) < 2**63


# -------------------------------------------------------------- run_cells
def test_inline_and_pool_results_bit_identical():
    cells = [Cell(float_cell, {"x": x}, seed=x) for x in range(6)]
    seq = run_cells(cells, jobs=1, cache_dir=None)
    par = run_cells(cells, jobs=2, cache_dir=None)
    assert seq == par
    assert seq[0]["third"] == 1.0 / 3.0  # exact float round-trip


def test_merge_order_is_input_order():
    cells = [Cell(square_cell, {"x": x}, seed=0) for x in (5, 1, 9, 2)]
    results = run_cells(cells, jobs=3, cache_dir=None)
    assert [r["rows"][0]["x"] for r in results] == [5, 1, 9, 2]


def test_jobs1_never_creates_a_pool(monkeypatch):
    def forbidden(*a, **kw):
        raise AssertionError("jobs=1 must not create a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbidden)
    cells = [Cell(square_cell, {"x": x}, seed=0) for x in range(3)]
    assert run_cells(cells, jobs=1, cache_dir=None)[2]["rows"][0]["sq"] == 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_propagates_naming_the_cell(jobs):
    """Inline or pooled, the failure names fn, params and seed — enough to
    rerun the one cell — and chains the original exception."""
    cells = [Cell(square_cell, {"x": 1}, seed=0), Cell(boom_cell, {"x": 7}, seed=3)]
    with pytest.raises(RuntimeError, match=r"boom_cell\(x=7\)#s3 failed: ValueError: boom") as exc:
        run_cells(cells, jobs=jobs, cache_dir=None)
    assert isinstance(exc.value.__cause__, ValueError)


def test_configure_sets_session_defaults():
    prior = parallel.configure(jobs=4, cache_dir=None)
    try:
        assert parallel._config["jobs"] == 4
    finally:
        parallel.configure(**prior)


# ------------------------------------------------------------------ cache
def test_cache_second_run_hits_and_payload_identical(tmp_path):
    cache = str(tmp_path / "bc")
    cells = [Cell(float_cell, {"x": x}, seed=1) for x in range(3)]
    first = run_cells(cells, jobs=1, cache_dir=cache)
    rec1 = drain_records()
    second = run_cells(cells, jobs=1, cache_dir=cache)
    rec2 = drain_records()
    assert first == second
    assert [r["cache_hit"] for r in rec1] == [False, False, False]
    assert [r["cache_hit"] for r in rec2] == [True, True, True]
    # Cached wall time is the original compute time, for trend tracking.
    assert all(r["wall_s"] >= 0 for r in rec2)


def test_cache_miss_on_param_change(tmp_path):
    cache = str(tmp_path / "bc")
    run_cells([Cell(square_cell, {"x": 1}, seed=1)], jobs=1, cache_dir=cache)
    drain_records()
    run_cells([Cell(square_cell, {"x": 2}, seed=1)], jobs=1, cache_dir=cache)
    assert [r["cache_hit"] for r in drain_records()] == [False]
    run_cells([Cell(square_cell, {"x": 1}, seed=2)], jobs=1, cache_dir=cache)
    assert [r["cache_hit"] for r in drain_records()] == [False]


def test_cache_corrupt_entry_recomputes(tmp_path):
    cache = str(tmp_path / "bc")
    cell = Cell(square_cell, {"x": 3}, seed=1)
    run_cells([cell], jobs=1, cache_dir=cache)
    drain_records()
    key = cell.cache_key(source_fingerprint())
    path = parallel._cache_path(cache, key)
    with open(path, "w") as fh:
        fh.write("{not json")
    (result,) = run_cells([cell], jobs=1, cache_dir=cache)
    assert result["rows"][0]["sq"] == 9
    assert [r["cache_hit"] for r in drain_records()] == [False]


def test_cache_disabled_with_none():
    cells = [Cell(square_cell, {"x": 1}, seed=1)]
    prior = parallel.configure(jobs=1, cache_dir="/nonexistent-should-not-be-used")
    try:
        # Explicit cache_dir=None overrides the session default.
        run_cells(cells, cache_dir=None)
    finally:
        parallel.configure(**prior)
    assert [r["key"] for r in drain_records()] == [None]


def test_source_fingerprint_tracks_edits(tmp_path):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "a.py").write_text("x = 1\n")
    fp1 = source_fingerprint(str(src))
    parallel.invalidate_fingerprint_memo()
    fp2 = source_fingerprint(str(src))
    assert fp1 == fp2  # deterministic
    (src / "a.py").write_text("x = 2\n")
    parallel.invalidate_fingerprint_memo()
    assert source_fingerprint(str(src)) != fp1
    (src / "a.py").write_text("x = 1\n")
    (src / "b.txt").write_text("not python\n")
    parallel.invalidate_fingerprint_memo()
    assert source_fingerprint(str(src)) == fp1  # only .py files count


def test_canonical_round_trips_tuples_and_numpy():
    import numpy as np

    out = canonical({"t": (1, 2), "f": np.float64(0.1), "i": np.int64(7)})
    assert out == {"t": [1, 2], "f": 0.1, "i": 7}
    assert isinstance(out["f"], float) and isinstance(out["i"], int)


# ------------------------------------------------------ scale-cell parity
def test_scale_cell_jobs_parity(tmp_path):
    """Scale-ladder cells compose with --jobs N and the cache: rung and
    ride-along chaos rows are bit-identical inline, pooled and replayed."""
    cfgs = (
        dict(racks=2, hosts_per_rack=3, n_clients=2, budget=256),
        dict(racks=3, hosts_per_rack=2, n_clients=2, budget=256),
    )
    seq = run("scale", n_ops=5, configs=cfgs)
    drain_records()
    prior = parallel.configure(jobs=2, cache_dir=str(tmp_path / "bc"))
    try:
        par = run("scale", n_ops=5, configs=cfgs)
        rec_cold = drain_records()
        warm = run("scale", n_ops=5, configs=cfgs)
        rec_warm = drain_records()
    finally:
        parallel.configure(**prior)
    assert par.rows == seq.rows
    assert warm.rows == seq.rows
    assert len([row for row in seq.rows if "throughput_ops_s" in row]) == 2
    assert scale.check(seq) == []  # real rows carry every gated field
    # 2 rung cells + the ride-along chaos cell, all cached and replayed.
    assert [r["cache_hit"] for r in rec_cold] == [False] * 3
    assert [r["cache_hit"] for r in rec_warm] == [True] * 3


# -------------------------------------------------------------- provenance
def test_provenance_block():
    block = provenance(records=[{"cache_hit": True}, {"cache_hit": False}],
                       ops=20, jobs=2)
    assert block["cells"] == 2 and block["cache_hits"] == 1
    assert block["ops"] == 20 and block["jobs"] == 2
    assert block["python"] and block["platform"] and block["git_sha"]


@pytest.mark.parametrize("failure", [
    subprocess.TimeoutExpired(cmd="git", timeout=5),
    FileNotFoundError("git"),
])
def test_provenance_survives_a_hung_or_missing_git(monkeypatch, failure):
    """``provenance()`` runs after every cell has finished, while the
    report is being written: a ``git`` that hangs (``TimeoutExpired`` is
    not an ``OSError``) or is not installed must cost the SHA, not the rows."""

    def broken_git(*args, **kwargs):
        raise failure

    monkeypatch.setattr(subprocess, "run", broken_git)
    assert provenance(records=[])["git_sha"] == "unknown"


# ------------------------------------------- figure & chaos sweep parity
def test_figure_sweep_parallel_parity_and_cache(tmp_path):
    """The acceptance bar: --jobs 1 and --jobs N rows are bit-identical,
    and a warm-cache rerun skips every cell yet returns identical rows."""
    kw = dict(n_ops=3, sizes=(4, 1024))
    seq = run("fig4", **kw)
    drain_records()
    prior = parallel.configure(jobs=2, cache_dir=str(tmp_path / "bc"))
    try:
        par = run("fig4", **kw)
        rec_cold = drain_records()
        warm = run("fig4", **kw)
        rec_warm = drain_records()
    finally:
        parallel.configure(**prior)
    assert par.rows == seq.rows
    assert warm.rows == seq.rows
    assert [r["cache_hit"] for r in rec_cold] == [False] * 4
    assert [r["cache_hit"] for r in rec_warm] == [True] * 4


def test_multi_result_sweep_parallel_parity():
    kw = dict(n_ops=3, sizes=(1024,))
    seq = {name: run(name, **kw) for name in ("fig5", "fig6", "fig7")}
    prior = parallel.configure(jobs=2, cache_dir=None)
    try:
        par = {name: run(name, **kw) for name in seq}
    finally:
        parallel.configure(**prior)
    for name in ("fig5", "fig6", "fig7"):
        assert par[name].rows == seq[name].rows


def test_chaos_matrix_parallel_parity():
    kw = dict(seeds=1, baseline_seeds=1, modes=["nice"],
              schedules=["partition_rejoin"], duration=3.0, out_path=None)
    seq = chaos.run_suite(**kw)
    prior = parallel.configure(jobs=2, cache_dir=None)
    try:
        par = chaos.run_suite(**kw)
    finally:
        parallel.configure(**prior)
    assert seq["cases"] == par["cases"]
    assert seq["summary"] == par["summary"]
    assert par["passed"]


# ------------------------------------------------ mutant patches never leak
def mutant(name):
    return Cell(mutant_cell, dict(name=name), seed=MUTANTS[name].seed)


HONEST_BLACKOUT = Cell(
    durability_cell, dict(mode="nice", schedule="power_blackout", duration=10.0), seed=1
)


def test_mutant_rows_identical_inline_pooled_and_warm(tmp_path):
    cells = [mutant("harmonia_commit_clear"), mutant("wal_unflushed")]
    inline = run_cells(cells, jobs=1, cache_dir=None)
    drain_records()
    pooled = run_cells(cells, jobs=2, cache_dir=str(tmp_path / "bc"))
    warm = run_cells(cells, jobs=2, cache_dir=str(tmp_path / "bc"))
    assert [r["cache_hit"] for r in drain_records()] == [False, False, True, True]
    assert inline == pooled == warm
    assert all(killed(row) for row in inline)


def test_honest_cell_after_a_mutant_in_the_same_worker_passes():
    spawn = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        broken, honest = [
            pool.submit(cell.execute) for cell in (mutant("wal_unflushed"), HONEST_BLACKOUT)
        ]
        assert killed(broken.result(timeout=300))
        assert gate_failures(honest.result(timeout=300)) == []


def test_a_mutant_patch_is_undone_when_its_cell_raises(monkeypatch):
    honest_append = WriteAheadLog.append

    def dies(**_params):
        assert WriteAheadLog.append is not honest_append  # patched inside the cell
        raise RuntimeError("cell died mid-run")

    doomed = dataclasses.replace(MUTANTS["wal_unflushed"], cell=dies)
    monkeypatch.setitem(MUTANTS, "wal_unflushed", doomed)
    with pytest.raises(RuntimeError, match="cell died mid-run"):
        run_cells([mutant("wal_unflushed")], jobs=1, cache_dir=None)
    assert WriteAheadLog.append is honest_append
    (row,) = run_cells([HONEST_BLACKOUT], jobs=1, cache_dir=None)
    assert gate_failures(row) == []


def test_chaos_cells_cacheable(tmp_path):
    kw = dict(seeds=1, baseline_seeds=1, modes=["nice"],
              schedules=["crash_rejoin"], duration=2.0, out_path=None)
    prior = parallel.configure(jobs=1, cache_dir=str(tmp_path / "bc"))
    try:
        cold = chaos.run_suite(**kw)
        warm = chaos.run_suite(**kw)
    finally:
        parallel.configure(**prior)
    assert cold["cases"] == warm["cases"]
    assert [c["cache_hit"] for c in cold["cells"]] == [False]
    assert [c["cache_hit"] for c in warm["cells"]] == [True]

"""Tests for the parallel sweep orchestrator (repro.bench.parallel).

The bar: the orchestration must be invisible in the results.  ``--jobs N``
output must be bit-identical to ``--jobs 1`` output.
"""

import concurrent.futures
import dataclasses
import multiprocessing
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


def test_cell_identity_independent_of_param_order():
    """Param order names no different cell: the label (what a failure and
    a cell record print) and the payload are the same."""
    a = Cell(square_cell, {"x": 1, "y": 2}, seed=3)
    b = Cell(square_cell, {"y": 2, "x": 1}, seed=3)
    assert a == b and a.label == b.label == "square_cell(x=1,y=2)#s3"
    assert a.fn_name == f"{__name__}.square_cell"


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "fig4", "NICE") == derive_seed(42, "fig4", "NICE")
    assert derive_seed(42, "fig4", "NICE") != derive_seed(42, "fig4", "NOOB")
    assert derive_seed(42, "a") != derive_seed(43, "a")
    assert 0 <= derive_seed(0) < 2**63


# -------------------------------------------------------------- run_cells
def test_inline_and_pool_results_bit_identical():
    cells = [Cell(float_cell, {"x": x}, seed=x) for x in range(6)]
    seq = run_cells(cells, jobs=1)
    par = run_cells(cells, jobs=2)
    assert seq == par
    assert seq[0]["third"] == 1.0 / 3.0  # exact float round-trip


def test_merge_order_is_input_order():
    cells = [Cell(square_cell, {"x": x}, seed=0) for x in (5, 1, 9, 2)]
    results = run_cells(cells, jobs=3)
    assert [r["rows"][0]["x"] for r in results] == [5, 1, 9, 2]


def test_jobs1_never_creates_a_pool(monkeypatch):
    def forbidden(*a, **kw):
        raise AssertionError("jobs=1 must not create a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbidden)
    cells = [Cell(square_cell, {"x": x}, seed=0) for x in range(3)]
    assert run_cells(cells, jobs=1)[2]["rows"][0]["sq"] == 4


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_propagates_naming_the_cell(jobs):
    """Inline or pooled, the failure names fn, params and seed — enough to
    rerun the one cell — and chains the original exception."""
    cells = [Cell(square_cell, {"x": 1}, seed=0), Cell(boom_cell, {"x": 7}, seed=3)]
    with pytest.raises(RuntimeError, match=r"boom_cell\(x=7\)#s3 failed: ValueError: boom") as exc:
        run_cells(cells, jobs=jobs)
    assert isinstance(exc.value.__cause__, ValueError)


def test_single_cell_never_creates_a_pool(monkeypatch):
    def forbidden(*a, **k):
        raise AssertionError("one cell must run inline")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbidden)
    (result,) = run_cells([Cell(square_cell, {"x": 3}, seed=0)], jobs=4)
    assert result["rows"][0]["sq"] == 9


def test_jobs_default_to_the_session_config(monkeypatch):
    def forbidden(*a, **k):
        raise AssertionError("configure(jobs=1) runs inline")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", forbidden)
    cells = [Cell(square_cell, {"x": x}, seed=0) for x in range(3)]
    prior = parallel.configure(jobs=1)
    try:
        assert [r["rows"][0]["sq"] for r in run_cells(cells)] == [0, 1, 4]
    finally:
        parallel.configure(**prior)


def test_empty_sweep_returns_nothing_and_records_nothing():
    assert run_cells([], jobs=2) == []
    assert drain_records() == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_record_per_cell_in_input_order(jobs):
    cells = [Cell(square_cell, {"x": x}, seed=s) for x, s in ((4, 1), (2, 9))]
    run_cells(cells, jobs=jobs)
    records = drain_records()
    assert [r["cell"] for r in records] == ["square_cell(x=4)#s1", "square_cell(x=2)#s9"]
    assert [r["seed"] for r in records] == [1, 9]
    assert {r["fn"] for r in records} == {f"{__name__}.square_cell"}
    assert all(r["wall_s"] >= 0 for r in records)
    assert drain_records() == []  # draining clears the log


def test_a_rerun_recomputes_identical_payloads():
    """Nothing is replayed: a second run executes every cell again and
    returns the same payloads."""
    cells = [Cell(float_cell, {"x": x}, seed=1) for x in range(3)]
    first = run_cells(cells, jobs=1)
    second = run_cells(cells, jobs=1)
    assert first == second
    assert len(drain_records()) == 6


def test_configure_clamps_jobs_to_one():
    prior = parallel.configure(jobs=0)
    try:
        assert parallel._config["jobs"] == 1
    finally:
        parallel.configure(**prior)


def test_configure_sets_session_defaults():
    prior = parallel.configure(jobs=4)
    try:
        assert parallel._config["jobs"] == 4
    finally:
        parallel.configure(**prior)


def test_canonical_round_trips_tuples_and_numpy():
    import numpy as np

    out = canonical({"t": (1, 2), "f": np.float64(0.1), "i": np.int64(7)})
    assert out == {"t": [1, 2], "f": 0.1, "i": 7}
    assert isinstance(out["f"], float) and isinstance(out["i"], int)


# ------------------------------------------------------ scale-cell parity
def test_scale_cell_jobs_parity():
    """Scale-ladder cells compose with --jobs N: rung and ride-along chaos
    rows are bit-identical inline and pooled."""
    cfgs = (
        dict(racks=2, hosts_per_rack=3, n_clients=2, budget=256),
        dict(racks=3, hosts_per_rack=2, n_clients=2, budget=256),
    )
    seq = run("scale", n_ops=5, configs=cfgs)
    drain_records()
    prior = parallel.configure(jobs=2)
    try:
        par = run("scale", n_ops=5, configs=cfgs)
        records = drain_records()
    finally:
        parallel.configure(**prior)
    assert par.rows == seq.rows
    assert len([row for row in seq.rows if "throughput_ops_s" in row]) == 2
    assert scale.check(seq) == []  # real rows carry every gated field
    assert len(records) == 3  # 2 rung cells + the ride-along chaos cell


# -------------------------------------------------------------- provenance
def test_provenance_block():
    block = provenance(records=[{"wall_s": 1.0}, {"wall_s": 2.0}], ops=20, jobs=2)
    assert block["cells"] == 2
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
def test_figure_sweep_parallel_parity():
    """The acceptance bar: --jobs 1 and --jobs N rows are bit-identical."""
    kw = dict(n_ops=3, sizes=(4, 1024))
    seq = run("fig4", **kw)
    drain_records()
    prior = parallel.configure(jobs=2)
    try:
        par = run("fig4", **kw)
        records = drain_records()
    finally:
        parallel.configure(**prior)
    assert par.rows == seq.rows
    assert len(records) == 4


def test_multi_result_sweep_parallel_parity():
    kw = dict(n_ops=3, sizes=(1024,))
    seq = {name: run(name, **kw) for name in ("fig5", "fig6", "fig7")}
    prior = parallel.configure(jobs=2)
    try:
        par = {name: run(name, **kw) for name in seq}
    finally:
        parallel.configure(**prior)
    for name in ("fig5", "fig6", "fig7"):
        assert par[name].rows == seq[name].rows


def test_chaos_matrix_parallel_parity():
    kw = dict(seeds=1, baseline_seeds=1, modes=["nice"],
              schedules=["partition_rejoin"], duration=3.0)
    seq = chaos.run_suite(**kw)
    prior = parallel.configure(jobs=2)
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


def test_mutant_rows_identical_inline_and_pooled():
    cells = [mutant("harmonia_commit_clear"), mutant("wal_unflushed")]
    inline = run_cells(cells, jobs=1)
    pooled = run_cells(cells, jobs=2)
    assert inline == pooled
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
        run_cells([mutant("wal_unflushed")], jobs=1)
    assert WriteAheadLog.append is honest_append
    (row,) = run_cells([HONEST_BLACKOUT], jobs=1)
    assert gate_failures(row) == []


def test_chaos_cells_rerun_identically():
    """A chaos cell is a pure function of its params and seed: two runs of
    the same matrix give the same cases."""
    kw = dict(seeds=1, baseline_seeds=1, modes=["nice"],
              schedules=["crash_rejoin"], duration=2.0)
    first = chaos.run_suite(**kw)
    second = chaos.run_suite(**kw)
    assert first["cases"] == second["cases"]
    assert [c["fn"] for c in first["cells"]] == [c["fn"] for c in second["cells"]]

"""The experiment table, the system table and the schedule resolver.

An experiment is one ``Experiment`` record; these tests hold for every
record at once (names, ``bench all`` order, picklable cells, declared
columns) instead of once per hand-written sweep.
"""

import pickle

import pytest

from repro.bench import EXPERIMENTS, SYSTEMS, build, chaos, run, scale
from repro.bench.chaos import suite
from repro.bench.harness import Experiment, product, register
from repro.chaos import named
from repro.check.mutants import mutant_cell

#: ``bench all`` runs these, in this order — the order is part of
#: ``BENCH_figures.json``.
ALL = [
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "sec46",
    "ablation-chain", "ablation-lb", "ablation-membership", "ablation-deployment",
    "ablation-sw-rewrite",
]

#: A grid of a cell or two per experiment, a second or less each.
TINY = {
    "fig4": dict(n_ops=2, sizes=(1024,), systems=("NICE", "NOOB+ROG")),
    "fig5": dict(n_ops=2, sizes=(1024,)),
    "fig6": dict(n_ops=2, sizes=(1024,)),
    "fig7": dict(n_ops=2, sizes=(1024,)),
    "fig8": dict(n_ops=2, quorums=(1,)),
    "fig9": dict(n_ops=2, levels=(3,), sizes=(4,)),
    "fig10": dict(n_ops=2, levels=(3,), sizes=(4,), systems=("NICE", "NOOB 2PC")),
    "fig11": dict(duration=4.0, fail_at=1.0, recover_at=3.0),
    "fig12": dict(n_ops_per_client=10, n_clients=3, n_records=50, workloads=("F",)),
    "sec46": dict(measured_nodes=(8,), analytic_nodes=(1024,)),
    "read_scaling": dict(
        n_ops_per_client=10, n_clients=3, n_records=20, workloads=("C",), replications=(3,)
    ),
    "scale": dict(
        n_ops=2, chaos_duration=4.0,
        configs=(dict(racks=2, hosts_per_rack=3, n_clients=2, budget=256),),
    ),
    "ablation-chain": dict(n_ops=2, sizes=(1024,)),
    "ablation-lb": dict(n_ops=3, n_clients=3),
    "ablation-membership": dict(node_counts=(4,)),
    "ablation-deployment": dict(n_ops=2, sizes=(4,)),
    "ablation-sw-rewrite": dict(n_ops=2),
}


def test_all_is_the_same_fifteen_experiments_in_the_same_order():
    assert [name for name, exp in EXPERIMENTS.items() if exp.in_all] == ALL
    assert sorted(set(EXPERIMENTS) - set(ALL)) == ["read_scaling", "scale"]
    assert all(name == exp.name for name, exp in EXPERIMENTS.items())


def test_a_name_registers_once():
    twin = Experiment("fig4", "twin", ("x",), print, product())
    with pytest.raises(ValueError, match="'fig4' registered twice"):
        register(twin)
    assert EXPERIMENTS["fig4"] is not twin


def chaos_cell_functions():
    everything = suite.plan(
        list(suite.MODES), [*suite.STANDARD_SCHEDULES, *suite.CP_SCHEDULES,
                            *suite.DURABILITY_SCHEDULES], 1, 1, 1.0,
    )
    return {cell.fn for cell in everything} | {mutant_cell, scale.scale_chaos_cell}


def test_every_cell_function_pickles_by_reference():
    """What ``--jobs N`` needs of a cell, found here and not when a pool
    run fails: the worker must be able to import it by name."""
    cells = [exp.cell for exp in EXPERIMENTS.values()] + sorted(
        chaos_cell_functions(), key=lambda fn: fn.__qualname__
    )
    assert len(chaos_cell_functions()) == 8
    for fn in cells:
        assert pickle.loads(pickle.dumps(fn)) is fn, fn


@pytest.fixture(scope="module")
def tiny_results():
    assert set(TINY) == set(EXPERIMENTS), "give every new experiment a tiny grid"
    shared = {}
    return {name: run(name, shared=shared, **TINY[name]) for name in EXPERIMENTS}


@pytest.mark.parametrize("name", TINY)
def test_every_row_carries_its_declared_columns(tiny_results, name):
    result = tiny_results[name]
    assert result.name == name and result.columns == list(EXPERIMENTS[name].columns)
    rows = result.rows
    if name == "scale":
        # The ride-along rack_outage row is a different shape by design:
        # it carries what ``scale.check`` reads instead.
        (outage,) = [row for row in rows if "schedule" in row]
        assert set(outage) >= {
            "racks", "hosts_per_rack", "budget_ok", "max_switch_rules", "rule_budget",
            "linearizable", "reason", "reconcile_matches_scratch",
        }
        assert scale.check(result) == []
        rows = [row for row in rows if "schedule" not in row]
    assert rows
    for row in rows:
        assert set(row) >= set(result.columns), (name, sorted(row))


def test_run_rejects_a_parameter_the_experiment_does_not_have():
    with pytest.raises(TypeError, match=r"fig9 has no parameter\(s\) \['n_opps'\]"):
        run("fig9", n_opps=3)


@pytest.mark.parametrize("system", SYSTEMS)
def test_every_system_table_name_builds(system):
    cluster = build(system, n_storage_nodes=4, n_clients=1)
    assert len(cluster.nodes) == 4 and len(cluster.clients) == 1


def test_every_default_schedule_name_resolves_back_to_its_schedule():
    """A cell carries its schedule by name and resolves it against its own
    key; every name the suite can plan, in every family, must round-trip
    (the full matrix once planned the seeded-random schedules under names
    no lookup knew)."""
    schedules = [*suite.STANDARD_SCHEDULES, *suite.CP_SCHEDULES, *suite.DURABILITY_SCHEDULES]
    planned = {
        cell.params["schedule"]
        for cell in suite.plan(list(suite.MODES), schedules, 1, 1, 1.0)
        if "schedule" in cell.params
    }
    names = planned | (set(schedules) - {"torn_wal"})  # torn_wal scripts its own fault
    assert {"random[101]", "rule_flap", "node_meta_crash", "power_blackout", "fail_slow"} <= names
    for name in names:
        schedule = named(name, "the-key")
        assert schedule.name == name and len(schedule) > 0
        for event in schedule:
            role, _, key = event.target.partition(":")
            assert key == "the-key" or role not in ("primary", "secondary", "key")


def test_an_unknown_schedule_is_rejected_before_any_cell_runs(monkeypatch):
    def no_cell_may_run(cells):
        raise AssertionError(f"{len(cells)} cells ran")

    monkeypatch.setattr(suite, "run_cells", no_cell_may_run)
    with pytest.raises(ValueError, match="unknown schedule 'crash_rejoice'"):
        chaos.run_suite(modes=["nice"], schedules=["crash_rejoice"])

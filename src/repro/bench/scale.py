"""The leaf-spine scale family (DESIGN.md §5h; ``python -m repro.bench scale``).

Throughput and installed-rule count vs cluster size on the fabric, plus
one rack-outage fault cell riding along on the first multi-rack rung.
:func:`check` is the family's gate — the CLI exit code, CI and
``tests/bench/test_committed_reports.py`` all take their verdict from it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..chaos import FaultSchedule
from ..check import check_linearizable
from ..sim import AllOf
from ..workloads import closed_loop_gets, closed_loop_puts
from .chaos import reconcile_vs_scratch, run_faulted
from .harness import Experiment, build, register, run_to_completion
from .parallel import Cell, derive_seed

#: The racks x hosts ladder the scale figure sweeps.  ``budget`` is the
#: per-switch rule budget handed to every fabric switch (0 = unlimited,
#: used for the single-switch baseline cell).
SCALE_CONFIGS: Tuple[Dict, ...] = (
    dict(racks=1, hosts_per_rack=30, n_clients=8, budget=0),
    dict(racks=4, hosts_per_rack=16, n_clients=8, budget=1024),
    dict(racks=10, hosts_per_rack=30, n_clients=10, budget=4096),
    dict(racks=15, hosts_per_rack=20, n_clients=10, budget=4096),
    dict(racks=20, hosts_per_rack=50, n_clients=12, budget=8192),
)

#: CI's shrunk ladder: the 4x16 fabric rung alone, small enough that a
#: cold ``--smoke`` run finishes in seconds and a warm one in milliseconds.
SCALE_SMOKE_CONFIGS: Tuple[Dict, ...] = SCALE_CONFIGS[1:2]


def _budget_fields(counts: Dict[str, int], budget: int) -> Dict:
    """The §4.6 verdict both cell kinds carry: the fullest switch vs its budget."""
    return dict(
        max_switch_rules=max(counts.values()),
        rule_budget=budget,
        budget_ok=bool(budget <= 0 or max(counts.values()) <= budget),
    )


def scale_cell(
    racks: int,
    hosts_per_rack: int,
    n_clients: int,
    budget: int,
    n_ops: int,
    seed: int,
) -> Dict:
    """One rung of the ladder: build the fabric, run a mixed closed-loop
    workload, report throughput plus the per-switch rule census."""
    n_nodes = racks * hosts_per_rack
    kwargs = dict(n_storage_nodes=n_nodes, n_clients=n_clients, seed=seed)
    if racks > 1:
        kwargs.update(n_racks=racks, switch_rule_budget=budget)
    cluster = build("NICE", **kwargs)
    sim = cluster.sim
    keys = [f"scale-{i}" for i in range(2 * n_clients)]
    done = {"ops": 0, "elapsed": 0.0}

    def per_client(client, my_keys):
        puts = yield closed_loop_puts(client, sim, n_ops, 1024, keys=my_keys)
        gets = yield closed_loop_gets(client, sim, n_ops, my_keys)
        done["ops"] += puts.count + gets.count

    def driver(sim):
        seeder = cluster.clients[0]
        for key in keys:
            r = yield seeder.put(key, "seed", 1024)
            assert r.ok, f"seed put failed for {key}"
        start = sim.now
        procs = [
            sim.process(per_client(c, keys[2 * i : 2 * i + 2]))
            for i, c in enumerate(cluster.clients)
        ]
        yield AllOf(sim, procs)
        done["elapsed"] = sim.now - start

    run_to_completion(cluster, sim.process(driver(sim)))
    counts = cluster.controller.rule_counts_by_switch()
    row = dict(
        racks=racks,
        hosts_per_rack=hosts_per_rack,
        nodes=n_nodes,
        switches=len(counts),
        throughput_ops_s=(done["ops"] / done["elapsed"]) if done["elapsed"] else 0.0,
        ops=done["ops"],
        total_rules=sum(counts.values()),
        vring_rules=cluster.controller.rule_count(),
        **_budget_fields(counts, budget),
        # Incremental-planner counters (deterministic, unlike plan.sync_ms
        # which stays in the perf suite / obs registry): how many
        # (switch, partition) plans were computed vs served from cache.
        plan_recomputes=cluster.controller.plan_recomputes.value,
        plan_cache_hits=cluster.controller.plan_cache_hits.value,
    )
    return {"rows": [row]}


def scale_chaos_cell(
    racks: int,
    hosts_per_rack: int,
    n_clients: int,
    budget: int,
    duration: float,
    seed: int,
) -> Dict:
    """The fabric fault cell: a whole rack isolated mid-workload, healed,
    rejoined — the history must stay linearizable and reconcile-after-heal
    must match a from-scratch sync on every switch."""
    cluster = build(
        "NICE",
        n_storage_nodes=racks * hosts_per_rack,
        n_clients=n_clients,
        n_racks=racks,
        switch_rule_budget=budget,
        seed=seed,
    )
    recorder, engine = run_faulted(
        cluster,
        FaultSchedule.rack_outage(rack=1, start=2.0, heal_at=5.0),
        [f"k{i}" for i in range(6)],
        duration,
        seed,
    )
    lin = check_linearizable(recorder.ops)
    steady, matches = reconcile_vs_scratch(cluster, settle_s=0.05)
    row = dict(
        racks=racks,
        hosts_per_rack=hosts_per_rack,
        nodes=racks * hosts_per_rack,
        schedule="rack_outage",
        n_ops=len(recorder.ops),
        ok_ops=sum(1 for op in recorder.ops if op.ok),
        linearizable=bool(lin.ok),
        reason=lin.reason,
        chaos_events=[[t, label] for t, label in engine.events],
        steady_reconcile=steady,
        reconcile_matches_scratch=matches,
        **_budget_fields(cluster.controller.rule_counts_by_switch(), budget),
    )
    return {"rows": [row]}


def _ladder(cell: Callable, params: Dict[str, Any], seed: int) -> List[Cell]:
    """One ``cell`` per rung, plus the rack-outage cell on the first
    multi-rack rung; each on its own derived seed."""
    configs = params["configs"]
    cells = [
        Cell(cell, dict(n_ops=params["n_ops"], **cfg), seed=derive_seed(seed, "scale", cfg["racks"]))
        for cfg in configs
    ]
    chaos_cfg = next((c for c in configs if c["racks"] > 1), None)
    if chaos_cfg is not None:
        cells.append(
            Cell(
                scale_chaos_cell,
                dict(duration=params["chaos_duration"], **chaos_cfg),
                seed=derive_seed(seed, "scale-chaos", chaos_cfg["racks"]),
            )
        )
    return cells


def check(rows: Sequence[Dict]) -> List[str]:
    """Every gate of the scale family, as failure strings (empty = pass):
    the §4.6 rule budget on every row, and a rack-outage cell — present
    whenever a multi-rack rung ran — that stayed linearizable and whose
    reconcile-after-heal equals a from-scratch sync."""
    failures = []
    for r in rows:
        outage = "schedule" in r  # the ride-along rack_outage chaos row
        tag = f"scale {r['racks']}x{r['hosts_per_rack']}" + ("/rack_outage" if outage else "")
        if not r["budget_ok"]:
            failures.append(
                f"{tag}: {r['max_switch_rules']} rules on one switch, "
                f"budget {r['rule_budget']}"
            )
        if outage and not r["linearizable"]:
            failures.append(f"{tag}: history not linearizable: {r['reason']}")
        if outage and not r["reconcile_matches_scratch"]:
            failures.append(f"{tag}: reconciled tables diverge from scratch sync")
    if any(r["racks"] > 1 for r in rows) and not any("schedule" in r for r in rows):
        failures.append("scale: multi-rack rungs ran but no rack_outage cell did")
    return failures


register(
    Experiment(
        "scale",
        "Leaf-spine fabric - throughput and rule census vs cluster size",
        (
            "racks", "hosts_per_rack", "nodes", "switches",
            "throughput_ops_s", "total_rules", "max_switch_rules",
            "vring_rules", "rule_budget", "budget_ok",
            "plan_recomputes", "plan_cache_hits",
        ),
        scale_cell,
        _ladder,
        dict(n_ops=20, configs=SCALE_CONFIGS, chaos_duration=8.0),
        notes=(
            "per-rack prefixes aggregate to 2 wildcards per rack at each spine; "
            "leaves carry the per-partition vring rules (the §4.6 budget)",
        ),
        cli=lambda ops, full, smoke: dict(
            n_ops=max(ops // 5, 10),
            configs=SCALE_SMOKE_CONFIGS if smoke else SCALE_CONFIGS,
        ),
        check=check,
        in_all=False,
    )
)

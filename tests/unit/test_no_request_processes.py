"""No request path spawns a process (DESIGN.md §5g).

A client op, a get or put on a replica, a NOOB handler, a TCP send or
handshake, a disk IO and a multicast send are callback chains.  What still
calls ``<sim>.process(...)`` is named here by (module, enclosing function):
background loops, recovery and repair services, metadata and control-plane
replication, the chaos engine, the workload drivers, NOOB's membership
broadcast and the bench drivers.  A new call site fails the test, and so
does a listed one that is gone, so the list cannot go stale.  The generator
forms the chains replaced must stay gone too.

A chain that races a reply against a timer is a ``sim.Race``: every
``cancel_timer(`` call site is named the same way, so a hand-rolled fourth
race fails the test.
"""

import ast
import inspect
from pathlib import Path

import repro
from repro.core.node_shell import NodeShell
from repro.kv import TwoPhaseParticipant

#: Every ``.process(`` call site under ``src/repro``: (module, qualname).
PROCESS_SITES = {
    # Background loops, and the recovery and repair services a node serves
    # to its peers (lock queries, commit queries, handoff and object fetch).
    ("core/storage_node/shell.py", "NiceStorageNode.__init__"),
    ("core/storage_node/shell.py", "NiceStorageNode._on_node_msg"),
    ("core/storage_node/recovery.py", "Recovery.on_membership"),
    ("core/storage_node/recovery.py", "Recovery.on_rejoin_restart"),
    ("core/storage_node/recovery.py", "Recovery.restart"),
    # Metadata and control-plane HA replication.
    ("core/metadata.py", "MetadataService.__init__"),
    ("core/metadata.py", "MetadataService._inform_replicas"),
    ("core/metadata.py", "MetadataService._log_append"),
    ("core/controlplane_ha.py", "MetadataReplica.__init__"),
    ("core/controlplane_ha.py", "MetadataReplica._announce"),
    ("core/controlplane_ha.py", "MetadataReplica._demote"),
    # The chaos engine.
    ("chaos/engine.py", "ChaosEngine.restart"),
    ("chaos/engine.py", "ChaosEngine.start"),
    # NOOB's O(N) membership broadcast.
    ("noob/system.py", "NoobCluster.broadcast_membership_change"),
    ("noob/system.py", "NoobCluster.broadcast_membership_change.<locals>.run"),
    # Workload drivers.
    ("workloads/faultload.py", "run_fault_timeline"),
    ("workloads/synthetic.py", "closed_loop_gets"),
    ("workloads/synthetic.py", "closed_loop_puts"),
    ("workloads/synthetic.py", "hot_object_clients"),
    ("workloads/synthetic.py", "hot_object_clients.<locals>.run"),
    ("workloads/ycsb.py", "YcsbRunner.client_process"),
    ("workloads/ycsb.py", "YcsbRunner.load_phase"),
    ("workloads/ycsb.py", "YcsbRunner.run"),
    # Bench drivers and the kernel micro-benches.
    ("bench/ablations.py", "ablation_lb_cell"),
    ("bench/ablations.py", "ablation_sw_rewrite_cell"),
    ("bench/chaos/cells.py", "bit_rot_cell"),
    ("bench/chaos/cells.py", "harmonia_midput_cell"),
    ("bench/chaos/cells.py", "harmonia_midput_cell.<locals>.driver"),
    ("bench/chaos/cells.py", "run_faulted"),
    ("bench/chaos/cells.py", "torn_wal_cell"),
    ("bench/chaos/cells.py", "torn_wal_cell.<locals>.driver"),
    ("bench/figures.py", "fig10_cell.<locals>.hot_leg"),
    ("bench/figures.py", "fig5_6_7_cell"),
    ("bench/figures.py", "fig8_cell"),
    ("bench/harness.py", "seeded_sweep"),
    ("bench/perf.py", "_armed_client"),
    ("bench/perf.py", "_spawn_and_join"),
    ("bench/perf.py", "bench_kernel_armed_timers"),
    ("bench/perf.py", "bench_kernel_churn"),
    ("bench/perf.py", "bench_kernel_process"),
    ("bench/perf.py", "bench_multicast_fanout"),
    ("bench/scale.py", "scale_cell"),
    ("bench/scale.py", "scale_cell.<locals>.driver"),
}

#: Every ``cancel_timer(`` call site under ``src/repro``: the race base and
#: the event algebra's ``AnyOf``/``AllOf``.
CANCEL_TIMER_SITES = {
    ("sim/events.py", "Condition._settle_losers"),
    ("sim/process.py", "Race._won"),
}


def _own_nodes(node):
    """``node``'s descendants, not entering nested functions or classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        yield child
        yield from _own_nodes(child)


def _call_sites(method):
    """{(module, qualname)} of every function that calls ``<x>.<method>(...)``."""
    root = Path(repro.__file__).parent
    found = set()

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                if any(
                    isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr == method
                    for n in _own_nodes(child)
                ):
                    found.add((module, qualname))
                visit(child, module, f"{qualname}.<locals>.")

    for path in sorted(root.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(root).as_posix(), "")
    return found


def test_every_process_spawn_is_a_named_background_site():
    found = _call_sites("process")
    assert sorted(found - PROCESS_SITES) == [], "spawns a process on a request path?"
    assert sorted(PROCESS_SITES - found) == [], "listed site is gone: drop it from the list"


def test_every_timer_cancel_is_the_race_base_or_the_event_algebra():
    found = _call_sites("cancel_timer")
    assert sorted(found - CANCEL_TIMER_SITES) == [], "a hand-rolled race? use sim.Race"
    assert sorted(CANCEL_TIMER_SITES - found) == [], "listed site is gone: drop it from the list"


def test_the_generator_forms_the_chains_replaced_are_gone():
    assert not hasattr(NodeShell, "cpu_work")
    assert not hasattr(NodeShell, "reply_get")
    assert not inspect.isgeneratorfunction(TwoPhaseParticipant.prepare)

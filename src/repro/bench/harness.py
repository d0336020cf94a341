"""Shared experiment plumbing: the system table, the experiment table and
the one loop that runs an experiment.

An experiment is one :class:`Experiment` record registered by the module
that defines its cell function (``figures``, ``scale``, ``ablations``);
:func:`run` turns a record plus parameter overrides into an
:class:`ExperimentResult`.  A system is one :data:`SYSTEMS` entry; every
cell builds its cluster through :func:`build`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import ClusterConfig, NiceCluster
from ..noob import NoobCluster, NoobConfig
from ..obs import runtime as obs_runtime
from .parallel import Cell, run_cells

__all__ = [
    "BASE_SEED",
    "EXPERIMENTS",
    "SYSTEMS",
    "Experiment",
    "ExperimentResult",
    "build",
    "build_nice",
    "build_noob",
    "product",
    "register",
    "run",
    "run_to_completion",
]

#: Hard ceiling on simulated seconds per experiment leg (safety net).
MAX_HORIZON_S = 100_000.0

#: Base cluster seed shared by the sweeps (= ClusterConfig default).  Each
#: cell receives it explicitly so a cell's execution is a pure function of
#: its (params, seed) record, independent of sweep order.
BASE_SEED: int = ClusterConfig.__dataclass_fields__["seed"].default


@dataclass
class ExperimentResult:
    """One figure's regenerated data: rows of named columns plus notes."""

    name: str
    description: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def column(self, name: str, where: Optional[Dict[str, Any]] = None) -> List[Any]:
        out = []
        for row in self.rows:
            if where and any(row.get(k) != v for k, v in where.items()):
                continue
            out.append(row.get(name))
        return out

    def note(self, text: str) -> None:
        self.notes.append(text)


# ------------------------------------------------------------------ systems
def _warmed(cluster, system: str, overrides: dict):
    cluster.warm_up()
    # Under `--trace` a session is open and every built cluster gets a
    # tracer (after warm-up, so traces carry measurement traffic only);
    # otherwise this is a no-op and sim.tracer stays None.
    params = " ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
    obs_runtime.attach(cluster.sim, label=f"{system} {params}" if params else system)
    return cluster


def build_nice(**overrides) -> NiceCluster:
    """A warmed NICE cluster with the paper's §6 defaults."""
    return _warmed(NiceCluster(ClusterConfig(**overrides)), "NICE", overrides)


def build_noob(**overrides) -> NoobCluster:
    """A warmed NOOB cluster with the paper's §6 defaults."""
    return _warmed(NoobCluster(NoobConfig(**overrides)), "NOOB", overrides)


def _noob(access: str, consistency: str, **extra):
    return build_noob, dict(access=access, consistency=consistency, **extra)


#: Every system name a result row carries -> (builder, config overrides):
#: the figure legs by their display name, the chaos modes by their mode
#: name (listed in ``chaos.MODES``, the loss-fragile ones in
#: ``chaos.suite.LOSS_FRAGILE``), and ``rac-weak``, which only the mutant
#: table runs.
SYSTEMS: Dict[str, Tuple[Callable, Dict[str, Any]]] = {
    "NICE": (build_nice, {}),
    "NICE harmonia": (build_nice, dict(protocol_mode="harmonia")),
    "NOOB+RAC": _noob("rac", "primary"),
    "NOOB+RAG": _noob("rag", "primary"),
    "NOOB+ROG": _noob("rog", "primary"),
    "NOOB primary-only": _noob("rac", "primary"),
    "NOOB primary fan-out": _noob("rac", "primary"),
    "NOOB chain": _noob("rac", "chain"),
    "NOOB 2PC": _noob("rac", "2pc"),
    # The paper's 2PC configuration load-balances through a gateway —
    # its Fig 10/12 cost includes "the added load-balancing latency".
    "NOOB 2PC (gateway)": _noob("rag", "2pc"),
    # Fig 8's baseline: the primary unicasts to every replica and acks at
    # the write-set size (the cell passes ``quorum_k``).
    "NOOB": _noob("rac", "quorum"),
    "nice": (build_nice, {}),
    "rac-2pc": _noob("rac", "2pc"),
    "rag-2pc": _noob("rag", "2pc"),
    "rog-2pc": _noob("rog", "2pc"),
    "rac-quorum": _noob("rac", "quorum"),
    # Primary-only replication acks puts even when the replica transfers
    # fail, and round-robin reads then serve whatever the replicas hold:
    # the misconfiguration the checker must catch.
    "rac-weak": _noob("rac", "primary", get_lb="round_robin"),
    # Harmonia protocol mode (DESIGN.md §5j): switch dirty-set, any-replica
    # conflict-free reads.
    "harmonia": (build_nice, dict(protocol_mode="harmonia")),
}


def build(system: str, **overrides):
    """A warmed cluster of the named :data:`SYSTEMS` entry."""
    builder, base = SYSTEMS[system]
    return builder(**dict(base, **overrides))


def run_to_completion(cluster, process, horizon_s: float = MAX_HORIZON_S):
    """Drive the simulator until ``process`` finishes; return its value.

    Uses :meth:`Simulator.run_until`, which stops exactly when the process
    event is processed instead of spinning fixed 50-sim-second ``run``
    chunks past it.
    """
    deadline = cluster.sim.now + horizon_s
    cluster.sim.run_until(process, until=deadline)
    if not process.triggered:
        if cluster.sim.pending_events == 0:
            raise RuntimeError(
                f"simulation drained with process still pending at t={cluster.sim.now}"
            )
        raise RuntimeError(f"experiment exceeded horizon of {horizon_s} sim-seconds")
    if process.ok is False:
        raise process.value
    return process.value


# -------------------------------------------------------------- experiments
def product(**axes: str) -> Callable[[Callable, Dict[str, Any], int], List[Cell]]:
    """The usual grid: one cell per combination of the swept parameters.

    ``axes`` maps a cell parameter to the experiment parameter holding its
    values, slowest-varying first; every other experiment parameter is
    handed to each cell unchanged.  ``product()`` is the one-cell grid."""

    def grid(cell: Callable, params: Dict[str, Any], seed: int) -> List[Cell]:
        fixed = {k: v for k, v in params.items() if k not in axes.values()}
        return [
            Cell(cell, dict(fixed, **dict(zip(axes, combo))), seed=seed)
            for combo in itertools.product(*(params[source] for source in axes.values()))
        ]

    return grid


@dataclass(frozen=True)
class Experiment:
    """One experiment, said once: what it is called, what a row holds,
    which module-level ``cell`` function computes a leg, how ``params``
    expand into cells, and how the CLI scales, summarises and draws it."""

    name: str
    description: str
    columns: Tuple[str, ...]
    cell: Callable[..., Dict]
    #: ``grid(cell, params, seed)`` -> the cells, in row order.
    grid: Callable[[Callable, Dict[str, Any], int], List[Cell]]
    #: Paper-scale parameters; :func:`run` overrides are checked against them.
    params: Dict[str, Any] = field(default_factory=dict)
    #: Key of a cell payload holding this experiment's rows (Figs 5–7 read
    #: three tables out of one shared sweep).
    payload: str = "rows"
    #: ``str.format`` templates over the parameters, or a function of them.
    notes: Tuple[Union[str, Callable[[Dict[str, Any]], str]], ...] = ()
    #: CLI ``(--ops or 1000 under --full, --full, --smoke)`` -> overrides.
    cli: Callable[[int, bool, bool], Dict[str, Any]] = lambda ops, full, smoke: {}
    #: ``ratio_summary`` spec: (metric, baseline system, group columns).
    summary: Optional[Tuple[str, str, Sequence[str]]] = None
    chart: Optional[Callable[[ExperimentResult], str]] = None
    #: Rows -> failure strings; a non-empty list is CLI exit status 1.
    check: Optional[Callable[[List[Dict]], List[str]]] = None
    #: Part of ``bench all`` (whose experiment order is the table's).
    in_all: bool = True


#: name -> record, in ``bench all`` order.  Filled once, at import, by the
#: modules ``repro.bench`` imports (figures, scale, ablations — in that order).
EXPERIMENTS: Dict[str, Experiment] = {}


def register(*experiments: Experiment) -> None:
    for experiment in experiments:
        if experiment.name in EXPERIMENTS:
            raise ValueError(f"experiment {experiment.name!r} registered twice")
        EXPERIMENTS[experiment.name] = experiment


def run(name: str, shared: Optional[Dict] = None, **overrides: Any) -> ExperimentResult:
    """Run one experiment of the table at its paper-scale parameters,
    ``overrides`` (and ``seed``) replacing the named ones.

    ``shared`` memoizes sweep payloads across calls: the CLI passes one
    dict per invocation so ``fig5 fig6 fig7`` run their sweep once."""
    experiment = EXPERIMENTS[name]
    seed = overrides.pop("seed", BASE_SEED)
    unknown = sorted(set(overrides) - set(experiment.params))
    if unknown:
        raise TypeError(f"{name} has no parameter(s) {unknown}; has {sorted(experiment.params)}")
    params = {**experiment.params, **overrides}
    cells = experiment.grid(experiment.cell, params, seed)
    if shared is None:
        payloads = run_cells(cells)
    else:
        sweep = tuple(cell.cache_key("") for cell in cells)  # (fn, params, seed) of each
        if sweep not in shared:
            shared[sweep] = run_cells(cells)
        payloads = shared[sweep]
    result = ExperimentResult(name, experiment.description, list(experiment.columns))
    for payload in payloads:
        result.rows.extend(payload[experiment.payload])
        result.notes.extend(payload.get("notes", ()))
    for note in experiment.notes:
        result.note(note(params) if callable(note) else note.format(**params))
    return result

"""One simulation mode, nothing to set (PR 15).

The flow-approximation mode and the two ``REPRO_*`` environment switches
are gone; these checks keep them from growing back under another name:
the simulator reads no environment variable, and every place the mode
used to be settable now rejects it.  Likewise no deliberately broken
variant is settable: those are in-process patches in the mutant table.
And the metadata service has one way to run, standbys or not, as a bench
cell has one way to run: inline or pooled, never served from a cache.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.bench.__main__ import _parser, main
from repro.bench import parallel
from repro.bench.parallel import Cell
from repro.core import ClusterConfig, NiceCluster
from repro.kv import WriteAheadLog
from repro.net import Rule
from repro.net.harmonia import HarmoniaRegistry
from repro.sim import Simulator
from repro.transport import MulticastEndpoint


def _grep(pattern, *dirs, glob="*.py"):
    """``path:line`` of every line of the ``glob`` files under ``dirs``
    that matches ``pattern``."""
    regex = re.compile(pattern)
    return [
        f"{path}:{lineno}"
        for top in dirs
        for path in sorted(top.rglob(glob))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if regex.search(line)
    ]


def test_removed_mode_and_env_names_stay_gone():
    root = Path(repro.__file__).parent
    pattern = r"approx_mode|sim_mode|REPRO_(DISABLE_FLOW_CACHE|NO_TX_BATCH)|no-cache|cache_dir"
    assert _grep(pattern, root) == []
    assert _grep(pattern, root.parents[1] / ".github", glob="*.yml") == []


def test_fault_kinds_have_no_handler_methods():
    """A fault kind is a record of ``chaos.FAULTS``, not a ``_do_`` method."""
    assert _grep(r"def _do_", Path(repro.__file__).parent / "chaos") == []


def test_src_reads_no_environment_variable():
    root = Path(repro.__file__).parent
    pattern = re.compile(r"\bos\.(environ|getenv)\b|\bfrom os import .*\b(environ|getenv)\b")
    hits = [
        f"{path.relative_to(root)}:{lineno}"
        for path in sorted(root.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_cluster_config_has_no_sim_mode():
    with pytest.raises(TypeError):
        ClusterConfig(sim_mode="approx")


@pytest.mark.parametrize(
    "option", ["multicast_chunk_loss", "failslow_threshold", "failslow_strikes"]
)
def test_cluster_config_has_no_never_set_option(option):
    """Deleted in PR 18: no file under src/, tests/, benchmarks/ or
    examples/ ever set them.  Loss is injected on links only
    (``Link.set_loss``); the multicast endpoint takes no loss knob, and the
    fail-slow detector's constants sit beside it."""
    with pytest.raises(TypeError):
        ClusterConfig(**{option: 2})


def test_cell_has_no_sim_mode():
    with pytest.raises(TypeError):
        Cell(len, {}, seed=0, sim_mode="approx")


def test_cli_rejects_sim_mode_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--sim-mode", "approx", "fig5"])
    assert exc.value.code == 2  # argparse usage error
    assert "--sim-mode" in capsys.readouterr().err


def test_cli_options_are_pinned():
    """One report writer, one output flag: a per-suite ``--*-out`` (or any
    other new switch) has to change this list to come back."""
    options = {opt for action in _parser()._actions for opt in action.option_strings}
    assert options == {
        "-h", "--help", "--ops", "--full", "--smoke", "--jobs", "--seeds", "--out", "--trace",
    }


def test_kernel_knows_nothing_about_approximation():
    assert [name for name in dir(Simulator()) if "approx" in name] == []


def test_metadata_service_has_one_code_path():
    """Every NICE cluster's metadata service runs inside a replica group
    (of one by default); the service binds no socket and starts no loop of
    its own beside its failure monitor."""
    root = Path(repro.__file__).parent
    pattern = re.compile(r"own_loops|_control_loop|_leader_beat_loop|set_peers")
    assert [p.name for p in sorted(root.rglob("*.py")) if pattern.search(p.read_text())] == []
    assert NiceCluster(ClusterConfig(n_storage_nodes=3, n_clients=1)).metadata_ha.size == 1


def test_src_ships_no_broken_variant():
    """The weakened harmonia dirty-set and the unflushed WAL were options
    of the protocol code; they are ``repro.check.mutants`` entries now."""
    root = Path(repro.__file__).parent
    pattern = re.compile(r"harmonia-weak|nice-waloff|wal_forced")
    assert [p.name for p in sorted(root.rglob("*.py")) if pattern.search(p.read_text())] == []
    assert list(inspect.signature(WriteAheadLog).parameters) == ["disk"]
    assert list(inspect.signature(MulticastEndpoint).parameters) == ["stack", "port"]
    assert list(inspect.signature(parallel.run_cells).parameters) == ["cells", "jobs"]
    assert list(inspect.signature(parallel.configure).parameters) == ["jobs"]
    assert "idle_timeout" not in {f.name for f in dataclasses.fields(Rule)}
    assert list(inspect.signature(HarmoniaRegistry).parameters) == ["ring"]
    with pytest.raises(ValueError, match="must be 'nice' or 'harmonia'"):
        ClusterConfig(protocol_mode="harmonia-weak")

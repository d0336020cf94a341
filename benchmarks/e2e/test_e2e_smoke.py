"""Smoke tests of the end-to-end benchmark itself.

Run explicitly with ``pytest benchmarks/e2e`` (tier-1's ``testpaths`` is
``tests`` and does not collect this file).  Every run uses ``--smoke``:
two-chunk exact windows, five chaos cells, one set-up, no time box.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import measure  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core.client import OpResult  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Host-clock metrics; every other end-to-end metric must repeat exactly.
HOST = {"setup_s", "host_ops_per_s", "peak_rss_mb"}


def run(workload: str, seed: int = 1, trace: int = 0, cwd: str = ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace), "--smoke",
    ]  # fmt: skip
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert tuple(WORKLOADS) == wl.WORKLOAD_NAMES


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_named_metric(workload, trace):
    out = result(run(workload, trace=trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert got["value"] == got["value"], f"{m['name']} is nan"
        if not trace:
            assert got["value"] > 0, f"end-to-end {m['name']} must never be 0"
    if trace:
        values = {k: v["value"] for k, v in out["metrics"].items()}
        shares = [v for k, v in values.items() if k.endswith(".self_share")]
        assert abs(sum(shares) - 1.0) < 0.01
        noob = sum(v for k, v in values.items() if k.startswith("noob.") and "self" in k)
        fault = sum(
            v for k, v in values.items()
            if k.startswith(("chaos.", "check.")) and k.endswith(".self_share")
        )  # fmt: skip
        assert (noob > 0) == (workload == "noob_ycsb_a")
        assert (fault > 0) == (workload == "chaos_nice")


def test_exact_metrics_repeat_for_a_seed_and_move_with_it():
    a, b, c = (result(run("put_small", seed=s))["metrics"] for s in (3, 3, 4))
    exact = [m["name"] for m in SPEC["end_to_end"] if m["name"] not in HOST]
    assert all(a[name]["value"] == b[name]["value"] for name in exact)
    assert any(a[name]["value"] != c[name]["value"] for name in exact)


def test_checker_catches_a_stale_read():
    """A client that answers every get with the preloaded value serves
    stale data as soon as a put to that key has been acknowledged."""
    workload = wl.WORKLOADS["noob_ycsb_a"]
    streams = wl.op_streams(workload, seed=5)
    cluster, _, _ = measure.repeated_set_up(workload, repeats=1)

    class StaleClient:
        def __init__(self, real):
            self.real = real

        def __getattr__(self, name):  # puts and counters: the real client's
            return getattr(self.real, name)

        def get(self, key):
            def answer():
                yield self.real.sim.timeout(1e-4)
                return OpResult(True, 1e-4, 0, value=wl.preload_value(int(key[4:])))

            return self.real.sim.process(answer())

    cluster.clients = [StaleClient(c) for c in cluster.clients]
    phase = measure.closed_loop(cluster, workload, streams, seconds=0.0, exact_chunks=2)
    problems = measure.check_history(phase.history, streams)
    assert any("stale read" in p for p in problems), problems


def test_checkout_without_the_simulator_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
        )  # fmt: skip
    proc = run("ycsb_c", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")

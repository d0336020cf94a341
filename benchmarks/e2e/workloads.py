"""The five fixed workloads: cluster shapes, sizes and seeded op streams.

Everything here goes through the simulator's public API only
(``NiceCluster``/``ClusterConfig``, ``NoobCluster``/``NoobConfig``,
``client.put``/``client.get``, ``repro.workloads.zipf``).  The op streams
are generated up front from ``--seed``; the program under test only ever
sees the generated ops and ``ClusterConfig.seed`` stays at its default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import ClusterConfig, NiceCluster
from repro.noob import NoobCluster, NoobConfig
from repro.workloads.zipf import ScrambledZipfianGenerator, UniformGenerator

#: Set-ups (cluster build + preload) per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: YCSB record size used by every workload ("1 KB objects").
OBJECT_BYTES = 1000

#: Put values are ``thread * VALUE_STRIDE + op_index`` so a returned value
#: names the put that wrote it; preloaded record ``i`` holds ``-(i + 1)``.
VALUE_STRIDE = 1 << 32


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: who runs what against which cluster.

    ``chunk_sim_s`` is the simulated length of one timed chunk (sized so a
    chunk costs ~0.2 s of host time at the seed commit) and
    ``exact_chunks`` the number of leading chunks that form the *exact
    window*: the fixed stretch of simulated time over which every simulated
    metric and every count is taken, so they repeat exactly for a seed no
    matter how many further chunks the host fits into ``--seconds``.
    """

    name: str
    system: str  # "nice" | "noob"
    config: Dict[str, object]
    n_clients: int
    threads: int
    n_records: int
    read_share: float
    chunk_sim_s: float
    exact_chunks: int
    #: Key choice: "zipfian" (YCSB's scrambled zipfian over all records),
    #: "uniform", or "private" (uniform over the client's own slice of the
    #: records, so no two writers ever contend for a key lock).
    keys: str = "zipfian"
    #: Pre-generated ops per thread; a thread that outruns its stream wraps.
    stream_len: int = 4096


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="put_small",
            system="nice",
            config=dict(n_storage_nodes=15, replication_level=3, n_clients=4),
            n_clients=4,
            threads=1,
            n_records=1000,
            read_share=0.0,
            chunk_sim_s=0.05,
            exact_chunks=26,
            keys="private",
            stream_len=8192,
        ),
        Workload(
            name="ycsb_c",
            system="nice",
            config=dict(n_storage_nodes=15, replication_level=3, n_clients=14),
            n_clients=14,
            threads=4,
            n_records=1000,
            read_share=1.0,
            chunk_sim_s=0.01,
            exact_chunks=24,
            stream_len=2048,
        ),
        Workload(
            name="ycsb_a_fabric",
            system="nice",
            config=dict(
                n_storage_nodes=128,
                n_racks=8,
                n_clients=16,
                replication_level=3,
                switch_rule_budget=4096,
            ),
            n_clients=16,
            threads=4,
            n_records=300,
            read_share=0.5,
            chunk_sim_s=0.002,
            exact_chunks=26,
            stream_len=512,
            keys="uniform",
        ),
        Workload(
            name="noob_ycsb_a",
            system="noob",
            config=dict(
                n_storage_nodes=15,
                replication_level=3,
                n_clients=14,
                access="rac",
                consistency="2pc",
            ),
            n_clients=14,
            threads=4,
            n_records=1000,
            read_share=0.5,
            chunk_sim_s=0.02,
            exact_chunks=32,
            stream_len=1024,
        ),
    )
}

#: chaos_nice: 6-node NICE cells, one partition under attack (the shape of
#: ``python -m repro.bench chaos``), 10 simulated seconds per cell.
CHAOS_CONFIG = dict(n_storage_nodes=6, n_clients=3)
CHAOS_CELL_SIM_S = 10.0
CHAOS_KEYS = 3
CHAOS_PACE_S = 0.03
#: The standard schedules chaos_nice cycles through.  ``lossy_network`` is
#: left out: about one such cell in twenty ends in a real read regression
#: (cells ("lossy_network", 5002) and (…, 5020) reproduce it), and a
#: benchmark must run on inputs whose outputs are correct.  See README.md.
CHAOS_SCHEDULES = ("crash_rejoin", "primary_crash", "partition_rejoin", "isolate_rejoin")
#: Rounds of those schedules that form chaos_nice's exact window.
CHAOS_EXACT_ROUNDS = 4

WORKLOAD_NAMES: Tuple[str, ...] = (*WORKLOADS, "chaos_nice")


def key_name(record: int) -> str:
    return f"user{record}"


def preload_value(record: int) -> int:
    return -(record + 1)


def build_cluster(workload: Workload):
    """A fresh cluster for ``workload`` (not yet warmed or loaded)."""
    if workload.system == "noob":
        return NoobCluster(NoobConfig(**workload.config))
    return NiceCluster(ClusterConfig(**workload.config))


#: Op types come in blocks of this many ops that each hold exactly the
#: workload's put share, in seeded random order.
TYPE_BLOCK = 20


def op_streams(workload: Workload, seed: int) -> List[List[Tuple[bool, str]]]:
    """One ``[(is_put, key), ...]`` stream per closed-loop thread.

    Thread ``t`` draws from ``default_rng([seed, t])``.  Keys are drawn
    independently from the workload's key distribution.  Op types are
    *balanced*: every block of ``TYPE_BLOCK`` ops holds exactly the put
    share, shuffled — a put costs ~5x the events of a get, and with
    independent coin flips the realised mix of a ~1 000-op window alone
    would move ``events_per_op`` by several percent from seed to seed.
    """
    n_threads = workload.n_clients * workload.threads
    n = workload.stream_len
    puts_per_block = round(TYPE_BLOCK * (1.0 - workload.read_share))
    block = np.arange(TYPE_BLOCK) < puts_per_block
    streams = []
    for t in range(n_threads):
        rng = np.random.default_rng([seed, t])
        blocks = np.tile(block, (-(-n // TYPE_BLOCK), 1))
        is_put = rng.permuted(blocks, axis=1).ravel()[:n]
        if workload.keys == "private":
            per_client = workload.n_records // workload.n_clients
            base = (t // workload.threads) * per_client
            records = base + rng.integers(0, per_client, size=n)
        elif workload.keys == "uniform":
            records = UniformGenerator(workload.n_records, rng=rng).sample(n)
        else:
            records = ScrambledZipfianGenerator(workload.n_records, rng=rng).sample(n)
        streams.append(
            [(bool(p), key_name(int(r))) for p, r in zip(is_put, records)]
        )
    return streams

"""The paper's claims as predicates over regenerated figures.

Each module regenerates one of the paper's figures through the experiment
table (``repro.bench.run``) at reduced operation counts (the simulator is
deterministic, so means converge with far fewer samples than the paper's
1000 ops/point) and asserts the paper's orderings, factors and crossovers.
Paper-scale runs: ``python -m repro.bench <figure> --full``.
"""

import pytest

from repro.bench import run

#: Reduced op count shared by the figure benchmarks.
BENCH_OPS = 20

#: Object sizes of the one Figs 5–7 sweep: every size a claim reads.
REPLICATION_SIZES = (4, 1024, 65536, 1 << 20)


@pytest.fixture(scope="session")
def bench_ops():
    return BENCH_OPS


@pytest.fixture(scope="session")
def replication_sweep(bench_ops):
    """Figs 5, 6 and 7 are three tables of one sweep: run it once."""
    shared = {}
    return {
        name: run(name, shared=shared, n_ops=bench_ops, sizes=REPLICATION_SIZES)
        for name in ("fig5", "fig6", "fig7")
    }

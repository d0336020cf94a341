"""The mutant table (``repro.check.mutants``): the gates' own gate.

Every entry's cell runs here, with its patch applied inside the cell, and
its conclusive row must fail the gates an honest chaos cell passes exactly
when the table says it must — the same verdict ``bench chaos`` reaches.
"""

import pytest

from repro.bench.chaos.suite import gate_failures, killed
from repro.check.mutants import MUTANTS, mutant_cell


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_meets_its_cell_as_the_table_expects(name):
    mutant = MUTANTS[name]
    row = mutant_cell(name, seed=mutant.seed)
    assert row["mutant"] == name and row["seed"] == mutant.seed
    assert not row["inconclusive"]
    assert killed(row) == mutant.killed, gate_failures(row)

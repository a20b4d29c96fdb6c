"""Module-level constant tables are read-only, which is what keeps them
CTX001-clean without an exemption: no run can write to a table another
run reads."""

import pytest

from repro.cpu import isa, programs
from repro.experiments import (
    coverage_table, mttf_table, redundancy_table, workload_table,
)
from repro.faults import generators

TABLES = {
    "isa.OPCODES": isa.OPCODES,
    "isa.MNEMONICS": isa.MNEMONICS,
    "isa.THREE_REG": isa.THREE_REG,
    "isa.TWO_REG_IMM": isa.TWO_REG_IMM,
    "isa.BRANCHES": isa.BRANCHES,
    "isa.CYCLE_COSTS": isa.CYCLE_COSTS,
    "isa.REGISTER_INDEX": isa.REGISTER_INDEX,
    "programs.PROGRAMS": programs.PROGRAMS,
    "coverage_table.PAPER_PARAMETERS": coverage_table.PAPER_PARAMETERS,
    "mttf_table.PAPER": mttf_table.PAPER,
    "mttf_table.PAPER[fs, degraded]": mttf_table.PAPER[("fs", "degraded")],
    "redundancy_table.DEFAULT_LEVELS": redundancy_table.DEFAULT_LEVELS,
    "workload_table.WORKLOAD_INPUTS": workload_table.WORKLOAD_INPUTS,
    "generators.DEFAULT_TARGET_WEIGHTS": generators.DEFAULT_TARGET_WEIGHTS,
}


@pytest.mark.parametrize("name", sorted(TABLES))
def test_table_rejects_writes(name):
    table = TABLES[name]
    if isinstance(table, (set, frozenset)):
        with pytest.raises(AttributeError):
            table.add("NEW")
    else:
        key = 0 if isinstance(table, (list, tuple)) else next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]

"""Selection engine: deterministic (class x chunk) work units, run in-process.

The paper's FPGA realizes selection as spatially parallel compute units;
here every unit is an independent, keyed-RNG facility-location problem
that the executor runs serially — see DESIGN.md §4 for the determinism
strategy.
"""

from repro.parallel.engine import SelectionExecutor, SelectionSpec, execute_unit
from repro.parallel.scheduler import WorkUnit, plan_selection_round, unit_rng

__all__ = [
    "SelectionExecutor",
    "SelectionSpec",
    "execute_unit",
    "WorkUnit",
    "plan_selection_round",
    "unit_rng",
]

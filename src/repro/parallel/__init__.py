"""Multi-core selection engine: shared-memory fan-out over (class x chunk).

The paper's FPGA realizes selection as spatially parallel compute units;
this package is the CPU analogue — see DESIGN.md §4 for the executor,
shared-memory layout and determinism strategy.
"""

from repro.parallel.engine import (
    SelectionExecutor,
    SelectionSpec,
    default_workers,
    execute_unit,
)
from repro.parallel.scheduler import WorkUnit, plan_selection_round, unit_rng
from repro.parallel.store import (
    SharedFeatureStore,
    StoreHandle,
    shared_memory_available,
)

__all__ = [
    "SelectionExecutor",
    "SelectionSpec",
    "default_workers",
    "execute_unit",
    "WorkUnit",
    "plan_selection_round",
    "unit_rng",
    "SharedFeatureStore",
    "StoreHandle",
    "shared_memory_available",
]

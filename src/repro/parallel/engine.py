"""The selection executor: every (class x chunk) unit, run in-process.

CRAIG-style per-class selection splits into independent work units —
every (class x chunk) unit is its own facility-location problem — and
the paper's FPGA runs them on spatially parallel compute units.  Here
the stand-in for that device is the overlap thread
(:mod:`repro.pipeline.overlap`), which takes the whole round off the
training thread; :class:`SelectionExecutor` runs the round's units one
after another on whatever thread calls it.

Determinism contract: a unit's result depends only on ``(vectors rows,
take, seed_key, spec)`` — never on when it ran — and results are
assembled in :attr:`WorkUnit.order`.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import obs
from repro.parallel.scheduler import WorkUnit, unit_rng

__all__ = ["SelectionSpec", "SelectionExecutor", "execute_unit"]


class SelectionSpec(dict):
    """Per-round selection parameters passed to every unit.

    A thin dict subclass so the call site reads declaratively; keys
    mirror :func:`repro.selection.craig.craig_select_class` kwargs.
    """

    def __init__(
        self,
        method: str = "lazy",
        epsilon: float = 0.1,
        precision: str = "float64",
        similarity_dtype_bytes: int = 4,
        scoring: str = "off",
        qbits: int = 8,
        scales: dict | None = None,
    ):
        super().__init__(
            method=method,
            epsilon=epsilon,
            precision=precision,
            similarity_dtype_bytes=similarity_dtype_bytes,
            scoring=scoring,
            qbits=qbits,
            scales=scales,
        )


def execute_unit(
    vectors: np.ndarray, unit: WorkUnit, spec: SelectionSpec
) -> tuple:
    """Run one work unit on its chunk's vectors.

    ``vectors`` are the *chunk's* rows (already gathered).  Returns
    ``(chunk-local indices, weights, pairwise_bytes, stats)``; ``stats``
    always carries ``fl_value``, the greedy's facility-location value, and
    on the quantized scoring path (``spec["scoring"] == "int8"``, where
    ``vectors`` are the int8 rows and ``spec["scales"]`` maps the unit's
    label to its dequant scale) the cache and MAC accounting too.
    """
    if spec.get("scoring") == "int8":
        from repro.selection.qscore import select_class_quantized

        return select_class_quantized(
            vectors,
            spec["scales"][unit.label],
            unit.take,
            method=spec["method"],
            epsilon=spec["epsilon"],
            rng=unit_rng(unit.seed_key),
            bits=spec["qbits"],
            similarity_dtype_bytes=spec["similarity_dtype_bytes"],
        )
    from repro.selection.craig import craig_select_class

    sel, weights, pairwise_bytes, fl_value = craig_select_class(
        vectors,
        unit.take,
        method=spec["method"],
        epsilon=spec["epsilon"],
        rng=unit_rng(unit.seed_key),
        precision=spec["precision"],
        similarity_dtype_bytes=spec["similarity_dtype_bytes"],
    )
    return sel, weights, pairwise_bytes, {"fl_value": fl_value}


class SelectionExecutor:
    """Runs a selection round's work units and rolls up their accounting."""

    # Units always run in-process; kept for callers that ask.
    is_parallel = False

    def __init__(self):
        self.last_qscore_stats: dict | None = None
        # the overlapped pipeline drives run_units from its selection
        # thread while the trainer may read the stats from the main thread
        self._lock = threading.Lock()

    def run_units(
        self,
        vectors: np.ndarray,
        units: list[WorkUnit],
        spec: SelectionSpec,
        labels: np.ndarray | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray, int, dict]]:
        """Execute every unit; results ordered by :attr:`WorkUnit.order`.

        Each unit calls the module-global :func:`execute_unit` (looked up
        per call, so instrumentation can wrap it) on its own rows: float64
        proxies, or int8 rows under quantized scoring.  ``labels`` is
        unused; it stays in the signature for existing callers.
        """
        tracing = obs.enabled()
        results = []
        for u in units:
            start = time.perf_counter()
            result = execute_unit(vectors[u.positions], u, spec)
            if tracing:
                self._unit_span(u, result, start, time.perf_counter() - start)
            results.append(result)
        return self._note_qscore(results, spec)

    def _note_qscore(self, results: list, spec: SelectionSpec) -> list:
        """Roll the units' qscore stats up into the metrics registry.

        Each unit *returns* its hit/miss/MAC accounting, and this sums it
        for the round.
        """
        if spec.get("scoring") != "int8":
            with self._lock:
                self.last_qscore_stats = None
            return results
        hits = sum(1 for r in results if r[3]["cache_hit"])
        misses = len(results) - hits
        select_hits = sum(1 for r in results if r[3].get("select_hit"))
        macs = sum(r[3]["macs"] for r in results)
        obs.metrics().counter("qscore.block_hits").inc(hits)
        obs.metrics().counter("qscore.block_misses").inc(misses)
        obs.metrics().counter("qscore.select_hits").inc(select_hits)
        obs.metrics().counter("qscore.macs").inc(macs)
        with self._lock:
            self.last_qscore_stats = {
                "block_hits": hits,
                "block_misses": misses,
                "select_hits": select_hits,
                "blocks": len(results),
                "macs": macs,
            }
        return results

    @staticmethod
    def _unit_span(unit: WorkUnit, result, start: float, dur_s: float) -> None:
        """Record one unit's span, keyed on its deterministic seed_key.

        ``sim_bytes`` is the unit's similarity footprint — the per-unit
        decomposition of the round's ``pairwise_bytes``; the report
        aggregator deliberately keeps it out of the data-moved total.
        """
        obs.add_completed(
            "unit",
            key=unit.seed_key,
            start=start,
            dur_s=dur_s,
            order=unit.order,
            label=unit.label,
            take=unit.take,
            rows=len(unit.positions),
            sim_bytes=int(result[2]),
        )

    def close(self) -> None:
        """Nothing to release; kept for callers that close their executor."""

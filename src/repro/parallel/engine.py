"""The multi-core selection executor (the FPGA's spatial parallelism, on CPUs).

CRAIG-style per-class selection parallelizes trivially — every
(class x chunk) work unit is an independent facility-location problem —
and the paper's FPGA exploits exactly that with spatially parallel
compute units.  :class:`SelectionExecutor` is the substitution-faithful
CPU analogue: a *persistent* process pool (forked once, reused across
selection rounds) that pulls proxy vectors from a
:class:`~repro.parallel.store.SharedFeatureStore` segment instead of
unpickling them per task.

Determinism contract: a unit's result depends only on ``(vectors rows,
take, seed_key, spec)`` — never on which worker ran it or when — and
results are re-assembled in :attr:`WorkUnit.order`.  Serial and parallel
execution are therefore bit-identical; ``tests/parallel`` proves it for
worker counts 1/2/4.

Fallbacks: ``workers <= 1``, missing POSIX shared memory, or a pool that
fails to start all degrade to the in-process serial loop (same results,
``fallback_reason`` says why, and the selector puts it on the round's
span).  Every worker runs one BLAS thread (:mod:`repro.nn.blas`).
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro import obs
from repro.nn import blas
from repro.parallel.scheduler import WorkUnit, unit_rng
from repro.parallel.store import SharedFeatureStore, StoreHandle, shared_memory_available

__all__ = ["SelectionSpec", "SelectionExecutor", "execute_unit", "default_workers"]


def default_workers() -> int:
    """A sensible worker count for this machine (never more than cores)."""
    return max(1, os.cpu_count() or 1)


class SelectionSpec(dict):
    """Per-round selection parameters shipped with every task.

    A thin dict subclass so the worker call-site reads declaratively;
    keys mirror :func:`repro.selection.craig.craig_select_class` kwargs.
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
    """Run one work unit on its chunk's vectors (both serial and worker path).

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


# -- worker side -------------------------------------------------------------

_WORKER_STORES: dict[str, SharedFeatureStore] = {}


def _worker_store(handle: StoreHandle) -> SharedFeatureStore:
    """Attach (once) to the task's segment; drop stale rounds' mappings."""
    store = _WORKER_STORES.get(handle.name)
    if store is None:
        for old in _WORKER_STORES.values():
            old.close()
        _WORKER_STORES.clear()
        store = SharedFeatureStore.attach(handle)
        # lint: allow-shared-state(per-process attach registry: each fork pool worker mutates its own copy-on-write copy; the parent process never runs _worker_store while a pool is live)
        _WORKER_STORES[handle.name] = store
    return store


def _run_task(task):
    """Execute one unit in a pool worker; optionally time it for the trace.

    Returns ``(result, span_payload | None)``.  The payload carries the
    worker's pid and absolute :func:`time.perf_counter` readings — fork
    children share the parent's monotonic clock, so the parent tracer
    can place the span on its own timeline.  The span *identity* never
    comes from here: the parent derives it from the unit's
    ``seed_key``, so serial and parallel traces carry identical ids.
    """
    handle, unit, spec, trace = task
    store = _worker_store(handle)
    if not trace:
        return execute_unit(store.vectors[unit.positions], unit, spec), None
    start = time.perf_counter()
    result = execute_unit(store.vectors[unit.positions], unit, spec)
    payload = (os.getpid(), start, time.perf_counter() - start)
    return result, payload


def _run_generic_task(task):
    handle, positions, fn, fn_args = task
    store = _worker_store(handle)
    return fn(store.vectors[positions], *fn_args)


# -- parent side -------------------------------------------------------------


class SelectionExecutor:
    """Persistent fan-out executor for selection work units.

    Parameters
    ----------
    workers : pool size; ``<= 1`` means in-process serial execution.
    start_method : multiprocessing start method (default: ``fork`` where
        available — workers inherit loaded modules, so spin-up is one
        ``fork()`` per worker — else the platform default).
    """

    def __init__(self, workers: int = 1, start_method: str | None = None):
        self.workers = max(1, int(workers))
        self.start_method = start_method
        self.fallback_reason: str | None = None
        self.last_qscore_stats: dict | None = None
        self._pool = None
        # the overlapped pipeline drives run_units from its selection
        # thread while the trainer may probe the same executor from the
        # main thread; pool init and stats writes go through this lock
        self._lock = threading.Lock()
        if self.workers > 1 and not shared_memory_available():
            self.fallback_reason = "POSIX shared memory unavailable"

    @property
    def is_parallel(self) -> bool:
        return self.workers > 1 and self.fallback_reason is None

    def _ensure_pool(self):
        with self._lock:
            if self._pool is not None:
                return self._pool
            import multiprocessing as mp

            try:
                method = self.start_method
                if method is None:
                    method = "fork" if "fork" in mp.get_all_start_methods() else None
                ctx = mp.get_context(method)
                # A forked worker inherits the trainer's one BLAS thread; a
                # spawned one re-imports numpy with a full-size pool.
                self._pool = ctx.Pool(
                    processes=self.workers, initializer=blas.pin_single_thread
                )
            # lint: allow-broad-except(pool start fails for platform-specific reasons; the serial fallback is the designed response and the error is recorded in fallback_reason)
            except Exception as exc:  # pragma: no cover - platform dependent
                self.fallback_reason = f"process pool unavailable: {exc}"
                self._pool = None
            return self._pool

    def run_units(
        self,
        vectors: np.ndarray,
        units: list[WorkUnit],
        spec: SelectionSpec,
        labels: np.ndarray | None = None,
    ) -> list[tuple[np.ndarray, np.ndarray, int, dict]]:
        """Execute every unit; results ordered by :attr:`WorkUnit.order`.

        Serial and parallel paths call the same :func:`execute_unit` on
        the same rows (float64 proxies, or int8 rows under quantized
        scoring), so their outputs are bit-identical.
        """
        if not units:
            return []
        tracing = obs.enabled()
        if self.is_parallel and len(units) > 1:
            pool = self._ensure_pool()
            if pool is not None:
                with obs.span("shm_publish") as pub:
                    store = SharedFeatureStore(vectors, labels)
                    shm_bytes = int(vectors.nbytes) + int(
                        labels.nbytes if labels is not None else 0
                    )
                    pub.set(shm_bytes=shm_bytes, rows=int(vectors.shape[0]))
                    obs.credit_bytes("mem_shm_bytes", shm_bytes)
                obs.metrics().counter("shm.bytes_published").inc(shm_bytes)
                obs.metrics().counter("shm.segments_published").inc()
                try:
                    tasks = [(store.handle, u, spec, tracing) for u in units]
                    outcomes = pool.map(_run_task, tasks, chunksize=1)
                    results = []
                    for unit, (result, payload) in zip(units, outcomes):
                        if payload is not None:
                            pid, start, dur_s = payload
                            self._forward_unit_span(
                                unit, result, start=start, dur_s=dur_s, worker=pid
                            )
                        results.append(result)
                    return self._note_qscore(results, spec)
                finally:
                    store.close()
                    store.unlink()
        if not tracing:
            return self._note_qscore(
                [execute_unit(vectors[u.positions], u, spec) for u in units], spec
            )
        results = []
        for u in units:
            start = time.perf_counter()
            result = execute_unit(vectors[u.positions], u, spec)
            self._forward_unit_span(
                u, result, start=start, dur_s=time.perf_counter() - start
            )
            results.append(result)
        return self._note_qscore(results, spec)

    def _note_qscore(self, results: list, spec: SelectionSpec) -> list:
        """Aggregate the units' qscore stats into the parent's metrics.

        Pool workers carry their own forked copies of the rescore cache
        (and a no-op metrics registry), so each unit *returns* its
        hit/miss/MAC accounting and the parent rolls it up here —
        identical bookkeeping on the serial and parallel paths.
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
    def _forward_unit_span(
        unit: WorkUnit,
        result,
        start: float,
        dur_s: float,
        worker: int | None = None,
    ) -> None:
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
            worker=worker,
            order=unit.order,
            label=unit.label,
            take=unit.take,
            rows=len(unit.positions),
            sim_bytes=int(result[2]),
        )

    def map_chunks(
        self,
        vectors: np.ndarray,
        chunk_positions: list,
        fn,
        fn_args: tuple = (),
    ) -> list:
        """Apply ``fn(chunk_vectors, *fn_args)`` to row-chunks of ``vectors``.

        The generic sibling of :meth:`run_units` (used by GreeDi's
        round-1 shard selections): ``fn`` must be a picklable
        module-level callable; results come back in chunk order.
        """
        if not chunk_positions:
            return []
        if self.is_parallel and len(chunk_positions) > 1:
            pool = self._ensure_pool()
            if pool is not None:
                with obs.span("shm_publish", rows=int(vectors.shape[0])) as pub:
                    store = SharedFeatureStore(vectors)
                    pub.set(shm_bytes=int(vectors.nbytes))
                    obs.credit_bytes("mem_shm_bytes", int(vectors.nbytes))
                try:
                    tasks = [
                        (store.handle, np.asarray(pos), fn, fn_args)
                        for pos in chunk_positions
                    ]
                    return pool.map(_run_generic_task, tasks, chunksize=1)
                finally:
                    store.close()
                    store.unlink()
        return [fn(vectors[np.asarray(pos)], *fn_args) for pos in chunk_positions]

    def close(self) -> None:
        """Shut the pool down (workers are daemonic; exit also reaps them)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "SelectionExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        try:
            self.close()
        # lint: allow-broad-except(__del__ during interpreter teardown: modules may be half-gone and there is no caller to report to)
        except Exception:
            pass

"""Overlapped selection rounds: hide selection latency behind training.

NeSSA's headline system win is that subset selection runs *near storage,
concurrently* with GPU training (PAPER.md Fig. 3): while the accelerator
trains on round *t*'s subset, the SmartSSD already scores candidates for
round *t+1* using the quantized weights it received after round *t-1* —
selection is off the critical path at the price of one round of feedback
staleness.

:class:`AsyncSelectionRound` reproduces that schedule on the host for the
trainers' shared epoch loop (:mod:`repro.core.trainer`).
:meth:`launch` snapshots the candidate pool on the caller thread (so the
worker never reads the mutable loss history) and runs
``NeSSASelector.select`` on a daemon thread; :meth:`join` blocks until
the round completes — the loop calls it *before* touching any state
the worker reads (the quantized feedback replica, the embedding table) — and
:meth:`consume` hands the finished result to the next selection epoch.
The loop launches only under ``stale_feedback="stale"``; otherwise it
never launches, :meth:`consume` returns None and the loop selects
synchronously, which is why serial and strict-overlap runs are
bit-identical.

Tracing: the selector's spans are thread-local-muted on the worker
(``obs.suppress()``, the tracer's span stack is single-threaded by
design) and the whole round surfaces as one completed ``async_selection``
span forwarded from the training thread at the join point — the same
convention the parallel engine uses for cross-process unit spans.  The
``overlap.efficiency`` gauge records the fraction of each round's
duration that was hidden behind training.
"""

from __future__ import annotations

import threading
import time

from repro import obs
from repro.selection.craig import SelectionResult

__all__ = ["AsyncSelectionRound"]


class AsyncSelectionRound:
    """One in-flight selection round on a worker thread.

    Parameters
    ----------
    selector : a :class:`~repro.core.selector.NeSSASelector` (or any
        object with ``snapshot_candidates`` / ``select``).
    """

    def __init__(self, selector):
        self.selector = selector
        self._thread: threading.Thread | None = None
        self._result: SelectionResult | None = None
        self._error: BaseException | None = None
        self._for_epoch: int | None = None
        self._launch_t0 = 0.0
        self.last_wait_s = 0.0

    @property
    def in_flight(self) -> bool:
        return self._thread is not None

    def launch(self, dataset, fraction: float, model, for_epoch: int) -> bool:
        """Start scoring ``for_epoch``'s subset in the background.

        ``model`` must be the quantized feedback replica as of *now*
        (round *t-1* relative to ``for_epoch`` — the staleness is the
        point).  Returns False when a round is already in flight
        (programming error guarded as a no-op).
        """
        if self._thread is not None:
            return False
        candidates = self.selector.snapshot_candidates(dataset)
        self._result = None
        self._error = None
        self._for_epoch = for_epoch
        self._launch_t0 = time.perf_counter()

        def _run() -> None:
            # The tracer's span stack belongs to the training thread;
            # mute this thread and let join() forward one summary span.
            with obs.suppress():
                try:
                    # lint: allow-shared-state(single-owner handoff: the trainer reads _result only after Thread.join inside join, which is the happens-before edge)
                    self._result = self.selector.select(
                        dataset, fraction, model, candidates=candidates
                    )
                except BaseException as exc:  # lint: allow-broad-except(worker thread cannot raise to the trainer; stored and re-raised at the join point)
                    self._error = exc  # lint: allow-shared-state(single-owner handoff: join reads _error only after Thread.join returns)

        self._thread = threading.Thread(
            target=_run, name="async-selection", daemon=True
        )
        self._thread.start()
        obs.metrics().counter("overlap.rounds_launched").inc()
        return True

    def join(self) -> float:
        """Wait for the in-flight round (no-op when none).

        Returns the *exposed* wait in seconds — time the training thread
        actually blocked here, i.e. the part of the round that training
        failed to hide.  Forwards the round's ``async_selection`` span
        and updates the ``overlap.efficiency`` gauge.  Must be called
        before the trainer mutates state the worker reads (feedback
        replica, embedding table, loss history).
        """
        thread = self._thread
        if thread is None:
            return 0.0
        t0 = time.perf_counter()
        thread.join()
        wait = time.perf_counter() - t0
        dur = time.perf_counter() - self._launch_t0
        self._thread = None
        self.last_wait_s = wait
        if self._error is not None:
            error, self._error = self._error, None
            raise error
        hidden = max(0.0, dur - wait)
        efficiency = hidden / dur if dur > 0 else 1.0
        reg = obs.metrics()
        reg.timer("overlap.join_wait").observe(max(0.0, wait))
        reg.timer("overlap.round_duration").observe(max(0.0, dur))
        reg.gauge("overlap.efficiency").set(efficiency)
        obs.add_completed(
            "async_selection",
            start=self._launch_t0,
            dur_s=dur,
            for_epoch=self._for_epoch,
            wait_s=wait,
            hidden_s=hidden,
            **self._result.span_attrs(),
        )
        return wait

    def consume(self) -> SelectionResult | None:
        """The launched round's result, joining first if the caller has not.

        None when no round was launched (e.g. epoch 0, or a serial run) or
        :meth:`close` dropped it; the caller then selects synchronously.
        """
        if self._thread is not None:
            self.join()
        result, self._result = self._result, None
        self._for_epoch = None
        return result

    def close(self) -> None:
        """Join any in-flight round and drop its result (error-path cleanup)."""
        thread = self._thread
        if thread is not None:
            self._thread = None
            thread.join()
        self._result = None
        self._error = None

    def __enter__(self) -> "AsyncSelectionRound":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Benchmark-side instrumentation of one training run.

Two pieces, both installed by patching the program's public classes and
functions inside the run's own child process and restored at its end:

- :class:`Clock` — the end-to-end clock every run uses: set-up ends and
  training starts when the trainer's ``train`` is entered, and each epoch
  ends when the trainer appends its record to the ``TrainingHistory``.
- :class:`LayerTracer` — the traced run's spans around calls into each
  layer (``data``, ``nn``, ``core``, ``selection``, ``parallel``,
  ``pipeline``).  Spans are kept in memory; a span's self time is its
  duration minus the time its child spans (on the same thread) cover.

Nothing here changes what the program computes: wrappers call the
original function with the original arguments and return its result.
"""

from __future__ import annotations

import resource
import threading
import time
from collections import defaultdict

_MISSING = object()


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved = []

    def set(self, obj, attr: str, value) -> None:
        self._saved.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._saved:
            obj, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)


class Clock:
    """Training start/end and epoch-end timestamps of one run."""

    def __init__(self, on_train_start=None):
        self.on_train_start = on_train_start
        self.train_start = None
        self.train_end = None
        self.epoch_ends: list[float] = []

    def install(self, patches: Patches, trainer_cls) -> None:
        from repro.core.metrics import TrainingHistory

        clock = self
        orig_train = trainer_cls.train
        orig_append = TrainingHistory.append

        def train(trainer, *args, **kwargs):
            if clock.on_train_start is not None:
                clock.on_train_start(trainer)
            clock.train_start = time.perf_counter()
            try:
                return orig_train(trainer, *args, **kwargs)
            finally:
                clock.train_end = time.perf_counter()

        def append(history, record):
            clock.epoch_ends.append(time.perf_counter())
            return orig_append(history, record)

        patches.set(trainer_cls, "train", train)
        patches.set(TrainingHistory, "append", append)

    @property
    def run_s(self) -> float:
        return self.train_end - self.train_start

    def epoch_bounds(self) -> list[tuple[float, float]]:
        starts = [self.train_start] + self.epoch_ends[:-1]
        return list(zip(starts, self.epoch_ends))


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _model_groups(model) -> dict:
    """Top-level children of the model, grouped as stem / stageN / head."""
    groups = defaultdict(list)
    for attr, value in vars(model).items():
        if attr.startswith("stem_"):
            groups["stem"].append(value)
        elif attr == "stages":
            for i, stage in enumerate(value):
                groups[f"stage{i + 1}"].append(stage)
        elif attr in ("pool", "fc"):
            groups["head"].append(value)
    return groups


class LayerTracer:
    """Spans and counters around the program's layer entry points."""

    def __init__(self):
        self.main_thread = threading.get_ident()
        self.spans: list[tuple] = []  # (name, thread, start, end, self_s)
        self.counts: dict[str, float] = defaultdict(float)
        self.rounds: list[tuple[float, float]] = []  # (round wall, exposed wait)
        self._tls = threading.local()
        self._patches = Patches()
        self._launched: dict[int, float] = {}
        self.trainer = None
        self.pool_cpu_s = 0.0
        self._children_cpu0 = _children_cpu_s()

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def timed(self, name: str, fn, when=None):
        """``fn`` wrapped in a span; ``when(*args)`` False skips the span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                tracer.spans.append(
                    (name, threading.get_ident(), t0, t1, t1 - t0 - child)
                )

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the class- and module-level entry points (before the run)."""
        import repro.core.selector as selector_mod
        import repro.core.trainer as trainer_mod
        import repro.parallel.engine as engine_mod
        from repro.core.feedback import FeedbackLoop
        from repro.core.selector import NeSSASelector
        from repro.data.loader import DataLoader
        from repro.data.prefetch import PrefetchingDataLoader
        from repro.nn.loss import CrossEntropyLoss
        from repro.nn.optim import SGD
        from repro.parallel.engine import SelectionExecutor
        from repro.pipeline.overlap import AsyncSelectionRound

        p = self._patches
        for cls in (DataLoader, PrefetchingDataLoader):
            p.set(cls, "__iter__", self._waiting_iter(cls.__dict__["__iter__"]))
        p.set(CrossEntropyLoss, "__call__", self.timed("nn.loss", CrossEntropyLoss.__call__))
        p.set(CrossEntropyLoss, "backward", self.timed("nn.loss", CrossEntropyLoss.backward))
        p.set(SGD, "step", self.timed("nn.optimizer", SGD.step))
        p.set(SGD, "zero_grad", self.timed("nn.optimizer", SGD.zero_grad))
        p.set(trainer_mod, "evaluate_accuracy",
              self.timed("core.eval", trainer_mod.evaluate_accuracy))
        p.set(NeSSASelector, "select", self.timed("core.select", NeSSASelector.select))
        p.set(NeSSASelector, "maybe_drop_learned",
              self.timed("core.biasing", NeSSASelector.maybe_drop_learned))
        p.set(NeSSASelector, "record_epoch_losses",
              self.timed("core.biasing", NeSSASelector.record_epoch_losses))
        p.set(FeedbackLoop, "sync", self.timed("core.feedback", FeedbackLoop.sync))
        p.set(selector_mod, "compute_gradient_proxies",
              self._proxies(selector_mod.compute_gradient_proxies))
        p.set(selector_mod, "quantize_proxies",
              self.timed("selection.quantize", selector_mod.quantize_proxies))
        p.set(SelectionExecutor, "run_units", self._run_units(SelectionExecutor.run_units))
        p.set(engine_mod, "execute_unit", self.timed("parallel.unit", engine_mod.execute_unit))
        p.set(AsyncSelectionRound, "launch", self._launch(AsyncSelectionRound.launch))
        p.set(AsyncSelectionRound, "join", self._join(AsyncSelectionRound.join))

    def instrument_model(self, trainer) -> None:
        """Wrap the trainer's target model (called when ``train`` starts).

        Only training-mode calls are spans; evaluation forwards run inside
        ``core.eval`` and the selection replica is a different instance.
        """
        self.trainer = trainer
        model = trainer.model
        training = lambda *args: model.training  # noqa: E731
        p = self._patches
        p.set(model, "forward", self.timed("nn.forward", model.forward, when=training))
        p.set(model, "backward", self.timed("nn.backward", model.backward))
        for group, modules in _model_groups(model).items():
            for module in modules:
                p.set(module, "forward", self.timed(
                    f"nn.fwd.{group}", module.forward, when=lambda *a, m=module: m.training))
                p.set(module, "backward", self.timed(f"nn.bwd.{group}", module.backward))

    def finish(self) -> None:
        """Undo every patch; reap the selection pool and take its CPU time.

        Pool workers time their units in their own processes, so the
        units they ran are measured as the workers' CPU time, read once
        the pool is shut down and its processes reaped.
        """
        self._patches.restore()
        selector = getattr(self.trainer, "selector", None)
        if selector is None:
            return
        stats = selector.proxy_cache_stats
        self.counts["parallel.proxy_cache_hits"] += stats["hits"]
        self.counts["parallel.proxy_cache_lookups"] += stats["lookups"]
        parallel = selector.executor.is_parallel
        selector.close()
        if parallel:
            self.pool_cpu_s = _children_cpu_s() - self._children_cpu0

    # -- special wrappers ------------------------------------------------------

    def _proxies(self, orig):
        timed = self.timed("selection.proxy", orig)
        counts = self.counts

        def compute_gradient_proxies(model, x, *args, **kwargs):
            counts["selection.proxy_samples"] += len(x)
            return timed(model, x, *args, **kwargs)

        return compute_gradient_proxies

    def _waiting_iter(self, orig_iter):
        """``__iter__`` whose every ``next()`` is a ``data.wait`` span."""
        tracer = self
        step = self.timed("data.wait", next)

        def __iter__(loader):
            it = orig_iter(loader)
            try:
                while True:
                    try:
                        batch = step(it)
                    except StopIteration:
                        return
                    tracer.counts["nn.train_samples"] += len(batch)
                    yield batch
            finally:
                it.close()

        return __iter__

    def _run_units(self, orig):
        timed = self.timed("parallel.run_units", orig)
        counts = self.counts

        def run_units(executor, vectors, units, spec, labels=None):
            out = timed(executor, vectors, units, spec, labels=labels)
            counts["parallel.units"] += len(units)
            stats = executor.last_qscore_stats
            if stats is not None:
                counts["selection.qscore_block_hits"] += stats["block_hits"]
                counts["selection.qscore_block_lookups"] += stats["blocks"]
            return out

        return run_units

    def _launch(self, orig):
        launched = self._launched

        def launch(round_, *args, **kwargs):
            t0 = time.perf_counter()
            started = orig(round_, *args, **kwargs)
            if started:
                launched[id(round_)] = t0
            return started

        return launch

    def _join(self, orig):
        timed = self.timed("pipeline.join_wait", orig)
        tracer = self

        def join(round_):
            t0 = tracer._launched.pop(id(round_), None)
            start = time.perf_counter()
            wait = timed(round_)
            if t0 is not None:
                end = time.perf_counter()
                tracer.rounds.append((end - t0, end - start))
            return wait

        return join

    # -- results ---------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name, all threads."""
        out: dict[str, float] = defaultdict(float)
        for name, _, t0, t1, _ in self.spans:
            out[name] += t1 - t0
        return out

    def ledger(self, bounds: list[tuple[float, float]]) -> list[dict]:
        """Per-epoch self time by span name on the training thread.

        ``unattributed_s`` is the epoch's wall time that no span's self
        time covers.  Spans on other threads (the overlapped selection
        round) run concurrently with the epoch and are not charged to it.
        """
        main = [s for s in self.spans if s[1] == self.main_thread]
        main.sort(key=lambda s: s[3])
        rows, i = [], 0
        for epoch, (start, end) in enumerate(bounds):
            self_s: dict[str, float] = defaultdict(float)
            while i < len(main) and main[i][3] <= end:
                self_s[main[i][0]] += main[i][4]
                i += 1
            wall = end - start
            rows.append({
                "epoch": epoch,
                "wall_s": wall,
                "self_s": dict(sorted(self_s.items())),
                "unattributed_s": wall - sum(self_s.values()),
            })
        return rows

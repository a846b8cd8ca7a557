"""Trainers: one epoch loop for full-data, CPU-baseline and NeSSA training.

Every method runs the outer loop of paper Figure 3 in
:meth:`_BaseTrainer.train`:

1. (storage) candidates live on the simulated SmartSSD — the trainer is
   pure ML; byte/time accounting happens in :mod:`repro.pipeline.system`
   from the counters recorded here;
2. pick the epoch's weighted subset from the method's subset source;
3. train the target model on the weighted subset;
4. run the method's after-train hook — for NeSSA, feed back quantized
   weights + per-sample losses and update the subset size;
5. repeat for all epochs.

A method supplies only what differs:

- :class:`FullTrainer` has no subset source: it trains on the whole set
  every epoch (the paper's 'Goal' column);
- :class:`SubsetTrainer` selects with the *live* model (CRAIG, k-centers,
  random) — no feedback quantization, no biasing — so Table 3/Figure 4
  comparisons are apples-to-apples;
- :class:`NeSSATrainer` selects with the quantized feedback replica and
  adds the run-setup feedback sync, subset biasing, the per-epoch feedback
  sync, the dynamic size schedule and the prefetching loader.

Overlapped NeSSA (``overlap=True, stale_feedback="stale"``) launches the
next round on an :class:`~repro.pipeline.overlap.AsyncSelectionRound`
before training and joins it before the after-train hook; the next
selection epoch consumes its result.  Every other configuration never
launches and selects synchronously under the loop's one
``selection_round`` span, so serial and strict-overlap runs are the same
code path.  Each epoch's wall time and selection time (join wait
included) are measured once, in the loop, and the whole run holds one
BLAS thread per compute thread (:func:`repro.nn.blas.single_thread`).
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro import obs
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.feedback import FeedbackLoop
from repro.core.metrics import EpochRecord, TrainingHistory, evaluate_accuracy
from repro.core.schedule import SubsetSizeSchedule
from repro.core.selector import NeSSASelector
from repro.data.dataset import Dataset, Subset
from repro.data.loader import DataLoader
from repro.data.prefetch import PrefetchingDataLoader
from repro.nn import blas
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import Module
from repro.nn.optim import SGD, MultiStepLR
from repro.nn.scratch import BufferPool

__all__ = ["FullTrainer", "SubsetTrainer", "NeSSATrainer"]


class _BaseTrainer:
    """The epoch loop shared by every method.

    Subclasses set ``selector`` (the subset source; None trains on the
    whole set), ``subset_fraction`` and ``selection_model``, and override
    the ``_before_train`` / ``_before_epoch`` / ``_after_train`` hooks.
    """

    def __init__(self, model: Module, recipe: TrainRecipe, seed: int = 0):
        self.model = model
        self.recipe = recipe
        self.seed = seed
        self.selector = None
        self.select_every = 1
        # Launch the next round during training (stale-feedback overlap).
        self.select_ahead = False
        self.prefetch_depth = 0
        self._loader_pool: BufferPool | None = None
        self.criterion = CrossEntropyLoss()
        self.optimizer = SGD(
            model.parameters(),
            lr=recipe.lr,
            momentum=recipe.momentum,
            weight_decay=recipe.weight_decay,
            nesterov=recipe.nesterov,
            clip_grad_norm=recipe.clip_grad_norm,
        )
        self.scheduler = MultiStepLR(
            self.optimizer, recipe.lr_milestones, recipe.lr_gamma_div
        )

    @property
    def selection_model(self) -> Module:
        """The model the subset source scores candidates with."""
        return self.model

    def _before_train(self) -> dict:
        """Run setup; returns the ``run_setup`` span's attributes."""
        return {}

    def _before_epoch(self, train_set: Dataset, epoch: int) -> int:
        """Epoch setup before selection; returns the samples dropped."""
        return 0

    def _after_train(
        self, epoch: int, mean_loss: float, per_sample: np.ndarray, ids: np.ndarray
    ) -> int:
        """Work after the training pass; returns the feedback bytes shipped."""
        return 0

    def _make_loader(self, dataset: Dataset, epoch: int) -> DataLoader:
        """The epoch's loader: prefetching when configured, else serial.

        Both paths derive batch order from ``seed + epoch`` via the same
        helper, so the streams are bit-identical at any depth.
        """
        if self.prefetch_depth > 0:
            return PrefetchingDataLoader(
                dataset, self.recipe.batch_size, shuffle=True,
                seed=self.seed + epoch,
                depth=self.prefetch_depth, pool=self._loader_pool,
            )
        return DataLoader(
            dataset, self.recipe.batch_size, shuffle=True, seed=self.seed + epoch
        )

    def _train_one_epoch(self, loader: DataLoader) -> tuple[float, np.ndarray, np.ndarray]:
        """One pass over the loader.

        Returns ``(mean loss, per-sample losses, aligned sample ids)`` —
        the last two feed NeSSA's subset biasing.
        """
        self.model.train()
        losses, ids = [], []
        total_loss, total_n = 0.0, 0
        for batch in loader:
            logits = self.model(batch.x)
            loss = self.criterion(logits, batch.y, weights=batch.weights)
            self.optimizer.zero_grad()
            grad = self.criterion.backward()
            self.model.backward(grad)
            self.optimizer.step()

            per_sample = CrossEntropyLoss.per_sample_losses(logits, batch.y)
            losses.append(per_sample)
            ids.append(batch.ids)
            total_loss += float(per_sample.mean()) * len(batch)
            total_n += len(batch)
        self.scheduler.step()
        mean_loss = total_loss / max(1, total_n)
        return mean_loss, np.concatenate(losses), np.concatenate(ids)

    def train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        # One BLAS thread per compute thread for the whole run.  The count
        # is process-global, so the scope opens before the overlap thread,
        # the prefetch thread and the lazily forked selection pool start,
        # and closes after the loop has joined them.
        with blas.single_thread():
            return self._train(train_set, test_set)

    def _train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        # Imported here: repro.pipeline's package init imports this module.
        from repro.pipeline.overlap import AsyncSelectionRound

        if self.select_every < 1:
            raise ValueError("select_every must be >= 1")
        epochs = self.recipe.epochs
        history = TrainingHistory(method=self.name)
        with obs.span("run_setup", method=self.name) as setup:
            setup.set(**self._before_train())
            blas_fallback = blas.blas_fallback()
            if blas_fallback is not None:
                setup.set(blas_fallback=blas_fallback)
                obs.metrics().counter("blas.fallbacks").inc()

        subset = train_set
        with AsyncSelectionRound(self.selector) as round_:
            for epoch in range(epochs):
                epoch_t0 = time.perf_counter()
                selection_s = 0.0
                result = None
                with obs.span("epoch", epoch=epoch, method=self.name) as ep:
                    dropped = self._before_epoch(train_set, epoch)

                    if self.selector is not None and epoch % self.select_every == 0:
                        select_t0 = time.perf_counter()
                        result = round_.consume()
                        if result is None:
                            fraction = self.subset_fraction
                            with obs.span("selection_round", epoch=epoch) as sel:
                                result = self.selector.select(
                                    train_set, fraction, self.selection_model
                                )
                                sel.set(**result.span_attrs(), fraction=float(fraction))
                        selection_s = time.perf_counter() - select_t0
                        weights = result.weights if result.weights.std() > 0 else None
                        subset = Subset(train_set, result.positions, weights=weights)

                    next_sel = epoch + 1
                    if (
                        self.select_ahead
                        and next_sel < epochs
                        and next_sel % self.select_every == 0
                    ):
                        round_.launch(
                            train_set, self.subset_fraction, self.selection_model,
                            next_sel,
                        )

                    loader = self._make_loader(subset, epoch)
                    mean_loss, per_sample, ids = self._train_one_epoch(loader)

                    # The join point: the worker reads the feedback replica
                    # and embedding table, so it must land before the
                    # after-train hook mutates them.  Whatever the training
                    # epoch failed to hide shows up as selection time.
                    if round_.in_flight:
                        selection_s += round_.join()

                    feedback_bytes = self._after_train(epoch, mean_loss, per_sample, ids)
                    acc = evaluate_accuracy(self.model, test_set)
                    subset_fraction = len(subset) / len(train_set)
                    ran = result is not None
                    ep.set(train_loss=mean_loss, test_accuracy=acc,
                           subset_size=len(subset), subset_fraction=subset_fraction,
                           dropped_samples=dropped)
                history.append(
                    EpochRecord(
                        epoch=epoch,
                        train_loss=mean_loss,
                        test_accuracy=acc,
                        subset_size=len(subset),
                        subset_fraction=subset_fraction,
                        samples_trained=len(subset),
                        selection_ran=ran,
                        selection_proxy_flops=result.proxy_flops if ran else 0.0,
                        selection_pairwise_bytes=result.pairwise_bytes if ran else 0,
                        feedback_bytes=feedback_bytes,
                        dropped_samples=dropped,
                        lr=self.scheduler.current_lr,
                        wall_time_s=time.perf_counter() - epoch_t0,
                        selection_time_s=selection_s,
                    )
                )
        return history


class FullTrainer(_BaseTrainer):
    """Train on the entire dataset every epoch — the paper's 'Goal' column."""

    name = "full"


class SubsetTrainer(_BaseTrainer):
    """Outer loop for CPU-side baselines (CRAIG / k-centers / random).

    ``selector`` is any object with
    ``select(dataset, fraction, model) -> SelectionResult``; selection runs
    with the live target model (these baselines have no quantized replica).
    """

    def __init__(
        self,
        model: Module,
        recipe: TrainRecipe,
        selector,
        subset_fraction: float,
        select_every: int = 1,
        seed: int = 0,
    ):
        super().__init__(model, recipe, seed)
        if not 0.0 < subset_fraction <= 1.0:
            raise ValueError("subset_fraction must be in (0, 1]")
        self.selector = selector
        self.subset_fraction = subset_fraction
        self.select_every = select_every
        self.name = getattr(selector, "name", "subset")


class NeSSATrainer(_BaseTrainer):
    """The full NeSSA loop: near-storage selection + feedback + biasing.

    ``model_factory`` builds the FPGA-side replica architecture (same as
    the target model's).
    """

    name = "nessa"

    def __init__(
        self,
        model: Module,
        recipe: TrainRecipe,
        config: NeSSAConfig,
        model_factory: Callable[[], Module],
    ):
        super().__init__(model, recipe, seed=config.seed)
        self.config = config
        self.select_every = config.select_every
        self.select_ahead = config.overlap and config.stale_feedback == "stale"
        self.prefetch_depth = config.prefetch_depth
        if config.prefetch_depth > 0:
            # One pool for the whole run so epoch 2+ serves every batch
            # buffer from the free list (depth queued + consumed + filling).
            self._loader_pool = BufferPool(max_free_per_key=config.prefetch_depth + 2)
        chunk_select = config.partition_chunk_select or recipe.batch_size
        self.selector = NeSSASelector(config, chunk_select=chunk_select)
        self.feedback = FeedbackLoop(
            model_factory, bits=config.feedback_bits, enabled=config.use_feedback
        )
        self.schedule = SubsetSizeSchedule(
            initial_fraction=config.subset_fraction,
            min_fraction=config.min_subset_fraction,
            threshold=config.dynamic_threshold,
            shrink=config.dynamic_shrink,
            enabled=config.dynamic_subset,
        )

    @property
    def subset_fraction(self) -> float:
        return self.schedule.fraction

    @property
    def selection_model(self) -> Module:
        return self.feedback.selection_model

    def _before_train(self) -> dict:
        # Initial feedback sync: the FPGA starts from the initial weights.
        # Recorded as run setup, not as a `feedback_quantize` link span —
        # no EpochRecord carries it, and `repro.cli report` reconciles
        # link bytes against the per-epoch ledger exactly.
        return {"feedback_sync_bytes": int(self.feedback.sync(self.model))}

    def _before_epoch(self, train_set: Dataset, epoch: int) -> int:
        return self.selector.maybe_drop_learned(train_set, epoch)

    def _after_train(
        self, epoch: int, mean_loss: float, per_sample: np.ndarray, ids: np.ndarray
    ) -> int:
        self.selector.record_epoch_losses(ids, per_sample)
        # Step 4 of Figure 3: quantize + ship the updated weights back.
        with obs.span("feedback_quantize", epoch=epoch) as fb:
            feedback_bytes = self.feedback.sync(self.model)
            fb.set(link_bytes=int(feedback_bytes), bits=self.feedback.bits)
        self.schedule.update(mean_loss)
        return feedback_bytes

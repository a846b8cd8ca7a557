"""Trainers: full-data, generic subset-selection, and the NeSSA loop.

:class:`NeSSATrainer` implements the five steps of paper Figure 3:

1. (storage) candidates live on the simulated SmartSSD — the trainer is
   pure ML; byte/time accounting happens in :mod:`repro.pipeline.system`
   from the counters recorded here;
2. run the selection model (quantized replica) and pick the subset;
3. train the target model on the weighted subset;
4. feed back quantized weights + per-sample losses, update the candidate
   pool (subset biasing) and the subset size (dynamic schedule);
5. repeat for all epochs.

:class:`SubsetTrainer` runs the same outer loop for the CPU baselines
(CRAIG, k-centers, random) — selection with the *live* model, no feedback
quantization, no biasing — so Table 3/Figure 4 comparisons are
apples-to-apples.
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
from repro.nn.loss import CrossEntropyLoss
from repro.nn.modules import Module
from repro.nn.optim import SGD, MultiStepLR
from repro.nn.scratch import BufferPool

__all__ = ["FullTrainer", "SubsetTrainer", "NeSSATrainer"]


class _BaseTrainer:
    """Shared epoch machinery for all trainers."""

    def __init__(self, model: Module, recipe: TrainRecipe, seed: int = 0):
        self.model = model
        self.recipe = recipe
        self.seed = seed
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


class FullTrainer(_BaseTrainer):
    """Train on the entire dataset every epoch — the paper's 'Goal' column."""

    name = "full"

    def train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        history = TrainingHistory(method=self.name)
        loader = DataLoader(
            train_set, self.recipe.batch_size, shuffle=True, seed=self.seed
        )
        for epoch in range(self.recipe.epochs):
            epoch_t0 = time.perf_counter()
            with obs.span("epoch", epoch=epoch, method=self.name) as ep:
                mean_loss, _, _ = self._train_one_epoch(loader)
                acc = evaluate_accuracy(self.model, test_set)
                ep.set(train_loss=mean_loss, test_accuracy=acc,
                       samples_trained=len(train_set))
            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=mean_loss,
                    test_accuracy=acc,
                    subset_size=len(train_set),
                    subset_fraction=1.0,
                    samples_trained=len(train_set),
                    lr=self.scheduler.current_lr,
                    wall_time_s=time.perf_counter() - epoch_t0,
                )
            )
        return history


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
        self.select_every = max(1, select_every)
        self.name = getattr(selector, "name", "subset")

    def train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        history = TrainingHistory(method=self.name)
        subset: Subset | None = None
        for epoch in range(self.recipe.epochs):
            epoch_t0 = time.perf_counter()
            selection_s = 0.0
            with obs.span("epoch", epoch=epoch, method=self.name) as ep:
                selection_ran = False
                proxy_flops = 0.0
                pairwise = 0
                if subset is None or epoch % self.select_every == 0:
                    select_t0 = time.perf_counter()
                    with obs.span("selection_round", epoch=epoch) as sel:
                        result = self.selector.select(
                            train_set, self.subset_fraction, self.model
                        )
                        sel.set(**result.span_attrs())
                    selection_s = time.perf_counter() - select_t0
                    weights = result.weights if result.weights.std() > 0 else None
                    subset = Subset(train_set, result.positions, weights=weights)
                    selection_ran = True
                    proxy_flops = result.proxy_flops
                    pairwise = result.pairwise_bytes

                loader = DataLoader(
                    subset, self.recipe.batch_size, shuffle=True, seed=self.seed + epoch
                )
                mean_loss, _, _ = self._train_one_epoch(loader)
                acc = evaluate_accuracy(self.model, test_set)
                ep.set(train_loss=mean_loss, test_accuracy=acc,
                       subset_size=len(subset),
                       subset_fraction=len(subset) / len(train_set))
            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=mean_loss,
                    test_accuracy=acc,
                    subset_size=len(subset),
                    subset_fraction=len(subset) / len(train_set),
                    samples_trained=len(subset),
                    selection_ran=selection_ran,
                    selection_proxy_flops=proxy_flops,
                    selection_pairwise_bytes=pairwise,
                    lr=self.scheduler.current_lr,
                    wall_time_s=time.perf_counter() - epoch_t0,
                    selection_time_s=selection_s,
                )
            )
        return history


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
        # One pool for the whole run so epoch 2+ serves every batch
        # buffer from the free list (depth queued + consumed + filling).
        self._loader_pool = (
            BufferPool(max_free_per_key=config.prefetch_depth + 2)
            if config.prefetch_depth > 0
            else None
        )

    def _make_loader(self, subset: Subset, epoch: int) -> DataLoader:
        """The epoch's loader: prefetching when configured, else serial.

        Both paths derive batch order from ``seed + epoch`` via the same
        helper, so the streams are bit-identical at any depth.
        """
        if self.config.prefetch_depth > 0:
            return PrefetchingDataLoader(
                subset, self.recipe.batch_size, shuffle=True,
                seed=self.config.seed + epoch,
                depth=self.config.prefetch_depth, pool=self._loader_pool,
            )
        return DataLoader(
            subset, self.recipe.batch_size, shuffle=True,
            seed=self.config.seed + epoch,
        )

    def train(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        if self.config.overlap:
            return self._train_overlapped(train_set, test_set)
        history = TrainingHistory(method=self.name)
        # Initial feedback sync: the FPGA starts from the initial weights.
        # Recorded as run setup, not as a `feedback_quantize` link span —
        # no EpochRecord carries it, and `repro.cli report` reconciles
        # link bytes against the per-epoch ledger exactly.
        with obs.span("run_setup", method=self.name) as setup:
            feedback_bytes = self.feedback.sync(self.model)
            setup.set(feedback_sync_bytes=int(feedback_bytes))

        subset: Subset | None = None
        fraction = self.schedule.fraction
        for epoch in range(self.recipe.epochs):
            epoch_t0 = time.perf_counter()
            selection_s = 0.0
            with obs.span("epoch", epoch=epoch, method=self.name) as ep:
                dropped = self.selector.maybe_drop_learned(train_set, epoch)

                selection_ran = False
                proxy_flops = 0.0
                pairwise = 0
                if subset is None or epoch % self.config.select_every == 0:
                    select_t0 = time.perf_counter()
                    with obs.span("selection_round", epoch=epoch) as sel:
                        result = self.selector.select(
                            train_set, fraction, self.feedback.selection_model
                        )
                        sel.set(**result.span_attrs(), fraction=float(fraction))
                    selection_s = time.perf_counter() - select_t0
                    weights = result.weights if result.weights.std() > 0 else None
                    subset = Subset(train_set, result.positions, weights=weights)
                    selection_ran = True
                    proxy_flops = result.proxy_flops
                    pairwise = result.pairwise_bytes

                loader = self._make_loader(subset, epoch)
                mean_loss, per_sample, ids = self._train_one_epoch(loader)
                self.selector.record_epoch_losses(ids, per_sample)

                # Step 4 of Figure 3: quantize + ship the updated weights back.
                with obs.span("feedback_quantize", epoch=epoch) as fb:
                    feedback_bytes = self.feedback.sync(self.model)
                    fb.set(link_bytes=int(feedback_bytes), bits=self.feedback.bits)
                fraction = self.schedule.update(mean_loss)

                acc = evaluate_accuracy(self.model, test_set)
                ep.set(train_loss=mean_loss, test_accuracy=acc,
                       subset_size=len(subset),
                       subset_fraction=len(subset) / len(train_set),
                       dropped_samples=dropped)
            history.append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=mean_loss,
                    test_accuracy=acc,
                    subset_size=len(subset),
                    subset_fraction=len(subset) / len(train_set),
                    samples_trained=len(subset),
                    selection_ran=selection_ran,
                    selection_proxy_flops=proxy_flops,
                    selection_pairwise_bytes=pairwise,
                    feedback_bytes=feedback_bytes,
                    dropped_samples=dropped,
                    lr=self.scheduler.current_lr,
                    wall_time_s=time.perf_counter() - epoch_t0,
                    selection_time_s=selection_s,
                )
            )
        return history

    def _train_overlapped(self, train_set: Dataset, test_set: Dataset) -> TrainingHistory:
        """The NeSSA loop with selection hidden behind training.

        Schedule per epoch *e* (``stale_feedback="stale"``):

        1. apply the biasing drop, consume the round launched during
           epoch *e-1* (epoch 0 selects synchronously);
        2. launch epoch *e+1*'s round on a worker thread — candidates
           snapshotted here, scored with the feedback weights synced
           after epoch *e-1* (stale by one round, as on the device);
        3. train epoch *e* — the overlap window;
        4. join the round *before* recording losses / syncing feedback,
           so the worker never races the state it reads.

        With ``stale_feedback="off"`` the round runs synchronously at
        step 1 (strict mode) and the loop reproduces :meth:`train`'s
        serial history and trace bit-for-bit.
        """
        # Imported here: repro.pipeline's package init imports this module.
        from repro.pipeline.overlap import AsyncSelectionRound

        history = TrainingHistory(method=self.name)
        with obs.span("run_setup", method=self.name) as setup:
            feedback_bytes = self.feedback.sync(self.model)
            setup.set(feedback_sync_bytes=int(feedback_bytes))

        stale = self.config.stale_feedback == "stale"
        subset: Subset | None = None
        fraction = self.schedule.fraction
        with AsyncSelectionRound(self.selector, strict=not stale) as round_:
            for epoch in range(self.recipe.epochs):
                epoch_t0 = time.perf_counter()
                selection_s = 0.0
                with obs.span("epoch", epoch=epoch, method=self.name) as ep:
                    dropped = self.selector.maybe_drop_learned(train_set, epoch)

                    selection_ran = False
                    proxy_flops = 0.0
                    pairwise = 0
                    if subset is None or epoch % self.config.select_every == 0:
                        select_t0 = time.perf_counter()
                        result = round_.consume(
                            train_set, fraction, self.feedback.selection_model, epoch
                        )
                        selection_s = time.perf_counter() - select_t0
                        weights = result.weights if result.weights.std() > 0 else None
                        subset = Subset(train_set, result.positions, weights=weights)
                        selection_ran = True
                        proxy_flops = result.proxy_flops
                        pairwise = result.pairwise_bytes

                    next_sel = epoch + 1
                    if (
                        stale
                        and next_sel < self.recipe.epochs
                        and next_sel % self.config.select_every == 0
                    ):
                        round_.launch(
                            train_set, fraction, self.feedback.selection_model, next_sel
                        )

                    loader = self._make_loader(subset, epoch)
                    mean_loss, per_sample, ids = self._train_one_epoch(loader)

                    # The join point: the worker reads the feedback
                    # replica and embedding table, so it must land before the
                    # sync below mutates them.  Whatever the training
                    # epoch failed to hide shows up as selection time.
                    selection_s += round_.join()

                    self.selector.record_epoch_losses(ids, per_sample)
                    with obs.span("feedback_quantize", epoch=epoch) as fb:
                        feedback_bytes = self.feedback.sync(self.model)
                        fb.set(link_bytes=int(feedback_bytes), bits=self.feedback.bits)
                    fraction = self.schedule.update(mean_loss)

                    acc = evaluate_accuracy(self.model, test_set)
                    ep.set(train_loss=mean_loss, test_accuracy=acc,
                           subset_size=len(subset),
                           subset_fraction=len(subset) / len(train_set),
                           dropped_samples=dropped)
                history.append(
                    EpochRecord(
                        epoch=epoch,
                        train_loss=mean_loss,
                        test_accuracy=acc,
                        subset_size=len(subset),
                        subset_fraction=len(subset) / len(train_set),
                        samples_trained=len(subset),
                        selection_ran=selection_ran,
                        selection_proxy_flops=proxy_flops,
                        selection_pairwise_bytes=pairwise,
                        feedback_bytes=feedback_bytes,
                        dropped_samples=dropped,
                        lr=self.scheduler.current_lr,
                        wall_time_s=time.perf_counter() - epoch_t0,
                        selection_time_s=selection_s,
                    )
                )
        return history

"""NeSSASelector over its embedding table: head-only rounds, their quality,
and the per-round selection telemetry."""

import numpy as np
import pytest

import repro.core.selector as selector_mod
from repro import obs
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.selector import NeSSASelector
from repro.core.trainer import NeSSATrainer
from repro.nn.resnet import resnet20
from repro.obs.report import render_report
from repro.pipeline.experiment import build_model, make_data
from repro.pipeline.system import SystemModel
from repro.selection.facility import facility_location_value, similarity_from_distances
from repro.selection.gradients import (
    REFRESH_PERIOD,
    EmbeddingTable,
    compute_gradient_proxies,
    refresh_count,
    refresh_due,
)
from repro.selection.pairwise import pairwise_distances


@pytest.fixture()
def captured_units(monkeypatch):
    """Every round's work units, in call order."""
    rounds = []
    plan = selector_mod.plan_selection_round

    def capture(*args, **kwargs):
        units = plan(*args, **kwargs)
        rounds.append(units)
        return units

    monkeypatch.setattr(selector_mod, "plan_selection_round", capture)
    return rounds


def fl_value_under(vectors, units, candidates, selected_positions):
    """Facility-location value of a selection, summed over the round's units."""
    total = 0.0
    for unit in units:
        sim = similarity_from_distances(pairwise_distances(vectors[unit.positions]))
        chosen = np.flatnonzero(np.isin(candidates[unit.positions], selected_positions))
        total += facility_location_value(sim, chosen)
    return total


class TestRefreshSchedule:
    def test_first_period_then_every_period(self):
        due = [r for r in range(3 * REFRESH_PERIOD) if refresh_due(r)]
        assert due == [*range(REFRESH_PERIOD), REFRESH_PERIOD, 2 * REFRESH_PERIOD]

    def test_trainer_executes_the_counted_schedule(self):
        train, test = make_data("cifar10", scale=0.05, seed=3)
        epochs = 2 * REFRESH_PERIOD + 1
        recipe = TrainRecipe(epochs=epochs, batch_size=32, lr=0.03, lr_milestones=())
        factory = lambda: resnet20(train.num_classes, width=4, seed=2)  # noqa: E731
        trainer = NeSSATrainer(factory(), recipe, NeSSAConfig(seed=1), factory)
        trainer.train(train, test)
        trainer.selector.close()
        assert trainer.selector.proxy_cache_stats["misses"] == refresh_count(epochs)

    def test_system_model_prices_the_executed_refreshes(self, tiny_model):
        # Drive a table through the paper's run and price what it refreshed.
        epochs = TrainRecipe.epochs
        table = EmbeddingTable()
        for _ in range(epochs):
            table.begin_round(tiny_model)
        model = SystemModel("cifar10")
        assert model.nessa_epoch() == model.nessa_epoch(
            refresh_period=epochs / table.misses
        )


class TestSnapshotCandidates:
    def test_isin_matches_set_formula_on_shrunk_pool(self, train_test_split, tiny_model):
        train, _ = train_test_split
        config = NeSSAConfig(subset_fraction=0.2, biasing_window=2,
                             biasing_drop_period=1, seed=3)
        selector = NeSSASelector(config, chunk_select=16)
        rng = np.random.default_rng(0)
        for _ in range(2):
            selector.record_epoch_losses(train.ids, rng.random(len(train)))
        assert selector.maybe_drop_learned(train, epoch=1) > 0
        candidate_ids = selector.loss_history.filter_candidates(train.ids)
        id_set = set(int(i) for i in candidate_ids)
        expected = np.flatnonzero([int(i) in id_set for i in train.ids])
        got = selector.snapshot_candidates(train)
        assert len(got) < len(train)
        assert np.array_equal(got, expected)


class TestHeadOnlyRounds:
    def test_shrunk_pool_round_reads_rows_without_forwarding(
        self, train_test_split, tiny_model
    ):
        train, _ = train_test_split
        config = NeSSAConfig(subset_fraction=0.2, seed=3)
        assert not refresh_due(REFRESH_PERIOD + 1)
        with NeSSASelector(config, chunk_select=16) as selector:
            for _ in range(REFRESH_PERIOD + 1):
                first = selector.select(train, 0.2, tiny_model)
            selector.loss_history.drop(train.ids[::3])
            pool = selector.snapshot_candidates(train)
            head_only = selector.select(train, 0.2, tiny_model)
        assert selector.proxy_cache_stats["hits"] == 1
        assert selector.proxy_cache_stats["rows"] == len(train)
        assert set(head_only.positions) <= set(pool)
        fc = tiny_model.fc
        assert head_only.proxy_flops == 2.0 * fc.in_features * fc.out_features * len(pool)
        assert first.proxy_flops > head_only.proxy_flops

    def test_a_second_model_is_scored_by_its_own_backbone(
        self, train_test_split, tiny_model
    ):
        train, _ = train_test_split
        config = NeSSAConfig(subset_fraction=0.2, use_biasing=False, seed=3)
        other = resnet20(num_classes=4, width=4, seed=99)
        assert not refresh_due(REFRESH_PERIOD + 1)

        def first_head_only_round(table):
            with NeSSASelector(config, chunk_select=16) as selector:
                if not table:
                    selector.embeddings = None
                for _ in range(REFRESH_PERIOD + 1):
                    selector.select(train, 0.2, tiny_model)
                return selector.select(train, 0.2, other), selector.proxy_cache_stats

        got, stats = first_head_only_round(table=True)
        ref, _ = first_head_only_round(table=False)
        assert (stats["misses"], stats["hits"]) == (REFRESH_PERIOD + 2, 0)
        assert np.array_equal(got.positions, ref.positions)
        assert np.array_equal(got.weights, ref.weights)

    def test_without_feedback_head_only_equals_full_forward(self):
        train, test = make_data("cifar10", scale=0.2, seed=5)
        recipe = TrainRecipe(epochs=REFRESH_PERIOD + 3, batch_size=32, lr=0.03,
                             lr_milestones=())
        config = NeSSAConfig(subset_fraction=0.3, use_feedback=False,
                             use_biasing=False, seed=1)

        def history(table):
            factory = lambda: resnet20(train.num_classes, width=4, seed=2)  # noqa: E731
            trainer = NeSSATrainer(factory(), recipe, config, factory)
            if not table:
                trainer.selector.embeddings = None
            h = trainer.train(train, test)
            trainer.selector.close()
            return [(r.train_loss, r.test_accuracy, r.subset_size) for r in h.records]

        # The replica never changes, so stored embeddings are exact.
        assert history(table=True) == history(table=False)


class TestSelectionTelemetry:
    def _two_rounds(self, train, model, workers):
        config = NeSSAConfig(subset_fraction=0.25, use_biasing=False, seed=4,
                             workers=workers)
        with NeSSASelector(config, chunk_select=8) as selector:
            return [selector.select(train, 0.25, model) for _ in range(2)]

    def test_values_match_direct_recomputation(self, train_test_split, tiny_model,
                                               captured_units):
        train, _ = train_test_split
        results = self._two_rounds(train, tiny_model, workers=1)
        candidates = np.arange(len(train))
        vectors = compute_gradient_proxies(tiny_model, train.x, train.y).vectors
        for result, units in zip(results, captured_units):
            q = result.quality
            assert q["fl_value"] == pytest.approx(
                fl_value_under(vectors, units, candidates, result.positions), rel=1e-12
            )
            shares = np.bincount(train.y[result.positions]) / len(result.positions)
            assert q["class_share_min"] == shares.min()
            assert q["class_share_max"] == shares.max()
        assert "overlap_prev" not in results[0].quality
        a, b = (train.ids[r.positions] for r in results)
        assert results[1].quality["overlap_prev"] == len(np.intersect1d(a, b)) / len(b)

    def test_identical_across_worker_counts(self, train_test_split, tiny_model):
        train, _ = train_test_split
        serial = self._two_rounds(train, tiny_model, workers=1)
        parallel = self._two_rounds(train, tiny_model, workers=2)
        assert [r.quality for r in serial] == [r.quality for r in parallel]

    def test_trace_records_and_report_prints_them(self):
        train, test = make_data("cifar10", scale=0.1, seed=2)
        epochs = REFRESH_PERIOD + 3
        recipe = TrainRecipe(epochs=epochs, batch_size=32, lr=0.03, lr_milestones=())
        factory = lambda: resnet20(train.num_classes, width=4, seed=2)  # noqa: E731
        trainer = NeSSATrainer(factory(), recipe, NeSSAConfig(seed=1), factory)
        tracer = obs.Tracer(run="quality")
        obs.set_tracer(tracer)
        try:
            trainer.train(train, test)
        finally:
            obs.set_tracer(None)
            trainer.selector.close()
        rounds = [r.attrs for r in tracer.records if r.name == "selection_round"]
        proxies = [r.attrs for r in tracer.records if r.name == "proxy_compute"]
        assert len(rounds) == epochs
        assert all("fl_value" in a and "class_share_min" in a for a in rounds)
        assert ["overlap_prev" in a for a in rounds] == [False] + [True] * (epochs - 1)
        # Rounds 0..REFRESH_PERIOD refresh, the two after it run head-only.
        assert [(a["refreshed"], a["embedding_age"]) for a in proxies] == [
            (True, 0)
        ] * (REFRESH_PERIOD + 1) + [(False, 1), (False, 2)]
        out = render_report({"meta": {"run": "quality"},
                             "spans": [r.to_dict() for r in tracer.records]})
        assert f"selection quality: {epochs} round(s)" in out


class TestSelectionQuality:
    def test_head_only_subsets_keep_facility_location_value(self, captured_units):
        """Head-only rounds vs per-round full-forward selection, 20 rounds.

        Each round both selectors score the trainer's candidate pool with
        the same replica; the head-only subset and the fresh subset are
        both valued under the fresh proxies, unit by unit.
        """
        # The headline workload's dataset size (perfbench nessa-int8-cifar10).
        train, test = make_data("cifar10", scale=1.0, seed=0)
        recipe = TrainRecipe(epochs=20, batch_size=64, lr=0.03, lr_milestones=(),
                             clip_grad_norm=5.0)
        config = NeSSAConfig(subset_fraction=0.28, biasing_drop_period=6, seed=1)
        factory = lambda: build_model("cifar10", train.num_classes, seed=1)  # noqa: E731
        trainer = NeSSATrainer(factory(), recipe, config, factory)
        fresh = NeSSASelector(config, chunk_select=recipe.batch_size)
        fresh.embeddings = None
        head_select = trainer.selector.select
        ratios = []

        def select(dataset, fraction, model, candidates=None):
            pool = trainer.selector.snapshot_candidates(dataset)
            head = head_select(dataset, fraction, model, candidates=pool)
            ref = fresh.select(dataset, fraction, model, candidates=pool)
            units = captured_units[-1]
            vectors = compute_gradient_proxies(model, dataset.x[pool], dataset.y[pool]).vectors
            ratios.append(
                fl_value_under(vectors, units, pool, head.positions)
                / fl_value_under(vectors, units, pool, ref.positions)
            )
            return head

        trainer.selector.select = select
        trainer.train(train, test)
        ratios = np.array(ratios)
        assert len(ratios) == 20
        assert ratios.mean() >= 0.985
        assert ratios.min() >= 0.97


class TestOverlapAcrossRefresh:
    def test_strict_overlap_matches_serial_past_a_refresh(self):
        train, test = make_data("cifar10", scale=0.1, seed=3)
        # Head-only rounds REFRESH_PERIOD + 1 .. 2 * REFRESH_PERIOD - 1, then
        # the refresh at 2 * REFRESH_PERIOD.
        epochs = 2 * REFRESH_PERIOD + 1
        recipe = TrainRecipe(epochs=epochs, batch_size=32, lr=0.03, lr_milestones=())

        def round_spans(**overrides):
            factory = lambda: resnet20(train.num_classes, width=4, seed=2)  # noqa: E731
            trainer = NeSSATrainer(factory(), recipe, NeSSAConfig(seed=1, **overrides),
                                   factory)
            tracer = obs.Tracer(run="strict")
            obs.set_tracer(tracer)
            try:
                trainer.train(train, test)
            finally:
                obs.set_tracer(None)
                trainer.selector.close()
            return [(r.id, r.attrs) for r in tracer.records
                    if r.name in ("selection_round", "proxy_compute")]

        serial = round_spans()
        head_only = [not refresh_due(r) for r in range(epochs)]
        assert [a["refreshed"] is False for _, a in serial if "refreshed" in a] == head_only
        assert serial == round_spans(overlap=True, stale_feedback="off")

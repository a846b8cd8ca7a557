"""The engine's determinism contract, asserted bitwise.

A unit's result depends only on its rows, take, seed key and spec, so
running the units in any order gives the same selection, and the
``workers`` config field (accepted, no effect on execution) changes
nothing.
"""

import numpy as np
import pytest

from repro.core.config import NeSSAConfig
from repro.core.selector import NeSSASelector
from repro.parallel.engine import SelectionExecutor, SelectionSpec, execute_unit
from repro.parallel.scheduler import plan_selection_round
from repro.selection.gradients import REFRESH_PERIOD

WORKER_COUNTS = (1, 2, 4)


def _serial_outcomes(vectors, units, spec):
    return [execute_unit(vectors[u.positions], u, spec) for u in units]


class TestEngineEquivalence:
    @pytest.mark.parametrize("method", ["lazy", "stochastic"])
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_run_units_bit_identical_in_any_order(self, method, seed):
        gen = np.random.default_rng(seed)
        vectors = gen.normal(size=(160, 6))
        labels = gen.integers(0, 4, size=160)
        units = plan_selection_round(labels, 48, seed=seed, round_index=0,
                                     chunk_select=8)
        spec = SelectionSpec(method=method, epsilon=0.2)
        got = SelectionExecutor().run_units(vectors, units, spec)
        # the same units run backwards, each still on its own keyed stream
        reference = _serial_outcomes(vectors, units[::-1], spec)[::-1]
        assert len(got) == len(reference)
        for (sel_a, w_a, b_a, s_a), (sel_b, w_b, b_b, s_b) in zip(got, reference):
            assert np.array_equal(sel_a, sel_b)
            assert np.array_equal(w_a, w_b)  # bitwise, not approx
            assert b_a == b_b
            assert s_a["fl_value"] == s_b["fl_value"]

    def test_executor_reuse_across_rounds(self):
        # One executor serves every round; no state carries over.
        gen = np.random.default_rng(3)
        spec = SelectionSpec()
        executor = SelectionExecutor()
        for round_index in range(3):
            vectors = gen.normal(size=(120, 5))
            labels = gen.integers(0, 3, size=120)
            units = plan_selection_round(labels, 30, seed=1,
                                         round_index=round_index,
                                         chunk_select=8)
            got = executor.run_units(vectors, units, spec, labels=labels)
            ref = _serial_outcomes(vectors, units, spec)
            for (sel_a, w_a, _, _), (sel_b, w_b, _, _) in zip(got, ref):
                assert np.array_equal(sel_a, sel_b)
                assert np.array_equal(w_a, w_b)


class TestSelectorEquivalence:
    @pytest.mark.parametrize("method", ["lazy", "stochastic"])
    @pytest.mark.parametrize("seed", [1, 13])
    def test_full_selector_identical_across_worker_counts(
        self, train_test_split, tiny_model, method, seed
    ):
        train, _ = train_test_split
        reference = None
        for workers in WORKER_COUNTS:
            config = NeSSAConfig(
                subset_fraction=0.25,
                selection_method=method,
                use_biasing=False,
                seed=seed,
                workers=workers,
            )
            with NeSSASelector(config, chunk_select=16) as selector:
                result = selector.select(train, 0.25, tiny_model)
            if reference is None:
                reference = result
                continue
            assert np.array_equal(result.positions, reference.positions)
            assert np.array_equal(result.weights, reference.weights)
            assert result.pairwise_bytes == reference.pairwise_bytes

    def test_multi_round_selector_stays_equivalent(self, train_test_split, tiny_model):
        # Round indices advance the unit seed keys; both paths must agree
        # on every round, not just the first.
        train, _ = train_test_split
        results = {}
        for workers in (1, 2):
            config = NeSSAConfig(subset_fraction=0.2, use_biasing=False,
                                 seed=4, workers=workers)
            with NeSSASelector(config, chunk_select=16) as selector:
                results[workers] = [
                    selector.select(train, 0.2, tiny_model) for _ in range(3)
                ]
        for serial, parallel in zip(results[1], results[2]):
            assert np.array_equal(serial.positions, parallel.positions)
            assert np.array_equal(serial.weights, parallel.weights)

    def test_rounds_differ_from_each_other(self, train_test_split, tiny_model):
        # Sanity: the multi-round test above is vacuous if every round
        # picked identical positions.  chunk_select must be well below the
        # per-class budget so each class has several chunks and the
        # round-keyed permutation can change what lands where.
        train, _ = train_test_split
        config = NeSSAConfig(subset_fraction=0.3, use_biasing=False, seed=4)
        with NeSSASelector(config, chunk_select=4) as selector:
            a = selector.select(train, 0.3, tiny_model)
            b = selector.select(train, 0.3, tiny_model)
        assert not np.array_equal(a.positions, b.positions)


class TestCacheMetricsSurfacing:
    """Embedding-table hits/misses surface identically for any ``workers``."""

    def _run_rounds(self, train, model, workers):
        from repro import obs

        registry = obs.MetricsRegistry()
        previous = obs.set_metrics(registry)
        try:
            config = NeSSAConfig(subset_fraction=0.2, use_biasing=False,
                                 seed=4, workers=workers)
            with NeSSASelector(config, chunk_select=16) as selector:
                for _ in range(REFRESH_PERIOD + 3):
                    selector.select(train, 0.2, model)
                stats = selector.proxy_cache_stats
        finally:
            obs.set_metrics(previous)
        return registry.snapshot()["counters"], stats

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_registry_counters_match_instance_stats(self, workers,
                                                    train_test_split, tiny_model):
        train, _ = train_test_split
        counters, stats = self._run_rounds(train, tiny_model, workers)
        # Rounds 0..REFRESH_PERIOD refresh the embedding table, the last
        # two run head-only.
        rounds = REFRESH_PERIOD + 3
        assert stats["misses"] == rounds - 2
        assert stats["hits"] == 2
        assert stats["hit_rate"] == pytest.approx(2 / rounds)
        assert counters["proxy_cache.misses"] == stats["misses"]
        assert counters["proxy_cache.hits"] == stats["hits"]
        assert counters["selection.rounds"] == rounds

    def test_hit_pattern_is_worker_count_invariant(self, train_test_split,
                                                   tiny_model):
        train, _ = train_test_split
        outcomes = {
            w: self._run_rounds(train, tiny_model, w) for w in WORKER_COUNTS
        }

        reference_counters, reference_stats = outcomes[WORKER_COUNTS[0]]
        for counters, stats in outcomes.values():
            assert counters == reference_counters
            assert stats == reference_stats

    def test_disabled_cache_reports_zero_stats(self, train_test_split, tiny_model):
        train, _ = train_test_split
        config = NeSSAConfig(subset_fraction=0.2, use_biasing=False, seed=4)
        with NeSSASelector(config, chunk_select=16) as selector:
            selector.embeddings = None
            selector.select(train, 0.2, tiny_model)
            stats = selector.proxy_cache_stats
        assert stats["lookups"] == 0
        assert stats["hit_rate"] == 0.0

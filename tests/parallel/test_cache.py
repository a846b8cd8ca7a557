"""The cross-round proxy cache: the selector's per-sample embedding table.

Refresh rounds run the full forward and must equal the uncached proxies
bit for bit; head-only rounds apply the *current* classifier head to the
stored embeddings and forward only the samples the table has no row for.
"""

import numpy as np
import pytest

from repro.nn.quantize import QuantizedModel
from repro.nn.resnet import resnet20
from repro.selection.gradients import (
    REFRESH_PERIOD,
    EmbeddingTable,
    compute_gradient_proxies,
    refresh_due,
)


class _CountingModel:
    """Wraps a model and counts the rows its backbone forwards."""

    def __init__(self, model):
        self.model = model
        self.forwarded = 0

    def features(self, x):
        self.forwarded += len(x)
        return self.model.features(x)


def _past_warm_up(model, x, y, ids, **kwargs):
    """A table whose next round runs head-only, and its last refresh.

    Rounds 0..REFRESH_PERIOD all refresh (refresh_due), so the first
    head-only round is REFRESH_PERIOD + 1.
    """
    table = EmbeddingTable()
    for _ in range(REFRESH_PERIOD + 1):
        last = compute_gradient_proxies(model, x, y, ids=ids, cache=table, **kwargs)
    assert not refresh_due(REFRESH_PERIOD + 1)
    return table, last


def _head_reference(model, feats, y, mode="logits", batch_size=256):
    """Uncached proxies of a model whose backbone returned ``feats``."""

    class Frozen:
        def __init__(self):
            self.model = model
            self.fc = model.fc

        def features(self, x):
            return feats[x]

    return compute_gradient_proxies(
        Frozen(), np.arange(len(feats)), y, mode=mode, batch_size=batch_size
    )


class TestProxyCacheKey:
    def test_invalidates_on_pool_mutation(self, train_test_split, tiny_model):
        # Rows are keyed by sample id, not position: a grown, shrunk,
        # reordered or substituted pool never reads another sample's row.
        train, _ = train_test_split
        base = np.arange(10)
        table, _ = _past_warm_up(tiny_model, train.x[base], train.y[base], train.ids[base])
        assert not any(refresh_due(REFRESH_PERIOD + r) for r in (1, 2, 3, 4))
        for mutated in (
            np.arange(11),
            np.arange(9),
            base[::-1].copy(),
            np.concatenate([np.arange(8), [99]]),
        ):
            got = compute_gradient_proxies(
                tiny_model, train.x[mutated], train.y[mutated],
                ids=train.ids[mutated], cache=table,
            )
            fresh = compute_gradient_proxies(
                tiny_model, train.x[mutated], train.y[mutated], ids=train.ids[mutated]
            )
            np.testing.assert_allclose(got.vectors, fresh.vectors, rtol=1e-5, atol=1e-6)


class TestProxyCacheStore:
    def test_hit_and_miss_counters(self, train_test_split, tiny_model):
        train, _ = train_test_split
        table = EmbeddingTable()
        x, y, ids = train.x[:16], train.y[:16], train.ids[:16]
        rounds = 2 * REFRESH_PERIOD + 1
        for _ in range(rounds):
            compute_gradient_proxies(tiny_model, x, y, ids=ids, cache=table)
        refreshes = sum(refresh_due(r) for r in range(rounds))
        assert (table.hits, table.misses) == (rounds - refreshes, refreshes)
        assert table.stats["lookups"] == rounds
        assert table.stats["rows"] == 16


class TestComputeProxiesWithCache:
    def test_second_identical_round_is_served_from_cache(
        self, train_test_split, tiny_model
    ):
        train, _ = train_test_split
        model = _CountingModel(tiny_model)
        x, y, ids = train.x[:32], train.y[:32], train.ids[:32]
        table, first = _past_warm_up(model, x, y, ids)
        assert model.forwarded == 32 * (REFRESH_PERIOD + 1)
        second = compute_gradient_proxies(model, x, y, ids=ids, cache=table)
        assert model.forwarded == 32 * (REFRESH_PERIOD + 1)  # head only
        assert table.hits == 1
        assert np.array_equal(second.vectors, first.vectors)
        assert np.array_equal(second.losses, first.losses)

    def test_weight_update_forces_recompute(self, train_test_split, tiny_model):
        # A head-only round recomputes the head with the current weights
        # over the embeddings stored at the refresh.
        train, _ = train_test_split
        x, y, ids = train.x[:32], train.y[:32], train.ids[:32]
        feats = tiny_model.eval().features(x)
        table, first = _past_warm_up(tiny_model, x, y, ids)
        tiny_model.fc.weight.data += 0.05
        tiny_model.stem_conv.weight.data += 0.05  # backbone: stale until refresh
        second = compute_gradient_proxies(tiny_model, x, y, ids=ids, cache=table)
        assert not np.array_equal(second.vectors, first.vectors)
        expected = _head_reference(tiny_model, feats, y)
        assert np.array_equal(second.vectors, expected.vectors)
        assert np.array_equal(second.losses, expected.losses)

    def test_pool_change_forces_recompute(self, train_test_split, tiny_model):
        train, _ = train_test_split
        model = _CountingModel(tiny_model)
        table, _ = _past_warm_up(model, train.x[:32], train.y[:32], train.ids[:32])
        forwarded = model.forwarded
        second = compute_gradient_proxies(
            model, train.x[1:33], train.y[1:33], ids=train.ids[1:33], cache=table
        )
        assert model.forwarded == forwarded + 1  # only the new sample is forwarded
        assert second.flops < compute_gradient_proxies(
            tiny_model, train.x[1:33], train.y[1:33]
        ).flops
        plain = compute_gradient_proxies(tiny_model, train.x[1:33], train.y[1:33])
        np.testing.assert_allclose(second.vectors, plain.vectors, rtol=1e-5, atol=1e-6)
        assert table.stats["rows"] == 33

    def test_cached_result_equals_uncached(self, train_test_split, tiny_model):
        train, _ = train_test_split
        table = EmbeddingTable()
        x, y, ids = train.x[:32], train.y[:32], train.ids[:32]
        cached = compute_gradient_proxies(tiny_model, x, y, ids=ids, cache=table)
        plain = compute_gradient_proxies(tiny_model, x, y, ids=ids)
        assert table.misses == 1
        assert np.array_equal(cached.vectors, plain.vectors)
        assert np.array_equal(cached.losses, plain.losses)
        assert cached.flops == plain.flops


class TestTableSource:
    """Rows belong to the network whose backbone produced them."""

    @pytest.mark.parametrize("width", [4, 8])
    def test_another_network_refreshes(self, train_test_split, tiny_model, width):
        # Same width: its head must not score tiny_model's embeddings.
        # Another width: its head could not even take them.
        train, _ = train_test_split
        other = resnet20(num_classes=4, width=width, seed=99)
        x, y, ids = train.x[:32], train.y[:32], train.ids[:32]
        table, _ = _past_warm_up(tiny_model, x, y, ids)
        got = compute_gradient_proxies(other, x, y, ids=ids, cache=table)
        plain = compute_gradient_proxies(other, x, y, ids=ids)
        assert np.array_equal(got.vectors, plain.vectors)
        back = compute_gradient_proxies(tiny_model, x, y, ids=ids, cache=table)
        assert np.array_equal(back.vectors,
                              compute_gradient_proxies(tiny_model, x, y, ids=ids).vectors)
        assert (table.misses, table.hits) == (REFRESH_PERIOD + 3, 0)

    def test_replica_wrapper_is_the_same_network(self, train_test_split, tiny_model):
        # The selector passes the feedback replica, whose network is what
        # the table keys on, so a re-synced replica keeps its rows.
        train, _ = train_test_split
        replica = QuantizedModel(tiny_model, bits=8)
        table = EmbeddingTable()
        x, y, ids = train.x[:16], train.y[:16], train.ids[:16]
        for _ in range(REFRESH_PERIOD + 2):
            compute_gradient_proxies(replica, x, y, ids=ids, cache=table)
        assert (table.misses, table.hits) == (REFRESH_PERIOD + 1, 1)


class TestRefreshSchedule:
    @pytest.mark.parametrize("mode", ["logits", "logits_x_feature_norm"])
    @pytest.mark.parametrize("activation_bits", [None, 8])
    def test_refresh_bit_identical_and_head_only_equals_fc_of_features(
        self, train_test_split, tiny_model, mode, activation_bits
    ):
        train, _ = train_test_split
        replica = QuantizedModel(tiny_model, bits=8, activation_bits=activation_bits)
        x, y, ids = train.x[:40], train.y[:40], train.ids[:40]
        table = EmbeddingTable()
        refresh = compute_gradient_proxies(replica, x, y, ids=ids, mode=mode,
                                           batch_size=16, cache=table)
        plain = compute_gradient_proxies(replica, x, y, ids=ids, mode=mode,
                                         batch_size=16)
        assert np.array_equal(refresh.vectors, plain.vectors)
        assert np.array_equal(refresh.losses, plain.losses)
        for _ in range(REFRESH_PERIOD):  # the rest of the warm-up
            compute_gradient_proxies(replica, x, y, ids=ids, mode=mode,
                                     batch_size=16, cache=table)

        # Batch by batch: fake-quantized activations scale per batch.
        feats = np.concatenate([replica.features(x[i : i + 16]) for i in (0, 16, 32)])
        tiny_model.fc.bias.data = tiny_model.fc.bias.data + 0.3
        head_only = compute_gradient_proxies(replica, x, y, ids=ids, mode=mode,
                                             batch_size=16, cache=table)
        expected = _head_reference(tiny_model, feats, y, mode=mode, batch_size=16)
        np.testing.assert_array_equal(head_only.vectors, expected.vectors)

    def test_round_after_the_period_refreshes(self, train_test_split, tiny_model):
        train, _ = train_test_split
        model = _CountingModel(tiny_model)
        table = EmbeddingTable()
        x, y, ids = train.x[:8], train.y[:8], train.ids[:8]
        for _ in range(2 * REFRESH_PERIOD):
            compute_gradient_proxies(model, x, y, ids=ids, cache=table)
        refreshes = sum(refresh_due(r) for r in range(2 * REFRESH_PERIOD))
        assert model.forwarded == 8 * refreshes
        tiny_model.stem_conv.weight.data += 0.05
        refreshed = compute_gradient_proxies(model, x, y, ids=ids, cache=table)
        assert model.forwarded == 8 * (refreshes + 1)
        plain = compute_gradient_proxies(tiny_model, x, y, ids=ids)
        assert np.array_equal(refreshed.vectors, plain.vectors)

    def test_headless_model_bypasses_the_table(self):
        table = EmbeddingTable()
        x = np.random.default_rng(0).normal(size=(6, 3)).astype(np.float32)
        proxy = compute_gradient_proxies(lambda xb: xb, x, np.zeros(6, np.int64),
                                         cache=table)
        assert proxy.vectors.shape == (6, 3)
        assert table.stats["lookups"] == 0 and table.stats["rows"] == 0


class TestProxyFlops:
    def test_refresh_round_charges_the_full_forward(self, train_test_split, tiny_model):
        from repro.perf.flops import model_forward_flops

        train, _ = train_test_split
        table = EmbeddingTable()
        proxy = compute_gradient_proxies(tiny_model, train.x[:20], train.y[:20],
                                         ids=train.ids[:20], cache=table)
        assert proxy.flops == 20 * model_forward_flops(tiny_model, (3, 8, 8))

    def test_head_only_round_charges_the_head_gemm(self, train_test_split, tiny_model):
        from repro.perf.flops import linear_flops

        train, _ = train_test_split
        args = (train.x[:20], train.y[:20])
        table, _ = _past_warm_up(tiny_model, *args, train.ids[:20])
        proxy = compute_gradient_proxies(tiny_model, *args, ids=train.ids[:20],
                                         cache=table)
        fc = tiny_model.fc
        assert proxy.flops == 20 * linear_flops(fc.in_features, fc.out_features)

"""Tests for the Gram-matrix pairwise-distance kernels."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection.craig import craig_select_class
from repro.selection.facility import (
    lazy_greedy_reference,
    medoid_weights,
    similarity_from_distances,
)
from repro.selection.pairwise import (
    auto_block_size,
    naive_pairwise_distances,
    pairwise_distances,
)


def random_vectors(n, d, seed=0):
    return np.random.default_rng(seed).normal(size=(n, d))


class TestGramEqualsNaive:
    def test_float64_matches_broadcast(self):
        v = random_vectors(120, 10)
        np.testing.assert_allclose(
            pairwise_distances(v), naive_pairwise_distances(v), rtol=0, atol=1e-10
        )

    def test_float32_within_documented_tolerance(self):
        v = random_vectors(200, 16, seed=1)
        d32 = pairwise_distances(v, precision="float32")
        assert d32.dtype == np.float32
        np.testing.assert_allclose(d32, naive_pairwise_distances(v), rtol=1e-3, atol=1e-3)

    def test_blocked_equals_unblocked(self):
        # BLAS may sum tile GEMMs in a different order than the full GEMM,
        # so equality holds to last-bit rounding, not bitwise.
        v = random_vectors(157, 7, seed=2)  # n not a multiple of the block
        full = pairwise_distances(v)
        for block in (1, 16, 50, 157, 400):
            np.testing.assert_allclose(
                pairwise_distances(v, block_size=block), full, rtol=0, atol=1e-12
            )

    def test_memory_budget_selects_blocking(self):
        v = random_vectors(100, 5, seed=3)
        # 16 KB < (n^2 + n*d) * 8 bytes, so the budget forces tiling.
        assert auto_block_size(100, 5, 8, 16 * 1024) is not None
        tight = pairwise_distances(v, memory_budget_bytes=16 * 1024)
        np.testing.assert_allclose(tight, pairwise_distances(v), rtol=0, atol=1e-12)

    @given(n=st.integers(2, 60), d=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_gram_equals_naive_property(self, n, d):
        v = random_vectors(n, d, seed=n * 31 + d)
        np.testing.assert_allclose(
            pairwise_distances(v), naive_pairwise_distances(v), rtol=0, atol=1e-9
        )


class TestDistanceInvariants:
    def test_symmetric_zero_diagonal_nonnegative(self):
        d = pairwise_distances(random_vectors(80, 6, seed=4))
        np.testing.assert_allclose(d, d.T, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(np.diag(d), np.zeros(80))
        assert (d >= 0).all()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros(5))
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((4, 3)), precision="float16")
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((4, 3)), block_size=0)

    def test_single_point(self):
        assert pairwise_distances(np.ones((1, 3))).shape == (1, 1)


class TestAutoBlockSize:
    def test_no_blocking_when_budget_fits(self):
        assert auto_block_size(100, 10, 8, None) is None
        assert auto_block_size(100, 10, 8, 10**9) is None

    def test_tight_budget_yields_small_blocks(self):
        b = auto_block_size(10_000, 10, 8, 64 * 1024)
        assert b is not None and 1 <= b < 10_000

    def test_block_workspace_fits_budget(self):
        n, d, itemsize, budget = 5000, 32, 8, 10**6
        b = auto_block_size(n, d, itemsize, budget)
        assert (b * b + 2 * b * d) * itemsize <= budget


class TestPeakMemory:
    def test_no_nxnxd_intermediate(self):
        """The Gram path must not materialize the N x N x D broadcast.

        At n=600, d=40 the seed broadcast peaks at ~115 MB of temporaries;
        the Gram path needs the n^2 output plus O(n*d) workspace (~6 MB).
        """
        v = random_vectors(600, 40, seed=5)
        naive_bytes = 600 * 600 * 40 * 8  # what the broadcast would allocate

        pairwise_distances(v)  # warm up allocator pools
        tracemalloc.start()
        pairwise_distances(v)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # n^2 output + n^2 GEMM product + small workspace, with slack.
        assert peak < 0.3 * naive_bytes
        assert peak < 30 * 1024 * 1024


class TestCraigPipelineEquivalence:
    """craig_select_class on the new kernels matches the seed pipeline."""

    @staticmethod
    def seed_pipeline(vectors, k):
        similarity = similarity_from_distances(naive_pairwise_distances(vectors))
        sel = lazy_greedy_reference(similarity, k)
        return sel, medoid_weights(similarity, sel)

    def test_lazy_method_matches_seed_pipeline(self):
        v = random_vectors(150, 8, seed=6)
        sel, w, nbytes, _ = craig_select_class(v, 20)
        ref_sel, ref_w = self.seed_pipeline(v, 20)
        np.testing.assert_array_equal(sel, ref_sel)
        np.testing.assert_array_equal(w, ref_w)
        assert nbytes == 150 * 150 * 4

    def test_blocked_matches_seed_pipeline(self):
        v = random_vectors(90, 6, seed=7)
        sel, w, _, _ = craig_select_class(v, 12, block_size=32)
        ref_sel, ref_w = self.seed_pipeline(v, 12)
        np.testing.assert_array_equal(sel, ref_sel)
        np.testing.assert_array_equal(w, ref_w)

    def test_float32_selects_same_medoids(self):
        # fp32 rounding may reorder near-ties, so compare objective value,
        # not the exact index sequence.
        from repro.selection.facility import facility_location_value

        v = random_vectors(120, 8, seed=8)
        sel64, _, _, _ = craig_select_class(v, 15)
        sel32, _, _, _ = craig_select_class(v, 15, precision="float32")
        s = similarity_from_distances(naive_pairwise_distances(v))
        v64 = facility_location_value(s, sel64)
        v32 = facility_location_value(s, sel32)
        assert v32 >= 0.999 * v64

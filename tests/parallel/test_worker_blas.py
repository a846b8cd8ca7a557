"""Selection pool workers run one BLAS thread whatever their start method."""

import numpy as np
import pytest

from repro.nn import blas
from repro.parallel.engine import SelectionExecutor
from repro.parallel.store import shared_memory_available

pytestmark = [
    pytest.mark.skipif(
        not shared_memory_available(), reason="POSIX shared memory unavailable"
    ),
    pytest.mark.skipif(
        blas.blas_fallback() is not None, reason="numpy's BLAS has no thread control"
    ),
]


def _worker_blas_threads(vectors):
    return blas.blas_threads()


@pytest.mark.parametrize("start_method", ["fork", "spawn"])
def test_pool_workers_report_one_blas_thread(start_method):
    # Forked from a parent with its default pool, not from inside a
    # training scope: the initializer alone must pin the worker.
    assert blas.blas_threads() >= 1
    with SelectionExecutor(2, start_method=start_method) as executor:
        got = executor.map_chunks(np.zeros((4, 2)), [[0, 1], [2, 3]],
                                  _worker_blas_threads)
        assert executor.fallback_reason is None
    assert got == [1, 1]

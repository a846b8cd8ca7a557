"""Training runs with one BLAS thread and records what degraded.

``_BaseTrainer.train`` holds :func:`repro.nn.blas.single_thread` for the
whole run; these tests probe the count where the compute happens (the
subset source, the overlap thread) and after the run ends or fails.  The
degradation half checks that a missing BLAS thread control shows on its
span and counter, and that a healthy run records none.
"""

import threading

import numpy as np
import pytest

from repro import obs
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.trainer import NeSSATrainer, SubsetTrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn import blas
from repro.nn.resnet import resnet20
from repro.selection.craig import SelectionResult

controlled = pytest.mark.skipif(
    blas.blas_fallback() is not None, reason="numpy's BLAS has no thread control"
)


@pytest.fixture(scope="module")
def data():
    cfg = SyntheticConfig(num_classes=4, num_samples=160, image_shape=(3, 8, 8), seed=5)
    return make_train_test(cfg)


@pytest.fixture()
def prior_count():
    """Start from a distinctive count (3) and put the real one back after."""
    set_ = blas._lookup()[1]
    original = blas.blas_threads()
    set_(3)
    yield 3
    set_(original)


def recipe(epochs=2):
    return TrainRecipe(epochs=epochs, batch_size=32, lr=0.05, lr_milestones=(),
                       clip_grad_norm=5.0)


def factory():
    return resnet20(num_classes=4, width=4, seed=2)


class ProbingSelector:
    """Uniform-random subset source that records the BLAS count it sees."""

    def __init__(self, fail_on_call=None, barrier=None):
        self.seen = []
        self.fail_on_call = fail_on_call
        self.barrier = barrier

    def select(self, dataset, fraction, model):
        if self.barrier is not None:
            self.barrier.wait()
        self.seen.append(blas.blas_threads())
        if len(self.seen) == self.fail_on_call:
            raise RuntimeError("selection failed mid-run")
        n = len(dataset)
        positions = np.random.default_rng(len(self.seen)).permutation(n)[: n // 3]
        return SelectionResult(np.sort(positions), np.ones(len(positions)))


def _subset_trainer(selector):
    return SubsetTrainer(factory(), recipe(), selector, 0.3, seed=0)


@controlled
class TestTrainScope:
    def test_selector_sees_one_thread_and_train_restores(self, data, prior_count):
        selector = ProbingSelector()
        _subset_trainer(selector).train(*data)
        assert selector.seen == [1, 1]
        assert blas.blas_threads() == prior_count

    def test_restores_after_a_mid_epoch_failure(self, data, prior_count):
        selector = ProbingSelector(fail_on_call=2)
        with pytest.raises(RuntimeError, match="mid-run"):
            _subset_trainer(selector).train(*data)
        assert selector.seen == [1, 1]
        assert blas.blas_threads() == prior_count

    def test_overlap_thread_sees_one_thread(self, data, prior_count):
        config = NeSSAConfig(subset_fraction=0.3, seed=0, overlap=True,
                             stale_feedback="stale")
        trainer = NeSSATrainer(factory(), recipe(3), config, factory)
        select = trainer.selector.select
        seen = []

        def probe(*args, **kwargs):
            seen.append((threading.current_thread().name, blas.blas_threads()))
            return select(*args, **kwargs)

        trainer.selector.select = probe
        trainer.train(*data)
        assert ("async-selection", 1) in seen
        assert all(count == 1 for _, count in seen)
        assert blas.blas_threads() == prior_count

    def test_two_trainers_on_two_threads_restore(self, data, prior_count):
        # The barrier holds both runs inside their scopes at once.
        barrier = threading.Barrier(2, timeout=60)
        selectors = [ProbingSelector(barrier=barrier) for _ in range(2)]
        errors = []

        def run(selector):
            try:
                _subset_trainer(selector).train(*data)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in selectors]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
            assert not t.is_alive()
        assert not errors
        assert [s.seen for s in selectors] == [[1, 1], [1, 1]]
        assert blas.blas_threads() == prior_count


def _traced(run):
    tracer, registry = obs.Tracer(run="blas"), obs.MetricsRegistry()
    obs.set_tracer(tracer)
    obs.set_metrics(registry)
    try:
        run()
    finally:
        obs.set_tracer(None)
        obs.set_metrics(None)
    return tracer.records, registry.snapshot()["counters"]


def _nessa():
    config = NeSSAConfig(subset_fraction=0.3, seed=0)
    return NeSSATrainer(factory(), recipe(), config, factory)


class TestDegradations:
    def test_healthy_run_records_no_fallback(self, data):
        records, counters = _traced(lambda: _nessa().train(*data))
        (setup,) = [r for r in records if r.name == "run_setup"]
        assert "blas_fallback" not in setup.attrs
        assert "blas.fallbacks" not in counters

    def test_missing_blas_control_is_recorded(self, data, monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: (None, None, "MKL"))
        records, counters = _traced(lambda: _nessa().train(*data))
        (setup,) = [r for r in records if r.name == "run_setup"]
        assert setup.attrs["blas_fallback"] == "MKL"
        assert counters["blas.fallbacks"] == 1

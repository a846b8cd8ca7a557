"""Selection runs in-process: a training run starts no child process.

The most concurrent configuration — stale overlap, a prefetching loader
and ``workers=2`` — must leave no child process and no POSIX
shared-memory segment behind, and a unit that fails inside an
overlapped round must surface on the training thread promptly, with no
background thread left running.
"""

import multiprocessing
import os
import threading
import time

import pytest

import repro.parallel.engine as engine
from repro.core.config import NeSSAConfig, TrainRecipe
from repro.core.trainer import NeSSATrainer
from repro.data.synthetic import SyntheticConfig, make_train_test
from repro.nn.resnet import resnet20

BACKGROUND_THREADS = {"async-selection", "prefetch-worker"}

# Every os.fork() in this process, whoever calls it.
_FORKS = []
os.register_at_fork(before=lambda: _FORKS.append(1))


@pytest.fixture(scope="module")
def data():
    cfg = SyntheticConfig(num_classes=4, num_samples=240, image_shape=(3, 8, 8), seed=9)
    return make_train_test(cfg)


def _factory():
    return resnet20(num_classes=4, width=4, seed=2)


def _trainer():
    recipe = TrainRecipe(epochs=3, batch_size=32, lr=0.05, lr_milestones=(),
                         clip_grad_norm=5.0)
    config = NeSSAConfig(subset_fraction=0.3, seed=0, overlap=True,
                         stale_feedback="stale", prefetch_depth=2, workers=2)
    return NeSSATrainer(_factory(), recipe, config, _factory)


def _shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def _background_threads_alive(timeout_s: float = 5.0) -> set[str]:
    """Names of background threads still alive after a bounded join."""
    for t in threading.enumerate():
        if t.name in BACKGROUND_THREADS:
            t.join(timeout_s)
    return {t.name for t in threading.enumerate()
            if t.name in BACKGROUND_THREADS and t.is_alive()}


def test_run_starts_no_process_and_publishes_no_segment(data):
    before, forks = _shm_segments(), len(_FORKS)
    trainer = _trainer()  # held, so nothing it owns is collected early
    history = trainer.train(*data)
    assert len(history.records) == 3
    assert len(_FORKS) == forks
    assert multiprocessing.active_children() == []
    assert _shm_segments() - before == set()


def test_unit_failure_mid_round_reraises_from_train(data, monkeypatch):
    real = engine.execute_unit
    calls = []

    def failing(vectors, unit, spec):
        # Fail on the second unit of the first overlapped round.
        if threading.current_thread().name == "async-selection":
            calls.append(unit.order)
            if len(calls) == 2:
                raise RuntimeError("unit failed mid-round")
        return real(vectors, unit, spec)

    monkeypatch.setattr(engine, "execute_unit", failing)
    trainer = _trainer()
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="mid-round"):
        trainer.train(*data)
    assert time.monotonic() - start < 10
    assert len(calls) == 2
    assert _background_threads_alive() == set()
    assert multiprocessing.active_children() == []

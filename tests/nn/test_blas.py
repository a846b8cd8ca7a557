"""The one-BLAS-thread scope: pins, restores, nests and degrades cleanly."""

import threading

import pytest

from repro.nn import blas

controlled = pytest.mark.skipif(
    blas.blas_fallback() is not None, reason="numpy's BLAS has no thread control"
)


@pytest.fixture()
def prior_count():
    """Start from a distinctive count (3) and put the real one back after."""
    set_ = blas._lookup()[1]
    original = blas.blas_threads()
    set_(3)
    yield 3
    set_(original)


@controlled
class TestSingleThread:
    def test_pins_one_thread_and_restores(self, prior_count):
        with blas.single_thread():
            assert blas.blas_threads() == 1
        assert blas.blas_threads() == prior_count

    def test_restores_after_an_exception(self, prior_count):
        with pytest.raises(RuntimeError):
            with blas.single_thread():
                raise RuntimeError("mid-scope")
        assert blas.blas_threads() == prior_count

    def test_nested_scopes_restore_once(self, prior_count):
        with blas.single_thread():
            with blas.single_thread():
                assert blas.blas_threads() == 1
            assert blas.blas_threads() == 1
        assert blas.blas_threads() == prior_count

    def test_overlapping_scopes_on_two_threads(self, prior_count):
        # A enters, B enters, A leaves (B still needs one thread), B leaves.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def scope_a():
            with blas.single_thread():
                a_in.set()
                b_in.wait(10)
            seen["after_a"] = blas.blas_threads()
            a_out.set()

        def scope_b():
            a_in.wait(10)
            with blas.single_thread():
                b_in.set()
                a_out.wait(10)
                seen["b_after_a"] = blas.blas_threads()

        threads = [threading.Thread(target=scope_a), threading.Thread(target=scope_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
            assert not t.is_alive()
        assert seen == {"after_a": 1, "b_after_a": 1}
        assert blas.blas_threads() == prior_count


class TestNoThreadControl:
    def test_lookup_without_symbols_gives_a_reason(self, monkeypatch):
        class NoSymbols:
            def __init__(self, path):
                pass

        monkeypatch.setattr(blas.ctypes, "CDLL", NoSymbols)
        get, set_, reason = blas._lookup.__wrapped__()
        assert get is None and set_ is None
        assert "no OpenBLAS thread control" in reason

    def test_every_call_is_a_recorded_no_op(self, monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: (None, None, "MKL"))
        assert blas.blas_threads() is None
        assert blas.blas_fallback() == "MKL"
        with blas.single_thread():
            assert blas.blas_threads() is None

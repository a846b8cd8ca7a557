"""One BLAS thread per compute thread.

numpy's OpenBLAS sizes its thread pool to the machine in every process.
Training already runs two compute threads at once — the training thread
and the overlap thread's proxy forward and selection units — and each
would fan its GEMMs out over that pool again, so on a 2-core box up to 4
BLAS threads fight over 2 cores.  The GEMMs training runs are small (a
ResNet conv is 6x54 @ 54x4096: 115 µs threaded, 132 µs on one thread,
warm and alone) and gain little from the pool, but a threaded call that
finds its pool busy or cold stalls for milliseconds (DESIGN.md §3 "BLAS
threads").

:func:`single_thread` pins the count to 1 for the duration of a scope and
restores it on exit.  The count is process-global, so scopes are
reference-counted under a lock: nested and concurrent scopes pin once and
the last one out restores.  The controls are looked up with
:mod:`ctypes` in the BLAS numpy links; when none of the known symbols
exists (MKL, Accelerate, an unknown build) every call is a no-op and
:func:`blas_fallback` says why.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator

__all__ = ["blas_threads", "blas_fallback", "single_thread"]

# (get, set) symbol pairs, most specific first: the scipy-openblas wheels
# numpy ships prefix (and, for 64-bit ints, suffix) every symbol; a system
# OpenBLAS exports the plain names.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@lru_cache(maxsize=1)
def _lookup() -> tuple:
    """``(get, set, None)`` for numpy's BLAS, or ``(None, None, reason)``.

    ``dlsym`` on numpy's extension module also searches the libraries it
    was linked against, so this finds the BLAS numpy actually calls
    wherever the wheel bundled it.
    """
    try:
        from numpy._core import _multiarray_umath as ext
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as ext
    try:
        lib = ctypes.CDLL(ext.__file__)
    except OSError as exc:
        return None, None, f"cannot open numpy's extension module: {exc}"
    for get_name, set_name in _SYMBOLS:
        get = getattr(lib, get_name, None)
        set_ = getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_, None
    return None, None, "no OpenBLAS thread control in numpy's BLAS"


def blas_threads() -> int | None:
    """The BLAS thread count now in force; None without thread control."""
    get = _lookup()[0]
    return None if get is None else int(get())


def blas_fallback() -> str | None:
    """Why BLAS threads cannot be controlled; None when they can."""
    return _lookup()[2]


# The thread count is process-global, so the scopes' bookkeeping is too:
# how many are open, and the count the last one out puts back.
_lock = threading.Lock()
_depth = 0
_restore = 0


@contextmanager
def single_thread() -> Iterator[None]:
    """Run the body with one BLAS thread; restore the count on exit.

    A no-op when :func:`blas_fallback` names a reason.
    """
    global _depth, _restore
    get, set_, _ = _lookup()
    if set_ is None:
        yield
        return
    with _lock:
        if _depth == 0:
            _restore = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_restore)

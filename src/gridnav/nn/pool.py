"""The image trunk's chunk pool: one worker per usable core, one BLAS thread each.

The trunk's chunks are independent, and most of a chunk's time goes to
copies, pooling and element-wise work that numpy's BLAS threads do not
share.  So pooled chunks run side by side on one worker thread per core in
the process's affinity mask, while the bundled OpenBLAS is held at one
thread, so that each chunk's GEMMs run on its own core too.  A GEMM at one
BLAS thread also rounds the same way on every machine.

Where OpenBLAS's thread-count setter is not found, or the process may use
one core, there is no pool and chunks run on the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
from collections.abc import Callable, Iterator, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            getter = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            setter = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@functools.cache
def _executor() -> ThreadPoolExecutor | None:
    """The process's worker threads, started on first use; None for one worker."""
    if _openblas_threads() is None:
        return None
    workers = len(os.sched_getaffinity(0))
    return ThreadPoolExecutor(workers, thread_name_prefix="gridnav-trunk") if workers > 1 else None


def workers() -> int:
    """How many chunks the pool runs side by side: 1 without a pool."""
    return len(os.sched_getaffinity(0)) if _executor() is not None else 1


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread, restoring the previous count afterwards."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def map_chunks(fn: Callable, items: Sequence, on_pool: bool) -> Iterator:
    """``fn`` over ``items``, results in item order as they complete: on the
    pool's workers when ``on_pool``, else on the calling thread.  Call it
    under :func:`one_blas_thread`."""
    executor = _executor()
    if executor is None or not on_pool:
        return map(fn, items)
    return executor.map(fn, items)

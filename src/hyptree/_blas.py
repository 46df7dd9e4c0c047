"""Run a block of numpy and scipy calls with every loaded OpenBLAS pool on one thread.

A threaded BLAS splits a product's sums across its threads, so their
rounding would depend on the host's CPU count.  The encoder's fit, the
cosine product of a feature table and the edge-weight refit run under
:func:`one_blas_thread`, so their bytes are the same on every host.  This
module imports nothing from hyptree, so any module can use it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os


class _PhdrInfo(ctypes.Structure):
    """The first two fields of ``struct dl_phdr_info``."""
    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


#: ``dl_iterate_phdr``'s callback type: (info, size of info, data) -> int.
_PHDR_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t,
                                  ctypes.c_void_p)


def openblas_pools() -> list[tuple]:
    """The ``(get, set)`` thread-count functions of every OpenBLAS loaded in
    the process: numpy's ``scipy_openblas_*_num_threads64_``, scipy's
    ``scipy_openblas_*_num_threads`` or a system ``openblas_*_num_threads``.
    Libraries are listed by the C library's ``dl_iterate_phdr``; where it is
    missing (not Linux or the BSDs) no pool is found."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, TypeError):
        return []
    iterate.argtypes, iterate.restype = [_PHDR_CALLBACK, ctypes.c_void_p], ctypes.c_int
    paths = []

    def visit(info, size, data):
        name = info.contents.name
        if name and b"openblas" in name:
            paths.append(name.decode())
        return 0

    callback = _PHDR_CALLBACK(visit)
    iterate(callback, None)
    pools = []
    for path in paths:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is not None:
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return pools


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with every loaded OpenBLAS pool on one thread, and
    restore their thread counts after.

    Import the scipy modules the block calls before entering it: a pool
    first loaded inside the block keeps its own thread count."""
    pools = [(set_threads, get_threads()) for get_threads, set_threads in openblas_pools()]
    for set_threads, _ in pools:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in pools:
            set_threads(count)

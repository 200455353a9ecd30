"""One-thread cap for the OpenBLAS libraries loaded into this process.

NumPy and SciPy wheels each ship their own OpenBLAS (NumPy's serves ``@``,
SciPy's the sparse LU and lgmres in ``bem``).  OpenBLAS reads
``OPENBLAS_NUM_THREADS`` only when it is loaded, so once numpy is imported
the thread count can be changed only through the library's own
``openblas_set_num_threads``.  This
module finds every loaded OpenBLAS through the process's memory map and
calls that entry point directly.

The count is one setting for the whole process, so caps held at the same
time by callers on several threads need not end in the order they began:
it stays at one while any is held, and the counts from before the first
are restored when the last ends.  Other counts are set at process start,
by ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
import threading

# Symbol spellings: the scipy-openblas wheels prefix ``scipy_``, and the
# ILP64 build (NumPy's) appends ``64_``.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _loaded_openblas_paths() -> list[str]:
    # numpy (for ``@``) and scipy.linalg (for the sparse LU and lgmres) are
    # what load them.
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/") and ".so" in p)


def _controls() -> dict[str, tuple]:
    """``{library path: (get_num_threads, set_num_threads)}``."""
    out = {}
    for path in _loaded_openblas_paths():
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(_PREFIXES, _SUFFIXES):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                out[path] = (get, set_)
                break
    return out


def _counts(controls) -> dict[str, int]:
    return {path: get() for path, (get, _) in controls.items()}


def blas_thread_counts() -> dict[str, int]:
    """Current thread count of every loaded OpenBLAS, keyed by its path.

    Empty when no OpenBLAS is loaded (another BLAS, or no memory map)."""
    return _counts(_controls())


class _Caps:
    """The caps in force, as the id of the thread holding each, keyed by a
    token, and the counts from before the first."""

    def __init__(self):
        self.lock = threading.Lock()
        self.held: dict[object, int] = {}
        self.before: dict[str, int] = {}

    def apply(self, controls) -> None:
        for path, (_, set_) in controls.items():
            if self.held:
                set_(1)
            elif path in self.before:
                set_(self.before[path])


_CAPS = _Caps()


def _forget_other_threads() -> None:
    # A forked child runs only the thread that forked: the caps of the
    # others never end there, and their lock may have been held.
    me = threading.get_ident()
    _CAPS.lock = threading.Lock()
    _CAPS.held = {k: v for k, v in _CAPS.held.items() if v == me}


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_other_threads)


@contextlib.contextmanager
def one_blas_thread():
    """Cap every loaded OpenBLAS at one thread; restore on exit.

    Safe to hold from several threads at once (see the module docstring).
    Yields the counts read back after the cap, so a caller can check that
    it took effect (an empty dict means there was nothing to cap)."""
    controls = _controls()
    token = object()
    with _CAPS.lock:
        if not _CAPS.held:
            _CAPS.before = _counts(controls)
        _CAPS.held[token] = threading.get_ident()
        _CAPS.apply(controls)
        counts = _counts(controls)
    try:
        yield counts
    finally:
        with _CAPS.lock:
            _CAPS.held.pop(token, None)
            _CAPS.apply(controls)

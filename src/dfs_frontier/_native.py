"""Loader for the native kernel in _kernel.c, compiled on first use.

`kernel()` returns the loaded library, or None when it cannot be had: no C
compiler, a failed compile, or a package directory whose __pycache__ is not
writable. That answer alone chooses between a kernel and its Python loop,
which computes the same bits; this module says so once per process on
stderr. Nothing here runs at import of the package: the first call compiles
(well under a second) or loads the cached build.

The build is cached as __pycache__/_kernel-<hash><EXT_SUFFIX> next to this
file, where the hash covers the source and the full compiler command. It is
written to a temporary file in the same directory and moved into place, so
processes that build at the same time (sweep workers) never see a partial
library; then the builds of other hashes there are deleted. The cache is
kept even under PYTHONDONTWRITEBYTECODE: it is a build product, not
bytecode, and skipping it would recompile in every process.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(_HERE, "_kernel.c")
CACHE_DIR = os.path.join(_HERE, "__pycache__")
# No -ffast-math, and -std=c99 switches off FP contraction: the gap draw
# must round exactly as the Python loop does.
CFLAGS = ("-O2", "-std=c99", "-shared", "-fPIC")
COMPILE_TIMEOUT_S = 120

_UNSET = object()
_lib = _UNSET


def kernel():
    """The loaded kernel library, or None; decided once per process."""
    global _lib
    if _lib is _UNSET:
        try:
            _lib = _declare(ctypes.CDLL(_build()))
        except (OSError, subprocess.SubprocessError) as exc:
            print(f"dfs-frontier: native kernel unavailable ({exc}); "
                  "running the Python loops", file=sys.stderr)
            _lib = None
    return _lib


def _build():
    """Path of the compiled kernel, building it if it is not cached."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    compiler = shutil.which(cc[0])
    if compiler is None:
        raise OSError(f"no C compiler {cc[0]!r} on PATH")
    with open(SOURCE, "rb") as f:
        source = f.read()
    cmd = [compiler, *cc[1:], *CFLAGS, "-o", "{out}", SOURCE, "-lm"]
    digest = hashlib.sha256(source + "\0".join(cmd).encode()).hexdigest()
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    target = os.path.join(CACHE_DIR, f"_kernel-{digest[:16]}{suffix}")
    if os.path.isfile(target):
        return target
    os.makedirs(CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, prefix=".kernel-",
                               suffix=suffix)
    os.close(fd)
    try:
        done = subprocess.run([tmp if a == "{out}" else a for a in cmd],
                              capture_output=True, text=True,
                              timeout=COMPILE_TIMEOUT_S)
        if done.returncode != 0:
            raise OSError(f"compile failed: {done.stderr.strip()[-300:]}")
        # The linker keeps mkstemp's owner-only mode; other users of the
        # package must be able to load the library too.
        os.chmod(tmp, 0o755)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Builds of earlier sources or compiler commands are never loaded again.
    pattern = os.path.join(glob.escape(CACHE_DIR), f"_kernel-*{suffix}")
    for old in glob.glob(pattern):
        if old != target:
            with contextlib.suppress(OSError):   # housekeeping only
                os.unlink(old)
    return target


def address(array, dtype):
    """The address of `array`'s first entry, to pass for a kernel's pointer
    argument (declared c_void_p, which costs far less per call than an
    ndpointer), or None (NULL) for None. TypeError, before the kernel is
    called, unless `array` is a C-contiguous ndarray of `dtype`, the layout
    the kernel reads."""
    if array is None:
        return None
    if (not isinstance(array, np.ndarray) or array.dtype != dtype
            or not array.flags.c_contiguous):
        raise TypeError(f"kernel argument must be a C-contiguous "
                        f"{np.dtype(dtype)} array")
    return array.ctypes.data


def _declare(lib):
    """Argument types of the three entry points. Arrays are passed as
    addresses from `address`: labels and CSR offsets int32, clocks, ranks
    and counts int64, the generator state uint64."""
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    lib.gap_draw.argtypes = [ptr, ctypes.c_double, i64, ptr, ptr, ptr, i64]
    lib.gap_draw.restype = i64
    lib.csr_build.argtypes = [i64, ptr, ptr, i64, ptr, ptr]
    lib.csr_build.restype = ctypes.c_int
    lib.explore.argtypes = [i64, ptr, ptr, i64, ptr, i64, ptr, ptr, ptr, ptr,
                            ptr, ptr, ptr]
    lib.explore.restype = ctypes.c_int
    return lib

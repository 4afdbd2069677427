"""Build and load ``_hs.c``, the compiled hierarchical-softmax epoch loop.

The library is compiled with the local ``cc`` on first use and cached under
``$XDG_CACHE_HOME/metovec`` (``~/.cache/metovec`` when that is unset), keyed
by the source, the compiler command and the machine.  ``hashlib`` is not
used for the key: importing it maps libcrypto into the process.
"""

from __future__ import annotations

import ctypes
import functools
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_hs.c")
# no fast-math and no fused multiply-add: the loop must round every
# operation as the numpy step does
COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


_ARGTYPES = (
    _array(np.int32), _array(np.int64), ctypes.c_int64,  # ids, starts, n
    _array(np.int64), _array(np.int32), _array(np.float64),  # paths
    _array(np.float64), _array(np.float64), _array(np.float64),  # matrices
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int32,  # dim, window, cbow
    ctypes.c_double, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
    _array(np.int64), _array(np.float64))  # counts, out


def library_path() -> Path:
    """Where the compiled loop for this source, compiler and machine lives."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    key = zlib.crc32(SOURCE.read_bytes())
    key = zlib.crc32(" ".join(COMPILE).encode(), key)
    key = zlib.crc32(os.uname().machine.encode(), key)
    return Path(base) / "metovec" / f"_hs-{key:08x}.so"


def epoch_function():
    """The C ``hs_epoch`` function, compiled first when not cached."""
    return _load(library_path())


@functools.cache
def _load(path: Path):
    if not path.exists():
        _build(path)
    function = ctypes.CDLL(str(path)).hs_epoch
    function.argtypes = _ARGTYPES
    function.restype = None
    return function


def _build(path: Path):
    """Compile to a temporary file and rename it into place, so another
    process never loads a half-written library."""
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(handle)
    command = [*COMPILE, "-o", tmp, str(SOURCE), "-lm"]
    try:
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise OSError(f"cannot compile the training loop: "
                          f"{' '.join(command)}: {exc}") from None
        if done.returncode:
            raise OSError(f"cannot compile the training loop: "
                          f"{' '.join(command)} exited {done.returncode}: "
                          f"{done.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)

"""Build and load ``_hs.c``, the one hierarchical-softmax training step:
``hs_example`` trains one focus position (``embeddings.train_example_*``)
and ``hs_epoch`` calls it at every token of an epoch (``embeddings.train``).

The library is compiled with the local ``cc`` on first use and cached under
``$XDG_CACHE_HOME/metovec`` (``~/.cache/metovec`` when that is unset), keyed
by the source, the compiler command and the machine.  A build removes the
libraries of other keys.  ``hashlib`` is not used for the key: importing it
maps libcrypto into the process.

On x86-64 with glibc the two entry points carry an AVX2 clone and a
baseline clone, and the dynamic loader picks one by the CPU it runs on.
``COMPILE`` names no CPU extension, so the library loads on any CPU of its
machine name, and the key needs no CPU flag.  The clones round alike, bit
for bit: see ``_hs.c``.
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
# no fast-math and no fused multiply-add: the step must round every
# operation as written, as python_train in the tests does.  -O3 only adds
# vectorised elementwise loops, which round each element as -O2 does
COMPILE = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")

# C reads each double through a double *: an array at an offset that is no
# multiple of 8, such as a loaded model's node matrix, is refused
_I32, _I64 = (np.ctypeslib.ndpointer(dtype=t, flags="C_CONTIGUOUS")
              for t in (np.int32, np.int64))
_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS,ALIGNED")
_INT, _LONG, _DOUBLE = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
# paths (starts, nodes, targets), inputs, nodes, work, dim, window, cbow
_SHARED = (_I64, _I32, _F64, _F64, _F64, _F64, _LONG, _LONG, _INT)
_SIGNATURES = {  # name: (argtypes, restype), as declared in _hs.c
    "hs_epoch": ((_I32, _I64, _LONG, *_SHARED, _DOUBLE, _DOUBLE, _LONG,
                  _LONG, _I64, _F64), None),
    "hs_example": ((_I32, _LONG, _LONG, _LONG, *_SHARED, _DOUBLE, _I64,
                    _F64), ctypes.c_int),
}


def library_path() -> Path:
    """Where the compiled loop for this source, compiler and machine lives.
    The cache directory is looked up on each call, the key once."""
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(base) / "metovec" / f"_hs-{_key():08x}.so"


@functools.cache
def _key() -> int:
    return zlib.crc32(SOURCE.read_bytes() + " ".join(COMPILE).encode()
                      + os.uname().machine.encode())


def library():
    """The compiled ``_hs.c``, C signatures set; built when not cached."""
    return _load(library_path())


@functools.cache
def _load(path: Path):
    if not path.exists():
        _build(path)
    lib = ctypes.CDLL(str(path))
    for name, signature in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = signature
    return lib


def _build(path: Path):
    """Compile to a temporary file and rename it into place, so another
    process never loads a half-written library.  Then remove the library
    of any other key, built from an earlier source or command; a process
    that has one loaded keeps its mapping."""
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
    for stale in path.parent.glob("_hs-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metovec

SOURCE = str(Path(metovec.__file__).resolve().parent.parent)

# allocates and frees a 16 MB array three times and prints the most any
# round left the resident size above where that round started
PROBE = """
import numpy as np
import metovec

def resident():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * 4096

grown = []
for _ in range(3):
    before = resident()
    block = np.ones(2_000_000)
    del block
    grown.append(resident() - before)
print(max(grown))
"""

pytestmark = pytest.mark.skipif(
    not (os.path.exists("/proc/self/statm")
         and hasattr(ctypes.CDLL(None), "mallopt")),
    reason="needs /proc and a C library with mallopt")


def kept_after_free(**env):
    environ = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_")}
    environ["PYTHONPATH"] = os.pathsep.join(
        [SOURCE, *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run([sys.executable, "-c", PROBE], env=environ | env,
                          capture_output=True, text=True, check=True)
    return int(done.stdout)


def test_freed_arrays_leave_no_resident_memory():
    """glibc's moving mmap threshold would serve the second 16 MB block
    from the heap and keep it resident after the free."""
    assert kept_after_free() < 1 << 20


def test_allocator_settings_from_the_environment_win():
    # a 32 MiB mmap threshold puts the block on the heap, and a 64 MiB trim
    # threshold keeps it there once freed
    assert kept_after_free(MALLOC_MMAP_THRESHOLD_=str(32 << 20),
                           MALLOC_TRIM_THRESHOLD_=str(64 << 20)) > 8 << 20

"""Allocator settings that keep the resident size of a process a function of
its work, not of timing.  ``steady()`` applies them once, when the package
is imported; they hold for the whole process.

glibc moves its mmap threshold to the size of each mapped block that is
freed (up to 32 MiB) and its trim threshold to twice that.  Once a
model-sized array has been freed, the next ones come from the heap, among
small blocks, and how much freed heap stays resident depends on the order in
which earlier blocks were freed: a query command that loads a V=10k, D=100
model raised the peak by 7 MiB in some runs and not in others.  numpy also
asks for transparent huge pages on every array of 4 MiB or more; on heap
memory shared with small blocks, khugepaged then collapses partly used
2 MiB ranges whenever its scan comes round.

Fixing the mmap threshold at numpy's 4 MiB gives every such array its own
mapping, handed back to the kernel when the array is freed.  Fixing the
trim threshold at twice that, as glibc's own rule would, keeps freed small
buffers for reuse instead of faulting fresh pages in for each one.  Nothing
is set when ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_``, which
glibc itself reads, is set, or where the C library has no ``mallopt``.
"""

from __future__ import annotations

import ctypes
import os

# glibc's malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 4 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def steady():
    if {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & set(os.environ):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)

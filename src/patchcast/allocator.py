"""The process's memory-allocator policy: keep freed array memory for reuse.

glibc's malloc serves a block above its mmap threshold with a fresh
``mmap`` and unmaps it on free, and it returns free memory at the top of the
heap to the kernel once that exceeds its trim threshold. A training step
allocates and frees arrays of 150 KB to 4 MB on every op, so each step would
get them back as new zero-filled pages and fault every page in again
(thousands of minor faults per ``pretrain_long`` step). Raising both thresholds
keeps the freed blocks in the heap, where the next step reuses them.
Numerics are unaffected; the cost is that resident memory stays near its
high-water mark instead of shrinking after a large step.
"""

from __future__ import annotations

import ctypes

# mallopt parameter numbers, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# glibc's own ceiling for its dynamic mmap threshold on 64-bit, and the
# trim threshold at the 2x ratio glibc keeps between the two
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds for this process.

    Returns True when both were applied, and False where the C library is
    not glibc, offers no ``mallopt`` or refuses a setting.
    """
    try:
        libc = ctypes.CDLL(None)
        # glibc only: other C libraries number mallopt's parameters differently
        libc.gnu_get_libc_version
        mallopt = libc.mallopt
    except (OSError, AttributeError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold alone makes faults worse, so it follows only a set mmap threshold
    if not mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD):
        return False
    return bool(mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD))

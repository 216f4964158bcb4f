"""Host-memory policy of the engine process: keep freed memory mapped.

Every operator runs in NumPy, and the libraries' chained calls
materialise each intermediate as a fresh array of up to a few MB.  glibc
serves a request at or above its mmap threshold with its own ``mmap``
and unmaps it on free, and it trims the top of the heap back to the
kernel once more than its trim threshold lies free there.  Both
thresholds start low (128 KiB) and the dynamic heuristic only raises
them to the largest chunk freed so far, so join pairs, gathers, scan
uploads and decoded store chunks are handed back on free and zero-filled
by the kernel again, one minor page fault per 4 KiB page, on next touch.

:func:`keep_freed_memory` fixes both thresholds where that heuristic
stops: the mmap threshold at 32 MiB, glibc's ``DEFAULT_MMAP_THRESHOLD_MAX``
on 64-bit and the highest value the heuristic reaches, and the trim
threshold at twice that, the ratio the heuristic keeps.  Freed
temporaries then stay in the heap for the next one.  ``repro`` calls it
once, at import.
"""

from __future__ import annotations

import ctypes
import platform

#: ``mallopt`` parameter numbers from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit: 32 MiB.
MMAP_THRESHOLD = 32 * 1024 * 1024
#: Twice the mmap threshold, as glibc's dynamic heuristic keeps it.
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def keep_freed_memory() -> bool:
    """Make glibc keep freed memory in the process instead of returning
    it to the kernel: requests below 32 MiB come from the heap, and the
    heap is trimmed only once 64 MiB lie free at its top.

    Returns whether both ``mallopt`` calls succeeded.  On any other libc,
    or where the C library cannot be reached, it returns False and
    changes nothing; it never raises.  Calling it again sets the same
    values.  To see the effect, read
    ``resource.getrusage(resource.RUSAGE_SELF).ru_minflt`` around a
    workload: the minor page faults fall to about one per page the
    process's heap grows by.
    """
    try:
        if platform.libc_ver()[0] != "glibc":
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )

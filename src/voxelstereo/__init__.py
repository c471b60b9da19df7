"""Multi-view stereopsis toolkit on metric voxel grids.

Differentiable projection/unprojection between images and a 3D feature
grid, recurrent and pointwise grid fusion, classical visual-hull and
plane-sweep baselines, a procedural posed-scene generator, and an
evaluation harness.

Heap policy: importing the package asks glibc's malloc, once, to keep
freed memory in the process. The hot loops free and reallocate arrays of
up to about 11 MB many times a step (the conv's padded rows, the plane
sweep's score volume). By default glibc unmaps a large block when it is
freed and trims free memory off the heap top, so the next array of that
size is fresh pages that fault in again: about 40k pages per evaluation
pass and 3100-4700 per warm 32^3 unproject. With mmap kept for blocks over
32 MiB (glibc's 64-bit maximum) and the heap trimmed only past 256 MiB of
free top, freed pages are reused. The cost is resident memory that stays
mapped after a peak: max RSS went 133 -> 147 MB for the benchmark's
evaluation run and 254 -> 260 MB for its voxel/GRU training run. It is a
no-op where malloc has no mallopt or refuses the setting (macOS, Windows,
musl); the arithmetic is the same either way.
"""

import ctypes

__version__ = "0.1.0"

# glibc <malloc.h> parameter numbers, and the values set for them.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 256 << 20


def _keep_freed_heap():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 0 for a setting it refuses; then leave the defaults alone
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_heap()

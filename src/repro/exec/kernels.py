"""Array-kernel registry: the compute primitives behind batch execution.

The operators (:mod:`repro.exec.operators`) and the run-list
intersection (:meth:`repro.labeling.runs.RunList.filter_positions`) hand
their inner loops to this module. Every primitive takes and returns
plain ``array('q')`` / ``array('H')`` buffers, so two interchangeable
implementations can sit behind one interface:

- :class:`StdlibKernels` — pure stdlib (``bisect`` galloping merges and
  slice extends), always available, the default;
- :class:`NumpyKernels` — the same primitives as zero-copy
  ``np.frombuffer`` views plus vectorized ``searchsorted``/boolean
  masking, auto-selected when numpy is importable.

Both backends are held to **byte-identical answers**: each primitive is
a pure function of sorted integer arrays, with one defined output order
(the input order), so the differential suite can assert
``stdlib(x) == numpy(x)`` elementwise for arbitrary inputs — and the
query-level suite asserts identical positions *and* statistics whichever
backend is active.

Selection: the ``REPRO_KERNELS`` environment variable (``stdlib``,
``numpy``, or ``auto``) wins; otherwise numpy is used when importable.
The registry resolves once and caches; :func:`set_backend` overrides it
explicitly (tests use this to pin a leg of the differential matrix).

This module must stay import-light (stdlib + optional numpy only): it is
imported lazily from :mod:`repro.labeling.runs`, which sits below the
execution layer in the import graph.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

__all__ = [
    "StdlibKernels",
    "NumpyKernels",
    "active_kernels",
    "available_backends",
    "set_backend",
]


class StdlibKernels:
    """Pure-stdlib kernels: galloping bisect merges over ``array`` buffers."""

    name = "stdlib"

    def filter_runs(
        self, positions: array, starts: array, flags: bytes, hi: int
    ) -> array:
        """Intersect a sorted position batch with accessibility runs.

        ``starts``/``flags`` describe maximal runs (``flags[i]`` governs
        ``[starts[i], starts[i+1])``, the last run ending at ``hi``).
        A linear galloping merge: each step gallops to the run holding
        the next position, then to the batch prefix inside that run —
        whole accessible prefixes move with one slice extend.
        """
        out = array("q")
        n = len(positions)
        n_runs = len(starts)
        if n == 0 or n_runs == 0:
            return out
        ri = 0
        i = 0
        while i < n:
            ri = bisect_right(starts, positions[i], ri) - 1
            if ri < 0:
                ri = 0
            run_end = starts[ri + 1] if ri + 1 < n_runs else hi
            j = bisect_left(positions, run_end, i)
            if flags[ri] and j > i:
                out.extend(positions[i:j])
            i = j
        return out

    def join_ranges(
        self, anchors: array, ends: array, haystack: array
    ) -> Tuple[List[int], List[int]]:
        """Per-anchor slice bounds of ``haystack`` in ``(anchor, end)``.

        ``haystack`` is sorted; the returned ``(los, his)`` delimit, for
        each anchor, the rows strictly inside its subtree interval.
        """
        los: List[int] = []
        his: List[int] = []
        for anchor, end in zip(anchors, ends):
            lo = bisect_right(haystack, anchor)
            los.append(lo)
            his.append(bisect_left(haystack, end, lo))
        return los, his


class NumpyKernels:
    """Numpy kernels: zero-copy views + vectorized searchsorted/masking.

    Outputs are materialized back into ``array('q')`` so downstream code
    (and the differential suite) sees exactly the stdlib types.
    """

    name = "numpy"

    def __init__(self) -> None:
        import numpy

        self._np = numpy

    def _as_i64(self, buf: array):
        np = self._np
        if len(buf) == 0:
            return np.empty(0, dtype=np.int64)
        return np.frombuffer(buf, dtype=np.int64)

    def filter_runs(
        self, positions: array, starts: array, flags: bytes, hi: int
    ) -> array:
        np = self._np
        out = array("q")
        if len(positions) == 0 or len(starts) == 0:
            return out
        pos = self._as_i64(positions)
        idx = np.searchsorted(self._as_i64(starts), pos, side="right") - 1
        np.maximum(idx, 0, out=idx)
        keep = np.frombuffer(flags, dtype=np.uint8)[idx] != 0
        out.frombytes(pos[keep].tobytes())
        return out

    def join_ranges(
        self, anchors: array, ends: array, haystack: array
    ) -> Tuple[List[int], List[int]]:
        np = self._np
        hay = self._as_i64(haystack)
        los = np.searchsorted(hay, self._as_i64(anchors), side="right")
        his = np.searchsorted(hay, self._as_i64(ends), side="left")
        return los.tolist(), his.tolist()


def _numpy_importable() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def available_backends() -> List[str]:
    """Backends this process could run (stdlib always; numpy if importable)."""
    backends = ["stdlib"]
    if _numpy_importable():
        backends.append("numpy")
    return backends


def _resolve(choice: Optional[str] = None):
    choice = choice or os.environ.get("REPRO_KERNELS", "auto")
    if choice == "stdlib":
        return StdlibKernels()
    if choice == "numpy":
        return NumpyKernels()  # ImportError surfaces: an explicit ask must fail
    if choice == "auto":
        if _numpy_importable():
            return NumpyKernels()
        return StdlibKernels()
    raise ValueError(
        f"unknown kernel backend {choice!r} (choose stdlib, numpy, or auto)"
    )


_active = None


def active_kernels():
    """The process-wide kernel backend (resolved once, then cached)."""
    global _active
    if _active is None:
        _active = _resolve()
    return _active


def set_backend(choice: Optional[str] = None):
    """Pin (or with ``None``/"auto" re-resolve) the active backend.

    Returns the newly active kernels object. Tests use this to run the
    differential matrix under each backend explicitly.
    """
    global _active
    _active = _resolve(choice)
    return _active

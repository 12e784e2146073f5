"""Timing, spans and memory sampling for the benchmark.

Every call into a layer's public function goes through
:meth:`Recorder.span`.  Untraced, a span is two ``perf_counter`` reads.
Traced, it also opens a span on the program's own recording tracer
(``repro.obs``), so the spans the program emits inside the call nest
under the benchmark's span and share its ``batch`` attribute.
"""

from __future__ import annotations

import ctypes
import gc
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

perf = time.perf_counter

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_mb() -> float:
    """Current resident set size of this process in MB (read-only view
    of ``/proc/self/statm``; falls back to the peak from ``getrusage``
    where that file does not exist)."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE / 1e6
    except OSError:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3


def baseline_rss() -> float:
    """Resident size after collecting garbage and handing free heap
    pages back to the system, so that memory an earlier round freed is
    not silently reused by the next one and missed by its peak."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: the peak may read low
        pass
    return rss_mb()


class Recorder:
    """Collects per-layer call durations (seconds) under span names.

    ``tracer`` is ``None`` for untraced rounds, or the program's
    recording ``Tracer`` for traced ones.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.times: Dict[str, List[float]] = defaultdict(list)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        if self.tracer is None:
            t0 = perf()
            yield
            self.times[name].append(perf() - t0)
        else:
            with self.tracer.span("bench." + name, **attrs) as sp:
                yield
            self.times[name].append(sp.elapsed)


def median(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def self_times(spans: Sequence, roots: Optional[set] = None) -> Dict[str, float]:
    """Seconds per span name spent in the span itself: its duration
    minus the union of its children's intervals.  ``spans`` are the
    program tracer's finished spans (benchmark and program spans
    together); ``roots`` limits the sum to spans whose thread is in it."""
    by_parent: Dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            by_parent[s.parent_id].append(s)
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        if roots is not None and s.thread not in roots:
            continue
        covered = 0.0
        edge = s.start
        for c in sorted(by_parent.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.name] += (s.end - s.start) - covered
    return dict(out)

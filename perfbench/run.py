"""End-to-end benchmark: batch SOSP, mixed MOSP and the update service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sosp_insert --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload until ``--seconds`` have passed,
checks every output, prints a human-readable report and, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the self
time of each layer and the tracing overhead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host from a
    slow program.  Reported, never gated."""
    t = time.perf_counter()
    s = 0
    for i in range(2_000_000):
        s += i * i
    return time.perf_counter() - t


def provenance(wl) -> Dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "n": wl.n,
        "m": wl.m,
        "host_probe_s": round(host_probe_s(), 4),
    }


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    import report
    import workloads
    from measure import Recorder, perf

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of "
                 f"{', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, workdir)
        prov = provenance(wl)
        plain, traced = [], []
        start = perf()
        while (len(plain) + len(traced) < wl.min_rounds
               or perf() - start < args.seconds):
            if args.trace and len(traced) < len(plain):
                traced.append(report.traced_round(wl))
            else:
                plain.append((wl.round(Recorder()), None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    result = report.summarise(args.workload, wl, prov, plain, traced,
                              bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Metrics from round results, the traced-run report, and the result line."""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from measure import Recorder, median, pct, self_times

from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.tracer import Tracer, use_tracer

END_TO_END = (
    ("setup_s", "s"),
    ("edits_per_s", "edits/s"),
    ("batch_ms_p50", "ms"),
    ("visible_ms_p50", "ms"),
    ("query_us_p50", "us"),
    ("peak_rss_mb", "MB"),
)

#: Printed with every run but not part of the result line: on the
#: service workload these tails did not hold still between runs on the
#: host the benchmark was built on (see README).
TAILS = (("visible_ms_p99", "ms"), ("query_us_p99", "us"))

PER_LAYER = (
    ("graph.load_s", "s"),
    ("csr.freeze_s", "s"),
    ("csr.apply_ms_p50", "ms"),
    ("graph.apply_ms_p50", "ms"),
    ("tree.build_s", "s"),
    ("sosp.update_ms_p50", "ms"),
    ("sosp.step1_ms_p50", "ms"),
    ("sosp.step2_ms_p50", "ms"),
    ("sosp.relaxations", "count"),
    ("sosp.supersteps", "count"),
    ("sosp.improvements", "count"),
    ("sosp.improvements_per_relaxation", "ratio"),
    ("mixed.invalidate_ms_p50", "ms"),
    ("mixed.seed_ms_p50", "ms"),
    ("mixed.propagate_ms_p50", "ms"),
    ("mixed.invalidated", "count"),
    ("mixed.relaxations", "count"),
    ("mosp.update_ms_p50", "ms"),
    ("mosp.trees_ms_p50", "ms"),
    ("mosp.ensemble_ms_p50", "ms"),
    ("mosp.bellman_ford_ms_p50", "ms"),
    ("mosp.reassign_ms_p50", "ms"),
    ("service.submit_us_p50", "us"),
    ("service.query_busy_us_p50", "us"),
    ("service.flush_ms_p50", "ms"),
    ("service.publish_ms_p50", "ms"),
    ("service.edits_per_flush", "edits"),
    ("service.epochs", "count"),
    ("loadgen.lag_ms_p99", "ms"),
)

#: Counts that depend only on the seed (per round).  The service's
#: counts also depend on how edits fell into flush groups.
EXACT_COUNTS = ("sosp.relaxations", "sosp.supersteps", "sosp.improvements",
                "mixed.invalidated", "mixed.relaxations")


#: Span-name prefixes of the update phases inside a service flush:
#: insert-only flushes run ``sosp_update``, mixed ones
#: ``apply_mixed_batch``.
UPDATE_STEPS = ("sosp_update.", "sosp_update_mixed.")


def end_to_end(rounds: Sequence) -> Dict[str, float]:
    """End-to-end metrics over the rounds of one run (see README).
    Medians pool every sample of the run; a p99 is the median over
    rounds of each round's p99, so one round hit by a host stall does
    not set it."""
    batch = [s for r in rounds for s in r.batch_s]
    edits = sum(e for r in rounds for e in r.batch_edits)
    visible = [s for r in rounds for s in r.visible_s]
    query = [s for r in rounds for s in r.query_s]

    def p99(attr: str) -> float:
        return median([pct(getattr(r, attr), 99) for r in rounds
                       if getattr(r, attr)])

    return {
        "setup_s": median([s for r in rounds for s in r.setup_s]),
        "edits_per_s": edits / sum(batch) if batch else 0.0,
        "batch_ms_p50": median(batch) * 1e3,
        "visible_ms_p50": pct(visible, 50) * 1e3,
        "query_us_p50": pct(query, 50) * 1e6,
        "visible_ms_p99": p99("visible_s") * 1e3,
        "query_us_p99": p99("query_s") * 1e6,
        "peak_rss_mb": max(r.peak_mb for r in rounds),
    }


# ----------------------------------------------------------------------
def traced_round(wl) -> Tuple[object, Dict]:
    """One round with the program's recording tracer and an enabled
    metrics registry; returns the round and its per-layer figures."""
    tracer = Tracer(recording=True)
    with use_tracer(tracer), use_metrics(MetricsRegistry(enabled=True)) as reg:
        res = wl.round(rec := Recorder(tracer))
    spans = tracer.drain()
    return res, layer_metrics(res, rec, spans, reg.snapshot())


def _durations(spans, name: str) -> List[float]:
    return [s.end - s.start for s in spans if s.name == name]


def layer_metrics(res, rec: Recorder, spans, metrics: Dict) -> Dict:
    """Per-layer figures of one traced round: the benchmark's own spans
    around each public call, the spans and metrics the program emits
    inside them, and the counts the calls return."""
    t = rec.times
    kids = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            kids[s.parent_id].append(s)
    flushes = [s for s in spans if s.name == "service.batch"]
    store_apply = list(t.get("graph.apply", []))
    publish: List[float] = []
    sosp_update: List[float] = list(t.get("sosp.update", []))
    for f in flushes:
        ch = sorted(kids[f.span_id], key=lambda c: c.start)
        if not ch:
            continue
        # before the first update phase: recompose + ChangeBatch.apply_to;
        # after the last: freezing and publishing the epoch
        store_apply.append(ch[0].start - f.start)
        publish.append(f.end - ch[-1].end)
        steps = [c.end - c.start for c in ch
                 if c.name.startswith(UPDATE_STEPS)]
        if steps:
            sosp_update.append(sum(steps))
    mosp_trees = defaultdict(float)
    for s in spans:
        if s.name.startswith("mosp_update.sosp_update_"):
            mosp_trees[s.parent_id] += s.end - s.start

    def hist_sum(name: str) -> float:
        h = metrics.get(name)
        return float(h["sum"]) if isinstance(h, dict) and "sum" in h else 0.0

    relax = float(metrics.get("sosp_relaxations_total", 0.0))
    improve = float(metrics.get("sosp_improvements_total", 0.0))
    ms = 1e3
    out = {
        "graph.load_s": median(t.get("graph.load", [])),
        "csr.freeze_s": median(t.get("csr.freeze", [])),
        "csr.apply_ms_p50": median(t.get("csr.apply", [])) * ms,
        "graph.apply_ms_p50": median(store_apply) * ms,
        "tree.build_s": median(t.get("tree.build", [])),
        "sosp.update_ms_p50": median(sosp_update) * ms,
        "sosp.step1_ms_p50": median(_durations(spans, "sosp_update.step1")) * ms,
        "sosp.step2_ms_p50": median(_durations(spans, "sosp_update.step2")) * ms,
        "sosp.relaxations": relax,
        "sosp.supersteps": hist_sum("sosp_step2_iterations"),
        "sosp.improvements": improve,
        "sosp.improvements_per_relaxation": improve / relax if relax else 0.0,
        "mixed.invalidate_ms_p50": median(
            _durations(spans, "sosp_update_mixed.invalidate")) * ms,
        "mixed.seed_ms_p50": median(
            _durations(spans, "sosp_update_mixed.seed")) * ms,
        "mixed.propagate_ms_p50": median(
            _durations(spans, "sosp_update_mixed.propagate")) * ms,
        "mixed.invalidated": float(metrics.get("mixed_invalidated_total", 0.0)),
        "mixed.relaxations": float(metrics.get("mixed_relaxations_total", 0.0)),
        "mosp.update_ms_p50": median(t.get("mosp.update", [])) * ms,
        "mosp.trees_ms_p50": median(list(mosp_trees.values())) * ms,
        "mosp.ensemble_ms_p50": median(
            _durations(spans, "mosp_update.ensemble")) * ms,
        "mosp.bellman_ford_ms_p50": median(
            _durations(spans, "mosp_update.bellman_ford")) * ms,
        "mosp.reassign_ms_p50": median(
            _durations(spans, "mosp_update.reassign")) * ms,
        "service.submit_us_p50": median(t.get("service.submit", [])) * 1e6,
        "service.query_busy_us_p50": median(t.get("service.query", [])) * 1e6,
        "service.flush_ms_p50": median(_durations(spans, "service.batch")) * ms,
        "service.publish_ms_p50": median(publish) * ms,
        "service.edits_per_flush": (
            float(np.mean([f.attrs.get("edits", 0) for f in flushes]))
            if flushes else 0.0),
        "service.epochs": float(res.epochs),
        "loadgen.lag_ms_p99": pct(res.lag_s, 99) * ms,
    }
    main = threading.get_ident()
    out["_self_main"] = self_times(spans, {main})
    out["_self_other"] = self_times(
        spans, {s.thread for s in spans if s.thread != main})
    return out


# ----------------------------------------------------------------------
def _fmt(v: float) -> str:
    return f"{v:.6g}"


def summarise(name: str, wl, prov: Dict, plain, traced, trace: bool) -> Dict:
    """Print the human-readable report and return the result object."""
    rounds = [r for r, _ in plain] + [r for r, _ in traced]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    correct = not any(r.wrong for r in rounds)
    print(f"# workload {name}: {len(plain)} untraced + {len(traced)} "
          f"traced rounds")
    print("# provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    per_round_batches = len(rounds[0].batch_s) if rounds else 0
    print(f"# per round: {wl.edits_per_round} edits, "
          f"{wl.queries_per_round} queries, {per_round_batches} timed "
          f"batches; attempted {attempted} operations, failed {failed}")
    for r in rounds:
        for msg in r.wrong:
            print(f"# WRONG OUTPUT: {msg}")
        for msg in r.errors:
            print("# FAILED: " + msg.strip().replace("\n", "\n#   "))
    known = [msg for r in rounds for msg in r.known]
    for msg in sorted(set(known)):
        print(f"# FAILED, fault probe ({known.count(msg)} of "
              f"{len(rounds)} rounds): {msg}")
    e2e_plain = end_to_end([r for r, _ in plain])
    for key, unit in END_TO_END + TAILS:
        print(f"{key:>18} {_fmt(e2e_plain[key]):>12} {unit}")
    if trace:
        metrics = _traced_report(traced, e2e_plain)
        units = dict(PER_LAYER)
    else:
        metrics = e2e_plain
        units = dict(END_TO_END)
    values = {k: metrics[k] for k in units}
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in values.items()},
    }


def _traced_report(traced, e2e_plain: Dict) -> Dict:
    layers = [lm for _, lm in traced]
    first = layers[0]
    for lm in layers[1:]:
        for key in EXACT_COUNTS:
            if lm[key] != first[key]:
                print(f"# NOTE: count {key} differs between traced rounds: "
                      f"{first[key]} vs {lm[key]}")
    merged = {}
    for key, _ in PER_LAYER:
        vals = [lm[key] for lm in layers]
        merged[key] = vals[0] if key in EXACT_COUNTS else median(vals)
    print("# per-layer metrics (traced rounds)")
    for key, unit in PER_LAYER:
        print(f"{key:>34} {_fmt(merged[key]):>12} {unit}")
    for label, key in (("driver thread", "_self_main"),
                       ("service writer thread", "_self_other")):
        tot: Dict[str, float] = defaultdict(float)
        for lm in layers:
            for span, sec in lm[key].items():
                tot[span] += sec / len(layers)
        if not tot:
            continue
        print(f"# self time per round along the blocking path, {label}")
        for span, sec in sorted(tot.items(), key=lambda kv: -kv[1])[:14]:
            print(f"{span:>40} {sec * 1e3:12.2f} ms")
    e2e_traced = end_to_end([r for r, _ in traced])
    print("# tracing overhead: traced - untraced rounds")
    for key, unit in END_TO_END + TAILS:
        a, b = e2e_plain[key], e2e_traced[key]
        share = (b - a) / a if a else 0.0
        print(f"{key:>18} {_fmt(b - a):>12} {unit} ({share:+.1%})")
    return merged

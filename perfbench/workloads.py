"""The three workloads, each run as whole rounds of identical operations.

A round starts from the edge-list file (set-up is part of every round,
so ``setup_s`` is a median over rounds), applies the seed's fixed
sequence of batches or edits, answers path queries, and checks every
output against :mod:`checks`.  Rounds of one run repeat the same
operations, so the exact counts of one round repeat in every other.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

import checks
import gen
from measure import Recorder, baseline_rss, perf, rss_mb

from repro.core import SOSPTree, mosp_update, sosp_update
from repro.dynamic.changes import ChangeBatch
from repro.dynamic.feed import EdgeEdit
from repro.errors import NotReachableError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.io import read_edge_list
from repro.service import UpdateService
from repro.obs.metrics import get_metrics, use_metrics
from repro.obs.tracer import get_tracer, use_tracer

#: Input sizes.  ``full`` is what the benchmark command runs; ``tiny``
#: is for the self-tests.
SIZES: Dict[str, Dict[str, Dict]] = {
    "full": {
        "sosp_insert": dict(rows=200, cols=200, k=1, batches=20,
                            batch_size=2000, mix=(1.0, 0.0, 0.0),
                            queries=50),
        "mosp_mixed": dict(rows=200, cols=200, k=2, batches=8,
                           batch_size=2000, mix=(0.4, 0.3, 0.3),
                           queries=50),
        "serve_traffic": dict(rows=100, cols=100, rate=100.0,
                              open_seconds=8.0, mix=(0.8, 0.1, 0.1),
                              flush_size=64, flush_latency=0.02,
                              max_pending=4096, bursts=8, burst_size=256,
                              max_subtree=500),
    },
    "tiny": {
        "sosp_insert": dict(rows=12, cols=12, k=1, batches=3,
                            batch_size=20, mix=(1.0, 0.0, 0.0),
                            queries=5),
        "mosp_mixed": dict(rows=12, cols=12, k=2, batches=3,
                           batch_size=20, mix=(0.4, 0.3, 0.3),
                           queries=5),
        "serve_traffic": dict(rows=12, cols=12, rate=200.0,
                              open_seconds=0.3, mix=(0.8, 0.1, 0.1),
                              flush_size=8, flush_latency=0.01,
                              max_pending=256, bursts=2, burst_size=16,
                              max_subtree=20),
    },
}

WORKLOADS = ("sosp_insert", "mosp_mixed", "serve_traffic")

#: The program's tracer and metrics registry as the process starts: the
#: fault probe runs under them, so a traced round's layer figures hold
#: the workload's calls only.
DEFAULT_OBS = (get_tracer(), get_metrics())

#: Longest sleep of the service load generator between looks at
#: ``edits_applied``; sets the resolution of ``visible_ms``.
POLL_S = 0.002

#: Set-ups a service round times after its traffic, besides its own.
EXTRA_SETUPS = 1


@dataclass
class RoundResult:
    """What one round measured, and how its operations fared."""

    setup_s: List[float] = field(default_factory=list)
    batch_s: List[float] = field(default_factory=list)
    batch_edits: List[int] = field(default_factory=list)
    visible_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    peak_mb: float = 0.0
    attempted: int = 0
    ok: int = 0
    wrong: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    #: Wrong outputs of the fixed fault probe: counted in ``failed``,
    #: not in ``wrong``, since its input and outcome do not depend on
    #: the seed (see :func:`gen.fault_probe`).
    known: List[str] = field(default_factory=list)
    epochs: int = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def sample_rss(self, base: float) -> None:
        self.peak_mb = max(self.peak_mb, rss_mb() - base)


def _run_probe(res: RoundResult, body: Callable[[], None]) -> None:
    """One fault-probe operation: ``body`` runs and checks it."""
    tracer, metrics = DEFAULT_OBS
    try:
        with use_tracer(tracer), use_metrics(metrics):
            body()
    except checks.CheckFailed as exc:
        res.known.append(str(exc))
    except Exception:  # counted as a failed operation
        res.errors.append(traceback.format_exc(limit=4))
    else:
        res.ok += 1


def _probe_edges(probe: gen.Plan) -> checks.LiveEdges:
    """The probe's edge set after its one batch, from the model."""
    model = gen.EdgeModel(probe.graph, probe.capacity)
    model.apply(probe.batches[0])
    return checks.LiveEdges(probe.graph.n, *model.live())


class BatchWorkload:
    """``sosp_insert`` (k=1, inserts, Algorithm 1) and ``mosp_mixed``
    (k=2, mixed batches, Algorithm 2) through the serial CSR kernels."""

    #: Rounds every run makes at least (a traced run needs one untraced
    #: and one traced round to report the overhead).
    min_rounds = 2

    def __init__(self, name: str, cfg: Dict, seed: int, workdir: str) -> None:
        self.name = name
        self.k = cfg["k"]
        self.mosp = name == "mosp_mixed"
        self.plan = gen.plan_batches(
            seed, cfg["rows"], cfg["cols"], cfg["k"], cfg["batches"],
            cfg["batch_size"], cfg["mix"], cfg["queries"])
        g = self.plan.graph
        self.n, self.m, self.source = g.n, g.m, g.source
        self.path = os.path.join(workdir, f"{name}.edges")
        gen.write_edge_list(g, self.path)
        self.model = gen.EdgeModel(g, self.plan.capacity)
        self.batches = [ChangeBatch(b.src, b.dst, b.w, b.kind)
                        for b in self.plan.batches]
        self.edits_per_round = sum(b.size for b in self.plan.batches)
        self.queries_per_round = int(self.plan.queries.size)
        # mixed batches reach the program's Step-D fault; insert batches
        # do not
        self.probe = gen.fault_probe(self.k) if self.mosp else None
        if self.probe is not None:
            self.probe_path = os.path.join(workdir, f"{name}.probe.edges")
            gen.write_edge_list(self.probe.graph, self.probe_path)

    def round(self, rec: Recorder) -> RoundResult:
        res = RoundResult()
        res.attempted = (len(self.batches) + self.queries_per_round
                         + (self.probe is not None))
        self.model.reset()
        base = baseline_rss()
        t0 = perf()
        try:
            with rec.span("graph.load"):
                g = read_edge_list(self.path)
            with rec.span("csr.freeze"):
                csr = CSRGraph.from_digraph(g)
            with rec.span("tree.build"):
                trees = [SOSPTree.build(csr, self.source, objective=i)
                         for i in range(self.k)]
        except Exception:  # a failed set-up fails the whole round
            res.errors.append(traceback.format_exc(limit=4))
            return res
        res.setup_s.append(perf() - t0)
        res.sample_rss(base)
        try:
            self._check_initial(trees)
            for b, batch in enumerate(self.batches):
                if not self._batch(rec, res, base, b, batch, g, csr, trees):
                    break
        except checks.CheckFailed as exc:
            res.wrong.append(str(exc))
        if self.probe is not None:
            _run_probe(res, self._probe)
        return res

    def _live(self) -> checks.LiveEdges:
        return checks.LiveEdges(self.n, *self.model.live())

    def _check_initial(self, trees) -> None:
        # a call of its own, so the edge index is freed before the
        # first batch samples memory
        edges = self._live()
        for i, t in enumerate(trees):
            checks.check_tree(f"initial tree {i}", t.dist, t.parent,
                              edges, self.source, i)

    def _probe(self) -> None:
        """The fault probe through the same calls as a batch; untimed."""
        p = self.probe
        g = read_edge_list(self.probe_path)
        csr = CSRGraph.from_digraph(g)
        trees = [SOSPTree.build(csr, p.graph.source, objective=i)
                 for i in range(self.k)]
        b = p.batches[0]
        batch = ChangeBatch(b.src, b.dst, b.w, b.kind)
        batch.apply_to(g)
        csr.apply_batch(batch)
        out = mosp_update(g, trees, batch, use_csr_kernels=True, csr=csr)
        edges = _probe_edges(p)
        refs = [checks.check_tree(f"fault probe tree {i}", t.dist, t.parent,
                                  edges, p.graph.source, i)
                for i, t in enumerate(trees)]
        checks.check_mosp("fault probe MOSP", out.parent, out.dist_vectors,
                          edges, p.graph.source, refs)

    def _batch(self, rec, res, base, b, batch, g, csr, trees) -> bool:
        t = perf()
        try:
            with rec.span("graph.apply", batch=b):
                batch.apply_to(g)
            with rec.span("csr.apply", batch=b):
                if self.mosp:
                    csr.apply_batch(batch)
                else:
                    csr.append_batch(batch)
            if self.mosp:
                with rec.span("mosp.update", batch=b):
                    out = mosp_update(g, trees, batch,
                                      use_csr_kernels=True, csr=csr)
            else:
                with rec.span("sosp.update", batch=b):
                    sosp_update(g, trees[0], batch,
                                use_csr_kernels=True, csr=csr)
                out = trees[0]
        except Exception:  # counted as a failed batch; the round stops
            res.errors.append(traceback.format_exc(limit=4))
            return False
        wall = perf() - t
        res.sample_rss(base)
        res.batch_s.append(wall)
        res.batch_edits.append(batch.num_changes)
        res.visible_s.extend([wall] * batch.num_changes)

        answers = []
        for v in self.plan.queries[b].tolist():
            q0 = perf()
            with rec.span("query", batch=b):
                if self.mosp:
                    cost = out.cost_to(v)
                else:
                    cost = out.dist[v]
                try:
                    path = out.path_to(v)
                except NotReachableError:
                    path = None
            res.query_s.append(perf() - q0)
            answers.append((v, path, cost))

        self.model.apply(self.plan.batches[b])
        edges = self._live()
        refs = [checks.check_tree(f"batch {b} tree {i}", t.dist, t.parent,
                                  edges, self.source, i)
                for i, t in enumerate(trees)]
        if self.mosp:
            checks.check_mosp(f"batch {b} MOSP", out.parent,
                              out.dist_vectors, edges, self.source, refs)
        res.ok += 1
        for v, path, cost in answers:
            checks.check_path(f"batch {b} query {v}", path, cost, v, edges,
                              self.source, range(self.k),
                              bool(np.isfinite(refs[0][v])))
            res.ok += 1
        return True


def _edits(b: gen.Batch) -> List[EdgeEdit]:
    return [
        EdgeEdit(int(b.kind[i]), int(b.src[i]), int(b.dst[i]),
                 None if b.kind[i] == gen.KIND_DELETE
                 else tuple(b.w[i].tolist()))
        for i in range(b.size)
    ]


class ServeWorkload:
    """``serve_traffic``: ``UpdateService`` on its default serial engine
    under an open loop of traffic edits and path queries, then a
    closed-loop phase of back-to-back batches, each drained before the
    next is sent."""

    #: The p99 latencies are medians over rounds; four rounds keep one
    #: host stall (tens of ms on this kind of VM) from setting them.
    min_rounds = 4

    def __init__(self, name: str, cfg: Dict, seed: int, workdir: str) -> None:
        self.name = name
        self.cfg = cfg
        self.plan = gen.plan_service(
            seed, cfg["rows"], cfg["cols"], cfg["rate"], cfg["open_seconds"],
            cfg["mix"], cfg["bursts"], cfg["burst_size"], cfg["max_subtree"])
        g = self.plan.graph
        self.n, self.m, self.source = g.n, g.m, g.source
        self.path = os.path.join(workdir, f"{name}.edges")
        gen.write_edge_list(g, self.path)
        self.model = gen.EdgeModel(g, self.plan.capacity)
        self.stream = _edits(self.plan.batches[0])
        self.bursts = [_edits(b) for b in self.plan.batches[1:]]
        self.edits_per_round = sum(b.size for b in self.plan.batches)
        self.queries_per_round = int(self.plan.queries.size)
        self.probe = gen.fault_probe(1)
        self.probe_path = os.path.join(workdir, f"{name}.probe.edges")
        gen.write_edge_list(self.probe.graph, self.probe_path)

    def _set_up(self, rec: Recorder):
        cfg = self.cfg
        t0 = perf()
        with rec.span("graph.load"):
            g = read_edge_list(self.path)
        with rec.span("tree.build"):
            svc = UpdateService(
                g, self.source, engine="serial",
                flush_size=cfg["flush_size"],
                flush_latency=cfg["flush_latency"],
                max_pending=cfg["max_pending"])
        with rec.span("service.start"):
            svc.start()
        return svc, perf() - t0

    def round(self, rec: Recorder) -> RoundResult:
        res = RoundResult()
        # every edit and query, the drain-and-final-epoch check and the
        # fault probe
        res.attempted = self.edits_per_round + self.queries_per_round + 2
        self.model.reset()
        base = baseline_rss()
        try:
            svc, took = self._set_up(rec)
        except Exception:  # a failed set-up fails the whole round
            res.errors.append(traceback.format_exc(limit=4))
            return res
        res.setup_s.append(took)
        res.sample_rss(base)
        try:
            watch = checks.EpochWatch()
            snap = svc.snapshot()
            checks.check_tree("epoch 0", snap.dist, snap.parent,
                              checks.LiveEdges(self.n, *self.model.live()),
                              self.source, 0)
            watch.release(snap)
            answers: List = []
            if self._open_loop(rec, res, base, svc, watch, answers):
                self._bursts(rec, res, base, svc)
                for b in self.plan.batches:
                    self.model.apply(b)
                snap = svc.snapshot()
                checks.check_tree(
                    "final epoch", snap.dist, snap.parent,
                    checks.LiveEdges(self.n, *self.model.live()),
                    self.source, 0)
                watch.release(snap)
                res.ok += 1
                # after the round's last memory sample
                self._check_answers(res, answers)
        except checks.CheckFailed as exc:
            res.wrong.append(str(exc))
        except Exception:  # counted as failed operations
            res.errors.append(traceback.format_exc(limit=4))
        finally:
            res.epochs = svc.epochs_published
            if not svc.stop(drain=True, timeout=60.0):
                res.errors.append(f"service did not stop cleanly: "
                                  f"{svc.state} {svc.error!r}")
                res.ok = min(res.ok, res.attempted - 1)
        del svc
        # set-up is cheap on this graph, so each round also times
        # EXTRA_SETUPS more set-ups for a steadier median
        try:
            for _ in range(EXTRA_SETUPS):
                svc, took = self._set_up(rec)
                res.setup_s.append(took)
                if not svc.stop(timeout=60.0):
                    raise ReproError(f"idle service did not stop: {svc.state}")
        except Exception:  # reported; the round's operations stand
            res.errors.append(traceback.format_exc(limit=4))
        _run_probe(res, self._probe)
        return res

    def _probe(self) -> None:
        """The fault probe through a service of its own; untimed."""
        p = self.probe
        svc = UpdateService(read_edge_list(self.probe_path), p.graph.source,
                            engine="serial", flush_size=1,
                            flush_latency=self.cfg["flush_latency"])
        svc.start()
        try:
            for e in _edits(p.batches[0]):
                if not svc.submit(e, timeout=5.0):
                    raise ReproError("fault probe edit rejected")
            if not svc.drain(timeout=60.0):
                raise ReproError(f"fault probe did not drain: {svc.error!r}")
            snap = svc.snapshot()
        finally:
            svc.stop(timeout=60.0)
        checks.check_tree("fault probe epoch", snap.dist, snap.parent,
                          _probe_edges(p), p.graph.source, 0)

    def _check_answers(self, res: RoundResult, answers: List) -> None:
        """Each query answer of the open loop against the model as of
        the edits its epoch can hold."""
        g, s = self.plan.graph, self.plan.batches[0]
        weights = checks.StreamWeights(
            g.n, g.src, g.dst, g.w[:, 0], s.src, s.dst, s.w[:, 0],
            s.kind == gen.KIND_DELETE)
        bad: List[str] = []
        for i, (v, d, path, lo, hi, broken) in enumerate(answers):
            try:
                if broken is not None:
                    raise checks.CheckFailed(f"query {i}: {broken}")
                checks.check_served_path(f"query {i}", path, d, v,
                                         self.source, weights, lo, hi)
            except checks.CheckFailed as exc:
                bad.append(str(exc))
            else:
                res.ok += 1
        if bad:
            res.wrong.append(f"{bad[0]} ({len(bad)} query answers wrong)")

    def _open_loop(self, rec, res, base, svc, watch, answers) -> bool:
        """Edits and queries sent by this one thread at their scheduled
        times; returns whether every edit became visible.  Each query
        answer goes to ``answers`` with the bounds on the edits its
        epoch holds: at least ``edits_applied`` as read before the
        snapshot, at most the edits sent so far."""
        edits = self.stream
        queries = self.plan.queries.tolist()
        edit_at = self.plan.arrivals["edit_at"].tolist() + [np.inf]
        query_at = self.plan.arrivals["query_at"].tolist() + [np.inf]
        ne, nq = len(edits), len(queries)
        sent = [0.0] * ne
        ie = iq = seen = 0
        held = svc.snapshot()
        start = perf() + 0.01
        while ie < ne or iq < nq:
            now = perf() - start
            applied = svc.edits_applied
            while seen < min(ie, applied):
                res.visible_s.append(now - sent[seen])
                seen += 1
            te, tq = edit_at[ie], query_at[iq]
            due = min(te, tq)
            if now < due:
                # wake at least every POLL_S to see publications promptly
                time.sleep(min(due - now, POLL_S))
                continue
            res.lag_s.append(now - due)
            if te <= tq:
                sent[ie] = now
                with rec.span("service.submit", edit=ie):
                    accepted = svc.submit(edits[ie], timeout=5.0)
                if not accepted:
                    res.errors.append(f"edit {ie} rejected by back-pressure")
                    return False
                ie += 1
                continue
            v = queries[iq]
            lo = svc.edits_applied
            broken = None
            q0 = perf()
            with rec.span("service.query", query=iq):
                snap = svc.snapshot()
                d = snap.distance(v)
                try:
                    path = snap.path_to(v) if math.isfinite(d) else None
                except ReproError as exc:  # a chain that misses the source
                    path, broken = None, str(exc)
            q1 = perf()
            res.query_s.append(q1 - q0)
            answers.append((v, d, None if path is None
                            else np.array(path, dtype=np.int32),
                            lo, ie, broken))
            # the reader holds each epoch until a newer one replaces it
            # in its hand, and verifies it then: once per epoch, not per
            # query, so checking adds few GIL hand-offs to the schedule
            if snap is not held:
                watch.release(held)
                held = snap
            iq += 1
            if iq % 50 == 0:
                res.sample_rss(base)
        watch.release(held)
        deadline = perf() + 60.0
        while seen < ne:
            applied = svc.edits_applied
            now = perf() - start
            while seen < applied:
                res.visible_s.append(now - sent[seen])
                seen += 1
            if perf() > deadline or svc.error is not None:
                res.errors.append(f"only {seen}/{ne} edits became visible")
                return False
            time.sleep(POLL_S)
        res.ok += ne
        res.sample_rss(base)
        return True

    def _bursts(self, rec, res, base, svc) -> None:
        for i, burst in enumerate(self.bursts):
            t = perf()
            for e in burst:
                with rec.span("service.submit", burst=i):
                    if not svc.submit(e, timeout=5.0):
                        raise ReproError(f"burst {i} edit rejected")
            if not svc.drain(timeout=60.0):
                raise ReproError(f"burst {i} did not drain: {svc.error!r}")
            wall = perf() - t
            res.batch_s.append(wall)
            res.batch_edits.append(len(burst))
            res.ok += len(burst)
            res.sample_rss(base)


def make(name: str, seed: int, workdir: str, size: str = "full"):
    cfg = SIZES[size][name]
    cls = ServeWorkload if name == "serve_traffic" else BatchWorkload
    return cls(name, cfg, seed, workdir)

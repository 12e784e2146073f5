"""Self-tests of the benchmark: tiny runs pass, and every check fails on
a deliberately corrupted output, so no check is vacuous.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import gen
import report
import workloads
from measure import Recorder

from repro.core import SOSPTree, mosp_update
from repro.errors import ReproError
from repro.graph import DiGraph
from repro.service import EpochSnapshot, UpdateService

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_round_passes(name, tmp_path):
    wl = workloads.make(name, 3, str(tmp_path), "tiny")
    res = wl.round(Recorder())
    assert not res.wrong and not res.errors
    # the fault probe is the only operation allowed to fail
    assert res.attempted > 0 and res.failed == len(res.known) <= 1
    assert res.known == [] or res.known[0].startswith("fault probe")
    e2e = report.end_to_end([res])
    assert all(v > 0 for v in e2e.values()), e2e


@pytest.mark.parametrize("name", ["mosp_mixed", "serve_traffic"])
def test_fault_probe_passes_when_the_update_is_right(name, tmp_path,
                                                     monkeypatch):
    # a raise far outside np.isclose's window is handled correctly, so
    # the probe's operation then counts as done
    monkeypatch.setattr(gen, "PROBE_RAISE", 0.5)
    wl = workloads.make(name, 3, str(tmp_path), "tiny")
    res = wl.round(Recorder())
    assert not res.known and res.failed == 0


@pytest.mark.parametrize("name", ["sosp_insert", "mosp_mixed"])
def test_exact_counts_repeat(name, tmp_path):
    wl = workloads.make(name, 5, str(tmp_path), "tiny")
    a = report.traced_round(wl)[1]
    b = report.traced_round(wl)[1]
    counts = [k for k in report.EXACT_COUNTS if a[k] or b[k]]
    assert counts
    assert [a[k] for k in counts] == [b[k] for k in counts]


def test_command_prints_result_line(monkeypatch, capsys):
    import run

    monkeypatch.setitem(workloads.SIZES, "full", workloads.SIZES["tiny"])
    assert run.main(["--workload", "sosp_insert", "--seed", "2",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {k for k, _ in report.END_TO_END}


def test_command_fails_without_program(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for f in ("run.py", "gen.py", "checks.py", "measure.py", "report.py",
              "workloads.py"):
        with open(os.path.join(BENCH, f)) as src:
            (tmp_path / "perfbench" / f).write_text(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sosp_insert",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout


# ---------------------------------------------------------------- checks
def _small(k=1, seed=0):
    plan = gen.plan_batches(seed, 6, 6, k, 1, 10, (0.4, 0.3, 0.3), 3)
    g = plan.graph
    dg = DiGraph(g.n, k)
    for u, v, w in zip(g.src.tolist(), g.dst.tolist(), g.w):
        dg.add_edge(u, v, w)
    edges = checks.LiveEdges(g.n, g.src, g.dst, g.w)
    return g, dg, edges


def test_check_tree_catches_perturbed_dist_and_wrong_parent():
    g, dg, edges = _small()
    t = SOSPTree.build(dg, g.source)
    checks.check_tree("ok", t.dist, t.parent, edges, g.source, 0)
    v = int(np.argmax(np.where(np.isfinite(t.dist), t.dist, -1)))
    dist = t.dist.copy()
    dist[v] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed, match="dist"):
        checks.check_tree("dist", dist, t.parent, edges, g.source, 0)
    parent = t.parent.copy()
    parent[v] = v  # no self loops in the grid
    with pytest.raises(checks.CheckFailed, match="live predecessor"):
        checks.check_tree("parent", t.dist, parent, edges, g.source, 0)
    # a live predecessor whose edge does not attain dist[v]
    preds = [int(u) for u in g.src[g.dst == v] if u != t.parent[v]]
    parent[v] = preds[0]
    with pytest.raises(checks.CheckFailed, match="attain"):
        checks.check_tree("attain", t.dist, parent, edges, g.source, 0)


def test_check_mosp_catches_wrong_cost():
    g, dg, edges = _small(k=2)
    trees = [SOSPTree.build(dg, g.source, objective=i) for i in range(2)]
    r = mosp_update(dg, trees)
    refs = [t.dist for t in trees]
    checks.check_mosp("ok", r.parent, r.dist_vectors, edges, g.source, refs)
    v = int(np.flatnonzero(np.isfinite(r.dist_vectors[:, 0]))[-1])
    cost = r.dist_vectors.copy()
    cost[v, 1] += 0.5
    with pytest.raises(checks.CheckFailed, match="weight sum"):
        checks.check_mosp("cost", r.parent, cost, edges, g.source, refs)
    low = [refs[0], refs[1] + 1e3 * np.isfinite(refs[1])]
    low[1][g.source] = 0.0
    with pytest.raises(checks.CheckFailed, match="below the Dijkstra"):
        checks.check_mosp("bound", r.parent, r.dist_vectors, edges,
                          g.source, low)
    path = r.path_to(v)
    checks.check_path("ok", path, r.cost_to(v), v, edges, g.source, (0, 1),
                      True)
    with pytest.raises(checks.CheckFailed, match="sum"):
        checks.check_path("path", path, cost[v], v, edges, g.source, (0, 1),
                          True)


def test_epoch_watch_catches_torn_and_backward_epochs():
    dist = np.array([0.0, 1.0, 2.0])
    parent = np.array([-1, 0, 1])
    watch = checks.EpochWatch()
    watch.release(EpochSnapshot(2, 0, dist, parent))
    with pytest.raises(checks.CheckFailed, match="back"):
        watch.release(EpochSnapshot(1, 0, dist, parent))
    torn = EpochSnapshot(3, 0, dist, parent)
    torn.dist.setflags(write=True)
    torn.dist[2] = 5.0
    with pytest.raises(checks.CheckFailed, match="torn"):
        watch.release(torn)


# ----------------------------------- corrupted program outputs, end to end
def test_round_reports_corrupted_sosp_tree(tmp_path, monkeypatch):
    real = workloads.sosp_update

    def corrupt(g, tree, batch, **kw):
        stats = real(g, tree, batch, **kw)
        far = int(np.argmax(np.where(np.isfinite(tree.dist), tree.dist, -1)))
        tree.dist[far] += 1e-3
        return stats

    monkeypatch.setattr(workloads, "sosp_update", corrupt)
    wl = workloads.make("sosp_insert", 1, str(tmp_path), "tiny")
    res = wl.round(Recorder())
    assert res.wrong and "dist" in res.wrong[0]
    assert res.failed > 0


def test_round_reports_wrong_mosp_cost(tmp_path, monkeypatch):
    real = workloads.mosp_update

    def corrupt(*a, **kw):
        r = real(*a, **kw)
        v = int(np.flatnonzero(np.isfinite(r.dist_vectors[:, 0]))[-1])
        r.dist_vectors[v] *= 1.5
        return r

    monkeypatch.setattr(workloads, "mosp_update", corrupt)
    wl = workloads.make("mosp_mixed", 1, str(tmp_path), "tiny")
    res = wl.round(Recorder())
    assert res.wrong and "MOSP" in res.wrong[0]


def test_round_reports_torn_epoch(tmp_path, monkeypatch):
    real = UpdateService.snapshot

    def torn(self):
        snap = real(self)
        if snap.epoch > 0:
            snap.dist.setflags(write=True)
            snap.dist[snap.source] = -1.0
        return snap

    monkeypatch.setattr(UpdateService, "snapshot", torn)
    wl = workloads.make("serve_traffic", 1, str(tmp_path), "tiny")
    res = wl.round(Recorder())
    assert res.wrong and "torn" in res.wrong[0]


def _served(tmp_path, monkeypatch, name, fake):
    monkeypatch.setattr(EpochSnapshot, name, fake)
    wl = workloads.make("serve_traffic", 1, str(tmp_path), "tiny")
    return wl.round(Recorder())


def test_round_reports_wrong_served_distance(tmp_path, monkeypatch):
    real = EpochSnapshot.distance

    def off(self, v):
        d = real(self, v)
        return d + 1.0 if v != self.source else d

    res = _served(tmp_path, monkeypatch, "distance", off)
    assert res.wrong and "query answers wrong" in res.wrong[0]
    assert "sum" in res.wrong[0]


def test_round_reports_broken_served_path(tmp_path, monkeypatch):
    def broken(self, v):
        raise ReproError(f"broken parent chain at vertex {v}")

    res = _served(tmp_path, monkeypatch, "path_to", broken)
    assert res.wrong and "broken parent chain" in res.wrong[0]


def test_stream_weights_follow_the_edit_bounds():
    # edges 0->1 (w 2) and 1->2 (w 3); the stream re-weights 0->1 to 5,
    # then deletes 1->2, then inserts 0->2 at 4
    w = checks.StreamWeights(
        3, np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0]),
        np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([5.0, 0.0, 4.0]),
        np.array([False, True, False]))
    assert w.candidates(0, 1, 0, 0) == [2.0]
    assert w.candidates(0, 1, 1, 3) == [5.0]
    assert sorted(w.candidates(0, 1, 0, 3)) == [2.0, 5.0]
    assert w.candidates(1, 2, 2, 3) == []
    assert w.candidates(0, 2, 0, 2) == []
    path = np.array([0, 1, 2])
    checks.check_served_path("ok", path, 5.0, 2, 0, w, 0, 1)
    with pytest.raises(checks.CheckFailed, match="live"):
        checks.check_served_path("gone", path, 8.0, 2, 0, w, 2, 3)
    with pytest.raises(checks.CheckFailed, match="sum"):
        checks.check_served_path("sum", path, 6.0, 2, 0, w, 0, 0)

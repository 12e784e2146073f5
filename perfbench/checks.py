"""Output checks against computations kept apart from the program.

The reference is ``scipy.sparse.csgraph.dijkstra`` on the benchmark's
own edge model (:class:`gen.EdgeModel`), never the program's
``DiGraph``/``CSRGraph`` and never a stored copy of earlier output.
Each check raises :class:`CheckFailed` naming what disagreed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

RTOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


class LiveEdges:
    """The model's live edges, indexed for pair lookups."""

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray,
                 w: np.ndarray) -> None:
        self.n = n
        keys = src * n + dst
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.w = w[order]
        self.src, self.dst, self.w_raw = src, dst, w

    def dijkstra(self, source: int, objective: int) -> np.ndarray:
        mat = csr_matrix(
            (self.w_raw[:, objective], (self.src, self.dst)),
            shape=(self.n, self.n),
        )
        return dijkstra(mat, directed=True, indices=source)

    def lookup(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Row of each ``(u, v)`` pair in the sorted arrays, -1 if the
        pair has no live edge."""
        key = np.asarray(u, dtype=np.int64) * self.n + np.asarray(v, dtype=np.int64)
        pos = np.searchsorted(self.keys, key)
        pos = np.minimum(pos, max(len(self.keys) - 1, 0))
        hit = len(self.keys) > 0
        found = (self.keys[pos] == key) if hit else np.zeros(key.shape, bool)
        return np.where(found, pos, -1)


def _close(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        return both_inf | (np.abs(a - b) <= RTOL * np.maximum(np.abs(a), np.abs(b)))


def check_tree(what: str, dist: np.ndarray, parent: np.ndarray,
               edges: LiveEdges, source: int, objective: int,
               ref: Optional[np.ndarray] = None) -> np.ndarray:
    """``dist`` must equal Dijkstra on the model within ``RTOL``; every
    reached vertex but the source must have a live parent edge that
    attains its distance.  Returns the reference distances."""
    if ref is None:
        ref = edges.dijkstra(source, objective)
    bad = np.flatnonzero(~_close(np.asarray(dist, float), ref))
    if bad.size:
        v = int(bad[0])
        raise CheckFailed(
            f"{what}: dist[{v}]={dist[v]!r} but Dijkstra on the model "
            f"gives {ref[v]!r} ({bad.size} vertices differ)")
    if dist[source] != 0.0:
        raise CheckFailed(f"{what}: dist[source]={dist[source]!r}")
    reached = np.flatnonzero(np.isfinite(ref))
    reached = reached[reached != source]
    p = np.asarray(parent)[reached]
    rows = edges.lookup(p, reached)
    rows[p < 0] = -1
    missing = np.flatnonzero(rows < 0)
    if missing.size:
        v = int(reached[missing[0]])
        raise CheckFailed(
            f"{what}: parent[{v}]={int(parent[v])} is not a live "
            f"predecessor ({missing.size} such vertices)")
    attained = _close(ref[p] + edges.w[rows, objective], ref[reached])
    off = np.flatnonzero(~attained)
    if off.size:
        v = int(reached[off[0]])
        raise CheckFailed(
            f"{what}: edge parent[{v}]={int(parent[v])} -> {v} does not "
            f"attain dist[{v}] ({off.size} such vertices)")
    return ref


def check_path(what: str, path: Optional[Sequence[int]], cost, v: int,
               edges: LiveEdges, source: int, objectives: Sequence[int],
               ref_reachable: bool) -> None:
    """A query answer: ``path`` (``None`` = reported unreachable) must run
    ``source -> v`` over live edges and its weights must sum to ``cost``
    (one number per entry of ``objectives``)."""
    if path is None:
        if ref_reachable:
            raise CheckFailed(f"{what}: {v} reported unreachable")
        return
    if not ref_reachable:
        raise CheckFailed(f"{what}: path to unreachable vertex {v}")
    if path[0] != source or path[-1] != v:
        raise CheckFailed(f"{what}: path {path[0]}..{path[-1]} is not "
                          f"{source}..{v}")
    hops = np.asarray(path, dtype=np.int64)
    rows = edges.lookup(hops[:-1], hops[1:])
    if (rows < 0).any():
        i = int(np.flatnonzero(rows < 0)[0])
        raise CheckFailed(f"{what}: hop {path[i]}->{path[i + 1]} is not a "
                          "live edge")
    total = edges.w[rows][:, list(objectives)].sum(axis=0)
    if not _close(total, np.atleast_1d(np.asarray(cost, float))).all():
        raise CheckFailed(f"{what}: path weights sum to {total.tolist()}, "
                          f"answer says {np.atleast_1d(cost).tolist()}")


def check_mosp(what: str, parent: np.ndarray, cost: np.ndarray,
               edges: LiveEdges, source: int,
               refs: List[np.ndarray]) -> None:
    """Every MOSP path follows live edges from the source, its cost is
    the sum of the path's weight vectors, and each objective's cost is at
    least that objective's Dijkstra distance.

    Checked for all vertices at once: with positive weights, the hop
    relation ``cost[v] == cost[parent[v]] + w(parent[v], v)`` on every
    reached vertex, plus ``cost[source] == 0``, rules out cycles and
    makes every parent chain a live path whose weights sum to ``cost``.
    """
    k = cost.shape[1]
    if not (cost[source] == 0.0).all():
        raise CheckFailed(f"{what}: cost[source]={cost[source].tolist()}")
    reach = np.isfinite(refs[0])
    have = np.isfinite(cost).all(axis=1)
    if (reach != have).any():
        v = int(np.flatnonzero(reach != have)[0])
        raise CheckFailed(f"{what}: vertex {v} reachable={bool(reach[v])} "
                          f"but cost={cost[v].tolist()}")
    vs = np.flatnonzero(have)
    vs = vs[vs != source]
    p = np.asarray(parent)[vs]
    rows = edges.lookup(p, vs)
    rows[p < 0] = -1
    if (rows < 0).any():
        v = int(vs[np.flatnonzero(rows < 0)[0]])
        raise CheckFailed(f"{what}: MOSP hop {int(parent[v])}->{v} is not "
                          "a live edge")
    sums = cost[p] + edges.w[rows]
    off = ~_close(sums, cost[vs]).all(axis=1)
    if off.any():
        v = int(vs[np.flatnonzero(off)[0]])
        raise CheckFailed(f"{what}: cost[{v}]={cost[v].tolist()} is not "
                          f"the path's weight sum")
    for i in range(k):
        below = cost[vs, i] < refs[i][vs] * (1 - RTOL)
        if below.any():
            v = int(vs[np.flatnonzero(below)[0]])
            raise CheckFailed(
                f"{what}: objective {i} cost {cost[v, i]!r} at {v} is "
                f"below the Dijkstra optimum {refs[i][v]!r}")


class StreamWeights:
    """Weights of the service's edges as of any prefix of its edit
    stream.  The stream touches each pair at most once per round, so an
    edge has one state before its edit and one after."""

    def __init__(self, n: int, src: np.ndarray, dst: np.ndarray,
                 w: np.ndarray, edit_src: np.ndarray, edit_dst: np.ndarray,
                 edit_w: np.ndarray, deleted: np.ndarray) -> None:
        self.n = n
        self.before = dict(zip((src * n + dst).tolist(), w.tolist()))
        after = [None if gone else x
                 for gone, x in zip(deleted.tolist(), edit_w.tolist())]
        self.edit = {key: (j, a) for j, (key, a) in enumerate(
            zip((edit_src * n + edit_dst).tolist(), after))}

    def candidates(self, a: int, b: int, lo: int, hi: int) -> List[float]:
        """Weights the edge ``a -> b`` can have in an epoch that holds
        at least the first ``lo`` and at most the first ``hi`` edits of
        the stream; empty if the edge is live in none of them."""
        key = a * self.n + b
        before = self.before.get(key)
        if key not in self.edit:
            states = (before,)
        else:
            j, after = self.edit[key]
            states = ((after,) if j < lo else (before,) if j >= hi
                      else (before, after))
        return [x for x in states if x is not None]


def check_served_path(what: str, path: Optional[np.ndarray], d: float,
                      v: int, source: int, weights: StreamWeights, lo: int,
                      hi: int) -> None:
    """A service query answer: ``path`` must run ``source -> v`` over
    edges live in the answering epoch and its weights must sum to the
    served distance ``d``.  The epoch holds between ``lo`` and ``hi``
    stream edits; a hop on an edge edited in between may take either
    weight.  An answer of "unreachable" (``d`` infinite, no path) is
    not checked against the model, which would take a Dijkstra run per
    epoch."""
    if path is None:
        if np.isfinite(d):
            raise CheckFailed(f"{what}: no path to {v} at distance {d!r}")
        return
    hops = path.tolist()
    if hops[0] != source or hops[-1] != v:
        raise CheckFailed(f"{what}: path {hops[0]}..{hops[-1]} is not "
                          f"{source}..{v}")
    low = high = 0.0
    for a, b in zip(hops[:-1], hops[1:]):
        c = weights.candidates(a, b, lo, hi)
        if not c:
            raise CheckFailed(f"{what}: hop {a}->{b} is not a live edge "
                              f"after {lo}..{hi} edits")
        low += min(c)
        high += max(c)
    if not low * (1 - RTOL) <= d <= high * (1 + RTOL):
        raise CheckFailed(f"{what}: path weights sum to {low!r}"
                          f"{'' if low == high else f'..{high!r}'}, "
                          f"answer says {d!r}")


class EpochWatch:
    """Epochs held by readers: each must still verify when released and
    epochs must never go backwards."""

    def __init__(self) -> None:
        self.last = -1

    def release(self, snap) -> None:
        if snap.epoch < self.last:
            raise CheckFailed(f"epoch went back from {self.last} to "
                              f"{snap.epoch}")
        self.last = snap.epoch
        if not snap.verify():
            raise CheckFailed(f"epoch {snap.epoch} is torn: its payload "
                              "no longer matches its digest")

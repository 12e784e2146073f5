"""Seeded inputs for the benchmark and the edge model its checks use.

Everything here is the benchmark's own: the road-like grid graph, the
change batches and the service edit stream are drawn from one
``numpy`` generator seeded by ``--seed``.  The program under test only
ever receives the edge-list file written by :func:`write_edge_list`,
``ChangeBatch`` arrays and ``EdgeEdit`` records built from these plans.

Every plan touches each ordered vertex pair at most once per batch (and
the service stream at most once per round) and never creates a
parallel edge.  The checks build ``scipy.sparse`` matrices from the
model, and ``csr_matrix`` would silently sum duplicate entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

KIND_DELETE, KIND_INSERT, KIND_WEIGHT = 0, 1, 2

WEIGHT_LOW, WEIGHT_HIGH = 1.0, 10.0

#: Seeded re-weights move a weight by at least this much, which keeps
#: them out of a fault window of the program: its Step-D test compares a
#: raised tree edge with ``np.isclose`` (relative 1e-5 of the distance,
#: about 0.01 on these grids, whose distances stay under about 1,000), so
#: a smaller raise leaves distances below the true ones.  Natural draws meet that window on some seeds only
#: (4 of 10 ``mosp_mixed`` seeds, 1 of 10 ``serve_traffic`` seeds), and a
#: failure that comes and goes with the seed cannot be compared between
#: runs.  The fault is met instead on every round, whatever the seed, by
#: :func:`fault_probe`.
MIN_CHANGE = 0.05

#: Service edits generated between two recomputations of the tree that
#: the subtree cap of :func:`plan_service` is measured on.
REFRESH_EDITS = 200


@dataclass
class GridGraph:
    """A ``rows x cols`` road-like grid: each undirected road between
    4-neighbours survives with probability ``keep`` and carries two
    independently weighted directions."""

    rows: int
    cols: int
    k: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    @property
    def n(self) -> int:
        return self.rows * self.cols

    @property
    def m(self) -> int:
        return int(self.src.size)

    @property
    def source(self) -> int:
        return (self.rows // 2) * self.cols + self.cols // 2


def grid_graph(rng: np.random.Generator, rows: int, cols: int, k: int,
               keep: float = 0.92) -> GridGraph:
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    a = np.concatenate((ids[:, :-1].ravel(), ids[:-1, :].ravel()))
    b = np.concatenate((ids[:, 1:].ravel(), ids[1:, :].ravel()))
    kept = rng.random(a.size) < keep
    a, b = a[kept], b[kept]
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    w = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=(src.size, k))
    return GridGraph(rows, cols, k, src, dst, w)


def write_edge_list(g: GridGraph, path: str) -> None:
    """Write ``u v w1 .. wk`` lines under a ``# n= k=`` header, the
    format ``repro.graph.io.read_edge_list`` reads."""
    cols = [g.src[:, None].astype(np.float64), g.dst[:, None].astype(np.float64), g.w]
    rows = np.hstack(cols)
    fmt = " ".join(["%d", "%d"] + ["%.17g"] * g.k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n} k={g.k}\n")
        np.savetxt(fh, rows, fmt=fmt)


# ----------------------------------------------------------------------
@dataclass
class Batch:
    """One planned change batch, plus the model operations that mirror
    it.  ``row`` is the model row each record touches (new rows for
    inserts, existing live rows for deletes and re-weights)."""

    kind: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray
    row: np.ndarray

    @property
    def size(self) -> int:
        return int(self.kind.size)


@dataclass
class Plan:
    """The graph, the batches (or service edits) of one round, and the
    path-query targets, all derived from one seed."""

    graph: GridGraph
    batches: List[Batch]
    queries: np.ndarray
    #: Service plans: send times (seconds) under ``edit_at`` and
    #: ``query_at``.
    arrivals: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def capacity(self) -> int:
        return self.graph.m + sum(int((b.kind == KIND_INSERT).sum())
                                  for b in self.batches)


class _Live:
    """Generation-time view of the live edge set (pair -> model row)."""

    def __init__(self, g: GridGraph) -> None:
        self.n = g.n
        self.rows: Dict[int, int] = {
            int(key): i for i, key in enumerate((g.src * g.n + g.dst).tolist())
        }
        self.base_w = g.w
        self.new_w: Dict[int, np.ndarray] = {}
        self.next_row = g.m
        self.live_keys: List[int] = list(self.rows)

    def sample_live(self, rng: np.random.Generator, count: int,
                    taken: set, ok=None) -> List[int]:
        """``count`` distinct live pairs not in ``taken`` (and passing
        ``ok``), added to ``taken``."""
        out: List[int] = []
        while len(out) < count:
            key = self.live_keys[int(rng.integers(len(self.live_keys)))]
            if key in taken or key not in self.rows or (
                    ok is not None and not ok(key)):
                continue
            taken.add(key)
            out.append(key)
        return out

    def weight(self, row: int) -> np.ndarray:
        return self.new_w[row] if row in self.new_w else self.base_w[row]

    def compact_keys(self) -> None:
        self.live_keys = list(self.rows)


def _batch_from_records(records: List[Tuple[int, int, int, np.ndarray, int]],
                        k: int) -> Batch:
    kind = np.array([r[0] for r in records], dtype=np.int8)
    src = np.array([r[1] for r in records], dtype=np.int64)
    dst = np.array([r[2] for r in records], dtype=np.int64)
    w = np.zeros((len(records), k))
    for i, r in enumerate(records):
        w[i] = r[3]
    row = np.array([r[4] for r in records], dtype=np.int64)
    return Batch(kind, src, dst, w, row)


def _random_new_pairs(rng: np.random.Generator, live: _Live, count: int,
                      taken: set) -> List[int]:
    out: List[int] = []
    n = live.n
    while len(out) < count:
        u, v = (int(x) for x in rng.integers(n, size=2))
        key = u * n + v
        if u == v or key in live.rows or key in taken:
            continue
        taken.add(key)
        out.append(key)
    return out


def plan_batches(seed: int, rows: int, cols: int, k: int, num_batches: int,
                 batch_size: int, mix: Tuple[float, float, float],
                 queries_per_batch: int) -> Plan:
    """Batches of ``batch_size`` records with ``mix`` = shares of
    (inserts, deletes, re-weights).  Inserts join uniformly random
    vertex pairs (the paper's ΔE model); deletes and re-weights pick
    uniformly among live edges; re-weights draw a fresh weight vector.
    Records are shuffled so kinds interleave."""
    rng = np.random.default_rng(seed)
    g = grid_graph(rng, rows, cols, k)
    live = _Live(g)
    n_ins = int(round(batch_size * mix[0]))
    n_del = int(round(batch_size * mix[1]))
    n_rew = batch_size - n_ins - n_del
    batches: List[Batch] = []
    for _ in range(num_batches):
        taken: set = set()
        records = []
        for key in _random_new_pairs(rng, live, n_ins, taken):
            w = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=k)
            records.append((KIND_INSERT, key // g.n, key % g.n, w, -1))
        for key in live.sample_live(rng, n_del, taken):
            records.append((KIND_DELETE, key // g.n, key % g.n,
                            np.zeros(k), live.rows[key]))
        for key in live.sample_live(rng, n_rew, taken):
            old = live.weight(live.rows[key])
            w = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=k)
            while (np.abs(w - old) < MIN_CHANGE).any():
                w = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=k)
            records.append((KIND_WEIGHT, key // g.n, key % g.n, w,
                            live.rows[key]))
        order = rng.permutation(len(records))
        records = [records[i] for i in order]
        records = _commit(live, records, g.n)
        batches.append(_batch_from_records(records, k))
    queries = rng.integers(g.n, size=(num_batches, queries_per_batch))
    return Plan(g, batches, queries)


def _commit(live: _Live, records, n: int, compact: bool = True):
    """Assign model rows to inserts and apply the records to ``live``."""
    out = []
    for kind, u, v, w, row in records:
        key = u * n + v
        if kind == KIND_INSERT:
            row = live.next_row
            live.next_row += 1
            live.rows[key] = row
            live.live_keys.append(key)
        elif kind == KIND_DELETE:
            del live.rows[key]
        live.new_w[row] = w
        out.append((kind, u, v, w, row))
    if compact:
        live.compact_keys()
    return out


def _factor(rng: np.random.Generator) -> float:
    """A traffic re-weight factor in [0.5, 2) that moves a weight of at
    least ``WEIGHT_LOW`` by at least ``MIN_CHANGE``."""
    f = rng.uniform(0.5, 2.0)
    while abs(f - 1.0) < MIN_CHANGE / WEIGHT_LOW:
        f = rng.uniform(0.5, 2.0)
    return f


def subtree_sizes(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray,
                  source: int) -> np.ndarray:
    """Vertices in each vertex's subtree of the shortest-path tree from
    ``source`` over edges ``src -> dst`` weighted ``w`` (0 for
    unreachable vertices)."""
    mat = csr_matrix((w, (src, dst)), shape=(n, n))
    dist, pred = dijkstra(mat, indices=source, return_predecessors=True)
    size = np.isfinite(dist).astype(np.int64)
    for v in np.argsort(-dist).tolist():
        if pred[v] >= 0:
            size[pred[v]] += size[v]
    return size


def plan_service(seed: int, rows: int, cols: int, rate: float,
                 seconds: float, mix: Tuple[float, float, float],
                 burst_batches: int, burst_size: int,
                 max_subtree: int) -> Plan:
    """Traffic-style edits for the service: ``mix`` = shares of
    (re-weights, short local inserts, closures).  A re-weight scales
    the current weight by a factor in [0.5, 2); a local insert joins a
    vertex to a non-adjacent one at most two rows and columns away; a
    closure deletes a live edge.  Every pair is touched at most once in
    the whole round, so flush groups can never reorder two edits of
    one pair.  No edit touches an edge whose head roots more than
    ``max_subtree`` vertices of the shortest-path tree of the edges
    generated so far (recomputed every ``REFRESH_EDITS`` edits).

    The open-loop stream (the first batch) holds ``rate * seconds``
    edits and as many queries, each with its own send times at
    ``rate`` (``arrivals["edit_at"]``, ``arrivals["query_at"]``);
    ``burst_batches`` batches of ``burst_size`` edits follow for the
    closed-loop phase."""
    rng = np.random.default_rng(seed)
    g = grid_graph(rng, rows, cols, 1)
    live = _Live(g)
    taken: set = set()
    num_edits = int(round(rate * seconds))
    total = num_edits + burst_batches * burst_size
    big = np.zeros(g.n, dtype=bool)

    def refresh_big() -> None:
        # the tree drifts as edits apply, so the cap follows the tree of
        # the edge set generated so far
        nonlocal big
        live.compact_keys()
        keys = np.array(live.live_keys, dtype=np.int64)
        w = np.array([live.weight(live.rows[k])[0] for k in live.live_keys])
        big = subtree_sizes(g.n, keys // g.n, keys % g.n, w,
                            g.source) > max_subtree

    def small_head(key: int) -> bool:
        return not big[key % g.n]

    def one_edit():
        r = rng.random()
        if r < mix[0]:
            key = live.sample_live(rng, 1, taken, small_head)[0]
            row = live.rows[key]
            w = live.weight(row) * _factor(rng)
            return (KIND_WEIGHT, key // g.n, key % g.n, w, row)
        if r < mix[0] + mix[1]:
            while True:
                u = int(rng.integers(g.n))
                dr, dc = (int(x) for x in rng.integers(-2, 3, size=2))
                r0, c0 = divmod(u, g.cols)
                r1, c1 = r0 + dr, c0 + dc
                if abs(dr) + abs(dc) < 2 or not (
                        0 <= r1 < g.rows and 0 <= c1 < g.cols):
                    continue
                v = r1 * g.cols + c1
                key = u * g.n + v
                if key in live.rows or key in taken or big[v]:
                    continue
                taken.add(key)
                span = float(np.hypot(dr, dc))
                w = np.array([span * rng.uniform(WEIGHT_LOW, WEIGHT_HIGH)])
                return (KIND_INSERT, u, v, w, -1)
        key = live.sample_live(rng, 1, taken, small_head)[0]
        return (KIND_DELETE, key // g.n, key % g.n, np.zeros(1),
                live.rows[key])

    records = []
    for i in range(total):
        if i % REFRESH_EDITS == 0:
            refresh_big()
        records += _commit(live, [one_edit()], g.n, compact=False)
    stream = _batch_from_records(records[:num_edits], 1)
    bursts = [
        _batch_from_records(
            records[num_edits + i * burst_size:
                    num_edits + (i + 1) * burst_size], 1)
        for i in range(burst_batches)
    ]
    queries = rng.integers(g.n, size=num_edits)
    # event i is due at a uniformly random moment of the i-th period:
    # a fixed rate without lockstep between edits, queries and flush
    # timers, and without the clusters of a Poisson stream, which on a
    # busy interpreter lock set the sender's lag more than the service
    slots = np.arange(num_edits)
    arrivals = {
        key: (slots + rng.random(num_edits)) / rate
        for key in ("edit_at", "query_at")
    }
    return Plan(g, [stream] + bursts, queries, arrivals)


#: Weight of every edge of the fault probe's road.
PROBE_WEIGHT = 1000.0

#: The probe raises one tree edge by this share of its weight: a change
#: of 1e-3 on distances of 1,000-2,000, inside ``np.isclose``'s window
#: and a million times the checks' tolerance.
PROBE_RAISE = 1e-6


def fault_probe(k: int) -> Plan:
    """A fixed input, the same for every seed: a four-vertex road
    ``0 - 1 - 2 - 3`` with the source at 2, and one batch that raises
    the tree edge ``2 -> 1`` by ``PROBE_RAISE`` of its weight.  A
    correct update moves ``dist[1]`` and ``dist[0]`` up by 1e-3; the
    program's ``np.isclose`` test (see ``MIN_CHANGE``) keeps the old
    distances, so the probe fails on every round until that is fixed."""
    src = np.array([0, 1, 1, 2, 2, 3], dtype=np.int64)
    dst = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
    g = GridGraph(1, 4, k, src, dst, np.full((src.size, k), PROBE_WEIGHT))
    row = 3
    raised = g.w[row] * (1.0 + PROBE_RAISE)
    batch = Batch(np.array([KIND_WEIGHT], dtype=np.int8), src[[row]],
                  dst[[row]], raised[None, :], np.array([row]))
    return Plan(g, [batch], np.zeros((1, 0), dtype=np.int64))


# ----------------------------------------------------------------------
class EdgeModel:
    """The benchmark's own live edge set, kept apart from ``DiGraph`` and
    ``CSRGraph``.  Arrays are allocated once at full round capacity and
    written through, so resetting and advancing the model between
    program calls allocates nothing that would show in the program's
    memory figure."""

    def __init__(self, g: GridGraph, capacity: int) -> None:
        self.g = g
        self.src = np.full(capacity, -1, dtype=np.int64)
        self.dst = np.full(capacity, -1, dtype=np.int64)
        self.w = np.full((capacity, g.k), np.inf)
        self.alive = np.zeros(capacity, dtype=bool)
        self.reset()

    def reset(self) -> None:
        m = self.g.m
        self.src[:m], self.dst[:m], self.w[:m] = self.g.src, self.g.dst, self.g.w
        self.src[m:] = -1
        self.dst[m:] = -1
        self.w[m:] = np.inf
        self.alive[:m] = True
        self.alive[m:] = False

    def apply(self, b: Batch) -> None:
        ins = b.kind == KIND_INSERT
        dele = b.kind == KIND_DELETE
        rew = b.kind == KIND_WEIGHT
        rows = b.row
        self.src[rows[ins]] = b.src[ins]
        self.dst[rows[ins]] = b.dst[ins]
        self.w[rows[ins]] = b.w[ins]
        self.alive[rows[ins]] = True
        self.alive[rows[dele]] = False
        self.w[rows[rew]] = b.w[rew]

    def live(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = self.alive
        return self.src[a], self.dst[a], self.w[a]

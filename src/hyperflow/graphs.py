"""Road networks and their time-expanded graphs.

The time expansion turns N road nodes observed over T steps into one graph
of N*T observation nodes: each step keeps a copy of the spatial edges,
every observation gets a unit self-loop, and each observation links forward
to the same sensor at the next step.  Node ids are time-major, t * N + i,
so per-step slices of state matrices are contiguous.  `temporal_graph` is
the one constructor: it builds the expansion and row-normalizes it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .checkpoint import atomic_open


@dataclass(frozen=True)
class RoadNetwork:
    """Static weighted directed graph over N sensors.

    `edges` takes any sequence of (from, to, weight) triples and holds them
    as (int, int, float) tuples in input order; `arrays` holds the same
    edges as read-only columns, which graph construction uses.
    """

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_nodes
        if n < 1:
            raise ValueError(f"road network needs at least one node, got {n}")
        edges = tuple(self.edges)
        table = np.array(edges, dtype=float)
        if table.size == 0:
            table = table.reshape(0, 3)
        if table.ndim != 2 or table.shape[1] != 3:
            raise ValueError(f"edges must be (from, to, weight) triples, got shape {table.shape}")
        u, v, w = table.T
        # int() truncates toward zero, so an id in (-1, n) names a node.
        in_range = (u > -1) & (u < n) & (v > -1) & (v < n)
        u, v = (np.where(in_range, x, 0).astype(np.int64) for x in (u, v))
        # A subnormal weight can round to 0 when its row is normalized, which
        # would drop the edge from the time-expanded graph.
        valid_weight = np.isfinite(w) & ((w == 0) | (w >= np.finfo(float).tiny))
        repeated = np.ones(len(w), dtype=bool)
        repeated[np.unique(u * n + v, return_index=True)[1]] = False
        bad = ~in_range | ~valid_weight | repeated
        if bad.any():  # report the first offending edge, as a per-edge scan would
            i = int(np.argmax(bad))
            a, b = int(edges[i][0]), int(edges[i][1])
            if not in_range[i]:
                raise ValueError(f"edge ({a},{b}) references a node outside [0,{n})")
            if not valid_weight[i]:
                raise ValueError(f"edge ({a},{b}) has invalid weight {float(w[i])}")
            raise ValueError(f"duplicate edge ({a},{b})")
        for x in (u, v, w):
            x.flags.writeable = False
        object.__setattr__(self, "edges", tuple(zip(u.tolist(), v.tolist(), w.tolist())))
        object.__setattr__(self, "arrays", (u, v, w))


@dataclass
class TemporalGraph:
    """Row-normalized time expansion of a road network.

    `normalized` is CSR with ascending column indices in each row;
    `normalized_t` is its transpose as a CSC view over the same arrays, made
    once by `temporal_graph` because a fresh `.T` costs a third of a product.
    """

    normalized: sp.csr_matrix
    normalized_t: sp.csc_matrix

    @property
    def n_nodes(self) -> int:
        return self.normalized.shape[0]


def temporal_graph(net: RoadNetwork, t_steps: int) -> TemporalGraph:
    """Expand a road network over t_steps per the case rule:

    entry((t,i) -> (t',j)) = A_ij when t' = t and i != j, 1 when i = j and
    t' in {t, t+1}, else 0.  A diagonal entry of A is superseded by the unit
    self-loop, so it contributes no extra nonzero, and a zero weight is
    dropped, so every stored entry is positive.  Each row is then divided
    by its sum, so every observation's incoming weights sum to 1; the unit
    self-loop keeps every sum positive.
    """
    if t_steps < 1:
        raise ValueError(f"temporal graph needs t_steps >= 1, got {t_steps}")
    n = net.n_nodes
    total = n * t_steps
    u, v, w = net.arrays
    keep = (u != v) & (w != 0.0)
    offsets = np.arange(0, total, n)[:, None]  # first node id of each step
    loops = np.arange(total)
    fwd = loops[:total - n]
    rows = np.concatenate([(u[keep] + offsets).ravel(), loops, fwd])
    cols = np.concatenate([(v[keep] + offsets).ravel(), loops, fwd + n])
    vals = np.concatenate([np.tile(w[keep], t_steps), np.ones(total + len(fwd))])
    adj = sp.csr_matrix((vals, (rows, cols)), shape=(total, total))
    sums = adj @ np.ones(total)  # each row in ascending column order
    adj.data *= np.repeat(1.0 / sums, np.diff(adj.indptr))
    return TemporalGraph(adj, adj.T)


_EDGE_ROW = np.dtype([("from", np.int64), ("to", np.int64), ("weight", np.float64)])


def read_edge_csv(path, n_nodes: int | None = None) -> list[tuple[int, int, float]]:
    """Parse a `from,to,weight` CSV of 0-based directed edges.

    Blank lines are skipped and columns after the third ignored.  A row
    that does not parse, or names a node outside [0, n_nodes), is reported
    as `path:lineno`.
    """
    with open(path) as fh:
        header = next(csv.reader(fh), None)
        if header is None or [c.strip() for c in header[:3]] != ["from", "to", "weight"]:
            raise ValueError(f"{path}: expected header 'from,to,weight', got {header}")
        body = fh.read().split("\n")
    if not any(body):
        return []
    try:
        table = np.loadtxt(body, dtype=_EDGE_ROW, delimiter=",", usecols=(0, 1, 2), ndmin=1,
                           comments=None, quotechar='"')
    except ValueError as err:
        _check_edge_rows(path, body, n_nodes)
        raise ValueError(f"{path}: {err}") from err
    u, v, w = (table[name] for name in _EDGE_ROW.names)
    if n_nodes is not None and not np.all((u >= 0) & (u < n_nodes) & (v >= 0) & (v < n_nodes)):
        _check_edge_rows(path, body, n_nodes)
    return list(zip(u.tolist(), v.tolist(), w.tolist()))


def _check_edge_rows(path, body: list[str], n_nodes: int | None) -> None:
    """Raise at the first body line that does not parse or is out of range."""
    for lineno, row in enumerate(csv.reader(body), start=2):
        if not row:
            continue
        try:
            u, v, _ = int(row[0]), int(row[1]), float(row[2])
        except (ValueError, IndexError) as err:
            raise ValueError(f"{path}:{lineno}: malformed edge row {row}") from err
        if n_nodes is not None and not (0 <= u < n_nodes and 0 <= v < n_nodes):
            raise ValueError(f"{path}:{lineno}: edge ({u},{v}) references a node >= {n_nodes}")


def write_edge_csv(net: RoadNetwork, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "weight"])
        for u, v, w in net.edges:
            writer.writerow([u, v, repr(w)])

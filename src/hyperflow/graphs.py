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
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .checkpoint import atomic_open


@dataclass(frozen=True)
class RoadNetwork:
    """Static weighted directed graph over N sensors."""

    n_nodes: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"road network needs at least one node, got {self.n_nodes}")
        object.__setattr__(self, "edges", tuple((int(u), int(v), float(w)) for u, v, w in self.edges))
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u},{v}) references a node outside [0,{self.n_nodes})")
            if not (np.isfinite(w) and w >= 0):
                raise ValueError(f"edge ({u},{v}) has invalid weight {w}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))


@dataclass
class TemporalGraph:
    """Time expansion of a road network over t_steps observations, with its
    row-normalized adjacency and that matrix's transpose."""

    n_road_nodes: int
    t_steps: int
    adjacency: sp.csr_matrix
    normalized: sp.csr_matrix
    normalized_t: sp.csr_matrix

    @property
    def n_nodes(self) -> int:
        return self.n_road_nodes * self.t_steps


def temporal_graph(net: RoadNetwork, t_steps: int) -> TemporalGraph:
    """Expand a road network over t_steps per the case rule:

    entry((t,i) -> (t',j)) = A_ij when t' = t and i != j, 1 when i = j and
    t' in {t, t+1}, else 0.  A diagonal entry of A is superseded by the unit
    self-loop, so it contributes no extra nonzero.  The normalized matrix
    divides each row by its sum, so every observation's incoming weights
    sum to 1.
    """
    if t_steps < 1:
        raise ValueError(f"temporal graph needs t_steps >= 1, got {t_steps}")
    n = net.n_nodes
    total = n * t_steps

    rows, cols, vals = [], [], []
    offd = [(u, v, w) for u, v, w in net.edges if u != v and w != 0.0]
    if offd:
        u, v, w = (np.array(x) for x in zip(*offd))
        for t in range(t_steps):
            rows.append(u + t * n)
            cols.append(v + t * n)
            vals.append(w)

    loops = np.arange(total)
    rows.append(loops)
    cols.append(loops)
    vals.append(np.ones(total))

    if t_steps > 1:
        fwd = np.arange(total - n)
        rows.append(fwd)
        cols.append(fwd + n)
        vals.append(np.ones(total - n))

    adj = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total),
    ).tocsr()
    sums = np.asarray(adj.sum(axis=1)).ravel()
    if np.any(sums <= 0):
        raise RuntimeError("temporal graph has an empty row; self-loops should make this impossible")
    norm = (sp.diags(1.0 / sums) @ adj).tocsr()
    return TemporalGraph(n_road_nodes=n, t_steps=t_steps, adjacency=adj,
                         normalized=norm, normalized_t=norm.T.tocsr())


def read_edge_csv(path, n_nodes: int | None = None) -> list[tuple[int, int, float]]:
    """Parse a `from,to,weight` CSV of 0-based directed edges."""
    edges = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header[:3]] != ["from", "to", "weight"]:
            raise ValueError(f"{path}: expected header 'from,to,weight', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                u, v, w = int(row[0]), int(row[1]), float(row[2])
            except (ValueError, IndexError) as err:
                raise ValueError(f"{path}:{lineno}: malformed edge row {row}") from err
            if n_nodes is not None and not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise ValueError(f"{path}:{lineno}: edge ({u},{v}) references a node >= {n_nodes}")
            edges.append((u, v, w))
    return edges


def write_edge_csv(net: RoadNetwork, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["from", "to", "weight"])
        for u, v, w in net.edges:
            writer.writerow([u, v, repr(w)])

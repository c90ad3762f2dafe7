"""Hypergraph structure learning and convolution.

The incidence matrix is not a parameter: it is produced from the current
state matrix through a learned low-rank factor, so the hyperedge membership
of every observation can shift with the traffic situation.  Entries are
signed and unnormalized; a negative membership reads as inhibitory
influence of a hyperedge on a node.
"""

from __future__ import annotations

import csv

import numpy as np

from .autodiff import Tensor, record, tracked
from .autodiff import matmul  # noqa: F401  perfbench/layertrace.py wraps matmul under this name


def hypergraph_layer(h: Tensor, factor: Tensor, relations: Tensor,
                     capture: list[np.ndarray] | None = None) -> Tensor:
    """One hypergraph convolution, lam E, as one tape op.

    lam = h factor is the incidence, exactly (factor is (d, I); no
    activation or normalization).  P = lam^T h pools each hyperedge's
    members, E = relu(U P) + P mixes the hyperedges through the (I, I)
    relations matrix U with a residual, and each node becomes the
    membership-weighted sum lam E of its hyperedge rows.  `capture`
    receives a copy of lam.
    """
    if h.shape[1] != factor.shape[0]:
        raise ValueError(f"state width {h.shape[1]} does not match factor rows {factor.shape[0]}")
    need_h, need_f, need_u = tracked(h), tracked(factor), tracked(relations)
    lam = h.data @ factor.data
    if capture is not None:
        capture.append(lam.copy())
    # A contiguous lam^T keeps the BLAS call, and so the bits, of the
    # transpose-then-matmul composition this op replaces.
    pooled = lam.T.copy() @ h.data
    mixed = relations.data @ pooled
    edges = np.maximum(mixed, 0.0) + pooled

    def vjp(g):
        g_edges = lam.T @ g
        g_mixed = g_edges * (mixed > 0)
        g_u = g_mixed @ pooled.T if need_u else None
        if not (need_h or need_f):
            return None, None, g_u
        g_pooled = g_edges + relations.data.T @ g_mixed
        g_lam = g @ edges.T + h.data @ g_pooled.T
        g_h = lam @ g_pooled + g_lam @ factor.data.T if need_h else None
        return g_h, h.data.T @ g_lam if need_f else None, g_u

    return record(lam @ edges, "hypergraph_layer", (h, factor, relations), vjp)


def hypergraph_block(h: Tensor, factor: Tensor, relations: Tensor, n_layers: int = 1,
                     capture: list[np.ndarray] | None = None) -> Tensor:
    """Stacked hypergraph convolutions, re-learning the incidence from the
    evolving states at every layer.  `capture` collects the incidence
    values for structure analysis."""
    if n_layers < 1:
        raise ValueError("hypergraph block needs n_layers >= 1")
    for _ in range(n_layers):
        h = hypergraph_layer(h, factor, relations, capture)
    return h


def write_incidence_csv(incidence: np.ndarray, t_steps: int, n_nodes: int, path) -> None:
    """Dump a (t_steps*n_nodes, I) incidence matrix as t,node,hyperedge,value."""
    if incidence.shape[0] != t_steps * n_nodes:
        raise ValueError(f"incidence has {incidence.shape[0]} rows, expected {t_steps * n_nodes}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node", "hyperedge", "value"])
        for t in range(t_steps):
            for i in range(n_nodes):
                row = incidence[t * n_nodes + i]
                for e, value in enumerate(row):
                    writer.writerow([t, i, e, repr(float(value))])

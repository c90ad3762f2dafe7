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

from .autodiff import Tensor, add, matmul, relu, transpose


def learn_incidence(h: Tensor, factor: Tensor) -> Tensor:
    """Incidence = H @ factor, exactly; no activation or normalization.

    factor is (d, I) and maps states to hyperedge memberships.
    """
    if h.shape[1] != factor.shape[0]:
        raise ValueError(f"state width {h.shape[1]} does not match factor rows {factor.shape[0]}")
    return matmul(h, factor)


def hyperedge_embeddings(h: Tensor, incidence: Tensor, relations: Tensor) -> Tensor:
    """E = relu(U (Lam^T H)) + Lam^T H, one row per hyperedge.

    relations is the (I, I) matrix U that mixes hyperedge embeddings.
    """
    pooled = matmul(transpose(incidence), h)
    return add(relu(matmul(relations, pooled)), pooled)


def nodes_from_hyperedges(incidence: Tensor, edges: Tensor) -> Tensor:
    """Each node becomes the membership-weighted sum of its hyperedge rows."""
    return matmul(incidence, edges)


def hypergraph_block(h: Tensor, factor: Tensor, relations: Tensor, n_layers: int = 1,
                     capture: list[np.ndarray] | None = None) -> Tensor:
    """Stacked hypergraph convolutions, re-learning the incidence from the
    evolving states at every layer.  `capture` collects the incidence
    values for structure analysis."""
    if n_layers < 1:
        raise ValueError("hypergraph block needs n_layers >= 1")
    for _ in range(n_layers):
        incidence = learn_incidence(h, factor)
        if capture is not None:
            capture.append(incidence.data.copy())
        h = nodes_from_hyperedges(incidence, hyperedge_embeddings(h, incidence, relations))
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

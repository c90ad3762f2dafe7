"""Hypergraph structure learning and convolution.

The incidence matrix is not a parameter: it is produced from the current
state matrix through a learned low-rank factor, so the hyperedge membership
of every observation can shift with the traffic situation.  Entries are
signed and unnormalized; a negative membership reads as inhibitory
influence of a hyperedge on a node.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record, tracked
from .autodiff import matmul  # noqa: F401  perfbench/layertrace.py wraps matmul under this name
from .checkpoint import atomic_open


def hypergraph_block(h: Tensor, factor: Tensor, relations: Tensor,
                     capture: list[np.ndarray] | None = None) -> Tensor:
    """One hypergraph convolution, lam E, as one tape op.

    lam = h factor is the incidence, exactly (factor is (d, I); no
    activation or normalization).  P = lam^T h pools each hyperedge's
    members, E = relu(U P) + P mixes the hyperedges through the (I, I)
    relations matrix U with a residual, and each node becomes the
    membership-weighted sum lam E of its hyperedge rows.  h is one window
    (R, d) or B windows (R, B, d); P and E are per window, the weights are
    shared.  `capture` receives a copy of lam, for structure analysis.
    """
    shape = h.data.shape
    rows, d, n_edges = shape[0], shape[-1], factor.data.shape[1]
    if d != factor.data.shape[0]:
        raise ValueError(f"state width {d} does not match factor rows {factor.data.shape[0]}")
    need_h, need_f, need_u = tracked(h), tracked(factor), tracked(relations)
    h2 = h.data.reshape(-1, d)
    lam2 = h2 @ factor.data
    if capture is not None:
        capture.append(lam2.reshape(*shape[:-1], n_edges).copy())
    # Per-window products run on window-major (B, R, .) views.  lam^T is
    # copied to C order so that a window gets the BLAS call, and so the
    # bits, of the transpose-then-matmul composition this op replaces.
    h_w = h2.reshape(rows, -1, d).transpose(1, 0, 2)
    lam_w = lam2.reshape(rows, -1, n_edges).transpose(1, 0, 2)
    lam_t = lam_w.transpose(0, 2, 1).copy()
    pooled = lam_t @ h_w
    mixed = relations.data @ pooled
    edges = np.maximum(mixed, 0.0) + pooled

    def to_rows(a_w):  # (B, R, k) back to (R, k) or (R, B, k), in C order
        return a_w.transpose(1, 0, 2).reshape(-1, a_w.shape[2]).reshape(*shape[:-1], a_w.shape[2])

    def vjp(g):
        g_w = g.reshape(rows, -1, d).transpose(1, 0, 2)
        g_edges = lam_t @ g_w
        g_mixed = g_edges * (mixed > 0)
        g_u = (g_mixed @ pooled.transpose(0, 2, 1)).sum(axis=0) if need_u else None
        if not (need_h or need_f):
            return None, None, g_u
        g_pooled = g_edges + relations.data.T @ g_mixed
        g_lam = to_rows(g_w @ edges.transpose(0, 2, 1) + h_w @ g_pooled.transpose(0, 2, 1))
        g_lam2 = g_lam.reshape(-1, n_edges)
        g_h = (to_rows(lam_w @ g_pooled) + (g_lam2 @ factor.data.T).reshape(shape)
               if need_h else None)
        return g_h, h2.T @ g_lam2 if need_f else None, g_u

    return record(to_rows(lam_w @ edges), "hypergraph_block", (h, factor, relations), vjp)


def write_incidence_csv(incidence: np.ndarray, t_steps: int, n_nodes: int, path) -> None:
    """Dump a (t_steps*n_nodes, I) incidence matrix as t,node,hyperedge,value."""
    if incidence.shape[0] != t_steps * n_nodes:
        raise ValueError(f"incidence has {incidence.shape[0]} rows, expected {t_steps * n_nodes}")
    rows = incidence.tolist()
    # Rows end in "\r\n", the terminator of csv's default dialect.
    with atomic_open(path, "w", newline="") as fh:
        fh.write("t,node,hyperedge,value\r\n")
        for t in range(t_steps):
            fh.write("".join([f"{t},{i},{e},{value!r}\r\n"
                              for i, row in enumerate(rows[t * n_nodes:(t + 1) * n_nodes])
                              for e, value in enumerate(row)]))


def community_cosines(incidence: np.ndarray, membership) -> tuple[float, float]:
    """Mean cosine of node incidence vectors within and across communities.

    incidence is (T, N, I), one hyperedge-membership row per step and node;
    membership gives each node's community.  Every pair i < j at every step
    counts once.  Raises ValueError when either group has no pair.
    """
    t_steps, n, _ = incidence.shape
    same, cross = [], []
    for t in range(t_steps):
        lam = incidence[t]
        unit = lam / np.maximum(np.linalg.norm(lam, axis=1, keepdims=True), 1e-12)
        cos = unit @ unit.T
        for i in range(n):
            for j in range(i + 1, n):
                (same if membership[i] == membership[j] else cross).append(cos[i, j])
    if not same or not cross:
        raise ValueError("community cosines need a pair of nodes within a community and one across")
    return float(np.mean(same)), float(np.mean(cross))

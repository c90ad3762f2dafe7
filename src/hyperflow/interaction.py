"""Second-order neighborhood interaction on the time-expanded graph.

The interaction term is defined as a sum over all ordered neighbor pairs
(self-pairs included) of the elementwise product of two projections.  That
sum factorizes into the product of two independent aggregations, which is
what gets computed; the pair form only ever appears in test oracles.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record
from .autodiff import matmul  # noqa: F401  perfbench/layertrace.py wraps matmul under this name
from .graphs import TemporalGraph


def interaction_block(h: Tensor, graph: TemporalGraph, pair_left: Tensor, pair_right: Tensor,
                      through: Tensor) -> Tensor:
    """relu((A h W_left) * (A h W_right)) + relu(A h W_through), one tape op.

    The first term is the factorized pair sum, the second the usual linear
    aggregation; every weight is (d, d), and h is (R, d) or (R, B, d).
    Each projection of A h is its own product, so every elementwise pass
    and every gradient runs on a contiguous (R*B, d) array.  Backward
    writes the three projection gradients into one (3, R*B, d) buffer and
    sums their input products in place.
    """
    if h.shape[0] != graph.n_nodes:
        raise ValueError(f"state matrix has {h.shape[0]} rows, graph has {graph.n_nodes} nodes")
    weights = (pair_left, pair_right, through)
    rows, d = h.shape[0], h.shape[-1]
    # One CSR product covers every window: A acts on rows, (R, B*d).
    mixed = np.asarray(graph.normalized @ h.data.reshape(rows, -1)).reshape(-1, d)
    left, right, lin = (mixed @ w.data for w in weights)
    pair = left * right
    # Backward needs only the relu sign masks, so both relus run in place.
    pair_on, lin_on = pair > 0, lin > 0

    def vjp(g):
        g2 = g.reshape(-1, d)
        g_pair = g2 * pair_on
        g_proj = np.empty((3, *g2.shape))
        np.multiply(g_pair, right, out=g_proj[0])
        np.multiply(g_pair, left, out=g_proj[1])
        np.multiply(g2, lin_on, out=g_proj[2])
        g_w = [mixed.T @ g_k for g_k in g_proj]
        g_mixed = g_proj[0] @ pair_left.data.T
        g_mixed += g_proj[1] @ pair_right.data.T
        g_mixed += g_proj[2] @ through.data.T
        g_h = (graph.normalized_t @ g_mixed.reshape(rows, -1)).reshape(h.shape)
        return g_h, *g_w

    out = np.maximum(pair, 0.0, out=pair)
    out += np.maximum(lin, 0.0, out=lin)
    return record(out.reshape(h.shape), "interaction_block", (h, *weights), vjp)

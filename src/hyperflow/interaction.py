"""Second-order neighborhood interaction on the time-expanded graph.

The interaction term is defined as a sum over all ordered neighbor pairs
(self-pairs included) of the elementwise product of two projections.  That
sum factorizes into the product of two independent aggregations, which is
what gets computed; the pair form only ever appears in test oracles.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, record, tracked
from .autodiff import matmul  # noqa: F401  perfbench/layertrace.py wraps matmul under this name
from .graphs import TemporalGraph


def interaction_block(h: Tensor, graph: TemporalGraph, pair_left: Tensor, pair_right: Tensor,
                      through: Tensor) -> Tensor:
    """relu((A h W_left) * (A h W_right)) + relu(A h W_through), one tape op.

    The first term is the factorized pair sum, the second the usual linear
    aggregation; every weight is (d, d).  The three projections of A h are
    one product with the weights side by side, and backward forms the
    weight and input gradients with one product each.
    """
    if h.shape[0] != graph.n_nodes:
        raise ValueError(f"state matrix has {h.shape[0]} rows, graph has {graph.n_nodes} nodes")
    weights = (pair_left, pair_right, through)
    need_h, need_w = tracked(h), [tracked(w) for w in weights]
    d = h.shape[1]
    w_all = np.concatenate([w.data for w in weights], axis=1)
    mixed = np.asarray(graph.normalized @ h.data)
    proj = mixed @ w_all
    left, right, lin = proj[:, :d], proj[:, d:2 * d], proj[:, 2 * d:]
    pair = left * right

    def vjp(g):
        g_pair = g * (pair > 0)
        g_proj = np.concatenate([g_pair * right, g_pair * left, g * (lin > 0)], axis=1)
        if all(need_w):
            g_w = np.split(mixed.T @ g_proj, 3, axis=1)
        else:
            g_w = [mixed.T @ g_proj[:, k * d:(k + 1) * d] if need else None
                   for k, need in enumerate(need_w)]
        g_h = graph.normalized_t @ (g_proj @ w_all.T) if need_h else None
        return g_h, *g_w

    out = np.maximum(pair, 0.0) + np.maximum(lin, 0.0)
    return record(out, "interaction_block", (h, *weights), vjp)

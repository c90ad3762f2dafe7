"""Observation features and the spatio-temporal prior convolution.

Each observation row starts as the projected signal plus a learned
per-sensor embedding and a learned per-step embedding, then runs through a
stack of graph convolutions over the time-expanded network.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, record
from .autodiff import matmul  # noqa: F401  perfbench/layertrace.py wraps matmul under this name
from .graphs import TemporalGraph


def build_node_features(x: np.ndarray, input_proj: Tensor, spatial: Tensor, temporal: Tensor) -> Tensor:
    """Initial state: row (t*N + i) = x[t,i] W_in + spatial[i] + temporal[t], one tape op.

    x is one window (T, N, F), giving a (T*N, d) state, or B windows
    (B, T, N, F), giving (T*N, B, d) with the window axis after the row
    axis.  input_proj is (F, d), spatial (N, d) with one row per sensor,
    temporal (T, d) with one row per step.
    """
    *lead, t_steps, n_nodes, n_features = x.shape
    if n_features != input_proj.shape[0]:
        raise ValueError(f"signal has {n_features} features, projection expects {input_proj.shape[0]}")
    if n_nodes != spatial.shape[0]:
        raise ValueError(f"signal has {n_nodes} nodes, spatial table has {spatial.shape[0]}")
    if t_steps != temporal.shape[0]:
        raise ValueError(f"signal has {t_steps} steps, temporal table has {temporal.shape[0]}")
    d = input_proj.shape[1]
    # Rows (t, i) first, then windows, so that each row is contiguous.
    flat = np.moveaxis(x.reshape(-1, t_steps, n_nodes, n_features), 0, 2).reshape(-1, n_features)
    proj = (flat @ input_proj.data).reshape(t_steps, n_nodes, -1, d)
    out = (proj + spatial.data[:, None]) + temporal.data[:, None, None]

    def vjp(g):
        g4 = g.reshape(t_steps, n_nodes, -1, d)
        return flat.T @ g.reshape(-1, d), g4.sum(axis=(0, 2)), g4.sum(axis=(1, 2))

    return record(out.reshape(t_steps * n_nodes, *lead, d), "node_features",
                  (input_proj, spatial, temporal), vjp)


def encoder_layer(h: Tensor, graph: TemporalGraph, w: Tensor) -> Tensor:
    """relu(A_norm (h W)) as one tape op; h is (R, d) or (R, B, d)."""
    rows, d = h.shape[0], w.shape[1]
    h2 = h.data.reshape(-1, w.shape[0])
    hw = (h2 @ w.data).reshape(rows, -1)
    out = np.maximum(np.asarray(graph.normalized @ hw), 0.0)

    def vjp(g):
        g_hw = (graph.normalized_t @ (g.reshape(rows, -1) * (out > 0))).reshape(-1, d)
        return (g_hw @ w.data.T).reshape(h.shape), h2.T @ g_hw

    return record(out.reshape(*h.shape[:-1], d), "encoder_layer", (h, w), vjp)


def graph_convolution(h: Tensor, graph: TemporalGraph, layers: Sequence[Tensor]) -> Tensor:
    """Stacked propagation h <- relu(A_norm h W), one (d, d) W per layer."""
    if h.shape[0] != graph.n_nodes:
        raise ValueError(f"state matrix has {h.shape[0]} rows, graph has {graph.n_nodes} nodes")
    for w in layers:
        h = encoder_layer(h, graph, w)
    return h

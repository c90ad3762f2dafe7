"""Observation features and the spatio-temporal prior convolution.

Each observation row starts as the projected signal plus a learned
per-sensor embedding and a learned per-step embedding, then runs through a
stack of graph convolutions over the time-expanded network.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .autodiff import Tensor, add, matmul, relu, sparse_matmul, tile_rows, repeat_rows
from .graphs import TemporalGraph


def build_node_features(x: np.ndarray, input_proj: Tensor, spatial: Tensor, temporal: Tensor) -> Tensor:
    """Initial state matrix: row (t*N + i) = x[t,i] W_in + spatial[i] + temporal[t].

    input_proj is (F, d), spatial (N, d) with one row per sensor, temporal
    (T, d) with one row per step.
    """
    t_steps, n_nodes, n_features = x.shape
    if n_features != input_proj.shape[0]:
        raise ValueError(f"signal has {n_features} features, projection expects {input_proj.shape[0]}")
    if n_nodes != spatial.shape[0]:
        raise ValueError(f"signal has {n_nodes} nodes, spatial table has {spatial.shape[0]}")
    if t_steps != temporal.shape[0]:
        raise ValueError(f"signal has {t_steps} steps, temporal table has {temporal.shape[0]}")
    flat = Tensor(x.reshape(t_steps * n_nodes, n_features))
    projected = matmul(flat, input_proj)
    h = add(projected, tile_rows(spatial, t_steps))
    return add(h, repeat_rows(temporal, n_nodes))


def graph_convolution(h: Tensor, graph: TemporalGraph, layers: Sequence[Tensor]) -> Tensor:
    """Stacked propagation h <- relu(A_norm h W), one (d, d) W per layer."""
    if graph.normalized is None:
        raise ValueError("temporal graph must be normalized before convolution")
    if h.shape[0] != graph.n_nodes:
        raise ValueError(f"state matrix has {h.shape[0]} rows, graph has {graph.n_nodes} nodes")
    for w in layers:
        h = relu(sparse_matmul(graph.normalized, matmul(h, w), graph.normalized_t))
    return h

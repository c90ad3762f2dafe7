"""Second-order neighborhood interaction on the time-expanded graph.

The interaction term is defined as a sum over all ordered neighbor pairs
(self-pairs included) of the elementwise product of two projections.  That
sum factorizes into the product of two independent aggregations, which is
what gets computed; the pair form only ever appears in test oracles.
"""

from __future__ import annotations

from .autodiff import Tensor, add, hadamard, matmul, relu, sparse_matmul
from .graphs import TemporalGraph


def interaction_block(h: Tensor, graph: TemporalGraph, pair_left: Tensor, pair_right: Tensor,
                      through: Tensor) -> Tensor:
    """relu((A h W_left) * (A h W_right)) + relu(A h W_through).

    The first term is the factorized pair sum, the second the usual linear
    aggregation; every weight is (d, d).
    """
    if graph.normalized is None:
        raise ValueError("temporal graph must be normalized before interaction")
    if h.shape[0] != graph.n_nodes:
        raise ValueError(f"state matrix has {h.shape[0]} rows, graph has {graph.n_nodes} nodes")
    mixed = sparse_matmul(graph.normalized, h, graph.normalized_t)
    pi = relu(hadamard(matmul(mixed, pair_left), matmul(mixed, pair_right)))
    return add(pi, relu(matmul(mixed, through)))

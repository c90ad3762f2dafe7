"""Primitive tape ops that no model path records, kept as test references.

The fused block ops in `hyperflow` replaced compositions of these
primitives; `test_fused_ops` rebuilds each block from them, and
`test_autodiff` uses them to exercise the tape's contract.  They follow
the same contract as the package's ops: one node per call through
`record`, no graph outside a tape, and gradients never written in place.
"""

import numpy as np

from hyperflow.autodiff import ShapeError, Tensor, record, tracked
from hyperflow.graphs import RoadNetwork, temporal_graph


def sparse_matmul(sp_mat, x: Tensor, sp_mat_t) -> Tensor:
    """Product of a constant scipy sparse matrix with a dense tensor.

    The sparse operand carries no gradient; backward multiplies by its
    precomputed transpose `sp_mat_t`.
    """
    if x.data.ndim != 2 or sp_mat.shape[1] != x.shape[0]:
        raise ShapeError(f"sparse_matmul: cannot multiply {sp_mat.shape} by {x.shape}")

    def vjp(g):
        return (sp_mat_t @ g,)

    return record(np.asarray(sp_mat @ x.data), "sparse_matmul", (x,), vjp)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: shapes {a.shape} and {b.shape} differ")
    need_a, need_b = tracked(a), tracked(b)

    def vjp(g):
        return (g * b.data if need_a else None,
                g * a.data if need_b else None)

    return record(a.data * b.data, "hadamard", (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return record(a.data + b.data, "add", (a, b), lambda g: (g, g))


def scale(a: Tensor, c: float) -> Tensor:
    return record(a.data * c, "scale", (a,), lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    # Subgradient at 0 is 0: the mask is strict.
    return record(np.maximum(a.data, 0.0), "relu", (a,), lambda g: (g * (a.data > 0),))


def sum_all(a: Tensor) -> Tensor:
    return record(np.asarray(a.data.sum()), "sum_all", (a,), lambda g: (np.full(a.shape, float(g)),))


def gradient_cases(seed: int) -> dict:
    """name -> (scalar function of one tensor, point) for each op above.

    Inputs to relu keep clear of its kink, so central differences see a
    smooth function; every case passes through sum_all.
    """
    rng = np.random.default_rng(seed)

    def kink_free(*shape):
        v = rng.normal(size=shape)
        while np.any(np.abs(v) < 1e-3):
            v = rng.normal(size=shape)
        return v

    c5, c63 = Tensor(rng.normal(size=(5,))), Tensor(rng.normal(size=(6, 3)))
    net = RoadNetwork(3, ((0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0)))
    graph = temporal_graph(net, 2)

    def weighted(out):
        return sum_all(hadamard(out, c63))

    return {
        "hadamard": (lambda p: sum_all(hadamard(p, c5)), rng.normal(size=(5,))),
        "relu": (lambda p: sum_all(hadamard(relu(p), relu(p))), kink_free(4, 4)),
        "sparse_matmul": (lambda p: weighted(sparse_matmul(graph.normalized, p, graph.normalized_t)),
                          rng.normal(size=(6, 3))),
        "add": (lambda p: weighted(add(p, hadamard(p, p))), rng.normal(size=(6, 3))),
        "scale": (lambda p: weighted(scale(p, -1.7)), rng.normal(size=(6, 3))),
    }

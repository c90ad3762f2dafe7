"""Each fused block op against the same expression built from primitive ops
(autodiff's and those of reference_ops), and on a stack of windows against
the op run on each window.

A fused op must give the value and every input gradient of its primitive
composition.  Its vjp returns a gradient array for every input, constant
or not, and the tape leaves a constant input's .grad None.  On
a (rows, B, d) state it must give each window's value and state gradient
and the sum over windows of each weight gradient.  Its value and every
gradient are C-contiguous float64 arrays, never a view into a wider one.
"""

import itertools

import numpy as np
import pytest

import hyperflow.autodiff as ad
from hyperflow.autodiff import Tape, Tensor
from hyperflow.encoder import encoder_layer
from hyperflow.graphs import temporal_graph
from hyperflow.hyperedges import hypergraph_block
from hyperflow.interaction import interaction_block
from hyperflow.model import average
from hyperflow.oracles import random_net
from reference_ops import add, hadamard, relu, scale, sparse_matmul, sum_all

N, T, D, I, B = 4, 3, 3, 2, 3


def primitive_encoder_layer(h, graph, w):
    return relu(sparse_matmul(graph.normalized, ad.matmul(h, w), graph.normalized_t))


def primitive_hypergraph_block(h, factor, relations):
    lam = ad.matmul(h, factor)
    pooled = ad.matmul(ad.transpose(lam), h)
    return ad.matmul(lam, add(relu(ad.matmul(relations, pooled)), pooled))


def primitive_interaction_block(h, graph, pair_left, pair_right, through):
    mixed = sparse_matmul(graph.normalized, h, graph.normalized_t)
    pair = relu(hadamard(ad.matmul(mixed, pair_left), ad.matmul(mixed, pair_right)))
    return add(pair, relu(ad.matmul(mixed, through)))


def primitive_average(a, b):
    return scale(add(a, b), 0.5)


def random_graph(rng):
    return temporal_graph(random_net(rng, N, density=0.5), T)


# name -> (fused, primitive, input shapes); a graph argument, where the op
# takes one, goes second and is not an input.
OPS = {
    "encoder_layer": (encoder_layer, primitive_encoder_layer, [(N * T, D), (D, D)]),
    "hypergraph_block": (hypergraph_block, primitive_hypergraph_block, [(N * T, D), (D, I), (I, I)]),
    "interaction_block": (interaction_block, primitive_interaction_block, [(N * T, D)] + [(D, D)] * 3),
    "average": (average, primitive_average, [(N * T, D)] * 2),
}
GRAPH_OPS = ("encoder_layer", "interaction_block")


def relative_error(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def run(fn, arrays, tracked, graph, upstream):
    """(output, inputs, the output's parent count and vjp as recorded)."""
    inputs = [Tensor(a, requires_grad=t) for a, t in zip(arrays, tracked)]
    args = inputs[:1] + [graph] + inputs[1:] if graph is not None else inputs
    with Tape() as tape:
        out = fn(*args)
        loss = sum_all(hadamard(out, Tensor(upstream)))
    recorded = len(out.parents), out._vjp  # backward releases both
    tape.backward(loss)
    return out, inputs, *recorded


@pytest.mark.parametrize("name", list(OPS))
def test_fused_op_matches_primitive_composition(name):
    fused, primitive, shapes = OPS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for tracked in itertools.product([False, True], repeat=len(shapes)):
        if not any(tracked):
            continue
        for _ in range(3):
            graph = random_graph(rng) if name in GRAPH_OPS else None
            arrays = [rng.normal(size=s) for s in shapes]
            upstream = rng.normal(size=(N * T, D))
            out, inputs, n_parents, vjp = run(fused, arrays, tracked, graph, upstream)
            ref, ref_inputs, _, _ = run(primitive, arrays, tracked, graph, upstream)
            assert out.op == name and n_parents == len(shapes)
            assert relative_error(out.data, ref.data) < 1e-12
            for x, x_ref, t in zip(inputs, ref_inputs, tracked):
                if t:
                    assert relative_error(x.grad, x_ref.grad) < 1e-12, (name, tracked)
                else:
                    assert x.grad is None
            # the vjp computes every gradient; only the tape drops a constant's
            grads = vjp(upstream)
            assert len(grads) == len(shapes), (name, tracked)
            assert all(isinstance(g, np.ndarray) for g in grads), (name, tracked)


@pytest.mark.parametrize("name", list(OPS))
def test_fused_op_batch_matches_per_window(name):
    fused, _, shapes = OPS[name]
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    is_state = [s[0] == N * T for s in shapes]
    for _ in range(3):
        graph = random_graph(rng) if name in GRAPH_OPS else None
        arrays = [rng.normal(size=(s[0], B, s[1]) if state else s) for s, state in zip(shapes, is_state)]
        upstream = rng.normal(size=(N * T, B, D))
        out, inputs, _, _ = run(fused, arrays, [True] * len(shapes), graph, upstream)
        per_window = [run(fused, [a[:, b] if state else a for a, state in zip(arrays, is_state)],
                          [True] * len(shapes), graph, upstream[:, b]) for b in range(B)]
        expected = np.stack([o.data for o, _, _, _ in per_window], axis=1)
        assert out.data.shape == (N * T, B, D)
        assert relative_error(out.data, expected) < 1e-12, name
        for k, (x, state) in enumerate(zip(inputs, is_state)):
            grads = [ins[k].grad for _, ins, _, _ in per_window]
            want = np.stack(grads, axis=1) if state else np.sum(grads, axis=0)
            assert relative_error(x.grad, want) < 1e-12, (name, k)


def test_fused_op_outputs_are_contiguous():
    rng = np.random.default_rng(8)
    graph = random_graph(rng)
    ops = {name: (fused, shapes) for name, (fused, _, shapes) in OPS.items()}
    ops["window_max_rows"] = (lambda h: ad.window_max_rows(h, T, T, N), [(N * T, D)])
    for name, (fn, shapes) in ops.items():
        for batch in [(), (B,)]:
            inputs = [Tensor(rng.normal(size=(s[0], *batch, s[1]) if s[0] == N * T else s), requires_grad=True)
                      for s in shapes]
            args = inputs[:1] + [graph] + inputs[1:] if name in GRAPH_OPS else inputs
            with Tape():
                out = fn(*args)
            grads = out._vjp(rng.normal(size=out.shape))
            assert len(grads) == len(inputs) and all(g is not None for g in grads), name
            for k, arr in enumerate([out.data, *grads]):
                assert arr.dtype == np.float64 and arr.flags.c_contiguous, (name, batch, k)

"""Each fused block op against the same expression built from primitive ops.

A fused op must give the value and every input gradient of its primitive
composition, and compute no gradient for an input that is a constant.
"""

import itertools

import numpy as np
import pytest

import hyperflow.autodiff as ad
from hyperflow.autodiff import Tape, Tensor
from hyperflow.encoder import encoder_layer
from hyperflow.graphs import RoadNetwork, temporal_graph
from hyperflow.hyperedges import hypergraph_layer
from hyperflow.interaction import interaction_block
from hyperflow.model import average

N, T, D, I = 4, 3, 3, 2


def primitive_encoder_layer(h, graph, w):
    return ad.relu(ad.sparse_matmul(graph.normalized, ad.matmul(h, w), graph.normalized_t))


def primitive_hypergraph_layer(h, factor, relations):
    lam = ad.matmul(h, factor)
    pooled = ad.matmul(ad.transpose(lam), h)
    return ad.matmul(lam, ad.add(ad.relu(ad.matmul(relations, pooled)), pooled))


def primitive_interaction_block(h, graph, pair_left, pair_right, through):
    mixed = ad.sparse_matmul(graph.normalized, h, graph.normalized_t)
    pair = ad.relu(ad.hadamard(ad.matmul(mixed, pair_left), ad.matmul(mixed, pair_right)))
    return ad.add(pair, ad.relu(ad.matmul(mixed, through)))


def primitive_average(a, b):
    return ad.scale(ad.add(a, b), 0.5)


def random_graph(rng):
    edges = tuple((u, v, float(rng.uniform(0.5, 2.0)))
                  for u in range(N) for v in range(N) if u != v and rng.random() < 0.5)
    return temporal_graph(RoadNetwork(N, edges), T)


# name -> (fused, primitive, input shapes); a graph argument, where the op
# takes one, goes second and is not an input.
OPS = {
    "encoder_layer": (encoder_layer, primitive_encoder_layer, [(N * T, D), (D, D)]),
    "hypergraph_layer": (hypergraph_layer, primitive_hypergraph_layer, [(N * T, D), (D, I), (I, I)]),
    "interaction_block": (interaction_block, primitive_interaction_block, [(N * T, D)] + [(D, D)] * 3),
    "average": (average, primitive_average, [(N * T, D)] * 2),
}


def relative_error(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def run(fn, arrays, tracked, graph, upstream):
    inputs = [Tensor(a, requires_grad=t) for a, t in zip(arrays, tracked)]
    args = inputs[:1] + [graph] + inputs[1:] if graph is not None else inputs
    with Tape() as tape:
        out = fn(*args)
        loss = ad.sum_all(ad.hadamard(out, Tensor(upstream)))
    tape.backward(loss)
    return out, inputs


@pytest.mark.parametrize("name", list(OPS))
def test_fused_op_matches_primitive_composition(name):
    fused, primitive, shapes = OPS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    for tracked in itertools.product([False, True], repeat=len(shapes)):
        if not any(tracked):
            continue
        for _ in range(3):
            graph = random_graph(rng) if name in ("encoder_layer", "interaction_block") else None
            arrays = [rng.normal(size=s) for s in shapes]
            upstream = rng.normal(size=(N * T, D))
            out, inputs = run(fused, arrays, tracked, graph, upstream)
            ref, ref_inputs = run(primitive, arrays, tracked, graph, upstream)
            assert out.op == name and len(out.parents) == len(shapes)
            assert relative_error(out.data, ref.data) < 1e-12
            for x, x_ref, t in zip(inputs, ref_inputs, tracked):
                if t:
                    assert relative_error(x.grad, x_ref.grad) < 1e-12, (name, tracked)
                else:
                    assert x.grad is None
            # the vjp itself computes nothing for a constant input
            grads = out._vjp(upstream)
            assert [g is not None for g in grads] == list(tracked), (name, tracked)

import numpy as np

from hyperflow.autodiff import Tensor, finite_difference_check
from hyperflow.graphs import RoadNetwork, temporal_graph
from hyperflow.interaction import interaction_block
from hyperflow.oracles import interaction_pair_sum, random_net
from hyperflow.training import mae_loss


def params_from(w1, w2, w3):
    return Tensor(w1), Tensor(w2), Tensor(w3)


def random_instance(rng, n, t, d):
    g = temporal_graph(random_net(rng, n, density=0.5), t)
    h = rng.normal(size=(n * t, d))
    return g, h


def test_single_neighbor_row_reduces_to_projected_product():
    # a row whose only neighbor is itself with weight 1 (isolated node)
    g = temporal_graph(RoadNetwork(1, ()), 1)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(1, 3))
    w1, w2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    # a zero through weight leaves only the interaction term
    pi = interaction_block(Tensor(h), g, *params_from(w1, w2, np.zeros((3, 3))))
    np.testing.assert_allclose(pi.data, np.maximum((h @ w1) * (h @ w2), 0.0))


def test_zero_state_gives_zero_interaction():
    rng = np.random.default_rng(1)
    g, _ = random_instance(rng, 4, 2, 3)
    p = params_from(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), np.zeros((3, 3)))
    pi = interaction_block(Tensor(np.zeros((8, 3))), g, *p)
    np.testing.assert_array_equal(pi.data, np.zeros((8, 3)))


def test_block_reduces_to_linear_path_when_pair_weight_zero():
    rng = np.random.default_rng(3)
    g, h = random_instance(rng, 3, 2, 4)
    w3 = rng.normal(size=(4, 4))
    p = params_from(np.zeros((4, 4)), rng.normal(size=(4, 4)), w3)
    out = interaction_block(Tensor(h), g, *p)
    mixed = g.normalized @ h
    np.testing.assert_allclose(out.data, np.maximum(mixed @ w3, 0.0), atol=1e-12)


def test_block_reduces_to_interaction_when_linear_path_nonpositive():
    rng = np.random.default_rng(4)
    g, h = random_instance(rng, 3, 2, 4)
    w1, w2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    out = interaction_block(Tensor(h), g, *params_from(w1, w2, np.zeros((4, 4))))
    pi = np.maximum(interaction_pair_sum(h, g.normalized.toarray(), w1, w2), 0.0)
    np.testing.assert_allclose(out.data, pi, atol=1e-12)


def test_two_node_block_matches_straight_line_reference():
    g = temporal_graph(RoadNetwork(2, ((0, 1, 1.0), (1, 0, 1.0))), 1)
    h = np.array([[1.0, 2.0], [-1.0, 0.5]])
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    w2 = np.array([[0.5, 0.0], [0.0, -0.5]])
    w3 = np.array([[1.0, 1.0], [1.0, 1.0]])
    dense = g.normalized.toarray()
    pi_ref = np.maximum(interaction_pair_sum(h, dense, w1, w2), 0.0)
    ref = pi_ref + np.maximum(dense @ h @ w3, 0.0)
    out = interaction_block(Tensor(h), g, *params_from(w1, w2, w3))
    np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_neighbor_order_does_not_change_aggregation():
    # permute the edge list before building the graph: identical output bits
    rng = np.random.default_rng(5)
    edges = [(0, 1, 1.0), (1, 2, 0.5), (2, 0, 2.0), (0, 2, 0.25)]
    h = rng.normal(size=(9, 3))
    p = params_from(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    base = interaction_block(Tensor(h), temporal_graph(RoadNetwork(3, tuple(edges)), 3), *p).data
    shuffled = list(edges)
    rng.shuffle(shuffled)
    other = interaction_block(Tensor(h), temporal_graph(RoadNetwork(3, tuple(shuffled)), 3), *p).data
    np.testing.assert_array_equal(base, other)


def test_block_gradient_check():
    rng = np.random.default_rng(6)
    g, h = random_instance(rng, 3, 2, 3)
    target = Tensor(rng.normal(size=(6, 3)))
    w1 = rng.normal(size=(3, 3))
    w2 = rng.normal(size=(3, 3))
    w3 = rng.normal(size=(3, 3))
    for which in range(3):
        def f(p, _which=which):
            mats = [Tensor(w1), Tensor(w2), Tensor(w3)]
            mats[_which] = p
            return mae_loss(interaction_block(Tensor(h), g, *mats), target)

        assert finite_difference_check(f, Tensor([w1, w2, w3][which])) < 1e-4


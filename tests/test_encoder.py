import numpy as np
import pytest

from hyperflow.autodiff import Tensor
from hyperflow.encoder import build_node_features, graph_convolution
from hyperflow.graphs import RoadNetwork, temporal_graph
from hyperflow.model import ModelConfig, init_params


def encoder_params(n, f, t, d, layers, rng=None):
    """The model's parameters at this encoder size: its seeded init, or zeros without rng."""
    cfg = ModelConfig(n_nodes=n, n_features=f, lookback=t, horizon=1, width=d, n_hyperedges=1,
                      windows=(1,), encoder_layers=layers)
    p = init_params(cfg, np.random.default_rng(0) if rng is None else rng)
    return p if rng is not None else {k: Tensor(np.zeros(v.shape)) for k, v in p.items()}


def features(x, p):
    return build_node_features(x, p["encoder.input_proj"], p["encoder.spatial"], p["encoder.temporal"])


def convolve(h, g, p):
    return graph_convolution(h, g, [w for k, w in p.items() if k.startswith("encoder.layer")])


def test_zero_signal_zero_embeddings_gives_zero_state():
    p = encoder_params(n=3, f=2, t=4, d=5, layers=1)
    h = features(np.zeros((4, 3, 2)), p)
    np.testing.assert_array_equal(h.data, np.zeros((12, 5)))


def test_zero_signal_embeddings_add():
    p = encoder_params(n=2, f=1, t=3, d=2, layers=1)
    p["encoder.spatial"] = Tensor([[1.0, 2.0], [3.0, 4.0]])
    p["encoder.temporal"] = Tensor([[10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
    h = features(np.zeros((3, 2, 1)), p)
    # time-major rows: (t, i) -> spatial[i] + temporal[t]
    np.testing.assert_array_equal(h.data[0], [11.0, 22.0])
    np.testing.assert_array_equal(h.data[1], [13.0, 24.0])
    np.testing.assert_array_equal(h.data[5], [53.0, 64.0])


def test_constant_signal_ones_projection():
    p = encoder_params(n=2, f=1, t=2, d=3, layers=1)
    p["encoder.input_proj"] = Tensor(np.ones((1, 3)))
    c = 2.5
    h = features(np.full((2, 2, 1), c), p)
    np.testing.assert_array_equal(h.data, np.full((4, 3), c))


def test_shape_mismatch_rejected():
    p = encoder_params(n=3, f=2, t=4, d=5, layers=1)
    with pytest.raises(ValueError, match="features"):
        features(np.zeros((4, 3, 1)), p)
    with pytest.raises(ValueError, match="nodes"):
        features(np.zeros((4, 2, 2)), p)


def test_identity_propagation_on_isolated_node():
    # N=1, T=1: normalized adjacency is [[1]]; with W=I and nonnegative h,
    # one layer is the identity.
    g = temporal_graph(RoadNetwork(1, ()), 1)
    p = encoder_params(n=1, f=1, t=1, d=3, layers=1)
    p["encoder.layer0"] = Tensor(np.eye(3))
    h = Tensor([[0.5, 0.0, 2.0]])
    out = convolve(h, g, p)
    np.testing.assert_array_equal(out.data, h.data)


def test_two_node_mean_row():
    # one directed edge 0->1, T=1: row 0 of the normalized adjacency is [.5, .5]
    g = temporal_graph(RoadNetwork(2, ((0, 1, 1.0),)), 1)
    p = encoder_params(n=2, f=1, t=1, d=2, layers=1)
    p["encoder.layer0"] = Tensor(np.eye(2))
    h = Tensor([[2.0, -4.0], [4.0, 6.0]])
    out = convolve(h, g, p)
    np.testing.assert_allclose(out.data[0], np.maximum((h.data[0] + h.data[1]) / 2, 0))
    np.testing.assert_allclose(out.data[1], np.maximum(h.data[1], 0))


def test_zero_state_is_fixed_point():
    rng = np.random.default_rng(0)
    g = temporal_graph(RoadNetwork(3, ((0, 1, 1.0), (1, 2, 2.0))), 4)
    p = encoder_params(3, 1, 4, 6, 3, rng)
    out = convolve(Tensor(np.zeros((12, 6))), g, p)
    np.testing.assert_array_equal(out.data, np.zeros((12, 6)))


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    n, t, d, f = 5, 3, 4, 2
    edges = tuple((u, v, float(rng.uniform(0.5, 2.0)))
                  for u in range(n) for v in range(n) if u != v and rng.random() < 0.4)
    net = RoadNetwork(n, edges)
    p = encoder_params(n, f, t, d, 2, rng)
    x = rng.normal(size=(t, n, f))

    out = convolve(features(x, p), temporal_graph(net, t), p).data

    perm = rng.permutation(n)
    net_p = RoadNetwork(n, tuple((int(perm[u]), int(perm[v]), w) for u, v, w in edges))
    p_perm = dict(p, **{"encoder.spatial": Tensor(p["encoder.spatial"].data[np.argsort(perm)])})
    x_p = np.empty_like(x)
    x_p[:, perm, :] = x
    out_p = convolve(features(x_p, p_perm), temporal_graph(net_p, t), p_perm).data

    # compare per time block under the permutation
    for step in range(t):
        block = out[step * n:(step + 1) * n]
        block_p = out_p[step * n:(step + 1) * n]
        assert np.max(np.abs(block_p[perm] - block)) < 1e-9


def test_locality_respects_hop_count():
    # path graph 0-1-2-3-4 (both directions), T=1: with 2 layers, node 0
    # cannot see a perturbation at node 4 but does see one at node 2.
    n = 5
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
    net = RoadNetwork(n, tuple(edges))
    g = temporal_graph(net, 1)
    rng = np.random.default_rng(6)
    p = encoder_params(n, 1, 1, 3, 2, rng)

    base = rng.normal(size=(1, n, 1))
    far, near = base.copy(), base.copy()
    far[0, 4, 0] += 10.0
    near[0, 2, 0] += 10.0

    out_base = convolve(features(base, p), g, p).data
    out_far = convolve(features(far, p), g, p).data
    out_near = convolve(features(near, p), g, p).data

    np.testing.assert_array_equal(out_far[0], out_base[0])
    assert np.any(out_near[0] != out_base[0])

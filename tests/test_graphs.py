import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperflow.graphs import (
    RoadNetwork,
    read_edge_csv,
    temporal_graph,
    write_edge_csv,
)


def random_net(rng, n, n_edges):
    """Random directed graph with zero diagonal and exactly n_edges edges."""
    pairs = set()
    while len(pairs) < n_edges:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((int(u), int(v)))
    return RoadNetwork(n, tuple((u, v, float(rng.uniform(0.1, 3.0))) for u, v in pairs))


def test_single_node_single_step_is_one_self_loop():
    g = temporal_graph(RoadNetwork(1, ()), 1)
    assert g.adjacency.toarray().tolist() == [[1.0]]


def test_two_node_two_step_enumeration():
    # N=2, A = [[0,1],[0,0]], T=2: 2 spatial copies + 4 self-loops + 2 temporal
    g = temporal_graph(RoadNetwork(2, ((0, 1, 1.0),)), 2)
    assert g.n_nodes == 4
    assert g.adjacency.nnz == 8
    dense = g.adjacency.toarray()
    expected = np.array([
        [1.0, 1.0, 1.0, 0.0],   # (t0,n0): self, spatial to n0->n1, forward to (t1,n0)
        [0.0, 1.0, 0.0, 1.0],   # (t0,n1): self, forward to (t1,n1)
        [0.0, 0.0, 1.0, 1.0],   # (t1,n0): self, spatial
        [0.0, 0.0, 0.0, 1.0],   # (t1,n1): self
    ])
    np.testing.assert_array_equal(dense, expected)


def test_pems08_sized_count():
    # 170 sensors, 295 directed edges, 12 steps
    rng = np.random.default_rng(8)
    net = random_net(rng, 170, 295)
    g = temporal_graph(net, 12)
    assert g.n_nodes == 2040
    assert g.adjacency.nnz == 12 * 295 + 170 * 12 + 170 * 11  # == 7450


def test_diagonal_input_edge_is_superseded_by_self_loop():
    net = RoadNetwork(2, ((0, 0, 5.0), (0, 1, 2.0)))
    g = temporal_graph(net, 1)
    dense = g.adjacency.toarray()
    assert dense[0, 0] == 1.0  # unit self-loop wins over A_00 = 5
    assert dense[0, 1] == 2.0
    assert g.adjacency.nnz == 3


def test_zero_weight_edge_adds_no_nonzero():
    g = temporal_graph(RoadNetwork(2, ((0, 1, 0.0),)), 1)
    assert g.adjacency.nnz == 2  # self-loops only


def test_invalid_arguments():
    with pytest.raises(ValueError):
        temporal_graph(RoadNetwork(2, ()), 0)
    with pytest.raises(ValueError):
        RoadNetwork(0, ())
    with pytest.raises(ValueError):
        RoadNetwork(2, ((0, 2, 1.0),))
    with pytest.raises(ValueError):
        RoadNetwork(2, ((0, 1, -1.0),))
    with pytest.raises(ValueError):
        RoadNetwork(2, ((0, 1, 1.0), (0, 1, 2.0)))


def test_normalize_rows():
    g = temporal_graph(RoadNetwork(3, ((0, 1, 1.0), (0, 2, 2.0))), 1)
    dense = g.normalized.toarray()
    np.testing.assert_allclose(dense[0], [0.25, 0.25, 0.5])
    np.testing.assert_allclose(dense[1], [0.0, 1.0, 0.0])  # isolated self-loop row


def test_normalize_rows_sum_to_one_pems08_sized():
    rng = np.random.default_rng(9)
    g = temporal_graph(random_net(rng, 170, 295), 12)
    sums = np.asarray(g.normalized.sum(axis=1)).ravel()
    assert np.max(np.abs(sums - 1.0)) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 50), st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
def test_nonzero_count_formula(n, t, seed):
    rng = np.random.default_rng(seed)
    max_edges = n * (n - 1)
    n_edges = int(rng.integers(0, min(max_edges, 3 * n) + 1))
    net = random_net(rng, n, n_edges) if n_edges else RoadNetwork(n, ())
    g = temporal_graph(net, t)
    assert g.adjacency.nnz == t * n_edges + n * t + n * (t - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_relabeling_permutes_blocks(n, t, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, n, min(2 * n, n * (n - 1)))
    perm = rng.permutation(n)
    permuted = RoadNetwork(n, tuple((int(perm[u]), int(perm[v]), w) for u, v, w in net.edges))

    g = temporal_graph(net, t).adjacency.toarray()
    gp = temporal_graph(permuted, t).adjacency.toarray()

    # block-consistent expansion of the node permutation across time steps
    full = np.concatenate([perm + s * n for s in range(t)])
    np.testing.assert_array_equal(gp[np.ix_(full, full)], g)


def test_edge_csv_round_trip(tmp_path):
    net = RoadNetwork(4, ((0, 1, 1.5), (2, 3, 0.25), (3, 0, 1.0)))
    path = tmp_path / "edges.csv"
    write_edge_csv(net, path)
    assert read_edge_csv(path, n_nodes=4) == list(net.edges)


def test_edge_csv_rejects_out_of_range_with_line_number(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\n0,1,1.0\n7,0,1.0\n")
    with pytest.raises(ValueError, match=":3"):
        read_edge_csv(path, n_nodes=3)


def test_edge_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("a,b,c\n0,1,1.0\n")
    with pytest.raises(ValueError, match="header"):
        read_edge_csv(path)

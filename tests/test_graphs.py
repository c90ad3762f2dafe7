import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperflow.graphs import (
    RoadNetwork,
    read_edge_csv,
    temporal_graph,
    write_edge_csv,
)
from reference_model import dense_adjacency


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
    assert g.normalized.toarray().tolist() == [[1.0]]


def test_two_node_two_step_enumeration():
    # N=2, A = [[0,1],[0,0]], T=2: 2 spatial copies + 4 self-loops + 2 temporal
    g = temporal_graph(RoadNetwork(2, ((0, 1, 1.0),)), 2)
    assert g.n_nodes == 4
    assert g.normalized.nnz == 8
    dense = g.normalized.toarray()
    expected = np.array([
        [1 / 3, 1 / 3, 1 / 3, 0.0],  # (t0,n0): self, spatial to n0->n1, forward to (t1,n0)
        [0.0, 0.5, 0.0, 0.5],        # (t0,n1): self, forward to (t1,n1)
        [0.0, 0.0, 0.5, 0.5],        # (t1,n0): self, spatial
        [0.0, 0.0, 0.0, 1.0],        # (t1,n1): self
    ])
    np.testing.assert_array_equal(dense, expected)


def test_pems08_sized_count():
    # 170 sensors, 295 directed edges, 12 steps
    rng = np.random.default_rng(8)
    net = random_net(rng, 170, 295)
    g = temporal_graph(net, 12)
    assert g.n_nodes == 2040
    assert g.normalized.nnz == 12 * 295 + 170 * 12 + 170 * 11  # == 7450


def test_diagonal_input_edge_is_superseded_by_self_loop():
    net = RoadNetwork(2, ((0, 0, 5.0), (0, 1, 2.0)))
    g = temporal_graph(net, 1)
    dense = g.normalized.toarray()
    assert dense[0].tolist() == [1 / 3, 2 / 3]  # unit self-loop wins over A_00 = 5
    assert g.normalized.nnz == 3


def test_zero_weight_edge_adds_no_nonzero():
    g = temporal_graph(RoadNetwork(2, ((0, 1, 0.0),)), 1)
    assert g.normalized.nnz == 2  # self-loops only


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


def scan_first_rejection(n, edges):
    """The per-edge scan: the message for the first offending edge, else None."""
    seen = set()
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) references a node outside [0,{n})"
        if not (np.isfinite(w) and (w == 0 or w >= np.finfo(float).tiny)):
            return f"edge ({u},{v}) has invalid weight {w}"
        if (u, v) in seen:
            return f"duplicate edge ({u},{v})"
        seen.add((u, v))
    return None


def rejection(n, edges):
    try:
        RoadNetwork(n, edges)
    except ValueError as err:
        return str(err)
    return None


@pytest.mark.parametrize("edges, message", [
    # a duplicate comes first, then an out-of-range node and a bad weight
    (((0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0), (5, 0, 1.0), (1, 0, -1.0)), "duplicate edge (0,1)"),
    # a bad weight comes first; a later edge repeats it
    (((0, 1, 1.0), (1, 0, float("nan")), (1, 0, 1.0), (0, 9, 1.0)), "edge (1,0) has invalid weight nan"),
    (((2, 1, float("inf")), (0, 1, -1.0)), "edge (2,1) has invalid weight inf"),
    # an out-of-range node comes first, on an edge whose weight is bad too
    (((0, 1, 1.0), (3, 0, -1.0), (0, 1, 1.0), (1, 1, -2.0)), "edge (3,0) references a node outside [0,3)"),
    (((-1, 0, 1.0), (0, -1, 1.0)), "edge (-1,0) references a node outside [0,3)"),
    # a subnormal weight would round to 0 in its normalized row
    (((0, 1, 1.0), (1, 0, 5e-324)), "edge (1,0) has invalid weight 5e-324"),
])
def test_road_network_reports_first_offending_edge(edges, message):
    assert scan_first_rejection(3, edges) == message
    with pytest.raises(ValueError) as err:
        RoadNetwork(3, edges)
    assert str(err.value) == message


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.lists(st.tuples(st.integers(-1, 4), st.integers(-1, 4),
                                             st.sampled_from([0.0, 0.5, 2.0, -1.0, 5e-324, float("nan"), float("inf")])),
                                   max_size=8))
def test_road_network_rejects_like_a_per_edge_scan(n, edges):
    assert rejection(n, edges) == scan_first_rejection(n, edges)


def test_road_network_normalizes_accepted_edges():
    net = RoadNetwork(np.int64(3), [(np.int64(0), 2.0, 1), (np.int32(1), np.int64(2), np.float32(0.5)),
                                    (2.0, np.float64(0.0), "1.25"), [1, 0, True]])
    assert net.edges == ((0, 2, 1.0), (1, 2, 0.5), (2, 0, 1.25), (1, 0, 1.0))
    assert all(type(x) is t for e in net.edges for x, t in zip(e, (int, int, float)))
    assert RoadNetwork(2, ()).edges == ()
    assert RoadNetwork(2, [(0, 1, 1.0)]) == RoadNetwork(2, ((0, 1, 1.0),))
    with pytest.raises(ValueError):
        RoadNetwork(2, ((0, 1),))


def sorted_within_rows(m):
    return all(np.all(np.diff(m.indices[m.indptr[r]:m.indptr[r + 1]]) > 0) for r in range(m.shape[0]))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4),
       st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_subnormal=False)), max_size=12))
def test_temporal_graph_matches_dense_reference(n, t, weights):
    edges = tuple((u, v, w) for (u, v), w in weights.items() if u < n and v < n)
    g = temporal_graph(RoadNetwork(n, edges), t)
    a = dense_adjacency(edges, n, t)
    stored = np.zeros_like(a, dtype=bool)
    stored[g.normalized.nonzero()] = True
    np.testing.assert_array_equal(stored, a != 0)
    assert np.all(g.normalized.data > 0)
    expected = np.zeros_like(a)
    for r in range(n * t):
        total = 0.0
        for x in a[r]:  # left to right, as a row of the CSR is summed
            total += x
        expected[r] = (1.0 / total) * a[r]
    norm = g.normalized.toarray()
    np.testing.assert_array_equal(norm, expected)
    assert g.normalized.has_sorted_indices and sorted_within_rows(g.normalized)
    np.testing.assert_array_equal(g.normalized_t.toarray(), norm.T)


def test_transpose_is_a_view_of_the_normalized_matrix():
    g = temporal_graph(RoadNetwork(3, ((0, 1, 1.0), (0, 2, 2.0), (2, 1, 0.5))), 4)
    np.testing.assert_array_equal(g.normalized_t.toarray(), g.normalized.toarray().T)
    assert np.shares_memory(g.normalized_t.data, g.normalized.data)


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
    assert g.normalized.nnz == t * n_edges + n * t + n * (t - 1)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_relabeling_permutes_blocks(n, t, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng, n, min(2 * n, n * (n - 1)))
    perm = rng.permutation(n)
    permuted = RoadNetwork(n, tuple((int(perm[u]), int(perm[v]), w) for u, v, w in net.edges))

    g = temporal_graph(net, t).normalized.toarray()
    gp = temporal_graph(permuted, t).normalized.toarray()

    # block-consistent expansion of the node permutation across time steps
    full = np.concatenate([perm + s * n for s in range(t)])
    moved = gp[np.ix_(full, full)]
    np.testing.assert_array_equal(moved != 0, g != 0)
    # relabeling reorders each row's sum, so the weights agree to rounding only
    np.testing.assert_allclose(moved, g, rtol=1e-14, atol=0)


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


def test_edge_csv_skips_blank_lines_and_ignores_extra_columns(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight,note\n\n0,1,1.5,a\n\n2,0,0.25,b,c\n")
    assert read_edge_csv(path, n_nodes=3) == [(0, 1, 1.5), (2, 0, 0.25)]
    assert all(type(x) is t for e in read_edge_csv(path) for x, t in zip(e, (int, int, float)))


@pytest.mark.parametrize("body, message", [
    ("0,1,1.0\n\n1,1.5,2.0\n", r"edges\.csv:4: malformed edge row \['1', '1\.5', '2\.0'\]"),
    ("0,1,1.0\n1,x,2.0\n", r"edges\.csv:3: malformed edge row"),
    ("0,1\n", r"edges\.csv:2: malformed edge row"),
    ("0,1,1.0\n\n\n1,3,2.0\n", r"edges\.csv:5: edge \(1,3\) references a node >= 3"),
    ("0,1,1.0\n2,-1,2.0\n0,7,1.0\n", r"edges\.csv:3: edge \(2,-1\) references a node >= 3"),
])
def test_edge_csv_rejects_rows_with_line_number(tmp_path, body, message):
    path = tmp_path / "edges.csv"
    path.write_text("from,to,weight\n" + body)
    with pytest.raises(ValueError, match=message):
        read_edge_csv(path, n_nodes=3)


def test_edge_csv_checks_header_of_empty_file(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="header"):
        read_edge_csv(path)
    path.write_text("from,to,weight\n\n")
    assert read_edge_csv(path) == []

import numpy as np

from hyperflow.autodiff import Tensor, absolute, finite_difference_check, mean_all, sub
from hyperflow.hyperedges import (
    hyperedge_embeddings,
    hypergraph_block,
    learn_incidence,
    nodes_from_hyperedges,
    write_incidence_csv,
)


def params_from(factor, relations):
    return Tensor(factor), Tensor(relations)


def test_incidence_zero_state():
    p = params_from(np.ones((3, 2)), np.zeros((2, 2)))
    lam = learn_incidence(Tensor(np.zeros((5, 3))), p[0])
    np.testing.assert_array_equal(lam.data, np.zeros((5, 2)))


def test_incidence_identity_factor():
    h = np.random.default_rng(0).normal(size=(4, 3))
    p = params_from(np.eye(3), np.zeros((3, 3)))
    np.testing.assert_array_equal(learn_incidence(Tensor(h), p[0]).data, h)


def test_incidence_matmul_case():
    p = params_from(np.array([[2.0, 3.0], [4.0, 5.0]]), np.zeros((2, 2)))
    lam = learn_incidence(Tensor(np.eye(2)), p[0])
    np.testing.assert_array_equal(lam.data, [[2.0, 3.0], [4.0, 5.0]])


def test_hyperedge_embeddings_residual_only_when_relations_zero():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(6, 3))
    lam = rng.normal(size=(6, 2))
    p = params_from(rng.normal(size=(3, 2)), np.zeros((2, 2)))
    e = hyperedge_embeddings(Tensor(h), Tensor(lam), p[1])
    np.testing.assert_allclose(e.data, lam.T @ h)


def test_hyperedge_embeddings_zero_incidence():
    p = params_from(np.zeros((3, 1)), np.ones((1, 1)))
    e = hyperedge_embeddings(Tensor(np.ones((4, 3))), Tensor(np.zeros((4, 1))), p[1])
    np.testing.assert_array_equal(e.data, np.zeros((1, 3)))


def test_hyperedge_embeddings_hand_case_with_relu():
    # single hyperedge: pooled = [-2, 3], relations = [[1]]
    # embedding = relu([-2, 3]) + [-2, 3] = [-2, 6]
    h = np.array([[-2.0, 3.0]])
    lam = np.array([[1.0]])
    p = params_from(np.zeros((2, 1)), np.array([[1.0]]))
    e = hyperedge_embeddings(Tensor(h), Tensor(lam), p[1])
    np.testing.assert_array_equal(e.data, [[-2.0, 6.0]])


def test_nodes_from_hyperedges_selection():
    lam = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    edges = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = nodes_from_hyperedges(Tensor(lam), Tensor(edges))
    np.testing.assert_array_equal(out.data, [[5.0, 6.0], [7.0, 8.0], [5.0, 6.0]])


def test_nodes_from_hyperedges_weighted():
    out = nodes_from_hyperedges(Tensor([[1.0], [2.0]]), Tensor([[1.0, 1.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 1.0], [2.0, 2.0]])


def test_block_single_layer_is_composition():
    rng = np.random.default_rng(2)
    h = Tensor(rng.normal(size=(5, 3)))
    p = params_from(rng.normal(size=(3, 2)), rng.normal(size=(2, 2)))
    lam = learn_incidence(h, p[0])
    direct = nodes_from_hyperedges(lam, hyperedge_embeddings(h, lam, p[1]))
    block = hypergraph_block(h, *p, n_layers=1)
    np.testing.assert_array_equal(block.data, direct.data)


def test_block_zero_state_fixed_point():
    rng = np.random.default_rng(3)
    p = params_from(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)))
    out = hypergraph_block(Tensor(np.zeros((7, 4))), *p, n_layers=3)
    np.testing.assert_array_equal(out.data, np.zeros((7, 4)))


def test_block_two_layers_matches_straight_line_reference():
    rng = np.random.default_rng(4)
    h0 = rng.normal(size=(3, 3))
    w = rng.normal(size=(3, 2))
    u = rng.normal(size=(2, 2))

    # independent re-evaluation: incidence refreshed from the evolving state
    cur = h0
    for _ in range(2):
        lam = cur @ w
        pooled = lam.T @ cur
        edges = np.maximum(u @ pooled, 0.0) + pooled
        cur = lam @ edges

    out = hypergraph_block(Tensor(h0), *params_from(w, u), n_layers=2)
    np.testing.assert_allclose(out.data, cur, atol=1e-12)


def test_block_row_permutation_equivariance():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(8, 4))
    p = params_from(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)))
    perm = rng.permutation(8)
    out = hypergraph_block(Tensor(h), *p, n_layers=2).data
    out_p = hypergraph_block(Tensor(h[perm]), *p, n_layers=2).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_incidence_is_low_rank():
    # more rows than either factor dimension: rank <= min(d, I)
    rng = np.random.default_rng(6)
    d, n_edges, rows = 3, 5, 12
    h = rng.normal(size=(rows, d))
    p = params_from(rng.normal(size=(d, n_edges)), np.zeros((n_edges, n_edges)))
    lam = learn_incidence(Tensor(h), p[0]).data
    singular = np.linalg.svd(lam, compute_uv=False)
    assert singular[min(d, n_edges)] < 1e-9 * singular[0]


def test_block_gradient_check():
    rng = np.random.default_rng(7)
    h = Tensor(rng.normal(size=(5, 3)))
    target = Tensor(rng.normal(size=(5, 3)))
    factor = rng.normal(size=(3, 2))
    relations = rng.normal(size=(2, 2))

    def f(p):
        return mean_all(absolute(sub(hypergraph_block(h, p, Tensor(relations), 2), target)))

    assert finite_difference_check(f, Tensor(factor)) < 1e-4

    def f2(p):
        return mean_all(absolute(sub(hypergraph_block(h, Tensor(factor), p, 2), target)))

    assert finite_difference_check(f2, Tensor(relations)) < 1e-4


def test_capture_collects_one_incidence_per_layer():
    rng = np.random.default_rng(8)
    h = Tensor(rng.normal(size=(4, 3)))
    p = params_from(rng.normal(size=(3, 2)), rng.normal(size=(2, 2)))
    captured = []
    hypergraph_block(h, *p, n_layers=3, capture=captured)
    assert len(captured) == 3
    assert all(c.shape == (4, 2) for c in captured)
    np.testing.assert_array_equal(captured[0], (h.data @ p[0].data))


def test_incidence_csv_shape_and_values(tmp_path):
    lam = np.arange(12.0).reshape(6, 2)  # T=3, N=2, I=2
    path = tmp_path / "incidence.csv"
    write_incidence_csv(lam, t_steps=3, n_nodes=2, path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,node,hyperedge,value"
    assert len(lines) == 1 + 12
    assert lines[1] == "0,0,0,0.0"
    assert lines[-1] == "2,1,1,11.0"


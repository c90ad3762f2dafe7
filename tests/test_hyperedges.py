import csv
import io

import numpy as np
import pytest

from hyperflow.autodiff import Tensor, finite_difference_check
from hyperflow.hyperedges import community_cosines, hypergraph_block, write_incidence_csv
from hyperflow.training import mae_loss


def params_from(factor, relations):
    return Tensor(factor), Tensor(relations)


def one_layer(h, factor, relations):
    """Output and captured incidence of a single hypergraph layer."""
    captured = []
    out = hypergraph_block(Tensor(h), *params_from(factor, relations), capture=captured)
    return out.data, captured[0]


def test_incidence_zero_state():
    _, lam = one_layer(np.zeros((5, 3)), np.ones((3, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(lam, np.zeros((5, 2)))


def test_incidence_identity_factor():
    h = np.random.default_rng(0).normal(size=(4, 3))
    np.testing.assert_array_equal(one_layer(h, np.eye(3), np.zeros((3, 3)))[1], h)


def test_incidence_matmul_case():
    _, lam = one_layer(np.eye(2), np.array([[2.0, 3.0], [4.0, 5.0]]), np.zeros((2, 2)))
    np.testing.assert_array_equal(lam, [[2.0, 3.0], [4.0, 5.0]])


def test_hyperedge_embeddings_residual_only_when_relations_zero():
    # U = 0 leaves E = lam^T h, so the layer is lam (lam^T h)
    rng = np.random.default_rng(1)
    h = rng.normal(size=(6, 3))
    out, lam = one_layer(h, rng.normal(size=(3, 2)), np.zeros((2, 2)))
    np.testing.assert_allclose(out, lam @ (lam.T @ h))


def test_hyperedge_embeddings_zero_incidence():
    out, lam = one_layer(np.ones((4, 3)), np.zeros((3, 1)), np.ones((1, 1)))
    np.testing.assert_array_equal(lam, np.zeros((4, 1)))
    np.testing.assert_array_equal(out, np.zeros((4, 3)))


def test_hyperedge_embeddings_hand_case_with_relu():
    # single hyperedge with membership 1: pooled = [-2, 3], relations = [[1]]
    # embedding = relu([-2, 3]) + [-2, 3] = [-2, 6], and the node gets it back
    out, lam = one_layer(np.array([[-2.0, 3.0]]), np.array([[-0.5], [0.0]]), np.array([[1.0]]))
    np.testing.assert_array_equal(lam, [[1.0]])
    np.testing.assert_array_equal(out, [[-2.0, 6.0]])


def test_nodes_from_hyperedges_selection():
    # one-hot memberships: nodes 0 and 2 share hyperedge 0 and get its row,
    # node 1 gets hyperedge 1's row; with U = 0 the rows are lam^T h
    h = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    out, lam = one_layer(h, np.eye(2), np.zeros((2, 2)))
    np.testing.assert_array_equal(lam, h)
    np.testing.assert_array_equal(out, [[2.0, 0.0], [0.0, 1.0], [2.0, 0.0]])


def test_nodes_from_hyperedges_weighted():
    # memberships 1 and 2 in one hyperedge whose row is 1*[1, 0] + 2*[2, 0]
    out, lam = one_layer(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([[1.0], [0.0]]),
                         np.zeros((1, 1)))
    np.testing.assert_array_equal(lam, [[1.0], [2.0]])
    np.testing.assert_array_equal(out, [[5.0, 0.0], [10.0, 0.0]])


def test_block_single_layer_is_composition():
    # the same products in the same order as the straight-line composition, so the same bits
    rng = np.random.default_rng(2)
    h, w, u = rng.normal(size=(5, 3)), rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
    lam = h @ w
    pooled = lam.T.copy() @ h
    direct = lam @ (np.maximum(u @ pooled, 0.0) + pooled)
    out, captured = one_layer(h, w, u)
    np.testing.assert_array_equal(captured, lam)
    np.testing.assert_array_equal(out, direct)


def test_block_zero_state_fixed_point():
    rng = np.random.default_rng(3)
    p = params_from(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)))
    out = hypergraph_block(Tensor(np.zeros((7, 4))), *p)
    np.testing.assert_array_equal(out.data, np.zeros((7, 4)))


def test_block_row_permutation_equivariance():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(8, 4))
    p = params_from(rng.normal(size=(4, 3)), rng.normal(size=(3, 3)))
    perm = rng.permutation(8)
    out = hypergraph_block(Tensor(h), *p).data
    out_p = hypergraph_block(Tensor(h[perm]), *p).data
    np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


def test_incidence_is_low_rank():
    # more rows than either factor dimension: rank <= min(d, I)
    rng = np.random.default_rng(6)
    d, n_edges, rows = 3, 5, 12
    h = rng.normal(size=(rows, d))
    lam = one_layer(h, rng.normal(size=(d, n_edges)), np.zeros((n_edges, n_edges)))[1]
    singular = np.linalg.svd(lam, compute_uv=False)
    assert singular[min(d, n_edges)] < 1e-9 * singular[0]


def test_block_gradient_check():
    rng = np.random.default_rng(7)
    h = Tensor(rng.normal(size=(5, 3)))
    target = Tensor(rng.normal(size=(5, 3)))
    factor = rng.normal(size=(3, 2))
    relations = rng.normal(size=(2, 2))

    def f(p):
        return mae_loss(hypergraph_block(h, p, Tensor(relations)), target)

    assert finite_difference_check(f, Tensor(factor)) < 1e-4

    def f2(p):
        return mae_loss(hypergraph_block(h, Tensor(factor), p), target)

    assert finite_difference_check(f2, Tensor(relations)) < 1e-4


def test_capture_collects_one_incidence_per_layer():
    # chained layers, as the model's block iterations run them: each call
    # appends the incidence of its own input state
    rng = np.random.default_rng(8)
    h = Tensor(rng.normal(size=(4, 3)))
    p = params_from(rng.normal(size=(3, 2)), rng.normal(size=(2, 2)))
    captured, states = [], [h]
    for _ in range(3):
        states.append(hypergraph_block(states[-1], *p, capture=captured))
    assert len(captured) == 3
    for lam, state in zip(captured, states):
        np.testing.assert_array_equal(lam, state.data @ p[0].data)


def test_incidence_csv_shape_and_values(tmp_path):
    lam = np.arange(12.0).reshape(6, 2)  # T=3, N=2, I=2
    path = tmp_path / "incidence.csv"
    write_incidence_csv(lam, t_steps=3, n_nodes=2, path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,node,hyperedge,value"
    assert len(lines) == 1 + 12
    assert lines[1] == "0,0,0,0.0"
    assert lines[-1] == "2,1,1,11.0"



def test_incidence_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(4)
    lam = rng.normal(size=(3 * 5, 4)) * np.logspace(-12, 12, 4)  # T=3, N=5, I=4
    lam[0, 0] = -0.0
    path = tmp_path / "incidence.csv"
    write_incidence_csv(lam, t_steps=3, n_nodes=5, path=path)

    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["t", "node", "hyperedge", "value"])
    for t in range(3):
        for i in range(5):
            for e, value in enumerate(lam[t * 5 + i]):
                writer.writerow([t, i, e, repr(float(value))])
    assert path.read_bytes() == expected.getvalue().encode()


def test_community_cosines_of_two_planted_groups():
    lam = np.array([[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]])  # one step, 3 nodes
    assert community_cosines(lam, [0, 0, 1]) == (1.0, 0.0)


@pytest.mark.parametrize("membership", [[0, 0, 0], [0, 1, 2]], ids=["one_community", "no_shared"])
def test_community_cosines_reject_an_empty_group(membership):
    with pytest.raises(ValueError, match="within a community and one across"):
        community_cosines(np.ones((2, 3, 2)), membership)

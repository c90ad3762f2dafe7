from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperflow.autodiff as ad
from hyperflow.autodiff import NumericError, ShapeError, Tape, Tensor, finite_difference_check
from hyperflow.encoder import encoder_layer
from hyperflow.graphs import RoadNetwork, temporal_graph
from hyperflow.hyperedges import hypergraph_layer
from hyperflow.interaction import interaction_block
from hyperflow.model import Forecaster, ModelConfig, average
from hyperflow.oracles import check_op_gradients
from hyperflow.training import TrainConfig, fit


# ---------------------------------------------------------------------------
# op examples


def test_matmul_identity():
    out = ad.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(out.data, [[2.0, 1.0], [4.0, 3.0]])


def test_matmul_annihilator():
    out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.arange(12.0).reshape(3, 4)))
    np.testing.assert_array_equal(out.data, np.zeros((2, 4)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_hadamard_examples():
    np.testing.assert_array_equal(
        ad.hadamard(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 1.0, 1.0])).data, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(
        ad.hadamard(Tensor([1.0, 2.0]), Tensor([3.0, -4.0])).data, [3.0, -8.0])
    np.testing.assert_array_equal(
        ad.hadamard(Tensor([5.0, -1.0]), Tensor([0.0, 0.0])).data, [0.0, 0.0])
    with pytest.raises(ShapeError):
        ad.hadamard(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_relu_examples():
    np.testing.assert_array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(ad.relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])


def test_relu_gradient_signs():
    x = Tensor([-1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.relu(x))
    tape.backward(loss)
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


# ---------------------------------------------------------------------------
# backward contracts


def test_backward_linear_loss_gradient_is_input():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    x = Tensor(rng.normal(size=(4, 2)))
    with Tape() as tape:
        loss = ad.sum_all(ad.matmul(w, x))
    tape.backward(loss)
    # d/dW sum(Wx) = row-broadcast of the column sums of x
    np.testing.assert_allclose(w.grad, np.tile(x.data.sum(axis=1), (3, 1)))


def test_backward_unused_parameter_gets_no_gradient():
    used = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([5.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.hadamard(used, used))
        side = ad.scale(unused, 2.0)  # recorded but not part of the loss
    tape.backward(loss)
    assert unused.grad is None
    assert side.grad is None


def test_backward_zero_residual_mae_has_zero_gradient():
    y = np.array([1.0, -2.0, 3.0])
    pred = Tensor(y.copy(), requires_grad=True)
    with Tape() as tape:
        loss = ad.mean_all(ad.absolute(ad.sub(pred, Tensor(y))))
    tape.backward(loss)
    np.testing.assert_array_equal(pred.grad, np.zeros(3))


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        out = ad.scale(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(out)


def test_backward_twice_without_reset_is_an_error():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(x)
    tape.backward(loss)
    with pytest.raises(RuntimeError, match="already ran"):
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [1.0])  # the refused pass added nothing


def test_backward_rejects_loss_from_other_tape():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(x)
    other = Tape()
    with other:
        ad.scale(x, 1.0)
    with pytest.raises(ValueError, match="not a node"):
        other.backward(loss)


def test_tape_topological_order_invariant():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    with Tape() as tape:
        b = ad.matmul(a, a)
        c = ad.add(b, b)
        ad.sum_all(ad.hadamard(c, b))
    position = {id(node): i for i, node in enumerate(tape.nodes)}
    for i, node in enumerate(tape.nodes):
        for parent in node.parents:
            if id(parent) in position:
                assert position[id(parent)] < i


def test_backward_gradient_shapes_match_values():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    with Tape() as tape:
        loss = ad.mean_all(ad.relu(ad.matmul(a, Tensor(rng.normal(size=(3, 2))))))
    tape.backward(loss)
    for node in tape.nodes:
        assert node.grad is not None and node.grad.shape == node.data.shape


def test_untaped_ops_record_no_graph():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    v = Tensor(rng.normal(size=(2,)), requires_grad=True)
    graph = temporal_graph(RoadNetwork(2, ((0, 1, 1.0),)), 3)
    outs = [
        ad.matmul(x, w), ad.sparse_matmul(graph.normalized, x, graph.normalized_t),
        ad.hadamard(x, x), ad.add(x, x), ad.add(x, v), ad.sub(x, x), ad.scale(x, 2.0),
        ad.relu(x), ad.absolute(x), ad.mean_all(x), ad.sum_all(x), ad.transpose(x),
        ad.concat_cols(x, x), ad.slice_rows(x, 1, 3), ad.tile_rows(x, 2), ad.repeat_rows(x, 2),
        ad.window_max_rows(x, 1, 3, 2), ad.window_max_rows(x, 3, 3, 2),
        ad.mean_over_time(x, 3, 2), ad.softmax_vec(v), ad.linear_combination([x, x], v),
        encoder_layer(x, graph, w), hypergraph_layer(x, w, w), interaction_block(x, graph, w, w, w),
        average(x, x),
    ]
    for out in outs:
        assert out.parents == () and out._vjp is None, out.op

    const = ad.matmul(x, w)  # used inside a tape, it is a constant
    with Tape() as tape:
        loss = ad.sum_all(ad.hadamard(const, ad.scale(const, 1.0)))
    tape.backward(loss)
    assert x.grad is None and w.grad is None and const.grad is None
    assert [node.op for node in tape.nodes] == ["scale", "hadamard", "sum_all"]


def test_backward_shared_gradients_are_never_written_in_place():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    with Tape() as tape:
        y = ad.scale(x, 1.0)
        doubled = ad.add(y, y)
        total = ad.add(doubled, x)  # the leaf's first contribution is a shared array
        loss = ad.sum_all(total)
    tape.backward(loss)
    np.testing.assert_array_equal(y.grad, np.full((2, 3), 2.0))
    np.testing.assert_array_equal(doubled.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(total.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))
    before = [node.grad.copy() for node in tape.nodes]
    x.grad += 100.0
    x.grad[0, 0] = -1.0
    for node, grad in zip(tape.nodes, before):
        np.testing.assert_array_equal(node.grad, grad)


@pytest.mark.parametrize("window", [1, 2, 3, 6])
def test_window_max_gradient_goes_to_earliest_maximizer(window):
    rng = np.random.default_rng(window)
    t, n, d = 6, 3, 4
    a = rng.integers(0, 3, size=(t * n, d)).astype(float)  # many tied maxima
    g = rng.normal(size=(t // window * n, d))
    x = Tensor(a, requires_grad=True)
    with Tape() as tape:
        loss = ad.sum_all(ad.hadamard(ad.window_max_rows(x, window, t, n), Tensor(g)))
    tape.backward(loss)
    expected = np.zeros_like(a)
    for b in range(t // window):
        for i in range(n):
            for c in range(d):
                rows = [(b * window + j) * n + i for j in range(window)]
                earliest = max(rows, key=lambda r: a[r, c])  # max() keeps the first of equals
                expected[earliest, c] = g[b * n + i, c]
    np.testing.assert_array_equal(x.grad, expected)
    assert not np.any(np.signbit(x.grad) & (x.grad == 0))  # no -0.0 from a masked product


def test_nan_input_rejected_at_construction():
    with pytest.raises(NumericError):
        Tensor([1.0, float("nan")])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_finite_values_whose_sum_overflows_are_accepted():
    big = Tensor(np.full(18, 1e308))  # every entry finite, the sum is not
    np.testing.assert_array_equal(ad.scale(big, 1.0).data, big.data)
    with pytest.raises(NumericError, match="produced by scale"):
        ad.scale(big, 10.0)


def test_nan_gradient_identifies_op(monkeypatch):
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        mid = ad.scale(x, 2.0)
        loss = ad.sum_all(mid)
    mid._vjp = lambda g: (g * np.nan,)  # inject a broken backward rule
    with pytest.raises(NumericError, match="scale"):
        tape.backward(loss)


def _fused_case(op, rng, h_scale=1e-3, w_scale=1.0):
    """(function of the inputs, inputs, index of the weight) for one fused op.

    Inputs are positive, so every relu inside the op is on.  At the default
    scales, 2e308 times any output entry is finite."""
    graph = temporal_graph(RoadNetwork(3, ((0, 1, 1.0), (1, 2, 0.5))), 2)
    h = Tensor(rng.uniform(0.5, 1.5, size=(6, 3)) * h_scale, requires_grad=True)

    def weight(*shape):
        return Tensor(rng.uniform(0.5, 1.5, size=shape) * w_scale, requires_grad=True)

    if op == "encoder_layer":
        return (lambda h, w: encoder_layer(h, graph, w)), [h, weight(3, 3)], 1
    if op == "hypergraph_layer":
        return hypergraph_layer, [h, weight(3, 2), weight(2, 2)], 1
    if op == "interaction_block":
        return ((lambda h, *w: interaction_block(h, graph, *w)),
                [h, weight(3, 3), weight(3, 3), weight(3, 3)], 3)
    return average, [h, Tensor(rng.uniform(0.5, 1.5, size=(6, 3)) * h_scale, requires_grad=True)], 1


def _backward_of(fn, inputs, upstream, twice=False):
    """Run backward of sum(out * upstream), or of sum((out + out) * upstream)."""
    with Tape() as tape:
        out = fn(*inputs)
        loss = ad.sum_all(ad.hadamard(ad.add(out, out) if twice else out, Tensor(upstream)))
    tape.backward(loss)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("op, param", [
    ("encoder_layer", "encoder.layer0"), ("hypergraph_layer", "scale1.hyper.factor"),
    ("interaction_block", "scale1.inter.through"), ("average", None),
])
def test_nonfinite_inside_fused_op_identifies_op(op, param):
    rng = np.random.default_rng(len(op))
    # forward: a non-finite weight (the second input of average)
    fn, inputs, k = _fused_case(op, rng)
    inputs[k].data = inputs[k].data.copy()
    inputs[k].data[0, 0] = np.nan
    with pytest.raises(NumericError, match=f"produced by {op}"):
        fn(*inputs)
    upstream = np.zeros((6, 3))
    # backward, inside the op's vjp: small states and large weights give a
    # finite output and a gradient entry of 1e307 times the weights, which
    # overflows (average only halves its gradient, so it cannot)
    if op != "average":
        fn, inputs, _ = _fused_case(op, rng, h_scale=1e-4, w_scale=1e3)
        upstream[0, 0] = 1e307
        with pytest.raises(NumericError, match=f"backward of {op}$"):
            _backward_of(fn, inputs, upstream)
    # backward, in the sum of two contributions: add hands 1e308 twice to one
    # entry of the op's output gradient
    fn, inputs, _ = _fused_case(op, rng)
    upstream[0, 0] = 1e308
    with pytest.raises(NumericError, match=f"backward of add summed into the gradient of {op}$"):
        _backward_of(fn, inputs, upstream, twice=True)
    if param is None:
        return  # no model weight feeds only this op
    # fit names the epoch and the batch around the op's error
    sig = rng.normal(size=(8, 3, 1))
    cfg = ModelConfig(n_nodes=3, lookback=4, horizon=2, width=4, n_hyperedges=2, windows=(1,),
                      encoder_layers=1, scale_iters=1)
    model = Forecaster(cfg, RoadNetwork(3, ((0, 1, 1.0),)), seed=0)
    model.params[param].data = np.full(model.params[param].shape, np.inf)
    samples = [SimpleNamespace(input=sig[i:i + 4], target=sig[i + 4:i + 6, :, 0]) for i in range(3)]
    with pytest.raises(RuntimeError, match=f"epoch 0, batch 0: .*produced by {op}"):
        fit(model, samples, [], TrainConfig(epochs=1, batch_size=2, seed=0))


# ---------------------------------------------------------------------------
# finite differences


def test_fd_check_quadratic():
    err = finite_difference_check(lambda p: ad.sum_all(ad.hadamard(p, p)), Tensor([3.0]))
    assert err < 1e-8


def test_fd_check_constant_function():
    c = Tensor([7.0])
    err = finite_difference_check(lambda p: ad.sum_all(c), Tensor([1.0, 2.0]))
    assert err < 1e-8


OP_GRADIENTS = {result.name: result for result in check_op_gradients(seed=0)}


@pytest.mark.parametrize("op_name", list(OP_GRADIENTS))
def test_fd_check_each_op(op_name):
    result = OP_GRADIENTS[op_name]
    assert result.passed, result.line()


# ---------------------------------------------------------------------------
# algebraic properties


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(2, 6), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_matmul_associativity(m, k, l, n, seed):
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(size=(m, k)), rng.normal(size=(k, l)), rng.normal(size=(l, n))
    left = ad.matmul(ad.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
    right = ad.matmul(Tensor(a), ad.matmul(Tensor(b), Tensor(c))).data
    assert np.max(np.abs(left - right)) < 1e-9


def test_backward_linearity_over_loss_sum():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(3, 3))
    x1 = Tensor(rng.normal(size=(3, 2)))
    x2 = Tensor(rng.normal(size=(3, 2)))

    def grad_of(fn):
        w = Tensor(base.copy(), requires_grad=True)
        with Tape() as tape:
            loss = fn(w)
        tape.backward(loss)
        return w.grad

    g1 = grad_of(lambda w: ad.sum_all(ad.matmul(w, x1)))
    g2 = grad_of(lambda w: ad.sum_all(ad.relu(ad.matmul(w, x2))))
    g_sum = grad_of(lambda w: ad.add(ad.sum_all(ad.matmul(w, x1)),
                                     ad.sum_all(ad.relu(ad.matmul(w, x2)))))
    np.testing.assert_allclose(g_sum, g1 + g2, atol=1e-12)


def test_gradient_accumulates_across_tapes():
    x = Tensor([2.0], requires_grad=True)
    for _ in range(3):
        with Tape() as tape:
            loss = ad.sum_all(ad.scale(x, 5.0))
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [15.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_softmax_normalizes(n_pre, extra, seed):
    rng = np.random.default_rng(seed)
    w = ad.softmax_vec(Tensor(rng.normal(size=n_pre + extra) * 3)).data
    assert abs(w.sum() - 1.0) < 1e-12
    assert np.all(w >= 0)

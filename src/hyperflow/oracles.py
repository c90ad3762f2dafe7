"""Self-contained verification oracles behind the `verify` command.

Each family checks one algebraic or structural property against an
independent reference: gradients against central differences, the
factorized interaction against the explicit pair sum, graph construction
against the counting rule, and so on.  Every oracle is seeded and prints
its observed error next to its tolerance, so a regression is visible as a
number, not just a boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, finite_difference_check
from .encoder import encoder_layer
from .graphs import RoadNetwork, temporal_graph
from .hyperedges import hypergraph_layer
from .interaction import interaction_block
from .model import Forecaster, ModelConfig, average
from .training import Adam, mae_loss


@dataclass(frozen=True)
class OracleResult:
    family: str
    name: str
    tolerance: float
    observed: float

    @property
    def passed(self) -> bool:
        return self.observed < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.family}/{self.name}: observed={self.observed:.3e} tolerance={self.tolerance:.1e}"


def _random_net(rng: np.random.Generator, n: int, density: float = 0.35) -> RoadNetwork:
    edges = [(u, v, float(rng.uniform(0.5, 2.0)))
             for u in range(n) for v in range(n)
             if u != v and rng.random() < density]
    return RoadNetwork(n, tuple(edges))


def _live_path_model(rng: np.random.Generator, n: int = 4, lookback: int = 6,
                     horizon: int = 3) -> tuple[Forecaster, np.ndarray, np.ndarray]:
    """A small model at a point where every activation path is live.

    Strictly positive parameters and inputs keep all relu units on, and
    targets offset below the prediction keep the MAE residuals away from
    their kink, so central differences see a smooth function.  This
    mirrors the kink-avoidance rule used for the per-op checks.
    """
    net = _random_net(rng, n)
    cfg = ModelConfig(n_nodes=n, n_features=1, lookback=lookback, horizon=horizon,
                      width=6, n_hyperedges=3, windows=(1, 2), encoder_layers=1,
                      scale_iters=1)
    model = Forecaster(cfg, net, seed=int(rng.integers(1 << 30)))
    for _, t in model.named_parameters():
        t.data = np.abs(t.data) + 0.01
    x = rng.uniform(0.5, 1.5, size=(lookback, n, 1))
    y = model.predict(x) - rng.uniform(0.5, 1.5, size=(horizon, n))
    return model, x, y


# ---------------------------------------------------------------------------
# Families


def check_op_gradients(seed: int) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    tol = 1e-4
    results = []

    def kink_free(shape):
        v = rng.normal(size=shape)
        while np.any(np.abs(v) < 1e-3):
            v = rng.normal(size=shape)
        return v

    # Constants are materialized up front: f must be a deterministic
    # function of the checked tensor alone.
    b = Tensor(rng.normal(size=(4, 3)))
    c5 = Tensor(rng.normal(size=(5,)))
    c24 = Tensor(rng.normal(size=(2, 4)))
    c63 = Tensor(rng.normal(size=(6, 3)))
    sp_graph = temporal_graph(_random_net(rng, 3), 2)
    cases = {
        "matmul": (lambda p: ad.sum_all(ad.hadamard(ad.matmul(p, b), ad.matmul(p, b))), rng.normal(size=(3, 4))),
        "hadamard": (lambda p: ad.sum_all(ad.hadamard(p, c5)), rng.normal(size=(5,))),
        "relu": (lambda p: ad.sum_all(ad.hadamard(ad.relu(p), ad.relu(p))), kink_free((4, 4))),
        "absolute": (lambda p: ad.mean_all(ad.absolute(p)), kink_free((6,))),
        "softmax": (lambda p: ad.sum_all(ad.hadamard(ad.softmax_vec(p), c5)), rng.normal(size=(5,))),
        "window_max": (lambda p: ad.mean_all(ad.window_max_rows(p, 2, 4, 3)), kink_free((12, 2))),
        "mean_over_time": (lambda p: ad.sum_all(ad.hadamard(ad.mean_over_time(p, 3, 2), c24)), rng.normal(size=(6, 4))),
        "tile_repeat": (lambda p: ad.mean_all(ad.concat_cols(ad.tile_rows(p, 3), ad.repeat_rows(p, 3))), rng.normal(size=(2, 3))),
        "slice_rows": (lambda p: ad.mean_all(ad.slice_rows(p, 1, 3)), rng.normal(size=(5, 2))),
        "sparse_matmul": (lambda p: ad.sum_all(ad.hadamard(
            ad.sparse_matmul(sp_graph.normalized, p, sp_graph.normalized_t), c63)),
            rng.normal(size=(6, 3))),
    }

    # The fused block ops, by their state input.  Positive states and
    # weights keep every relu inside them on, as in _live_path_model.
    def live(*shape):
        return rng.uniform(0.5, 1.5, size=shape)

    def weighted(out):
        return ad.sum_all(ad.hadamard(out, c63))

    w1, w2, w3, factor, relations = (Tensor(live(*s)) for s in [(3, 3)] * 3 + [(3, 2), (2, 2)])
    cases.update({
        "encoder_layer": (lambda p: weighted(encoder_layer(p, sp_graph, w1)), live(6, 3)),
        "hypergraph_layer": (lambda p: weighted(hypergraph_layer(p, factor, relations)), live(6, 3)),
        "interaction_block": (lambda p: weighted(interaction_block(p, sp_graph, w1, w2, w3)), live(6, 3)),
        "average": (lambda p: weighted(average(p, c63)), live(6, 3)),
    })

    # The ops of the head, the scale fusion and the loss.
    c62, c65, d63, e63 = (Tensor(rng.normal(size=s)) for s in [(6, 2), (6, 5), (6, 3), (6, 3)])
    cases.update({
        "add": (lambda p: weighted(ad.add(p, ad.hadamard(p, p))), rng.normal(size=(6, 3))),
        "add_bias": (lambda p: weighted(ad.add(d63, p)), rng.normal(size=(3,))),
        "sub": (lambda p: weighted(ad.sub(ad.hadamard(p, p), p)), rng.normal(size=(6, 3))),
        "scale": (lambda p: weighted(ad.scale(p, -1.7)), rng.normal(size=(6, 3))),
        "concat": (lambda p: ad.sum_all(ad.hadamard(ad.concat_cols(c62, p), c65)), rng.normal(size=(6, 3))),
        "transpose": (lambda p: weighted(ad.transpose(p)), rng.normal(size=(3, 6))),
        # p is both the coefficient vector and, through add_bias, one of the summands
        "linear_combination": (lambda p: weighted(ad.linear_combination([d63, ad.add(e63, p), c63], p)),
                               rng.normal(size=(3,))),
    })
    for name, (f, theta) in cases.items():
        err = finite_difference_check(f, Tensor(theta))
        results.append(OracleResult("op_gradients", name, tol, err))
    return results


def model_gradient_errors(model: Forecaster, x: np.ndarray, y: np.ndarray,
                          names: Iterable[str] | None = None) -> dict[str, float]:
    """Tape vs central-difference error of the MAE loss at (x, y), per parameter.

    Each named entry of `model.params` (all of them by default) is replaced
    in turn by the probe tensor of `finite_difference_check` and restored
    after every evaluation.
    """
    errors = {}
    for name in list(model.params) if names is None else names:
        tensor = model.params[name]

        def f(p, _name=name, _tensor=tensor):
            model.params[_name] = p
            try:
                return mae_loss(model.forward(x), Tensor(y))
            finally:
                model.params[_name] = _tensor

        errors[name] = finite_difference_check(f, tensor)
    return errors


def check_model_gradient(seed: int, corrupt_grad: str | None = None) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    model, x, y = _live_path_model(rng)
    errors = model_gradient_errors(model, x, y)
    if corrupt_grad is not None:
        for name in errors:
            if name.endswith(corrupt_grad):
                errors[name] += 1.0  # test hook: simulate a wrong vjp for this parameter
    worst_name = max(errors, key=errors.get)
    return [OracleResult("model_gradient", f"worst={worst_name}", 1e-4, errors[worst_name])]


def interaction_pair_sum(h: np.ndarray, a_dense: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """Explicit ordered-pair interaction sum (self-pairs included), pre-relu."""
    hw1 = h @ w1
    hw2 = h @ w2
    out = np.zeros_like(hw1)
    for u in range(a_dense.shape[0]):
        neighbors = np.nonzero(a_dense[u])[0]
        acc = np.zeros(hw1.shape[1])
        for j in neighbors:
            for jp in neighbors:
                acc += a_dense[u, j] * a_dense[u, jp] * (hw1[j] * hw2[jp])
        out[u] = acc
    return out


def check_interaction_factorization(seed: int, n_instances: int = 100) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_instances):
        n = int(rng.integers(2, 6))
        t = int(rng.integers(1, 4))
        d = int(rng.integers(2, 5))
        g = temporal_graph(_random_net(rng, n, density=0.5), t)
        h = rng.normal(size=(n * t, d))
        w1 = rng.normal(size=(d, d))
        w2 = rng.normal(size=(d, d))
        dense = g.normalized.toarray()
        explicit = interaction_pair_sum(h, dense, w1, w2)
        factorized = (dense @ h @ w1) * (dense @ h @ w2)
        worst = max(worst, float(np.max(np.abs(explicit - factorized))))
    return [OracleResult("interaction_factorization", f"{n_instances}_instances", 1e-10, worst)]


def check_temporal_graph(seed: int, n_graphs: int = 25) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    worst_row = 0.0
    worst_count = 0
    for _ in range(n_graphs):
        n = int(rng.integers(1, 30))
        t = int(rng.integers(1, 13))
        net = _random_net(rng, n, density=0.2)
        g = temporal_graph(net, t)
        sums = np.asarray(g.normalized.sum(axis=1)).ravel()
        worst_row = max(worst_row, float(np.max(np.abs(sums - 1.0))))
        expected = t * len(net.edges) + n * t + n * (t - 1)
        worst_count = max(worst_count, abs(g.adjacency.nnz - expected))
    return [
        OracleResult("temporal_graph", "row_stochastic", 1e-9, worst_row),
        OracleResult("temporal_graph", "nonzero_count", 1.0, float(worst_count)),
    ]


def permuted_copy(model: Forecaster, perm: np.ndarray) -> Forecaster:
    """Same model with road nodes relabeled by perm (old i becomes perm[i])."""
    net = model.net
    new_edges = tuple((int(perm[u]), int(perm[v]), w) for u, v, w in net.edges)
    twin = Forecaster(model.cfg, RoadNetwork(net.n_nodes, new_edges), seed=0)
    state = model.state()
    spatial = state["encoder.spatial"].copy()
    spatial[perm] = state["encoder.spatial"]
    state["encoder.spatial"] = spatial
    twin.load_state(state)
    return twin


def check_permutation(seed: int) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    n = 5
    net = _random_net(rng, n)
    cfg = ModelConfig(n_nodes=n, n_features=2, lookback=6, horizon=3, width=6,
                      n_hyperedges=3, windows=(1, 3), encoder_layers=2, scale_iters=2)
    model = Forecaster(cfg, net, seed=seed)
    x = rng.normal(size=(6, n, 2))
    perm = rng.permutation(n)
    twin = permuted_copy(model, perm)
    x_perm = np.empty_like(x)
    x_perm[:, perm, :] = x
    base = model.predict(x)
    moved = twin.predict(x_perm)
    return [OracleResult("permutation", "full_forward", 1e-9, float(np.max(np.abs(moved[:, perm] - base))))]


def check_pooling(seed: int) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(12, 3))

    identity = ad.window_max_rows(Tensor(h), 1, 6, 2).data
    err_id = float(np.max(np.abs(identity - h)))

    series = np.array([[1.0], [3.0], [2.0], [0.0]])
    pooled = ad.window_max_rows(Tensor(series), 2, 4, 1).data
    err_hand = float(np.max(np.abs(pooled - np.array([[3.0], [2.0]]))))

    # raising one input entry must never lower any output entry
    worst_mono = 0.0
    base = ad.window_max_rows(Tensor(h), 3, 6, 2).data
    for _ in range(20):
        bumped = h.copy()
        i = tuple(rng.integers(0, s) for s in h.shape)
        bumped[i] += float(rng.uniform(0.1, 2.0))
        out = ad.window_max_rows(Tensor(bumped), 3, 6, 2).data
        worst_mono = max(worst_mono, float(np.max(base - out)))

    return [
        OracleResult("pooling", "window1_identity", 1e-15, err_id),
        OracleResult("pooling", "hand_example", 1e-15, err_hand),
        OracleResult("pooling", "monotone", 1e-15, max(worst_mono, 0.0)),
    ]


def check_fusion(seed: int) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=7)
    w = ad.softmax_vec(Tensor(logits)).data
    err_sum = abs(float(w.sum()) - 1.0)
    shifted = ad.softmax_vec(Tensor(logits + 3.7)).data
    err_shift = float(np.max(np.abs(shifted - w)))
    return [
        OracleResult("fusion", "weights_sum_to_one", 1e-12, err_sum),
        OracleResult("fusion", "shift_invariance", 1e-12, err_shift),
    ]


def check_adam(seed: int) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(3, 2))
    grad = rng.normal(size=(3, 2))
    p = Tensor(theta.copy(), requires_grad=True)
    p.grad = grad.copy()
    opt = Adam([("p", p)], lr=0.1)
    opt.step()
    m = 0.1 * grad
    v = 0.001 * grad ** 2
    expected = theta - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    return [OracleResult("adam", "closed_form_step", 1e-12, float(np.max(np.abs(p.data - expected))))]


def run_verification(seed: int = 0, corrupt_grad: str | None = None) -> list[OracleResult]:
    results = []
    results += check_op_gradients(seed)
    results += check_model_gradient(seed + 1, corrupt_grad=corrupt_grad)
    results += check_interaction_factorization(seed + 2)
    results += check_temporal_graph(seed + 3)
    results += check_permutation(seed + 4)
    results += check_pooling(seed + 5)
    results += check_fusion(seed + 6)
    results += check_adam(seed + 7)
    return results

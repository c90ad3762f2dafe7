"""Self-contained verification oracles behind the `verify` command.

Each family checks one algebraic or structural property against an
independent reference: gradients against central differences, the
factorized interaction against the explicit pair sum, graph construction
against the counting rule, and so on.  Every oracle is seeded and prints
its observed error next to its tolerance, so a regression is visible as a
number, not just a boolean.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Iterable
from unittest import mock

import numpy as np

from . import autodiff as ad
from . import training
from .autodiff import Tensor, finite_difference_check
from .data import NormStats, SignalTensor, make_windows
from .encoder import encoder_layer
from .graphs import RoadNetwork, temporal_graph
from .hyperedges import hypergraph_block
from .interaction import interaction_block
from .model import Forecaster, ModelConfig, average
from .training import Adam, TrainConfig, fit, mae_loss, predict_batch


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


def random_net(rng: np.random.Generator, n: int, density: float = 0.35) -> RoadNetwork:
    edges = [(u, v, float(rng.uniform(0.5, 2.0)))
             for u in range(n) for v in range(n)
             if u != v and rng.random() < density]
    return RoadNetwork(n, tuple(edges))


def live_path_point(model: Forecaster, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Move `model` to a point where every activation path is live; return (x, y).

    Strictly positive parameters (|p| + 0.01) and inputs (U(0.5, 1.5)) keep
    all relu units on, and targets offset below the prediction keep the MAE
    residuals away from their kink, so central differences see a smooth
    function.  This mirrors the kink-avoidance rule used for the per-op
    checks.
    """
    cfg = model.cfg
    model.flat[:] = np.abs(model.flat) + 0.01
    x = rng.uniform(0.5, 1.5, size=(cfg.lookback, cfg.n_nodes, cfg.n_features))
    y = model.predict(x) - rng.uniform(0.5, 1.5, size=(cfg.horizon, cfg.n_nodes))
    return x, y


# ---------------------------------------------------------------------------
# Families


def _weighted_sum(out: Tensor, c: np.ndarray) -> Tensor:
    """sum(out * c) for a constant array c, as one tape op."""
    return ad.record(np.asarray(np.sum(out.data * c)), "weighted_sum", (out,), lambda g: (float(g) * c,))


def check_op_gradients(seed: int) -> list[OracleResult]:
    """Central differences against the tape for every op the model records.

    Each op's output is reduced to sum(out * c) with c drawn at random, so
    every entry of its gradient carries its own weight and a vjp that moves
    a gradient to the wrong entry shows.  `mae_loss` and the input features
    are checked through the whole-model oracle.
    """
    rng = np.random.default_rng(seed)

    def kink_free(*shape):
        v = rng.normal(size=shape)
        while np.any(np.abs(v) < 1e-3):
            v = rng.normal(size=shape)
        return v

    # Positive states and weights keep every relu inside the fused ops on,
    # as in live_path_point.
    def live(*shape):
        return rng.uniform(0.5, 1.5, size=shape)

    # Constants are materialized up front: f must be a deterministic
    # function of the checked tensor alone.
    graph = temporal_graph(random_net(rng, 3), 2)
    b, c62, c63, d63, e63 = (Tensor(rng.normal(size=s)) for s in [(4, 3), (6, 2), (6, 3), (6, 3), (6, 3)])
    w1, w2, w3, factor, relations = (Tensor(live(*s)) for s in [(3, 3)] * 3 + [(3, 2), (2, 2)])
    cases = {
        # p is both operands, so both halves of the vjp are checked
        "matmul": (lambda p: ad.matmul(ad.matmul(p, b), p), rng.normal(size=(3, 4))),
        "add_bias": (lambda p: ad.add(d63, p), rng.normal(size=(3,))),
        "softmax": (ad.softmax_vec, rng.normal(size=(5,))),
        "window_max": (lambda p: ad.window_max_rows(p, 2, 4, 3), kink_free(12, 2)),
        "window_max_batched": (lambda p: ad.window_max_rows(p, 3, 6, 2), kink_free(12, 2, 2)),
        "mean_over_time": (lambda p: ad.mean_over_time(p, 3, 2), rng.normal(size=(6, 4))),
        "slice_rows": (lambda p: ad.slice_rows(p, 1, 3), rng.normal(size=(5, 2))),
        "concat": (lambda p: ad.concat_cols(c62, p), rng.normal(size=(6, 3))),
        "transpose": (ad.transpose, rng.normal(size=(3, 6))),
        # p is both the coefficient vector and, through add_bias, one of the summands
        "linear_combination": (lambda p: ad.linear_combination([d63, ad.add(e63, p), c63], p),
                               rng.normal(size=(3,))),
        "encoder_layer": (lambda p: encoder_layer(p, graph, w1), live(6, 3)),
        "hypergraph_block": (lambda p: hypergraph_block(p, factor, relations), live(6, 3)),
        "interaction_block": (lambda p: interaction_block(p, graph, w1, w2, w3), live(6, 3)),
        "average": (lambda p: average(p, c63), live(6, 3)),
    }
    results = []
    for name, (op, theta) in cases.items():
        c = rng.normal(size=op(Tensor(theta)).shape)
        err = finite_difference_check(lambda p: _weighted_sum(op(p), c), Tensor(theta))
        results.append(OracleResult("op_gradients", name, 1e-4, err))
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


def check_model_gradient(seed: int) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    n = 4
    cfg = ModelConfig(n_nodes=n, n_features=1, lookback=6, horizon=3, width=6, n_hyperedges=3,
                      windows=(1, 2), encoder_layers=1, scale_iters=1)
    model = Forecaster(cfg, random_net(rng, n), seed=int(rng.integers(1 << 30)))
    errors = model_gradient_errors(model, *live_path_point(model, rng))
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
        d = int(rng.integers(2, 6))
        g = temporal_graph(random_net(rng, n, density=0.5), t)
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
        net = random_net(rng, n, density=0.2)
        g = temporal_graph(net, t)
        sums = np.asarray(g.normalized.sum(axis=1)).ravel()
        worst_row = max(worst_row, float(np.max(np.abs(sums - 1.0))))
        expected = t * len(net.edges) + n * t + n * (t - 1)
        worst_count = max(worst_count, abs(g.normalized.nnz - expected))
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
    worst = 0.0
    for windows in ((1, 3), (1, 2, 3)):
        net = random_net(rng, n)
        cfg = ModelConfig(n_nodes=n, n_features=2, lookback=6, horizon=3, width=6,
                          n_hyperedges=3, windows=windows, encoder_layers=2, scale_iters=2)
        model = Forecaster(cfg, net, seed=seed)
        x = rng.normal(size=(6, n, 2))
        perm = rng.permutation(n)
        x_perm = np.empty_like(x)
        x_perm[:, perm, :] = x
        moved = permuted_copy(model, perm).predict(x_perm)
        worst = max(worst, float(np.max(np.abs(moved[:, perm] - model.predict(x)))))
    return [OracleResult("permutation", "full_forward", 1e-9, worst)]


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
    shifted = ad.softmax_vec(Tensor(logits + 3.7)).data
    err_shift = float(np.max(np.abs(shifted - w)))
    # the sum also over 1, 2 and 6 fused scales (the default config fuses 6)
    sums = [w.sum()] + [ad.softmax_vec(Tensor(rng.normal(size=k) * 2)).data.sum() for k in (1, 2, 6)]
    err_sum = max(abs(float(total) - 1.0) for total in sums)
    return [
        OracleResult("fusion", "weights_sum_to_one", 1e-12, err_sum),
        OracleResult("fusion", "shift_invariance", 1e-12, err_shift),
    ]


def check_adam(seed: int) -> list[OracleResult]:
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=(3, 2))
    grad = rng.normal(size=(3, 2))
    p = theta.copy()
    Adam(p, grad, lr=0.1).step()
    m = 0.1 * grad
    v = 0.001 * grad ** 2
    expected = theta - 0.1 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    return [OracleResult("adam", "closed_form_step", 1e-12, float(np.max(np.abs(p - expected))))]


def check_threaded_predict(seed: int) -> list[OracleResult]:
    """`predict_batch` forced onto 2 threads against its serial path;
    observed is the number of output entries whose bits differ.  10
    windows of 40 sensors make chunks of 4, 4 and 2.

    The serial path runs each chunk's `predict` in turn.  A chunk of
    several windows runs its products over stacked rows, so it matches
    per-window `predict` to about 1e-12, not bit for bit (the unit tests
    hold it to that).
    """
    rng = np.random.default_rng(seed)
    n = 40
    cfg = ModelConfig(n_nodes=n, lookback=12, horizon=3, width=8, n_hyperedges=4,
                      windows=(1, 2, 3), encoder_layers=2, scale_iters=1)
    model = Forecaster(cfg, random_net(rng, n, density=0.1), seed=int(rng.integers(1 << 30)))
    samples = make_windows(SignalTensor(rng.normal(size=(24, n, 1))), cfg.lookback, cfg.horizon)
    serial = predict_batch(model, samples, workers=1)
    threaded = predict_batch(model, samples, workers=2)
    differing = int(np.count_nonzero(threaded != serial)) if threaded.shape == serial.shape else serial.size
    return [OracleResult("threaded_predict", "two_workers_bitwise", 1.0, float(differing))]


def check_parallel_fit(seed: int) -> list[OracleResult]:
    """`fit` on 2 processes against 1; observed is the number of parameter
    and history entries whose bits differ, or all of them if the 2-process
    run forked no worker.  2 epochs of 2 batches of 10 windows of 40
    sensors, in chunks of 4, 4 and 2, the worker running the middle one.
    Each run sets the usable CPU count that `fit` reads, so the worker is
    forked on a one-CPU machine too."""
    rng = np.random.default_rng(seed)
    n = 40
    cfg = ModelConfig(n_nodes=n, lookback=12, horizon=3, width=8, n_hyperedges=4,
                      windows=(1, 2, 3), encoder_layers=2, scale_iters=1)
    net = random_net(rng, n, density=0.1)
    init_seed = int(rng.integers(1 << 30))
    samples = make_windows(SignalTensor(rng.normal(size=(38, n, 1))), cfg.lookback, cfg.horizon)
    stats = NormStats(mean=np.zeros(1), std=np.ones(1))
    runs, workers = [], []
    for cpus in (1, 2):
        model = Forecaster(cfg, net, seed=init_seed)
        with mock.patch.object(training, "_usable_cpus", return_value=cpus):
            result = fit(model, samples[:20], samples[20:], TrainConfig(epochs=2, batch_size=10, lr=0.01),
                         stats=stats, on_epoch=lambda *_: workers.append(len(multiprocessing.active_children())))
        runs.append((model.flat, [repr(v) for _, _, rep in result.history for v in rep.as_dict().values()]))
    (flat, history), (flat2, history2) = runs
    differing = (np.count_nonzero(flat.view(np.int64) != flat2.view(np.int64))
                 + sum(a != b for a, b in zip(history, history2)) + abs(len(history) - len(history2)))
    if workers != [0, 0, 1, 1]:  # one worker alive through each epoch of the 2-process run only
        differing = flat.size + len(history)
    return [OracleResult("parallel_fit", "two_processes_bitwise", 1.0, float(differing))]


def run_verification(seed: int = 0) -> list[OracleResult]:
    results = []
    results += check_op_gradients(seed)
    results += check_model_gradient(seed + 1)
    results += check_interaction_factorization(seed + 2)
    results += check_temporal_graph(seed + 3)
    results += check_permutation(seed + 4)
    results += check_pooling(seed + 5)
    results += check_fusion(seed + 6)
    results += check_adam(seed + 7)
    results += check_threaded_predict(seed + 8)
    results += check_parallel_fit(seed + 9)
    return results

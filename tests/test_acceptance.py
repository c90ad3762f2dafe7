"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the observed value next to its tolerance.

Run with `pytest tests/test_acceptance.py -v -s`.  The forecast-skill
experiment trains a reduced model on synthetic data and takes a few
minutes; everything else finishes in seconds.
"""

import json
import re
import time

import numpy as np
import pytest

import hyperflow as hf
from hyperflow import oracles
from hyperflow.cli import main
from hyperflow.graphs import RoadNetwork
from hyperflow.hyperedges import community_cosines
from hyperflow.model import Forecaster, ModelConfig
from hyperflow.training import TrainConfig, evaluate, fit, ha_baseline, predict_batch

from conftest import run_python
from reference_model import reference_forward


def report(number, name, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} {name}: {marker} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def tiny_model(seed=2024):
    """N=6 random graph, T=12 in, 4 out, d=8, I=4, windows {1,2}, 2+1 layers."""
    rng = np.random.default_rng(seed)
    net = oracles.random_net(rng, 6, density=0.3)
    cfg = ModelConfig(n_nodes=6, n_features=1, lookback=12, horizon=4, width=8,
                      n_hyperedges=4, windows=(1, 2), encoder_layers=2, scale_iters=1)
    return Forecaster(cfg, net, seed=seed + 1), rng


def test_criterion_1_gradient_oracle():
    # Central differences vs tape gradients for every parameter group, at a
    # point on the live path, so no relu/abs kink sits within the probe step.
    start = time.time()
    model, rng = tiny_model()
    x, y = oracles.live_path_point(model, rng)
    errors = oracles.model_gradient_errors(model, x, y)
    worst_name = max(errors, key=errors.get)
    worst = errors[worst_name]
    elapsed = time.time() - start
    report(1, "gradient oracle", worst < 1e-4 and elapsed < 60,
           f"max rel err {worst:.3e} at {worst_name} < 1e-4, {elapsed:.1f}s < 60s")


def test_criterion_2_interaction_factorization():
    (result,) = oracles.check_interaction_factorization(seed=7, n_instances=100)
    worst = result.observed
    report(2, "interaction factorization", worst < 1e-10,
           f"max |pair sum - factorized| = {worst:.3e} < 1e-10 over 100 instances")


def test_criterion_3_whole_model_straight_line():
    # N=3 path graph, T=4 in, 2 out, d=4, I=2, windows {1,2}, 1+1 layers
    rng = np.random.default_rng(31)
    edges = ((0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0))
    net = RoadNetwork(3, edges)
    cfg = ModelConfig(n_nodes=3, n_features=1, lookback=4, horizon=2, width=4,
                      n_hyperedges=2, windows=(1, 2), encoder_layers=1, scale_iters=1)
    model = Forecaster(cfg, net, seed=32)
    x = rng.normal(size=(4, 3, 1))
    ref = reference_forward(x, edges, 3, {
        "lookback": 4, "horizon": 2, "width": 4, "n_hyperedges": 2,
        "windows": (1, 2), "encoder_layers": 1, "scale_iters": 1,
    }, model.state())
    dev = float(np.max(np.abs(model.predict(x) - ref)))
    report(3, "whole-model straight-line oracle", dev < 1e-9, f"max deviation {dev:.3e} < 1e-9")


def test_criterion_4_structural_invariants():
    # the verify families at seed 44, read against this criterion's tolerances
    results = {f"{r.family}/{r.name}": r.observed
               for r in [*oracles.check_temporal_graph(44, n_graphs=20), *oracles.check_fusion(44),
                         *oracles.check_pooling(44), *oracles.check_permutation(44)]}
    worst_row = results["temporal_graph/row_stochastic"]
    worst_nnz = results["temporal_graph/nonzero_count"]
    worst_fuse = results["fusion/weights_sum_to_one"]
    pool_dev = results["pooling/window1_identity"]
    perm_dev = results["permutation/full_forward"]
    ok = (worst_row < 1e-9 and worst_nnz == 0 and worst_fuse < 1e-12 and pool_dev == 0.0
          and perm_dev < 1e-9)
    report(4, "structural invariants", ok,
           f"row sums off by {worst_row:.2e} < 1e-9 over 20 graphs, nnz formula exact; "
           f"fusion weight sums off by {worst_fuse:.2e} < 1e-12; window-1 pooling deviation {pool_dev}; "
           f"permutation deviation {perm_dev:.2e} < 1e-9")


def test_criterion_5_overfit_sanity():
    sig, net, _ = hf.synth_generate(6, 2, 19, seed=21, noise_std=0.5, events_per_day=2.0)
    stats = hf.NormStats(mean=sig.values.mean(axis=(0, 1)), std=sig.values.std(axis=(0, 1)))
    samples = hf.make_windows(hf.SignalTensor(stats.apply(sig.values)), 12, 4)
    assert len(samples) == 4
    cfg = ModelConfig(n_nodes=6, n_features=1, lookback=12, horizon=4, width=16,
                      n_hyperedges=4, windows=(1, 2), encoder_layers=1, scale_iters=1)
    model = Forecaster(cfg, net, seed=21)
    result = fit(model, samples, [], TrainConfig(epochs=500, batch_size=4, lr=0.02, seed=21),
                 stats=stats)
    assert result.steps == 500
    targets = stats.invert_flow(np.stack([s.target for s in samples]))
    threshold = 0.05 * float(targets.std())
    maes = [rep.mae for _, _, rep in result.history]
    first_below = next((i + 1 for i, v in enumerate(maes) if v < threshold), None)
    report(5, "overfit sanity", first_below is not None,
           f"train MAE {min(maes):.3f} beats 5% of target std ({threshold:.3f}) "
           f"at step {first_below} of 500")


@pytest.fixture(scope="module")
def skill_experiment():
    """Reduced-size model on 14 days of 3-community synthetic data (seed-fixed)."""
    start = time.time()
    sig, net, membership = hf.synth_generate(30, 3, 4032, seed=11)
    prep = hf.prepare_dataset(sig, 12, 12)
    cfg = ModelConfig(n_nodes=30, n_features=1, lookback=12, horizon=12, width=16,
                      n_hyperedges=8, windows=(1, 2, 3), encoder_layers=2, scale_iters=2)
    model = Forecaster(cfg, net, seed=11)
    fit(model, prep.train, prep.val, TrainConfig(epochs=30, batch_size=32, lr=3e-3, seed=11),
        stats=prep.stats)
    elapsed = time.time() - start
    return dict(model=model, prep=prep, membership=membership, train_seconds=elapsed)


def test_criterion_6_forecast_skill(skill_experiment):
    model, prep = skill_experiment["model"], skill_experiment["prep"]
    test_true = prep.stats.invert_flow(np.stack([s.target for s in prep.test]))
    model_rep = evaluate(prep.stats.invert_flow(predict_batch(model, prep.test)), test_true)
    ha_pred = np.stack([ha_baseline(prep.stats.invert_flow(s.input[:, :, 0]), 12)
                        for s in prep.test])
    ha_rep = evaluate(ha_pred, test_true)
    improvement = 1.0 - model_rep.mae / ha_rep.mae
    elapsed = skill_experiment["train_seconds"]
    report(6, "forecast skill vs historical average",
           improvement >= 0.20 and elapsed < 600,
           f"model MAE {model_rep.mae:.3f} vs HA {ha_rep.mae:.3f}: "
           f"{improvement:.1%} better (need >= 20%), trained in {elapsed:.0f}s < 600s")


def test_criterion_7_complexity_slopes(tmp_path):
    # A fresh process: after criterion 6's training run this one's heap
    # would bend the slopes (see `cli._bench_measure`).
    one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = run_python("-m", "hyperflow.cli", "bench", "--out", str(tmp_path / "bench.csv"), "--d", "32",
                      "--repeats", "3", "--seed", "0", env=one_thread)
    out = proc.stdout
    assert proc.returncode == 0, proc.stderr
    slope_t = float(re.search(r"slope_t=([-\d.]+)", out).group(1))
    slope_nnz = float(re.search(r"slope_nnz=([-\d.]+)", out).group(1))
    ok = 0.7 <= slope_t <= 1.3 and 0.7 <= slope_nnz <= 1.3
    report(7, "linear scaling of forward time",
           ok, f"log-log slope vs T = {slope_t:.2f}, vs nnz = {slope_nnz:.2f}, both in [0.7, 1.3]")


def test_criterion_8_reproducible_training(tmp_path):
    data_dir = tmp_path / "data"
    rc = main(["synth", "--out", str(data_dir), "--nodes", "8", "--communities", "2",
               "--steps", "140", "--seed", "5"])
    assert rc == 0
    args = ["train", "--data", str(data_dir / "signals.bin"),
            "--edges", str(data_dir / "edges.csv"),
            "--seed", "9", "--epochs", "2", "--batch-size", "16",
            "--d", "8", "--hyperedges", "4", "--windows", "1,2", "--lp", "1", "--ls", "1",
            "--lookback", "6", "--horizon", "3"]
    assert main([*args, "--out", str(tmp_path / "a")]) == 0
    assert main([*args, "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a/summary.json").read_bytes()
    b = (tmp_path / "b/summary.json").read_bytes()
    report(8, "bit-reproducible training", a == b,
           f"summary JSON identical across reruns ({len(a)} bytes); "
           f"test MAE {json.loads(a)['test_mae']:.4f}")


def test_criterion_9_incidence_dynamics(skill_experiment):
    model = skill_experiment["model"]
    prep = skill_experiment["prep"]
    membership = skill_experiment["membership"]
    cfg = model.cfg

    capture = {}
    model.forward(prep.test[0].input, capture=capture)
    lam = capture["incidence"][1][-1].reshape(cfg.lookback, cfg.n_nodes, cfg.n_hyperedges)

    inter_step = float(np.mean(np.abs(np.diff(lam, axis=0))))
    same_mean, cross_mean = community_cosines(lam, membership)

    report(9, "incidence dynamics and community structure",
           inter_step > 0 and same_mean > cross_mean,
           f"mean |step-to-step change| = {inter_step:.2e} > 0; "
           f"same-community cosine {same_mean:.3f} > cross {cross_mean:.3f}")

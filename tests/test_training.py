import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperflow as hf
from hyperflow import oracles, training
from hyperflow.autodiff import Tape, Tensor
from hyperflow.model import Forecaster, ModelConfig
from hyperflow.training import (
    Adam,
    TrainConfig,
    evaluate,
    fit,
    ha_baseline,
    mae_loss,
    predict_batch,
    predict_workers,
    split_dataset,
    windows_per_chunk,
    write_history_csv,
    MetricReport,
)


def test_mae_zero_at_equality():
    y = Tensor([1.0, 2.0, 3.0])
    assert float(mae_loss(y, Tensor([1.0, 2.0, 3.0])).data) == 0.0


def test_mae_hand_case():
    loss = mae_loss(Tensor([1.0, 2.0]), Tensor([0.0, 4.0]))
    assert float(loss.data) == pytest.approx(1.5)


def test_mae_translation_invariance():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=6), rng.normal(size=6)
    base = float(mae_loss(Tensor(a), Tensor(b)).data)
    shifted = float(mae_loss(Tensor(a + 3.7), Tensor(b + 3.7)).data)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_mae_of_a_chunk_sums_per_window_means():
    pred = np.array([[[1.0, 2.0]], [[0.0, 0.0]], [[4.0, -4.0]]])  # 3 windows of (1, 2)
    loss = mae_loss(Tensor(pred), Tensor(np.zeros_like(pred)))
    assert float(loss.data) == 1.5 + 0.0 + 4.0


def test_evaluate_perfect_prediction():
    rep = evaluate(np.ones((2, 3)), np.ones((2, 3)))
    assert (rep.mae, rep.rmse, rep.mape) == (0.0, 0.0, 0.0)


def test_evaluate_hand_case():
    rep = evaluate(np.array([90.0, 110.0]), np.array([100.0, 100.0]))
    assert rep.mae == pytest.approx(10.0)
    assert rep.rmse == pytest.approx(10.0)
    assert rep.mape == pytest.approx(10.0)


def test_evaluate_masks_zero_targets():
    rep = evaluate(np.array([5.0, 110.0]), np.array([0.0, 100.0]))
    assert rep.mape == pytest.approx(10.0)  # only the nonzero target counts
    assert rep.mae == pytest.approx((5.0 + 10.0) / 2)


def test_evaluate_all_masked_reports_none():
    rep = evaluate(np.array([1.0, 2.0]), np.zeros(2))
    assert rep.mape is None


def test_evaluate_shape_mismatch():
    with pytest.raises(ValueError):
        evaluate(np.zeros(3), np.zeros(4))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60), st.integers(0, 2 ** 31 - 1))
def test_rmse_at_least_mae(n, seed):
    rng = np.random.default_rng(seed)
    rep = evaluate(rng.normal(size=n) * 10, rng.normal(size=n) * 10)
    assert rep.rmse >= rep.mae >= 0


def test_split_exact_ratios():
    train, val, test = split_dataset(list(range(10)))
    assert (len(train), len(val), len(test)) == (6, 2, 2)
    train, val, test = split_dataset(list(range(100)))
    assert (len(train), len(val), len(test)) == (60, 20, 20)


def test_split_rounding_rule():
    train, val, test = split_dataset(list(range(11)))
    assert (len(train), len(val), len(test)) == (6, 2, 3)


def test_split_is_chronological():
    train, val, test = split_dataset(list(range(20)))
    assert train == list(range(12))
    assert val == list(range(12, 16))
    assert test == list(range(16, 20))


@settings(max_examples=50, deadline=None)
@given(st.integers(5, 2000))
def test_split_gives_every_split_a_window(n):
    # why eval and predict need no empty-split check: 2n//10 >= 1 for n >= 5
    assert all(len(part) >= 1 for part in split_dataset(list(range(n))))


def test_split_too_few_windows():
    with pytest.raises(ValueError, match="at least 5"):
        split_dataset([1, 2, 3, 4])


def test_ha_constant_series():
    pred = ha_baseline(np.full((12, 4), 7.0), horizon=3)
    np.testing.assert_array_equal(pred, np.full((3, 4), 7.0))


def test_ha_mean_example():
    pred = ha_baseline(np.array([[0.0], [2.0]]), horizon=3)
    np.testing.assert_array_equal(pred, [[1.0], [1.0], [1.0]])


def test_adam_single_step_closed_form():
    rng = np.random.default_rng(1)
    theta = rng.normal(size=(4, 3))
    grad = rng.normal(size=(4, 3))
    p = Tensor(theta.copy(), requires_grad=True)
    p.grad = grad.copy()
    opt = Adam([("p", p)], lr=0.05)
    opt.step()
    m_hat = (0.1 * grad) / (1 - 0.9)
    v_hat = (0.001 * grad ** 2) / (1 - 0.999)
    expected = theta - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p.data, expected, atol=1e-12)


def test_adam_two_steps_closed_form():
    theta = np.array([1.0])
    p = Tensor(theta.copy(), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    m = v = 0.0
    ref = theta[0]
    for step in range(1, 3):
        g = 0.5 * step
        p.grad = np.array([g])
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.1 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    np.testing.assert_allclose(p.data, [ref], atol=1e-12)


# ---------------------------------------------------------------------------
# fit


def overfit_setup(seed=0):
    sig, net, _ = hf.synth_generate(6, 2, 19, seed=seed)
    stats = hf.NormStats(mean=sig.values.mean(axis=(0, 1)), std=sig.values.std(axis=(0, 1)))
    normalized = hf.SignalTensor(stats.apply(sig.values))
    samples = hf.make_windows(normalized, 12, 4)
    cfg = ModelConfig(n_nodes=6, n_features=1, lookback=12, horizon=4, width=8,
                      n_hyperedges=4, windows=(1, 2), encoder_layers=2, scale_iters=1)
    model = Forecaster(cfg, net, seed=seed)
    return model, samples, stats


def test_windows_per_chunk_rule():
    assert windows_per_chunk(ModelConfig(n_nodes=30, lookback=12)) == 5
    assert windows_per_chunk(ModelConfig(n_nodes=207, lookback=12)) == 1


def chunk_setup(seed):
    """30 sensors at lookback 12, so windows_per_chunk is 5."""
    sig, net, _ = hf.synth_generate(30, 3, 40, seed=seed)
    samples = hf.make_windows(hf.SignalTensor(sig.values / sig.values.std()), 12, 4)
    cfg = ModelConfig(n_nodes=30, n_features=1, lookback=12, horizon=4, width=8,
                      n_hyperedges=4, windows=(1, 2, 3), encoder_layers=2, scale_iters=2)
    return Forecaster(cfg, net, seed=seed), samples


def test_chunk_gradients_match_per_window_sum():
    model, samples = chunk_setup(seed=6)
    xs = np.stack([s.input for s in samples[:5]])
    ys = np.stack([s.target for s in samples[:5]])

    def gradients(pairs):
        losses = []
        for _, p in model.named_parameters():
            p.grad = None
        for x, y in pairs:
            with Tape() as tape:
                loss = mae_loss(model.forward(x), Tensor(y))
            tape.backward(loss)
            losses.append(float(loss.data))
        return sum(losses), {name: p.grad.copy() for name, p in model.named_parameters()}

    chunk_loss, chunk = gradients([(xs, ys)])
    window_loss, per_window = gradients(zip(xs, ys))
    assert abs(chunk_loss - window_loss) <= 1e-12 * window_loss
    for name, g in per_window.items():
        assert np.max(np.abs(chunk[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_predict_batch_matches_per_window_predict():
    model, samples = chunk_setup(seed=7)
    samples = samples[:12]  # chunks of 5, 5 and 2
    expected = np.stack([model.predict(s.input) for s in samples])
    np.testing.assert_allclose(predict_batch(model, samples), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_threaded_predict_oracle(seed):
    (result,) = oracles.check_threaded_predict(seed)
    assert result.passed, result.line()


def test_predict_workers_rule(monkeypatch):
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    skill = ModelConfig(n_nodes=30, width=16, n_hyperedges=8, windows=(1, 2, 3),
                        encoder_layers=2, scale_iters=2)  # 28,800 state entries
    assert predict_workers(skill, 10) == 1
    default = ModelConfig(n_nodes=207)  # 158,976 state entries
    monkeypatch.setattr(training, "BLAS_PINNED", True)
    assert predict_workers(default, 10) == 2
    assert predict_workers(default, 1) == 1
    monkeypatch.setattr(training, "BLAS_PINNED", False)
    assert predict_workers(default, 10) == 1
    monkeypatch.setattr(training, "BLAS_PINNED", True)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    assert predict_workers(default, 10) == 1


def _threads_seen(model, monkeypatch, fail_on_windows=None):
    """Patch model.predict to log its thread and to raise on a chunk of
    `fail_on_windows` windows."""
    seen = []
    original = model.predict

    def predict(x):
        seen.append(threading.get_ident())
        if x.shape[0] == fail_on_windows:
            raise ArithmeticError("chunk failed")
        return original(x)

    monkeypatch.setattr(model, "predict", predict)
    return seen


def test_predict_batch_below_threshold_starts_no_thread(monkeypatch):
    model, samples = chunk_setup(seed=7)
    assert predict_workers(model.cfg, 3) == 1
    seen = _threads_seen(model, monkeypatch)
    predict_batch(model, samples[:12])
    assert seen == [threading.get_ident()] * 3


def test_threaded_predict_batch_joins_threads_and_raises(monkeypatch):
    model, samples = chunk_setup(seed=8)
    samples = samples[:12]  # chunks of 5, 5 and 2
    before = threading.active_count()
    predict_batch(model, samples, workers=2)
    assert threading.active_count() == before
    _threads_seen(model, monkeypatch, fail_on_windows=2)
    with pytest.raises(ArithmeticError, match="chunk failed"):
        predict_batch(model, samples, workers=2)
    assert threading.active_count() == before


def test_threaded_predict_batch_under_fast_switching():
    """More workers than cores, and the interpreter switching threads every
    microsecond: the output is still the serial output."""
    model, samples = chunk_setup(seed=10)
    samples = samples[:22]  # chunks of 5, 5, 5, 5 and 2
    expected = predict_batch(model, samples, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = predict_batch(model, samples, workers=4)
    finally:
        sys.setswitchinterval(interval)
    np.testing.assert_array_equal(got, expected)


def test_fit_zero_epochs_returns_initial_parameters():
    model, samples, stats = overfit_setup()
    before = model.state()
    result = fit(model, samples, [], TrainConfig(epochs=0, seed=0), stats=stats)
    assert result.history == [] and result.steps == 0
    for name, arr in model.state().items():
        np.testing.assert_array_equal(arr, before[name])


def test_fit_zero_lr_keeps_parameters():
    model, samples, stats = overfit_setup()
    before = model.state()
    fit(model, samples, [], TrainConfig(epochs=3, lr=0.0, seed=0), stats=stats)
    for name, arr in model.state().items():
        np.testing.assert_array_equal(arr, before[name])


def test_fit_is_bit_reproducible():
    runs = []
    for _ in range(2):
        model, samples, stats = overfit_setup(seed=3)
        fit(model, samples[:3], samples[3:], TrainConfig(epochs=3, batch_size=2, seed=7),
            stats=stats)
        runs.append(model.state())
    for name in runs[0]:
        np.testing.assert_array_equal(runs[0][name], runs[1][name])


def test_fit_restores_best_validation_parameters():
    model, samples, stats = overfit_setup(seed=4)
    result = fit(model, samples[:3], samples[3:], TrainConfig(epochs=4, batch_size=4, seed=1),
                 stats=stats)
    val_maes = [rep.mae for _, split, rep in result.history if split == "val"]
    assert result.best_val_mae == pytest.approx(min(val_maes))


def test_fit_decreases_training_loss():
    model, samples, stats = overfit_setup(seed=5)
    result = fit(model, samples, [], TrainConfig(epochs=25, batch_size=4, lr=0.01, seed=2),
                 stats=stats)
    first = result.history[0][2].mae
    last = result.history[-1][2].mae
    assert last < first * 0.7


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_fit_names_the_epoch_of_a_non_finite_validation_pass():
    # One batch holds all 4 training windows, and its step of 1e300 leaves
    # weights finite but so large that the next forward, the validation
    # pass, overflows.
    sig, net, _ = hf.synth_generate(3, 1, 30, seed=0)  # 4 training windows, 1 validation
    prep = hf.prepare_dataset(sig, 12, 12)
    cfg = ModelConfig(n_nodes=3, n_features=1, lookback=12, horizon=12, width=8,
                      n_hyperedges=4, windows=(1, 2), encoder_layers=1, scale_iters=1)
    model = Forecaster(cfg, net, seed=0)
    with pytest.raises(RuntimeError, match="^non-finite value at epoch 0, validation pass: "
                                           "non-finite values produced by "):
        fit(model, prep.train, prep.val, TrainConfig(epochs=1, batch_size=4, lr=1e300),
            stats=prep.stats)


def test_history_csv_format(tmp_path):
    history = [(0, "train", MetricReport(1.0, 2.0, 3.0)),
               (0, "val", MetricReport(1.5, 2.5, None))]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,mae,rmse,mape"
    assert lines[1] == "0,train,1.0,2.0,3.0"
    assert lines[2] == "0,val,1.5,2.5,nan"

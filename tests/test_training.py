import collections
import contextlib
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperflow as hf
from hyperflow import oracles, training
from hyperflow.autodiff import NumericError, Tape, Tensor, record
from hyperflow.model import Forecaster, ModelConfig
from hyperflow.training import (
    Adam,
    TrainConfig,
    chunk_workers,
    evaluate,
    fit,
    ha_baseline,
    mae_loss,
    predict_batch,
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
    # one more entry with a zero gradient, which must not move at all
    params = np.append(theta, 0.7)
    Adam(params, np.append(grad, 0.0), lr=0.05).step()
    m_hat = (0.1 * grad) / (1 - 0.9)
    v_hat = (0.001 * grad ** 2) / (1 - 0.999)
    expected = theta - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(params[:-1], expected.ravel(), atol=1e-12)
    assert params[-1] == 0.7


def test_adam_two_steps_closed_form():
    theta = np.array([1.0])
    params, grad = theta.copy(), np.zeros(1)
    opt = Adam(params, grad, lr=0.1)
    m = v = 0.0
    ref = theta[0]
    for step in range(1, 3):
        g = 0.5 * step
        grad[0] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref -= 0.1 * (m / (1 - 0.9 ** step)) / (np.sqrt(v / (1 - 0.999 ** step)) + 1e-8)
    np.testing.assert_allclose(params, [ref], atol=1e-12)


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
        model.grad.fill(0.0)
        for x, y in pairs:
            with Tape() as tape:
                loss = mae_loss(model.forward(x), Tensor(y))
            tape.backward(loss)
            losses.append(float(loss.data))
        return sum(losses), model.grad.copy()

    chunk_loss, chunk = gradients([(xs, ys)])
    window_loss, per_window = gradients(zip(xs, ys))
    assert abs(chunk_loss - window_loss) <= 1e-12 * window_loss
    start = 0
    for name, p in model.params.items():  # each parameter at its own scale
        stop = start + p.size
        g = per_window[start:stop]
        assert np.max(np.abs(chunk[start:stop] - g)) <= 1e-12 * np.max(np.abs(g)), name
        start = stop


def test_predict_batch_matches_per_window_predict():
    model, samples = chunk_setup(seed=7)
    samples = samples[:12]  # chunks of 5, 5 and 2
    expected = np.stack([model.predict(s.input) for s in samples])
    np.testing.assert_allclose(predict_batch(model, samples), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_threaded_predict_oracle(seed):
    (result,) = oracles.check_threaded_predict(seed)
    assert result.passed, result.line()


def test_chunk_workers_rule(monkeypatch):
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    skill = ModelConfig(n_nodes=30, width=16, n_hyperedges=8, windows=(1, 2, 3),
                        encoder_layers=2, scale_iters=2)  # 28,800 state entries
    assert chunk_workers(skill, 10) == 1
    default = ModelConfig(n_nodes=207)  # 158,976 state entries
    monkeypatch.setattr(training, "BLAS_PINNED", True)
    assert chunk_workers(default, 10) == 2
    assert chunk_workers(default, 1) == 1
    monkeypatch.setattr(training, "BLAS_PINNED", False)
    assert chunk_workers(default, 10) == 1
    monkeypatch.setattr(training, "BLAS_PINNED", True)
    monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
    assert chunk_workers(default, 10) == 1


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
    assert chunk_workers(model.cfg, 3) == 1
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
    train, val = samples[:3], samples[3:]
    result = fit(model, train, val, TrainConfig(epochs=6, batch_size=4, lr=0.05, seed=1),
                 stats=stats)
    val_maes = [rep.mae for _, split, rep in result.history if split == "val"]
    assert result.best_val_mae == pytest.approx(min(val_maes))
    # The best epoch is not the last, so fit must have moved the model back.
    assert val_maes.index(result.best_val_mae) < len(val_maes) - 1
    restored = evaluate(stats.invert_flow(predict_batch(model, val)),
                        stats.invert_flow(np.stack([s.target for s in val])))
    assert restored.mae == result.best_val_mae


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


# ---------------------------------------------------------------------------
# fit on several processes

FIT_STATS = hf.NormStats(mean=np.zeros(1), std=np.ones(1))
FIT_CFG = TrainConfig(epochs=2, batch_size=12, lr=0.01, seed=3)


def _first_windows():
    """The sample index of each chunk's first window in the first epoch of
    `_fit_chunked`, by batch and chunk: fit's first draw from its generator
    is that epoch's order."""
    order = np.random.default_rng(FIT_CFG.seed).permutation(24)
    return [[int(order[b0 + i]) for i in (0, 5, 10)] for b0 in (0, 12)]


@contextlib.contextmanager
def _deadline(seconds: int):
    """Raise in the test, rather than hang it, once `seconds` have passed."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _log_forwards(monkeypatch, model, samples, log, on_forward=None):
    """Make every forward of `model`, in whichever process runs it, append
    its pid to `log`; on_forward(samples, x, pred) may replace its output."""
    log.write_text("")
    original = model.forward

    def forward(x, *args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        pred = original(x, *args)
        return pred if on_forward is None else on_forward(samples, x, pred)

    monkeypatch.setattr(model, "forward", forward)


def _fit_chunked(monkeypatch, tmp_path, processes: int, on_forward=None):
    """Two epochs of two batches of 12 windows (chunks of 5, 5 and 2) with
    `processes` usable CPUs, logging forwards as `_log_forwards` does.
    Returns the result, the model and the pids of the forwards."""
    monkeypatch.setattr(training, "_usable_cpus", lambda: processes)
    model, samples = chunk_setup(seed=12)
    log = tmp_path / "forwards.log"
    _log_forwards(monkeypatch, model, samples, log, on_forward)
    try:
        with _deadline(60):
            result = fit(model, samples[:24], samples[24:30], FIT_CFG, stats=FIT_STATS)
    finally:
        pids = [int(line) for line in log.read_text().split()]
        assert multiprocessing.active_children() == []
    return result, model, pids


def test_fit_on_several_processes_equals_one_bit_for_bit(monkeypatch, tmp_path):
    one, one_model, one_pids = _fit_chunked(monkeypatch, tmp_path, 1)
    assert set(one_pids) == {os.getpid()}
    for processes in (2, 3):  # 3: more processes than this machine may have cores
        result, model, pids = _fit_chunked(monkeypatch, tmp_path, processes)
        # 4 batches of 3 chunks and a 1-window validation pass per epoch;
        # worker k runs chunk k of each batch.
        workers = collections.Counter(pid for pid in pids if pid != os.getpid())
        assert len(pids) == 14 and list(workers.values()) == [4] * (processes - 1)
        assert result.history == one.history
        assert result.best_val_mae == one.best_val_mae
        assert model.flat.tobytes() == one_model.flat.tobytes()


@pytest.mark.parametrize("processes", [1, 2])
def test_fit_steps_on_per_chunk_gradients_summed_in_chunk_order(monkeypatch, processes):
    # At lr 0 the parameters stay put, so the gradient fit leaves behind,
    # its last batch's, can be recomputed chunk by chunk.
    monkeypatch.setattr(training, "_usable_cpus", lambda: processes)
    model, samples = chunk_setup(seed=13)
    train = samples[:12]  # one batch per epoch, in chunks of 5, 5 and 2
    fit(model, train, [], TrainConfig(epochs=2, batch_size=12, lr=0.0, seed=4), stats=FIT_STATS)
    rng = np.random.default_rng(4)
    rng.permutation(12)
    order = rng.permutation(12)  # the second epoch's
    expected = None
    for start in (0, 5, 10):
        chunk = [train[i] for i in order[start:start + 5]]
        row = np.zeros_like(model.grad)
        model.point_grads(row)
        with Tape() as tape:
            loss = mae_loss(model.forward(np.stack([s.input for s in chunk])),
                            Tensor(np.stack([s.target for s in chunk])))
        tape.backward(loss)
        expected = row if expected is None else expected + row
    assert model.grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("processes", [1, 2], ids=["serial", "two_processes"])
def test_parameters_stay_views_of_the_flat_vectors(monkeypatch, tmp_path, processes):
    # Adam writes model.flat in place, and each chunk points the gradients
    # at its own row, so a parameter left rebound would silently stop training.
    _, model, pids = _fit_chunked(monkeypatch, tmp_path, processes)
    assert len(set(pids)) == processes
    start = 0
    for name, p in model.params.items():  # in init_params order, back to back
        for view, vector in ((p.data, model.flat), (p.grad, model.grad)):
            assert np.shares_memory(view, vector) and view.ctypes.data == vector[start:].ctypes.data, name
        start += p.size
    assert start == model.flat.size == model.grad.size
    twin = Forecaster(model.cfg, model.net, seed=99)
    twin.load_state(model.state())
    assert twin.flat.tobytes() == model.flat.tobytes()


@pytest.mark.parametrize("blocker", ["thread", "one_cpu"])
def test_fit_forks_nothing_beside_another_thread_or_on_one_cpu(monkeypatch, tmp_path, blocker):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    if blocker == "thread":
        other.start()
    try:
        _, _, pids = _fit_chunked(monkeypatch, tmp_path, 2 if blocker == "thread" else 1)
    finally:
        release.set()
        if other.is_alive():
            other.join()
    assert set(pids) == {os.getpid()}


def test_fit_in_a_daemonic_process_runs_there(monkeypatch, tmp_path):
    # A multiprocessing.Pool worker is daemonic, and a daemonic process may
    # not start children.
    monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
    model, samples = chunk_setup(seed=12)
    log = tmp_path / "forwards.log"
    _log_forwards(monkeypatch, model, samples, log)
    proc = multiprocessing.get_context("fork").Process(
        target=fit, args=(model, samples[:24], [], FIT_CFG), kwargs={"stats": FIT_STATS}, daemon=True)
    proc.start()
    try:
        proc.join(60)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        proc.kill()
        proc.join()
    assert set(log.read_text().split()) == {str(proc.pid)}


def _failing_chunks(failing, log):
    """An on_forward hook for `_fit_chunked`: the chunk whose first window is
    sample j raises NumericError in its forward for ("forward", j) in
    `failing`, and in its backward for ("backward", j).  Each failure
    appends "pid kind j" to `log`."""
    def hook(samples, x, pred):
        j = next(i for i, s in enumerate(samples) if np.array_equal(s.input, x[0]))

        def fail(kind):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {kind} {j}\n")
            raise NumericError(f"{kind} of window {j} failed")

        if ("forward", j) in failing:
            fail("forward")
        if ("backward", j) not in failing:
            return pred
        return record(pred.data, "failing_probe", (pred,), lambda g: fail("backward"))
    return hook


@pytest.mark.parametrize("failing, first", [
    ({("backward", 0, 0)}, ("backward", 0, 0)),  # the parent's chunk
    ({("forward", 0, 1)}, ("forward", 0, 1)),  # the worker's chunk
    ({("forward", 0, 2), ("backward", 0, 1)}, ("backward", 0, 1)),  # both, the worker's first
    ({("backward", 0, 0), ("forward", 0, 1)}, ("backward", 0, 0)),  # both, the parent's first
    ({("backward", 1, 1)}, ("backward", 1, 1)),  # the worker's, in the second batch
], ids=["parent_chunk", "worker_chunk", "both_worker_first", "both_parent_first", "second_batch"])
def test_fit_raises_the_first_chunk_error_and_joins(monkeypatch, tmp_path, failing, first):
    firsts = _first_windows()
    keyed = {(kind, firsts[b][c]) for kind, b, c in failing}
    errors = []
    for processes in (1, 2):
        log = tmp_path / f"failures{processes}.log"
        log.write_text("")
        with pytest.raises(RuntimeError) as info:
            _fit_chunked(monkeypatch, tmp_path, processes, on_forward=_failing_chunks(keyed, log))
        errors.append(str(info.value))
    kind, b, c = first
    assert errors[0] == errors[1] == (f"non-finite value at epoch 0, batch {b}: "
                                      f"{kind} of window {firsts[b][c]} failed")
    # With two processes the worker runs chunk 1 and the parent chunks 0 and 2.
    ran = {(kind, int(j)): int(pid) for pid, kind, j in (line.split() for line in log.read_text().splitlines())}
    assert all((ran[kind, firsts[b][c]] == os.getpid()) == (c != 1)
               for kind, b, c in failing if (kind, firsts[b][c]) in ran)
    assert (first[0], firsts[b][c]) in ran


def test_fit_raises_when_a_worker_dies_mid_batch(monkeypatch, tmp_path):
    parent = os.getpid()
    dead = tmp_path / "dead.pid"

    def die_in_the_worker(samples, x, pred):
        if os.getpid() != parent:
            dead.write_text(str(os.getpid()))
            os._exit(7)
        return pred

    start = time.perf_counter()
    with pytest.raises(RuntimeError) as info:
        _fit_chunked(monkeypatch, tmp_path, 2, on_forward=die_in_the_worker)
    assert time.perf_counter() - start < 30
    assert str(info.value) == f"fit worker {dead.read_text()} exited with code 7 during a batch"


def test_history_csv_format(tmp_path):
    history = [(0, "train", MetricReport(1.0, 2.0, 3.0)),
               (0, "val", MetricReport(1.5, 2.5, None))]
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,mae,rmse,mape"
    assert lines[1] == "0,train,1.0,2.0,3.0"
    assert lines[2] == "0,val,1.5,2.5,nan"

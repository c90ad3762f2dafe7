"""Loss, metrics, splitting, the optimizer, and the training loop."""

from __future__ import annotations

import csv
import math
import mmap
import multiprocessing
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing.connection import wait

import numpy as np

from .autodiff import BLAS_PINNED, NumericError, ShapeError, Tape, Tensor, record
from .checkpoint import atomic_open

# Adam's decay rates and denominator offset, the usual defaults.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0, batch_size >= 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    mape: float | None  # percent; None when every target is masked

    def as_dict(self) -> dict:
        return {"mae": self.mae, "rmse": self.rmse, "mape": self.mape}


def mae_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error per window, summed over windows, as one tape op.

    A (B, horizon, N) prediction holds B windows, and anything of at most
    two axes is one window, whose loss is the mean over all its entries.
    The subgradient is 0 at exact ties.
    """
    if pred.shape != target.shape:
        raise ShapeError(f"mae_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target.data
    n_entries = int(np.prod(diff.shape[-2:]))

    def vjp(g):
        g_diff = np.sign(diff) * (float(g) / n_entries)
        return g_diff, -g_diff

    per_window = np.abs(diff).reshape(-1, n_entries).mean(axis=1)
    return record(np.asarray(per_window.sum()), "mae_loss", (pred, target), vjp)


def windows_per_chunk(cfg) -> int:
    """How many windows `fit` and `predict_batch` run through one forward.

    About 2048 state rows per chunk: at lookback 12 that is 5 windows of 30
    sensors, where per-op overhead dominates and `fit` trains about 1.5x as
    many windows per second as one window per tape, and 1 window from 86
    sensors up, where the products dominate: at 207 sensors 2 windows per
    chunk trained within 5% of one and 4 windows 1.2x slower, and a taped
    window holds tens of MB.
    """
    return max(1, 2048 // (cfg.lookback * cfg.n_nodes))


def evaluate(y_pred: np.ndarray, y_true: np.ndarray) -> MetricReport:
    """Standard forecasting metrics on de-normalized values.

    MAPE averages |err|/|y| only over nonzero targets (zero-flow readings
    are excluded); with no nonzero target it is None rather than a
    misleading 0.
    """
    y_pred = np.asarray(y_pred, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    if y_pred.shape != y_true.shape:
        raise ValueError(f"prediction shape {y_pred.shape} != target shape {y_true.shape}")
    err = y_pred - y_true
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mask = np.abs(y_true) > 0.0
    mape = float(np.mean(np.abs(err[mask]) / np.abs(y_true[mask])) * 100.0) if mask.any() else None
    return MetricReport(mae=mae, rmse=rmse, mape=mape)


def score(pred: np.ndarray, samples, stats) -> MetricReport:
    """`evaluate` of normalized predictions against the samples' targets,
    both de-normalized by `stats`."""
    return evaluate(stats.invert_flow(pred), stats.invert_flow(np.stack([s.target for s in samples])))


def split_dataset(samples: list) -> tuple[list, list, list]:
    """Chronological 60/20/20 split over window start order.

    Train and validation sizes are floored; the test split takes the
    remainder.
    """
    n = len(samples)
    if n < 5:
        raise ValueError(f"need at least 5 windows to split, got {n}")
    n_train = (n * 6) // 10
    n_val = (n * 2) // 10
    return (list(samples[:n_train]),
            list(samples[n_train:n_train + n_val]),
            list(samples[n_train + n_val:]))


def ha_baseline(window_flow: np.ndarray, horizon: int) -> np.ndarray:
    """Historical average: each node repeats its input-window mean."""
    window_flow = np.asarray(window_flow, dtype=float)
    if window_flow.ndim != 2 or window_flow.shape[0] < 1:
        raise ValueError(f"expected a (T, N) flow window, got shape {window_flow.shape}")
    return np.tile(window_flow.mean(axis=0), (horizon, 1))


class Adam:
    """Adam with bias correction, matching the standard update rule.  `step`
    updates `params` in place from `grad`, two arrays of one shape such as
    a model's `flat` and `grad`."""

    def __init__(self, params: np.ndarray, grad: np.ndarray, lr: float):
        self.params, self.grad = params, grad
        self.lr = lr
        self.t = 0
        self.m, self.v = np.zeros_like(params), np.zeros_like(params)

    def step(self, grad_scale: float = 1.0) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g = self.grad * grad_scale
        self.m = ADAM_BETA1 * self.m + (1.0 - ADAM_BETA1) * g
        self.v = ADAM_BETA2 * self.v + (1.0 - ADAM_BETA2) * g ** 2
        self.params -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS)


@dataclass
class FitResult:
    history: list[tuple[int, str, MetricReport]] = field(default_factory=list)
    best_val_mae: float | None = None
    steps: int = 0


def _chunks(samples, size: int):
    return [samples[i:i + size] for i in range(0, len(samples), size)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Chunk state entries (lookback * N * windows per chunk * width) from which
# `predict_batch` runs its chunks on several threads; see its docstring.
THREADED_STATE_ENTRIES = 50_000


def chunk_workers(cfg, n_chunks: int) -> int:
    """How many threads `predict_batch` runs `n_chunks` chunks on.

    One, unless a chunk's state holds at least THREADED_STATE_ENTRIES
    entries and numpy's bundled OpenBLAS runs at one thread
    (`autodiff.BLAS_PINNED`); then one per usable CPU, at most one per
    chunk.
    """
    entries = cfg.lookback * cfg.n_nodes * windows_per_chunk(cfg) * cfg.width
    if entries < THREADED_STATE_ENTRIES or not BLAS_PINNED:
        return 1
    return min(_usable_cpus(), n_chunks)


def predict_batch(model, samples, workers: int | None = None) -> np.ndarray:
    """Stacked (n, horizon, N) normalized predictions, no recording,
    `windows_per_chunk` windows per forward; (0, horizon, N) for no samples.

    The chunks run on `workers` threads (by default `chunk_workers`), in
    a pool that lives for the call.  The output keeps the order of
    `samples` and equals the chunks run one after another, bit for bit.
    An error raised in a chunk reaches the caller, and every thread has
    ended when this returns.

    A large chunk spends most of its forward in numpy, OpenBLAS and scipy's
    sparse products, which release the GIL; a small one spends it in
    Python.  Forward-only speedup of 2 threads over 1, one BLAS thread,
    median over 7-21 alternating pairs on a 2-vCPU VM:

        chunk state entries   speedup
        23k-31k               0.79-0.95x  (skill config, N=30: 28.8k)
        38k-46k               1.00-1.18x, single pairs down to 0.82x
        58k                   1.23-1.29x
        77k-92k               1.47-1.72x
        115k-159k             1.76-1.88x  (CLI default config, N=207: 159k)
    """
    chunks = _chunks(list(samples), windows_per_chunk(model.cfg))
    if not chunks:
        return np.empty((0, model.cfg.horizon, model.cfg.n_nodes))
    if workers is None:
        workers = chunk_workers(model.cfg, len(chunks))

    def run(chunk):
        return model.predict(np.stack([s.input for s in chunk]))

    if workers <= 1:
        return np.concatenate([run(chunk) for chunk in chunks])
    with ThreadPoolExecutor(workers) as pool:
        return np.concatenate(list(pool.map(run, chunks)))


def _shared(*shape: int) -> np.ndarray:
    """A zeroed float64 array in anonymous shared memory: processes forked
    after this call read and write the same entries."""
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size).reshape(shape)


def _run_chunks(model, samples, jobs, rows, preds):
    """Run each (chunk, sample indices, offset) job in turn: zero the chunk's
    row of `rows` and point the parameters' .grad at it, record the forward
    and the loss, write the predictions into `preds` from `offset`, and run
    backward.  Returns (chunk, error) for the first job that raises, and
    skips the rest, or None."""
    for c, idx, offset in jobs:
        try:
            rows[c] = 0.0
            model.point_grads(rows[c])
            chunk = [samples[i] for i in idx]
            with Tape() as tape:
                pred = model.forward(np.stack([s.input for s in chunk]))
                loss = mae_loss(pred, Tensor(np.stack([s.target for s in chunk])))
            preds[offset:offset + len(chunk)] = pred.data
            tape.backward(loss)
        except Exception as err:
            return c, err
    return None


def _serve(conn, parent_end, model, samples, params, rows, preds) -> None:
    """A `fit` worker: per batch, load `params` into the model, run the jobs
    it is sent and reply with `_run_chunks`'s result, until the pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    parent_end.close()  # so that recv() sees the parent's end close
    while True:
        try:
            jobs = conn.recv()
        except EOFError:
            return
        model.flat[:] = params
        conn.send(_run_chunks(model, samples, jobs, rows, preds))


def _fork_worker(*args):
    """A forked `_serve` worker over `args`, as (process, the parent's pipe end)."""
    ctx = multiprocessing.get_context("fork")
    mine, theirs = ctx.Pipe()
    proc = ctx.Process(target=_serve, args=(theirs, mine, *args), daemon=True)
    proc.start()
    theirs.close()
    return proc, mine


def _reply(proc, conn):
    """A worker's reply to its batch; RuntimeError if it exits without one."""
    wait([conn, proc.sentinel])
    try:
        return conn.recv()  # a worker that has exited left EOF behind
    except EOFError:
        proc.join()
        raise RuntimeError(f"fit worker {proc.pid} exited with code {proc.exitcode} during a batch") from None


def _fit_processes(epochs: int, n_chunks: int) -> int:
    """How many processes share `fit`'s chunks: one per usable CPU, at most
    one per chunk of a batch.  One without epochs, without the `fork` start
    method, in a daemonic process (such as a `multiprocessing.Pool` worker),
    which may not start children, or while another thread runs, whose locks
    a forked child would inherit held."""
    if (epochs == 0 or threading.active_count() > 1 or multiprocessing.current_process().daemon
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return max(1, min(_usable_cpus(), n_chunks))


def fit(model, train_samples, val_samples, cfg: TrainConfig, stats, on_epoch=None) -> FitResult:
    """Mini-batch Adam on the MAE loss.

    Batches are reshuffled each epoch from a generator seeded by cfg.seed
    and run in chunks of `windows_per_chunk` windows, each chunk on its own
    tape with the sum of its windows' losses.  Each chunk's gradient fills
    its own row of a (chunks, P) block, and the optimizer steps on the rows
    summed in chunk order, so a fixed seed reproduces runs bit for bit
    whichever process ran each chunk.  Metric history is reported on
    de-normalized values (via `stats`); the train row uses the predictions
    made during the epoch, the val row a dedicated `predict_batch` pass.
    Parameters with the best validation MAE are restored at the end.  A
    non-finite value raises RuntimeError naming the epoch and the batch
    (the first failing chunk's error, in chunk order) or the validation pass;
    a call with epochs but no training window raises ValueError.

    The chunks of a batch run on `_fit_processes` processes: synchronous
    data parallelism with a fixed reduction order (Goyal et al. 2017,
    arXiv 1706.02677).  The workers are forked for the call and inherit the
    model and the samples copy-on-write.  Per batch the parent copies the
    parameters into shared memory, and process k of p runs the chunks
    c = k (mod p), the parent being process 0.  A worker that exits during
    a batch raises RuntimeError naming its pid and exit code, and every
    worker has ended when this returns or raises.
    """
    if cfg.epochs and len(train_samples) == 0:
        raise ValueError(f"fit got no training windows for epochs={cfg.epochs}")
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.flat, model.grad, lr=cfg.lr)
    result = FitResult()
    best_state = None

    size = windows_per_chunk(model.cfg)
    largest = min(cfg.batch_size, len(train_samples))
    n_chunks = -(-largest // size)
    params = _shared(model.flat.size)
    rows = _shared(n_chunks, model.flat.size)
    preds = _shared(largest, model.cfg.horizon, model.cfg.n_nodes)
    procs = _fit_processes(cfg.epochs, n_chunks)
    workers = []
    try:
        for _ in range(procs - 1):
            workers.append(_fork_worker(model, train_samples, params, rows, preds))
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(train_samples))
            epoch_preds = []
            for b0 in range(0, len(order), cfg.batch_size):
                batch = order[b0:b0 + cfg.batch_size]
                jobs = [(c, batch[i:i + size], i) for c, i in enumerate(range(0, len(batch), size))]
                params[:] = model.flat
                for k, (_, conn) in enumerate(workers, start=1):
                    conn.send(jobs[k::procs])
                failures = [_run_chunks(model, train_samples, jobs[::procs], rows, preds)]
                failures += [_reply(proc, conn) for proc, conn in workers]
                failures = [f for f in failures if f is not None]
                if failures:
                    _, err = min(failures, key=lambda f: f[0])
                    if isinstance(err, NumericError):
                        raise RuntimeError(
                            f"non-finite value at epoch {epoch}, batch {b0 // cfg.batch_size}: {err}"
                        ) from err
                    raise err
                np.copyto(model.grad, rows[0])
                for row in rows[1:len(jobs)]:
                    model.grad += row
                opt.step(grad_scale=1.0 / len(batch))
                result.steps += 1
                epoch_preds.append(preds[:len(batch)].copy())

            train_report = score(np.concatenate(epoch_preds), [train_samples[i] for i in order], stats)
            result.history.append((epoch, "train", train_report))

            val_report = None
            if val_samples:
                try:
                    val_pred = predict_batch(model, val_samples)
                except NumericError as err:
                    raise RuntimeError(f"non-finite value at epoch {epoch}, validation pass: {err}") from err
                val_report = score(val_pred, val_samples, stats)
                result.history.append((epoch, "val", val_report))
                if result.best_val_mae is None or val_report.mae < result.best_val_mae:
                    result.best_val_mae = val_report.mae
                    best_state = model.flat.copy()
            if on_epoch is not None:
                on_epoch(epoch, train_report, val_report)
    finally:
        for proc, conn in workers:
            conn.close()
            proc.terminate()
            proc.join()
        model.point_grads(model.grad)

    if best_state is not None:
        model.flat[:] = best_state
    return result


def write_history_csv(history: list[tuple[int, str, MetricReport]], path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "mae", "rmse", "mape"])
        for epoch, split, report in history:
            mape = "nan" if report.mape is None else repr(report.mape)
            writer.writerow([epoch, split, repr(report.mae), repr(report.rmse), mape])

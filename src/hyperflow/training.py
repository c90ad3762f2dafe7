"""Loss, metrics, splitting, the optimizer, and the training loop."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericError, Tape, Tensor, absolute, mean_all, sub


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    clip_norm: float | None = None

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0, batch_size >= 1")
        if self.lr < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.lr}")


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    mape: float | None  # percent; None when every target is masked

    def as_dict(self) -> dict:
        return {"mae": self.mae, "rmse": self.rmse, "mape": self.mape}


def mae_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all entries, subgradient 0 at exact ties."""
    return mean_all(absolute(sub(pred, target)))


def evaluate(y_pred: np.ndarray, y_true: np.ndarray, mask_threshold: float = 0.0) -> MetricReport:
    """Standard forecasting metrics on de-normalized values.

    MAPE averages |err|/|y| only over targets with |y| > mask_threshold
    (zero-flow readings are excluded); with no unmasked target it is None
    rather than a misleading 0.
    """
    y_pred = np.asarray(y_pred, dtype=float)
    y_true = np.asarray(y_true, dtype=float)
    if y_pred.shape != y_true.shape:
        raise ValueError(f"prediction shape {y_pred.shape} != target shape {y_true.shape}")
    err = y_pred - y_true
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mask = np.abs(y_true) > mask_threshold
    mape = float(np.mean(np.abs(err[mask]) / np.abs(y_true[mask])) * 100.0) if mask.any() else None
    return MetricReport(mae=mae, rmse=rmse, mape=mape)


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
    """Adam with bias correction, matching the standard update rule."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self, grad_scale: float = 1.0, clip_norm: float | None = None) -> None:
        grads = {}
        for name, p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            grads[name] = g * grad_scale
        if clip_norm is not None:
            total = float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values())))
            if total > clip_norm:
                factor = clip_norm / total
                grads = {name: g * factor for name, g in grads.items()}
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name, p in self.params:
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g ** 2
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class FitResult:
    history: list[tuple[int, str, MetricReport]] = field(default_factory=list)
    best_val_mae: float | None = None
    steps: int = 0


def predict_batch(model, samples) -> np.ndarray:
    """Stacked (n, horizon, N) normalized predictions, no recording."""
    return np.stack([model.predict(s.input) for s in samples])


def fit(model, train_samples, val_samples, cfg: TrainConfig, stats=None, on_epoch=None) -> FitResult:
    """Mini-batch Adam on the MAE loss.

    Batches are reshuffled each epoch from a generator seeded by cfg.seed
    and run one sample at a time, each on its own tape, so a fixed seed
    reproduces runs bit for bit.  Metric history is reported on
    de-normalized values (via `stats`); the train row uses the predictions
    accumulated during the epoch, the val row a dedicated pass.  Parameters
    with the best validation MAE are restored at the end.
    """
    denorm = (lambda y: y) if stats is None else stats.invert_flow
    rng = np.random.default_rng(cfg.seed)
    opt = Adam(model.named_parameters(), lr=cfg.lr, beta1=cfg.beta1,
               beta2=cfg.beta2, eps=cfg.adam_eps)
    result = FitResult()
    best_state = None

    def run_sample(sample):
        with Tape() as tape:
            pred = model.forward(sample.input)
            loss = mae_loss(pred, Tensor(sample.target))
        tape.backward(loss)
        return pred.data

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_samples))
        epoch_preds, epoch_trues = [], []
        for b0 in range(0, len(order), cfg.batch_size):
            batch = [train_samples[i] for i in order[b0:b0 + cfg.batch_size]]
            opt.zero_grad()
            try:
                epoch_preds.extend(run_sample(s) for s in batch)
            except NumericError as err:
                raise RuntimeError(
                    f"non-finite value at epoch {epoch}, batch {b0 // cfg.batch_size}: {err}"
                ) from err
            opt.step(grad_scale=1.0 / len(batch), clip_norm=cfg.clip_norm)
            result.steps += 1
            epoch_trues.extend(s.target for s in batch)

        train_report = evaluate(denorm(np.stack(epoch_preds)),
                                denorm(np.stack(epoch_trues)))
        result.history.append((epoch, "train", train_report))

        val_report = None
        if val_samples:
            val_pred = predict_batch(model, val_samples)
            val_true = np.stack([s.target for s in val_samples])
            val_report = evaluate(denorm(val_pred), denorm(val_true))
            result.history.append((epoch, "val", val_report))
            if result.best_val_mae is None or val_report.mae < result.best_val_mae:
                result.best_val_mae = val_report.mae
                best_state = model.state()
        if on_epoch is not None:
            on_epoch(epoch, train_report, val_report)

    if best_state is not None:
        model.load_state(best_state)
    return result


def write_history_csv(history: list[tuple[int, str, MetricReport]], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "mae", "rmse", "mape"])
        for epoch, split, report in history:
            mape = "nan" if report.mape is None else repr(report.mape)
            writer.writerow([epoch, split, repr(report.mae), repr(report.rmse), mape])

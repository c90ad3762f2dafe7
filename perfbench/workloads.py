"""The benchmark's workloads and the phases every run goes through.

Each run, traced or not, generates its inputs from the seed, writes a
checkpoint with ``hyperflow train --epochs 0`` (untimed preparation), and
then measures, closed loop with one client:

* set-up: ingest + prepare_dataset of both series, Forecaster, load_checkpoint,
  repeated;
* rounds, until ``--seconds`` are spent, of
  - one fixed-size ``fit`` call on a fresh seeded model,
  - ``hyperflow predict`` commands over the test split to CSV,
  - single-window ``Forecaster.predict`` calls.

Rounds interleave the three so that a slow spell of a shared machine lands
on every metric a little rather than on one metric entirely; each metric
is a median over the samples of all rounds.  The workloads differ in model
size and in how much of a round each part takes; README.md gives the
reasons and the measured layer shares.
Only public entry points are called, and always through their module, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from hyperflow import autodiff, checkpoint, cli, data, graphs, training
from hyperflow import model as hmodel
from reference_model import reference_forward

from layertrace import Tracer

LOOKBACK = 12
HORIZON = 12
BATCH = 32
HISTORY_STEPS = 1463  # about five days of 5-minute readings: 1440 windows
SETUP_REPS = 31
# Acceptance "skill" config and the CLI default config (ROADMAP aim 1).
SKILL_MODEL = dict(width=16, n_hyperedges=8, windows=(1, 2, 3), encoder_layers=2, scale_iters=2)
DEFAULT_MODEL = dict(width=64, n_hyperedges=32, windows=(1, 2, 3, 4, 6, 12),
                     encoder_layers=6, scale_iters=2)


class BenchError(RuntimeError):
    """A preparation step failed; the run cannot produce results."""


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    communities: int
    road: str  # "synth": synth_generate's rings; "knn": about 8 directed edges per sensor
    model: dict
    recent_steps: int  # tail of the series the checkpoint and predict command see
    epochs: int  # per fit call, so that the step count is fixed
    train_windows: int  # spread evenly over the train split of the history
    val_windows: int  # spread evenly over its val split
    commands: int  # predict commands per round
    forecasts: int  # Forecaster.predict calls per round
    min_rounds: int  # whatever --seconds says
    tail: float  # forecast_ms_tail percentile; min_rounds * forecasts leaves >= 10 beyond it

    def config(self) -> hmodel.ModelConfig:
        return hmodel.ModelConfig(n_nodes=self.nodes, n_features=1, lookback=LOOKBACK,
                                  horizon=HORIZON, **self.model)

    def model_flags(self) -> list[str]:
        m = self.model
        return ["--d", str(m["width"]), "--hyperedges", str(m["n_hyperedges"]),
                "--windows", ",".join(map(str, m["windows"])), "--lp", str(m["encoder_layers"]),
                "--ls", str(m["scale_iters"]), "--lookback", str(LOOKBACK),
                "--horizon", str(HORIZON)]


WORKLOADS = {w.name: w for w in (
    # Per-op Python and tape overhead dominate at this size.  10 Adam steps
    # per fit call; the predict command covers 288 test windows.
    Workload("train_small", nodes=30, communities=3, road="synth", model=SKILL_MODEL,
             recent_steps=HISTORY_STEPS, epochs=2, train_windows=160, val_windows=96,
             commands=1, forecasts=300, min_rounds=4, tail=95.0),
    # Dense and CSR kernels dominate.  One Adam step per fit call; the
    # predict command covers the 24 test windows of the last 12 hours.
    # Rounds give training and forward-only prediction about equal time,
    # so extra forward work bought for backward speed shows here too.
    Workload("train_large", nodes=207, communities=9, road="knn", model=DEFAULT_MODEL,
             recent_steps=143, epochs=1, train_windows=32, val_windows=8,
             commands=2, forecasts=60, min_rounds=3, tail=90.0),
)}


# ---------------------------------------------------------------------------
# Inputs


def knn_road_network(n: int, communities: int, seed: int) -> graphs.RoadNetwork:
    """Sensors scattered around one centre per community, each linked both
    ways to its 6 nearest neighbours (about 8 directed edges per sensor),
    weighted by a Gaussian kernel of distance as in METR-LA-style graphs."""
    rng = np.random.default_rng([seed, 1])
    centres = rng.uniform(0.0, 1.0, (communities, 2))
    pos = np.empty((n, 2))
    # Same node blocks as synth_generate's communities.
    for c, nodes in enumerate(np.array_split(np.arange(n), communities)):
        pos[nodes] = centres[c] + rng.normal(0.0, 0.08, (len(nodes), 2))
    dist = np.linalg.norm(pos[:, None] - pos[None], axis=2)
    nearest = np.argsort(dist, axis=1)[:, 1:7]
    sigma = float(np.std(np.take_along_axis(dist, nearest, axis=1)))
    edges = {}
    for i in range(n):
        for j in map(int, nearest[i]):
            w = float(np.exp(-(dist[i, j] / sigma) ** 2))
            edges[(i, j)] = edges[(j, i)] = w
    return graphs.RoadNetwork(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def make_inputs(w: Workload, seed: int, out: Path) -> dict:
    """The history series for training, and its last recent_steps for the
    checkpoint and the predict command; returns {"history": paths, "recent": paths}."""
    signal, net, membership = data.synth_generate(w.nodes, w.communities, HISTORY_STEPS, seed)
    if w.road == "knn":
        net = knn_road_network(w.nodes, w.communities, seed)
    recent = data.SignalTensor(signal.values[-w.recent_steps:], signal.interval_minutes)
    return {"history": data.save_synth(out / "history", signal, net, membership),
            "recent": data.save_synth(out / "recent", recent, net, membership),
            "edges_per_sensor": len(net.edges) / w.nodes}


# ---------------------------------------------------------------------------
# Phases


def _quiet_cli(argv: list[str]) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        print(f"hyperflow {argv[0]} exited {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return rc


def write_checkpoint(w: Workload, seed: int, paths: dict, out: Path) -> Path:
    argv = ["train", "--data", str(paths["signals"]), "--edges", str(paths["edges"]),
            "--out", str(out / "ckpt"), "--seed", str(seed), "--epochs", "0", *w.model_flags()]
    if _quiet_cli(argv) != 0:
        raise BenchError("could not write the checkpoint")
    return out / "ckpt" / "model.ckpt"


@dataclass
class State:
    net: graphs.RoadNetwork
    history: object  # PreparedData of the history series
    recent: object  # PreparedData of the recent series
    model: hmodel.Forecaster  # loaded from the checkpoint


def setup(w: Workload, seed: int, inputs: dict, ckpt: Path) -> tuple[float, State]:
    """The work a user pays before the first window: both series ingested
    and windowed, the model built and its checkpoint loaded."""
    start = perf_counter()
    prepared = []
    for key in ("history", "recent"):
        signal, net = data.ingest(inputs[key]["signals"], inputs[key]["edges"])
        prepared.append(data.prepare_dataset(signal, LOOKBACK, HORIZON))
    model = hmodel.Forecaster(w.config(), net, seed=seed)
    _, tensors = checkpoint.load_checkpoint(ckpt)
    model.load_state(tensors)
    return perf_counter() - start, State(net, *prepared, model)


@dataclass
class FitOutcome:
    seconds: float
    train_mae: float  # last epoch
    val_mae: float  # best epoch
    losses: list[float]


def spread(samples: list, k: int) -> list:
    """k windows evenly spaced over a split, so they span its times of day."""
    return samples[::max(len(samples) // k, 1)][:k]


def fit_once(w: Workload, net, prep, seed: int, n_train: int, n_val: int, epochs: int) -> FitOutcome:
    """A fit call on a fresh seeded model at the default learning rate."""
    model = hmodel.Forecaster(w.config(), net, seed=seed)
    cfg = training.TrainConfig(epochs=epochs, batch_size=BATCH, seed=seed)
    train, val = spread(prep.train, n_train), spread(prep.val, n_val)
    start = perf_counter()
    result = training.fit(model, train, val, cfg, stats=prep.stats)
    seconds = perf_counter() - start
    # fit reports de-normalized MAE; dividing by the flow std gives z units,
    # which do not scale with each seed's traffic level.
    std = float(prep.stats.std[0])
    train_mae = [r.mae for _, split, r in result.history if split == "train"]
    return FitOutcome(seconds, train_mae[-1] / std, result.best_val_mae / std,
                      [r.mae for _, _, r in result.history])


def warm_up(w: Workload, net, prep, seed: int) -> None:
    """One window through fit (forward, backward, step, validation), so
    lazy set-up is not timed."""
    fit_once(w, net, prep, seed, n_train=1, n_val=1, epochs=1)


def _rounds(seconds: float, minimum: int, step) -> int:
    """Call step() at least `minimum` times, then while another call is
    expected to end within `seconds`.  Returns the number of calls."""
    start = perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        spent = perf_counter() - start
        if calls >= minimum and spent + spent / calls > seconds:
            return calls


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100.0 * len(ordered)), 1) - 1]


# ---------------------------------------------------------------------------
# Output checks


def check_csv(path: Path, model, prep) -> str | None:
    """CLI rows must equal predict_batch's de-normalized values bit for bit."""
    expected = prep.stats.invert_flow(training.predict_batch(model, prep.test))
    truth = prep.stats.invert_flow(np.stack([s.target for s in prep.test]))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["t", "node", "y_true", "y_pred"]:
        return f"predict CSV header {rows[0]}"
    body = np.array([[float(v) for v in r[2:]] for r in rows[1:]])
    if body.shape != (expected.size, 2):
        return f"predict CSV has {len(rows) - 1} rows, expected {expected.size}"
    if not (np.array_equal(body[:, 1], expected.ravel())
            and np.array_equal(body[:, 0], truth.ravel())):
        return "predict CSV values differ from predict_batch"
    return None


def check_reference(seed: int) -> str | None:
    """One skill-config window against the straight-line reference at 1e-9."""
    signal, net, _ = data.synth_generate(30, 3, 40, seed)
    prep = data.prepare_dataset(signal, LOOKBACK, HORIZON)
    model = hmodel.Forecaster(hmodel.ModelConfig(n_nodes=30, **SKILL_MODEL), net, seed=seed)
    x = prep.test[0].input
    ref = reference_forward(x, net.edges, 30, dict(lookback=LOOKBACK, horizon=HORIZON,
                                                   hyper_layers=1, **SKILL_MODEL), model.state())
    dev = float(np.max(np.abs(model.predict(x) - ref)))
    return None if dev < 1e-9 else f"reference deviation {dev:.3e} >= 1e-9"


# ---------------------------------------------------------------------------
# One run


def run(w: Workload, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    """Measure one workload; returns the result run.py prints."""
    inputs = make_inputs(w, seed, out)
    signal, net = data.ingest(inputs["history"]["signals"], inputs["history"]["edges"])
    history = data.prepare_dataset(signal, LOOKBACK, HORIZON)
    warm_up(w, net, history, seed)
    tracer = None
    if trace:
        tracer = Tracer(w.nodes, LOOKBACK)
        tracer.install()

    attempted = failed = 0
    fits: list[FitOutcome] = []
    untraced_s: list[float] = []  # traced runs only: each round's fit once more, untraced
    predict_s: list[float] = []
    forecast_s: list[float] = []
    try:
        ckpt = write_checkpoint(w, seed, inputs["recent"], out)
        setup_s = []
        for _ in range(SETUP_REPS):  # keep only the last state alive
            elapsed, state = setup(w, seed, inputs, ckpt)
            setup_s.append(elapsed)
        test = state.recent.test

        def fit_step():
            nonlocal attempted, failed
            attempted += w.epochs * w.train_windows
            args = (w, state.net, state.history, seed, w.train_windows, w.val_windows, w.epochs)
            try:
                if tracer is not None:
                    with tracer.paused():
                        untraced_s.append(fit_once(*args).seconds)
                fits.append(fit_once(*args))
            except RuntimeError:  # fit wraps NumericError with epoch and batch
                failed += w.epochs * w.train_windows

        csv_path = out / "predictions.csv"
        argv = ["predict", "--data", str(inputs["recent"]["signals"]),
                "--edges", str(inputs["recent"]["edges"]), "--checkpoint", str(ckpt),
                "--split", "test", "--out", str(csv_path)]

        def predict_step():
            nonlocal attempted, failed
            attempted += len(test)
            start = perf_counter()
            if _quiet_cli(argv) == 0:
                predict_s.append(perf_counter() - start)
            else:
                failed += len(test)

        def forecast_step():
            nonlocal attempted, failed
            x = test[attempted % len(test)].input
            attempted += 1
            start = perf_counter()
            try:
                y = state.model.predict(x)
            except autodiff.NumericError:
                failed += 1
                return
            elapsed = perf_counter() - start
            if np.all(np.isfinite(y)):
                forecast_s.append(elapsed)
            else:
                failed += 1

        def round_step():
            fit_step()
            for _ in range(w.commands):
                predict_step()
            for _ in range(w.forecasts):
                forecast_step()

        rounds = _rounds(seconds, w.min_rounds, round_step)
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = []
    if not fits or not predict_s or not forecast_s:
        problems.append("a phase completed no operation")
    else:
        if any(not math.isfinite(v) for f in fits for v in f.losses + [f.val_mae]):
            problems.append("non-finite loss")
        if any((f.train_mae, f.val_mae) != (fits[0].train_mae, fits[0].val_mae) for f in fits):
            problems.append("repeated fit calls with one seed disagree")
        problems.append(check_csv(csv_path, state.model, state.recent))
    problems.append(check_reference(seed))
    problems = [p for p in problems if p]

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "problems": problems, "info": {
                  "edges_per_sensor": inputs["edges_per_sensor"], "rounds": rounds,
                  "fit_calls": len(fits), "steps_per_fit": w.epochs * -(-w.train_windows // BATCH),
                  "predict_commands": len(predict_s), "test_windows": len(test),
                  "forecast_calls": len(forecast_s),
              }}
    if problems:
        result["metrics"] = {}
        return result
    if trace:
        traced_s = statistics.median(f.seconds for f in fits)
        result["metrics"] = tracer.report(traced_s / statistics.median(untraced_s) - 1.0)
        traced = result["metrics"]
        if traced["autodiff.unattributed_nodes"][0] != 0:
            result["problems"].append("tape nodes outside every layer span")
        # Self time is Tape.backward minus the layers' vjp time; it cannot be
        # negative unless a vjp ran outside a timed backward.
        if traced["autodiff.backward_self_ms"][0] < 0:
            result["problems"].append("attributed vjp time exceeds Tape.backward time")
        result["correct"] = not result["problems"]
        return result
    result["info"]["forecast_tail_percentile"] = w.tail
    result["metrics"] = {
        "setup_s": (statistics.median(setup_s), "s"),
        "train_windows_per_s": (statistics.median(w.epochs * w.train_windows / f.seconds
                                                  for f in fits), "1/s"),
        "train_mae_final": (fits[0].train_mae, "z"),
        "val_mae": (fits[0].val_mae, "z"),
        "predict_windows_per_s": (statistics.median(len(test) / s for s in predict_s), "1/s"),
        "forecast_ms_p50": (1e3 * statistics.median(forecast_s), "ms"),
        "forecast_ms_tail": (1e3 * percentile(forecast_s, w.tail), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return result

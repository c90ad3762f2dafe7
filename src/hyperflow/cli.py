"""Command-line surface: train, eval, predict, synth, verify, bench, export-incidence.

Every command validates its configuration before touching data and is
bit-reproducible: the commands that draw random numbers (train, synth,
verify and bench) take them all from --seed, and two identical `train`
invocations write byte-identical summary files.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from .autodiff import NumericError
from .checkpoint import atomic_open, load_checkpoint, save_checkpoint
from .data import NormStats, ingest, prepare_dataset, save_synth, synth_generate
from .graphs import RoadNetwork
from .hyperedges import write_incidence_csv
from .model import Forecaster, ModelConfig
from .oracles import run_verification
from .training import TrainConfig, evaluate, fit, predict_batch, write_history_csv

# Errors that `main` reports as one `error: ...` line and exit code 1.
_CLEAN_ERRORS = (ValueError, KeyError, OSError, RuntimeError, NumericError)
# Thread-count variables of the BLAS builds numpy may load; `bench` pins them to 1.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The sizes `bench` times: T over t_grid at base_n sensors, then N over n_grid
# at t_fixed steps, with edges_per_node random out-edges per sensor.
BENCH_GRID = {"t_grid": (6, 12, 24, 48), "n_grid": (50, 100, 200, 400), "base_n": 80, "t_fixed": 12,
              "edges_per_node": 4}


def _parse_windows(text: str) -> tuple[int, ...]:
    try:
        windows = tuple(int(w) for w in text.split(",") if w.strip())
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"windows must be comma-separated integers, got {text!r}") from err
    if not windows:
        raise argparse.ArgumentTypeError("windows list is empty")
    return windows


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=64, help="hidden width (default 64)")
    p.add_argument("--hyperedges", type=int, default=32, help="number of hyperedges (default 32)")
    p.add_argument("--windows", type=_parse_windows, default=(1, 2, 3, 4, 6, 12),
                   help="pooling window sizes, must divide the lookback (default 1,2,3,4,6,12)")
    p.add_argument("--lp", type=int, default=6, help="prior convolution layers (default 6)")
    p.add_argument("--ls", type=int, default=2, help="block iterations per scale (default 2)")
    p.add_argument("--lookback", type=int, default=12, help="input steps (default 12)")
    p.add_argument("--horizon", type=int, default=12, help="predicted steps (default 12)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=100, help="training epochs (default 100)")
    p.add_argument("--batch-size", type=int, default=32, help="minibatch size (default 32)")
    p.add_argument("--lr", type=float, default=0.001, help="Adam learning rate (default 0.001)")


def _model_config_from_args(args, n_nodes: int, n_features: int) -> ModelConfig:
    return ModelConfig(
        n_nodes=n_nodes,
        n_features=n_features,
        lookback=args.lookback,
        horizon=args.horizon,
        width=args.d,
        n_hyperedges=args.hyperedges,
        windows=args.windows,
        encoder_layers=args.lp,
        scale_iters=args.ls,
    )


def _validate_flags_early(args) -> None:
    # Constructing a throwaway config runs the divisibility and positivity
    # checks before any file is opened.
    _model_config_from_args(args, n_nodes=1, n_features=1)


def _split_samples(prepared, split: str):
    return getattr(prepared, "all_samples" if split == "all" else split)


def _load_model(checkpoint_path) -> tuple[Forecaster, NormStats, dict]:
    meta, tensors = load_checkpoint(checkpoint_path)
    cfg = ModelConfig.from_json(meta["model"])
    net = RoadNetwork(cfg.n_nodes, meta["edges"])
    model = Forecaster(cfg, net, seed=0)
    model.load_state(tensors)
    stats = NormStats(mean=np.array(meta["stats"]["mean"]), std=np.array(meta["stats"]["std"]))
    return model, stats, meta


# ---------------------------------------------------------------------------
# Commands


def cmd_train(args) -> int:
    _validate_flags_early(args)
    train_cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr, seed=args.seed)
    signal, net = ingest(args.data, args.edges)
    # An unusable --out fails here, not after the whole fit.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = _model_config_from_args(args, n_nodes=signal.n_nodes, n_features=signal.n_features)
    prepared = prepare_dataset(signal, cfg.lookback, cfg.horizon)
    model = Forecaster(cfg, net, seed=args.seed)

    def report(epoch, train_rep, val_rep):
        val = f" val_mae={val_rep.mae:.4f}" if val_rep else ""
        print(f"epoch {epoch}: train_mae={train_rep.mae:.4f}{val}", flush=True)

    result = fit(model, prepared.train, prepared.val, train_cfg, stats=prepared.stats,
                 on_epoch=report)

    test_pred = prepared.stats.invert_flow(predict_batch(model, prepared.test))
    test_true = prepared.stats.invert_flow(np.stack([s.target for s in prepared.test]))
    test_report = evaluate(test_pred, test_true)

    meta = {
        "model": cfg.to_json(),
        "stats": {"mean": prepared.stats.mean.tolist(), "std": prepared.stats.std.tolist()},
        "edges": [[u, v, w] for u, v, w in net.edges],
        "seed": args.seed,
    }
    save_checkpoint(out / "model.ckpt", meta, model.state())
    write_history_csv(result.history, out / "history.csv")
    summary = {"test_mae": test_report.mae, "test_rmse": test_report.rmse,
               "test_mape": test_report.mape}
    with atomic_open(out / "summary.json") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"test: mae={test_report.mae:.4f} rmse={test_report.rmse:.4f} "
          f"mape={'-' if test_report.mape is None else f'{test_report.mape:.2f}%'}")
    print(f"wrote {out / 'model.ckpt'}, {out / 'history.csv'}, {out / 'summary.json'}")
    return 0


def _prepare_for_checkpoint(args):
    model, stats, _ = _load_model(args.checkpoint)
    signal, net = ingest(args.data, args.edges)
    cfg = model.cfg
    if signal.n_nodes != cfg.n_nodes:
        raise ValueError(f"checkpoint was trained on {cfg.n_nodes} nodes, data has {signal.n_nodes}")
    if signal.n_features != cfg.n_features:
        raise ValueError(f"checkpoint expects {cfg.n_features} features, data has {signal.n_features}")
    if net.edges != model.net.edges:
        raise ValueError("edge file does not match the road network stored in the checkpoint")
    prepared = prepare_dataset(signal, cfg.lookback, cfg.horizon, stats=stats)
    return model, stats, prepared


def cmd_eval(args) -> int:
    model, stats, prepared = _prepare_for_checkpoint(args)
    samples = _split_samples(prepared, args.split)
    pred = stats.invert_flow(predict_batch(model, samples))
    true = stats.invert_flow(np.stack([s.target for s in samples]))
    report = evaluate(pred, true)
    print(json.dumps({"split": args.split, **report.as_dict()}, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    model, stats, prepared = _prepare_for_checkpoint(args)
    samples = _split_samples(prepared, args.split)
    lookback = model.cfg.lookback
    preds = stats.invert_flow(predict_batch(model, samples))
    # Windows are ordered by start with stride 1, so a target step recurs in
    # up to `horizon` consecutive windows: format its "t,node,y_true," row
    # prefixes once, keyed by absolute step, and drop the steps behind the
    # current window.  Each window's rows go out in one write.
    prefixes: dict[int, list[str]] = {}
    with atomic_open(args.out, "w", newline="") as fh:
        fh.write("t,node,y_true,y_pred\n")
        for sample, pred in zip(samples, preds):
            first = sample.start + lookback
            for t_abs in [t for t in prefixes if t < first]:
                del prefixes[t_abs]
            true = None
            lines: list[str] = []
            for k, row in enumerate(pred.tolist()):
                t_abs = first + k
                step = prefixes.get(t_abs)
                if step is None:
                    if true is None:
                        true = stats.invert_flow(sample.target).tolist()
                    step = prefixes[t_abs] = [f"{t_abs},{i},{y!r}," for i, y in enumerate(true[k])]
                lines.extend([f"{prefix}{y!r}\n" for prefix, y in zip(step, row)])
            fh.write("".join(lines))
    print(f"wrote {args.out} ({len(samples)} windows)")
    return 0


def cmd_synth(args) -> int:
    signal, net, membership = synth_generate(
        args.nodes, args.communities, args.steps, args.seed,
        noise_std=args.noise, events_per_day=args.events_per_day)
    paths = save_synth(args.out, signal, net, membership)
    print(f"wrote {paths['signals']}, {paths['sidecar']}, {paths['edges']}, {paths['membership']}")
    return 0


def cmd_verify(args) -> int:
    results = run_verification(seed=args.seed)
    families = {r.family for r in results}
    failures = [r for r in results if not r.passed]
    for r in results:
        print(r.line())
    print(f"{len(results)} oracles in {len(families)} families, {len(failures)} failures")
    return 1 if failures else 0


def _bench_model(n: int, t: int, width: int, edges_per_node: int, rng) -> tuple[Forecaster, np.ndarray, int]:
    pairs = set()
    while len(pairs) < edges_per_node * n:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.add((int(u), int(v)))
    net = RoadNetwork(n, tuple((u, v, float(rng.uniform(0.5, 2.0))) for u, v in pairs))
    cfg = ModelConfig(n_nodes=n, n_features=1, lookback=t, horizon=4, width=width,
                      n_hyperedges=8, windows=(1, 2, 3), encoder_layers=2, scale_iters=1)
    model = Forecaster(cfg, net, seed=0)
    x = rng.normal(size=(t, n, 1))
    return model, x, len(net.edges)


def _bench_measure(spec: dict) -> dict:
    """Time every grid point and the width doubling; runs in the bench child process.

    The points are timed in turn, `repeats` passes over all of them, each
    keeping its fastest call, so a slow or fast stretch of the machine
    reaches every point, not just the few it would bend the slopes through.
    """
    rng = np.random.default_rng(spec["seed"])
    d, base_n, t_fixed = spec["d"], spec["base_n"], spec["t_fixed"]
    points = ([(base_n, t, d) for t in spec["t_grid"]] + [(n, t_fixed, d) for n in spec["n_grid"]]
              + [(base_n, t_fixed, d), (base_n, t_fixed, 2 * d)])
    built = [_bench_model(n, t, width, spec["edges_per_node"], rng) for n, t, width in points]
    for model, x, _ in built:
        model.predict(x)  # warmup
    best = [float("inf")] * len(built)
    for _ in range(spec["repeats"]):
        for i, (model, x, _) in enumerate(built):
            start = time.perf_counter()
            model.predict(x)
            best[i] = min(best[i], time.perf_counter() - start)
    rows = [(n, t, nnz, sec) for (n, t, _), (_, _, nnz), sec in zip(points[:-2], built, best)]
    return {"rows": rows, "ratio_d": best[-1] / best[-2]}


def _bench_child(spec_json: str) -> int:
    """Entry point of the child process: measurements as one JSON line on stdout."""
    try:
        measured = _bench_measure(json.loads(spec_json))
    except _CLEAN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(measured))
    return 0


def _run_bench_child(spec: dict) -> dict:
    # A fresh process with one BLAS thread: forward time in the calling
    # process depends on its heap history (after a long training run small
    # sizes stop page-faulting, large ones do not) and, under a BLAS build
    # that the import-time OpenBLAS pin does not reach, on BLAS splitting
    # only the larger products across cores, both of which bend the slopes.
    env = dict(os.environ, **{var: "1" for var in _BLAS_THREAD_VARS})
    package_root = str(Path(__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    code = "import sys; from hyperflow.cli import _bench_child; sys.exit(_bench_child(sys.argv[1]))"
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(spec)],
                          cwd=package_root, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        errors = [line for line in lines if line.startswith("error: ")]
        raise RuntimeError(errors[-1][len("error: "):] if errors else f"bench process failed: {lines[-1]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cmd_bench(args) -> int:
    # Built here, not in the child, so the child times the grid this process sees.
    spec = {**BENCH_GRID, "d": args.d, "repeats": args.repeats, "seed": args.seed}
    measured = _run_bench_child(spec)
    rows = measured["rows"]

    with atomic_open(args.out, "w", newline="") as fh:
        fh.write("n,t,nnz,seconds\n")
        for n, t, nnz, sec in rows:
            fh.write(f"{n},{t},{nnz},{sec!r}\n")

    t_rows = rows[:len(spec["t_grid"])]
    n_rows = rows[len(spec["t_grid"]):]
    slope_t = float(np.polyfit(np.log([r[1] for r in t_rows]), np.log([r[3] for r in t_rows]), 1)[0])
    slope_nnz = float(np.polyfit(np.log([r[2] for r in n_rows]), np.log([r[3] for r in n_rows]), 1)[0])

    print(f"slope_t={slope_t:.3f}")
    print(f"slope_nnz={slope_nnz:.3f}")
    print(f"d_double_time_ratio={measured['ratio_d']:.3f}")
    print(f"wrote {args.out}")
    return 0


def cmd_export_incidence(args) -> int:
    model, stats, prepared = _prepare_for_checkpoint(args)
    if 1 not in model.cfg.windows:
        raise ValueError("incidence export needs window size 1 in the model's window set")
    samples = _split_samples(prepared, args.split)
    if not (0 <= args.window_index < len(samples)):
        raise ValueError(f"window index {args.window_index} out of range for {len(samples)} windows")
    sample = samples[args.window_index]
    capture: dict = {}
    model.forward(sample.input, capture=capture)
    lam = capture["incidence"][1][-1]  # finest scale, final block iteration
    write_incidence_csv(lam, model.cfg.lookback, model.cfg.n_nodes, args.out)
    print(f"wrote {args.out} ({lam.shape[0] * lam.shape[1]} rows)")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperflow",
        description="Traffic flow forecasting with learned dynamic hypergraph structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write checkpoint, history, summary")
    p.add_argument("--data", required=True, help="signals .bin file (with .json sidecar)")
    p.add_argument("--edges", required=True, help="road network CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    _add_model_flags(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    for name, func, help_text in (
        ("eval", cmd_eval, "report MAE/RMSE/MAPE of a checkpoint on a data split"),
        ("predict", cmd_predict, "write de-normalized predictions as CSV"),
        ("export-incidence", cmd_export_incidence, "dump the learned incidence matrix for one window"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--data", required=True)
        p.add_argument("--edges", required=True)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
        if name == "predict":
            p.add_argument("--out", required=True, help="prediction CSV path")
        if name == "export-incidence":
            p.add_argument("--out", required=True, help="incidence CSV path")
            p.add_argument("--window-index", type=int, default=0)
        p.set_defaults(func=func)

    p = sub.add_parser("synth", help="generate community-structured synthetic traffic data")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--nodes", type=int, default=30)
    p.add_argument("--communities", type=int, default=3)
    p.add_argument("--steps", type=int, default=4032)
    p.add_argument("--noise", type=float, default=3.0)
    p.add_argument("--events-per-day", type=float, default=4.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="run every property oracle and report pass/fail")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "bench", help="time forward passes over size grids and fit scaling slopes",
        description="Time forward passes over size grids and fit log-log scaling slopes. "
                    "The grid is fixed: T in {t_grid} at N={base_n}, then N in {n_grid} at "
                    "T={t_fixed}, with {edges_per_node} random out-edges per sensor. "
                    "The timings come from a fresh Python process with one BLAS thread, so "
                    "neither the caller's heap history nor BLAS splitting only the larger "
                    "products across cores bends the slopes.".format(**BENCH_GRID))
    p.add_argument("--out", required=True, help="timing CSV path")
    p.add_argument("--d", type=int, default=64)
    p.add_argument("--repeats", type=int, default=3,
                   help="timed passes over the grid after one warm-up call per point; each point "
                        "keeps its fastest call (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CLEAN_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

#!/usr/bin/env python3
"""Desk-scale forecast experiment on community-structured synthetic traffic.

Generates a seed-fixed synthetic dataset, trains a reduced-size model,
compares its test error against the historical-average baseline, and
analyzes whether the learned incidence matrix recovers the planted
community structure.  Writes a JSON results file plus the incidence CSV.
"""

import argparse
import json
import time
from pathlib import Path

import numpy as np

import hyperflow as hf
from hyperflow.hyperedges import community_cosines, write_incidence_csv
from hyperflow.model import Forecaster, ModelConfig
from hyperflow.training import TrainConfig, evaluate, fit, ha_baseline, predict_batch, score


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/community_forecast")
    ap.add_argument("--nodes", type=int, default=30)
    ap.add_argument("--communities", type=int, default=3)
    ap.add_argument("--steps", type=int, default=4032)
    ap.add_argument("--d", type=int, default=16)
    ap.add_argument("--hyperedges", type=int, default=8)
    ap.add_argument("--windows", default="1,2,3")
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--lr", type=float, default=3e-3)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    if args.communities < 2:
        ap.error("--communities must be at least 2 to compare within and across communities")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    windows = tuple(int(w) for w in args.windows.split(","))

    start = time.time()
    signal, net, membership = hf.synth_generate(args.nodes, args.communities, args.steps,
                                                seed=args.seed)
    prep = hf.prepare_dataset(signal, 12, 12)
    cfg = ModelConfig(n_nodes=args.nodes, n_features=1, lookback=12, horizon=12,
                      width=args.d, n_hyperedges=args.hyperedges, windows=windows,
                      encoder_layers=2, scale_iters=2)
    model = Forecaster(cfg, net, seed=args.seed)

    def progress(epoch, train_rep, val_rep):
        print(f"epoch {epoch}: train_mae={train_rep.mae:.3f} val_mae={val_rep.mae:.3f}", flush=True)

    fit(model, prep.train, prep.val,
        TrainConfig(epochs=args.epochs, batch_size=32, lr=args.lr, seed=args.seed),
        stats=prep.stats, on_epoch=progress)

    model_rep = score(predict_batch(model, prep.test), prep.test, prep.stats)
    test_true = prep.stats.invert_flow(np.stack([s.target for s in prep.test]))
    ha_rep = evaluate(np.stack([ha_baseline(prep.stats.invert_flow(s.input[:, :, 0]), 12)
                                for s in prep.test]), test_true)

    capture = {}
    model.forward(prep.test[0].input, capture=capture)
    lam = capture["incidence"][1][-1]
    write_incidence_csv(lam, cfg.lookback, cfg.n_nodes, out / "incidence.csv")
    lam = lam.reshape(cfg.lookback, cfg.n_nodes, cfg.n_hyperedges)
    same_cos, cross_cos = community_cosines(lam, membership)

    results = {
        "model": model_rep.as_dict(),
        "historical_average": ha_rep.as_dict(),
        "mae_improvement_over_ha": 1.0 - model_rep.mae / ha_rep.mae,
        "incidence_inter_step_change": float(np.mean(np.abs(np.diff(lam, axis=0)))),
        "incidence_same_community_cosine": same_cos,
        "incidence_cross_community_cosine": cross_cos,
        "minutes": (time.time() - start) / 60.0,
    }
    (out / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps(results, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()

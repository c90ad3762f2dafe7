import csv
import io
import json
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

import hyperflow.cli
import hyperflow.oracles
from hyperflow.checkpoint import load_checkpoint, save_checkpoint
from hyperflow.cli import main
from hyperflow.data import NormStats, ingest, prepare_dataset
from hyperflow.graphs import RoadNetwork
from hyperflow.model import Forecaster, ModelConfig
from hyperflow.training import predict_batch, windows_per_chunk

from conftest import run_python


TINY = ["--d", "8", "--hyperedges", "4", "--windows", "1,2", "--lp", "1", "--ls", "1",
        "--lookback", "6", "--horizon", "3"]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["synth", "--out", str(out), "--nodes", "8", "--communities", "2",
               "--steps", "140", "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rc = main(["train", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"), "--out", str(out),
               "--seed", "3", "--epochs", "2", "--batch-size", "16", *TINY])
    assert rc == 0
    return out


def test_synth_writes_file_set(synth_dir):
    for name in ("signals.bin", "signals.json", "edges.csv", "membership.csv"):
        assert (synth_dir / name).exists()
    meta = json.loads((synth_dir / "signals.json").read_text())
    assert (meta["T"], meta["N"], meta["F"]) == (140, 8, 1)


def test_train_writes_all_artifacts(trained_dir):
    assert (trained_dir / "model.ckpt").exists()
    assert (trained_dir / "history.csv").exists()
    summary = json.loads((trained_dir / "summary.json").read_text())
    assert set(summary) == {"test_mae", "test_rmse", "test_mape"}
    with open(trained_dir / "history.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["split"] for r in rows} == {"train", "val"}
    assert len(rows) == 2 * 2  # two epochs, two splits


def test_train_rerun_is_byte_identical(synth_dir, tmp_path):
    args = ["train", "--data", str(synth_dir / "signals.bin"),
            "--edges", str(synth_dir / "edges.csv"),
            "--seed", "9", "--epochs", "1", "--batch-size", "16", *TINY]
    main([*args, "--out", str(tmp_path / "a")])
    main([*args, "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/summary.json").read_bytes() == (tmp_path / "b/summary.json").read_bytes()
    assert (tmp_path / "a/model.ckpt").read_bytes() == (tmp_path / "b/model.ckpt").read_bytes()


def test_train_unusable_out_fails_before_fit(synth_dir, tmp_path, monkeypatch, capsys):
    fit_calls = []
    monkeypatch.setattr(hyperflow.cli, "fit", lambda *a, **kw: fit_calls.append(a))
    blocker = tmp_path / "taken"
    blocker.write_text("a regular file, not a directory\n")
    rc = main(["train", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"), "--out", str(blocker),
               "--seed", "3", "--epochs", "1", *TINY])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert fit_calls == []


def test_train_epochs_zero_writes_initial_summary(synth_dir, tmp_path):
    rc = main(["train", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"), "--out", str(tmp_path),
               "--seed", "3", "--epochs", "0", *TINY])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["test_mae"] > 0
    assert (tmp_path / "history.csv").read_text().strip() == "epoch,split,mae,rmse,mape"


def test_eval_matches_training_summary(synth_dir, trained_dir, capsys):
    rc = main(["eval", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"),
               "--checkpoint", str(trained_dir / "model.ckpt")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    summary = json.loads((trained_dir / "summary.json").read_text())
    assert report["mae"] == summary["test_mae"]
    assert report["rmse"] == summary["test_rmse"]
    assert report["mape"] == summary["test_mape"]


def rewrite_model_config(trained_dir, tmp_path, edit) -> Path:
    """A copy of the trained checkpoint whose stored model config is edit(config dict)."""
    meta, tensors = load_checkpoint(trained_dir / "model.ckpt")
    config = json.loads(meta["model"])
    edit(config)
    ckpt = tmp_path / "edited.ckpt"
    save_checkpoint(ckpt, {**meta, "model": json.dumps(config, sort_keys=True)}, tensors)
    return ckpt


def eval_checkpoint(synth_dir, ckpt) -> int:
    return main(["eval", "--data", str(synth_dir / "signals.bin"),
                 "--edges", str(synth_dir / "edges.csv"), "--checkpoint", str(ckpt)])


def test_eval_loads_checkpoint_with_one_hyper_layer(synth_dir, trained_dir, tmp_path, capsys):
    # Checkpoints written before the layer count was dropped store "hyper_layers": 1.
    ckpt = rewrite_model_config(trained_dir, tmp_path, lambda c: c.update(hyper_layers=1))
    assert eval_checkpoint(synth_dir, ckpt) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["mae"] == json.loads((trained_dir / "summary.json").read_text())["test_mae"]


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.update(hyper_layers=2), "hyper_layers=2"),
    (lambda c: c.update(dropout=0.1), "unknown field 'dropout'"),
    (lambda c: c.pop("scale_iters"), "missing field 'scale_iters'"),
    (lambda c: c.update(windows=[1, 1]), "window sizes must be distinct, got [1, 1]"),
], ids=["two_hyper_layers", "unknown_field", "missing_field", "duplicate_windows"])
def test_eval_rejects_unsupported_model_config(synth_dir, trained_dir, tmp_path, capsys, edit, message):
    ckpt = rewrite_model_config(trained_dir, tmp_path, edit)
    assert eval_checkpoint(synth_dir, ckpt) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err


def test_predict_row_count_and_units(synth_dir, trained_dir, tmp_path):
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"),
               "--checkpoint", str(trained_dir / "model.ckpt"),
               "--split", "test", "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    # 140 steps, lookback 6, horizon 3: 132 windows, test split gets 28
    n_windows = 140 - 6 - 3 + 1
    n_test = n_windows - (n_windows * 6) // 10 - (n_windows * 2) // 10
    assert len(rows) == n_test * 3 * 8
    y = np.array([float(r["y_true"]) for r in rows])
    assert y.mean() > 10  # de-normalized flow, not z-scores


def _reference_predict_csv(samples, preds, stats, lookback: int) -> str:
    """The predict CSV written one f-string per value: the reference for its bytes."""
    buf = io.StringIO(newline="")
    buf.write("t,node,y_true,y_pred\n")
    for sample, pred in zip(samples, preds):
        true = stats.invert_flow(sample.target)
        for k in range(pred.shape[0]):
            t_abs = sample.start + lookback + k
            for i in range(pred.shape[1]):
                buf.write(f"{t_abs},{i},{float(true[k, i])!r},{float(pred[k, i])!r}\n")
    return buf.getvalue()


def test_predict_csv_is_predict_batch_bit_for_bit(synth_dir, trained_dir, tmp_path):
    def predict(split, out):
        return main(["predict", "--data", str(synth_dir / "signals.bin"),
                     "--edges", str(synth_dir / "edges.csv"),
                     "--checkpoint", str(trained_dir / "model.ckpt"),
                     "--split", split, "--out", str(out)])

    meta, tensors = load_checkpoint(trained_dir / "model.ckpt")
    model = Forecaster(ModelConfig.from_json(meta["model"]),
                       RoadNetwork(8, tuple(tuple(e) for e in meta["edges"])))
    model.load_state(tensors)
    stats = NormStats(mean=np.array(meta["stats"]["mean"]), std=np.array(meta["stats"]["std"]))
    signal, _ = ingest(synth_dir / "signals.bin", synth_dir / "edges.csv")
    prepared = prepare_dataset(signal, 6, 3, stats=stats)
    assert len(prepared.all_samples) > windows_per_chunk(model.cfg)  # more than one chunk

    for split, samples in (("all", prepared.all_samples), ("val", prepared.val)):
        out = tmp_path / f"{split}.csv"
        assert predict(split, out) == 0
        preds = stats.invert_flow(predict_batch(model, samples))
        with open(out, newline="") as fh:
            text = fh.read()
        reference = _reference_predict_csv(samples, preds, stats, lookback=6)
        if text != reference:  # pytest's own diff of two long texts takes minutes
            got, want = text.splitlines() + [""], reference.splitlines() + [""]
            n = next(n for n, (a, b) in enumerate(zip(got, want)) if a != b)
            pytest.fail(f"--split {split}, line {n + 1}: {got[n]!r}, reference {want[n]!r}")

        rows = list(csv.DictReader(io.StringIO(text)))
        steps = np.array([s.start for s in samples])[:, None] + 6 + np.arange(3)
        np.testing.assert_array_equal([int(r["t"]) for r in rows],
                                      np.broadcast_to(steps[:, :, None], preds.shape).ravel())
        np.testing.assert_array_equal([int(r["node"]) for r in rows],
                                      np.broadcast_to(np.arange(8), preds.shape).ravel())
        y_true = stats.invert_flow(np.stack([s.target for s in samples]))
        np.testing.assert_array_equal([float(r["y_true"]) for r in rows], y_true.ravel())
        np.testing.assert_array_equal([float(r["y_pred"]) for r in rows], preds.ravel())

    rerun = tmp_path / "rerun.csv"
    assert predict("all", rerun) == 0
    assert rerun.read_bytes() == (tmp_path / "all.csv").read_bytes()


def test_failed_predict_keeps_previous_csv(synth_dir, trained_dir, tmp_path, disk_fills_after,
                                           capsys):
    argv = ["predict", "--data", str(synth_dir / "signals.bin"),
            "--edges", str(synth_dir / "edges.csv"),
            "--checkpoint", str(trained_dir / "model.ckpt"), "--split", "test"]
    full = tmp_path / "full.csv"
    assert main([*argv, "--out", str(full)]) == 0
    lines = full.read_text().splitlines(keepends=True)

    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "pred.csv"
    out.write_text("t,node,y_true,y_pred\n0,0,1.0,2.0\n")
    before = out.read_bytes()
    # room for the header and the first window's rows (horizon 3 x 8 nodes)
    disk_fills_after(sum(len(line) for line in lines[:1 + 3 * 8]))
    assert main([*argv, "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in out_dir.iterdir()] == ["pred.csv"]


def test_config_validation_fails_fast(tmp_path):
    # windows not dividing the lookback dies before reading any data
    rc = main(["train", "--data", str(tmp_path / "absent.bin"),
               "--edges", str(tmp_path / "absent.csv"), "--out", str(tmp_path),
               "--windows", "5", "--lookback", "12"])
    assert rc == 1


def test_train_rejects_duplicate_windows_before_reading_data(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "absent.bin"),
               "--edges", str(tmp_path / "absent.csv"), "--out", str(tmp_path),
               "--windows", "2,2"])
    assert rc == 1
    assert capsys.readouterr().err == "error: window sizes must be distinct, got [2, 2]\n"


def test_missing_data_is_a_clean_error(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "absent.bin"),
               "--edges", str(tmp_path / "absent.csv"), "--out", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_rejects_non_finite_learning_rate(tmp_path, capsys, lr):
    # checked before any data is read
    rc = main(["train", "--data", str(tmp_path / "absent.bin"),
               "--edges", str(tmp_path / "absent.csv"), "--out", str(tmp_path), "--lr", lr])
    assert rc == 1
    assert capsys.readouterr().err == f"error: learning rate must be finite and >= 0, got {float(lr)}\n"


def test_synth_rejects_negative_noise_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    rc = main(["synth", "--out", str(out), "--noise", "-1", "--events-per-day", "nan"])
    assert rc == 1
    assert capsys.readouterr().err == "error: noise_std must be finite and >= 0, got -1.0\n"
    assert not out.exists()


def test_eval_rejects_node_count_mismatch(synth_dir, trained_dir, tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path), "--nodes", "5", "--communities", "1",
               "--steps", "60", "--seed", "1"])
    assert rc == 0
    rc = main(["eval", "--data", str(tmp_path / "signals.bin"),
               "--edges", str(tmp_path / "edges.csv"),
               "--checkpoint", str(trained_dir / "model.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "8" in err and "5" in err  # names both node counts


def test_verify_passes_and_reports_families(capsys):
    rc = main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [line for line in out.splitlines() if line.startswith("[")]
    families = {line.split("]")[1].split("/")[0].strip() for line in lines}
    assert (len(lines), len(families)) == (27, 10)
    assert "27 oracles in 10 families, 0 failures" in out


def test_verify_corrupt_hook_fails_only_gradient_family(monkeypatch, capsys):
    exact = hyperflow.oracles.model_gradient_errors

    def corrupted(*args, **kwargs):  # simulate a wrong vjp for pair_right
        return {name: err + 1.0 if name.endswith("pair_right") else err
                for name, err in exact(*args, **kwargs).items()}

    monkeypatch.setattr(hyperflow.oracles, "model_gradient_errors", corrupted)
    rc = main(["verify", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    failing = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(failing) == 1
    assert "model_gradient" in failing[0]
    assert "[PASS] interaction_factorization/100_instances" in out


def test_export_incidence_row_count(synth_dir, trained_dir, tmp_path):
    out = tmp_path / "incidence.csv"
    rc = main(["export-incidence", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"),
               "--checkpoint", str(trained_dir / "model.ckpt"), "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 8 * 4  # lookback * nodes * hyperedges


def test_export_incidence_zero_parameters_gives_zero_values(synth_dir, trained_dir, tmp_path):
    meta, tensors = load_checkpoint(trained_dir / "model.ckpt")
    zeroed = {name: np.zeros_like(arr) for name, arr in tensors.items()}
    ckpt = tmp_path / "zero.ckpt"
    save_checkpoint(ckpt, meta, zeroed)
    out = tmp_path / "incidence.csv"
    rc = main(["export-incidence", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"),
               "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        values = [float(r["value"]) for r in csv.DictReader(fh)]
    assert values and all(v == 0.0 for v in values)


def test_predict_rejects_a_non_finite_checkpoint_by_tensor(synth_dir, trained_dir, tmp_path, capsys):
    meta, tensors = load_checkpoint(trained_dir / "model.ckpt")
    tensors["readout_b"][-1] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    save_checkpoint(ckpt, meta, tensors)
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"),
               "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [f"error: {ckpt}: readout_b: checkpoint holds non-finite values"]


def test_predict_rejects_a_misshapen_checkpoint_tensor_by_path(synth_dir, trained_dir, tmp_path, capsys):
    meta, tensors = load_checkpoint(trained_dir / "model.ckpt")
    horizon = tensors["readout_b"].size
    tensors["readout_b"] = np.zeros(horizon + 1)
    ckpt = tmp_path / "shape.ckpt"
    save_checkpoint(ckpt, meta, tensors)
    out = tmp_path / "pred.csv"
    rc = main(["predict", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"),
               "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 1 and not out.exists()
    assert capsys.readouterr().err.splitlines() == [
        f"error: {ckpt}: readout_b: checkpoint shape ({horizon + 1},) vs model ({horizon},)"]


def test_failed_export_incidence_keeps_previous_csv(synth_dir, trained_dir, tmp_path,
                                                    disk_fills_after, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "incidence.csv"
    out.write_text("t,node,hyperedge,value\r\n0,0,0,1.0\r\n")
    before = out.read_bytes()
    disk_fills_after(100)  # the header and a few rows
    rc = main(["export-incidence", "--data", str(synth_dir / "signals.bin"),
               "--edges", str(synth_dir / "edges.csv"),
               "--checkpoint", str(trained_dir / "model.ckpt"), "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert [p.name for p in out_dir.iterdir()] == ["incidence.csv"]


@pytest.mark.parametrize("command", ["eval", "predict", "export-incidence"])
def test_checkpoint_commands_take_no_seed(command, capsys):
    # They draw no random numbers, so a --seed would be parsed and ignored.
    argv = [command, "--data", "s.bin", "--edges", "e.csv", "--checkpoint", "m.ckpt", "--seed", "1"]
    if command != "eval":
        argv += ["--out", "out.csv"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["bench", "--out", "b.csv", "--t-grid", "6,12"],
                                  ["verify", "--corrupt-grad", "x"],
                                  ["train", "--data", "s.bin", "--edges", "e.csv", "--out", "o", "--lh", "2"],
                                  ["train", "--data", "s.bin", "--edges", "e.csv", "--out", "o",
                                   "--clip-norm", "5"]])
def test_removed_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def small_bench_grid(monkeypatch, t_grid=(6, 12)):
    monkeypatch.setattr(hyperflow.cli, "BENCH_GRID",
                        {**hyperflow.cli.BENCH_GRID, "t_grid": t_grid, "n_grid": (20, 40), "base_n": 20})


def test_bench_writes_csv_and_slopes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "bench.csv"
    small_bench_grid(monkeypatch)
    rc = main(["bench", "--out", str(out), "--d", "8", "--repeats", "1", "--seed", "0"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "slope_t=" in text and "slope_nnz=" in text
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {"n", "t", "nnz", "seconds"}


def test_bench_error_is_a_clean_error(tmp_path, monkeypatch, capsys):
    # the windows 1,2,3 of the bench model do not divide a lookback of 5
    small_bench_grid(monkeypatch, t_grid=(5, 10))
    rc = main(["bench", "--out", str(tmp_path / "bench.csv"), "--d", "8", "--repeats", "1",
               "--seed", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: window size 2 does not divide lookback 5" in err.splitlines()
    assert not (tmp_path / "bench.csv").exists()


def test_bench_leaves_caller_environment_unchanged(tmp_path, monkeypatch):
    # a caller setting that differs from the child's, and two unset ones
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    small_bench_grid(monkeypatch)
    before = dict(os.environ)
    rc = main(["bench", "--out", str(tmp_path / "bench.csv"), "--d", "8", "--repeats", "1",
               "--seed", "0"])
    assert rc == 0
    assert dict(os.environ) == before


def run_community_script(*args) -> subprocess.CompletedProcess:
    # The scripts reach the package only through imports; running one end to
    # end makes an API change break a test instead of the script.
    script = Path(__file__).resolve().parents[1] / "scripts" / "community_forecast.py"
    return run_python(str(script), *args, timeout=120)


def test_community_forecast_script_rejects_one_community(tmp_path):
    run = run_community_script("--out", str(tmp_path / "out"), "--communities", "1")
    assert run.returncode == 2 and "--communities must be at least 2" in run.stderr
    assert not (tmp_path / "out").exists()


def test_community_forecast_script_runs(tmp_path):
    run_community_script("--out", str(tmp_path), "--nodes", "6", "--communities", "2", "--steps", "200",
                         "--epochs", "1", "--d", "8", "--hyperedges", "4").check_returncode()
    results = json.loads((tmp_path / "results.json").read_text())
    assert np.isfinite(results["model"]["mae"])
    assert np.isfinite(results["incidence_same_community_cosine"])
    assert np.isfinite(results["incidence_cross_community_cosine"])
    assert len((tmp_path / "incidence.csv").read_text().splitlines()) == 1 + 12 * 6 * 4

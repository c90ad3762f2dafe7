import numpy as np
import pytest

from hyperflow.checkpoint import load_checkpoint, save_checkpoint
from hyperflow.graphs import RoadNetwork
from hyperflow.model import Forecaster, ModelConfig


def test_round_trip_bits(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "a": rng.normal(size=(3, 4)),
        "b.nested": rng.normal(size=7),
        "scalarish": np.array(3.25),
    }
    config = {"model": "{}", "note": "unit", "n": 3}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config, tensors)
    loaded_cfg, loaded = load_checkpoint(path)
    assert loaded_cfg == config
    assert set(loaded) == set(tensors)
    for name in tensors:
        assert loaded[name].dtype == np.float64
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_rejects_truncation(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {}, {"w": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(path)


def test_model_forward_identical_after_reload(tmp_path):
    rng = np.random.default_rng(1)
    net = RoadNetwork(4, ((0, 1, 1.0), (1, 2, 0.5), (3, 0, 2.0)))
    cfg = ModelConfig(n_nodes=4, n_features=2, lookback=6, horizon=3, width=6,
                      n_hyperedges=3, windows=(1, 2, 3), encoder_layers=2, scale_iters=2)
    model = Forecaster(cfg, net, seed=42)
    x = rng.normal(size=(6, 4, 2))
    before = model.predict(x)

    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"model": cfg.to_json()}, model.state())
    meta, tensors = load_checkpoint(path)
    rebuilt = Forecaster(ModelConfig.from_json(meta["model"]), net, seed=0)
    rebuilt.load_state(tensors)

    np.testing.assert_array_equal(rebuilt.predict(x), before)


def test_failed_save_keeps_previous_checkpoint(tmp_path, disk_fills_after):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"run": 1}, {"w": np.ones((8, 8))})
    before = path.read_bytes()

    disk_fills_after(len(before) // 2)
    with pytest.raises(OSError):
        save_checkpoint(path, {"run": 2}, {"w": np.zeros((8, 8))})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

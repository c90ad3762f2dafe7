import hashlib
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperflow.autodiff import Tape, Tensor, window_max_rows
from hyperflow.graphs import RoadNetwork
from hyperflow.model import Forecaster, ModelConfig, forecast_head, fuse_scales
from hyperflow.oracles import live_path_point, model_gradient_errors, random_net

from conftest import run_python
from reference_model import reference_forward


def tiny_model(rng, n=3, lookback=4, horizon=2, width=4, features=1):
    net = random_net(rng, n, density=0.4)
    cfg = ModelConfig(n_nodes=n, n_features=features, lookback=lookback, horizon=horizon,
                      width=width, n_hyperedges=2, windows=(1, 2), encoder_layers=1,
                      scale_iters=1)
    return Forecaster(cfg, net, seed=int(rng.integers(1 << 30)))


# ---------------------------------------------------------------------------
# pooling


def test_pool_window_one_is_identity():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(12, 3))
    np.testing.assert_array_equal(window_max_rows(Tensor(h), 1, 6, 2).data, h)


def test_pool_full_collapse():
    rng = np.random.default_rng(1)
    h = rng.normal(size=(8, 3))  # T=4, N=2
    pooled = window_max_rows(Tensor(h), 4, 4, 2).data
    np.testing.assert_array_equal(pooled[0], h[::2].max(axis=0))
    np.testing.assert_array_equal(pooled[1], h[1::2].max(axis=0))


def test_pool_hand_case():
    series = np.array([[1.0], [3.0], [2.0], [0.0]])
    np.testing.assert_array_equal(window_max_rows(Tensor(series), 2, 4, 1).data, [[3.0], [2.0]])


def test_pool_rejects_non_divisor():
    with pytest.raises(Exception, match="divide"):
        window_max_rows(Tensor(np.zeros((6, 2))), 4, 3, 2)
    with pytest.raises(ValueError, match="window size"):
        ModelConfig(n_nodes=2, lookback=12, windows=(5,))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_pool_monotone(seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(12, 2))
    base = window_max_rows(Tensor(h), 3, 6, 2).data
    bumped = h.copy()
    idx = tuple(rng.integers(0, s) for s in h.shape)
    bumped[idx] += float(rng.uniform(0.0, 2.0))
    out = window_max_rows(Tensor(bumped), 3, 6, 2).data
    assert np.all(out >= base)


# ---------------------------------------------------------------------------
# fusion and head


def test_fuse_equal_logits_is_mean():
    rng = np.random.default_rng(2)
    parts = [Tensor(rng.normal(size=(3, 2))) for _ in range(4)]
    fused = fuse_scales(parts, Tensor(np.zeros(4)))
    np.testing.assert_allclose(fused.data, np.mean([p.data for p in parts], axis=0), atol=1e-12)


def test_fuse_single_scale_is_identity():
    rng = np.random.default_rng(3)
    part = Tensor(rng.normal(size=(3, 2)))
    fused = fuse_scales([part], Tensor([-4.2]))
    np.testing.assert_allclose(fused.data, part.data, atol=1e-15)


def test_fuse_log2_logits():
    a = Tensor(np.ones((2, 2)))
    b = Tensor(np.zeros((2, 2)))
    fused = fuse_scales([a, b], Tensor([np.log(2.0), 0.0]))
    np.testing.assert_allclose(fused.data, np.full((2, 2), 2.0 / 3.0), atol=1e-12)


def test_fuse_shift_invariance():
    rng = np.random.default_rng(4)
    parts = [Tensor(rng.normal(size=(2, 3))) for _ in range(3)]
    logits = rng.normal(size=3)
    base = fuse_scales(parts, Tensor(logits)).data
    shifted = fuse_scales(parts, Tensor(logits + 11.3)).data
    assert np.max(np.abs(base - shifted)) < 1e-12


def test_head_zero_affine():
    out = forecast_head(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2))),
                        Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))
    np.testing.assert_array_equal(out.data, np.zeros((5, 3)))


def test_head_bias_only():
    rng = np.random.default_rng(5)
    bias = rng.normal(size=4)
    out = forecast_head(Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(3, 2))),
                        Tensor(np.zeros((4, 4))), Tensor(bias))
    for i in range(3):
        np.testing.assert_allclose(out.data[:, i], bias)


def test_head_hand_dot_product():
    # d=1: features are [gamma, h] = [1, 2]; weights all ones, no bias
    out = forecast_head(Tensor([[1.0]]), Tensor([[2.0]]),
                        Tensor(np.ones((2, 3))), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, [[3.0], [3.0], [3.0]])


# ---------------------------------------------------------------------------
# full forward


def test_forward_is_deterministic_and_shaped():
    rng = np.random.default_rng(6)
    model = tiny_model(rng)
    x = rng.normal(size=(4, 3, 1))
    a = model.predict(x)
    b = model.predict(x)
    assert a.shape == (2, 3)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("n, widths", [
    (30, dict(width=16, n_hyperedges=8, windows=(1, 2, 3), encoder_layers=2, scale_iters=2)),
    (20, dict()),
], ids=["skill", "cli_default_n20"])
def test_forward_batch_matches_per_window(n, widths):
    rng = np.random.default_rng(15)
    model = Forecaster(ModelConfig(n_nodes=n, **widths), random_net(rng, n, density=0.15), seed=4)
    xs = rng.normal(size=(4, 12, n, 1))
    batched = model.predict(xs)
    single = np.stack([model.predict(x) for x in xs])
    assert batched.shape == (4, 12, n)
    assert np.max(np.abs(batched - single)) <= 1e-12 * np.max(np.abs(single))
    np.testing.assert_array_equal(model.predict(xs[:1])[0], single[0])


def test_predict_inside_a_tape_records_nothing():
    rng = np.random.default_rng(16)
    model = tiny_model(rng)
    x = rng.normal(size=(4, 3, 1))
    expected = model.predict(x)
    with Tape() as tape:
        got = model.predict(x)
    assert tape.nodes == []
    np.testing.assert_array_equal(got, expected)


def test_forward_validates_input_shape():
    rng = np.random.default_rng(7)
    model = tiny_model(rng)
    with pytest.raises(ValueError, match="shape"):
        model.predict(np.zeros((5, 3, 1)))
    with pytest.raises(ValueError, match="shape"):
        model.predict(np.zeros((2, 5, 3, 1)))


def test_forward_matches_straight_line_reference():
    # the whole-model oracle: independent transcription, explicit pair sums
    rng = np.random.default_rng(8)
    net = random_net(rng, 3, density=0.6)
    cfg = ModelConfig(n_nodes=3, n_features=1, lookback=4, horizon=2, width=4,
                      n_hyperedges=2, windows=(1, 2), encoder_layers=1, scale_iters=1)
    model = Forecaster(cfg, net, seed=99)
    x = rng.normal(size=(4, 3, 1))
    ref = reference_forward(x, net.edges, 3, {
        "lookback": 4, "horizon": 2, "width": 4, "n_hyperedges": 2,
        "windows": (1, 2), "encoder_layers": 1, "scale_iters": 1,
    }, model.state())
    np.testing.assert_allclose(model.predict(x), ref, atol=1e-9)


def test_forward_gradient_spot_check():
    rng = np.random.default_rng(10)
    model = tiny_model(rng)
    x, y = live_path_point(model, rng)
    names = ("encoder.spatial", "scale2.hyper.factor", "scale1.inter.pair_left", "readout_w")
    errors = model_gradient_errors(model, x, y, names)
    assert all(err < 1e-4 for err in errors.values()), errors


def test_predict_frees_intermediates_as_it_goes():
    # Untaped ops keep no graph, so a forward-only pass holds a small part of
    # what a taped pass of the same window keeps alive (0.2 at this size).
    # Both are measured by tracemalloc: a fused op's intermediates live in
    # its vjp closure, not in tape node values.
    rng = np.random.default_rng(14)
    model = Forecaster(ModelConfig(n_nodes=60, width=32, n_hyperedges=16),
                       random_net(rng, 60, density=0.1), seed=3)
    x = rng.normal(size=(12, 60, 1))
    model.predict(x)
    tracemalloc.start()
    try:
        with Tape() as tape:
            model.forward(x)
        taped_bytes = tracemalloc.get_traced_memory()[0]
        del tape
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model.predict(x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * taped_bytes, (peak, taped_bytes, peak / taped_bytes)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc heap page faults")
def test_repeated_predict_reuses_heap_pages():
    # A forward that frees as it goes must not hand its pages back to the OS
    # after every call; at this size glibc's default padding made each call
    # fault about 1.8k pages back in.  A fresh process, so no earlier test's
    # heap state hides the faults.
    code = textwrap.dedent("""
        import resource
        import numpy as np
        from hyperflow.graphs import RoadNetwork
        from hyperflow.model import Forecaster, ModelConfig
        n = 200
        net = RoadNetwork(n, tuple((u, (u + k) % n, 1.0) for u in range(n) for k in (1, 2, 3, 4)))
        cfg = ModelConfig(n_nodes=n, lookback=12, horizon=4, width=32, n_hyperedges=8,
                          windows=(1, 2, 3), encoder_layers=2, scale_iters=1)
        model = Forecaster(cfg, net, seed=0)
        x = np.random.default_rng(0).normal(size=(12, n, 1))
        model.predict(x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(3):
            model.predict(x)
        print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3)
    """)
    proc = run_python("-c", code, check=True)
    assert float(proc.stdout) < 100


def test_capture_exposes_incidence_per_scale():
    rng = np.random.default_rng(11)
    model = tiny_model(rng)
    capture = {}
    model.forward(rng.normal(size=(4, 3, 1)), capture=capture)
    # scale_iters=1: one incidence per window size
    assert set(capture["incidence"]) == {1, 2}
    assert len(capture["incidence"][1]) == 1
    assert capture["incidence"][1][0].shape == (12, 2)
    assert capture["incidence"][2][0].shape == (6, 2)


def test_state_round_trip_is_exact():
    rng = np.random.default_rng(12)
    model = tiny_model(rng)
    x = rng.normal(size=(4, 3, 1))
    before = model.predict(x)
    state = model.state()
    other = Forecaster(model.cfg, model.net, seed=555)
    other.load_state(state)
    np.testing.assert_array_equal(other.predict(x), before)


def test_load_state_rejects_mismatches():
    rng = np.random.default_rng(13)
    model = tiny_model(rng)
    state = model.state()
    state.pop("readout_b")
    with pytest.raises(ValueError, match="missing"):
        model.load_state(state)


@pytest.mark.parametrize("name, value, message", [
    ("readout_b", np.zeros(3), r"readout_b: checkpoint shape \(3,\) vs model \(2,\)"),
    ("readout_b", np.array([0.0, np.nan]), "readout_b: checkpoint holds non-finite values"),
    ("readout_w", np.full((8, 2), -np.inf), "readout_w: checkpoint holds non-finite values"),
], ids=["shape", "nan", "inf"])
def test_load_state_loads_all_or_nothing(name, value, message):
    # readout_w and readout_b come last in init_params order, so the other
    # tensors pass their checks first, and still none is written.  Every
    # tensor is moved by 1, so a partial write would show.
    rng = np.random.default_rng(14)
    model = tiny_model(rng)
    before = model.flat.copy()
    state = {key: arr + 1.0 for key, arr in model.state().items()}
    state[name] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        model.load_state(state)
    assert model.flat.tobytes() == before.tobytes()


@pytest.mark.parametrize("field", ["n_hyperedges", "width", "encoder_layers"])
def test_config_rejects_zero_sizes(field):
    with pytest.raises(ValueError, match=field):
        ModelConfig(n_nodes=3, **{field: 0})


@pytest.mark.parametrize("cfg, seed, digest", [
    (ModelConfig(n_nodes=30, width=16, n_hyperedges=8, windows=(1, 2, 3), encoder_layers=2,
                 scale_iters=2),
     11, "9f8bf3125d9ed7cb26a5c8615f1cc701f6231e39b0261bd2cefa1ccdcbbbc496"),
    (ModelConfig(n_nodes=6, horizon=4, width=8, n_hyperedges=4, windows=(1, 2), encoder_layers=2,
                 scale_iters=1),
     2025, "cd83be65925d52062a269310ffdbb4230c4be2aee7a098d712a2dd84b77ecfa2"),
], ids=["skill", "tiny"])
def test_seeded_init_is_pinned(cfg, seed, digest):
    # sha256 over each name and its float64 bytes, in state() order.  A
    # change here breaks old checkpoints' meaning and seeded comparisons.
    sha = hashlib.sha256()
    for name, arr in Forecaster(cfg, RoadNetwork(cfg.n_nodes, ()), seed=seed).state().items():
        sha.update(name.encode() + arr.tobytes())
    assert sha.hexdigest() == digest


def test_config_json_round_trip():
    cfg = ModelConfig(n_nodes=7, n_features=3, lookback=12, horizon=6, width=16,
                      n_hyperedges=4, windows=(1, 3, 4), encoder_layers=2, scale_iters=2)
    assert ModelConfig.from_json(cfg.to_json()) == cfg

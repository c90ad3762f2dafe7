import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperflow.data import (
    NormStats,
    SignalTensor,
    ingest,
    load_membership,
    make_windows,
    prepare_dataset,
    save_membership,
    save_signals,
    save_synth,
    synth_generate,
    train_stats,
)


def test_zscore_round_trip():
    rng = np.random.default_rng(0)
    values = rng.normal(loc=50, scale=9, size=(30, 4, 2))
    stats = NormStats(mean=values.mean(axis=(0, 1)), std=values.std(axis=(0, 1)))
    back = stats.invert_flow(stats.apply(values)[..., 0])
    assert np.max(np.abs(back - values[..., 0])) < 1e-9


def test_zscore_hand_case():
    stats = NormStats(mean=np.array([10.0]), std=np.array([2.0]))
    assert stats.apply(np.array([14.0]))[0] == pytest.approx(2.0)


def test_constant_feature_rejected():
    with pytest.raises(ValueError, match="constant"):
        NormStats(mean=np.array([1.0]), std=np.array([0.0]))


def test_signal_tensor_validates():
    with pytest.raises(ValueError, match="T, N, F"):
        SignalTensor(np.zeros((4, 3)))
    bad = np.zeros((2, 2, 1))
    bad[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match=r"\(1, 0, 0\)"):
        SignalTensor(bad)


def test_window_count_boundary():
    sig = SignalTensor(np.zeros((24, 2, 1)) + np.arange(24)[:, None, None])
    assert len(make_windows(sig, 12, 12)) == 1


def test_window_count_formula():
    sig = SignalTensor(np.arange(26)[:, None, None] * np.ones((26, 2, 1)))
    windows = make_windows(sig, 12, 12)
    assert len(windows) == 3
    assert [w.start for w in windows] == [0, 1, 2]
    np.testing.assert_array_equal(windows[1].input[:, 0, 0], np.arange(1, 13))
    np.testing.assert_array_equal(windows[1].target[:, 0], np.arange(13, 25))


def test_window_too_short():
    with pytest.raises(ValueError, match="cannot fit"):
        make_windows(SignalTensor(np.zeros((10, 2, 1))), 12, 12)


def test_train_stats_ignore_future_changes():
    rng = np.random.default_rng(1)
    base = rng.normal(size=(100, 3, 1)) + 5
    altered = base.copy()
    altered[-20:] += 1000.0  # test-region change only
    s1 = train_stats(SignalTensor(base), 12, 12)
    s2 = train_stats(SignalTensor(altered), 12, 12)
    np.testing.assert_array_equal(s1.mean, s2.mean)
    np.testing.assert_array_equal(s1.std, s2.std)


@settings(max_examples=40, deadline=None)
@given(st.integers(28, 400), st.integers(0, 2 ** 31 - 1))
def test_stats_cover_exactly_the_train_windows(n_steps, seed):
    sig = SignalTensor(np.random.default_rng(seed).normal(size=(n_steps, 2, 2)) + 10)
    prep = prepare_dataset(sig, 12, 12)
    covered = sig.values[:prep.train[-1].start + 12 + 12]
    np.testing.assert_array_equal(prep.stats.mean, covered.mean(axis=(0, 1)))
    np.testing.assert_array_equal(prep.stats.std, covered.std(axis=(0, 1)))


@pytest.mark.parametrize("n_steps", [24, 25, 26, 27])  # 1 to 4 windows
def test_prepare_rejects_fewer_than_five_windows(n_steps):
    with pytest.raises(ValueError, match="need at least 5 windows to split"):
        prepare_dataset(SignalTensor(np.arange(2.0 * n_steps).reshape(n_steps, 2, 1)), 12, 12)


def test_split_never_leaks_training_into_test():
    rng = np.random.default_rng(2)
    sig = SignalTensor(rng.normal(size=(200, 2, 1)) + 10)
    prep = prepare_dataset(sig, 12, 12)
    train_end = max(s.start + 12 + 12 - 1 for s in prep.train)
    test_start = min(s.start for s in prep.test)
    assert train_end < test_start


# ---------------------------------------------------------------------------
# file round trips


def test_signals_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    sig = SignalTensor(rng.normal(size=(7, 3, 2)).astype(np.float32).astype(np.float64),
                       interval_minutes=5)
    save_signals(sig, tmp_path / "signals.bin", tmp_path / "signals.json")
    edges = tmp_path / "edges.csv"
    edges.write_text("from,to,weight\n0,1,1.0\n2,0,0.5\n")
    loaded, net = ingest(tmp_path / "signals.bin", edges)
    np.testing.assert_array_equal(loaded.values, sig.values)
    assert loaded.interval_minutes == 5
    assert net.n_nodes == 3
    assert net.edges == ((0, 1, 1.0), (2, 0, 0.5))


def test_ingest_traffic_benchmark_sized_file(tmp_path):
    # 17856 five-minute steps over 170 sensors with 295 directed edges,
    # the shape of a real two-month deployment
    rng = np.random.default_rng(7)
    values = rng.uniform(0, 300, size=(17856, 170, 1)).astype("<f4")
    (tmp_path / "signals.bin").write_bytes(values.tobytes())
    (tmp_path / "signals.json").write_text('{"T": 17856, "N": 170, "F": 1, "interval_minutes": 5}')
    pairs = set()
    while len(pairs) < 295:
        u, v = rng.integers(0, 170, size=2)
        if u != v:
            pairs.add((int(u), int(v)))
    with open(tmp_path / "edges.csv", "w") as fh:
        fh.write("from,to,weight\n")
        for u, v in sorted(pairs):
            fh.write(f"{u},{v},1.0\n")
    sig, net = ingest(tmp_path / "signals.bin", tmp_path / "edges.csv")
    assert (sig.n_steps, sig.n_nodes, sig.n_features) == (17856, 170, 1)
    assert sig.interval_minutes == 5
    assert len(net.edges) == 295


def test_ingest_degenerate_single_cell(tmp_path):
    sig = SignalTensor(np.array([[[4.5]]]))
    save_signals(sig, tmp_path / "signals.bin", tmp_path / "signals.json")
    (tmp_path / "edges.csv").write_text("from,to,weight\n")
    loaded, net = ingest(tmp_path / "signals.bin", tmp_path / "edges.csv")
    assert loaded.values.shape == (1, 1, 1)
    assert net.n_nodes == 1 and net.edges == ()


def test_ingest_rejects_size_mismatch(tmp_path):
    save_signals(SignalTensor(np.zeros((4, 2, 1))), tmp_path / "signals.bin", tmp_path / "signals.json")
    meta = json.loads((tmp_path / "signals.json").read_text())
    meta["N"] = 3
    (tmp_path / "signals.json").write_text(json.dumps(meta))
    (tmp_path / "edges.csv").write_text("from,to,weight\n")
    with pytest.raises(ValueError, match="T\\*N\\*F"):
        ingest(tmp_path / "signals.bin", tmp_path / "edges.csv")


def test_ingest_rejects_edge_outside_range(tmp_path):
    save_signals(SignalTensor(np.zeros((4, 2, 1))), tmp_path / "signals.bin", tmp_path / "signals.json")
    (tmp_path / "edges.csv").write_text("from,to,weight\n0,1,1.0\n5,1,1.0\n")
    with pytest.raises(ValueError, match=":3"):
        ingest(tmp_path / "signals.bin", tmp_path / "edges.csv")


def test_ingest_rejects_non_finite_with_index(tmp_path):
    values = np.zeros((3, 2, 1), dtype="<f4")
    values[2, 1, 0] = np.nan
    path = tmp_path / "signals.bin"
    path.write_bytes(values.tobytes())
    (tmp_path / "signals.json").write_text('{"T": 3, "N": 2, "F": 1}')
    (tmp_path / "edges.csv").write_text("from,to,weight\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ") + r".*\(t, node, feature\) = \(2, 1, 0\)"):
        ingest(path, tmp_path / "edges.csv")


def test_membership_round_trip(tmp_path):
    membership = np.array([0, 0, 1, 2, 1])
    save_membership(membership, tmp_path / "membership.csv")
    np.testing.assert_array_equal(load_membership(tmp_path / "membership.csv"), membership)


# ---------------------------------------------------------------------------
# synthetic generator


def test_synth_is_deterministic():
    a_sig, a_net, a_mem = synth_generate(12, 3, 300, seed=9)
    b_sig, b_net, b_mem = synth_generate(12, 3, 300, seed=9)
    np.testing.assert_array_equal(a_sig.values, b_sig.values)
    assert a_net.edges == b_net.edges
    np.testing.assert_array_equal(a_mem, b_mem)
    c_sig, _, _ = synth_generate(12, 3, 300, seed=10)
    assert not np.array_equal(a_sig.values, c_sig.values)


def test_synth_pure_sinusoid_without_noise_or_events():
    sig, _, mem = synth_generate(6, 2, 400, seed=1, noise_std=0.0, events_per_day=0.0)
    # same-community nodes are identical pure sinusoids
    for c in (0, 1):
        nodes = np.where(mem == c)[0]
        for i in nodes[1:]:
            np.testing.assert_array_equal(sig.values[:, i, 0], sig.values[:, nodes[0], 0])
    series = sig.values[:, 0, 0]
    # one daily period: value repeats after 288 steps
    assert series[0] == pytest.approx(series[288], abs=1e-9)


def test_synth_same_community_correlation_dominates():
    sig, _, mem = synth_generate(12, 3, 1000, seed=2)
    flow = sig.values[:, :, 0]
    corr = np.corrcoef(flow.T)
    same, cross = [], []
    for i in range(12):
        for j in range(i + 1, 12):
            (same if mem[i] == mem[j] else cross).append(corr[i, j])
    assert np.mean(same) > np.mean(cross)


def test_synth_network_is_connected_within_communities():
    _, net, mem = synth_generate(9, 3, 50, seed=3)
    for c in range(3):
        nodes = set(np.where(mem == c)[0])
        ring_edges = [(u, v) for u, v, w in net.edges if u in nodes and v in nodes]
        assert len(ring_edges) >= 2 * (len(nodes) - 1)


def test_synth_validates_counts():
    with pytest.raises(ValueError):
        synth_generate(3, 5, 100, seed=0)
    with pytest.raises(ValueError):
        synth_generate(3, 1, 0, seed=0)


@pytest.mark.parametrize("option, value", [("noise_std", -1.0), ("noise_std", np.nan),
                                           ("events_per_day", -0.5), ("events_per_day", np.inf)])
def test_synth_rejects_negative_or_non_finite_rates(option, value):
    with pytest.raises(ValueError, match=f"{option} must be finite and >= 0"):
        synth_generate(6, 2, 60, seed=0, **{option: value})


def test_save_synth_writes_standard_file_set(tmp_path):
    sig, net, mem = synth_generate(6, 2, 60, seed=4)
    paths = save_synth(tmp_path / "data", sig, net, mem)
    for p in paths.values():
        assert p.exists()
    loaded, net2 = ingest(paths["signals"], paths["edges"])
    assert loaded.values.shape == (60, 6, 1)
    assert net2.edges == net.edges
    # float32 storage: round trip within float32 resolution
    assert np.max(np.abs(loaded.values - sig.values)) < 1e-4

"""Dataset ingestion, normalization, windowing, and a synthetic generator.

File formats: signals are raw little-endian float32, row-major (T, N, F),
with a JSON sidecar giving the shape and sampling interval; road networks
are `from,to,weight` CSV.  The synthetic generator plants community
structure (shared daily sinusoids plus propagating event spikes) so that
structure-recovery experiments have a known ground truth.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import atomic_open
from .graphs import RoadNetwork, read_edge_csv, write_edge_csv
from .training import split_dataset

DAILY_STEPS = 288  # 24h of 5-minute readings


@dataclass
class SignalTensor:
    values: np.ndarray  # (T, N, F) float64
    interval_minutes: int = 5

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"signal must be (T, N, F), got shape {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            bad = tuple(int(k) for k in np.argwhere(~np.isfinite(self.values))[0])
            raise ValueError(f"non-finite signal value at (t, node, feature) = {bad}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def n_features(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray  # (F,)
    std: np.ndarray  # (F,)

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "std", np.asarray(self.std, dtype=float))
        if np.any(self.std <= 1e-12):
            raise ValueError("zero-variance feature; refusing to normalize a constant channel")

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert_flow(self, y: np.ndarray) -> np.ndarray:
        return y * self.std[0] + self.mean[0]


@dataclass(frozen=True, slots=True)
class ForecastSample:
    input: np.ndarray  # (T, N, F)
    target: np.ndarray  # (T', N), flow channel
    start: int


def train_stats(signal: SignalTensor, lookback: int, horizon: int) -> NormStats:
    """Per-feature stats over the steps covered by training windows only."""
    n_windows = signal.n_steps - lookback - horizon + 1
    if n_windows < 1:
        raise ValueError(f"series of {signal.n_steps} steps is too short for {lookback}+{horizon} windows")
    last_train_start = split_dataset(range(n_windows))[0][-1]
    chunk = signal.values[:last_train_start + lookback + horizon]
    return NormStats(mean=chunk.mean(axis=(0, 1)), std=chunk.std(axis=(0, 1)))


def make_windows(signal: SignalTensor, lookback: int, horizon: int) -> list[ForecastSample]:
    """All stride-1 windows, ordered by start index."""
    return _windows(signal.values, lookback, horizon)


def _windows(values: np.ndarray, lookback: int, horizon: int) -> list[ForecastSample]:
    total = values.shape[0]
    if total < lookback + horizon:
        raise ValueError(f"series of {total} steps cannot fit lookback {lookback} + horizon {horizon}")
    return [ForecastSample(input=values[start:start + lookback],
                           target=values[start + lookback:start + lookback + horizon, :, 0],
                           start=start)
            for start in range(total - lookback - horizon + 1)]


@dataclass
class PreparedData:
    stats: NormStats
    train: list[ForecastSample]
    val: list[ForecastSample]
    test: list[ForecastSample]

    @property
    def all_samples(self) -> list[ForecastSample]:
        return self.train + self.val + self.test


def prepare_dataset(signal: SignalTensor, lookback: int, horizon: int,
                    stats: NormStats | None = None) -> PreparedData:
    """Normalize, window, and split chronologically.

    Stats default to the training portion of this series; pass the stats
    stored in a checkpoint to evaluate under the training normalization.
    """
    if stats is None:
        stats = train_stats(signal, lookback, horizon)
    # The signal was checked finite when it was built; its normalized copy is
    # windowed as an array, not scanned again as a SignalTensor.
    train, val, test = split_dataset(_windows(stats.apply(signal.values), lookback, horizon))
    return PreparedData(stats=stats, train=train, val=val, test=test)


# ---------------------------------------------------------------------------
# On-disk formats


def save_signals(signal: SignalTensor, bin_path, json_path) -> None:
    values = signal.values.astype("<f4")
    with atomic_open(bin_path, "wb") as fh:
        fh.write(values.tobytes())
    meta = {
        "T": signal.n_steps,
        "N": signal.n_nodes,
        "F": signal.n_features,
        "interval_minutes": signal.interval_minutes,
    }
    with atomic_open(json_path) as fh:
        fh.write(json.dumps(meta, sort_keys=True) + "\n")


def ingest(signals_path, edges_path) -> tuple[SignalTensor, RoadNetwork]:
    """Load a signal binary + sidecar and the edge CSV, cross-validating N."""
    signals_path = Path(signals_path)
    sidecar = signals_path.with_suffix(".json")
    if not signals_path.exists():
        raise FileNotFoundError(f"signal file {signals_path} not found")
    if not sidecar.exists():
        raise FileNotFoundError(f"sidecar {sidecar} not found next to {signals_path}")
    try:
        meta = json.loads(sidecar.read_text())
    except ValueError as err:  # malformed JSON or text that is not UTF-8
        raise ValueError(f"{sidecar}: sidecar is not valid JSON: {err}") from err
    try:
        t, n, f = int(meta["T"]), int(meta["N"]), int(meta["F"])
        interval = int(meta.get("interval_minutes", 5))
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{sidecar}: sidecar must define integer T, N, F") from err
    if min(t, n, f) < 1:
        raise ValueError(f"{sidecar}: sidecar T, N, F must each be at least 1, got {t}, {n}, {f}")

    raw = np.frombuffer(signals_path.read_bytes(), dtype="<f4")
    if raw.size != t * n * f:
        raise ValueError(
            f"{signals_path}: holds {raw.size} values but sidecar says T*N*F = {t * n * f}"
        )
    try:
        signal = SignalTensor(raw.reshape(t, n, f).astype(np.float64), interval_minutes=interval)
    except ValueError as err:
        raise ValueError(f"{signals_path}: {err}") from err

    net = RoadNetwork(n_nodes=n, edges=read_edge_csv(edges_path, n_nodes=n))
    return signal, net


def save_membership(membership: np.ndarray, path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        fh.write("node,community\n")
        for i, c in enumerate(membership):
            fh.write(f"{i},{int(c)}\n")


def load_membership(path) -> np.ndarray:
    rows = Path(path).read_text().strip().splitlines()[1:]
    out = np.zeros(len(rows), dtype=int)
    for row in rows:
        i, c = row.split(",")
        out[int(i)] = int(c)
    return out


# ---------------------------------------------------------------------------
# Synthetic traffic with planted community structure


def synth_generate(n_nodes: int, n_communities: int, t_total: int, seed: int,
                   noise_std: float = 3.0, events_per_day: float = 4.0,
                   ) -> tuple[SignalTensor, RoadNetwork, np.ndarray]:
    """Community-structured synthetic flow series.

    Every community shares one daily sinusoid with its own phase; random
    transient events spike at an origin node and reach the rest of the
    community one step later with damped magnitude; i.i.d. Gaussian noise
    is added on top.  The road network is a ring within each community
    plus a few weak cross-community links.  Returns the planted community
    id per node alongside the data.
    """
    if not (1 <= n_communities <= n_nodes):
        raise ValueError(f"need 1 <= communities ({n_communities}) <= nodes ({n_nodes})")
    if t_total < 1:
        raise ValueError(f"t_total must be >= 1, got {t_total}")
    for name, rate in (("noise_std", noise_std), ("events_per_day", events_per_day)):
        if not (np.isfinite(rate) and rate >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {rate}")
    rng = np.random.default_rng(seed)

    groups = np.array_split(np.arange(n_nodes), n_communities)
    membership = np.zeros(n_nodes, dtype=int)
    for c, nodes in enumerate(groups):
        membership[nodes] = c

    t = np.arange(t_total)
    values = np.zeros((t_total, n_nodes))
    levels = rng.uniform(90.0, 130.0, n_communities)
    amplitudes = rng.uniform(30.0, 50.0, n_communities)
    phases = 2.0 * np.pi * np.arange(n_communities) / n_communities
    for c, nodes in enumerate(groups):
        wave = levels[c] + amplitudes[c] * np.sin(2.0 * np.pi * t / DAILY_STEPS + phases[c])
        values[:, nodes] = wave[:, None]

    if events_per_day > 0:
        for c, nodes in enumerate(groups):
            n_events = rng.poisson(events_per_day * t_total / DAILY_STEPS)
            for _ in range(n_events):
                duration = int(rng.integers(4, 10))
                if t_total <= duration + 2:
                    continue
                start = int(rng.integers(0, t_total - duration - 2))
                origin = int(rng.choice(nodes))
                magnitude = float(rng.uniform(25.0, 60.0))
                pulse = magnitude * np.exp(-3.0 * np.arange(duration) / duration)
                values[start:start + duration, origin] += pulse
                others = [i for i in nodes if i != origin]
                if others:  # community feels the event one step later, damped
                    values[start + 1:start + 1 + duration, others] += 0.6 * pulse[:, None]

    if noise_std > 0:
        values += rng.normal(0.0, noise_std, values.shape)

    edges: list[tuple[int, int, float]] = []
    existing: set[tuple[int, int]] = set()

    def link(u, v, w):
        if u != v and (u, v) not in existing:
            edges.append((u, v, w))
            existing.add((u, v))

    for nodes in groups:
        for a in range(len(nodes) if len(nodes) > 1 else 0):
            u, v = int(nodes[a]), int(nodes[(a + 1) % len(nodes)])
            link(u, v, 1.0)
            link(v, u, 1.0)
    if n_communities > 1:
        added = 0
        while added < n_communities:
            ca, cb = rng.choice(n_communities, size=2, replace=False)
            u = int(rng.choice(groups[ca]))
            v = int(rng.choice(groups[cb]))
            if (u, v) not in existing:
                link(u, v, 0.5)
                added += 1

    signal = SignalTensor(values[:, :, None], interval_minutes=5)
    return signal, RoadNetwork(n_nodes=n_nodes, edges=tuple(edges)), membership


def save_synth(out_dir, signal: SignalTensor, net: RoadNetwork, membership: np.ndarray) -> dict:
    """Write the standard file set; returns the paths used."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "signals": out / "signals.bin",
        "sidecar": out / "signals.json",
        "edges": out / "edges.csv",
        "membership": out / "membership.csv",
    }
    save_signals(signal, paths["signals"], paths["sidecar"])
    write_edge_csv(net, paths["edges"])
    save_membership(membership, paths["membership"])
    return paths

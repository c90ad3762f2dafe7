"""The full forecasting model.

Forward pass: encode the input window, then for every window size pool the
state sequence, alternate hypergraph and interaction blocks (averaged) for
a fixed number of iterations, mean-pool over time, softmax-fuse the
per-scale node embeddings, and read out the horizon from the fused
embedding concatenated with the last encoded step.

The state of one window is a time-major (rows, d) matrix.  Several windows
run through the same ops at once as a node-major (rows, B, d) state: the
window axis sits between rows and features, so the graph products act on
(rows, B*d) and every weight product on (rows*B, d).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    concat_cols,
    linear_combination,
    matmul,
    mean_over_time,
    no_tape,
    record,
    slice_rows,
    softmax_vec,
    transpose,
    window_max_rows,
)
from .encoder import build_node_features, graph_convolution
from .graphs import RoadNetwork, TemporalGraph, temporal_graph
from .hyperedges import hypergraph_block
from .interaction import interaction_block


@dataclass(frozen=True)
class ModelConfig:
    n_nodes: int
    n_features: int = 1
    lookback: int = 12
    horizon: int = 12
    width: int = 64
    n_hyperedges: int = 32
    windows: tuple[int, ...] = (1, 2, 3, 4, 6, 12)
    encoder_layers: int = 6
    scale_iters: int = 2

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(int(w) for w in self.windows))
        for name in ("n_nodes", "n_features", "lookback", "horizon", "width",
                     "n_hyperedges", "encoder_layers", "scale_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.windows:
            raise ValueError("need at least one window size")
        for w in self.windows:
            if w < 1 or self.lookback % w != 0:
                raise ValueError(f"window size {w} does not divide lookback {self.lookback}")
        if len(set(self.windows)) < len(self.windows):
            raise ValueError(f"window sizes must be distinct, got {list(self.windows)}")

    def to_json(self) -> str:
        d = self.__dict__.copy()
        d["windows"] = list(self.windows)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        d = json.loads(text)
        # Checkpoints written before the hypergraph block lost its layer
        # count store "hyper_layers": 1; a stack of layers is gone.
        legacy = d.pop("hyper_layers", 1)
        if legacy != 1:
            raise ValueError(f"checkpoint model has hyper_layers={legacy}; only 1 is supported")
        fields = set(cls.__dataclass_fields__)
        problems = ([f"unknown field {k!r}" for k in sorted(set(d) - fields)]
                    + [f"missing field {k!r}" for k in sorted(fields - set(d))])
        if problems:
            raise ValueError(f"checkpoint model config: {', '.join(problems)}")
        d["windows"] = tuple(d["windows"])
        return cls(**d)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Every trainable tensor under its checkpoint name.

    Tensors are drawn from `rng` in the order of the dict; seeded runs and
    saved checkpoints depend on that order and on the bounds.
    """
    d, n_edges = cfg.width, cfg.n_hyperedges

    def uniform(bound: float, shape: tuple[int, ...]) -> Tensor:
        return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)

    emb = 1.0 / np.sqrt(d)
    proj = rng.uniform(-1.0, 1.0, (cfg.n_features, d)) / np.sqrt(cfg.n_features)
    params = {"encoder.input_proj": Tensor(proj, requires_grad=True),
              "encoder.spatial": uniform(emb, (cfg.n_nodes, d)),
              "encoder.temporal": uniform(emb, (cfg.lookback, d))}
    for i in range(cfg.encoder_layers):
        params[f"encoder.layer{i}"] = uniform(emb, (d, d))
    for eps in cfg.windows:
        rows = cfg.n_nodes * (cfg.lookback // eps)
        # Factor scale keeps node updates near unit variance through the
        # membership -> hyperedge -> node round trip, which grows with the
        # number of observation rows the block sees.
        fac = 1.0 / np.sqrt(d * np.sqrt(n_edges * rows))
        params[f"scale{eps}.hyper.factor"] = uniform(fac, (d, n_edges))
        params[f"scale{eps}.hyper.relations"] = uniform(1.0 / np.sqrt(n_edges), (n_edges, n_edges))
        for name in ("pair_left", "pair_right", "through"):
            params[f"scale{eps}.inter.{name}"] = uniform(emb, (d, d))
    params["fusion_logits"] = Tensor(np.zeros(len(cfg.windows)), requires_grad=True)
    params["readout_w"] = uniform(1.0 / np.sqrt(2 * d), (2 * d, cfg.horizon))
    params["readout_b"] = Tensor(np.zeros(cfg.horizon), requires_grad=True)
    return params


def fuse_scales(per_scale: list[Tensor], logits: Tensor) -> Tensor:
    """Softmax-weighted combination of per-scale node embeddings."""
    return linear_combination(per_scale, softmax_vec(logits))


def forecast_head(fused: Tensor, h_last: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-node affine readout of [fused || last-step state] to the horizon:
    (N, d) states give (horizon, N), (N, B, d) give (B, horizon, N)."""
    return transpose(add(matmul(concat_cols(fused, h_last), w), b))


def average(a: Tensor, b: Tensor) -> Tensor:
    """(a + b) / 2 as one tape op."""
    if a.shape != b.shape:
        raise ShapeError(f"average: shapes {a.shape} and {b.shape} differ")
    out = a.data + b.data
    out *= 0.5
    return record(out, "average", (a, b), lambda g: (g * 0.5,) * 2)  # one array for both


def mixed_layer(delta: Tensor, graph: TemporalGraph, params: dict[str, Tensor], eps: int,
                capture: list[np.ndarray] | None = None) -> Tensor:
    """One iteration at window size eps: average of the hypergraph and
    interaction block outputs, with that scale's weights from `params`."""
    s = f"scale{eps}."
    f = hypergraph_block(delta, params[s + "hyper.factor"], params[s + "hyper.relations"],
                         capture=capture)
    r = interaction_block(delta, graph, params[s + "inter.pair_left"], params[s + "inter.pair_right"],
                          params[s + "inter.through"])
    return average(f, r)


class Forecaster:
    """Bundles config, parameters, and the per-scale temporal graphs.

    `params` maps each checkpoint name (see `init_params`) to its tensor;
    the forward pass looks every weight up there.  Each tensor's .data and
    .grad are views, in `init_params` order, into the float64 vectors `flat`
    and `grad`; the optimizer steps `flat` in place from `grad`.  The temporal
    graphs depend only on the road network and the lookback, so they are
    built once and shared across every forward pass.
    """

    def __init__(self, cfg: ModelConfig, net: RoadNetwork, seed: int = 0):
        if net.n_nodes != cfg.n_nodes:
            raise ValueError(f"config expects {cfg.n_nodes} nodes, network has {net.n_nodes}")
        self.cfg = cfg
        self.net = net
        self.encoder_graph = temporal_graph(net, cfg.lookback)
        self.scale_graphs: dict[int, TemporalGraph] = {}
        for eps in cfg.windows:
            steps = cfg.lookback // eps
            if steps == cfg.lookback:
                self.scale_graphs[eps] = self.encoder_graph
            else:
                self.scale_graphs[eps] = temporal_graph(net, steps)
        self.params = init_params(cfg, np.random.default_rng(seed))
        self.flat = np.concatenate([t.data.ravel() for t in self.params.values()])
        self.grad = np.zeros_like(self.flat)
        for t, view in zip(self.params.values(), self._views(self.flat)):
            t.data = view
        self.point_grads(self.grad)

    def _views(self, vector: np.ndarray) -> list[np.ndarray]:
        """Each parameter's slice of a (P,) vector, shaped like it, in `init_params` order."""
        views, start = [], 0
        for t in self.params.values():
            views.append(vector[start:start + t.size].reshape(t.shape))
            start += t.size
        return views

    def point_grads(self, grad: np.ndarray) -> None:
        """Point every parameter's .grad at its slice of the (P,) vector `grad`,
        such as `self.grad` or one chunk's gradient row in `training.fit`."""
        for t, view in zip(self.params.values(), self._views(grad)):
            t.grad = view

    def forward(self, x: np.ndarray, capture: dict | None = None) -> Tensor:
        """Predict the normalized flow horizon for one or several input windows.

        x is one window (lookback, N, F), giving a (horizon, N) tensor, or B
        windows (B, lookback, N, F), giving (B, horizon, N).  When `capture`
        is given, incidence matrices are stored per window size under
        capture["incidence"][eps] in evaluation order.
        """
        cfg = self.cfg
        x = np.asarray(x)
        window = (cfg.lookback, cfg.n_nodes, cfg.n_features)
        if x.ndim not in (3, 4) or x.shape[-3:] != window:
            raise ValueError(f"input window has shape {x.shape}, expected {window} "
                             f"or (B, {', '.join(map(str, window))})")
        p = self.params
        h = build_node_features(x, p["encoder.input_proj"], p["encoder.spatial"], p["encoder.temporal"])
        h = graph_convolution(h, self.encoder_graph,
                              [p[f"encoder.layer{i}"] for i in range(cfg.encoder_layers)])
        h_last = slice_rows(h, (cfg.lookback - 1) * cfg.n_nodes, cfg.lookback * cfg.n_nodes)

        per_scale = []
        for eps in cfg.windows:
            steps = cfg.lookback // eps
            sink = None
            if capture is not None:
                sink = capture.setdefault("incidence", {}).setdefault(eps, [])
            delta = window_max_rows(h, eps, cfg.lookback, cfg.n_nodes)
            for _ in range(cfg.scale_iters):
                delta = mixed_layer(delta, self.scale_graphs[eps], p, eps, capture=sink)
            per_scale.append(mean_over_time(delta, steps, cfg.n_nodes))

        fused = fuse_scales(per_scale, p["fusion_logits"])
        return forecast_head(fused, h_last, p["readout_w"], p["readout_b"])

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Forward pass without recording, also inside a caller's tape, for
        inference and evaluation; x is one window or a stack of them, as
        for `forward`."""
        with no_tape():
            return self.forward(x).data

    # -- parameter plumbing -------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter from `state`, or none if any is missing, misshapen or non-finite."""
        missing = sorted(set(self.params) - set(state))
        extra = sorted(set(state) - set(self.params))
        if missing or extra:
            raise ValueError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, tensor in self.params.items():
            arr = np.asarray(state[name], dtype=tensor.data.dtype)
            if arr.shape != tensor.data.shape:
                raise ValueError(f"{name}: checkpoint shape {arr.shape} vs model {tensor.data.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name}: checkpoint holds non-finite values")
        np.concatenate([np.ravel(state[name]) for name in self.params], out=self.flat)

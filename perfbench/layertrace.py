"""Per-layer spans recorded from outside the hyperflow package.

The tracer replaces public functions with timing wrappers at the names
their callers look up (``hyperflow.model`` binds ``hypergraph_block`` and
friends by name at import, so patching ``hyperflow.hyperedges`` alone would
record nothing).  Nothing under ``src/`` changes.

Backward time is attributed per layer: every node a layer appends to the
active tape's public ``nodes`` list during its forward span gets that
layer's label, and its vector-Jacobian product is wrapped in a timer.
Nodes recorded outside every layer span stay unlabelled and are counted as
``autodiff.unattributed_nodes``; the run fails unless that count is 0.

A wrapped name that is missing, or a layer that records no call during the
run, is an error: the traced run never reports 0 for a layer it could not
see.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

LABEL = "_perfbench_label"


class TraceError(RuntimeError):
    """A wrapped name is missing or a layer recorded nothing."""


def _resolve(path: str):
    """'hyperflow.<module>.<name>' or 'hyperflow.<module>.<Class>.<method>'."""
    package, module, *attrs = path.split(".")
    try:
        owner = importlib.import_module(f"{package}.{module}")
    except ImportError as err:
        raise TraceError(f"{path}: module is missing; layer cannot be traced") from err
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            raise TraceError(f"{path}: {attr} is missing; layer cannot be traced")
    if not hasattr(owner, attrs[-1]):
        raise TraceError(f"{path}: wrapped name is missing; layer cannot be traced")
    return owner, attrs[-1]


class Tracer:
    """Spans, tape-node labels and matmul counts for one traced run.

    ``n_nodes`` and ``lookback`` let the per-scale wrappers tell which
    window size a block runs at from the row count of its input.
    """

    # (caller namespace, layer label) for spans whose nodes carry the label.
    LAYERS = (
        ("hyperflow.model.build_node_features", "encoder.features"),
        ("hyperflow.model.graph_convolution", "encoder.conv"),
        ("hyperflow.model.slice_rows", "model.last_step"),
        ("hyperflow.model.window_max_rows", "model.pool"),
        ("hyperflow.model.mixed_layer", "model.mix"),
        ("hyperflow.model.hypergraph_block", "hyperedges"),
        ("hyperflow.model.interaction_block", "interaction"),
        ("hyperflow.model.mean_over_time", "model.time_mean"),
        ("hyperflow.model.fuse_scales", "model.fusion"),
        ("hyperflow.model.forecast_head", "model.head"),
        ("hyperflow.training.mae_loss", "training.loss"),
    )
    # Spans that time a call but label no nodes.  Each public function is
    # wrapped in its own module and in every module that imports it by name.
    CALLS = (
        ("hyperflow.data.ingest", "data.ingest"),
        ("hyperflow.cli.ingest", "data.ingest"),
        ("hyperflow.data.prepare_dataset", "data.prepare"),
        ("hyperflow.cli.prepare_dataset", "data.prepare"),
        ("hyperflow.model.temporal_graph", "graphs.temporal_graph"),
        ("hyperflow.checkpoint.load_checkpoint", "checkpoint.load"),
        ("hyperflow.cli.load_checkpoint", "checkpoint.load"),
        ("hyperflow.checkpoint.save_checkpoint", "checkpoint.save"),
        ("hyperflow.cli.save_checkpoint", "checkpoint.save"),
        ("hyperflow.training.fit", "training.fit"),
        ("hyperflow.cli.fit", "training.fit"),
        ("hyperflow.training.Adam.step", "training.adam_step"),
        ("hyperflow.cli.cmd_predict", "cli.predict"),
        ("hyperflow.model.Forecaster.forward", "model.forward"),
        ("hyperflow.model.Forecaster.predict", "model.predict"),
    )
    PREDICT_BATCH = ("hyperflow.training.predict_batch", "hyperflow.cli.predict_batch")
    MATMUL = ("hyperflow.autodiff.matmul", "hyperflow.encoder.matmul",
              "hyperflow.hyperedges.matmul", "hyperflow.interaction.matmul",
              "hyperflow.model.matmul")
    SCALED = ("hyperedges", "interaction")
    REPORTED_SCALES = (1, 2, 3)  # window sizes every workload has; ".all" sums every scale

    def __init__(self, n_nodes: int, lookback: int):
        self.n_nodes = n_nodes
        self.lookback = lookback
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.incl = defaultdict(float)  # name -> inclusive seconds
        self.excl = defaultdict(float)  # name -> self seconds
        self.calls = defaultdict(int)
        self.bwd = defaultdict(float)  # label -> vjp seconds
        self.windows_in = defaultdict(int)  # span name -> model.predict calls inside it
        self.tapes: list = []
        self.backward_s = 0.0
        self.backward_nodes = 0
        self.unattributed = 0
        self.matmul_flop = {"fwd": 0, "bwd": 0}
        self.matmul_s = 0.0
        self.checkpoint_bytes: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        try:
            for path, label in self.LAYERS:
                scaled = label in self.SCALED
                self._patch(path, lambda fn, label=label, scaled=scaled:
                            self._span(fn, label, labels_nodes=True, scaled=scaled))
            for path, label in self.CALLS:
                wrap = self._checkpoint_save if label == "checkpoint.save" else self._span
                self._patch(path, lambda fn, label=label, wrap=wrap: wrap(fn, label))
            for path in self.PREDICT_BATCH:
                self._patch(path, self._predict_batch)
            for path in self.MATMUL:
                self._patch(path, self._matmul)
            self._patch("hyperflow.autodiff.Tape.__enter__", self._tape_enter)
            self._patch("hyperflow.autodiff.Tape.__exit__", self._tape_exit)
            self._patch("hyperflow.autodiff.Tape.backward", self._backward)
        except TraceError:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced, to measure the tracing overhead."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _patch(self, path: str, make_wrapper) -> None:
        owner, name = _resolve(path)
        # A method is restored from the class's own dict, not through a bound lookup.
        original = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name)
        if original is None:
            raise TraceError(f"{path}: not defined on the class itself; cannot be traced")
        self._restore.append((owner, name, original))
        setattr(owner, name, make_wrapper(original))

    # -- spans --------------------------------------------------------------

    def _scale_of(self, h) -> int:
        return self.lookback // (h.shape[0] // self.n_nodes)

    def _span(self, fn, label: str, labels_nodes: bool = False, scaled: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{label}.scale{self._scale_of(args[0])}" if scaled else label
            tape = self.tapes[-1] if labels_nodes and self.tapes else None
            mark = len(tape.nodes) if tape is not None else 0
            predicted = self.calls["model.predict"]
            self.stack.append([name, 0.0])
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                _, child = self.stack.pop()
                self.incl[name] += elapsed
                self.excl[name] += elapsed - child
                self.calls[name] += 1
                self.windows_in[name] += self.calls["model.predict"] - predicted
                if self.stack:
                    self.stack[-1][1] += elapsed
                if tape is not None:
                    self._label(tape.nodes[mark:], name)
        return wrapper

    def _checkpoint_save(self, fn, label: str):
        timed = self._span(fn, label)

        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = timed(path, *args, **kwargs)
            self.checkpoint_bytes.append(os.path.getsize(path))
            return out
        return wrapper

    def _predict_batch(self, fn):
        # Inside fit a predict_batch call is the validation pass.
        in_fit = self._span(fn, "training.val_pass")
        outside = self._span(fn, "training.predict_batch")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inside = any(name == "training.fit" for name, _ in self.stack)
            return (in_fit if inside else outside)(*args, **kwargs)
        return wrapper

    # -- tape ---------------------------------------------------------------

    def _label(self, nodes, name: str) -> None:
        for node in nodes:
            if getattr(node, LABEL, None) is not None:
                continue  # an inner span already claimed it
            if not hasattr(node, "_vjp"):
                raise TraceError("tape nodes have no _vjp; backward cannot be attributed")
            setattr(node, LABEL, name)
            if node._vjp is not None:
                node._vjp = self._timed_vjp(node._vjp, name)

    def _timed_vjp(self, vjp, label: str):
        def timed(g):
            start = perf_counter()
            out = vjp(g)
            self.bwd[label] += perf_counter() - start
            return out
        return timed

    def _tape_enter(self, fn):
        @functools.wraps(fn)
        def wrapper(tape):
            self.tapes.append(tape)
            return fn(tape)
        return wrapper

    def _tape_exit(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, *exc):
            self.tapes.pop()
            return fn(tape, *exc)
        return wrapper

    def _backward(self, fn):
        @functools.wraps(fn)
        def wrapper(tape, loss):
            nodes = tape.nodes
            self.backward_nodes += len(nodes)
            self.unattributed += sum(1 for n in nodes
                                     if n._vjp is not None and getattr(n, LABEL, None) is None)
            self.calls["autodiff.backward"] += 1
            start = perf_counter()
            try:
                return fn(tape, loss)
            finally:
                self.backward_s += perf_counter() - start
        return wrapper

    def _matmul(self, fn):
        @functools.wraps(fn)
        def wrapper(a, b):
            start = perf_counter()
            out = fn(a, b)
            self.matmul_s += perf_counter() - start
            flop = 2 * out.shape[0] * a.shape[1] * out.shape[1]
            self.matmul_flop["fwd"] += flop
            vjp = out._vjp

            def timed(g):
                t0 = perf_counter()
                grads = vjp(g)
                self.matmul_s += perf_counter() - t0
                self.matmul_flop["bwd"] += flop * sum(x is not None for x in grads)
                return grads
            out._vjp = timed
            return out
        return wrapper

    # -- report -------------------------------------------------------------

    def _need(self, name: str) -> int:
        count = self.calls[name]
        if count == 0:
            raise TraceError(f"layer {name} recorded no call; its wrapper is not on the call path")
        return count

    def report(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).

        Forward times are per forward window (every Forecaster.forward call
        of the run), backward times per backward window (every
        Tape.backward call), other times per call unless noted.
        """
        fwd_windows = self._need("model.forward")
        bwd_windows = self._need("autodiff.backward")
        ms = 1e3
        out: dict[str, tuple[float, str]] = {}

        def layer(metric: str, names: list[str], self_time: bool = False):
            for name in names:
                self._need(name)
            table = self.excl if self_time else self.incl
            out[f"{metric}.fwd_ms"] = (ms * sum(table[n] for n in names) / fwd_windows, "ms")
            out[f"{metric}.bwd_ms"] = (ms * sum(self.bwd[n] for n in names) / bwd_windows, "ms")

        for metric in ("encoder.features", "encoder.conv", "model.pool", "model.last_step",
                       "model.time_mean", "model.fusion", "model.head", "training.loss"):
            layer(metric, [metric])
        layer("model.mix", ["model.mix"], self_time=True)
        for block in self.SCALED:
            for w in self.REPORTED_SCALES:
                layer(f"{block}.scale{w}", [f"{block}.scale{w}"])
            every = sorted(n for n in self.calls if n.startswith(f"{block}.scale"))
            if not every:
                raise TraceError(f"layer {block} recorded no call at any scale")
            layer(f"{block}.all", every)

        attributed = sum(self.bwd.values())
        backward_ms = ms * self.backward_s / bwd_windows
        out["autodiff.backward_ms"] = (backward_ms, "ms")
        out["autodiff.backward_self_ms"] = (backward_ms - ms * attributed / bwd_windows, "ms")
        out["autodiff.tape_nodes_per_window"] = (self.backward_nodes / bwd_windows, "count")
        out["autodiff.unattributed_nodes"] = (self.unattributed, "count")
        flop_window = self.matmul_flop["fwd"] / fwd_windows + self.matmul_flop["bwd"] / bwd_windows
        out["autodiff.matmul_gflop_per_window"] = (flop_window / 1e9, "GFLOP")
        out["autodiff.matmul_gflops"] = (sum(self.matmul_flop.values()) / 1e9 / self.matmul_s, "GFLOP/s")

        out["training.adam_step_ms"] = (ms * self.incl["training.adam_step"]
                                        / self._need("training.adam_step"), "ms")
        out["training.val_pass_ms"] = (ms * self.incl["training.val_pass"]
                                       / self._need("training.val_pass"), "ms")
        out["model.predict_ms"] = (ms * self.incl["model.predict"] / self._need("model.predict"), "ms")
        self._need("cli.predict")
        out["cli.predict_write_ms"] = (ms * self.excl["cli.predict"]
                                       / self.windows_in["cli.predict"], "ms")
        for metric, name in (("checkpoint.load_ms", "checkpoint.load"),
                             ("checkpoint.save_ms", "checkpoint.save"),
                             ("data.ingest_ms", "data.ingest"),
                             ("data.prepare_ms", "data.prepare"),
                             ("graphs.temporal_graph_ms", "graphs.temporal_graph")):
            out[metric] = (ms * self.incl[name] / self._need(name), "ms")
        out["checkpoint.bytes"] = (sum(self.checkpoint_bytes) / len(self.checkpoint_bytes), "bytes")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        return out

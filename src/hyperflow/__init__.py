"""Traffic flow forecasting with learned dynamic hypergraph structure."""

from .autodiff import Tape, Tensor, finite_difference_check
from .graphs import RoadNetwork, TemporalGraph, temporal_graph
from .model import Forecaster, ModelConfig
from .training import TrainConfig, MetricReport, evaluate, fit, ha_baseline, mae_loss, split_dataset
from .data import SignalTensor, NormStats, ForecastSample, ingest, make_windows, prepare_dataset, synth_generate

__all__ = [
    "Tape",
    "Tensor",
    "finite_difference_check",
    "RoadNetwork",
    "TemporalGraph",
    "temporal_graph",
    "Forecaster",
    "ModelConfig",
    "TrainConfig",
    "MetricReport",
    "evaluate",
    "fit",
    "ha_baseline",
    "mae_loss",
    "split_dataset",
    "SignalTensor",
    "NormStats",
    "ForecastSample",
    "ingest",
    "make_windows",
    "prepare_dataset",
    "synth_generate",
]

__version__ = "0.1.0"

"""perfbench's tracer still finds, wraps and restores every name it patches.

The tracer looks package names up by string, so a renamed or removed
function would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
spec = importlib.util.spec_from_file_location("layertrace", SOURCE)
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)

TAPE_HOOKS = ("hyperflow.autodiff.Tape.__enter__", "hyperflow.autodiff.Tape.__exit__",
              "hyperflow.autodiff.Tape.backward")


def lookup(path):
    owner, name = layertrace._resolve(path)
    return owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)


def test_tracer_install_wraps_and_uninstall_restores_every_name():
    tracer = layertrace.Tracer
    paths = ([path for path, _ in tracer.LAYERS + tracer.CALLS]
             + list(tracer.PREDICT_BATCH + tracer.MATMUL + TAPE_HOOKS))
    before = {path: lookup(path) for path in paths}
    trace = tracer(n_nodes=3, lookback=12)
    trace.install()
    try:
        wrapped = {path: lookup(path) for path in paths}
    finally:
        trace.uninstall()
    assert [p for p in paths if wrapped[p] is before[p]] == []
    assert [p for p in paths if lookup(p) is not before[p]] == []

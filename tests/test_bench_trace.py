"""The benchmark's span tracer against the package it wraps: every entry
point it names must still resolve, and `ModelSpec.__init__` must still
take the arguments it forwards, or a traced benchmark run fails."""

import importlib.util
from pathlib import Path

import u1bethe
import u1bethe.cli  # noqa: F401  (the tracer wraps cli's entry points too)

from conftest import ETA

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def test_tracer_installs_on_the_package():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    init = u1bethe.weights.ModelSpec.__init__
    tracer = trace.Tracer()
    try:
        tracer.install(u1bethe)
        model = u1bethe.weights.higher_spin_xxz(3, ETA)
        ctx = u1bethe.chain.ChainContext(model, 3, [0, 0.05 + 0.02j, -0.1])
        u1bethe.chain.vacuum_weight(ctx, 0.3 + 0.1j, 1)
    finally:
        tracer.uninstall()
    assert u1bethe.weights.ModelSpec.__init__ is init
    calls = {name: calls for name, (calls, _total, _own)
             in tracer.summary().items()}
    assert calls["chain.vacuum_weight"] == 1
    assert calls["weights.eval_r"] == calls[trace.KERNEL_SPAN] == 3

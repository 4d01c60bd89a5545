"""The benchmark's layer tracer against the propagation kernel it wraps.

``bench/tracing.py`` counts refinement passes and substeps by wrapping
``propagator._interval_unitary`` and calling it positionally.  A change of
the kernel's signature or of its offset convention would otherwise show
only as a broken or miscounted ``bench/run.py --trace 1`` run.
"""

import importlib.util
import inspect
import json
import math
from pathlib import Path

import numpy as np

import floquet_sensor.cli as cli
from floquet_sensor import experiments, hamiltonian, measurement, metrology, propagator
from floquet_sensor.experiments import DdConfig, NoiseModel, make_preset, run_scan

propagator_kernel = propagator._interval_unitary
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_pass_and_substep_counts_match_the_kernel():
    tracer = _load_tracing().Tracer()
    tracer.install({"cli": cli, "experiments": experiments, "hamiltonian": hamiltonian,
                    "measurement": measurement, "metrology": metrology,
                    "propagator": propagator})
    traced = propagator._interval_unitary
    signature = inspect.signature(propagator_kernel)
    seen = []  # (substeps, batch members) of every pass, from the result's shape
    starts = []  # the piece start times of every pass

    def counted(*args, **kwargs):
        # called as the program calls the kernel, so a call form the
        # tracer's wrapper does not accept fails here too
        u = traced(*args, **kwargs)
        bound = signature.bind(*args, **kwargs).arguments
        seen.append((bound["n"], u.size // 4))
        starts.append(np.ravel(bound["t0"]))
        return u

    try:
        propagator._interval_unitary = counted
        # fixed-resolution blocks of pieces x offset nodes: the pieces of
        # the drive period of a noisy scan, folded at its 8 Chebyshev nodes,
        # and of a noiseless one, folded at the one node 0; the anchored
        # call of a noiseless undriven scan, whose first segment [0, 0]
        # is a piece of the same pass, then the step-doubled scalar calls
        # of the exact-QFI oracle
        grid = np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10)
        run_scan("dd-on", np.arange(0.5, 6.0 + 1e-9, 0.5),
                 noise=NoiseModel("ornstein-uhlenbeck", 0.7), dd=DdConfig(),
                 n_realizations=3, seed=0)
        noisy = len(seen)
        run_scan("fds-k5", grid)
        folded = len(seen) - noisy
        run_scan("ods-detuned", grid)
        anchored = starts[noisy + folded:]
        spans = len(tracer.spans)
        make_preset("fds-k5").exact_qfi(1.0)
        # the oracle's states come from the public call, so its span is timed
        oracle = [s[0] for s in tracer.spans[spans:]]
    finally:
        tracer.restore()  # rebinds the kernel itself
    assert propagator._interval_unitary is propagator_kernel
    assert folded > 0 and len({members for _, members in seen}) > 1
    # one pass over [0, 0] and the grid's intervals [0, t], all from t = 0
    assert len(anchored) == 1 and anchored[0].size == grid.size + 1
    assert not anchored[0].any()
    assert "propagator.interval_unitary" in oracle
    metrics = tracer.layer_metrics()
    assert metrics["propagator.passes"] == len(seen)
    assert metrics["propagator.substeps"] == sum(n * members for n, members in seen)
    # the metrics go into the JSON result line of a traced bench run: each is
    # absent or a finite Python number (a numpy scalar would not serialize)
    for name, value in metrics.items():
        assert value is None or (type(value) in (int, float) and math.isfinite(value)), (
            name, value)
    json.dumps(metrics, allow_nan=False)

"""The benchmark's layer tracer against the propagation kernel it wraps.

``bench/tracing.py`` counts refinement passes and substeps by wrapping
``propagator._interval_unitary`` and calling it positionally.  A change of
the kernel's signature or of its offset convention would otherwise show
only as a broken or miscounted ``bench/run.py --trace 1`` run.
"""

import importlib.util
import inspect
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

    def counted(*args, **kwargs):
        # called as the program calls the kernel, so a call form the
        # tracer's wrapper does not accept fails here too
        u = traced(*args, **kwargs)
        seen.append((signature.bind(*args, **kwargs).arguments["n"], u.size // 4))
        return u

    try:
        propagator._interval_unitary = counted
        # fixed-resolution blocks of pieces x realizations, then the
        # step-doubled scalar calls of the exact-QFI oracle
        run_scan("dd-on", np.arange(0.5, 6.0 + 1e-9, 0.5),
                 noise=NoiseModel("ornstein-uhlenbeck", 0.7), dd=DdConfig(),
                 n_realizations=3, seed=0)
        make_preset("fds-k5").exact_qfi(1.0)
    finally:
        tracer.restore()  # rebinds the kernel itself
    assert propagator._interval_unitary is propagator_kernel
    assert len({members for _, members in seen}) > 1
    metrics = tracer.layer_metrics()
    assert metrics["propagator.passes"] == len(seen)
    assert metrics["propagator.substeps"] == sum(n * members for n, members in seen)

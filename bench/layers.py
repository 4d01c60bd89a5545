"""Reference timings of single layers, for the table in bench/README.md.

    python3 bench/layers.py

Run from the root of a source checkout.  Takes about five minutes on two
cores, most of it in the two 192-realization scans.  Each line gives the
median wall time over its repeats and the substeps per repeat, counted by
``tracing.Tracer`` (whose span wrappers add microseconds per call).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import floquet_sensor.cli as cli  # noqa: E402
from floquet_sensor import (  # noqa: E402
    experiments, hamiltonian, measurement, metrology, propagator)
from floquet_sensor.experiments import (  # noqa: E402
    DD_SIGMA_Z_DEFAULT, DdConfig, NoiseModel, default_dd_grid, make_preset,
    run_robustness_sweep, run_scan)
from floquet_sensor.params import mhz_to_angular  # noqa: E402
from floquet_sensor.propagator import PropagatorOptions  # noqa: E402
from tracing import Tracer  # noqa: E402

PKG = {"cli": cli, "experiments": experiments, "hamiltonian": hamiltonian,
       "measurement": measurement, "metrology": metrology, "propagator": propagator}


def timed(label: str, fn, repeats: int) -> None:
    times = []
    tracer = Tracer()
    tracer.install(PKG)
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    finally:
        tracer.restore()
    per_call = tracer.counts["substeps"] // repeats
    print(f"{label:<58} {statistics.median(times) * 1e3:10.1f} ms"
          f"  substeps {per_call:>10}  (n = {repeats})", flush=True)


def main() -> None:
    rng = np.random.default_rng(0)
    q = rng.normal(scale=0.01, size=(1 << 16, 3))
    timed("_pauli_exp + _reduce_product, 65536 substeps",
          lambda: propagator._reduce_product(propagator._pauli_exp(q)), 20)

    sc = make_preset("fds-k5")
    spec = sc.rotating_spec()
    timed("interval_unitary fds-k5, t = 4 us, rel_tol 1e-8",
          lambda: propagator.interval_unitary(spec, 0.0, 4.0, PropagatorOptions(1e-8)), 5)
    timed("exact_qfi fds-k5, t = 4 us (oracle options)", lambda: sc.exact_qfi(4.0), 5)

    grid = mhz_to_angular(np.array([-0.175, 0.0, 0.125]))
    # alternate the two settings so that drift in machine speed hits both alike
    walls = {1: [], 2: []}
    for _ in range(5):
        for threads in walls:
            t0 = time.perf_counter()
            run_robustness_sweep("amplitude", grid=grid, n_workers=threads)
            walls[threads].append(time.perf_counter() - t0)
    for threads, times in walls.items():
        label = f"robustness sweep, 3 points, t = 4 us, threads {threads}"
        print(f"{label:<58} {statistics.median(times) * 1e3:10.1f} ms"
              "  (n = 5, alternating)", flush=True)
    ratios = sorted(a / b for a, b in zip(walls[1], walls[2]))
    print(f"threads 1 / threads 2 wall time per pair: {ratios}", flush=True)

    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    timed("run_scan dd-off, default grid, 192 realizations",
          lambda: run_scan("dd-off", default_dd_grid(False), noise=noise,
                           n_realizations=192), 1)
    timed("run_scan dd-on, tau = 0.5 us, default grid, 192 realizations",
          lambda: run_scan("dd-on", default_dd_grid(True), noise=noise,
                           dd=DdConfig(0.5), n_realizations=192), 1)


if __name__ == "__main__":
    main()

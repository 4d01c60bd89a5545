"""The four benchmark workloads: generated inputs, work counts and checks.

Each workload is one ``floquet-sensor`` command.  ``inputs(seed)`` returns
the command-line flags and the config file contents made from the seed, and
``check`` compares the files one invocation wrote with the independent
references in ``reference.py`` or with properties the method must have.
``check`` returns a list of failure messages, empty when the outputs pass,
and may print diagnostics that are not pass/fail.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref


@dataclass(frozen=True)
class Inputs:
    """What one invocation runs: CLI flags, an optional config, its work."""

    flags: list[str]
    config: dict | None
    points: int  # work points per invocation, the throughput numerator
    extra: dict = field(default_factory=dict)


def read_table(path: Path) -> dict[str, np.ndarray]:
    """CSV columns by name; every column but ``series`` as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows])
            for key in rows[0] if key != "series"}


def _summary(out: Path, command: str) -> dict:
    return json.loads((out / f"{command}_summary.json").read_text())


# ---------------------------------------------------------------------------
# oracle-sweep: robustness on robustness-amp, exact-QFI oracle at t = 4 us
# ---------------------------------------------------------------------------

SWEEP_T_US = 4.0
#: oracle settings of the program, restated for the tolerance below:
#: step-doubling rel_tol of the robustness oracle and the finite-difference
#: step h = 1e-4 * max(Omega, 2 pi * 0.1 MHz) of ``qfi_exact``
ORACLE_REL_TOL = 1e-8
PUBLISHED_AMP_WINDOW_MHZ = (-0.42, 0.33)


def oracle_sweep_inputs(rng: np.random.Generator) -> Inputs:
    # Both ends lie inside the advantage window, so the interval is capped by
    # the grid and no endpoint bisection runs: each closed end would add ten
    # oracle calls (about 10 s) to every invocation.
    lo = -round(0.15 + 0.05 * rng.random(), 4)
    hi = round(0.10 + 0.05 * rng.random(), 4)
    config = {"run": {"presets": ["robustness-amp"], "error_grid_mhz": [lo, 0.0, hi],
                      "sweep_time_us": SWEEP_T_US}}
    return Inputs(flags=["robustness"], config=config, points=3)


def oracle_sweep_check(out: Path, inputs: Inputs, src: Path, run_cli) -> list[str]:
    fails = []
    tab = read_table(out / "robustness_robustness-amp.csv")
    t = SWEEP_T_US
    qfi = tab["qfi_fds_us2"]
    if not np.all((qfi > 0.0) & (qfi <= t * t * (1.0 + 1e-6))):
        fails.append(f"QFI outside (0, t^2 (1 + 1e-6)]: {qfi.tolist()}")

    sensor = ref.PRESETS["robustness-amp"]
    base_ref = ref.ods_qfi(sensor.omega, sensor.delta, t)
    base = tab["qfi_ods_baseline_us2"][0]
    # ODS propagation is a single exact exponential; only the O(h^2)
    # finite-difference error (~1e-8 relative) separates it from expm_frechet
    if abs(base - base_ref) > 1e-6 * base_ref:
        fails.append(f"ODS baseline {base!r} vs expm_frechet {base_ref!r}")

    # Each evolution's state error is below rel_tol, so the central
    # difference is off by at most rel_tol/h; with |dpsi| <= t/2 the QFI
    # 4(|dpsi|^2 - |<psi|dpsi>|^2) moves by at most 4 t e + 8 e^2, e = rel_tol/h.
    h = 1e-4 * max(sensor.omega, ref.mhz(0.1))
    e = ORACLE_REL_TOL / h
    tol = 4.0 * t * e + 8.0 * e * e
    zero = float(qfi[np.argmin(np.abs(tab["error_mhz"]))])
    zero_ref = float(ref.integrate(sensor, [t]).qfi()[-1])
    if abs(zero - zero_ref) > tol:
        fails.append(f"zero-error QFI {zero!r} vs solve_ivp {zero_ref!r} "
                     f"(tolerance {tol:.3g} us^2)")

    win = _summary(out, "robustness")["advantage_interval_mhz"]["robustness-amp"]
    lo, hi = win["low"], win["high"]
    p_lo, p_hi = PUBLISHED_AMP_WINDOW_MHZ
    if not (max(lo, p_lo) < min(hi, p_hi) and lo >= 1.3 * p_lo and hi <= 1.3 * p_hi):
        fails.append(f"advantage interval [{lo}, {hi}] MHz outside the published "
                     f"window [{p_lo}, {p_hi}] +- 30%")
    return fails


# ---------------------------------------------------------------------------
# dd-ensemble: dd-off and dd-on coherence scans under OU detuning noise
# ---------------------------------------------------------------------------

DD_REALIZATIONS = 2
DD_POINTS = 180 + 320  # default dd-off and dd-on grids
PUBLISHED_T2_US = 17.9
#: SCAN_OPTS of the program: fixed resolution chosen for rel_tol 1e-6 per
#: interval; populations may drift by a few such units over a scan
SCAN_POP_TOL = 1e-5


def dd_ensemble_inputs(rng: np.random.Generator) -> Inputs:
    seed = int(rng.integers(1 << 31))
    config = {"run": {"noise_realizations": DD_REALIZATIONS}}
    return Inputs(flags=["--seed", str(seed), "dd"], config=config,
                  points=DD_REALIZATIONS * DD_POINTS)


def dd_ensemble_check(out: Path, inputs: Inputs, src: Path, run_cli) -> list[str]:
    fails = []
    for name in ("dd-off", "dd-on"):
        tab = read_table(out / f"dd_{name}.csv")
        if not np.all((tab["p0"] >= 0.0) & (tab["p0"] <= 1.0)):
            fails.append(f"{name}: p0 outside [0, 1]")
        if not np.all(tab["p0_stderr"] > 0.0):
            fails.append(f"{name}: non-positive stderr")
    fits = _summary(out, "dd")["fits"]
    t2_off, t2_on = fits["dd-off"]["t2_us"], fits["dd-on"]["t2_us"]
    if not (0.0 < t2_off < math.inf and 0.0 < t2_on < math.inf):
        fails.append(f"fitted T2 not a positive number: {t2_off}, {t2_on}")
    # Not pass/fail: with a handful of slow (tau_c = 50 us) noise trajectories
    # the fitted decay scatters over seeds far beyond any useful band (see
    # README), so the published 17.9 us and the 5x extension are only printed.
    print(f"dd-ensemble: fitted T2 dd-off {t2_off:.4g} us "
          f"({t2_off / PUBLISHED_T2_US:.2f} x published {PUBLISHED_T2_US} us), "
          f"dd-on {t2_on:.4g} us ({t2_on / t2_off:.2f} x dd-off)")

    # zero-noise batched dd-off scan on a short grid against solve_ivp
    sys.path.insert(0, str(src))
    from floquet_sensor.experiments import NoiseModel, run_scan

    grid = np.arange(0.25, 2.0 + 1e-9, 0.25)
    scan = run_scan("dd-off", grid, noise=NoiseModel("ornstein-uhlenbeck", 0.0),
                    n_realizations=DD_REALIZATIONS)
    dev = float(np.max(np.abs(scan.p0 - ref.integrate(ref.PRESETS["dd-off"], grid).p0)))
    if dev > SCAN_POP_TOL:
        fails.append(f"zero-noise dd-off scan deviates {dev:.3g} from solve_ivp")
    return fails


# ---------------------------------------------------------------------------
# pipeline-mc: Monte Carlo QFI estimation on the undriven presets
# ---------------------------------------------------------------------------

MC_REPEATS = 300
MC_T_GRID = (1.0, 2.0, 3.0, 3.8, 4.0)  # the qfi command's default grid
MC_PRESETS = ("ods-resonant", "ods-detuned")


def pipeline_mc_inputs(rng: np.random.Generator) -> Inputs:
    seed = int(rng.integers(1 << 31))
    config = {"run": {"presets": list(MC_PRESETS), "repeats": MC_REPEATS}}
    return Inputs(flags=["--seed", str(seed), "--shots", "100000", "qfi"],
                  config=config, points=len(MC_PRESETS) * len(MC_T_GRID) * MC_REPEATS)


def pipeline_mc_check(out: Path, inputs: Inputs, src: Path, run_cli) -> list[str]:
    fails = []
    for name in MC_PRESETS:
        tab = read_table(out / f"qfi_{name}.csv")
        s = ref.PRESETS[name]
        exact_ref = np.array([ref.ods_qfi(s.omega, s.delta, t) for t in tab["t_us"]])
        dev = np.max(np.abs(tab["qfi_exact_us2"] - exact_ref) / exact_ref)
        if dev > 1e-6:
            fails.append(f"{name}: qfi_exact_us2 off expm_frechet by {dev:.3g} (rel)")
        z = (tab["qfi_us2"] - exact_ref) / (tab["qfi_stderr_us2"] / math.sqrt(MC_REPEATS))
        print(f"pipeline-mc: {name} (mean - exact)/SEM by t: "
              + ", ".join(f"{t:g}: {v:+.2f}" for t, v in zip(tab["t_us"], z)))
        if name == "ods-resonant" and np.any(np.abs(z) > 5.0):
            fails.append(f"{name}: Monte Carlo mean beyond 5 SEM of t^2: {z.tolist()}")
    return fails


# ---------------------------------------------------------------------------
# rabi-cli: Rabi scans of the five default presets with photon shot noise
# ---------------------------------------------------------------------------

RABI_SHOTS = 100_000
RABI_GRID = np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10)  # the default grid
RABI_PRESETS = ("ods-resonant", "ods-detuned", "fds-k1", "fds-k3", "fds-k5")
FDS_PRESETS = RABI_PRESETS[2:]
#: readout model defaults (counts/s, us, contrast)
COUNT_RATE, T_DET, CONTRAST = 9.5e4, 0.94, 0.13


def rabi_cli_inputs(rng: np.random.Generator) -> Inputs:
    seed = int(rng.integers(1 << 31))
    sample = sorted(float(t) for t in rng.choice(RABI_GRID, 3, replace=False))
    return Inputs(flags=["--seed", str(seed), "--shots", str(RABI_SHOTS), "rabi"],
                  config=None, points=len(RABI_PRESETS) * RABI_GRID.size,
                  extra={"fds_sample_us": sample})


def _readout_sd(p0: np.ndarray) -> np.ndarray:
    """Standard deviation of the shot-noise p0 estimate at true population p0."""
    mu_bright = COUNT_RATE * T_DET * 1e-6
    mu = mu_bright * (1.0 - CONTRAST * (1.0 - p0))
    return np.sqrt(mu / RABI_SHOTS) / (mu_bright * CONTRAST)


def rabi_cli_check(out: Path, inputs: Inputs, src: Path, run_cli) -> list[str]:
    fails = []
    for name in RABI_PRESETS[:2]:
        tab = read_table(out / f"rabi_{name}.csv")
        s = ref.PRESETS[name]
        p_ref = ref.rabi_population(s.omega, s.delta, tab["t_us"])
        worst = float(np.max(np.abs(tab["p0"] - p_ref) / _readout_sd(p_ref)))
        if worst > 5.0:
            fails.append(f"{name}: a point lies {worst:.2f} Poisson SD off closed form")

    sample = inputs.extra["fds_sample_us"]
    exact_out = run_cli(["rabi"], {"run": {"presets": list(FDS_PRESETS),
                                           "t_grid_us": sample}})
    for name in FDS_PRESETS:
        p_ref = ref.integrate(ref.PRESETS[name], sample).p0
        exact = read_table(exact_out / f"rabi_{name}.csv")["p0"]
        dev = float(np.max(np.abs(exact - p_ref)))
        if dev > SCAN_POP_TOL:
            fails.append(f"{name}: noiseless p0 at {sample} off solve_ivp by {dev:.3g}")
        tab = read_table(out / f"rabi_{name}.csv")
        noisy = tab["p0"][np.searchsorted(tab["t_us"], np.asarray(sample) - 1e-9)]
        worst = float(np.max(np.abs(noisy - p_ref) / _readout_sd(p_ref)))
        if worst > 5.0:
            fails.append(f"{name}: sampled point {worst:.2f} Poisson SD off solve_ivp")
    return fails


@dataclass(frozen=True)
class Workload:
    """``inputs(rng) -> Inputs``; ``check(out, inputs, src, run_cli) -> fails``,
    where ``run_cli(flags, config)`` runs one more invocation for a check and
    returns its output directory."""

    name: str
    inputs: Callable[[np.random.Generator], Inputs]
    check: Callable[..., list[str]]


WORKLOADS = {
    w.name: w for w in (
        Workload("oracle-sweep", oracle_sweep_inputs, oracle_sweep_check),
        Workload("dd-ensemble", dd_ensemble_inputs, dd_ensemble_check),
        Workload("pipeline-mc", pipeline_mc_inputs, pipeline_mc_check),
        Workload("rabi-cli", rabi_cli_inputs, rabi_cli_check),
    )
}

"""Command-line interface: scenario dispatch, config handling and file output.

Configuration values are cyclic MHz, microseconds, Gauss and nanotesla; the
single 2*pi conversion to internal angular units happens here.  Each command
writes plot-ready CSV tables (long format, one row per grid point, units in
the header) and one JSON summary per run.  Identical config and seed produce
byte-identical output files.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .hamiltonian import effective_coefficients, quasi_energy_shift
from .measurement import MonteCarloConfig, ReadoutModel
from .metrology import SensitivityParams, optimal_sensing_time, sensitivity
from .params import FloquetDriveParams, SensorParams, angular_to_mhz, mhz_to_angular
from .experiments import (
    DD_SIGMA_Z_DEFAULT,
    DdConfig,
    NoiseModel,
    PRESET_NAMES,
    calibrate_noise,
    make_preset,
    run_dd_experiment,
    run_qfi_scaling,
    run_rabi_scan,
    run_robustness_sweep,
)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "FLOQUET_SENSOR_OUT"

_CONFIG_SCHEMA = {
    "scenario": str,
    "physical": {
        "zero_field_splitting_mhz": float,
        "gyromagnetic_ratio_mhz_per_g": float,
        "static_field_g": float,
        "signal_amp_mhz": float,
        "detuning_mhz": float,
        "drive_amp_mhz": float,
        "drive_freq_mhz": float,
        "harmonics": int,
        "contrast": float,
        "count_rate_per_s": float,
        "detect_time_us": float,
        "t2_us": list,
        "tau_us": float,
        "noise_sigma_z_mhz": float,
        "noise_tau_c_us": float,
        "target_t2_us": float,
    },
    "run": {
        "shots": int,
        "repeats": int,
        "seed": int,
        "noise_realizations": int,
        "threads": int,
        "t_grid_us": list,
        "presets": list,
        "error_grid_mhz": list,
        "sweep_time_us": float,
    },
    "output": {"dir": str, "formats": list},
}


class ConfigError(click.UsageError):
    """Config-file problem; exits with the usage status code (2)."""


def _check_keys(data: dict, schema: dict, path: str = "") -> None:
    for key, sub in data.items():
        where = f"{path}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(schema[key], dict):
            if not isinstance(sub, dict):
                raise ConfigError(f"config section {where} must be a table")
            _check_keys(sub, schema[key], where + ".")


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} line {exc.lineno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _CONFIG_SCHEMA)
    return data


def _fmt(x) -> str:
    """Round-trip-stable float formatting for deterministic output files."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


class ResultBundle:
    """Summary document plus named tables, written as JSON + CSV files."""

    def __init__(self, command: str, config: dict, seed: int):
        self.command = command
        self.summary: dict = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "command": command,
            "seed": seed,
            "config": config,
        }
        self.tables: list[tuple[str, list[str], list[list]]] = []

    def add_table(self, name: str, header: list[str], rows: list[list]):
        self.tables.append((name, header, rows))

    def write(self, out_dir: Path, formats: tuple[str, ...]) -> list[Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        if "csv" in formats:
            for name, header, rows in self.tables:
                path = out_dir / f"{self.command}_{name}.csv"
                lines = [",".join(header)]
                lines += [",".join(_fmt(v) for v in row) for row in rows]
                path.write_text("\n".join(lines) + "\n")
                written.append(path)
        if "json" in formats:
            path = out_dir / f"{self.command}_summary.json"
            path.write_text(
                json.dumps(self.summary, indent=2, sort_keys=True, default=_fmt) + "\n"
            )
            written.append(path)
        return written


def _readout_model(cfg: dict) -> ReadoutModel:
    phys = cfg.get("physical", {})
    return ReadoutModel(
        count_rate=phys.get("count_rate_per_s", 9.5e4),
        t_det=phys.get("detect_time_us", 0.94),
        contrast=phys.get("contrast", 0.13),
    )


def _preset_names(cfg: dict, default: list[str]) -> list[str]:
    names = cfg.get("run", {}).get("presets", default)
    for n in names:
        if n not in PRESET_NAMES:
            raise ConfigError(
                f"unknown scenario name {n!r}; choose from {', '.join(PRESET_NAMES)}"
            )
    return names


_DRIVEN_PRESETS = ("fds-k1", "fds-k3", "fds-k5",
                   "robustness-amp", "robustness-freq", "dd-off", "dd-on")


def _build_scenario(name: str, cfg: dict):
    """Preset with the config's physical overrides applied.

    Drive overrides fall back to quadrature tone phases (the per-preset tuned
    patterns only apply to the default drive parameters).
    """
    phys = cfg.get("physical", {})
    over = {}
    sensor_keys = (
        "zero_field_splitting_mhz",
        "gyromagnetic_ratio_mhz_per_g",
        "static_field_g",
    )
    if any(k in phys for k in sensor_keys):
        over["sensor"] = SensorParams(
            D=mhz_to_angular(phys.get("zero_field_splitting_mhz", 2870.0)),
            gamma_e=mhz_to_angular(phys.get("gyromagnetic_ratio_mhz_per_g", 2.8)),
            B0=phys.get("static_field_g", 500.0),
        )
    if "signal_amp_mhz" in phys:
        over["omega_s_amp"] = mhz_to_angular(phys["signal_amp_mhz"])
    if "detuning_mhz" in phys:
        over["delta"] = mhz_to_angular(phys["detuning_mhz"])
    if name in _DRIVEN_PRESETS and (
        "drive_amp_mhz" in phys or "drive_freq_mhz" in phys
    ):
        k = int(name[-1]) if name.startswith("fds-k") else 5
        over["drive"] = FloquetDriveParams(
            mhz_to_angular(phys.get("drive_amp_mhz", 1.0)),
            mhz_to_angular(phys.get("drive_freq_mhz", 36.54)),
            k,
            (0.5 * math.pi,) * k,
        )
    return make_preset(name, **over)


def _t_grid(cfg: dict, default) -> np.ndarray:
    return np.asarray(cfg.get("run", {}).get("t_grid_us", default), dtype=float)


@click.group()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON config file; command-line flags override its keys.")
@click.option("--out", "out_dir", type=click.Path(), envvar=OUT_DIR_ENV,
              default="results", show_default=True,
              help=f"Output directory (env {OUT_DIR_ENV}).")
@click.option("--seed", type=int, default=None, help="Master RNG seed.")
@click.option("--shots", type=int, default=None,
              help="Photon shots per point (omit for noiseless populations).")
@click.option("--format", "formats", default="csv,json", show_default=True,
              help="Comma-separated output formats (csv, json).")
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for parameter sweeps.")
@click.version_option(__version__)
@click.pass_context
def main(ctx, config_path, out_dir, seed, shots, formats, threads):
    """Microwave-amplitude sensing simulator for a driven two-level sensor."""
    cfg = load_config(config_path)
    run = cfg.setdefault("run", {})
    if seed is not None:
        run["seed"] = seed
    if shots is not None:
        run["shots"] = shots
    if threads != 1:
        run["threads"] = threads
    out = cfg.setdefault("output", {})
    out.setdefault("dir", out_dir)
    fmts = tuple(f.strip() for f in formats.split(",") if f.strip())
    for f in fmts:
        if f not in ("csv", "json"):
            raise ConfigError(f"unknown output format {f!r}")
    out.setdefault("formats", list(fmts))
    ctx.obj = cfg


def _finish(cfg: dict, bundle: ResultBundle):
    out_dir = Path(cfg["output"]["dir"])
    written = bundle.write(out_dir, tuple(cfg["output"]["formats"]))
    for path in written:
        click.echo(f"wrote {path}")


@main.command()
@click.pass_context
def rabi(ctx):
    """Rabi population scans for the standard presets."""
    cfg = ctx.obj
    run = cfg.get("run", {})
    seed = run.get("seed", 0)
    shots = run.get("shots")
    presets = _preset_names(
        cfg, ["ods-resonant", "ods-detuned", "fds-k1", "fds-k3", "fds-k5"]
    )
    t_grid = _t_grid(cfg, np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10))
    if t_grid.size == 0:
        raise ConfigError("empty time grid")
    bundle = ResultBundle("rabi", cfg, seed)
    model = _readout_model(cfg)
    for name in presets:
        scan = run_rabi_scan(
            _build_scenario(name, cfg), t_grid, shots=shots, seed=seed, model=model
        )
        rows = [
            [name, t, p, e]
            for t, p, e in zip(scan.times, scan.p0, scan.stderr)
        ]
        bundle.add_table(
            name, ["series", "t_us", "p0", "p0_stderr"], rows
        )
        bundle.summary.setdefault("contrast_by_preset", {})[name] = float(
            np.max(scan.p0) - np.min(scan.p0)
        )
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def qfi(ctx):
    """Fisher-information scaling against the exact oracle."""
    cfg = ctx.obj
    run = cfg.get("run", {})
    seed = run.get("seed", 0)
    shots = run.get("shots")
    repeats = run.get("repeats", 50)
    presets = _preset_names(cfg, ["fds-k5", "ods-detuned"])
    t_grid = _t_grid(cfg, [1.0, 2.0, 3.0, 3.8, 4.0])
    bundle = ResultBundle("qfi", cfg, seed)
    mc = MonteCarloConfig(shots=shots or 100_000, repeats=repeats, seed=seed)
    for name in presets:
        rows_out = []
        for row in run_qfi_scaling(
            _build_scenario(name, cfg), t_grid, shots=shots, mc=mc,
            model=_readout_model(cfg),
        ):
            rows_out.append(
                [name, row.t, row.qfi, row.stderr, row.qfi_over_t2, row.qfi_exact]
            )
        bundle.add_table(
            name,
            ["series", "t_us", "qfi_us2", "qfi_stderr_us2", "qfi_over_t2", "qfi_exact_us2"],
            rows_out,
        )
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def effective(ctx):
    """Quasi-energy shift, residual detuning and validity diagnostics."""
    cfg = ctx.obj
    phys = cfg.get("physical", {})
    seed = cfg.get("run", {}).get("seed", 0)
    k = int(phys.get("harmonics", 5))
    sc = _build_scenario(f"fds-k{k}" if k in (1, 3, 5) else "fds-k5", cfg)
    drive = sc.drive
    if k not in (1, 3, 5):
        drive = FloquetDriveParams(drive.omega_F_amp, drive.omega_F_freq, k)
    delta = sc.signal.detuning(sc.sensor)
    shift = quasi_energy_shift(drive)
    cx, cz = effective_coefficients(sc.sensor, sc.signal, drive)
    ratio = drive.validity_ratio(sc.signal.omega_s_amp, delta)
    bundle = ResultBundle("effective", cfg, seed)
    bundle.summary["quasi_energy_shift_mhz"] = angular_to_mhz(shift)
    bundle.summary["detuning_mhz"] = angular_to_mhz(delta)
    bundle.summary["residual_detuning_mhz"] = angular_to_mhz(delta - shift)
    bundle.summary["validity_ratio"] = ratio
    bundle.summary["sigma_x_coeff_mhz"] = angular_to_mhz(cx)
    bundle.summary["sigma_z_coeff_mhz"] = angular_to_mhz(cz)
    rows = []
    for l in range(1, drive.harmonics + 1):
        partial = FloquetDriveParams(drive.omega_F_amp, drive.omega_F_freq, l)
        rows.append([l, angular_to_mhz(quasi_energy_shift(partial))])
    bundle.add_table("shift_by_harmonic", ["harmonics", "shift_mhz"], rows)
    click.echo(f"quasi-energy shift: {angular_to_mhz(shift):.6f} MHz")
    click.echo(f"residual detuning:  {angular_to_mhz(delta - shift):.6f} MHz")
    click.echo(f"validity ratio:     {ratio:.2f}")
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def robustness(ctx):
    """Control-error sweeps of the driven sensor's Fisher information."""
    cfg = ctx.obj
    run = cfg.get("run", {})
    seed = run.get("seed", 0)
    threads = run.get("threads", 1)
    presets = _preset_names(cfg, ["robustness-amp", "robustness-freq"])
    grid_mhz = run.get("error_grid_mhz")
    grid = mhz_to_angular(np.asarray(grid_mhz, dtype=float)) if grid_mhz else None
    t_sweep = run.get("sweep_time_us", 4.0)
    bundle = ResultBundle("robustness", cfg, seed)
    for name in presets:
        axis = "amplitude" if name.endswith("amp") else "frequency"
        res = run_robustness_sweep(
            axis, grid=grid, t=t_sweep, preset=_build_scenario(name, cfg),
            n_workers=threads,
        )
        rows = [
            [name, angular_to_mhz(e), q, res.baseline]
            for e, q in zip(res.errors, res.qfi_fds)
        ]
        bundle.add_table(
            name,
            ["series", "error_mhz", "qfi_fds_us2", "qfi_ods_baseline_us2"],
            rows,
        )
        bundle.summary.setdefault("advantage_interval_mhz", {})[name] = {
            "low": angular_to_mhz(res.interval[0]),
            "high": angular_to_mhz(res.interval[1]),
            "low_at_grid_edge": res.interval_open[0],
            "high_at_grid_edge": res.interval_open[1],
        }
    _finish(cfg, bundle)


@main.command("sensitivity")
@click.pass_context
def sensitivity_curves(ctx):
    """Magnetic sensitivity curves and optima."""
    cfg = ctx.obj
    phys = cfg.get("physical", {})
    seed = cfg.get("run", {}).get("seed", 0)
    t2_values = phys.get("t2_us", [17.9, 162.5])
    bundle = ResultBundle("sensitivity", cfg, seed)
    rows = []
    for t2 in t2_values:
        params = SensitivityParams(
            contrast=phys.get("contrast", 0.13),
            count_rate=phys.get("count_rate_per_s", 9.5e4),
            t_det=phys.get("detect_time_us", 0.94),
            T2=float(t2),
        )
        opt = optimal_sensing_time(params)
        for t in np.linspace(0.1 * t2, 3.0 * t2, 60):
            rows.append([f"T2={t2:g}us", t, sensitivity(params, t)])
        bundle.summary.setdefault("by_t2", {})[f"{t2:g}"] = {
            "eta_at_t2_nt_per_sqrthz": opt.eta_at_t2,
            "t_opt_us": opt.t_opt,
            "eta_opt_nt_per_sqrthz": opt.eta_opt,
        }
        click.echo(
            f"T2 = {t2:g} us: eta(T2) = {opt.eta_at_t2:.1f} nT/sqrt(Hz), "
            f"optimum {opt.eta_opt:.1f} at t = {opt.t_opt:.2f} us"
        )
    bundle.add_table("curves", ["series", "t_us", "eta_nt_per_sqrthz"], rows)
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def dd(ctx):
    """Coherence scans with and without Carr-Purcell decoupling."""
    cfg = ctx.obj
    run = cfg.get("run", {})
    phys = cfg.get("physical", {})
    seed = run.get("seed", 0)
    shots = run.get("shots")
    n_real = run.get("noise_realizations", 192)
    noise_sigma = phys.get("noise_sigma_z_mhz")
    sigma_z = (
        mhz_to_angular(noise_sigma) if noise_sigma is not None else DD_SIGMA_Z_DEFAULT
    )
    noise = NoiseModel(
        kind="ornstein-uhlenbeck",
        sigma_z=sigma_z,
        tau_c=phys.get("noise_tau_c_us", 50.0),
    )
    tau = phys.get("tau_us", 0.5)
    grid = run.get("t_grid_us")
    grid = np.asarray(grid, dtype=float) if grid else None
    bundle = ResultBundle("dd", cfg, seed)
    for name, ddcfg in (("dd-off", None), ("dd-on", DdConfig(tau=tau))):
        scan, fit = run_dd_experiment(
            _build_scenario(name, cfg), dd=ddcfg, noise=noise, t_grid=grid,
            shots=shots, n_realizations=n_real, seed=seed,
        )
        rows = [
            [name, t, p, e] for t, p, e in zip(scan.times, scan.p0, scan.stderr)
        ]
        bundle.add_table(name, ["series", "t_us", "p0", "p0_stderr"], rows)
        bundle.summary.setdefault("fits", {})[name] = {
            "t2_us": fit.T2,
            "t2_is_lower_bound": fit.t2_is_lower_bound,
            "frequency_rad_per_us": fit.frequency,
            "residual": fit.residual,
        }
        click.echo(
            f"{name}: fitted T2 = {fit.T2:.1f} us"
            + (" (lower bound)" if fit.t2_is_lower_bound else "")
        )
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def calibrate(ctx):
    """Calibrate the noise amplitude to a target pulse-free decay time."""
    cfg = ctx.obj
    run = cfg.get("run", {})
    phys = cfg.get("physical", {})
    seed = run.get("seed", 0)
    target = phys.get("target_t2_us", 17.9)
    grid = run.get("t_grid_us")
    noise = calibrate_noise(
        target_t2=target,
        tau_c=phys.get("noise_tau_c_us", 50.0),
        preset=_build_scenario("dd-off", cfg),
        t_grid=np.asarray(grid, dtype=float) if grid else None,
        n_realizations=run.get("noise_realizations", 160),
        seed=seed,
    )
    bundle = ResultBundle("calibrate", cfg, seed)
    bundle.summary["target_t2_us"] = target
    bundle.summary["sigma_z_rad_per_us"] = noise.sigma_z
    bundle.summary["sigma_z_mhz"] = angular_to_mhz(noise.sigma_z)
    bundle.summary["tau_c_us"] = noise.tau_c
    click.echo(
        f"calibrated sigma_z = {noise.sigma_z:.4f} rad/us "
        f"({angular_to_mhz(noise.sigma_z):.4f} MHz) for T2 = {target:g} us"
    )
    _finish(cfg, bundle)


def entrypoint():
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    entrypoint()

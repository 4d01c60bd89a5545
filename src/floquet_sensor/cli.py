"""Command-line interface: scenario dispatch, config handling and file output.

Configuration values are cyclic MHz, microseconds, Gauss and nanotesla; the
single 2*pi conversion to internal angular units happens here.  Each command
writes plot-ready CSV tables (long format, one row per grid point, units in
the header) and one JSON summary per run.  Identical config and seed produce
byte-identical output files.

``main`` checks the config against ``_CONFIG_SCHEMA`` and hands it to the
command in a ``_ConfigReader``.  The command reads every key it uses through
the reader, then calls ``done``, which rejects (exit 2) any config key that
no read took, and only then works: a key is read only where it changes the
result (the readout keys and ``run.repeats`` only under ``run.shots``), so a
setting the command would ignore is refused.

Exit codes: 0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .hamiltonian import effective_coefficients, quasi_energy_shift
from .measurement import MonteCarloConfig
from .metrology import optimal_sensing_time, sensitivity
from .params import FloquetDriveParams, ReadoutModel, angular_to_mhz, mhz_to_angular
from .experiments import (
    DD_SIGMA_Z_DEFAULT,
    DECAY_FIT_MIN_POINTS,
    DdConfig,
    NoiseModel,
    PRESET_NAMES,
    calibrate_noise,
    grid_has_zero,
    make_preset,
    run_dd_experiment,
    run_qfi_scaling,
    run_robustness_sweep,
    run_scan,
)

SCHEMA_VERSION = 1
OUT_DIR_ENV = "FLOQUET_SENSOR_OUT"


class _Domain:
    """Schema entry for a value of ``kind`` (a type, or ``[type]`` for a list)
    that must also pass ``test``; ``bound`` completes "must ..." in the error."""

    def __init__(self, kind, test, bound: str):
        self.kind, self.test, self.bound = kind, test, bound


def _positive(kind: type) -> _Domain:
    """A value > 0; for an integer, >= 1."""
    return _Domain(kind, lambda v: v > 0, "be >= 1" if kind is int else "be > 0")


_CONFIG_SCHEMA = {
    "physical": {
        "gyromagnetic_ratio_mhz_per_g": _positive(float),
        "signal_amp_mhz": _Domain(float, lambda v: v >= 0, "be >= 0"),
        "detuning_mhz": float,
        "drive_amp_mhz": _Domain(float, lambda v: v >= 0, "be >= 0"),
        "drive_freq_mhz": _positive(float),
        "harmonics": _positive(int),
        "contrast": _Domain(float, lambda v: 0 < v < 1, "lie in (0, 1)"),
        "count_rate_per_s": _positive(float),
        "detect_time_us": _positive(float),
        "t2_us": [_positive(float)],
        "tau_us": _positive(float),
        "noise_sigma_z_mhz": _Domain(float, lambda v: v >= 0, "be >= 0"),
        "noise_tau_c_us": _positive(float),
        "target_t2_us": _positive(float),
    },
    "run": {
        "shots": _positive(int),
        "repeats": _positive(int),
        "seed": _Domain(int, lambda v: v >= 0, "be >= 0"),
        "noise_realizations": _positive(int),
        "threads": _positive(int),
        "t_grid_us": _Domain(
            [float], lambda v: v[0] >= 0 and all(a < b for a, b in zip(v, v[1:])),
            "be strictly increasing and >= 0",
        ),
        "presets": [str],
        "error_grid_mhz": _Domain(
            [float],
            lambda v: all(a < b for a, b in zip(v, v[1:]))
            and grid_has_zero(mhz_to_angular(np.asarray(v, dtype=float))),
            "be strictly increasing and contain 0 (the unperturbed point)",
        ),
        "sweep_time_us": _positive(float),
    },
    "output": {"dir": str, "formats": [str]},
}
# a list value is declared as [element type] and must not be empty
_TYPE_NAMES = {float: "a number", int: "an integer", str: "a string"}


class ConfigError(click.UsageError):
    """Config-file problem; exits with the usage status code (2)."""


def _check(value, kind, where: str) -> None:
    """Reject unknown keys, mistyped, non-finite or out-of-domain values and
    empty lists.

    An int passes where a float is declared; a bool passes as neither.
    """
    if isinstance(kind, _Domain):
        _check(value, kind.kind, where)
        if not kind.test(value):
            raise ConfigError(f"config key {where} must {kind.bound}, got {value!r}")
    elif isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"config section {where} must be a table")
        for key, sub in value.items():
            path = f"{where}.{key}" if where else key
            if key not in kind:
                raise ConfigError(f"unknown config key: {path}")
            _check(sub, kind[key], path)
    elif isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"config key {where} must be a non-empty list")
        for i, item in enumerate(value):
            _check(item, kind[0], f"{where}[{i}]")
    else:
        types = (int, float) if kind is float else kind
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(
                f"config key {where} must be {_TYPE_NAMES[kind]}, got {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {where} must be finite, got {value!r}")


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
    return data


def _fmt(x) -> str:
    """Round-trip-stable float formatting for deterministic output files."""
    if type(x) is float or type(x) is np.float64:  # the common case, first
        return float.__repr__(x)
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _fmt_column(values) -> list[str]:
    """``_fmt`` of every entry of one table column.  A float array is
    formatted as a whole, ``float.__repr__`` over its ``tolist()``: the same
    text at a fraction of the per-entry cost."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return list(map(float.__repr__, values.tolist()))
    return [_fmt(v) for v in values]


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
        self.tables: list[tuple[str, list[str], list]] = []

    def add_table(self, name: str, header: list[str], columns: list):
        """A table given by its columns, one per header entry: each a sequence
        of values, all of one length, or one string that fills every row of
        its column."""
        self.tables.append((name, header, columns))

    def write(self, out_dir: Path, formats: tuple[str, ...]) -> list[Path]:
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        if "csv" in formats:
            for name, header, columns in self.tables:
                path = out_dir / f"{self.command}_{name}.csv"
                n = next(len(c) for c in columns if not isinstance(c, str))
                cells = [[c] * n if isinstance(c, str) else _fmt_column(c) for c in columns]
                lines = [",".join(header), *map(",".join, zip(*cells))]
                path.write_text("\n".join(lines) + "\n")
                written.append(path)
        if "json" in formats:
            path = out_dir / f"{self.command}_summary.json"
            path.write_text(
                json.dumps(self.summary, indent=2, sort_keys=True, default=_fmt) + "\n"
            )
            written.append(path)
        return written


class _ConfigReader:
    """The checked config of one run, read by its command one key at a time.

    ``get`` and ``given`` record each key they read (a key outside the schema
    is a programming error); ``done`` rejects the first config key, in config
    order, that no read took.  ``flags`` maps a config key to the flag that
    set it; ``main`` sets ``output``, the (directory, formats) written to.
    """

    def __init__(self, data: dict, command: str, flags: dict):
        self.data, self.command, self._flags = data, command, flags
        self._read: set[str] = set()

    def get(self, path: str, default=None):
        section, _, key = path.partition(".")
        if key not in _CONFIG_SCHEMA.get(section, ()):
            raise KeyError(f"{path} is not a config key")
        self._read.add(path)
        return self.data.get(section, {}).get(key, default)

    def given(self, convert=None, **paths) -> dict:
        """``name=value`` (through ``convert``) for each ``name=path`` the
        config sets; unset keys leave the library's defaults in force."""
        values = {name: self.get(path) for name, path in paths.items()}
        return {name: v if convert is None else convert(v)
                for name, v in values.items() if v is not None}

    def done(self) -> None:
        for section, values in self.data.items():
            for key in values:
                path = f"{section}.{key}"
                if path not in self._read:
                    origin = f" (from {self._flags[path]})" if path in self._flags else ""
                    raise ConfigError(
                        f"config key {path}{origin} is not read by {self.command}")


def _decay_scan_keys(cfg: _ConfigReader) -> dict:
    """The ``run`` keys of a decay-fitted scan, checked before any scan runs:
    a ``t_grid_us`` needs a point per parameter of the decaying-cosine fit."""
    keys = cfg.given(t_grid="run.t_grid_us", n_realizations="run.noise_realizations")
    if "t_grid" in keys and len(keys["t_grid"]) < DECAY_FIT_MIN_POINTS:
        raise ConfigError(
            f"config key run.t_grid_us must hold at least {DECAY_FIT_MIN_POINTS} "
            f"points for the decay fit, got {len(keys['t_grid'])}"
        )
    return keys


def _readout_model(cfg: _ConfigReader) -> ReadoutModel:
    return ReadoutModel(**cfg.given(
        count_rate="physical.count_rate_per_s", t_det="physical.detect_time_us",
        contrast="physical.contrast"))


def _shots(cfg: _ConfigReader) -> tuple[int | None, ReadoutModel]:
    """``run.shots`` and the readout its photon counts are drawn through; the
    readout keys change nothing without shots, and are read only with them."""
    shots = cfg.get("run.shots")
    return shots, ReadoutModel() if shots is None else _readout_model(cfg)


def _build_scenario(name: str, cfg: _ConfigReader):
    """Preset with the config's physical overrides applied.

    Drive overrides (amplitude, frequency, harmonic count) fall back to
    quadrature tone phases (the per-preset tuned patterns only apply to the
    default drive parameters).
    """
    over = cfg.given(mhz_to_angular, omega_s_amp="physical.signal_amp_mhz",
                     delta="physical.detuning_mhz")
    sc = make_preset(name, **over)
    drive = cfg.given(mhz_to_angular, omega_F_amp="physical.drive_amp_mhz",
                      omega_F_freq="physical.drive_freq_mhz")
    drive.update(cfg.given(harmonics="physical.harmonics"))
    if drive and sc.drive is not None:
        k = drive.get("harmonics", sc.drive.harmonics)
        sc = replace(sc, drive=replace(sc.drive, phases=(0.5 * math.pi,) * k, **drive))
    return sc


def _scenarios(cfg: _ConfigReader, default: list[str]) -> list[tuple]:
    """(name, scenario) for each of ``run.presets``, or of ``default``."""
    names = cfg.get("run.presets", default)
    for n in names:
        if n not in PRESET_NAMES:
            raise ConfigError(
                f"config key run.presets: unknown scenario name {n!r}; "
                f"choose from {', '.join(PRESET_NAMES)}"
            )
    return [(n, _build_scenario(n, cfg)) for n in names]


def _t_grid(cfg: _ConfigReader, default) -> np.ndarray:
    return np.asarray(cfg.get("run.t_grid_us", default), dtype=float)


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
    data = load_config(config_path)
    run, out = _section(data, "run"), _section(data, "output")
    flags = {}  # config key -> the flag that set it
    if seed is not None:
        run["seed"] = seed
    if shots is not None:
        run["shots"] = shots
        flags["run.shots"] = "--shots"
    # a flag equal to the value in effect adds no key to the echoed config
    if _given(ctx, "threads") and threads != run.get("threads", 1):
        run["threads"] = threads
        flags["run.threads"] = "--threads"
    _check(data, _CONFIG_SCHEMA, "")
    # a flag (or the environment) beats the config, the config the default
    if _given(ctx, "out_dir") or "dir" not in out:
        out["dir"] = out_dir
    where = "output.formats"
    if _given(ctx, "formats") or "formats" not in out:
        out["formats"] = [f.strip() for f in formats.split(",") if f.strip()]
        where = "--format"
    if not out["formats"]:
        raise ConfigError(f"--format names no output format: {formats!r}")
    for f in out["formats"]:
        if f not in ("csv", "json"):
            raise ConfigError(f"{where}: unknown output format {f!r}")
    cfg = ctx.obj = _ConfigReader(data, ctx.invoked_subcommand, flags)
    # every command writes its results here, through ``_finish``
    cfg.output = Path(cfg.get("output.dir")), tuple(cfg.get("output.formats"))


def _section(cfg: dict, name: str) -> dict:
    section = cfg.setdefault(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name} must be a table")
    return section


def _given(ctx, name: str) -> bool:
    """True when a parameter came from the command line or the environment."""
    return ctx.get_parameter_source(name) not in (
        click.core.ParameterSource.DEFAULT, click.core.ParameterSource.DEFAULT_MAP
    )


def _finish(cfg: _ConfigReader, bundle: ResultBundle):
    for path in bundle.write(*cfg.output):
        click.echo(f"wrote {path}")


@main.command()
@click.pass_context
def rabi(ctx):
    """Rabi population scans for the standard presets."""
    cfg = ctx.obj
    seed = cfg.get("run.seed", 0)
    shots, model = _shots(cfg)
    scenarios = _scenarios(
        cfg, ["ods-resonant", "ods-detuned", "fds-k1", "fds-k3", "fds-k5"]
    )
    t_grid = _t_grid(cfg, np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10))
    cfg.done()
    bundle = ResultBundle("rabi", cfg.data, seed)
    for name, sc in scenarios:
        scan = run_scan(sc, t_grid, shots=shots, seed=seed, model=model)
        bundle.add_table(name, ["series", "t_us", "p0", "p0_stderr"],
                         [name, scan.times, scan.p0, scan.stderr])
        bundle.summary.setdefault("contrast_by_preset", {})[name] = float(
            np.max(scan.p0) - np.min(scan.p0)
        )
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def qfi(ctx):
    """Fisher-information scaling against the exact oracle."""
    cfg = ctx.obj
    seed = cfg.get("run.seed", 0)
    shots, model = _shots(cfg)
    mc = None if shots is None else MonteCarloConfig(
        shots, seed=seed, **cfg.given(repeats="run.repeats")
    )
    amp = cfg.get("physical.signal_amp_mhz")
    if amp is not None and amp <= 0:
        raise ConfigError(
            f"config key physical.signal_amp_mhz must be > 0 for qfi, whose "
            f"amplitude grid spans +-2.5% of it, got {amp!r}"
        )
    scenarios = _scenarios(cfg, ["fds-k5", "ods-detuned"])
    t_grid = _t_grid(cfg, [1.0, 2.0, 3.0, 3.8, 4.0])
    cfg.done()
    bundle = ResultBundle("qfi", cfg.data, seed)
    for name, sc in scenarios:
        rows = np.array([[r.t, r.qfi, r.stderr, r.qfi_over_t2, r.qfi_exact]
                         for r in run_qfi_scaling(sc, t_grid, mc=mc, model=model)])
        bundle.add_table(
            name,
            ["series", "t_us", "qfi_us2", "qfi_stderr_us2", "qfi_over_t2", "qfi_exact_us2"],
            [name, *rows.T],
        )
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def effective(ctx):
    """Quasi-energy shift, residual detuning and validity diagnostics."""
    cfg = ctx.obj
    seed = cfg.get("run.seed", 0)
    sc = _build_scenario("fds-k5", cfg)
    # a configured detuning is reported as given: its round trip through
    # rad/us can move the last bit (-2000 came back as -1999.9999999999998)
    detuning_mhz = cfg.get("physical.detuning_mhz")
    cfg.done()
    drive, delta = sc.drive, sc.signal.delta
    shift = quasi_energy_shift(drive)
    cx, cz = effective_coefficients(sc.signal, drive)
    ratio = drive.validity_ratio(sc.signal.omega_s_amp, delta)
    bundle = ResultBundle("effective", cfg.data, seed)
    bundle.summary["quasi_energy_shift_mhz"] = angular_to_mhz(shift)
    bundle.summary["detuning_mhz"] = (
        angular_to_mhz(delta) if detuning_mhz is None else float(detuning_mhz))
    bundle.summary["residual_detuning_mhz"] = angular_to_mhz(delta - shift)
    bundle.summary["validity_ratio"] = ratio
    bundle.summary["sigma_x_coeff_mhz"] = angular_to_mhz(cx)
    bundle.summary["sigma_z_coeff_mhz"] = angular_to_mhz(cz)
    harmonics = range(1, drive.harmonics + 1)
    shifts = [angular_to_mhz(quasi_energy_shift(
        FloquetDriveParams(drive.omega_F_amp, drive.omega_F_freq, l))) for l in harmonics]
    bundle.add_table("shift_by_harmonic", ["harmonics", "shift_mhz"], [harmonics, shifts])
    click.echo(f"quasi-energy shift: {angular_to_mhz(shift):.6f} MHz")
    click.echo(f"residual detuning:  {angular_to_mhz(delta - shift):.6f} MHz")
    click.echo(f"validity ratio:     {ratio:.2f}")
    _finish(cfg, bundle)


#: the control-error axis that each robustness preset sweeps
_ROBUSTNESS_AXES = {"robustness-amp": "amplitude", "robustness-freq": "frequency"}


@main.command()
@click.pass_context
def robustness(ctx):
    """Control-error sweeps of the driven sensor's Fisher information."""
    cfg = ctx.obj
    seed = cfg.get("run.seed", 0)
    threads = cfg.get("run.threads", 1)
    scenarios = _scenarios(cfg, list(_ROBUSTNESS_AXES))
    for name, _ in scenarios:
        if name not in _ROBUSTNESS_AXES:
            raise ConfigError(
                f"config key run.presets: robustness sweeps only "
                f"{', '.join(_ROBUSTNESS_AXES)}, got {name!r}"
            )
    grid = cfg.get("run.error_grid_mhz")
    grid = mhz_to_angular(np.asarray(grid, dtype=float)) if grid is not None else None
    sweep_time = cfg.given(t="run.sweep_time_us")
    cfg.done()
    bundle = ResultBundle("robustness", cfg.data, seed)
    for name, sc in scenarios:
        res = run_robustness_sweep(
            _ROBUSTNESS_AXES[name], grid=grid, preset=sc, n_workers=threads, **sweep_time,
        )
        bundle.add_table(
            name,
            ["series", "error_mhz", "qfi_fds_us2", "qfi_ods_baseline_us2"],
            [name, angular_to_mhz(res.errors), res.qfi_fds,
             np.full(res.errors.size, res.baseline)],
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
    seed = cfg.get("run.seed", 0)
    t2_values = cfg.get("physical.t2_us", [17.9, 162.5])
    readout = _readout_model(cfg)
    gamma = cfg.given(mhz_to_angular, gamma_e="physical.gyromagnetic_ratio_mhz_per_g")
    cfg.done()
    bundle = ResultBundle("sensitivity", cfg.data, seed)
    series, times, etas = [], [], []
    for t2 in t2_values:
        opt = optimal_sensing_time(t2, readout, **gamma)
        for t in np.linspace(0.1 * t2, 3.0 * t2, 60):
            series.append(f"T2={t2:g}us")
            times.append(t)
            etas.append(sensitivity(t, t2, readout, **gamma))
        bundle.summary.setdefault("by_t2", {})[f"{t2:g}"] = {
            "eta_at_t2_nt_per_sqrthz": opt.eta_at_t2,
            "t_opt_us": opt.t_opt,
            "eta_opt_nt_per_sqrthz": opt.eta_opt,
        }
        click.echo(
            f"T2 = {t2:g} us: eta(T2) = {opt.eta_at_t2:.1f} nT/sqrt(Hz), "
            f"optimum {opt.eta_opt:.1f} at t = {opt.t_opt:.2f} us"
        )
    bundle.add_table("curves", ["series", "t_us", "eta_nt_per_sqrthz"], [series, times, etas])
    _finish(cfg, bundle)


@main.command()
@click.pass_context
def dd(ctx):
    """Coherence scans with and without Carr-Purcell decoupling."""
    cfg = ctx.obj
    seed = cfg.get("run.seed", 0)
    shots, model = _shots(cfg)
    sigma_z = cfg.get("physical.noise_sigma_z_mhz")
    noise = NoiseModel(
        "ornstein-uhlenbeck",
        DD_SIGMA_Z_DEFAULT if sigma_z is None else mhz_to_angular(sigma_z),
        **cfg.given(tau_c="physical.noise_tau_c_us"),
    )
    dd_on = DdConfig(**cfg.given(tau="physical.tau_us"))
    arms = [(name, _build_scenario(name, cfg), ddcfg)
            for name, ddcfg in (("dd-off", None), ("dd-on", dd_on))]
    scan_keys = _decay_scan_keys(cfg)
    cfg.done()
    bundle = ResultBundle("dd", cfg.data, seed)
    for name, sc, ddcfg in arms:
        scan, fit = run_dd_experiment(
            sc, dd=ddcfg, noise=noise, shots=shots, seed=seed, model=model, **scan_keys,
        )
        bundle.add_table(name, ["series", "t_us", "p0", "p0_stderr"],
                         [name, scan.times, scan.p0, scan.stderr])
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
    seed = cfg.get("run.seed", 0)
    target = cfg.get("physical.target_t2_us", 17.9)
    preset = _build_scenario("dd-off", cfg)
    keys = {**cfg.given(tau_c="physical.noise_tau_c_us"), **_decay_scan_keys(cfg)}
    cfg.done()
    noise = calibrate_noise(target_t2=target, preset=preset, seed=seed, **keys)
    bundle = ResultBundle("calibrate", cfg.data, seed)
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

import json
import math

import pytest
from click.testing import CliRunner

from floquet_sensor.cli import _COMMAND_KEYS, _COMMON_KEYS, _CONFIG_SCHEMA, main

TINY_GRID = [0.5, 1.0, 1.5, 2.0]


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_effective_summary(tmp_path):
    res = run_cli(["--out", str(tmp_path), "effective"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "effective_summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["quasi_energy_shift_mhz"] == pytest.approx(0.4999088, abs=1e-6)
    assert summary["residual_detuning_mhz"] == pytest.approx(9.12e-5, rel=0.01)
    csv = (tmp_path / "effective_shift_by_harmonic.csv").read_text().splitlines()
    assert csv[0] == "harmonics,shift_mhz"
    assert len(csv) == 6


def test_sensitivity_rows(tmp_path):
    res = run_cli(["--out", str(tmp_path), "sensitivity"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "sensitivity_summary.json").read_text())
    assert float(summary["by_t2"]["17.9"]["eta_at_t2_nt_per_sqrthz"]) == pytest.approx(
        606.0, rel=0.01
    )
    assert float(summary["by_t2"]["162.5"]["eta_at_t2_nt_per_sqrthz"]) == pytest.approx(
        196.6, rel=0.01
    )
    header = (tmp_path / "sensitivity_curves.csv").read_text().splitlines()[0]
    assert header == "series,t_us,eta_nt_per_sqrthz"


def test_sensitivity_reads_gyromagnetic_ratio_and_contrast(tmp_path):
    # eta scales as 1/(gamma C): doubling either halves eta(T2)
    def eta_at_t2(physical, sub):
        cfg = write_config(tmp_path, {"physical": physical}, name=f"{sub}.json")
        res = run_cli(["--config", cfg, "--out", str(tmp_path / sub), "sensitivity"])
        assert res.exit_code == 0
        summary = json.loads((tmp_path / sub / "sensitivity_summary.json").read_text())
        return [v["eta_at_t2_nt_per_sqrthz"] for v in summary["by_t2"].values()]

    base = eta_at_t2({}, "base")
    for physical in ({"gyromagnetic_ratio_mhz_per_g": 5.6}, {"contrast": 0.26}):
        sub = next(iter(physical))
        assert eta_at_t2(physical, sub) == pytest.approx(
            [b / 2 for b in base], rel=1e-12
        ), physical


def test_rabi_default_preset_tables(tmp_path):
    cfg = write_config(tmp_path, {"run": {"t_grid_us": TINY_GRID}})
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "rabi"])
    assert res.exit_code == 0
    names = sorted(p.name for p in (tmp_path / "o").glob("rabi_*.csv"))
    assert names == [
        "rabi_fds-k1.csv",
        "rabi_fds-k3.csv",
        "rabi_fds-k5.csv",
        "rabi_ods-detuned.csv",
        "rabi_ods-resonant.csv",
    ]
    header = (tmp_path / "o" / "rabi_ods-resonant.csv").read_text().splitlines()[0]
    assert header == "series,t_us,p0,p0_stderr"


def test_rabi_determinism_byte_identical(tmp_path):
    cfg = write_config(
        tmp_path,
        {"run": {"t_grid_us": TINY_GRID, "presets": ["ods-resonant"], "shots": 3000}},
    )
    for sub in ("a", "b"):
        res = run_cli(
            ["--config", cfg, "--seed", "11", "--out", str(tmp_path / sub), "rabi"]
        )
        assert res.exit_code == 0
    a = (tmp_path / "a" / "rabi_ods-resonant.csv").read_bytes()
    b = (tmp_path / "b" / "rabi_ods-resonant.csv").read_bytes()
    assert a == b


def test_config_in_mhz_is_echoed_in_summary(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "physical": {"detuning_mhz": 0.5},
            "run": {"t_grid_us": TINY_GRID, "presets": ["ods-resonant"]},
        },
    )
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "rabi"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "o" / "rabi_summary.json").read_text())
    assert summary["config"]["physical"]["detuning_mhz"] == 0.5


# (config, arguments, key named in the error): unknown keys, values of the
# wrong type, counts below 1, non-positive durations and empty format lists
# are usage errors, caught before any computation
BAD_CONFIGS = [
    ({"runn": {}}, ["rabi"], "runn"),
    ({"run": {"shots": "1000"}}, ["qfi"], "run.shots"),
    ({"physical": {"drive_amp_mhz": "2"}}, ["effective"], "physical.drive_amp_mhz"),
    ({"run": {"presets": "fds-k5"}}, ["rabi"], "run.presets"),
    ({"run": {"seed": 1.5}}, ["rabi"], "run.seed"),
    ({"run": {"shots": True}}, ["rabi"], "run.shots"),
    ({"physical": {"contrast": False}}, ["sensitivity"], "physical.contrast"),
    ({"run": {"t_grid_us": [0.5, "1.0"]}}, ["rabi"], "run.t_grid_us[1]"),
    ({"run": {"presets": ["fds-k5", 5]}}, ["qfi"], "run.presets[1]"),
    ({"output": {"dir": 3}}, ["effective"], "output.dir"),
    ({"run": {"threads": 0}}, ["robustness"], "threads"),
    ({}, ["--threads", "-1", "robustness"], "threads"),
    # shot counts below 1 once read out as nan (0) or failed deep inside (< 0)
    ({"run": {"shots": 0}}, ["rabi"], "run.shots"),
    ({}, ["--shots", "0", "qfi"], "run.shots"),
    ({}, ["--shots", "-5", "qfi"], "run.shots"),
    # counts below 1 and non-positive durations once ran to nan or failed
    # deep inside without naming the key
    ({"run": {"noise_realizations": 0}}, ["dd"], "run.noise_realizations"),
    ({"run": {"noise_realizations": -3}}, ["calibrate"], "run.noise_realizations"),
    ({"run": {"repeats": 0}}, ["qfi"], "run.repeats"),
    ({"physical": {"harmonics": 0}}, ["effective"], "physical.harmonics"),
    ({"physical": {"tau_us": 0}}, ["dd"], "physical.tau_us"),
    ({"run": {"sweep_time_us": -1}}, ["robustness"], "run.sweep_time_us"),
    ({"physical": {"t2_us": [0]}}, ["sensitivity"], "physical.t2_us[0]"),
    ({"physical": {"detect_time_us": 0}}, ["sensitivity"], "physical.detect_time_us"),
    ({"physical": {"count_rate_per_s": -1}}, ["rabi"], "physical.count_rate_per_s"),
    ({"physical": {"drive_freq_mhz": 0}}, ["effective"], "physical.drive_freq_mhz"),
    # values outside an open interval, a negative noise amplitude, an unsorted
    # grid and an error grid without 0 once failed deep inside with exit 1
    # (an unsorted qfi grid once ran and exited 0)
    ({"physical": {"contrast": 1.5}}, ["sensitivity"], "physical.contrast"),
    ({"physical": {"noise_sigma_z_mhz": -1}}, ["dd"], "physical.noise_sigma_z_mhz"),
    ({"run": {"t_grid_us": [1.0, 0.5]}}, ["rabi"], "run.t_grid_us"),
    ({"run": {"t_grid_us": [2.0, 1.0]}}, ["qfi"], "run.t_grid_us"),
    ({"run": {"error_grid_mhz": [-0.1, 0.1]}}, ["robustness"], "run.error_grid_mhz"),
    # an unsorted error grid once gave a wrong advantage interval and exited 0
    ({"run": {"error_grid_mhz": [0.125, 0, -0.175]}}, ["robustness"], "run.error_grid_mhz"),
    # the error axis once came from the name's suffix: fds-k5 ran a frequency
    # sweep and exited 0, ods-detuned failed deep inside with exit 1
    ({"run": {"presets": ["fds-k5"], "error_grid_mhz": [-0.1, 0, 0.1]}}, ["robustness"],
     "run.presets"),
    ({"run": {"presets": ["ods-detuned"]}}, ["robustness"], "run.presets"),
    # json parses NaN and Infinity: the first once ran and wrote NaN into the
    # summary, the second failed deep inside with exit 1
    ({"physical": {"detuning_mhz": float("nan")}}, ["effective"], "physical.detuning_mhz"),
    ({"run": {"t_grid_us": [0.5, float("inf")]}}, ["rabi"], "run.t_grid_us[1]"),
    # a negative seed once failed inside numpy with exit 1 (rabi, qfi, dd) or
    # ran and exited 0 (sensitivity)
    ({}, ["--seed", "-1", "rabi"], "run.seed"),
    ({}, ["--seed", "-1", "dd"], "run.seed"),
    ({"run": {"seed": -2}}, ["sensitivity"], "run.seed"),
    # a top-level scenario key was once accepted and read by no command
    ({"scenario": "fds-k5"}, ["rabi"], "scenario"),
    # a format list empty after stripping once wrote nothing and exited 0
    ({}, ["--format", ",", "effective"], "--format"),
    ({}, ["--format", " , ", "rabi"], "--format"),
    # an unknown format in the config once wrote nothing and exited 0
    ({"output": {"formats": ["csv", "xml"]}}, ["effective"], "output.formats"),
    ({"output": {"formats": ["json"]}}, ["--format", "xml", "effective"], "--format"),
    # a schema key that the command does not read was once accepted, and
    # ignored, with exit 0
    ({"physical": {"tau_us": 0.25, "target_t2_us": 10.0},
      "run": {"threads": 2, "sweep_time_us": 2.0, "t_grid_us": TINY_GRID}},
     ["rabi"], "config key physical.tau_us is not read by rabi"),
    ({"physical": {"target_t2_us": 10.0}}, ["rabi"], "physical.target_t2_us"),
    ({"run": {"threads": 2}}, ["rabi"], "run.threads"),
    ({"run": {"sweep_time_us": 2.0}}, ["rabi"], "run.sweep_time_us"),
    ({}, ["--shots", "1000", "effective"], "run.shots (from --shots) is not read by effective"),
    ({}, ["--threads", "2", "dd"], "run.threads (from --threads)"),
    ({"run": {"presets": ["dd-on"]}}, ["dd"], "run.presets"),
    ({"physical": {"signal_amp_mhz": 0.3}}, ["sensitivity"], "physical.signal_amp_mhz"),
    ({"physical": {"contrast": 0.2}}, ["effective"], "physical.contrast"),
]


def test_unknown_config_key_rejected(tmp_path):
    for i, (data, args, where) in enumerate(BAD_CONFIGS):
        cfg = write_config(tmp_path, data, name=f"bad{i}.json")
        out = tmp_path / f"o{i}"
        res = CliRunner().invoke(main, ["--config", cfg, "--out", str(out), *args])
        assert res.exit_code == 2, data
        assert where in res.output, (data, res.output)
        assert not out.exists()  # no partial output


def test_flag_at_the_value_in_effect_adds_no_key(tmp_path):
    # --threads 1 equals the default, so every command takes it
    res = run_cli(["--threads", "1", "--out", str(tmp_path), "effective"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "effective_summary.json").read_text())
    assert "threads" not in summary["config"]["run"]


def test_every_command_has_a_key_table_of_schema_keys():
    assert set(_COMMAND_KEYS) == set(main.commands)
    schema = {f"{section}.{key}" for section, keys in _CONFIG_SCHEMA.items() for key in keys}
    for keys in _COMMAND_KEYS.values():
        assert keys <= schema
    assert set(_COMMON_KEYS) <= schema


def test_unknown_scenario_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"run": {"presets": ["fds-k9"], "t_grid_us": TINY_GRID}}
    )
    res = CliRunner().invoke(
        main, ["--config", cfg, "--out", str(tmp_path / "o"), "rabi"]
    )
    assert res.exit_code == 2
    assert not (tmp_path / "o").exists()


EMPTY_LISTS = [
    ("run", "t_grid_us", "rabi"),
    ("run", "t_grid_us", "qfi"),
    ("run", "t_grid_us", "dd"),
    ("run", "t_grid_us", "calibrate"),
    ("run", "error_grid_mhz", "robustness"),
    ("run", "presets", "rabi"),
    ("physical", "t2_us", "sensitivity"),
    ("output", "formats", "effective"),
]


def test_empty_grid_rejected(tmp_path):
    # every command rejects an empty list instead of falling back to a
    # default grid or writing a header-only table
    for i, (section, key, command) in enumerate(EMPTY_LISTS):
        cfg = write_config(tmp_path, {section: {key: []}}, name=f"empty{i}.json")
        out = tmp_path / f"o{i}"
        res = CliRunner().invoke(main, ["--config", cfg, "--out", str(out), command])
        assert res.exit_code == 2, (section, key, command)
        assert f"{section}.{key}" in res.output
        assert not out.exists()


def test_unknown_format_rejected(tmp_path):
    res = CliRunner().invoke(
        main, ["--out", str(tmp_path), "--format", "xml", "effective"]
    )
    assert res.exit_code == 2


def test_bad_config_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    res = CliRunner().invoke(main, ["--config", str(path), "effective"])
    assert res.exit_code == 2
    assert "line" in res.output


def test_out_dir_env_honored(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOQUET_SENSOR_OUT", str(tmp_path / "envout"))
    res = run_cli(["effective"])
    assert res.exit_code == 0
    assert (tmp_path / "envout" / "effective_summary.json").exists()


def test_flags_beat_config_output_section(tmp_path, monkeypatch):
    # the config's output section once won over --out and --format
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FLOQUET_SENSOR_OUT", raising=False)
    cfg = write_config(
        tmp_path, {"output": {"dir": "from_config", "formats": ["json"]}}
    )

    def written():
        return sorted(
            p.relative_to(tmp_path).as_posix()
            for p in tmp_path.rglob("*.*") if p.parent != tmp_path
        )

    res = run_cli(["--config", cfg, "--out", "from_flag", "--format", "csv", "effective"])
    assert res.exit_code == 0
    assert written() == ["from_flag/effective_shift_by_harmonic.csv"]
    # the config beats the built-in default, the environment the config
    assert run_cli(["--config", cfg, "effective"]).exit_code == 0
    monkeypatch.setenv("FLOQUET_SENSOR_OUT", "from_env")
    assert run_cli(["--config", cfg, "effective"]).exit_code == 0
    assert written() == [
        "from_config/effective_summary.json",
        "from_env/effective_summary.json",
        "from_flag/effective_shift_by_harmonic.csv",
    ]


def test_qfi_command_noiseless(tmp_path):
    cfg = write_config(
        tmp_path,
        {"run": {"t_grid_us": [1.0], "presets": ["ods-detuned"]}},
    )
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "qfi"])
    assert res.exit_code == 0
    lines = (tmp_path / "o" / "qfi_ods-detuned.csv").read_text().splitlines()
    assert lines[0] == "series,t_us,qfi_us2,qfi_stderr_us2,qfi_over_t2,qfi_exact_us2"
    assert len(lines) == 2


def test_robustness_smoke_with_custom_grid(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "run": {
                "presets": ["robustness-amp"],
                "error_grid_mhz": [-0.5, 0.0, 0.5],
                "sweep_time_us": 1.0,
            }
        },
    )
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "robustness"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "o" / "robustness_summary.json").read_text())
    interval = summary["advantage_interval_mhz"]["robustness-amp"]
    assert interval["low"] <= 0.0 <= interval["high"]
    header = (tmp_path / "o" / "robustness_robustness-amp.csv").read_text().splitlines()[0]
    assert header == "series,error_mhz,qfi_fds_us2,qfi_ods_baseline_us2"


def test_robustness_runtime_error_exits_1(tmp_path):
    # a resonant signal leaves the driven sensor no advantage at zero error:
    # a runtime failure of a well-formed config, not a usage error
    cfg = write_config(
        tmp_path,
        {
            "physical": {"detuning_mhz": 0.0},
            "run": {"presets": ["robustness-amp"], "error_grid_mhz": [0.0],
                    "sweep_time_us": 1.0},
        },
    )
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "floquet_sensor.cli", "--config", cfg,
         "--out", str(tmp_path / "o"), "robustness"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "no advantage" in proc.stderr


def test_short_fit_grid_exits_2_naming_the_key_and_point_count(tmp_path):
    # a grid shorter than the decay fit's 5 parameters is rejected before any
    # scan runs; it once failed only after the first scan, with exit 1
    import subprocess, sys

    cfg = write_config(
        tmp_path, {"run": {"t_grid_us": [1.0], "noise_realizations": 2}}
    )
    for command in ("dd", "calibrate"):
        proc = subprocess.run(
            [sys.executable, "-m", "floquet_sensor.cli", "--config", cfg,
             "--out", str(tmp_path / command), command],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, command
        assert "run.t_grid_us" in proc.stderr, proc.stderr
        assert "at least 5 points for the decay fit, got 1" in proc.stderr, proc.stderr
        assert not (tmp_path / command).exists()


def test_cli_import_leaves_out_scipy_and_loads_lazy_numpy_submodules():
    # scipy.optimize took most of the CLI's start-up; without it the numpy
    # submodules it used to pull in must still load with the package, not
    # inside the first command body
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, floquet_sensor.cli; print(' '.join(sorted(sys.modules)))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "floquet_sensor.experiments" in loaded
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    assert {"numpy.random", "numpy.fft", "numpy.ma"} <= loaded


def test_dd_smoke_with_tiny_protocol(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "physical": {"noise_sigma_z_mhz": 0.05},
            "run": {
                "t_grid_us": [float(t) for t in range(1, 17)],
                "noise_realizations": 8,
            },
        },
    )
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "dd"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "o" / "dd_summary.json").read_text())
    assert set(summary["fits"]) == {"dd-off", "dd-on"}
    for name in ("dd-off", "dd-on"):
        lines = (tmp_path / "o" / f"dd_{name}.csv").read_text().splitlines()
        assert lines[0] == "series,t_us,p0,p0_stderr"
        assert len(lines) == 17


def test_dd_shots_read_out_through_the_configured_readout(tmp_path):
    # --shots draws photon counts from the physical readout keys, as rabi does
    run = {"noise_realizations": 2, "t_grid_us": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}

    def tables(physical, sub):
        cfg = write_config(tmp_path, {"run": run, **physical}, name=f"{sub}.json")
        res = run_cli(["--config", cfg, "--shots", "1000", "--seed", "1",
                       "--out", str(tmp_path / sub), "dd"])
        assert res.exit_code == 0
        return [(tmp_path / sub / f"dd_{name}.csv").read_text()
                for name in ("dd-off", "dd-on")]

    base = tables({}, "base")
    assert tables({}, "again") == base
    weak = tables({"physical": {"contrast": 0.5, "count_rate_per_s": 1e6}}, "weak")
    for default, configured in zip(base, weak):
        assert default != configured


def test_calibrate_smoke_with_reduced_protocol(tmp_path):
    # plumbing check on a deliberately small protocol; the full-resolution
    # calibration is exercised by the acceptance suite
    cfg = write_config(
        tmp_path,
        {
            "run": {
                "t_grid_us": [round(0.75 * i, 2) for i in range(1, 57)],
                "noise_realizations": 24,
            }
        },
    )
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "calibrate"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "o" / "calibrate_summary.json").read_text())
    assert summary["target_t2_us"] == 17.9
    assert 0.2 < float(summary["sigma_z_rad_per_us"]) < 2.0


def test_qfi_command_with_shots(tmp_path):
    cfg = write_config(
        tmp_path,
        {"run": {"t_grid_us": [2.0], "presets": ["fds-k5"], "repeats": 8}},
    )
    res = run_cli(
        ["--config", cfg, "--shots", "50000", "--out", str(tmp_path / "o"), "qfi"]
    )
    assert res.exit_code == 0
    lines = (tmp_path / "o" / "qfi_fds-k5.csv").read_text().splitlines()
    row = lines[1].split(",")
    assert float(row[3]) > 0.0  # Monte Carlo error bar present


def test_effective_with_custom_harmonics(tmp_path):
    cfg = write_config(tmp_path, {"physical": {"harmonics": 2}})
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "effective"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "o" / "effective_summary.json").read_text())
    assert float(summary["quasi_energy_shift_mhz"]) == pytest.approx(
        8.0 * 1.5 / 36.54, rel=1e-9
    )


def test_harmonics_override_applies_to_every_driven_preset(tmp_path):
    # physical.harmonics was once read by effective alone: qfi on fds-k5
    # printed the five-tone exact QFI under harmonics 2
    from floquet_sensor.cli import _build_scenario
    from floquet_sensor.experiments import PRESET_NAMES, make_preset

    cfg = {"physical": {"harmonics": 2}}
    for name in PRESET_NAMES:
        drive = _build_scenario(name, cfg).drive
        if drive is None:
            assert make_preset(name).drive is None
        else:
            assert drive.harmonics == 2, name
            assert drive.phases == (0.5 * math.pi,) * 2, name
    path = write_config(
        tmp_path, {**cfg, "run": {"t_grid_us": [1.0], "presets": ["fds-k5"]}}
    )
    res = run_cli(["--config", path, "--out", str(tmp_path / "o"), "qfi"])
    assert res.exit_code == 0
    row = (tmp_path / "o" / "qfi_fds-k5.csv").read_text().splitlines()[1].split(",")
    two_tone = _build_scenario("fds-k5", cfg).exact_qfi(1.0).value
    five_tone = make_preset("fds-k5").exact_qfi(1.0).value
    assert float(row[5]) == two_tone
    assert abs(two_tone - five_tone) > 1e-3 * five_tone


def test_physical_overrides_change_dynamics(tmp_path):
    base = write_config(
        tmp_path,
        {"run": {"t_grid_us": [1.0, 2.0], "presets": ["ods-detuned"]}},
        name="base.json",
    )
    tweaked = write_config(
        tmp_path,
        {
            "physical": {"detuning_mhz": 0.1, "signal_amp_mhz": 0.3},
            "run": {"t_grid_us": [1.0, 2.0], "presets": ["ods-detuned"]},
        },
        name="tweaked.json",
    )
    run_cli(["--config", base, "--out", str(tmp_path / "a"), "rabi"])
    run_cli(["--config", tweaked, "--out", str(tmp_path / "b"), "rabi"])
    a = (tmp_path / "a" / "rabi_ods-detuned.csv").read_text()
    b = (tmp_path / "b" / "rabi_ods-detuned.csv").read_text()
    assert a != b
    # tweaked run matches the closed form at the overridden parameters
    import math
    from floquet_sensor.propagator import rabi_population
    from floquet_sensor.params import mhz_to_angular

    row = b.splitlines()[1].split(",")
    expected = rabi_population(mhz_to_angular(0.3), mhz_to_angular(0.1), 1.0)
    assert float(row[2]) == pytest.approx(expected, abs=1e-12)


def test_effective_applies_drive_overrides(tmp_path):
    cfg = write_config(tmp_path, {"physical": {"drive_amp_mhz": 3.0}})
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "effective"])
    assert res.exit_code == 0
    summary = json.loads((tmp_path / "o" / "effective_summary.json").read_text())
    # the shift is quadratic in the drive amplitude
    assert float(summary["quasi_energy_shift_mhz"]) == pytest.approx(
        9.0 * 0.4999088, rel=1e-6
    )


def test_calibrate_uses_physical_overrides(tmp_path, monkeypatch):
    import floquet_sensor.cli as cli
    from floquet_sensor.experiments import NoiseModel

    seen = {}

    def fake_calibrate(**kwargs):
        seen.update(kwargs)
        return NoiseModel(kind="ornstein-uhlenbeck", sigma_z=0.5)

    monkeypatch.setattr(cli, "calibrate_noise", fake_calibrate)
    cfg = write_config(tmp_path, {"physical": {"signal_amp_mhz": 0.2}})
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "calibrate"])
    assert res.exit_code == 0
    preset = seen["preset"]
    assert preset.name == "dd-off"
    assert preset.signal.omega_s_amp == pytest.approx(2.0 * math.pi * 0.2)

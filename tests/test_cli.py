import json
import math

import pytest
from click.testing import CliRunner

from floquet_sensor.cli import main

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


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"runn": {}})
    res = CliRunner().invoke(main, ["--config", cfg, "--out", str(tmp_path), "rabi"])
    assert res.exit_code == 2
    assert list(tmp_path.glob("*.csv")) == []  # no partial output


def test_unknown_scenario_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"run": {"presets": ["fds-k9"], "t_grid_us": TINY_GRID}}
    )
    res = CliRunner().invoke(
        main, ["--config", cfg, "--out", str(tmp_path / "o"), "rabi"]
    )
    assert res.exit_code == 2
    assert not (tmp_path / "o").exists()


def test_empty_grid_rejected(tmp_path):
    cfg = write_config(tmp_path, {"run": {"t_grid_us": []}})
    res = CliRunner().invoke(
        main, ["--config", cfg, "--out", str(tmp_path / "o"), "rabi"]
    )
    assert res.exit_code == 2


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
    # an error grid without the zero point is a runtime failure, not usage
    cfg = write_config(
        tmp_path,
        {"run": {"presets": ["robustness-amp"], "error_grid_mhz": [0.1, 0.2]}},
    )
    import subprocess, sys

    proc = subprocess.run(
        [sys.executable, "-m", "floquet_sensor.cli", "--config", cfg,
         "--out", str(tmp_path / "o"), "robustness"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "zero" in proc.stderr


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

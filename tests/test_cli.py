import json
import math

import pytest
from click.testing import CliRunner

from floquet_sensor import cli
from floquet_sensor.cli import _CONFIG_SCHEMA, _ConfigReader, _fmt, main

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
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / sub / "sensitivity_summary.json").read_text())
        return [v["eta_at_t2_nt_per_sqrthz"] for v in summary["by_t2"].values()]

    base = eta_at_t2({}, "base")
    # 6.0 MHz/G once exited 1: it built a sensor whose resonance
    # D - gamma B0 was negative, though the model reads gamma alone
    for i, (physical, scale) in enumerate((({"gyromagnetic_ratio_mhz_per_g": 5.6}, 0.5),
                                           ({"gyromagnetic_ratio_mhz_per_g": 6.0}, 2.8 / 6.0),
                                           ({"contrast": 0.26}, 0.5))):
        assert eta_at_t2(physical, f"case{i}") == pytest.approx(
            [b * scale for b in base], rel=1e-12
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
    # a zero gyromagnetic ratio once divided by zero inside sensitivity, exit 1
    ({"physical": {"gyromagnetic_ratio_mhz_per_g": 0}}, ["sensitivity"],
     "physical.gyromagnetic_ratio_mhz_per_g"),
    # values outside an open interval, a negative noise amplitude, an unsorted
    # grid and an error grid without 0 once failed deep inside with exit 1
    # (an unsorted qfi grid once ran and exited 0)
    ({"physical": {"contrast": 1.5}}, ["sensitivity"], "physical.contrast"),
    ({"physical": {"noise_sigma_z_mhz": -1}}, ["dd"], "physical.noise_sigma_z_mhz"),
    # a negative signal or drive amplitude once failed inside the library with
    # exit 1, naming neither key
    ({"physical": {"signal_amp_mhz": -0.3}}, ["rabi"], "physical.signal_amp_mhz"),
    ({"physical": {"drive_amp_mhz": -0.3}}, ["effective"], "physical.drive_amp_mhz"),
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
    # the readout keys and run.repeats matter only under --shots; without it
    # they were once accepted, and ignored, with exit 0
    ({"physical": {"contrast": 0.3}, "run": {"repeats": 7}}, ["qfi"],
     "config key physical.contrast is not read by qfi"),
    ({"run": {"repeats": 7}}, ["qfi"], "run.repeats"),
    ({"physical": {"count_rate_per_s": 1e6}}, ["rabi"], "physical.count_rate_per_s"),
    ({"physical": {"detect_time_us": 0.4}}, ["dd"], "physical.detect_time_us"),
    # a zero signal amplitude leaves the qfi pipeline's +-2.5% amplitude
    # grid without span: it once exited 1 after the first propagation, with
    # "omega grid is degenerate (zero span)"
    ({"physical": {"signal_amp_mhz": 0.0}}, ["qfi"],
     "config key physical.signal_amp_mhz must be > 0"),
    # an unknown preset name once exited 2 without naming the key
    ({"run": {"presets": ["fds-k9"], "t_grid_us": TINY_GRID}}, ["rabi"],
     "config key run.presets: unknown scenario name 'fds-k9'"),
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


class _Stop(Exception):
    """Raised in place of the command's work, once its reads are checked."""


def test_commands_read_every_schema_key_before_any_work(tmp_path, monkeypatch):
    # every command makes all its reads before done(), so stopping there runs
    # no scan; with and without --shots the commands read every schema key,
    # and --threads 1, which the benchmark passes to every command, adds no
    # key that a command leaves unread
    read, past_done = set(), set()
    check = _ConfigReader.done

    def check_and_stop(reader):
        read.update(reader._read)
        check(reader)
        past_done.add(reader.command)
        raise _Stop

    monkeypatch.setattr(_ConfigReader, "done", check_and_stop)
    out = str(tmp_path / "o")
    for command in main.commands:
        res = CliRunner().invoke(main, ["--threads", "1", "--out", out, command])
        assert isinstance(res.exception, _Stop), (command, res.output)
    past_done.clear()
    for command in main.commands:
        CliRunner().invoke(main, ["--threads", "1", "--shots", "1000", "--out", out, command])
    assert past_done == {"rabi", "qfi", "dd"}
    assert read == {f"{s}.{k}" for s, keys in _CONFIG_SCHEMA.items() for k in keys}
    assert not (tmp_path / "o").exists()
    # a read of a key outside the schema is a programming error
    with pytest.raises(KeyError, match="run.shot is not a config key"):
        _ConfigReader({}, "rabi", {}).get("run.shot")


# a changed value for every physical key that rabi, qfi, effective and
# sensitivity read without --shots
CHANGED_PHYSICAL = {
    "signal_amp_mhz": 0.3,
    "detuning_mhz": 0.2,
    "drive_amp_mhz": 0.8,
    "drive_freq_mhz": 30.0,
    "harmonics": 2,
    "gyromagnetic_ratio_mhz_per_g": 6.0,
    "contrast": 0.2,
    "count_rate_per_s": 2e5,
    "detect_time_us": 0.5,
    "t2_us": [20.0],
}


@pytest.mark.parametrize("command, run", [
    ("rabi", {"t_grid_us": [0.5, 1.0]}),
    ("qfi", {"t_grid_us": [1.0, 2.0]}),
    ("effective", {}),
    ("sensitivity", {}),
])
def test_every_physical_key_read_changes_the_output(tmp_path, monkeypatch, command, run):
    # a setting that a command accepts must act on its tables or its summary;
    # the config echo in the summary does not count.  The sensor keys
    # zero_field_splitting_mhz and static_field_g were once read by every
    # command and moved its outputs by round-off at most
    read = set()
    done = _ConfigReader.done

    def recording(reader):
        read.update(reader._read)
        done(reader)

    monkeypatch.setattr(_ConfigReader, "done", recording)

    def outputs(physical, sub):
        cfg = write_config(tmp_path, {"physical": physical, "run": run}, name=f"{sub}.json")
        res = run_cli(["--config", cfg, "--out", str(tmp_path / sub), command])
        assert res.exit_code == 0, res.output
        files = {}
        for path in (tmp_path / sub).iterdir():
            if path.suffix == ".json":
                summary = json.loads(path.read_text())
                del summary["config"]
                files[path.name] = summary
            else:
                files[path.name] = path.read_text()
        return files

    base = outputs({}, "base")
    keys = sorted(path.partition(".")[2] for path in read if path.startswith("physical."))
    assert keys
    for key in keys:
        assert outputs({key: CHANGED_PHYSICAL[key]}, key) != base, key


def test_sensor_keys_are_refused_where_they_do_not_act(tmp_path):
    # the zero-field splitting and the static field entered only the sensor
    # resonance, which the rotating-frame scenarios never see; gamma enters
    # the sensitivity model alone
    def refusal(physical, command):
        cfg = write_config(tmp_path, {"physical": physical}, name=f"{command}.json")
        out = tmp_path / "o"
        res = CliRunner().invoke(main, ["--config", cfg, "--out", str(out), command])
        assert res.exit_code == 2, (physical, command, res.output)
        assert not out.exists()
        return res.output

    for key in ("zero_field_splitting_mhz", "static_field_g"):
        assert key not in _CONFIG_SCHEMA["physical"]
        for command in main.commands:
            assert f"unknown config key: physical.{key}" in refusal({key: 1.0}, command)
    for command in sorted(set(main.commands) - {"sensitivity"}):
        message = refusal({"gyromagnetic_ratio_mhz_per_g": 2.8}, command)
        assert f"physical.gyromagnetic_ratio_mhz_per_g is not read by {command}" in message


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


def test_qfi_command_at_a_sub_floor_time(tmp_path):
    # a grid time under the 1e-13 us substep floor once exited 1 with
    # "substep size underflow"; at t -> 0 the driven preset's QFI is t^2
    cfg = write_config(
        tmp_path,
        {"run": {"t_grid_us": [1e-13, 1.0], "presets": ["fds-k5"]}},
    )
    res = run_cli(["--config", cfg, "--out", str(tmp_path / "o"), "qfi"])
    assert res.exit_code == 0
    lines = (tmp_path / "o" / "qfi_fds-k5.csv").read_text().splitlines()
    series, t, _, _, qfi_over_t2, _ = lines[1].split(",")
    assert (series, float(t)) == ("fds-k5", 1e-13)
    assert float(qfi_over_t2) == pytest.approx(1.0, rel=1e-12)


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
    # inside the first command body.  numpy.ma (loaded by np.unique and
    # np.isin, which the package no longer calls) and the thread pool's
    # concurrent.futures stay out
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
    assert {"numpy.random", "numpy.fft"} <= loaded
    assert not {"numpy.ma", "concurrent.futures"} & loaded


def test_commands_leave_out_numpy_ma_and_the_thread_pool(tmp_path):
    # the scans' distinct events and offsets are found by sorting, and one
    # worker runs the sweep without a pool, so neither module loads in a run
    import subprocess, sys

    runs = {
        "rabi": {"run": {"t_grid_us": TINY_GRID}},
        "dd": {"run": {"t_grid_us": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                       "noise_realizations": 2}},
        "robustness": {"run": {"presets": ["robustness-amp"],
                               "error_grid_mhz": [-0.1, 0.0, 0.1], "sweep_time_us": 1.0}},
    }
    script = (
        "import sys\n"
        "from floquet_sensor import cli\n"
        "for command, cfg in zip(sys.argv[1::2], sys.argv[2::2]):\n"
        "    try:\n"
        f"        cli.main(['--config', cfg, '--out', {str(tmp_path / 'o')!r}, command])\n"
        "    except SystemExit as exit:\n"
        "        assert not exit.code, (command, exit.code)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    args = []
    for command, data in runs.items():
        args += [command, write_config(tmp_path, data, name=f"{command}.json")]
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())  # after the commands' own lines
    assert {"floquet_sensor.experiments", "numpy.random"} <= loaded
    assert not {"numpy.ma", "concurrent.futures"} & loaded
    assert {p.name for p in (tmp_path / "o").iterdir()} >= {
        "rabi_summary.json", "dd_summary.json", "robustness_summary.json"}


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
    reader = _ConfigReader(cfg, "qfi", {})
    for name in PRESET_NAMES:
        drive = _build_scenario(name, reader).drive
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
    two_tone = _build_scenario("fds-k5", reader).exact_qfi(1.0).value
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
    from oracles import rabi_population
    from floquet_sensor.params import mhz_to_angular

    row = b.splitlines()[1].split(",")
    expected = rabi_population(mhz_to_angular(0.3), mhz_to_angular(0.1), 1.0)
    assert float(row[2]) == pytest.approx(expected, abs=1e-12)


def test_any_detuning_runs_and_is_reported_as_configured(tmp_path):
    # a detuning at or below -1470 MHz once exited 1 with "lab-frame signal
    # carrier frequency must be > 0", and effective reported a configured
    # 0.5 MHz as 0.5000000000000526, the round-off of the lab carrier
    reported = {}
    for i, detuning in enumerate((-2000.0, 0.5)):
        cfg = write_config(tmp_path, {"physical": {"detuning_mhz": detuning},
                                      "run": {"t_grid_us": TINY_GRID}}, name=f"d{i}.json")
        res = run_cli(["--config", cfg, "--out", str(tmp_path / f"r{i}"), "rabi"])
        assert res.exit_code == 0, res.output
        cfg = write_config(tmp_path, {"physical": {"detuning_mhz": detuning}}, name=f"e{i}.json")
        res = run_cli(["--config", cfg, "--out", str(tmp_path / f"e{i}"), "effective"])
        assert res.exit_code == 0, res.output
        summary = json.loads((tmp_path / f"e{i}" / "effective_summary.json").read_text())
        reported[detuning] = summary["detuning_mhz"]
    # the configured value as given: through the 2 pi conversion each way,
    # -2000 once came back one ulp off, as -1999.9999999999998
    assert reported == {-2000.0: -2000.0, 0.5: 0.5}


def test_zero_signal_amplitude_runs_outside_qfi(tmp_path):
    # only the qfi pipeline needs an amplitude span; the other commands
    # take a zero signal amplitude
    runs = {
        "rabi": {"run": {"t_grid_us": TINY_GRID}},
        "effective": {},
        "robustness": {"run": {"presets": ["robustness-amp"],
                               "error_grid_mhz": [-0.1, 0.0, 0.1], "sweep_time_us": 1.0}},
        "dd": {"run": {"t_grid_us": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
                       "noise_realizations": 2}},
    }
    for command, data in runs.items():
        data = {"physical": {"signal_amp_mhz": 0.0}, **data}
        cfg = write_config(tmp_path, data, name=f"{command}.json")
        res = run_cli(["--config", cfg, "--out", str(tmp_path / command), command])
        assert res.exit_code == 0, (command, res.output)


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


def _row_wise_csv(header, columns):
    """A table's CSV text formatted one cell at a time, as rows of ``_fmt``."""
    n = next(len(c) for c in columns if not isinstance(c, str))
    rows = [[c if isinstance(c, str) else c[i] for c in columns] for i in range(n)]
    return "\n".join([",".join(header)] + [",".join(_fmt(v) for v in row)
                                            for row in rows]) + "\n"


@pytest.mark.parametrize("flags, config", [
    (["--shots", "3000", "rabi"], {"run": {"t_grid_us": TINY_GRID}}),
    (["rabi"], {"run": {"t_grid_us": TINY_GRID, "presets": ["fds-k3", "ods-detuned"]}}),
    (["qfi"], {"run": {"t_grid_us": [0.0, 2.0], "presets": ["ods-detuned"]}}),
    (["--shots", "50000", "qfi"], {"run": {"t_grid_us": [2.0], "presets": ["fds-k5"],
                                           "repeats": 8}}),
    (["effective"], None),
    (["robustness"], {"run": {"presets": ["robustness-amp"],
                              "error_grid_mhz": [-0.5, 0.0, 0.5], "sweep_time_us": 1.0}}),
    (["sensitivity"], None),
    (["dd"], {"physical": {"noise_sigma_z_mhz": 0.05},
              "run": {"t_grid_us": [float(t) for t in range(1, 17)],
                      "noise_realizations": 4}}),
], ids=["rabi-shots", "rabi", "qfi", "qfi-shots", "effective", "robustness",
        "sensitivity", "dd"])
def test_csv_tables_match_the_row_wise_format(tmp_path, monkeypatch, flags, config):
    # the writer formats whole float columns at once; every byte must be the
    # one _fmt gives cell by cell
    tables = []
    write = cli.ResultBundle.write

    def recording(bundle, out_dir, formats):
        tables.extend((bundle.command, name, header, columns)
                      for name, header, columns in bundle.tables)
        return write(bundle, out_dir, formats)

    monkeypatch.setattr(cli.ResultBundle, "write", recording)
    args = ["--out", str(tmp_path / "o"), "--seed", "5"]
    if config is not None:
        args = ["--config", write_config(tmp_path, config)] + args
    assert run_cli(args + flags).exit_code == 0
    assert tables
    for command, name, header, columns in tables:
        text = (tmp_path / "o" / f"{command}_{name}.csv").read_text()
        assert text == _row_wise_csv(header, columns), name

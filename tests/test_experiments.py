import math

import numpy as np
import numpy.testing as npt
import pytest

from floquet_sensor.experiments import (
    DdConfig,
    Detect,
    NoiseModel,
    PiPulse,
    Polarize,
    PRESET_NAMES,
    PulseSequence,
    Sense,
    Wait,
    build_cp_sequence,
    calibrate_noise,
    default_dd_grid,
    fit_decaying_cosine,
    make_preset,
    run_qfi_scaling,
    run_rabi_scan,
    run_robustness_sweep,
    run_scan,
)
from floquet_sensor.params import ControlErrorParams, mhz_to_angular
from floquet_sensor.propagator import rabi_population

TP = 2.0 * math.pi


# ------------------------------------------------------------------- presets

def test_all_presets_resolve():
    for name in PRESET_NAMES:
        sc = make_preset(name)
        assert sc.name == name
        spec = sc.rotating_spec()
        h = spec.matrix(0.1)
        npt.assert_allclose(h, h.conj().T, atol=1e-12)


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        make_preset("fds-k7")


def test_preset_overrides():
    sc = make_preset("ods-detuned", omega_s_amp=1.0)
    assert sc.signal.omega_s_amp == 1.0
    with pytest.raises(TypeError):
        make_preset("ods-detuned", bogus=1)


# ----------------------------------------------------------------- sequences

def test_sequence_validation():
    spec = make_preset("ods-resonant").rotating_spec()
    good = PulseSequence(
        (Polarize(), Wait(), Sense(1.0, spec), PiPulse(), Sense(1.0, spec), Detect())
    )
    assert good.sense_duration == pytest.approx(2.0)
    with pytest.raises(ValueError):
        PulseSequence((Polarize(), Sense(1.0, spec)))  # no detect
    with pytest.raises(ValueError):
        PulseSequence((Detect(), Sense(1.0, spec), Detect()))  # two detects
    with pytest.raises(ValueError):
        PulseSequence((Sense(1.0, spec), Wait(), Sense(1.0, spec), Detect()))
    with pytest.raises(ValueError):
        PulseSequence((PiPulse(), Sense(1.0, spec), Detect()))  # pulse outside


def test_cp_sequence_layout():
    spec = make_preset("dd-on").rotating_spec()
    seq = build_cp_sequence(spec, 4.0, DdConfig(tau=0.5))
    pulses = [s for s in seq.segments if isinstance(s, PiPulse)]
    senses = [s.duration for s in seq.segments if isinstance(s, Sense)]
    assert len(pulses) == 4  # tau, 3tau, 5tau, 7tau within 4 us
    assert senses[0] == pytest.approx(0.5)
    assert all(d == pytest.approx(1.0) for d in senses[1:-1])
    assert senses[-1] == pytest.approx(0.5)
    assert seq.sense_duration == pytest.approx(4.0)


def test_dd_config_validation_and_pulse_times():
    with pytest.raises(ValueError):
        DdConfig(tau=0.0)
    with pytest.raises(ValueError):
        DdConfig(axis="w")
    dd = DdConfig(tau=0.5)
    npt.assert_allclose(dd.pulse_times(4.0), [0.5, 1.5, 2.5, 3.5])
    assert dd.pulse_times(0.8).size == 0  # shorter than 2 tau


# --------------------------------------------------------------------- scans

def test_resonant_scan_matches_closed_form():
    grid = np.arange(0.1, 4.0, 0.1)
    scan = run_rabi_scan("ods-resonant", grid)
    amp = mhz_to_angular(0.5)
    expected = [rabi_population(amp, 0.0, t) for t in grid]
    npt.assert_allclose(scan.p0, expected, atol=1e-12)
    assert np.all(scan.stderr == 0.0)


def test_detuned_scan_contrast_is_half():
    # equal drive and detuning -> oscillation contrast 1/2
    amp = mhz_to_angular(0.5)
    general = math.hypot(amp, amp)
    t_min = math.pi / general
    grid = np.unique(np.concatenate([[0.0, t_min], np.linspace(0.05, 4.0, 40)]))
    scan = run_rabi_scan("ods-detuned", grid)
    contrast = scan.p0.max() - scan.p0.min()
    assert contrast == pytest.approx(0.5, abs=1e-6)


def test_fds_k5_scan_restores_contrast():
    # near-resonant restoration; frozen oracle value 0.9987 for this preset
    t_dip = math.pi / mhz_to_angular(0.5)
    grid = np.unique(
        np.concatenate(
            [np.linspace(0.001, 2.2, 40), np.linspace(t_dip - 0.06, t_dip + 0.06, 61)]
        )
    )
    scan = run_rabi_scan("fds-k5", grid)
    contrast = scan.p0.max() - scan.p0.min()
    assert contrast > 0.998


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        run_rabi_scan("ods-resonant", [])
    with pytest.raises(ValueError):
        run_rabi_scan("ods-resonant", [1.0, 0.5])


def test_scan_with_readout_noise_deterministic():
    grid = np.linspace(0.2, 2.0, 6)
    a = run_rabi_scan("ods-resonant", grid, shots=5000, seed=5)
    b = run_rabi_scan("ods-resonant", grid, shots=5000, seed=5)
    npt.assert_array_equal(a.p0, b.p0)
    c = run_rabi_scan("ods-resonant", grid, shots=5000, seed=6)
    assert np.any(c.p0 != a.p0)


def test_scan_readout_seed_falls_back_to_noise_seed():
    grid = [0.5, 1.0]
    default = run_scan("ods-resonant", grid, shots=1000, seed=0)
    unseeded = run_scan("ods-resonant", grid, shots=1000, seed=None)
    npt.assert_array_equal(unseeded.p0, default.p0)
    noise = NoiseModel(kind="quasi-static", sigma_z=0.3, seed=7)
    fallback = run_scan("ods-resonant", grid, noise=noise, n_realizations=4,
                        shots=1000, seed=None)
    explicit = run_scan("ods-resonant", grid, noise=noise, n_realizations=4,
                        shots=1000, seed=7)
    npt.assert_array_equal(fallback.p0, explicit.p0)
    npt.assert_array_equal(fallback.stderr, explicit.stderr)


def test_dd_off_engine_matches_rabi_scan_bitwise():
    grid = np.linspace(0.4, 6.0, 10)
    noise = NoiseModel(kind="quasi-static", sigma_z=0.3)
    plain = run_rabi_scan("dd-off", grid, noise=noise, n_realizations=16, seed=8)
    via_dd = run_scan("dd-off", grid, noise=noise, dd=None, n_realizations=16, seed=8)
    npt.assert_array_equal(plain.p0, via_dd.p0)
    npt.assert_array_equal(plain.stderr, via_dd.stderr)


def test_pi_pulses_commute_with_resonant_drive():
    # noiseless resonant preset: pulse train leaves populations unchanged
    grid = np.linspace(0.5, 6.0, 12)
    with_dd = run_scan("ods-resonant", grid, dd=DdConfig(tau=0.5))
    without = run_scan("ods-resonant", grid)
    npt.assert_allclose(with_dd.p0, without.p0, atol=1e-9)


def test_quasi_static_refocusing():
    # pi pulses must strictly extend the fitted decay under static noise
    grid = default_dd_grid(dd=False)[::2]
    for sigma in (0.4, 0.8):
        noise = NoiseModel(kind="quasi-static", sigma_z=sigma)
        free = run_scan("dd-off", grid, noise=noise, n_realizations=48, seed=2)
        dd = run_scan(
            "dd-on", grid, noise=noise, dd=DdConfig(tau=0.5), n_realizations=48, seed=2
        )
        t2_free = fit_decaying_cosine(free.times, free.p0).T2
        t2_dd = fit_decaying_cosine(dd.times, dd.p0).T2
        assert t2_dd > t2_free


# ----------------------------------------------------------------- decay fit

def test_fit_recovers_synthetic_parameters():
    rng = np.random.default_rng(0)
    t = np.linspace(0.3, 40.0, 120)
    truth = 0.5 + 0.45 * np.exp(-t / 12.0) * np.cos(0.9 * t + 0.2)
    fit = fit_decaying_cosine(t, truth + rng.normal(scale=0.004, size=t.size))
    assert fit.T2 == pytest.approx(12.0, rel=0.1)
    assert fit.frequency == pytest.approx(0.9, rel=0.02)
    assert not fit.t2_is_lower_bound


def test_fit_flags_lower_bound_without_decay():
    t = np.linspace(0.3, 30.0, 90)
    clean = 0.5 + 0.5 * np.cos(0.8 * t)
    fit = fit_decaying_cosine(t, clean)
    assert fit.t2_is_lower_bound
    assert fit.T2 > 30.0


# --------------------------------------------------------------- qfi scaling

def test_qfi_scaling_noiseless_tracks_oracle():
    rows = run_qfi_scaling("fds-k5", [1.0, 2.0])
    for row in rows:
        assert row.qfi == pytest.approx(row.qfi_exact, rel=0.01)
        assert row.stderr == 0.0
    assert rows[0].qfi_over_t2 == pytest.approx(rows[0].qfi, rel=1e-12)


# ---------------------------------------------------------------- robustness

def test_robustness_sweep_smoke():
    # coarse grid exercise: interval brackets zero and zero error is maximal
    grid = mhz_to_angular(np.array([-0.6, -0.3, 0.0, 0.2, 0.45]))
    res = run_robustness_sweep("amplitude", grid=grid, t=2.0, refine=False)
    assert res.interval[0] <= 0.0 <= res.interval[1]
    assert res.qfi_fds[2] == res.qfi_fds.max()
    assert res.baseline > 0.0


def test_exact_qfi_passes_fidelity_check_at_large_amplitude_errors():
    # the fidelity cross-check of qfi_exact reads a unitarity defect eta of the
    # Floquet power as a QFI error of 8 eta / h^2; the grid ends have the least
    # QFI, so the least margin
    sc = make_preset("robustness-amp")
    for err_mhz in (-0.98, 0.98):
        errored = sc.with_errors(ControlErrorParams(amp_error=mhz_to_angular(err_mhz)))
        q = errored.exact_qfi(4.0)
        assert 0.0 < q.value <= 16.0


def test_robustness_validation():
    with pytest.raises(ValueError):
        run_robustness_sweep("phase")
    with pytest.raises(ValueError):
        run_robustness_sweep("amplitude", grid=mhz_to_angular(np.array([0.1, 0.2])))


# ----------------------------------------------------------------- noise

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(kind="pink")
    with pytest.raises(ValueError):
        NoiseModel(kind="ornstein-uhlenbeck", sigma_z=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(kind="ornstein-uhlenbeck", sigma_z=1.0, tau_c=0.0)


def test_ou_noise_statistics():
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_z=0.7, tau_c=5.0)
    rng = np.random.default_rng(0)
    mids = np.linspace(0.25, 60.0, 120)
    z = noise.sample_segments(mids, 4000, rng)
    assert np.std(z[:, 0]) == pytest.approx(0.7, rel=0.05)
    assert np.std(z[:, -1]) == pytest.approx(0.7, rel=0.05)
    # autocorrelation decays with the configured time constant
    lag = mids[20] - mids[0]
    corr = np.mean(z[:, 0] * z[:, 20]) / 0.49
    assert corr == pytest.approx(math.exp(-lag / 5.0), abs=0.08)


def test_quasi_static_noise_constant_within_realization():
    noise = NoiseModel(kind="quasi-static", sigma_z=0.5)
    rng = np.random.default_rng(1)
    z = noise.sample_segments(np.linspace(0, 10, 30), 8, rng)
    assert np.allclose(z, z[:, :1])


def test_calibrate_noise_validation():
    with pytest.raises(ValueError):
        calibrate_noise(-1.0)

import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import curve_fit

from floquet_sensor.experiments import (
    DD_SIGMA_Z_DEFAULT,
    SCAN_OPTS,
    DdConfig,
    NoiseModel,
    PRESET_NAMES,
    _pulse_quaternions,
    _walk,
    calibrate_noise,
    default_dd_grid,
    fit_decaying_cosine,
    make_preset,
    run_qfi_scaling,
    run_robustness_sweep,
    run_scan,
)
from floquet_sensor.params import mhz_to_angular
from floquet_sensor.hamiltonian import kick_vector
from floquet_sensor.propagator import _pauli_exp, evolve, interval_unitary, rabi_population

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


# Every preset's signal (amplitude, detuning, carrier) and drive (amplitude,
# frequency, harmonics, phases) in rad/us, as the presets were first defined;
# compared exactly, so the table in ``experiments`` cannot drift
_HALF_MHZ, _DETUNING = 3.141592653589793, 3.1415926535901235
_CARRIER = 9239.423994207584
_QUADRATURE5 = (1.5707963267948966,) * 5
_DRIVE = (6.283185307179586, 229.58759112434208)
PINNED_PRESETS = {
    "ods-resonant": (_HALF_MHZ, 0.0, 9236.282401553994, None),
    "ods-detuned": (_HALF_MHZ, _DETUNING, _CARRIER, None),
    "fds-k1": (_HALF_MHZ, _DETUNING, _CARRIER, _DRIVE + (1, (3.141592653589793,))),
    "fds-k3": (_HALF_MHZ, _DETUNING, _CARRIER, _DRIVE + (3, (2.8508, 2.5662, 2.2602))),
    "fds-k5": (_HALF_MHZ, _DETUNING, _CARRIER,
               _DRIVE + (5, (1.7077, 1.3964, 5.4336, 1.8585, 2.0134))),
    "robustness-amp": (1.382300767579509, _DETUNING, _CARRIER, _DRIVE + (5, _QUADRATURE5)),
    "robustness-freq": (1.382300767579509, _DETUNING, _CARRIER, _DRIVE + (5, _QUADRATURE5)),
    "dd-off": (0.7853981633974483, _DETUNING, _CARRIER, _DRIVE + (5, _QUADRATURE5)),
    "dd-on": (0.7853981633974483, _DETUNING, _CARRIER, _DRIVE + (5, _QUADRATURE5)),
}


def test_preset_names_follow_the_table():
    assert PRESET_NAMES == tuple(PINNED_PRESETS)


@pytest.mark.parametrize("name", list(PINNED_PRESETS))
def test_preset_values_pinned(name):
    amp, detuning, carrier, drive = PINNED_PRESETS[name]
    sc = make_preset(name)
    assert sc.signal.omega_s_amp == amp
    assert sc.signal.detuning(sc.sensor) == detuning
    assert sc.signal.omega_s_freq == carrier
    if drive is None:
        assert sc.drive is None
    else:
        d = sc.drive
        assert (d.omega_F_amp, d.omega_F_freq, d.harmonics, d.phases) == drive


def test_with_errors_replaces_the_drive_by_its_perturbation():
    sc = make_preset("fds-k5")
    e = mhz_to_angular(0.3)
    assert sc.with_errors(amp_error=e).drive == sc.drive.perturbed(amp_error=e)
    assert sc.with_errors(freq_error=-e).drive == sc.drive.perturbed(freq_error=-e)
    assert sc.with_errors(amp_error=e).signal == sc.signal


def test_with_errors_on_undriven_scenario_raises():
    # the errors were once stored and then ignored by the undriven spec
    with pytest.raises(ValueError, match="no drive"):
        make_preset("ods-detuned").with_errors(amp_error=mhz_to_angular(5.0))


def _ods_spec():
    return make_preset("ods-resonant").rotating_spec()


@pytest.mark.parametrize("call, bound", [
    # once returned |0> silently: a NaN time never compares above the last one
    pytest.param(lambda: evolve(_ods_spec(), (1, 0), [math.nan]), "times", id="evolve"),
    # once an OverflowError from the pulse count
    pytest.param(lambda: run_scan("dd-on", [0.5, math.inf], dd=DdConfig(0.5)), "t_grid",
                 id="run_scan-dd"),
    # these two once failed converting a NaN period count to an integer
    pytest.param(lambda: run_scan("ods-resonant", [0.5, math.inf]), "t_grid",
                 id="run_scan"),
    pytest.param(lambda: interval_unitary(_ods_spec(), 0.0, math.nan),
                 "interval bound t1", id="interval_unitary"),
    pytest.param(lambda: interval_unitary(_ods_spec(), [0.0, -math.inf], [1.0, 2.0],
                                          z_offsets=np.zeros((2, 1))),
                 "interval bound t0", id="interval_unitary-segments"),
])
def test_non_finite_times_rejected_naming_the_bound(call, bound):
    with pytest.raises(ValueError, match=f"^{bound} must be finite"):
        call()


# -------------------------------------------------------- decoupling pulses

def test_dd_config_validation_and_pulse_times():
    with pytest.raises(ValueError):
        DdConfig(tau=0.0)
    dd = DdConfig(tau=0.5)
    npt.assert_allclose(dd.pulse_times(4.0), [0.5, 1.5, 2.5, 3.5])
    assert dd.pulse_times(0.8).size == 0  # shorter than 2 tau


# --------------------------------------------------------------------- scans

def test_resonant_scan_matches_closed_form():
    grid = np.arange(0.1, 4.0, 0.1)
    scan = run_scan("ods-resonant", grid)
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
    scan = run_scan("ods-detuned", grid)
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
    scan = run_scan("fds-k5", grid)
    contrast = scan.p0.max() - scan.p0.min()
    assert contrast > 0.998


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        run_scan("ods-resonant", [])
    with pytest.raises(ValueError):
        run_scan("ods-resonant", [1.0, 0.5])


def test_scan_with_readout_noise_deterministic():
    grid = np.linspace(0.2, 2.0, 6)
    a = run_scan("ods-resonant", grid, shots=5000, seed=5)
    b = run_scan("ods-resonant", grid, shots=5000, seed=5)
    npt.assert_array_equal(a.p0, b.p0)
    c = run_scan("ods-resonant", grid, shots=5000, seed=6)
    assert np.any(c.p0 != a.p0)


def test_scan_rejects_missing_seed():
    # SeedSequence(None) would draw fresh OS entropy and break reproducibility
    noise = NoiseModel(kind="quasi-static", sigma_z=0.3)
    for shots in (None, 1000):
        with pytest.raises(ValueError, match="seed"):
            run_scan("ods-resonant", [0.5, 1.0], noise=noise, n_realizations=4,
                     shots=shots, seed=None)


def test_dd_off_engine_matches_rabi_scan_bitwise():
    grid = np.linspace(0.4, 6.0, 10)
    noise = NoiseModel(kind="quasi-static", sigma_z=0.3)
    # a 6 us scan is shorter than 2 tau = 8 us, so it holds no pulse and the
    # decoupling path must reproduce the pulse-free run bit for bit
    plain = run_scan("dd-off", grid, noise=noise, n_realizations=16, seed=8)
    via_dd = run_scan("dd-off", grid, noise=noise, dd=DdConfig(tau=4.0),
                      n_realizations=16, seed=8)
    assert via_dd.pulse_times.size == 0
    npt.assert_array_equal(plain.p0, via_dd.p0)
    npt.assert_array_equal(plain.stderr, via_dd.stderr)


_PI_X = _pauli_exp(np.array([0.5 * math.pi, 0.0, 0.0]))  # exp(-i (pi/2) sigma_x)


def _pulse_matrix(scenario, t_pulse):
    """Reference pi pulse at t_pulse as a complex matrix: the bare rotation
    conjugated by the micromotion frame exp(+iK), or the bare one undriven."""
    if scenario.drive is None or scenario.drive.omega_F_amp == 0.0:
        return _PI_X
    dress = _pauli_exp(-kick_vector(scenario.drive, t_pulse))  # exp(+iK)
    return dress.conj().T @ _PI_X @ dress


def _per_segment_unitaries(preset, t_grid, noise, dd, n_realizations, seed):
    """One scalar interval_unitary call per event interval, as ``run_scan``
    made them before its segments were batched.

    Returns the scenario, the events, their pulse and grid flags and the
    (S, r, 2, 2) stack of the segment propagators.
    """
    scenario = make_preset(preset)
    t_grid = np.asarray(t_grid, dtype=float)
    n_real = n_realizations if noise.kind != "none" else 1
    pulses = dd.pulse_times(float(t_grid[-1])) if dd is not None else np.empty(0)
    events = np.unique(np.concatenate([[0.0], t_grid, pulses]))
    mids = 0.5 * (events[:-1] + events[1:])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    offsets = noise.sample_segments(mids, n_real, rng)
    spec = scenario.rotating_spec()
    u = np.stack([
        interval_unitary(spec, events[j - 1], events[j], SCAN_OPTS,
                         z_offsets=0.5 * offsets[:, j - 1])
        for j in range(1, events.size)
    ])
    return scenario, events, np.isin(events, pulses), np.isin(events, t_grid), u


def _stats(p0_real):
    """(mean, stderr) of each grid row of populations, row by row."""
    n_real = p0_real.shape[1]
    return (np.array([pops.mean() for pops in p0_real]),
            np.array([pops.std(ddof=1) / math.sqrt(n_real) if n_real > 1 else 0.0
                      for pops in p0_real]))


def _sequential_walk(scenario, events, is_pulse, is_grid, u):
    """Reference walk: the complex states of every realization, multiplied
    segment by segment, with each pulse as a complex matrix."""
    psi = np.zeros((u.shape[1], 2), dtype=complex)
    psi[:, 0] = 1.0
    parity = 0
    p0 = []
    for j, tj in enumerate(events):
        if j > 0:
            psi = np.einsum("rij,rj->ri", u[j - 1], psi)
        if is_pulse[j]:
            psi = psi @ _pulse_matrix(scenario, tj).T
            parity ^= 1
        if is_grid[j]:
            p0.append(np.abs(psi[:, parity]) ** 2)
    return np.array(p0)


_WALK_CASES = pytest.mark.parametrize("preset, dd, noise, grid", [
    # the rabi command's default grid, noiseless (one realization)
    ("fds-k5", None, NoiseModel(), np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10)),
    ("dd-on", DdConfig(tau=0.5), NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT),
     default_dd_grid(dd=True)[:120]),
    # a grid time at 0 (the identity) and pulses between grid times
    ("dd-on", DdConfig(tau=0.25), NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT),
     np.arange(0.0, 20.0, 0.5)),
])


@_WALK_CASES
def test_scan_matches_per_segment_walk_bitwise(preset, dd, noise, grid):
    # the per-segment scalar calls through the same walk: pins segment batching
    scan = run_scan(preset, grid, noise=noise, dd=dd, n_realizations=3, seed=3)
    assert (scan.pulse_times.size > 0) == (dd is not None)
    scenario, events, is_pulse, is_grid, u = _per_segment_unitaries(
        preset, grid, noise, dd, 3, seed=3)
    p0, err = _stats(_walk(u, _pulse_quaternions(scenario, events[is_pulse]),
                           is_pulse, is_grid))
    npt.assert_array_equal(scan.p0, p0)
    npt.assert_array_equal(scan.stderr, err)


@_WALK_CASES
def test_scan_matches_sequential_complex_walk(preset, dd, noise, grid):
    # the prefix product regroups the quaternion products and reads
    # populations from quaternions: a few 1e-14 apart from the sequential walk
    scan = run_scan(preset, grid, noise=noise, dd=dd, n_realizations=3, seed=3)
    p0, err = _stats(_sequential_walk(*_per_segment_unitaries(
        preset, grid, noise, dd, 3, seed=3)))
    npt.assert_allclose(scan.p0, p0, rtol=0, atol=1e-12)
    npt.assert_allclose(scan.stderr, err, rtol=0, atol=1e-12)


@pytest.mark.parametrize("preset", ["dd-on", "fds-k3", "ods-detuned"])
def test_pulse_quaternions_match_complex_pulse_matrices(preset):
    scenario = make_preset(preset)
    times = np.linspace(0.0, 160.0, 37)
    pulses = _pulse_quaternions(scenario, times)
    assert pulses.shape == (times.size, 4)
    for t, q in zip(times, pulses):
        w, x, y, z = q
        mat = np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])
        npt.assert_allclose(mat, _pulse_matrix(scenario, t), rtol=0, atol=1e-15)


def test_grid_time_next_to_a_pulse_gets_no_second_pulse():
    # 0.3 + 0.6 = 0.8999999999999999: the grid time 0.9 is a separate event
    # one ulp after the second pulse, and both once rounded to the pulse time
    dd = DdConfig(tau=0.3)
    assert dd.pulse_times(1.2)[1] != 0.9
    alone = run_scan("ods-detuned", [1.2], dd=dd)
    beside = run_scan("ods-detuned", [0.9, 1.2], dd=dd)
    assert beside.p0[-1] == pytest.approx(alone.p0[-1], abs=1e-12)


def test_scan_rejects_shots_below_one():
    for shots in (0, -5):
        with pytest.raises(ValueError, match="shots"):
            run_scan("ods-resonant", [0.5], shots=shots)


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


def test_fit_rejects_fewer_points_than_parameters():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    for n in (1, 4):
        with pytest.raises(ValueError, match="at least 5 scan points, got"):
            fit_decaying_cosine(t[:n], np.cos(t[:n]))


_T = np.linspace(1.0, 10.0, 20)


@pytest.mark.parametrize("times, values, match", [
    # without a finiteness check the fit returned T2 = 11.19 with a NaN residual
    (_T, np.where(np.arange(20) == 7, np.nan, 0.5), "^values must be finite"),
    (np.append(_T[:-1], np.inf), np.full(20, 0.5), "^times must be finite"),
    # and T2 = NaN for decreasing times
    (_T[::-1], np.cos(_T[::-1]), "^times must be strictly increasing"),
    (np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0]), np.ones(6), "^times must be strictly increasing"),
    (_T, np.ones(19), "^values must have one entry per time"),
    (_T.reshape(4, 5), np.ones((4, 5)), "^times must be a 1-D array"),
    (_T, np.ones((20, 1)), "^values must be a 1-D array"),
], ids=["nan-value", "inf-time", "decreasing", "repeated-time", "lengths", "2-d-times",
        "2-d-values"])
def test_fit_rejects_malformed_input_naming_the_argument(times, values, match):
    with pytest.raises(ValueError, match=match):
        fit_decaying_cosine(times, values)


def test_fit_amplitude_is_non_negative_and_phase_carries_the_sign():
    t = np.linspace(0.3, 40.0, 120)
    fit = fit_decaying_cosine(t, 0.5 - 0.45 * np.exp(-t / 12.0) * np.cos(0.9 * t + 0.2))
    assert fit.amplitude == pytest.approx(0.45, rel=1e-9)
    assert math.cos(fit.phase - 0.2) == pytest.approx(-1.0, abs=1e-12)
    assert (fit.T2, fit.frequency, fit.offset) == pytest.approx((12.0, 0.9, 0.5), rel=1e-9)


def _curve_fit_oracle(times, values):
    """Reference decay fit: scipy's bounded ``curve_fit`` (trust-region
    reflective) from the same FFT seed and four T2 starts, as the package fit
    it before the variable-projection fit.  Returns (T2, RMS residual)."""
    span = times[-1] - times[0]
    offset0 = values.mean()
    resid = values - offset0
    uniform_t = np.linspace(times[0], times[-1], 4 * times.size)
    uniform_v = np.interp(uniform_t, times, resid)
    spectrum = np.abs(np.fft.rfft(uniform_v * np.hanning(uniform_v.size)))
    freqs = np.fft.rfftfreq(uniform_v.size, uniform_t[1] - uniform_t[0])
    w0 = TP * freqs[1 + int(np.argmax(spectrum[1:]))]
    b0 = float(np.max(np.abs(resid)))

    def model(t, a, b, t2, w, ph):
        return a + b * np.exp(-t / t2) * np.cos(w * t + ph)

    def jac(t, a, b, t2, w, ph):
        decay = np.exp(-t / t2)
        ec, es = decay * np.cos(w * t + ph), decay * np.sin(w * t + ph)
        return np.stack([np.ones_like(t), ec, b * ec * t / (t2 * t2), -b * es * t,
                         -b * es], axis=-1)

    best = None
    for t2_try in (span / 4.0, span, 4.0 * span, 100.0 * span):
        try:
            popt, _ = curve_fit(
                model, times, values, p0=[offset0, b0, t2_try, w0, 0.0], jac=jac,
                bounds=([-1.0, -2.0, 1e-3, 0.0, -TP], [2.0, 2.0, 1e6, 10.0 * w0 + 1.0, TP]),
                maxfev=20000,
            )
        except RuntimeError:
            continue
        r = float(np.sqrt(np.mean((model(times, *popt) - values) ** 2)))
        if best is None or r < best[1]:
            best = (float(popt[2]), r)
    return best


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_realizations", [2, 16])
@pytest.mark.parametrize("preset, dd", [("dd-off", None), ("dd-on", DdConfig())],
                         ids=["dd-off", "dd-on"])
def test_fit_matches_curve_fit_oracle_on_dd_scans(preset, dd, n_realizations, seed):
    # the default dd grids: the variable-projection fit reaches at least the
    # oracle's least squares, at the same T2
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    scan = run_scan(preset, default_dd_grid(dd is not None), noise=noise, dd=dd,
                    n_realizations=n_realizations, seed=seed)
    fit = fit_decaying_cosine(scan.times, scan.p0)
    t2, residual = _curve_fit_oracle(scan.times, scan.p0)
    assert fit.residual <= residual * (1.0 + 1e-9)
    assert fit.T2 == pytest.approx(t2, rel=1e-4)


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
    res = run_robustness_sweep("amplitude", grid=grid, t=2.0)
    assert res.interval[0] <= 0.0 <= res.interval[1]
    assert res.qfi_fds[2] == res.qfi_fds.max()
    assert res.baseline > 0.0


def test_exact_qfi_passes_fidelity_check_at_large_amplitude_errors():
    # the fidelity cross-check of qfi_exact reads a unitarity defect eta of the
    # Floquet power as a QFI error of 8 eta / h^2; the grid ends have the least
    # QFI, so the least margin
    sc = make_preset("robustness-amp")
    for err_mhz in (-0.98, 0.98):
        errored = sc.with_errors(amp_error=mhz_to_angular(err_mhz))
        q = errored.exact_qfi(4.0)
        assert 0.0 < q.value <= 16.0


def test_robustness_validation():
    with pytest.raises(ValueError):
        run_robustness_sweep("phase")
    # an explicit grid once skipped the check and ran a frequency sweep
    # labelled "phase"
    with pytest.raises(ValueError, match="error_axis must be .* got 'phase'"):
        run_robustness_sweep("phase", grid=[-0.5, 0.0, 0.5], t=1.0)
    with pytest.raises(ValueError):
        run_robustness_sweep("amplitude", grid=mhz_to_angular(np.array([0.1, 0.2])))
    for n_workers in (0, -1):
        with pytest.raises(ValueError, match="n_workers"):
            run_robustness_sweep("amplitude", n_workers=n_workers)


@pytest.mark.parametrize("grid_mhz", [[0.125, 0.0, -0.175], [0.125, -0.175, 0.0]])
def test_robustness_rejects_unsorted_grid(grid_mhz):
    # the interval walk assumes a sorted grid: these once returned the
    # interval [0.125, -0.175] and [0.125, 0.0] MHz
    with pytest.raises(ValueError, match="strictly increasing"):
        run_robustness_sweep("amplitude", grid=mhz_to_angular(np.array(grid_mhz)))


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

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.optimize import curve_fit

from floquet_sensor import experiments, propagator
from floquet_sensor.experiments import (
    DD_SIGMA_Z_DEFAULT,
    DD_TAU_C_DEFAULT,
    ORACLE_OPTS,
    SCAN_OPTS,
    DdConfig,
    NoiseModel,
    PRESET_NAMES,
    _anchors,
    _fold,
    _folded_segments,
    _pulse_quaternions,
    _walk,
    calibrate_noise,
    default_dd_grid,
    fit_decaying_cosine,
    make_preset,
    run_dd_experiment,
    run_qfi_scaling,
    run_robustness_sweep,
    run_scan,
)
from floquet_sensor.measurement import MonteCarloConfig, default_omega_grid, qfi_pipeline
from floquet_sensor.metrology import qfi_exact
from floquet_sensor.params import (
    FloquetDriveParams,
    ReadoutModel,
    SignalParams,
    mhz_to_angular,
)
from floquet_sensor.hamiltonian import PauliTerm, kick_vector
from floquet_sensor.propagator import (
    _initial_steps,
    _pauli_exp,
    _quat_matrix,
    _quat_mul,
    _quat_power,
    _stepped_unitary,
    PropagatorOptions,
    evolve,
    interval_unitary,
)

import oracles
from oracles import h_matrix, ou_trajectories, rabi_population

TP = 2.0 * math.pi


# ------------------------------------------------------------------- presets

def test_all_presets_resolve():
    for name in PRESET_NAMES:
        sc = make_preset(name)
        assert sc.name == name
        spec = sc.rotating_spec()
        h = h_matrix(spec, 0.1)
        npt.assert_allclose(h, h.conj().T, atol=1e-12)


def test_unknown_preset_rejected():
    with pytest.raises(KeyError):
        make_preset("fds-k7")


def test_preset_overrides():
    sc = make_preset("ods-detuned", omega_s_amp=1.0)
    assert sc.signal.omega_s_amp == 1.0
    with pytest.raises(TypeError):
        make_preset("ods-detuned", bogus=1)


@pytest.mark.parametrize("delta_mhz", [-2000.0, -1470.0, 0.5, 1e4])
def test_preset_spec_takes_the_detuning_exactly(delta_mhz):
    # the sigma_z coefficient is half the detuning, bit for bit, at any
    # detuning; built through a lab carrier omega_0 + Delta (omega_0 = 1470
    # MHz) it moved 0.5 MHz by 5e-14 MHz and refused Delta <= -omega_0
    d = mhz_to_angular(delta_mhz)
    spec = make_preset("fds-k5", delta=d).rotating_spec()
    assert [term for term in spec.terms if term.axis == "z"] == [PauliTerm("z", 0.5 * d)]


# Every preset's signal (amplitude, detuning) and drive (amplitude,
# frequency, harmonics, phases) in rad/us, as the presets were first defined;
# compared exactly, so the table in ``experiments`` cannot drift
_HALF_MHZ = _DETUNING = 3.141592653589793
_QUADRATURE5 = (1.5707963267948966,) * 5
_DRIVE = (6.283185307179586, 229.58759112434208)
PINNED_PRESETS = {
    "ods-resonant": (_HALF_MHZ, 0.0, None),
    "ods-detuned": (_HALF_MHZ, _DETUNING, None),
    "fds-k1": (_HALF_MHZ, _DETUNING, _DRIVE + (1, (3.141592653589793,))),
    "fds-k3": (_HALF_MHZ, _DETUNING, _DRIVE + (3, (2.8508, 2.5662, 2.2602))),
    "fds-k5": (_HALF_MHZ, _DETUNING,
               _DRIVE + (5, (1.7077, 1.3964, 5.4336, 1.8585, 2.0134))),
    "robustness-amp": (1.382300767579509, _DETUNING, _DRIVE + (5, _QUADRATURE5)),
    "robustness-freq": (1.382300767579509, _DETUNING, _DRIVE + (5, _QUADRATURE5)),
    "dd-off": (0.7853981633974483, _DETUNING, _DRIVE + (5, _QUADRATURE5)),
    "dd-on": (0.7853981633974483, _DETUNING, _DRIVE + (5, _QUADRATURE5)),
}


def test_preset_names_follow_the_table():
    assert PRESET_NAMES == tuple(PINNED_PRESETS)


@pytest.mark.parametrize("name", list(PINNED_PRESETS))
def test_preset_values_pinned(name):
    amp, detuning, drive = PINNED_PRESETS[name]
    sc = make_preset(name)
    assert sc.signal == SignalParams(amp, detuning)
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


@pytest.mark.parametrize("preset", ["fds-k5", "ods-detuned"])
def test_rotating_spec_built_once_per_scenario(monkeypatch, preset):
    # states and exact_qfi reuse the scenario's spec, driven or not; a
    # scenario with control errors is a new scenario with a spec of its own
    built = []
    build = experiments.build_fds_prime

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(experiments, "build_fds_prime", counted)
    sc = make_preset(preset)
    spec = sc.rotating_spec()
    sc.states([sc.signal.omega_s_amp], 1.0)
    sc.exact_qfi(1.0)
    assert sc.rotating_spec() is spec and built == [spec]
    assert sc == make_preset(preset)  # the kept spec is not a field
    if sc.drive is not None:
        perturbed = sc.with_errors(amp_error=mhz_to_angular(0.3))
        assert perturbed.rotating_spec() is built[-1] and len(built) == 2
        assert perturbed.rotating_spec() != spec


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
    pytest.param(lambda: interval_unitary(_ods_spec(), -math.inf, 1.0, z_offsets=np.zeros(2)),
                 "interval bound t0", id="interval_unitary-t0"),
    # noise settings once failed only inside a scan, as "z_offsets must be finite"
    pytest.param(lambda: NoiseModel("ornstein-uhlenbeck", math.nan), "sigma_z",
                 id="noise-sigma_z-nan"),
    pytest.param(lambda: NoiseModel("ornstein-uhlenbeck", math.inf), "sigma_z",
                 id="noise-sigma_z-inf"),
    pytest.param(lambda: NoiseModel("ornstein-uhlenbeck", 0.5, tau_c=math.nan), "tau_c",
                 id="noise-tau_c-nan"),
    # physical parameters are checked where they are built
    # once "cannot convert float NaN to integer" inside HamiltonianSpec.fundamental
    pytest.param(lambda: make_preset("fds-k5", delta=math.nan), "delta",
                 id="preset-delta"),
    # once "z_offsets must be finite" at the first propagation
    pytest.param(lambda: make_preset("fds-k5", omega_s_amp=math.nan), "omega_s_amp",
                 id="preset-amp"),
    pytest.param(lambda: SignalParams(1.0, math.inf), "delta", id="signal-delta-inf"),
    pytest.param(lambda: SignalParams(1.0, math.nan), "delta", id="signal-delta-nan"),
    pytest.param(lambda: FloquetDriveParams(math.nan, 1.0), "omega_F_amp", id="drive-amp"),
    pytest.param(lambda: FloquetDriveParams(1.0, math.inf), "omega_F_freq", id="drive-freq"),
    pytest.param(lambda: FloquetDriveParams(1.0, 1.0, 2, (0.0, math.nan)), "phases",
                 id="drive-phases"),
    pytest.param(lambda: ReadoutModel(count_rate=math.nan), "count_rate", id="count_rate"),
    pytest.param(lambda: ReadoutModel(t_det=math.inf), "t_det", id="t_det"),
    # a zero tolerance once doubled to ~126k substeps and then "stalled"
    pytest.param(lambda: PropagatorOptions(rel_tol=0.0), "rel_tol", id="rel_tol-zero"),
    pytest.param(lambda: PropagatorOptions(rel_tol=-1.0), "rel_tol", id="rel_tol-negative"),
    pytest.param(lambda: PropagatorOptions(rel_tol=math.nan), "rel_tol", id="rel_tol-nan"),
    # once blamed the noise: "sigma_z must be finite"
    pytest.param(lambda: calibrate_noise(math.nan), "target T2", id="calibrate-target"),
])
def test_non_finite_times_rejected_naming_the_bound(call, bound):
    with pytest.raises(ValueError, match=f"^{bound} must be finite"):
        call()


_OU = NoiseModel("ornstein-uhlenbeck", 0.5)


@pytest.mark.parametrize("call, count", [
    # once numpy's "Mean of empty slice" and a NaN scan
    pytest.param(lambda: run_scan("dd-off", [0.5, 1.0], noise=_OU, n_realizations=0),
                 "n_realizations", id="scan-zero"),
    # once numpy's "negative dimensions are not allowed"
    pytest.param(lambda: run_scan("dd-off", [0.5, 1.0], noise=_OU, n_realizations=-1),
                 "n_realizations", id="scan-negative"),
    pytest.param(lambda: run_scan("dd-off", [0.5, 1.0], noise=_OU, n_realizations=2.5),
                 "n_realizations", id="scan-fraction"),
    pytest.param(lambda: run_dd_experiment("dd-off", _OU, n_realizations=0),
                 "n_realizations", id="dd"),
    pytest.param(lambda: calibrate_noise(17.9, n_realizations=0), "n_realizations",
                 id="calibrate"),
    pytest.param(lambda: run_scan("ods-resonant", [0.5], shots=1.5, seed=0), "shots",
                 id="scan-shots"),
    pytest.param(lambda: MonteCarloConfig(shots=1.5), "shots", id="mc-shots"),
    pytest.param(lambda: MonteCarloConfig(repeats=0), "repeats", id="mc-repeats"),
    # once "cannot convert float NaN to integer" and an OverflowError
    pytest.param(lambda: FloquetDriveParams(1.0, 1.0, math.nan), "harmonics",
                 id="harmonics-nan"),
    pytest.param(lambda: FloquetDriveParams(1.0, 1.0, math.inf), "harmonics",
                 id="harmonics-inf"),
])
def test_counts_rejected_naming_the_count(call, count):
    with pytest.raises(ValueError, match=f"^{count} must be an integer >= 1"):
        call()


@pytest.mark.parametrize("call", [
    # once numpy's "SeedSequence expects int or sequence of ints"
    pytest.param(lambda: run_scan("dd-off", [0.5, 1.0], seed=1.5), id="scan-fraction"),
    # once numpy's "expected non-negative integer"
    pytest.param(lambda: run_scan("dd-off", [0.5, 1.0], seed=-1), id="scan-negative"),
    # once accepted as the seed 1
    pytest.param(lambda: run_scan("dd-off", [0.5, 1.0], seed=True), id="scan-bool"),
    pytest.param(lambda: run_dd_experiment("dd-off", _OU, seed=1.5), id="dd"),
    pytest.param(lambda: calibrate_noise(17.9, seed=-1), id="calibrate"),
    pytest.param(lambda: MonteCarloConfig(seed=1.5), id="mc-fraction"),
    pytest.param(lambda: MonteCarloConfig(seed=-1), id="mc-negative"),
    pytest.param(lambda: MonteCarloConfig(seed=True), id="mc-bool"),
    # once OS entropy for every pipeline call
    pytest.param(lambda: MonteCarloConfig(seed=None), id="mc-none"),
])
def test_seeds_rejected_naming_the_seed(call):
    with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
        call()


# -------------------------------------------------------- decoupling pulses

def test_dd_config_validation_and_pulse_times():
    with pytest.raises(ValueError):
        DdConfig(tau=0.0)
    # a NaN tau once crashed inside pulse_times, an infinite one gave no pulses
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^tau must be finite"):
            DdConfig(tau=tau)
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
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_z=0.3)
    for shots in (None, 1000):
        with pytest.raises(ValueError, match="seed"):
            run_scan("ods-resonant", [0.5, 1.0], noise=noise, n_realizations=4,
                     shots=shots, seed=None)


def test_dd_off_engine_matches_rabi_scan_bitwise():
    grid = np.linspace(0.4, 6.0, 10)
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_z=0.3)
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


def _scan_events(t_grid, dd):
    """The events of a scan as ``run_scan`` lays them out, with their pulse
    and grid flags."""
    t_grid = np.asarray(t_grid, dtype=float)
    pulses = dd.pulse_times(float(t_grid[-1])) if dd is not None else np.empty(0)
    events = np.unique(np.concatenate([[0.0], t_grid, pulses]))
    return events, np.isin(events, pulses), np.isin(events, t_grid)


def _segment_offsets(events, noise, n_real, seed):
    """The detunings (r, S) that ``run_scan`` draws for the segments between
    the events."""
    mids = 0.5 * (events[:-1] + events[1:])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return noise.sample_segments(mids, n_real, rng)


def _per_segment_unitaries(preset, t_grid, noise, dd, n_realizations, seed, opts):
    """One scalar interval_unitary call per event interval, refined to
    ``opts``: the reference of the segment factors that ``run_scan`` folds.

    Returns the scenario, the events, their pulse and grid flags and the
    (S, r, 2, 2) stack of the segment propagators.
    """
    scenario = make_preset(preset)
    n_real = n_realizations if noise.kind != "none" else 1
    events, is_pulse, is_grid = _scan_events(t_grid, dd)
    offsets = _segment_offsets(events, noise, n_real, seed)
    spec = scenario.rotating_spec()
    u = np.stack([
        interval_unitary(spec, events[j - 1], events[j], opts,
                         z_offsets=0.5 * offsets[:, j - 1])
        for j in range(1, events.size)
    ])
    return scenario, events, is_pulse, is_grid, u


def _scan_segments(preset, t_grid, noise, dd, n_realizations, seed):
    """The propagators ``run_scan`` reads, as ``_per_segment_unitaries``
    returns them: for a noisy scan the complex (S, r, 2, 2) stack of the
    segment factors of ``_folded_segments``, and for a noiseless one (every
    noiseless case here is periodic and pulse-free) the complex (E, 1, 2, 2)
    stack of the anchored propagators U(e, 0) of ``_anchors``, one per event."""
    scenario = make_preset(preset)
    events, is_pulse, is_grid = _scan_events(t_grid, dd)
    spec = scenario.rotating_spec()
    if noise.kind != "none":
        z = 0.5 * _segment_offsets(events, noise, n_realizations, seed).T
        u = _folded_segments(spec, events, z)
    else:
        assert not is_pulse.any()
        u = _anchors(spec, events)[:, None]
    assert u is not None
    return scenario, events, is_pulse, is_grid, _quat_matrix(u)


def _matrix_quat(u):
    """Quaternions (..., 4) of complex SU(2) matrices u, (..., 2, 2): the exact
    inverse of ``_quat_matrix``, w = Re u00, x = -Im u10, y = Re u10,
    z = -Im u00.  It reads the public per-segment matrices back for the
    quaternion walk, as the oracle of the scan's bits."""
    u00, u10 = u[..., 0, 0], u[..., 1, 0]
    return np.stack([u00.real, -u10.imag, u10.real, -u00.imag], axis=-1)


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


RABI_GRID = np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10)  # the rabi command's default
REF_OPTS = propagator.PropagatorOptions(rel_tol=1e-12)

# a noisy periodic scan walks the segment factors of the period folded at
# Chebyshev nodes in the offset; a pulse-free noiseless one reads the anchors
# of the period folded at the offset 0 (their accuracy: the reference tests below)
_WALK_CASES = pytest.mark.parametrize("preset, dd, noise, grid", [
    pytest.param("fds-k5", None, NoiseModel(), RABI_GRID, id="fds-k5-None-noise0-grid0"),
    pytest.param("dd-on", DdConfig(tau=0.5),
                 NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT),
                 default_dd_grid(dd=True)[:120], id="dd-on-dd1-noise1-grid1"),
    # a grid time at 0 (the identity) and pulses between grid times
    pytest.param("dd-on", DdConfig(tau=0.25),
                 NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT),
                 np.arange(0.0, 20.0, 0.5), id="dd-on-dd2-noise2-grid2"),
])


@_WALK_CASES
def test_scan_matches_per_segment_walk_bitwise(preset, dd, noise, grid):
    # the fold's segment factors through the same walk: pins that a noisy
    # scan walks them; a noiseless scan's anchors: pins that it reads them
    scan = run_scan(preset, grid, noise=noise, dd=dd, n_realizations=3, seed=3)
    assert (scan.pulse_times.size > 0) == (dd is not None)
    scenario, events, is_pulse, is_grid, u = _scan_segments(
        preset, grid, noise, dd, 3, seed=3)
    if noise.kind == "none":  # the anchored readout: |U(e, 0)_00|^2 = w^2 + z^2
        q = _matrix_quat(u[is_grid])
        p0, err = _stats(q[..., 0] * q[..., 0] + q[..., 3] * q[..., 3])
    else:
        p0, err = _stats(_walk(_matrix_quat(u), _pulse_quaternions(scenario, events[is_pulse]),
                               is_pulse, is_grid))
    npt.assert_array_equal(scan.p0, p0)
    npt.assert_array_equal(scan.stderr, err)


@_WALK_CASES
def test_scan_matches_sequential_complex_walk(preset, dd, noise, grid):
    # the prefix product regroups the quaternion products and reads
    # populations from quaternions: a few 1e-14 apart from the sequential
    # walk.  A noiseless scan reads its anchors U(e, 0) directly, against the
    # complex anchored matrices; walking their telescoped factors instead
    # drifts from the anchors by up to 8.4e-13 over the rabi grid
    scan = run_scan(preset, grid, noise=noise, dd=dd, n_realizations=3, seed=3)
    scenario, events, is_pulse, is_grid, u = _scan_segments(
        preset, grid, noise, dd, 3, seed=3)
    if noise.kind == "none":
        p0, err = _stats(np.abs(u[is_grid, :, 0, 0]) ** 2)
    else:
        p0, err = _stats(_sequential_walk(scenario, events, is_pulse, is_grid, u))
    npt.assert_allclose(scan.p0, p0, rtol=0, atol=1e-12)
    npt.assert_allclose(scan.stderr, err, rtol=0, atol=1e-12)


# the refined per-segment oracle of noisy scans: at rel_tol 1e-12 the
# stroboscopic route's period tolerance rel_tol / m falls below its round-off
# floor on every segment, which then takes the direct route (35 s for the two
# scans below at 8 realizations); at 1e-11 it keeps the route
FOLD_REF_OPTS = propagator.PropagatorOptions(rel_tol=1e-11)
_NOISY_DEFAULT_SCANS = pytest.mark.parametrize("preset, dd", [
    ("dd-off", None), ("dd-on", DdConfig(tau=0.5))], ids=["dd-off", "dd-on"])


@_NOISY_DEFAULT_SCANS
def test_noisy_scan_matches_refined_per_segment_walk(preset, dd):
    # the fold integrates one period at rel_tol / m_max and interpolates it
    # in the offset: 1.8e-10 off the refined segments here, where one
    # fixed-resolution call per segment at rel_tol 1e-6 was 1.0e-6 (dd-on)
    # and 2.8e-6 (dd-off) off
    grid = default_dd_grid(dd is not None)
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    scan = run_scan(preset, grid, noise=noise, dd=dd, n_realizations=3, seed=3)
    p0, _ = _stats(_sequential_walk(*_per_segment_unitaries(
        preset, grid, noise, dd, 3, seed=3, opts=FOLD_REF_OPTS)))
    npt.assert_allclose(scan.p0, p0, rtol=0, atol=1e-8)


def _member_node_factors(spec, events, z):
    """The segment factors of ``_fold`` at the distinct member offsets
    themselves as its nodes, with no interpolation, (S, r, 4)."""
    values = np.unique(z)
    phases, period, whole = _fold(spec, events, values)
    at, seg = np.searchsorted(values, z), np.arange(z.shape[0])[:, None]
    power = _quat_power(period[at], np.diff(whole)[:, None])
    return _quat_mul(_quat_mul(phases[seg + 1, at], power),
                     phases[seg, at] * np.array([1.0, -1.0, -1.0, -1.0]))


def _counted_nodes(monkeypatch):
    """The node count of every ``_fold`` call that a scan makes."""
    counts = []
    fold = experiments._fold

    def counted(spec, events, nodes):
        counts.append(nodes.size)
        return fold(spec, events, nodes)

    monkeypatch.setattr(experiments, "_fold", counted)
    return counts


@_NOISY_DEFAULT_SCANS
def test_interpolated_fold_matches_members_as_nodes(preset, dd, monkeypatch):
    # 540 (dd-off) and 960 (dd-on) distinct offsets from 8 Chebyshev nodes:
    # 7e-15 apart
    events = _scan_events(default_dd_grid(dd is not None), dd)[0]
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    z = 0.5 * _segment_offsets(events, noise, 3, seed=3).T
    spec = make_preset(preset).rotating_spec()
    counts = _counted_nodes(monkeypatch)
    u = _folded_segments(spec, events, z)
    assert counts[-1] < np.unique(z).size
    npt.assert_allclose(u, _member_node_factors(spec, events, z), rtol=0, atol=1e-13)


def test_scan_with_few_distinct_offsets_folds_at_them(monkeypatch):
    # one realization over 6 segments: its 6 offsets are the nodes, and the
    # factors are read off the fold with no interpolation
    events = _scan_events(np.arange(0.5, 3.0 + 1e-9, 0.5), None)[0]
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    z = 0.5 * _segment_offsets(events, noise, 1, seed=3).T
    spec = make_preset("dd-off").rotating_spec()
    counts = _counted_nodes(monkeypatch)
    u = _folded_segments(spec, events, z)
    assert counts == [6]
    npt.assert_array_equal(u, _member_node_factors(spec, events, z))


def test_fold_grows_its_nodes_at_the_top_of_the_calibration_bracket(monkeypatch):
    # sigma_z x 2^12, the last of calibrate_noise's bracket doublings, on its
    # dd-off grid: the detunings span about 1.1e4 rad/us, and the node count
    # doubles from 8 to 128, short of the 1440 distinct offsets.  The
    # interpolated U_T(d) enters the factor as U_T(d)^(m_b - m_a), which
    # multiplies its error by up to m_b - m_a = 10 (8e-14 here)
    events = _scan_events(default_dd_grid(dd=False), None)[0]
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT * 2.0 ** 12)
    z = 0.5 * _segment_offsets(events, noise, 8, seed=3).T
    spec = make_preset("dd-off").rotating_spec()
    counts = _counted_nodes(monkeypatch)
    u = _folded_segments(spec, events, z)
    assert counts[0] == 8 and counts[-1] >= 64 and counts[-1] < np.unique(z).size
    steps = np.diff(_fold(spec, events, np.zeros(1))[2])
    assert steps.max() == 10
    deviation = np.abs(u - _member_node_factors(spec, events, z)).max(axis=(1, 2))
    assert np.all(deviation <= 1e-13 * steps)


def test_fold_keeps_its_tolerance_at_the_top_of_the_calibration_bracket():
    # sigma_z x 2^12 on calibrate's dd-off grid: kernel offsets of up to
    # 3,211 rad/us outrun the drive's fastest tone, 1,148 rad/us.  The step
    # rule resolves the rotation-rate bound amplitude_scale + max |offset|
    # like a tone, so the folded period takes 312 substeps instead of 107,
    # and the segment factors lie within rel_tol / 10 of per-segment calls
    # refined to rel_tol 1e-11: 8.9e-9, where a count from the tones alone
    # left them 4.9e-6 off
    grid = default_dd_grid(dd=False)[:40]
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT * 2.0 ** 12)
    u = _scan_segments("dd-off", grid, noise, None, 4, seed=3)[-1]
    ref = _per_segment_unitaries("dd-off", grid, noise, None, 4, seed=3, opts=FOLD_REF_OPTS)[-1]
    assert np.abs(u - ref).max() <= SCAN_OPTS.rel_tol / 10


def test_scan_shorter_than_two_periods_folds(monkeypatch):
    # a dd-off scan of 1.8 drive periods, which the fold once refused (it
    # took its period count from the refined route's rule, m >= 2), so that
    # its segments took one fixed-resolution pass each, with no error
    # estimate.  It folds at m_max = 1: the segment factors lie 1.5e-9 from
    # per-segment calls refined to rel_tol 1e-12 (the passes were 1.4e-9 off)
    grid = np.round(np.arange(0.005, 0.05 + 1e-9, 0.005), 10)
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    spec = make_preset("dd-off").rotating_spec()
    assert grid[-1] * spec.fundamental[0] / TP < 2.0
    walks = _counted_walks(monkeypatch)
    scan = run_scan("dd-off", grid, noise=noise, n_realizations=4, seed=3)
    u = _scan_segments("dd-off", grid, noise, None, 4, seed=3)[-1]
    npt.assert_array_equal(_quat_matrix(walks[0][0]), u)  # the scan walks the fold
    reference = _per_segment_unitaries("dd-off", grid, noise, None, 4, seed=3, opts=REF_OPTS)
    assert np.abs(u - reference[-1]).max() <= SCAN_OPTS.rel_tol / 100
    p0, _ = _stats(_sequential_walk(*reference))
    npt.assert_allclose(scan.p0, p0, rtol=0, atol=SCAN_OPTS.rel_tol / 100)


def test_scan_past_the_round_off_rule_folds(monkeypatch):
    # a 3000-fold drive frequency over 40 us: 4.4e6 drive periods, where the
    # period tolerance rel_tol / m falls below the 3e-13 round-off floor of
    # the refined route.  The fold once refused such a scan, and its
    # segments took one fixed-resolution pass each, the first factor 7.4e-11
    # off a stroboscopic reference.  A fixed-resolution pass has no residual
    # to stall, so the scan folds, and that factor is 8.8e-16 off
    sc = make_preset("dd-off")
    fast = replace(sc, drive=replace(sc.drive, omega_F_freq=3000.0 * sc.drive.omega_F_freq))
    spec = fast.rotating_spec()
    period = TP / spec.fundamental[0]
    grid = np.linspace(0.5, 40.0, 80)
    assert SCAN_OPTS.rel_tol / int(grid[-1] / period) < propagator._MIN_PERIOD_TOL
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    walks = _counted_walks(monkeypatch)
    run_scan(fast, grid, noise=noise, n_realizations=3, seed=3)
    events = _scan_events(grid, None)[0]
    z = 0.5 * _segment_offsets(events, noise, 3, seed=3).T
    folded = _folded_segments(spec, events, z)
    npt.assert_array_equal(walks[0][0], folded)
    u = _quat_matrix(folded[0])
    # U(e_1, 0; d) = U(e_1, mT; d) U_T(d)^m, each piece step-doubled to 1e-13
    # from its count at 1e-14
    e1 = float(events[1])
    m, tol = int(e1 * spec.fundamental[0] / TP), 1e-13
    for d, ud in zip(z[0].tolist(), u):
        n_period = int(_initial_steps(spec, period, 1e-14, abs(d)))
        power = _quat_power(_stepped_unitary(spec, 0.0, period, n_period, tol, d), m)
        n_rest = int(_initial_steps(spec, e1 - m * period, 1e-14, abs(d)))
        rest = _stepped_unitary(spec, m * period, e1, n_rest, tol, d)
        assert np.abs(_quat_matrix(_quat_mul(rest, power)) - ud).max() <= 1e-14


@pytest.mark.parametrize("preset", ["fds-k1", "fds-k3", "fds-k5"])
def test_noiseless_scan_keeps_its_tolerance_at_every_grid_point(preset):
    # each grid time was once the end of a chain of segments, each held to
    # rel_tol = 1e-6: fds-k1 strayed by 1.29e-6 from the converged value.
    # Anchored at t = 0 through one folded drive period, no point strays by
    # more than 1.4e-9.  The reference chains rel_tol-1e-12 intervals, and
    # agrees with interval_unitary(spec, 0, t) at 1e-12 where checked
    scenario = make_preset(preset)
    spec = scenario.rotating_spec()
    scan = run_scan(preset, RABI_GRID)
    assert scan.n_realizations == 1 and np.all(scan.stderr == 0.0)
    reference = np.abs(evolve(spec, (1.0, 0.0), RABI_GRID, REF_OPTS)[:, 0]) ** 2
    npt.assert_allclose(scan.p0, reference, rtol=0, atol=1e-8)
    for k in (RABI_GRID.size // 2, -1):
        t = float(RABI_GRID[k])
        anchored = abs(interval_unitary(spec, 0.0, t, REF_OPTS)[0, 0]) ** 2
        assert abs(reference[k] - anchored) < 1e-11
        assert abs(scan.p0[k] - anchored) < 1e-8


def test_noiseless_scan_with_pulses_matches_refined_sequential_walk():
    # the telescoped segment factors U(e_s, 0) U(e_s-1, 0)^dagger through the
    # same walk as noisy scans, pi pulses included (tau = 0.5: one at every
    # other grid time), against complex states multiplied segment by segment
    # with each segment refined to rel_tol 1e-12.  The per-segment route at
    # rel_tol 1e-6 was 3.9e-8 off on this grid
    grid, dd = default_dd_grid(dd=True)[:40], DdConfig(tau=0.5)
    scan = run_scan("dd-on", grid, dd=dd)
    assert scan.pulse_times.size == 20
    p0, _ = _stats(_sequential_walk(*_per_segment_unitaries(
        "dd-on", grid, NoiseModel(), dd, 1, seed=0, opts=REF_OPTS)))
    npt.assert_allclose(scan.p0, p0, rtol=0, atol=1e-8)


def test_noiseless_resonant_scan_matches_closed_form_at_every_rabi_point():
    # each grid time is one exact exponential over [0, t]: the segment
    # factors multiplied up to t were 1.8e-14 off the closed form
    scan = run_scan("ods-resonant", RABI_GRID)
    amp = make_preset("ods-resonant").signal.omega_s_amp
    expected = [rabi_population(amp, 0.0, t) for t in RABI_GRID.tolist()]
    npt.assert_allclose(scan.p0, expected, rtol=0, atol=1e-15)


_RABI_PRESETS = ["ods-resonant", "ods-detuned", "fds-k1", "fds-k3", "fds-k5"]


def _counted_walks(monkeypatch):
    """The arguments of every ``_walk`` call that ``run_scan`` makes."""
    calls = []
    walk = experiments._walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(experiments, "_walk", counted)
    return calls


def test_pulse_free_noiseless_scans_read_their_anchors(monkeypatch):
    # the rabi command's default scans: every grid time reads U(t, 0)|0>
    # from its anchor, with no prefix product over the segments
    walks = _counted_walks(monkeypatch)
    for preset in _RABI_PRESETS:
        run_scan(preset, RABI_GRID)
    assert walks == []


def test_noiseless_scan_with_pulses_walks_telescoped_anchors(monkeypatch):
    # with pulses the anchors U(e, 0) = U(r_e, 0) U_T^m_e telescope into the
    # segment factors U(r_s, 0) U_T^(m_s - m_s-1) U(r_s-1, 0)^dagger of the
    # fold at the one node 0, and go through the walk, bit for bit
    grid, dd = default_dd_grid(dd=True)[:40], DdConfig(tau=0.5)
    walks = _counted_walks(monkeypatch)
    scan = run_scan("dd-on", grid, dd=dd)
    assert len(walks) == 1
    scenario = make_preset("dd-on")
    events, is_pulse, is_grid = _scan_events(grid, dd)
    phases, period, whole = _fold(scenario.rotating_spec(), events, np.zeros(1))
    power = _quat_power(period, np.diff(whole)[:, None])
    u = _quat_mul(_quat_mul(phases[1:], power), phases[:-1] * np.array([1.0, -1.0, -1.0, -1.0]))
    npt.assert_array_equal(walks[0][0], u)
    p0 = _walk(u, _pulse_quaternions(scenario, events[is_pulse]), is_pulse, is_grid)
    npt.assert_array_equal(scan.p0, p0[:, 0])


@pytest.mark.parametrize("noise", [NoiseModel("ornstein-uhlenbeck", 0.0)], ids=["ou"])
def test_zero_noise_ensemble_folds_once_for_all_realizations(noise, monkeypatch):
    # every offset is zero, so the identical realizations share the folded
    # period of the noiseless scan: one kernel member, and the same
    # populations up to the round-off of their mean
    grid = default_dd_grid(dd=False)[:40]
    plain = run_scan("dd-off", grid)
    members = []
    kernel = propagator._interval_unitary

    def counted(spec, t0, t1, n, z_offsets):
        members.append(np.shape(z_offsets)[1:])
        return kernel(spec, t0, t1, n, z_offsets)

    monkeypatch.setattr(propagator, "_interval_unitary", counted)
    ensemble = run_scan("dd-off", grid, noise=noise, n_realizations=3, seed=4)
    assert ensemble.n_realizations == 3 and set(members) == {(1,)}
    npt.assert_allclose(ensemble.p0, plain.p0, rtol=0, atol=1e-15)
    npt.assert_allclose(ensemble.stderr, 0.0, rtol=0, atol=1e-15)


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
    # pi pulses must strictly extend the fitted decay under static noise: OU
    # noise whose correlation time is far longer than the 45 us grid
    grid = default_dd_grid(dd=False)[::2]
    for sigma in (0.4, 0.8):
        noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_z=sigma, tau_c=1e6)
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


def test_fit_decay_without_oscillation():
    # every start once ran at the FFT-seeded frequency: on a pure decay the
    # fit ended at w ~ 5e-11 with an amplitude of 1.6e7 and T2 = 8.117
    t = np.linspace(0.3, 40.0, 120)
    clean = 0.5 + 0.4 * np.exp(-t / 8.0)
    fit = fit_decaying_cosine(t, clean)
    assert (fit.T2, fit.amplitude, fit.offset) == pytest.approx((8.0, 0.4, 0.5), rel=1e-9)
    assert fit.frequency == 0.0
    assert fit.residual < 1e-12
    # with noise it once gave T2 = 8.95 at an amplitude of 1.4e5
    noisy = clean + np.random.default_rng(1).normal(scale=0.01, size=t.size)
    fit = fit_decaying_cosine(t, noisy)
    assert fit.T2 == pytest.approx(8.0, rel=0.05)
    assert fit.amplitude == pytest.approx(0.4, rel=0.05)
    assert fit.residual < 0.0085


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


def test_fit_iteration_matches_reference_fit(monkeypatch):
    # the batched LM step against the reference copy of its projection and
    # loop (one einsum per row dot product, every np.where every step), on
    # dd-ensemble scans: 2 realizations at the default noise, at the CLI
    # seeds of bench seeds 0, 4 and 18, whose slow starts take 49 to 78
    # projections.  The projection at the five kinds of start agrees row by
    # row to 1e-12 of each row's largest entry (measured 6e-15); the fits
    # give the same results to 1e-6 (measured 8.2e-8), the same lower-bound
    # flags, and no more projections in total
    calls = {"new": 0, "reference": 0}

    def counted(key, projection):
        def wrapper(*args):
            calls[key] += 1
            return projection(*args)
        return wrapper

    monkeypatch.setattr(experiments, "_decay_projection",
                        counted("new", experiments._decay_projection))
    monkeypatch.setattr(oracles, "decay_projection_reference",
                        counted("reference", oracles.decay_projection_reference))
    noise = NoiseModel("ornstein-uhlenbeck", DD_SIGMA_Z_DEFAULT)
    fit_batch = experiments._fit_batch
    for seed in (1826701615, 1560023975, 1918988777):
        for preset, dd in (("dd-off", None), ("dd-on", DdConfig())):
            scan = run_scan(preset, default_dd_grid(dd is not None), noise=noise, dd=dd,
                            n_realizations=2, seed=seed)
            monkeypatch.setattr(experiments, "_fit_batch", fit_batch)
            fit = fit_decaying_cosine(scan.times, scan.p0)
            monkeypatch.setattr(experiments, "_fit_batch", oracles.fit_batch_reference)
            ref = fit_decaying_cosine(scan.times, scan.p0)
            where = (seed, preset)
            span = scan.times[-1] - scan.times[0]
            t2 = span * np.array([[0.25], [1.0], [4.0], [100.0], [1.0]])
            w = np.array([[1.4], [1.4], [0.7], [2.0], [0.0]])
            got = experiments._decay_projection(scan.times, scan.p0, t2, w)
            resid, coef, jac_u, jac_w = oracles.decay_projection_reference(
                scan.times, scan.p0, t2, w)
            for g, r in zip(got, (resid, coef, np.stack([jac_u, jac_w], axis=1))):
                scale = np.abs(r).reshape(len(r), -1).max(axis=1)
                err = np.abs(g - r).reshape(len(r), -1).max(axis=1)
                assert np.all(err <= 1e-12 * scale), (where, err / scale)
            assert fit.T2 == pytest.approx(ref.T2, rel=1e-6, abs=0.0), where
            assert fit.frequency == pytest.approx(ref.frequency, rel=1e-6, abs=0.0), where
            assert fit.residual == pytest.approx(ref.residual, rel=1e-6, abs=0.0), where
            assert fit.t2_is_lower_bound == ref.t2_is_lower_bound, where
    assert 0 < calls["new"] <= calls["reference"], calls


# --------------------------------------------------------------- qfi scaling

def test_qfi_scaling_rejects_zero_signal_amplitude(monkeypatch):
    # the pipeline's +-2.5% amplitude grid has no span at zero amplitude; it
    # once failed after the first oracle propagation, with "omega grid is
    # degenerate (zero span)", naming no amplitude
    propagations = []
    monkeypatch.setattr(experiments, "interval_unitary",
                        lambda *args, **kwargs: propagations.append(args))
    with pytest.raises(ValueError, match="signal amplitude > 0"):
        run_qfi_scaling(make_preset("fds-k5", omega_s_amp=0.0), [1.0, 2.0])
    assert propagations == []


def test_qfi_scaling_noiseless_tracks_oracle():
    rows = run_qfi_scaling("fds-k5", [1.0, 2.0])
    for row in rows:
        assert row.qfi == pytest.approx(row.qfi_exact, rel=0.01)
        assert row.stderr == 0.0
    assert rows[0].qfi_over_t2 == pytest.approx(rows[0].qfi, rel=1e-12)


def _rebuilt_family(scenario, t):
    """The state family one amplitude at a time, each evolved on the spec
    rebuilt at its amplitude: the per-amplitude loop that ``Scenario.states``
    batches, kept as its oracle."""
    def rebuilt(w):
        return replace(scenario, signal=replace(scenario.signal, omega_s_amp=float(w)))

    return lambda amps: np.array([evolve(rebuilt(w).rotating_spec(), (1, 0), [t],
                                         ORACLE_OPTS)[-1] for w in amps])


# the presets of the QFI figures, and the robustness sweep's amplitude errors
_FAMILY_CASES = [(make_preset(name), t)
                 for name in ("fds-k1", "fds-k3", "fds-k5", "robustness-amp",
                              "robustness-freq", "dd-off")
                 for t in (0.5, 1.0, 3.8, 4.0, 6.0)] + [
    (make_preset("robustness-amp").with_errors(amp_error=mhz_to_angular(e)), 4.0)
    for e in np.linspace(-1.0, 1.0, 9)]


def test_batched_oracle_matches_per_amplitude_loop():
    worst = 0.0
    for sc, t in _FAMILY_CASES:
        batched = sc.exact_qfi(t).value
        looped = qfi_exact(_rebuilt_family(sc, t), sc.signal.omega_s_amp).value
        worst = max(worst, abs(batched - looped) / looped)
    assert worst <= 1e-9


def test_batched_pipeline_matches_per_amplitude_loop():
    worst = 0.0
    for sc, t in _FAMILY_CASES:
        w0 = sc.signal.omega_s_amp
        grid = default_omega_grid(w0)
        batched = qfi_pipeline(lambda amps: sc.states(amps, t), grid, omega_center=w0)
        looped = qfi_pipeline(_rebuilt_family(sc, t), grid, omega_center=w0)
        worst = max(worst, abs(batched.value - looped.value) / looped.value)
    assert worst <= 1e-9


def test_oracle_takes_one_kernel_pass_per_resolution(monkeypatch):
    # the three finite-difference states are members of one evolution: one
    # drive period refined from 198 to 396 substeps, then the remainder from
    # 14 to 28, each in one kernel call whose three rows are the coarse pass
    # and the two halves; one state at a time this took 12 passes of one
    # member, and one pass per resolution 4 passes of three
    seen = []
    kernel = propagator._interval_unitary

    def counted(spec, t0, t1, n, z_offsets):
        seen.append((n, np.asarray(z_offsets).size))
        return kernel(spec, t0, t1, n, z_offsets)

    monkeypatch.setattr(propagator, "_interval_unitary", counted)
    make_preset("robustness-amp").exact_qfi(4.0)
    assert seen == [(198, 9), (14, 9)]


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
    # 1.5 once started a thread pool, and True ran as one worker
    for n_workers in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match="n_workers"):
            run_robustness_sweep("amplitude", n_workers=n_workers)


def test_robustness_thread_pool_matches_serial_sweep():
    # both grid ends keep the advantage at 4 us, so no bisection runs
    grid = mhz_to_angular(np.array([-0.15, 0.0, 0.1]))
    serial = run_robustness_sweep("amplitude", grid=grid, t=4.0)
    pooled = run_robustness_sweep("amplitude", grid=grid, t=4.0, n_workers=2)
    npt.assert_array_equal(pooled.qfi_fds, serial.qfi_fds)
    assert pooled.baseline == serial.baseline
    assert pooled.interval == serial.interval
    assert pooled.interval_open == serial.interval_open == (True, True)


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


@pytest.mark.parametrize("tau_c, mids", [
    (DD_TAU_C_DEFAULT, 0.125 + 0.25 * np.arange(180)),  # the dd-off segments
    (DD_TAU_C_DEFAULT, np.sort(np.concatenate([0.25 + 0.5 * np.arange(320),
                                               0.5 + np.arange(160)]))),
    (1e6, 0.125 + 0.25 * np.arange(180)),  # quasi-static
    # rho = exp(-250) per segment: products of three or more underflow to 0
    (1e-3, 0.125 + 0.25 * np.arange(180)),
    (5.0, np.array([0.3])),
], ids=["dd-off", "uneven", "quasi-static", "white", "one-segment"])
def test_ou_prefix_scan_matches_the_segment_loop(tau_c, mids):
    # the affine prefix scan regroups the recurrence of the loop
    noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_z=0.7, tau_c=tau_c)
    z = noise.sample_segments(mids, 64, np.random.default_rng(1))
    normals = np.random.default_rng(1).standard_normal((64, mids.size))
    reference = 0.7 * ou_trajectories(mids, normals, tau_c)
    assert np.all(np.isfinite(z))
    npt.assert_allclose(z, reference, rtol=0, atol=1e-14 * np.abs(reference).max())


def test_calibrate_noise_validation():
    with pytest.raises(ValueError):
        calibrate_noise(-1.0)


def test_calibrate_rejects_a_fit_flagged_as_a_lower_bound():
    # a 60 us target lies beyond the 44.75 us span of the default grid: the
    # matching fit (T2 = 62.9 us) was once accepted, flag and all
    with pytest.raises(RuntimeError, match=r"T2 = 60 us .* grid span of 44\.75 us"):
        calibrate_noise(60.0, n_realizations=24)

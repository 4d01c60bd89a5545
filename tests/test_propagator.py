import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from floquet_sensor.hamiltonian import (
    Constant,
    Cosine,
    Frame,
    HamiltonianSpec,
    PauliTerm,
    SIGMA_X,
    SIGMA_Z,
    build_fds_prime,
    build_lab_fds,
    build_lab_ods,
    effective_coefficients,
    to_signal_rotating,
)
from floquet_sensor.experiments import ORACLE_OPTS, SCAN_OPTS, make_preset
from floquet_sensor.params import (
    ControlErrorParams,
    FloquetDriveParams,
    SensorParams,
    SignalParams,
    mhz_to_angular,
)
from floquet_sensor.propagator import (
    _stepped_unitary,
    PropagationError,
    PropagatorOptions,
    StateVector,
    evolve,
    evolve_batch,
    expectation,
    interval_unitary,
    micromotion_error,
    rabi_population,
)

TP = 2.0 * math.pi


def constant_spec(cx, cy, cz):
    return HamiltonianSpec(
        Frame.SIGNAL_ROTATING,
        (
            PauliTerm("x", Constant(cx)),
            PauliTerm("y", Constant(cy)),
            PauliTerm("z", Constant(cz)),
        ),
    )


def fds_paper_spec(k=5):
    sensor = SensorParams()
    signal = SignalParams.from_detuning(
        sensor, mhz_to_angular(0.5), mhz_to_angular(0.5)
    )
    drive = FloquetDriveParams(mhz_to_angular(1.0), mhz_to_angular(36.54), k)
    return build_fds_prime(sensor, signal, drive), drive, sensor, signal


# --------------------------------------------------------------- StateVector

def test_state_vector_normalization_enforced():
    with pytest.raises(ValueError):
        StateVector(1.0, 1.0)
    s = StateVector.plus()
    assert s.p0 == pytest.approx(0.5)


def test_state_vector_constructors():
    assert StateVector.ket0().p0 == 1.0
    assert StateVector.ket1().p0 == 0.0
    npt.assert_allclose(
        StateVector.minus().as_array(), [2**-0.5, -(2**-0.5)], atol=1e-15
    )


# -------------------------------------------------------------------- evolve

def test_zero_spec_is_identity():
    spec = constant_spec(0.0, 0.0, 0.0)
    res = evolve(spec, StateVector.plus(), [0.5, 1.5, 7.0])
    for s in res.states:
        npt.assert_allclose(s.as_array(), StateVector.plus().as_array(), atol=1e-14)


def test_constant_specs_match_matrix_exponential():
    rng = np.random.default_rng(17)
    for _ in range(20):
        cx, cy, cz = rng.normal(size=3) * 3.0
        spec = constant_spec(cx, cy, cz)
        t = rng.uniform(0.1, 8.0)
        res = evolve(spec, StateVector.ket0(), [t])
        ref = expm(-1j * t * spec.matrix(0.0)) @ np.array([1.0, 0.0], complex)
        npt.assert_allclose(res.states[-1].as_array(), ref, atol=1e-12)


def test_rabi_population_matches_evolve_randomized():
    # closed-form oracle vs the numeric propagator on constant specs
    rng = np.random.default_rng(23)
    sensor = SensorParams()
    worst = 0.0
    for _ in range(200):
        amp = rng.uniform(0.0, TP * 5.0)
        delta = rng.uniform(-TP * 5.0, TP * 5.0)
        t = rng.uniform(0.0, 20.0)
        signal = SignalParams.from_detuning(sensor, amp, delta)
        spec = to_signal_rotating(build_lab_ods(sensor, signal), signal)
        res = evolve(spec, StateVector.ket0(), [t] if t > 0 else [0.0])
        worst = max(worst, abs(res.populations[-1] - rabi_population(amp, delta, t)))
    assert worst < 1e-9


def test_full_drive_spec_against_reference_integrator():
    spec, _, _, _ = fds_paper_spec(k=5)

    def rhs(t, y):
        return -1j * (spec.matrix(t) @ y)

    ref = solve_ivp(
        rhs,
        (0.0, 0.8),
        np.array([1.0, 0.0], complex),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    ).y[:, -1]
    res = evolve(spec, StateVector.ket0(), [0.8], PropagatorOptions(rel_tol=1e-10))
    npt.assert_allclose(res.states[-1].as_array(), ref, atol=5e-10)


def test_unitarity_across_scenarios():
    spec, _, _, _ = fds_paper_spec(k=3)
    res = evolve(spec, StateVector.ket0(), np.linspace(0.3, 3.0, 6),
                 PropagatorOptions(rel_tol=1e-8))
    for s in res.states:
        assert abs(abs(s.a0) ** 2 + abs(s.a1) ** 2 - 1.0) < 1e-10


def test_time_grid_composition():
    spec, _, _, _ = fds_paper_spec(k=2)
    opts = PropagatorOptions(rel_tol=1e-10)
    stepped = evolve(spec, StateVector.ket0(), [0.7, 1.9], opts)
    direct = evolve(spec, StateVector.ket0(), [1.9], opts)
    npt.assert_allclose(
        stepped.states[-1].as_array(), direct.states[-1].as_array(), atol=1e-9
    )


def test_self_convergence_contract():
    # halving the step cap changes the final amplitudes below rel_tol
    spec, _, _, _ = fds_paper_spec(k=1)
    opts_a = PropagatorOptions(rel_tol=1e-9, max_step=2e-4, adaptive=False)
    opts_b = PropagatorOptions(rel_tol=1e-9, max_step=1e-4, adaptive=False)
    a = evolve(spec, StateVector.ket0(), [1.0], opts_a).states[-1].as_array()
    b = evolve(spec, StateVector.ket0(), [1.0], opts_b).states[-1].as_array()
    assert np.max(np.abs(a - b)) < 1e-9


def test_evolve_validates_grid():
    spec = constant_spec(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        evolve(spec, StateVector.ket0(), [])
    with pytest.raises(ValueError):
        evolve(spec, StateVector.ket0(), [2.0, 1.0])
    with pytest.raises(ValueError):
        evolve(spec, StateVector.ket0(), [-1.0])


def test_pathological_spec_reported():
    crazy = HamiltonianSpec(
        Frame.SIGNAL_ROTATING, (PauliTerm("x", Cosine(1.0, 1e15)),)
    )
    with pytest.raises(PropagationError):
        evolve(crazy, StateVector.ket0(), [1.0])


def test_evolve_batch_matches_single_runs():
    spec, _, _, _ = fds_paper_spec(k=1)
    offsets = np.array([0.0, 0.11, -0.2])
    psi0 = np.tile([1.0 + 0.0j, 0.0j], (3, 1))
    out = evolve_batch(spec, psi0, 0.0, 0.9, offsets,
                       PropagatorOptions(rel_tol=1e-8, adaptive=False))
    for i, off in enumerate(offsets):
        single = evolve(
            spec.with_z_offset(off), StateVector.ket0(), [0.9],
            PropagatorOptions(rel_tol=1e-8, adaptive=False),
        )
        npt.assert_allclose(out[i], single.states[-1].as_array(), atol=1e-10)


# ------------------------------------------------------ stroboscopic route

def _unitarity_defect(u):
    return np.max(np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(2)))


@pytest.mark.parametrize(
    "preset, freq_error_mhz, t",
    [("fds-k5", 0.0, 4.0), ("robustness-freq", -20.0, 2.0),
     ("robustness-freq", -20.0, 4.0), ("robustness-freq", 30.0, 4.0)],
)
def test_stroboscopic_route_matches_direct_kernel(preset, freq_error_mhz, t):
    sc = make_preset(preset).with_errors(
        ControlErrorParams(freq_error=mhz_to_angular(freq_error_mhz))
    )
    spec = sc.rotating_spec()
    f0, defect = spec.fundamental
    assert t * f0 / TP > 2.0
    u = interval_unitary(spec, 0.0, t, ORACLE_OPTS)
    direct = _stepped_unitary(spec, 0.0, t, ORACLE_OPTS, ORACLE_OPTS.rel_tol)
    assert np.max(np.abs(u - direct)) <= 1e-10
    # frequencies built as omega_s - (omega_s - l omega_F) miss l*f0 by round-off;
    # at -20 MHz by 3.6e-12 rad/us, which is within budget at 2 us but not at 4 us
    on_route = defect * t <= 1e-3 * ORACLE_OPTS.rel_tol
    assert on_route == (preset == "fds-k5" or t == 2.0 or freq_error_mhz == 30.0)
    assert np.array_equal(u, direct) != on_route


def test_stroboscopic_route_batched_dd_segment():
    spec = make_preset("dd-on").rotating_spec()
    z = 0.5 * np.linspace(-1.5, 1.5, 7)
    t0, t1 = 1.3, 1.8  # about 18 drive periods between two pi pulses
    u = interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z)
    direct = _stepped_unitary(spec, t0, t1, SCAN_OPTS, SCAN_OPTS.rel_tol, z)
    assert u.shape == (7, 2, 2)
    assert np.max(np.abs(u - direct)) <= SCAN_OPTS.rel_tol
    for i, off in enumerate(z):
        single = interval_unitary(spec.with_z_offset(off), t0, t1, SCAN_OPTS)
        npt.assert_allclose(u[i], single, atol=SCAN_OPTS.rel_tol)


def test_stroboscopic_route_falls_back_bit_identically():
    sc = make_preset("fds-k5")
    lab = build_lab_fds(sc.sensor, sc.signal, sc.drive)
    rwa_off = to_signal_rotating(lab, sc.signal, apply_rwa=False)
    rotating = sc.rotating_spec()
    coarse, tight = PropagatorOptions(rel_tol=1e-8), PropagatorOptions(rel_tol=1e-12)
    period = TP / rotating.fundamental[0]
    cases = [
        (lab, 0.0, 0.01, coarse),  # incommensurate carriers
        (rwa_off, 0.0, 0.05, coarse),
        (rotating, 0.3, 0.3 + 1.9 * period, coarse),  # shorter than 2T
        (rotating, 0.0, 18.5 * period, tight),  # rel_tol / m below round-off
    ]
    for spec, t0, t1, opts in cases:
        f0, defect = spec.fundamental
        m = int((t1 - t0) * f0 / TP)
        assert m < 2 or defect > 0.1 * f0 or opts.rel_tol / m < 1e-13
        assert np.array_equal(
            interval_unitary(spec, t0, t1, opts),
            _stepped_unitary(spec, t0, t1, opts, opts.rel_tol),
        )


def test_stroboscopic_power_stays_unitary():
    # without the SU(2) projection the 146th power drifts off unitarity by
    # 2e-12 here; the fidelity cross-check of qfi_exact reads a norm error eta
    # as a QFI error of 8 eta / h^2
    sc = make_preset("robustness-amp").with_errors(
        ControlErrorParams(amp_error=mhz_to_angular(-0.98))
    )
    spec = sc.rotating_spec()
    assert int(4.0 * spec.fundamental[0] / TP) == 146
    assert _unitarity_defect(interval_unitary(spec, 0.0, 4.0, ORACLE_OPTS)) <= 1e-12


def test_stroboscopic_remainder_at_period_multiple():
    spec = make_preset("fds-k5").rotating_spec()
    period = TP / spec.fundamental[0]
    opts = PropagatorOptions(rel_tol=1e-9)
    u = interval_unitary(spec, 0.0, 3 * period, opts)
    direct = _stepped_unitary(spec, 0.0, 3 * period, opts, opts.rel_tol)
    assert np.max(np.abs(u - direct)) <= 1e-9


# ----------------------------------------------------------- closed forms

def test_rabi_population_examples():
    amp = TP * 0.5
    assert rabi_population(amp, 0.0, 0.0) == 1.0
    assert rabi_population(amp, 0.0, math.pi / amp) == pytest.approx(0.0, abs=1e-12)
    # equal drive and detuning halves the contrast at the sine maximum
    delta = amp
    t_star = math.pi / math.hypot(amp, delta)
    assert rabi_population(amp, delta, t_star) == pytest.approx(0.5)
    assert rabi_population(0.0, 0.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        rabi_population(amp, 0.0, -1.0)


def test_expectation_values():
    assert expectation(StateVector.ket0(), "z") == pytest.approx(1.0)
    assert expectation(StateVector.plus(), "x") == pytest.approx(1.0)
    s = StateVector(2**-0.5, 1j * 2**-0.5)
    assert expectation(s, "y") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expectation(s, "q")
    # pure-state Bloch norm
    rng = np.random.default_rng(2)
    v = rng.normal(size=4)
    arr = (v[:2] + 1j * v[2:]) / np.linalg.norm(v[:2] + 1j * v[2:])
    st = StateVector.from_array(arr)
    bloch = sum(expectation(st, ax) ** 2 for ax in "xyz")
    assert bloch == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- micromotion

def test_micromotion_error_zero_drive():
    sensor = SensorParams()
    signal = SignalParams.from_detuning(sensor, TP * 0.5, TP * 0.5)
    none = FloquetDriveParams(0.0, mhz_to_angular(36.54))
    spec = build_fds_prime(sensor, signal, none)
    cx, cz = effective_coefficients(sensor, signal, none)
    err = micromotion_error(spec, none, cx * SIGMA_X + cz * SIGMA_Z, 0.5)
    assert err < 1e-8


def test_micromotion_error_regression_and_scaling():
    spec, drive, sensor, signal = fds_paper_spec(k=1)
    cx, cz = effective_coefficients(sensor, signal, drive)
    eff = cx * SIGMA_X + cz * SIGMA_Z
    e1 = micromotion_error(spec, drive, eff, drive.period)
    assert e1 == pytest.approx(2.219e-4, rel=0.02)  # frozen regression value
    faster = FloquetDriveParams(drive.omega_F_amp, 2.0 * drive.omega_F_freq, 1)
    spec2 = build_fds_prime(sensor, signal, faster)
    cx2, cz2 = effective_coefficients(sensor, signal, faster)
    e2 = micromotion_error(spec2, faster, cx2 * SIGMA_X + cz2 * SIGMA_Z, drive.period)
    assert e2 <= 0.35 * e1


# --------------------------------------------------- frame / RWA consistency

def test_lab_vs_rotating_frame_consistency():
    # scaled resonance so the lab frame is integrable at desk precision
    sensor = SensorParams(D=TP * 20.0, gamma_e=0.0, B0=0.0)
    signal = SignalParams.from_detuning(sensor, TP * 0.4, TP * 0.3)
    lab = build_lab_ods(sensor, signal)
    rot = to_signal_rotating(lab, signal, apply_rwa=False)
    t = 1.7
    opts = PropagatorOptions(rel_tol=1e-10)
    psi_lab = evolve(lab, StateVector.ket0(), [t], opts).states[-1].as_array()
    ws = signal.omega_s_freq
    u_s = np.diag([np.exp(-0.5j * ws * t), np.exp(0.5j * ws * t)])
    psi_rot = evolve(rot, StateVector.ket0(), [t], opts).states[-1].as_array()
    npt.assert_allclose(u_s @ psi_lab, psi_rot, atol=1e-8)


def test_rwa_error_shrinks_with_carrier_ratio():
    amp = TP * 0.5
    t = 2.0
    discrepancies = []
    for r in (10.0, 30.0, 100.0):
        ws = r * amp
        sensor = SensorParams(D=ws, gamma_e=0.0, B0=0.0)
        signal = SignalParams(amp, ws)
        lab = build_lab_ods(sensor, signal)
        rwa = to_signal_rotating(lab, signal, apply_rwa=True)
        full = to_signal_rotating(lab, signal, apply_rwa=False)
        opts = PropagatorOptions(rel_tol=1e-9)
        u_rwa = interval_unitary(rwa, 0.0, t, opts)
        u_full = interval_unitary(full, 0.0, t, opts)
        discrepancies.append(np.linalg.norm(u_rwa - u_full, ord=2))
    assert discrepancies[0] > discrepancies[1] > discrepancies[2]

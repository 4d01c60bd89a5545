import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from floquet_sensor.hamiltonian import (
    HamiltonianSpec,
    PauliTerm,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    build_fds_prime,
    effective_coefficients,
    kick_operator,
    kick_vector,
    quasi_energy_shift,
)
from floquet_sensor.params import (
    FloquetDriveParams,
    SignalParams,
    angular_to_mhz,
    mhz_to_angular,
)

from oracles import (
    OMEGA_0,
    build_lab_fds,
    build_lab_ods,
    carrier,
    h_matrix,
    to_signal_rotating,
    to_signal_rotating_full,
)

TP = 2.0 * math.pi


def paper_signal(amp_mhz=0.5, delta_mhz=0.5):
    return SignalParams(mhz_to_angular(amp_mhz), mhz_to_angular(delta_mhz))


def paper_drive(k=5, phases=None):
    return FloquetDriveParams(
        mhz_to_angular(1.0), mhz_to_angular(36.54), harmonics=k, phases=phases
    )


# ---------------------------------------------------------------- parameters

def test_sensor_defaults_give_paper_resonance():
    # the lab oracle's resonance D - gamma_e B0 at 2870 MHz, 2.8 MHz/G, 500 G
    assert angular_to_mhz(OMEGA_0) == pytest.approx(1470.0)


def test_signal_invariants():
    with pytest.raises(ValueError):
        SignalParams(omega_s_amp=-1.0, delta=1.0)
    # any finite detuning, below -omega_0 too: no lab carrier is built
    assert SignalParams(1.0, -mhz_to_angular(2000.0)).delta == -mhz_to_angular(2000.0)


def test_drive_validity_ratio():
    d = paper_drive(k=5)
    ratio = d.validity_ratio(mhz_to_angular(0.5), mhz_to_angular(0.5))
    assert ratio == pytest.approx(36.54)
    assert d.validity_ratio(mhz_to_angular(5.0), 0.0) == pytest.approx(36.54 / 5.0)
    assert math.isinf(FloquetDriveParams(0.0, 1.0).validity_ratio(0.0, 0.0))


def test_perturbed_drive_errors():
    d = paper_drive(k=1)
    with pytest.raises(ValueError):
        d.perturbed(amp_error=-2.0 * d.omega_F_amp)
    p = d.perturbed(amp_error=0.5, freq_error=-1.0)
    assert p.omega_F_amp == pytest.approx(d.omega_F_amp + 0.5)
    assert p.omega_F_freq == pytest.approx(d.omega_F_freq - 1.0)


def test_drive_phase_count_checked():
    with pytest.raises(ValueError):
        FloquetDriveParams(1.0, 10.0, harmonics=3, phases=(0.0,))


# ------------------------------------------------------------------ builders

def test_lab_ods_coefficients():
    signal = paper_signal()
    spec = build_lab_ods(signal)
    cx, cy, cz = spec.coefficients(0.0)
    assert cz == pytest.approx(-0.5 * OMEGA_0)
    assert cx == pytest.approx(signal.omega_s_amp)
    assert cy == 0.0
    # half a carrier period flips the signal term
    cx_pi, _, _ = spec.coefficients(math.pi / carrier(signal))
    assert cx_pi == pytest.approx(-signal.omega_s_amp, rel=1e-9)


def test_lab_ods_zero_signal_is_bare_sensor():
    spec = build_lab_ods(SignalParams(0.0, 0.0))
    npt.assert_allclose(h_matrix(spec, 1.234), -0.5 * OMEGA_0 * SIGMA_Z)


def test_rotating_frame_resonant_ods_is_pure_drive():
    signal = paper_signal(delta_mhz=0.0)
    rot = build_fds_prime(signal)
    for t in (0.0, 0.37, 2.0):
        npt.assert_allclose(
            h_matrix(rot, t), 0.5 * signal.omega_s_amp * SIGMA_X, atol=1e-12
        )


def test_rotating_frame_zero_amplitudes_leave_detuning():
    rot = build_fds_prime(SignalParams(0.0, mhz_to_angular(0.5)))
    assert h_matrix(rot, 0.8).tolist() == (0.5 * mhz_to_angular(0.5) * SIGMA_Z).tolist()


def test_rotating_frame_fds_k1_matches_drive_pair():
    signal = paper_signal()
    drive = paper_drive(k=1)
    rot = build_fds_prime(signal, drive)
    delta = signal.delta
    for t in (0.0, 0.1, 0.777):
        expected = (
            0.5 * delta * SIGMA_Z
            + 0.5 * signal.omega_s_amp * SIGMA_X
            + 2.0 * drive.omega_F_amp * math.cos(drive.omega_F_freq * t) * SIGMA_X
            + 2.0 * drive.omega_F_amp * math.sin(drive.omega_F_freq * t) * SIGMA_Y
        )
        npt.assert_allclose(h_matrix(rot, t), expected, atol=1e-10)


def test_rotating_frame_rejects_wrong_frame():
    # lab terms outside constant sigma_z and cosine sigma_x have no place in
    # the lab-frame sensing model and are rejected
    signal = paper_signal()
    for term in (PauliTerm("y", 1.0, 2.0), PauliTerm("z", 1.0, 2.0)):
        lab = HamiltonianSpec((term,))
        with pytest.raises(ValueError, match="cannot transform lab term"):
            to_signal_rotating(lab, signal)


def test_zero_frequency_terms_are_exact_constants():
    ts = np.linspace(0.0, 7.3, 11)
    npt.assert_array_equal(PauliTerm("z", 0.3).coefficient(ts), np.full(11, 0.3))
    npt.assert_array_equal(PauliTerm("x", 0.3, 0.0, math.pi).coefficient(ts),
                           np.full(11, -0.3))
    # the resonant signal is one x constant with no y residue, as the lab
    # oracle's co-rotating pair collapses to
    signal = paper_signal(delta_mhz=0.0)
    for rot in (build_fds_prime(signal), to_signal_rotating(build_lab_ods(signal), signal)):
        assert [(term.axis, term.frequency) for term in rot.terms] == [("z", 0.0), ("x", 0.0)]
        assert rot.terms[1].amplitude == 0.5 * signal.omega_s_amp


def test_rwa_off_keeps_counter_rotating_terms():
    signal = paper_signal()
    full = to_signal_rotating_full(build_lab_ods(signal), signal)
    ws = carrier(signal)
    # RWA-off spec carries a component at twice the carrier
    assert full.max_frequency() == pytest.approx(2.0 * ws)
    # and the rotating-frame matrix matches the analytic expansion
    amp = signal.omega_s_amp
    delta = signal.delta
    for t in (0.0, 0.21):
        expected = (
            0.5 * delta * SIGMA_Z
            + 0.5 * amp * (1.0 + math.cos(2.0 * ws * t)) * SIGMA_X
            + 0.5 * amp * math.sin(2.0 * ws * t) * SIGMA_Y
        )
        npt.assert_allclose(h_matrix(full, t), expected, atol=1e-8)


def test_fds_prime_zero_errors_matches_composition():
    signal = paper_signal()
    drive = paper_drive(k=5)
    direct = build_fds_prime(signal, drive)
    composed = to_signal_rotating(build_lab_fds(signal, drive), signal)
    for t in np.linspace(0.0, 0.3, 7):
        npt.assert_allclose(h_matrix(direct, t), h_matrix(composed, t), atol=1e-12)


def test_fds_prime_cancelling_amp_error_reduces_to_ods():
    signal = paper_signal()
    drive = paper_drive(k=3)
    reduced = build_fds_prime(signal, drive.perturbed(amp_error=-drive.omega_F_amp))
    plain = build_fds_prime(signal)
    assert reduced == plain
    for t in (0.0, 0.456):
        npt.assert_allclose(h_matrix(reduced, t), h_matrix(plain, t), atol=1e-12)


def _term_sum(spec, t):
    """Reference for ``coefficients``: every term's own cosine, summed in term order."""
    out = np.zeros(np.shape(t) + (3,))
    for term in spec.terms:
        out[..., "xyz".index(term.axis)] += term.coefficient(t)
    return out


def test_coefficients_pair_rotating_terms():
    signal = paper_signal()
    drive = paper_drive(k=5)
    lab = build_lab_fds(signal, drive)
    fds = build_fds_prime(signal, drive)
    x, y = fds.terms[2], fds.terms[3]  # the first drive pair
    mixed = HamiltonianSpec((
        y, PauliTerm("z", 0.7), x,  # a y tone ahead of its x partner: no pair
        x, y,  # a pair
        PauliTerm("y", 0.3, 5.0, 0.1),  # a y tone without a partner
        PauliTerm("z", 0.2, 3.0), PauliTerm("x", 0.4, 0.0, 2.0),
    ))
    # (frequency groups, rotating pairs): the fds drive tones are exact
    # multiples of the first, and so are rwa-off's five co-rotating drive pairs
    specs = {"fds": (fds, (1, 5)), "lab": (lab, (0, 0)), "mixed": (mixed, (1, 1)),
             "rwa-off": (to_signal_rotating_full(lab, signal), (7, 11))}
    t = np.linspace(0.0, 160.0, 4001)
    for name, (spec, n_pairs) in specs.items():
        groups = spec._tones[1]
        assert (len(groups), sum(np.count_nonzero(c) for _, c in groups)) == n_pairs, name
        ref = _term_sum(spec, t)
        # a pair's y term is the sine of the x argument, not the cosine of
        # that argument - pi/2: the two differ by the rounding of the
        # argument, a few ulp of |frequency t| + |phase|, times the amplitude
        bound = 4.0 * np.finfo(float).eps * sum(
            abs(term.amplitude) * (abs(term.frequency) * t + abs(term.phase) + 1.0)
            for term in spec.terms)
        dev = np.abs(spec.coefficients(t) - ref)
        assert np.all(dev <= bound[:, None]), name
    # constants first in term order, and no y tone in a pair: bit for bit
    npt.assert_array_equal(lab.coefficients(t), _term_sum(lab, t))
    assert fds.coefficients(0.3).shape == (3,)


def _pair(amplitude, frequency, phase):
    return (PauliTerm("x", amplitude, frequency, phase),
            PauliTerm("y", amplitude, frequency, phase - 0.5 * math.pi))


def test_coefficients_horner_over_sparse_harmonics():
    # harmonics 3 and 1 of one base frequency (out of order, with no
    # harmonic 2) and a pair at no multiple of it: two groups, one Horner
    # polynomial each
    f = mhz_to_angular(36.54)
    spec = HamiltonianSpec((
        PauliTerm("z", 0.5),
        *_pair(0.8, 3.0 * f, 1.1), *_pair(1.3, f, -0.4), *_pair(0.6, 0.37 * f, 2.5),
    ))
    groups = spec._tones[1]
    assert [(freq, len(c)) for freq, c in groups] == [(0.37 * f, 1), (f, 3)]
    assert groups[1][1][1] == 0.0
    t = np.linspace(0.0, 160.0, 4001)
    bound = 4.0 * np.finfo(float).eps * sum(
        abs(term.amplitude) * (abs(term.frequency) * t + abs(term.phase) + 1.0)
        for term in spec.terms)
    dev = np.abs(spec.coefficients(t) - _term_sum(spec, t))
    assert np.all(dev <= bound[:, None])


def test_near_pair_stays_two_singles():
    # a y tone whose phase misses the partner's x phase - pi/2 by 1e-12, or
    # whose amplitude or frequency misses by an ulp, is no pair: the x and y
    # tones stay singles, each its own cosine, bit for bit
    f = mhz_to_angular(36.54)
    x, y = _pair(0.8, f, 1.1)
    near = [replace(y, phase=y.phase + 1e-12),
            replace(y, amplitude=math.nextafter(y.amplitude, 1.0)),
            replace(y, frequency=math.nextafter(f, 0.0))]
    t = np.linspace(0.0, 160.0, 4001)
    assert HamiltonianSpec((x, y))._tones[2] == []
    for other in near:
        spec = HamiltonianSpec((PauliTerm("z", 0.5), x, other))
        constants, groups, singles = spec._tones
        assert groups == [] and singles == [x, other]
        npt.assert_array_equal(spec.coefficients(t), _term_sum(spec, t))


def test_rate_bounds_are_computed_once_per_spec():
    spec = build_fds_prime(paper_signal(), paper_drive(k=5))
    assert spec.max_frequency() == 5.0 * mhz_to_angular(36.54)
    assert spec.amplitude_scale() == sum(abs(term.amplitude) for term in spec.terms)
    assert {"_max_frequency", "_amplitude_scale"} <= set(vars(spec))
    assert HamiltonianSpec(()).max_frequency() == HamiltonianSpec(()).amplitude_scale() == 0.0


def test_fds_prime_k5_has_five_harmonic_pairs():
    spec = build_fds_prime(paper_signal(), paper_drive(k=5))
    freqs = sorted({round(term.frequency, 6) for term in spec.terms if term.frequency != 0.0})
    expected = [round(l * mhz_to_angular(36.54), 6) for l in range(1, 6)]
    assert freqs == expected


def test_fds_prime_drive_tones_are_exact_multiples():
    # over the default robustness grids every tone frequency is an exact
    # multiple of the first; built as omega_s - (omega_s - l omega_F), as the
    # lab-frame transform does, they missed it by up to 4.5e-12 rad/us, and
    # 23 of the 51 frequency points fell off the stroboscopic route
    from floquet_sensor.experiments import _default_error_grid, make_preset

    for axis, preset, key in (("frequency", "robustness-freq", "freq_error"),
                              ("amplitude", "robustness-amp", "amp_error")):
        sc = make_preset(preset)
        for err in _default_error_grid(axis):
            errors = {key: float(err)}
            spec = sc.with_errors(**errors).rotating_spec()
            f0, defect = spec.fundamental
            assert defect == 0.0
            drive = sc.drive.perturbed(**errors)
            if drive.omega_F_amp == 0.0:  # a cancelled drive leaves a constant spec
                assert f0 == 0.0
            else:
                assert f0 == pytest.approx(drive.omega_F_freq, rel=1e-15)


def _transform_deviations(signal, drive, omega_0=OMEGA_0) -> int:
    """Check ``build_fds_prime`` against the transform of the lab-frame oracle
    and return how many of its terms differ.

    Term by term the axes, phases and signal amplitude are equal.  The
    transform reaches the detuning and the tone frequencies through the
    carrier omega_s = omega_0 + Delta, as 0.5 omega_s - 0.5 omega_0 and
    omega_s - (omega_s - l omega_F), so it misses them by round-off in
    omega_s: the sigma_z constant within spacing(omega_s), tone l within
    (l + 2) spacing(omega_s).  ``build_fds_prime`` writes 0.5 Delta and
    l omega_F themselves.
    """
    if drive is None:
        lab = build_lab_ods(signal, omega_0)
    else:
        lab = build_lab_fds(signal, drive, omega_0)
    ref = to_signal_rotating(lab, signal, omega_0)
    spec = build_fds_prime(signal, drive)
    ulp = np.spacing(carrier(signal, omega_0))
    f = 0.0 if drive is None else drive.omega_F_freq
    assert len(spec.terms) == len(ref.terms)
    for term, want in zip(spec.terms, ref.terms):
        assert (term.axis, term.phase) == (want.axis, want.phase)
        if term.axis == "z":
            assert term.frequency == want.frequency == 0.0
            assert term.amplitude == 0.5 * signal.delta
            assert abs(term.amplitude - want.amplitude) <= ulp
        else:
            assert term.amplitude == want.amplitude
            l = round(want.frequency / f) if want.frequency != 0.0 else 0
            assert term.frequency == l * f
            assert abs(term.frequency - want.frequency) <= (l + 2) * ulp
    return sum(term != want for term, want in zip(spec.terms, ref.terms))


def test_fds_prime_equals_composition_bit_for_bit_at_preset_drives():
    # equal to the lab-frame transform up to the round-off of its carrier
    # arithmetic (``_transform_deviations``)
    from floquet_sensor.experiments import PRESET_NAMES, make_preset

    for name in PRESET_NAMES:
        sc = make_preset(name)
        assert sc.rotating_spec() == build_fds_prime(sc.signal, sc.drive), name
        _transform_deviations(sc.signal, sc.drive)


def _random_case(rng):
    """(omega_0, signal, drive): the resonance D - gamma_e B0 of a random
    sensor, a signal amplitude and a detuning each zero in a quarter of the
    cases, and no drive, or a drive of 1 to 5 tones with amplitude and
    frequency errors, its amplitude cancelled in a fifth of the cases."""
    d, gamma_e = TP * rng.uniform(2000.0, 4000.0), TP * rng.uniform(1.0, 6.0)
    omega_0 = d - gamma_e * rng.uniform(0.0, 300.0)
    amp = 0.0 if rng.random() < 0.25 else TP * rng.uniform(0.01, 2.0)
    delta = 0.0 if rng.random() < 0.25 else TP * rng.uniform(-2.0, 2.0)
    signal = SignalParams(amp, delta)
    if rng.random() < 0.2:
        return omega_0, signal, None
    k = int(rng.integers(1, 6))
    drive = FloquetDriveParams(TP * rng.uniform(0.5, 2.0), TP * rng.uniform(20.0, 50.0), k,
                               tuple(rng.uniform(0.0, TP, k)))
    amp_error = -drive.omega_F_amp if rng.random() < 0.2 else TP * rng.uniform(-0.4, 0.4)
    return omega_0, signal, drive.perturbed(amp_error, TP * rng.uniform(-1.0, 1.0))


def test_fds_prime_equals_the_lab_frame_transform_randomized():
    # build_fds_prime against the transform of the lab-frame oracle, to the
    # round-off of the transform's carrier arithmetic (``_transform_deviations``),
    # which shows in some of the cases
    from floquet_sensor.experiments import PRESET_NAMES, make_preset

    rng = np.random.default_rng(24)
    cases = [(OMEGA_0, sc.signal, sc.drive) for sc in map(make_preset, PRESET_NAMES)]
    cases += [_random_case(rng) for _ in range(400)]
    moved = sum(_transform_deviations(signal, drive, omega_0)
                for omega_0, signal, drive in cases)
    assert moved > 0


# ----------------------------------------------------- kick operator / shift

def test_kick_zero_amplitude():
    drv = FloquetDriveParams(0.0, mhz_to_angular(36.54), harmonics=2)
    npt.assert_allclose(kick_operator(drv, 0.3), np.zeros((2, 2)))


def test_kick_periodicity():
    drv = paper_drive(k=3)
    rng = np.random.default_rng(5)
    for t in rng.uniform(0.0, 2.0, 8):
        npt.assert_allclose(
            kick_operator(drv, t + drv.period), kick_operator(drv, t), atol=1e-12
        )


def test_kick_value_k1_t0():
    drv = paper_drive(k=1)
    expected = -(2.0 * drv.omega_F_amp / drv.omega_F_freq) * SIGMA_Y
    npt.assert_allclose(kick_operator(drv, 0.0), expected, atol=1e-14)


def test_kick_is_hermitian():
    drv = paper_drive(k=5, phases=(0.3, 1.0, 2.0, 4.0, 0.1))
    k = kick_operator(drv, 0.77)
    npt.assert_allclose(k, k.conj().T, atol=1e-14)


def test_kick_tone_phases_shift_kick_axis():
    drv = paper_drive(k=1, phases=(math.pi / 2.0,))
    vec = kick_vector(drv, 0.0)
    npt.assert_allclose(
        vec, [2.0 * drv.omega_F_amp / drv.omega_F_freq, 0.0, 0.0], atol=1e-14
    )


def test_quasi_energy_shift_values():
    # independent summation oracle
    def oracle(k, omf_mhz=36.54, amp_mhz=1.0):
        return 8.0 * sum(amp_mhz**2 / l for l in range(1, k + 1)) / omf_mhz

    for k in (1, 2, 5, 9):
        drv = paper_drive(k=k)
        assert angular_to_mhz(quasi_energy_shift(drv)) == pytest.approx(
            oracle(k), rel=1e-12
        )
    assert angular_to_mhz(quasi_energy_shift(paper_drive(1))) == pytest.approx(
        0.2189381, abs=1e-6
    )
    assert angular_to_mhz(quasi_energy_shift(paper_drive(5))) == pytest.approx(
        0.4999088, abs=1e-6
    )
    assert quasi_energy_shift(FloquetDriveParams(0.0, 1.0)) == 0.0


def test_quasi_energy_shift_monotone_in_harmonics():
    shifts = [quasi_energy_shift(paper_drive(k)) for k in range(1, 8)]
    assert all(b > a for a, b in zip(shifts, shifts[1:]))


def test_shift_equals_effective_detuning_gap():
    # algebraic identity: Delta - 2 * (effective sigma_z coefficient) = shift
    rng = np.random.default_rng(11)
    for _ in range(10):
        signal = SignalParams(rng.uniform(0.0, 5.0), rng.uniform(-3.0, 3.0))
        drive = FloquetDriveParams(
            rng.uniform(0.0, 8.0), rng.uniform(50.0, 400.0), int(rng.integers(1, 6))
        )
        _, cz = effective_coefficients(signal, drive)
        gap = signal.delta - 2.0 * cz
        assert gap == pytest.approx(quasi_energy_shift(drive), abs=1e-12)


def test_effective_coefficients_matrix():
    signal = paper_signal()
    # zero drive -> plain rotating-frame coefficients
    none = FloquetDriveParams(0.0, mhz_to_angular(36.54))
    cx, cz = effective_coefficients(signal, none)
    assert cx == pytest.approx(0.5 * signal.omega_s_amp, rel=1e-12)
    assert cz == pytest.approx(0.5 * signal.delta, rel=1e-12)
    # k=1 sigma_z coefficient
    d1 = paper_drive(k=1)
    _, cz1 = effective_coefficients(signal, d1)
    expected = 0.5 * signal.delta - 4.0 * d1.omega_F_amp**2 / d1.omega_F_freq
    assert cz1 == pytest.approx(expected, rel=1e-12)
    # paper k=5 design point nearly cancels the detuning
    _, cz5 = effective_coefficients(signal, paper_drive(5))
    assert angular_to_mhz(2.0 * cz5) == pytest.approx(9.12e-5, rel=0.01)


# ---------------------------------------------------------------- invariants

def test_spec_evaluation_is_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(20):
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            axis = "xyz"[int(rng.integers(3))]
            if rng.random() < 0.4:
                terms.append(PauliTerm(axis, rng.normal()))
            else:
                terms.append(
                    PauliTerm(axis, rng.normal(), rng.uniform(0, 50), rng.uniform(-3, 3))
                )
        spec = HamiltonianSpec(tuple(terms))
        for t in rng.uniform(0.0, 10.0, 5):
            h = h_matrix(spec, t)
            npt.assert_allclose(h, h.conj().T, atol=1e-14)

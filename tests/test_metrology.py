import math

import numpy as np
import pytest

from floquet_sensor.hamiltonian import build_fds_prime
from floquet_sensor.metrology import (
    OptimalSensingResult,
    QfiStepError,
    optimal_sensing_time,
    qfi_exact,
    sensitivity,
    theta_phi_from_expectations,
)
from floquet_sensor.params import ReadoutModel, SignalParams
from floquet_sensor.propagator import evolve, expectation

from oracles import qfi_theta_phi, state_from_theta_phi

TP = 2.0 * math.pi
KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def detuned_rabi_qfi(amp, delta, t):
    """Closed-form Fisher information of the constant-drive evolution.

    Derived from the variance of the accumulated generator
    G = int U^dag (sigma_x/2) U ds over |0>; serves as the independent
    oracle for the finite-difference implementation.
    """
    general = math.hypot(amp, delta)
    if general == 0.0:
        return 0.0
    c, s = amp / general, delta / general
    return (
        (c * t) ** 2
        + (4.0 * s**2 / general**2) * math.sin(0.5 * general * t) ** 2
        - (c * s * (t - math.sin(general * t) / general)) ** 2
    )


def pointwise(state):
    """The array state family of a scalar ``state(w)``, one amplitude at a time."""
    return lambda amps: np.array([state(w) for w in amps])


def ods_family(amp0, delta, t):
    def state(amp):
        spec = build_fds_prime(SignalParams(amp, delta))
        return evolve(spec, KET0, [t])[-1]

    return pointwise(state)


# ------------------------------------------------------------------ qfi_exact

def test_qfi_exact_resonant_reaches_quadratic_scaling():
    amp = TP * 0.5
    for t in (0.5, 2.0, 4.0):
        est = qfi_exact(ods_family(amp, 0.0, t), amp)
        assert est.value == pytest.approx(t**2, rel=1e-6)
        assert est.method == "exact-fd"
        assert est.stderr == 0.0


def test_qfi_exact_constant_family_is_zero():
    fixed = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    est = qfi_exact(pointwise(lambda w: fixed), TP * 0.5)
    assert abs(est.value) < 1e-6


def test_qfi_exact_matches_closed_form_off_resonance():
    amp = TP * 0.5
    delta = TP * 0.5
    t = 4.0
    est = qfi_exact(ods_family(amp, delta, t), amp)
    assert est.value == pytest.approx(detuned_rabi_qfi(amp, delta, t), rel=1e-5)
    assert est.value < t**2


def test_qfi_exact_reports_step_breakdown():
    # a family discontinuous on the finite-difference scale breaks the
    # derivative/fidelity cross-check
    def state(w):
        return KET0 if w < TP * 0.5 else KET1

    with pytest.raises(QfiStepError):
        qfi_exact(pointwise(state), TP * 0.5)


def test_qfi_upper_bound_randomized():
    rng = np.random.default_rng(31)
    for _ in range(10):
        amp = rng.uniform(0.2, 4.0)
        delta = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.5, 6.0)
        est = qfi_exact(ods_family(amp, delta, t), amp)
        assert est.value <= t**2 * (1.0 + 1e-6)


# --------------------------------------------------------------- (theta, phi)

def test_qfi_theta_phi_examples():
    t = 3.8
    assert qfi_theta_phi(math.pi / 4.0, 0.0, t).value == pytest.approx(t**2)
    assert qfi_theta_phi(0.7, 0.0, 0.0).value == 0.0
    assert qfi_theta_phi(0.0, 1.3, 999.0).value == pytest.approx(4.0 * 1.3**2)


def test_parameterization_formula_matches_state_derivative():
    # randomized smooth trajectories Omega -> (theta, phi) with analytic
    # slopes, cross-checked against the finite-difference state form
    rng = np.random.default_rng(7)
    w0 = TP * 0.5
    for _ in range(100):
        a0 = rng.uniform(0.15, math.pi / 2.0 - 0.15)
        a1, a2 = rng.normal(scale=0.2, size=2)
        b1, b2 = rng.normal(scale=2.0, size=2)

        def theta(w):
            return a0 + a1 * (w - w0) + 0.5 * a2 * (w - w0) ** 2

        def phi(w):
            return b1 * (w - w0) + 0.5 * b2 * (w - w0) ** 2

        algebraic = qfi_theta_phi(theta(w0), a1, b1).value
        numeric = qfi_exact(
            pointwise(lambda w: state_from_theta_phi(theta(w), phi(w))), w0
        ).value
        assert numeric == pytest.approx(algebraic, rel=1e-6, abs=1e-9)


def test_theta_phi_from_expectations_examples():
    theta, phi, degenerate = theta_phi_from_expectations(
        np.array([1.0, 0.0, 0.0, 1.2]),
        np.array([0.0, 0.0, -1.0, 0.5]),
        np.array([0.0, 1.0, 0.0, 0.5]),
    )
    assert theta[:3] == pytest.approx([0.0, math.pi / 4.0, math.pi / 4.0])
    assert phi[1:3] == pytest.approx([0.0, math.pi / 2.0])
    # statistical overshoot is clamped, the pole is flagged with phi = 0
    assert theta[3] == 0.0
    assert phi[0] == 0.0
    assert degenerate.tolist() == [True, False, False, False]


def test_theta_phi_roundtrip():
    rng = np.random.default_rng(13)
    theta = rng.uniform(0.05, math.pi / 2.0 - 0.05, 50)
    phi = rng.uniform(-math.pi + 1e-6, math.pi, 50)
    states = [state_from_theta_phi(a, b) for a, b in zip(theta, phi)]
    got_theta, got_phi, degenerate = theta_phi_from_expectations(
        *(np.array([expectation(s, ax) for s in states]) for ax in "xyz")
    )
    np.testing.assert_allclose(got_theta, theta, rtol=0, atol=1e-9)
    np.testing.assert_allclose(got_phi, phi, rtol=0, atol=1e-9)
    assert not degenerate.any()


# ------------------------------------------------------ resonant vs detuned

def test_detuned_bound_is_looser_than_resonant():
    # less Fisher information off resonance: a looser Cramer-Rao bound
    amp = TP * 0.5
    t = 4.0
    resonant = qfi_exact(ods_family(amp, 0.0, t), amp)
    detuned = qfi_exact(ods_family(amp, TP * 0.5, t), amp)
    assert 0.0 < detuned.value < resonant.value


# ---------------------------------------------------------------- sensitivity

def test_sensitivity_reproduces_published_endpoints():
    assert sensitivity(17.9, 17.9) == pytest.approx(602.0, rel=0.02)
    assert sensitivity(162.5, 162.5) == pytest.approx(195.0, rel=0.02)


def test_sensitivity_diverges_at_short_times():
    assert sensitivity(1e-4, 17.9) > 1e4 * sensitivity(17.9, 17.9)
    with pytest.raises(ValueError):
        sensitivity(0.0, 17.9)


def test_sensitivity_params_validation():
    # the readout model checks its contrast; sensitivity checks T2
    with pytest.raises(ValueError, match="contrast"):
        ReadoutModel(contrast=1.5)
    for t2 in (0.0, -1.0):
        with pytest.raises(ValueError, match="T2"):
            sensitivity(10.0, t2)
        with pytest.raises(ValueError, match="T2"):
            optimal_sensing_time(t2)
    for gamma_e in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="gamma_e"):
            sensitivity(10.0, 17.9, gamma_e=gamma_e)
        with pytest.raises(ValueError, match="gamma_e"):
            optimal_sensing_time(17.9, gamma_e=gamma_e)


def test_sensitivity_scales_inversely_with_gamma_contrast_and_sqrt_rate():
    base = sensitivity(17.9, 17.9)
    assert sensitivity(17.9, 17.9, gamma_e=TP * 5.6) == pytest.approx(base / 2, rel=1e-14)
    # gamma alone enters: one that no valid sensor resonance allows works too
    assert sensitivity(17.9, 17.9, gamma_e=TP * 6.0) == pytest.approx(base * 2.8 / 6.0,
                                                                       rel=1e-14)
    assert sensitivity(17.9, 17.9, ReadoutModel(contrast=0.26)) == pytest.approx(
        base / 2, rel=1e-14
    )
    assert sensitivity(17.9, 17.9, ReadoutModel(count_rate=4 * 9.5e4)) == (
        pytest.approx(base / 2, rel=1e-14)
    )


def test_optimal_sensing_time():
    res = optimal_sensing_time(17.9)
    assert isinstance(res, OptimalSensingResult)
    # far above the detection time the analytic optimum sits at T2/2
    assert res.t_opt == pytest.approx(0.5 * 17.9, rel=0.15)
    assert res.eta_opt < res.eta_at_t2
    assert res.eta_at_t2 == pytest.approx(sensitivity(17.9, 17.9))


@pytest.mark.parametrize("t2", [1e-3, 0.5, 17.9, 162.5, 1e4])
def test_optimal_sensing_time_is_the_stationary_root(t2):
    # d ln eta/dt = 0 is 2 t^2 + (2 t_det - T2) t - 2 T2 t_det = 0, and its
    # positive root is the minimum to round-off
    t_det = ReadoutModel().t_det
    roots = np.roots([2.0, 2.0 * t_det - t2, -2.0 * t2 * t_det])
    res = optimal_sensing_time(t2)
    assert res.t_opt == pytest.approx(roots[roots > 0][0], rel=1e-12)
    assert res.eta_opt == sensitivity(res.t_opt, t2)
    for shift in (1.0 - 1e-4, 1.0 + 1e-4):
        assert sensitivity(res.t_opt * shift, t2) > res.eta_opt


def test_sensitivity_monotone_without_decay():
    ts = np.linspace(1.0, 200.0, 40)
    etas = [sensitivity(t, 1e9) for t in ts]
    assert all(b < a for a, b in zip(etas, etas[1:]))

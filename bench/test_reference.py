"""Tests of the independent references: python3 -m pytest bench/test_reference.py"""

import math

import numpy as np
import pytest

import reference as ref

OMEGA = ref.mhz(0.5)
TIMES = (0.5, 1.0, 2.0, 3.8, 4.0)


@pytest.mark.parametrize("t", TIMES)
def test_ods_qfi_is_heisenberg_on_resonance(t):
    assert ref.ods_qfi(OMEGA, 0.0, t) == pytest.approx(t * t, rel=1e-12)


def test_ods_qfi_detuned_stays_below_t_squared():
    for t in TIMES:
        assert 0.0 < ref.ods_qfi(OMEGA, OMEGA, t) < t * t


def test_sensitivity_integration_is_heisenberg_on_resonance():
    traj = ref.integrate(ref.Sensor(OMEGA, 0.0), TIMES)
    np.testing.assert_allclose(traj.qfi(), np.square(TIMES), rtol=1e-7)


def test_sensitivity_integration_matches_frechet_and_closed_form_detuned():
    s = ref.PRESETS["ods-detuned"]
    traj = ref.integrate(s, TIMES)
    frechet = [ref.ods_qfi(s.omega, s.delta, t) for t in TIMES]
    np.testing.assert_allclose(traj.qfi(), frechet, rtol=1e-6)
    np.testing.assert_allclose(traj.p0, ref.rabi_population(s.omega, s.delta, TIMES),
                               atol=1e-8)


def test_driven_sensor_respects_the_heisenberg_bound_and_keeps_norm():
    traj = ref.integrate(ref.PRESETS["fds-k5"], [1.0, 2.0])
    assert np.all(traj.qfi() <= np.square([1.0, 2.0]) * (1.0 + 1e-6))
    np.testing.assert_allclose(np.sum(np.abs(traj.psi) ** 2, axis=1), 1.0, atol=1e-8)


def test_rabi_population_closed_form():
    assert ref.rabi_population(OMEGA, 0.0, math.pi / OMEGA) == pytest.approx(0.0, abs=1e-15)
    assert ref.rabi_population(0.0, 0.0, [1.0, 2.0]).tolist() == [1.0, 1.0]

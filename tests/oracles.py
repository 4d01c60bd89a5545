"""Closed forms and reference constructions that the tests check the package
against.  None of them is run by a ``floquet-sensor`` command, so they live
here rather than in ``src/``.

Test files import them as ``from oracles import ...``: pytest puts this
directory on ``sys.path`` when it collects the tests in it.
"""

from __future__ import annotations

import math

import numpy as np

from floquet_sensor.hamiltonian import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Frame,
    HamiltonianSpec,
    PauliTerm,
    _rotating_pair,
    build_lab_ods,
)
from floquet_sensor.metrology import QfiEstimate
from floquet_sensor.params import FloquetDriveParams, SensorParams, SignalParams


# ---------------------------------------------------------------- Hamiltonians

def h_matrix(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """2x2 Hermitian matrix of ``spec`` at time t."""
    cx, cy, cz = spec.coefficients(float(t))
    return cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z


def build_lab_fds(
    sensor: SensorParams, signal: SignalParams, drive: FloquetDriveParams
) -> HamiltonianSpec:
    """Lab-frame Hamiltonian of the periodically driven sensor.

    On top of the undriven sensing Hamiltonian, each drive harmonic l adds a
    lab tone 4*omega_F_amp * cos[(omega_s - l*omega_F) t] sigma_x (the factor
    4 maps the lab amplitude onto the rotating-frame convention).
    """
    terms = list(build_lab_ods(sensor, signal).terms)
    for l in range(1, drive.harmonics + 1):
        if drive.omega_F_amp != 0.0:
            terms.append(PauliTerm("x", 4.0 * drive.omega_F_amp,
                                   signal.omega_s_freq - l * drive.omega_F_freq,
                                   -drive.tone_phase(l)))
    return HamiltonianSpec(frame=Frame.LAB, terms=tuple(terms))


def to_signal_rotating_full(spec: HamiltonianSpec, signal: SignalParams) -> HamiltonianSpec:
    """``to_signal_rotating`` without the rotating-wave approximation.

    Each lab sigma_x cosine at carrier w_c becomes its co-rotating pair at
    |omega_s - w_c|, directly followed by its counter-rotating pair at
    omega_s + w_c; the co-rotating pairs are those of ``to_signal_rotating``,
    bit for bit.
    """
    if spec.frame is not Frame.LAB:
        raise ValueError(f"expected a lab-frame spec, got frame {spec.frame.value!r}")
    ws = signal.omega_s_freq
    terms: list[PauliTerm] = []
    z_const = 0.5 * ws  # from i (dU/dt) U^dagger
    for term in spec.terms:
        if term.axis == "z" and term.frequency == 0.0:
            z_const += term.amplitude * math.cos(term.phase)
        elif term.axis == "x":
            amp, wc, ph = term.amplitude, term.frequency, term.phase
            # co-rotating pair at omega_s - w_c
            terms.extend(_rotating_pair(0.5 * amp, ws - wc, -ph))
            # counter-rotating pair at omega_s + w_c
            terms.extend(_rotating_pair(0.5 * amp, ws + wc, ph))
        else:
            raise ValueError(f"cannot transform lab term {term!r}")
    terms.insert(0, PauliTerm("z", z_const))
    return HamiltonianSpec(frame=Frame.SIGNAL_ROTATING, terms=tuple(terms))


# ---------------------------------------------------------------- closed forms

def rabi_population(omega_s_amp: float, delta: float, t: float) -> float:
    """Closed-form |0> population under a constant rotating-frame drive.

    P0(t) = 1 - [A^2/(A^2+D^2)] sin^2( sqrt(A^2+D^2) t / 2 ); the degenerate
    case A = D = 0 returns 1.
    """
    if t < 0:
        raise ValueError("time must be non-negative")
    general = math.hypot(omega_s_amp, delta)
    if general == 0.0:
        return 1.0
    contrast = (omega_s_amp / general) ** 2
    return 1.0 - contrast * math.sin(0.5 * general * t) ** 2


def qfi_theta_phi(theta: float, dtheta_domega: float, dphi_domega: float) -> QfiEstimate:
    """Algebraic QFI from the (theta, phi) parameterization and its slopes."""
    value = 4.0 * dtheta_domega**2 + math.sin(2.0 * theta) ** 2 * dphi_domega**2
    return QfiEstimate(value=value, method="theta-phi-fit")


def state_from_theta_phi(theta: float, phi: float) -> np.ndarray:
    """Pure state cos(theta)|+> + sin(theta) e^{i phi}|-> in the z basis."""
    ct, st = math.cos(theta), math.sin(theta)
    e = complex(math.cos(phi), math.sin(phi))
    inv = 1.0 / math.sqrt(2.0)
    return np.array([inv * (ct + st * e), inv * (ct - st * e)])

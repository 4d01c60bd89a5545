"""Estimation-theoretic analysis: quantum Fisher information and the
magnetic sensitivity model.

The sensitivity model reads its contrast, count rate and detection time
from ``params.ReadoutModel``, the object the scans and the QFI pipeline use,
and takes the gyromagnetic ratio alone (``GAMMA_E`` unless given): nothing
else of the sensor enters it.

QFI conventions: for a pure-state family |psi(w)> at fixed evolution time,
given as 2-vectors of amplitudes over {|0>, |1>},

    I(w) = 4 ( <d_w psi | d_w psi> - |<psi | d_w psi>|^2 )

with w the rotating-frame Rabi amplitude in rad/us, so I carries units of
us^2.  The QFI pipeline fits the equivalent (theta, phi) form for
|psi> = cos(theta)|+> + sin(theta) e^{i phi} |->:

    I = 4 (d theta/d w)^2 + sin^2(2 theta) (d phi/d w)^2.

A state family is an array function: ``family(amps)`` takes a 1-D array of
k amplitudes and returns the (k, 2) array of their states, so that a whole
finite-difference stencil (or a pipeline grid) is one call, and
``Scenario.states`` evolves it in one batched propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .params import ReadoutModel, angular_to_mhz, mhz_to_angular

#: electron gyromagnetic ratio (rad/us/G), 2.8 MHz/G
GAMMA_E = mhz_to_angular(2.8)


class QfiStepError(RuntimeError):
    """Finite-difference cross-check failure in ``qfi_exact``."""


@dataclass(frozen=True)
class QfiEstimate:
    """A QFI value (us^2) with its provenance and statistical uncertainty."""

    value: float
    method: str  # exact-fd | theta-phi-fit | monte-carlo
    stderr: float = 0.0
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class OptimalSensingResult:
    t_opt: float  # us
    eta_opt: float  # nT / sqrt(Hz)
    eta_at_t2: float  # nT / sqrt(Hz)


def qfi_exact(
    family: Callable[[np.ndarray], np.ndarray],
    omega: float,
    h: float | None = None,
) -> QfiEstimate:
    """QFI of a state family by central finite differences.

    The family is called once, on the three amplitudes omega - h, omega and
    omega + h.  The step h defaults to 1e-4 max(|omega|, 2 pi x 0.1 MHz); an
    analytic family may take a finer one.  The state-derivative form is
    cross-checked against the fidelity form
    I ~ 8 (1 - |<psi(w)|psi(w+h)>|) / h^2; a disagreement beyond 1 percent
    (above a small absolute floor) raises ``QfiStepError`` with both values.
    """
    if h is None:
        h = 1e-4 * max(abs(omega), mhz_to_angular(0.1))
    psi_m, psi_0, psi_p = family(np.array([omega - h, omega, omega + h]))

    dpsi = (psi_p - psi_m) / (2.0 * h)
    overlap = np.vdot(psi_0, dpsi)
    value = 4.0 * (np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)

    fidelity = abs(np.vdot(psi_0, psi_p))
    value_fid = 8.0 * (1.0 - fidelity) / h**2

    tol = 0.01 * max(abs(value), abs(value_fid)) + 1e-4
    if abs(value - value_fid) > tol:
        raise QfiStepError(
            f"derivative-step breakdown: state-derivative QFI {value:.6g} vs "
            f"fidelity QFI {value_fid:.6g} disagree beyond 1%"
        )
    return QfiEstimate(value=float(value), method="exact-fd")


def theta_phi_from_expectations(sx, sy, sz):
    """(theta, phi, degenerate) arrays from Pauli expectations, elementwise.

    theta = arccos(sx)/2 with sx clamped to [-1, 1] (statistical estimates
    may overshoot); phi = atan2(-sy, sz) covering the full (-pi, pi] branch.
    At the (sy, sz) = (0, 0) pole, where phi is undefined, phi is set to 0
    and ``degenerate`` is True.
    """
    theta = 0.5 * np.arccos(np.clip(sx, -1.0, 1.0))
    degenerate = (np.abs(sy) < 1e-12) & (np.abs(sz) < 1e-12)
    phi = np.where(degenerate, 0.0, np.arctan2(-sy, sz))
    return theta, phi, degenerate


def sensitivity(t: float, t2: float, readout: ReadoutModel = ReadoutModel(),
                gamma_e: float = GAMMA_E) -> float:
    """Magnetic amplitude sensitivity at sensing time t (us), in nT/sqrt(Hz).

    eta(t) = 1/(gamma * C * sqrt(N)) * sqrt(1 + t/t_det) / (t e^{-t/T2})

    with C, N and t_det from ``readout``, the coherence time T2 = ``t2`` (us)
    and gamma the gyromagnetic ratio ``gamma_e`` (rad/us/G) in cyclic Hz/nT
    (1 MHz/G = 10 Hz/nT; 28 Hz/nT by default).  The time in the denominator
    is converted to seconds and the proportionality constant fixed to 1
    under this unit convention (the calibration that reproduces the
    published endpoint values).
    """
    if t2 <= 0:
        raise ValueError("T2 must be positive")
    if t <= 0:
        raise ValueError("sensing time must be positive")
    if not gamma_e > 0:
        raise ValueError(f"gyromagnetic ratio gamma_e must be positive, got {gamma_e!r}")
    gamma = 10.0 * angular_to_mhz(gamma_e)  # Hz / nT
    prefactor = 1.0 / (gamma * readout.contrast * math.sqrt(readout.count_rate))
    duty = math.sqrt(1.0 + t / readout.t_det)
    t_seconds = t * 1e-6
    return prefactor * duty / (t_seconds * math.exp(-t / t2))


def optimal_sensing_time(t2: float, readout: ReadoutModel = ReadoutModel(),
                         gamma_e: float = GAMMA_E) -> OptimalSensingResult:
    """Minimum of eta(t) in closed form, and eta(T2) for the published convention.

    d ln eta/dt = 1/(2 (t_det + t)) + 1/T2 - 1/t vanishes only at the
    positive root of 2 t^2 + (2 t_det - T2) t - 2 T2 t_det = 0 (the roots'
    product is -T2 t_det), taken free of cancellation for either sign of
    b = 2 t_det - T2; eta diverges at 0+ and at large t, so it is the minimum.
    """
    if t2 <= 0:
        raise ValueError("T2 must be positive")
    t_det = readout.t_det
    b = 2.0 * t_det - t2
    root = math.hypot(b, 4.0 * math.sqrt(t2 * t_det))  # sqrt(b^2 + 16 T2 t_det)
    t_opt = (root - b) / 4.0 if b < 0.0 else 4.0 * t2 * t_det / (root + b)
    eta = [sensitivity(t, t2, readout, gamma_e) for t in (t_opt, t2)]
    return OptimalSensingResult(t_opt, *eta)

"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``floquet_sensor``.  The Hamiltonians are written out
from their physics, in the signal rotating frame with the rotating-wave
approximation, in angular units (rad/us) and microseconds:

    H(t) = (Delta/2) sz + (Omega/2) sx
           + 2 A sum_l [cos(l w t + phi_l) sx + sin(l w t + phi_l) sy]

with Omega the signal Rabi amplitude (the estimated parameter), Delta the
detuning and (A, w, phi_l) the periodic drive.  dH/dOmega = sx/2, so the
quantum Fisher information of |psi(t)> = U(t)|0> is bounded by t^2.

Three references are provided:

* ``rabi_population``: the closed-form |0> population of the undriven sensor;
* ``ods_qfi``: the undriven QFI from the exact derivative of the matrix
  exponential (``scipy.linalg.expm_frechet``), no finite differences;
* ``integrate``: forward-sensitivity integration with ``solve_ivp``,
  i dpsi/dt = H psi and i dchi/dt = H chi + (sx/2) psi with chi = dpsi/dOmega,
  which gives the driven-sensor QFI with no finite differences, and the
  populations on a time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm_frechet

TWO_PI = 2.0 * math.pi
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def mhz(f: float) -> float:
    """Cyclic MHz -> rad/us."""
    return TWO_PI * f


@dataclass(frozen=True)
class Sensor:
    """Rotating-frame sensing configuration, angular units.

    ``drive_amp`` is the per-tone amplitude A; ``phases`` has one entry per
    harmonic (empty for the undriven sensor).
    """

    omega: float
    delta: float
    drive_amp: float = 0.0
    drive_freq: float = 1.0
    phases: tuple[float, ...] = ()

    def with_drive_amp_error(self, err: float) -> "Sensor":
        return Sensor(self.omega, self.delta, self.drive_amp + err,
                      self.drive_freq, self.phases)


_HALF = mhz(0.5)
_DRIVE = dict(drive_amp=mhz(1.0), drive_freq=mhz(36.54))
_QUAD5 = (0.5 * math.pi,) * 5

#: The scenario presets of the README, restated from their published values
#: and the documented per-preset tone phases.
PRESETS = {
    "ods-resonant": Sensor(_HALF, 0.0),
    "ods-detuned": Sensor(_HALF, _HALF),
    "fds-k1": Sensor(_HALF, _HALF, phases=(math.pi,), **_DRIVE),
    "fds-k3": Sensor(_HALF, _HALF, phases=(2.8508, 2.5662, 2.2602), **_DRIVE),
    "fds-k5": Sensor(
        _HALF, _HALF, phases=(1.7077, 1.3964, 5.4336, 1.8585, 2.0134), **_DRIVE
    ),
    "robustness-amp": Sensor(mhz(0.22), _HALF, phases=_QUAD5, **_DRIVE),
    "dd-off": Sensor(mhz(0.125), _HALF, phases=_QUAD5, **_DRIVE),
}


def rabi_population(omega: float, delta: float, t) -> np.ndarray:
    """P0(t) = 1 - Omega^2/(Omega^2 + Delta^2) sin^2(sqrt(Omega^2 + Delta^2) t / 2)."""
    t = np.asarray(t, dtype=float)
    general = math.hypot(omega, delta)
    if general == 0.0:
        return np.ones_like(t)
    return 1.0 - (omega / general) ** 2 * np.sin(0.5 * general * t) ** 2


def pure_state_qfi(psi: np.ndarray, chi: np.ndarray) -> float:
    """4 (<chi|chi> - |<psi|chi>|^2) for a normalized psi and chi = dpsi/dOmega."""
    return float(4.0 * (np.vdot(chi, chi).real - abs(np.vdot(psi, chi)) ** 2))


def ods_qfi(omega: float, delta: float, t: float) -> float:
    """Undriven-sensor QFI at time t from the Frechet derivative of expm.

    U = exp(-i t H) with H = (Delta/2) sz + (Omega/2) sx; dU/dOmega is the
    Frechet derivative of expm at -i t H in the direction -i t sx/2.
    """
    h = 0.5 * (delta * SZ + omega * SX)
    u, du = expm_frechet(-1j * t * h, -0.5j * t * SX)
    return pure_state_qfi(u[:, 0], du[:, 0])


def _rhs(sensor: Sensor):
    tones = [(l, phase) for l, phase in enumerate(sensor.phases, start=1)]
    w, two_a = sensor.drive_freq, 2.0 * sensor.drive_amp
    cz, half_omega = 0.5 * sensor.delta, 0.5 * sensor.omega
    cos, sin = math.cos, math.sin

    def rhs(t, y):
        cx, cy = half_omega, 0.0
        for l, phase in tones:
            ang = l * w * t + phase
            cx += two_a * cos(ang)
            cy += two_a * sin(ang)
        a0, a1, c0, c1 = y
        h01, h10 = complex(cx, -cy), complex(cx, cy)
        return np.array([
            -1j * (cz * a0 + h01 * a1),
            -1j * (h10 * a0 - cz * a1),
            -1j * (cz * c0 + h01 * c1 + 0.5 * a1),
            -1j * (h10 * c0 - cz * c1 + 0.5 * a0),
        ])

    return rhs


@dataclass(frozen=True)
class Trajectory:
    """States psi and sensitivities chi = dpsi/dOmega on a time grid."""

    times: np.ndarray
    psi: np.ndarray  # (n, 2)
    chi: np.ndarray  # (n, 2)

    @property
    def p0(self) -> np.ndarray:
        return np.abs(self.psi[:, 0]) ** 2

    def qfi(self) -> np.ndarray:
        return np.array([pure_state_qfi(p, c) for p, c in zip(self.psi, self.chi)])


def integrate(sensor: Sensor, times, rtol: float = 1e-9, atol: float = 1e-11
              ) -> Trajectory:
    """Forward-sensitivity integration from |0> at t = 0 through ``times``.

    DOP853 at rtol 1e-9 keeps the state error near 1e-8 and the QFI error
    near 1e-6 us^2 on the few-us intervals the benchmark checks, at least
    two orders below every tolerance it is compared at.
    """
    times = np.asarray(times, dtype=float)
    y0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    sol = solve_ivp(_rhs(sensor), (0.0, float(times[-1])), y0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return Trajectory(times=times, psi=sol.y[:2].T, chi=sol.y[2:].T)

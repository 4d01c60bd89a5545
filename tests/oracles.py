"""Closed forms and reference constructions that the tests check the package
against.  None of them is run by a ``floquet-sensor`` command, so they live
here rather than in ``src/``.

The package builds its specs directly in the frame rotating at the signal
carrier (``build_fds_prime``), where only the detuning Delta enters.  The
lab-frame Hamiltonians and the frame transform live here, with the lab
numbers they need: the sensor resonance omega_0 (``OMEGA_0`` unless given)
and the carrier omega_0 + Delta.  They are the reference that
``build_fds_prime`` is checked against to round-off, and time-dependent specs
for the propagator: with the counter-rotating pairs kept, a rotating-frame
spec without the RWA.

Test files import them as ``from oracles import ...``: pytest puts this
directory on ``sys.path`` when it collects the tests in it.
"""

from __future__ import annotations

import math

import numpy as np

from floquet_sensor import hamiltonian, propagator
from floquet_sensor.hamiltonian import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HamiltonianSpec,
    PauliTerm,
)
from floquet_sensor.metrology import QfiEstimate
from floquet_sensor.params import FloquetDriveParams, SignalParams, mhz_to_angular

#: lab-frame sensor resonance D - gamma_e B0 (rad/us) at a 2870 MHz zero-field
#: splitting, 2.8 MHz/G and a 500 G bias field: 1470 MHz
OMEGA_0 = mhz_to_angular(2870.0) - mhz_to_angular(2.8) * 500.0


# ---------------------------------------------------------------- Hamiltonians

def h_matrix(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """2x2 Hermitian matrix of ``spec`` at time t."""
    cx, cy, cz = spec.coefficients(float(t))
    return cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z


def carrier(signal: SignalParams, omega_0: float = OMEGA_0) -> float:
    """Lab-frame signal carrier omega_s = omega_0 + Delta, rad/us."""
    return omega_0 + signal.delta


def build_lab_ods(signal: SignalParams, omega_0: float = OMEGA_0) -> HamiltonianSpec:
    """Lab-frame sensing Hamiltonian of the undriven sensor.

    H(t) = -(omega_0/2) sigma_z + omega_s_amp * cos(omega_s t) sigma_x, at the
    carrier omega_s = omega_0 + Delta.  A zero signal amplitude yields the
    bare sensor term alone.
    """
    terms = [PauliTerm("z", -0.5 * omega_0)]
    if signal.omega_s_amp != 0.0:
        terms.append(PauliTerm("x", signal.omega_s_amp, carrier(signal, omega_0)))
    return HamiltonianSpec(tuple(terms))


def build_lab_fds(
    signal: SignalParams, drive: FloquetDriveParams, omega_0: float = OMEGA_0
) -> HamiltonianSpec:
    """Lab-frame Hamiltonian of the periodically driven sensor.

    On top of the undriven sensing Hamiltonian, each drive harmonic l adds a
    lab tone 4*omega_F_amp * cos[(omega_s - l*omega_F) t] sigma_x (the factor
    4 maps the lab amplitude onto the rotating-frame convention).
    """
    terms = list(build_lab_ods(signal, omega_0).terms)
    ws = carrier(signal, omega_0)
    for l in range(1, drive.harmonics + 1):
        if drive.omega_F_amp != 0.0:
            terms.append(PauliTerm("x", 4.0 * drive.omega_F_amp,
                                   ws - l * drive.omega_F_freq, -drive.tone_phase(l)))
    return HamiltonianSpec(tuple(terms))


def _rotating_pair(amp: float, freq: float, phase: float) -> list[PauliTerm]:
    """``hamiltonian._rotating_pair``, with zero-amplitude pieces dropped.

    A zero frequency collapses to x and y constants, since a y tone at phase
    - pi/2 would keep a round-off sigma_y residue where sin(phase) is 0.
    """
    if amp == 0.0:
        return []
    if freq == 0.0:
        pair = (PauliTerm("x", amp * math.cos(phase)), PauliTerm("y", amp * math.sin(phase)))
        return [term for term in pair if term.amplitude != 0.0]
    return hamiltonian._rotating_pair(amp, freq, phase)


def to_signal_rotating(
    spec: HamiltonianSpec, signal: SignalParams, omega_0: float = OMEGA_0,
    counter_rotating: bool = False,
) -> HamiltonianSpec:
    """Transform a lab-frame spec into the frame rotating at the signal
    carrier omega_s = omega_0 + Delta.

    The frame is generated by exp(-i*omega_s*t*sigma_z/2).  Constant sigma_z
    terms commute with the rotation and pick up the single +omega_s/2 shift;
    each lab sigma_x cosine at carrier w_c becomes a co-rotating pair at
    |omega_s - w_c|, followed, with ``counter_rotating``, by its
    counter-rotating pair at omega_s + w_c, which the rotating-wave
    approximation (the default) drops.  Lab terms outside this family are
    rejected.
    """
    ws = carrier(signal, omega_0)
    terms: list[PauliTerm] = []
    z_const = 0.5 * ws  # from i (dU/dt) U^dagger
    for term in spec.terms:
        if term.axis == "z" and term.frequency == 0.0:
            z_const += term.amplitude * math.cos(term.phase)
        elif term.axis == "x":
            amp, wc, ph = term.amplitude, term.frequency, term.phase
            terms.extend(_rotating_pair(0.5 * amp, ws - wc, -ph))
            if counter_rotating:
                terms.extend(_rotating_pair(0.5 * amp, ws + wc, ph))
        else:
            raise ValueError(
                f"cannot transform lab term {term!r}; only constant sigma_z and "
                "cosine sigma_x terms arise in this sensing model"
            )
    terms.insert(0, PauliTerm("z", z_const))
    return HamiltonianSpec(tuple(terms))


def to_signal_rotating_full(
    spec: HamiltonianSpec, signal: SignalParams, omega_0: float = OMEGA_0
) -> HamiltonianSpec:
    """``to_signal_rotating`` without the rotating-wave approximation: each
    co-rotating pair directly followed by its counter-rotating pair."""
    return to_signal_rotating(spec, signal, omega_0, counter_rotating=True)


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


# ---------------------------------------------------------------- noise

def ou_trajectories(mids, normals: np.ndarray, tau_c: float) -> np.ndarray:
    """Unit-variance Ornstein-Uhlenbeck trajectories (r, S) from the standard
    normals (r, S), one segment at a time: z_0 = n_0 and
    z_s = rho z_(s-1) + sqrt(1 - rho^2) n_s, rho = exp(-(mids[s] - mids[s-1]) / tau_c).
    """
    z = np.empty(normals.shape)
    z[:, 0] = normals[:, 0]
    for s in range(1, normals.shape[1]):
        rho = math.exp(-(mids[s] - mids[s - 1]) / tau_c)
        z[:, s] = rho * z[:, s - 1] + math.sqrt(1.0 - rho * rho) * normals[:, s]
    return z


# ---------------------------------------------------------------- propagation

def quat_reduce_componentwise(qs: np.ndarray) -> np.ndarray:
    """Chronological product q[..., n-1, :] ... q[..., 0, :] by pairwise
    reduction, each level through the component products of ``_quat_mul``:
    the form ``propagator._quat_reduce`` took before its levels became one
    exact table product and one ``einsum``."""
    while qs.shape[-2] > 1:
        n = qs.shape[-2]
        out = np.empty(qs.shape[:-2] + ((n + 1) // 2, 4))
        propagator._quat_mul(qs[..., 1::2, :], qs[..., 0:n - 1:2, :], out[..., :n // 2, :])
        if n % 2:
            out[..., -1, :] = qs[..., -1, :]
        qs = out
    return qs[..., 0, :]


def doubled_unitary(spec: HamiltonianSpec, t0: float, t1: float, n: int, tol: float,
                    z_offsets) -> np.ndarray:
    """Quaternion propagator over [t0, t1] by step doubling one whole pass at a
    time: passes of n, 2n, 4n, ... substeps over the whole interval, each one
    kernel call, until two agree to ``tol``.  The loop of
    ``propagator._stepped_unitary`` before each round became one call over
    the equal parts of the interval."""
    u_prev = propagator._interval_unitary(spec, t0, t1, n, z_offsets)
    residual = math.inf
    for _ in range(24):
        n *= 2
        assert (t1 - t0) / n >= 1e-13, "substep size underflow"
        u_next = propagator._interval_unitary(spec, t0, t1, n, z_offsets)
        d = u_next - u_prev
        step = float(np.max(np.maximum(np.hypot(d[..., 0], d[..., 3]),
                                       np.hypot(d[..., 1], d[..., 2]))))
        if step < tol:
            return u_next
        assert step < residual, f"step doubling stalled at {n} substeps"
        residual, u_prev = step, u_next
    raise AssertionError("step doubling did not converge")

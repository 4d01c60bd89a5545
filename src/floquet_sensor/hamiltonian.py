"""Hamiltonian construction for the driven two-level sensor.

A Hamiltonian is represented as a frame-tagged sum of Pauli terms with
constant or cosine envelopes (``HamiltonianSpec``).  Builders produce the
lab-frame sensing Hamiltonians, the transform to the signal rotating frame
(with or without the rotating-wave approximation) and the first-order
time-averaged description of the periodic drive: kick operator, effective
Hamiltonian and quasi-energy shift.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

from .params import (
    DEFAULT_VALIDITY_FACTOR,
    ControlErrorParams,
    FloquetDriveParams,
    SensorParams,
    SignalParams,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


class Frame(str, enum.Enum):
    LAB = "lab"
    SIGNAL_ROTATING = "signal_rotating"
    FLOQUET_ROTATING = "floquet_rotating"


@dataclass(frozen=True)
class Constant:
    """Time-independent envelope c(t) = value."""

    value: float


@dataclass(frozen=True)
class Cosine:
    """Sinusoidal envelope c(t) = amplitude * cos(frequency*t + phase).

    All angular units; a phase of -pi/2 yields a sine.
    """

    amplitude: float
    frequency: float
    phase: float = 0.0


Envelope = Union[Constant, Cosine]


@dataclass(frozen=True)
class PauliTerm:
    """One Pauli axis with a real-valued envelope."""

    axis: str
    envelope: Envelope

    def __post_init__(self):
        if self.axis not in _PAULI:
            raise ValueError(f"axis must be one of x, y, z, got {self.axis!r}")

    def coefficient(self, t):
        """Envelope value at time(s) t (scalar or ndarray)."""
        env = self.envelope
        if isinstance(env, Constant):
            return env.value * np.ones_like(np.asarray(t, dtype=float))
        return env.amplitude * np.cos(env.frequency * np.asarray(t, dtype=float) + env.phase)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Frame-tagged sum of Pauli terms; evaluates to a 2x2 Hermitian matrix.

    ``metadata`` records the originating parameter sets for traceability and
    plays no role in evaluation.
    """

    frame: Frame
    terms: tuple[PauliTerm, ...]
    metadata: dict = field(default_factory=dict)

    def coefficients(self, t):
        """Pauli coefficient vector(s) (cx, cy, cz) at time(s) t.

        Returns shape (3,) for scalar t, (n, 3) for an array of n times.
        """
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape + (3,))
        for term in self.terms:
            out[..., _AXIS_INDEX[term.axis]] += term.coefficient(t_arr)
        return out

    def matrix(self, t: float) -> np.ndarray:
        """2x2 Hermitian matrix at time t."""
        cx, cy, cz = self.coefficients(float(t))
        return cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z

    def max_frequency(self) -> float:
        """Fastest envelope frequency present (rad/us); 0 for constant specs."""
        freqs = [abs(term.envelope.frequency) for term in self.terms
                 if isinstance(term.envelope, Cosine)]
        return max(freqs, default=0.0)

    @cached_property
    def fundamental(self) -> tuple[float, float]:
        """(f0, defect): the periodicity of the spec, both in rad/us.

        f0 is the smallest nonzero envelope frequency and ``defect`` the
        largest distance of any envelope frequency from an integer multiple
        of f0, so the spec repeats with period 2*pi/f0 up to a phase drift of
        ``defect`` rad/us.  Specs without oscillating terms give (0, 0).
        Computed once per spec.
        """
        freqs = [abs(term.envelope.frequency) for term in self.terms
                 if isinstance(term.envelope, Cosine)]
        freqs = [f for f in freqs if f != 0.0]
        if not freqs:
            return 0.0, 0.0
        f0 = min(freqs)
        return f0, max(abs(f - round(f / f0) * f0) for f in freqs)

    def amplitude_scale(self) -> float:
        """Sum of envelope magnitudes, a bound on the rotation rate (rad/us)."""
        total = 0.0
        for term in self.terms:
            env = term.envelope
            total += abs(env.value) if isinstance(env, Constant) else abs(env.amplitude)
        return total

    def with_z_offset(self, offset: float) -> "HamiltonianSpec":
        """New spec with an extra constant sigma_z term (e.g. detuning noise)."""
        if offset == 0.0:
            return self
        return HamiltonianSpec(
            frame=self.frame,
            terms=self.terms + (PauliTerm("z", Constant(offset)),),
            metadata=self.metadata,
        )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_lab_ods(sensor: SensorParams, signal: SignalParams) -> HamiltonianSpec:
    """Lab-frame sensing Hamiltonian of the undriven sensor.

    H(t) = -(omega_0/2) sigma_z + omega_s_amp * cos(omega_s_freq t) sigma_x.
    A zero signal amplitude yields the bare sensor term alone.
    """
    terms = [PauliTerm("z", Constant(-0.5 * sensor.omega_0))]
    if signal.omega_s_amp != 0.0:
        terms.append(
            PauliTerm("x", Cosine(signal.omega_s_amp, signal.omega_s_freq))
        )
    return HamiltonianSpec(
        frame=Frame.LAB,
        terms=tuple(terms),
        metadata={"sensor": sensor, "signal": signal},
    )


def build_lab_fds(
    sensor: SensorParams,
    signal: SignalParams,
    drive: FloquetDriveParams,
    errors: ControlErrorParams = ControlErrorParams(),
) -> HamiltonianSpec:
    """Lab-frame Hamiltonian of the periodically driven sensor.

    On top of the undriven sensing Hamiltonian, each drive harmonic l adds a
    lab tone 4*omega_F_amp * cos[(omega_s - l*omega_F) t] sigma_x (the factor
    4 maps the lab amplitude onto the rotating-frame convention).
    """
    drv = drive.perturbed(errors)
    terms = list(build_lab_ods(sensor, signal).terms)
    for l in range(1, drv.harmonics + 1):
        if drv.omega_F_amp != 0.0:
            terms.append(
                PauliTerm(
                    "x",
                    Cosine(
                        4.0 * drv.omega_F_amp,
                        signal.omega_s_freq - l * drv.omega_F_freq,
                        -drv.tone_phase(l),
                    ),
                )
            )
    return HamiltonianSpec(
        frame=Frame.LAB,
        terms=tuple(terms),
        metadata={"sensor": sensor, "signal": signal, "drive": drv},
    )


def to_signal_rotating(
    spec: HamiltonianSpec, signal: SignalParams, apply_rwa: bool = True
) -> HamiltonianSpec:
    """Transform a lab-frame spec into the frame rotating at the signal carrier.

    The frame is generated by exp(-i*omega_s*t*sigma_z/2).  Constant sigma_z
    terms commute with the rotation and pick up the single +omega_s/2 shift;
    each lab sigma_x cosine at carrier w_c splits into a co-rotating pair at
    |omega_s - w_c| and, with ``apply_rwa`` off, a counter-rotating pair at
    omega_s + w_c.  Lab terms outside this family are rejected.
    """
    if spec.frame is not Frame.LAB:
        raise ValueError(f"expected a lab-frame spec, got frame {spec.frame.value!r}")
    ws = signal.omega_s_freq
    terms: list[PauliTerm] = []
    z_const = 0.5 * ws  # from i (dU/dt) U^dagger
    for term in spec.terms:
        env = term.envelope
        if term.axis == "z" and isinstance(env, Constant):
            z_const += env.value
        elif term.axis == "x" and isinstance(env, Cosine):
            amp, wc, ph = env.amplitude, env.frequency, env.phase
            # co-rotating pair at omega_s - w_c
            terms.extend(_rotating_pair(0.5 * amp, ws - wc, -ph))
            if not apply_rwa:
                # counter-rotating pair at omega_s + w_c
                terms.extend(_rotating_pair(0.5 * amp, ws + wc, ph))
        else:
            raise ValueError(
                f"cannot transform lab term ({term.axis}, {env!r}); only constant "
                "sigma_z and cosine sigma_x terms arise in this sensing model"
            )
    terms.insert(0, PauliTerm("z", Constant(z_const)))
    metadata = dict(spec.metadata)
    metadata["rwa"] = apply_rwa
    return HamiltonianSpec(
        frame=Frame.SIGNAL_ROTATING, terms=tuple(terms), metadata=metadata
    )


def _rotating_pair(amp: float, freq: float, phase: float) -> list[PauliTerm]:
    """Terms amp*[cos(freq t + phase) sigma_x + sin(freq t + phase) sigma_y].

    A zero frequency collapses to constants; zero-amplitude pieces are dropped.
    """
    if amp == 0.0:
        return []
    if freq == 0.0:
        out = []
        cx = amp * math.cos(phase)
        cy = amp * math.sin(phase)
        if cx != 0.0:
            out.append(PauliTerm("x", Constant(cx)))
        if cy != 0.0:
            out.append(PauliTerm("y", Constant(cy)))
        return out
    return [
        PauliTerm("x", Cosine(amp, freq, phase)),
        PauliTerm("y", Cosine(amp, freq, phase - 0.5 * math.pi)),
    ]


def build_fds_prime(
    sensor: SensorParams,
    signal: SignalParams,
    drive: FloquetDriveParams,
    errors: ControlErrorParams = ControlErrorParams(),
) -> HamiltonianSpec:
    """Rotating-frame driven-sensor Hamiltonian (RWA applied).

    Convenience constructor equal to
    ``to_signal_rotating(build_lab_fds(...), signal)``:

        (Delta/2) sigma_z + (omega_s_amp/2) sigma_x
        + 2*omega_F_amp * sum_l [cos(l omega_F t) sigma_x + sin(l omega_F t) sigma_y]
    """
    return to_signal_rotating(build_lab_fds(sensor, signal, drive, errors), signal)


# ---------------------------------------------------------------------------
# first-order time-averaged description of the drive
# ---------------------------------------------------------------------------

def kick_vector(drive: FloquetDriveParams, t) -> np.ndarray:
    """Pauli vector k(t) of the first-order kick operator K(t) = k(t).sigma.

    k(t) = (2*omega_F_amp/omega_F_freq) * sum_l (1/l) *
           (sin(l omega_F t + phi_l), -cos(l omega_F t + phi_l), 0)

    K(t) is Hermitian and periodic with the drive period, so exp(iK) is the
    unitary micromotion frame change.  Accepts scalar or array t and returns
    shape (3,) or (n, 3).
    """
    t_arr = np.asarray(t, dtype=float)
    c = 2.0 * drive.omega_F_amp / drive.omega_F_freq
    out = np.zeros(t_arr.shape + (3,))
    for l in range(1, drive.harmonics + 1):
        phase = l * drive.omega_F_freq * t_arr + drive.tone_phase(l)
        out[..., 0] += (c / l) * np.sin(phase)
        out[..., 1] -= (c / l) * np.cos(phase)
    return out


def kick_operator(drive: FloquetDriveParams, t: float) -> np.ndarray:
    """First-order kick operator K(t) as a 2x2 Hermitian matrix."""
    kx, ky, kz = kick_vector(drive, float(t))
    return kx * SIGMA_X + ky * SIGMA_Y + kz * SIGMA_Z


def quasi_energy_shift(drive: FloquetDriveParams) -> float:
    """Drive-induced shift of the effective resonance, rad/us.

    8 * sum_{l=1}^{k} omega_F_amp^2 / (l * omega_F_freq); non-negative and
    non-decreasing in the harmonic count.
    """
    return (
        8.0
        * drive.omega_F_amp**2
        / drive.omega_F_freq
        * sum(1.0 / l for l in range(1, drive.harmonics + 1))
    )


def effective_coefficients(
    sensor: SensorParams, signal: SignalParams, drive: FloquetDriveParams
) -> tuple[float, float]:
    """(sigma_x, sigma_z) coefficients of the first-order effective Hamiltonian.

    The sigma_z coefficient is (Delta - Delta_F)/2 where Delta_F is the
    quasi-energy shift, i.e. the drive retunes the sensor without touching
    the signal coupling.
    """
    delta = signal.detuning(sensor)
    return 0.5 * signal.omega_s_amp, 0.5 * (delta - quasi_energy_shift(drive))


def effective_hamiltonian(
    sensor: SensorParams, signal: SignalParams, drive: FloquetDriveParams
) -> np.ndarray:
    """First-order time-independent effective Hamiltonian, 2x2 Hermitian.

    Warns if the drive frequency is not comfortably above the other rates
    (ratio below ``DEFAULT_VALIDITY_FACTOR``), where the first-order
    average becomes unreliable.
    """
    delta = signal.detuning(sensor)
    ratio = drive.validity_ratio(signal.omega_s_amp, delta)
    if ratio < DEFAULT_VALIDITY_FACTOR:
        warnings.warn(
            f"drive frequency exceeds competing rates only by {ratio:.2f}x "
            f"(recommended >= {DEFAULT_VALIDITY_FACTOR:g}x); first-order "
            "effective Hamiltonian may be inaccurate",
            stacklevel=2,
        )
    cx, cz = effective_coefficients(sensor, signal, drive)
    return cx * SIGMA_X + cz * SIGMA_Z

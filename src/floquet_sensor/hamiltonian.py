"""Hamiltonian construction for the driven two-level sensor.

A Hamiltonian is represented as a frame-tagged sum of Pauli terms, each a
tone amplitude * cos(frequency*t + phase) on one axis, with the constants
as its zero-frequency tones (``HamiltonianSpec``).  Builders produce the
lab-frame sensing Hamiltonians, the transform to the signal rotating frame
(with or without the rotating-wave approximation) and the first-order
time-averaged description of the periodic drive: kick operator, quasi-energy
shift and the coefficients of the effective Hamiltonian.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import FloquetDriveParams, SensorParams, SignalParams

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}


class Frame(str, enum.Enum):
    LAB = "lab"
    SIGNAL_ROTATING = "signal_rotating"


@dataclass(frozen=True)
class PauliTerm:
    """One Pauli axis with the coefficient amplitude * cos(frequency*t + phase).

    All angular units; a zero frequency gives a constant term and a phase of
    -pi/2 a sine.
    """

    axis: str
    amplitude: float
    frequency: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if self.axis not in _PAULI:
            raise ValueError(f"axis must be one of x, y, z, got {self.axis!r}")

    def coefficient(self, t):
        """Coefficient value at time(s) t (scalar or ndarray)."""
        t = np.asarray(t, dtype=float)
        if self.frequency == 0.0:  # a constant: one cos, not one per time
            return self.amplitude * math.cos(self.phase) * np.ones_like(t)
        return self.amplitude * np.cos(self.frequency * t + self.phase)


@dataclass(frozen=True)
class HamiltonianSpec:
    """Frame-tagged sum of Pauli terms; evaluates to a 2x2 Hermitian matrix."""

    frame: Frame
    terms: tuple[PauliTerm, ...]

    def coefficients(self, t):
        """Pauli coefficient vector(s) (cx, cy, cz) at time(s) t.

        Returns shape (3,) for scalar t, (n, 3) for an array of n times.
        The constants are summed once.  The rotating pairs, grouped by base
        frequency f (``_tones``), sum to one phasor polynomial per group,
        cx + i cy = sum_k c_k z^k with z = exp(i f t), evaluated by Horner's
        rule: one cos and one sin of f t per group, whatever its harmonics.
        """
        t_arr = np.asarray(t, dtype=float)
        constants, groups, singles = self._tones
        out = np.empty(t_arr.shape + (3,))
        out[...] = constants
        for frequency, coefs in groups:
            arg = frequency * t_arr
            z = np.empty(t_arr.shape, dtype=complex)
            z.real, z.imag = np.cos(arg), np.sin(arg)
            phasor = coefs[-1] * z
            for c in coefs[-2::-1]:
                phasor += c
                phasor *= z
            out[..., 0] += phasor.real
            out[..., 1] += phasor.imag
        for term in singles:
            out[..., _AXIS_INDEX[term.axis]] += term.coefficient(t_arr)
        return out

    @cached_property
    def _tones(self) -> tuple[np.ndarray, list[tuple[float, list[complex]]], list[PauliTerm]]:
        """The terms grouped for ``coefficients``, once per spec.

        (constants, groups, singles): the summed (x, y, z) vector of the
        zero-frequency terms; the rotating pairs, each an x tone directly
        followed by the y tone of the same amplitude and frequency at the x
        phase - pi/2 (as ``_rotating_pair`` builds them), so amplitude *
        (cos, sin) of one argument; and every other oscillating term.  The
        pairs are taken in order of |frequency|, and a pair at exactly k times
        the base frequency f of an earlier group (integer k >= 1,
        ``k * f == frequency``) joins that group as its coefficient
        c_k = amplitude * exp(i phase); any other pair starts a group of its
        own.  A group is (f, [c_1, ..., c_K]), with zeros for the missing
        harmonics.
        """
        constants = np.zeros(3)
        pairs, singles = [], []
        terms, i = self.terms, 0
        while i < len(terms):
            term = terms[i]
            partner = PauliTerm("y", term.amplitude, term.frequency, term.phase - 0.5 * math.pi)
            if term.frequency == 0.0:
                constants[_AXIS_INDEX[term.axis]] += term.coefficient(0.0)
            elif term.axis == "x" and terms[i + 1:i + 2] == (partner,):
                pairs.append(term)
                i += 1
            else:
                singles.append(term)
            i += 1
        groups: dict[float, dict[int, complex]] = {}
        for term in sorted(pairs, key=lambda term: abs(term.frequency)):
            c = term.amplitude * cmath.exp(1j * term.phase)
            for f, coefs in groups.items():
                k = round(term.frequency / f)
                if k >= 1 and k * f == term.frequency:
                    coefs[k] = coefs.get(k, 0.0) + c
                    break
            else:
                groups[term.frequency] = {1: c}
        return constants, [
            (f, [coefs.get(k, 0.0) for k in range(1, max(coefs) + 1)])
            for f, coefs in groups.items()
        ], singles

    def matrix(self, t: float) -> np.ndarray:
        """2x2 Hermitian matrix at time t."""
        cx, cy, cz = self.coefficients(float(t))
        return cx * SIGMA_X + cy * SIGMA_Y + cz * SIGMA_Z

    def max_frequency(self) -> float:
        """Fastest term frequency present (rad/us); 0 for constant specs."""
        return max((abs(term.frequency) for term in self.terms), default=0.0)

    @cached_property
    def fundamental(self) -> tuple[float, float]:
        """(f0, defect): the periodicity of the spec, both in rad/us.

        f0 is the smallest nonzero term frequency and ``defect`` the
        largest distance of any term frequency from an integer multiple
        of f0, so the spec repeats with period 2*pi/f0 up to a phase drift of
        ``defect`` rad/us.  Specs without oscillating terms give (0, 0).
        Computed once per spec.
        """
        freqs = [abs(term.frequency) for term in self.terms if term.frequency != 0.0]
        if not freqs:
            return 0.0, 0.0
        f0 = min(freqs)
        return f0, max(abs(f - round(f / f0) * f0) for f in freqs)

    def amplitude_scale(self) -> float:
        """Sum of term amplitude magnitudes, a bound on the rotation rate (rad/us)."""
        return sum(abs(term.amplitude) for term in self.terms)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_lab_ods(sensor: SensorParams, signal: SignalParams) -> HamiltonianSpec:
    """Lab-frame sensing Hamiltonian of the undriven sensor.

    H(t) = -(omega_0/2) sigma_z + omega_s_amp * cos(omega_s_freq t) sigma_x.
    A zero signal amplitude yields the bare sensor term alone.
    """
    terms = [PauliTerm("z", -0.5 * sensor.omega_0)]
    if signal.omega_s_amp != 0.0:
        terms.append(PauliTerm("x", signal.omega_s_amp, signal.omega_s_freq))
    return HamiltonianSpec(frame=Frame.LAB, terms=tuple(terms))


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
        if term.axis == "z" and term.frequency == 0.0:
            z_const += term.amplitude * math.cos(term.phase)
        elif term.axis == "x":
            amp, wc, ph = term.amplitude, term.frequency, term.phase
            # co-rotating pair at omega_s - w_c
            terms.extend(_rotating_pair(0.5 * amp, ws - wc, -ph))
            if not apply_rwa:
                # counter-rotating pair at omega_s + w_c
                terms.extend(_rotating_pair(0.5 * amp, ws + wc, ph))
        else:
            raise ValueError(
                f"cannot transform lab term {term!r}; only constant sigma_z and "
                "cosine sigma_x terms arise in this sensing model"
            )
    terms.insert(0, PauliTerm("z", z_const))
    return HamiltonianSpec(frame=Frame.SIGNAL_ROTATING, terms=tuple(terms))


def _rotating_pair(amp: float, freq: float, phase: float) -> list[PauliTerm]:
    """Terms amp*[cos(freq t + phase) sigma_x + sin(freq t + phase) sigma_y].

    A zero frequency collapses to x and y constants, since a y tone at phase
    - pi/2 would keep a round-off sigma_y residue where sin(phase) is 0;
    zero-amplitude pieces are dropped.
    """
    if amp == 0.0:
        return []
    if freq == 0.0:
        pair = (PauliTerm("x", amp * math.cos(phase)), PauliTerm("y", amp * math.sin(phase)))
        return [term for term in pair if term.amplitude != 0.0]
    return [PauliTerm("x", amp, freq, phase), PauliTerm("y", amp, freq, phase - 0.5 * math.pi)]


def build_fds_prime(
    sensor: SensorParams, signal: SignalParams, drive: FloquetDriveParams
) -> HamiltonianSpec:
    """Rotating-frame driven-sensor Hamiltonian (RWA applied).

    ``to_signal_rotating(build_lab_fds(...), signal)``, with the drive tones
    at exact multiples of one frequency:

        (Delta/2) sigma_z + (omega_s_amp/2) sigma_x
        + 2*omega_F_amp * sum_l [cos(l omega_F t) sigma_x + sin(l omega_F t) sigma_y]

    The transform forms each tone frequency as omega_s - (omega_s - l omega_F),
    which misses l times the first one by round-off under drive errors and
    so breaks the spec's periodicity.  Here the first tone's frequency f1 is
    formed that way and tone l is put at l * f1, so the spec is periodic in
    2*pi/f1 with no frequency defect, and it equals the transform bit for bit
    wherever the transform's tones are already exact multiples of f1 (at the
    presets' default drives).
    """
    ws = signal.omega_s_freq
    f1 = ws - (ws - drive.omega_F_freq)
    terms = list(to_signal_rotating(build_lab_ods(sensor, signal), signal).terms)
    for l in range(1, drive.harmonics + 1):
        terms.extend(_rotating_pair(2.0 * drive.omega_F_amp, l * f1, drive.tone_phase(l)))
    return HamiltonianSpec(frame=Frame.SIGNAL_ROTATING, terms=tuple(terms))


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

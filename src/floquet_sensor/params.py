"""Parameter types and unit conventions for the two-level spin sensor and
its fluorescence readout.

Internal convention: every frequency-like quantity is an *angular* frequency
in rad/us and times are in us.  User-facing configuration (the CLI) works
in cyclic MHz and converts once at the boundary with ``mhz_to_angular`` /
``angular_to_mhz``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def mhz_to_angular(f_mhz: float) -> float:
    """Cyclic MHz -> angular rad/us."""
    return TWO_PI * f_mhz


def angular_to_mhz(omega: float) -> float:
    """Angular rad/us -> cyclic MHz."""
    return omega / TWO_PI


def _require_finite(name: str, values) -> None:
    """Raise ``ValueError`` naming ``name`` if any entry of ``values`` is NaN or infinite."""
    values = np.asarray(values)
    finite = np.isfinite(values)
    if not finite.all():
        bad = values[~finite] if values.ndim else values
        raise ValueError(f"{name} must be finite, got {bad.flat[0].item()!r}")


def _require_count(name: str, value, least: int = 1) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class ReadoutModel:
    """Fluorescence readout statistics.

    count_rate in counts/s, t_det in us, contrast dimensionless.  The bright
    (|0>) reference mean per shot follows from the first two.
    """

    count_rate: float = 9.5e4
    t_det: float = 0.94
    contrast: float = 0.13

    def __post_init__(self):
        _require_finite("count_rate", self.count_rate)
        _require_finite("t_det", self.t_det)
        if not 0.0 < self.contrast < 1.0:
            raise ValueError("contrast must lie in (0, 1)")
        if self.count_rate <= 0 or self.t_det <= 0:
            raise ValueError("count rate and detection time must be positive")

    @property
    def mu_bright(self) -> float:
        return self.count_rate * self.t_det * 1e-6

    def mean_counts(self, p0):
        """Poisson mean for a state with |0> population p0 (scalar or array)."""
        return self.mu_bright * (1.0 - self.contrast * (1.0 - p0))


@dataclass(frozen=True)
class SignalParams:
    """Transverse microwave signal: Rabi amplitude and detuning.

    ``omega_s_amp`` is the Rabi amplitude (the quantity being estimated),
    ``delta`` the detuning of the carrier from the sensor resonance.  Both in
    rad/us.
    """

    omega_s_amp: float
    delta: float

    def __post_init__(self):
        _require_finite("omega_s_amp", self.omega_s_amp)
        _require_finite("delta", self.delta)
        if self.omega_s_amp < 0:
            raise ValueError("signal Rabi amplitude must be >= 0")


@dataclass(frozen=True)
class FloquetDriveParams:
    """Periodic control drive: amplitude, fundamental frequency and harmonic count.

    The drive consists of ``harmonics`` tones at l*omega_F_freq, l = 1..k, each
    of amplitude ``omega_F_amp`` (rotating-frame convention).  ``phases`` are
    per-tone phase offsets (radians); ``None`` means the plain all-cosine
    convention.  Tone phases are experimentally free and shift the switch-on
    micromotion kick without affecting the quasi-energy shift.
    """

    omega_F_amp: float
    omega_F_freq: float
    harmonics: int = 1
    phases: tuple[float, ...] | None = None

    def __post_init__(self):
        _require_finite("omega_F_amp", self.omega_F_amp)
        _require_finite("omega_F_freq", self.omega_F_freq)
        if self.omega_F_freq <= 0:
            raise ValueError("drive frequency must be > 0")
        if self.omega_F_amp < 0:
            raise ValueError("drive amplitude must be >= 0")
        _require_count("harmonics", self.harmonics)
        if self.phases is not None and len(self.phases) != self.harmonics:
            raise ValueError("need one tone phase per harmonic")
        _require_finite("phases", () if self.phases is None else self.phases)

    def tone_phase(self, l: int) -> float:
        """Phase offset of harmonic l (1-based)."""
        return 0.0 if self.phases is None else self.phases[l - 1]

    @property
    def period(self) -> float:
        """Drive period 2*pi/omega_F, us."""
        return TWO_PI / self.omega_F_freq

    def validity_ratio(self, omega_s_amp: float, delta: float) -> float:
        """Ratio of drive frequency to the fastest competing rate.

        The effective (time-averaged) description requires this ratio to be
        large (at least about 10).  A zero competing rate returns ``inf``.
        """
        scale = max(self.omega_F_amp, omega_s_amp, abs(delta))
        if scale == 0:
            return math.inf
        return self.omega_F_freq / scale

    def perturbed(
        self, amp_error: float = 0.0, freq_error: float = 0.0
    ) -> "FloquetDriveParams":
        """The drive with additive amplitude and frequency errors, rad/us.

        Raises
        ------
        ValueError
            If the perturbed amplitude is negative or the perturbed
            frequency is non-positive.
        """
        amp = self.omega_F_amp + amp_error
        freq = self.omega_F_freq + freq_error
        if amp < 0:
            raise ValueError(f"perturbed drive amplitude is negative ({amp:g} rad/us)")
        return FloquetDriveParams(
            omega_F_amp=amp,
            omega_F_freq=freq,
            harmonics=self.harmonics,
            phases=self.phases,
        )

"""Named end-to-end scenarios: Rabi scans, Fisher-information scaling,
control-error robustness sweeps and dynamical-decoupling runs under
dephasing noise.

Scenario presets bundle the sensing configuration (sensor, signal, drive)
under the names the command-line interface exposes.  The scan engine
propagates a batch of noise realizations through the pulse sequence
(polarize, wait, sense with optional pi pulses, detect), treating the
detuning noise as constant across each inter-event segment (the correlation
time is far longer than any segment) and applying pi pulses as instantaneous
rotations about the drive's micromotion-dressed axis.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np
from scipy.optimize import curve_fit

from .hamiltonian import (
    HamiltonianSpec,
    build_fds_prime,
    build_lab_ods,
    kick_vector,
    to_signal_rotating,
)
from .measurement import (
    MonteCarloConfig,
    ReadoutModel,
    _estimate_p0_from_total,
    default_omega_grid,
    qfi_pipeline,
)
from .metrology import QfiEstimate, qfi_exact
from .params import (
    TWO_PI,
    ControlErrorParams,
    FloquetDriveParams,
    SensorParams,
    SignalParams,
    mhz_to_angular,
)
from .propagator import (
    PropagatorOptions,
    StateVector,
    _pauli_exp,
    evolve,
    interval_unitary,
)

# Fig.-style sequence timing defaults (us)
POLARIZE_DURATION = 5.0
WAIT_DURATION = 0.3
DETECT_DURATION = 0.94

# Per-harmonic drive tone phases, tuned once against the exact-QFI oracle and
# frozen.  The all-cosine convention puts the switch-on micromotion kick
# perpendicular to the measurement geodesic and costs several percent of
# Fisher information; these patterns keep the sensing near-optimal.
K1_PHASES = (math.pi,)
K3_PHASES = (2.8508, 2.5662, 2.2602)
K5_PHASES = (1.7077, 1.3964, 5.4336, 1.8585, 2.0134)

#: detuning-noise std (rad/us) reproducing a 17.9 us fitted decay on the
#: dd-off preset with the default OU correlation time; from calibrate_noise
DD_SIGMA_Z_DEFAULT = 0.7683

#: default OU correlation time (us)
DD_TAU_C_DEFAULT = 50.0

# integration settings for noise-ensemble scans: statistical error dominates,
# so a fixed (non-refined) resolution is used
SCAN_OPTS = PropagatorOptions(rel_tol=1e-6, adaptive=False)
ORACLE_OPTS = PropagatorOptions(rel_tol=1e-8)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A named sensing configuration resolvable to a rotating-frame spec."""

    name: str
    sensor: SensorParams
    signal: SignalParams
    drive: FloquetDriveParams | None = None
    errors: ControlErrorParams = ControlErrorParams()

    def rotating_spec(self, omega_s_amp: float | None = None) -> HamiltonianSpec:
        sig = self.signal if omega_s_amp is None else self.signal.with_amp(omega_s_amp)
        if self.drive is None:
            return to_signal_rotating(build_lab_ods(self.sensor, sig), sig)
        return build_fds_prime(self.sensor, sig, self.drive, self.errors)

    def state(self, omega_s_amp, t, opts: PropagatorOptions = ORACLE_OPTS) -> StateVector:
        spec = self.rotating_spec(float(omega_s_amp))
        return evolve(spec, StateVector.ket0(), [float(t)], opts).states[-1]

    def exact_qfi(self, t: float, opts: PropagatorOptions = ORACLE_OPTS) -> QfiEstimate:
        return qfi_exact(lambda w: self.state(w, t, opts), self.signal.omega_s_amp)

    def with_errors(self, errors: ControlErrorParams) -> "Scenario":
        return replace(self, errors=errors)


def make_preset(name: str, **overrides) -> Scenario:
    """Build a named scenario preset; keyword overrides replace defaults.

    Recognized overrides: omega_s_amp, delta (rad/us), drive, errors, sensor.
    """
    sensor = overrides.pop("sensor", SensorParams())

    def sig(amp, delta):
        return SignalParams.from_detuning(
            sensor,
            overrides.pop("omega_s_amp", amp),
            overrides.pop("delta", delta),
        )

    half_mhz = mhz_to_angular(0.5)
    drive_freq = mhz_to_angular(36.54)
    drive_amp = mhz_to_angular(1.0)

    if name == "ods-resonant":
        sc = Scenario(name, sensor, sig(half_mhz, 0.0))
    elif name == "ods-detuned":
        sc = Scenario(name, sensor, sig(half_mhz, half_mhz))
    elif name in ("fds-k1", "fds-k3", "fds-k5"):
        k = int(name[-1])
        phases = {1: K1_PHASES, 3: K3_PHASES, 5: K5_PHASES}[k]
        drive = overrides.pop(
            "drive", FloquetDriveParams(drive_amp, drive_freq, k, phases)
        )
        sc = Scenario(name, sensor, sig(half_mhz, half_mhz), drive)
    elif name in ("robustness-amp", "robustness-freq"):
        # weak-signal configuration: the advantage window over the detuned
        # undriven sensor then matches the published error ranges
        drive = overrides.pop(
            "drive",
            FloquetDriveParams(drive_amp, drive_freq, 5, (math.pi / 2.0,) * 5),
        )
        sc = Scenario(name, sensor, sig(mhz_to_angular(0.22), half_mhz), drive)
    elif name in ("dd-off", "dd-on"):
        # slow Rabi drive: pi-pulse spacing must stay well inside the Rabi
        # period for Carr-Purcell to decouple detuning noise during driving
        drive = overrides.pop(
            "drive",
            FloquetDriveParams(drive_amp, drive_freq, 5, (math.pi / 2.0,) * 5),
        )
        sc = Scenario(name, sensor, sig(mhz_to_angular(0.125), half_mhz), drive)
    else:
        raise KeyError(f"unknown scenario preset {name!r}")
    if "errors" in overrides:
        sc = sc.with_errors(overrides.pop("errors"))
    if overrides:
        raise TypeError(f"unrecognized preset overrides: {sorted(overrides)}")
    return sc


PRESET_NAMES = (
    "ods-resonant",
    "ods-detuned",
    "fds-k1",
    "fds-k3",
    "fds-k5",
    "robustness-amp",
    "robustness-freq",
    "dd-off",
    "dd-on",
)


def resolve_scenario(preset: Union[str, Scenario]) -> Scenario:
    return make_preset(preset) if isinstance(preset, str) else preset


# ---------------------------------------------------------------------------
# pulse sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polarize:
    duration: float = POLARIZE_DURATION


@dataclass(frozen=True)
class Wait:
    duration: float = WAIT_DURATION


@dataclass(frozen=True)
class Sense:
    duration: float
    spec: HamiltonianSpec | None = None


@dataclass(frozen=True)
class PiPulse:
    axis: str = "x"


@dataclass(frozen=True)
class Detect:
    duration: float = DETECT_DURATION


@dataclass(frozen=True)
class PulseSequence:
    """Ordered segment list: polarize/wait, contiguous sensing (with optional
    pi pulses between sensing stretches), one final detect."""

    segments: tuple

    def __post_init__(self):
        segs = self.segments
        if not segs or not isinstance(segs[-1], Detect):
            raise ValueError("sequence must end with exactly one Detect")
        if any(isinstance(s, Detect) for s in segs[:-1]):
            raise ValueError("only one Detect is allowed, at the end")
        sense_idx = [i for i, s in enumerate(segs) if isinstance(s, (Sense, PiPulse))]
        if sense_idx and sense_idx != list(range(sense_idx[0], sense_idx[-1] + 1)):
            raise ValueError("sensing window (Sense/PiPulse) must be contiguous")
        for i, s in enumerate(segs):
            if isinstance(s, PiPulse):
                before = any(isinstance(x, Sense) for x in segs[:i])
                after = any(isinstance(x, Sense) for x in segs[i + 1:])
                if not (before and after):
                    raise ValueError("pi pulses must lie inside the sensing window")

    @property
    def sense_duration(self) -> float:
        return sum(s.duration for s in self.segments if isinstance(s, Sense))


@dataclass(frozen=True)
class DdConfig:
    """Carr-Purcell settings: half-spacing tau and pulse axis.

    Pulses fall at tau, 3*tau, 5*tau, ... inside the sensing window (spacing
    tau, 2*tau, ..., 2*tau, tau when the duration is a multiple of 2*tau);
    the count follows from the sensing duration.  Pulses are instantaneous
    pi rotations about the drive's micromotion-dressed axis.
    """

    tau: float = 0.5
    axis: str = "x"

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.axis not in ("x", "y", "z"):
            raise ValueError("pulse axis must be x, y or z")

    def pulse_times(self, total: float) -> np.ndarray:
        """Pulse instants for a sensing window of the given duration."""
        if total < 2.0 * self.tau:
            return np.empty(0)
        n = int(math.floor((total - self.tau) / (2.0 * self.tau) + 1e-9)) + 1
        times = self.tau + 2.0 * self.tau * np.arange(n)
        return times[times <= total - self.tau + 1e-9]


def build_cp_sequence(
    spec: HamiltonianSpec,
    sense_time: float,
    dd: DdConfig | None = None,
    polarize: float = POLARIZE_DURATION,
    wait: float = WAIT_DURATION,
    detect: float = DETECT_DURATION,
) -> PulseSequence:
    """Assemble the polarize / wait / sense(+pi pulses) / detect sequence."""
    segs: list = [Polarize(polarize), Wait(wait)]
    pulses = dd.pulse_times(sense_time) if dd is not None else np.empty(0)
    t_prev = 0.0
    for tp in pulses:
        segs.append(Sense(tp - t_prev, spec))
        segs.append(PiPulse(dd.axis))
        t_prev = tp
    segs.append(Sense(sense_time - t_prev, spec))
    segs.append(Detect(detect))
    return PulseSequence(tuple(segs))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Detuning (sigma_z-coupled) noise: none, quasi-static or OU.

    sigma_z is the standard deviation of the detuning offset in rad/us;
    tau_c the OU correlation time in us.  ``seed`` is a fallback used when a
    run does not supply its own.
    """

    kind: str = "none"
    sigma_z: float = 0.0
    tau_c: float = DD_TAU_C_DEFAULT
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("none", "quasi-static", "ornstein-uhlenbeck"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma_z < 0:
            raise ValueError("sigma_z must be >= 0")
        if self.kind == "ornstein-uhlenbeck" and self.tau_c <= 0:
            raise ValueError("OU correlation time must be positive")

    def sample_segments(self, mids: np.ndarray, n_real: int, rng) -> np.ndarray:
        """Detuning offsets per (realization, segment), shape (n_real, n_seg).

        Unit-variance shapes are drawn first and scaled by sigma_z, so a
        fixed seed yields noise trajectories that deform continuously with
        the amplitude (useful for calibration searches).
        """
        n_seg = len(mids)
        if self.kind == "none" or self.sigma_z == 0.0 or n_seg == 0:
            return np.zeros((n_real, n_seg))
        if self.kind == "quasi-static":
            z = rng.standard_normal((n_real, 1))
            return self.sigma_z * np.repeat(z, n_seg, axis=1)
        normals = rng.standard_normal((n_real, n_seg))
        z = np.empty((n_real, n_seg))
        z[:, 0] = normals[:, 0]
        for s in range(1, n_seg):
            rho = math.exp(-(mids[s] - mids[s - 1]) / self.tau_c)
            z[:, s] = rho * z[:, s - 1] + math.sqrt(1.0 - rho * rho) * normals[:, s]
        return self.sigma_z * z


# ---------------------------------------------------------------------------
# scan engine
# ---------------------------------------------------------------------------

def _pulse_matrix(scenario: Scenario, axis: str, t_pulse: float) -> np.ndarray:
    """Instantaneous pi rotation about the drive-dressed axis at t_pulse.

    With a periodic drive present the bare axis is conjugated by the
    micromotion frame exp(-iK(t)); without a drive this is the plain Pauli
    rotation.
    """
    base = _pauli_exp(0.5 * math.pi * _AXIS_VECS[axis])
    if scenario.drive is None or scenario.drive.omega_F_amp == 0.0:
        return base
    kvec = kick_vector(scenario.drive.perturbed(scenario.errors), t_pulse)
    dress = _pauli_exp(-kvec)  # exp(+iK)
    return dress.conj().T @ base @ dress


_AXIS_VECS = {
    "x": np.array([1.0, 0.0, 0.0]),
    "y": np.array([0.0, 1.0, 0.0]),
    "z": np.array([0.0, 0.0, 1.0]),
}


@dataclass(frozen=True)
class ScanResult:
    """Population scan table: times, mean P0, standard errors."""

    times: np.ndarray
    p0: np.ndarray
    stderr: np.ndarray
    n_realizations: int
    pulse_times: np.ndarray = field(default_factory=lambda: np.empty(0))


def run_scan(
    preset: Union[str, Scenario],
    t_grid,
    noise: NoiseModel | None = None,
    dd: DdConfig | None = None,
    shots: int | None = None,
    n_realizations: int = 128,
    seed: int | None = 0,
    model: ReadoutModel = ReadoutModel(),
    opts: PropagatorOptions = SCAN_OPTS,
) -> ScanResult:
    """Population-vs-time scan of one sequence family.

    Each noise realization is a single continuous trajectory sampled at every
    grid time (polarize resets to |0> exactly; the wait interval is identity
    on the two-level state).  Pi pulses, when configured, fall at fixed
    Carr-Purcell times; populations at grid points after an odd number of
    pulses are reported in the echo frame (flipped), so a pulse-free run is
    reproduced exactly when the pulses commute with the dynamics.

    With ``shots`` set, each grid point is additionally read out through the
    Poisson photon-count model (shots spread evenly over realizations).  A
    ``seed`` of None falls back to ``noise.seed`` (then 0) for both the noise
    and the readout streams.
    """
    scenario = resolve_scenario(preset)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and non-negative")
    noise = noise or NoiseModel()
    n_real = n_realizations if noise.kind != "none" else 1

    t_max = float(t_grid[-1])
    pulses = dd.pulse_times(t_max) if dd is not None else np.empty(0)

    events = np.unique(np.concatenate([[0.0], t_grid, pulses]))
    is_grid = np.isin(events, t_grid)
    pulse_set = set(np.round(pulses, 12))

    mids = 0.5 * (events[:-1] + events[1:])
    if seed is None:
        seed = noise.seed or 0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    offsets = noise.sample_segments(mids, n_real, rng)  # detuning, rad/us

    spec = scenario.rotating_spec()
    psi = np.zeros((n_real, 2), dtype=complex)
    psi[:, 0] = 1.0  # polarized start
    parity = 0
    p0_mean = np.empty(t_grid.size)
    p0_err = np.empty(t_grid.size)
    p0_real = np.empty((t_grid.size, n_real))
    out_idx = 0

    for j in range(len(events)):
        tj = events[j]
        if j > 0:
            t0, t1 = events[j - 1], tj
            if t1 > t0:
                u = interval_unitary(
                    spec, t0, t1, opts, z_offsets=0.5 * offsets[:, j - 1]
                )
                psi = np.einsum("rij,rj->ri", u, psi)
        if round(tj, 12) in pulse_set:
            pm = _pulse_matrix(scenario, dd.axis, tj)
            psi = psi @ pm.T
            parity ^= 1
        if is_grid[j]:
            pops = np.abs(psi[:, parity]) ** 2  # echo-frame |0> population
            p0_real[out_idx] = pops
            p0_mean[out_idx] = pops.mean()
            p0_err[out_idx] = (
                pops.std(ddof=1) / math.sqrt(n_real) if n_real > 1 else 0.0
            )
            out_idx += 1

    if shots is not None:
        read_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        for i in range(t_grid.size):
            mu = model.mean_counts(np.clip(p0_real[i], 0.0, 1.0))
            totals = read_rng.poisson(mu * (shots / n_real))
            p0_hat, stderr = _estimate_p0_from_total(totals.sum(), shots, model)
            p0_mean[i] = p0_hat
            p0_err[i] = math.hypot(p0_err[i], stderr)

    return ScanResult(
        times=t_grid,
        p0=p0_mean,
        stderr=p0_err,
        n_realizations=n_real,
        pulse_times=pulses,
    )


def run_rabi_scan(
    preset: Union[str, Scenario],
    t_grid,
    noise: NoiseModel | None = None,
    shots: int | None = None,
    n_realizations: int = 128,
    seed: int = 0,
    model: ReadoutModel = ReadoutModel(),
) -> ScanResult:
    """Rabi population scan (no decoupling pulses); see ``run_scan``."""
    return run_scan(
        preset,
        t_grid,
        noise=noise,
        dd=None,
        shots=shots,
        n_realizations=n_realizations,
        seed=seed,
        model=model,
    )


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    """Decaying-cosine fit a + b exp(-t/T2) cos(w t + phi) of a scan."""

    T2: float
    amplitude: float
    frequency: float
    phase: float
    offset: float
    residual: float
    t2_is_lower_bound: bool = False


def fit_decaying_cosine(times, values) -> DecayFit:
    """Nonlinear least squares with FFT-seeded frequency and multi-start T2.

    When the best-fit decay constant exceeds the grid span the data carry no
    decay information and the fit is flagged as a lower bound.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    span = times[-1] - times[0]
    offset0 = values.mean()
    resid = values - offset0
    # frequency seed from the dominant FFT bin on a uniform resample
    uniform_t = np.linspace(times[0], times[-1], 4 * times.size)
    uniform_v = np.interp(uniform_t, times, resid)
    spectrum = np.abs(np.fft.rfft(uniform_v * np.hanning(uniform_v.size)))
    freqs = np.fft.rfftfreq(uniform_v.size, uniform_t[1] - uniform_t[0])
    w0 = TWO_PI * freqs[1 + int(np.argmax(spectrum[1:]))]
    b0 = float(np.max(np.abs(resid)))

    def model(t, a, b, t2, w, ph):
        return a + b * np.exp(-t / t2) * np.cos(w * t + ph)

    best = None
    for t2_try in (span / 4.0, span, 4.0 * span, 100.0 * span):
        try:
            popt, _ = curve_fit(
                model,
                times,
                values,
                p0=[offset0, b0, t2_try, w0, 0.0],
                bounds=(
                    [-1.0, -2.0, 1e-3, 0.0, -TWO_PI],
                    [2.0, 2.0, 1e6, 10.0 * w0 + 1.0, TWO_PI],
                ),
                maxfev=20000,
            )
        except RuntimeError:
            continue
        r = float(np.sqrt(np.mean((model(times, *popt) - values) ** 2)))
        if best is None or r < best[1]:
            best = (popt, r)
    if best is None:
        raise RuntimeError("decaying-cosine fit did not converge; inspect the scan")
    (a, b, t2, w, ph), r = best
    return DecayFit(
        T2=float(t2),
        amplitude=float(b),
        frequency=float(w),
        phase=float(ph),
        offset=float(a),
        residual=r,
        t2_is_lower_bound=bool(t2 > span),
    )


# ---------------------------------------------------------------------------
# QFI scaling and robustness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QfiScalingRow:
    t: float
    qfi: float
    stderr: float
    qfi_over_t2: float
    qfi_exact: float


def run_qfi_scaling(
    preset: Union[str, Scenario],
    t_grid,
    shots: int | None = None,
    mc: MonteCarloConfig | None = None,
    model: ReadoutModel = ReadoutModel(),
) -> list[QfiScalingRow]:
    """Estimation-pipeline QFI against the exact oracle over evolution times."""
    scenario = resolve_scenario(preset)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        oracle = scenario.exact_qfi(float(t)).value
        grid = default_omega_grid(scenario.signal.omega_s_amp)
        est = qfi_pipeline(
            lambda w, tt: scenario.state(w, tt),
            float(t),
            grid,
            shots=shots,
            mc=mc,
            model=model,
            omega_center=scenario.signal.omega_s_amp,
        )
        rows.append(
            QfiScalingRow(
                t=float(t),
                qfi=est.value,
                stderr=est.stderr,
                qfi_over_t2=est.value / t**2 if t > 0 else 0.0,
                qfi_exact=oracle,
            )
        )
    return rows


@dataclass(frozen=True)
class RobustnessResult:
    """Sweep table plus the contiguous advantage interval around zero error."""

    error_axis: str
    errors: np.ndarray  # rad/us
    qfi_fds: np.ndarray
    baseline: float  # unperturbed detuned-ODS QFI at the same time
    interval: tuple[float, float]  # rad/us
    interval_open: tuple[bool, bool]  # True where capped by the grid edge
    t: float


def _default_error_grid(error_axis: str) -> np.ndarray:
    # dense enough that adjacent points differ by well under 10% of t^2
    # across the steep flanks of the advantage peak
    if error_axis == "amplitude":
        return mhz_to_angular(np.linspace(-1.0, 1.0, 101))
    if error_axis == "frequency":
        return mhz_to_angular(np.linspace(-20.0, 30.0, 51))
    raise ValueError("error_axis must be 'amplitude' or 'frequency'")


def run_robustness_sweep(
    error_axis: str,
    grid=None,
    t: float = 4.0,
    preset: Union[str, Scenario, None] = None,
    refine: bool = True,
    n_workers: int = 1,
    opts: PropagatorOptions = ORACLE_OPTS,
) -> RobustnessResult:
    """Exact-oracle QFI of the driven sensor under control errors.

    The drive amplitude (or frequency) is offset by each grid value, the QFI
    at fixed t is computed from the full time-dependent dynamics, and the
    result is compared against the unperturbed detuned undriven sensor.  The
    returned interval is the contiguous region around zero error where the
    driven sensor wins, endpoint-refined by bisection (an endpoint still
    winning at the grid edge is reported as the edge, flagged open).
    """
    if preset is None:
        preset = "robustness-amp" if error_axis == "amplitude" else "robustness-freq"
    scenario = resolve_scenario(preset)
    errors = np.asarray(grid, dtype=float) if grid is not None else _default_error_grid(error_axis)
    if not np.any(np.isclose(errors, 0.0)):
        raise ValueError("error grid must contain zero (the unperturbed point)")

    ods = Scenario(
        "ods-baseline", scenario.sensor, scenario.signal, drive=None
    )
    baseline = ods.exact_qfi(t, opts).value

    def qfi_at(err: float) -> float:
        if error_axis == "amplitude":
            e = ControlErrorParams(amp_error=err)
        else:
            e = ControlErrorParams(freq_error=err)
        return scenario.with_errors(e).exact_qfi(t, opts).value

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as ex:
            qfi_vals = np.array(list(ex.map(qfi_at, errors)))
    else:
        qfi_vals = np.array([qfi_at(e) for e in errors])

    adv = qfi_vals > baseline
    i0 = int(np.argmin(np.abs(errors)))
    if not adv[i0]:
        raise RuntimeError("no advantage at zero error; sweep configuration is off")
    lo_i = i0
    while lo_i > 0 and adv[lo_i - 1]:
        lo_i -= 1
    hi_i = i0
    while hi_i < len(errors) - 1 and adv[hi_i + 1]:
        hi_i += 1
    lo_open = lo_i == 0
    hi_open = hi_i == len(errors) - 1
    lo, hi = errors[lo_i], errors[hi_i]

    def bisect(a, b):
        # advantage at a, none at b
        for _ in range(10):
            m = 0.5 * (a + b)
            if qfi_at(m) > baseline:
                a = m
            else:
                b = m
        return 0.5 * (a + b)

    if refine and not lo_open:
        lo = bisect(errors[lo_i], errors[lo_i - 1])
    if refine and not hi_open:
        hi = bisect(errors[hi_i], errors[hi_i + 1])

    return RobustnessResult(
        error_axis=error_axis,
        errors=errors,
        qfi_fds=qfi_vals,
        baseline=baseline,
        interval=(float(lo), float(hi)),
        interval_open=(lo_open, hi_open),
        t=t,
    )


# ---------------------------------------------------------------------------
# dynamical decoupling
# ---------------------------------------------------------------------------

def default_dd_grid(dd: bool) -> np.ndarray:
    """Decay-scan time grids: dense enough for the Rabi period, long enough
    for the expected coherence time."""
    if dd:
        return np.arange(0.5, 160.0 + 1e-9, 0.5)
    return np.arange(0.25, 45.0 + 1e-9, 0.25)


def run_dd_experiment(
    preset: Union[str, Scenario] = "dd-on",
    dd: DdConfig | None = None,
    noise: NoiseModel | None = None,
    t_grid=None,
    shots: int | None = None,
    n_realizations: int = 192,
    seed: int = 0,
) -> tuple[ScanResult, DecayFit]:
    """Coherence scan with optional Carr-Purcell decoupling, plus decay fit."""
    if noise is None:
        noise = NoiseModel(
            kind="ornstein-uhlenbeck", sigma_z=DD_SIGMA_Z_DEFAULT, tau_c=DD_TAU_C_DEFAULT
        )
    if t_grid is None:
        t_grid = default_dd_grid(dd is not None)
    scan = run_scan(
        preset,
        t_grid,
        noise=noise,
        dd=dd,
        shots=shots,
        n_realizations=n_realizations,
        seed=seed,
    )
    fit = fit_decaying_cosine(scan.times, scan.p0)
    return scan, fit


def calibrate_noise(
    target_t2: float,
    kind: str = "ornstein-uhlenbeck",
    tau_c: float = DD_TAU_C_DEFAULT,
    preset: Union[str, Scenario] = "dd-off",
    t_grid=None,
    n_realizations: int = 160,
    seed: int = 0,
    rel_tol: float = 0.05,
    max_iter: int = 12,
) -> NoiseModel:
    """Bisection on the noise amplitude until the pulse-free fitted decay
    time matches ``target_t2``.

    The same unit-variance noise shapes are reused at every amplitude (fixed
    seed), making the fitted T2 a smooth, monotone function of sigma_z.
    Raises if a bracket cannot be established.
    """
    if target_t2 <= 0:
        raise ValueError("target T2 must be positive")
    if t_grid is None:
        t_grid = default_dd_grid(dd=False)

    def fitted_t2(sigma: float) -> float:
        noise = NoiseModel(kind=kind, sigma_z=sigma, tau_c=tau_c)
        scan = run_scan(
            preset, t_grid, noise=noise, n_realizations=n_realizations, seed=seed
        )
        return fit_decaying_cosine(scan.times, scan.p0).T2

    scenario = resolve_scenario(preset)
    sigma = math.sqrt(scenario.signal.omega_s_amp / target_t2)  # dimensional guess
    t2 = fitted_t2(sigma)
    lo = hi = sigma
    t2_lo = t2_hi = t2
    for _ in range(max_iter):
        if t2_hi < target_t2:
            break
        hi *= 2.0
        t2_hi = fitted_t2(hi)
    for _ in range(max_iter):
        if t2_lo > target_t2:
            break
        lo *= 0.5
        t2_lo = fitted_t2(lo)
    if not (t2_lo > target_t2 > t2_hi):
        raise RuntimeError(
            f"could not bracket sigma_z for T2 = {target_t2:g} us "
            f"(got T2 in [{t2_hi:g}, {t2_lo:g}])"
        )
    for _ in range(max_iter * 2):
        mid = math.sqrt(lo * hi)
        t2_mid = fitted_t2(mid)
        if abs(t2_mid - target_t2) <= rel_tol * target_t2:
            return NoiseModel(kind=kind, sigma_z=mid, tau_c=tau_c, seed=seed)
        if t2_mid > target_t2:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("noise calibration bisection did not converge")

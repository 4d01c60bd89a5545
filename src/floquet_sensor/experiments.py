"""Named end-to-end scenarios: Rabi scans, Fisher-information scaling,
control-error robustness sweeps and dynamical-decoupling runs under
dephasing noise.

Scenario presets bundle the sensing configuration (sensor, signal, drive)
under the names the command-line interface exposes; one table,
``_PRESETS``, holds them all.  The scan engine
(``run_scan``) starts a batch of noise realizations in |0> and walks one
sorted event list: the scan's grid times merged with the Carr-Purcell pulse
instants of ``DdConfig.pulse_times``.  The detuning noise is held constant
over each segment between adjacent events (the correlation time is far
longer than any segment), so the propagators of all segments and
realizations come from one fixed-resolution ``interval_unitary`` call over
the segment axis (memory bounded by the propagator's block size).  The walk
(``_walk``) has no loop over events: it reads the segment propagators back
as quaternions, interleaves the pi pulses (instantaneous rotations about the
drive's micromotion-dressed x axis, all dressed in one vectorized call), takes
every running product in one work-efficient prefix product and reads the
populations at the grid times from the quaternions.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np
# numpy loads these submodules lazily, on first use (np.random in run_scan,
# np.ma through np.unique, np.fft in the decay fit).  Imported here, their
# ~25 ms load with the package at start-up instead of inside the first
# command body that touches them.
import numpy.fft  # noqa: F401
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .hamiltonian import (
    HamiltonianSpec,
    build_fds_prime,
    build_lab_ods,
    kick_vector,
    to_signal_rotating,
)
from .measurement import (
    MonteCarloConfig,
    default_omega_grid,
    qfi_pipeline,
    read_out,
)
from .metrology import QfiEstimate, qfi_exact
from .params import (
    TWO_PI,
    FloquetDriveParams,
    ReadoutModel,
    SensorParams,
    SignalParams,
    mhz_to_angular,
)
from .propagator import (
    PropagatorOptions,
    _quat_exp,
    _quat_mul,
    _quat_prefix,
    _require_finite,
    evolve,
    interval_unitary,
)

#: detuning-noise std (rad/us): calibrate_noise's result for a 17.9 us target
#: on the dd-off preset at 128 realizations (seed 0, default OU correlation
#: time); at the 192 realizations of run_dd_experiment the fitted T2 is 14.0 us
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

    def rotating_spec(self, omega_s_amp: float | None = None) -> HamiltonianSpec:
        sig = self.signal if omega_s_amp is None else self.signal.with_amp(omega_s_amp)
        if self.drive is None:
            return to_signal_rotating(build_lab_ods(self.sensor, sig), sig)
        return build_fds_prime(self.sensor, sig, self.drive)

    def state(self, omega_s_amp, t, opts: PropagatorOptions = ORACLE_OPTS) -> np.ndarray:
        """State at time t, evolved from |0> at the given signal amplitude."""
        spec = self.rotating_spec(float(omega_s_amp))
        return evolve(spec, (1, 0), [float(t)], opts)[-1]

    def exact_qfi(self, t: float, opts: PropagatorOptions = ORACLE_OPTS) -> QfiEstimate:
        return qfi_exact(lambda w: self.state(w, t, opts), self.signal.omega_s_amp)

    def with_errors(self, amp_error: float = 0.0, freq_error: float = 0.0) -> "Scenario":
        """The scenario with additive control errors (rad/us) applied to its drive.

        Raises ``ValueError`` on an undriven scenario, which has no drive to
        perturb.
        """
        if self.drive is None:
            raise ValueError(f"scenario {self.name!r} has no drive to apply control errors to")
        return replace(self, drive=self.drive.perturbed(amp_error, freq_error))


# Each preset: signal Rabi amplitude (MHz), detuning from the sensor resonance
# (MHz) and the drive's per-harmonic tone phases (rad), or None for the
# undriven sensor.  Every drive has one tone per phase, each of amplitude
# _DRIVE_AMP_MHZ, at multiples of _DRIVE_FREQ_MHZ.
#
# The fds-k phases were tuned once against the exact-QFI oracle and frozen:
# the all-cosine convention puts the switch-on micromotion kick perpendicular
# to the measurement geodesic and costs several percent of Fisher information.
# The robustness presets take a weak signal, so that the advantage window over
# the detuned undriven sensor matches the published error ranges; the dd
# presets a slow Rabi drive, so that the pi-pulse spacing stays well inside the
# Rabi period and Carr-Purcell decouples detuning noise during driving.
_DRIVE_AMP_MHZ, _DRIVE_FREQ_MHZ = 1.0, 36.54
_QUADRATURE = (math.pi / 2.0,) * 5
_PRESETS = {
    "ods-resonant": (0.5, 0.0, None),
    "ods-detuned": (0.5, 0.5, None),
    "fds-k1": (0.5, 0.5, (math.pi,)),
    "fds-k3": (0.5, 0.5, (2.8508, 2.5662, 2.2602)),
    "fds-k5": (0.5, 0.5, (1.7077, 1.3964, 5.4336, 1.8585, 2.0134)),
    "robustness-amp": (0.22, 0.5, _QUADRATURE),
    "robustness-freq": (0.22, 0.5, _QUADRATURE),
    "dd-off": (0.125, 0.5, _QUADRATURE),
    "dd-on": (0.125, 0.5, _QUADRATURE),
}
PRESET_NAMES = tuple(_PRESETS)


def make_preset(
    name: str,
    sensor: SensorParams = SensorParams(),
    omega_s_amp: float | None = None,
    delta: float | None = None,
) -> Scenario:
    """Build the named ``_PRESETS`` scenario; ``omega_s_amp`` and ``delta``
    (rad/us) replace the preset's signal amplitude and detuning."""
    try:
        amp_mhz, delta_mhz, phases = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown scenario preset {name!r}") from None
    signal = SignalParams.from_detuning(
        sensor,
        mhz_to_angular(amp_mhz) if omega_s_amp is None else omega_s_amp,
        mhz_to_angular(delta_mhz) if delta is None else delta,
    )
    drive = None if phases is None else FloquetDriveParams(
        mhz_to_angular(_DRIVE_AMP_MHZ), mhz_to_angular(_DRIVE_FREQ_MHZ), len(phases), phases
    )
    return Scenario(name, sensor, signal, drive)


def resolve_scenario(preset: Union[str, Scenario]) -> Scenario:
    return make_preset(preset) if isinstance(preset, str) else preset


# ---------------------------------------------------------------------------
# dynamical-decoupling pulses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DdConfig:
    """Carr-Purcell settings: the half-spacing tau.

    Pulses fall at tau, 3*tau, 5*tau, ... inside the sensing window (spacing
    tau, 2*tau, ..., 2*tau, tau when the duration is a multiple of 2*tau);
    the count follows from the sensing duration.  Pulses are instantaneous
    pi rotations about the drive's micromotion-dressed x axis.
    """

    tau: float = 0.5

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")

    def pulse_times(self, total: float) -> np.ndarray:
        """Pulse instants for a sensing window of the given duration."""
        if total < 2.0 * self.tau:
            return np.empty(0)
        n = int(math.floor((total - self.tau) / (2.0 * self.tau) + 1e-9)) + 1
        times = self.tau + 2.0 * self.tau * np.arange(n)
        return times[times <= total - self.tau + 1e-9]


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Detuning (sigma_z-coupled) noise: none, quasi-static or OU.

    sigma_z is the standard deviation of the detuning offset in rad/us;
    tau_c the OU correlation time in us.
    """

    kind: str = "none"
    sigma_z: float = 0.0
    tau_c: float = DD_TAU_C_DEFAULT

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

# the pi rotation exp(-i (pi/2) sigma_x) = -i sigma_x as a quaternion (w, x, y, z)
_X_PULSE = np.array([0.0, 1.0, 0.0, 0.0])
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def _pulse_quaternions(scenario: Scenario, times) -> np.ndarray:
    """Quaternions (n, 4) of the instantaneous pi rotations at the n ``times``.

    Each is a pi rotation about the drive-dressed x axis: the bare rotation X
    conjugated by the micromotion frame d = exp(+iK(t)), conj(d) X d, one
    vectorized call for all pulses.  Without a drive it is X itself.
    """
    times = np.asarray(times, dtype=float)
    if scenario.drive is None or scenario.drive.omega_F_amp == 0.0:
        return np.broadcast_to(_X_PULSE, times.shape + (4,))
    dress = _quat_exp(-kick_vector(scenario.drive, times))  # exp(+iK)
    return _quat_mul(_quat_mul(dress * _CONJUGATE, _X_PULSE), dress)


def _walk(u: np.ndarray, pulses: np.ndarray, is_pulse: np.ndarray,
          is_grid: np.ndarray) -> np.ndarray:
    """|0> populations (grid events, realizations) of a scan started in |0>.

    ``u`` is the complex (S, r, 2, 2) stack of the propagators of the S
    segments between S + 1 events, ``pulses`` the (n, 4) quaternions of the
    pulses at the n events flagged in ``is_pulse``, and ``is_grid`` flags the
    events read out.  The segment quaternions are read back from ``u``
    exactly (u00 = w - iz, u10 = y - ix), each pulse follows the segment that
    ends at its event, and one prefix product (``_quat_prefix``) gives the
    propagator to every factor at once, after an identity for time 0.  A
    grid event reads its last factor: U|0> = (w - iz, y - ix), so the
    echo-frame |0> population is w^2 + z^2 after an even number of pulses and
    x^2 + y^2 after an odd one.
    """
    n_seg, n_real = u.shape[:2]
    pulses_upto = np.cumsum(is_pulse)  # pulses at or before each event
    factors = np.empty((1 + n_seg + len(pulses), n_real, 4))
    factors[0] = (1.0, 0.0, 0.0, 0.0)
    u00, u10 = u[:, :, 0, 0], u[:, :, 1, 0]
    seg = 1 + np.arange(n_seg) + pulses_upto[:-1]
    factors[seg] = np.stack([u00.real, -u10.imag, u10.real, -u00.imag], axis=-1)
    at = np.flatnonzero(is_pulse)
    factors[at + pulses_upto[at]] = pulses[:, None]
    grid = np.flatnonzero(is_grid)
    q = _quat_prefix(factors)[grid + pulses_upto[grid]]
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    odd = (pulses_upto[grid] % 2 == 1)[:, None]
    return np.where(odd, x * x + y * y, w * w + z * z)


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
    seed: int = 0,
    model: ReadoutModel = ReadoutModel(),
) -> ScanResult:
    """Population-vs-time scan of one sequence family.

    Each noise realization is a single continuous trajectory from |0> at
    t = 0, sampled at every grid time.  Pi pulses, when configured, fall at
    fixed Carr-Purcell times; populations at grid points after an odd number of
    pulses are reported in the echo frame (flipped), so a pulse-free run is
    reproduced exactly when the pulses commute with the dynamics.

    With ``shots`` set, each grid point is additionally read out through the
    Poisson photon-count model (shots spread evenly over realizations).
    ``seed`` seeds both the noise and the readout streams; None is rejected
    rather than drawing fresh OS entropy.  Segments are integrated at
    ``SCAN_OPTS``.
    """
    scenario = resolve_scenario(preset)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    _require_finite("t_grid", t_grid)
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and non-negative")
    if shots is not None and shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if seed is None:
        raise ValueError("seed must be an integer; None would draw OS entropy")
    noise = noise or NoiseModel()
    n_real = n_realizations if noise.kind != "none" else 1

    t_max = float(t_grid[-1])
    pulses = dd.pulse_times(t_max) if dd is not None else np.empty(0)

    events = np.unique(np.concatenate([[0.0], t_grid, pulses]))
    is_grid = np.isin(events, t_grid)
    # exact match: a grid time a few ulp from a pulse instant is its own event
    is_pulse = np.isin(events, pulses)

    mids = 0.5 * (events[:-1] + events[1:])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    offsets = noise.sample_segments(mids, n_real, rng)  # detuning, rad/us

    # events are strictly increasing, so every segment has t1 > t0
    u = interval_unitary(
        scenario.rotating_spec(), events[:-1], events[1:], SCAN_OPTS,
        z_offsets=0.5 * offsets.T,
    )
    p0_real = _walk(u, _pulse_quaternions(scenario, events[is_pulse]), is_pulse, is_grid)

    p0_mean = p0_real.mean(axis=1)
    if n_real > 1:
        p0_err = p0_real.std(axis=1, ddof=1) / math.sqrt(n_real)
    else:
        p0_err = np.zeros(t_grid.size)
    if shots is not None:
        read_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        p0_mean, stderr = read_out(p0_real, shots, read_rng, model, pooled=True)
        # math.hypot, not np.hypot: the two differ in the last bit on some inputs
        p0_err = np.array([math.hypot(a, b) for a, b in zip(p0_err, stderr)])

    return ScanResult(
        times=t_grid,
        p0=p0_mean,
        stderr=p0_err,
        n_realizations=n_real,
        pulse_times=pulses,
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


#: parameters of the decaying-cosine fit, and so the fewest scan points it takes
DECAY_FIT_MIN_POINTS = 5


#: bounds of the fitted decay time T2 (us)
_T2_BOUNDS = (1e-3, 1e6)


# a basis column whose part orthogonal to the earlier columns is this small,
# relative to its own norm, is dropped (w = 0 makes the sine column zero)
_RANK_TOL = 1e-12
# a step that lowers the cost by less than this share, and was predicted to,
# ends a start: the cost is then at its minimum to far below the fit's noise
_FTOL = 1e-13


def _decay_projection(times, values, t2, w):
    """Variable projection of the decaying-cosine model at B points (T2, w).

    ``t2`` and ``w`` have shape (B, 1).  The linear coefficients (a, c, s)
    of a + e (c cos wt + s sin wt), e = exp(-t/T2), solve the least-squares
    problem through a Gram-Schmidt QR of the basis (1, e cos wt, e sin wt),
    reorthogonalized once; a column dependent on the earlier ones to within
    ``_RANK_TOL`` is dropped and takes the coefficient 0.  Returns the
    residuals y - Phi beta (B, N), the coefficients (B, 3) and the
    Golub-Pereyra Jacobian of the residuals along log T2 and w, two (B, N)
    arrays: J_k = -(P D_k beta + pinv(Phi)^T D_k^T r), with D_k the
    derivative of the basis and P the projector off its span.
    """
    decay = np.exp(-times / t2)
    wt = w * times
    ec, es = decay * np.cos(wt), decay * np.sin(wt)
    mean_c, mean_s = ec.mean(axis=1, keepdims=True), es.mean(axis=1, keepdims=True)
    q2, q3 = ec - mean_c, es - mean_s  # orthogonal to the constant column

    def dot(x, y):
        return np.einsum("bn,bn->b", x, y)[:, None]

    r22 = np.sqrt(dot(q2, q2))
    keep2 = r22 > _RANK_TOL * np.sqrt(dot(ec, ec))
    r22 = np.where(keep2, r22, 1.0)
    q2 = np.where(keep2, q2 / r22, 0.0)
    r23 = dot(q2, q3)
    q3 = q3 - r23 * q2
    again = dot(q2, q3)
    q3 = q3 - again * q2
    r23 = r23 + again
    r33 = np.sqrt(dot(q3, q3))
    keep3 = r33 > _RANK_TOL * np.sqrt(dot(es, es))
    r33 = np.where(keep3, r33, 1.0)
    q3 = np.where(keep3, q3 / r33, 0.0)

    y = values - values.mean()
    z2 = q2 @ y
    z3 = q3 @ y
    resid = y - z2[:, None] * q2 - z3[:, None] * q3
    s = z3[:, None] / r33
    c = (z2[:, None] - r23 * s) / r22
    a = values.mean() - mean_c * c - mean_s * s

    def off_span(x):
        x = x - x.mean(axis=1, keepdims=True)
        return x - dot(q2, x) * q2 - dot(q3, x) * q3

    def range_term(g2, g3):  # pinv(Phi)^T (0, g2, g3): Q R^-T by substitution
        v2 = g2 / r22
        v3 = (g3 - r23 * v2) / r33
        return v2 * q2 + v3 * q3

    tu, rt = times / t2, resid * times
    rec, res = dot(rt, ec), dot(rt, es)
    jac_u = -(off_span(tu * (c * ec + s * es)) + range_term(rec / t2, res / t2))
    jac_w = -(off_span(times * (s * ec - c * es)) + range_term(-res, rec))
    return resid, np.hstack([a, c, s]), jac_u, jac_w


def _fit_batch(times, values, starts, upper_w):
    """Levenberg-Marquardt on (log T2, w) from each row of ``starts``, (B, 2).

    Steps solve (J^T J + lam diag J^T J) d = -J^T r with Nielsen's update of
    lam, are clipped to the bounds (a parameter held at a bound by its
    gradient leaves the step), and are taken when they lower the cost.  A
    start stops once a step taken moves every parameter by less than 1e-10
    (relative) or lowers the cost, as predicted, by less than ``_FTOL`` of
    it; at a zero gradient; once lam exceeds 1e16; or after 200 iterations.
    The batch shrinks to the starts still running.  Returns the final
    parameters (B, 2) and linear coefficients (B, 3).
    """
    lo = np.array([math.log(_T2_BOUNDS[0]), 0.0])
    hi = np.array([math.log(_T2_BOUNDS[1]), upper_w])
    params = np.clip(starts, lo, hi)
    out_params, out_coef = np.empty_like(params), np.empty((len(params), 3))
    rows = np.arange(len(params))
    resid, coef, ju, jw = _decay_projection(
        times, values, np.exp(params[:, :1]), params[:, 1:])
    cost = 0.5 * np.einsum("bn,bn->b", resid, resid)
    lam = np.full(len(rows), 1e-3)
    nu = np.full(len(rows), 2.0)
    for _ in range(200):
        # normal equations [[huu, huw], [huw, hww]] d = -(gu, gw)
        huu, huw, hww = (np.einsum("bn,bn->b", x, y) for x, y in ((ju, ju), (ju, jw), (jw, jw)))
        gu, gw = np.einsum("bn,bn->b", ju, resid), np.einsum("bn,bn->b", jw, resid)
        free_u = ~(((params[:, 0] <= lo[0]) & (gu > 0)) | ((params[:, 0] >= hi[0]) & (gu < 0)))
        free_w = ~(((params[:, 1] <= lo[1]) & (gw > 0)) | ((params[:, 1] >= hi[1]) & (gw < 0)))
        huu, hww, gu, gw = huu * free_u, hww * free_w, gu * free_u, gw * free_w
        huw = huw * (free_u & free_w)
        duu = huu + lam * np.maximum(huu, 1e-300)
        dww = hww + lam * np.maximum(hww, 1e-300)
        det = duu * dww - huw * huw
        step = np.divide(np.stack([huw * gw - dww * gu, huw * gu - duu * gw], axis=1),
                         det[:, None], out=np.zeros_like(params), where=det[:, None] > 0)
        trial = np.clip(params + step, lo, hi)
        su, sw = (trial - params).T
        t_resid, t_coef, t_ju, t_jw = _decay_projection(
            times, values, np.exp(trial[:, :1]), trial[:, 1:])
        t_cost = 0.5 * np.einsum("bn,bn->b", t_resid, t_resid)
        predicted = -(gu * su + gw * sw
                      + 0.5 * (huu * su * su + 2.0 * huw * su * sw + hww * sw * sw))
        better = t_cost < cost
        rho = np.divide(cost - t_cost, predicted, out=np.zeros_like(cost),
                        where=predicted > 0)
        lam = np.where(better, lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3),
                       lam * nu)
        nu = np.where(better, 2.0, 2.0 * nu)
        small = (np.abs(su) <= 1e-10 * np.maximum(np.abs(params[:, 0]), 1.0)) & (
            np.abs(sw) <= 1e-10 * np.maximum(np.abs(params[:, 1]), 1.0))
        flat = (cost - t_cost <= _FTOL * t_cost) & (predicted <= _FTOL * t_cost)
        done = (better & (small | flat)) | (lam > 1e16) | ((gu == 0) & (gw == 0))
        b = better[:, None]
        params = np.where(b, trial, params)
        resid, coef = np.where(b, t_resid, resid), np.where(b, t_coef, coef)
        ju, jw = np.where(b, t_ju, ju), np.where(b, t_jw, jw)
        cost = np.where(better, t_cost, cost)
        if done.any():
            out_params[rows[done]], out_coef[rows[done]] = params[done], coef[done]
            run = ~done
            rows, params, resid, coef, ju, jw, cost, lam, nu = (
                x[run] for x in (rows, params, resid, coef, ju, jw, cost, lam, nu))
            if not rows.size:
                break
    out_params[rows], out_coef[rows] = params, coef
    return out_params, out_coef


def fit_decaying_cosine(times, values) -> DecayFit:
    """Least-squares fit of a + b exp(-t/T2) cos(w t + phi), by variable projection.

    The model is linear in a and in (c, s) = (b cos phi, -b sin phi), so those
    are solved for exactly at every (T2, w) and the Levenberg-Marquardt
    iteration runs on (log T2, w) alone (Golub & Pereyra, SIAM J. Numer.
    Anal. 10, 413 (1973)), with an analytic Jacobian.  w is seeded from the
    dominant FFT bin; T2 starts at span/4, span, 4 span and 100 span, all
    four run as one batch, and the start with the least RMS residual wins.
    Bounds: T2 in [1e-3, 1e6] us and w in [0, 10 w_seed + 1].  The amplitude
    b = hypot(c, s) is non-negative.

    When the best-fit decay constant exceeds the grid span the data carry no
    decay information and the fit is flagged as a lower bound.  ``times``
    and ``values`` must be finite 1-D arrays of equal length, with strictly
    increasing times; fewer points than the five fit parameters are
    rejected.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    for name, arr in (("times", times), ("values", values)):
        if arr.ndim != 1:
            raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
        _require_finite(name, arr)
    if values.size != times.size:
        raise ValueError(
            f"values must have one entry per time: {values.size} values, {times.size} times"
        )
    if times.size < DECAY_FIT_MIN_POINTS:
        raise ValueError(
            f"a decaying-cosine fit has {DECAY_FIT_MIN_POINTS} parameters and needs "
            f"at least {DECAY_FIT_MIN_POINTS} scan points, got {times.size}"
        )
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    span = times[-1] - times[0]
    resid = values - values.mean()
    # frequency seed from the dominant FFT bin on a uniform resample
    uniform_t = np.linspace(times[0], times[-1], 4 * times.size)
    uniform_v = np.interp(uniform_t, times, resid)
    spectrum = np.abs(np.fft.rfft(uniform_v * np.hanning(uniform_v.size)))
    freqs = np.fft.rfftfreq(uniform_v.size, uniform_t[1] - uniform_t[0])
    w0 = TWO_PI * freqs[1 + int(np.argmax(spectrum[1:]))]

    starts = np.array([[math.log(k * span), w0] for k in (0.25, 1.0, 4.0, 100.0)])
    params, coef = _fit_batch(times, values, starts, 10.0 * w0 + 1.0)
    t2, w = np.exp(params[:, 0]), params[:, 1]
    a, c, s = coef[:, 0], coef[:, 1], coef[:, 2]
    decay = np.exp(-times / t2[:, None])
    wt = w[:, None] * times
    model = a[:, None] + decay * (c[:, None] * np.cos(wt) + s[:, None] * np.sin(wt))
    rms = np.sqrt(np.mean((model - values) ** 2, axis=1))
    best = int(np.argmin(rms))
    return DecayFit(
        T2=float(t2[best]),
        amplitude=float(math.hypot(c[best], s[best])),
        frequency=float(w[best]),
        phase=float(math.atan2(-s[best], c[best])),
        offset=float(a[best]),
        residual=float(rms[best]),
        t2_is_lower_bound=bool(t2[best] > span),
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
    mc: MonteCarloConfig | None = None,
    model: ReadoutModel = ReadoutModel(),
) -> list[QfiScalingRow]:
    """Pipeline QFI against the exact oracle over t_grid (exact readout if mc is None)."""
    scenario = resolve_scenario(preset)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        oracle = scenario.exact_qfi(float(t)).value
        grid = default_omega_grid(scenario.signal.omega_s_amp)
        est = qfi_pipeline(
            lambda w: scenario.state(w, t),
            grid,
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
    raise ValueError(f"error_axis must be 'amplitude' or 'frequency', got {error_axis!r}")


def grid_has_zero(errors) -> bool:
    """True when an error grid (rad/us) holds the unperturbed point: a value
    within ``np.isclose``'s default tolerance of zero."""
    return bool(np.any(np.isclose(errors, 0.0)))


def run_robustness_sweep(
    error_axis: str,
    grid=None,
    t: float = 4.0,
    preset: Union[str, Scenario, None] = None,
    n_workers: int = 1,
) -> RobustnessResult:
    """Exact-oracle QFI of the driven sensor under control errors.

    The drive amplitude (or frequency) is offset by each grid value, the QFI
    at fixed t is computed from the full time-dependent dynamics, and the
    result is compared against the unperturbed detuned undriven sensor.  The
    returned interval is the contiguous region around zero error where the
    driven sensor wins, endpoint-refined by bisection (an endpoint still
    winning at the grid edge is reported as the edge, flagged open).  The
    grid must be strictly increasing.  ``n_workers`` > 1 spreads the grid
    points over a thread pool.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    default_grid = _default_error_grid(error_axis)  # rejects an unknown axis
    if preset is None:
        preset = "robustness-amp" if error_axis == "amplitude" else "robustness-freq"
    scenario = resolve_scenario(preset)
    errors = default_grid if grid is None else np.asarray(grid, dtype=float)
    if errors.ndim != 1 or not np.all(np.diff(errors) > 0):
        raise ValueError(f"error grid must be strictly increasing, got {errors.tolist()}")
    if not grid_has_zero(errors):
        raise ValueError("error grid must contain zero (the unperturbed point)")

    ods = Scenario(
        "ods-baseline", scenario.sensor, scenario.signal, drive=None
    )
    baseline = ods.exact_qfi(t).value

    def qfi_at(err: float) -> float:
        if error_axis == "amplitude":
            return scenario.with_errors(amp_error=err).exact_qfi(t).value
        return scenario.with_errors(freq_error=err).exact_qfi(t).value

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

    if not lo_open:
        lo = bisect(errors[lo_i], errors[lo_i - 1])
    if not hi_open:
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
    model: ReadoutModel = ReadoutModel(),
) -> tuple[ScanResult, DecayFit]:
    """Coherence scan with optional Carr-Purcell decoupling, plus decay fit.

    With ``shots`` set, the scan is read out through ``model``.
    """
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
        model=model,
    )
    fit = fit_decaying_cosine(scan.times, scan.p0)
    return scan, fit


def calibrate_noise(
    target_t2: float,
    tau_c: float = DD_TAU_C_DEFAULT,
    preset: Union[str, Scenario] = "dd-off",
    t_grid=None,
    n_realizations: int = 160,
    seed: int = 0,
) -> NoiseModel:
    """Bisection on the Ornstein-Uhlenbeck noise amplitude until the
    pulse-free fitted decay time matches ``target_t2`` to 5% (at most 12
    bracket doublings each way and 24 bisection steps).

    The same unit-variance noise shapes are reused at every amplitude (fixed
    seed), but the fitted T2 is still not monotone in sigma_z, so the result
    is *a* sigma_z whose fitted T2 lies within 5% of the target, not a unique
    one.  Raises if a bracket cannot be established.
    """
    if target_t2 <= 0:
        raise ValueError("target T2 must be positive")
    if t_grid is None:
        t_grid = default_dd_grid(dd=False)

    def fitted_t2(sigma: float) -> float:
        noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_z=sigma, tau_c=tau_c)
        scan = run_scan(
            preset, t_grid, noise=noise, n_realizations=n_realizations, seed=seed
        )
        return fit_decaying_cosine(scan.times, scan.p0).T2

    scenario = resolve_scenario(preset)
    sigma = math.sqrt(scenario.signal.omega_s_amp / target_t2)  # dimensional guess
    t2 = fitted_t2(sigma)
    lo = hi = sigma
    t2_lo = t2_hi = t2
    for _ in range(12):
        if t2_hi < target_t2:
            break
        hi *= 2.0
        t2_hi = fitted_t2(hi)
    for _ in range(12):
        if t2_lo > target_t2:
            break
        lo *= 0.5
        t2_lo = fitted_t2(lo)
    if not (t2_lo > target_t2 > t2_hi):
        raise RuntimeError(
            f"could not bracket sigma_z for T2 = {target_t2:g} us "
            f"(got T2 in [{t2_hi:g}, {t2_lo:g}])"
        )
    for _ in range(24):
        mid = math.sqrt(lo * hi)
        t2_mid = fitted_t2(mid)
        if abs(t2_mid - target_t2) <= 0.05 * target_t2:
            return NoiseModel(kind="ornstein-uhlenbeck", sigma_z=mid, tau_c=tau_c)
        if t2_mid > target_t2:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("noise calibration bisection did not converge")

"""Named end-to-end scenarios: Rabi scans, Fisher-information scaling,
control-error robustness sweeps and dynamical-decoupling runs under
dephasing noise.

Scenario presets bundle the sensing configuration (signal, drive)
under the names the command-line interface exposes; one table,
``_PRESETS``, holds them all.  The scan engine
(``run_scan``) starts a batch of noise realizations in |0> and walks one
sorted event list: the scan's grid times merged with the Carr-Purcell pulse
instants of ``DdConfig.pulse_times``.  The detuning noise is held constant
over each segment between adjacent events (the correlation time is far
longer than any segment).  The propagators take one of two routes, by
the spec:

- A constant spec takes exact exponentials (``propagator._fixed_pieces``):
  one over [0, e] for each event e of a pulse-free noiseless scan (every
  offset zero; a zero-amplitude ensemble counts), and otherwise one for
  each segment and realization.
- A driven spec is periodic, and a scan of it folds one drive period
  (``_fold``): every event e is m_e whole periods plus a phase r_e, and
  U(e, 0) = U(r_e, 0) U_T^m_e.  A pulse-free noiseless scan anchors every
  event at t = 0 from the period folded at the offset 0 (``_anchors``),
  its identical realizations share the result, and each grid time reads
  its population straight from its anchor.  A scan with noise or pulses
  walks segment factors from the same fold (``_folded_segments``): a
  constant offset d keeps the spec periodic, so U(b, a; d) =
  U(r_b, 0; d) U_T(d)^(m_b - m_a) U(r_a, 0; d)^dagger.  The period is
  folded at the scan's distinct offsets where it has at most K of them (a
  noiseless scan has one), and otherwise at K Chebyshev nodes in the
  offset, with K from 8 up, doubled until the series have converged; every
  member's factors are then interpolated at its own offset.  Either way
  the scan keeps the rel_tol of ``SCAN_OPTS`` however many events it has.

The walk (``_walk``) has no loop over events: it takes the segment
quaternions as they are, interleaves the pi pulses (instantaneous rotations
about the drive's micromotion-dressed x axis, all dressed in one vectorized
call), takes every running product in one work-efficient prefix product and
reads the populations at the grid times from the quaternions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Union

import numpy as np
# numpy loads these submodules lazily, on first use (np.random in run_scan,
# np.fft in the decay fit).  Imported here, they load with the package at
# start-up instead of inside the first command body that touches them.
# np.unique and np.isin would load numpy.ma (about 10 ms), so the scans use
# the sort-based ``_distinct`` and ``searchsorted`` instead.
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .hamiltonian import HamiltonianSpec, build_fds_prime, kick_vector
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
    SignalParams,
    _require_count,
    _require_finite,
    mhz_to_angular,
)
from .propagator import (
    PropagatorOptions,
    _fixed_pieces,
    _quat_exp,
    _quat_mul,
    _quat_power,
    _quat_prefix,
    interval_unitary,
)

#: detuning-noise std (rad/us): calibrate_noise's result for a 17.9 us target
#: on the dd-off preset at 128 realizations (seed 0, default OU correlation
#: time); at the 192 realizations of run_dd_experiment the fitted T2 is 14.0 us
DD_SIGMA_Z_DEFAULT = 0.7683

#: default OU correlation time (us)
DD_TAU_C_DEFAULT = 50.0

# the tolerance of every scan: a folded period is integrated at the fixed
# resolution of rel_tol / m over the scan's m whole periods
SCAN_OPTS = PropagatorOptions(rel_tol=1e-6)
ORACLE_OPTS = PropagatorOptions(rel_tol=1e-8)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """A named sensing configuration resolvable to a rotating-frame spec."""

    name: str
    signal: SignalParams
    drive: FloquetDriveParams | None = None

    def rotating_spec(self) -> HamiltonianSpec:
        """The rotating-frame spec, built on the first call and kept with the
        scenario (a scenario is frozen, and ``with_errors`` makes a new one)."""
        spec = self.__dict__.get("_spec")
        if spec is None:
            spec = build_fds_prime(self.signal, self.drive)
            object.__setattr__(self, "_spec", spec)
        return spec

    def states(self, amps, t, opts: PropagatorOptions = ORACLE_OPTS) -> np.ndarray:
        """States at time t, evolved from |0>, at the k signal amplitudes ``amps``: (k, 2).

        One propagation of the center-amplitude spec batches them all: in the
        rotating frame the signal amplitude w is the sigma_x coefficient w/2,
        so each amplitude is the offset 0.5j (w - omega_s_amp), and the members
        share one substep count.
        """
        offsets = 0.5j * (np.asarray(amps, dtype=float) - self.signal.omega_s_amp)
        return interval_unitary(self.rotating_spec(), 0.0, float(t), opts, offsets)[..., 0]

    def exact_qfi(self, t: float, opts: PropagatorOptions = ORACLE_OPTS) -> QfiEstimate:
        return qfi_exact(lambda amps: self.states(amps, t, opts), self.signal.omega_s_amp)

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
    name: str, omega_s_amp: float | None = None, delta: float | None = None
) -> Scenario:
    """Build the named ``_PRESETS`` scenario; ``omega_s_amp`` and ``delta``
    (rad/us) replace the preset's signal amplitude and detuning."""
    try:
        amp_mhz, delta_mhz, phases = _PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown scenario preset {name!r}") from None
    signal = SignalParams(
        mhz_to_angular(amp_mhz) if omega_s_amp is None else omega_s_amp,
        mhz_to_angular(delta_mhz) if delta is None else delta,
    )
    drive = None if phases is None else FloquetDriveParams(
        mhz_to_angular(_DRIVE_AMP_MHZ), mhz_to_angular(_DRIVE_FREQ_MHZ), len(phases), phases
    )
    return Scenario(name, signal, drive)


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
        _require_finite("tau", self.tau)
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
    """Detuning (sigma_z-coupled) noise: ``"none"`` or ``"ornstein-uhlenbeck"``.

    sigma_z is the standard deviation of the detuning offset in rad/us;
    tau_c the OU correlation time in us.  Noise that is static within a
    realization is the OU limit of a tau_c much longer than the scan.
    """

    kind: str = "none"
    sigma_z: float = 0.0
    tau_c: float = DD_TAU_C_DEFAULT

    def __post_init__(self):
        if self.kind not in ("none", "ornstein-uhlenbeck"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        _require_finite("sigma_z", self.sigma_z)
        _require_finite("tau_c", self.tau_c)
        if self.sigma_z < 0:
            raise ValueError("sigma_z must be >= 0")
        if self.kind == "ornstein-uhlenbeck" and self.tau_c <= 0:
            raise ValueError("OU correlation time must be positive")

    def sample_segments(self, mids: np.ndarray, n_real: int, rng) -> np.ndarray:
        """Detuning offsets per (realization, segment), shape (n_real, n_seg).

        Unit-variance shapes are drawn first and scaled by sigma_z, so a
        fixed seed yields noise trajectories that deform continuously with
        the amplitude (useful for calibration searches).  The trajectory
        z_s = rho_s z_(s-1) + sqrt(1 - rho_s^2) n_s, from z_0 = n_0, is one
        prefix scan of these affine maps (``_affine_prefix``).
        """
        n_seg = len(mids)
        if self.kind == "none" or self.sigma_z == 0.0 or n_seg == 0:
            return np.zeros((n_real, n_seg))
        normals = rng.standard_normal((n_real, n_seg))
        rho = np.exp(-np.diff(mids) / self.tau_c)
        slope = np.concatenate([[0.0], rho])[:, None]
        shift = np.concatenate([[1.0], np.sqrt(1.0 - rho * rho)])[:, None] * normals.T
        return self.sigma_z * _affine_prefix(slope, shift)[1].T


def _affine_prefix(a: np.ndarray, b: np.ndarray):
    """Running compositions (A, B) of the affine maps z -> a[k] z + b[k]
    along axis 0: z_k = A[k] z_(-1) + B[k].

    The work-efficient scan of ``propagator._quat_prefix``, for maps that
    compose as (a2, b2) o (a1, b1) = (a2 a1, a2 b1 + b2).  Only products of
    the slopes are formed, never quotients, so a slope product that
    underflows to 0 (a correlation time far below the segment spacing) gives
    the exact limit, a fresh draw.
    """
    n = a.shape[0]
    if n <= 1:
        return a.copy(), b.copy()
    pa, pb = _affine_prefix(a[1::2] * a[0:n - 1:2], a[1::2] * b[0:n - 1:2] + b[1::2])
    out_a, out_b = np.empty_like(a), np.empty_like(b)
    out_a[0], out_b[0] = a[0], b[0]
    out_a[1::2], out_b[1::2] = pa, pb
    out_a[2::2] = a[2::2] * pa[:(n - 1) // 2]
    out_b[2::2] = a[2::2] * pb[:(n - 1) // 2] + b[2::2]
    return out_a, out_b


# ---------------------------------------------------------------------------
# scan engine
# ---------------------------------------------------------------------------

# the pi rotation exp(-i (pi/2) sigma_x) = -i sigma_x as a quaternion (w, x, y, z)
_X_PULSE = np.array([0.0, 1.0, 0.0, 0.0])
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])
_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


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

    ``u`` is the (S, r, 4) stack of the quaternions of the S segments
    between S + 1 events, ``pulses`` the (n, 4) quaternions of the pulses at
    the n events flagged in ``is_pulse``, and ``is_grid`` flags the events
    read out.  Each pulse follows the segment that ends at its event, and
    one prefix product (``_quat_prefix``) gives the propagator to every
    factor at once, after an identity for time 0.  A grid event reads its
    last factor: U|0> = (w - iz, y - ix), so the echo-frame |0> population
    is w^2 + z^2 after an even number of pulses, x^2 + y^2 after an odd one.
    """
    n_seg, n_real = u.shape[:2]
    pulses_upto = np.cumsum(is_pulse)  # pulses at or before each event
    factors = np.empty((1 + n_seg + len(pulses), n_real, 4))
    factors[0] = _IDENTITY
    seg = 1 + np.arange(n_seg) + pulses_upto[:-1]
    factors[seg] = u
    at = np.flatnonzero(is_pulse)
    factors[at + pulses_upto[at]] = pulses[:, None]
    grid = np.flatnonzero(is_grid)
    q = _quat_prefix(factors)[grid + pulses_upto[grid]]
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    odd = (pulses_upto[grid] % 2 == 1)[:, None]
    return np.where(odd, x * x + y * y, w * w + z * z)


def _fold(spec: HamiltonianSpec, events: np.ndarray, nodes: np.ndarray):
    """One drive period of a driven spec, cut at the phases of a scan's
    events, at K constant offsets: ``(phases, period, whole)``.

    ``events`` are strictly increasing from 0, and ``nodes`` is the (K,)
    array of kernel offsets d (d sigma_z added to the spec).  A driven
    scenario's spec is exactly periodic: its tones lie at exact multiples
    of the drive frequency (``build_fds_prime``).  With T the period, every
    event e is m_e = floor(e/T) whole periods plus the phase
    r_e = e - m_e T, and U(e, 0; d) = U(r_e, 0; d) U_T(d)^m_e.  The period
    [0, T] is cut at the sorted phases, and the pieces take one
    fixed-resolution pass (``propagator._fixed_pieces``) at the period
    tolerance rel_tol / m_max, with m_max = max(1, whole periods of the
    scan), and with the nodes as its batch axis.  A pass has no residual to
    stall on round-off, so rel_tol / m_max needs no floor here.  One prefix
    product of the pieces gives ``phases``, the (E, K, 4) quaternions
    U(r_e, 0; d), and its last product is ``period``, the (K, 4) U_T(d);
    ``whole`` is the int array of the m_e.
    """
    m_max = max(1, int(events[-1] * spec.fundamental[0] / TWO_PI))
    period = TWO_PI / spec.fundamental[0]
    whole = np.floor(events / period)
    rest = np.clip(events - whole * period, 0.0, period)  # round-off may leave [0, T]
    # the cuts, in order from the phase 0 of the event at t = 0 to T; a
    # piece between equal cuts takes the identity
    order = np.argsort(rest, kind="stable")
    cuts = np.append(rest[order], period)
    pieces = _fixed_pieces(spec, cuts[:-1], cuts[1:], SCAN_OPTS.rel_tol / m_max,
                           np.broadcast_to(nodes, (events.size, nodes.size)))
    # U(cut, 0) of cuts[1:]; one node takes the (E, 4) layout, on which
    # numpy's per-call cost is about 30% lower than on (E, 1, 4)
    prefix = _quat_prefix(pieces[:, 0])[:, None] if nodes.size == 1 else _quat_prefix(pieces)
    phases = np.empty_like(prefix)
    phases[order[0]] = _IDENTITY
    phases[order[1:]] = prefix[:-1]
    return phases, prefix[-1], whole.astype(int)


def _anchors(spec: HamiltonianSpec, events: np.ndarray) -> np.ndarray:
    """Quaternions (E, 4) of the propagators U(e, 0) of a noiseless scan from
    t = 0 to each of its E events.

    A constant spec takes one exact exponential over [0, e] per event, in
    one ``_fixed_pieces`` pass (the event at 0 is the zero-length piece
    [0, 0], the identity).  A driven one is the one-node fold at offset 0,
    U(r_e, 0) U_T^m_e, with one closed-form power for every m_e.  Either way
    each event is anchored at t = 0, so the scan's error does not grow with
    its event count.
    """
    if spec.fundamental[0] == 0.0:
        return _fixed_pieces(spec, np.zeros(events.size), events, SCAN_OPTS.rel_tol,
                             np.zeros((events.size, 1)))[:, 0]
    phases, period, whole = _fold(spec, events, np.zeros(1))
    return _quat_mul(phases[:, 0], _quat_power(period[0], whole))


# the first node count of a noisy fold, and the bound on the last two
# Chebyshev coefficients of every folded quaternion at which it is kept
_FOLD_NODES = 8
_FOLD_TAIL = 1e-13
# members x nodes per block of segment factors; bounds their memory
_EVAL_BLOCK = 1 << 16


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of an array, as ``np.unique`` gives them.

    The same sort and the same comparison of neighbours, without the
    import of ``numpy.ma`` that ``np.unique`` makes on its first call.
    """
    values = np.sort(values, axis=None)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _folded_segments(spec: HamiltonianSpec, events: np.ndarray,
                     offsets: np.ndarray) -> np.ndarray:
    """Quaternions (S, r, 4) of the S segments between the events of a scan
    of a driven spec, each under the constant kernel offsets ``offsets``
    (S, r) of its r members.

    Every segment [a, b] follows from the fold at its member's offset d:
    U(b, a; d) = U(r_b, 0; d) U_T(d)^(m_b - m_a) U(r_a, 0; d)^dagger.  A
    scan with at most K distinct offsets (a noiseless one has one, 0.0)
    folds at those offsets and reads its factors off them.  Otherwise the
    nodes are the K Chebyshev points of the first kind on the offsets'
    range, and each folded quaternion is a Chebyshev series in d there
    (Trefethen, Approximation Theory and Approximation Practice, SIAM 2013,
    ch. 8): K starts at 8 and doubles until the last two coefficients of
    every series are below ``_FOLD_TAIL`` (Aurentz & Trefethen, ACM TOMS 43,
    33 (2017)), or until the distinct offsets are no more than K, and then
    become the nodes.  The interpolant through the nodes is evaluated at
    every member's offset by the barycentric formula, stable at Chebyshev
    points (Berrut & Trefethen, SIAM Rev. 46, 501 (2004)), in blocks of
    segments of at most ``_EVAL_BLOCK`` members x nodes.
    """
    values = _distinct(offsets)
    k = _FOLD_NODES
    while True:
        exact = values.size <= k
        if exact:
            nodes = values
        else:
            mid, half = 0.5 * (values[-1] + values[0]), 0.5 * (values[-1] - values[0])
            angles = math.pi * (np.arange(k) + 0.5) / k
            nodes = mid + half * np.cos(angles)
        phases, period, whole = _fold(spec, events, nodes)
        if exact:
            break
        # the last two coefficients c_i = (2/K) sum_j f(d_j) cos(i theta_j)
        transform = (2.0 / k) * np.cos(np.arange(k - 2, k)[:, None] * angles)
        if max(np.abs(transform @ phases).max(), np.abs(transform @ period).max()) < _FOLD_TAIL:
            break
        k *= 2
    n_seg, n_real = offsets.shape
    steps = np.diff(whole)
    if not exact:  # the barycentric formula's weights for these nodes
        weights = (-1.0) ** np.arange(k) * np.sin(angles)
    u = np.empty((n_seg, n_real, 4))
    size = max(1, _EVAL_BLOCK // (n_real * nodes.size))
    for s in range(0, n_seg, size):
        block = slice(s, s + size)
        if exact:
            at, seg = np.searchsorted(nodes, offsets[block]), np.arange(n_seg)[block, None]
            end, start, u_t = phases[seg + 1, at], phases[seg, at], period[at]
        else:
            gap = offsets[block, :, None] - nodes
            hit = gap == 0.0  # an offset on a node takes that node's value
            basis = weights / np.where(hit, 1.0, gap)
            on_node = hit.any(axis=-1)
            basis[on_node] = hit[on_node]
            basis /= basis.sum(axis=-1, keepdims=True)
            end, start = basis @ phases[1:][block], basis @ phases[:-1][block]
            u_t = basis @ period
        power = _quat_power(u_t, steps[block, None])
        u[block] = _quat_mul(_quat_mul(end, power), start * _CONJUGATE)
    return u


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
    ``seed``, an integer >= 0, seeds both the noise and the readout streams;
    None is rejected rather than drawing fresh OS entropy.

    Segments are integrated at ``SCAN_OPTS``, by one of two routes.  A
    constant spec takes exact exponentials: over [0, e] for each event e of
    a pulse-free scan whose offsets are all zero, and otherwise over each
    segment of each realization.  A driven spec folds one drive period at
    rel_tol / m_max: a pulse-free scan whose offsets are all zero anchors
    each event at t = 0 (``_anchors``), U(e, 0) = U(r_e, 0) U_T^m_e with m_e
    whole drive periods and remainder r_e, and each grid time reads its
    population from its anchor, so the scan stays within rel_tol at every
    grid time; a scan with noise or pulses walks the segment factors
    U(r_b, 0; d) U_T(d)^(m_b - m_a) U(r_a, 0; d)^dagger of the same fold,
    taken at K offset nodes and interpolated in the offset d
    (``_folded_segments``).
    """
    scenario = resolve_scenario(preset)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a non-empty 1-D array")
    _require_finite("t_grid", t_grid)
    if np.any(t_grid < 0) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and non-negative")
    if shots is not None:
        _require_count("shots", shots)
    _require_count("n_realizations", n_realizations)
    if seed is None:
        raise ValueError("seed must be an integer; None would draw OS entropy")
    _require_count("seed", seed, least=0)
    noise = noise or NoiseModel()
    n_real = n_realizations if noise.kind != "none" else 1

    t_max = float(t_grid[-1])
    pulses = dd.pulse_times(t_max) if dd is not None else np.empty(0)

    events = _distinct(np.concatenate([[0.0], t_grid, pulses]))
    # exact match: a grid time a few ulp from a pulse instant is its own event
    is_grid, is_pulse = np.zeros((2, events.size), dtype=bool)
    is_grid[np.searchsorted(events, t_grid)] = True
    is_pulse[np.searchsorted(events, pulses)] = True

    mids = 0.5 * (events[:-1] + events[1:])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    offsets = noise.sample_segments(mids, n_real, rng)  # detuning, rad/us

    spec = scenario.rotating_spec()
    # the identical realizations of a pulse-free noiseless scan share its anchors
    if not (offsets.any() or pulses.size):
        anchors = _anchors(spec, events)
        # U(e, 0)|0> = (w - iz, y - ix): a grid event reads its own anchor
        w, z = anchors[is_grid, 0], anchors[is_grid, 3]
        p0_real = np.broadcast_to((w * w + z * z)[:, None], (t_grid.size, n_real))
    else:
        z_offsets = 0.5 * offsets.T  # a detuning d adds (d/2) sigma_z
        if spec.fundamental[0] == 0.0:  # one exact exponential per segment
            u = _fixed_pieces(spec, events[:-1], events[1:], SCAN_OPTS.rel_tol, z_offsets)
        else:
            u = _folded_segments(spec, events, z_offsets)
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


# the Pauli matrices sigma_z and sigma_x, which build the derivative
# coefficients c sigma_z + s sigma_x of the basis columns
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _decay_projection(times, values, t2, w):
    """Variable projection of the decaying-cosine model at B points (T2, w).

    ``t2`` and ``w`` have shape (B, 1).  The linear coefficients (a, c, s)
    of a + e (c cos wt + s sin wt), e = exp(-t/T2), solve the least-squares
    problem through a Gram-Schmidt QR of the basis (1, e cos wt, e sin wt),
    reorthogonalized once; a column dependent on the earlier ones to within
    ``_RANK_TOL`` is dropped and takes the coefficient 0.  Returns the
    residuals y - Phi beta (B, N), the coefficients (B, 3) and the
    Golub-Pereyra Jacobian (B, 2, N) of the residuals along log T2 and w:
    J_k = -(P D_k beta + pinv(Phi)^T D_k^T r), with D_k the derivative of
    the basis and P the projector off its span.  Both directions k are
    rows of the same matrix products.
    """
    decay = np.exp(-times / t2)
    wt = w * times
    cols = np.empty(decay.shape[:1] + (2,) + decay.shape[1:])  # (e cos wt, e sin wt)
    np.multiply(decay, np.cos(wt), out=cols[:, 0])
    np.multiply(decay, np.sin(wt), out=cols[:, 1])
    avg = np.full(times.size, 1.0 / times.size)  # a row mean is a product with it
    means = (cols @ avg)[:, :, None]
    q = cols - means  # orthogonal to the constant column
    q2, q3 = q[:, 0], q[:, 1]
    norms = np.sqrt(np.vecdot(cols, cols))[:, :, None]  # |e cos wt|, |e sin wt|

    r22 = np.sqrt(np.vecdot(q2, q2))[:, None]
    keep2 = r22 > _RANK_TOL * norms[:, 0]
    r22 = np.where(keep2, r22, 1.0)
    q2[...] = np.where(keep2, q2 / r22, 0.0)
    r23 = np.vecdot(q2, q3)[:, None]
    q3 -= r23 * q2
    again = np.vecdot(q2, q3)[:, None]
    q3 -= again * q2
    r23 = r23 + again
    r33 = np.sqrt(np.vecdot(q3, q3))[:, None]
    keep3 = r33 > _RANK_TOL * norms[:, 1]
    r33 = np.where(keep3, r33, 1.0)
    q3[...] = np.where(keep3, q3 / r33, 0.0)

    mean = values @ avg
    y = values - mean
    z = q @ y  # (B, 2)
    resid = y - np.vecdot(z[:, :, None], q, axis=1)
    s = z[:, 1:] / r33
    c = (z[:, :1] - r23 * s) / r22
    a = mean - means[:, 0] * c - means[:, 1] * s

    # D_k beta: tu (c e cos + s e sin) along log T2, t (s e cos - c e sin) along w
    slope = np.matmul(c[:, :, None] * _SIGMA_Z + s[:, :, None] * _SIGMA_X, cols)
    slope[:, 0] *= times / t2
    slope[:, 1] *= times
    slope -= (slope @ avg)[:, :, None]
    # D_k^T r = (0, g2, g3): (rec, res) / T2 along log T2 and (-res, rec)
    # along w, with rec and res the products of t r with e cos and e sin
    rec_res = np.vecdot(cols, (resid * times)[:, None])
    v = np.empty(cols.shape[:1] + (2, 2))  # (B, directions, columns)
    np.divide(rec_res, t2, out=v[:, 0])
    np.multiply(rec_res[:, ::-1], (-1.0, 1.0), out=v[:, 1])
    # pinv(Phi)^T (0, g2, g3) = Q R^-T: v2 = g2 / r22, v3 = (g3 - r23 v2) / r33
    v[:, :, 0] /= r22
    v[:, :, 1] -= r23 * v[:, :, 0]
    v[:, :, 1] /= r33
    # J = -(slope - (slope q^T) q + v q) = (slope q^T - v) q - slope
    jac = np.matmul(np.matmul(slope, q.mT) - v, q)
    jac -= slope
    return resid, np.concatenate([a, c, s], axis=1), jac


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
    resid, coef, jac = _decay_projection(times, values, np.exp(params[:, :1]), params[:, 1:])
    cost = 0.5 * np.vecdot(resid, resid)
    lam = np.full(len(rows), 1e-3)
    nu = np.full(len(rows), 2.0)
    for _ in range(200):
        # normal equations H d = -g, H = J J^T and g = J r, with the rows
        # and columns of parameters held at a bound by their gradient zeroed
        g = np.vecdot(jac, resid[:, None])
        free = ~(((params <= lo) & (g > 0)) | ((params >= hi) & (g < 0)))
        g = g * free
        hess = np.matmul(jac, jac.mT) * (free[:, :, None] & free[:, None, :])
        diag = np.diagonal(hess, axis1=1, axis2=2)
        damped = diag + lam[:, None] * np.maximum(diag, 1e-300)
        huw = hess[:, 0, 1]
        det = damped[:, 0] * damped[:, 1] - huw * huw
        # Cramer's rule: (huw gw - dww gu, huw gu - duu gw) / det
        step = np.divide(huw[:, None] * g[:, ::-1] - damped[:, ::-1] * g, det[:, None],
                         out=np.zeros(params.shape), where=det[:, None] > 0)
        trial = np.clip(params + step, lo, hi)
        moved = trial - params
        t_resid, t_coef, t_jac = _decay_projection(
            times, values, np.exp(trial[:, :1]), trial[:, 1:])
        t_cost = 0.5 * np.vecdot(t_resid, t_resid)
        predicted = -np.vecdot(moved, g + 0.5 * np.vecdot(hess, moved[:, None]))
        better = t_cost < cost
        rho = np.divide(cost - t_cost, predicted, out=np.zeros(cost.shape),
                        where=predicted > 0)
        lam = np.where(better, lam * np.maximum(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3),
                       lam * nu)
        nu = np.where(better, 2.0, 2.0 * nu)
        small = np.all(np.abs(moved) <= 1e-10 * np.maximum(np.abs(params), 1.0), axis=1)
        flat = (cost - t_cost <= _FTOL * t_cost) & (predicted <= _FTOL * t_cost)
        done = (better & (small | flat)) | (lam > 1e16) | ~g.any(axis=1)
        if better.all():  # the usual case: every step taken
            params, resid, coef, jac, cost = trial, t_resid, t_coef, t_jac, t_cost
        else:
            b = better[:, None]
            params = np.where(b, trial, params)
            resid, coef = np.where(b, t_resid, resid), np.where(b, t_coef, coef)
            jac = np.where(b[:, :, None], t_jac, jac)
            cost = np.where(better, t_cost, cost)
        if done.any():
            out_params[rows[done]], out_coef[rows[done]] = params[done], coef[done]
            run = ~done
            rows, params, resid, coef, jac, cost, lam, nu = (
                x[run] for x in (rows, params, resid, coef, jac, cost, lam, nu))
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
    dominant FFT bin; T2 starts at span/4, span, 4 span and 100 span, plus
    one start (span, w = 0) for a decay without oscillation; all five run as
    one batch, and the start with the least RMS residual wins.
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

    # at w = 0 the sine column drops out and the w-Jacobian is 0, so the last
    # start fits a + c exp(-t/T2): a decay without oscillation
    starts = np.array([[math.log(k * span), w0] for k in (0.25, 1.0, 4.0, 100.0)]
                      + [[math.log(span), 0.0]])
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
    """Pipeline QFI against the exact oracle over t_grid (exact readout if mc is None).

    Raises ``ValueError`` at a zero signal amplitude, where the pipeline's
    +-2.5% amplitude grid has no span.
    """
    scenario = resolve_scenario(preset)
    if scenario.signal.omega_s_amp == 0.0:
        raise ValueError(
            "QFI scaling needs a signal amplitude > 0: the pipeline's amplitude "
            "grid spans +-2.5% of it"
        )
    grid = default_omega_grid(scenario.signal.omega_s_amp)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        oracle = scenario.exact_qfi(float(t)).value
        est = qfi_pipeline(
            lambda amps: scenario.states(amps, t),
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
    _require_count("n_workers", n_workers)
    default_grid = _default_error_grid(error_axis)  # rejects an unknown axis
    if preset is None:
        preset = "robustness-amp" if error_axis == "amplitude" else "robustness-freq"
    scenario = resolve_scenario(preset)
    errors = default_grid if grid is None else np.asarray(grid, dtype=float)
    if errors.ndim != 1 or not np.all(np.diff(errors) > 0):
        raise ValueError(f"error grid must be strictly increasing, got {errors.tolist()}")
    if not grid_has_zero(errors):
        raise ValueError("error grid must contain zero (the unperturbed point)")

    ods = replace(scenario, name="ods-baseline", drive=None)
    baseline = ods.exact_qfi(t).value

    def qfi_at(err: float) -> float:
        if error_axis == "amplitude":
            return scenario.with_errors(amp_error=err).exact_qfi(t).value
        return scenario.with_errors(freq_error=err).exact_qfi(t).value

    if n_workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by one worker

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
    preset: Union[str, Scenario],
    noise: NoiseModel,
    dd: DdConfig | None = None,
    t_grid=None,
    shots: int | None = None,
    n_realizations: int = 192,
    seed: int = 0,
    model: ReadoutModel = ReadoutModel(),
) -> tuple[ScanResult, DecayFit]:
    """Coherence scan with optional Carr-Purcell decoupling, plus decay fit.

    With ``shots`` set, the scan is read out through ``model``.
    """
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
    one.  Raises if a bracket cannot be established, or if the fit that
    matches is flagged as a lower bound (T2 beyond the grid span).
    """
    _require_finite("target T2", target_t2)
    if target_t2 <= 0:
        raise ValueError("target T2 must be positive")
    if t_grid is None:
        t_grid = default_dd_grid(dd=False)

    def fitted(sigma: float) -> DecayFit:
        noise = NoiseModel(kind="ornstein-uhlenbeck", sigma_z=sigma, tau_c=tau_c)
        return run_dd_experiment(preset, noise, t_grid=t_grid,
                                 n_realizations=n_realizations, seed=seed)[1]

    scenario = resolve_scenario(preset)
    sigma = math.sqrt(scenario.signal.omega_s_amp / target_t2)  # dimensional guess
    t2 = fitted(sigma).T2
    lo = hi = sigma
    t2_lo = t2_hi = t2
    for _ in range(12):
        if t2_hi < target_t2:
            break
        hi *= 2.0
        t2_hi = fitted(hi).T2
    for _ in range(12):
        if t2_lo > target_t2:
            break
        lo *= 0.5
        t2_lo = fitted(lo).T2
    if not (t2_lo > target_t2 > t2_hi):
        raise RuntimeError(
            f"could not bracket sigma_z for T2 = {target_t2:g} us "
            f"(got T2 in [{t2_hi:g}, {t2_lo:g}])"
        )
    for _ in range(24):
        mid = math.sqrt(lo * hi)
        fit = fitted(mid)
        if abs(fit.T2 - target_t2) <= 0.05 * target_t2:
            if fit.t2_is_lower_bound:
                raise RuntimeError(
                    f"the fit matching T2 = {target_t2:g} us is a lower bound: {fit.T2:g} us "
                    f"exceeds the grid span of {t_grid[-1] - t_grid[0]:g} us")
            return NoiseModel(kind="ornstein-uhlenbeck", sigma_z=mid, tau_c=tau_c)
        if fit.T2 > target_t2:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("noise calibration bisection did not converge")

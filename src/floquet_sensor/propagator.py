"""Time evolution of two-level states under a ``HamiltonianSpec``.

The integrator splits an interval into substeps and applies the exact 2x2
exponential of a fourth-order (two-point Gauss) average of the Hamiltonian
on each substep.  Every substep is exactly unitary, so norm is preserved to
round-off regardless of step size; accuracy is controlled by Richardson-style
step doubling until two resolutions agree to ``rel_tol``.  For
time-independent specs a single substep is already exact.

Everything is vectorized over substeps (and optionally over a batch of
sigma_z offsets, used for noise-ensemble averaging), with the running
product accumulated by pairwise matrix-multiply reduction.

Periodic specs take a stroboscopic route over long intervals: with T the
drive period, U(t0 + mT, t0) = U_T(t0)^m, so one period is integrated and
raised to the m-th power by repeated squaring (batched over the sigma_z
offsets), and only the remainder t1 - (t0 + mT) is integrated directly.

- Periodicity is read from the spec (``HamiltonianSpec.fundamental``): f0 is
  the smallest nonzero envelope frequency, and the route is taken only when
  every frequency lies within ``defect`` of a multiple of f0 with
  defect * (t1 - t0) <= 1e-3 * rel_tol, and m >= 2.  Rotating-frame
  frequencies computed as omega_s - (omega_s - l omega_F) miss l*omega_F by
  round-off (a few 1e-12 rad/us); lab-frame and RWA-off driven specs miss by
  a sizable fraction of f0.  Those, constant specs and intervals shorter than
  2T are integrated directly, exactly as without the route.
- Step doubling refines U_T until two resolutions agree to rel_tol / m;
  since ||A^m - B^m|| <= m ||A - B|| for unitaries, the m-period product
  keeps the rel_tol contract.  Where rel_tol / m would fall below 1e-13,
  which step doubling of one period cannot resolve above round-off, the
  interval is integrated directly.  Without refinement U_T uses the substep
  density the direct path would use on one period.
- U_T is projected onto SU(2), [[a, -b*], [b, a*]] with |a|^2 + |b|^2 = 1,
  before powering, so its round-off unitarity defect is not multiplied by m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianSpec
from .params import FloquetDriveParams, TWO_PI

_SQRT3 = math.sqrt(3.0)
_CHUNK = 1 << 16  # substeps per vectorized block; bounds peak memory
# step doubling of one drive period stalls on round-off near 1e-14, so the
# stroboscopic route is not used when it would need a period tolerance below this
_MIN_PERIOD_TOL = 1e-13


class PropagationError(RuntimeError):
    """Raised when step refinement cannot reach the requested tolerance."""


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes over the computational basis {|0>, |1>}."""

    a0: complex
    a1: complex

    def __post_init__(self):
        norm = abs(self.a0) ** 2 + abs(self.a1) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state norm^2 = {norm!r} deviates from 1")

    @classmethod
    def ket0(cls) -> "StateVector":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def ket1(cls) -> "StateVector":
        return cls(0.0j, 1.0 + 0.0j)

    @classmethod
    def plus(cls) -> "StateVector":
        s = 1.0 / math.sqrt(2.0)
        return cls(s + 0.0j, s + 0.0j)

    @classmethod
    def minus(cls) -> "StateVector":
        s = 1.0 / math.sqrt(2.0)
        return cls(s + 0.0j, -s + 0.0j)

    @classmethod
    def from_array(cls, arr) -> "StateVector":
        arr = np.asarray(arr, dtype=complex).reshape(2)
        return cls(complex(arr[0]), complex(arr[1]))

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1], dtype=complex)

    @property
    def p0(self) -> float:
        """Population of |0>."""
        return abs(self.a0) ** 2


@dataclass(frozen=True)
class PropagatorOptions:
    """Accuracy controls for ``evolve``.

    rel_tol : float
        Target agreement between successive step-halvings (amplitude scale).
    max_step : float or None
        Optional upper bound on the substep length, us.
    adaptive : bool
        If False, skip Richardson refinement and integrate at the initial
        resolution (used for noise-ensemble runs where statistical error
        dominates).
    """

    rel_tol: float = 1e-10
    max_step: float | None = None
    adaptive: bool = True


@dataclass(frozen=True)
class EvolutionResult:
    """States on a time grid plus the |0> populations."""

    times: np.ndarray
    states: tuple[StateVector, ...]
    populations: np.ndarray


# ---------------------------------------------------------------------------
# core stepping machinery
# ---------------------------------------------------------------------------

def _pauli_exp(q: np.ndarray) -> np.ndarray:
    """exp(-i q.sigma) for an array of Pauli vectors q, shape (..., 3) -> (..., 2, 2)."""
    n = np.sqrt(np.sum(q * q, axis=-1))
    c = np.cos(n)
    s = np.sinc(n / np.pi)  # sin(n)/n, well-defined at n = 0
    qx, qy, qz = q[..., 0], q[..., 1], q[..., 2]
    u = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    u[..., 0, 0] = c - 1j * s * qz
    u[..., 0, 1] = (-1j * qx - qy) * s
    u[..., 1, 0] = (-1j * qx + qy) * s
    u[..., 1, 1] = c + 1j * s * qz
    return u


def _reduce_product(us: np.ndarray) -> np.ndarray:
    """Chronological product u[..., n-1] @ ... @ u[..., 0] via pairwise reduction."""
    while us.shape[-3] > 1:
        n = us.shape[-3]
        if n % 2:
            eye = np.broadcast_to(
                np.eye(2, dtype=complex), us.shape[:-3] + (1, 2, 2)
            )
            us = np.concatenate([us, eye], axis=-3)
        us = np.matmul(us[..., 1::2, :, :], us[..., 0::2, :, :])
    return us[..., 0, :, :]


def _step_generators(
    spec: HamiltonianSpec, t0: float, t1: float, n: int, z_offsets=None
) -> np.ndarray:
    """Magnus generators q for n substeps of [t0, t1], shape (n, 3) or (r, n, 3).

    Fourth order from the two Gauss points per substep:
    q = (h/2)(p1 + p2) + (sqrt(3) h^2 / 6) (p2 x p1) with p_i = H(t_i) Pauli
    vectors.  ``z_offsets`` (shape (r,) or (r, 1)) adds a constant sigma_z
    coefficient per batch member.
    """
    h = (t1 - t0) / n
    mids = t0 + (np.arange(n) + 0.5) * h
    gauss = 0.5 * h / _SQRT3
    p1 = spec.coefficients(mids - gauss)
    p2 = spec.coefficients(mids + gauss)
    if z_offsets is not None:
        z = np.asarray(z_offsets, dtype=float).reshape(-1, 1)
        p1 = np.broadcast_to(p1, (z.shape[0],) + p1.shape).copy()
        p2 = np.broadcast_to(p2, (z.shape[0],) + p2.shape).copy()
        p1[..., 2] += z
        p2[..., 2] += z
    return 0.5 * h * (p1 + p2) + (_SQRT3 * h * h / 6.0) * np.cross(p2, p1)


def _identity(z_offsets) -> np.ndarray:
    batch = () if z_offsets is None else (np.asarray(z_offsets).size,)
    return np.broadcast_to(np.eye(2, dtype=complex), batch + (2, 2)).copy()


def _interval_unitary(
    spec: HamiltonianSpec, t0: float, t1: float, n: int, z_offsets=None
) -> np.ndarray:
    """Propagator over [t0, t1] at fixed resolution n, chunked for memory."""
    total = _identity(z_offsets)
    done = 0
    h = (t1 - t0) / n
    while done < n:
        m = min(_CHUNK, n - done)
        q = _step_generators(spec, t0 + done * h, t0 + (done + m) * h, m, z_offsets)
        total = _reduce_product(_pauli_exp(q)) @ total
        done += m
    return total


def _initial_steps(
    spec: HamiltonianSpec, duration: float, opts: PropagatorOptions
) -> int:
    """Starting substep count for an interval.

    Resolves the fastest envelope with at least 40 points per period
    (densified for tight tolerances since the local order is fixed) and
    bounds the rotation angle per substep.
    """
    per_period = 40.0 * max(1.0, (1e-6 / max(opts.rel_tol, 1e-14)) ** 0.25)
    n_osc = duration * spec.max_frequency() / TWO_PI * per_period
    n_rot = duration * spec.amplitude_scale() / TWO_PI * 8.0
    n = max(2.0, n_osc, n_rot)
    if opts.max_step is not None:
        n = max(n, duration / opts.max_step)
    if n > 5e8:
        raise PropagationError(
            f"interval of {duration:g} us needs ~{n:.3g} substeps at this "
            "tolerance; spec is too oscillatory for the available resolution"
        )
    return int(math.ceil(n))


def _stepped_unitary(
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    opts: PropagatorOptions,
    tol: float,
    z_offsets=None,
) -> np.ndarray:
    """Direct propagator over [t0, t1]: step doubling until agreement to ``tol``.

    With ``opts.adaptive`` off, a single pass at the initial resolution is
    returned.
    """
    n = _initial_steps(spec, t1 - t0, opts)
    u_prev = _interval_unitary(spec, t0, t1, n, z_offsets)
    if not opts.adaptive:
        return u_prev
    for _ in range(24):
        n *= 2
        if (t1 - t0) / n < 1e-13:
            raise PropagationError(
                f"substep size underflow on [{t0:g}, {t1:g}] us before reaching "
                f"rel_tol = {tol:g}"
            )
        u_next = _interval_unitary(spec, t0, t1, n, z_offsets)
        if np.max(np.abs(u_next - u_prev)) < tol:
            return u_next
        u_prev = u_next
    raise PropagationError(
        f"step doubling did not converge to rel_tol = {tol:g} "
        f"on [{t0:g}, {t1:g}] us"
    )


def _su2_project(u: np.ndarray) -> np.ndarray:
    """Nearest matrix of the form [[a, -b*], [b, a*]] with |a|^2 + |b|^2 = 1."""
    a = 0.5 * (u[..., 0, 0] + u[..., 1, 1].conj())
    b = 0.5 * (u[..., 1, 0] - u[..., 0, 1].conj())
    norm = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a, b = a / norm, b / norm
    out = np.empty_like(u)
    out[..., 0, 0] = a
    out[..., 0, 1] = -b.conj()
    out[..., 1, 0] = b
    out[..., 1, 1] = a.conj()
    return out


def interval_unitary(
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    opts: PropagatorOptions = PropagatorOptions(),
    z_offsets=None,
) -> np.ndarray:
    """Unitary propagator over [t0, t1], refined until step-doubling converges.

    A periodic spec over an interval of m >= 2 periods T is propagated
    stroboscopically, U(t0 + mT, t0) = U_T(t0)^m: one period is refined to
    ``opts.rel_tol / m``, projected onto SU(2) and raised to the m-th power,
    and only the remainder is integrated directly.  With ``opts.adaptive``
    off, every piece is a single pass at the initial resolution.  Raises
    ``PropagationError`` if doubling fails to converge before the substep
    count becomes unreasonable.
    """
    if t1 == t0:
        return _identity(z_offsets)
    f0, defect = spec.fundamental
    duration = t1 - t0
    m = int(duration * f0 / TWO_PI)
    if (
        m < 2
        or defect * duration > 1e-3 * opts.rel_tol
        or (opts.adaptive and opts.rel_tol / m < _MIN_PERIOD_TOL)
    ):
        return _stepped_unitary(spec, t0, t1, opts, opts.rel_tol, z_offsets)
    period = TWO_PI / f0
    t_mid = t0 + m * period
    u_period = _stepped_unitary(
        spec, t0, t0 + period, opts, opts.rel_tol / m, z_offsets
    )
    u = np.linalg.matrix_power(_su2_project(u_period), m)
    # a remainder within round-off of t0 + mT is skipped
    if t1 - t_mid > 16.0 * math.ulp(t1):
        u = _stepped_unitary(spec, t_mid, t1, opts, opts.rel_tol, z_offsets) @ u
    return u


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def evolve(
    spec: HamiltonianSpec,
    psi0: StateVector,
    times,
    opts: PropagatorOptions = PropagatorOptions(),
) -> EvolutionResult:
    """Evolve ``psi0`` from t = 0 through the sorted, non-negative time grid.

    Cosine envelopes carry absolute phases, so evolution always anchors at
    t = 0; the first grid point need not be 0.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times must be sorted and non-negative")
    psi = psi0.as_array()
    states = []
    t_prev = 0.0
    for t in times:
        if t > t_prev:
            psi = interval_unitary(spec, t_prev, float(t), opts) @ psi
            t_prev = float(t)
        states.append(StateVector.from_array(psi))
    pops = np.array([s.p0 for s in states])
    return EvolutionResult(times=times, states=tuple(states), populations=pops)


def evolve_batch(
    spec: HamiltonianSpec,
    psi0: np.ndarray,
    t0: float,
    t1: float,
    z_offsets: np.ndarray,
    opts: PropagatorOptions = PropagatorOptions(adaptive=False, rel_tol=1e-6),
) -> np.ndarray:
    """Advance a batch of states over one segment with per-member sigma_z offsets.

    ``psi0`` has shape (r, 2); ``z_offsets`` shape (r,).  This is the
    noise-ensemble workhorse: all members share the base spec and differ only
    by a constant detuning-like offset.  Returns the advanced (r, 2) states.
    """
    u = interval_unitary(spec, t0, t1, opts, z_offsets=z_offsets)
    return np.einsum("rij,rj->ri", u, psi0)


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


def expectation(state: StateVector, axis: str) -> float:
    """Pauli expectation value of a pure state along x, y or z."""
    a0, a1 = state.a0, state.a1
    if axis == "x":
        return 2.0 * (a0.conjugate() * a1).real
    if axis == "y":
        return 2.0 * (a0.conjugate() * a1).imag
    if axis == "z":
        return abs(a0) ** 2 - abs(a1) ** 2
    raise ValueError(f"axis must be one of x, y, z, got {axis!r}")


def micromotion_error(
    spec: HamiltonianSpec,
    drive: FloquetDriveParams,
    eff: np.ndarray,
    t: float,
    opts: PropagatorOptions = PropagatorOptions(rel_tol=1e-9),
) -> float:
    """Spectral-norm defect of the kick/effective factorization at time t.

    || U_full(t) - exp(-iK(t)) exp(-i H_eff t) exp(+iK(0)) ||_2, where U_full
    propagates ``spec`` exactly and K is the first-order kick operator.  The
    defect shrinks at least quadratically with the drive frequency.
    """
    from .hamiltonian import kick_operator  # local import keeps module load light

    u_full = interval_unitary(spec, 0.0, t, opts)
    k_t = kick_operator(drive, t)
    k_0 = kick_operator(drive, 0.0)
    u_fact = _expm_hermitian(-k_t) @ _expm_hermitian(-eff * t) @ _expm_hermitian(k_0)
    return float(np.linalg.norm(u_full - u_fact, ord=2))


def _expm_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(i h) for a 2x2 Hermitian h (identity part handled separately)."""
    trace_half = 0.5 * np.trace(h).real
    vec = np.array(
        [
            0.5 * (h[0, 1] + h[1, 0]).real,
            0.5 * (h[1, 0] - h[0, 1]).imag,
            0.5 * (h[0, 0] - h[1, 1]).real,
        ]
    )
    return np.exp(1j * trace_half) * _pauli_exp(-vec)

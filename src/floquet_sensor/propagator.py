"""Time evolution of two-level states under a ``HamiltonianSpec``.

The integrator splits an interval into substeps and applies the exact 2x2
exponential of a sixth-order Magnus generator on each substep: the
three-Gauss-point commutator integrator of Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009), sec. 5.  Every substep is exactly unitary, so
norm is preserved to round-off regardless of step size; accuracy is
controlled by Richardson-style step doubling until two resolutions agree to
``rel_tol``.  The starting substep count follows from the order and from
the tolerance of the piece being integrated, as a whole number per drive
period (``_initial_steps``).  A time-independent spec has no truncation
error at all, so an interval takes one exact exponential and no doubling.

Every propagator here is in SU(2), so inside this module it is a quaternion:
four reals (w, x, y, z) with U = w I - i (x sigma_x + y sigma_y + z sigma_z),
in arrays of shape (..., 4).  The substep exponential is
(cos|q|, sin|q| q/|q|) for a generator q, and the product of two elements
is w = w1 w2 - v1.v2, v = w1 v2 + w2 v1 + v1 x v2 (U1 acting last).
Everything is vectorized over substeps, with the running product
accumulated by pairwise reduction.  Complex 2x2 matrices are formed only at
the public boundary (``interval_unitary``, ``evolve``,
``micromotion_error``).

One broadcasting rule batches the kernel.  It takes interval bounds and
sigma_z offsets (a constant sigma_z coefficient each, used for
noise-ensemble averaging; 0.0 for none), and each takes a trailing substep
axis before they broadcast together.  An offset moves only the z component
of the lowest-order generator term, so that term takes the offsets' shape,
while the coefficients and every other term keep the bounds' shape and are
evaluated once for all offsets.  A scalar interval with r offsets gives
(r, 4) propagators; P pieces with bounds of shape (P, 1) and offsets of
shape (P, r) give (P, r, 4); scalar bounds with the offset 0.0 give (4,).

Periodic specs take a stroboscopic route over long intervals: with T the
drive period, U(t0 + mT, t0) = U_T(t0)^m, so one period is integrated and
raised to the m-th power, and only the remainder t1 - (t0 + mT) is
integrated directly.

- Periodicity is read from the spec (``HamiltonianSpec.fundamental``): f0 is
  the smallest nonzero term frequency, and the route is taken only when
  every frequency lies within ``defect`` of a multiple of f0 with
  defect * (t1 - t0) <= 1e-3 * rel_tol, and m >= 2.  Rotating-frame driven
  specs carry their drive tones at exact multiples of the first tone's
  frequency (defect 0, see ``build_fds_prime``); lab-frame and RWA-off
  driven specs miss by a sizable fraction of f0.
  Those, constant specs and intervals shorter than 2T are integrated
  directly, exactly as without the route.
- Step doubling refines U_T until two resolutions agree to rel_tol / m;
  since ||A^m - B^m|| <= m ||A - B|| for unitaries, the m-period product
  keeps the rel_tol contract.  Where rel_tol / m would fall below 3e-13,
  which step doubling of one period cannot resolve above round-off, the
  interval is integrated directly.  Without refinement U_T takes the
  substep count of the direct path at rel_tol: n_T per period, the same for
  every period piece.
- The power has a closed form (the Cayley-Klein parameters of SU(2)): with
  U_T = cos(a) I - i sin(a) n.sigma, a = atan2(|v|, w) and n = v/|v|,
  U_T^m = cos(m a) I - i sin(m a) n.sigma.  a and n do not depend on the
  quaternion's norm, so the power is unit to round-off however far U_T has
  drifted off SU(2), and that defect is not multiplied by m.

Segment axis: ``interval_unitary`` also takes arrays of S segment bounds
with sigma_z offsets of shape (S, r) and returns the (S, r, 2, 2) stack of
the S scalar calls, bit for bit; a scalar call is the one-segment case of
the same route.  The route rule splits each segment into pieces (a direct
interval, or one period and an optional remainder).  With refinement each
piece is step-doubled on its own; without refinement the pieces are grouped
by substep count and run through passes widened to a leading piece axis, in
blocks of at most ``_BLOCK`` substeps x batch members, so a scan's peak
memory does not grow with its segment count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianSpec, kick_operator
from .params import FloquetDriveParams, TWO_PI

_SQRT15 = math.sqrt(15.0)
_GAUSS = _SQRT15 / 10.0  # outer Gauss nodes at t_mid -+ _GAUSS h
_CHUNK = 1 << 16  # substeps per vectorized chunk; bounds peak memory
# substeps x batch members per pass over a group of segment pieces; larger
# blocks save little Python overhead and raise the peak memory of a scan
_BLOCK = 4096
# step doubling of one drive period reaches a round-off floor near 1e-13:
# with the sixth-order substep it stalled for 205 of 840 sampled periods at
# 2e-14, 5 at 1e-13 and none at 2e-13 or 3e-13 (60 starts in [0, 160] us on
# each of 14 driven specs: the dd and fds presets and the robustness presets
# over their error ranges), so the stroboscopic route is not used when it
# would need a period tolerance below this
_MIN_PERIOD_TOL = 3e-13
# relative slack of the substep count's rounding: a count this close to an
# integer is round-off in an interval's length, not a need for one more substep
_SLACK = 1e-9


class PropagationError(RuntimeError):
    """Raised when step refinement cannot reach the requested tolerance."""


@dataclass(frozen=True)
class PropagatorOptions:
    """Accuracy controls for ``evolve``.

    rel_tol : float
        Target agreement between successive step-halvings (amplitude scale).
    adaptive : bool
        If False, skip Richardson refinement and integrate at the initial
        resolution (used for noise-ensemble runs where statistical error
        dominates).
    """

    rel_tol: float = 1e-10
    adaptive: bool = True


def _require_finite(name: str, times) -> None:
    """Raise ``ValueError`` naming ``name`` if any of ``times`` is NaN or infinite."""
    times = np.asarray(times, dtype=float)
    finite = np.isfinite(times)
    if not finite.all():
        bad = times[~finite] if times.ndim else times
        raise ValueError(f"{name} must be finite, got {float(bad.flat[0])!r}")


# ---------------------------------------------------------------------------
# core stepping machinery: SU(2) elements as quaternions
# ---------------------------------------------------------------------------
#
# A quaternion array has shape (..., 4) and holds (w, x, y, z) with
# U = w I - i (x sigma_x + y sigma_y + z sigma_z); unit norm is SU(2).

def _quat_exp(q: np.ndarray) -> np.ndarray:
    """exp(-i q.sigma) for Pauli vectors q, shape (..., 3) -> quaternions (..., 4)."""
    qx, qy, qz = q[..., 0], q[..., 1], q[..., 2]
    n = np.sqrt(qx * qx + qy * qy + qz * qz)
    # sin(n)/n, with its limit 1 at n = 0
    s = np.divide(np.sin(n), n, out=np.ones_like(n), where=n > 0.0)
    out = np.empty(q.shape[:-1] + (4,))
    out[..., 0] = np.cos(n)
    out[..., 1] = s * qx
    out[..., 2] = s * qy
    out[..., 3] = s * qz
    return out


def _quat_mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Quaternions of the products U_a U_b (b acts first), broadcast over leading axes.

    w = wa wb - va.vb and v = wa vb + wb va + va x vb.
    """
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + bw * ax + ay * bz - az * by
    out[..., 2] = aw * by + bw * ay + az * bx - ax * bz
    out[..., 3] = aw * bz + bw * az + ax * by - ay * bx
    return out


def _quat_reduce(qs: np.ndarray) -> np.ndarray:
    """Chronological product q[..., n-1, :] ... q[..., 0, :] via pairwise reduction."""
    while qs.shape[-2] > 1:
        n = qs.shape[-2]
        out = np.empty(qs.shape[:-2] + ((n + 1) // 2, 4))
        _quat_mul(qs[..., 1::2, :], qs[..., 0:n - 1:2, :], out[..., :n // 2, :])
        if n % 2:  # the unpaired last factor carries over
            out[..., -1, :] = qs[..., -1, :]
        qs = out
    return qs[..., 0, :]


def _quat_prefix(qs: np.ndarray) -> np.ndarray:
    """Running chronological products q[k] ... q[0] for every k along axis 0.

    A work-efficient scan (Blelloch, CMU-CS-90-190, 1990): adjacent pairs
    q[2k+1] q[2k] are multiplied, their running products found by
    recursion fill the odd slots, and each even slot 2k > 0 is
    q[2k] times the odd slot before it.  O(n) quaternion products in
    2 log2(n) vectorized calls.
    """
    n = qs.shape[0]
    if n <= 1:
        return qs.copy()
    odd = _quat_prefix(_quat_mul(qs[1::2], qs[0:n - 1:2]))
    out = np.empty_like(qs)
    out[0] = qs[0]
    out[1::2] = odd
    _quat_mul(qs[2::2], odd[:(n - 1) // 2], out[2::2])
    return out


def _quat_power(u: np.ndarray, m: int) -> np.ndarray:
    """U^m = cos(m a) I - i sin(m a) n.sigma for U = cos(a) I - i sin(a) n.sigma.

    a = atan2(|v|, w) and n = v/|v| do not depend on the norm of (w, v), so
    the power is unit to round-off even where u carries a norm defect;
    |v| = 0 gives cos(m a) I.
    """
    w, v = u[..., 0], u[..., 1:]
    vn = np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])
    angle = m * np.arctan2(vn, w)
    scale = np.divide(np.sin(angle), vn, out=np.zeros_like(vn), where=vn > 0.0)
    out = np.empty_like(u)
    out[..., 0] = np.cos(angle)
    out[..., 1:] = v * scale[..., None]
    return out


# (re, im) of the entries 00, 01, 10, 11 of U from (w, x, y, z): each column
# holds one signed 1, so the product with it is exact
_TO_MATRIX = np.zeros((4, 8))
_TO_MATRIX[[0, 3, 2, 1, 2, 1, 0, 3], range(8)] = [1, -1, -1, -1, 1, -1, 1, 1]


def _quat_matrix(u: np.ndarray) -> np.ndarray:
    """Complex 2x2 matrices [[w - iz, -y - ix], [y - ix, w + iz]] of quaternions u."""
    return (u @ _TO_MATRIX).view(complex).reshape(u.shape[:-1] + (2, 2))


def _pauli_exp(q: np.ndarray) -> np.ndarray:
    """exp(-i q.sigma) for an array of Pauli vectors q, shape (..., 3) -> (..., 2, 2)."""
    return _quat_matrix(_quat_exp(q))


def _reduce_product(us: np.ndarray) -> np.ndarray:
    """Chronological product u[..., n-1] @ ... @ u[..., 0] of complex 2x2 matrices.

    The complex counterpart of ``_quat_reduce``, kept as a reference for
    tests and layer timings; propagation runs on quaternions.
    """
    while us.shape[-3] > 1:
        n = us.shape[-3]
        if n % 2:
            eye = np.broadcast_to(
                np.eye(2, dtype=complex), us.shape[:-3] + (1, 2, 2)
            )
            us = np.concatenate([us, eye], axis=-3)
        us = np.matmul(us[..., 1::2, :, :], us[..., 0::2, :, :])
    return us[..., 0, :, :]


def _cross(a, b):
    """Components of a x b for vectors given as component triples."""
    ax, ay, az = a
    bx, by, bz = b
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def _step_generators(spec: HamiltonianSpec, t0, t1, n: int, z_offsets) -> np.ndarray:
    """Magnus generators q for n substeps of [t0, t1], shape (..., n, 3).

    The leading shape is that of the bounds and the offsets broadcast
    together, by the broadcasting rule of the module docstring.

    Sixth order from the three Gauss points t_mid - g h, t_mid and
    t_mid + g h (g = sqrt(15)/10) per substep, with p1, p2, p3 the Pauli
    vectors of H there (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009), sec. 5; a commutator of Pauli vectors is 2 a x b):

        a1 = h p2,  a2 = (sqrt(15) h/3)(p3 - p1),  a3 = (10 h/3)(p3 - 2 p2 + p1)
        c1 = 2 a1 x a2,  c2 = -(1/30) a1 x (2 a3 + c1)
        q = a1 + a3/12 + (1/120)(-20 a1 - a3 + c1) x (a2 + c2)

    ``z_offsets`` adds a constant sigma_z coefficient d (0.0 for none).  It
    moves only the z component of a1, by h d, so the coefficients, a2 and a3
    keep the bounds' shape and are shared by every offset.  A constant spec
    has a2 = a3 = 0, so q = h p is exact and takes one coefficient evaluation.
    """
    t0, t1 = np.asarray(t0)[..., None], np.asarray(t1)[..., None]
    h = (t1 - t0) / n
    mids = t0 + (np.arange(n) + 0.5) * h
    d = np.asarray(z_offsets, dtype=float)[..., None]
    p2 = spec.coefficients(mids)
    a1 = [h * p2[..., 0], h * p2[..., 1], h * p2[..., 2] + d * h]
    if spec.fundamental[0] == 0.0:
        q = a1
    else:
        g = _GAUSS * h
        p1 = spec.coefficients(mids - g)
        p3 = spec.coefficients(mids + g)
        k2, k3 = _SQRT15 / 3.0 * h, 10.0 / 3.0 * h
        a2 = [k2 * (p3[..., i] - p1[..., i]) for i in range(3)]
        a3 = [k3 * (p3[..., i] - 2.0 * p2[..., i] + p1[..., i]) for i in range(3)]
        c1 = [2.0 * c for c in _cross(a1, a2)]
        c2 = [c / -30.0 for c in _cross(a1, [2.0 * e + c for e, c in zip(a3, c1)])]
        uv = _cross([-20.0 * a - e + c for a, e, c in zip(a1, a3, c1)],
                    [b + c for b, c in zip(a2, c2)])
        q = [a + e / 12.0 + c / 120.0 for a, e, c in zip(a1, a3, uv)]
    out = np.empty(np.broadcast_shapes(*(c.shape for c in q)) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = q
    return out


def _interval_unitary(spec: HamiltonianSpec, t0, t1, n: int, z_offsets) -> np.ndarray:
    """Quaternion propagator over [t0, t1] in n substeps, chunked for memory.

    Shape (..., 4), with the leading shape of ``_step_generators``.
    """
    total = None
    done = 0
    h = (t1 - t0) / n
    while done < n:
        m = min(_CHUNK, n - done)
        q = _step_generators(spec, t0 + done * h, t0 + (done + m) * h, m, z_offsets)
        chunk = _quat_reduce(_quat_exp(q))
        total = chunk if total is None else _quat_mul(chunk, total)
        done += m
    return total


def _initial_steps(spec: HamiltonianSpec, duration, tol: float):
    """Starting substep count for an interval of ``duration`` at tolerance ``tol``.

    A constant spec takes one substep, whose exponential is exact.  Any
    other spec takes a whole number n_T of substeps per period T = 2 pi/f0
    of its fundamental: 8 (1e-6/tol_T)^(1/6) per period of the fastest tone
    (the sixth-order error per substep falls as h^7), and at least 8 per
    2 pi of the rotation-rate bound ``amplitude_scale``.  The errors of the
    periods add up, so an interval of m >= 1 whole periods is resolved for
    tol_T = tol / m per period, the tolerance of the stroboscopic route's
    one-period piece.  An interval takes its length's share of n_T per
    period.  A count within 1e-9 (relative) of an integer is not rounded
    up, so every one-period piece takes exactly n_T substeps, whatever the
    round-off in its length.

    ``duration`` may be an array of interval lengths, which gives an int
    array of counts: n_T is worked out once per distinct whole-period count
    m, and the rest is one array expression.  A scalar gives an int.
    """
    lengths = np.asarray(duration, dtype=float)
    f0 = spec.fundamental[0]
    if f0 == 0.0:
        return 1 if lengths.ndim == 0 else np.ones(lengths.shape, dtype=int)
    fastest, rate_bound = spec.max_frequency(), spec.amplitude_scale() * 8.0

    def per_period(m: int) -> int:  # n_T at the period tolerance tol / m
        per_tone = 8.0 * max(1.0, (1e-6 / max(tol / m, 1e-14)) ** (1.0 / 6.0))
        return math.ceil(max(fastest * per_tone, rate_bound) / f0 * (1.0 - _SLACK))

    periods = lengths * f0 / TWO_PI
    if periods.ndim == 0:
        n = periods * per_period(max(1, int(periods)))
    else:
        whole, where = np.unique(np.maximum(1, periods.astype(int)), return_inverse=True)
        counts = np.array([per_period(m) for m in whole.tolist()])
        n = periods * counts[where.reshape(periods.shape)]
    if np.any(n > 5e8):
        k = np.flatnonzero(n > 5e8)[0]
        raise PropagationError(
            f"interval of {lengths.flat[k]:g} us needs ~{n.flat[k]:.3g} substeps at this "
            "tolerance; spec is too oscillatory for the available resolution"
        )
    steps = np.maximum(1, np.ceil(n * (1.0 - _SLACK))).astype(int)
    return int(steps) if steps.ndim == 0 else steps


def _periods(spec: HamiltonianSpec, duration: float, opts: PropagatorOptions) -> int:
    """Drive periods m of the stroboscopic route for an interval duration.

    0 where the interval is integrated directly: under two periods, a spec
    not periodic to within the tolerance budget, or (with refinement) a
    period tolerance rel_tol / m below the round-off floor.
    """
    f0, defect = spec.fundamental
    m = int(duration * f0 / TWO_PI)
    if (
        m < 2
        or defect * duration > 1e-3 * opts.rel_tol
        or (opts.adaptive and opts.rel_tol / m < _MIN_PERIOD_TOL)
    ):
        return 0
    return m


def _stepped_unitary(spec: HamiltonianSpec, t0: float, t1: float, tol: float,
                     z_offsets) -> np.ndarray:
    """Direct quaternion propagator over [t0, t1]: step doubling until agreement to ``tol``.

    A constant spec takes its one exact exponential, with no doubling.
    Doubling stops with ``PropagationError`` as soon as the residual fails to
    shrink, since below the round-off floor further doublings only cost time.
    """
    n = _initial_steps(spec, t1 - t0, tol)
    u_prev = _interval_unitary(spec, t0, t1, n, z_offsets)
    if spec.fundamental[0] == 0.0:
        return u_prev
    residual = math.inf
    for _ in range(24):
        n *= 2
        if (t1 - t0) / n < 1e-13:
            raise PropagationError(
                f"substep size underflow on [{t0:g}, {t1:g}] us before reaching "
                f"rel_tol = {tol:g}"
            )
        u_next = _interval_unitary(spec, t0, t1, n, z_offsets)
        # max abs over the complex matrix entries: |w - iz| and |-y - ix|
        d = u_next - u_prev
        step = float(np.max(np.maximum(np.hypot(d[..., 0], d[..., 3]),
                                       np.hypot(d[..., 1], d[..., 2]))))
        if step < tol:
            return u_next
        if step >= residual:
            raise PropagationError(
                f"step doubling stalled on [{t0:g}, {t1:g}] us: the residual "
                f"reached {residual:.3g}, then {step:.3g} at {n} substeps, "
                f"above rel_tol = {tol:g} (round-off floor)"
            )
        residual = step
        u_prev = u_next
    raise PropagationError(
        f"step doubling did not converge to rel_tol = {tol:g} "
        f"on [{t0:g}, {t1:g}] us"
    )


def interval_unitary(
    spec: HamiltonianSpec,
    t0,
    t1,
    opts: PropagatorOptions = PropagatorOptions(),
    z_offsets=None,
) -> np.ndarray:
    """Unitary propagator over [t0, t1], refined until step-doubling converges.

    A periodic spec over an interval of m >= 2 periods T is propagated
    stroboscopically, U(t0 + mT, t0) = U_T(t0)^m: one period is refined to
    ``opts.rel_tol / m`` and raised to the m-th power in closed form, and
    only the remainder is integrated directly.  With ``opts.adaptive``
    off, every piece is a single pass at the initial resolution.  Raises
    ``PropagationError`` if doubling fails to converge before the substep
    count becomes unreasonable, and ``ValueError`` for a bound t1 < t0 or a
    bound that is not finite.

    Arrays of S segment bounds, with ``z_offsets`` of shape (S, r), give the
    (S, r, 2, 2) stack of the S scalar calls, bit for bit; a scalar call is
    the one-segment case.
    """
    segments = bool(np.ndim(t0) or np.ndim(t1))
    if segments:
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        rows = None if z_offsets is None else np.asarray(z_offsets, dtype=float)
        if (t0.ndim != 1 or t1.shape != t0.shape or rows is None or rows.ndim != 2
                or rows.shape[0] != t0.size):
            raise ValueError("array segment bounds t0, t1 need shape (S,) and "
                             "z_offsets shape (S, r)")
        bounds = list(zip(t0.tolist(), t1.tolist()))
    else:
        bounds = [(float(t0), float(t1))]
        rows = np.asarray(0.0 if z_offsets is None else z_offsets, dtype=float)[None]
    _require_finite("interval bound t0", t0)
    _require_finite("interval bound t1", t1)
    # the route rule per segment, as pieces (start, end, tolerance, segment):
    # heads holds each moving segment's direct interval or one period (at
    # rel_tol / m), in order; tails the remainders of the heads in ``rest``
    heads, tails, moving, strobe, rest = [], [], [], {}, []
    for seg, (a, b) in enumerate(bounds):
        if a == b:
            continue
        if b < a:
            raise ValueError(f"interval end {b:g} us precedes its start {a:g} us")
        moving.append(seg)
        m = _periods(spec, b - a, opts)
        if m == 0:
            heads.append((a, b, opts.rel_tol, seg))
            continue
        period = TWO_PI / spec.fundamental[0]
        t_mid = a + m * period
        strobe.setdefault(m, []).append(len(heads))
        # a remainder within round-off of t0 + mT is skipped
        if b - t_mid > 16.0 * math.ulp(b):
            rest.append(len(heads))
            tails.append((t_mid, b, opts.rel_tol, seg))
        heads.append((a, a + period, opts.rel_tol / m, seg))
    us = _piece_unitaries(spec, heads + tails, opts, rows)
    u = us[:len(heads)]
    # one piece is indexed by an integer: list indexing costs microseconds
    for m, k in strobe.items():
        k = k[0] if len(k) == 1 else k
        u[k] = _quat_power(u[k], m)
    if rest:
        k, tail = (rest[0], us[-1]) if len(rest) == 1 else (rest, us[len(heads):])
        u[k] = _quat_mul(tail, u[k])
    if len(moving) < len(bounds):  # zero-length segments take the identity
        out = np.zeros((len(bounds),) + u.shape[1:])
        out[..., 0] = 1.0
        out[moving] = u
        u = out
    return _quat_matrix(u if segments else u[0])


def _piece_unitaries(spec, pieces, opts, rows) -> np.ndarray:
    """Quaternion propagators of the P pieces (start, end, tol, segment), (P, ..., 4).

    ``rows[segment]`` holds the sigma_z offsets of a piece.  With
    ``opts.adaptive`` each piece is refined to its tolerance on its own.
    Otherwise pieces are grouped by substep count n, and each group is passed
    to ``_interval_unitary`` in blocks of at most ``_BLOCK`` substeps x batch
    members (at least one piece per block).  The bounds take one unit axis
    per batch axis of the offsets; a block of one piece is indexed by an
    integer, so its bounds drop the piece axis.
    """
    batch = rows.shape[1:]
    us = np.empty((len(pieces),) + batch + (4,))
    if opts.adaptive or not pieces:  # no pieces: the loop returns the empty stack
        for k, (a, b, tol, seg) in enumerate(pieces):
            us[k] = _stepped_unitary(spec, a, b, tol, rows[seg])
        return us
    a, b, _, seg = zip(*pieces)
    a, b = np.array(a), np.array(b)
    steps = _initial_steps(spec, b - a, opts.rel_tol)
    unit = (...,) + (None,) * len(batch)
    a, b, z = a[unit], b[unit], rows[list(seg)]  # offsets per piece
    for n in np.unique(steps).tolist():
        group = np.flatnonzero(steps == n)
        per_block = max(1, _BLOCK // (n * max(1, math.prod(batch))))
        for start in range(0, group.size, per_block):
            idx = group[start:start + per_block]
            k = idx[0] if idx.size == 1 else idx
            us[k] = _interval_unitary(spec, a[k], b[k], n, z[k])
    return us


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def evolve(
    spec: HamiltonianSpec,
    psi0,
    times,
    opts: PropagatorOptions = PropagatorOptions(),
) -> np.ndarray:
    """Evolve ``psi0`` from t = 0 through the sorted, non-negative time grid.

    ``psi0`` holds the amplitudes over {|0>, |1>} and must have unit norm (to
    1e-9).  Returns the (T, 2) complex array of the states at the T grid
    times.  Term tones carry absolute phases, so evolution always
    anchors at t = 0; the first grid point need not be 0.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    _require_finite("times", times)
    if np.any(np.diff(times) < 0) or times[0] < 0:
        raise ValueError("times must be sorted and non-negative")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (2,):
        raise ValueError(f"psi0 must be a 2-vector, got shape {psi.shape}")
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"psi0 norm^2 = {norm!r} deviates from 1")
    states = np.empty((times.size, 2), dtype=complex)
    t_prev = 0.0
    for i, t in enumerate(times):
        if t > t_prev:
            psi = interval_unitary(spec, t_prev, float(t), opts) @ psi
            t_prev = float(t)
        states[i] = psi
    return states


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


def expectation(state, axis: str) -> float:
    """Pauli expectation value of a pure state (a 2-vector) along x, y or z."""
    a0, a1 = complex(state[0]), complex(state[1])
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

"""Time evolution of two-level states under a ``HamiltonianSpec``.

The integrator splits an interval into substeps and applies the exact 2x2
exponential of a sixth-order Magnus generator on each substep: the
three-Gauss-point commutator integrator of Blanes, Casas, Oteo & Ros,
Phys. Rep. 470, 151 (2009), sec. 5.  Every substep is exactly unitary, so
norm is preserved to round-off regardless of step size; accuracy is
controlled by Richardson-style step doubling until two resolutions agree to
``rel_tol``.  A doubled resolution is the interval split into equal parts of
the first pass's substep count, all parts the rows of one kernel call, so
a round of doubling is one call up to ``_CHUNK`` substeps per batch member
(``_stepped_unitary``).  The starting substep count follows from the
order, from the tolerance of the piece being integrated and from the size
of the offsets, as a whole number per drive period (``_initial_steps``).
A time-independent spec has no truncation error at all, so an interval
takes one exact exponential and no doubling.  Nor is an interval doubled
whose halved substeps would fall below 1e-13 us.

Every propagator here is in SU(2), so inside this module it is a quaternion:
four reals (w, x, y, z) with U = w I - i (x sigma_x + y sigma_y + z sigma_z),
in arrays of shape (..., 4).  The substep exponential is
(cos|q|, sin|q| q/|q|) for a generator q, and the product of two elements
is w = w1 w2 - v1.v2, v = w1 v2 + w2 v1 + v1 x v2 (U1 acting last).  Every
product is taken in its Cayley-Dickson form, on a complex view of the
array: with p = w + ix and q = y + iz, (p1, q1)(p2, q2) =
(p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2)), four complex multiplies and
three other numpy calls (``_pair_mul``).  Everything is vectorized over
substeps, with the running product accumulated by pairwise reduction
(``_quat_reduce``), each level of it one such product over all adjacent
pairs.  The scan engine of ``experiments`` takes the quaternions as they
are (``_fixed_pieces``); complex 2x2 matrices are formed only at the
public boundary (``interval_unitary``, ``evolve``, ``micromotion_error``).

One broadcasting rule batches the kernel.  It takes interval bounds and
offsets, one entry per batch member, and each takes a trailing substep
axis before they broadcast together.  An offset is a constant added to the
spec's Pauli coefficients: a real entry d adds d sigma_z (the detuning
noise of an ensemble member; 0.0 for none), and a complex entry adds
Re(d) sigma_z + Im(d) sigma_x (the amplitude family of the QFI oracle and
pipeline: a signal amplitude w enters the center-amplitude spec as the
offset 0.5j (w - omega_s_amp)).  Real offsets stay in float arithmetic
and touch only the z component.  An offset moves only the
lowest-order generator term, so that term takes the offsets' shape, while
the coefficients and every other term keep the bounds' shape and are
evaluated once for all offsets.  A scalar interval with r offsets gives
(r, 4) propagators; P pieces with bounds of shape (P, 1) and offsets of
shape (P, r) give (P, r, 4); scalar bounds with the offset 0.0 give (4,).
The offsets are never widened by a Pauli axis, so the kernel's substep
work is always n times the offsets' size.  Non-finite offsets are
rejected, as are non-finite bounds.

Periodic specs take a stroboscopic route over long intervals: with T the
drive period, U(t0 + mT, t0) = U_T(t0)^m, so one period is integrated and
raised to the m-th power, and only the remainder [t0 + mT, t1] is
integrated directly, whatever its length: zero, a few ulp, or a few ulp
below zero where t0 + mT rounds past t1 (a backward step).  The remainder
rides along with the period's step doubling as the last rows of each
round's kernel call, so the route takes one kernel call per round.

- Periodicity is read from the spec (``HamiltonianSpec.fundamental``): f0 is
  the smallest nonzero term frequency, and the route is taken only when
  every frequency lies within ``defect`` of a multiple of f0 with
  defect * (t1 - t0) <= 1e-3 * rel_tol, and m >= 2.  Rotating-frame driven
  specs carry their drive tones at exact multiples of the first tone's
  frequency (defect 0, see ``build_fds_prime``); the lab-frame and RWA-off
  driven specs of the tests' oracles miss by a sizable fraction of f0.
  Those, constant specs and intervals shorter than 2T are integrated
  directly, exactly as without the route.
- Step doubling refines U_T until two resolutions agree to rel_tol / m;
  since ||A^m - B^m|| <= m ||A - B|| for unitaries, the m-period product
  keeps the rel_tol contract.  Where rel_tol / m would fall below 3e-13,
  which step doubling of one period cannot resolve above round-off, the
  interval is integrated directly.
- The remainder takes the period's substep count on each of its rows, cut
  in each round into rows no longer than the parts of the round before, the
  comparator of the residual: one row in the first round, since it is
  shorter than T.  Its substeps are never coarser than the comparator's,
  so its error stays below the residual, < rel_tol / m.
- The power has a closed form (the Cayley-Klein parameters of SU(2)): with
  U_T = cos(a) I - i sin(a) n.sigma, a = atan2(|v|, w) and n = v/|v|,
  U_T^m = cos(m a) I - i sin(m a) n.sigma.  a and n do not depend on the
  quaternion's norm, so the power is unit to round-off however far U_T has
  drifted off SU(2), and that defect is not multiplied by m.

An interval's bounds are scalars, and a call is one step-doubled piece
(``_stepped_unitary``): one period at rel_tol / m carrying its remainder,
or one direct interval.  One rule (``_initial_steps``) gives the piece its
starting substep count.

The scan engine of ``experiments`` also integrates pieces at a fixed
resolution, with no refinement: the sub-period pieces of one folded drive
period and the exact exponentials of a constant spec.  ``_fixed_pieces``
takes P such pieces with offsets of shape (P, r), one pass per piece at the
starting count of the step rule; the pieces are grouped by count and each
group runs in blocks of at most ``_BLOCK`` substeps x batch members, so a
scan's peak memory does not grow with its piece count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianSpec, kick_operator
from .params import FloquetDriveParams, TWO_PI, _require_finite

_SQRT15 = math.sqrt(15.0)
_GAUSS = _SQRT15 / 10.0  # outer Gauss nodes at t_mid -+ _GAUSS h
_CHUNK = 1 << 16  # substeps per vectorized chunk; bounds peak memory
# substeps x batch members per pass over a group of fixed-resolution pieces;
# larger blocks save little Python overhead and raise the peak memory of a scan
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
    """Accuracy controls of every propagation, and so of the scans and oracles.

    rel_tol : float
        Target agreement between successive step-halvings (amplitude scale), > 0.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.rel_tol < math.inf:  # NaN fails too
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol!r}")


def _as_numbers(values) -> np.ndarray:
    """``values`` as a float array, or as a complex one where they hold complex numbers."""
    return np.asarray(values, dtype=complex if np.iscomplexobj(values) else float)


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


def _complex_pairs(u: np.ndarray) -> np.ndarray:
    """Float quaternions (..., 4) as complex pairs (..., 2): p = w + ix and q = y + iz.

    A view of ``u`` where its last axis is contiguous, else of a copy.
    """
    try:
        return u.view(complex)
    except ValueError:  # the last axis is not contiguous
        return np.ascontiguousarray(u).view(complex)


def _pair_mul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """(p1, q1)(p2, q2) = (p1 p2 - q1 conj(q2), p1 q2 + q1 conj(p2)) into ``out``.

    The Cayley-Dickson form of the quaternion product on complex pairs
    (``_complex_pairs``): four complex multiplies and three other calls.
    """
    p1, q1 = a[..., 0], a[..., 1]
    b_conj = b.conj()
    p, q = out[..., 0], out[..., 1]
    np.multiply(p1, b[..., 0], out=p)
    p -= q1 * b_conj[..., 1]
    np.multiply(p1, b[..., 1], out=q)
    q += q1 * b_conj[..., 0]


def _quat_mul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Quaternions of the products U_a U_b (b acts first), broadcast over leading axes.

    w = wa wb - va.vb and v = wa vb + wb va + va x vb, taken on the complex
    pairs of a and b (``_pair_mul``).
    """
    a, b = _complex_pairs(a), _complex_pairs(b)
    if out is None:
        out = np.empty(np.broadcast(a, b).shape[:-1] + (4,))
    try:
        pairs = out.view(complex)
    except ValueError:  # the last axis of out is not contiguous
        out[...] = _quat_mul(a.view(float), b.view(float))
    else:
        _pair_mul(a, b, pairs)
    return out


def _quat_reduce(qs: np.ndarray) -> np.ndarray:
    """Chronological product q[..., n-1, :] ... q[..., 0, :] via pairwise reduction.

    Each level multiplies its adjacent pairs in one ``_pair_mul`` on the
    complex pairs of the factors, seven numpy calls however many pairs.
    """
    qs = _complex_pairs(qs)
    while qs.shape[-2] > 1:
        n = qs.shape[-2]
        out = np.empty(qs.shape[:-2] + ((n + 1) // 2, 2), dtype=complex)
        _pair_mul(qs[..., 1::2, :], qs[..., 0:n - 1:2, :], out[..., :n // 2, :])
        if n % 2:  # the unpaired last factor carries over
            out[..., -1, :] = qs[..., -1, :]
        qs = out
    return qs[..., 0, :].view(float)


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


def _quat_power(u: np.ndarray, m) -> np.ndarray:
    """U^m = cos(m a) I - i sin(m a) n.sigma for U = cos(a) I - i sin(a) n.sigma.

    ``m`` is one integer or an integer array that broadcasts against the
    leading shape of ``u``; the result has the broadcast shape, and each
    entry is the bits of the scalar call at its exponent.  a = atan2(|v|, w)
    and n = v/|v| do not depend on the norm of (w, v), so the power is unit
    to round-off even where u carries a norm defect; |v| = 0 gives cos(m a) I.
    """
    w, v = u[..., 0], u[..., 1:]
    vn = np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1] + v[..., 2] * v[..., 2])
    angle = m * np.arctan2(vn, w)
    vn = np.broadcast_to(vn, angle.shape)
    scale = np.divide(np.sin(angle), vn, out=np.zeros_like(vn), where=vn > 0.0)
    out = np.empty(angle.shape + (4,))
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

    ``z_offsets`` adds a constant coefficient d (0.0 for none): d sigma_z for
    a real d, Re(d) sigma_z + Im(d) sigma_x for a complex one.  It moves only
    a1, by h d, so the coefficients, a2 and a3 keep the bounds' shape and are
    shared by every offset.  The three node sets take one coefficient
    evaluation, stacked on a leading axis.  A constant spec has a2 = a3 = 0,
    so q = h p is exact and takes the midpoints alone.
    """
    t0, t1 = np.asarray(t0)[..., None], np.asarray(t1)[..., None]
    h = (t1 - t0) / n
    mids = t0 + (np.arange(n) + 0.5) * h
    d = _as_numbers(z_offsets)[..., None]
    constant = spec.fundamental[0] == 0.0
    if constant:
        p2 = spec.coefficients(mids)
    else:
        g = _GAUSS * h
        p1, p2, p3 = spec.coefficients(np.stack([mids - g, mids, mids + g]))
    if np.iscomplexobj(d):
        a1 = [h * p2[..., 0] + d.imag * h, h * p2[..., 1], h * p2[..., 2] + d.real * h]
    else:
        a1 = [h * p2[..., 0], h * p2[..., 1], h * p2[..., 2] + d * h]
    if constant:
        q = a1
    else:
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


def _initial_steps(spec: HamiltonianSpec, duration, tol, offset: float = 0.0):
    """Starting substep counts for intervals of ``duration`` at tolerance ``tol``.

    ``duration`` is one interval length or an array of them, and ``tol`` one
    tolerance or one per interval; the counts are an int array of the
    lengths' shape.  A constant spec takes one substep, whose exponential is
    exact.  Any other spec takes a whole number n_T of substeps per period
    T = 2 pi/f0 of its fundamental: 8 (1e-6/tol_T)^(1/6) per period of the
    fastest tone (the sixth-order error per substep falls as h^7).  The
    rotation-rate bound, ``amplitude_scale`` plus ``offset`` (the largest
    magnitude of the offsets added to the spec), takes the place of the
    fastest tone's frequency where it is larger: a noise ensemble's
    detunings can outgrow every tone of its drive.  The
    errors of the periods add up, so an interval of m >= 1 whole periods is
    resolved for tol_T = tol / m per period, the tolerance of the
    stroboscopic route's one-period piece.  An interval takes its length's
    share of n_T per period, and n_T is worked out once per distinct tol_T.
    A count within 1e-9 (relative) of an integer is not rounded up, so every
    one-period piece takes exactly n_T substeps, whatever the round-off in
    its length.
    """
    f0 = spec.fundamental[0]
    if f0 == 0.0:
        return np.ones(np.shape(duration), dtype=int)
    lengths = np.asarray(duration, dtype=float)
    periods = lengths * f0 / TWO_PI
    tol_period = np.asarray(tol, dtype=float) / np.maximum(1, periods.astype(int))
    fastest = max(spec.max_frequency(), spec.amplitude_scale() + offset)
    per_period = np.empty(tol_period.shape, dtype=int)  # n_T of each interval
    for tol_t in set(tol_period.ravel().tolist()):
        per_tone = 8.0 * max(1.0, (1e-6 / max(tol_t, 1e-14)) ** (1.0 / 6.0))
        n_t = math.ceil(fastest * per_tone / f0 * (1.0 - _SLACK))
        per_period[tol_period == tol_t] = n_t
    n = periods * per_period
    if np.any(n > 5e8):
        k = np.flatnonzero(n > 5e8)[0]
        raise PropagationError(
            f"interval of {lengths.flat[k]:g} us needs ~{n.flat[k]:.3g} substeps at this "
            "tolerance; spec is too oscillatory for the available resolution"
        )
    return np.maximum(1, np.ceil(n * (1.0 - _SLACK))).astype(int)


def _periods(spec: HamiltonianSpec, duration: float, rel_tol: float) -> int:
    """Drive periods m of the stroboscopic route for an interval of ``duration``.

    0 where the interval is integrated directly: under two periods, a spec
    not periodic to within the tolerance budget, or a period tolerance
    rel_tol / m below the round-off floor.
    """
    f0, defect = spec.fundamental
    m = int(duration * f0 / TWO_PI)
    if m < 2 or defect * duration > 1e-3 * rel_tol or rel_tol / m < _MIN_PERIOD_TOL:
        return 0
    return m


def _round_rows(t0: float, t1: float, k: int, rest):
    """Row bounds (starts, ends) of round k of step doubling over [t0, t1],
    and the row index at which each of the round's groups ends.

    Round k >= 1 splits the interval into 2^k equal parts, one group; round
    1 puts the whole interval before them as a group of its own, the coarse
    row, and round 0 is the whole interval alone.  ``rest``, a remainder
    (a, b) or None, adds a last group over [a, b]: as few equal rows as keep
    each no longer than (t1 - t0) / 2^(k-1), the parts of the round before,
    and at least one.  A row within 1e-9 (relative) of that length counts
    as no longer, so a remainder shorter than the interval takes one row in
    rounds 0 and 1, whatever the round-off in its length.
    """
    edges = np.linspace(t0, t1, (1 << k) + 1)
    starts, ends = [edges[:-1]], [edges[1:]]
    if k == 1:
        starts.insert(0, [t0])
        ends.insert(0, [t1])
    cuts = [1, 3] if k == 1 else [1 << k]
    if rest is not None:
        a, b = rest
        rows = max(1, math.ceil(abs(b - a) * 2.0 ** (k - 1) / (t1 - t0) * (1.0 - _SLACK)))
        edges = np.linspace(a, b, rows + 1)
        starts.append(edges[:-1])
        ends.append(edges[1:])
        cuts.append(cuts[-1] + rows)
    return np.concatenate(starts), np.concatenate(ends), cuts


def _row_products(spec: HamiltonianSpec, starts: np.ndarray, ends: np.ndarray,
                  cuts: list[int], n: int, z_offsets) -> list[np.ndarray]:
    """Quaternion propagators of the row groups of one pass, n substeps a row.

    The rows [starts, ends] go through the kernel with the offsets broadcast
    to each, in as few calls as keep at most ``_CHUNK`` substeps per batch
    member (rows x n).  Group g is the rows from cuts[g - 1] (0 for the
    first) to cuts[g], and its propagator is their chronological product:
    the product of each call's rows of the group, multiplied into the
    running product of the calls before it.
    """
    batch = np.shape(z_offsets)
    unit = (slice(None),) + (None,) * len(batch)
    rows_last = (*range(1, len(batch) + 1), 0, len(batch) + 1)  # the row axis next to last
    size = max(1, _CHUNK // n)
    groups = list(zip([0] + cuts[:-1], cuts))
    products = [None] * len(groups)
    for i in range(0, starts.size, size):
        a, b = starts[i:i + size], ends[i:i + size]
        u = _interval_unitary(spec, a[unit], b[unit], n,
                              np.broadcast_to(z_offsets, a.shape + batch))
        for g, (lo, hi) in enumerate(groups):
            rows = u[max(lo - i, 0):max(hi - i, 0)]
            if rows.shape[0]:
                p = _quat_reduce(rows.transpose(rows_last))
                products[g] = p if products[g] is None else _quat_mul(p, products[g])
    return products


def _stepped_unitary(spec: HamiltonianSpec, t0: float, t1: float, n: int, tol: float,
                     z_offsets, rest=None):
    """Quaternion propagator over [t0, t1], from a first pass of n substeps
    doubled until two resolutions agree to ``tol``.

    Round k splits the interval into 2^k equal parts of n substeps each and
    takes them as the rows of one kernel call (``_round_rows``,
    ``_row_products``), so a round costs one call however fine it is; the
    first round adds the whole interval at n substeps as a third row, the
    coarse resolution its two halves are compared with.  The first pass is
    final for a constant spec, whose one exponential is exact, and where the
    first doubling would take a substep below 1e-13 us: there h |H| < 1e-9
    even at the 1e4 rad/us of a lab-frame spec, so the sixth-order error is
    far below round-off.  Doubling stops with ``PropagationError`` as soon
    as the residual fails to shrink, since below the round-off floor further
    doublings only cost time, and as soon as it is not a number, which no
    doubling mends.  The residual is the largest over the batch members, so
    they share one substep count; the messages name the total substep count
    of a round.

    ``rest``, a remainder (a, b) shorter than the interval or None, rides
    along as the last rows of every round, at n substeps a row, and the pair
    (interval, remainder) is returned.  In round k the remainder is cut into
    rows no longer than the parts of round k - 1, the comparator of the
    residual, so it is one row in the first round.  Its substeps are then
    never coarser than the comparator's, and the error of a sixth-order pass
    grows with its length and its substep, so the remainder's error stays
    below the comparator's, which the residual measures: below ``tol``.  The
    residual rule (convergence, stall, not-a-number, substep floor and round
    cap) reads the interval alone.
    """
    if spec.fundamental[0] == 0.0 or (t1 - t0) / (2 * n) < 1e-13:
        products = _row_products(spec, *_round_rows(t0, t1, 0, rest), n, z_offsets)
        return products[0] if rest is None else tuple(products)
    u_prev, u_next, *u_rest = _row_products(spec, *_round_rows(t0, t1, 1, rest), n, z_offsets)
    residual = math.inf
    for k in range(1, 25):
        substeps = n << k
        if k > 1:
            if (t1 - t0) / substeps < 1e-13:
                raise PropagationError(
                    f"substep size underflow on [{t0:g}, {t1:g}] us before reaching "
                    f"rel_tol = {tol:g}"
                )
            u_prev = u_next
            u_next, *u_rest = _row_products(spec, *_round_rows(t0, t1, k, rest), n, z_offsets)
        # max abs over the complex matrix entries: |w - iz| and |-y - ix|
        d = u_next - u_prev
        step = float(np.max(np.maximum(np.hypot(d[..., 0], d[..., 3]),
                                       np.hypot(d[..., 1], d[..., 2]))))
        if step < tol:
            return u_next if rest is None else (u_next, u_rest[0])
        if math.isnan(step):
            raise PropagationError(
                f"step doubling on [{t0:g}, {t1:g}] us gave a residual that is "
                f"not a number at {substeps} substeps (a coefficient or offset is not finite)"
            )
        if step >= residual:
            raise PropagationError(
                f"step doubling stalled on [{t0:g}, {t1:g}] us: the residual "
                f"reached {residual:.3g}, then {step:.3g} at {substeps} substeps, "
                f"above rel_tol = {tol:g} (round-off floor)"
            )
        residual = step
    raise PropagationError(
        f"step doubling did not converge to rel_tol = {tol:g} "
        f"on [{t0:g}, {t1:g}] us"
    )


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
    ``opts.rel_tol / m`` and raised to the m-th power in closed form, and
    only the remainder is integrated directly, as the last rows of each
    round of the period's step doubling, within rel_tol / m as well.  Each
    round is one kernel call.  Raises ``PropagationError`` if doubling fails
    to converge before the substep count becomes unreasonable, and
    ``ValueError`` for array bounds t0 or t1, a bound t1 < t0 or a bound or
    offset that is not finite.

    ``z_offsets`` batches the call over constant offsets by the module's
    broadcasting rule: a real entry d adds d sigma_z to the spec, a complex
    one Re(d) sigma_z + Im(d) sigma_x; the result has their shape followed
    by (2, 2).
    """
    return _quat_matrix(_interval_quaternions(spec, t0, t1, opts, z_offsets))


def _interval_quaternions(spec, t0, t1, opts, z_offsets) -> np.ndarray:
    """The quaternions (..., 4) of ``interval_unitary``: its checks, route and bits."""
    if np.ndim(t0) or np.ndim(t1):
        raise ValueError(
            f"interval bounds t0 and t1 must be scalars, got shapes {np.shape(t0)} and "
            f"{np.shape(t1)}; a batch goes in z_offsets")
    t0, t1 = float(t0), float(t1)
    offsets = _as_numbers(0.0 if z_offsets is None else z_offsets)
    _require_finite("interval bound t0", t0)
    _require_finite("interval bound t1", t1)
    _require_finite("z_offsets", offsets)
    if t1 < t0:
        raise ValueError(f"interval end {t1:g} us precedes its start {t0:g} us")
    tol, offset = opts.rel_tol, float(np.abs(offsets).max(initial=0.0))
    m = _periods(spec, t1 - t0, tol)
    if not m:
        n = int(_initial_steps(spec, t1 - t0, tol, offset))
        return _stepped_unitary(spec, t0, t1, n, tol, offsets)
    # one period at rel_tol / m, whose rounds carry the remainder [t0 + mT, t1]
    # of any length (a negative one, from round-off in t0 + mT, is a backward
    # step) as their last rows
    period = TWO_PI / spec.fundamental[0]
    end, mid = t0 + period, t0 + m * period
    n = int(_initial_steps(spec, end - t0, tol / m, offset))
    u_period, u_rest = _stepped_unitary(spec, t0, end, n, tol / m, offsets, rest=(mid, t1))
    return _quat_mul(u_rest, _quat_power(u_period, m))


def _fixed_pieces(spec: HamiltonianSpec, start: np.ndarray, end: np.ndarray, tol: float,
                  offsets: np.ndarray) -> np.ndarray:
    """Quaternions (P, r, 4) of the P pieces [start, end], each in one pass
    at its starting substep count for ``tol``, under its r offsets (P, r).

    Every piece's count comes from one call of the step rule, with the
    largest offset magnitude.  The pieces are grouped by count, in the order
    of each group's first piece, and each group goes through the kernel in
    blocks of at most ``_BLOCK`` substeps x members (at least one piece),
    whose bounds take a leading piece axis and a unit member axis, so a
    scan's peak memory does not grow with its piece count.
    """
    _require_finite("z_offsets", offsets)
    steps = _initial_steps(spec, end - start, tol, float(np.abs(offsets).max(initial=0.0)))
    members = max(1, offsets.shape[1])
    us = np.empty(offsets.shape + (4,))
    groups = {}  # piece indices by count, in the order of each count's first piece
    for k, n in enumerate(steps.tolist()):
        groups.setdefault(n, []).append(k)
    start, end = start[:, None], end[:, None]
    for n, group in groups.items():
        size, group = max(1, _BLOCK // (n * members)), np.array(group)
        for k in (group[i:i + size] for i in range(0, group.size, size)):
            us[k] = _interval_unitary(spec, start[k], end[k], n, offsets[k])
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
        psi = interval_unitary(spec, t_prev, float(t), opts) @ psi
        t_prev = float(t)
        states[i] = psi
    return states


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

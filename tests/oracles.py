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
from floquet_sensor.experiments import _FTOL, _RANK_TOL, _T2_BOUNDS
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

def quat_mul_componentwise(a: np.ndarray, b: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
    """Quaternions of the products U_a U_b (b acts first), one numpy call per
    term of w = wa wb - va.vb and v = wa vb + wb va + va x vb: the form
    ``propagator._quat_mul`` took before it moved to complex pairs."""
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = aw * bw - ax * bx - ay * by - az * bz
    out[..., 1] = aw * bx + bw * ax + ay * bz - az * by
    out[..., 2] = aw * by + bw * ay + az * bx - ax * bz
    out[..., 3] = aw * bz + bw * az + ax * by - ay * bx
    return out


def quat_reduce_componentwise(qs: np.ndarray) -> np.ndarray:
    """Chronological product q[..., n-1, :] ... q[..., 0, :] by pairwise
    reduction, each level through ``quat_mul_componentwise``."""
    while qs.shape[-2] > 1:
        n = qs.shape[-2]
        out = np.empty(qs.shape[:-2] + ((n + 1) // 2, 4))
        quat_mul_componentwise(qs[..., 1::2, :], qs[..., 0:n - 1:2, :], out[..., :n // 2, :])
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


def two_piece_route(spec: HamiltonianSpec, t0: float, t1: float,
                    opts: propagator.PropagatorOptions, z_offsets=None) -> np.ndarray:
    """Quaternions of ``propagator.interval_unitary`` over m >= 2 drive
    periods T by the stroboscopic route as two pieces, each step-doubled on
    its own: U(t1, t0) = U_rest U_T^m, with U_T one period refined to
    rel_tol / m and U_rest the remainder [t0 + mT, t1] refined to rel_tol,
    both from their own starting counts of the step rule (at t = 4 us on
    fds-k5, 198 and 14 substeps).  The route took two ``_stepped_unitary``
    calls before the remainder became the last rows of the period's rounds.
    """
    offsets = propagator._as_numbers(0.0 if z_offsets is None else z_offsets)
    tol, offset = opts.rel_tol, float(np.abs(offsets).max(initial=0.0))
    m = propagator._periods(spec, t1 - t0, tol)
    assert m >= 2, "the interval is integrated directly"
    period = 2.0 * math.pi / spec.fundamental[0]
    end, mid = t0 + period, t0 + m * period
    n_period, n_rest = propagator._initial_steps(
        spec, np.array([end - t0, t1 - mid]), np.array([tol / m, tol]), offset).tolist()
    u_period = propagator._stepped_unitary(spec, t0, end, n_period, tol / m, offsets)
    u_rest = propagator._stepped_unitary(spec, mid, t1, n_rest, tol, offsets)
    return propagator._quat_mul(u_rest, propagator._quat_power(u_period, m))


# ---------------------------------------------------------------- decay fit
#
# The variable projection and Levenberg-Marquardt batch of
# ``experiments.fit_decaying_cosine`` as they were before their iterations
# were cut to fewer numpy calls: the same starts, damping and stop rules,
# one einsum per row dot product and one np.where per array and step.

def decay_projection_reference(times, values, t2, w):
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


def fit_batch_reference(times, values, starts, upper_w):
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
    resid, coef, ju, jw = decay_projection_reference(
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
        t_resid, t_coef, t_ju, t_jw = decay_projection_reference(
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

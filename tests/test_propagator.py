import math
import re
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from floquet_sensor.hamiltonian import (
    HamiltonianSpec,
    PauliTerm,
    SIGMA_X,
    SIGMA_Z,
    build_fds_prime,
    effective_coefficients,
)
from floquet_sensor.experiments import (
    ORACLE_OPTS,
    SCAN_OPTS,
    DdConfig,
    NoiseModel,
    default_dd_grid,
    make_preset,
    run_scan,
)
from floquet_sensor.params import (
    TWO_PI,
    FloquetDriveParams,
    SignalParams,
    mhz_to_angular,
)
from floquet_sensor import propagator
from floquet_sensor.propagator import (
    _fixed_pieces,
    _interval_quaternions,
    _interval_unitary,
    _initial_steps,
    _pauli_exp,
    _quat_exp,
    _quat_matrix,
    _quat_mul,
    _quat_power,
    _quat_prefix,
    _quat_reduce,
    _reduce_product,
    _step_generators,
    _stepped_unitary,
    PropagationError,
    PropagatorOptions,
    evolve,
    expectation,
    interval_unitary,
    micromotion_error,
)

from oracles import (
    build_lab_fds,
    build_lab_ods,
    carrier,
    doubled_unitary,
    h_matrix,
    quat_mul_componentwise,
    quat_reduce_componentwise,
    rabi_population,
    to_signal_rotating,
    to_signal_rotating_full,
)

TP = 2.0 * math.pi


def constant_spec(cx, cy, cz):
    return HamiltonianSpec((PauliTerm("x", cx), PauliTerm("y", cy), PauliTerm("z", cz)))


def fds_paper_spec(k=5):
    signal = SignalParams(mhz_to_angular(0.5), mhz_to_angular(0.5))
    drive = FloquetDriveParams(mhz_to_angular(1.0), mhz_to_angular(36.54), k)
    return build_fds_prime(signal, drive), drive, signal


# -------------------------------------------------------------------- evolve

KET0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


def test_evolve_rejects_bad_initial_state():
    spec = constant_spec(0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="norm"):
        evolve(spec, [1.0, 1.0], [1.0])
    with pytest.raises(ValueError, match="norm"):
        evolve(spec, [1.0 + 1e-8, 0.0], [1.0])
    with pytest.raises(ValueError, match="2-vector"):
        evolve(spec, [1.0, 0.0, 0.0], [1.0])
    with pytest.raises(ValueError, match="2-vector"):
        evolve(spec, [[1.0, 0.0]], [1.0])
    # within the 1e-9 tolerance, and any array-like of two amplitudes
    assert evolve(spec, [1.0 + 1e-10, 0.0], [1.0]).shape == (1, 2)
    assert evolve(spec, (0, 1j), [1.0]).shape == (1, 2)


def test_zero_spec_is_identity():
    spec = constant_spec(0.0, 0.0, 0.0)
    states = evolve(spec, PLUS, [0.5, 1.5, 7.0])
    assert states.shape == (3, 2)
    npt.assert_allclose(states, np.broadcast_to(PLUS, (3, 2)), atol=1e-14)


def test_constant_specs_match_matrix_exponential():
    rng = np.random.default_rng(17)
    for _ in range(20):
        cx, cy, cz = rng.normal(size=3) * 3.0
        spec = constant_spec(cx, cy, cz)
        t = rng.uniform(0.1, 8.0)
        states = evolve(spec, KET0, [t])
        ref = expm(-1j * t * h_matrix(spec, 0.0)) @ KET0
        assert states.shape == (1, 2)
        npt.assert_allclose(states[-1], ref, atol=1e-12)


def test_rabi_population_matches_evolve_randomized():
    # closed-form oracle vs the numeric propagator on constant specs
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        amp = rng.uniform(0.0, TP * 5.0)
        delta = rng.uniform(-TP * 5.0, TP * 5.0)
        t = rng.uniform(0.0, 20.0)
        spec = build_fds_prime(SignalParams(amp, delta))
        states = evolve(spec, KET0, [t] if t > 0 else [0.0])
        p0 = abs(states[:, 0]) ** 2
        worst = max(worst, abs(p0[-1] - rabi_population(amp, delta, t)))
    assert worst < 1e-9


def test_full_drive_spec_against_reference_integrator():
    spec, _, _ = fds_paper_spec(k=5)

    def rhs(t, y):
        return -1j * (h_matrix(spec, t) @ y)

    ref = solve_ivp(
        rhs,
        (0.0, 0.8),
        np.array([1.0, 0.0], complex),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    ).y[:, -1]
    states = evolve(spec, KET0, [0.8], PropagatorOptions(rel_tol=1e-10))
    npt.assert_allclose(states[-1], ref, atol=5e-10)


def test_unitarity_across_scenarios():
    spec, _, _ = fds_paper_spec(k=3)
    states = evolve(spec, KET0, np.linspace(0.3, 3.0, 6),
                    PropagatorOptions(rel_tol=1e-8))
    assert states.shape == (6, 2)
    npt.assert_allclose(np.sum(abs(states) ** 2, axis=1), 1.0, atol=1e-10)


def test_time_grid_composition():
    spec, _, _ = fds_paper_spec(k=2)
    opts = PropagatorOptions(rel_tol=1e-10)
    stepped = evolve(spec, KET0, [0.7, 1.9], opts)
    direct = evolve(spec, KET0, [1.9], opts)
    assert stepped.shape == (2, 2)
    npt.assert_allclose(stepped[-1], direct[-1], atol=1e-9)


def test_self_convergence_contract():
    # at the starting resolution for rel_tol 1e-9, doubling the substep count
    # changes the propagator below rel_tol
    spec, _, _ = fds_paper_spec(k=1)
    n = _initial_steps(spec, 1.0, 1e-9)
    a = _quat_matrix(_interval_unitary(spec, 0.0, 1.0, n, 0.0))
    b = _quat_matrix(_interval_unitary(spec, 0.0, 1.0, 2 * n, 0.0))
    assert np.max(np.abs(a - b)) < 1e-9


def test_evolve_validates_grid():
    spec = constant_spec(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        evolve(spec, KET0, [])
    with pytest.raises(ValueError):
        evolve(spec, KET0, [2.0, 1.0])
    with pytest.raises(ValueError):
        evolve(spec, KET0, [-1.0])


def test_pathological_spec_reported():
    crazy = HamiltonianSpec((PauliTerm("x", 1.0, 1e15),))
    with pytest.raises(PropagationError):
        evolve(crazy, KET0, [1.0])


def test_step_doubling_stall_fails_fast():
    # below the round-off floor the residual stops shrinking; without the
    # stall check one fds-k5 period at rel_tol 3e-14 doubled for minutes.
    # The sixth-order substep reaches 1e-15 on this period, so the tolerance
    # here lies below any round-off floor
    spec = make_preset("fds-k5").rotating_spec()
    period = TP / spec.fundamental[0]
    start = time.perf_counter()
    with pytest.raises(PropagationError, match=r"stalled .* residual reached \d"):
        interval_unitary(spec, 0.0, period, PropagatorOptions(rel_tol=1e-17))
    assert time.perf_counter() - start < 5.0


def test_stalled_segment_named_by_its_bounds():
    # a refined interval with a batch of offsets that stalls names its
    # bounds as numbers
    spec = make_preset("fds-k5").rotating_spec()
    period = TP / spec.fundamental[0]
    t0, t1 = 0.5, 0.5 + period
    z = np.random.default_rng(9).normal(scale=0.1, size=3)
    with pytest.raises(PropagationError, match=re.escape(f"stalled on [{t0:g}, {t1:g}] us")):
        interval_unitary(spec, t0, t1, PropagatorOptions(rel_tol=1e-17), z_offsets=z)


# ------------------------------------------------------ stroboscopic route

def _unitarity_defect(u):
    return np.max(np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(2)))


def _direct(spec, t0, t1, tol, z=0.0):
    """Direct quaternion propagator of one interval, step-doubled to ``tol``."""
    return _stepped_unitary(spec, t0, t1, _initial_steps(spec, t1 - t0, tol), tol, z)


def _scalar_periods(spec, duration, rel_tol):
    """The period rule of the route for one interval, written out as the
    reference of ``propagator._periods``."""
    f0, defect = spec.fundamental
    m = int(duration * f0 / TP)
    if (m < 2 or defect * duration > 1e-3 * rel_tol
            or rel_tol / m < propagator._MIN_PERIOD_TOL):
        return 0
    return m


def _scalar_route(spec, t0, t1, opts, z=0.0):
    """Reference: the stroboscopic route written out for one scalar interval."""
    m = _scalar_periods(spec, t1 - t0, opts.rel_tol)
    if m == 0:
        return _quat_matrix(_direct(spec, t0, t1, opts.rel_tol, z))
    period = TWO_PI / spec.fundamental[0]
    t_mid = t0 + m * period
    u_period = _direct(spec, t0, t0 + period, opts.rel_tol / m, z)
    u = _quat_power(u_period, m)
    # the remainder is integrated whatever its length, round-off included
    u = _quat_mul(_direct(spec, t_mid, t1, opts.rel_tol, z), u)
    return _quat_matrix(u)


def _public_matrices(spec, t0, t1, opts, z_offsets):
    """``interval_unitary``, checked to be the matrices of the quaternions
    ``_interval_quaternions`` hands the scan engine, bit for bit."""
    u = interval_unitary(spec, t0, t1, opts, z_offsets)
    assert np.array_equal(u, _quat_matrix(_interval_quaternions(spec, t0, t1, opts, z_offsets)))
    return u


FDS_PERIOD = TP / make_preset("fds-k5").rotating_spec().fundamental[0]


def _errored_spec(preset: str, errors: dict):
    """Rotating spec of a preset with control errors given in MHz."""
    sc = make_preset(preset)
    if errors:
        sc = sc.with_errors(**{k: mhz_to_angular(v) for k, v in errors.items()})
    return sc.rotating_spec()


@pytest.mark.parametrize(
    "preset, errors, t0, t1, opts, batch",
    [("fds-k5", {}, 0.0, 4.0, ORACLE_OPTS, 0),
     ("robustness-amp", {"amp_error": -0.98}, 0.0, 4.0, ORACLE_OPTS, 0),
     ("robustness-freq", {"freq_error": 30.0}, 0.0, 4.0, ORACLE_OPTS, 0),
     ("fds-k5", {}, 0.0, 3 * FDS_PERIOD, PropagatorOptions(rel_tol=1e-9), 0),
     ("dd-on", {}, 1.3, 1.8, SCAN_OPTS, 7)],
)
def test_route_matches_scalar_reference(preset, errors, t0, t1, opts, batch):
    # the rounding of t0 + m T decides the remainder, so the route must match
    # the reference bit for bit, not to a tolerance
    spec = _errored_spec(preset, errors)
    z = 0.5 * np.linspace(-1.5, 1.5, batch) if batch else None
    assert propagator._periods(spec, t1 - t0, opts.rel_tol) >= 2
    u = _public_matrices(spec, t0, t1, opts, z)
    assert u.shape == (batch,) * bool(batch) + (2, 2)
    assert np.array_equal(u, _scalar_route(spec, t0, t1, opts, 0.0 if z is None else z))


# The complex path the quaternion core replaced, as an oracle: generators with
# p1, p2 and p3 copied per z offset, complex 2x2 exponentials and products, and
# repeated squaring of the SU(2) projection of the period propagator.

def _su2_project(u):
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


def _gauss_vectors(spec, t0, t1, n, z_offsets, nodes):
    """Substep length h and the Pauli vectors at t_mid + c h for each node c.

    With ``z_offsets`` every vector is copied once per offset.  For arrays
    of piece bounds, h is shaped to broadcast against the vectors.
    """
    h = (t1 - t0) / n
    pieces = np.ndim(h) > 0
    if pieces:
        t0, h = t0[:, None], h[:, None]
    mids = t0 + (np.arange(n) + 0.5) * h
    ps = [spec.coefficients(mids + c * h) for c in nodes]
    if z_offsets is not None:
        z = np.asarray(z_offsets, dtype=float)
        shape = z.shape + ps[0].shape[-2:]
        ps = [np.broadcast_to(p[..., None, :, :], shape).copy() for p in ps]
        for p in ps:
            p[..., 2] += z[..., None]
    if pieces:
        h = h.reshape((-1,) + (1,) * (ps[0].ndim - 1))
    return h, ps


def _copied_generators(spec, t0, t1, n, z_offsets=None):
    """Sixth-order Magnus generators with p1, p2 and p3 copied per z offset."""
    g = math.sqrt(15.0) / 10.0
    h, (p1, p2, p3) = _gauss_vectors(spec, t0, t1, n, z_offsets, (-g, 0.0, g))
    a1 = h * p2
    a2 = (math.sqrt(15.0) * h / 3.0) * (p3 - p1)
    a3 = (10.0 * h / 3.0) * (p3 - 2.0 * p2 + p1)
    c1 = 2.0 * np.cross(a1, a2)
    c2 = -np.cross(a1, 2.0 * a3 + c1) / 30.0
    return a1 + a3 / 12.0 + np.cross(-20.0 * a1 - a3 + c1, a2 + c2) / 120.0


def _fourth_order_generators(spec, t0, t1, n, z_offsets=None):
    """The fourth-order (two-point Gauss) Magnus generators the sixth-order
    substep replaced: q = (h/2)(p1 + p2) + (sqrt(3) h^2/6)(p2 x p1)."""
    g = 0.5 / math.sqrt(3.0)
    h, (p1, p2) = _gauss_vectors(spec, t0, t1, n, z_offsets, (-g, g))
    return 0.5 * h * (p1 + p2) + (math.sqrt(3.0) * h * h / 6.0) * np.cross(p2, p1)


def _complex_direct(spec, t0, t1, tol, z=None):
    """Complex direct propagator, step-doubled to ``tol``."""
    n = _initial_steps(spec, t1 - t0, tol)
    u = _reduce_product(_pauli_exp(_copied_generators(spec, t0, t1, n, z)))
    if spec.max_frequency() == 0.0:  # one exact exponential
        return u
    for _ in range(24):
        n *= 2
        u_next = _reduce_product(_pauli_exp(_copied_generators(spec, t0, t1, n, z)))
        if np.max(np.abs(u_next - u)) < tol:
            return u_next
        u = u_next
    raise AssertionError("complex step doubling did not converge")


def _complex_route(spec, t0, t1, opts, z=None):
    """The route rule of ``_scalar_route`` on the complex path."""
    m = propagator._periods(spec, t1 - t0, opts.rel_tol)
    if m == 0:
        return _complex_direct(spec, t0, t1, opts.rel_tol, z)
    period = TWO_PI / spec.fundamental[0]
    t_mid = t0 + m * period
    u_period = _complex_direct(spec, t0, t0 + period, opts.rel_tol / m, z)
    u = np.linalg.matrix_power(_su2_project(u_period), m)
    if t1 - t_mid > 16.0 * math.ulp(t1):
        u = _complex_direct(spec, t_mid, t1, opts.rel_tol, z) @ u
    return u


@pytest.mark.parametrize(
    "preset, errors, t0, t1, opts, batch",
    [("fds-k5", {}, 0.0, 4.0, ORACLE_OPTS, 0),
     ("robustness-amp", {"amp_error": -0.98}, 0.0, 4.0, ORACLE_OPTS, 0),
     ("robustness-freq", {"freq_error": -20.0}, 0.0, 4.0, ORACLE_OPTS, 0),
     ("dd-on", {}, 1.3, 1.8, SCAN_OPTS, 7),
     ("fds-k5", {}, 0.3, 0.33, ORACLE_OPTS, 0),  # direct: under two periods
     ("ods-detuned", {}, 0.0, 4.0, ORACLE_OPTS, 0),  # direct: constant spec
     ("dd-off", {}, 0.2, 0.7, SCAN_OPTS, 5)],
)
def test_route_matches_complex_composition(preset, errors, t0, t1, opts, batch):
    spec = _errored_spec(preset, errors)
    z = 0.5 * np.linspace(-1.5, 1.5, batch) if batch else None
    u = interval_unitary(spec, t0, t1, opts, z_offsets=z)
    npt.assert_allclose(u, _complex_route(spec, t0, t1, opts, z), rtol=0, atol=1e-13)


@pytest.mark.parametrize(
    "preset, errors, t0, t1, batch",
    [("fds-k5", {}, 0.3, 0.6, 0),  # ten periods and a remainder
     ("robustness-freq", {"freq_error": -20.0}, 0.0, 0.5, 0),
     ("dd-on", {}, 1.3, 1.8, 3),
     ("fds-k5", {}, 0.3, 0.33, 0)],  # direct: under two periods
)
def test_sixth_order_route_matches_fourth_order_oracle(preset, errors, t0, t1, batch):
    spec = _errored_spec(preset, errors)
    z = 0.5 * np.linspace(-1.5, 1.5, batch) if batch else None
    u = interval_unitary(spec, t0, t1, PropagatorOptions(rel_tol=1e-11), z_offsets=z)
    # 4000 fourth-order substeps per drive period: 4e-14 error per period
    n = math.ceil((t1 - t0) * spec.fundamental[0] / TP * 4000)
    ref = _reduce_product(_pauli_exp(_fourth_order_generators(spec, t0, t1, n, z)))
    npt.assert_allclose(u, ref, rtol=0, atol=1e-11)


@pytest.mark.parametrize("preset", ["dd-off", "fds-k5"])
def test_substep_is_sixth_order(preset):
    # one drive period at the scan density (40 substeps) and at twice it: the
    # error falls by 2^6 = 64, against 16 for the fourth-order substep
    spec = make_preset(preset).rotating_spec()
    period = TP / spec.fundamental[0]
    assert _initial_steps(spec, period, SCAN_OPTS.rel_tol) == 40
    t0 = 0.37
    ref = _quat_matrix(_interval_unitary(spec, t0, t0 + period, 2000, 0.0))
    err = [np.max(np.abs(_quat_matrix(_interval_unitary(spec, t0, t0 + period, n, 0.0)) - ref))
           for n in (40, 80)]
    assert err[0] < 2e-8
    assert err[0] >= 50.0 * err[1]


def test_constant_spec_takes_one_exact_exponential(passes):
    spec = constant_spec(1.3, -0.4, 2.1)
    t0, t1 = 0.2, 1.7
    ref = expm(-1j * (t1 - t0) * h_matrix(spec, 0.0))
    for opts in (ORACLE_OPTS, SCAN_OPTS, PropagatorOptions(rel_tol=1e-14)):
        passes.clear()
        u = interval_unitary(spec, t0, t1, opts)
        assert [(n, d.size) for n, d in passes] == [(1, 1)]  # no step doubling
        npt.assert_allclose(u, ref, rtol=0, atol=1e-15)
    # sigma_z offsets: one substep per interval, refined or not, and the
    # fixed-resolution pass takes both intervals in one kernel call
    bounds = [(t0, t1), (0.5, 2.5)]
    z = np.array([[-0.7, 0.0, 0.9], [0.3, 0.5, -1.1]])
    for opts in (ORACLE_OPTS, SCAN_OPTS):
        passes.clear()
        u = [interval_unitary(spec, a, b, opts, z_offsets=row) for (a, b), row in zip(bounds, z)]
        assert [(n, d.size) for n, d in passes] == [(1, 1), (1, 1)]
    passes.clear()
    fixed = _quat_matrix(_fixed_pieces(spec, np.array([t0, 0.5]), np.array([t1, 2.5]),
                                       SCAN_OPTS.rel_tol, z))
    assert [(n, d.size) for n, d in passes] == [(1, 2)]
    for (a, b), row, us, fs in zip(bounds, z, u, fixed):
        for off, ui, fi in zip(row, us, fs):
            shifted = h_matrix(spec, 0.0) + off * SIGMA_Z
            npt.assert_allclose(ui, expm(-1j * (b - a) * shifted), rtol=0, atol=1e-15)
            npt.assert_allclose(fi, expm(-1j * (b - a) * shifted), rtol=0, atol=1e-15)
    # the closed-form Rabi population of the undriven sensor
    sc = make_preset("ods-detuned")
    amp, delta = sc.signal.omega_s_amp, sc.signal.delta
    for t in (0.3, 1.0, 3.8):
        p0 = abs(interval_unitary(sc.rotating_spec(), 0.0, t, ORACLE_OPTS)[0, 0]) ** 2
        assert abs(p0 - rabi_population(amp, delta, t)) <= 1e-15


def test_quaternion_kernel_matches_complex_products():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 1000):
        q = rng.normal(scale=0.05, size=(3, n, 3))
        npt.assert_allclose(_quat_matrix(_quat_reduce(_quat_exp(q))),
                            _reduce_product(_pauli_exp(q)), rtol=0, atol=1e-13)
    # the one exponential formula against the matrix exponential, and at q = 0
    sigma = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    for v in rng.normal(scale=2.0, size=(5, 3)):
        npt.assert_allclose(_pauli_exp(v), expm(-1j * np.tensordot(v, sigma, 1)),
                            rtol=0, atol=1e-14)
    assert np.array_equal(_quat_exp(np.zeros(3)), [1.0, 0.0, 0.0, 0.0])


def test_pair_product_matches_component_product():
    # the complex-pair product against the component form.  Each component
    # is a sum of four products of unit-quaternion entries, so the two
    # summation orders differ by at most 4 ulp of 1 (measured 1.0 over 1e5)
    ulp = np.spacing(1.0)
    rng = np.random.default_rng(21)

    def unit(*shape):
        return _quat_exp(rng.normal(size=shape + (3,)))

    def check(got, a, b):
        want = quat_mul_componentwise(a, b)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 4 * ulp

    a, b = unit(100_000), unit(100_000)
    check(_quat_mul(a, b), a, b)
    # one quaternion against a (n, r, 4) stack, either side
    one, stack = unit(), unit(90, 16)
    check(_quat_mul(one, stack), one, stack)
    check(_quat_mul(stack, one), stack, one)
    check(_quat_mul(stack, stack[:, :1]), stack, stack[:, :1])
    # out= into a strided slice, as the prefix product passes it; the
    # slots between stay as they were
    qs = unit(9, 6)
    out = np.full((9, 6, 4), 7.0)
    even = out[2::2]
    assert _quat_mul(qs[2::2], qs[1:8:2], even) is even
    check(even, qs[2::2], qs[1:8:2])
    assert np.all(out[1::2] == 7.0) and np.all(out[0] == 7.0)
    # views with strided leading axes
    check(_quat_mul(qs[1::2], qs[0:8:2]), qs[1::2], qs[0:8:2])
    moved = np.moveaxis(unit(5, 3, 7), 0, -2)  # (3, 5, 7, 4) read through (3, 7, 5, 4)
    check(_quat_mul(moved, moved[:, ::-1]), moved, moved[:, ::-1])
    # a last axis that is not contiguous is copied, and so is an out= with one
    fortran = np.asfortranarray(unit(40))
    assert fortran.strides[-1] != fortran.itemsize
    check(_quat_mul(fortran, a[:40]), fortran, a[:40])
    check(_quat_mul(a[:40], fortran), a[:40], fortran)
    out = np.asfortranarray(np.zeros((40, 4)))
    assert _quat_mul(fortran, a[:40], out) is out
    check(out, fortran, a[:40])
    # empty stacks
    assert _quat_mul(unit(0), one).shape == (0, 4)


def test_pair_reduce_matches_component_reduce():
    # one level of products against the component product; whole
    # reductions, odd counts carried over: the n - 1 products each differ
    # by at most 4 ulp, and a difference is not amplified by the unit
    # factors it is multiplied with (measured at most 13.5 ulp, at n = 198)
    ulp = np.spacing(1.0)
    rng = np.random.default_rng(12)
    pairs = _quat_exp(rng.normal(size=(10_000, 2, 3)))
    want = quat_mul_componentwise(pairs[:, 1], pairs[:, 0])
    assert np.abs(_quat_reduce(pairs) - want).max() <= 4 * ulp
    spec = make_preset("robustness-amp").rotating_spec()
    z = 0.5j * np.array([-1e-4, 0.0, 1e-4])
    for n in (1, 2, 3, 14, 198, 396):
        for q in (_quat_exp(rng.normal(size=(16, n, 3))),
                  _quat_exp(_step_generators(spec, 0.1, 0.2, n, z))):
            ref = quat_reduce_componentwise(q)
            assert np.abs(_quat_reduce(q) - ref).max() <= 4 * ulp * max(1, n - 1)
    # an oracle shape (rows x offsets x substeps) and a scan shape (pieces x
    # members x substeps), as contiguous stacks and as the moved-axis views
    # that the split passes reduce
    for shape in ((3, 3, 198), (40, 8, 40)):
        q = _quat_exp(rng.normal(size=shape + (3,)))
        bound = 4 * ulp * (shape[-1] - 1)
        assert np.abs(_quat_reduce(q) - quat_reduce_componentwise(q)).max() <= bound
        moved = np.moveaxis(np.ascontiguousarray(np.moveaxis(q, -2, 0)), 0, -2)
        npt.assert_array_equal(_quat_reduce(moved), _quat_reduce(q))
    q = _quat_exp(rng.normal(size=(2, 3, 5, 3)))  # any leading shape
    assert np.abs(_quat_reduce(q) - quat_reduce_componentwise(q)).max() <= 16 * ulp


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 640])
def test_prefix_products_match_sequential_fold(n):
    q = _quat_exp(np.random.default_rng(n).normal(size=(n, 6, 3)))
    fold = [q[0]]
    for k in range(1, n):
        fold.append(_quat_mul(q[k], fold[-1]))
    prefix = _quat_prefix(q)
    assert prefix.shape == q.shape
    npt.assert_array_equal(prefix[0], q[0])
    npt.assert_allclose(prefix, np.array(fold), rtol=0, atol=1e-14)


@pytest.mark.parametrize("m", [2, 3, 146])
def test_closed_form_power_matches_repeated_squaring(m):
    rng = np.random.default_rng(m)
    u = rng.normal(size=(6, 4))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    u[0] = [math.cos(1e-9), 1e-9, 0.0, 0.0]  # a near-identity period
    npt.assert_allclose(_quat_matrix(_quat_power(u, m)),
                        np.linalg.matrix_power(_quat_matrix(u), m), rtol=0, atol=1e-13)
    # a round-off norm defect is normalized away, like the SU(2) projection
    off = _quat_matrix(u) * (1.0 + 1e-9)
    npt.assert_allclose(_quat_matrix(_quat_power(u * (1.0 + 1e-9), m)),
                        np.linalg.matrix_power(_su2_project(off), m), rtol=0, atol=1e-13)
    # |v| = 0: the identity, and -I to the m-th power
    eye = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]])
    npt.assert_array_equal(_quat_power(eye, m),
                           [[1.0, 0.0, 0.0, 0.0], [(-1.0) ** m, 0.0, 0.0, 0.0]])


def test_power_takes_an_array_of_exponents():
    # one call for many exponents: each entry the bits of its scalar call,
    # and the repeated product to round-off
    rng = np.random.default_rng(11)
    u = rng.normal(size=(3, 4))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    m = np.array([[0], [1], [2], [5], [37]])
    powers = _quat_power(u, m)
    assert powers.shape == (5, 3, 4)
    for row, k in zip(powers, m[:, 0].tolist()):
        npt.assert_array_equal(row, _quat_power(u, k))
        repeated = np.broadcast_to([1.0, 0.0, 0.0, 0.0], u.shape)
        for _ in range(k):
            repeated = _quat_mul(u, repeated)
        npt.assert_allclose(row, repeated, rtol=0, atol=1e-14)
    # one exponent per element of the leading shape
    npt.assert_array_equal(_quat_power(u, np.array([3, 0, 8])),
                           [_quat_power(u[i], k) for i, k in enumerate([3, 0, 8])])


def test_split_generators_match_copied_generators():
    spec = make_preset("dd-on").rotating_spec()
    z = np.random.default_rng(3).normal(size=5)
    for z_offsets, copied in ((0.0, None), (z, z)):
        npt.assert_allclose(_step_generators(spec, 1.3, 1.8, 40, z_offsets),
                            _copied_generators(spec, 1.3, 1.8, 40, copied),
                            rtol=0, atol=1e-15)
    t0, t1 = np.array([0.1, 0.4, 2.0]), np.array([0.3, 0.5, 2.2])
    zz = np.random.default_rng(4).normal(size=(3, 5))
    q = _step_generators(spec, t0[:, None], t1[:, None], 40, zz)
    assert q.shape == (3, 5, 40, 3)
    npt.assert_allclose(q, _copied_generators(spec, t0, t1, 40, zz), rtol=0, atol=1e-15)


def test_kernel_broadcasts_offsets_against_bounds():
    # one rule for every batch shape, bit for bit: a block of P pieces x r
    # offsets with (P, 1) bounds is the P lone-piece calls, and the offset 0.0
    # is its one-member form
    t0, t1 = np.array([0.1, 0.4, 2.0]), np.array([0.3, 0.5, 2.2])
    z = np.random.default_rng(9).normal(size=(3, 5))
    for spec in (make_preset("dd-on").rotating_spec(), constant_spec(1.3, -0.4, 2.1)):
        block = _interval_unitary(spec, t0[:, None], t1[:, None], 40, z)
        assert block.shape == (3, 5, 4)
        lone = np.stack([_interval_unitary(spec, a, b, 40, zz)
                         for a, b, zz in zip(t0, t1, z)])
        npt.assert_array_equal(block, lone)
        u = _interval_unitary(spec, 0.1, 0.3, 40, 0.0)
        assert u.shape == (4,)
        npt.assert_array_equal(u[None], _interval_unitary(spec, 0.1, 0.3, 40, np.zeros(1)))


# ------------------------------------------------------------------ offsets

@pytest.mark.parametrize("opts", [ORACLE_OPTS, SCAN_OPTS], ids=["oracle", "scan"])
def test_sigma_x_offsets_match_rebuilt_specs(opts):
    # the amplitude family of the QFI oracle and pipeline: the signal
    # amplitude w is the rotating-frame sigma_x coefficient w/2, so the
    # imaginary offset 0.5 (w - Omega) on the center spec is the spec rebuilt
    # at w.  Amplitudes: the oracle's Omega -+ h and the pipeline's grid
    worst = 0.0
    for name in ("fds-k1", "fds-k3", "fds-k5", "robustness-amp", "dd-on", "ods-detuned"):
        sc = make_preset(name)
        om = sc.signal.omega_s_amp
        amps = np.concatenate([om + np.array([-1e-4, 1e-4]) * om,
                               om * (1.0 + 0.025 * np.linspace(-1.0, 1.0, 7))])
        for t in (0.3, 1.0, 4.0):
            u = _public_matrices(sc.rotating_spec(), 0.0, t, opts, 0.5j * (amps - om))
            assert u.shape == (amps.size, 2, 2)
            rebuilt = np.stack([
                interval_unitary(replace(sc, signal=replace(sc.signal, omega_s_amp=w))
                                 .rotating_spec(), 0.0, t, opts)
                for w in amps])
            worst = max(worst, float(np.max(np.abs(u - rebuilt))))
    assert worst <= 1e-13


def test_complex_offsets_add_sigma_z_and_sigma_x():
    # the real part is the sigma_z offset with the bits of a real offset
    spec = make_preset("dd-on").rotating_spec()
    z = np.random.default_rng(8).normal(size=5)
    npt.assert_array_equal(_interval_unitary(spec, 1.3, 1.8, 40, z + 0j),
                           _interval_unitary(spec, 1.3, 1.8, 40, z))
    const = constant_spec(1.3, -0.4, 2.1)
    d = np.array([0.7 - 0.2j, -1.1 + 0.9j])
    u = interval_unitary(const, 0.2, 1.7, ORACLE_OPTS, d)
    for off, ui in zip(d, u):
        shifted = h_matrix(const, 0.0) + off.real * SIGMA_Z + off.imag * SIGMA_X
        npt.assert_allclose(ui, expm(-1.5j * shifted), rtol=0, atol=1e-14)


@pytest.fixture
def pass_cap(monkeypatch):
    """Kernel passes counted and capped at 12, so a runaway doubling fails fast.

    Each doubling doubles the substeps of a pass, so without a cap a doubling
    that never stops takes up to 2^24 times the starting substeps: a hang.
    """
    kernel = propagator._interval_unitary
    seen = []

    def capped(spec, t0, t1, n, z_offsets):
        seen.append(n)
        assert len(seen) <= 12, f"runaway step doubling: {seen}"
        return kernel(spec, t0, t1, n, z_offsets)

    monkeypatch.setattr(propagator, "_interval_unitary", capped)
    return seen


@pytest.mark.parametrize("opts", [ORACLE_OPTS, SCAN_OPTS], ids=["oracle", "scan"])
@pytest.mark.parametrize("offsets", [math.nan, [0.0, math.inf], [0.1j, complex(0.0, math.nan)]],
                         ids=["nan", "inf", "complex-nan"])
def test_non_finite_offsets_rejected(pass_cap, opts, offsets):
    # a NaN offset once made every residual NaN, which neither converged nor
    # stalled, so step doubling ran on towards 2^24 times the substeps; a
    # fixed-resolution pass returned NaN propagators
    spec = make_preset("fds-k5").rotating_spec()
    with pytest.raises(ValueError, match="^z_offsets must be finite"):
        interval_unitary(spec, 0.0, 1.0, opts, offsets)
    rows = np.zeros((2, 2), dtype=np.asarray(offsets).dtype)
    rows[1] = offsets
    with pytest.raises(ValueError, match="^z_offsets must be finite"):
        interval_unitary(spec, 0.0, 1.0, opts, z_offsets=rows)
    with pytest.raises(ValueError, match="^z_offsets must be finite"):
        _fixed_pieces(spec, np.array([0.0, 0.5]), np.array([0.5, 1.0]), opts.rel_tol, rows)
    assert pass_cap == []


def test_non_finite_residual_stops_step_doubling(pass_cap):
    spec = make_preset("fds-k5").rotating_spec()
    tol = ORACLE_OPTS.rel_tol
    with pytest.raises(PropagationError, match="not a number"):
        _stepped_unitary(spec, 0.0, 1.0, _initial_steps(spec, 1.0, tol), tol, math.nan)
    assert len(pass_cap) == 1  # the first round: the coarse pass and both halves
    pass_cap.clear()
    nan_tone = HamiltonianSpec((PauliTerm("z", 1.0), PauliTerm("x", math.nan, 5.0)))
    with pytest.raises(PropagationError, match="not a number"):
        interval_unitary(nan_tone, 0.0, 1.0, ORACLE_OPTS)
    assert len(pass_cap) == 1


@pytest.mark.parametrize("preset, errors, t0, t1, tol, z", [
    ("fds-k5", {}, 0.0, FDS_PERIOD, 1e-8 / 146, 0.0),
    ("robustness-amp", {"amp_error": -0.98}, 0.0, FDS_PERIOD, 1e-8 / 146,
     0.5j * np.array([-1e-4, 0.0, 1e-4])),
    ("fds-k5", {}, 0.3, 0.33, 1e-10, 0.0),
    ("robustness-freq", {"freq_error": 30.0}, 0.1, 0.13, 1e-9,
     0.5j * np.array([-1e-4, 0.0, 1e-4])),
    ("dd-on", {}, 1.3, 1.3 + FDS_PERIOD, 1e-10, 0.5 * np.linspace(-1.5, 1.5, 7)),
    ("dd-off", {}, 0.2, 0.23, 1e-9, np.random.default_rng(5).normal(size=(2, 3))),
], ids=["period", "period-complex", "direct", "direct-complex", "period-real", "direct-real"])
def test_split_doubling_matches_whole_pass_doubling(passes, preset, errors, t0, t1, tol, z):
    # pieces refined from their first pass (one drive period at the oracle's
    # rel_tol / m, or a direct interval under two periods) under no offset,
    # the oracle's complex offsets or a scan's real ones.  A round of 2^k
    # equal parts of n substeps, one kernel call, against the passes of
    # 2^k n substeps over the whole interval that step doubling once made:
    # the same substeps, within the piece's tolerance
    spec = _errored_spec(preset, errors)
    n = int(_initial_steps(spec, t1 - t0, tol))
    ref = doubled_unitary(spec, t0, t1, n, tol, z)
    whole = sum(k * d.size for k, d in passes)
    passes.clear()
    u = _stepped_unitary(spec, t0, t1, n, tol, z)
    assert u.shape == ref.shape == np.shape(z) + (4,)
    d = _quat_matrix(u) - _quat_matrix(ref)
    assert 0.0 < np.abs(d).max() < tol
    # round 1 takes the whole interval and its halves as three rows
    assert [(k, d.size) for k, d in passes] == [(n, 3), (n, 4), (n, 8)][:len(passes)]
    assert sum(k * d.size for k, d in passes) == whole


def test_deep_refinement_keeps_each_call_within_the_chunk(passes, monkeypatch):
    # a kernel call holds at most _CHUNK substeps per batch member, as rows x
    # n, so a deep round takes several calls and multiplies their products;
    # a first pass above _CHUNK takes one row a call
    spec = make_preset("fds-k5").rotating_spec()
    z = 0.5j * np.array([-1e-4, 0.0, 1e-4])
    tol = 1e-10
    full = {}
    for n in (16, 100):
        passes.clear()
        full[n] = _stepped_unitary(spec, 0.0, FDS_PERIOD, n, tol, z), len(passes)
    assert full[16][1] == 4  # rounds 1 to 4: 32 to 256 substeps
    monkeypatch.setattr(propagator, "_CHUNK", 64)
    for n in (16, 100):
        passes.clear()
        u = _stepped_unitary(spec, 0.0, FDS_PERIOD, n, tol, z)
        assert all(d.size * k <= 64 or d.size == 1 for k, d in passes)
        assert len(passes) > full[n][1]
        npt.assert_allclose(u, full[n][0], rtol=0, atol=1e-14)
        d = _quat_matrix(u) - _quat_matrix(doubled_unitary(spec, 0.0, FDS_PERIOD, n, tol, z))
        assert np.abs(d).max() < tol
    # n = 100 > 64: the coarse pass and each half take a call of their own
    assert [(k, d.size) for k, d in passes[:3]] == [(100, 1)] * 3


@pytest.mark.parametrize(
    "preset, freq_error_mhz, t",
    [("fds-k5", 0.0, 4.0), ("robustness-freq", -20.0, 2.0),
     ("robustness-freq", -20.0, 4.0), ("robustness-freq", 30.0, 4.0)],
)
def test_stroboscopic_route_matches_direct_kernel(preset, freq_error_mhz, t):
    sc = make_preset(preset).with_errors(freq_error=mhz_to_angular(freq_error_mhz))
    spec = sc.rotating_spec()
    f0, defect = spec.fundamental
    assert t * f0 / TP > 2.0
    u = interval_unitary(spec, 0.0, t, ORACLE_OPTS)
    tol = ORACLE_OPTS.rel_tol
    direct = _quat_matrix(_stepped_unitary(spec, 0.0, t, _initial_steps(spec, t, tol), tol, 0.0))
    assert np.max(np.abs(u - direct)) <= 1e-10
    # drive frequencies are exact multiples of omega_F, so every point takes the
    # route (frequencies built as omega_s - (omega_s - l omega_F) missed l*f0 by
    # 3.6e-12 rad/us at -20 MHz, which sent the 4 us case to direct integration)
    assert defect == 0.0
    assert not np.array_equal(u, direct)


def test_stroboscopic_route_batched_dd_segment():
    spec = make_preset("dd-on").rotating_spec()
    z = 0.5 * np.linspace(-1.5, 1.5, 7)
    t0, t1 = 1.3, 1.8  # about 18 drive periods between two pi pulses
    u = interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z)
    direct = _quat_matrix(_direct(spec, t0, t1, SCAN_OPTS.rel_tol, z))
    assert u.shape == (7, 2, 2)
    assert np.max(np.abs(u - direct)) <= SCAN_OPTS.rel_tol
    for i, off in enumerate(z):
        shifted = HamiltonianSpec(spec.terms + (PauliTerm("z", off),))
        single = interval_unitary(shifted, t0, t1, SCAN_OPTS)
        npt.assert_allclose(u[i], single, atol=SCAN_OPTS.rel_tol)


def test_stroboscopic_route_falls_back_bit_identically():
    sc = make_preset("fds-k5")
    lab = build_lab_fds(sc.signal, sc.drive)
    rwa_off = to_signal_rotating_full(lab, sc.signal)
    rotating = sc.rotating_spec()
    coarse, tight = PropagatorOptions(rel_tol=1e-8), PropagatorOptions(rel_tol=1e-12)
    period = TP / rotating.fundamental[0]
    cases = [
        (lab, 0.0, 0.01, coarse),  # incommensurate carriers
        (rwa_off, 0.0, 0.05, coarse),
        (rotating, 0.3, 0.3 + 1.9 * period, coarse),  # shorter than 2T
        (rotating, 0.0, 18.5 * period, tight),  # rel_tol / m below round-off
    ]
    for spec, t0, t1, opts in cases:
        f0, defect = spec.fundamental
        m = int((t1 - t0) * f0 / TP)
        assert m < 2 or defect > 0.1 * f0 or opts.rel_tol / m < 1e-13
        n = _initial_steps(spec, t1 - t0, opts.rel_tol)
        assert np.array_equal(
            interval_unitary(spec, t0, t1, opts),
            _quat_matrix(_stepped_unitary(spec, t0, t1, n, opts.rel_tol, 0.0)),
        )


def test_stroboscopic_power_stays_unitary():
    # repeated squaring of the unprojected period propagator drifts off
    # unitarity by 2e-12 here, while the closed-form power is unit by
    # construction; the fidelity cross-check of qfi_exact reads a norm error
    # eta as a QFI error of 8 eta / h^2
    sc = make_preset("robustness-amp").with_errors(amp_error=mhz_to_angular(-0.98))
    spec = sc.rotating_spec()
    assert int(4.0 * spec.fundamental[0] / TP) == 146
    assert _unitarity_defect(interval_unitary(spec, 0.0, 4.0, ORACLE_OPTS)) <= 1e-12


def test_stroboscopic_remainder_at_period_multiple():
    spec = make_preset("fds-k5").rotating_spec()
    period = TP / spec.fundamental[0]
    opts = PropagatorOptions(rel_tol=1e-9)
    u = interval_unitary(spec, 0.0, 3 * period, opts)
    n = _initial_steps(spec, 3 * period, opts.rel_tol)
    direct = _quat_matrix(_stepped_unitary(spec, 0.0, 3 * period, n, opts.rel_tol, 0.0))
    assert np.max(np.abs(u - direct)) <= 1e-9


def test_negative_round_off_remainder_steps_back():
    # t1 - t0 spans seven whole periods, yet t0 + 7T rounds one ulp past t1:
    # the remainder [t0 + 7T, t1] is a backward step, integrated like any
    # other piece, so the call ends at t1 (it once stopped at t0 + 7T)
    spec = make_preset("fds-k5").rotating_spec()
    period = TP / spec.fundamental[0]
    t0 = 0.049773
    t1 = float(np.nextafter(t0 + 7 * period, -math.inf))
    assert t0 + 7 * period > t1
    for opts in (PropagatorOptions(rel_tol=1e-9), SCAN_OPTS):
        assert propagator._periods(spec, t1 - t0, opts.rel_tol) == 7
        u = _public_matrices(spec, t0, t1, opts, None)
        assert np.array_equal(u, _scalar_route(spec, t0, t1, opts))


@pytest.mark.parametrize("t1", [1e-13, 5e-14, 100 * FDS_PERIOD + 5e-14],
                         ids=["floor", "half-floor", "periods-and-half-floor"])
def test_sub_floor_pieces_take_their_first_pass(t1):
    # a refined piece under twice the 1e-13 us substep floor once raised
    # "substep size underflow"; its first pass is final, as h |H| is tiny
    spec = make_preset("fds-k5").rotating_spec()
    u = interval_unitary(spec, 0.0, t1, ORACLE_OPTS)
    assert _unitarity_defect(u) <= 1e-15
    npt.assert_allclose(u, interval_unitary(spec, 0.0, t1 - 5e-14, ORACLE_OPTS),
                        rtol=0, atol=1e-11)


def test_sub_floor_time_grids_evolve():
    # repeated grid times take the same zero-length call as any other step
    spec = make_preset("fds-k5").rotating_spec()
    states = evolve(spec, KET0, [0.0, 0.0, 1e-13, 1e-13])
    npt.assert_array_equal(states[:2], [KET0, KET0])
    npt.assert_array_equal(states[3], states[2])
    assert abs(np.vdot(states[2], states[2]) - 1.0) < 1e-15
    npt.assert_allclose(states[2], KET0, rtol=0, atol=1e-11)


def test_sub_floor_remainder_in_exact_qfi():
    sc = make_preset("fds-k5")
    t = 100 * FDS_PERIOD
    assert sc.exact_qfi(t + 5e-14).value == pytest.approx(sc.exact_qfi(t).value, rel=1e-6)


# ------------------------------------------------------- fixed-resolution pass

RABI_EVENTS = np.concatenate([[0.0], np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10)])


def _lone_passes(spec, t0, t1, tol, z):
    """One scalar kernel pass per piece, each at the count of the
    one-interval rule for the call's largest offset magnitude."""
    offset = float(np.abs(z).max(initial=0.0))
    return np.stack([
        _interval_unitary(spec, a, b, _scalar_initial_steps(spec, b - a, tol, offset), zz)
        for a, b, zz in zip(t0.tolist(), t1.tolist(), z)])


@pytest.fixture
def passes(monkeypatch):
    """(substeps, piece durations) of every kernel pass, in call order."""
    seen = []
    kernel = propagator._interval_unitary

    def counted(spec, t0, t1, n, z_offsets):
        seen.append((n, np.ravel(np.subtract(t1, t0))))
        return kernel(spec, t0, t1, n, z_offsets)

    monkeypatch.setattr(propagator, "_interval_unitary", counted)
    return seen


@pytest.mark.parametrize("preset", ["fds-k5", "ods-resonant", "ods-detuned"])
def test_segments_match_scalar_calls_direct_route(preset):
    # the fixed-resolution pass over the segments of the rabi command's
    # default grid: sub-period segments of the driven preset, and the
    # constant specs of the undriven ones.  Its blocks of pieces are the
    # one-piece passes, bit for bit
    spec = make_preset(preset).rotating_spec()
    t0, t1 = RABI_EVENTS[:-1], RABI_EVENTS[1:]
    z = np.random.default_rng(3).normal(size=(t0.size, 2))
    u = _fixed_pieces(spec, t0, t1, SCAN_OPTS.rel_tol, z)
    assert u.shape == (t0.size, 2, 4)
    npt.assert_array_equal(u, _lone_passes(spec, t0, t1, SCAN_OPTS.rel_tol, z))


@pytest.mark.parametrize("opts", [SCAN_OPTS, PropagatorOptions(rel_tol=1e-9)],
                         ids=["scan", "refined"])
def test_route_matches_scalar_reference_on_every_interval_kind(opts):
    # every kind of interval: zero-length, direct (under two periods), and
    # period pieces with a remainder, a zero-length one (t0 + mT lands on t1)
    # and a round-off one (t1 three ulp past t0 + mT)
    spec = make_preset("dd-on").rotating_spec()
    period = TP / spec.fundamental[0]
    t0 = np.array([0.0, 0.3, 1.3, 0.0, 2.0, 4.1, 1.0, 7.0, 2.5])
    t1 = t0 + np.array([0.0, 1.9 * period, 0.2 * period, 3 * period, 5.5 * period,
                        0.0, 0.0, 0.5, 2.4 * period])
    t1[6] = 1.0 + 4 * period
    for _ in range(3):
        t1[6] = np.nextafter(t1[6], math.inf)
    assert 0.0 + 3 * period == t1[3]
    m = [_scalar_periods(spec, d, opts.rel_tol) for d in (t1 - t0).tolist()]
    assert m == [0, 0, 0, 3, 5, 0, 4, 18, 2]
    z = np.random.default_rng(7).normal(size=(t0.size, 2))
    identity = np.broadcast_to(np.eye(2), (2, 2, 2))
    for a, b, zz in zip(t0.tolist(), t1.tolist(), z):
        expected = identity if a == b else _scalar_route(spec, a, b, opts, zz)
        assert np.array_equal(_public_matrices(spec, a, b, opts, zz), expected)
    # the route's rule is the reference rule, lab-frame specs (which miss
    # periodicity by a defect) and round-off floor included
    lab = build_lab_fds(make_preset("fds-k5").signal, make_preset("fds-k5").drive)
    durations = np.concatenate([t1 - t0, [1e-3, 0.05, 4.0, 160.0, 1e4, 1e5]]).tolist()
    for rule_spec in (spec, lab):
        for rel_tol in (opts.rel_tol, 1e-12):
            assert [propagator._periods(rule_spec, d, rel_tol) for d in durations] == [
                _scalar_periods(rule_spec, d, rel_tol) for d in durations]


def test_segments_split_into_blocks(passes):
    spec = make_preset("fds-k5").rotating_spec()
    t0, t1 = RABI_EVENTS[:-1], RABI_EVENTS[1:]
    z = np.random.default_rng(5).normal(size=(t0.size, 3))
    tol = SCAN_OPTS.rel_tol
    expected = _lone_passes(spec, t0, t1, tol, z)
    passes.clear()
    npt.assert_array_equal(_fixed_pieces(spec, t0, t1, tol, z), expected)
    # every pass stays within the block budget, a group spans several passes,
    # and the substeps are those of the one-piece passes
    assert all(n * d.size * 3 <= propagator._BLOCK for n, d in passes)
    assert len(passes) > len({n for n, _ in passes})
    offset = float(np.abs(z).max())
    assert sum(n * d.size for n, d in passes) == sum(
        _scalar_initial_steps(spec, d, tol, offset) for d in (t1 - t0).tolist())


def test_one_step_rule_call_and_groups_in_piece_order(monkeypatch, passes):
    # the pieces of a refined call, and those of a fixed-resolution pass,
    # take their starting counts from one call of the step rule, and the
    # groups of equal counts of a pass run in the order of their first piece
    rule = propagator._initial_steps
    calls = []

    def counted(spec, duration, tol, offset):
        calls.append(np.size(duration))
        return rule(spec, duration, tol, offset)

    monkeypatch.setattr(propagator, "_initial_steps", counted)
    spec = make_preset("fds-k5").rotating_spec()
    interval_unitary(spec, 0.0, 4.0, ORACLE_OPTS)  # one period and a remainder
    assert calls == [2]
    calls.clear()
    passes.clear()
    t0 = np.array([0.0, 0.1, 0.2, 0.3])
    t1 = t0 + np.array([0.04, 0.01, 0.04, 0.02])
    _fixed_pieces(spec, t0, t1, SCAN_OPTS.rel_tol, np.zeros((t0.size, 2)))
    assert calls == [t0.size]
    counts = [int(rule(spec, d, SCAN_OPTS.rel_tol)) for d in t1 - t0]
    assert counts[0] > counts[3] > counts[1]
    assert [n for n, _ in passes] == [counts[0], counts[1], counts[3]]


@pytest.mark.parametrize("preset, dd", [("dd-off", None), ("dd-on", DdConfig())])
def test_scan_period_pieces_take_one_substep_count(preset, dd):
    # one drive period from each event of the default dd scans, the period
    # piece of the stroboscopic route, at the scan tolerance.  Counts were
    # once rounded up from the length of each period piece,
    # ceil(200 +- 1e-11), which split the pieces into 200- and 201-substep
    # passes, and a one-ulp change of omega_F moved pieces between the two
    sc = make_preset(preset)
    grid = default_dd_grid(dd is not None)
    pulses = dd.pulse_times(grid[-1]) if dd is not None else np.empty(0)
    events = np.unique(np.concatenate([[0.0], grid, pulses]))

    def counts(drive):
        spec = replace(sc, drive=drive).rotating_spec()
        period = TP / spec.fundamental[0]
        return set(_initial_steps(spec, (events + period) - events, SCAN_OPTS.rel_tol).tolist())

    assert counts(sc.drive) == {40}  # 8 substeps per period of the fifth tone
    for step in (math.inf, -math.inf):
        freq = np.nextafter(sc.drive.omega_F_freq, step)
        assert counts(replace(sc.drive, omega_F_freq=freq)) == {40}


def _scalar_initial_steps(spec, duration, tol, offset=0.0):
    """The substep-count rule of ``_initial_steps``, one interval at a time,
    as it was written before the counts of a scan became one array
    expression; the rotation-rate bound, with the largest offset, stands in
    for the fastest tone where it is larger."""
    f0 = spec.fundamental[0]
    if f0 == 0.0:
        return 1
    tol_period = tol / max(1, int(duration * f0 / TP))
    per_tone = 8.0 * max(1.0, (1e-6 / max(tol_period, 1e-14)) ** (1.0 / 6.0))
    rate = max(spec.max_frequency(), spec.amplitude_scale() + offset) * per_tone
    per_period = math.ceil(rate / f0 * (1.0 - propagator._SLACK))
    n = duration * f0 / TP * per_period
    return max(1, math.ceil(n * (1.0 - propagator._SLACK)))


@pytest.mark.parametrize("preset, dd, grid", [
    ("dd-off", None, default_dd_grid(dd=False)),
    ("dd-on", DdConfig(), default_dd_grid(dd=True)),
    ("fds-k5", None, RABI_EVENTS[1:]),
], ids=["dd-off", "dd-on", "rabi-fds-k5"])
def test_scan_piece_counts_follow_the_scalar_rule(passes, preset, dd, grid):
    # every piece of the default dd scans and of the rabi command's fds-k5
    # scan takes the count of the one-interval rule, bit for bit.  Each scan,
    # noisy or not, integrates the pieces of one folded drive period in one
    # fixed-resolution pass, at the period tolerance rel_tol / m of its
    # whole periods m
    spec = make_preset(preset).rotating_spec()
    noise = NoiseModel("ornstein-uhlenbeck", 0.7) if preset != "fds-k5" else None
    tol = SCAN_OPTS.rel_tol / int(grid[-1] * spec.fundamental[0] / TP)
    run_scan(preset, grid, noise=noise, dd=dd, n_realizations=2, seed=0)
    durations = np.concatenate([d for _, d in passes])
    assert durations.sum() == pytest.approx(TP / spec.fundamental[0], rel=1e-12)
    expected = [_scalar_initial_steps(spec, d, tol) for d in durations.tolist()]
    assert np.concatenate([np.full(d.size, n) for n, d in passes]).tolist() == expected
    counts = _initial_steps(spec, durations, tol)
    assert counts.dtype == int and counts.tolist() == expected
    # offsets of sigma_z x 2^12 at the top of the calibration bracket outrun
    # the fastest tone, 1,148 rad/us, and take its place
    big = 3211.0
    assert spec.max_frequency() < spec.amplitude_scale() + big
    counts = _initial_steps(spec, durations, tol, big)
    assert counts.tolist() == [_scalar_initial_steps(spec, d, tol, big)
                               for d in durations.tolist()]
    assert np.all(counts >= expected) and counts.max() > max(expected)
    # long direct intervals of a non-periodic lab-frame spec span many periods
    lab = build_lab_fds(make_preset("fds-k5").signal, make_preset("fds-k5").drive)
    lengths = np.array([0.01, 0.3, 1.0, 2.5, 7.0])
    assert _initial_steps(lab, lengths, 1e-8).tolist() == [
        _scalar_initial_steps(lab, d, 1e-8) for d in lengths.tolist()]
    assert _initial_steps(lab, 2.5, 1e-8) == _scalar_initial_steps(lab, 2.5, 1e-8)


def test_array_bounds_refused_naming_t0_and_t1():
    # arrays of segment bounds once took a route of their own, which only
    # tests used; they are refused before any work, by name
    spec = make_preset("dd-on").rotating_spec()
    z = np.random.default_rng(6).normal(size=(2, 3))
    for t0, t1 in ((np.array([0.0, 0.5]), np.array([0.5, 1.0])), ([0.0], 1.0),
                   (0.0, np.array([1.0])), (np.zeros((1, 1)), 1.0)):
        with pytest.raises(ValueError, match=r"^interval bounds t0 and t1 must be scalars"):
            interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z[:, :1])
    # scalar bounds with a batch of offsets, as Scenario.states passes them;
    # numpy scalars and 0-d arrays are scalar bounds
    u = interval_unitary(spec, 0.0, 0.5, ORACLE_OPTS, z_offsets=z)
    assert u.shape == (2, 3, 2, 2)
    npt.assert_array_equal(u, interval_unitary(spec, np.float64(0.0), np.array(0.5),
                                               ORACLE_OPTS, z_offsets=z))
    for row, ur in zip(z, u):  # each row refined on its own, to the tolerance
        npt.assert_allclose(ur, interval_unitary(spec, 0.0, 0.5, ORACLE_OPTS, row),
                            rtol=0, atol=ORACLE_OPTS.rel_tol)


def test_reversed_bounds_rejected():
    spec = make_preset("fds-k5").rotating_spec()
    for opts in (ORACLE_OPTS, SCAN_OPTS):
        with pytest.raises(ValueError, match=r"^interval end 0\.5 us precedes its start 1 us$"):
            interval_unitary(spec, 1.0, 0.5, opts)
        # a zero-length interval is not reversed
        npt.assert_array_equal(interval_unitary(spec, 2.0, 2.0, opts), np.eye(2))


# ----------------------------------------------------------- closed forms

def test_rabi_population_examples():
    amp = TP * 0.5
    assert rabi_population(amp, 0.0, 0.0) == 1.0
    assert rabi_population(amp, 0.0, math.pi / amp) == pytest.approx(0.0, abs=1e-12)
    # equal drive and detuning halves the contrast at the sine maximum
    delta = amp
    t_star = math.pi / math.hypot(amp, delta)
    assert rabi_population(amp, delta, t_star) == pytest.approx(0.5)
    assert rabi_population(0.0, 0.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        rabi_population(amp, 0.0, -1.0)


def test_expectation_values():
    assert expectation(KET0, "z") == pytest.approx(1.0)
    assert expectation(PLUS, "x") == pytest.approx(1.0)
    s = np.array([2**-0.5, 1j * 2**-0.5])
    assert expectation(s, "y") == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expectation(s, "q")
    # pure-state Bloch norm
    rng = np.random.default_rng(2)
    v = rng.normal(size=4)
    arr = (v[:2] + 1j * v[2:]) / np.linalg.norm(v[:2] + 1j * v[2:])
    bloch = sum(expectation(arr, ax) ** 2 for ax in "xyz")
    assert bloch == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- micromotion

def test_micromotion_error_zero_drive():
    signal = SignalParams(TP * 0.5, TP * 0.5)
    none = FloquetDriveParams(0.0, mhz_to_angular(36.54))
    spec = build_fds_prime(signal, none)
    cx, cz = effective_coefficients(signal, none)
    err = micromotion_error(spec, none, cx * SIGMA_X + cz * SIGMA_Z, 0.5)
    assert err < 1e-8


def test_micromotion_error_regression_and_scaling():
    spec, drive, signal = fds_paper_spec(k=1)
    cx, cz = effective_coefficients(signal, drive)
    eff = cx * SIGMA_X + cz * SIGMA_Z
    e1 = micromotion_error(spec, drive, eff, drive.period)
    assert e1 == pytest.approx(2.219e-4, rel=0.02)  # frozen regression value
    faster = FloquetDriveParams(drive.omega_F_amp, 2.0 * drive.omega_F_freq, 1)
    spec2 = build_fds_prime(signal, faster)
    cx2, cz2 = effective_coefficients(signal, faster)
    e2 = micromotion_error(spec2, faster, cx2 * SIGMA_X + cz2 * SIGMA_Z, drive.period)
    assert e2 <= 0.35 * e1


# --------------------------------------------------- frame / RWA consistency

def test_lab_vs_rotating_frame_consistency():
    # scaled resonance so the lab frame is integrable at desk precision
    omega_0 = TP * 20.0
    signal = SignalParams(TP * 0.4, TP * 0.3)
    lab = build_lab_ods(signal, omega_0)
    rot = to_signal_rotating_full(lab, signal, omega_0)
    t = 1.7
    opts = PropagatorOptions(rel_tol=1e-10)
    psi_lab = evolve(lab, KET0, [t], opts)[-1]
    ws = carrier(signal, omega_0)
    u_s = np.diag([np.exp(-0.5j * ws * t), np.exp(0.5j * ws * t)])
    psi_rot = evolve(rot, KET0, [t], opts)[-1]
    npt.assert_allclose(u_s @ psi_lab, psi_rot, atol=1e-8)


def test_rwa_error_shrinks_with_carrier_ratio():
    amp = TP * 0.5
    t = 2.0
    discrepancies = []
    for r in (10.0, 30.0, 100.0):
        ws = r * amp
        signal = SignalParams(amp, 0.0)  # resonant: the carrier is omega_0 = ws
        lab = build_lab_ods(signal, ws)
        rwa = to_signal_rotating(lab, signal, ws)
        full = to_signal_rotating_full(lab, signal, ws)
        opts = PropagatorOptions(rel_tol=1e-9)
        u_rwa = interval_unitary(rwa, 0.0, t, opts)
        u_full = interval_unitary(full, 0.0, t, opts)
        discrepancies.append(np.linalg.norm(u_rwa - u_full, ord=2))
    assert discrepancies[0] > discrepancies[1] > discrepancies[2]

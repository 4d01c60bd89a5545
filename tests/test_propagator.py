import math
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from floquet_sensor.hamiltonian import (
    Frame,
    HamiltonianSpec,
    PauliTerm,
    SIGMA_X,
    SIGMA_Z,
    build_fds_prime,
    build_lab_fds,
    build_lab_ods,
    effective_coefficients,
    to_signal_rotating,
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
    SensorParams,
    SignalParams,
    mhz_to_angular,
)
from floquet_sensor import propagator
from floquet_sensor.propagator import (
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
    rabi_population,
)

TP = 2.0 * math.pi


def constant_spec(cx, cy, cz):
    return HamiltonianSpec(
        Frame.SIGNAL_ROTATING,
        (
            PauliTerm("x", cx),
            PauliTerm("y", cy),
            PauliTerm("z", cz),
        ),
    )


def fds_paper_spec(k=5):
    sensor = SensorParams()
    signal = SignalParams.from_detuning(
        sensor, mhz_to_angular(0.5), mhz_to_angular(0.5)
    )
    drive = FloquetDriveParams(mhz_to_angular(1.0), mhz_to_angular(36.54), k)
    return build_fds_prime(sensor, signal, drive), drive, sensor, signal


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
        ref = expm(-1j * t * spec.matrix(0.0)) @ KET0
        assert states.shape == (1, 2)
        npt.assert_allclose(states[-1], ref, atol=1e-12)


def test_rabi_population_matches_evolve_randomized():
    # closed-form oracle vs the numeric propagator on constant specs
    rng = np.random.default_rng(23)
    sensor = SensorParams()
    worst = 0.0
    for _ in range(200):
        amp = rng.uniform(0.0, TP * 5.0)
        delta = rng.uniform(-TP * 5.0, TP * 5.0)
        t = rng.uniform(0.0, 20.0)
        signal = SignalParams.from_detuning(sensor, amp, delta)
        spec = to_signal_rotating(build_lab_ods(sensor, signal), signal)
        states = evolve(spec, KET0, [t] if t > 0 else [0.0])
        p0 = abs(states[:, 0]) ** 2
        worst = max(worst, abs(p0[-1] - rabi_population(amp, delta, t)))
    assert worst < 1e-9


def test_full_drive_spec_against_reference_integrator():
    spec, _, _, _ = fds_paper_spec(k=5)

    def rhs(t, y):
        return -1j * (spec.matrix(t) @ y)

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
    spec, _, _, _ = fds_paper_spec(k=3)
    states = evolve(spec, KET0, np.linspace(0.3, 3.0, 6),
                    PropagatorOptions(rel_tol=1e-8))
    assert states.shape == (6, 2)
    npt.assert_allclose(np.sum(abs(states) ** 2, axis=1), 1.0, atol=1e-10)


def test_time_grid_composition():
    spec, _, _, _ = fds_paper_spec(k=2)
    opts = PropagatorOptions(rel_tol=1e-10)
    stepped = evolve(spec, KET0, [0.7, 1.9], opts)
    direct = evolve(spec, KET0, [1.9], opts)
    assert stepped.shape == (2, 2)
    npt.assert_allclose(stepped[-1], direct[-1], atol=1e-9)


def test_self_convergence_contract():
    # at the starting resolution for rel_tol 1e-9, doubling the substep count
    # changes the propagator below rel_tol
    spec, _, _, _ = fds_paper_spec(k=1)
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
    crazy = HamiltonianSpec(
        Frame.SIGNAL_ROTATING, (PauliTerm("x", 1.0, 1e15),)
    )
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


# ------------------------------------------------------ stroboscopic route

def _unitarity_defect(u):
    return np.max(np.abs(u @ np.swapaxes(u.conj(), -1, -2) - np.eye(2)))


def _direct(spec, t0, t1, opts, tol, z=0.0):
    """Direct quaternion propagator of one interval: step doubling, or one fixed pass."""
    if opts.adaptive:
        return _stepped_unitary(spec, t0, t1, tol, z)
    return _interval_unitary(spec, t0, t1, _initial_steps(spec, t1 - t0, opts.rel_tol), z)


def _scalar_route(spec, t0, t1, opts, z=0.0):
    """Reference: the stroboscopic route written out for one scalar interval."""
    m = propagator._periods(spec, t1 - t0, opts)
    if m == 0:
        return _quat_matrix(_direct(spec, t0, t1, opts, opts.rel_tol, z))
    period = TWO_PI / spec.fundamental[0]
    t_mid = t0 + m * period
    u_period = _direct(spec, t0, t0 + period, opts, opts.rel_tol / m, z)
    u = _quat_power(u_period, m)
    if t1 - t_mid > 16.0 * math.ulp(t1):  # a remainder within round-off is skipped
        u = _quat_mul(_direct(spec, t_mid, t1, opts, opts.rel_tol, z), u)
    return _quat_matrix(u)


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
    assert propagator._periods(spec, t1 - t0, opts) >= 2
    u = interval_unitary(spec, t0, t1, opts, z_offsets=z)
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


def _complex_direct(spec, t0, t1, opts, tol, z=None):
    """Complex direct propagator: step doubling, or one fixed pass."""
    n = _initial_steps(spec, t1 - t0, tol if opts.adaptive else opts.rel_tol)
    u = _reduce_product(_pauli_exp(_copied_generators(spec, t0, t1, n, z)))
    if not opts.adaptive or spec.max_frequency() == 0.0:  # one exact exponential
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
    m = propagator._periods(spec, t1 - t0, opts)
    if m == 0:
        return _complex_direct(spec, t0, t1, opts, opts.rel_tol, z)
    period = TWO_PI / spec.fundamental[0]
    t_mid = t0 + m * period
    u_period = _complex_direct(spec, t0, t0 + period, opts, opts.rel_tol / m, z)
    u = np.linalg.matrix_power(_su2_project(u_period), m)
    if t1 - t_mid > 16.0 * math.ulp(t1):
        u = _complex_direct(spec, t_mid, t1, opts, opts.rel_tol, z) @ u
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


def test_segment_route_matches_complex_composition():
    spec = make_preset("dd-on").rotating_spec()
    period = TP / spec.fundamental[0]
    t0 = np.array([0.0, 0.3, 1.3, 2.0, 2.5])
    t1 = t0 + np.array([3 * period, 2.4 * period, 0.5, 5.5 * period, 0.0])
    z = np.random.default_rng(8).normal(size=(t0.size, 3))
    u = interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z)
    ref = np.stack([_complex_route(spec, a, b, SCAN_OPTS, zz) if b > a
                    else np.broadcast_to(np.eye(2), (3, 2, 2))
                    for a, b, zz in zip(t0, t1, z)])
    npt.assert_allclose(u, ref, rtol=0, atol=1e-13)


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
    ref = expm(-1j * (t1 - t0) * spec.matrix(0.0))
    for opts in (ORACLE_OPTS, SCAN_OPTS, PropagatorOptions(rel_tol=1e-14)):
        passes.clear()
        u = interval_unitary(spec, t0, t1, opts)
        assert [(n, d.size) for n, d in passes] == [(1, 1)]  # no step doubling
        npt.assert_allclose(u, ref, rtol=0, atol=1e-15)
    # sigma_z offsets, and the segment axis: one substep per segment, in one
    # pass per segment with refinement and one pass for both without
    z = np.array([[-0.7, 0.0, 0.9], [0.3, 0.5, -1.1]])
    for opts, expected in ((ORACLE_OPTS, [(1, 1), (1, 1)]), (SCAN_OPTS, [(1, 2)])):
        passes.clear()
        u = interval_unitary(spec, np.array([t0, 0.5]), np.array([t1, 2.5]), opts,
                             z_offsets=z)
        assert [(n, d.size) for n, d in passes] == expected
    for (a, b), row, us in zip([(t0, t1), (0.5, 2.5)], z, u):
        for off, ui in zip(row, us):
            shifted = spec.matrix(0.0) + off * SIGMA_Z
            npt.assert_allclose(ui, expm(-1j * (b - a) * shifted), rtol=0, atol=1e-15)
    # the closed-form Rabi population of the undriven sensor
    sc = make_preset("ods-detuned")
    amp, delta = sc.signal.omega_s_amp, sc.signal.detuning(sc.sensor)
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
    direct = _quat_matrix(_stepped_unitary(spec, 0.0, t, ORACLE_OPTS.rel_tol, 0.0))
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
    direct = _quat_matrix(_direct(spec, t0, t1, SCAN_OPTS, SCAN_OPTS.rel_tol, z))
    assert u.shape == (7, 2, 2)
    assert np.max(np.abs(u - direct)) <= SCAN_OPTS.rel_tol
    for i, off in enumerate(z):
        shifted = HamiltonianSpec(
            spec.frame, spec.terms + (PauliTerm("z", off),)
        )
        single = interval_unitary(shifted, t0, t1, SCAN_OPTS)
        npt.assert_allclose(u[i], single, atol=SCAN_OPTS.rel_tol)


def test_stroboscopic_route_falls_back_bit_identically():
    sc = make_preset("fds-k5")
    lab = build_lab_fds(sc.sensor, sc.signal, sc.drive)
    rwa_off = to_signal_rotating(lab, sc.signal, apply_rwa=False)
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
        assert np.array_equal(
            interval_unitary(spec, t0, t1, opts),
            _quat_matrix(_stepped_unitary(spec, t0, t1, opts.rel_tol, 0.0)),
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
    direct = _quat_matrix(_stepped_unitary(spec, 0.0, 3 * period, opts.rel_tol, 0.0))
    assert np.max(np.abs(u - direct)) <= 1e-9


# ------------------------------------------------------------- segment axis

RABI_EVENTS = np.concatenate([[0.0], np.round(np.arange(0.02, 6.0 + 1e-9, 0.02), 10)])


def _scalar_calls(spec, t0, t1, z, opts=SCAN_OPTS):
    return np.stack([interval_unitary(spec, a, b, opts, z_offsets=zz)
                     for a, b, zz in zip(t0, t1, z)])


def _assert_segments_match_scalar_calls(spec, t0, t1, z):
    u = interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z)
    assert u.shape == (len(t0), z.shape[1], 2, 2)
    npt.assert_array_equal(u, _scalar_calls(spec, t0, t1, z))


@pytest.fixture
def passes(monkeypatch):
    """(substeps, piece durations) of every fixed-resolution pass, in call order."""
    seen = []
    kernel = propagator._interval_unitary

    def counted(spec, t0, t1, n, z_offsets):
        seen.append((n, np.ravel(np.subtract(t1, t0))))
        return kernel(spec, t0, t1, n, z_offsets)

    monkeypatch.setattr(propagator, "_interval_unitary", counted)
    return seen


@pytest.mark.parametrize("preset", ["fds-k5", "ods-resonant", "ods-detuned"])
def test_segments_match_scalar_calls_direct_route(preset):
    # the rabi command's default grid: sub-period segments of the driven
    # preset, and the constant specs of the undriven ones
    spec = make_preset(preset).rotating_spec()
    t0, t1 = RABI_EVENTS[:-1], RABI_EVENTS[1:]
    assert not any(propagator._periods(spec, d, SCAN_OPTS) for d in t1 - t0)
    _assert_segments_match_scalar_calls(spec, t0, t1, np.zeros((t0.size, 1)))


def test_segments_match_scalar_calls_stroboscopic_route():
    spec = make_preset("dd-on").rotating_spec()
    period = TP / spec.fundamental[0]
    t0 = np.array([0.0, 0.0, 0.3, 1.3, 1.3, 2.0, 2.5, 7.0])
    t1 = t0 + np.array([3 * period, 0.5, 2.4 * period, 0.5, 0.2 * period,
                        5.5 * period, 0.0, 0.5])
    m = {propagator._periods(spec, d, SCAN_OPTS) for d in t1 - t0}
    assert m == {0, 2, 3, 5, 18}
    # t0 = 0 plus three periods lands on t1 exactly: no remainder pass
    assert 0.0 + 3 * period == t1[0]
    z = np.random.default_rng(4).normal(size=(t0.size, 3))
    _assert_segments_match_scalar_calls(spec, t0, t1, z)
    npt.assert_array_equal(
        interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z)[6],
        np.broadcast_to(np.eye(2), (3, 2, 2)),
    )


def test_segments_split_into_blocks(passes):
    spec = make_preset("fds-k5").rotating_spec()
    t0, t1 = RABI_EVENTS[:-1], RABI_EVENTS[1:]
    z = np.random.default_rng(5).normal(size=(t0.size, 3))
    expected = _scalar_calls(spec, t0, t1, z)
    passes.clear()
    npt.assert_array_equal(
        interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z), expected
    )
    # every pass stays within the block budget, a group spans several passes,
    # and the substeps are those of the scalar calls
    assert all(n * d.size * 3 <= propagator._BLOCK for n, d in passes)
    assert len(passes) > len({n for n, _ in passes})
    assert sum(n * d.size for n, d in passes) == sum(
        propagator._initial_steps(spec, d, SCAN_OPTS.rel_tol) for d in t1 - t0
    )


@pytest.mark.parametrize("preset, dd", [("dd-off", None), ("dd-on", DdConfig())])
def test_scan_period_pieces_take_one_substep_count(passes, preset, dd):
    # the default dd scans at SCAN_OPTS: counts were once rounded up from the
    # length of each period piece, ceil(200 +- 1e-11), which split the pieces
    # into 200- and 201-substep passes, and a one-ulp change of omega_F moved
    # pieces between the two
    sc = make_preset(preset)

    def scan(drive):
        passes.clear()
        run_scan(replace(sc, drive=drive), default_dd_grid(dd is not None), dd=dd,
                 noise=NoiseModel("ornstein-uhlenbeck", 0.7), n_realizations=2, seed=0)
        period = TP / replace(sc, drive=drive).rotating_spec().fundamental[0]
        return len(passes), {n for n, d in passes if np.any(np.abs(d - period) < 1e-9)}

    count, period_steps = scan(sc.drive)
    assert period_steps == {40}  # 8 substeps per period of the fifth tone
    for step in (math.inf, -math.inf):
        freq = np.nextafter(sc.drive.omega_F_freq, step)
        assert scan(replace(sc.drive, omega_F_freq=freq)) == (count, {40})


def _scalar_initial_steps(spec, duration, tol):
    """The substep-count rule of ``_initial_steps``, one interval at a time,
    as it was written before the counts of a scan became one array expression."""
    f0 = spec.fundamental[0]
    if f0 == 0.0:
        return 1
    tol_period = tol / max(1, int(duration * f0 / TP))
    per_tone = 8.0 * max(1.0, (1e-6 / max(tol_period, 1e-14)) ** (1.0 / 6.0))
    rate = max(spec.max_frequency() * per_tone, spec.amplitude_scale() * 8.0)
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
    # scan takes the count of the one-interval rule, bit for bit
    spec = make_preset(preset).rotating_spec()
    noise = NoiseModel("ornstein-uhlenbeck", 0.7) if preset != "fds-k5" else None
    run_scan(preset, grid, noise=noise, dd=dd, n_realizations=2, seed=0)
    durations = np.concatenate([d for _, d in passes])
    expected = [_scalar_initial_steps(spec, d, SCAN_OPTS.rel_tol) for d in durations.tolist()]
    assert np.concatenate([np.full(d.size, n) for n, d in passes]).tolist() == expected
    counts = _initial_steps(spec, durations, SCAN_OPTS.rel_tol)
    assert counts.dtype == int and counts.tolist() == expected
    # long direct intervals of a non-periodic lab-frame spec span many periods
    lab = build_lab_fds(SensorParams(), make_preset("fds-k5").signal, make_preset("fds-k5").drive)
    lengths = np.array([0.01, 0.3, 1.0, 2.5, 7.0])
    assert _initial_steps(lab, lengths, 1e-8).tolist() == [
        _scalar_initial_steps(lab, d, 1e-8) for d in lengths.tolist()]
    assert _initial_steps(lab, 2.5, 1e-8) == _scalar_initial_steps(lab, 2.5, 1e-8)


def test_segments_validate_options_and_shapes():
    spec = make_preset("dd-on").rotating_spec()
    t0, t1 = np.array([0.0, 0.5]), np.array([0.5, 1.0])
    # with refinement, each piece is step-doubled on its own
    z = np.random.default_rng(6).normal(size=(2, 2))
    npt.assert_array_equal(interval_unitary(spec, t0, t1, ORACLE_OPTS, z_offsets=z),
                           _scalar_calls(spec, t0, t1, z, ORACLE_OPTS))
    for z in (None, np.zeros(2), np.zeros((3, 1))):
        with pytest.raises(ValueError, match=r"shape \(S, r\)"):
            interval_unitary(spec, t0, t1, SCAN_OPTS, z_offsets=z)
    assert interval_unitary(
        spec, t0[:0], t1[:0], SCAN_OPTS, z_offsets=np.zeros((0, 2))
    ).shape == (0, 2, 2, 2)


def test_reversed_bounds_rejected():
    spec = make_preset("fds-k5").rotating_spec()
    for opts in (ORACLE_OPTS, SCAN_OPTS):
        with pytest.raises(ValueError, match="precedes its start"):
            interval_unitary(spec, 1.0, 0.5, opts)
        with pytest.raises(ValueError, match="precedes its start"):
            interval_unitary(spec, np.array([0.0, 1.0]), np.array([0.5, 0.5]), opts,
                             z_offsets=np.zeros((2, 1)))


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
    sensor = SensorParams()
    signal = SignalParams.from_detuning(sensor, TP * 0.5, TP * 0.5)
    none = FloquetDriveParams(0.0, mhz_to_angular(36.54))
    spec = build_fds_prime(sensor, signal, none)
    cx, cz = effective_coefficients(sensor, signal, none)
    err = micromotion_error(spec, none, cx * SIGMA_X + cz * SIGMA_Z, 0.5)
    assert err < 1e-8


def test_micromotion_error_regression_and_scaling():
    spec, drive, sensor, signal = fds_paper_spec(k=1)
    cx, cz = effective_coefficients(sensor, signal, drive)
    eff = cx * SIGMA_X + cz * SIGMA_Z
    e1 = micromotion_error(spec, drive, eff, drive.period)
    assert e1 == pytest.approx(2.219e-4, rel=0.02)  # frozen regression value
    faster = FloquetDriveParams(drive.omega_F_amp, 2.0 * drive.omega_F_freq, 1)
    spec2 = build_fds_prime(sensor, signal, faster)
    cx2, cz2 = effective_coefficients(sensor, signal, faster)
    e2 = micromotion_error(spec2, faster, cx2 * SIGMA_X + cz2 * SIGMA_Z, drive.period)
    assert e2 <= 0.35 * e1


# --------------------------------------------------- frame / RWA consistency

def test_lab_vs_rotating_frame_consistency():
    # scaled resonance so the lab frame is integrable at desk precision
    sensor = SensorParams(D=TP * 20.0, gamma_e=0.0, B0=0.0)
    signal = SignalParams.from_detuning(sensor, TP * 0.4, TP * 0.3)
    lab = build_lab_ods(sensor, signal)
    rot = to_signal_rotating(lab, signal, apply_rwa=False)
    t = 1.7
    opts = PropagatorOptions(rel_tol=1e-10)
    psi_lab = evolve(lab, KET0, [t], opts)[-1]
    ws = signal.omega_s_freq
    u_s = np.diag([np.exp(-0.5j * ws * t), np.exp(0.5j * ws * t)])
    psi_rot = evolve(rot, KET0, [t], opts)[-1]
    npt.assert_allclose(u_s @ psi_lab, psi_rot, atol=1e-8)


def test_rwa_error_shrinks_with_carrier_ratio():
    amp = TP * 0.5
    t = 2.0
    discrepancies = []
    for r in (10.0, 30.0, 100.0):
        ws = r * amp
        sensor = SensorParams(D=ws, gamma_e=0.0, B0=0.0)
        signal = SignalParams(amp, ws)
        lab = build_lab_ods(sensor, signal)
        rwa = to_signal_rotating(lab, signal, apply_rwa=True)
        full = to_signal_rotating(lab, signal, apply_rwa=False)
        opts = PropagatorOptions(rel_tol=1e-9)
        u_rwa = interval_unitary(rwa, 0.0, t, opts)
        u_full = interval_unitary(full, 0.0, t, opts)
        discrepancies.append(np.linalg.norm(u_rwa - u_full, ord=2))
    assert discrepancies[0] > discrepancies[1] > discrepancies[2]

import math

import numpy as np
import pytest

from floquet_sensor.measurement import (
    MonteCarloConfig,
    ReadoutModel,
    _estimate_p0_from_total,
    _fit_qfi_from_expectations,
    default_omega_grid,
    qfi_pipeline,
    read_out,
)
from floquet_sensor.params import SignalParams
from floquet_sensor.hamiltonian import build_fds_prime
from floquet_sensor.propagator import evolve

TP = 2.0 * math.pi
KET0 = np.array([1.0, 0.0], dtype=complex)


def resonant_state(amp, t):
    spec = build_fds_prime(SignalParams(amp, 0.0))
    return evolve(spec, KET0, [t])[-1]


# -------------------------------------------------------------- count model

def test_reference_means_from_paper_numbers():
    m = ReadoutModel()
    assert m.mu_bright == pytest.approx(9.5e4 * 0.94e-6)       # ~0.0893 / shot
    assert m.mean_counts(1.0) == pytest.approx(m.mu_bright)
    assert m.mean_counts(0.0) == pytest.approx(m.mu_bright * 0.87)


def test_contrast_zero_limit_removes_state_dependence():
    m = ReadoutModel(contrast=1e-9)
    assert m.mean_counts(0.0) == pytest.approx(m.mean_counts(1.0), rel=1e-6)


def test_model_validation():
    with pytest.raises(ValueError):
        ReadoutModel(contrast=0.0)
    with pytest.raises(ValueError):
        ReadoutModel(count_rate=-1.0)


class _FixedCounts:
    """Stands in for a generator: every Poisson draw returns ``counts``."""

    def __init__(self, counts):
        self.counts = counts

    def poisson(self, lam):
        return np.full(np.shape(lam), self.counts)


def test_read_out_poisson_statistics():
    m = ReadoutModel()
    p0_hat, stderr = read_out(np.ones(1_000_000), 1, np.random.default_rng(4), m)
    counts = m.mu_bright * (1.0 - m.contrast * (1.0 - p0_hat))  # one shot each
    assert np.mean(counts) == pytest.approx(m.mu_bright, rel=0.02)
    # Poisson: variance equals mean
    assert np.var(counts) == pytest.approx(m.mu_bright, rel=0.02)
    assert stderr.shape == (1_000_000,)


def test_read_out_stream_is_c_order_and_pooling_sums_counts():
    m = ReadoutModel()
    p0 = np.array([[0.2, 0.9, 1.0 + 1e-15], [0.5, 0.0, 0.7]])
    batched, _ = read_out(p0, 1000, np.random.default_rng(8), m)
    rng = np.random.default_rng(8)
    for idx in np.ndindex(p0.shape):
        single, _ = read_out(p0[idx], 1000, rng, m)
        assert single == batched[idx]
    # pooled: three members share 900 shots, one estimate per row
    pooled, pooled_err = read_out(p0, 900, np.random.default_rng(8), m, pooled=True)
    totals = np.random.default_rng(8).poisson(m.mean_counts(np.clip(p0, 0.0, 1.0)) * 300.0)
    expected, expected_err = _estimate_p0_from_total(totals.sum(axis=1), 900, m)
    assert pooled.shape == (2,)
    assert np.array_equal(pooled, expected) and np.array_equal(pooled_err, expected_err)


def test_read_out_rejects_shots_below_one():
    for shots in (0, -5):
        with pytest.raises(ValueError, match="shots"):
            read_out(np.array([0.5]), shots, np.random.default_rng(0), ReadoutModel())


# --------------------------------------------------------------- estimators

def test_read_out_inverts_at_bright_reference():
    m = ReadoutModel()
    # two shots with counts 1 and 0: the total is 1
    p0, _ = read_out(1.0, 2, _FixedCounts(1), m)
    expected = 1.0 - (1.0 - 0.5 / m.mu_bright) / m.contrast
    assert p0 == pytest.approx(expected)
    # a sample mean exactly at the bright reference reads p0 = 1
    p0, _ = _estimate_p0_from_total(1e5 * m.mu_bright, 100_000, m)
    assert p0 == pytest.approx(1.0, abs=1e-12)


def test_read_out_stderr_scales_as_inverse_sqrt_shots():
    m = ReadoutModel()
    rng = np.random.default_rng(12)
    truth = np.full(4000, 0.5)
    spreads, reported = [], []
    for shots in (10_000, 100_000, 1_000_000):
        p0_hat, stderr = read_out(truth, shots, rng, m)
        spreads.append(np.std(p0_hat, ddof=1))
        reported.append(np.mean(stderr))
        assert abs(np.mean(p0_hat) - 0.5) < 5.0 * spreads[-1] / math.sqrt(truth.size)
        assert spreads[-1] == pytest.approx(reported[-1], rel=0.1)
    for a, b in ((0, 1), (1, 2)):
        assert reported[a] / reported[b] == pytest.approx(math.sqrt(10.0), rel=1e-3)
        assert spreads[a] / spreads[b] == pytest.approx(math.sqrt(10.0), rel=0.1)


def test_read_out_estimate_unclamped():
    m = ReadoutModel()
    p0, _ = read_out(1.0, 4, _FixedCounts(10), m)  # far above the bright reference
    assert p0 > 1.0  # deliberately not clamped


# --------------------------------------------------------------- qfi pipeline

def resonant_family(t):
    """The resonant states at time t as an array family of the signal amplitude."""
    return lambda amps: np.array([resonant_state(w, t) for w in amps])


def test_pipeline_noiseless_resonant_reaches_quadratic():
    w0 = TP * 0.5
    t = 3.8
    est = qfi_pipeline(resonant_family(t), default_omega_grid(w0), omega_center=w0)
    assert est.method == "theta-phi-fit"
    assert est.value == pytest.approx(t**2, rel=1e-6)


def test_pipeline_zero_dependence_scenario():
    fixed = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    grid = default_omega_grid(TP * 0.5)
    with pytest.warns(UserWarning, match=r"^phi degenerate at grid point \d+$") as notes:
        est = qfi_pipeline(
            lambda amps: np.tile(fixed, (len(amps), 1)), grid, omega_center=TP * 0.5,
        )
    # the state does not move, so every grid point is noted as degenerate
    assert [str(n.message) for n in notes] == [
        f"phi degenerate at grid point {i}" for i in range(len(grid))]
    assert abs(est.value) < 1e-9


def test_pipeline_grid_validation():
    family = resonant_family(1.0)
    with pytest.raises(ValueError):
        qfi_pipeline(family, [1.0, 2.0])
    with pytest.raises(ValueError):
        qfi_pipeline(family, [1.0, 1.0, 1.0])


def test_pipeline_monte_carlo_determinism_and_consistency():
    w0 = TP * 0.5
    t = 2.0
    grid = default_omega_grid(w0)
    mc = MonteCarloConfig(shots=100_000, repeats=20, seed=3)
    a = qfi_pipeline(resonant_family(t), grid, mc=mc, omega_center=w0)
    b = qfi_pipeline(resonant_family(t), grid, mc=mc, omega_center=w0)
    assert a.value == b.value and a.stderr == b.stderr  # identical seeds
    assert a.method == "monte-carlo"
    # estimate consistent with the noiseless truth within its own error bar
    truth = t**2
    assert abs(a.value - truth) < 3.0 * a.stderr / math.sqrt(mc.repeats) + 0.05 * truth


def test_pipeline_error_shrinks_with_shots():
    w0 = TP * 0.5
    grid = default_omega_grid(w0)
    spreads = []
    # at 10,000 shots half of the repeats leave a phi fit note
    with pytest.warns(UserWarning, match=r"^8 fit notes over 16 repeats$") as notes:
        for shots in (10_000, 1_000_000):
            est = qfi_pipeline(
                resonant_family(2.0),
                grid,
                mc=MonteCarloConfig(shots=shots, repeats=16, seed=6),
                omega_center=w0,
            )
            spreads.append(est.stderr)
    assert len(notes) == 1
    assert spreads[1] < 0.3 * spreads[0]


def test_monte_carlo_config_validation():
    with pytest.raises(ValueError):
        MonteCarloConfig(shots=0)
    with pytest.raises(ValueError):
        MonteCarloConfig(repeats=0)


# ------------------------------------------------- batched fit vs scalar oracle

def _scalar_fit_oracle(omega_grid, sx, sy, sz, omega_center, debias):
    """The per-repeat fit the batched one replaced: a scalar (theta, phi)
    conversion per point, sequential nearest-branch unwrap, np.polyfit lines."""
    notes = []
    theta, phi = np.empty(len(omega_grid)), np.empty(len(omega_grid))
    for i in range(len(omega_grid)):
        theta[i] = 0.5 * math.acos(min(1.0, max(-1.0, sx[i])))
        if abs(sy[i]) < 1e-12 and abs(sz[i]) < 1e-12:
            phi[i] = 0.0
            notes.append(f"phi degenerate at grid point {i}")
        else:
            phi[i] = math.atan2(-sy[i], sz[i])
    for i in range(1, len(phi)):
        phi[i] -= TP * round((phi[i] - phi[i - 1]) / TP)
    if np.any(np.abs(np.diff(phi)) > 0.5 * math.pi):
        notes.append("phi-unwrap ambiguity: adjacent grid points differ by more than pi/2")

    def line_fit(y):
        coeffs = np.polyfit(omega_grid, y, 1)
        resid = y - np.polyval(coeffs, omega_grid)
        var = np.sum(resid**2) / max(len(y) - 2, 1) / np.sum((omega_grid - omega_grid.mean()) ** 2)
        return coeffs[0], coeffs[1], var

    slope_t, icept_t, var_t = line_fit(theta)
    slope_p, _, var_p = line_fit(phi)
    theta_c = slope_t * omega_center + icept_t
    sq_t = slope_t**2 - (var_t if debias else 0.0)
    sq_p = slope_p**2 - (var_p if debias else 0.0)
    return 4.0 * sq_t + math.sin(2.0 * theta_c) ** 2 * sq_p, notes


def test_batched_fit_matches_scalar_oracle():
    w0 = TP * 0.5
    grid = default_omega_grid(w0)
    from floquet_sensor.propagator import expectation

    states = [resonant_state(w, 3.8) for w in grid]
    exact = np.array([[expectation(s, ax) for s in states] for ax in "xyz"])
    rng = np.random.default_rng(17)
    sx, sy, sz = exact[:, None, :] + 0.01 * rng.standard_normal((3, 200, grid.size))
    sy[5, 3] = sz[5, 3] = 0.0  # the (sy, sz) = (0, 0) pole
    phi = np.arctan2(-sy[9, 2], sz[9, 2]) + 2.0  # a > pi/2 phase jump
    radius = math.hypot(sy[9, 2], sz[9, 2])
    sy[9, 2], sz[9, 2] = -radius * math.sin(phi), radius * math.cos(phi)

    for debias in (False, True):
        values, notes = _fit_qfi_from_expectations(grid, sx, sy, sz, w0, debias)
        oracle_notes = []
        for r in range(200):
            value, n = _scalar_fit_oracle(grid, sx[r], sy[r], sz[r], w0, debias)
            assert values[r] == pytest.approx(value, rel=1e-12, abs=1e-12)
            oracle_notes.extend(n)
        assert notes == oracle_notes  # same order, so the same warning count
    assert "phi degenerate at grid point 3" in notes
    assert any(n.startswith("phi-unwrap ambiguity") for n in notes)


def test_pipeline_monte_carlo_notes_and_warning_count():
    w0 = TP * 0.5
    grid = default_omega_grid(w0)
    # 1000 shots: noise large enough to trip unwrap notes in some repeats
    mc = MonteCarloConfig(shots=1_000, repeats=200, seed=2)
    with pytest.warns(UserWarning, match=r"\d+ fit notes over 200 repeats") as rec:
        est = qfi_pipeline(resonant_family(0.2), grid, mc=mc, omega_center=w0)
    assert est.notes == tuple(sorted(set(est.notes)))
    count = int(str(rec[0].message).split()[0])
    assert count >= len(est.notes) > 0


def test_pipeline_monte_carlo_resonant_mean_within_5_sem():
    w0 = TP * 0.5
    t = 3.8
    mc = MonteCarloConfig(shots=100_000, repeats=2000, seed=0)
    est = qfi_pipeline(resonant_family(t), default_omega_grid(w0),
                       mc=mc, omega_center=w0)
    sem = est.stderr / math.sqrt(mc.repeats)
    assert abs(est.value - t**2) < 5.0 * sem

"""Photon-count readout simulation and estimation from shot noise.

The readout model (``params.ReadoutModel``, shared with the sensitivity
model in ``metrology``) maps a |0> population to a Poisson mean via linear
contrast interpolation, mu(p0) = N * t_det * [1 - C * (1 - p0)], with |0>
the bright state.  ``read_out`` draws the aggregate photon count of a shot
batch (Poisson with mean shots * mu) for an array of populations in one call
and inverts the model.  The full estimation pipeline measures Pauli
expectations over a small grid of signal amplitudes, converts them to
(theta, phi), fits straight lines and evaluates the algebraic
Fisher-information form, with Monte Carlo repetition supplying error bars.
The states of the whole grid come from one call of an array state family
(``family(amps)`` -> (k, 2), the contract of ``metrology``).

Random streams: each Monte Carlo call of ``qfi_pipeline`` seeds one
generator from ``SeedSequence(mc.seed)`` and makes a single Poisson draw of
shape (repeat, axis x/y/z, grid point), in C order.  The same seed therefore
reproduces a run bit for bit, and a run with more repeats extends the one
with fewer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrology import QfiEstimate, theta_phi_from_expectations
from .params import ReadoutModel, _require_count
from .propagator import expectation


@dataclass(frozen=True)
class MonteCarloConfig:
    """Shots per grid point, repeat count for error bars, and the master seed."""

    shots: int = 100_000
    repeats: int = 50
    seed: int = 0

    def __post_init__(self):
        _require_count("shots", self.shots)
        _require_count("repeats", self.repeats)
        _require_count("seed", self.seed, least=0)


def _estimate_p0_from_total(total_counts, shots: int, model: ReadoutModel):
    """Invert the count model: (p0_hat, stderr) from aggregate counts.

    p0_hat = 1 - (1 - mean/mu_bright)/C with mean = total/shots, elementwise
    over ``total_counts``.  The estimate is deliberately not clamped to
    [0, 1]: clamping would bias the line fits downstream.  The standard error
    propagates the Poisson variance (estimated by the sample mean).
    """
    mean = np.asarray(total_counts) / shots
    p0_hat = 1.0 - (1.0 - mean / model.mu_bright) / model.contrast
    stderr = np.sqrt(np.maximum(mean, 0.0) / shots) / (model.mu_bright * model.contrast)
    return p0_hat, stderr


def read_out(p0, shots: int, rng: np.random.Generator, model: ReadoutModel,
             pooled: bool = False):
    """Poisson photon-count readout of |0> populations: (p0_hat, stderr).

    Each element of ``p0`` (clipped to [0, 1]) is read out over ``shots``
    shots by one aggregate Poisson draw, the draws taken from ``rng`` in C
    order, and the count model is inverted.  With ``pooled``, the last axis
    of ``p0`` is an ensemble sharing the shot budget: each member is read
    over ``shots / n`` shots and the counts are summed into one estimate, so
    the outputs lose that axis.
    """
    _require_count("shots", shots)
    p0 = np.clip(p0, 0.0, 1.0)
    if not pooled:
        totals = rng.poisson(model.mean_counts(p0) * shots)
        return _estimate_p0_from_total(totals, shots, model)
    totals = rng.poisson(model.mean_counts(p0) * (shots / p0.shape[-1]))
    return _estimate_p0_from_total(totals.sum(axis=-1), shots, model)


def _fit_qfi_from_expectations(
    omega_grid: np.ndarray, sx, sy, sz, omega_center: float, debias: bool = False
) -> tuple[np.ndarray, list[str]]:
    """(theta, phi) conversion, unwrap, line fits and the algebraic QFI.

    ``sx``, ``sy``, ``sz`` are (repeats, grid) arrays of Pauli expectations
    on the shared ``omega_grid``; returns the per-repeat QFI values and the
    fit notes of every repeat in order.  phi is set to 0 (and noted) at the
    (sy, sz) = (0, 0) pole and unwrapped onto the nearest branch of its
    predecessor.  With ``debias`` (the Monte Carlo path) the squared slopes
    are corrected by their fitted variance, removing the quadratic noise
    inflation E[b_hat^2] = b^2 + Var(b_hat); noiseless fits keep the raw
    slopes since their residuals reflect trajectory curvature, not noise.
    """
    theta, phi, degenerate = theta_phi_from_expectations(sx, sy, sz)
    branch = np.cumsum(np.round(np.diff(phi, axis=-1) / (2.0 * math.pi)), axis=-1)
    phi[:, 1:] -= 2.0 * math.pi * branch
    ambiguous = np.any(np.abs(np.diff(phi, axis=-1)) > 0.5 * math.pi, axis=-1)

    notes: list[str] = []
    for r in np.flatnonzero(degenerate.any(axis=-1) | ambiguous):
        notes.extend(
            f"phi degenerate at grid point {i}" for i in np.flatnonzero(degenerate[r])
        )
        if ambiguous[r]:
            notes.append(
                "phi-unwrap ambiguity: adjacent grid points differ by more than pi/2"
            )

    # least-squares lines y = b (x - x_mean) + y_mean on the shared grid
    dx = omega_grid - omega_grid.mean()
    sxx = np.dot(dx, dx)
    dof = max(omega_grid.size - 2, 1)

    def line(y):
        y_mean = y.mean(axis=-1)
        slope = (y - y_mean[:, None]) @ dx / sxx
        resid = y - y_mean[:, None] - slope[:, None] * dx
        return slope, y_mean, np.sum(resid**2, axis=-1) / dof / sxx

    slope_t, mean_t, var_t = line(theta)
    slope_p, _, var_p = line(phi)
    theta_c = mean_t + slope_t * (omega_center - omega_grid.mean())
    sq_t = slope_t**2 - (var_t if debias else 0.0)
    sq_p = slope_p**2 - (var_p if debias else 0.0)
    return 4.0 * sq_t + np.sin(2.0 * theta_c) ** 2 * sq_p, notes


def default_omega_grid(omega_center: float):
    """Seven points on a symmetric +-2.5% grid around the nominal amplitude."""
    return omega_center * (1.0 + 0.025 * np.linspace(-1.0, 1.0, 7))


def qfi_pipeline(
    family: Callable[[np.ndarray], np.ndarray],
    omega_grid,
    mc: MonteCarloConfig | None = None,
    model: ReadoutModel = ReadoutModel(),
    omega_center: float | None = None,
) -> QfiEstimate:
    """Full estimation pipeline: states -> noisy expectations -> line fits -> QFI.

    ``family(omega_grid)`` supplies the (k, 2) evolved states of the k grid
    amplitudes in one call, the array state family ``metrology.qfi_exact``
    takes.  With
    ``mc=None`` the expectations are exact and a single deterministic fit is
    made; otherwise ``mc.repeats`` repeats of Poisson counts over
    ``mc.shots`` shots are drawn in one call from a generator seeded by
    ``SeedSequence(mc.seed)``, ordered (repeat, axis, grid point), and the
    spread of the per-repeat values gives the error bar.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size < 3:
        raise ValueError("omega grid needs at least 3 points for a slope fit")
    if np.ptp(omega_grid) <= 0:
        raise ValueError("omega grid is degenerate (zero span)")
    if omega_center is None:
        omega_center = float(np.mean(omega_grid))

    states = family(omega_grid)
    exact = np.array([[expectation(s, ax) for s in states] for ax in ("x", "y", "z")])

    if mc is None:
        sx, sy, sz = exact[:, None, :]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(mc.seed))
        p0 = np.broadcast_to(0.5 * (1.0 + exact), (mc.repeats,) + exact.shape)
        p0_hat, _ = read_out(p0, mc.shots, rng, model)
        sx, sy, sz = np.moveaxis(2.0 * p0_hat - 1.0, 1, 0)
    values, notes = _fit_qfi_from_expectations(
        omega_grid, sx, sy, sz, omega_center, debias=mc is not None
    )

    if mc is None:
        for n in notes:
            warnings.warn(n, stacklevel=2)
        return QfiEstimate(
            value=float(values[0]), method="theta-phi-fit", stderr=0.0,
            notes=tuple(notes),
        )
    if notes:
        warnings.warn(f"{len(notes)} fit notes over {mc.repeats} repeats", stacklevel=2)
    return QfiEstimate(
        value=max(float(np.mean(values)), 0.0),
        method="monte-carlo",
        stderr=float(np.std(values, ddof=1)) if mc.repeats > 1 else 0.0,
        notes=tuple(sorted(set(notes))),
    )

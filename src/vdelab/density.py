"""Self-consistent density of states and its divergence at E = 0.

rho(E) is the eta -> 0 limit of (1/(pi dim)) sum_k Im m_k(E + i eta).
Each grid point runs a warm-started descent over an eta schedule and
extrapolates with the model a + b eta^beta, beta fitted from the last
three schedule points; when the increments grow instead of shrinking the
point is flagged divergent and the last raw value is reported.  The
staircase profiles this package targets have an integrable power-law
divergence at E = 0, characterized by a log-log window fit rather than a
pointwise value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .profiles import VarianceProfile
from .solver import (
    SolverOptions, SpectralPoint, continuation_guess, solve, suggested_tol
)

DEFAULT_ETA_SCHEDULE: tuple[float, ...] = tuple(np.geomspace(1e-2, 1e-6, 5))

# Default |E| window for the divergence exponent fit.  Windows much below
# 2e-4 degrade: the eta extrapolation loses accuracy once E approaches the
# schedule floor.  Windows above ~2e-3 pick up subleading corrections.
DEFAULT_FIT_WINDOW: tuple[float, float] = (2e-4, 2e-3)

_LINEAR_STEP = 0.05
_LOG_FLOOR = 1e-5
_LOG_POINTS_PER_DECADE = 6


def support_bound(profile: VarianceProfile) -> float:
    """Safe upper bound on the spectral support: 2 sqrt(max row sum) + 0.5."""
    return 2.0 * math.sqrt(float(profile.entries.sum(axis=1).max())) + 0.5


@dataclass(frozen=True)
class DensityProfile:
    energies: np.ndarray
    rho: np.ndarray
    eta_schedule: tuple[float, ...]
    total_mass: float
    error_estimates: np.ndarray


@dataclass(frozen=True)
class PointDensity:
    """One extrapolated density value with its eta descent diagnostics."""

    value: float
    raw: np.ndarray
    eta_used: float
    error_estimate: float
    divergent: bool


def _validate_schedule(eta_schedule) -> list[float]:
    etas = [float(v) for v in eta_schedule]
    if len(etas) < 3:
        raise ValueError("eta schedule needs at least 3 values")
    if any(not v > 0 for v in etas):
        raise ValueError("eta schedule must be positive")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("eta schedule must be strictly descending")
    if math.log10(etas[0] / etas[-1]) < 2.0 - 1e-9:
        raise ValueError("eta schedule must span at least 2 decades")
    return etas


def _extrapolate(etas: list[float], vals: np.ndarray) -> tuple[float, float, bool]:
    """eta -> 0 limit from the last three points of a + b eta^beta.

    Returns (limit, error_estimate, divergent).  Degenerate increments
    (zero or mixed sign) fall back to the last value; increments that grow
    as eta shrinks admit no positive beta and flag the point divergent.
    """
    e1, e2, e3 = etas[-3], etas[-2], etas[-1]
    f1, f2, f3 = vals[-3], vals[-2], vals[-1]
    d12 = f1 - f2
    d23 = f2 - f3
    if d12 == 0.0 or d23 == 0.0 or (d12 > 0) != (d23 > 0):
        return f3, abs(d23), False
    ratio = d12 / d23

    def gap(beta: float) -> float:
        return (e1**beta - e2**beta) / (e2**beta - e3**beta) - ratio

    lo, hi = 1e-6, 12.0
    if gap(lo) >= 0.0:
        # ratio at or below the beta -> 0 limit: increments not shrinking
        return f3, abs(d23), True
    if gap(hi) <= 0.0:
        return f3, abs(d23), False
    beta = brentq(gap, lo, hi)
    b = d23 / (e2**beta - e3**beta)
    a = f3 - b * e3**beta
    return a, abs(a - f3), False


def rho_at_detailed(
    profile: VarianceProfile,
    e_val: float,
    eta_schedule=DEFAULT_ETA_SCHEDULE,
    opts: SolverOptions | None = None,
) -> PointDensity:
    """Density at one energy from a descent over the eta schedule.

    Solves at E + i*eta for each eta in turn, each solve warm-started by
    continuation_guess of the ones before it, records the raw values
    (1/(pi dim)) sum_k Im m_k and extrapolates them to eta -> 0.  Without
    opts the tolerance is suggested_tol at the smallest |E + i*eta|.
    """
    etas = _validate_schedule(eta_schedule)
    if opts is None:
        opts = SolverOptions(
            tol=suggested_tol(profile, math.hypot(e_val, etas[-1]))
        )
    ms: list[np.ndarray] = []
    for eta in etas:
        point = SpectralPoint(re=float(e_val), im=eta)
        ms.append(solve(profile, point, opts, warm_start=continuation_guess(ms)).m)
    raw = np.array([m.imag.sum() for m in ms]) / (math.pi * profile.dim)
    value, err, divergent = _extrapolate(etas, raw)
    return PointDensity(
        value=max(value, 0.0),
        raw=raw,
        eta_used=etas[-1],
        error_estimate=err,
        divergent=divergent,
    )


def rho_at(
    profile: VarianceProfile,
    e_val: float,
    eta_schedule=DEFAULT_ETA_SCHEDULE,
    opts: SolverOptions | None = None,
) -> float:
    """Extrapolated density at one energy (max of the fit and 0)."""
    return rho_at_detailed(profile, e_val, eta_schedule, opts).value


def default_energy_grid(profile: VarianceProfile) -> np.ndarray:
    """Symmetric grid: log-spaced into the divergence, linear to the edge.

    Log-spaced from 1e-5 to 0.05 at six points per decade to resolve the
    E = 0 divergence (its integrable head carries real mass), then linear
    steps of 0.05 out to the support bound, mirrored to negative energies.
    E = 0 itself is excluded.
    """
    e_max = support_bound(profile)
    decades = math.log10(_LINEAR_STEP / _LOG_FLOOR)
    n_log = int(round(_LOG_POINTS_PER_DECADE * decades)) + 1
    log_part = np.geomspace(_LOG_FLOOR, _LINEAR_STEP, n_log)[:-1]
    lin_part = np.arange(_LINEAR_STEP, e_max, _LINEAR_STEP)
    pos = np.concatenate([log_part, lin_part, [e_max]])
    return np.concatenate([-pos[::-1], pos])


def rho_grid(
    profile: VarianceProfile,
    e_grid,
    eta_schedule=DEFAULT_ETA_SCHEDULE,
    opts: SolverOptions | None = None,
) -> DensityProfile:
    """Density on a grid plus total mass over the full support window.

    The grid must be strictly increasing and avoid E = 0 exactly (the
    staircase density diverges there).  Mass is integrated by trapezoid
    over the union of the grid with a linear mesh reaching the support
    bound on both sides, so partial grids still report total mass.
    """
    grid = np.atleast_1d(np.asarray(e_grid, dtype=float))
    etas = tuple(_validate_schedule(eta_schedule))
    if grid.size == 0:
        empty = np.empty(0)
        return DensityProfile(
            energies=empty,
            rho=empty.copy(),
            eta_schedule=etas,
            total_mass=0.0,
            error_estimates=empty.copy(),
        )
    if not np.isfinite(grid).all():
        raise ValueError("energy grid must be finite")
    if (np.diff(grid) <= 0).any():
        raise ValueError("energy grid must be strictly increasing")
    if (grid == 0.0).any():
        raise ValueError("energy grid must exclude E = 0")

    e_max = support_bound(profile)
    lin = np.arange(_LINEAR_STEP, e_max, _LINEAR_STEP)
    mesh = np.union1d(
        grid, np.concatenate([-lin[::-1], lin, [-e_max, e_max]])
    )
    points = [rho_at_detailed(profile, float(e), etas, opts) for e in mesh]
    mesh_rho = np.array([pd.value for pd in points])
    mesh_err = np.array([pd.error_estimate for pd in points])
    on_grid = np.isin(mesh, grid)
    return DensityProfile(
        energies=grid,
        rho=mesh_rho[on_grid],
        eta_schedule=etas,
        total_mass=float(np.trapezoid(mesh_rho, mesh)),
        error_estimates=mesh_err[on_grid],
    )


@dataclass(frozen=True)
class DivergenceFit:
    """Power-law fit of rho near E = 0: rho ~ constant * |E|^exponent."""

    exponent: float
    constant: float
    window_energies: np.ndarray
    window_rho: np.ndarray

    def compensated(self, power: float) -> np.ndarray:
        """rho * |E|^power over the window; flat when power = -exponent."""
        return self.window_rho * np.abs(self.window_energies) ** power


def divergence_fit(dp: DensityProfile, window: tuple[float, float]) -> DivergenceFit:
    """Log-log fit of the density over |E| in [window_lo, window_hi].

    Both signs of E are pooled.  The window must sit inside
    (0, 0.1 * max|E|] of the profile's grid and contain at least 8 points
    with strictly positive density.
    """
    lo, hi = float(window[0]), float(window[1])
    e_cap = 0.1 * float(np.abs(dp.energies).max()) if dp.energies.size else 0.0
    if not 0.0 < lo < hi:
        raise ValueError(f"window must satisfy 0 < lo < hi, got ({lo}, {hi})")
    if hi > e_cap * (1.0 + 1e-12):
        raise ValueError(
            f"window upper edge {hi} exceeds 0.1 * grid bound = {e_cap:.6g}"
        )
    abs_e = np.abs(dp.energies)
    mask = (abs_e >= lo) & (abs_e <= hi)
    if mask.sum() < 8:
        raise ValueError(
            f"window holds {int(mask.sum())} grid points, need at least 8"
        )
    rho_w = dp.rho[mask]
    if (rho_w <= 0).any():
        raise ValueError("window contains non-positive density values")
    slope, intercept = np.polyfit(np.log(abs_e[mask]), np.log(rho_w), 1)
    return DivergenceFit(
        exponent=float(slope),
        constant=float(math.exp(intercept)),
        window_energies=dp.energies[mask],
        window_rho=rho_w,
    )

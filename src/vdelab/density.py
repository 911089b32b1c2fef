"""Self-consistent density of states and its divergence at E = 0.

rho(E) is the eta -> 0 limit of (1/(pi dim)) sum_k Im m_k(E + i eta).
Each energy runs a warm-started descent over an eta schedule and
extrapolates with the model a + b eta^beta through the last three
schedule points.  Those are geometric, so the fit is Aitken's delta^2
process on the last three values, in closed form for every energy at
once; when the increments grow instead of shrinking, or a positive
descent extrapolates below minus its last value, the point is flagged
divergent and the last raw value is reported.
rho_at_detailed descends one energy; _descend descends many in batched
chunks, for rho_grid's mesh and montecarlo's near-zero prediction.
The staircase profiles this package targets have an integrable power-law
divergence at E = 0, characterized by a log-log window fit rather than a
pointwise value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import VarianceProfile
from .solver import (
    SolverOptions, SpectralPoint, _solve_points, _stack_rows, continuation_guess,
    solve,
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
    """Density on an energy grid, per-point diagnostics and total mass.

    divergent marks the energies whose eta descent grew instead of
    settling; their rho is the last raw value, not an extrapolation.
    """

    energies: np.ndarray
    rho: np.ndarray
    eta_schedule: tuple[float, ...]
    total_mass: float
    error_estimates: np.ndarray
    divergent: np.ndarray  # bool, one per energy


@dataclass(frozen=True)
class PointDensity:
    """One extrapolated density value with its eta descent diagnostics."""

    value: float
    raw: np.ndarray
    error_estimate: float
    divergent: bool


def _validate_schedule(eta_schedule) -> list[float]:
    etas = [float(v) for v in eta_schedule]
    if len(etas) < 3:
        raise ValueError("eta schedule needs at least 3 values")
    if any(not 0 < v < math.inf for v in etas):
        raise ValueError("eta schedule must be positive and finite")
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("eta schedule must be strictly descending")
    if math.log10(etas[0] / etas[-1]) < 2.0 - 1e-9:
        raise ValueError("eta schedule must span at least 2 decades")
    if abs(etas[-3] / etas[-2] / (etas[-2] / etas[-1]) - 1.0) > 1e-9:
        raise ValueError("the last 3 eta schedule values must be geometric")
    return etas


def _extrapolate(etas: list[float], raw: np.ndarray):
    """eta -> 0 limits of the (P, len(etas)) descents raw from a + b eta^beta.

    Returns the limits, error estimates and divergent flags of the rows.
    On the geometric last three etas, with q their ratio, the increments
    d12, d23 of the last three values fit q^beta = d12 / d23, and the limit
    is Aitken's f3 - d23^2 / (d12 - d23).  Degenerate increments (zero or
    mixed sign) and a beta of 12 or more keep the last value; increments
    that shrink slower than beta = 1e-6 allows flag the row divergent, and
    so does a row of positive values whose fit lies below minus its last
    value, keeping that last value.
    """
    q = etas[-2] / etas[-1]
    f2, f3 = raw[:, -2], raw[:, -1]
    d12, d23 = raw[:, -3] - f2, f2 - f3
    limit, err = f3.copy(), np.abs(d23)
    rows = np.flatnonzero((d12 != 0.0) & (d23 != 0.0) & ((d12 > 0) == (d23 > 0)))
    ratio = d12[rows] / d23[rows]
    divergent = np.zeros(len(raw), dtype=bool)
    divergent[rows] = ratio <= q**1e-6
    rows = rows[~divergent[rows] & (ratio < q**12)]
    fit = f3[rows] - d23[rows] ** 2 / (d12[rows] - d23[rows])
    # a positive descent whose fit lies further below zero than its last
    # value lies above it has increments that barely shrink (beta near 0),
    # so flag it like a growing one; outside the support raw ~ eta and the
    # fit misses 0 by under 1% of the last value
    crossed = (fit < -f3[rows]) & (raw[rows] > 0.0).all(axis=1)
    divergent[rows[crossed]] = True
    rows, fit = rows[~crossed], fit[~crossed]
    limit[rows] = fit
    err[rows] = np.abs(fit - f3[rows])
    return limit, err, divergent


def rho_at_detailed(
    profile: VarianceProfile,
    e_val: float,
    eta_schedule=DEFAULT_ETA_SCHEDULE,
    opts: SolverOptions | None = None,
) -> PointDensity:
    """Density at one energy from a descent over the eta schedule.

    Solves at E + i*eta for each eta in turn, each solve warm-started by
    continuation_guess of the ones before it, records the raw values
    (1/(pi dim)) sum_k Im m_k and extrapolates them to eta -> 0.  Each
    solve stops on its relative backward error at opts.tol, as in solve.
    """
    etas = _validate_schedule(eta_schedule)
    ms: list[np.ndarray] = []
    for eta in etas:
        point = SpectralPoint(re=float(e_val), im=eta)
        ms.append(solve(profile, point, opts, warm_start=continuation_guess(ms)).m)
    raw = np.array([m.imag.sum() for m in ms]) / (math.pi * profile.dim)
    (value,), (err,), (divergent,) = _extrapolate(etas, raw[None])
    return PointDensity(value=max(float(value), 0.0), raw=raw,
                        error_estimate=float(err), divergent=bool(divergent))


def _descend(
    profile: VarianceProfile,
    energies: np.ndarray,
    etas: list[float] | tuple[float, ...],
    opts: SolverOptions | None = None,
):
    """rho_at_detailed's descent of every energy at once, bit for bit.

    The energies go in chunks of _stack_rows(profile), each chunk through
    every eta level in one batched solve, warm-started by
    continuation_guess of the chunk's levels before it; each solve stops
    on its relative backward error at opts.tol.  etas must be a validated
    schedule.  Returns _extrapolate's limits, error estimates and
    divergent flags, one per energy.  A failure raises at the first
    chunk, then eta level, where one occurs and names an energy that
    failed there, not always the lowest failing.
    """
    tol = (opts or SolverOptions()).tol
    raw = np.empty((len(energies), len(etas)))
    size = _stack_rows(profile)
    for i in range(0, len(energies), size):
        e, ms = energies[i:i + size], []
        for j, eta in enumerate(etas):
            m = _solve_points(profile, e + 1j * eta, tol, continuation_guess(ms))[0]
            ms = [*ms[-1:], m]
            raw[i:i + size, j] = m.imag.sum(axis=1) / (math.pi * profile.dim)
    return _extrapolate(etas, raw)


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

    The grid must be non-empty, strictly increasing and avoid E = 0 (the
    staircase density diverges there).  Mass is integrated by trapezoid
    over the union of the grid with a linear mesh reaching the support
    bound on both sides, so partial grids still report total mass.  The
    mesh is descended in batched chunks by _descend, each energy's value
    rho_at's bit for bit; _descend says where a failure raises.
    """
    grid = np.atleast_1d(np.asarray(e_grid, dtype=float))
    etas = tuple(_validate_schedule(eta_schedule))
    if grid.size == 0:
        raise ValueError("energy grid must not be empty")
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
    value, err, divergent = _descend(profile, mesh, etas, opts)
    rho = np.where(value < 0.0, 0.0, value)  # rho_at_detailed's max(value, 0.0)
    on_grid = np.isin(mesh, grid)
    return DensityProfile(
        energies=grid,
        rho=rho[on_grid],
        eta_schedule=etas,
        total_mass=float(np.trapezoid(rho, mesh)),
        error_estimates=err[on_grid],
        divergent=divergent[on_grid],
    )


@dataclass(frozen=True)
class DivergenceFit:
    """Power-law fit of rho near E = 0: rho ~ constant * |E|^exponent."""

    exponent: float
    constant: float


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
    return DivergenceFit(exponent=float(slope), constant=float(math.exp(intercept)))

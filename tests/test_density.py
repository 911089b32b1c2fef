"""Density extrapolation against the semicircle law and divergence fitting."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import semicircle_rho
from vdelab import (
    DEFAULT_ETA_SCHEDULE,
    DEFAULT_FIT_WINDOW,
    DensityProfile,
    SolverError,
    SolverOptions,
    VarianceProfile,
    default_energy_grid,
    divergence_fit,
    expand_profile,
    random_staircase_profile,
    rho_at,
    rho_at_detailed,
    rho_grid,
    staircase_profile,
    support_bound,
)
from vdelab import density, solver
from vdelab.density import _LINEAR_STEP, _extrapolate

RHO_AT_ZERO = 0.3183098861837907  # 1 / pi
NON_GEOMETRIC = (3e-2, 1e-2, 2e-3, 7e-4, 5e-5, 1e-5)


def test_default_schedule_shape():
    assert len(DEFAULT_ETA_SCHEDULE) == 5
    assert DEFAULT_ETA_SCHEDULE[0] == pytest.approx(1e-2)
    assert DEFAULT_ETA_SCHEDULE[-1] == pytest.approx(1e-6)
    assert all(b < a for a, b in zip(DEFAULT_ETA_SCHEDULE, DEFAULT_ETA_SCHEDULE[1:]))


def test_semicircle_density_values():
    prof = staircase_profile(1)
    assert abs(rho_at(prof, 0.0) - RHO_AT_ZERO) < 1e-9
    assert abs(rho_at(prof, 1.0) - semicircle_rho(1.0)) < 1e-6
    assert rho_at(prof, 3.0) <= 1e-9  # outside the support


def test_point_density_diagnostics():
    pd = rho_at_detailed(staircase_profile(1), 0.5)
    assert pd.raw.shape == (len(DEFAULT_ETA_SCHEDULE),)
    assert not pd.divergent
    assert pd.error_estimate >= 0.0
    assert pd.value >= 0.0


def test_density_is_even():
    prof = staircase_profile(2)
    assert rho_at(prof, 0.3) == pytest.approx(rho_at(prof, -0.3), abs=1e-8)


def test_divergence_flag_at_zero():
    # rho ~ |E|^-(n-1)/(n+1) for n >= 2, so the eta descent at E = 0 grows
    for n in (2, 3):
        pd = rho_at_detailed(staircase_profile(n), 0.0)
        assert pd.divergent
        assert pd.value > 1.0


def test_schedule_validation():
    prof = staircase_profile(1)
    with pytest.raises(ValueError, match="at least 3"):
        rho_at(prof, 0.5, eta_schedule=(1e-2, 1e-4))
    with pytest.raises(ValueError, match="descending"):
        rho_at(prof, 0.5, eta_schedule=(1e-4, 1e-3, 1e-2))
    with pytest.raises(ValueError, match="2 decades"):
        rho_at(prof, 0.5, eta_schedule=(1e-2, 5e-3, 2e-3))
    with pytest.raises(ValueError, match="positive"):
        rho_at(prof, 0.5, eta_schedule=(1e-2, 1e-3, 0.0))
    for top in (math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            rho_at(prof, 0.5, eta_schedule=(top, 1.0, 0.1, 0.01))
    # the extrapolation reads the last three etas as a geometric sequence
    for etas in (NON_GEOMETRIC, (1e-1, 1e-3, 1e-4, 2e-6)):
        with pytest.raises(ValueError, match="geometric"):
            rho_at(prof, 0.5, eta_schedule=etas)
    assert rho_at(prof, 0.5, eta_schedule=(1e-1, 1e-3, 1e-4, 1e-5)) > 0.0


def test_support_bound():
    assert support_bound(staircase_profile(1)) == pytest.approx(2.5)
    assert support_bound(staircase_profile(3)) == pytest.approx(
        2.0 * math.sqrt(3.0) + 0.5
    )


def test_default_energy_grid_layout():
    grid = default_energy_grid(staircase_profile(2))
    assert (grid == -grid[::-1]).all()
    assert (grid != 0.0).all()
    assert (np.diff(grid) > 0).all()
    assert grid[-1] == pytest.approx(support_bound(staircase_profile(2)))
    # the divergence window must hold enough points for the power-law fit
    lo, hi = DEFAULT_FIT_WINDOW
    inside = (np.abs(grid) >= lo) & (np.abs(grid) <= hi)
    assert inside.sum() >= 8


def test_rho_grid_empty():
    # an input error, as a lin: count below 1 is on the command line
    with pytest.raises(ValueError, match="empty"):
        rho_grid(staircase_profile(1), [])


def test_rho_grid_validation():
    prof = staircase_profile(1)
    with pytest.raises(ValueError, match="exclude"):
        rho_grid(prof, [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        rho_grid(prof, [1.0, 0.5])
    with pytest.raises(ValueError, match="finite"):
        rho_grid(prof, [1.0, np.inf])


def test_rho_grid_keeps_divergent_flags():
    # the n = 4 eta descent at E = +-6.929e-5 grows instead of settling
    prof = staircase_profile(4)
    dp = rho_grid(prof, default_energy_grid(prof))
    assert dp.divergent.dtype == bool
    assert dp.divergent.shape == dp.energies.shape
    flagged = dp.energies[dp.divergent]
    assert flagged == pytest.approx([-6.929e-5, 6.929e-5], rel=1e-3)


def test_positive_descent_never_extrapolates_below_zero():
    # stair6 at E = 6.929e-5 reported rho 0.0 with error 52.8, unflagged,
    # between neighbours of 17.7 and 32.5
    pd = rho_at_detailed(staircase_profile(6), 6.929e-5)
    assert (pd.raw > 0.0).all()
    assert pd.divergent
    assert pd.value == pd.raw[-1]
    assert pd.error_estimate == abs(pd.raw[-2] - pd.raw[-1])


def test_rho_grid_semicircle_mass_and_values():
    # sparse request grid; the mass integral runs over the union with a
    # linear mesh out to the support bound, so it still covers [-2, 2]
    prof = staircase_profile(1)
    grid = np.array([-1.0, -0.5, 0.5, 1.0])
    dp = rho_grid(prof, grid)
    assert dp.total_mass == pytest.approx(1.0, abs=5e-3)
    for e_val, got in zip(dp.energies, dp.rho):
        assert got == pytest.approx(semicircle_rho(e_val), abs=1e-6)
    assert dp.error_estimates.shape == grid.shape
    assert not dp.divergent.any()


def _mesh(prof, grid):
    # rho_grid's mesh: the grid and a linear mesh out to the support bound
    e_max = support_bound(prof)
    lin = np.arange(_LINEAR_STEP, e_max, _LINEAR_STEP)
    return np.union1d(grid, np.concatenate([-lin[::-1], lin, [-e_max, e_max]]))


def _pointwise_grid(prof, grid, opts=None):
    # rho_grid's fields from one rho_at_detailed per mesh energy plus a trapezoid
    mesh = _mesh(prof, grid)
    points = [rho_at_detailed(prof, float(e), opts=opts) for e in mesh]
    on_grid = np.isin(mesh, grid)
    rho = np.array([pd.value for pd in points])
    err = np.array([pd.error_estimate for pd in points])
    divergent = np.array([pd.divergent for pd in points])
    return rho[on_grid], err[on_grid], divergent[on_grid], np.trapezoid(rho, mesh)


@pytest.mark.parametrize(
    "prof, opts, ulps",
    [
        (staircase_profile(2), None, 0),
        (staircase_profile(4), None, 0),  # holds divergent points
        (random_staircase_profile(5, 0), None, 0),
        (staircase_profile(3), SolverOptions(tol=1e-10), 0),
        # dim 1: numpy rounds the one-element Jacobian product of a lone
        # point without the fused arithmetic of its vector loop, so the
        # batch agrees with the lone descents to 2 ulps of the largest rho
        (staircase_profile(1), None, 2),
    ],
)
def test_rho_grid_matches_pointwise_descent(prof, opts, ulps):
    grid = default_energy_grid(prof)
    rho, err, divergent, mass = _pointwise_grid(prof, grid, opts)
    dp = rho_grid(prof, grid, opts=opts)
    bound = ulps * np.spacing(rho.max())
    assert (np.abs(dp.rho - rho) <= bound).all()
    assert (np.abs(dp.error_estimates - err) <= bound).all()
    assert (dp.divergent == divergent).all()
    assert abs(dp.total_mass - mass) <= ulps * np.spacing(mass)


def test_rho_grid_slices_match_pointwise_descent(monkeypatch):
    # a mesh whose stacked Jacobians pass the solver's byte budget
    # descends in chunks, the last one a single energy here; rows are
    # independent, so the result stays bit for bit the pointwise one.  The
    # grid is the whole mesh, so every row is compared.
    prof = expand_profile(staircase_profile(2), 3, noise=0.5, seed=1)
    grid = _mesh(prof, [-0.42, -0.13, -0.01, 0.02, 0.17, 0.33, 0.44])
    want = _pointwise_grid(prof, grid)
    rows = next(k for k in range(2, grid.size) if grid.size % k == 1)
    monkeypatch.setattr(solver, "_STACK_BYTES", 16 * prof.dim**2 * rows)
    dp = rho_grid(prof, grid)
    got = (dp.rho, dp.error_estimates, dp.divergent, dp.total_mass)
    assert all((np.asarray(g) == w).all() for g, w in zip(got, want))


def test_rho_grid_gmres_slices_hold_several_energies(monkeypatch):
    # on the Krylov path a row of a chunk costs its two GCR bases, not a dense
    # Jacobian, so a budget of a few bases gives chunks of a few energies,
    # each chunk one lock-step batch per eta level
    prof = expand_profile(staircase_profile(3), 48, noise=0.5, seed=5)
    assert solver._krylov(prof)
    grid, etas = [-0.42, -0.13, -0.01, 0.02, 0.17, 0.33, 0.44], (1e-1, 1e-2, 1e-3)
    tol = 1e-12  # suggested_tol on every mesh energy of this schedule
    want = rho_grid(prof, grid, etas)
    size = _mesh(prof, grid).size
    rows = next(k for k in range(3, size) if size % k != 1)
    row_bytes = 16 * 2 * solver._KRYLOV_MAX_ITER * prof.dim
    monkeypatch.setattr(solver, "_STACK_BYTES", rows * row_bytes)
    slices = _record_solve_points(monkeypatch)
    got = rho_grid(prof, grid, etas)
    assert len(slices) == len(etas) * -(-size // rows) and min(slices) > 1
    assert max(slices) == rows
    assert (np.abs(got.rho - want.rho) <= 10 * tol * want.rho).all()
    assert abs(got.total_mass - want.total_mass) <= 10 * tol * want.total_mass


def _record_solve_points(monkeypatch):
    # the batch size of every _solve_points call rho_grid makes
    sizes = []
    solve_points = density._solve_points

    def recorded(profile, z, tol, m):
        sizes.append(len(z))
        return solve_points(profile, z, tol, m)

    monkeypatch.setattr(density, "_solve_points", recorded)
    return sizes


def test_rho_grid_memory_does_not_grow_with_the_mesh(monkeypatch):
    # each chunk of the mesh descends through every eta level on its own,
    # so no array of rho_grid spans the whole mesh times dim.  The profile
    # is stair3 scaled by 1/100 (support bound 0.85), so the linear mesh is
    # short and the grid, outside the support where the solves are quick,
    # sets the mesh size: 86 energies against 436.
    small = VarianceProfile(staircase_profile(3).entries / 100.0)
    prof = expand_profile(small, 48, noise=0.5, seed=5)
    assert solver._krylov(prof)
    row_bytes = 16 * 2 * solver._KRYLOV_MAX_ITER * prof.dim
    monkeypatch.setattr(solver, "_STACK_BYTES", 16 * row_bytes)
    etas = (1e-1, 1e-2, 1e-3)
    rho_grid(prof, [0.5], etas)  # caches the block means outside the peaks
    sizes = _record_solve_points(monkeypatch)
    peaks = []
    for count in (50, 400):
        tracemalloc.start()
        try:
            rho_grid(prof, np.linspace(1.0, 5.0, count), etas)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
    assert max(sizes) == solver._stack_rows(prof) == 16


def test_rho_grid_failure_names_the_energy():
    prof = staircase_profile(2)
    unreachable = SolverOptions(tol=1e-18)
    with pytest.raises(SolverError, match=r"at z = \(") as info:
        rho_grid(prof, [-0.3, 0.3], opts=unreachable)
    z = complex(str(info.value).split("at z = ")[1].split(")")[0] + ")")
    assert repr(z.real) in str(info.value)
    # the named energy fails on its own as well
    with pytest.raises(SolverError):
        rho_at_detailed(prof, z.real, opts=unreachable)


def _one_extrapolation(etas, vals):
    # the scalar rule of the eta extrapolation, beta from scipy's brentq
    # run far below its default xtol of 2e-12
    from scipy.optimize import brentq

    e1, e2, e3 = etas[-3:]
    f1, f2, f3 = vals[-3:]
    d12, d23 = f1 - f2, f2 - f3
    if d12 == 0.0 or d23 == 0.0 or (d12 > 0) != (d23 > 0):
        return f3, abs(d23), False

    def gap(beta):
        return (e1**beta - e2**beta) / (e2**beta - e3**beta) - d12 / d23

    if gap(1e-6) >= 0.0:
        return f3, abs(d23), True
    if gap(12.0) <= 0.0:
        return f3, abs(d23), False
    beta = brentq(gap, 1e-6, 12.0, xtol=1e-15)
    a = f3 - d23 / (e2**beta - e3**beta) * e3**beta
    if a < -f3 and min(vals) > 0.0:
        return f3, abs(d23), True
    return a, abs(a - f3), False


@pytest.mark.parametrize(
    "etas, unit",
    [
        (DEFAULT_ETA_SCHEDULE, 1.0),
        # eta^12 underflows; b is set per unit of 1e-28 to keep the rows apart
        (tuple(1e-28 * e for e in DEFAULT_ETA_SCHEDULE), 1e-28),
    ],
)
def test_extrapolate_recovers_exact_power_laws(etas, unit):
    rng = np.random.default_rng(5)
    a = rng.uniform(-2.0, 2.0, 200)
    b = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-2, 2, 200)
    beta = rng.uniform(0.1, 3.0, 200)
    raw = a[:, None] + b[:, None] * (np.array(etas) / unit) ** beta[:, None]
    limit, err, divergent = _extrapolate(list(etas), raw)
    # a positive descent is not fitted to a limit below minus its last value
    crossed = (a < -raw[:, -1]) & (raw > 0.0).all(axis=1)
    assert (divergent == crossed).all()
    assert (limit[crossed] == raw[crossed, -1]).all()
    assert np.abs(limit - a)[~crossed].max() <= 1e-12
    assert (err[~crossed] == np.abs(limit - raw[:, -1])[~crossed]).all()


BRANCH_ROWS = [
    ([0.3, 0.2, 0.2, 0.1, 0.1], (0.1, 0.0, False)),  # zero increment
    ([0.3, 0.2, 1.0, 2.0, 1.5], (1.5, 0.5, False)),  # mixed sign
    ([0.3, 0.2, 1.0, 2.0, 4.0], (4.0, 2.0, True)),  # growing increments
    # shrinking by 2**44 per decade: beta would be 13.2, above the bracket
    ([0.3, 0.2, 2.0, 1.0, 1.0 - 2.0**-44], (1.0 - 2.0**-44, 2.0**-44, False)),
    # the staircase_profile(6) descent at E = +-6.929e-5: beta 0.031 fits a
    # limit of -28.5 to positive values
    ([1.84, 8.33, 32.36, 28.18, 24.30], (24.30, 28.18 - 24.30, True)),
]


@pytest.mark.parametrize("row, want", BRANCH_ROWS)
def test_extrapolate_branches(row, want):
    limit, err, divergent = _extrapolate(list(DEFAULT_ETA_SCHEDULE), np.array([row]))
    assert (limit[0], err[0], divergent[0]) == want
    assert _one_extrapolation(DEFAULT_ETA_SCHEDULE, row) == want


def test_extrapolate_rows_match_the_scalar_rule_and_stand_alone():
    # random descents mixing every branch; a row gives the same bits alone
    # as inside the batch
    rng = np.random.default_rng(7)
    raw = np.cumsum(rng.normal(size=(300, 5)) * 10.0 ** rng.uniform(-3, 0, (300, 1)), axis=1)
    raw[:20, -1] = raw[:20, -2]
    raw = np.concatenate([raw, np.array([row for row, _ in BRANCH_ROWS])])
    etas = list(DEFAULT_ETA_SCHEDULE)
    limit, err, divergent = _extrapolate(etas, raw)
    for i, row in enumerate(raw):
        alone = _extrapolate(etas, row[None])
        assert (alone[0][0], alone[1][0], alone[2][0]) == (limit[i], err[i], divergent[i])
        a, e, flag = _one_extrapolation(etas, row)
        assert divergent[i] == flag
        assert limit[i] == pytest.approx(a, rel=1e-12, abs=1e-15)
        assert err[i] == pytest.approx(e, rel=1e-12, abs=1e-15)
    assert divergent.any() and (limit != raw[:, -1]).any() and (err == 0.0).any()


def test_divergence_fit_recovers_synthetic_power_law():
    pos = np.geomspace(1e-4, 0.05, 25)
    energies = np.concatenate([-pos[::-1], pos])
    rho = 0.7 * np.abs(energies) ** (-1.0 / 3.0)
    dp = DensityProfile(
        energies=energies,
        rho=rho,
        eta_schedule=tuple(DEFAULT_ETA_SCHEDULE),
        total_mass=0.0,
        error_estimates=np.zeros_like(rho),
        divergent=np.zeros(rho.shape, dtype=bool),
    )
    fit = divergence_fit(dp, DEFAULT_FIT_WINDOW)
    assert fit.exponent == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert fit.constant == pytest.approx(0.7, rel=1e-12)


def test_divergence_fit_validation():
    pos = np.geomspace(1e-3, 2.0, 30)
    energies = np.concatenate([-pos[::-1], pos])
    rho = np.abs(energies) ** (-0.5)
    dp = DensityProfile(
        energies=energies,
        rho=rho,
        eta_schedule=tuple(DEFAULT_ETA_SCHEDULE),
        total_mass=0.0,
        error_estimates=np.zeros_like(rho),
        divergent=np.zeros(rho.shape, dtype=bool),
    )
    with pytest.raises(ValueError, match="exceeds"):
        divergence_fit(dp, (1e-2, 0.5))  # above 0.1 * max|E|
    with pytest.raises(ValueError, match="0 < lo < hi"):
        divergence_fit(dp, (1e-2, 1e-3))
    with pytest.raises(ValueError, match="at least 8"):
        divergence_fit(dp, (1e-3, 1.5e-3))
    bad = DensityProfile(
        energies=energies,
        rho=np.zeros_like(rho),
        eta_schedule=tuple(DEFAULT_ETA_SCHEDULE),
        total_mass=0.0,
        error_estimates=np.zeros_like(rho),
        divergent=np.zeros(rho.shape, dtype=bool),
    )
    with pytest.raises(ValueError, match="non-positive"):
        divergence_fit(bad, (1e-3, 0.19))

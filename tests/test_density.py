"""Density extrapolation against the semicircle law and divergence fitting."""

import math

import numpy as np
import pytest

from oracles import semicircle_rho
from vdelab import (
    DEFAULT_ETA_SCHEDULE,
    DEFAULT_FIT_WINDOW,
    DensityProfile,
    default_energy_grid,
    divergence_fit,
    rho_at,
    rho_at_detailed,
    rho_grid,
    staircase_profile,
    support_bound,
)

RHO_AT_ZERO = 0.3183098861837907  # 1 / pi


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
    assert pd.eta_used == DEFAULT_ETA_SCHEDULE[-1]
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
    dp = rho_grid(staircase_profile(1), [])
    assert dp.energies.size == 0
    assert dp.total_mass == 0.0


def test_rho_grid_validation():
    prof = staircase_profile(1)
    with pytest.raises(ValueError, match="exclude"):
        rho_grid(prof, [-1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="increasing"):
        rho_grid(prof, [1.0, 0.5])
    with pytest.raises(ValueError, match="finite"):
        rho_grid(prof, [1.0, np.inf])


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
    )
    fit = divergence_fit(dp, DEFAULT_FIT_WINDOW)
    assert fit.exponent == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert fit.constant == pytest.approx(0.7, rel=1e-12)
    flat = fit.compensated(1.0 / 3.0)
    assert np.max(np.abs(flat - 0.7)) < 1e-12


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
    )
    with pytest.raises(ValueError, match="non-positive"):
        divergence_fit(bad, (1e-3, 0.19))

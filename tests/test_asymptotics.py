"""Limiting constants, power-law fits, algebraic relations, reduction, sweep."""

import math

import numpy as np
import pytest

from vdelab import (
    ProfileError,
    SolverOptions,
    SpectralPoint,
    VarianceProfile,
    constant_system,
    constant_system_residuals,
    expand_profile,
    fit_exponents,
    limit_constants,
    pair_product_check,
    predicted_exponent,
    predicted_phase,
    random_staircase_profile,
    solve,
    solve_path,
    staircase_profile,
    suggested_tol,
    uniform_bound_sweep,
    vde_like_reduce,
)

# 4^(-1/3) and 4^(1/3): the hand-solved constants for S = [[4, 1], [1, 0]]
C1_ASYM = 0.6299605249474366
C2_ASYM = 1.5874010519681994


def ones_path(n, r_min=1e-6, count=26, ray=math.pi / 2):
    radii = np.geomspace(1e-1, r_min, count)
    return solve_path(staircase_profile(n), ray, radii)


# ----------------------------------------------------- predicted singularity


def test_predicted_exponents_and_phases():
    assert [predicted_exponent(k, 3) for k in (1, 2, 3)] == [0.5, 0.0, -0.5]
    assert predicted_phase(1, 3) == pytest.approx(math.pi / 4)
    assert predicted_phase(2, 3) == pytest.approx(math.pi / 2)
    assert predicted_phase(3, 3) == pytest.approx(3 * math.pi / 4)
    # exponents are antisymmetric under k -> n+1-k, phases sum to pi
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert predicted_exponent(k, n) == pytest.approx(
                -predicted_exponent(n + 1 - k, n)
            )
            assert predicted_phase(k, n) + predicted_phase(n + 1 - k, n) == (
                pytest.approx(math.pi)
            )


# ----------------------------------------------------------------- constants


def test_limit_constants_hand_solved_two_dim():
    prof = VarianceProfile(np.array([[4.0, 1.0], [1.0, 0.0]]))
    c = limit_constants(prof)
    assert c[0] == pytest.approx(C1_ASYM, abs=1e-14)
    assert c[1] == pytest.approx(C2_ASYM, abs=1e-14)


def test_limit_constants_scalar_and_all_ones():
    assert limit_constants(VarianceProfile(np.array([[4.0]])))[0] == (
        pytest.approx(0.5, abs=1e-15)
    )
    for n in range(1, 7):
        assert np.max(np.abs(limit_constants(staircase_profile(n)) - 1.0)) < 1e-14


def test_constant_system_shape_and_condition():
    for n in range(1, 9):
        system = constant_system(random_staircase_profile(n, seed=n))
        assert system.coefficient_matrix.shape == (n, n)
        assert system.condition_number == np.linalg.cond(system.coefficient_matrix)
        assert system.condition_number < 1e8


def test_constants_scaling_covariance():
    # rescaling S -> lambda^2 S shifts each log-constant by a known amount:
    # c_k(lambda^2 S) = lambda^(-2(n+1-k)/(n+1)) c_k(S)
    lam = 2.0
    for n in range(1, 6):
        prof = random_staircase_profile(n, seed=n + 17)
        scaled = VarianceProfile(lam**2 * prof.entries)
        c = limit_constants(prof)
        c_scaled = limit_constants(scaled)
        factor = lam ** (-2.0 * (n + 1 - np.arange(1, n + 1)) / (n + 1))
        assert np.max(np.abs(c_scaled / (factor * c) - 1.0)) < 1e-10


def test_constant_relations_random_staircases():
    for seed in range(20):
        n = seed % 6 + 1
        prof = random_staircase_profile(n, seed=seed)
        c = limit_constants(prof)
        assert constant_system_residuals(prof, c) <= 1e-12


def test_constant_system_rejects_non_staircase():
    with pytest.raises(ProfileError):
        constant_system(VarianceProfile(np.ones((3, 3))))


# ----------------------------------------------------------------- ray fits


def test_fit_exponents_all_ones_two_dim():
    path = ones_path(2)
    fits = fit_exponents(path)
    assert [f.component for f in fits] == [1, 2]
    for f in fits:
        assert abs(f.measured_exponent - f.predicted_exponent) < 0.01
        assert abs(f.measured_phase - f.predicted_phase) < 0.02
        assert abs(f.measured_constant / f.predicted_constant - 1.0) < 0.02
        assert f.predicted_constant == 1.0


def test_fit_constants_against_hand_solved_values():
    prof = VarianceProfile(np.array([[4.0, 1.0], [1.0, 0.0]]))
    radii = np.geomspace(1e-1, 1e-6, 26)
    path = solve_path(prof, math.pi / 2, radii, SolverOptions(tol=1e-12))
    fits = fit_exponents(path)
    assert abs(fits[0].measured_constant / C1_ASYM - 1.0) < 0.02
    assert abs(fits[1].measured_constant / C2_ASYM - 1.0) < 0.02


def test_fit_rejects_short_or_broken_paths():
    path = ones_path(2, r_min=1e-3, count=9)  # only 2 decades
    with pytest.raises(ValueError, match="4 decades"):
        fit_exponents(path)
    with pytest.raises(ValueError, match="empty"):
        fit_exponents([])
    path5 = ones_path(2)
    with pytest.raises(ValueError, match="descending"):
        fit_exponents(list(reversed(path5)))
    with pytest.raises(ValueError, match="single ray"):
        prof = path5[0].profile
        mixed = [
            solve(prof, SpectralPoint(re=0.0, im=1e-1)),
            solve(prof, SpectralPoint(re=1e-2, im=1e-2)),
        ]
        fit_exponents(mixed)
    # an equal copy of the profile is another profile: the path's points
    # must all carry the one profile their constants are read from
    copy = staircase_profile(2)
    tail = solve_path(copy, math.pi / 2, [abs(sol.point.z) for sol in path5[-2:]])
    with pytest.raises(ValueError, match="one profile"):
        fit_exponents(path5[:-2] + tail)


# --------------------------------------------------------- algebraic limits


def test_pair_products_three_dim():
    path = ones_path(3)
    checks = pair_product_check(path)
    assert [c.k for c in checks] == [1, 2, 3]
    for c in checks:
        assert c.expected == -1.0
        assert c.relative_error < 0.02
    full = VarianceProfile(np.ones((3, 3)))
    with pytest.raises(ProfileError):
        pair_product_check(solve_path(full, math.pi / 2, [1e-1, 1e-2]))


def test_pair_products_respect_profile_entries():
    prof = random_staircase_profile(3, seed=44)
    radii = np.geomspace(1e-1, 1e-6, 26)
    path = solve_path(prof, math.pi / 2, radii, SolverOptions(tol=1e-11))
    for c in pair_product_check(path):
        assert c.expected == -1.0 / prof.entries[c.k - 1, 3 - c.k]
        assert c.relative_error < 0.02


def test_zm_does_not_vanish_for_rank_deficient_profile():
    # with S = [[1, 0], [0, 0]] the second component solves -1/m_2 = z, so
    # z m_2 stays at -1 along the ray instead of decaying
    prof = VarianceProfile(np.array([[1.0, 0.0], [0.0, 0.0]]))
    path = solve_path(prof, math.pi / 2, np.geomspace(1e-1, 1e-8, 29))
    for sol in path:
        assert sol.point.z * sol.m[1] == pytest.approx(-1.0, abs=1e-9)


# ----------------------------------------------------------------- reduction


def test_reduce_constant_blocks_recovers_small_system():
    big = expand_profile(staircase_profile(2), 4)
    sol = solve(big, SpectralPoint(re=0.0, im=0.01), SolverOptions(tol=1e-13))
    omega, s_hat, diag = vde_like_reduce(sol)
    assert np.max(np.abs(omega - 1.0)) < 1e-14
    assert (s_hat == staircase_profile(2).entries).all()
    assert diag.residual <= 100.0 * 1e-13
    assert diag.zero_pattern_matches
    assert diag.max_abs_arg_s == 0.0
    assert diag.max_abs_arg_omega == 0.0


def test_reduce_noisy_blocks():
    big = expand_profile(staircase_profile(2), 8, noise=0.5, seed=1)
    radii = np.geomspace(1e-1, 1e-5, 17)
    tol = suggested_tol(big, radii[-1])  # the budget's scale
    path = solve_path(big, math.pi / 2, radii)
    omega, s_hat, diag = vde_like_reduce(path[-1])
    assert omega.shape == (2,) and s_hat.shape == (2, 2)
    assert diag.residual <= 100.0 * tol
    assert diag.zero_pattern_matches
    assert (s_hat[0, 1] == s_hat[1, 0]).all()
    assert diag.max_abs_arg_s < 0.05
    assert diag.max_abs_arg_omega < 0.05
    assert 0.0 < diag.abs_s_min <= diag.abs_s_max
    assert 0.5 < diag.abs_omega_min <= diag.abs_omega_max < 2.0


def test_reduce_requires_block_metadata():
    sol = solve(staircase_profile(2), SpectralPoint(re=0.0, im=0.1))
    with pytest.raises(ProfileError, match="metadata"):
        vde_like_reduce(sol)


# --------------------------------------------------------------------- sweep


def test_sweep_noise_zero_is_n_independent():
    radii = np.geomspace(1e-1, 1e-4, 13)
    result = uniform_bound_sweep(
        staircase_profile(2), [2, 4], noise=0.0, seed=0,
        ray_angle=math.pi / 2, radii=radii,
    )
    assert [row.inner for row in result.rows] == [2, 4]
    # constant blocks degenerate to the small system: both rows identical
    assert result.rows[0].min_modulus == pytest.approx(
        result.rows[1].min_modulus, rel=1e-9
    )
    assert result.rows[0].max_modulus == pytest.approx(
        result.rows[1].max_modulus, rel=1e-9
    )
    assert result.spread_factor < 1.05
    assert all(row.max_phase_deviation < 0.01 for row in result.rows)


def test_sweep_requires_inner_sizes():
    with pytest.raises(ValueError):
        uniform_bound_sweep(
            staircase_profile(2), [], noise=0.0, seed=0,
            ray_angle=math.pi / 2, radii=[1e-1, 1e-2],
        )
    with pytest.raises(ValueError, match="radius"):
        uniform_bound_sweep(
            staircase_profile(2), [2], noise=0.0, seed=0,
            ray_angle=math.pi / 2, radii=[],
        )
    # int() would sweep N = 2 for 2.7 and N = 1 for True, a row for an
    # inner size nobody asked for
    for inner in ([2.7], [True], [2, np.bool_(True)]):
        with pytest.raises(ProfileError, match="inner sizes must be integers"):
            uniform_bound_sweep(
                staircase_profile(2), inner, noise=0.0, seed=0,
                ray_angle=math.pi / 2, radii=[1e-1, 1e-2],
            )
    result = uniform_bound_sweep(
        staircase_profile(2), np.array([2, 3]), noise=0.0, seed=0,
        ray_angle=math.pi / 2, radii=[1e-1, 1e-2],
    )
    assert [row.inner for row in result.rows] == [2, 3]


def test_noise_zero_expansion_matches_small_solution():
    # block-constant profiles reproduce the small solution componentwise
    small = staircase_profile(2)
    radii = np.geomspace(1e-1, 1e-4, 13)
    tol = SolverOptions().tol
    small_path = solve_path(small, math.pi / 2, radii)
    big = expand_profile(small, 3)
    big_path = solve_path(big, math.pi / 2, radii)
    for ps, pb in zip(small_path, big_path):
        target = np.repeat(ps.m, 3)
        rel = np.max(np.abs(pb.m - target) / np.abs(target))
        assert rel <= 10.0 * tol

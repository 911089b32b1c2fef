"""Solver correctness against closed forms, symmetries, and error paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import semicircle_m
from vdelab import (
    SolverError,
    SolverOptions,
    SpectralPoint,
    VarianceProfile,
    VdeSolution,
    check_solution_bounds,
    random_staircase_profile,
    saturation_identity_residual,
    solve,
    solve_path,
    stability_matrix,
    staircase_profile,
    suggested_tol,
)
from vdelab.solver import continuation_guess

# Im m(i) for the semicircle: (sqrt(5) - 1) / 2
GOLDEN = 0.6180339887498949

EPS = float(np.finfo(float).eps)


def make_solution(z: complex, m) -> VdeSolution:
    return VdeSolution(
        point=SpectralPoint(re=z.real, im=z.imag),
        m=np.asarray(m, dtype=complex),
        residual=0.0,
        iterations=0,
        f_norm=0.0,
    )


# ------------------------------------------------------------- closed forms


def test_semicircle_closed_form():
    prof = staircase_profile(1)
    for z in (1j, 0.3 + 0.5j, -1.2 + 0.25j, 1.9 + 0.01j):
        sol = solve(prof, SpectralPoint(re=z.real, im=z.imag))
        assert abs(sol.m[0] - semicircle_m(z)) < 1e-11
        assert sol.residual <= 1e-12


def test_semicircle_at_i_frozen():
    sol = solve(staircase_profile(1), SpectralPoint(re=0.0, im=1.0))
    assert sol.m[0].real == 0.0
    assert abs(sol.m[0].imag - GOLDEN) < 1e-13


def test_two_dim_staircase_exact_point():
    # at z = 0.1i the 2-dim all-ones staircase solves in closed form:
    # b(t + a) = 1 and a(t + a + b) = 1 give (a, b) = (0.4, 2)
    sol = solve(staircase_profile(2), SpectralPoint(re=0.0, im=0.1))
    assert sol.m[0].real == 0.0 and sol.m[1].real == 0.0
    assert abs(sol.m[0].imag - 0.4) < 1e-12
    assert abs(sol.m[1].imag - 2.0) < 1e-11


def test_reflection_symmetry():
    # m(-conj(z)) = -conj(m(z)) for real symmetric profiles
    prof = random_staircase_profile(3, seed=4)
    right = solve(prof, SpectralPoint(re=0.35, im=0.2))
    left = solve(prof, SpectralPoint(re=-0.35, im=0.2))
    assert np.max(np.abs(left.m + np.conj(right.m))) < 1e-10


def test_permutation_covariance():
    prof = random_staircase_profile(4, seed=8)
    perm = (2, 0, 3, 1)
    point = SpectralPoint(re=0.1, im=0.05)
    base = solve(prof, point)
    shuffled = solve(prof.permuted(perm), point)
    assert np.max(np.abs(shuffled.m - base.m[list(perm)])) < 1e-10


def test_pure_imaginary_axis_stays_pure():
    radii = np.geomspace(1e-1, 1e-5, 17)
    path = solve_path(staircase_profile(3), math.pi / 2, radii)
    for sol in path:
        assert (sol.m.real == 0.0).all()
        assert (sol.m.imag > 0.0).all()


# ------------------------------------------------------------- solve basics


def test_warm_start_at_solution_converges_immediately():
    prof = staircase_profile(2)
    point = SpectralPoint(re=0.0, im=0.1)
    first = solve(prof, point)
    again = solve(prof, point, warm_start=first.m)
    assert again.iterations == 0
    assert (again.m == first.m).all()


def test_warm_start_validation():
    prof = staircase_profile(2)
    point = SpectralPoint(re=0.0, im=0.5)
    with pytest.raises(ValueError, match="shape"):
        solve(prof, point, warm_start=np.array([1j]))
    with pytest.raises(ValueError, match="upper half-plane"):
        solve(prof, point, warm_start=np.array([1j, -1j]))


def test_option_and_point_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(damping=0.0)
    with pytest.raises(ValueError):
        SolverOptions(damping=1.5)
    with pytest.raises(ValueError):
        SpectralPoint(re=0.0, im=0.0)
    with pytest.raises(ValueError):
        SpectralPoint(re=0.0, im=-1.0)
    with pytest.raises(ValueError):
        SpectralPoint(re=math.nan, im=1.0)


def test_max_iter_exhaustion():
    opts = SolverOptions(max_iter=1)
    with pytest.raises(SolverError, match="no convergence"):
        solve(staircase_profile(2), SpectralPoint(re=0.0, im=1e-3), opts)


def test_unreachable_tolerance_fails_honestly():
    # 1e-18 sits below the double-precision defect floor at a generic
    # off-axis point; the damping search must bottom out instead of
    # looping forever (on-axis points can fluke onto float-exact roots)
    opts = SolverOptions(tol=1e-18)
    with pytest.raises(SolverError, match="damping underflow"):
        solve(staircase_profile(2), SpectralPoint(re=0.3, im=0.2), opts)


def test_solution_serialization_round_trip():
    sol = solve(staircase_profile(2), SpectralPoint(re=0.2, im=0.3))
    doc = sol.to_json_dict()
    back = VdeSolution.from_json_dict(doc)
    assert (back.m == sol.m).all()
    assert back.point.z == sol.point.z
    assert back.residual == sol.residual
    with pytest.raises(ValueError):
        sol.m[0] = 0.0  # solution vectors are read-only


# ---------------------------------------------------------------- solve_path


def test_solve_path_validation():
    prof = staircase_profile(2)
    with pytest.raises(ValueError, match="ray angle"):
        solve_path(prof, 0.0, [1e-1])
    with pytest.raises(ValueError, match="ray angle"):
        solve_path(prof, math.pi, [1e-1])
    with pytest.raises(ValueError, match="descending"):
        solve_path(prof, math.pi / 2, [1e-3, 1e-2])
    with pytest.raises(ValueError, match="positive"):
        solve_path(prof, math.pi / 2, [1e-2, -1e-3])
    with pytest.raises(ValueError, match="floor"):
        solve_path(prof, math.pi / 2, [1e-2, 1e-9])
    assert solve_path(prof, math.pi / 2, []) == []


def test_solve_path_continuation_is_cheap():
    radii = np.geomspace(1e-1, 1e-6, 41)
    prof = staircase_profile(2)
    opts = SolverOptions(tol=suggested_tol(prof, radii[-1]))
    path = solve_path(prof, math.pi / 3, radii, opts)
    tail = [sol.iterations for sol in path[5:]]
    # secant warm starts land within a few Newton corrections per point
    assert sum(tail) / len(tail) < 6.0
    assert all(sol.residual <= opts.tol for sol in path)


def test_continuation_guess_cases():
    first = np.array([1j, 2j])
    second = np.array([0.5j, 4j])
    assert continuation_guess([]) is None
    assert continuation_guess([first]) is first
    assert (continuation_guess([first, second]) == [0.25j, 8j]).all()
    # the secant of 1j -> -1+1j lands on the real axis, so the last one wins
    last = np.array([-1 + 1j])
    assert continuation_guess([np.array([1j]), last]) is last


def test_solve_path_off_axis_points():
    path = solve_path(staircase_profile(2), math.pi / 6, [1e-1, 1e-2])
    assert path[0].point.re == pytest.approx(1e-1 * math.cos(math.pi / 6))
    assert path[0].point.im == pytest.approx(1e-1 * 0.5)


# ------------------------------------------------- derived quantities / F


def test_stability_matrix_frozen_example():
    sol = make_solution(1j, [1j, 1j])
    prof = VarianceProfile(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert (stability_matrix(sol, prof) == np.array([[1.0, 1.0], [1.0, 0.0]])).all()


def test_stability_matrix_exactly_symmetric():
    prof = random_staircase_profile(4, seed=2)
    sol = solve(prof, SpectralPoint(re=0.07, im=0.02))
    f = stability_matrix(sol, prof)
    assert (f == f.T).all()
    assert sol.f_norm == pytest.approx(np.linalg.norm(f, 2))
    assert sol.f_norm < 1.0


def test_f_norm_saturates_toward_one():
    radii = np.geomspace(1e-1, 1e-6, 26)
    prof = staircase_profile(2)
    path = solve_path(prof, math.pi / 2, radii, SolverOptions(tol=1e-11))
    norms = [sol.f_norm for sol in path]
    assert all(f < 1.0 for f in norms)
    assert norms[-1] > 0.99


def test_saturation_identity_residual_scales_with_error():
    prof = staircase_profile(2)
    opts = SolverOptions(tol=1e-13)
    sol = solve(prof, SpectralPoint(re=0.0, im=0.01), opts)
    clean = saturation_identity_residual(sol, prof)
    norm = float(np.linalg.norm(sol.m))
    assert clean <= 100.0 * opts.tol * (1.0 + norm) ** 2
    # a relative O(1e-3) error in m must surface at a comparable scale
    fudged = make_solution(sol.point.z, sol.m * (1.0 + 1e-3))
    assert saturation_identity_residual(fudged, prof) > 1e-5


def test_check_solution_bounds():
    prof = staircase_profile(3)
    sol = solve(prof, SpectralPoint(re=0.0, im=1e-3), SolverOptions(tol=1e-11))
    report = check_solution_bounds(sol, prof)
    assert report.passed
    assert report.min_product <= report.product_bound == 2.0
    assert report.max_inverse_ratio <= report.inverse_bound
    assert report.products.shape == (3,)
    far = solve(prof, SpectralPoint(re=0.0, im=2.0))
    with pytest.raises(ValueError, match="bounds require"):
        check_solution_bounds(far, prof)


def test_suggested_tol():
    assert suggested_tol(staircase_profile(1), 1e-6) == 1e-12
    want = 100.0 * EPS * (1e-6) ** (-(5 - 1) / (5 + 1))
    assert suggested_tol(staircase_profile(5), 1e-6) == pytest.approx(want)
    # expanded profiles keep the outer block count as the effective n
    from vdelab import expand_profile

    big = expand_profile(staircase_profile(5), 3, noise=0.2, seed=0)
    assert suggested_tol(big, 1e-6) == pytest.approx(want)
    with pytest.raises(ValueError):
        suggested_tol(staircase_profile(2), 0.0)


# ---------------------------------------------------------------- properties


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    re=st.floats(-2.0, 2.0),
    im=st.floats(0.05, 2.0),
)
def test_solve_postconditions_hold(n, seed, re, im):
    prof = random_staircase_profile(n, seed=seed)
    sol = solve(prof, SpectralPoint(re=re, im=im))
    assert sol.residual <= 1e-12
    assert (sol.m.imag > 0.0).all()
    assert sol.f_norm < 1.0

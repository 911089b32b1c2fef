"""Solver correctness against closed forms, symmetries, and error paths."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import semicircle_m
from vdelab import (
    AnomalyError,
    SolverError,
    SolverOptions,
    SpectralPoint,
    VarianceProfile,
    VdeSolution,
    expand_profile,
    random_staircase_profile,
    rho_grid,
    saturation_identity_residual,
    solve,
    solve_path,
    stability_matrix,
    staircase_profile,
    suggested_tol,
)
from vdelab import solver
from vdelab.solver import _symmetric_norm2, continuation_guess

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
    # 1j*inf has imaginary part inf > 0, so only a finiteness check stops it
    with pytest.raises(ValueError, match="finite"):
        solve(prof, SpectralPoint(re=0.0, im=1.0), warm_start=[1j * math.inf, 1j])


def test_nan_residual_is_never_converged():
    # the start's residual is NaN; NaN > tol is False, so a row picked by
    # it would count as converged and reach the f_norm check unsolved
    start = np.array([[1j * math.inf, 1j]])
    with np.errstate(invalid="ignore"):
        assert np.isnan(solver._defect_norms(start, np.array([1j]), np.eye(2)))
        with pytest.raises(SolverError, match="non-finite"):
            solver._solve_points(staircase_profile(2), np.array([1j]),
                                 np.array([1e-12]), start)


def test_non_finite_start_fails_without_warnings():
    # the start's residual is taken under the solve's own errstate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-finite"):
            solver._solve_points(staircase_profile(2), np.array([1j]), np.array([1e-12]),
                                 np.array([[1j * math.inf, 1j]]))


def test_option_and_point_validation():
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)
    with pytest.raises(ValueError):
        SpectralPoint(re=0.0, im=0.0)
    with pytest.raises(ValueError):
        SpectralPoint(re=0.0, im=-1.0)
    with pytest.raises(ValueError):
        SpectralPoint(re=math.nan, im=1.0)


def test_max_iter_exhaustion(monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITER", 1)
    with pytest.raises(SolverError, match="no convergence"):
        solve(staircase_profile(2), SpectralPoint(re=0.0, im=1e-3))


def test_unreachable_tolerance_fails_honestly(monkeypatch):
    # 1e-18 sits below the double-precision defect floor at a generic
    # off-axis point; the stall rule must end the solve instead of
    # looping forever (on-axis points can fluke onto float-exact roots);
    # with a budget of 60 a stall past it would read "no convergence"
    monkeypatch.setattr(solver, "_MAX_ITER", 60)
    with pytest.raises(SolverError, match="residual stalled"):
        solve(staircase_profile(2), SpectralPoint(re=0.3, im=0.2), SolverOptions(tol=1e-18))


@pytest.mark.parametrize(
    "prof", [staircase_profile(2), random_staircase_profile(4, 7)]
)
def test_fixed_point_fallback_converges(prof, monkeypatch):
    # with Newton switched off, every iteration is the averaged half-step
    newton = {}
    for r in (0.3, 0.03):
        for phi in (0.01, math.pi / 2, 3.13):
            re = 0.0 if phi == math.pi / 2 else r * math.cos(phi)
            point = SpectralPoint(re=re, im=r * math.sin(phi))
            newton[point] = solve(prof, point)
    monkeypatch.setattr(
        solver, "_log_newton", lambda m, z, s, means: (m, np.zeros(len(m), dtype=bool))
    )
    opts = SolverOptions()
    for point, want in newton.items():
        sol = solve(prof, point, opts)
        assert sol.residual <= opts.tol
        assert (sol.m.imag > 0.0).all()
        assert np.max(np.abs(sol.m - want.m) / np.abs(want.m)) <= 1e-8
        if point.re == 0.0:
            assert (sol.m.real == 0.0).all()


def test_newton_directions_retry_row_by_row():
    # a stacked solve raises for the whole stack when one matrix is
    # singular; only that row may lose its Newton direction
    rng = np.random.default_rng(0)
    jac = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    jac[1] = 0.0
    rhs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac, rhs[..., None])
    delta = solver._newton_directions(jac, rhs)
    assert np.isnan(delta[1]).all()
    for p in (0, 2):
        assert (delta[p] == np.linalg.solve(jac[p], rhs[p])).all()


def test_batched_rows_fall_back_alone():
    # the second row starts so far out that its Newton system overflows;
    # it alone takes half-steps, and the first row is the P=1 solve
    prof = staircase_profile(2)
    z = np.array([0.1 + 0.2j, 0.1 + 0.2j])
    start = np.array([[1j, 1j], [1e200j, 1e200j]])
    with np.errstate(over="ignore", invalid="ignore"):
        _, took = solver._log_newton(start, z, prof.entries.astype(complex))
        m, residual, iterations, f_norm = solver._solve_points(
            prof, z, np.array([1e-12, 1e-12]), start
        )
    assert took.tolist() == [True, False]
    solo = solve(prof, SpectralPoint(re=0.1, im=0.2))
    assert (m[0] == solo.m).all()
    assert (residual[0], iterations[0], f_norm[0]) == (
        solo.residual, solo.iterations, solo.f_norm
    )
    assert iterations[1] > 100 and residual[1] <= 1e-12
    assert np.max(np.abs(m[1] - solo.m)) < 1e-12


# ------------------------------------------- GMRES step for block profiles


def _record_gmres(monkeypatch) -> list[tuple[int, bool]]:
    """Record (iterations, converged) of every GMRES call from now on."""
    calls = []
    gmres = solver._gmres

    def recorded(*args):
        x, k = gmres(*args)
        calls.append((k, x is not None))
        return x, k

    monkeypatch.setattr(solver, "_gmres", recorded)
    return calls


def test_block_mean_preconditioner_is_the_woodbury_inverse():
    n, inner = 3, 8
    prof = expand_profile(staircase_profile(n), inner, noise=0.5, seed=2)
    sol = solve(prof, SpectralPoint(re=0.01, im=0.02))
    rng = np.random.default_rng(5)
    m = sol.m * np.exp(1e-2 * rng.standard_normal(prof.dim))
    g = 1.0 + m * (sol.point.z + prof.entries @ m)
    means = prof.entries.reshape(n, inner, n, inner).mean(axis=(1, 3))
    s_bar = np.kron(means, np.ones((inner, inner)))
    p_dense = np.diag(g - 1.0) + m[:, None] * s_bar * m[None, :]
    apply = solver._block_mean_preconditioner(m, g - 1.0, means)
    for _ in range(3):
        v = rng.standard_normal(prof.dim) + 1j * rng.standard_normal(prof.dim)
        want = np.linalg.solve(p_dense, v)
        assert np.linalg.norm(apply(v) - want) <= 1e-12 * np.linalg.norm(want)


def test_gmres_takes_one_iteration_on_constant_blocks(monkeypatch):
    # at noise 0 the block means are S itself, so the preconditioner is J
    prof = expand_profile(staircase_profile(3), 64, noise=0.0)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    calls = _record_gmres(monkeypatch)
    radii = np.geomspace(1e-1, 1e-5, 9)
    solve_path(prof, math.pi / 2, radii, SolverOptions(tol=suggested_tol(prof, 1e-5)))
    assert calls and all(call == (1, True) for call in calls)


def test_krylov_path_matches_dense_path(monkeypatch):
    prof = expand_profile(staircase_profile(3), 128, noise=0.5, seed=123)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    calls = _record_gmres(monkeypatch)
    radii, rays = np.geomspace(1e-1, 1e-5, 17), (math.pi / 2, 0.3 * math.pi)
    opts = SolverOptions(tol=suggested_tol(prof, radii[-1]))
    krylov = [solve_path(prof, ray, radii, opts) for ray in rays]
    assert calls and all(ok for _, ok in calls)
    monkeypatch.setattr(solver, "_KRYLOV_MIN_DIM", 10**9)
    dense = [solve_path(prof, ray, radii, opts) for ray in rays]
    for kpath, dpath in zip(krylov, dense):
        assert [p.iterations for p in kpath] == [p.iterations for p in dpath]
        for kp, dp in zip(kpath, dpath):
            assert np.max(np.abs(kp.m - dp.m) / np.abs(dp.m)) <= 1e-12
            assert abs(kp.f_norm - dp.f_norm) <= 1e-13
    for sol in krylov[0]:
        assert (sol.m.real == 0.0).all()


def test_gmres_miss_falls_back_to_the_dense_direction(monkeypatch):
    prof = expand_profile(staircase_profile(3), 48, noise=0.5, seed=4)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    radii = np.geomspace(1e-1, 1e-4, 7)
    want = solve_path(prof, 0.3 * math.pi, radii)
    monkeypatch.setattr(solver, "_GMRES_MAX_ITER", 1)
    calls = _record_gmres(monkeypatch)
    dense_rows = []
    directions = solver._newton_directions

    def counted(jac, rhs):
        dense_rows.append(len(rhs))
        return directions(jac, rhs)

    monkeypatch.setattr(solver, "_newton_directions", counted)
    got = solve_path(prof, 0.3 * math.pi, radii)
    misses = sum(not ok for _, ok in calls)
    assert misses > 0 and sum(dense_rows) == misses
    for g, w in zip(got, want):
        assert g.residual <= suggested_tol(prof, radii[-1])
        assert np.max(np.abs(g.m - w.m) / np.abs(w.m)) <= 1e-12


def test_rho_grid_on_block_profile_matches_dense_path(monkeypatch):
    prof = expand_profile(staircase_profile(2, fill=0.25), 72, noise=0.5, seed=6)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    calls = _record_gmres(monkeypatch)
    grid, etas = [-0.5, -0.01, 0.003, 0.2, 0.9], (1e-1, 1e-2, 1e-3)
    krylov = rho_grid(prof, grid, etas)
    assert calls
    monkeypatch.setattr(solver, "_KRYLOV_MIN_DIM", 10**9)
    dense = rho_grid(prof, grid, etas)
    assert np.max(np.abs(krylov.rho - dense.rho)) <= 1e-12 * dense.rho.max()
    assert abs(krylov.total_mass - dense.total_mass) <= 1e-12
    assert (krylov.divergent == dense.divergent).all()


# ------------------------------------- certified Perron f_norm for blocks


def _record_eigensolves(monkeypatch) -> list[int]:
    """Record the number of matrices in every f_norm eigensolve from now on."""
    calls = []
    norm2 = solver._symmetric_norm2

    def recorded(a):
        calls.append(len(a))
        return norm2(a)

    monkeypatch.setattr(solver, "_symmetric_norm2", recorded)
    return calls


@pytest.mark.parametrize(
    "n, inner, noise, ray",
    [
        (2, 72, 0.9, 0.02),
        (3, 64, 0.5, math.pi / 2),
        (5, 48, 0.0, 0.3 * math.pi),
        (3, 96, 0.9, 0.3 * math.pi),
        (3, 256, 0.5, 0.02),
    ],
)
def test_certified_f_norm_is_the_two_norm(n, inner, noise, ray, monkeypatch):
    prof = expand_profile(staircase_profile(n), inner, noise=noise, seed=11)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    eigensolves = _record_eigensolves(monkeypatch)
    radii = np.geomspace(1e-1, 1e-5, 9)
    path = solve_path(prof, ray, radii)
    assert eigensolves == []
    for sol in path if prof.dim < 500 else path[::4]:  # spare dim-768 SVDs
        f = stability_matrix(sol.m, prof)
        assert sol.f_norm == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)
    assert 1.0 - path[-1].f_norm < 0.01


def test_certified_f_norm_in_rho_grid(monkeypatch):
    prof = expand_profile(staircase_profile(3), 48, noise=0.5, seed=3)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    eigensolves = _record_eigensolves(monkeypatch)
    seen = []
    f_norms = solver._f_norms

    def recorded(m, profile, perron):
        out = f_norms(m, profile, perron)
        seen.append((m, out, perron))
        return out

    monkeypatch.setattr(solver, "_f_norms", recorded)
    rho_grid(prof, [-0.2, 0.004, 0.3], (1e-1, 1e-2, 1e-3))
    assert eigensolves == [] and all(perron for _, _, perron in seen)
    assert sum(len(m) for m, _, _ in seen) > 50
    for m, out, _ in seen:
        for row, f_norm in zip(m[::3], out[::3]):
            f = stability_matrix(row, prof)
            assert f_norm == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)


def test_uncertified_f_norm_is_the_eigensolve(monkeypatch):
    prof = expand_profile(staircase_profile(3), 48, noise=0.5, seed=3)
    radii = np.geomspace(1e-1, 1e-4, 7)
    certified = solve_path(prof, 0.3 * math.pi, radii)
    monkeypatch.setattr(solver, "_PERRON_MAX_STEPS", 0)
    eigensolves = _record_eigensolves(monkeypatch)
    forced = solve_path(prof, 0.3 * math.pi, radii)
    assert eigensolves == [1] * len(radii)
    for c, f in zip(certified, forced):
        assert (c.m == f.m).all()
        assert f.f_norm == _symmetric_norm2(stability_matrix(f.m, prof))
        assert c.f_norm == pytest.approx(f.f_norm, rel=1e-13)


def test_f_norm_at_least_one_is_not_certified(monkeypatch):
    n = 3
    prof = expand_profile(staircase_profile(n), 48, noise=0.5, seed=3)
    sol = solve_path(prof, math.pi / 2, np.geomspace(1e-1, 1e-4, 7))[-1]
    assert sol.f_norm > 0.99
    m = 1.01 * sol.m  # F grows by 1.0201, so ||F||_2 > 1
    assert np.linalg.norm(stability_matrix(m, prof), 2) > 1.0
    assert math.isnan(solver._perron_root(prof.entries, np.abs(m), n))
    eigensolves = _record_eigensolves(monkeypatch)
    with pytest.raises(AnomalyError, match="saturation matrix norm"):
        # a tolerance this loose accepts the start, so only f_norm can fail it
        solver._solve_points(prof, np.array([sol.point.z]), np.array([1e6]), m[None])
    assert eigensolves == [1]


def test_complex_entries_are_cast_once_per_profile():
    # a ray casts S once; every per-point solve on a fresh copy of the
    # profile casts it anew, and both give the same bits
    prof = expand_profile(staircase_profile(3), 64, noise=0.5, seed=8)
    radii = np.geomspace(1e-1, 1e-5, 13)
    opts = SolverOptions(tol=suggested_tol(prof, radii[-1]))
    path = solve_path(prof, 0.3 * math.pi, radii, opts)
    s = prof.complex_entries
    assert prof.complex_entries is s and not s.flags.writeable
    assert (s == prof.entries).all() and prof.block_means.shape == (3, 3)
    fresh, guess = [], None
    for sol in path:
        copy = expand_profile(staircase_profile(3), 64, noise=0.5, seed=8)
        fresh.append(solve(copy, sol.point, opts, warm_start=guess))
        guess = continuation_guess([f.m for f in fresh[-2:]])
    for a, b in zip(path, fresh):
        assert (a.m == b.m).all()
        assert (a.residual, a.iterations, a.f_norm) == (b.residual, b.iterations, b.f_norm)


def test_solution_serialization_round_trip():
    sol = solve(staircase_profile(2), SpectralPoint(re=0.2, im=0.3))
    # through JSON text, as the solve report writes it: floats survive exactly
    doc = json.loads(json.dumps(sol.to_json_dict()))
    assert doc["z"] == [0.2, 0.3]
    assert [complex(re, im) for re, im in doc["m"]] == list(sol.m)
    assert doc["residual"] == sol.residual
    assert doc["iterations"] == sol.iterations
    assert doc["f_norm"] == sol.f_norm
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


def test_solve_path_default_tol_reaches_deep_radii():
    # the default tolerance follows the roundoff floor of the last radius;
    # a fixed 1e-12 stalls near r = 1.3e-6 on this ray
    prof = staircase_profile(7)
    path = solve_path(prof, 0.3 * math.pi, np.geomspace(1e-1, 1e-6, 41))
    assert len(path) == 41
    assert all(sol.residual <= suggested_tol(prof, 1e-6) for sol in path)


def test_continuation_guess_cases():
    first = np.array([1j, 2j])
    second = np.array([0.5j, 4j])
    assert continuation_guess([]) is None
    assert continuation_guess([first]) is first
    assert (continuation_guess([first, second]) == [0.25j, 8j]).all()
    # the secant of 1j -> -1+1j lands on the real axis, so the last one wins
    last = np.array([-1 + 1j])
    assert continuation_guess([np.array([1j]), last]) is last
    # stacked, the fallback is row by row
    older = np.array([[1j, 2j], [1j, 1j]])
    newer = np.array([[0.5j, 4j], [-1 + 1j, 1j]])
    guess = continuation_guess([older, newer])
    assert (guess == [[0.25j, 8j], [-1 + 1j, 1j]]).all()


def test_solve_path_off_axis_points():
    path = solve_path(staircase_profile(2), math.pi / 6, [1e-1, 1e-2])
    assert path[0].point.re == pytest.approx(1e-1 * math.cos(math.pi / 6))
    assert path[0].point.im == pytest.approx(1e-1 * 0.5)


# ------------------------------------------------- derived quantities / F


def test_stability_matrix_frozen_example():
    sol = make_solution(1j, [1j, 1j])
    prof = VarianceProfile(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert (stability_matrix(sol.m, prof) == np.array([[1.0, 1.0], [1.0, 0.0]])).all()


def test_stability_matrix_exactly_symmetric():
    prof = random_staircase_profile(4, seed=2)
    sol = solve(prof, SpectralPoint(re=0.07, im=0.02))
    f = stability_matrix(sol.m, prof)
    assert (f == f.T).all()
    assert sol.f_norm == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)
    assert sol.f_norm < 1.0


def test_symmetric_norm_takes_the_larger_end():
    # the most negative eigenvalue dominates here
    a = np.array([[-2.0, 0.5], [0.5, 1.0]])
    assert _symmetric_norm2(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)
    assert _symmetric_norm2(-a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-13)


def test_block_profile_near_singularity():
    # at r = 1e-5 the saturation matrix has eigenvalues near -1 and +1
    prof = expand_profile(staircase_profile(3), 16, noise=0.5)
    entries = prof.entries.copy()
    radii = np.geomspace(1e-1, 1e-5, 17)
    path = solve_path(
        prof, math.pi / 2, radii, SolverOptions(tol=suggested_tol(prof, 1e-5))
    )
    for sol in path:
        f = stability_matrix(sol.m, prof)
        assert sol.f_norm == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)
        assert (sol.m.real == 0.0).all()
    eig = np.linalg.eigvalsh(f)  # the last point, r = 1e-5
    assert eig[0] < -0.99 and eig[-1] > 0.99
    assert prof.entries.dtype == np.float64
    assert (prof.entries == entries).all()


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

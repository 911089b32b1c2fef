"""Solver correctness against closed forms, symmetries, and error paths."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import block_pattern_entries, semicircle_m, staircase_entries
from vdelab import (
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


def make_solution(z: complex, m, profile: VarianceProfile) -> VdeSolution:
    return VdeSolution(
        point=SpectralPoint(re=z.real, im=z.imag),
        m=np.asarray(m, dtype=complex),
        residual=0.0,
        iterations=0,
        profile=profile,
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
    # the solve command's default ray: the dense Newton path on the
    # imaginary axis, where the real S keeps every real part of m exactly 0.0
    radii = np.geomspace(1e-1, 1e-6, 41)
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
        # S = I, so the product S m is the start itself
        assert np.isnan(solver._defects(start, np.array([1j]), start)).all()
        with pytest.raises(SolverError, match="non-finite"):
            solver._solve_points(staircase_profile(2), np.array([1j]), 1e-12, start)


def test_non_finite_start_fails_without_warnings():
    # the start's residual is taken under the solve's own errstate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="non-finite"):
            solver._solve_points(staircase_profile(2), np.array([1j]), 1e-12,
                                 np.array([[1j * math.inf, 1j]]))


def test_option_and_point_validation():
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SolverOptions(tol=tol)
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
    "prof",
    [
        staircase_profile(2),
        random_staircase_profile(4, 7),
        expand_profile(staircase_profile(2), 72, noise=0.5, seed=1),  # Krylov path
    ],
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
        solver, "_log_newton",
        lambda m, sm, z, s, means: (m, sm, np.zeros(len(m), dtype=bool)),
    )
    opts = SolverOptions()
    for point, want in newton.items():
        sol = solve(prof, point, opts)
        assert sol.residual <= opts.tol
        assert (sol.m.imag > 0.0).all()
        assert np.max(np.abs(sol.m - want.m) / np.abs(want.m)) <= 1e-8
        if point.re == 0.0:
            assert (sol.m.real == 0.0).all()


def test_singular_woodbury_core_fails_only_its_row():
    # the first row's n x n system I + C diag(w) is exactly 0 (w = -1,
    # C = 1); it alone is marked, and the second row keeps its inverse
    m = np.ones((2, 2), dtype=complex)
    gm1 = np.array([[-2.0, -2.0], [1.0, 3.0]], dtype=complex)
    apply, bad = solver._block_mean_preconditioner(m, gm1, np.ones((1, 1)))
    assert bad.tolist() == [True, False]
    v = np.array([[1.0 + 2j, -0.5j]])
    want = np.linalg.solve(np.diag(gm1[1]) + np.ones((2, 2)), v[0])
    assert np.abs(apply(v, np.array([1]))[0] - want).max() <= 1e-15


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
        sm = solver._matvec(prof.entries, None, start)
        _, _, took = solver._log_newton(start, sm, z, prof, None)
        m, residual, iterations = solver._solve_points(
            prof, z, SolverOptions().tol, start
        )
    assert took.tolist() == [True, False]
    solo = solve(prof, SpectralPoint(re=0.1, im=0.2))
    assert (m[0] == solo.m).all()
    assert (residual[0], iterations[0]) == (solo.residual, solo.iterations)
    assert solver._f_norms(m, prof)[0] == solo.f_norm
    assert iterations[1] > 100 and residual[1] <= 1e-12
    assert np.max(np.abs(m[1] - solo.m)) < 1e-12


# ---------------------------------------- Krylov (GCR) step for block profiles


def _record_gmres(monkeypatch) -> list[tuple[int, bool]]:
    """Record (iterations, converged) of every row of every GCR call from now on."""
    calls = []
    gcr = solver._gcr

    def recorded(*args):
        x, k = gcr(*args)
        calls.extend(zip(k.tolist(), np.isfinite(x).all(axis=1).tolist()))
        return x, k

    monkeypatch.setattr(solver, "_gcr", recorded)
    return calls


def test_block_mean_preconditioner_is_the_woodbury_inverse():
    # two rows with their own stacked cores, applied in either order
    n, inner = 3, 8
    prof = expand_profile(staircase_profile(n), inner, noise=0.5, seed=2)
    sol = solve(prof, SpectralPoint(re=0.01, im=0.02))
    rng = np.random.default_rng(5)
    m = sol.m * np.exp(1e-2 * rng.standard_normal((2, prof.dim)))
    g = 1.0 + m * (sol.point.z + m @ prof.entries)
    means = prof.entries.reshape(n, inner, n, inner).mean(axis=(1, 3))
    s_bar = np.kron(means, np.ones((inner, inner)))
    apply, bad = solver._block_mean_preconditioner(m, g - 1.0, means)
    assert not bad.any()
    rows = np.array([1, 0])
    for _ in range(3):
        v = rng.standard_normal((2, prof.dim)) + 1j * rng.standard_normal((2, prof.dim))
        got = apply(v, rows)
        for p, row in enumerate(rows):
            mr = m[row]
            p_dense = np.diag(g[row] - 1.0) + mr[:, None] * s_bar * mr[None, :]
            want = np.linalg.solve(p_dense, v[p])
            assert np.linalg.norm(got[p] - want) <= 1e-12 * np.linalg.norm(want)


def test_gcr_solves_each_row_against_the_dense_jacobian():
    # lock-step rows of noisy block-profile Jacobians, preconditioned by
    # their block means, next to a zero row, two NaN rows (one as
    # _krylov_directions marks a bad preconditioner), a breakdown row and
    # a row holding inf, whose norm would warn
    n, inner = 3, 16
    prof = expand_profile(staircase_profile(n), inner, noise=0.5, seed=3)
    sol = solve(prof, SpectralPoint(re=0.01, im=0.02))
    rng = np.random.default_rng(8)
    m = sol.m * np.exp(1e-2 * rng.standard_normal((6, prof.dim)))
    m = np.vstack([m, m[0]])
    g = 1.0 + m * (sol.point.z + m @ prof.entries)
    precond, bad = solver._block_mean_preconditioner(m, g - 1.0, prof.block_means)
    assert not bad.any()

    def apply_j(v, rows):
        sv = solver._matvec(prof.entries, prof.column_runs, m[rows] * v)
        jv = (g[rows] - 1.0) * v + m[rows] * sv
        jv[rows == 5] = 0.0  # row 5 breaks down: its first image vanishes
        return jv

    b = rng.standard_normal((6, prof.dim)) + 1j * rng.standard_normal((6, prof.dim))
    b = np.vstack([b, b[0]])
    b[1], b[2, 4], b[3], b[6, 7] = 0.0, np.nan, np.nan, np.inf
    x, its = solver._gcr(apply_j, precond, b)
    assert its[[1, 2, 3, 6]].tolist() == [0, 0, 0, 0] and its[5] == 1
    assert np.isnan(x[[1, 2, 3, 5, 6]]).all()
    jac = solver._jacobian(m, g, prof.entries)
    for p in (0, 4):
        assert 1 <= its[p] <= solver._KRYLOV_MAX_ITER
        want = np.linalg.solve(jac[p], b[p])
        assert np.linalg.norm(x[p] - want) <= 1e-9 * np.linalg.norm(want)


def test_gmres_takes_one_iteration_on_constant_blocks(monkeypatch):
    # at noise 0 the block means are S itself, so the preconditioner is J
    prof = expand_profile(staircase_profile(3), 64, noise=0.0)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    calls = _record_gmres(monkeypatch)
    radii = np.geomspace(1e-1, 1e-5, 9)
    solve_path(prof, math.pi / 2, radii)
    assert calls and all(call == (1, True) for call in calls)


def test_krylov_path_matches_dense_path(monkeypatch):
    # the two Newton paths on the same _solve_points batches from the same
    # warm starts: each decade of a batched ray, extrapolated from the two
    # points before it as solve_path does
    prof = expand_profile(staircase_profile(3), 128, noise=0.5, seed=123)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    radii, rays = np.geomspace(1e-1, 1e-5, 17), (math.pi / 2, 0.3 * math.pi)
    tol = SolverOptions().tol
    batches = []
    for ray in rays:
        path = solve_path(prof, ray, radii)
        for i in range(2, len(radii), 4):
            r_prev, r_last = radii[i - 2], radii[i - 1]
            steps = np.log(radii[i:i + 4] / r_last) / math.log(r_last / r_prev)
            warm = continuation_guess([path[i - 2].m, path[i - 1].m], steps)
            batches.append((np.array([p.point.z for p in path[i:i + 4]]), warm))
    calls = _record_gmres(monkeypatch)
    krylov = [solver._solve_points(prof, z, tol, w)
              for z, w in batches]
    assert calls and all(ok for _, ok in calls)
    k_f = [solver._f_norms(km, prof) for km, *_ in krylov]
    monkeypatch.setattr(solver, "_KRYLOV_MIN_DIM", 10**9)
    dense = [solver._solve_points(prof, z, tol, w)
             for z, w in batches]
    for (km, _, k_iters), (dm, _, d_iters), kf in zip(krylov, dense, k_f):
        assert k_iters.tolist() == d_iters.tolist() and k_iters.min() >= 1
        assert np.max(np.abs(km - dm) / np.abs(dm)) <= 1e-12
        assert np.max(np.abs(kf - solver._f_norms(dm, prof))) <= 1e-13
    for m, *_ in krylov[: len(batches) // 2]:  # the ray pi/2
        assert (m.real == 0.0).all()


@pytest.mark.parametrize(
    "inner, budget_rows", [(48, None), (64, None), (128, None), (64, 3)]
)
def test_batched_ray_matches_one_radius_at_a_time(inner, budget_rows, monkeypatch):
    # solve_path batches each decade of a Krylov-path ray; the reference
    # solves one radius at a time from the secant of the last two points.
    # With budget_rows the byte budget holds that many rows' GCR bases.
    prof = expand_profile(staircase_profile(3), inner, noise=0.5, seed=5)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    radii = np.geomspace(1e-1, 1e-5, 33)
    opts = SolverOptions()
    tol = opts.tol
    rays = (math.pi / 2, 0.3 * math.pi)
    single = []
    for ray in rays:
        path = []
        for r in radii:
            re = 0.0 if ray == math.pi / 2 else r * math.cos(ray)
            point = SpectralPoint(re=re, im=r * math.sin(ray))
            guess = continuation_guess([sol.m for sol in path[-2:]])
            path.append(solve(prof, point, opts, warm_start=guess))
        single.append(path)
    if budget_rows is not None:
        row_bytes = 2 * solver._KRYLOV_MAX_ITER * prof.dim * 16
        monkeypatch.setattr(solver, "_STACK_BYTES", budget_rows * row_bytes)
    sizes = []
    solve_points = solver._solve_points

    def recorded(profile, z, tol, m):
        sizes.append(len(z))
        return solve_points(profile, z, tol, m)

    monkeypatch.setattr(solver, "_solve_points", recorded)
    eigensolves = _record_eigensolves(monkeypatch)
    for ray, want in zip(rays, single):
        got = solve_path(prof, ray, radii, opts)
        for g, w in zip(got, want):
            assert g.point == w.point
            assert g.residual <= tol and g.f_norm < 1.0
            assert g.iterations >= 1  # no warm start passes untouched
            assert np.max(np.abs(g.m - w.m) / np.abs(w.m)) <= 10.0 * tol
            if ray == math.pi / 2:
                assert (g.m.real == 0.0).all()
    assert eigensolves == []  # every f_norm is a certified Perron root
    # 8 radii per decade: two alone, then one batch per decade
    assert sizes[:2] == [1, 1] and max(sizes) == (budget_rows or 8)
    assert max(sizes) <= solver._stack_rows(prof)  # solve_path sizes its batches
    assert sum(sizes) == len(rays) * len(radii)


def test_gmres_miss_falls_back_to_the_dense_direction(monkeypatch):
    prof = expand_profile(staircase_profile(3), 48, noise=0.5, seed=4)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    radii = np.geomspace(1e-1, 1e-4, 7)
    want = solve_path(prof, 0.3 * math.pi, radii)
    monkeypatch.setattr(solver, "_KRYLOV_MAX_ITER", 1)
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
        assert g.residual <= SolverOptions().tol
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


def _record_perron(monkeypatch) -> list[int]:
    """Record a 1 for every Perron root computed from now on."""
    calls = []
    root = solver._perron_root

    def recorded(profile, a):
        calls.append(1)
        return root(profile, a)

    monkeypatch.setattr(solver, "_perron_root", recorded)
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
    eigensolves, perron = _record_eigensolves(monkeypatch), _record_perron(monkeypatch)
    radii = np.geomspace(1e-1, 1e-5, 9)
    path = solve_path(prof, ray, radii)
    assert eigensolves == [] and perron == []
    f_norms = [sol.f_norm for sol in path]
    # every read is a certified Perron root, none falls back to eigvalsh
    assert eigensolves == [] and len(perron) == len(path)
    assert all(0.0 < f < 1.0 for f in f_norms)
    for sol in path if prof.dim < 500 else path[::4]:  # spare dim-768 SVDs
        f = stability_matrix(sol.m, prof)
        assert sol.f_norm == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)
    assert 1.0 - path[-1].f_norm < 0.01


def _record_bounds(monkeypatch) -> list[tuple]:
    """Record (m, sm, bounds) of every saturation certificate from now on."""
    seen = []
    bounds = solver._saturation_bounds

    def recorded(m, sm):
        out = bounds(m, sm)
        seen.append((m.copy(), sm.copy(), out))
        return out

    monkeypatch.setattr(solver, "_saturation_bounds", recorded)
    return seen


def test_certified_f_norm_in_rho_grid(monkeypatch):
    # every row rho_grid solves is certified ||F||_2 <= c < 1 by the bound
    # from its own carried product, with no norm computed
    prof = expand_profile(staircase_profile(3), 48, noise=0.5, seed=3)
    assert prof.dim >= solver._KRYLOV_MIN_DIM
    eigensolves = _record_eigensolves(monkeypatch)
    perron = _record_perron(monkeypatch)
    seen = _record_bounds(monkeypatch)
    rho_grid(prof, [-0.2, 0.004, 0.3], (1e-1, 1e-2, 1e-3))
    assert eigensolves == [] and perron == []
    assert sum(len(m) for m, _, _ in seen) > 50
    for m, sm, bound in seen:
        assert (bound < 1.0).all()
        for row, s_row, c in zip(m[::3], sm[::3], bound[::3]):
            assert np.max(np.abs(s_row - prof.entries @ row)) <= 1e-14 * np.abs(s_row).max()
            assert np.linalg.norm(stability_matrix(row, prof), 2) <= c < 1.0


def test_uncertified_f_norm_is_the_eigensolve(monkeypatch):
    prof = expand_profile(staircase_profile(3), 48, noise=0.5, seed=3)
    radii = np.geomspace(1e-1, 1e-4, 7)
    certified = solve_path(prof, 0.3 * math.pi, radii)
    monkeypatch.setattr(solver, "_PERRON_MAX_STEPS", 0)
    eigensolves = _record_eigensolves(monkeypatch)
    forced = solve_path(prof, 0.3 * math.pi, radii)
    assert eigensolves == []  # the solve itself computes no norm
    assert all(f.f_norm < 1.0 for f in forced)  # each read computes one
    assert sum(eigensolves) == len(radii)
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
    assert math.isnan(solver._perron_root(prof, np.abs(m)))
    eigensolves = _record_eigensolves(monkeypatch)
    with pytest.raises(SolverError, match="saturation matrix norm"):
        # a tolerance this loose accepts the start, so only f_norm can fail it
        solver._solve_points(prof, np.array([sol.point.z]), 1e6, m[None])
    assert eigensolves == [1]


def test_bound_needs_positive_imaginary_parts(monkeypatch):
    # conj(m) has the ratios of m, all below 1, but Im conj(m) < 0 is no
    # Collatz-Wielandt vector; a row with some Im m_k <= 0 is not certified
    prof = staircase_profile(3)
    m = solve(prof, SpectralPoint(re=0.1, im=0.2)).m
    flat = m.copy()
    flat[0] = m[0].real
    rows = np.array([m, m.conj(), flat])
    with np.errstate(divide="ignore"):  # as in _solve_points
        bound = solver._saturation_bounds(rows, rows @ prof.entries)
    assert bound[0] < 1.0 and np.isnan(bound[1:]).all()
    eigensolves = _record_eigensolves(monkeypatch)
    # a tolerance this loose accepts the unchecked start as it is
    got, _, iterations = solver._solve_points(
        prof, np.array([0.1 + 0.2j]), 1e6, m.conj()[None]
    )
    assert (got[0] == m.conj()).all() and iterations[0] == 0
    assert eigensolves == [1]


RAYS = (math.pi / 2, 0.3 * math.pi, 0.02, math.pi - 0.02)


def _assert_certificate_bounds_the_norm(prof, ray, r_min):
    """Every row the certificate accepts on the ray has ||F||_2 <= c < 1,
    and each point's f_norm, read afterwards, is ||F||_2."""
    with pytest.MonkeyPatch.context() as mp:
        seen = _record_bounds(mp)
        path = solve_path(prof, ray, np.geomspace(1e-1, r_min, 11))
    accepted = [(row, c) for m, _, bound in seen for row, c in zip(m, bound) if c < 1.0]
    assert accepted
    for row, c in accepted:
        assert np.linalg.norm(stability_matrix(row, prof), 2) <= c < 1.0
    for sol in path:
        f = stability_matrix(sol.m, prof)
        assert sol.f_norm == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    permute=st.booleans(),
    ray=st.sampled_from(RAYS),
    r_min=st.sampled_from((1e-3, 1e-6)),
)
def test_certificate_bounds_the_norm_on_staircases(n, seed, permute, ray, r_min):
    prof = random_staircase_profile(n, seed=seed)
    if permute:
        prof = prof.permuted(np.random.default_rng(seed).permutation(n))
    _assert_certificate_bounds_the_norm(prof, ray, r_min)


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(2, 4),
    inner=st.sampled_from((8, 24, 48, 64)),
    noise=st.sampled_from((0.0, 0.5, 0.9)),
    ray=st.sampled_from(RAYS),
    r_min=st.sampled_from((1e-3, 1e-6)),
)
@example(n=3, inner=64, noise=0.5, ray=0.02, r_min=1e-6)  # Krylov path
@example(n=2, inner=24, noise=0.9, ray=math.pi - 0.02, r_min=1e-6)  # dense path
def test_certificate_bounds_the_norm_on_blocks(n, inner, noise, ray, r_min):
    # dims 16-256 on both sides of _KRYLOV_MIN_DIM: the dense and Krylov paths
    prof = expand_profile(staircase_profile(n), inner, noise=noise, seed=inner)
    _assert_certificate_bounds_the_norm(prof, ray, r_min)


def test_near_axis_anomaly_is_decided_by_the_eigensolve(tmp_path, monkeypatch, capsys):
    # on rays within 1e-14 of the real axis, on either side, the defect
    # reaches Im z, so the certificate declines; the eigensolve finds
    # ||F||_2 >= 1, which only an inaccurate m allows, and the CLI exits 2
    # as a solver failure, naming the residual, its tol and Im z
    from vdelab import cli

    stair3 = tmp_path / "stair3.json"
    stair3.write_text('{"matrix": [[1, 1, 1], [1, 1, 0], [1, 0, 0]]}')
    seen = _record_bounds(monkeypatch)
    eigensolves = _record_eigensolves(monkeypatch)
    for ray, norm, im_z in (("1e-14", "1.0000000000000009", "1.000e-15"),
                            ("3.14159265358979", "1.0000000000000018", "3.231e-16")):
        seen.clear()
        eigensolves.clear()
        argv = ["--command", "solve", "--profile", str(stair3),
                "--out", str(tmp_path / "solve.txt"), "--ray", ray]
        assert cli.main(argv) == 2
        assert len(seen) == 1 and not seen[0][2][0] < 1.0
        assert eigensolves == [1]
        err = capsys.readouterr().err
        assert f"solver failure: saturation matrix norm {norm} >= 1" in err
        assert f"Im z = {im_z}" in err and "residual " in err and "tol " in err


def test_unread_f_norm_is_not_computed(tmp_path, monkeypatch):
    # reduce and sweep print only m-derived numbers and compute no ||F||_2
    # (rho_grid: test_certified_f_norm_in_rho_grid); solve computes the one
    # it prints, on either path
    from vdelab import cli
    from vdelab.profiles import load_profile

    stair3 = tmp_path / "stair3.json"
    stair3.write_text('{"matrix": [[1, 1, 1], [1, 1, 0], [1, 0, 0]]}')
    big = expand_profile(staircase_profile(3), 64, noise=0.5)
    block3 = tmp_path / "block3.json"
    block3.write_text(json.dumps({"matrix": big.entries.tolist(), "n": 3, "N": 64}))
    eigensolves, perron = _record_eigensolves(monkeypatch), _record_perron(monkeypatch)

    def run(command, profile, *extra):
        out = tmp_path / f"{command}.txt"
        argv = ["--command", command, "--profile", str(profile), "--out", str(out)]
        assert cli.main([*argv, *extra]) == 0
        return out.read_text().splitlines()[2:]

    run("reduce", stair3, "--N", "64", "--noise", "0.5", "--rmin", "1e-5")
    run("sweep", stair3, "--N", "16,32,64", "--noise", "0.5")
    assert eigensolves == [] and perron == []
    doc = json.loads("\n".join(run("solve", stair3)))
    assert eigensolves == [1] and perron == [] and 0.0 < doc["f_norm"] < 1.0
    doc = json.loads("\n".join(run("solve", block3, "--rmin", "1e-5")))
    assert eigensolves == [1] and perron == [1] and 0.0 < doc["f_norm"] < 1.0
    m = np.array([complex(*v) for v in doc["m"]])
    f = stability_matrix(m, load_profile(str(block3)))
    assert doc["f_norm"] == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)


def test_dense_path_product_is_one_real_gemm():
    # on a dense-path profile each row of the product is m @ S up to
    # summation order, and a purely imaginary m keeps a real part of 0.0
    prof = expand_profile(staircase_profile(3), 40, noise=0.5, seed=8)
    assert not solver._krylov(prof)
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, prof.dim)) + 1j * rng.uniform(0.1, 2.0, (5, prof.dim))
    got = solver._matvec(prof.entries, None, m)
    for row, want in zip(got, m @ prof.entries):
        assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))
    pure = solver._matvec(prof.entries, None, 1j * m.imag)
    assert (pure.real == 0.0).all()


@pytest.mark.parametrize(
    "pattern",
    [
        staircase_entries(3),
        staircase_entries(4),
        np.ones((3, 3)),
        staircase_entries(3)[::-1, ::-1],
        [[1, 0, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0], [0, 0, 0, 0]],
        [[1, 1, 1], [1, 1, 1], [1, 1, 0]],
    ],
)
def test_krylov_path_product_skips_the_zero_blocks(pattern):
    # the product by column runs is m @ S up to summation order, never reads
    # S outside the runs' extents, and keeps a purely imaginary m's real
    # part at 0.0
    n, inner = len(pattern), 24
    prof = VarianceProfile(block_pattern_entries(pattern, inner, seed=4),
                           block_meta=(n, inner))
    s, runs = prof.entries, prof.column_runs
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, prof.dim)) + 1j * rng.uniform(0.1, 2.0, (5, prof.dim))
    got = solver._matvec(s, runs, m)
    for row, want in zip(got, m @ s):
        assert np.max(np.abs(row - want)) <= 1e-15 * np.max(np.abs(want))
    poisoned = np.full_like(s, np.nan)
    for a, b, lo, hi in runs:
        poisoned[lo:hi, a:b] = s[lo:hi, a:b]
    assert (np.isnan(poisoned) <= (s == 0.0)).all()
    assert (solver._matvec(poisoned, runs, m) == got).all()
    pure = solver._matvec(s, runs, 1j * m.imag)
    assert (pure.real == 0.0).all()


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
    opts = SolverOptions()
    path = solve_path(prof, math.pi / 3, radii, opts)
    tail = [sol.iterations for sol in path[5:]]
    # secant warm starts land within a few Newton corrections per point
    assert sum(tail) / len(tail) < 6.0
    assert all(sol.residual <= opts.tol for sol in path)


def test_solve_path_default_tol_reaches_deep_radii():
    # the backward error scales the defect by its own terms, so the one
    # default tolerance holds where m_1 grows like r^(-3/4); an absolute
    # 1e-12 on the defect stalls near r = 1.3e-6 on this ray
    prof = staircase_profile(7)
    path = solve_path(prof, 0.3 * math.pi, np.geomspace(1e-1, 1e-6, 41))
    assert len(path) == 41
    assert all(sol.residual <= SolverOptions().tol for sol in path)


def test_rank_deficient_ray_reaches_the_atom():
    # a zero 2 x 2 block caps the rank at 2 (Frobenius-Koenig), so rho has
    # an atom of mass 1/3 at 0 and m_2 = m_3 grow like 1/|z|, faster than
    # any critical law; the backward error holds down to the radius floor
    prof = VarianceProfile(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    path = solve_path(prof, math.pi / 2, np.geomspace(1e-1, solver.RADIUS_FLOOR, 57))
    assert all(sol.residual <= SolverOptions().tol for sol in path)
    last = path[-1]
    assert last.point.im * last.m.imag.mean() == pytest.approx(1.0 / 3.0, abs=1e-9)


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
    # by t steps, one row per t, and t = 1 is the secant
    guess = continuation_guess([first, second], np.array([1.0, 2.0, 0.5]))
    assert (guess[:2] == [[0.25j, 8j], [0.125j, 16j]]).all()
    assert guess[2] == pytest.approx([0.5j * 0.5**0.5, 4j * 2**0.5], rel=1e-15)
    # 1j -> -1+1j: one step lands on the real axis, half a step does not
    guess = continuation_guess([np.array([1j]), last], np.array([1.0, 0.5]))
    assert guess[0] == last[0]
    assert guess[1] == pytest.approx(last[0] * np.sqrt(1 + 1j), rel=1e-15)


def test_solve_path_off_axis_points():
    path = solve_path(staircase_profile(2), math.pi / 6, [1e-1, 1e-2])
    assert path[0].point.re == pytest.approx(1e-1 * math.cos(math.pi / 6))
    assert path[0].point.im == pytest.approx(1e-1 * 0.5)


# ------------------------------------------------- derived quantities / F


def test_stability_matrix_frozen_example():
    prof = VarianceProfile(np.array([[1.0, 1.0], [1.0, 0.0]]))
    sol = make_solution(1j, [1j, 1j], prof)
    assert (stability_matrix(sol.m, prof) == np.array([[1.0, 1.0], [1.0, 0.0]])).all()


def test_stability_matrix_exactly_symmetric():
    prof = random_staircase_profile(4, seed=2)
    sol = solve(prof, SpectralPoint(re=0.07, im=0.02))
    f = stability_matrix(sol.m, prof)
    assert (f == f.T).all()
    assert sol.f_norm == pytest.approx(np.linalg.norm(f, 2), rel=1e-13)
    assert sol.f_norm < 1.0


def test_symmetric_norm_is_the_top_eigenvalue_of_a_nonnegative_matrix():
    # F = |m| S |m| is entrywise non-negative, so no eigenvalue outweighs
    # the top one (Perron-Frobenius), even where the bottom one is its
    # mirror: a bipartite pattern, zero on its diagonal blocks, has a
    # spectrum symmetric about 0
    rng = np.random.default_rng(11)
    a = rng.uniform(0.0, 1.0, (40, 6, 6))
    a = a + a.transpose(0, 2, 1)
    bipartite = a.copy()
    bipartite[:, :3, :3] = bipartite[:, 3:, 3:] = 0.0
    for stack in (a, bipartite):
        got = _symmetric_norm2(stack)
        assert got.shape == (40,)
        assert got == pytest.approx(np.linalg.norm(stack, 2, axis=(1, 2)), rel=1e-13)
    assert np.linalg.eigvalsh(bipartite)[:, 0] == pytest.approx(-got, rel=1e-13)


def test_block_profile_near_singularity():
    # at r = 1e-5 the saturation matrix has eigenvalues near -1 and +1
    prof = expand_profile(staircase_profile(3), 16, noise=0.5)
    entries = prof.entries.copy()
    radii = np.geomspace(1e-1, 1e-5, 17)
    path = solve_path(prof, math.pi / 2, radii)
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
    clean = saturation_identity_residual(sol)
    norm = float(np.linalg.norm(sol.m))
    assert clean <= 100.0 * opts.tol * (1.0 + norm) ** 2
    # a relative O(1e-3) error in m must surface at a comparable scale
    fudged = make_solution(sol.point.z, sol.m * (1.0 + 1e-3), prof)
    assert saturation_identity_residual(fudged) > 1e-5


def test_suggested_tol():
    assert suggested_tol(staircase_profile(1), 1e-6) == 1e-12
    want = 100.0 * EPS * (1e-6) ** (-(5 - 1) / (5 + 1))
    assert suggested_tol(staircase_profile(5), 1e-6) == pytest.approx(want)
    # expanded profiles keep the outer block count as the effective n
    from vdelab import expand_profile

    big = expand_profile(staircase_profile(5), 3, noise=0.2, seed=0)
    assert suggested_tol(big, 1e-6) == pytest.approx(want)
    # for r <= 1 the value is the near-singularity floor, bit for bit
    p5 = staircase_profile(5)
    for r in (1e-8, 1e-6, 1e-3, 0.5, 1.0):
        assert suggested_tol(p5, r) == max(1e-12, 100.0 * EPS * r ** (-4 / 6))
    # far out 1/m ~ -z cancels against z to about eps*r
    p2 = staircase_profile(2)
    assert suggested_tol(p2, 1e6) == 100 * EPS * 1e6
    assert suggested_tol(p2, 10.0) == 1e-12
    # several radii give the largest of their values
    assert suggested_tol(p5, 1e-6, 1e-3, 0.1) == suggested_tol(p5, 1e-6)
    assert suggested_tol(p5, 1e-6, 1e6) == suggested_tol(p5, 1e6) == 100 * EPS * 1e6
    for bad in ((), (0.0,), (-1.0,), (1e-6, 0.0), (math.inf,), (math.nan,)):
        with pytest.raises(ValueError):
            suggested_tol(p2, *bad)


@pytest.mark.parametrize("radii", [[1e6, 1e5], [1e6, 1e-6]])
def test_solve_path_default_tol_covers_the_far_field(radii):
    # an absolute 1e-12 on the defect stalls near 1.3e-10 at r = 1e6, where
    # 1/m ~ -z cancels against z; the backward error scales by |z| there
    prof = staircase_profile(2)
    path = solve_path(prof, math.pi / 2, radii)
    assert all(sol.residual <= SolverOptions().tol for sol in path)


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

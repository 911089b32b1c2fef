"""Power-law asymptotics of the solution near z = 0.

For an n-dim staircase profile the solution components behave like
m_k(z) ~ c_k e^{i pi k/(n+1)} |z|^{1-2k/(n+1)} e^{i(1-2k/(n+1)) arg z}
as z -> 0.  This module computes the limiting constants c_k from a small
log-linear system, fits measured exponents/phases/constants along solved
rays, checks the pair products of opposite components against their limits,
reduces block-expanded solutions back to an n-dim equation, and sweeps
normalized moduli across inner block sizes.

Component indices k are 1-based throughout, matching the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import ProfileError, VarianceProfile, check_assumption_staircase, expand_profile
from .solver import AnomalyError, SolverOptions, VdeSolution, solve_path

CONDITION_LIMIT = 1e8


def predicted_exponent(k: int, n: int) -> float:
    return 1.0 - 2.0 * k / (n + 1)


def predicted_phase(k: int, n: int) -> float:
    return math.pi * k / (n + 1)


@dataclass(frozen=True)
class ConstantSystem:
    """A x = b for x_k = log c_k: A, its 2-norm condition number and x."""

    coefficient_matrix: np.ndarray
    condition_number: float
    solution: np.ndarray


def constant_system(profile: VarianceProfile) -> ConstantSystem:
    """Assemble and solve the log-linear system for the limiting constants.

    Three equation families, n equations in n unknowns:

    - pair rows, k = 1..ceil(n/2):      x_k + x_{n+1-k} = -log s_{k,n+1-k}
      (the self-paired k = n+1-k row has coefficient 2);
    - the anchor row (n >= 2):          x_1 + x_{n-1} - x_n = -log s_{1,n-1};
    - ratio rows, k = 2..floor(n/2):    x_k + x_{n-k} - x_{n+1-k} - x_{k-1}
                                        = log s_{n+1-k,k-1} - log s_{k,n-k}.

    Solvability is guaranteed for staircase profiles; an ill-conditioned
    matrix therefore signals a bug and raises AnomalyError.
    """
    ok, violations = check_assumption_staircase(profile)
    if not ok:
        raise ProfileError(
            f"limiting constants need a staircase profile; violations: "
            f"{violations[:3]}"
        )
    s = profile.entries
    n = profile.dim
    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def log_s(i: int, j: int) -> float:
        return math.log(s[i - 1, j - 1])

    for k in range(1, math.ceil(n / 2) + 1):
        row = np.zeros(n)
        row[k - 1] += 1.0
        row[n - k] += 1.0  # k = n+1-k contributes twice
        rows.append(row)
        rhs.append(-log_s(k, n + 1 - k))
    if n >= 2:
        row = np.zeros(n)
        row[0] += 1.0
        row[n - 2] += 1.0
        row[n - 1] -= 1.0
        rows.append(row)
        rhs.append(-log_s(1, n - 1))
    for k in range(2, n // 2 + 1):
        row = np.zeros(n)
        row[k - 1] += 1.0
        row[n - k - 1] += 1.0
        row[n - k] -= 1.0
        row[k - 2] -= 1.0
        rows.append(row)
        rhs.append(log_s(n + 1 - k, k - 1) - log_s(k, n - k))

    # square: ceil(n/2) + 1 + (floor(n/2) - 1) = n rows for n >= 2, 1 for n = 1
    a = np.array(rows)
    b = np.array(rhs)
    cond = float(np.linalg.cond(a))
    if not cond < CONDITION_LIMIT:
        raise AnomalyError(
            f"constant system condition number {cond:.3e} exceeds "
            f"{CONDITION_LIMIT:.0e}; the system is provably invertible, "
            "so this indicates a bug"
        )
    x = np.linalg.solve(a, b)
    return ConstantSystem(coefficient_matrix=a, condition_number=cond, solution=x)


def limit_constants(profile: VarianceProfile) -> np.ndarray:
    """Limiting modulus constants c_1..c_n for a staircase profile."""
    return np.exp(constant_system(profile).solution)


def constant_system_residuals(profile: VarianceProfile, c: np.ndarray) -> float:
    """Worst relative defect of the multiplicative constant relations.

    Checks s_{k,n+1-k} c_k c_{n+1-k} = 1 for every k, the anchor relation
    s_{1,n-1} c_1 c_{n-1} = c_n, and the ratio relations
    s_{k,n-k} c_k c_{n-k} = s_{n+1-k,k-1} c_{n+1-k} c_{k-1}; all of them
    hold simultaneously for the exact constant vector.
    """
    s = profile.entries
    n = profile.dim
    c = np.asarray(c, dtype=float)
    worst = 0.0
    for k in range(1, n + 1):
        worst = max(worst, abs(s[k - 1, n - k] * c[k - 1] * c[n - k] - 1.0))
    if n >= 2:
        worst = max(
            worst, abs(s[0, n - 2] * c[0] * c[n - 2] / c[n - 1] - 1.0)
        )
    for k in range(2, n):
        lhs = s[k - 1, n - k - 1] * c[k - 1] * c[n - k - 1]
        rhs = s[n - k, k - 2] * c[n - k] * c[k - 2]
        worst = max(worst, abs(lhs / rhs - 1.0))
    return worst


@dataclass(frozen=True)
class AsymptoticFit:
    """Measured vs predicted singular behavior of one component (1-based k)."""

    component: int
    measured_exponent: float
    predicted_exponent: float
    measured_phase: float
    predicted_phase: float
    measured_constant: float
    predicted_constant: float


def _path_radii_and_angle(path: list[VdeSolution]) -> tuple[np.ndarray, float]:
    if not path:
        raise ValueError("empty path")
    angles = np.array(
        [math.atan2(sol.point.im, sol.point.re) for sol in path]
    )
    if angles.max() - angles.min() > 1e-9:
        raise ValueError("path points do not lie on a single ray")
    if any(sol.profile is not path[0].profile for sol in path):
        raise ValueError("path points were not solved on one profile")
    radii = np.array([abs(sol.point.z) for sol in path])
    if (np.diff(radii) >= 0).any():
        raise ValueError("path radii must be strictly descending")
    return radii, float(angles[-1])


def fit_exponents(path: list[VdeSolution]) -> list[AsymptoticFit]:
    """Fit per-component power laws over the smallest two decades of a ray.

    Needs at least four decades of radii so the fit window sits well below
    the transient regime.  The measured exponent is the least-squares
    slope of log|m_k| against log r in the window; the measured constant
    and phase are read off at the smallest radius (the constant normalized
    by the predicted exponent, the phase as arg m_k minus the predicted
    exponent times the ray angle, against the limit pi k/(n+1)) and set
    against the limit constants of the path's profile.  A non-monotone
    |m_k| inside the window indicates an unconverged path and raises.
    """
    radii, phi0 = _path_radii_and_angle(path)
    if math.log10(radii[0] / radii[-1]) < 4.0 - 1e-9:
        raise ValueError("exponent fits need at least 4 decades of radii")
    r_min = radii[-1]
    in_window = radii <= 100.0 * r_min * (1.0 + 1e-9)
    if in_window.sum() < 2:
        raise ValueError("fit window holds fewer than 2 points")
    window = np.array([path[i].m for i in np.flatnonzero(in_window)])
    log_r = np.log(radii[in_window])
    moduli = np.abs(window)
    for k in range(moduli.shape[1]):
        col = moduli[:, k]
        slack = 1e-6 * col.max()
        d = np.diff(col)
        if not ((d <= slack).all() or (d >= -slack).all()):
            raise ValueError(
                f"|m_{k + 1}| is not monotone over the fit window; "
                "the path looks unconverged"
            )
    n = moduli.shape[1]
    constants = limit_constants(path[0].profile)
    last = path[-1].m
    fits = []
    for k in range(1, n + 1):
        e_pred = predicted_exponent(k, n)
        slope = float(np.polyfit(log_r, np.log(moduli[:, k - 1]), 1)[0])
        phase = float(np.angle(last[k - 1])) - e_pred * phi0
        fits.append(
            AsymptoticFit(
                component=k,
                measured_exponent=slope,
                predicted_exponent=e_pred,
                measured_phase=phase,
                predicted_phase=predicted_phase(k, n),
                measured_constant=float(abs(last[k - 1]) * r_min ** (-e_pred)),
                predicted_constant=float(constants[k - 1]),
            )
        )
    return fits


@dataclass(frozen=True)
class PairProduct:
    """Product m_k * m_{n+1-k} at the smallest radius vs its limit."""

    k: int
    product: complex
    expected: complex

    @property
    def relative_error(self) -> float:
        return abs(self.product - self.expected) / abs(self.expected)


def pair_product_check(path: list[VdeSolution]) -> list[PairProduct]:
    """Products of opposite components against the limit -1/s_{k,n+1-k}.

    s is the path's profile.  The modulus comes from the constant
    relations, the sign from the phase sum arg m_k + arg m_{n+1-k} -> pi.
    """
    _path_radii_and_angle(path)
    profile = path[-1].profile
    ok, _ = check_assumption_staircase(profile)
    if not ok:
        raise ProfileError("pair products need a staircase profile")
    s = profile.entries
    n = profile.dim
    m = path[-1].m
    return [
        PairProduct(
            k=k,
            product=complex(m[k - 1] * m[n - k]),
            expected=complex(-1.0 / s[k - 1, n - k]),
        )
        for k in range(1, n + 1)
    ]


@dataclass(frozen=True)
class ReduceDiagnostics:
    residual: float
    zero_pattern_matches: bool
    abs_s_min: float
    abs_s_max: float
    max_abs_arg_s: float
    abs_omega_min: float
    abs_omega_max: float
    max_abs_arg_omega: float


def vde_like_reduce(solution: VdeSolution) -> tuple[np.ndarray, np.ndarray, ReduceDiagnostics]:
    """Collapse a block-expanded solution to its n-dim effective equation.

    With ratio vectors rho_k = m^[k]/m^[k]_1 per outer block of the
    solution's profile, which must carry block metadata, the weights
    are omega_k = mean(rho_k) and the effective profile is
    s_hat[j,k] = rho_k . (S-block(k,j) rho_j) / N, mirrored across the
    diagonal so it is exactly symmetric.  The leading block entries
    mhat_k = m^[k]_1 then satisfy -1 = omega_k z mhat_k + mhat_k
    (s_hat mhat)_k up to solver error, an algebraic identity reported in
    the diagnostics together with the effective-coefficient properties
    (zero pattern, modulus range, phase decay of omega and s_hat).
    """
    profile = solution.profile
    if profile.block_meta is None:
        raise ProfileError("reduction needs block metadata on the profile")
    n, inner = profile.block_meta
    m = solution.m.reshape(n, inner)
    rho = m / m[:, :1]
    omega = rho.mean(axis=1)
    mhat = m[:, 0]
    s_hat = np.zeros((n, n), dtype=complex)
    e = profile.entries
    for k in range(n):
        for j in range(k + 1):
            blk = e[k * inner:(k + 1) * inner, j * inner:(j + 1) * inner]
            val = rho[k] @ (blk @ rho[j]) / inner
            s_hat[k, j] = s_hat[j, k] = val
    resid = 1.0 + omega * solution.point.z * mhat + mhat * (s_hat @ mhat)
    block_zero = e[::inner, ::inner] == 0.0
    nz = ~block_zero
    diags = ReduceDiagnostics(
        residual=float(np.max(np.abs(resid))),
        zero_pattern_matches=bool(((s_hat == 0) == block_zero).all()),
        abs_s_min=float(np.abs(s_hat[nz]).min()),
        abs_s_max=float(np.abs(s_hat[nz]).max()),
        max_abs_arg_s=float(np.abs(np.angle(s_hat[nz])).max()),
        abs_omega_min=float(np.abs(omega).min()),
        abs_omega_max=float(np.abs(omega).max()),
        max_abs_arg_omega=float(np.abs(np.angle(omega)).max()),
    )
    return omega, s_hat, diags


@dataclass(frozen=True)
class SweepRow:
    """Normalized-modulus extremes for one inner block size."""

    inner: int
    radius: float
    min_modulus: float
    max_modulus: float
    max_phase_deviation: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    spread_factor: float


def uniform_bound_sweep(
    small: VarianceProfile,
    inner_list,
    noise: float,
    seed: int,
    ray_angle: float,
    radii,
    opts: SolverOptions | None = None,
) -> SweepResult:
    """Check N-independence of the normalized component moduli.

    For each inner size N the small profile is expanded, the ray solved,
    and |m_l| r^{-(1 - 2 ceil(l/N)/(n+1))} recorded at the smallest
    radius.  The spread factor (largest over smallest across every N and
    every component) should stay bounded by an N-independent constant; the
    per-row phase deviation column measures arg(m_l z^{-e}) against
    pi ceil(l/N)/(n+1).  Without opts each ray takes solve_path's default
    tolerance.
    """
    inner_list = [int(v) for v in inner_list]
    if not inner_list:
        raise ValueError("need at least one inner block size")
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("need at least one radius")
    n = small.dim
    rows = []
    lo, hi = math.inf, 0.0
    for inner in inner_list:
        prof = expand_profile(small, inner, noise=noise, seed=seed)
        path = solve_path(prof, ray_angle, radii, opts)
        sol = path[-1]
        r = abs(sol.point.z)
        k_outer = np.repeat(np.arange(1, n + 1), inner)
        e = predicted_exponent(k_outer, n)
        norm_mod = np.abs(sol.m) * r ** (-e)
        phase_dev = np.abs(np.angle(sol.m) - e * ray_angle - predicted_phase(k_outer, n))
        rows.append(
            SweepRow(
                inner=inner,
                radius=r,
                min_modulus=float(norm_mod.min()),
                max_modulus=float(norm_mod.max()),
                max_phase_deviation=float(phase_dev.max()),
            )
        )
        lo = min(lo, float(norm_mod.min()))
        hi = max(hi, float(norm_mod.max()))
    return SweepResult(rows=tuple(rows), spread_factor=hi / lo)

"""Vector Dyson equation solver with ray continuation.

Solves -1/m = z + Sm for m in the upper half-plane at spectral points
z = E + i*eta, eta > 0.  Each iteration first tries a Newton step in log
coordinates; when its line search fails, it takes the averaged
fixed-point half-step m <- (m + Phi(m))/2 with Phi(m) = -1/(z+Sm), which
stays in the upper half-plane and converges from any start (Helton,
Rashidi Far & Speicher, IMRN 2007).  The accepted-iterate invariants
(Im m_k > 0 throughout, final defect below tolerance) are the same
either way.  The solve fails after 50 straight iterations without a new
best residual.  The log parametrization m <- m*exp(delta) matters: the
Jacobian of the raw defect is ill-conditioned like r^{-2(n-1)/(n+1)} near
the singularity, while the log-coordinate Jacobian stays benign all the
way down to the radius floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import VarianceProfile

RADIUS_FLOOR = 1e-8

_STALL_LIMIT = 50
_MAX_BACKTRACK = 30
_LOG_STEP_CAP = 20.0


class SolverError(RuntimeError):
    """Iteration failed: budget exhausted, residual stalled, or a
    fixed-point half-step left the upper half-plane."""


class AnomalyError(RuntimeError):
    """A mathematically guaranteed invariant failed numerically.

    Raised when a quantity the theory pins down (for example the spectral
    norm of the saturation matrix staying below 1, or the solvability of
    the limiting-constant system) comes out wrong; signals a bug or broken
    input rather than ordinary non-convergence.
    """


@dataclass(frozen=True)
class SpectralPoint:
    """Point z = re + i*im in the open upper half-plane."""

    re: float
    im: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("spectral point must be finite")
        if not self.im > 0:
            raise ValueError(f"spectral point needs im > 0, got {self.im}")

    @property
    def z(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-12
    max_iter: int = 10**6

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class VdeSolution:
    """Solution vector at one spectral point with convergence diagnostics.

    residual is the max-norm defect max_k |1/m_k + z + (Sm)_k|; f_norm is
    ||F||_2 of the real symmetric saturation matrix F = |m| S |m|, taken as
    the larger of -lambda_min and lambda_max from a symmetric eigensolve,
    and stays below 1 for every point in the upper half-plane.
    """

    point: SpectralPoint
    m: np.ndarray
    residual: float
    iterations: int
    f_norm: float

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    def to_json_dict(self) -> dict:
        return {
            "z": [self.point.re, self.point.im],
            "m": [[v.real, v.imag] for v in self.m],
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "f_norm": float(self.f_norm),
        }


def _symmetric_norm2(a: np.ndarray) -> float:
    """||a||_2 of a real symmetric matrix: max(-lambda_min, lambda_max).

    Both ends of the spectrum count: near the singularity F = |m| S |m|
    can have eigenvalues close to -1 and to +1 at once.
    """
    w = np.linalg.eigvalsh(a)
    return float(max(-w[0], w[-1]))


def _defect_norm(m: np.ndarray, z: complex, s: np.ndarray) -> float:
    return float(np.max(np.abs(1.0 / m + z + s @ m)))


def _try_log_newton(m: np.ndarray, z: complex, s: np.ndarray) -> np.ndarray | None:
    """One backtracked Newton step on g(m) = m*(z+Sm)+1 in log coordinates.

    Returns the accepted iterate or None when no step with the required
    decrease in max|g| keeps the iterate in the upper half-plane.
    """
    g = 1.0 + m * (z + s @ m)
    # diag(g - 1) + M S M, built in place in the order (m_k s_kj) m_j
    jac = m[:, None] * s
    jac *= m
    jac.flat[:: m.size + 1] += g - 1.0
    try:
        delta = np.linalg.solve(jac, -g)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(delta).all():
        return None
    g_ref = np.max(np.abs(g))
    t = 1.0
    for _ in range(_MAX_BACKTRACK):
        step = t * delta
        if np.max(np.abs(step)) < _LOG_STEP_CAP:
            trial = m * np.exp(step)
            if (trial.imag > 0).all():
                g_new = np.max(np.abs(1.0 + trial * (z + s @ trial)))
                if np.isfinite(g_new) and g_new < g_ref:
                    return trial
        t *= 0.5
    return None


def solve(
    profile: VarianceProfile,
    point: SpectralPoint,
    opts: SolverOptions | None = None,
    warm_start=None,
) -> VdeSolution:
    """Solve -1/m = z + Sm at one point.

    Starts from i*(1,...,1) unless warm_start is given.  When z is exactly
    on the imaginary axis (re == 0.0) and the start vector is purely
    imaginary, every accepted iterate stays purely imaginary in exact
    arithmetic, a symmetry the solver preserves bit-for-bit.

    Raises SolverError on iteration-budget exhaustion, on 50 straight
    iterations without a new best residual, or when a fixed-point
    half-step is non-finite or leaves the upper half-plane; AnomalyError
    unless the solved point has ||F||_2 < 1 for F = |m| S |m|, with
    ||F||_2 = max(-lambda_min, lambda_max) of F.
    """
    if opts is None:
        opts = SolverOptions()
    # one complex copy of S per solve; a mixed real/complex s @ m would
    # make the same copy inside numpy on every product
    s = profile.entries.astype(complex)
    z = point.z
    if warm_start is not None:
        m = np.array(warm_start, dtype=complex)
        if m.shape != (profile.dim,):
            raise ValueError(
                f"warm start shape {m.shape} does not match dim {profile.dim}"
            )
        if not (m.imag > 0).all():
            raise ValueError("warm start must lie in the upper half-plane")
    else:
        m = 1j * np.ones(profile.dim)

    iterations = 0
    residual = best = _defect_norm(m, z, s)
    stalled = 0
    while residual > opts.tol:
        if iterations >= opts.max_iter:
            raise SolverError(
                f"no convergence in {opts.max_iter} iterations, "
                f"last residual {residual:.3e}"
            )
        trial = _try_log_newton(m, z, s)
        if trial is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                trial = 0.5 * (m - 1.0 / (z + s @ m))
            if not (np.isfinite(trial).all() and (trial.imag > 0).all()):
                raise SolverError(
                    "fixed-point half-step is non-finite or left the upper "
                    f"half-plane, last residual {residual:.3e}"
                )
        m = trial
        iterations += 1
        residual = _defect_norm(m, z, s)
        if residual < best:
            best, stalled = residual, 0
        else:
            stalled += 1
            if stalled >= _STALL_LIMIT:
                raise SolverError(
                    f"residual stalled: no new best in {_STALL_LIMIT} "
                    f"iterations, best {best:.3e}"
                )

    f_norm = _symmetric_norm2(stability_matrix(m, profile))
    if not f_norm < 1.0:
        raise AnomalyError(
            f"saturation matrix norm {f_norm} >= 1 at z = {z}; "
            "the theory forbids this in the upper half-plane"
        )
    return VdeSolution(
        point=point, m=m, residual=residual, iterations=iterations, f_norm=f_norm
    )


def solve_path(
    profile: VarianceProfile,
    ray_angle: float,
    radii,
    opts: SolverOptions | None = None,
) -> list[VdeSolution]:
    """Solve along z = r*exp(i*ray_angle) for strictly descending radii.

    Each point warm-starts from continuation_guess of the points before
    it.  Rays within 1e-15 of the imaginary axis are snapped onto it
    exactly so the pure-imaginary symmetry is preserved.  Radii below 1e-8
    are rejected: double precision cannot resolve the singular scales
    beneath that.  Without opts the tolerance is suggested_tol at the last
    (smallest) radius, the roundoff floor the deepest point can reach.
    """
    if not 0.0 < ray_angle < math.pi:
        raise ValueError(f"ray angle must lie in (0, pi), got {ray_angle}")
    radii = [float(r) for r in radii]
    if not radii:
        return []
    for r in radii:
        if not r > 0:
            raise ValueError(f"radii must be positive, got {r}")
        if r < RADIUS_FLOOR:
            raise ValueError(
                f"radius {r:.3g} below the resolution floor {RADIUS_FLOOR:.0e}"
            )
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly descending")
    if opts is None:
        opts = SolverOptions(tol=suggested_tol(profile, radii[-1]))
    cos_phi = math.cos(ray_angle)
    sin_phi = math.sin(ray_angle)
    if abs(cos_phi) < 1e-15:
        cos_phi = 0.0
    out: list[VdeSolution] = []
    for r in radii:
        point = SpectralPoint(re=cos_phi * r, im=sin_phi * r)
        guess = continuation_guess([sol.m for sol in out[-2:]])
        try:
            sol = solve(profile, point, opts, warm_start=guess)
        except SolverError as exc:
            raise SolverError(f"path failed at radius {r:.6g}: {exc}") from exc
        out.append(sol)
    return out


def continuation_guess(previous) -> np.ndarray | None:
    """Warm start for the next point of a descending continuation.

    previous holds the solution vectors of the points already solved,
    oldest first.  With none the answer is None (a cold start), with one
    it is that vector, and with two or more it is the componentwise secant
    m*(m/m_prev) of the last two, which tracks the power-law drift of the
    components and typically lands within a few Newton steps of the
    solution.  A secant that overflows or leaves the upper half-plane
    falls back to the last vector.
    """
    if not previous:
        return None
    m = previous[-1]
    if len(previous) == 1:
        return m
    secant = m * (m / previous[-2])
    if np.isfinite(secant).all() and (secant.imag > 0).all():
        return secant
    return m


def stability_matrix(m: np.ndarray, profile: VarianceProfile) -> np.ndarray:
    """Saturation matrix F with F_kj = |m_k| s_kj |m_j|, exactly symmetric."""
    am = np.abs(m)
    return profile.entries * np.outer(am, am)


def saturation_identity_residual(
    solution: VdeSolution, profile: VarianceProfile
) -> float:
    """Defect of the exact identity F^2 u = u + (conj(z) I - z F)|m|, u = m/|m|.

    The identity holds with equality at the true solution for every z in
    the upper half-plane, so the returned normalized-L2 norm measures
    solver error, not model error; it should stay below
    100*tol*(1+||m||_2)^2.
    """
    m = solution.m
    z = solution.point.z
    am = np.abs(m)
    u = m / am
    f = stability_matrix(m, profile)
    defect = f @ (f @ u) - u - (np.conj(z) * am - z * (f @ am))
    return float(np.sqrt(np.mean(np.abs(defect) ** 2)))


def suggested_tol(profile: VarianceProfile, r_min: float) -> float:
    """Residual tolerance reachable in double precision at radius r_min.

    Components grow like r^-(n-1)/(n+1) near the singularity, and the
    defect of the solved equation carries a roundoff floor proportional to
    the largest component, so a fixed 1e-12 is unattainable for deep scans
    at larger n.  Returns max(1e-12, 100*eps*r_min^-((n-1)/(n+1))) using
    the outer block count when block metadata is present.
    """
    if not r_min > 0:
        raise ValueError("r_min must be positive")
    n = profile.block_meta[0] if profile.block_meta else profile.dim
    scale = r_min ** (-(n - 1) / (n + 1))
    return max(1e-12, 100.0 * float(np.finfo(float).eps) * scale)

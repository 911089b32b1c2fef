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
way down to the radius floor.  The iteration is written once, batched
over P points that each keep their own state; solve is its P=1 case, and
rho_grid solves a whole eta level in it.

The Newton step solves J delta = -g with J = diag(g-1) + M S M, M =
diag(m), by a dense LU, except that a profile with block metadata (n
outer blocks of size N) and dim at least _KRYLOV_MIN_DIM never builds
J: each row runs right-preconditioned GMRES on the matvec
J v = (g-1)v + m(S(mv)) (Knoll & Keyes, JCP 2004).  The preconditioner
is J with S replaced by its block means S_bar = U C U^T, C the n x n
means and U the block indicator, so it is diagonal plus rank n and
Woodbury applies its inverse in O(dim*n + n^3) without inverting C; this
is the reduced n-dim system of vde_like_reduce.  A row whose GMRES misses
its tolerance within the iteration cap, or whose n x n Woodbury system is
singular or non-finite, takes the dense direction for that step.  The
line search, fallback, stall rule, residual test and f_norm check judge
every step the same way on either path, so an inexact direction can cost
a backtrack but cannot let a wrong iterate pass.

Every solved point must show ||F||_2 < 1 for the saturation matrix
F = |m| S |m|.  F is entrywise non-negative, so ||F||_2 is its Perron
root, its largest eigenvalue (Perron-Frobenius).  On the dense path
f_norm is lambda_max of a symmetric eigensolve of F.  On the GMRES path F
is never built: a block subspace iteration on the map X -> |m|(S(|m|X)),
started from the n columns |m| U, brackets that root between the Rayleigh
quotient theta of its top Ritz vector x and the Collatz-Wielandt bound
max_k (Fx)_k / x_k, valid once x > 0.  The block start spans the n
outlier eigenvalues of F together, so the iteration converges at the
ratio of the noise bulk to the outliers, not at the small gap between the
top two eigenvalues that stalls a single-vector power or Lanczos
iteration.  A row is certified, with f_norm = theta, when the two bounds
agree to 1e-14 relative and the upper one is below 1; a row that is not
certified within _PERRON_MAX_STEPS steps takes the eigensolve.  The
complex S and the block means are computed once per profile.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .profiles import VarianceProfile

RADIUS_FLOOR = 1e-8

_STALL_LIMIT = 50
_MAX_ITER = 10**6
_MAX_BACKTRACK = 30
_LOG_STEP_CAP = 20.0
# Block profiles from this dim up take the GMRES step.  Whole noisy rays
# on one BLAS thread: dense wins up to dim 120, the two tie at 144 and
# GMRES wins from 168 up (ROADMAP item 1 has the table).
_KRYLOV_MIN_DIM = 144
# block rays need at most 8 iterations; a row past the cap takes the dense LU
_GMRES_RTOL = 1e-10
_GMRES_MAX_ITER = 20
# block rays certify their Perron root in 8-14 steps (1 at noise 0); a row
# past the cap takes the eigensolve.  The bounds enclose ||F||_2, so bounds
# 1e-14 apart give it to 1e-14 relative, up to the roundoff of F x.
_PERRON_MAX_STEPS = 30
_PERRON_RTOL = 1e-14


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

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class VdeSolution:
    """Solution vector at one spectral point with convergence diagnostics.

    residual is the max-norm defect max_k |1/m_k + z + (Sm)_k|; f_norm is
    ||F||_2 of the real symmetric saturation matrix F = |m| S |m| and stays
    below 1 for every point in the upper half-plane.  F is entrywise
    non-negative, so that is its largest eigenvalue, lambda_max from a
    symmetric eigensolve, except on the GMRES path, where it is the Perron
    root of F certified to 1e-14 relative by a block subspace iteration
    (see the module docstring).
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


def _symmetric_norm2(a: np.ndarray) -> np.ndarray:
    """||a||_2 of a real symmetric entrywise non-negative matrix or stack.

    By Perron-Frobenius no eigenvalue of such a matrix, F = |m| S |m| here,
    exceeds lambda_max in modulus, so the norm is lambda_max.
    """
    return np.linalg.eigvalsh(a)[..., -1]


def _perron_root(s: np.ndarray, am: np.ndarray, n: int) -> float:
    """Certified ||F||_2 of F = diag(am) S diag(am) for a block profile.

    s is the real non-negative S with n outer blocks and am = |m| > 0, so
    ||F||_2 is the Perron root of F.  Block subspace iteration from the n
    columns am * U, U the block indicator, with a thin QR and a
    Rayleigh-Ritz step each time; F is applied as am * (S (am * X)) and
    never built.  The top Ritz vector x, once positive, brackets the root
    between theta = x^T F x / x^T x and c = max_k (Fx)_k / x_k.  Returns
    theta once c - theta <= _PERRON_RTOL * theta and c < 1, and NaN when
    the bounds meet at c >= 1 or have not met within _PERRON_MAX_STEPS.
    """
    # the iterates are the rows of x: X^T S is (S X)^T for the symmetric S
    # and runs faster than S X with so few columns
    x = (np.eye(n)[:, :, None] * am.reshape(n, -1)).reshape(n, -1)
    for _ in range(_PERRON_MAX_STEPS):
        q = np.linalg.qr(x.T)[0].T
        fq = ((q * am) @ s) * am
        w = np.linalg.eigh(fq @ q.T)[1][:, -1]
        v, fv = w @ q, w @ fq
        if v.sum() < 0.0:
            v, fv = -v, -fv
        if (v > 0.0).all():
            theta = float(v @ fv / (v @ v))
            c = float((fv / v).max())
            if c - theta <= _PERRON_RTOL * theta:
                return theta if c < 1.0 else math.nan
        x = fq
    return math.nan


def _f_norms(m: np.ndarray, profile: VarianceProfile, perron: bool) -> np.ndarray:
    """||F||_2 of each row of m: by the eigensolve, or if perron by
    _perron_root, with the eigensolve for the rows it does not certify."""
    if not perron:
        return _symmetric_norm2(stability_matrix(m, profile))
    n = profile.block_meta[0]
    out = np.array([_perron_root(profile.entries, am, n) for am in np.abs(m)])
    rest = np.isnan(out)
    if rest.any():
        out[rest] = _symmetric_norm2(stability_matrix(m[rest], profile))
    return out


def _matvec(s: np.ndarray, m: np.ndarray) -> np.ndarray:
    # S m per row, bit for bit the s @ m of one vector (m @ s.T is not)
    return (s @ m[..., None])[..., 0]


def _defect_norms(m: np.ndarray, z: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.abs(1.0 / m + z[:, None] + _matvec(s, m)).max(axis=1)


def _jacobian(m: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    # diag(g - 1) + M S M per row, built in place in the order (m_k s_kj) m_j
    jac = m[:, :, None] * s
    jac *= m[:, None, :]
    jac.reshape(len(m), -1)[:, :: m.shape[1] + 1] += g - 1.0
    return jac


def _newton_directions(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each jac[p] delta[p] = rhs[p]; a singular jac[p] gives NaNs."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack
        delta = np.full_like(rhs, np.nan)
        for p in range(len(rhs)):
            with contextlib.suppress(np.linalg.LinAlgError):
                delta[p] = np.linalg.solve(jac[p], rhs[p])
        return delta


def _block_mean_preconditioner(m: np.ndarray, gm1: np.ndarray, means: np.ndarray):
    """Inverse of P = D + A C A^T, D = diag(gm1), A = diag(m) U, by Woodbury.

    P is the log-coordinate Jacobian of one row with S replaced by its
    block means U C U^T.  P^-1 = D^-1 - D^-1 A C (I + diag(w) C)^-1 A^T D^-1
    with w_a = sum over block a of m_k^2 / gm1_k needs no inverse of C,
    which a staircase makes singular.  Returns the map v -> P^-1 v, or
    None when D or the n x n system is singular or non-finite.
    """
    n = len(means)
    a = m / gm1
    w = (m * a).reshape(n, -1).sum(axis=1)
    try:
        core = means @ np.linalg.inv(np.eye(n) + w[:, None] * means)
    except np.linalg.LinAlgError:
        return None
    if not (np.isfinite(core).all() and np.isfinite(a).all()):
        return None
    blocks = a.reshape(n, -1)

    def apply(v: np.ndarray) -> np.ndarray:
        y = core @ (blocks * v.reshape(n, -1)).sum(axis=1)
        return v / gm1 - (blocks * y[:, None]).ravel()

    return apply


def _gmres(apply_j, apply_p, b: np.ndarray):
    """Solve J x = b by right-preconditioned GMRES from x = 0.

    apply_j and apply_p map a vector to J v and P^-1 v.  Stops once the
    residual |b - J x| is at most _GMRES_RTOL |b|.  Returns x and the
    iteration count; x is None when the tolerance is missed within
    _GMRES_MAX_ITER iterations or the iteration breaks down.
    """
    cap = _GMRES_MAX_ITER
    beta = float(np.linalg.norm(b))
    if not 0.0 < beta < math.inf:
        return None, 0
    basis = np.empty((cap + 1, b.size), dtype=complex)
    basis[0] = b / beta
    tri = np.zeros((cap, cap), dtype=complex)  # the rotated Hessenberg matrix
    rot: list[tuple[float, complex]] = []
    res = [complex(beta)]  # the rotated right-hand side beta e_1
    for j in range(cap):
        w = apply_j(apply_p(basis[j]))
        h = np.zeros(j + 1, dtype=complex)
        for _ in range(2):  # classical Gram-Schmidt, once more to reorthogonalize
            proj = basis[: j + 1].conj() @ w
            w -= proj @ basis[: j + 1]
            h += proj
        norm = float(np.linalg.norm(w))
        col = h.tolist()
        col.append(complex(norm))
        for i, (c, sn) in enumerate(rot):
            col[i], col[i + 1] = (c * col[i] + sn * col[i + 1],
                                  c * col[i + 1] - sn.conjugate() * col[i])
        r = math.hypot(abs(col[j]), norm)
        if not 0.0 < r < math.inf:
            return None, j + 1
        c = abs(col[j]) / r
        sn = (col[j] / abs(col[j]) if col[j] else 1.0) * norm / r
        rot.append((c, sn))
        col[j] = c * col[j] + sn * norm
        tri[: j + 1, j] = col[: j + 1]
        res.append(-sn.conjugate() * res[j])
        res[j] *= c
        if abs(res[j + 1]) <= _GMRES_RTOL * beta:
            y = np.linalg.solve(tri[: j + 1, : j + 1], res[: j + 1])
            return apply_p(y @ basis[: j + 1]), j + 1
        basis[j + 1] = w / norm
    return None, cap


def _krylov_directions(m: np.ndarray, g: np.ndarray, s: np.ndarray,
                       means: np.ndarray) -> np.ndarray:
    """Newton directions by GMRES row by row; a row it fails takes the dense one."""
    delta = np.empty_like(g)
    dense = []
    for p in range(len(m)):
        mp, gm1 = m[p], g[p] - 1.0
        precond = _block_mean_preconditioner(mp, gm1, means)
        x = None
        if precond is not None:
            x, _ = _gmres(lambda v: gm1 * v + mp * (s @ (mp * v)), precond, -g[p])
        if x is None or not np.isfinite(x).all():
            dense.append(p)
        else:
            delta[p] = x
    if dense:
        delta[dense] = _newton_directions(_jacobian(m[dense], g[dense], s), -g[dense])
    return delta


def _log_newton(m: np.ndarray, z: np.ndarray, s: np.ndarray, means=None):
    """One backtracked Newton step on g(m) = m*(z+Sm)+1 in log coordinates.

    The direction comes from a dense solve, or from GMRES when means holds
    the n x n block means of S.  Each row halves its step up to 30 times
    until it is below the cap, the iterate stays in the upper half-plane
    and max|g| drops.  Returns the new iterates and a mask of the rows
    that stepped; the rest keep theirs.
    """
    z = z[:, None]
    g = 1.0 + m * (z + _matvec(s, m))
    if means is None:
        delta = _newton_directions(_jacobian(m, g, s), -g)
    else:
        delta = _krylov_directions(m, g, s, means)
    g_ref = np.abs(g).max(axis=1)
    finite = todo = np.isfinite(delta).all(axis=1)
    out, t = m, 1.0
    for _ in range(_MAX_BACKTRACK):
        step = t * delta
        trial = m * np.exp(step)
        g_new = np.abs(1.0 + trial * (z + _matvec(s, trial))).max(axis=1)
        ok = todo & (np.abs(step).max(axis=1) < _LOG_STEP_CAP)
        ok &= (trial.imag > 0).all(axis=1) & (g_new < g_ref)  # NaN fails too
        if ok.all():
            return trial, ok
        out = np.where(ok[:, None], trial, out)
        todo = todo & ~ok
        if not todo.any():
            break
        t *= 0.5
    return out, finite & ~todo


def _solve_points(profile: VarianceProfile, z, tol, m):
    """Solve -1/m = z + Sm at P points at once, each by the rules of solve.

    z and tol have shape (P,), the start vectors m (P, dim), None for
    i*(1,...,1).  A failing row raises the error of solve, naming its z.
    Returns m, the residuals, the iteration counts and the f_norms.
    """
    s = profile.complex_entries
    means = profile.block_means if profile.dim >= _KRYLOV_MIN_DIM else None
    m = np.full((len(z), profile.dim), 1j) if m is None else np.array(m, dtype=complex)
    iterations = np.zeros(len(z), dtype=int)
    # each row computes every trial step and drops it when done, past the
    # cap or out of the half-plane, so overflow there is harmless
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        residual = _defect_norms(m, z, s)
        # the rows still iterating with their packed state; best_at is the
        # iteration of a row's best residual
        rows = np.flatnonzero(~(residual <= tol))  # a NaN residual iterates
        ma, za, ta, best = m[rows], z[rows], tol[rows], residual[rows]
        best_at = np.zeros(rows.size, dtype=int)
        k = 0
        while rows.size:
            if k >= _MAX_ITER:
                raise SolverError(f"no convergence in {_MAX_ITER} iterations at z = "
                                  f"{za[0]}, last residual {residual[rows[0]]:.3e}")
            ma, newton = _log_newton(ma, za, s, means)
            if not newton.all():
                half = ~newton
                step = 0.5 * (ma[half] - 1.0 / (za[half, None] + _matvec(s, ma[half])))
                bad = ~(np.isfinite(step).all(axis=1) & (step.imag > 0).all(axis=1))
                if bad.any():
                    i = np.flatnonzero(half)[bad.argmax()]
                    raise SolverError("fixed-point half-step is non-finite or left "
                                      f"the upper half-plane at z = {za[i]}, last "
                                      f"residual {residual[rows[i]]:.3e}")
                ma[half] = step
            k += 1
            res = residual[rows] = _defect_norms(ma, za, s)
            best_at[res < best] = k
            best = np.fmin(best, res)  # a NaN residual is no new best
            if k - best_at.min() >= _STALL_LIMIT:
                i = best_at.argmin()
                raise SolverError(f"residual stalled at z = {za[i]}: no new best "
                                  f"in {_STALL_LIMIT} iterations, best {best[i]:.3e}")
            go = ~(res <= ta)
            if not go.all():
                m[rows[~go]], iterations[rows[~go]] = ma[~go], k
                state = (rows, ma, za, ta, best, best_at)
                rows, ma, za, ta, best, best_at = (a[go] for a in state)

    f_norm = _f_norms(m, profile, means is not None)
    if not (f_norm < 1.0).all():
        i = (~(f_norm < 1.0)).argmax()
        raise AnomalyError(f"saturation matrix norm {f_norm[i]} >= 1 at z = {z[i]}; "
                           "the theory forbids this in the upper half-plane")
    return m, residual, iterations, f_norm


def solve(
    profile: VarianceProfile,
    point: SpectralPoint,
    opts: SolverOptions | None = None,
    warm_start=None,
) -> VdeSolution:
    """Solve -1/m = z + Sm at one point: the P=1 case of the batched solve.

    Without opts the tolerance is 1e-12, which one point often beats by
    far (stair8 at r = 1e-8, arg 0.02: 2.2e-16, against 8.5e-10 at
    suggested_tol); from |z| ~ 1e5 on pass suggested_tol(profile, abs(z)).
    Starts from i*(1,...,1) unless warm_start is given.  Newton directions
    come from a dense LU of the log-coordinate Jacobian, or, for a profile
    with block metadata and dim >= _KRYLOV_MIN_DIM, from GMRES
    preconditioned by the block-mean Jacobian, with the dense LU as the
    fallback for a step GMRES misses; convergence is judged on the true
    defect either way.  When z is exactly
    on the imaginary axis (re == 0.0) and the start vector is purely
    imaginary, every accepted iterate stays purely imaginary in exact
    arithmetic, a symmetry the solver preserves bit-for-bit.

    Raises ValueError for a warm start of the wrong shape, not finite or
    outside the upper half-plane; SolverError on iteration-budget
    exhaustion, on 50 straight iterations without a new best residual, or
    when a fixed-point half-step is non-finite or leaves the upper
    half-plane; AnomalyError unless the solved point has ||F||_2 < 1 for
    F = |m| S |m|.  Each message names z.  On the GMRES path ||F||_2 is the
    Perron root of F, certified by Rayleigh and Collatz-Wielandt bounds
    that agree to 1e-14 relative with the upper one below 1; otherwise,
    and for a point the bounds do not certify, it is lambda_max of F from
    a symmetric eigensolve.
    """
    if opts is None:
        opts = SolverOptions()
    m = warm_start
    if m is not None:
        m = np.array(m, dtype=complex)
        if m.shape != (profile.dim,):
            raise ValueError(
                f"warm start shape {m.shape} does not match dim {profile.dim}"
            )
        if not np.isfinite(m).all():
            raise ValueError("warm start must be finite")
        if not (m.imag > 0).all():
            raise ValueError("warm start must lie in the upper half-plane")
        m = m[None]
    z, tol = np.array([point.z]), np.array([opts.tol])
    m, residual, iterations, f_norm = _solve_points(profile, z, tol, m)
    return VdeSolution(point, m[0], float(residual[0]), int(iterations[0]),
                       float(f_norm[0]))


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
    beneath that.  Without opts each point solves at suggested_tol over
    the smallest radius and its own, so a far-field start cannot loosen
    the deep end.
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
    cos_phi = math.cos(ray_angle)
    sin_phi = math.sin(ray_angle)
    if abs(cos_phi) < 1e-15:
        cos_phi = 0.0
    out: list[VdeSolution] = []
    for r in radii:
        point = SpectralPoint(re=cos_phi * r, im=sin_phi * r)
        guess = continuation_guess([sol.m for sol in out[-2:]])
        point_opts = opts or SolverOptions(tol=suggested_tol(profile, radii[-1], r))
        out.append(solve(profile, point, point_opts, warm_start=guess))
    return out


def continuation_guess(previous) -> np.ndarray | None:
    """Warm start for the next point of a descending continuation.

    previous holds the solution vectors of the points already solved,
    oldest first, each one vector or a (P, dim) stack of them.  With none
    the answer is None (a cold start), with one it is that vector, and
    with two or more it is the componentwise secant m*(m/m_prev) of the
    last two, which tracks the power-law drift of the components and
    typically lands within a few Newton steps of the solution.  A secant
    that overflows or leaves the upper half-plane falls back to the last
    vector, row by row in a stack.
    """
    if not previous:
        return None
    m = previous[-1]
    if len(previous) == 1:
        return m
    secant = m * (m / previous[-2])
    ok = np.isfinite(secant).all(axis=-1) & (secant.imag > 0).all(axis=-1)
    if ok.all():
        return secant
    return np.where(ok[..., None], secant, m) if m.ndim > 1 else m


def stability_matrix(m: np.ndarray, profile: VarianceProfile) -> np.ndarray:
    """Saturation matrix F_kj = |m_k| s_kj |m_j|, exactly symmetric (m may stack)."""
    am = np.abs(m)
    return profile.entries * (am[..., :, None] * am[..., None, :])


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


def suggested_tol(profile: VarianceProfile, *radii: float) -> float:
    """The default residual tolerance for a solve spanning radii |z|.

    The defect |1/m + z + Sm| has a roundoff floor proportional to its
    largest term: near the singularity the largest component, growing like
    r^-(n-1)/(n+1), far out z itself, as 1/m ~ -z cancels against it.
    Returns the largest max(1e-12, 100*eps*max(r^-((n-1)/(n+1)), r)) over
    the radii, with n the outer block count of a block profile.
    """
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValueError(f"need one or more positive finite radii, got {radii}")
    n = profile.block_meta[0] if profile.block_meta else profile.dim
    floor = 100.0 * float(np.finfo(float).eps)
    return max(1e-12, *(floor * max(r ** (-(n - 1) / (n + 1)), r) for r in radii))

"""Vector Dyson equation solver with ray continuation.

Solves -1/m = z + Sm for m in the upper half-plane at spectral points
z = E + i*eta, eta > 0.  Each iteration first tries a Newton step in log
coordinates; when its line search fails, it takes the averaged
fixed-point half-step m <- (m + Phi(m))/2 with Phi(m) = -1/(z+Sm), which
stays in the upper half-plane and converges from any start (Helton,
Rashidi Far & Speicher, IMRN 2007).  The accepted-iterate invariants
(Im m_k > 0, final backward error below tolerance) are the same either
way.  A point converges once its componentwise relative backward error
omega = max_k |d_k| / (|1/m_k| + |z| + |(Sm)_k|), d = 1/m + z + Sm, is
at most the tolerance (Oettli & Prager, Numer. Math. 1964), so one
tolerance serves every growth law of m and the far field.  The solve
fails after 50 straight iterations without a new best absolute defect
max_k |d_k|; far from the solution omega sits near 1.  The log
parametrization m <- m*exp(delta) matters: the Jacobian of the raw
defect is ill-conditioned like r^{-2(n-1)/(n+1)} near the singularity,
while the log-coordinate Jacobian stays benign all the way down to the
radius floor.  The iteration is written once, batched over P points that
each keep their own state; solve is its P=1 case, rho_grid solves a
chunk of its mesh per eta level in it, and solve_path each batch of a
ray: one radius on the dense path, a decade on the Krylov path below.
Each batcher sizes its batches to fit _STACK_BYTES (_stack_rows).  Each
S product of all rows multiplies the real symmetric S with the stacked
rows (Re m; Im m).  On the dense path it is one real GEMM: there a product
takes a few microseconds, and each further GEMM call adds one to five.  On
the Krylov path it is one GEMM per column run of S
(VarianceProfile.column_runs), which never reads the zero outer blocks
outside each run's row extent, n(n-1)/2 of the n^2 blocks of a
staircase.  Each iterate carries its product S m: the line search's
S*trial of an accepted row is reused by the defect and the next Newton
step, so each iterate costs one product.

The Newton step solves J delta = -g with J = diag(g-1) + M S M, M =
diag(m), by a dense LU, except that a profile with block metadata (n
outer blocks of size N) and dim at least _KRYLOV_MIN_DIM never builds
J: the rows run right-preconditioned GCR on the matvec
J v = (g-1)v + m(S(mv)) (Knoll & Keyes, JCP 2004) in lock-step, each
product S(mv) of all rows again one product by column runs.  The
preconditioner is J with S replaced by its block means
S_bar = U C U^T, C the n x n means and U the block indicator, so it is
diagonal plus rank n and Woodbury applies its inverse in
O(dim*n + n^3) without inverting C, from an n x n core per row solved
as one stack; this is the reduced n-dim system of vde_like_reduce.  GCR
(generalized conjugate residuals; Eisenstat, Elman & Schultz, SIAM J.
Numer. Anal. 1983) minimizes the residual over the same Krylov space as
GMRES, keeping the directions and their orthonormal images in place of a
Hessenberg matrix (Saad, Iterative Methods for Sparse Linear Systems,
2nd ed., 6.9 and 9.3).  A row stops once its residual meets the
tolerance.  A row takes the dense direction for that step when its GCR
breaks down (where GMRES would stagnate) or misses the tolerance within
the iteration cap, or when its n x n Woodbury system is singular or
non-finite.  The line search, fallback, stall rule,
convergence test and ||F||_2 check judge every step the same way on
either path, so an inexact direction can cost a backtrack but cannot let a
wrong iterate pass.

Every solved point must show ||F||_2 < 1 for the saturation matrix
F = |m| S |m|.  The imaginary part of the equation gives F u = u - Im z |m|
for u = Im m/|m| > 0 (Ajanki, Erdos & Kruger, Mem. AMS 2019), so the
Collatz-Wielandt bound c = max_k (Fu)_k/u_k = max_k |m_k|^2 (S Im m)_k /
Im m_k is an upper bound on the Perron root of F, which is ||F||_2 since F
is entrywise non-negative and symmetric (Meyer, Matrix Analysis and
Applied Linear Algebra, SIAM 2000, 8.3).  S Im m = Im(S m) is the carried
product of the final iterate, a sum of non-negative terms, so inflating c
by 1 + (dim + 8) eps covers its roundoff.  With the defect d = 1/m + z +
Sm, c_k = 1 + |m_k|^2 (Im d_k - Im z)/Im m_k: a point certifies with no
further work unless some Im d_k reaches Im z.  Only such a row computes
||F||_2 itself, and raises SolverError unless it is below 1: at a
solution ||F||_2 < 1 always, so a reading of 1 or more is a failure of
accuracy, never of the theory.

That value, VdeSolution.f_norm, is computed when it is first read.  On
the dense path it is lambda_max of a symmetric eigensolve of F.  On the
Krylov path F is never built: a block subspace iteration on the map
X -> |m|(S(|m|X)), S applied by column runs and started from the n
columns |m| U, brackets the Perron root between the Rayleigh quotient
theta of its top Ritz vector x and the Collatz-Wielandt bound
max_k (Fx)_k / x_k, valid once x > 0 or x < 0.
The block start spans the n outlier eigenvalues of F together, so the
iteration converges at the ratio of the noise bulk to the outliers, not
at the small gap between the top two eigenvalues that stalls a
single-vector power or Lanczos iteration.  A point is certified, with
f_norm = theta, when the two bounds agree to 1e-14 relative and the
upper one is below 1; a point that is not certified within
_PERRON_MAX_STEPS steps takes the eigensolve.  Each point iterates on
its own: a read needs one root, and a row the solve's bound declines is
rare.  The block means are computed once per profile.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import VarianceProfile

RADIUS_FLOOR = 1e-8

_STALL_LIMIT = 50
_MAX_ITER = 10**6
_MAX_BACKTRACK = 30
_LOG_STEP_CAP = 20.0
# Block profiles from this dim up take the Krylov step.  It was set where
# the two paths tied one radius at a time.  With products by column runs,
# on the 33-point noisy rays pi/2 and 0.3 pi together (n = 3, noise 0.5,
# seed N, r = 1e-1 .. 1e-5, one BLAS thread, best of 15, five runs) dim 96
# takes 41-45 ms dense against 44-47 ms Krylov, and the Krylov path wins
# at 120 (47-51 ms against 57-86 ms) and 144 (46-48 ms against 77-86 ms).
# It stays at 144, so reports of dims 120-143 keep their digits.
_KRYLOV_MIN_DIM = 144
# block_ray's rays need at most 9 iterations, and n = 4 rays at noise 0.9
# at most 11; a row past the cap takes the dense LU
_KRYLOV_RTOL = 1e-10
_KRYLOV_MAX_ITER = 20
# block rays certify their Perron root in 8-14 steps (1 at noise 0); a row
# past the cap takes the eigensolve.  The bounds enclose ||F||_2, so bounds
# 1e-14 apart give it to 1e-14 relative, up to the roundoff of F x.
_PERRON_MAX_STEPS = 30
_PERRON_RTOL = 1e-14
# bytes the stacked work arrays of one batched solve may take
_STACK_BYTES = 1 << 23


class SolverError(RuntimeError):
    """Iteration failed: budget exhausted, residual stalled, a fixed-point
    half-step left the upper half-plane, or a solved point is not accurate
    enough at its Im z to show ||F||_2 < 1."""


class AnomalyError(RuntimeError):
    """A mathematically guaranteed invariant failed numerically.

    Raised when a quantity the theory pins down (for example the
    solvability of the limiting-constant system) comes out wrong; signals a
    bug or broken input rather than ordinary non-convergence.
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
    tol: float = 1e-14  # bound on each point's relative backward error

    def __post_init__(self) -> None:
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class VdeSolution:
    """Solution vector at one spectral point with convergence diagnostics.

    residual is the relative backward error omega (module docstring); f_norm is
    ||F||_2 of the real symmetric saturation matrix F = |m| S |m| and stays
    below 1 for every point in the upper half-plane.  The solve certifies
    that bound from m itself (see the module docstring); f_norm is computed
    on first read from profile, the profile the point was solved on.  F is
    entrywise non-negative, so f_norm is its largest eigenvalue, lambda_max
    from a symmetric eigensolve, except on the Krylov path, where it is the
    Perron root of F certified to 1e-14 relative by a block subspace
    iteration.
    """

    point: SpectralPoint
    m: np.ndarray
    residual: float
    iterations: int
    profile: VarianceProfile = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "m", m)

    @functools.cached_property
    def f_norm(self) -> float:
        return float(_f_norms(self.m[None], self.profile)[0])

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


def _perron_root(profile: VarianceProfile, a: np.ndarray) -> float:
    """Certified ||F||_2 of F = diag(a) S diag(a), or NaN.

    S is the real non-negative entries of a block profile with n outer
    blocks and a = |m| > 0, so ||F||_2 is the Perron root of F.  Block
    subspace iteration from the n columns a * U, U the block indicator,
    with a thin QR and a Rayleigh-Ritz step each time; F is applied as
    a * (S (a * X)), S by the profile's cached column runs
    (VarianceProfile.column_runs), and never built.  The top Ritz vector
    x, once x > 0 or x < 0, brackets the root between
    theta = x^T F x / x^T x and c = max_k (Fx)_k / x_k, both unchanged by
    x -> -x.  The root is theta once c - theta <= _PERRON_RTOL * theta
    and c < 1, and NaN when the bounds meet at c >= 1 or have not met
    within _PERRON_MAX_STEPS steps.
    """
    # the iterates are the rows of x: X^T S is (S X)^T for the symmetric S
    # and runs faster than S X with so few columns
    s, runs, n = profile.entries, profile.column_runs, profile.block_meta[0]
    x = (np.eye(n)[:, :, None] * a.reshape(1, n, -1)).reshape(n, -1)
    for _ in range(_PERRON_MAX_STEPS):
        q = np.linalg.qr(x.T)[0].T
        fq = _product(q * a, s, runs) * a
        w = np.linalg.eigh(fq @ q.T)[1][:, -1]
        v, fv = w @ q, w @ fq
        if (v > 0.0).all() or (v < 0.0).all():
            theta = (v * fv).sum() / (v * v).sum()
            c = (fv / v).max()
            if c - theta <= _PERRON_RTOL * theta:
                return float(theta) if c < 1.0 else math.nan
        x = fq
    return math.nan


def _f_norms(m: np.ndarray, profile: VarianceProfile) -> np.ndarray:
    """||F||_2 of each row of m: by the eigensolve, or on the Krylov path by
    _perron_root, with the eigensolve for the rows it does not certify."""
    if not _krylov(profile):
        return _symmetric_norm2(stability_matrix(m, profile))
    out = np.array([_perron_root(profile, a) for a in np.abs(m)])
    rest = np.isnan(out)
    if rest.any():
        out[rest] = _symmetric_norm2(stability_matrix(m[rest], profile))
    return out


def _krylov(profile: VarianceProfile) -> bool:
    """Whether the profile takes the Krylov path: block metadata and dim at
    least _KRYLOV_MIN_DIM."""
    return profile.block_meta is not None and profile.dim >= _KRYLOV_MIN_DIM


def _stack_rows(profile: VarianceProfile) -> int:
    """How many rows of a batched solve fit in _STACK_BYTES, at least 1: a
    row costs the two (_KRYLOV_MAX_ITER, dim) complex GCR bases, the
    directions and their images, on the Krylov path and a (dim, dim)
    complex Jacobian on the dense path."""
    row = 2 * _KRYLOV_MAX_ITER if _krylov(profile) else profile.dim
    return max(1, _STACK_BYTES // (16 * row * profile.dim))


def _product(x: np.ndarray, s: np.ndarray, runs) -> np.ndarray:
    """x S for the real stack x and the real S: one GEMM when runs is
    None, else one GEMM per column run (a, b, lo, hi) of S
    (VarianceProfile.column_runs), x[:, lo:hi] S[lo:hi, a:b] into the
    columns a:b, so the zero blocks outside each run's row extent are
    never read.  An empty extent gives exact zeros.
    """
    if runs is None:
        return x @ s
    y = np.empty((len(x), s.shape[1]))
    for a, b, lo, hi in runs:
        np.matmul(x[:, lo:hi], s[lo:hi, a:b], out=y[:, a:b])
    return y


def _matvec(s: np.ndarray, runs, m: np.ndarray) -> np.ndarray:
    """S m for each row of the complex stack m and the real symmetric S.

    Every row goes in one _product with S and runs on the stacked rows
    (Re m; Im m), as x S is (S x)^T for the symmetric S; an Re m of 0 gives
    a real part of exactly 0.
    """
    y = _product(np.concatenate((m.real, m.imag)), s, runs)
    out = np.empty(m.shape, dtype=complex)
    out.real, out.imag = y[: len(m)], y[len(m):]
    return out


def _saturation_bounds(m: np.ndarray, sm: np.ndarray) -> np.ndarray:
    """Upper bound on ||F||_2, F = |m| S |m|, of each row, from its sm = S m.

    The Collatz-Wielandt bound max_k |m_k|^2 (S Im m)_k / Im m_k of the
    vector Im m/|m|, inflated by 1 + (dim + 8) eps for the roundoff of
    S Im m = Im(sm), a sum of non-negative terms, and of the quotient.  It
    bounds ||F||_2 only if that vector is positive, so a row with some
    Im m_k <= 0 gets NaN.
    """
    bound = (np.abs(m) ** 2 * sm.imag / m.imag).max(axis=1)
    bound *= 1.0 + (m.shape[1] + 8) * np.finfo(float).eps
    bound[~(m.imag > 0.0).all(axis=1)] = np.nan
    return bound


def _defects(m: np.ndarray, z: np.ndarray, sm: np.ndarray):
    """omega and max_k |d_k| of each row, d = 1/m + z + Sm, from its sm = S m."""
    inv = 1.0 / m
    d = np.abs(inv + z[:, None] + sm)
    scale = np.abs(inv) + np.abs(z)[:, None] + np.abs(sm)
    return (d / scale).max(axis=1), d.max(axis=1)


def _jacobian(m: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    # diag(g - 1) + M S M per row, built in place in the order (m_k s_kj) m_j
    jac = m[:, :, None] * s
    jac *= m[:, None, :]
    jac.reshape(len(m), -1)[:, :: m.shape[1] + 1] += g - 1.0
    return jac


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each a[p] x[p] = b[p]; a singular a[p] gives NaNs in x[p]."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:  # one singular matrix fails the whole stack
        x = np.full(b.shape, np.nan, dtype=np.result_type(a, b))
        for p in range(len(b)):
            with contextlib.suppress(np.linalg.LinAlgError):
                x[p] = np.linalg.solve(a[p], b[p])
        return x


def _newton_directions(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve each jac[p] delta[p] = rhs[p]; a singular jac[p] gives NaNs."""
    return _solve_each(jac, rhs[..., None])[..., 0]


def _block_mean_preconditioner(m: np.ndarray, gm1: np.ndarray, means: np.ndarray):
    """Inverse of P = D + A C A^T of each row by Woodbury.

    D = diag(gm1) and A = diag(m) U for the row's m and gm1 = g - 1.

    P is the log-coordinate Jacobian of the row with S replaced by its
    block means U C U^T.  P^-1 = D^-1 - D^-1 A K A^T D^-1 with the n x n core
    K = C (I + diag(w) C)^-1 = (I + C diag(w))^-1 C, w_a the sum over block
    a of m_k^2 / gm1_k, needs no inverse of C, which a staircase makes
    singular; the rows' cores are one stacked solve.  Returns the map
    (v, rows) -> P^-1 v on the stacked vectors v of the given rows, and a
    mask of the rows whose D or n x n system is singular or non-finite.
    """
    p, n = len(m), len(means)
    a = m / gm1
    blocks = a.reshape(p, n, -1)
    w = (m.reshape(blocks.shape) * blocks).sum(axis=2)
    core = _solve_each(np.eye(n) + means * w[:, None, :],
                       np.broadcast_to(means, (p, n, n)))
    bad = ~(np.isfinite(core).all(axis=(1, 2)) & np.isfinite(a).all(axis=1))

    def apply(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        b = blocks[rows]
        y = core[rows] @ (b * v.reshape(b.shape)).sum(axis=2)[..., None]
        return v / gm1[rows] - (b * y).reshape(v.shape)

    return apply, bad


def _gcr(apply_j, apply_p, b: np.ndarray):
    """Solve J x = b for each row of b by right-preconditioned GCR from x = 0.

    The rows run in lock-step.  apply_j(v, rows) and apply_p(v, rows) map
    the stacked vectors v of the given rows of b to J v and P^-1 v.  Each
    iteration takes the direction p = P^-1 r and its image q = J p,
    orthogonalizes q against the earlier images, p following, normalizes
    both and steps along p to minimize |r|, so x minimizes |b - J x| over
    the Krylov space of GMRES.  A row stops once |r| is at most
    _KRYLOV_RTOL |b|.  Returns x and each row's iteration count; a row of x
    is NaN when its |b| is 0 or not finite, when its q vanishes (where
    GMRES would stagnate) or when it misses the tolerance within
    _KRYLOV_MAX_ITER iterations.
    """
    x = np.full_like(b, np.nan)
    its = np.zeros(len(b), dtype=int)
    # the norm of a complex inf warns, so only finite rows take one
    rows = np.flatnonzero(np.isfinite(b).all(axis=1))
    beta = np.linalg.norm(b[rows], axis=1)
    keep = (0.0 < beta) & (beta < math.inf)
    rows, tol = rows[keep], _KRYLOV_RTOL * beta[keep]
    # per row: the directions p and their orthonormal images q, x and r
    ps = np.empty((rows.size, _KRYLOV_MAX_ITER, b.shape[1]), dtype=complex)
    qs = np.empty_like(ps)
    xr, r = np.zeros((rows.size, b.shape[1]), dtype=complex), b[rows]
    for j in range(_KRYLOV_MAX_ITER):
        if not rows.size:
            break
        its[rows] = j + 1
        p = apply_p(r, rows)
        q = apply_j(p, rows)
        coef = np.zeros((rows.size, j), dtype=complex)
        for _ in range(2):  # classical Gram-Schmidt, once more to reorthogonalize
            proj = (qs[:, :j].conj() @ q[:, :, None])[:, :, 0]
            q -= (proj[:, None, :] @ qs[:, :j])[:, 0]
            coef += proj
        p -= (coef[:, None, :] @ ps[:, :j])[:, 0]
        norm = np.linalg.norm(q, axis=1)
        ok = (0.0 < norm) & (norm < math.inf)
        # a row whose q vanished scales to 0 without a warning and drops out below
        scale = np.divide(1.0, norm, out=np.zeros_like(norm), where=ok)[:, None]
        ps[:, j], qs[:, j] = p * scale, q * scale
        a = (qs[:, j].conj() * r).sum(axis=1, keepdims=True)
        xr += a * ps[:, j]
        r -= a * qs[:, j]
        done = ok & (np.linalg.norm(r, axis=1) <= tol)
        x[rows[done]] = xr[done]
        go = ok & ~done
        if not go.all():
            rows, ps, qs, xr, r, tol = (v[go] for v in (rows, ps, qs, xr, r, tol))
    return x, its


def _krylov_directions(m: np.ndarray, g: np.ndarray,
                       profile: VarianceProfile) -> np.ndarray:
    """Newton directions by one lock-step GCR over the rows, preconditioned
    by the profile's block means; a row it fails takes the dense direction."""
    s, runs, gm1 = profile.entries, profile.column_runs, g - 1.0
    precond, bad = _block_mean_preconditioner(m, gm1, profile.block_means)

    def apply_j(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        mr = m[rows]
        return gm1[rows] * v + mr * _matvec(s, runs, mr * v)

    delta, _ = _gcr(apply_j, precond, np.where(bad[:, None], np.nan, -g))
    dense = ~np.isfinite(delta).all(axis=1)
    if dense.any():
        delta[dense] = _newton_directions(_jacobian(m[dense], g[dense], s), -g[dense])
    return delta


def _log_newton(m: np.ndarray, sm: np.ndarray, z: np.ndarray,
                profile: VarianceProfile, runs):
    """One backtracked Newton step on g(m) = m*(z+Sm)+1 in log coordinates.

    sm holds the rows' products S m.  runs is None on the dense path, where
    the direction comes from a dense solve, and the profile's column runs
    on the Krylov path, where it comes from GCR; the products use them.  Each
    row halves its step up to 30 times until it is below the cap, the
    iterate stays in the upper half-plane and max|g| drops.  Returns the
    new iterates, their products S m (those of the accepted trials) and a
    mask of the rows that stepped; the rest keep theirs.
    """
    s, z = profile.entries, z[:, None]
    g = 1.0 + m * (z + sm)
    if runs is None:
        delta = _newton_directions(_jacobian(m, g, s), -g)
    else:
        delta = _krylov_directions(m, g, profile)
    g_ref = np.abs(g).max(axis=1)
    finite = todo = np.isfinite(delta).all(axis=1)
    out, s_out, t = m, sm, 1.0
    for _ in range(_MAX_BACKTRACK):
        step = t * delta
        trial = m * np.exp(step)
        s_trial = _matvec(s, runs, trial)
        g_new = np.abs(1.0 + trial * (z + s_trial)).max(axis=1)
        ok = todo & (np.abs(step).max(axis=1) < _LOG_STEP_CAP)
        ok &= (trial.imag > 0).all(axis=1) & (g_new < g_ref)  # NaN fails too
        if ok.all():
            return trial, s_trial, ok
        out = np.where(ok[:, None], trial, out)
        s_out = np.where(ok[:, None], s_trial, s_out)
        todo = todo & ~ok
        if not todo.any():
            break
        t *= 0.5
    return out, s_out, finite & ~todo


def _solve_points(profile: VarianceProfile, z, tol: float, m):
    """Solve -1/m = z + Sm at P points at once, each by the rules of solve.

    z has shape (P,), the start vectors m (P, dim), None for i*(1,...,1);
    every row stops once its relative backward error is at most tol.  The
    caller sizes the batch: at most _stack_rows(profile) rows keep the
    stacked work arrays within _STACK_BYTES.  A failing row raises the
    error of solve, naming its z.  Returns m, the backward errors and
    iterations.  A row is certified ||F||_2 < 1 by _saturation_bounds of
    its final iterate; only a row that bound does not certify computes
    ||F||_2 by _f_norms, and raises SolverError unless it is below 1.
    """
    s = profile.entries
    runs = profile.column_runs if _krylov(profile) else None
    m = np.full((len(z), profile.dim), 1j) if m is None else np.array(m, dtype=complex)
    iterations = np.zeros(len(z), dtype=int)
    # each row computes every trial step and drops it when done, past the
    # cap or out of the half-plane, so overflow there is harmless
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sm = _matvec(s, runs, m)
        residual, defect = _defects(m, z, sm)
        # the rows still iterating with their packed state, each iterate
        # with its product S m; best is a row's smallest absolute defect
        # and best_at the iteration it came at
        rows = np.flatnonzero(~(residual <= tol))  # a NaN residual iterates
        ma, sma, za, best = m[rows], sm[rows], z[rows], defect[rows]
        best_at = np.zeros(rows.size, dtype=int)
        k = 0
        while rows.size:
            if k >= _MAX_ITER:
                raise SolverError(f"no convergence in {_MAX_ITER} iterations at z = "
                                  f"{za[0]}, last residual {residual[rows[0]]:.3e}")
            ma, sma, newton = _log_newton(ma, sma, za, profile, runs)
            if not newton.all():
                half = ~newton
                step = 0.5 * (ma[half] - 1.0 / (za[half, None] + sma[half]))
                bad = ~(np.isfinite(step).all(axis=1) & (step.imag > 0).all(axis=1))
                if bad.any():
                    i = np.flatnonzero(half)[bad.argmax()]
                    raise SolverError("fixed-point half-step is non-finite or left "
                                      f"the upper half-plane at z = {za[i]}, last "
                                      f"residual {residual[rows[i]]:.3e}")
                ma[half], sma[half] = step, _matvec(s, runs, step)
            k += 1
            res, defect = _defects(ma, za, sma)
            residual[rows] = res
            best_at[defect < best] = k
            best = np.fmin(best, defect)  # a NaN defect is no new best
            if k - best_at.min() >= _STALL_LIMIT:
                i = best_at.argmin()
                raise SolverError(f"residual stalled at z = {za[i]}: no new best defect"
                                  f" in {_STALL_LIMIT} iterations, best {best[i]:.3e}")
            go = ~(res <= tol)
            if not go.all():
                done = rows[~go]
                m[done], sm[done], iterations[done] = ma[~go], sma[~go], k
                state = (rows, ma, sma, za, best, best_at)
                rows, ma, sma, za, best, best_at = (a[go] for a in state)
        rest = np.flatnonzero(~(_saturation_bounds(m, sm) < 1.0))  # NaN too

    if rest.size:
        f_norm = _f_norms(m[rest], profile)
        if not (f_norm < 1.0).all():
            j = (~(f_norm < 1.0)).argmax()
            i = rest[j]
            raise SolverError(
                f"saturation matrix norm {f_norm[j]} >= 1 at z = {z[i]}; the theory "
                "forbids this at a solution, so m is not accurate enough: it needs a "
                f"defect with imaginary part >= Im z = {z[i].imag:.3e}: residual "
                f"{residual[i]:.3e}, tol {tol:.3e}")
    return m, residual, iterations


def solve(
    profile: VarianceProfile,
    point: SpectralPoint,
    opts: SolverOptions | None = None,
    warm_start=None,
) -> VdeSolution:
    """Solve -1/m = z + Sm at one point: the P=1 case of the batched solve.

    The solve stops once the relative backward error is at most opts.tol,
    SolverOptions().tol without opts.  Starts from i*(1,...,1) unless
    warm_start is given.  Newton directions come from a dense LU of the
    log-coordinate Jacobian, or, for a profile with block metadata and
    dim >= _KRYLOV_MIN_DIM, from GCR, preconditioned by the block-mean
    Jacobian, with the dense LU as the fallback for a step GCR misses;
    convergence is judged on the true backward error either way.  Both
    paths multiply by the real S, one real product each for Re m and Im m.
    When z is exactly on the imaginary axis (re == 0.0) and the start
    vector is purely imaginary, every accepted iterate stays purely
    imaginary in exact arithmetic, a symmetry the solver preserves
    bit-for-bit.

    Raises ValueError for a warm start of the wrong shape, not finite or
    outside the upper half-plane; SolverError on iteration-budget
    exhaustion, on 50 straight iterations without a new best absolute
    defect, when a fixed-point half-step is non-finite or leaves the
    upper half-plane, and unless the solved point shows ||F||_2 < 1 for
    F = |m| S |m|, which only a defect reaching Im z allows.  The bound is
    certified from m and S m at no extra cost while the defect stays below
    Im z (see the module docstring); only otherwise is ||F||_2 computed
    during the solve.  Each message names z.
    The returned f_norm is computed when first read.
    """
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
    tol = (opts or SolverOptions()).tol
    m, residual, iterations = _solve_points(profile, np.array([point.z]), tol, m)
    return VdeSolution(point, m[0], float(residual[0]), int(iterations[0]), profile)


def solve_path(
    profile: VarianceProfile,
    ray_angle: float,
    radii,
    opts: SolverOptions | None = None,
) -> list[VdeSolution]:
    """Solve along z = r*exp(i*ray_angle) for strictly descending radii.

    Each batch of radii is one _solve_points call (_batch_length): one
    radius on the dense path and, on the Krylov path (see _krylov), after
    the first two the radii down to a tenth of the last solved radius, at
    most _stack_rows of them.  A batch warm-starts from continuation_guess
    of the last two solved points by t steps, t = log(r/r_last) /
    log(r_last/r_prev).  Rays within 1e-15 of the imaginary axis are
    snapped onto it exactly so the pure-imaginary symmetry is preserved.
    Radii below 1e-8 are rejected: double precision cannot resolve the
    singular scales beneath that.  Every point is solved and certified
    ||F||_2 < 1 as in solve, and computes its f_norm only when that is read.
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
    tol = (opts or SolverOptions()).tol
    out: list[VdeSolution] = []
    while len(out) < len(radii):
        i = len(out)
        batch = radii[i:i + _batch_length(profile, radii, i)]
        points = [SpectralPoint(re=cos_phi * r, im=sin_phi * r) for r in batch]
        steps = None if i < 2 else (np.log(np.divide(batch, radii[i - 1]))
                                    / math.log(radii[i - 1] / radii[i - 2]))
        guess = continuation_guess([sol.m[None] for sol in out[-2:]], steps)
        z = np.array([point.z for point in points])
        m, residual, iterations = _solve_points(profile, z, tol, guess)
        out += (VdeSolution(*row, profile) for row in
                zip(points, m, residual.tolist(), iterations.tolist()))
    return out


def _batch_length(profile: VarianceProfile, radii: list[float], i: int) -> int:
    """How many radii from radii[i] on solve_path solves as one batch: the
    radii of the next decade, at most _stack_rows(profile) of them."""
    if i < 2 or not _krylov(profile):
        return 1
    # a radius one decade down, up to rounding, still joins the batch
    floor = 0.1 * radii[i - 1] * (1.0 - 1e-9)
    return max(1, sum(1 for r in radii[i:i + _stack_rows(profile)] if r >= floor))


def continuation_guess(previous, steps=None) -> np.ndarray | None:
    """Warm start for the next points of a descending continuation.

    previous holds the solution vectors of the points already solved,
    oldest first, each one vector or a (P, dim) stack of them.  With none
    the answer is None (a cold start), with one it is that vector, and
    with two or more it extrapolates the last two, m and m_prev, by t
    steps: m*(m/m_prev)^t, which tracks the power-law drift of the
    components and typically lands within a few Newton steps of the
    solution.  Without steps t = 1, and the answer is the componentwise
    secant m*(m/m_prev) bit for bit.  steps, a 1-d array of t, one per
    point ahead (solve_path's batches), gives one row per t from one
    vector.  An extrapolation that overflows or leaves the upper
    half-plane falls back to the last vector, row by row in a stack.
    """
    if not previous:
        return None
    m = previous[-1]
    if len(previous) == 1:
        return m
    ratio = m / previous[-2]
    guess = m * (ratio if steps is None else ratio ** np.asarray(steps)[:, None])
    ok = np.isfinite(guess).all(axis=-1) & (guess.imag > 0).all(axis=-1)
    if ok.all():
        return guess
    return np.where(ok[..., None], guess, m) if guess.ndim > 1 else m


def stability_matrix(m: np.ndarray, profile: VarianceProfile) -> np.ndarray:
    """Saturation matrix F_kj = |m_k| s_kj |m_j|, exactly symmetric (m may stack)."""
    am = np.abs(m)
    return profile.entries * (am[..., :, None] * am[..., None, :])


def saturation_identity_residual(solution: VdeSolution) -> float:
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
    f = stability_matrix(m, solution.profile)
    defect = f @ (f @ u) - u - (np.conj(z) * am - z * (f @ am))
    return float(np.sqrt(np.mean(np.abs(defect) ** 2)))


def suggested_tol(profile: VarianceProfile, *radii: float) -> float:
    """A model of the absolute defect's roundoff floor over radii |z|.

    No solver path uses it: every solve stops on its relative backward
    error.  The floor is proportional to the largest term of |1/m + z +
    Sm|: near the singularity the largest component, growing like
    r^-(n-1)/(n+1), far out z itself, as 1/m ~ -z cancels against it.
    Returns the largest max(1e-12, 100*eps*max(r^-((n-1)/(n+1)), r)) over
    the radii, with n the outer block count of a block profile.
    """
    if not radii or not all(0 < r < math.inf for r in radii):
        raise ValueError(f"need one or more positive finite radii, got {radii}")
    n = profile.block_meta[0] if profile.block_meta else profile.dim
    floor = 100.0 * float(np.finfo(float).eps)
    return max(1e-12, *(floor * max(r ** (-(n - 1) / (n + 1)), r) for r in radii))

"""Random block-matrix sampling against the self-consistent density.

Matrices follow the block variance layout of an expanded profile: entry
(a, b) inside outer block (j, k) is centered Gaussian with variance
s_jk/N.  Entries come from a counter-based generator (Philox keyed by
(seed, trial)) that dedicates one counter block to each matrix position,
so a single entry is reproducible in isolation and whole trials can be
generated independently without sequence coupling.  A draw fills a
zeroed output one upper-triangle row at a time, skipping the lower
triangle's blocks and each row's trailing zero blocks, so it costs one
matrix plus one row of words.

The eigenvalue count near zero is compared against the integrated
power-law divergence of the density module, and resolvent diagonals
against the VDE components.  The count needs no eigenvalues: the
staircase's zero blocks Z make H_ZZ exactly zero, so Haynsworth's inertia
additivity gives the number of eigenvalues in [-delta, delta] from the
inertia of two shifted complements of side |C| (d/2 for n = 2, 2d/3 for
n = 3, d without zero blocks), each read from a blocked LDL^T
factorization (Haynsworth, "Determination of the inertia of a
partitioned Hermitian matrix", Linear Algebra Appl. 1968).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.random import Philox
from scipy.special import ndtri

from .density import DEFAULT_ETA_SCHEDULE, rho_at
from .profiles import DIMENSION_CAP, VarianceProfile
from .solver import AnomalyError, SolverOptions, SpectralPoint, solve

TRIALS_CAP = 10_000  # each trial is a draw and two LDL^T factorizations

REAL_SYMMETRIC = "real_symmetric"
COMPLEX_HERMITIAN = "complex_hermitian"


@dataclass(frozen=True)
class EnsembleSpec:
    small_profile: VarianceProfile
    inner_N: int
    symmetry: str = REAL_SYMMETRIC
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.inner_N < 2:
            raise ValueError("inner_N must be at least 2")
        if not 1 <= self.trials <= TRIALS_CAP:
            raise ValueError(f"trials must lie in [1, {TRIALS_CAP}], got {self.trials}")
        if self.symmetry not in (REAL_SYMMETRIC, COMPLEX_HERMITIAN):
            raise ValueError(f"unknown symmetry class {self.symmetry!r}")
        # the seed is the first word of a 64-bit Philox key
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")

    @property
    def dimension(self) -> int:
        return self.small_profile.dim * self.inner_N


def _uniforms(raw: np.ndarray) -> np.ndarray:
    # 53-bit mantissa uniforms in (0, 1); the floor keeps ndtri finite
    u = (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.maximum(u, 2.0**-54)


def _normals(raw: np.ndarray) -> np.ndarray:
    return ndtri(_uniforms(raw))


def _trial_generator(spec: EnsembleSpec, trial: int) -> Philox:
    # the trial is the second word of the 64-bit Philox key
    if not 0 <= trial < 2**64:
        raise ValueError(f"trial must lie in [0, 2**64), got {trial}")
    return Philox(key=np.array([spec.seed, trial], dtype=np.uint64))


def _upper_row(
    spec: EnsembleSpec, gen: Philox, a: int, start: int, stop: int
) -> np.ndarray:
    """Entries H[a, start:stop] of the upper triangle (a <= start).

    gen must stand just before counter block a*dim + start; the row reads
    the blocks up to a*dim + stop - 1.  Real symmetric: standard deviation
    sqrt(v) off the diagonal and sqrt(2 v) on it, for v = s_jk/N.  Complex
    Hermitian: real and imaginary parts each sqrt(v/2) off the diagonal,
    a real diagonal with sqrt(v).  Adding +0.0 turns the -0.0 that zero
    blocks give into +0.0, the zero of the sum of a triangle and its
    conjugate transpose; LAPACK's Householder sign choice reads the sign
    of a zero, so the spectrum's last bits depend on it.
    """
    inner = spec.inner_N
    var = np.repeat(spec.small_profile.entries[a // inner], inner)[start:stop] / inner
    raw = gen.random_raw(4 * (stop - start))
    g0 = _normals(raw[0::4])
    if spec.symmetry == REAL_SYMMETRIC:
        std = np.sqrt(var)
        if start == a:
            std[0] = np.sqrt(2.0 * var[0])
        row = std * g0
    else:
        g1 = _normals(raw[1::4])
        row = np.sqrt(var / 2.0) * (g0 + 1j * g1)
        if start == a:
            row[0] = np.sqrt(var[0]) * g0[0]
    row += 0.0
    return row


def sample_matrix(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """One Hermitian draw for the given trial index.

    Matrix position (a, b) owns the counter block a*dim + b of the trial's
    Philox stream and uses its first word (real case) or first two words
    (complex case).  Real symmetric: off-diagonal variance s_jk/N,
    diagonal 2 s_jj/N; complex Hermitian: real and imaginary parts each
    s_jk/(2N) off the diagonal, real diagonal with variance s_jj/N.  Each
    upper-triangle row is drawn on its own up to the last nonzero block of
    its block row, skipping the other blocks, and mirrored into its
    column, so a draw holds the matrix plus one row of words.  The lower
    triangle mirrors the upper exactly, and zero blocks of the profile
    come out exactly +0.0.
    Raises ValueError for a trial outside [0, 2**64).
    """
    d, inner = spec.dimension, spec.inner_N
    entries = spec.small_profile.entries
    gen = _trial_generator(spec, trial)
    dtype = np.float64 if spec.symmetry == REAL_SYMMETRIC else np.complex128
    h = np.zeros((d, d), dtype=dtype)
    # one past the last nonzero column of each block row (all of it for a
    # zero row, which draws zeros)
    ends = inner * (len(entries) - np.argmax(entries[:, ::-1] != 0.0, axis=1))
    drawn = 0  # counter blocks consumed so far
    for a in range(d):
        stop = int(ends[a // inner])
        if stop <= a:  # the rest of the row lies in zero blocks
            continue
        gen.advance(a * d + a - drawn)
        row = _upper_row(spec, gen, a, a, stop)
        drawn = a * d + stop
        h[a, a:stop] = row
        # +0.0 again: conjugating flips the sign of zero imaginary parts
        h[a + 1 : stop, a] = row[1:].conj() + 0.0
    return h


def entry_value(spec: EnsembleSpec, trial: int, a: int, b: int) -> complex:
    """Reconstruct the single entry H[a, b] from its own counter block.

    Bit-identical to sample_matrix(spec, trial)[a, b] without generating
    the rest of the matrix: a one-column slice of row min(a, b),
    conjugated below the diagonal.
    """
    d = spec.dimension
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"entry ({a},{b}) outside a {d}x{d} matrix")
    lo, hi = min(a, b), max(a, b)
    gen = _trial_generator(spec, trial)
    gen.advance(lo * d + hi)
    v = _upper_row(spec, gen, lo, hi, hi + 1)
    return complex(v[0] if a <= b else (v.conj() + 0.0)[0])


def sample_spectrum(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """Ascending eigenvalues of the trial's matrix."""
    return np.linalg.eigvalsh(sample_matrix(spec, trial))


def _zero_blocks(entries: np.ndarray) -> list[int]:
    """Blocks Z of the profile whose principal submatrix entries[Z, Z] is zero.

    Goes greedily over the zero-diagonal blocks in order of increasing
    row support (ties by index) and takes each one that is zero against
    those already taken.  For a staircase of n blocks, permuted or not,
    that is the floor(n/2) blocks below the anti-diagonal.
    """
    zero: list[int] = []
    for k in np.argsort(np.count_nonzero(entries, axis=1), kind="stable"):
        if entries[k, k] == 0.0 and not entries[k, zero].any():
            zero.append(int(k))
    return zero


def _negatives(a: np.ndarray) -> int:
    """Number of negative eigenvalues of the Hermitian matrix a, overwriting a.

    Bunch-Kaufman's a = L D L^* (LAPACK dsytrf, or zhetrf when complex) has
    D block diagonal with 1x1 and 2x2 blocks, and by Sylvester's law of
    inertia D has a's inertia: a 1x1 block counts by its sign, a 2x2 block
    (ipiv < 0 on both its rows) by its determinant and trace (Bunch and
    Kaufman, "Some stable methods for calculating inertia and solving
    symmetric linear systems", Math. Comp. 1977).  The workspace comes from
    the routine's own query: the wrappers' default of one row runs LAPACK's
    unblocked code, several times slower.
    """
    lapack = scipy.linalg.lapack
    if np.iscomplexobj(a):
        factor, query = lapack.zhetrf, lapack.zhetrf_lwork
    else:
        factor, query = lapack.dsytrf, lapack.dsytrf_lwork
    work, _ = query(a.shape[0])
    # a.T is Fortran-ordered, so LAPACK works in a's own memory; it is
    # Hermitian, so its inertia is a's
    ldu, ipiv, _ = factor(a.T, lwork=int(work.real), overwrite_a=True)
    diag = ldu.diagonal().real
    # negative pivots come in consecutive pairs, one pair per 2x2 block,
    # whose off-diagonal entry the upper triangle holds
    first = np.flatnonzero(ipiv < 0)[::2]
    p, q, b = diag[first], diag[first + 1], ldu[first, first + 1]
    det, trace = p * q - np.abs(b) ** 2, p + q
    # a 2x2 block with det < 0 has one negative eigenvalue; otherwise both
    # (one if det = 0) take the trace's sign
    pairs = np.where(det < 0.0, 1, (trace < 0.0) * (1 + (det > 0.0)))
    return int(np.count_nonzero(diag[ipiv > 0] < 0.0) + pairs.sum())


def _near_zero_count(spec: EnsembleSpec, trial: int, delta: float) -> int:
    """Number of eigenvalues of the trial's matrix in [-delta, delta].

    With the zero blocks Z of the profile (_zero_blocks) and the rest C,
    H_ZZ = 0, so for sigma != 0 Haynsworth's inertia additivity gives
    In(H - sigma) = In(-sigma I_Z) + In(H_CC - sigma + H_CZ H_ZC / sigma).
    With W = H_CZ H_CZ^* / delta - delta I and |Z|, |C| counted in rows,
    the count is |Z| + #neg(H_CC + W) - #neg(H_CC - W), each read from an
    LDL^T factorization of side |C| (_negatives).  H_CZ is zero outside
    the rows R of C whose block row meets Z, so W is formed on R alone
    and the other rows of C only get -delta I.  Without zero blocks (n = 1)
    C is everything and the count is #neg(H - delta) - #neg(H + delta).
    In flops, W and the two factorizations cost at most 3 c^2 - 2 c^3 <= 1
    times the two of side d, for c = |C|/d, so the complement always pays.
    The matrix is freed once its C rows are copied out.
    """
    entries, inner = spec.small_profile.entries, spec.inner_N
    in_z = np.isin(np.arange(len(entries)), _zero_blocks(entries))
    z = np.flatnonzero(np.repeat(in_z, inner))
    c = np.flatnonzero(np.repeat(~in_z, inner))
    # the rows of C whose block row meets Z, as positions within C
    coupled = np.repeat(entries[np.ix_(~in_z, in_z)].any(axis=1), inner)
    r, u = np.flatnonzero(coupled), np.flatnonzero(~coupled)
    h = sample_matrix(spec, trial)
    h_rz = h[np.ix_(c[r], z)]
    plus = h[np.ix_(c, c)]
    del h
    w = h_rz @ h_rz.conj().T
    del h_rz
    w /= delta
    w[np.diag_indices(r.size)] -= delta
    minus = plus.copy()
    plus[np.ix_(r, r)] += w
    minus[np.ix_(r, r)] -= w
    del w
    plus[u, u] -= delta
    minus[u, u] += delta
    return z.size + _negatives(plus) - _negatives(minus)


def predicted_near_zero_mass(
    profile: VarianceProfile, delta: float, eta_schedule=DEFAULT_ETA_SCHEDULE
) -> float:
    """Integral of rho over [-delta, delta] via its fitted power law.

    Fits rho ~ A |E|^s on (delta/100, delta) (positive side; the density
    is symmetric) and integrates: 2 A delta^(1+s)/(1+s).  The staircase
    exponent -(n-1)/(n+1) stays above -1, so the integral is finite; a
    fitted s <= -1 would contradict that and raises AnomalyError.

    Raises ValueError unless delta > 0, and for a delta below 1000 times
    the schedule's smallest eta, where the fit window reaches energies the
    eta extrapolation cannot resolve and the fitted law comes out wrong.
    empirical_near_zero and the mc command rely on this check of delta.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    floor = 1000.0 * float(min(eta_schedule))
    if delta < floor:
        raise ValueError(
            f"delta {delta:.3g} below the resolvable floor {floor:.3g} "
            "(1000 times the smallest eta of the schedule)"
        )
    energies = np.geomspace(delta / 100.0, delta, 17)
    vals = np.array([rho_at(profile, float(e), eta_schedule) for e in energies])
    if (vals <= 0).any():
        raise ValueError(
            "density vanishes inside the fit window; no power law to integrate"
        )
    s, log_a = np.polyfit(np.log(energies), np.log(vals), 1)
    if s <= -1.0:
        raise AnomalyError(
            f"fitted near-zero exponent {s:.4f} <= -1 is non-integrable, "
            "contradicting the staircase divergence law"
        )
    return float(2.0 * math.exp(log_a) * delta ** (1.0 + s) / (1.0 + s))


@dataclass(frozen=True)
class NearZeroResult:
    """Empirical eigenvalue mass in [-delta, delta] vs the density's own."""

    fraction: float
    stderr: float
    prediction: float
    per_trial: np.ndarray


def empirical_near_zero(
    spec: EnsembleSpec,
    delta: float,
    eta_schedule=DEFAULT_ETA_SCHEDULE,
) -> NearZeroResult:
    """Average fraction of eigenvalues in [-delta, delta] across trials.

    Each trial's eigenvalues in the window are counted by _near_zero_count.
    The standard error uses the ddof=1 sample deviation over trials (nan
    for a single trial).  The companion prediction integrates the fitted
    power law of the self-consistent density (predicted_near_zero_mass,
    which also validates delta).
    """
    d = spec.dimension
    if d > DIMENSION_CAP:
        raise ValueError(
            f"matrix side {d} exceeds the dimension cap {DIMENSION_CAP}"
        )
    # predict first, so a delta the density cannot resolve fails before
    # any matrix is sampled
    prediction = predicted_near_zero_mass(spec.small_profile, delta, eta_schedule)
    fractions = np.empty(spec.trials)
    for trial in range(spec.trials):
        fractions[trial] = _near_zero_count(spec, trial, delta) / d
    stderr = (
        float(fractions.std(ddof=1) / math.sqrt(spec.trials))
        if spec.trials > 1
        else float("nan")
    )
    return NearZeroResult(
        fraction=float(fractions.mean()),
        stderr=stderr,
        prediction=prediction,
        per_trial=fractions,
    )


@dataclass(frozen=True)
class EntrywiseResult:
    """Pooled deviation of resolvent diagonals from the VDE components.

    c_measured = median * sqrt(N * eta) records the concentration scale;
    it is reported, not asserted, since the approximation carries no
    explicit error bound here.
    """

    max_deviation: float
    median_deviation: float
    c_measured: float
    eta: float


def entrywise_law_check(
    spec: EnsembleSpec,
    point: SpectralPoint,
    opts: SolverOptions | None = None,
) -> EntrywiseResult:
    """Compare G_ll(z) of sampled matrices against the block's m_k(z).

    Computes resolvent diagonals by full eigendecomposition,
    G_ll = sum_v |V_lv|^2/(w_v - z), pooled over trials.  Requires
    eta >= max(0.1, dimension^(-1/3)): below that the resolvent no longer
    concentrates around the deterministic value and the comparison is
    meaningless.

    Library-only: the deviations carry no error bound to compare them
    against, so no report could gate them, and no command prints them.
    """
    floor = max(0.1, spec.dimension ** (-1.0 / 3.0))
    if point.im < floor:
        raise ValueError(
            f"eta {point.im} below the concentration floor {floor:.4g}"
        )
    m = solve(spec.small_profile, point, opts).m
    target = np.repeat(m, spec.inner_N)
    pooled = []
    for trial in range(spec.trials):
        w, v = np.linalg.eigh(sample_matrix(spec, trial))
        diag = (np.abs(v) ** 2) @ (1.0 / (w - point.z))
        pooled.append(np.abs(diag - target))
    devs = np.concatenate(pooled)
    med = float(np.median(devs))
    return EntrywiseResult(
        max_deviation=float(devs.max()),
        median_deviation=med,
        c_measured=med * math.sqrt(spec.inner_N * point.im),
        eta=point.im,
    )

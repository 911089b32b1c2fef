"""Random block-matrix sampling against the self-consistent density.

Matrices follow the block variance layout of an expanded profile: entry
(a, b) inside outer block (j, k) is centered Gaussian with variance
s_jk/N.  Entries come from a counter-based generator (Philox keyed by
(seed, trial)) that dedicates one counter block to each matrix position,
so a single entry is reproducible in isolation and whole trials can be
generated independently without sequence coupling.  A draw generates
the upper triangle one row at a time, skipping the lower triangle's
blocks and each row's trailing zero blocks, and turns the words into
normals in bounded batches of rows.  sample_matrix mirrors the rows into
one zeroed matrix; the near-zero count writes them straight into the
blocks it factorizes and holds no d x d matrix.

The eigenvalue count near zero is compared against the density's mass
of the same window, a quadrature of <m> on an arc of the upper
half-plane.  The count needs no eigenvalues: the staircase's zero
blocks Z make H_ZZ exactly zero, so Haynsworth's inertia additivity
gives the number of eigenvalues in [-delta, delta] from the inertia of
two shifted complements of side |C| (d/2 for n = 2, 2d/3 for n = 3, d
without zero blocks), each read from a blocked LDL^T factorization
(Haynsworth, "Determination of the inertia of a partitioned Hermitian
matrix", Linear Algebra Appl. 1968).

scipy (ndtri and LAPACK's sytrf/hetrf) is imported where it is called, so
importing this module, or running any command but mc, loads no scipy.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

# rho_at and solve are not called here, but the benchmark's tracer test
# pins the montecarlo.rho_at and montecarlo.solve aliases; they go with
# ROADMAP item 7's benchmark change
from .density import rho_at, support_bound
from .profiles import (
    DIMENSION_CAP, StaircasePatternError, VarianceProfile,
    recover_staircase_permutation,
)
from .solver import SolverOptions, _solve_points, _stack_rows, solve

TRIALS_CAP = 10_000  # each trial is a draw and two LDL^T factorizations
_DELTA_FLOOR = 1e-3  # smallest near-zero half-width

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
        # stored as Python ints: a float would truncate into the Philox key
        # and a numpy integer overflow in the counter arithmetic
        for name in ("inner_N", "trials", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.inner_N < 2:
            raise ValueError("inner_N must be at least 2")
        # checked before any d x d matrix is allocated
        if self.dimension > DIMENSION_CAP:
            raise ValueError(f"matrix side {self.dimension} exceeds the dimension "
                             f"cap {DIMENSION_CAP}")
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


def _integer(value, what: str) -> int:
    """value as a Python int, refusing bools and non-integers such as 1.5."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _uniforms(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 53-bit mantissa uniforms in (0, 1); the floor keeps ndtri finite
    u = np.multiply(raw >> np.uint64(11), 2.0**-53, out=out)
    return np.maximum(u, 2.0**-54, out=u)


def _normals(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    from scipy.special import ndtri

    u = _uniforms(raw, out)
    return ndtri(u, out=u)


# entries whose normals one batch converts; bounds a draw's scratch memory
_CHUNK = 2**13


def _trial_generator(spec: EnsembleSpec, trial: int) -> Philox:
    # the trial is the second word of the 64-bit Philox key
    trial = _integer(trial, "trial")
    if not 0 <= trial < 2**64:
        raise ValueError(f"trial must lie in [0, 2**64), got {trial}")
    return Philox(key=np.array([spec.seed, trial], dtype=np.uint64))


def _scales(spec: EnsembleSpec) -> tuple[np.ndarray, np.ndarray]:
    """Standard deviations of the entries by block row j: off[j, b] in column b
    off the diagonal, diag[j] on it.

    Real symmetric: sqrt(v) off the diagonal and sqrt(2 v) on it, for
    v = s_jk/N.  Complex Hermitian: real and imaginary parts each sqrt(v/2)
    off the diagonal, a real diagonal with sqrt(v).
    """
    v = spec.small_profile.entries / spec.inner_N
    if spec.symmetry == REAL_SYMMETRIC:
        off, diag = np.sqrt(v), np.sqrt(2.0 * v.diagonal())
    else:
        off, diag = np.sqrt(v / 2.0), np.sqrt(v.diagonal())
    return np.repeat(off, spec.inner_N, axis=1), diag


def _draw_spans(
    spec: EnsembleSpec, trial: int, rows: list[tuple[int, int]]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (a, H[a, a:stop]) for each upper-triangle row (a, stop), drawn
    from its diagonal; the rows are given in increasing a.

    Each row reads the counter blocks a*dim + a to a*dim + stop - 1 and
    skips those in between.  Rows are drawn in batches of at most _CHUNK
    entries (or one longer row), whose words turn into normals in place
    and are scaled by _scales; a yielded row is a view that the next batch
    overwrites.  Adding +0.0 turns the -0.0 that zero blocks give into
    +0.0, the zero of the sum of a triangle and its conjugate transpose;
    LAPACK reads the sign of a zero, so the spectrum's last bits depend
    on it.
    """
    d, inner = spec.dimension, spec.inner_N
    off, diag = _scales(spec)
    words = 1 if spec.symmetry == REAL_SYMMETRIC else 2
    gen = _trial_generator(spec, trial)
    size = max(_CHUNK, max(stop - a for a, stop in rows))
    raw = np.empty((size, words), dtype=np.uint64)
    normals = np.empty((size, words))
    values = normals[:, 0] if words == 1 else normals.view(np.complex128)[:, 0]
    batch: list[tuple[int, int, int]] = []  # (a, stop, at)
    filled = drawn = 0  # entries in the batch, counter blocks consumed

    def scaled(batch, filled):
        g = _normals(raw[:filled], out=normals[:filled])
        # a row's diagonal entry takes its own deviation and the real normal alone
        j, k = np.array([(a // inner, at) for a, _, at in batch]).T
        pivots = diag[j] * g[k, 0]
        for a, stop, at in batch:
            values[at : at + stop - a] *= off[a // inner, a:stop]
        values[k] = pivots
        values[:filled] += 0.0
        for a, stop, at in batch:
            yield a, values[at : at + stop - a]

    for a, stop in rows:
        if batch and filled + stop - a > _CHUNK:
            yield from scaled(batch, filled)
            batch, filled = [], 0
        gen.advance(a * d + a - drawn)
        words_of_row = gen.random_raw(4 * (stop - a)).reshape(-1, 4)
        raw[filled : filled + stop - a] = words_of_row[:, :words]
        drawn = a * d + stop
        batch.append((a, stop, filled))
        filled += stop - a
    if batch:
        yield from scaled(batch, filled)


def _upper_rows(spec: EnsembleSpec, trial: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (a, H[a, a:stop]) for every upper-triangle row a that a draw fills.

    Row a stops at the last nonzero block of its block row; a row whose
    nonzero blocks all lie left of the diagonal is not drawn.  Each row is
    a view that the next batch of _draw_spans overwrites.
    """
    entries, inner = spec.small_profile.entries, spec.inner_N
    # one past the last nonzero column of each block row (all of it for a
    # zero row, which draws zeros)
    ends = inner * (len(entries) - np.argmax(entries[:, ::-1] != 0.0, axis=1))
    stops = np.repeat(ends, inner).tolist()
    rows = [(a, stop) for a, stop in enumerate(stops) if stop > a]
    return _draw_spans(spec, trial, rows)


def sample_matrix(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """One Hermitian draw for the given trial index.

    Matrix position (a, b) owns the counter block a*dim + b of the trial's
    Philox stream and uses its first word (real case) or first two words
    (complex case).  Real symmetric: off-diagonal variance s_jk/N,
    diagonal 2 s_jj/N; complex Hermitian: real and imaginary parts each
    s_jk/(2N) off the diagonal, real diagonal with variance s_jj/N.  Each
    upper-triangle row is drawn up to the last nonzero block of its block
    row (_upper_rows) and mirrored into its column, so a draw holds the
    matrix plus one batch of words.  The lower triangle mirrors the upper
    exactly, and zero blocks of the profile come out exactly +0.0.
    Raises ValueError for a trial outside [0, 2**64).
    """
    d = spec.dimension
    dtype = np.float64 if spec.symmetry == REAL_SYMMETRIC else np.complex128
    h = np.zeros((d, d), dtype=dtype)
    for a, row in _upper_rows(spec, trial):
        stop = a + row.size
        h[a, a:stop] = row
        # +0.0 again: conjugating flips the sign of zero imaginary parts
        h[a + 1 : stop, a] = row[1:].conj() + 0.0
    return h


def entry_value(spec: EnsembleSpec, trial: int, a: int, b: int) -> complex:
    """Reconstruct the single entry H[a, b] from its own counter block.

    Bit-identical to sample_matrix(spec, trial)[a, b] without generating
    the rest of the matrix: the last entry of row min(a, b) drawn up to
    max(a, b), conjugated below the diagonal, so it costs |a - b| + 1
    entries.  a and b may be any integers, numpy's included; a bool or a
    non-integer raises ValueError, since numpy reads a bool index as a mask.
    """
    d = spec.dimension
    a, b = _integer(a, "a"), _integer(b, "b")
    if not (0 <= a < d and 0 <= b < d):
        raise ValueError(f"entry ({a},{b}) outside a {d}x{d} matrix")
    lo, hi = min(a, b), max(a, b)
    ((_, v),) = _draw_spans(spec, trial, [(lo, hi + 1)])
    return complex(v[-1] if a <= b else (v[-1:].conj() + 0.0)[0])


def sample_spectrum(spec: EnsembleSpec, trial: int) -> np.ndarray:
    """Ascending eigenvalues of the trial's matrix."""
    return np.linalg.eigvalsh(sample_matrix(spec, trial))


def _zero_blocks(profile: VarianceProfile) -> list[int]:
    """Blocks Z of the profile whose principal submatrix entries[Z, Z] is zero.

    For a staircase of n blocks, permuted or not, these are the floor(n/2)
    blocks at the positions k (1-based) with 2k >= n + 2 of the ordering
    recover_staircase_permutation finds: any two of them have
    i + j >= n + 2, where the staircase is zero, whatever zeros its free
    region (i + j < n) holds.  Any other profile goes greedily over its
    zero-diagonal blocks in order of increasing row support (ties by
    index) and takes each one that is zero against those already taken.
    Any Z with entries[Z, Z] = 0 keeps the near-zero count exact; a
    smaller one only leaves a larger complement to factorize.
    """
    try:
        order = recover_staircase_permutation(profile)
    except StaircasePatternError:
        entries, zero = profile.entries, []
        for k in np.argsort(np.count_nonzero(entries, axis=1), kind="stable"):
            if entries[k, k] == 0.0 and not entries[k, zero].any():
                zero.append(int(k))
        return zero
    n = profile.dim
    return sorted(order[k - 1] for k in range(1, n + 1) if 2 * k >= n + 2)


def _negatives(a: np.ndarray) -> int:
    """Number of negative eigenvalues of the Hermitian matrix whose upper
    triangle a holds, overwriting a; a's strictly lower triangle is not read.

    Bunch-Kaufman's L D L^* (LAPACK dsytrf, or zhetrf when complex) has
    D block diagonal with 1x1 and 2x2 blocks, and by Sylvester's law of
    inertia D has the matrix's inertia: a 1x1 block counts by its sign, a
    2x2 block (ipiv < 0 on both its rows) by its determinant and trace
    (Bunch and Kaufman, "Some stable methods for calculating inertia and
    solving symmetric linear systems", Math. Comp. 1977).  The workspace
    comes from the routine's own query: the wrappers' default of one row
    runs LAPACK's unblocked code, several times slower.
    """
    import scipy.linalg

    lapack = scipy.linalg.lapack
    if np.iscomplexobj(a):
        factor, query = lapack.zhetrf, lapack.zhetrf_lwork
    else:
        factor, query = lapack.dsytrf, lapack.dsytrf_lwork
    work, _ = query(a.shape[0])
    # a.T is Fortran-ordered, so LAPACK works in a's own memory, and its
    # lower triangle is a's upper one: the conjugate of the Hermitian
    # matrix, which has the same inertia
    ldu, ipiv, _ = factor(a.T, lower=1, lwork=int(work.real), overwrite_a=True)
    diag = ldu.diagonal().real
    # negative pivots come in consecutive pairs, one pair per 2x2 block,
    # whose off-diagonal entry the lower triangle holds
    first = np.flatnonzero(ipiv < 0)[::2]
    p, q, b = diag[first], diag[first + 1], ldu[first + 1, first]
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
    The drawn rows go straight into the upper triangle of H_CC, which is
    all that _negatives reads, and into H_RZ; no d x d matrix is formed.
    """
    entries, inner = spec.small_profile.entries, spec.inner_N
    in_z = np.isin(np.arange(len(entries)), _zero_blocks(spec.small_profile))
    # R: the blocks of C whose block row meets Z
    coupled = entries[:, in_z].any(axis=1) & ~in_z
    # column masks of C, R and Z, and each one's count of columns before b
    masks = [np.repeat(m, inner) for m in (~in_z, coupled, in_z)]
    c_col, r_col, z_col = masks
    c_at, r_at, z_at = (np.concatenate(([0], np.cumsum(m))) for m in masks)
    dtype = np.float64 if spec.symmetry == REAL_SYMMETRIC else np.complex128
    plus = np.zeros((c_at[-1], c_at[-1]), dtype=dtype)
    h_rz = np.zeros((r_at[-1], z_at[-1]), dtype=dtype)
    for a, row in _upper_rows(spec, trial):
        stop = a + row.size
        if c_col[a]:
            i = c_at[a]
            plus[i, i : c_at[stop]] = row[c_col[a:stop]]
            if r_col[a]:
                h_rz[r_at[a], z_at[a] : z_at[stop]] = row[z_col[a:stop]]
        else:
            # a Z row's R entries are those of H_RZ's column, conjugated
            # (+0.0 as in sample_matrix's mirror)
            h_rz[r_at[a] : r_at[stop], z_at[a]] = row[r_col[a:stop]].conj() + 0.0
    del row  # a view that holds the last batch of the draw
    w = h_rz @ h_rz.conj().T
    del h_rz
    w /= delta
    _diagonal(w, 0, len(w))[...] -= delta
    minus = plus.copy()
    # R and U = C \ R are unions of whole blocks: W goes in one block pair
    # (j, k >= j) of R at a time, each block as its slices of the
    # complements and of W, on the upper triangle _negatives reads
    first = np.arange(0, len(entries) * inner, inner)
    r_blocks = [(slice(c_at[a], c_at[a] + inner), slice(r_at[a], r_at[a] + inner))
                for a in first[coupled]]
    for j, (cj, rj) in enumerate(r_blocks):
        for ck, rk in r_blocks[j:]:
            plus[cj, ck] += w[rj, rk]
            minus[cj, ck] -= w[rj, rk]
    del w
    for a in first[~in_z & ~coupled]:
        _diagonal(plus, c_at[a], c_at[a] + inner)[...] -= delta
        _diagonal(minus, c_at[a], c_at[a] + inner)[...] += delta
    return int(z_at[-1]) + _negatives(plus) - _negatives(minus)


def _diagonal(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Writable view of the diagonal entries start to stop - 1 of the
    C-contiguous square a."""
    step = len(a) + 1
    return a.reshape(-1)[start * step : stop * step : step]


def predicted_near_zero_mass(
    profile: VarianceProfile, delta: float
) -> tuple[float, float]:
    """Integral of rho over [-delta, delta] by quadrature on an arc, and
    its error estimate.

    <m> is analytic in the upper half-plane (Ajanki, Erdos & Kruger,
    Mem. AMS 2019), so the mass of [-delta, delta], an atom at 0
    included, is -(1/pi) Re of the integral of <m(z)> z over theta in
    (0, pi) with z = delta e^{i theta}; the reflection
    m(-conj z) = -conj m(z) halves it to -(2/pi) Re over (0, pi/2).
    Gauss-Legendre rules of 16 and 32 nodes in theta converge
    exponentially: the mass is the 32-node sum and the error estimate its
    distance from the 16-node one.  All 48 nodes start cold and are
    solved at SolverOptions().tol in chunks of _stack_rows(profile) rows.

    Raises ValueError unless delta > 0, for a delta below the floor 1e-3,
    the smallest at which the near-zero count is checked against
    eigvalsh, or for a delta that is not finite or exceeds
    support_bound(profile), where the arc leaves the spectrum.
    empirical_near_zero and the mc command rely on this check of delta.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if delta < _DELTA_FLOOR:
        raise ValueError(f"delta {delta:.3g} below the floor {_DELTA_FLOOR:.3g}")
    bound = support_bound(profile)
    if not delta <= bound:
        raise ValueError(
            f"delta {delta:.3g} must be finite and at most the support bound "
            f"{bound:.3g} (2 sqrt(max row sum) + 0.5)"
        )
    (x16, w16), (x32, w32) = (np.polynomial.legendre.leggauss(k) for k in (16, 32))
    z = delta * np.exp(0.25j * math.pi * (np.concatenate([x16, x32]) + 1.0))
    tol, size = SolverOptions().tol, _stack_rows(profile)
    mean_m = np.concatenate([
        _solve_points(profile, z[i:i + size], tol, None)[0].mean(axis=1)
        for i in range(0, len(z), size)
    ])
    # theta = (pi/4)(x + 1), so dtheta = (pi/4) dx and -(2/pi)(pi/4) = -1/2
    terms = -0.5 * mean_m * z
    coarse = float((w16 * terms[:16]).sum().real)
    fine = float((w32 * terms[16:]).sum().real)
    return fine, abs(coarse - fine)


@dataclass(frozen=True)
class NearZeroResult:
    """Empirical eigenvalue mass in [-delta, delta] vs the density's own."""

    fraction: float
    stderr: float
    prediction: float
    prediction_error: float
    per_trial: np.ndarray


def empirical_near_zero(spec: EnsembleSpec, delta: float) -> NearZeroResult:
    """Average fraction of eigenvalues in [-delta, delta] across trials.

    Each trial's eigenvalues in the window are counted by _near_zero_count.
    The standard error uses the ddof=1 sample deviation over trials (nan
    for a single trial).  The companion prediction is the self-consistent
    density's mass of the window with its quadrature error estimate
    (predicted_near_zero_mass, which also validates delta), an atom at 0
    included.
    """
    d = spec.dimension
    # predict first, so a delta out of range fails before any matrix is
    # sampled
    prediction, error = predicted_near_zero_mass(spec.small_profile, delta)
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
        prediction_error=error,
        per_trial=fractions,
    )

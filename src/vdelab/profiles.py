"""Variance profiles and their zero-block combinatorics.

A variance profile is a symmetric matrix of non-negative entry variances
for a Hermitian random matrix.  This module parses and validates profiles,
enumerates maximal all-zero rectangles of the zero pattern, classifies the
profile by zero-block perimeter, recovers the staircase ordering (unique
when it exists, so peeled off from the outside in with no search), checks
anti-diagonal irreducibility, and expands a small profile into a large one
with noisy inner blocks.

Index conventions: matrix rows and columns reported to the user (rectangle
row/column sets, violation positions) are 1-based, matching the algebraic
conditions such as ``i + j >= dim + 2``.  Permutations returned for use as
array indices are 0-based.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

RECTANGLE_SEARCH_CAP = 20
# most maximal zero rectangles held; the sparsest 20 x 20 staircase has 73 394
RECTANGLE_COUNT_CAP = 2**17
# largest dense matrix side n*N: sampled ensembles and block expansions
DIMENSION_CAP = 4000

REGIME_BOUNDED = "bounded"
REGIME_CRITICAL = "critical_staircase"
REGIME_RANK_DEFICIENT = "rank_deficient"


class ProfileError(ValueError):
    """Invalid variance profile or structural-analysis input."""


class EnumerationCapError(ProfileError):
    """Side over RECTANGLE_SEARCH_CAP or over RECTANGLE_COUNT_CAP rectangles."""


class StaircasePatternError(ProfileError):
    """No simultaneous row/column permutation yields the staircase pattern."""


@dataclass(frozen=True)
class VarianceProfile:
    """Symmetric non-negative variance matrix with optional block metadata.

    Parameters
    ----------
    entries : (dim, dim) array of float
        Entry variances.  Must be exactly symmetric; zeros are structural
        and tested by exact equality with 0.
    block_meta : (n, N) tuple, optional
        Declares the matrix as n x n outer blocks of size N x N, with n and
        N integers (not bools).  Within each outer block the zero pattern
        must be uniform: all entries zero or all entries positive.
    """

    entries: np.ndarray
    block_meta: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
            raise ProfileError(f"profile matrix must be square, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ProfileError("profile entries must be finite")
        if (a < 0).any():
            i, j = np.argwhere(a < 0)[0]
            raise ProfileError(f"negative entry at ({i + 1},{j + 1}): {a[i, j]}")
        if (a != a.T).any():
            i, j = np.argwhere(a != a.T)[0]
            raise ProfileError(
                f"asymmetric entries at ({i + 1},{j + 1}): {a[i, j]} vs {a[j, i]}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)
        if self.block_meta is not None:
            meta = _sizes(self.block_meta, "block metadata")
            if len(meta) != 2 or min(meta) < 1 or meta[0] * meta[1] != self.dim:
                raise ProfileError(
                    f"block metadata {meta} inconsistent with dim {self.dim}"
                )
            object.__setattr__(self, "block_meta", meta)
            n, inner = meta
            zero = (a == 0).reshape(n, inner, n, inner)
            mixed = zero.any(axis=(1, 3)) & ~zero.all(axis=(1, 3))
            if mixed.any():
                j, k = np.argwhere(mixed)[0]
                raise ProfileError(
                    f"outer block ({j + 1},{k + 1}) mixes zero and positive entries"
                )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def block_means(self) -> np.ndarray | None:
        """n x n means of the outer blocks, None without block metadata."""
        if self.block_meta is None:
            return None
        n, inner = self.block_meta
        means = self.entries.reshape(n, inner, n, inner).mean(axis=(1, 3))
        means.flags.writeable = False
        return means

    @cached_property
    def column_runs(self) -> tuple[tuple[int, ...], ...] | None:
        """Column runs of the outer blocks, None without block metadata.

        Each run (a, b, lo, hi) covers the adjacent columns a:b whose outer
        blocks share one row extent lo:hi, from the first nonzero row block
        to the last, so every entry of those columns outside lo:hi is 0 and
        x S[:, a:b] = x[:, lo:hi] S[lo:hi, a:b].  Zero blocks inside an
        extent stay in it; columns whose blocks are all 0 get the empty
        extent 0:0.  Block uniformity makes one entry per block enough to
        read the pattern.  The expanded staircase_profile(n) gives n runs,
        column block k spanning row blocks 0 .. n-1-k.
        """
        if self.block_meta is None:
            return None
        inner = self.block_meta[1]
        runs: list[tuple[int, ...]] = []
        for k, column in enumerate(self.entries[::inner, ::inner].T != 0):
            rows = np.flatnonzero(column) * inner
            lo, hi = (int(rows[0]), int(rows[-1]) + inner) if rows.size else (0, 0)
            if runs and runs[-1][2:] == (lo, hi):
                runs[-1] = (runs[-1][0], (k + 1) * inner, lo, hi)
            else:
                runs.append((k * inner, (k + 1) * inner, lo, hi))
        return tuple(runs)

    def permuted(self, perm) -> "VarianceProfile":
        """Profile with entries s[perm[i], perm[j]] (0-based permutation)."""
        idx = np.asarray(perm)
        if idx.dtype.kind not in "iu":
            raise ProfileError("permutation entries must be integers")
        if sorted(idx.tolist()) != list(range(self.dim)):
            raise ProfileError("not a permutation of the row indices")
        return VarianceProfile(self.entries[np.ix_(idx, idx)])


def _sizes(sizes, what: str) -> tuple[int, ...]:
    """sizes as a tuple of ints, refusing non-sequences, bools and non-integers."""
    try:
        out = tuple(sizes)
    except TypeError:
        raise ProfileError(f"{what} must be a sequence of sizes, got {sizes!r}") from None
    for d in out:
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise ProfileError(f"{what} sizes must be integers, got {d!r}")
    return tuple(int(d) for d in out)


@dataclass(frozen=True, order=True)
class ZeroRectangle:
    """Maximal all-zero rectangle of the zero pattern.

    Rows and columns are 1-based sorted tuples and need not be contiguous.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def perimeter(self) -> int:
        return 2 * (len(self.rows) + len(self.cols))


@dataclass(frozen=True)
class StaircaseViolation:
    """One staircase-condition violation at 1-based position (i, j)."""

    i: int
    j: int
    expected: str  # "positive" or "zero"
    found: float


@dataclass(frozen=True)
class StructureReport:
    regime: str
    max_perimeter: int
    critical_blocks: tuple[ZeroRectangle, ...]
    staircase_permutation: tuple[int, ...] | None
    antidiagonal_positive: bool
    super_antidiagonal_positive: bool
    block_partition: tuple[int, ...] | None
    irreducibility: tuple[bool, ...] | None

    def to_json_dict(self) -> dict:
        return {
            "regime": self.regime,
            "max_perimeter": self.max_perimeter,
            "critical_blocks": [
                {"rows": list(r.rows), "cols": list(r.cols), "perimeter": r.perimeter}
                for r in self.critical_blocks
            ],
            "staircase_permutation": (
                None if self.staircase_permutation is None
                else list(self.staircase_permutation)
            ),
            "antidiagonal_positive": self.antidiagonal_positive,
            "super_antidiagonal_positive": self.super_antidiagonal_positive,
            "block_partition": (
                None if self.block_partition is None else list(self.block_partition)
            ),
            "irreducibility": (
                None if self.irreducibility is None else list(self.irreducibility)
            ),
        }


def parse_profile(text: str) -> VarianceProfile:
    """Parse a profile document: {"matrix": [[...]], "n": int?, "N": int?}.

    Matrix entries must be JSON numbers and n, N JSON integers; booleans,
    strings and nulls are rejected rather than coerced.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileError(f"profile document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ProfileError('profile document must be an object with a "matrix" field')
    meta = None
    has_n, has_inner = "n" in doc, "N" in doc
    if has_n != has_inner:
        raise ProfileError('block metadata requires both "n" and "N"')
    # json.loads gives int or float for numbers; bool is an int subclass
    if has_n:
        for key in ("n", "N"):
            if isinstance(doc[key], bool) or not isinstance(doc[key], int):
                raise ProfileError(
                    f'"{key}" must be a JSON integer, got {json.dumps(doc[key])}'
                )
        meta = (doc["n"], doc["N"])
    rows = doc["matrix"]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ProfileError('"matrix" must be a list of rows')
    for row in rows:
        for value in row:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ProfileError(
                    f"matrix entries must be JSON numbers, got {json.dumps(value)}"
                )
    try:
        return VarianceProfile(np.array(rows, dtype=float), block_meta=meta)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ProfileError):
            raise
        raise ProfileError(f"malformed matrix: {exc}") from exc


def load_profile(source) -> VarianceProfile:
    """Load a profile from a file path or an open text stream."""
    if hasattr(source, "read"):
        return parse_profile(source.read())
    with open(os.fspath(source), "r", encoding="utf-8") as fh:
        return parse_profile(fh.read())


def _staircase_rule(n: int) -> np.ndarray:
    """The staircase conditions on an n x n profile as one int matrix.

    With 1-based indices: +1 where s_ij must be positive (i + j is n or
    n+1), -1 where it must be zero (i + j >= n + 2), 0 where it is free.
    """
    s = np.add.outer(np.arange(1, n + 1), np.arange(1, n + 1))
    return np.where(s >= n + 2, -1, (s >= n).astype(int))


def staircase_profile(n: int, fill: float = 1.0) -> VarianceProfile:
    """Canonical staircase profile: fill where i+j <= n+1, zero elsewhere."""
    if n < 1:
        raise ProfileError("n must be positive")
    if fill <= 0:
        raise ProfileError("fill must be positive")
    return VarianceProfile(np.where(_staircase_rule(n) >= 0, float(fill), 0.0))


def random_staircase_profile(
    n: int, seed: int, low: float = 0.5, high: float = 2.0
) -> VarianceProfile:
    """Staircase profile with entries uniform in [low, high] where allowed."""
    if not 0 < low <= high:
        raise ProfileError("need 0 < low <= high")
    rng = np.random.default_rng(seed)
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n - i):
            a[i, j] = a[j, i] = rng.uniform(low, high)
    return VarianceProfile(a)


def maximal_zero_rectangles(profile: VarianceProfile) -> list[ZeroRectangle]:
    """All maximal all-zero rectangles (maximal bicliques of the zero pattern).

    Row and column index sets need not be contiguous: a zero block in this
    sense survives any simultaneous row/column permutation.  One pass over
    the rows' zero masks r grows the sorted int32 closures C to
    C | {c & r : c in C} | {r} less 0, so after k rows C holds every nonempty
    intersection of the first k masks, each a maximal rectangle since the rows
    holding it intersect back to it.  Worst case exponential, hence both caps.

    Returns rectangles sorted by descending perimeter, then by row/column
    sets for determinism.
    """
    dim = profile.dim
    if dim > RECTANGLE_SEARCH_CAP:
        raise EnumerationCapError(
            f"dim {dim} exceeds rectangle search cap {RECTANGLE_SEARCH_CAP}"
        )
    # bit j of row i's mask is set where s_ij == 0; exact in int32 up to the cap
    row_masks = (profile.entries == 0.0) @ (1 << np.arange(dim, dtype=np.int32))
    closures = np.zeros(0, dtype=np.int32)
    for rmask in row_masks[row_masks != 0]:
        closures = np.union1d(closures, np.append(closures & rmask, rmask))
        if (closures := closures[closures != 0]).size > RECTANGLE_COUNT_CAP:
            raise EnumerationCapError(
                f"more than {RECTANGLE_COUNT_CAP} maximal zero rectangles"
            )
    masks = row_masks.tolist()
    rects = [
        ZeroRectangle(
            rows=tuple(i + 1 for i, r in enumerate(masks) if r & c == c),
            cols=tuple(j + 1 for j in range(dim) if c >> j & 1),
        )
        for c in closures.tolist()
    ]
    rects.sort(key=lambda r: (-r.perimeter, r.rows, r.cols))
    return rects


def check_assumption_staircase(
    profile: VarianceProfile,
) -> tuple[bool, list[StaircaseViolation]]:
    """Check the staircase conditions on the profile as given.

    With 1-based indices and dim = n: s_ij > 0 whenever i + j is n or n+1,
    and s_ij = 0 whenever i + j >= n + 2.  Entries with i + j < n are
    unconstrained.  Violations are reported once per unordered pair
    (positions with i <= j; the matrix is symmetric).
    """
    a = profile.entries
    rule = _staircase_rule(profile.dim)
    bad = ((rule > 0) & ~(a > 0)) | ((rule < 0) & (a != 0.0))
    violations = [
        StaircaseViolation(i + 1, j + 1, "positive" if rule[i, j] > 0 else "zero",
                           a[i, j])
        for i, j in np.argwhere(bad).tolist()
        if i <= j
    ]
    return not violations, violations


def recover_staircase_permutation(profile: VarianceProfile) -> tuple[int, ...]:
    """Find the 0-based permutation p with s[p[i], p[j]] in staircase form.

    Success means the permuted matrix passes check_assumption_staircase:
    zeros wherever i + j >= dim + 2 demands them, positive entries on the
    two anti-diagonals, entries with i + j < dim unconstrained.  In a
    staircase of side n >= 2 the row at position n is the only one with a
    single nonzero entry, at the column of position 1 (every other row has
    its two anti-diagonal positives), and deleting both leaves a staircase
    of side n - 2.  So peeling that row last and its column first among
    the unplaced ones is forced at every step, and p is unique whenever it
    exists.  Row counts are updated as pairs go, O(dim^2) in all.

    Raises StaircasePatternError when no valid permutation exists.
    """
    nonzero = profile.entries != 0.0
    counts = nonzero.sum(axis=1)
    unplaced = np.ones(profile.dim, dtype=bool)
    slot = [0] * profile.dim
    first, last = 0, profile.dim - 1
    while first <= last:
        single = np.flatnonzero(unplaced & (counts == 1))
        if single.size != 1:
            break
        row = int(single[0])
        col = int(np.flatnonzero(nonzero[row] & unplaced)[0])
        # the last and first positions coincide only on the middle row
        if col == row and first < last:
            break
        slot[first], slot[last] = col, row
        unplaced[[row, col]] = False
        counts -= nonzero[:, row]
        counts -= nonzero[:, col]
        first, last = first + 1, last - 1
    if first <= last or not check_assumption_staircase(profile.permuted(slot))[0]:
        raise StaircasePatternError(
            "no row/column ordering satisfies the staircase conditions"
        )
    return tuple(slot)


def antidiagonal_irreducibility(
    profile: VarianceProfile, partition
) -> list[bool]:
    """Irreducibility of B B^T per anti-diagonal partition block.

    For each block index a (1-based) with opposite index b = p + 1 - a,
    B is the (a, b) block of the partition grid, M = B B^T, and the entry
    M[v, t] > 0 defines an edge v -> t.  Reports one boolean per a:
    whether that graph is strongly connected.  B is non-negative, so
    M[v, t] > 0 exactly when some product B[v, k] B[t, k] is positive,
    whatever the summation order: the pattern is symmetric, and strong
    connectivity is connectivity.  The sizes must be integers; a bool or
    fractional size raises ProfileError.
    """
    part = _sizes(partition, "partition")
    if any(d < 1 for d in part) or sum(part) != profile.dim:
        raise ProfileError(
            f"partition {list(part)} does not sum to dim {profile.dim}"
        )
    offs = np.concatenate([[0], np.cumsum(part)])
    p = len(part)
    out = []
    for a in range(p):
        b = p - 1 - a
        if part[a] != part[b]:
            raise ProfileError(
                "anti-diagonal partner blocks must have equal sizes "
                f"(d_{a + 1}={part[a]}, d_{p - a}={part[b]})"
            )
        blk = profile.entries[offs[a]:offs[a + 1], offs[b]:offs[b + 1]]
        out.append(_connected(blk @ blk.T > 0))
    return out


def _connected(adj: np.ndarray) -> bool:
    """Whether the graph with edges v - t where the symmetric adj[v, t] is
    connected: a breadth-first search from vertex 0 reaches every vertex.
    Each vertex enters a frontier once, so the search reads each row once,
    O(k^2) for side k.
    """
    seen = np.zeros(len(adj), dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def classify_regime(profile: VarianceProfile) -> StructureReport:
    """Classify the profile by maximal zero-rectangle perimeter.

    Thresholds: bounded when the maximum perimeter is strictly below
    2*dim; rank_deficient when it reaches 2*(dim+1); critical_staircase
    for the gap in between.  Critical blocks are the maximal rectangles
    with perimeter in [2*dim, 2*dim + 1].  Given a staircase ordering, the
    anti-diagonal flags and, without block metadata, the irreducibility of
    the 1 x 1 blocks are read in it; a block profile's partition is its
    outer blocks as given.  The partition is None without either.
    """
    rects = maximal_zero_rectangles(profile)
    dim = profile.dim
    maxp = rects[0].perimeter if rects else 0
    if maxp >= 2 * (dim + 1):
        regime = REGIME_RANK_DEFICIENT
    elif maxp < 2 * dim:
        regime = REGIME_BOUNDED
    else:
        regime = REGIME_CRITICAL
    critical = tuple(r for r in rects if 2 * dim <= r.perimeter <= 2 * dim + 1)
    try:
        perm = recover_staircase_permutation(profile)
    except StaircasePatternError:
        perm = None
    ordered = profile if perm is None else profile.permuted(perm)
    a = ordered.entries
    anti = bool(all(a[i, dim - 1 - i] > 0 for i in range(dim)))
    soup = bool(all(a[i, dim - 2 - i] > 0 for i in range(dim - 1)))
    if profile.block_meta is not None:
        n, inner = profile.block_meta
        partition: tuple[int, ...] | None = (inner,) * n
        irr = tuple(antidiagonal_irreducibility(profile, partition))
    elif perm is not None:
        partition = (1,) * dim
        irr = tuple(antidiagonal_irreducibility(ordered, partition))
    else:
        partition = irr = None
    return StructureReport(
        regime=regime,
        max_perimeter=maxp,
        critical_blocks=critical,
        staircase_permutation=perm,
        antidiagonal_positive=anti,
        super_antidiagonal_positive=soup,
        block_partition=partition,
        irreducibility=irr,
    )


def expand_profile(
    small: VarianceProfile, inner: int, noise: float = 0.0, seed: int = 0
) -> VarianceProfile:
    """Expand an n-dim staircase profile to n*N dims with noisy blocks.

    Each positive entry s_jk becomes an N x N block with entries drawn
    uniformly from [s_jk (1 - noise)/N, s_jk (1 + noise)/N]; the draw is a
    deterministic function of the seed.  The matrix is symmetrized by
    averaging with its transpose, which keeps every entry inside its
    block's bounds.  Zero blocks stay exactly zero.  An n*N above
    DIMENSION_CAP raises ProfileError before anything is allocated.
    """
    ok, violations = check_assumption_staircase(small)
    if not ok:
        raise ProfileError(
            f"expansion requires a staircase profile; violations: {violations[:3]}"
        )
    if inner < 1:
        raise ProfileError("inner block size must be positive")
    if small.dim * inner > DIMENSION_CAP:
        raise ProfileError(
            f"expanded dimension {small.dim}*{inner} exceeds the cap {DIMENSION_CAP}"
        )
    if not 0.0 <= noise < 1.0:
        raise ProfileError(f"noise must lie in [0, 1), got {noise}")
    n = small.dim
    base = np.repeat(np.repeat(small.entries, inner, axis=0), inner, axis=1)
    rng = np.random.default_rng(seed)
    # base * (1 + noise u) / inner, in place in u
    u = rng.uniform(-1.0, 1.0, size=base.shape)
    u *= noise
    u += 1.0
    u *= base
    u /= inner
    big = u + u.T
    big *= 0.5
    big[base == 0.0] = 0.0
    return VarianceProfile(big, block_meta=(n, inner))

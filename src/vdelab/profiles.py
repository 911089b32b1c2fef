"""Variance profiles and their zero-block combinatorics.

A variance profile is a symmetric matrix of non-negative entry variances
for a Hermitian random matrix.  This module parses and validates profiles,
enumerates maximal all-zero rectangles of the zero pattern, classifies the
profile by zero-block perimeter, recovers staircase orderings, checks
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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

RECTANGLE_SEARCH_CAP = 20
# largest dense matrix side n*N: sampled ensembles and block expansions
DIMENSION_CAP = 4000

REGIME_BOUNDED = "bounded"
REGIME_CRITICAL = "critical_staircase"
REGIME_RANK_DEFICIENT = "rank_deficient"


class ProfileError(ValueError):
    """Invalid variance profile or structural-analysis input."""


class EnumerationCapError(ProfileError):
    """Matrix side length exceeds the zero-rectangle search cap."""


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
        Declares the matrix as n x n outer blocks of size N x N.  Within
        each outer block the zero pattern must be uniform: all entries zero
        or all entries positive.
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
            n, inner = self.block_meta
            if n < 1 or inner < 1 or n * inner != self.dim:
                raise ProfileError(
                    f"block metadata ({n},{inner}) inconsistent with dim {self.dim}"
                )
            object.__setattr__(self, "block_meta", (int(n), int(inner)))
            for j in range(n):
                for k in range(n):
                    blk = a[j * inner:(j + 1) * inner, k * inner:(k + 1) * inner]
                    if (blk == 0).any() and not (blk == 0).all():
                        raise ProfileError(
                            f"outer block ({j + 1},{k + 1}) mixes zero and "
                            "positive entries"
                        )

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def complex_entries(self) -> np.ndarray:
        """entries cast to complex once per profile, read-only; the solver's
        complex products take it so they make no cast of their own."""
        s = self.entries.astype(complex)
        s.flags.writeable = False
        return s

    @cached_property
    def block_means(self) -> np.ndarray | None:
        """n x n means of the outer blocks, None without block metadata."""
        if self.block_meta is None:
            return None
        n, inner = self.block_meta
        means = self.entries.reshape(n, inner, n, inner).mean(axis=(1, 3))
        means.flags.writeable = False
        return means

    def permuted(self, perm) -> "VarianceProfile":
        """Profile with entries s[perm[i], perm[j]] (0-based permutation)."""
        idx = np.asarray(perm, dtype=int)
        if sorted(idx.tolist()) != list(range(self.dim)):
            raise ProfileError("not a permutation of the row indices")
        return VarianceProfile(self.entries[np.ix_(idx, idx)])


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


def _row_zero_masks(entries: np.ndarray) -> list[int]:
    dim = entries.shape[0]
    masks = []
    for i in range(dim):
        mask = 0
        for j in range(dim):
            if entries[i, j] == 0.0:
                mask |= 1 << j
        masks.append(mask)
    return masks


def _bits(mask: int, dim: int) -> tuple[int, ...]:
    return tuple(j + 1 for j in range(dim) if mask >> j & 1)


def maximal_zero_rectangles(profile: VarianceProfile) -> list[ZeroRectangle]:
    """All maximal all-zero rectangles (maximal bicliques of the zero pattern).

    Row and column index sets need not be contiguous: a zero block in this
    sense survives any simultaneous row/column permutation.  The search
    walks closures of column intersections over row subsets, pruning empty
    intersections and deduplicating closed sets, so the list is complete
    and duplicate-free.  Worst case exponential, hence the hard cap.

    Returns rectangles sorted by descending perimeter, then by row/column
    sets for determinism.
    """
    dim = profile.dim
    if dim > RECTANGLE_SEARCH_CAP:
        raise EnumerationCapError(
            f"dim {dim} exceeds rectangle search cap {RECTANGLE_SEARCH_CAP}"
        )
    row_masks = _row_zero_masks(profile.entries)
    closures: set[int] = set()
    frontier = {m for m in row_masks if m}
    closures |= frontier
    while frontier:
        grown: set[int] = set()
        for cmask in frontier:
            for rmask in row_masks:
                c2 = cmask & rmask
                if c2 and c2 not in closures:
                    closures.add(c2)
                    grown.add(c2)
        frontier = grown
    rects = []
    for cmask in closures:
        rows = [i for i in range(dim) if row_masks[i] & cmask == cmask]
        inter = ~0
        for i in rows:
            inter &= row_masks[i]
        if inter != cmask:
            continue  # not closed: some column extends every row of the set
        rects.append(
            ZeroRectangle(rows=tuple(i + 1 for i in rows), cols=_bits(cmask, dim))
        )
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
    """Find a 0-based permutation p with s[p[i], p[j]] in staircase form.

    Success means the permuted matrix passes check_assumption_staircase:
    zeros wherever i + j >= dim + 2 demands them, positive entries on the
    two anti-diagonals, entries with i + j < dim unconstrained.  Rows are
    assigned to staircase positions from the bottom up by backtracking;
    candidates are tried in descending zero-count order, which resolves
    instantly for the common case of distinct counts while staying
    complete when unconstrained zeros make counts tie or reorder.

    Raises StaircasePatternError when no valid permutation exists.
    """
    a = profile.entries
    dim = profile.dim
    counts = (a == 0.0).sum(axis=1)
    by_count_desc = sorted(range(dim), key=lambda r: (-int(counts[r]), r))
    # slot[k] is the original row placed at 1-based position k+1
    slot: list[int] = [-1] * dim
    used = [False] * dim
    rule = _staircase_rule(dim).tolist()

    def admissible(row: int, pos0: int) -> bool:
        need = rule[pos0]
        for j0 in range(pos0, dim):
            v = a[row, row if j0 == pos0 else slot[j0]]
            if (need[j0] > 0 and not v > 0) or (need[j0] < 0 and v != 0.0):
                return False
        return True

    def place(pos0: int) -> bool:
        if pos0 < 0:
            return True
        for row in by_count_desc:
            if not used[row] and admissible(row, pos0):
                slot[pos0] = row
                used[row] = True
                if place(pos0 - 1):
                    return True
                slot[pos0] = -1
                used[row] = False
        return False

    if not place(dim - 1):
        raise StaircasePatternError(
            "no row/column ordering satisfies the staircase conditions"
        )
    return tuple(slot)


def antidiagonal_irreducibility(
    profile: VarianceProfile, partition
) -> list[bool]:
    """Strong connectivity of B B^T per anti-diagonal partition block.

    For each block index a (1-based) with opposite index b = p + 1 - a,
    B is the (a, b) block of the partition grid, M = B B^T, and the entry
    M[v, t] > 0 defines a directed edge v -> t.  Reports one boolean per a:
    whether that graph is strongly connected.
    """
    part = [int(d) for d in partition]
    if any(d < 1 for d in part) or sum(part) != profile.dim:
        raise ProfileError(
            f"partition {part} does not sum to dim {profile.dim}"
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
        m = blk @ blk.T
        ncomp = connected_components(
            csr_matrix(m > 0), directed=True, connection="strong"
        )[0]
        out.append(bool(ncomp == 1))
    return out


def classify_regime(profile: VarianceProfile) -> StructureReport:
    """Classify the profile by maximal zero-rectangle perimeter.

    Thresholds: bounded when the maximum perimeter is strictly below
    2*dim; rank_deficient when it reaches 2*(dim+1); critical_staircase
    for the gap in between.  Critical blocks are the maximal rectangles
    with perimeter in [2*dim, 2*dim + 1].
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
    a = profile.entries
    anti = bool(all(a[i, dim - 1 - i] > 0 for i in range(dim)))
    soup = bool(all(a[i, dim - 2 - i] > 0 for i in range(dim - 1)))
    if profile.block_meta is not None:
        n, inner = profile.block_meta
        partition: tuple[int, ...] | None = (inner,) * n
    elif ((a == 0.0) == (_staircase_rule(dim) < 0)).all():
        partition = (1,) * dim
    else:
        partition = None
    irr = (
        tuple(antidiagonal_irreducibility(profile, partition))
        if partition is not None
        else None
    )
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
    block's bounds.  Zero blocks stay exactly zero.
    """
    ok, violations = check_assumption_staircase(small)
    if not ok:
        raise ProfileError(
            f"expansion requires a staircase profile; violations: {violations[:3]}"
        )
    if inner < 1:
        raise ProfileError("inner block size must be positive")
    if not 0.0 <= noise < 1.0:
        raise ProfileError(f"noise must lie in [0, 1), got {noise}")
    n = small.dim
    base = np.repeat(np.repeat(small.entries, inner, axis=0), inner, axis=1)
    rng = np.random.default_rng(seed)
    u = rng.uniform(-1.0, 1.0, size=base.shape)
    big = base * (1.0 + noise * u) / inner
    big = 0.5 * (big + big.T)
    big[base == 0.0] = 0.0
    return VarianceProfile(big, block_meta=(n, inner))

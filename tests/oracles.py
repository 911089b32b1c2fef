"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exhaustive enumeration and closed
forms only, no shared code with vdelab internals.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri


def brute_maximal_rectangles(entries: np.ndarray) -> list[tuple[tuple, tuple]]:
    """All maximal all-zero rectangles by scanning every column subset.

    A column set C pairs with rows(C) = {i : row i is zero on all of C};
    the pair is maximal iff C is exactly the set of columns that vanish on
    rows(C).  Exponential in dim, fine for dim <= 10.  Returns 1-based
    (rows, cols) sorted like the production enumerator.
    """
    dim = entries.shape[0]
    out = set()
    for size in range(1, dim + 1):
        for cols in itertools.combinations(range(dim), size):
            rows = [i for i in range(dim) if all(entries[i, j] == 0.0 for j in cols)]
            if not rows:
                continue
            closed = tuple(
                j for j in range(dim) if all(entries[i, j] == 0.0 for i in rows)
            )
            if closed == cols:
                out.add(
                    (tuple(r + 1 for r in rows), tuple(c + 1 for c in cols))
                )
    return sorted(out, key=lambda rc: (-2 * (len(rc[0]) + len(rc[1])), rc[0], rc[1]))


def staircase_violations(entries: np.ndarray) -> list[tuple[int, int, str]]:
    """Staircase-condition violations (i, j, expected), 1-based with i <= j.

    Straight from the statement: s_ij > 0 where i + j is dim or dim + 1,
    s_ij = 0 where i + j >= dim + 2, read in row-major order.
    """
    dim = entries.shape[0]
    out = []
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            v = entries[i - 1, j - 1]
            if i + j in (dim, dim + 1) and not v > 0:
                out.append((i, j, "positive"))
            elif i + j >= dim + 2 and v != 0.0:
                out.append((i, j, "zero"))
    return out


def brute_staircase_permutation(entries: np.ndarray) -> tuple[int, ...] | None:
    """First 0-based permutation p, in lexicographic order, that puts
    s[p[i], p[j]] in staircase form; None when there is none.  Tries all
    dim! orderings, fine for dim <= 6."""
    dim = entries.shape[0]
    for perm in itertools.permutations(range(dim)):
        if not staircase_violations(entries[np.ix_(perm, perm)]):
            return perm
    return None


def semicircle_m(z: complex) -> complex:
    """Stieltjes transform of the semicircle on [-2, 2], upper half-plane branch."""
    root = cmath.sqrt(z * z - 4.0)
    if root.imag < 0:
        root = -root
    return (-z + root) / 2.0


def semicircle_rho(e_val: float) -> float:
    return math.sqrt(max(4.0 - e_val * e_val, 0.0)) / (2.0 * math.pi)


def semicircle_mass(delta: float) -> float:
    """Semicircle mass of [-delta, delta], delta <= 2."""
    return (
        delta * math.sqrt(4.0 - delta * delta) / 2.0 + 2.0 * math.asin(delta / 2.0)
    ) / math.pi


def staircase_entries(n: int, fill: float = 1.0) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, : n - i] = fill
    return a


def block_pattern_entries(pattern, inner: int, seed: int) -> np.ndarray:
    """Symmetric entries with the zero pattern of the n x n 0/1 pattern
    in N x N outer blocks, each positive entry drawn from [0.5, 1.5)."""
    noise = np.random.default_rng(seed).uniform(0.5, 1.5, (len(pattern) * inner,) * 2)
    return np.kron(np.asarray(pattern, dtype=float), np.ones((inner, inner))) * (
        noise + noise.T) / 2


def dense_sample_matrix(spec, trial: int) -> np.ndarray:
    """Whole-matrix draw of vdelab.montecarlo.sample_matrix's layout.

    Draws all 4*d*d Philox words of the trial at once, position (a, b) in
    counter block a*d + b, and builds the Hermitian matrix from full d x d
    arrays: upper + upper^H, so zero blocks come out +0.0.
    """
    n = spec.small_profile.dim
    inner = spec.inner_N
    d = n * inner
    var = np.repeat(
        np.repeat(spec.small_profile.entries, inner, axis=0), inner, axis=1
    ) / inner
    gen = Philox(key=np.array([spec.seed, trial], dtype=np.uint64))
    raw = gen.random_raw(4 * d * d)

    def normals(words):
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return ndtri(np.maximum(u, 2.0**-54))

    g0 = normals(raw[0::4]).reshape(d, d)
    if spec.symmetry == "real_symmetric":
        std = np.sqrt(var)
        np.fill_diagonal(std, np.sqrt(2.0 * np.diag(var)))
        upper = np.triu(std * g0)
        return upper + upper.T - np.diag(np.diag(upper))
    g1 = normals(raw[1::4]).reshape(d, d)
    off = np.sqrt(var / 2.0) * (g0 + 1j * g1)
    h = np.triu(off, 1)
    h = h + h.conj().T
    return h + np.diag(np.sqrt(np.diag(var)) * np.diag(g0))

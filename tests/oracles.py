"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: exhaustive enumeration and closed
forms only, no shared code with vdelab internals.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np


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

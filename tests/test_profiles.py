"""Profile validation, zero-rectangle enumeration, and structure analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_maximal_rectangles,
    brute_staircase_permutation,
    staircase_entries,
    staircase_violations,
)
from vdelab import (
    EnumerationCapError,
    ProfileError,
    RECTANGLE_SEARCH_CAP,
    REGIME_BOUNDED,
    REGIME_CRITICAL,
    REGIME_RANK_DEFICIENT,
    StaircasePatternError,
    VarianceProfile,
    ZeroRectangle,
    antidiagonal_irreducibility,
    check_assumption_staircase,
    classify_regime,
    expand_profile,
    load_profile,
    maximal_zero_rectangles,
    parse_profile,
    random_staircase_profile,
    recover_staircase_permutation,
    staircase_profile,
)


def as_pairs(rects):
    return [(r.rows, r.cols) for r in rects]


# ---------------------------------------------------------------- validation


def test_rejects_non_square():
    with pytest.raises(ProfileError):
        VarianceProfile(np.ones((2, 3)))
    with pytest.raises(ProfileError):
        VarianceProfile(np.ones(4))
    with pytest.raises(ProfileError):
        VarianceProfile(np.zeros((0, 0)))


def test_rejects_negative_and_non_finite():
    with pytest.raises(ProfileError, match="negative"):
        VarianceProfile(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    with pytest.raises(ProfileError, match="finite"):
        VarianceProfile(np.array([[np.nan]]))
    with pytest.raises(ProfileError, match="finite"):
        VarianceProfile(np.array([[np.inf]]))


def test_rejects_asymmetric():
    with pytest.raises(ProfileError, match="asymmetric"):
        VarianceProfile(np.array([[1.0, 2.0], [2.0000001, 1.0]]))


def test_entries_are_read_only():
    prof = staircase_profile(3)
    with pytest.raises(ValueError):
        prof.entries[0, 0] = 5.0


def test_block_meta_validation():
    a = staircase_entries(2)
    big = np.repeat(np.repeat(a, 2, axis=0), 2, axis=1)
    prof = VarianceProfile(big, block_meta=(2, 2))
    assert prof.block_meta == (2, 2)
    with pytest.raises(ProfileError, match="inconsistent"):
        VarianceProfile(big, block_meta=(2, 3))
    # a block mixing zero and positive entries is not a block profile
    mixed = big.copy()
    mixed[0, 1] = 0.0
    mixed[1, 0] = 0.0
    with pytest.raises(ProfileError, match="mixes"):
        VarianceProfile(mixed, block_meta=(2, 2))


def test_permuted_reorders_entries():
    prof = VarianceProfile(np.array([[4.0, 1.0], [1.0, 0.0]]))
    swapped = prof.permuted([1, 0])
    assert swapped.entries[0, 0] == 0.0
    assert swapped.entries[1, 1] == 4.0
    with pytest.raises(ProfileError):
        prof.permuted([0, 0])


# -------------------------------------------------------------- parse / load


def test_parse_profile_plain_and_with_blocks():
    prof = parse_profile('{"matrix": [[1.0, 1.0], [1.0, 0.0]]}')
    assert prof.dim == 2 and prof.block_meta is None
    doc = '{"matrix": [[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], "n": 2, "N": 2}'
    assert parse_profile(doc).block_meta == (2, 2)


def test_parse_profile_errors():
    with pytest.raises(ProfileError, match="JSON"):
        parse_profile("not json")
    with pytest.raises(ProfileError, match="matrix"):
        parse_profile('{"rows": []}')
    with pytest.raises(ProfileError, match='both "n" and "N"'):
        parse_profile('{"matrix": [[1.0]], "n": 1}')
    with pytest.raises(ProfileError, match="malformed"):
        parse_profile('{"matrix": [[1.0], [1.0, 2.0]]}')
    # no coercion: null, lists, fractions and bools are not integers, and
    # bools and strings are not numbers
    for meta in ('"n": null, "N": 1', '"n": [1], "N": 1', '"n": 1, "N": true'):
        with pytest.raises(ProfileError, match="JSON integer"):
            parse_profile('{"matrix": [[1.0]], %s}' % meta)
    with pytest.raises(ProfileError, match="JSON integer"):
        parse_profile('{"matrix": [[1, 1], [1, 1]], "n": 2.9, "N": 1.2}')
    for entry in ("true", '"1"', "null"):
        with pytest.raises(ProfileError, match="JSON numbers"):
            parse_profile('{"matrix": [[%s]]}' % entry)
    with pytest.raises(ProfileError, match="list of rows"):
        parse_profile('{"matrix": [1.0]}')
    with pytest.raises(ProfileError, match="malformed"):
        parse_profile('{"matrix": [[%s]]}' % (10**400))


def test_load_profile_path_and_stream(tmp_path):
    p = tmp_path / "prof.json"
    p.write_text('{"matrix": [[2.0]]}')
    assert load_profile(p).entries[0, 0] == 2.0
    with open(p) as fh:
        assert load_profile(fh).dim == 1


# ---------------------------------------------------------------- generators


def test_staircase_profile_pattern():
    prof = staircase_profile(4, fill=2.0)
    a = prof.entries
    for i in range(4):
        for j in range(4):
            expected = 2.0 if (i + 1) + (j + 1) <= 5 else 0.0
            assert a[i, j] == expected
    ok, violations = check_assumption_staircase(prof)
    assert ok and violations == []
    with pytest.raises(ProfileError):
        staircase_profile(0)
    with pytest.raises(ProfileError):
        staircase_profile(2, fill=-1.0)


def test_random_staircase_profile():
    prof = random_staircase_profile(5, seed=11, low=0.5, high=2.0)
    a = prof.entries
    allowed = a[staircase_entries(5) > 0]
    assert ((allowed >= 0.5) & (allowed <= 2.0)).all()
    assert (a[staircase_entries(5) == 0] == 0.0).all()
    again = random_staircase_profile(5, seed=11, low=0.5, high=2.0)
    assert (a == again.entries).all()
    with pytest.raises(ProfileError):
        random_staircase_profile(3, seed=0, low=0.0)


# ---------------------------------------------------------------- rectangles


def test_rectangle_examples():
    # one interior zero
    rects = maximal_zero_rectangles(VarianceProfile(np.array([[1.0, 1.0], [1.0, 0.0]])))
    assert as_pairs(rects) == [((2,), (2,))]
    assert rects[0].perimeter == 4

    # 3x3 staircase: two overlapping maximal rectangles, perimeter 6 each
    rects = maximal_zero_rectangles(staircase_profile(3))
    assert as_pairs(rects) == [((2, 3), (3,)), ((3,), (2, 3))]

    # dominant zero block reaching perimeter 2(dim+1)
    rects = maximal_zero_rectangles(VarianceProfile(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert as_pairs(rects) == [((1, 2), (2,)), ((2,), (1, 2))]

    assert maximal_zero_rectangles(VarianceProfile(np.ones((3, 3)))) == []


def test_rectangles_match_brute_force_on_staircases():
    for n in range(1, 9):
        prof = staircase_profile(n)
        got = as_pairs(maximal_zero_rectangles(prof))
        assert got == brute_maximal_rectangles(prof.entries)
        # n-1 critical rectangles, every perimeter exactly 2n
        assert len(got) == n - 1
        assert all(r.perimeter == 2 * n for r in maximal_zero_rectangles(prof))


def test_rectangles_match_brute_force_on_random_patterns():
    rng = np.random.default_rng(7)
    for _ in range(40):
        dim = int(rng.integers(1, 7))
        u = np.triu(rng.integers(0, 2, size=(dim, dim)))
        a = (u + u.T - np.diag(np.diag(u))).astype(float)
        prof = VarianceProfile(a)
        assert as_pairs(maximal_zero_rectangles(prof)) == brute_maximal_rectangles(a)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
def test_rectangles_match_brute_force_property(seed, dim):
    rng = np.random.default_rng(seed)
    u = np.triu(rng.integers(0, 2, size=(dim, dim)))
    a = (u + u.T - np.diag(np.diag(u))).astype(float)
    assert as_pairs(maximal_zero_rectangles(VarianceProfile(a))) == (
        brute_maximal_rectangles(a)
    )


def test_enumeration_cap():
    big = staircase_profile(RECTANGLE_SEARCH_CAP + 1)
    with pytest.raises(EnumerationCapError):
        maximal_zero_rectangles(big)
    with pytest.raises(EnumerationCapError):
        classify_regime(big)


def test_zero_rectangle_perimeter():
    assert ZeroRectangle(rows=(1, 3), cols=(2,)).perimeter == 6


# ------------------------------------------------------- staircase condition


def test_check_assumption_reports_violations():
    # zero on the anti-diagonal and a stray positive entry in the zero corner
    a = staircase_entries(3)
    a[0, 2] = a[2, 0] = 0.0
    a[2, 2] = 1.0
    ok, violations = check_assumption_staircase(VarianceProfile(a))
    assert not ok
    found = {(v.i, v.j, v.expected) for v in violations}
    assert (1, 3, "positive") in found
    assert (3, 3, "zero") in found
    assert not check_assumption_staircase(VarianceProfile(np.array([[0.0]])))[0]


def test_recover_identity_for_plain_staircase():
    for n in range(1, 7):
        assert recover_staircase_permutation(staircase_profile(n)) == tuple(range(n))


def test_recover_round_trip_random_permutations():
    rng = np.random.default_rng(3)
    for n in range(2, 9):
        prof = random_staircase_profile(n, seed=n)
        for _ in range(20):
            perm = tuple(rng.permutation(n).tolist())
            shuffled = prof.permuted(perm)
            rec = recover_staircase_permutation(shuffled)
            assert check_assumption_staircase(shuffled.permuted(rec))[0]


def test_recover_with_zeros_in_free_region():
    # extra zeros below the staircase make the row zero-counts tie and
    # reorder, which defeats any purely count-based assignment
    a = staircase_entries(5)
    a[0, 0] = a[0, 1] = a[1, 0] = a[0, 2] = a[2, 0] = 0.0
    base = VarianceProfile(a)
    assert check_assumption_staircase(base)[0]
    rng = np.random.default_rng(99)
    for _ in range(30):
        shuffled = base.permuted(tuple(rng.permutation(5).tolist()))
        rec = recover_staircase_permutation(shuffled)
        assert check_assumption_staircase(shuffled.permuted(rec))[0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       flip=st.sampled_from([0.0, 0.1, 0.3, 0.5]))
def test_staircase_rule_matches_oracle(seed, dim, flip):
    # a shuffled staircase zero pattern with a share of its upper-triangle
    # entries flipped between zero and positive, so both outcomes occur
    rng = np.random.default_rng(seed)
    zero = np.triu(staircase_entries(dim) == 0.0)
    zero ^= np.triu(rng.random((dim, dim)) < flip)
    zero |= zero.T
    a = np.where(zero, 0.0, rng.uniform(0.5, 2.0, (dim, dim)))
    a = np.triu(a) + np.triu(a, 1).T
    perm = rng.permutation(dim)
    prof = VarianceProfile(a[np.ix_(perm, perm)])

    ok, violations = check_assumption_staircase(prof)
    assert [(v.i, v.j, v.expected) for v in violations] == (
        staircase_violations(prof.entries)
    )
    assert ok == (not violations)
    assert all(type(v.i) is int and type(v.j) is int for v in violations)

    want = brute_staircase_permutation(prof.entries)
    try:
        rec = recover_staircase_permutation(prof)
    except StaircasePatternError:
        assert want is None
    else:
        assert want is not None
        assert check_assumption_staircase(prof.permuted(rec))[0]


def test_recover_failure_cases():
    with pytest.raises(StaircasePatternError):
        recover_staircase_permutation(VarianceProfile(np.eye(2)))
    with pytest.raises(StaircasePatternError):
        recover_staircase_permutation(VarianceProfile(np.ones((3, 3))))


# ------------------------------------------------------------ classification


def test_classify_bounded():
    report = classify_regime(VarianceProfile(np.ones((2, 2))))
    assert report.regime == REGIME_BOUNDED
    assert report.max_perimeter == 0
    assert report.critical_blocks == ()
    assert report.staircase_permutation is None


def test_classify_critical_staircase():
    report = classify_regime(staircase_profile(2))
    assert report.regime == REGIME_CRITICAL
    assert report.max_perimeter == 4
    assert len(report.critical_blocks) == 1
    assert report.staircase_permutation == (0, 1)
    assert report.antidiagonal_positive
    assert report.super_antidiagonal_positive
    assert report.block_partition == (1, 1)
    assert report.irreducibility == (True, True)


def test_classify_rank_deficient():
    report = classify_regime(VarianceProfile(np.array([[1.0, 0.0], [0.0, 0.0]])))
    assert report.regime == REGIME_RANK_DEFICIENT
    assert report.max_perimeter == 6


def test_classify_regime_is_permutation_invariant():
    rng = np.random.default_rng(21)
    for n in range(2, 7):
        prof = random_staircase_profile(n, seed=n + 50)
        base = classify_regime(prof)
        for _ in range(5):
            shuffled = prof.permuted(tuple(rng.permutation(n).tolist()))
            report = classify_regime(shuffled)
            assert report.regime == base.regime
            assert report.max_perimeter == base.max_perimeter
            assert len(report.critical_blocks) == len(base.critical_blocks)


def test_classify_json_round_trip():
    doc = classify_regime(staircase_profile(3)).to_json_dict()
    assert doc["regime"] == REGIME_CRITICAL
    assert doc["staircase_permutation"] == [0, 1, 2]
    assert doc["critical_blocks"][0]["perimeter"] == 6
    assert doc["irreducibility"] == [True, True, True]


# ------------------------------------------------------------- irreducibility


def test_irreducibility_scalar_blocks():
    prof = staircase_profile(4)
    assert antidiagonal_irreducibility(prof, (1, 1, 1, 1)) == [True] * 4


def test_irreducibility_detects_disconnected_blocks():
    # anti-diagonal blocks equal to the identity: B B^T = I, two components
    a = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ]
    )
    assert antidiagonal_irreducibility(VarianceProfile(a), (2, 2)) == [False, False]


def test_irreducibility_partition_validation():
    prof = staircase_profile(4)
    with pytest.raises(ProfileError, match="sum"):
        antidiagonal_irreducibility(prof, (2, 3))
    with pytest.raises(ProfileError, match="equal sizes"):
        antidiagonal_irreducibility(prof, (1, 3))


# ----------------------------------------------------------------- expansion


def test_expand_profile_noise_zero_is_exact():
    small = staircase_profile(2)
    big = expand_profile(small, 4)
    assert big.dim == 8
    assert big.block_meta == (2, 4)
    # constant blocks s_jk / N, zero blocks exactly zero
    assert (big.entries[:4, :4] == 0.25).all()
    assert (big.entries[4:, 4:] == 0.0).all()


def test_expand_profile_noise_bounds_and_determinism():
    small = random_staircase_profile(3, seed=5)
    big = expand_profile(small, 5, noise=0.5, seed=12)
    again = expand_profile(small, 5, noise=0.5, seed=12)
    other = expand_profile(small, 5, noise=0.5, seed=13)
    assert (big.entries == again.entries).all()
    assert (big.entries != other.entries).any()
    assert (big.entries == big.entries.T).all()
    base = np.repeat(np.repeat(small.entries, 5, axis=0), 5, axis=1)
    pos = base > 0
    assert (big.entries[pos] >= base[pos] * 0.5 / 5).all()
    assert (big.entries[pos] <= base[pos] * 1.5 / 5).all()
    assert (big.entries[~pos] == 0.0).all()


def test_expand_profile_classifies_with_block_partition():
    big = expand_profile(staircase_profile(2), 3, noise=0.5, seed=2)
    report = classify_regime(big)
    assert report.block_partition == (3, 3)
    assert report.irreducibility == (True, True)


def test_expand_profile_errors():
    small = staircase_profile(2)
    with pytest.raises(ProfileError):
        expand_profile(small, 0)
    with pytest.raises(ProfileError):
        expand_profile(small, 2, noise=1.0)
    with pytest.raises(ProfileError):
        expand_profile(VarianceProfile(np.array([[0.0, 1.0], [1.0, 0.0]])), 2)

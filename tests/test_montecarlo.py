"""Deterministic sampling, ensemble statistics, and spectral cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_sample_matrix, resolvent_diagonal_deviations, semicircle_mass
from vdelab import (
    COMPLEX_HERMITIAN,
    EnsembleSpec,
    SpectralPoint,
    VarianceProfile,
    empirical_near_zero,
    entry_value,
    expand_profile,
    predicted_near_zero_mass,
    random_staircase_profile,
    recover_staircase_permutation,
    sample_matrix,
    sample_spectrum,
    solve,
    staircase_profile,
    support_bound,
)
from vdelab import montecarlo
from vdelab.montecarlo import TRIALS_CAP, _near_zero_count, _negatives, _zero_blocks

# semicircle mass of [-1, 1]
MASS_1 = 0.6089977810442294


def spec_for(n=1, inner=8, symmetry="real_symmetric", trials=1, seed=0):
    return EnsembleSpec(
        small_profile=staircase_profile(n),
        inner_N=inner,
        symmetry=symmetry,
        trials=trials,
        seed=seed,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        spec_for(inner=1)
    with pytest.raises(ValueError):
        spec_for(trials=0)
    with pytest.raises(ValueError, match="trials"):
        spec_for(trials=TRIALS_CAP + 1)
    assert spec_for(trials=TRIALS_CAP).trials == TRIALS_CAP
    with pytest.raises(ValueError):
        spec_for(symmetry="quaternion")
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            spec_for(seed=seed)
    assert spec_for(seed=2**64 - 1).seed == 2**64 - 1
    assert spec_for(n=2, inner=5).dimension == 10


def test_fractional_seed_and_trial_are_refused():
    # a float would truncate into the Philox key and draw seed 1's, or
    # trial 1's, matrix bit for bit; a bool would draw 1's too
    for seed in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="seed must be an integer"):
            spec_for(seed=seed)
    spec = spec_for(n=2, inner=3)
    for trial in (1.5, 1.0, True, np.bool_(True)):
        with pytest.raises(ValueError, match="trial must be an integer"):
            sample_matrix(spec, trial)
        with pytest.raises(ValueError, match="trial must be an integer"):
            entry_value(spec, trial, 0, 1)
    want = sample_matrix(spec, 1)
    for trial in (np.int64(1), np.uint64(1)):
        assert (sample_matrix(spec, trial).view(np.uint8) == want.view(np.uint8)).all()


def test_fractional_trials_are_refused():
    # 2.5 trials passed validation, then failed inside empirical_near_zero
    for trials in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="trials must be an integer"):
            spec_for(trials=trials)
    assert type(spec_for(trials=np.int32(2)).trials) is int


def test_numpy_inner_size_draws_the_python_int_matrix():
    # a numpy inner_N overflowed in Philox.advance's counter arithmetic
    with pytest.raises(ValueError, match="inner_N must be an integer"):
        spec_for(n=2, inner=4.0)
    want = spec_for(n=2, inner=4, seed=3)
    for inner in (np.int64(4), np.uint8(4)):
        spec = spec_for(n=2, inner=inner, seed=3)
        assert type(spec.inner_N) is int and spec.dimension == 8
        for trial in (0, 2**63):
            got, expected = sample_matrix(spec, trial), sample_matrix(want, trial)
            assert (got.view(np.uint8) == expected.view(np.uint8)).all()
            assert _near_zero_count(spec, trial, 0.3) == _near_zero_count(want, trial, 0.3)


def test_sampling_is_deterministic():
    spec = spec_for(n=2, inner=4, seed=33)
    a = sample_matrix(spec, trial=1)
    b = sample_matrix(spec, trial=1)
    assert (a == b).all()
    assert (sample_matrix(spec, trial=2) != a).any()
    other_seed = sample_matrix(spec_for(n=2, inner=4, seed=34), trial=1)
    assert (other_seed != a).any()


def test_real_symmetric_structure():
    spec = spec_for(n=2, inner=3)
    h = sample_matrix(spec, trial=0)
    assert h.dtype == np.float64
    assert (h == h.T).all()
    # the (2, 2) outer block of the staircase is a structural zero
    assert (h[3:, 3:] == 0.0).all()
    assert (h[:3, :3] != 0.0).any()


def test_complex_hermitian_structure():
    spec = spec_for(n=2, inner=3, symmetry=COMPLEX_HERMITIAN)
    h = sample_matrix(spec, trial=0)
    assert np.iscomplexobj(h)
    assert (h == h.conj().T).all()
    assert (np.diag(h).imag == 0.0).all()
    assert (h[3:, 3:] == 0.0).all()


def test_entry_value_matches_bulk_sampling(monkeypatch):
    # an entry is the last of a row prefix, in batches of every size
    for chunk in (montecarlo._CHUNK, 1, 7):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        for symmetry in ("real_symmetric", COMPLEX_HERMITIAN):
            spec = spec_for(n=2, inner=3, symmetry=symmetry, seed=7)
            h = sample_matrix(spec, trial=5)
            pairs = [(0, 0), (0, 1), (2, 4), (4, 2), (5, 5), (1, 0), (0, 5), (5, 0)]
            for a, b in pairs:
                assert entry_value(spec, 5, a, b) == complex(h[a, b])
                # numpy integer indices give the Python-int entry bit for bit
                want = np.complex128(entry_value(spec, 5, a, b)).tobytes()
                for kind in (np.int64, np.int32, np.uint64):
                    got = entry_value(spec, 5, kind(a), kind(b))
                    assert np.complex128(got).tobytes() == want
    with pytest.raises(ValueError):
        entry_value(spec_for(), 0, 0, 99)
    # numpy reads a bool index as a mask, not as the integer 0 or 1
    for a in (True, np.bool_(False), 1.0):
        with pytest.raises(ValueError, match="integer"):
            entry_value(spec_for(), 0, a, 2)
    with pytest.raises(ValueError, match="integer"):
        entry_value(spec_for(), 0, 2, True)


def staircase(n, profile_seed, data):
    """All-ones (profile_seed None) or random staircase, randomly permuted."""
    if profile_seed is None:
        profile = staircase_profile(n)
    else:
        profile = random_staircase_profile(n, profile_seed)
    return profile.permuted(data.draw(st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    profile_seed=st.none() | st.integers(0, 2**32 - 1),
    inner=st.integers(2, 9),
    symmetry=st.sampled_from(["real_symmetric", COMPLEX_HERMITIAN]),
    seed=st.integers(0, 2**64 - 1),
    trials=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3),
    data=st.data(),
)
def test_sample_matrix_matches_dense_oracle(
    n, profile_seed, inner, symmetry, seed, trials, data
):
    # byte for byte, signed zeros included: LAPACK's Householder signs
    # can see a -0.0 where the whole-matrix sum gave +0.0; permuted
    # profiles put zero blocks before a row's last nonzero one
    spec = EnsembleSpec(staircase(n, profile_seed, data), inner, symmetry, seed=seed)
    d = spec.dimension
    for trial in trials:
        h = sample_matrix(spec, trial)
        want = dense_sample_matrix(spec, trial)
        assert h.dtype == want.dtype and h.shape == want.shape
        assert (h.view(np.uint8) == want.view(np.uint8)).all()
        a = data.draw(st.integers(0, d - 1))
        b = data.draw(st.integers(0, d - 1))
        got = np.array([entry_value(spec, trial, a, b)])
        assert got.tobytes() == np.array([complex(want[a, b])]).tobytes()


def test_sample_matrix_peak_memory_is_one_matrix():
    # the whole-matrix draw peaked at 7.5-10 times the matrix's bytes
    for symmetry in ("real_symmetric", COMPLEX_HERMITIAN):
        spec = spec_for(n=3, inner=200, symmetry=symmetry)  # d = 600
        # a first draw pays the one-time set-up outside the trace
        sample_matrix(spec_for(n=1, inner=2, symmetry=symmetry), 0)
        tracemalloc.start()
        try:
            h = sample_matrix(spec, trial=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * h.nbytes, (symmetry, peak / h.nbytes)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    profile_seed=st.none() | st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_zero_blocks_of_every_permuted_staircase(n, profile_seed, data):
    profile = staircase(n, profile_seed, data)
    entries, zero = profile.entries, _zero_blocks(profile)
    assert len(set(zero)) == len(zero) == n // 2
    assert (entries[np.ix_(zero, zero)] == 0.0).all()


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 8),
    profile_seed=st.integers(0, 2**32 - 1),
    free_zeros=st.sampled_from([0.0, 0.5, 1.0]),
    data=st.data(),
)
def test_zero_blocks_against_the_recovered_staircase(
    n, profile_seed, free_zeros, data
):
    # zeros in the free region (1-based i + j < n) keep a staircase; its
    # recovered ordering says which blocks lie below the anti-diagonal, and
    # those are floor(n/2) however many free entries are zero (the greedy
    # search by row support found fewer once the free region held zeros)
    a = random_staircase_profile(n, profile_seed).entries.copy()
    i, j = np.triu_indices(n)
    rng = np.random.default_rng(profile_seed)
    hit = (i + j + 2 < n) & (rng.random(len(i)) < free_zeros)
    a[i[hit], j[hit]] = a[j[hit], i[hit]] = 0.0
    profile = VarianceProfile(a).permuted(data.draw(st.permutations(range(n))))
    order = recover_staircase_permutation(profile)
    zero = _zero_blocks(profile)
    assert (profile.entries[np.ix_(zero, zero)] == 0.0).all()
    assert len(zero) == n // 2
    below = [order[k - 1] for k in range(1, n + 1) if 2 * k >= n + 2]
    assert sorted(zero) == sorted(below)


def test_zero_blocks_of_general_profiles():
    assert _zero_blocks(VarianceProfile(np.ones((3, 3)))) == []
    assert _zero_blocks(VarianceProfile(np.array([[0.0, 1.0], [1.0, 0.0]]))) == [0]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    profile_seed=st.none() | st.integers(0, 2**32 - 1),
    inner=st.integers(2, 9),
    symmetry=st.sampled_from(["real_symmetric", COMPLEX_HERMITIAN]),
    seed=st.integers(0, 2**64 - 1),
    trial=st.integers(0, 2**64 - 1),
    delta=st.floats(1e-3, 2.0),
    data=st.data(),
)
def test_near_zero_count_matches_the_full_spectrum(
    n, profile_seed, inner, symmetry, seed, trial, delta, data
):
    # n = 1 has no zero blocks, so its complement is the whole matrix
    spec = EnsembleSpec(staircase(n, profile_seed, data), inner, symmetry, seed=seed)
    ev = np.linalg.eigvalsh(sample_matrix(spec, trial))
    want = np.count_nonzero(np.abs(ev) <= delta)
    assert _near_zero_count(spec, trial, delta) == want


def test_near_zero_count_peak_memory_is_under_two_matrices():
    # the complement blocks and the two shifted complements, drawn without a
    # d x d matrix; n = 1 has no zero blocks, so it holds two whole matrices
    # and the workspace
    for symmetry in ("real_symmetric", COMPLEX_HERMITIAN):
        for n, inner, bound in ((1, 600, 2.25), (2, 300, 1.25), (3, 200, 1.25)):
            spec = spec_for(n=n, inner=inner, symmetry=symmetry)  # d = 600
            # a first count pays the one-time set-up outside the trace
            _near_zero_count(spec_for(n=n, inner=2, symmetry=symmetry), 0, 0.1)
            tracemalloc.start()
            try:
                _near_zero_count(spec, 0, 0.1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            nbytes = 600**2 * (8 if symmetry == "real_symmetric" else 16)
            assert peak <= bound * nbytes, (symmetry, n, peak / nbytes)


@pytest.mark.parametrize("symmetry", ["real_symmetric", COMPLEX_HERMITIAN])
def test_shifted_complements_match_the_dense_schur_complement(symmetry, monkeypatch):
    # the complements _negatives factorizes are H_CC +- (H_CZ H_ZC / delta
    # - delta): W on the rows R that meet Z, -+delta on the diagonal of the
    # rest U; only their upper triangles are read, and so compared
    seen = []

    def spy(a):
        seen.append(a.copy())  # the factorization overwrites a
        return negatives(a)

    negatives = montecarlo._negatives
    monkeypatch.setattr(montecarlo, "_negatives", spy)
    sparse6 = np.add.outer(range(6), range(6))
    profiles = [
        staircase_profile(2),
        staircase_profile(3),
        staircase_profile(4).permuted([2, 0, 3, 1]),
        VarianceProfile(((sparse6 == 4) | (sparse6 == 5)).astype(float)).permuted(
            [5, 1, 3, 0, 4, 2]
        ),
    ]
    delta = 0.3
    for profile in profiles:
        spec = EnsembleSpec(profile, 5, symmetry, seed=23)
        del seen[:]
        _near_zero_count(spec, 2, delta)
        h = sample_matrix(spec, 2)
        in_z = np.repeat(np.isin(np.arange(profile.dim), _zero_blocks(profile)), 5)
        h_cz = h[np.ix_(~in_z, in_z)]
        w = h_cz @ h_cz.conj().T / delta - delta * np.eye(len(h_cz))
        h_cc = h[np.ix_(~in_z, ~in_z)]
        for got, want in zip(seen, (h_cc + w, h_cc - w), strict=True):
            err = np.abs(np.triu(got) - np.triu(want)).max()
            assert err <= 1e-13 * np.abs(want).max(), (profile.entries, err)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("symmetry", ["real_symmetric", COMPLEX_HERMITIAN])
def test_draw_batches_split_anywhere(chunk, symmetry, monkeypatch):
    # 1: one row per batch; 7: short rows share a batch, and a row of more
    # than 7 entries fills one alone.  A zero block comes first in each
    # permuted profile, so zero-block rows draw too
    monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
    for n, perm in ((4, [3, 0, 1, 2]), (4, [2, 3, 1, 0]), (3, [2, 0, 1]), (1, [0])):
        profile = staircase_profile(n).permuted(perm)
        assert 0 in _zero_blocks(profile) or n == 1
        spec = EnsembleSpec(profile, 5, symmetry, seed=17)
        for trial in (0, 9):
            h = sample_matrix(spec, trial)
            want = dense_sample_matrix(spec, trial)
            assert (h.view(np.uint8) == want.view(np.uint8)).all()
            a = spec.dimension - 1
            got = np.array([entry_value(spec, trial, a, 1)])
            assert got.tobytes() == np.array([complex(want[a, 1])]).tobytes()
            ev = np.linalg.eigvalsh(want)
            for delta in (0.05, 0.4, 1.5):
                count = np.count_nonzero(np.abs(ev) <= delta)
                assert _near_zero_count(spec, trial, delta) == count


def hermitian_with_spectrum(eigenvalues, complex_, rng):
    """Q diag(eigenvalues) Q^* for a random unitary Q."""
    n = len(eigenvalues)
    g = rng.standard_normal((n, n))
    if complex_:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    a = (q * eigenvalues) @ q.conj().T
    return (a + a.conj().T) / 2


def nan_below(a):
    """a with its strictly lower triangle NaN, which _negatives must not read."""
    a = a.copy()
    a[np.tril_indices(a.shape[0], -1)] = np.nan
    return a


@pytest.fixture
def factorizations(monkeypatch):
    """Record (side, lwork, ipiv) of every LDL^T factorization _negatives runs."""
    calls = []
    for name in ("dsytrf", "zhetrf"):
        routine = getattr(scipy.linalg.lapack, name)

        def spy(a, routine=routine, **kwargs):
            ldu, ipiv, info = routine(a, **kwargs)
            side = a.shape[0]
            calls.append((side, kwargs.get("lwork", max(side, 1)), ipiv.copy()))
            return ldu, ipiv, info

        monkeypatch.setattr(scipy.linalg.lapack, name, spy)
    return calls


@pytest.mark.parametrize("complex_", [False, True])
def test_negatives_counts_the_negative_eigenvalues(complex_, factorizations):
    rng = np.random.default_rng(11)
    dtype = np.complex128 if complex_ else np.float64
    assert _negatives(np.zeros((0, 0), dtype)) == 0
    for side in (1, 2, 3, 7, 40, 150):
        for _ in range(4):
            # every |eigenvalue| >= 1e-3, far above the factorization's error
            lam = rng.choice([-1.0, 1.0], side) * rng.uniform(1e-3, 3.0, side)
            a = hermitian_with_spectrum(lam, complex_, rng)
            want = np.count_nonzero(np.linalg.eigvalsh(a) < 0.0)
            assert want == np.count_nonzero(lam < 0.0)
            assert _negatives(nan_below(a)) == want, (side, lam)
    # a zero diagonal leaves Bunch-Kaufman no 1x1 pivot at the first step
    for side in (2, 3, 8, 60):
        for _ in range(4):
            a = rng.standard_normal((side, side))
            if complex_:
                a = a + 1j * rng.standard_normal((side, side))
            a = a + a.conj().T
            a[np.diag_indices(side)] = 0.0
            ev = np.linalg.eigvalsh(a)
            assert np.abs(ev).min() >= 1e-3
            del factorizations[:]
            assert _negatives(nan_below(a)) == np.count_nonzero(ev < 0.0)
            ((_, _, ipiv),) = factorizations
            assert (ipiv < 0).sum() >= 2, ipiv


def test_negatives_reads_every_kind_of_pivot_block(monkeypatch):
    # Bunch-Kaufman's pivot test gives each 2x2 block det < 0, so LAPACK
    # alone does not reach the reading's other branches: feed it a D, each
    # 2x2 off-diagonal entry only below the diagonal, where the lower
    # factorization stores it
    d = np.zeros((9, 9))
    d[0, 0] = -1.0
    d[1:3, 1:3] = [[-1.0, 0.0], [2.0, -1.0]]  # det < 0: one negative
    d[3:5, 3:5] = [[-2.0, 0.0], [1.0, -2.0]]  # det > 0, trace < 0: two
    d[5:7, 5:7] = [[2.0, 0.0], [1.0, 2.0]]  # det > 0, trace > 0: none
    d[7:9, 7:9] = [[-1.0, 0.0], [1.0, -1.0]]  # det = 0, trace < 0: one
    ipiv = np.array([1, -2, -2, -4, -4, -6, -6, -8, -8], dtype=np.int32)
    monkeypatch.setattr(scipy.linalg.lapack, "dsytrf", lambda a, **kw: (d, ipiv, 0))
    assert np.count_nonzero(np.linalg.eigvalsh(d, UPLO="L") < -1e-12) == 5
    assert _negatives(np.eye(9)) == 5


@pytest.mark.parametrize("complex_", [False, True])
def test_negatives_uses_the_blocked_workspace(complex_, factorizations):
    # scipy's wrappers default to one row of workspace, which runs LAPACK's
    # unblocked code several times slower
    lapack = scipy.linalg.lapack
    query = lapack.zhetrf_lwork if complex_ else lapack.dsytrf_lwork
    rng = np.random.default_rng(12)
    for side in (1, 64, 300):
        a = hermitian_with_spectrum(rng.uniform(-2.0, 2.0, side), complex_, rng)
        _negatives(a)
    assert [call[0] for call in factorizations] == [1, 64, 300]
    for side, lwork, _ in factorizations:
        assert lwork >= int(query(side)[0].real) > side


def test_trial_index_range():
    spec = spec_for(n=2, inner=3)
    for trial in (-1, 2**64):
        with pytest.raises(ValueError, match=r"trial must lie in \[0, 2\*\*64\)"):
            sample_matrix(spec, trial)
        with pytest.raises(ValueError, match="trial"):
            entry_value(spec, trial, 0, 0)
    last = sample_matrix(spec, 2**64 - 1)
    assert entry_value(spec, 2**64 - 1, 1, 4) == complex(last[1, 4])


def test_real_moments():
    spec = spec_for(inner=64, trials=24)
    off, diag = [], []
    for trial in range(spec.trials):
        h = sample_matrix(spec, trial)
        off.append(h[np.triu_indices(64, k=1)])
        diag.append(np.diag(h))
    off = np.concatenate(off)
    diag = np.concatenate(diag)
    assert abs(off.mean()) < 3e-3
    assert off.var() == pytest.approx(1.0 / 64.0, rel=0.05)
    assert diag.var() == pytest.approx(2.0 / 64.0, rel=0.20)


def test_complex_moments():
    spec = spec_for(inner=64, trials=24, symmetry=COMPLEX_HERMITIAN)
    off = []
    for trial in range(spec.trials):
        h = sample_matrix(spec, trial)
        off.append(h[np.triu_indices(64, k=1)])
    off = np.concatenate(off)
    assert (np.abs(off) ** 2).mean() == pytest.approx(1.0 / 64.0, rel=0.05)
    assert off.real.var() == pytest.approx(0.5 / 64.0, rel=0.05)
    assert off.imag.var() == pytest.approx(0.5 / 64.0, rel=0.05)


def test_sample_spectrum_sorted():
    spec = spec_for(n=2, inner=6)
    ev = sample_spectrum(spec, trial=3)
    assert ev.shape == (12,)
    assert (np.diff(ev) >= 0).all()
    assert (ev == np.linalg.eigvalsh(sample_matrix(spec, 3))).all()


def test_semicircle_bulk_fraction():
    # closed-form check of the whole sampling chain
    spec = spec_for(inner=300, trials=4)
    result = empirical_near_zero(spec, 1.0)
    assert isinstance(result.prediction, float)
    assert abs(result.prediction / MASS_1 - 1.0) < 1e-14
    assert abs(result.fraction - MASS_1) < 0.02
    assert result.per_trial.shape == (4,)
    assert result.stderr > 0.0


def test_predicted_mass_matches_semicircle():
    prof = staircase_profile(1)
    for delta in (1e-3, 0.1, 0.5, 1.0, 1.5):
        got, err = predicted_near_zero_mass(prof, delta)
        assert abs(got / semicircle_mass(delta) - 1.0) < 1e-14, delta
        assert err < 1e-13, delta
    # at the band edge rho has a square-root zero, so the arc rules
    # converge slower, and the reported error must cover the miss
    got, err = predicted_near_zero_mass(prof, 2.0)
    assert abs(got - semicircle_mass(2.0)) <= err


def test_predicted_mass_of_the_whole_spectrum_is_one():
    # the arc of radius support_bound encloses the whole spectrum
    profiles = [staircase_profile(n) for n in (1, 2, 3, 6)]
    profiles += [
        random_staircase_profile(5, 3),
        expand_profile(staircase_profile(3), 8, noise=0.5, seed=1),
    ]
    for profile in profiles:
        got, err = predicted_near_zero_mass(profile, support_bound(profile))
        assert abs(1.0 - got) <= err + 1e-14, profile.dim


def test_predicted_mass_of_a_rank_deficient_profile_is_its_atom():
    # the two zero rows of this profile cap the rank of a draw at 2N of 3N,
    # so a third of the spectrum sits exactly at 0, the atom of rho
    prof = VarianceProfile(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    for delta in (1e-3, 1e-2, 0.1):
        got, err = predicted_near_zero_mass(prof, delta)
        assert abs(got - 1.0 / 3.0) < 1e-12 and err < 1e-12, delta
    result = empirical_near_zero(EnsembleSpec(prof, 16, trials=2), 0.1)
    assert abs(result.prediction - 1.0 / 3.0) < 1e-12
    assert result.fraction == 1.0 / 3.0
    assert (result.per_trial == 1.0 / 3.0).all()


def test_predicted_mass_divergent_profile_is_finite():
    got, _ = predicted_near_zero_mass(staircase_profile(2), 0.1)
    assert 0.0 < got < 1.0


def test_delta_edge_cases():
    spec = spec_for(inner=8, trials=1)
    result = empirical_near_zero(spec, 0.5)
    assert math.isnan(result.stderr)  # single trial has no spread estimate
    # delta is checked once, by the prediction, for every caller
    for delta in (0.0, -0.1, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            empirical_near_zero(spec, delta)
        with pytest.raises(ValueError, match="positive"):
            predicted_near_zero_mass(staircase_profile(1), delta)


def test_delta_below_schedule_floor_rejected():
    prof = staircase_profile(2)
    for delta in (1e-300, 1e-6, 9.9e-4):
        with pytest.raises(ValueError, match="floor 0.001"):
            predicted_near_zero_mass(prof, delta)
    with pytest.raises(ValueError, match="floor"):
        empirical_near_zero(spec_for(n=2, inner=4), 1e-300)
    assert predicted_near_zero_mass(prof, 1e-3)[0] > 0.0


def test_delta_beyond_support_rejected():
    # 2 sqrt(3) + 0.5 = 3.96 on the 3x3 staircase: the window would leave
    # the spectrum, and an infinite delta would reach numpy as inf - inf
    prof = staircase_profile(3)
    for delta in (math.inf, 1e100, 3.97):
        with pytest.raises(ValueError, match="finite and at most the support bound 3.96"):
            predicted_near_zero_mass(prof, delta)
    with pytest.raises(ValueError, match="support bound"):
        empirical_near_zero(spec_for(n=3, inner=4), math.inf)


def test_dimension_cap():
    # the spec owns the cap, so sample_matrix, sample_spectrum and the
    # near-zero count never see a larger side
    with pytest.raises(ValueError, match="cap"):
        spec_for(n=2, inner=2500)  # 5000 > 4000
    assert spec_for(n=2, inner=2000).dimension == 4000
    # 4002 is the first side over the cap for n = 2; nothing of its
    # 128 MB matrix is allocated
    prof = staircase_profile(2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap 4000"):
            EnsembleSpec(prof, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_uniform_floor_keeps_normals_finite():
    from vdelab.montecarlo import _normals, _uniforms

    zero_words = np.zeros(4, dtype=np.uint64)
    u = _uniforms(zero_words)
    assert (u == 2.0**-54).all()
    assert np.isfinite(_normals(zero_words)).all()


def test_entrywise_law():
    # the resolvent diagonals of the draws concentrate around the solver's m
    spec = spec_for(inner=200, trials=2)
    for eta in (1.0, 2.0):
        m = solve(spec.small_profile, SpectralPoint(re=0.0, im=eta)).m
        devs = resolvent_diagonal_deviations(spec, 1j * eta, m)
        assert len(devs) == 400
        assert np.median(devs) < 0.05

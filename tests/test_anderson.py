"""Disorder sampling, block structure, empirical density of states."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llspec import anderson
from llspec.anderson import (
    EmpiricalIDS,
    block_decompose,
    build_jacobi_sample,
    compare_ids,
    default_checkpoints,
    empirical_ids,
    line_ids,
    sample_window,
)
from llspec.errors import DomainError
from llspec.ghpolys import g_zeros
from llspec.jacobi import tridiag_eigs
from llspec.measure import FloatMu, RationalMu, measure_truncation, root_multiplicity


def _sample_from_bits(bits, mu):
    return build_jacobi_sample(np.asarray(bits, dtype=np.uint8), mu)


def test_windows_are_reproducible_and_consistent():
    a = sample_window(42, 0, 50)
    b = sample_window(42, 0, 50)
    assert a.dtype == np.uint8 and (a == b).all()
    # absolute indexing: a shifted window shows the same bits
    c = sample_window(42, 10, 40)
    assert (a[10:] == c).all()
    d = sample_window(42, -7, 20)
    e = sample_window(42, -3, 16)
    assert (d[4:] == e).all()
    assert (sample_window(43, 0, 50) != a).any()


def test_bit_mean_and_independence():
    bits = sample_window(7, 0, 100000).astype(float)
    assert 0.49 <= bits.mean() <= 0.51
    other = sample_window(7, 10 ** 9, 100000).astype(float)
    corr = np.corrcoef(bits, other)[0, 1]
    assert abs(corr) < 0.01


def test_sample_assembly_rules():
    s = _sample_from_bits([1, 0, 1], 2.0)
    assert s.diag.tolist() == [2.0, -2.0, 2.0]
    # bond weights: bit 0 opens with weight 2, bit 1 cuts
    assert s.offdiag.tolist() == [0.0, 2.0]
    assert _sample_from_bits([0, 0, 1, 1], 0.0).diag.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_block_decomposition_edges():
    all_cut = _sample_from_bits([1] * 6, 1.0)
    blocks = block_decompose(all_cut)
    assert [b.n for b in blocks] == [1] * 6
    open_chain = _sample_from_bits([0] * 5 + [1], 1.0)
    assert [b.n for b in block_decompose(open_chain)] == [6]
    mixed = _sample_from_bits([1, 0, 1, 0, 0, 1, 1], 1.0)
    sizes = [b.n for b in block_decompose(mixed)]
    assert sizes == [1, 2, 3, 1] and sum(sizes) == 7


def test_interior_blocks_have_fixed_profile():
    sample = build_jacobi_sample(sample_window(3, 0, 2000), 1.7)
    blocks = block_decompose(sample)[1:-1]
    for b in blocks:
        assert (b.offdiag == 2.0).all()
        assert (b.diag[:-1] == -1.7).all() and b.diag[-1] == 1.7


def test_expected_block_size_is_two():
    sample = build_jacobi_sample(sample_window(11, 0, 100000), 0.5)
    sizes = np.array([b.n for b in block_decompose(sample)[1:-1]])
    assert 1.9 <= sizes.mean() <= 2.1


def test_point_blocks_and_two_blocks():
    # a lone site between cuts carries the bare potential
    ids = empirical_ids([_sample_from_bits([1, 1, 1], 2.0)])
    assert ids.eigenvalues.tolist() == [2.0]
    # a size-2 interior block has eigenvalues +-sqrt(mu^2 + 4)
    ids2 = empirical_ids([_sample_from_bits([1, 0, 1, 1], 2.0)])
    r = math.sqrt(8.0)
    assert np.allclose(ids2.eigenvalues, [-r, r], atol=1e-11)


def test_block_eigenvalues_sit_on_polynomial_zeros():
    mu = 0.8
    sample = build_jacobi_sample(sample_window(21, 0, 1000), mu)
    zero_table = {}
    for block in block_decompose(sample)[1:-1]:
        zeros = zero_table.setdefault(block.n, g_zeros(block.n, mu))
        for eig in tridiag_eigs(block):
            assert np.min(np.abs(zeros - eig)) < 1e-7


def test_empirical_mass_at_origin_for_flat_parameter():
    ids = empirical_ids([build_jacobi_sample(sample_window(12345, 0, 100000), 0.0)])
    at_zero = np.mean(np.abs(ids.eigenvalues) < 1e-9)
    assert abs(at_zero - 1.0 / 3.0) < 0.01


def test_mass_exactly_at_mu_is_one_quarter():
    mu = 0.3
    ids = empirical_ids([build_jacobi_sample(sample_window(77, 0, 100000), mu)])
    at_mu = np.mean(np.abs(ids.eigenvalues - mu) < 1e-9)
    assert abs(at_mu - 0.25) < 0.01


def test_gershgorin_envelope():
    for mu in (0.0, 2.0, -1.3):
        ids = empirical_ids([build_jacobi_sample(sample_window(5, 0, 20000), mu)])
        assert ids.eigenvalues[0] >= -4.0 - abs(mu) - 1e-8
        assert ids.eigenvalues[-1] <= 4.0 + abs(mu) + 1e-8


def test_compare_ids_pipeline():
    mu = FloatMu(0.3)
    ids = empirical_ids([build_jacobi_sample(sample_window(12345, 0, 100000), 0.3)])
    trunc = measure_truncation(mu, 12)
    report = compare_ids(ids, trunc, default_checkpoints(trunc))
    assert report.sup_deviation < 0.02
    # the report holds what the comparison computed; the tail width is the measure's
    assert [f.name for f in dataclasses.fields(report)] == [
        "sup_deviation", "empirical_cdf", "theoretical_mid"]
    assert trunc.tail_mass == Fraction(14, 2**13)


def test_exceptional_parameter_end_to_end():
    # mu = 1 merges zero sets: the atom at 1 collects indices 1, 4, 7, ...
    # (limit 2/7) and the atom at -sqrt(5) collects 2, 7, 12, ... (limit 4/31);
    # the disorder route must reproduce both without knowing any of that
    ids = empirical_ids([build_jacobi_sample(sample_window(31415, 0, 100000), 1.0)])
    trunc = measure_truncation(RationalMu(1, 1), 12)
    report = compare_ids(ids, trunc, default_checkpoints(trunc))
    assert report.sup_deviation < 0.02
    at_one = np.mean(np.abs(ids.eigenvalues - 1.0) < 1e-9)
    assert abs(at_one - 2.0 / 7.0) < 0.01
    at_root = np.mean(np.abs(ids.eigenvalues + math.sqrt(5.0)) < 1e-7)
    assert abs(at_root - 4.0 / 31.0) < 0.01


# an empirical side with one site at 0, for the checks that look at the checkpoints alone
_ONE_SITE = EmpiricalIDS(values=np.array([0.0]), counts=np.array([1], dtype=np.int64))


def test_compare_ids_rejects_checkpoints_on_atoms():
    trunc = measure_truncation(RationalMu(0, 1), 6)
    with pytest.raises(DomainError):
        compare_ids(_ONE_SITE, trunc, [0.0])


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_the_measure_comparison_refuses_a_non_finite_point(x):
    # NaN sorts above every eigenvalue and falls on no atom, so it would be
    # compared as if it lay past the spectrum
    ids = empirical_ids([build_jacobi_sample(sample_window(7, 0, 2000), 0.0)])
    trunc = measure_truncation(RationalMu(0, 1), 6)
    for ask in (ids.cdf, trunc.atoms_at, lambda x: root_multiplicity(trunc, x),
                lambda x: compare_ids(ids, trunc, [x])):
        with pytest.raises(DomainError, match="x must be finite"):
            ask(x)


@pytest.mark.parametrize("x", [10**400, Fraction(10**400, 3)], ids=["1e400", "1e400/3"])
def test_points_and_mu_past_the_float_range_are_refused(x):
    # float(x) raised a bare OverflowError in both
    trunc = measure_truncation(RationalMu(0, 1), 6)
    with pytest.raises(DomainError, match="x must be finite"):
        compare_ids(_ONE_SITE, trunc, [x])
    with pytest.raises(DomainError, match="parameter must be finite"):
        line_ids(7, 100, x)


@given(st.floats(-3.0, 300.0), st.booleans())
@settings(max_examples=100, deadline=None)
def test_default_checkpoints_are_accepted_by_compare_ids(log_mu, negative):
    # both sides ask the measure's one query, `AtomicMeasure.atoms_at`, whether a
    # point sits on an atom, so they agree at every scale, and each nudge of
    # 3 `coalesce_tol` is large enough to move the point
    mu = -(10.0**log_mu) if negative else 10.0**log_mu
    trunc = measure_truncation(FloatMu(mu), 8)
    checkpoints = default_checkpoints(trunc)
    assert np.isfinite(checkpoints).all()
    report = compare_ids(_ONE_SITE, trunc, checkpoints)
    assert len(report.empirical_cdf) == len(report.theoretical_mid) == len(checkpoints)


def test_spectrum_gap_contains_only_outlier_atoms():
    mu = 2.0
    ids = empirical_ids([build_jacobi_sample(sample_window(99, 0, 30000), mu)])
    gap = ids.eigenvalues[(ids.eigenvalues > 2.0 + 1e-6) & (ids.eigenvalues < 3.0 - 1e-6)]
    outliers = np.array([g_zeros(m, mu)[-1] for m in range(2, 25)])
    for eig in gap:
        assert np.min(np.abs(outliers - eig)) < 1e-6


_MU_VALUES = st.sampled_from([0.0, 1.0, -1.0, 1.5]) | st.floats(-6.0, 6.0, allow_nan=False)


@given(
    windows=st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=200), min_size=1, max_size=3),
    mu=_MU_VALUES,
)
@settings(max_examples=100, deadline=None)
def test_deduplicated_ids_match_per_block_solves(windows, mu):
    samples = [_sample_from_bits(bits, mu) for bits in windows]
    blocks = [b for s in samples for b in block_decompose(s)[1:-1]]
    assume(blocks)
    expected = np.sort(np.concatenate([tridiag_eigs(b) for b in blocks]))
    ids = empirical_ids(samples)
    assert ids.site_count == len(expected) == sum(b.n for b in blocks)
    assert np.array_equal(ids.eigenvalues, expected)
    # bit for bit: the same multiset of float64 patterns (0.0 and -0.0 apart)
    assert (np.sort(ids.eigenvalues.view(np.uint64)) == np.sort(expected.view(np.uint64))).all()


def test_multiple_windows_pool():
    samples = [
        build_jacobi_sample(sample_window(1, 0, 5000), 0.5),
        build_jacobi_sample(sample_window(1, 10000, 5000), 0.5),
    ]
    ids = empirical_ids(samples)
    assert ids.site_count > 8000
    assert ids.cdf(10.0) == 1.0 and ids.cdf(-10.0) == 0.0


def _same_pairs(a, b):
    """Equal (value, count) pairs, values compared by their float64 bits."""
    return (
        a.values.view(np.uint64).tolist() == b.values.view(np.uint64).tolist()
        and a.counts.tolist() == b.counts.tolist()
    )


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=300),
    window=st.integers(4, 64),
    mu=_MU_VALUES,
)
@settings(max_examples=150, deadline=None)
def test_windowed_walk_matches_one_window(bits, window, mu):
    bits = np.asarray(bits, dtype=np.uint8)
    windows = [bits[i : i + window] for i in range(0, len(bits), window)]
    whole = [bits]
    try:
        single = anderson._walk_line(whole, mu)
    except DomainError:
        with pytest.raises(DomainError, match="no interior blocks"):
            anderson._walk_line(windows, mu)
        return
    assert _same_pairs(anderson._walk_line(windows, mu), single)
    # and the same as the independent-window path over the whole line
    assert _same_pairs(empirical_ids([_sample_from_bits(bits, mu)]), single)


def test_line_walk_reads_philox_windows(monkeypatch):
    assert anderson._WINDOW % 4 == 0  # windows start on a Philox counter step
    single = empirical_ids([build_jacobi_sample(sample_window(5, 0, 3001), -1.3)])
    for window in (4, 12, 1000, 4096):
        monkeypatch.setattr(anderson, "_WINDOW", window)
        assert _same_pairs(line_ids(5, 3001, -1.3), single)


@pytest.mark.parametrize(
    "sites, message",
    [(0, "window length must be >= 1"), (1, "need at least two sites"),
     (3, "no interior blocks; windows too short")],
)
def test_line_walk_errors_match_one_window(sites, message):
    with pytest.raises(DomainError, match=message):
        line_ids(7, sites, 0.0)
    with pytest.raises(DomainError, match=message):
        empirical_ids([build_jacobi_sample(sample_window(7, 0, sites), 0.0)])


@pytest.mark.parametrize("bits, mu, message", [
    ([1, 0, 2, 1], 0.5, "site bits must be 0 or 1"),  # 2 would be -mu on the diagonal, yet a cut
    ([1, 0, 1, 1], math.nan, "parameter must be finite"),
    ([1, 0, 1, 1], math.inf, "parameter must be finite"),
], ids=["bit-2", "nan-mu", "inf-mu"])
def test_sample_refuses_a_bit_other_than_zero_or_one_and_a_non_finite_mu(bits, mu, message):
    with pytest.raises(DomainError, match=message):
        _sample_from_bits(bits, mu)


def test_sample_refuses_a_parameter_past_the_float_range():
    with pytest.raises(DomainError, match="parameter must be finite"):
        build_jacobi_sample([1, 0, 1], 10**400)


def test_samples_at_two_parameter_values_are_refused():
    # one pooled spectrum has one mu: a second value is refused, whichever sample carries it
    one, other = _sample_from_bits([1, 0, 1, 1], 2.0), _sample_from_bits([1, 0, 1, 1], 2.5)
    for samples in ([one, other], [other, one, one]):
        with pytest.raises(DomainError, match="all samples must share one parameter value"):
            empirical_ids(samples)


def test_pairs_are_distinct_bit_patterns_with_positive_zero_first():
    counts = anderson._BlockCounts(0.0)
    counts.copies[1] = {np.float64(-0.0).tobytes(): 2, np.float64(0.0).tobytes(): 3,
                        np.float64(-1.0).tobytes(): 1}
    ids = counts.pool()
    assert ids.values.tolist() == [-1.0, 0.0, 0.0]
    assert np.signbit(ids.values).tolist() == [True, False, True]
    assert ids.counts.tolist() == [1, 3, 2] and ids.site_count == 6
    assert ids.cdf(-1.0) == 1 / 6 and ids.cdf(0.0) == 1.0 and ids.cdf(-2.0) == 0.0
    assert np.signbit(ids.eigenvalues).tolist() == [True, False, False, False, True, True]


def test_cdf_matches_the_expanded_eigenvalues():
    ids = line_ids(3, 50000, 0.7)
    expanded = ids.eigenvalues
    assert len(expanded) == ids.site_count and (np.diff(expanded) >= 0).all()
    for x in np.linspace(-6.0, 6.0, 41).tolist() + ids.values[::7].tolist():
        expected = float(np.searchsorted(expanded, x, side="right")) / len(expanded)
        assert ids.cdf(x) == expected


@given(
    bits=st.lists(st.integers(0, 1), min_size=2, max_size=120),
    levels=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5]), min_size=120, max_size=120),
)
@settings(max_examples=60, deadline=None)
def test_blocks_of_one_size_with_other_entries_are_told_apart(bits, levels):
    # entries the sampling rule never makes: blocks of one size differ, so
    # grouping has to look at the bytes (0.0 and -0.0 apart)
    base = _sample_from_bits(bits, 1.0)
    sample = anderson.JacobiSample(diag=np.asarray(levels[: len(bits)]), offdiag=base.offdiag,
                                   mu=1.0)
    blocks = block_decompose(sample)[1:-1]
    assume(blocks)
    # not np.sort: its vectorised float sort may turn 0.0 into -0.0 or back
    expected = np.concatenate([tridiag_eigs(b) for b in blocks])
    ids = empirical_ids([sample])
    got = ids.eigenvalues
    assert sorted(got.view(np.uint64).tolist()) == sorted(expected.view(np.uint64).tolist())
    assert np.array_equal(got, expected[np.argsort(expected, kind="stable")])

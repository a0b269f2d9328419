"""Disorder sampling, block structure, empirical density of states."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from llspec.anderson import (
    DisorderWindow,
    block_decompose,
    build_jacobi_sample,
    compare_ids,
    default_checkpoints,
    empirical_ids,
    sample_window,
)
from llspec.errors import DomainError
from llspec.ghpolys import g_zeros
from llspec.jacobi import tridiag_eigs
from llspec.measure import FloatMu, RationalMu, measure_truncation


def _sample_from_bits(bits, mu):
    window = DisorderWindow(bits=np.asarray(bits, dtype=np.uint8), offset=0, seed=0)
    return build_jacobi_sample(window, mu)


def test_windows_are_reproducible_and_consistent():
    a = sample_window(42, 0, 50)
    b = sample_window(42, 0, 50)
    assert (a.bits == b.bits).all()
    # absolute indexing: a shifted window shows the same bits
    c = sample_window(42, 10, 40)
    assert (a.bits[10:] == c.bits).all()
    d = sample_window(42, -7, 20)
    e = sample_window(42, -3, 16)
    assert (d.bits[4:] == e.bits).all()
    assert (sample_window(43, 0, 50).bits != a.bits).any()


def test_bit_mean_and_independence():
    bits = sample_window(7, 0, 100000).bits.astype(float)
    assert 0.49 <= bits.mean() <= 0.51
    other = sample_window(7, 10 ** 9, 100000).bits.astype(float)
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
    report = compare_ids(ids, trunc, default_checkpoints(trunc, 50))
    assert report.sup_deviation < 0.02
    assert report.tail_mass == pytest.approx(14.0 / 2.0 ** 13)
    # self-comparison of the truncated measure is exactly zero
    self_report = compare_ids(trunc, trunc, default_checkpoints(trunc, 50))
    assert self_report.sup_deviation == 0.0


def test_exceptional_parameter_end_to_end():
    # mu = 1 merges zero sets: the atom at 1 collects indices 1, 4, 7, ...
    # (limit 2/7) and the atom at -sqrt(5) collects 2, 7, 12, ... (limit 4/31);
    # the disorder route must reproduce both without knowing any of that
    ids = empirical_ids([build_jacobi_sample(sample_window(31415, 0, 100000), 1.0)])
    trunc = measure_truncation(RationalMu(1, 1), 12)
    report = compare_ids(ids, trunc, default_checkpoints(trunc, 50))
    assert report.sup_deviation < 0.02
    at_one = np.mean(np.abs(ids.eigenvalues - 1.0) < 1e-9)
    assert abs(at_one - 2.0 / 7.0) < 0.01
    at_root = np.mean(np.abs(ids.eigenvalues + math.sqrt(5.0)) < 1e-7)
    assert abs(at_root - 4.0 / 31.0) < 0.01


def test_compare_ids_rejects_checkpoints_on_atoms():
    trunc = measure_truncation(RationalMu(0, 1), 6)
    with pytest.raises(DomainError):
        compare_ids(trunc, trunc, [0.0])


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

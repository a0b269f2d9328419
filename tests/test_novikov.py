"""Gap decay toward the accumulation point and the power-law exponent."""

import math
from fractions import Fraction

import pytest

from llspec.errors import DomainError, InsufficientDataError
from llspec.novikov import GapEntry, GapSequence, decay_rate, gap_sequence, ns_invariant


def test_domain_guards():
    with pytest.raises(DomainError):
        gap_sequence(0.9, 40)
    with pytest.raises(DomainError):
        gap_sequence(1.0, 40)
    with pytest.raises(DomainError):
        gap_sequence(2.0, 4)  # below critical index + 5
    with pytest.raises(DomainError):
        ns_invariant(0.5)
    with pytest.raises(InsufficientDataError):
        decay_rate(GapSequence(mu=2.0, target=3.0, entries=tuple()))


def test_sequence_starts_at_critical_index():
    assert gap_sequence(1.5, 12).entries[0].m == 2
    assert gap_sequence(2.0, 12).entries[0].m == 1
    assert gap_sequence(Fraction(7, 6), 15).entries[0].m == 6


def test_boundary_entry_is_exact():
    # at mu = 3/2 the first outlier zero sits exactly on the band endpoint
    seq = gap_sequence(1.5, 12)
    first = seq.entries[0]
    assert first.x_m == 2.5
    assert first.gap == pytest.approx(abs(2.5 - (1.5 + 2.0 / 1.5)), rel=1e-12)


def test_gaps_positive_and_eventually_decreasing():
    seq = gap_sequence(2.0, 45)
    gaps = [e.gap for e in seq.entries]
    assert all(g > 0.0 for g in gaps)
    tail = gaps[4:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_gap_below_double_precision_is_resolved():
    seq = gap_sequence(2.0, 45)
    last = seq.entries[-1]
    # 4^-45 is far below the double spacing at the target value 3
    assert last.log2_gap < -80.0
    assert math.isfinite(last.log2_gap)


def test_synthetic_regression_identity():
    entries = tuple(
        GapEntry(m=m, x_m=0.0, gap=0.37 ** m, log2_gap=m * math.log2(0.37))
        for m in range(1, 31)
    )
    seq = GapSequence(mu=2.0, target=3.0, entries=entries)
    assert decay_rate(seq) == pytest.approx(0.37, rel=1e-12)


def test_decay_rate_matches_parameter():
    seq = gap_sequence(1.5, 40)
    assert decay_rate(seq) == pytest.approx(1.5 ** -2, rel=0.02)


def test_poincare_step_ratio():
    seq = gap_sequence(2.0, 40)
    tail = seq.entries[-10:]
    for a, b in zip(tail, tail[1:]):
        step = (b.log2_gap - a.log2_gap) * math.log(2.0)
        assert abs(step + 2.0 * math.log(2.0)) < 0.01


def test_closed_forms():
    assert ns_invariant(2.0, 12).closed_form == 0.5
    assert ns_invariant(4.0, 12).closed_form == pytest.approx(0.25)
    for j in (1, 2, 3):
        assert ns_invariant(float(2 ** j), 12).closed_form == pytest.approx(1.0 / (2 * j))
    assert ns_invariant(3.0, 12).closed_form == pytest.approx(0.3154648767857287, abs=1e-12)


def test_ns_invariant_reuses_a_built_sequence():
    seq = gap_sequence(Fraction(5, 2), 20)
    assert ns_invariant(Fraction(5, 2), 20, seq=seq) == ns_invariant(Fraction(5, 2), 20)


def test_empirical_exponent_close_to_closed_form():
    inv = ns_invariant(2.5, 40)
    assert abs(inv.empirical / inv.closed_form - 1.0) < 0.05

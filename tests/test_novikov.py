"""Gap decay toward the accumulation point and the power-law exponent."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from llspec import novikov
from llspec.errors import ConvergenceError, DomainError, InsufficientDataError
from llspec.ghpolys import g_zeros
from llspec.jacobi import band_edge_index, critical_index
from llspec.novikov import GapEntry, GapSequence, decay_rate, gap_sequence, ns_invariant


def _mpf(mu) -> mp.mpf:
    """mu as the exact rational it stores, at the working precision."""
    frac = Fraction(mu)
    return mp.mpf(frac.numerator) / frac.denominator


def test_domain_guards():
    with pytest.raises(DomainError):
        gap_sequence(0.9, 40)
    with pytest.raises(DomainError):
        gap_sequence(1.0, 40)
    with pytest.raises(DomainError):
        gap_sequence(2.0, 9)  # below critical index + 9: fewer than 10 entries
    with pytest.raises(DomainError):
        ns_invariant(0.5)
    with pytest.raises(InsufficientDataError):
        decay_rate(GapSequence(mu=2.0, entries=tuple()))


@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_non_finite_mu_is_refused(mu):
    with pytest.raises(DomainError, match="parameter must be finite"):
        gap_sequence(mu, 60)
    with pytest.raises(DomainError, match="parameter must be finite"):
        ns_invariant(mu)


@pytest.mark.parametrize("mu", [10**400, Fraction(-10**400, 7)], ids=["1e400", "-1e400/7"])
def test_mu_past_the_double_range_is_refused_before_any_float(mu):
    # |mu| is compared with 1e150 exactly; float(mu) would raise OverflowError
    message = r"requires \|mu\| <= 1e\+150, got \|mu\| over 1e\+308"
    with pytest.raises(DomainError, match=message):
        gap_sequence(mu, 40)
    with pytest.raises(DomainError, match=message):
        ns_invariant(mu)


def test_negative_mu_mirrors_through_the_level_polynomials():
    # the mirrored x_m are the smallest zeros of G_m at mu itself, found by
    # the tridiagonal eigensolver with no mirror involved
    seq = gap_sequence(Fraction(-3, 2), 14)
    assert seq.mu == -1.5
    assert [e.m for e in seq.entries] == list(range(2, 15))
    for e in seq.entries:
        assert abs(float(g_zeros(e.m, -1.5).min()) - e.x_m) < 1e-14
    assert ns_invariant(-3.0, 30).closed_form == ns_invariant(3.0, 30).closed_form
    # a refusal quotes the mu that was given, not the mirrored one
    with pytest.raises(DomainError, match=r"at mu=-1e\+150 exceeds the work bound"):
        gap_sequence(-1e150, 40)
    for mu in (-1.0, -0.9):
        with pytest.raises(DomainError):
            gap_sequence(mu, 40)
        with pytest.raises(DomainError):
            ns_invariant(mu)


def test_sequence_starts_at_critical_index():
    assert gap_sequence(1.5, 12).entries[0].m == 2
    assert gap_sequence(2.0, 12).entries[0].m == 1
    assert gap_sequence(Fraction(7, 6), 15).entries[0].m == 6
    # the double nearest 1.2 lies below 6/5: its sequence starts one later
    assert gap_sequence(1.2, 20).entries[0].m == 6
    assert gap_sequence(Fraction(6, 5), 20).entries[0].m == 5


@pytest.mark.parametrize("mu", [1.2, -1.2, 1.001, 1.1, 1.1428571428571428,
                                1.3333333333333333, 1.1666666666666667])
def test_first_entry_is_a_true_outlier(mu):
    # none of these doubles is (m+1)/m, so the first entry is solved, and one
    # eigenvalue of its truncation lies below the band bottom |mu|/2 - 2: the
    # smallest, which the solved one is, since nothing lies left of its bracket
    first = gap_sequence(mu, critical_index(mu) + 9).entries[0]
    assert first.m == critical_index(mu) and first.passes > 0
    with mp.workdps(first.digits + 20):
        mmu = _mpf(abs(mu))
        assert novikov._count_below_mp(mmu, first.m, mmu / 2 - 2) == 1
        eig = -(mmu + 2 / mmu - mp.mpf(first.gap)) / 2
        width = mmu ** (-2 * first.m) * mp.mpf(10) ** -6
        assert novikov._count_below_mp(mmu, first.m, eig - width / 2) == 0


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
    seq = GapSequence(mu=2.0, entries=entries)
    assert decay_rate(seq) == pytest.approx(0.37, rel=1e-12)


def test_exact_quarter_gaps_give_slope_minus_two_ln2():
    # gaps 2^-2m lie on the line log(gap) = -2 ln2 * m, so both fits are exact:
    # rate exp(-2 ln 2) = 1/4, and mass exponent -m ln 2 over -2m ln 2 is 1/2
    entries = tuple(
        GapEntry(m=m, x_m=0.0, gap=2.0 ** (-2 * m), log2_gap=-2.0 * m) for m in range(1, 61)
    )
    seq = GapSequence(mu=2.0, entries=entries)
    assert decay_rate(seq) == 0.25
    assert math.log(decay_rate(seq)) == -2.0 * math.log(2.0)
    assert ns_invariant(2.0, seq=seq).empirical == 0.5


def test_fits_match_numpy_polyfit():
    # the least-squares slopes agree with numpy's to rounding, on a real sequence
    seq = gap_sequence(2.0, 60)
    window = novikov._tail_window(seq.entries)
    ms = np.array([e.m for e in window], dtype=float)
    logs = np.array([e.log2_gap * math.log(2.0) for e in window])
    assert decay_rate(seq) == pytest.approx(math.exp(np.polyfit(ms, logs, 1)[0]), rel=1e-12)
    empirical = np.polyfit(logs, -ms * math.log(2.0), 1)[0]
    assert ns_invariant(2.0, 60, seq=seq).empirical == pytest.approx(empirical, rel=1e-12)


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


@pytest.mark.parametrize("mu, depth", [(3.0, 20), (2.0, 21), (10**400, 20)],
                         ids=["other-mu", "other-depth", "mu-past-the-cap"])
def test_ns_invariant_refuses_a_sequence_built_for_another_mu_or_depth(mu, depth):
    # the mu = 2 sequence would answer with the mu = 2 closed form, 0.5
    with pytest.raises(DomainError, match="seq holds mu=2 to depth 20, not this mu or M"):
        ns_invariant(mu, depth, seq=gap_sequence(2.0, 20))


def test_empirical_exponent_close_to_closed_form():
    inv = ns_invariant(2.5, 40)
    assert abs(inv.empirical / inv.closed_form - 1.0) < 0.05


# (mu, depth) pairs for the accuracy checks: integer, half-integer and
# rational parameters, one of them near 1 where the gaps shrink slowly
_NEWTON_CASES = [(2.0, 60), (Fraction(5, 2), 40), (3.0, 40), (1.5, 40), (Fraction(7, 6), 40)]


def _reference_gap(mu, m, extra_digits=30):
    """|x_m - (mu + 2/mu)| by plain Sturm bisection, 30 digits tighter.

    The bracket runs from the limit point to the band bottom; bisection stops
    at mu^(-2m) * 1e-36, 30 digits below the width the solver certifies.
    """
    digits = max(30, int(2 * m * math.log10(float(mu))) + 25) + extra_digits
    with mp.workdps(digits):
        mmu = _mpf(mu)
        lo, hi = -mmu / 2 - 1 / mmu, mmu / 2 - 2
        assert novikov._count_below_mp(mmu, m, lo) == 0 and novikov._count_below_mp(mmu, m, hi) >= 1
        width = mp.mpf(float(mu)) ** (-2 * m) * mp.mpf(10) ** (-6 - extra_digits)
        while hi - lo > width:
            mid = (lo + hi) / 2
            if novikov._count_below_mp(mmu, m, mid) >= 1:
                hi = mid
            else:
                lo = mid
        return abs(-(lo + hi) - (mmu + 2 / mmu))


@pytest.mark.parametrize("mu,depth", _NEWTON_CASES)
def test_gaps_match_a_tight_bisection(mu, depth):
    for e in gap_sequence(mu, depth).entries:
        if band_edge_index(mu) == e.m:
            continue
        ref = _reference_gap(mu, e.m)
        assert abs(e.gap / ref - 1) <= 1e-9, (e.m, e.gap, ref)
        assert e.log2_gap == pytest.approx(float(mp.log(ref, 2)), rel=1e-12)


@pytest.mark.parametrize("mu,depth", _NEWTON_CASES)
def test_each_zero_passes_the_sturm_certificate(mu, depth):
    # x_m = target - gap; the float gap carries x_m to about 1e-16 of the gap,
    # far inside the certified half-width
    for e in gap_sequence(mu, depth).entries:
        with mp.workdps(e.digits + 20):
            mmu = _mpf(mu)
            eig = -(mmu + 2 / mmu - mp.mpf(e.gap)) / 2
            width = mp.mpf(float(mu)) ** (-2 * e.m) * mp.mpf(10) ** -6
            assert novikov._count_below_mp(mmu, e.m, eig - width / 2) == 0
            assert novikov._count_below_mp(mmu, e.m, eig + width / 2) >= 1
        assert e.x_m == pytest.approx(float(mu) + 2 / float(mu) - e.gap, rel=1e-15)


def test_depth_past_the_float_range_is_refused_by_the_work_bound():
    # the message names the precision where the bound was hit, never float(M)
    with pytest.raises(DomainError, match=r"at m=373\); depth 372 is within it"):
        gap_sequence(2.0, 10**400)
    # the depth is printed as given, up to Python's 4300-digit limit on printing
    with pytest.raises(DomainError, match=f"^gap sequence to depth {10**400} at mu=2 exceeds"):
        gap_sequence(2.0, 10**400)
    with pytest.raises(DomainError, match="^gap sequence to depth an integer of 16610 bits at"):
        gap_sequence(2.0, 10**5000)


def test_work_bound_refuses_before_any_mp_work(monkeypatch):
    solved = []

    def stub(mu, m):
        solved.append(m)
        return GapEntry(m=m, x_m=0.0, gap=1.0, log2_gap=0.0)

    monkeypatch.setattr(novikov, "_outlier_zero_mp", stub)
    # the deepest sequences within the bound, each about 3 to 9 s when solved,
    # then one level deeper: many short recurrences, long recurrences at 30
    # digits, and few recurrences at thousands of digits
    # (1.001 is a double below 1 + 1/1000, so its sequence starts at 1001)
    for mu, depth in ((2.0, 372), (1.001, 1093), (1e150, 34)):
        start = critical_index(mu)
        assert [e.m for e in gap_sequence(mu, depth).entries] == list(range(start, depth + 1))
        del solved[:]
        with pytest.raises(DomainError, match=f"depth {depth} is within it"):
            gap_sequence(mu, depth + 1)
        assert solved == []
    # the benchmark's `ns --mu float:2 --depth 60` is far inside the bound
    assert len(gap_sequence(2.0, 60).entries) == 60
    # so close to 1 that even the shortest usable sequence, 10 entries from
    # 10001 (1.0001 is a double below 1 + 1/10000) or from 20000, is too long
    for mu, depth in ((1.0001, 10010), (1.00005, 20009)):
        with pytest.raises(DomainError, match="no depth is within it"):
            gap_sequence(mu, depth)
    assert solved == list(range(1, 61))


def test_effort_is_recorded_per_entry():
    seq = gap_sequence(2.0, 40)
    assert seq.entries[0].passes == 0  # mu = (m+1)/m at m = 1 is exact
    for e in seq.entries:
        assert e.digits == max(30, int(2 * e.m * math.log10(2.0)) + 25)
    # Newton plus a two-count certificate, far below bisection's ~3.3 per digit
    assert all(3 <= e.passes <= 12 for e in seq.entries[1:])


@pytest.mark.parametrize("mu, depth", [(2.0, 30), (3.0, 20), (Fraction(7, 6), 20),
                                       (1.001, 1010), (-3.0, 20)])
def test_newton_iterates_rise_without_passing_the_eigenvalue(monkeypatch, mu, depth):
    # started at the limit point, left of every eigenvalue, each Newton step
    # rises towards the smallest one and never passes it: every iterate before
    # the certified one has Sturm count 0.  The one exception is an iterate
    # exactly on the eigenvalue, which the count (a zero pivot is taken as
    # negative) includes: at m = 1 the determinant -mu/2 - x is linear, so
    # the first step lands on -mu/2 itself.
    newton_pass = novikov._newton_pass_mp
    iterates = {}

    def recording(mmu, m, x):
        count = novikov._count_below_mp(mmu, m, x)
        iterates.setdefault(m, []).append((x, count, mmu))
        return newton_pass(mmu, m, x)

    monkeypatch.setattr(novikov, "_newton_pass_mp", recording)
    seq = gap_sequence(mu, depth)
    # at mu = 7/6 the first entry, m = 6, is the exact band edge and runs no pass
    assert sorted(iterates) == [e.m for e in seq.entries if e.passes]
    for m, steps in iterates.items():
        for x, count, mmu in steps:
            assert count == 0 or (m == 1 and x == -mmu / 2), (m, x)
        xs = [x for x, _, _ in steps]
        assert all(a < b for a, b in zip(xs, xs[1:])), m


@pytest.mark.parametrize(
    "stalled_step", [mp.mpf(1), mp.mpf(0), None], ids=["leaves-bracket", "zero", "none"]
)
def test_non_converging_newton_raises(monkeypatch, stalled_step):
    # a pass that never finds the eigenvalue (a step away from it, a zero step
    # or no step): the loop must stop, at its cap or at once when there is no
    # step, and must not return the uncertified iterate
    calls = []

    def stalled(mmu, m, x):
        calls.append(x)
        return stalled_step

    monkeypatch.setattr(novikov, "_newton_pass_mp", stalled)
    with pytest.raises(ConvergenceError) as info:
        novikov._outlier_zero_mp(Fraction(2), 10)
    assert 0 < len(calls) <= 1000
    assert info.value.residual is not None and info.value.residual >= 0.0

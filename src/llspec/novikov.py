"""Gap decay at the accumulation point and the spectral power-law exponent.

For mu > 1 the largest zero x_m of G_m climbs toward mu + 2/mu, and the
distance |x_m - (mu + 2/mu)| decays like mu^(-2m).  Since the spectral
measure places mass 2^-m on [x_m, mu + 2/mu], the distribution function
gains mass ~ 2^-m over a window of length ~ mu^(-2m); the resulting
power-law exponent (the Novikov-Shubin invariant of the recentered operator)
is log 2 / (2 log mu).  For mu < -1 everything mirrors through
G_k(-lam, -mu) = (-1)^k G_k(lam, mu): the smallest zero descends to
mu + 2/mu with the gaps of |mu|, and the exponent is log 2 / (2 log |mu|).

The gaps fall below double resolution around m >= 35 already at mu = 2, and
far below any fixed compound-double format at the depths needed here (a
mu^(-2m) of 9^-60 ~ 1e-57 at mu = 3), so x_m is computed in
arbitrary-precision arithmetic with the working precision scaled to the
expected decay; the target mu + 2/mu is exact there.  Newton's method on the
truncation's determinant, started at the limit point left of every
eigenvalue, reaches the eigenvalue behind x_m in a few steps without passing
it, and Sturm counts certify each result: an eigenvalue lies within a bracket
of width mu^(-2m) * 1e-6 around it, far below the gap.  The working
precision also carries log10(mu) digits for the size of the eigenvalue
itself, and mu is capped at 1e150, where mu^-2 is still a normal double.  A
sequence whose estimated work (pivot steps weighted by their precision)
exceeds `_WORK_MAX` is refused before any of it is done.  mu is the exact
rational it stores, so the sequence starts at the exact critical index, and
x_m is the band edge 4 - mu, unsolved, only where mu = (m+1)/m exactly.

The two slopes are least-squares fits from the standard library
(`statistics.linear_regression`), so this module needs no numpy.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction

import mpmath as mp

from .errors import ConvergenceError, DomainError, InsufficientDataError, _int_text
from .jacobi import as_fraction, band_edge_index, critical_index

_LN2 = math.log(2.0)
# largest mu for a gap sequence: the decay rate mu^-2 and the `ns --check`
# product rate * mu^2 must stay normal doubles, which fails from mu = 2^511
# (about 6.7e153) on
_MU_MAX = 1e150
# largest work a gap sequence may take, in pivot steps at 30 digits: a step at
# d digits costs about 1 + (d/300)^1.6 of them, flat while interpreter
# overhead dominates, then growing like products of d-digit integers.  The
# precision alone does not bound the time: mu near 1 keeps 30 digits at any
# depth.  The bound is sized so that the slowest sequence it admits takes
# about 10 s (about 17 us a 30-digit step with mpmath's Python backend).
_WORK_MAX = 1e5
# fewest entries a gap sequence may have: `decay_rate` fits its tail window of
# at least this many, so a shorter sequence is refused before any mp work
_MIN_ENTRIES = 10


@dataclass(frozen=True)
class GapEntry:
    m: int
    x_m: float
    gap: float  # may underflow to 0.0 in double; log2_gap stays finite
    log2_gap: float
    # solver effort: mp working precision (decimal digits) and pivot
    # recurrence passes, certificate included; 0 where nothing was solved
    digits: int = 0
    passes: int = 0


@dataclass(frozen=True)
class GapSequence:
    mu: float
    entries: tuple[GapEntry, ...]


@dataclass(frozen=True)
class NsInvariant:
    closed_form: float
    empirical: float


def _zero_pivot() -> mp.mpf:
    """Stand-in for an exactly zero pivot: a tiny negative number."""
    return -mp.mpf(2) ** (-10 * mp.mp.prec)


def _count_below_mp(mmu: mp.mpf, m: int, x: mp.mpf) -> int:
    """Sturm count for the m x m truncation of J*(mu) in mp arithmetic.

    This is the oracle that certifies every x_m; `_newton_pass_mp` repeats
    the recurrence for speed but never has the last word.
    """
    d = -mmu / 2 - x
    if d == 0:
        d = _zero_pivot()
    count = 1 if d < 0 else 0
    a = mmu / 2
    for _ in range(m - 1):
        d = (a - x) - 1 / d
        if d == 0:
            d = _zero_pivot()
        if d < 0:
            count += 1
    return count


def _newton_pass_mp(mmu: mp.mpf, m: int, x: mp.mpf):
    """Newton step at x from one pass over the pivots.

    The pivots d_i of the truncation minus x multiply to its determinant, so
    with d_i' = d/dx d_i the Newton step for the determinant is
    1 / sum(d_i'/d_i); the step is None where that sum vanishes.
    """
    a = mmu / 2
    d, dd = -a - x, mp.mpf(-1)
    total = mp.mpf(0)
    for i in range(m):
        if i:
            d, dd = (a - x) - 1 / d, dd / (d * d) - 1
        if d == 0:
            d = _zero_pivot()
        total += dd / d
    return 1 / total if total else None


def _digits(muf: float, m: int) -> int:
    """mp working precision for x_m: enough to resolve width next to an eigenvalue ~mu/2."""
    return max(30, int(2 * m * math.log10(muf)) + 25) + max(0, int(math.log10(muf)))


def _outlier_zero_mp(mu: Fraction, m: int) -> GapEntry:
    """The largest zero x_m of G_m and its gap to mu + 2/mu, for mu > 1.

    x_m = -2 e, where e is the single truncation eigenvalue below the band,
    found by Newton's method on the determinant from the limit point
    -mu/2 - 1/mu.  The determinant has only real roots, and the limit point
    lies strictly left of the smallest one, e.  From any x left of e the step
    |p/p'| = 1 / |sum 1/(x - e_j)| is at most e - x, so every iterate rises
    towards e and none passes it.  Once the step is below a quarter of
    width = mu^(-2m) * 1e-6, far below the expected gap, the iterate x is
    returned only if the Sturm counts put an eigenvalue in
    [x - width/2, x + width/2]: the answer rests on that certificate, not on
    the iteration.
    """
    muf = float(mu)
    digits = _digits(muf, m)
    with mp.workdps(digits):
        mmu = mp.mpf(mu.numerator) / mu.denominator
        target = mmu + 2 / mmu

        def outlier(x_m, passes):
            gap = abs(x_m - target)
            return GapEntry(m=m, x_m=float(x_m), gap=float(gap),
                            log2_gap=float(mp.log(gap, 2)), digits=digits, passes=passes)

        if band_edge_index(mu) == m:
            return outlier(4 - mmu, 0)
        width = mp.mpf(muf) ** (-2 * m) * mp.mpf(10) ** -6
        x, last, passes = -mmu / 2 - 1 / mmu, mp.inf, 0
        # a handful of steps is the rule; one per bit of working precision
        # without a certificate means none will come
        limit = mp.mp.prec
        for _ in range(limit):
            step = _newton_pass_mp(mmu, m, x)
            passes += 1
            if step is None:
                break
            x, last = x - step, abs(step)
            if last <= width / 4:
                passes += 2
                if (_count_below_mp(mmu, m, x - width / 2) == 0
                        and _count_below_mp(mmu, m, x + width / 2) >= 1):
                    return outlier(-2 * x, passes)
        raise ConvergenceError(
            f"no certified outlier eigenvalue at m={m}, mu={muf} after {passes} "
            f"recurrence passes; last Newton step {float(last):.3e}",
            residual=float(last),
        )


def gap_sequence(mu, M: int) -> GapSequence:
    """Gaps |x_m - (mu + 2/mu)| for m from the critical index up to M, |mu| > 1.

    mu is turned into the exact rational it stores once, here.  A mu below -1
    is solved at |mu|, then each x_m is negated.
    """
    mu = as_fraction(mu)
    if abs(mu) <= 1:
        raise DomainError("gap sequence requires |mu| > 1")
    if abs(mu) > _MU_MAX:  # compared exactly: float(mu) overflows from about 1.8e308
        got = f"{float(mu):g}" if abs(mu) < 1e308 else "|mu| over 1e+308"
        raise DomainError(f"gap sequence requires |mu| <= {_MU_MAX:g}, got {got}")
    muf = float(mu)
    start = critical_index(mu)  # depends on |mu| only
    if M - start + 1 < _MIN_ENTRIES:
        raise DomainError(f"need M >= {start + _MIN_ENTRIES - 1} for a usable sequence")
    work = 0.0
    for m in range(start, M + 1):  # each term is at least `start`, so this ends early
        work += m * (1.0 + (_digits(abs(muf), m) / 300.0) ** 1.6)
        if work > _WORK_MAX:
            within = f"depth {m - 1} is" if m - start >= _MIN_ENTRIES else "no depth is"
            raise DomainError(
                f"gap sequence to depth {_int_text(M)} at mu={muf:g} exceeds the work bound "
                f"{_WORK_MAX:g} (precision {_digits(abs(muf), m)} digits at m={m}); "
                f"{within} within it"
            )
    entries = tuple(_outlier_zero_mp(abs(mu), m) for m in range(start, M + 1))
    if muf < 0.0:  # G_k(-lam, -mu) = (-1)^k G_k(lam, mu) mirrors each zero
        entries = tuple(replace(e, x_m=-e.x_m) for e in entries)
    return GapSequence(mu=muf, entries=entries)


def _tail_window(entries):
    """Drop the pre-asymptotic head: keep the last two thirds, at least 10."""
    start = len(entries) // 3
    window = entries[start:]
    if len(window) < 10:
        window = entries[-10:]
    return window


def decay_rate(seq: GapSequence) -> float:
    """exp(slope) of log(gap) against m over the asymptotic tail window.

    For gaps behaving like C r^m this returns r; here r = mu^-2.
    """
    if len(seq.entries) < _MIN_ENTRIES:
        raise InsufficientDataError(f"need at least {_MIN_ENTRIES} gap entries")
    window = _tail_window(seq.entries)
    ms = [e.m for e in window]
    logs = [e.log2_gap * _LN2 for e in window]
    return math.exp(statistics.linear_regression(ms, logs).slope)


def ns_invariant(mu, M: int = 60, seq: GapSequence | None = None) -> NsInvariant:
    """Closed-form and regression estimates of the power-law exponent.

    closed_form = log 2 / (2 log |mu|).  The empirical value regresses the
    accumulated mass exponent log(2^-m) on the interval-length exponent
    log(gap_m) over the tail window of a depth-M gap sequence.  A caller that
    already holds `gap_sequence(mu, M)` passes it as `seq` to skip rebuilding;
    both values are read from the sequence, which refuses every mu it cannot take,
    and a `seq` built for another mu or depth is refused.
    """
    mu = as_fraction(mu)
    if seq is None:
        seq = gap_sequence(mu, M)
    built = (seq.mu, seq.entries[-1].m if seq.entries else None)
    if abs(mu) > _MU_MAX or built != (float(mu), M):  # float(mu) overflows past the cap
        raise DomainError(f"seq holds mu={built[0]:g} to depth {built[1]}, not this mu or M")
    closed = _LN2 / (2.0 * math.log(abs(seq.mu)))
    window = _tail_window(seq.entries)
    xs = [e.log2_gap * _LN2 for e in window]
    ys = [-e.m * _LN2 for e in window]
    return NsInvariant(closed_form=closed,
                       empirical=statistics.linear_regression(xs, ys).slope)

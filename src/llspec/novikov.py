"""Gap decay at the accumulation point and the spectral power-law exponent.

For mu > 1 the largest zero x_m of G_m climbs toward mu + 2/mu, and the
distance |x_m - (mu + 2/mu)| decays like mu^(-2m).  Since the spectral
measure places mass 2^-m on [x_m, mu + 2/mu], the distribution function
gains mass ~ 2^-m over a window of length ~ mu^(-2m); the resulting
power-law exponent (the Novikov-Shubin invariant of the recentered operator)
is log 2 / (2 log mu).

The gaps fall below double resolution around m >= 35 already at mu = 2, and
far below any fixed compound-double format at the depths needed here (a
mu^(-2m) of 9^-60 ~ 1e-57 at mu = 3), so x_m is extracted from Sturm
bisection brackets in arbitrary-precision arithmetic with the working
precision scaled to the expected decay; the target mu + 2/mu is exact there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .errors import DomainError, InsufficientDataError
from .jacobi import critical_index

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GapEntry:
    m: int
    x_m: float
    gap: float  # may underflow to 0.0 in double; log2_gap stays finite
    log2_gap: float


@dataclass(frozen=True)
class GapSequence:
    mu: float
    target: float  # mu + 2/mu
    entries: tuple[GapEntry, ...]


@dataclass(frozen=True)
class NsInvariant:
    closed_form: float
    empirical: float


def _to_mpf(mu) -> mp.mpf:
    if isinstance(mu, Fraction):
        return mp.mpf(mu.numerator) / mu.denominator
    return mp.mpf(mu)


def _is_boundary(mu, m: int) -> bool:
    """Exact check for mu = (m+1)/m, where the zero sits at the band edge."""
    if isinstance(mu, Fraction):
        return mu * m == m + 1
    return float(mu) * m == float(m + 1)


def _count_below_mp(mmu: mp.mpf, m: int, x: mp.mpf) -> int:
    """Sturm count for the m x m truncation of J*(mu) in mp arithmetic."""
    d = -mmu / 2 - x
    if d == 0:
        d = -mp.mpf(2) ** (-10 * mp.mp.prec)
    count = 1 if d < 0 else 0
    a = mmu / 2
    for _ in range(m - 1):
        d = (a - x) - 1 / d
        if d == 0:
            d = -mp.mpf(2) ** (-10 * mp.mp.prec)
        if d < 0:
            count += 1
    return count


def _outlier_zero_mp(mu, m: int):
    """(x_m, gap, log2 gap) for the largest zero of G_m, mu > 1.

    The single truncation eigenvalue below the band is bracketed between the
    limit point -mu/2 - 1/mu and a hair above the band bottom, then bisected
    to a width far below the expected mu^(-2m) gap.
    """
    muf = float(mu)
    digits = max(30, int(2 * m * math.log10(muf)) + 25)
    with mp.workdps(digits):
        mmu = _to_mpf(mu)
        target = mmu + 2 / mmu
        if _is_boundary(mu, m):
            x_m = 4 - mmu
            gap = abs(x_m - target)
            return float(x_m), float(gap), float(mp.log(gap, 2))
        band_lo = mmu / 2 - 2
        lo = -mmu / 2 - 1 / mmu
        margin = mp.mpf(0.5) / (m + 1) ** 2
        hi = band_lo + margin
        for _ in range(8):
            count = _count_below_mp(mmu, m, hi)
            if count == 1:
                break
            margin /= 16
            hi = band_lo + margin
        else:
            raise DomainError(
                f"could not isolate the out-of-band eigenvalue at m={m}, mu={muf}"
            )
        width = mp.mpf(muf) ** (-2 * m) * mp.mpf(10) ** -6
        while hi - lo > width:
            mid = (lo + hi) / 2
            if _count_below_mp(mmu, m, mid) >= 1:
                hi = mid
            else:
                lo = mid
        eig = (lo + hi) / 2
        x_m = -2 * eig
        gap = abs(x_m - target)
        return float(x_m), float(gap), float(mp.log(gap, 2))


def gap_sequence(mu, M: int) -> GapSequence:
    """Gaps |x_m - (mu + 2/mu)| for m from the critical index up to M."""
    muf = float(mu)
    if muf <= 1.0:
        raise DomainError("gap sequence requires mu > 1")
    start = critical_index(mu if isinstance(mu, Fraction) else muf)
    if M < start + 5:
        raise DomainError(f"need M >= {start + 5} for a usable sequence")
    entries = []
    for m in range(start, M + 1):
        x_m, gap, log2_gap = _outlier_zero_mp(mu, m)
        entries.append(GapEntry(m=m, x_m=x_m, gap=gap, log2_gap=log2_gap))
    return GapSequence(mu=muf, target=muf + 2.0 / muf, entries=tuple(entries))


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
    if len(seq.entries) < 10:
        raise InsufficientDataError("need at least 10 gap entries")
    window = _tail_window(seq.entries)
    ms = np.array([e.m for e in window], dtype=float)
    logs = np.array([e.log2_gap * _LN2 for e in window])
    slope = np.polyfit(ms, logs, 1)[0]
    return float(math.exp(slope))


def ns_invariant(mu, M: int = 60, seq: GapSequence | None = None) -> NsInvariant:
    """Closed-form and regression estimates of the power-law exponent.

    closed_form = log 2 / (2 log mu).  The empirical value regresses the
    accumulated mass exponent log(2^-m) on the interval-length exponent
    log(gap_m) over the tail window of a depth-M gap sequence.  A caller that
    already holds `gap_sequence(mu, M)` passes it as `seq` to skip rebuilding.
    """
    muf = float(mu)
    if muf <= 1.0:
        raise DomainError("the exponent is defined for mu > 1")
    closed = _LN2 / (2.0 * math.log(muf))
    if seq is None:
        seq = gap_sequence(mu, M)
    window = _tail_window(seq.entries)
    xs = np.array([e.log2_gap * _LN2 for e in window])
    ys = np.array([-e.m * _LN2 for e in window])
    slope = np.polyfit(xs, ys, 1)[0]
    return NsInvariant(closed_form=closed, empirical=float(slope))

"""Chebyshev polynomials of the second kind.

Everything downstream (level polynomials, Jacobi truncations, spectral
measures) reduces to evaluations and zeros of U_n, so this module is kept
small and heavily cross-checked.  The one evaluator is the forward
recurrence

    U_0(x) = 1,  U_1(x) = 2x,  U_{n+1}(x) = 2x U_n(x) - U_{n-1}(x),

in doubles, rescaled so that it never overflows (`u_pair_scaled`); it is
uniformly accurate on [-1, 1].  The test suite keeps two independent
oracles: the same recurrence in exact rationals, and the trigonometric form
U_n(cos t) = sin((n+1)t)/sin(t), which is singular where sin(t) = 0 and
therefore not used as the primary path.
"""

from __future__ import annotations

import math

from .errors import DomainError, _finite, _size

# Rescaling threshold for the float recurrence.  Values are folded back into
# [2^-512, 2^512) while an integer exponent accumulates, so intermediate
# growth ~ (|x| + sqrt(x^2-1))^n never overflows even for n in the thousands.
_BIG = 2.0 ** 512
_BIG_INV = 2.0 ** -512
# largest |x| taken: a rescaled |c| reaches 2^512, so 2x c is finite only below 2^511
_X_MAX = 2.0 ** 510
# highest degree: a Python loop (or list) of n steps, 0.09 (0.16) s at 10^6 on 2 cores
_DEGREE_MAX = 10**6


def u_pair_scaled(n: int, x: float) -> tuple[float, float, int]:
    """Return (p, c, e) with U_{n-1}(x) = p * 2^e and U_n(x) = c * 2^e; |x| <= 2^510."""
    _size(n, "degree", 0, _DEGREE_MAX)
    if not abs(x) <= _X_MAX:
        raise DomainError(f"recurrence argument {x!r} is not finite or exceeds 2^510 in size")
    prev, cur, e = 0.0, 1.0, 0
    for _ in range(n):
        prev, cur = cur, 2.0 * x * cur - prev
        if abs(cur) > _BIG or abs(prev) > _BIG:
            prev *= _BIG_INV
            cur *= _BIG_INV
            e += 512
    return prev, cur, e


def _ldexp_safe(m: float, e: int) -> float:
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf


def u_eval(n: int, x: float) -> float:
    """U_n(float(x)) from `u_pair_scaled`, saturating to +-inf where it exceeds a double."""
    _, cur, e = u_pair_scaled(n, _finite(x, "x"))
    return _ldexp_safe(cur, e)


def u_zeros(n: int) -> list[float]:
    """The n zeros of U_n, i.e. cos(j*pi/(n+1)) for j = 1..n, ascending."""
    _size(n, "n", 1, _DEGREE_MAX)
    return [math.cos(j * math.pi / (n + 1)) for j in range(n, 0, -1)]

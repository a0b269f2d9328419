"""The two-variable polynomial family G_k, H_k of the level recursion.

The family is generated by the companion step

    (G_{k+1}, H_{k+1}) = [[-lam - mu, -4], [1, 0]] (G_k, H_k),
    G_1 = mu - lam,  H_1 = 1,

so H_k = G_{k-1} (with G_0 = 1) and G_{k+1} = (-lam - mu) G_k - 4 G_{k-1}.
Three equivalent realizations are provided and cross-checked:

  * closed form      g_value:  G_k / 2^k = U_k(s) + mu U_{k-1}(s),
                     with s = (-lam - mu) / 4;
  * matrix recursion g_value_recursive: the literal companion iteration with
                     a 1/2 rescale per step (oracle, kept independent);
  * angular form     angular_form: sin((k+1)t) + mu sin(kt) after the in-band
                     substitution lam = -mu - 4 cos(t).

A note on scaling: the off-term coefficient in the closed form for G_k is
2^k, not 2^(k+1); the wrong constant fails the recursion already at k = 2,
where the degree-2 member must reduce to lam^2 - mu^2 - 4 (see the negative
control in the test suite and the README).

Zeros of G_k are found through the k x k truncation of J*(mu): by
G_k(lam, mu) = 2^k P_k(-lam/2) they are exactly -2 times the truncation
eigenvalues, all real and simple.  Root-finding on expanded coefficients is
deliberately avoided (exponentially ill-conditioned).
"""

from __future__ import annotations

import math

import numpy as np

from .chebyshev import _BIG, _BIG_INV, _DEGREE_MAX, _X_MAX, _ldexp_safe, u_pair_scaled
from .errors import DomainError, _finite, _size
from .jacobi import _TRUNCATION_MAX, jstar_truncation, tridiag_eigs

_LN2 = math.log(2.0)


def _g_terms(k: int, lam: float, mu: float) -> tuple[float, float, int]:
    """(u, v, e) with U_k(s) = u 2^e and mu U_{k-1}(s) = v 2^e, s = (-lam - mu) / 4.

    G_k / 2^k = (u + v) 2^e: the one scaled-recurrence evaluation behind
    g_value, g_residual and g_signlog.
    """
    _size(k, "index k", 1, _DEGREE_MAX)
    lam, mu = _finite(lam, "lam"), _finite(mu)
    s = (-lam - mu) / 4.0
    if not math.isfinite(s):  # -lam - mu overflows, and the recurrence would give NaN
        raise DomainError(f"(-lam - mu) / 4 is not finite at lam={lam!r}, mu={mu!r}")
    prev, cur, e = u_pair_scaled(k, s)
    return cur, mu * prev, e


def g_value(k: int, lam: float, mu: float) -> float:
    """G_k(lam, mu) / 2^k via the Chebyshev closed form."""
    u, v, e = _g_terms(k, lam, mu)
    return _ldexp_safe(u + v, e)


def g_residual(k: int, lam: float, mu: float) -> tuple[float, float]:
    """(G_k / 2^k, |G_k / 2^k| / max(1, |U_k(s)| + |mu U_{k-1}(s)|)).

    The sum of the term sizes is the natural conditioning reference for
    residual checks: at out-of-band points both Chebyshev terms grow like
    (|s| + sqrt(s^2-1))^k, so only the relative residual is meaningful there.
    It is formed from the scaled terms, so it stays finite where G_k / 2^k
    overflows a double.
    """
    u, v, e = _g_terms(k, lam, mu)
    return _ldexp_safe(u + v, e), abs(u + v) / max(math.ldexp(1.0, -e), abs(u) + abs(v))


def g_signlog(k: int, lam: float, mu: float) -> tuple[float, float]:
    """(sign, ln|G_k|) of the unnormalized G_k; (0, -inf) at a zero."""
    u, v, e = _g_terms(k, lam, mu)
    g = u + v
    if g == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, g), (k + e) * _LN2 + math.log(abs(g))


def g_value_recursive(k: int, lam: float, mu: float) -> float:
    """G_k(lam, mu) / 2^k by iterating the companion recursion.

    Each step applies [[-lam - mu, -4], [1, 0]] and rescales by 1/2; kept as
    an independent oracle for the closed form.  lam and mu are taken below
    2^510 in size, so no step overflows into NaN before its rescale.
    """
    _size(k, "index k", 1, _DEGREE_MAX)
    lam, mu = _finite(lam, "lam"), _finite(mu)
    if not max(abs(lam), abs(mu)) < _X_MAX:
        raise DomainError(f"lam={lam!r} or mu={mu!r} is not below 2^510 in size")
    g, h = (mu - lam) / 2.0, 0.5  # (G_1, H_1) / 2
    e = 0
    for _ in range(k - 1):
        g, h = ((-lam - mu) * g - 4.0 * h) / 2.0, g / 2.0
        if abs(g) > _BIG or abs(h) > _BIG:
            g *= _BIG_INV
            h *= _BIG_INV
            e += 512
    return _ldexp_safe(g, e)


def angular_form(k: int, t: float, mu: float) -> float:
    """sin((k+1)t) + mu sin(kt); equals sin(t) * g_value(k, -mu - 4cos t, mu).

    Its zeros in t on (0, pi) are exactly the in-band zeros of G_k under the
    parametrization lam = -mu - 4 cos(t).
    """
    _size(k, "index k", 1, _DEGREE_MAX)  # g_value's k, so the identity holds wherever both run
    if not 0.0 < t < math.pi:
        raise DomainError("angular parameter must lie strictly inside (0, pi)")
    mu = _finite(mu)
    return math.sin((k + 1) * t) + mu * math.sin(k * t)


def g_zeros(k: int, mu: float) -> np.ndarray:
    """The k (real, simple) zeros of G_k(., mu), ascending.

    Computed as -2 times the eigenvalues of the k x k truncation of J*(mu).
    """
    _size(k, "index k", 1, _TRUNCATION_MAX)
    eigs = tridiag_eigs(jstar_truncation(mu, k))
    return np.sort(-2.0 * eigs)

"""Finite-level representation matrices of the lamplighter group.

The generators a, b and the switch c = b^{-1} a act on the 2^n vertices of
level n of the binary rooted tree; in the self-similar block form

    a_n = [[0, a_{n-1}], [b_{n-1}, 0]],
    b_n = [[a_{n-1}, 0], [0, b_{n-1}]],
    c_n = [[0, I], [I, 0]],

with base case a_0 = b_0 = c_0 = [1].  The pencil M_n(mu) = a + a^T + b +
b^T - mu c (a^{-1} = a^T for permutation matrices) is the finite model whose
characteristic determinant

    Phi_n(lam, mu) = det(M_n(mu) - lam I)
                   = (4 - lam - mu) G_1^(2^(n-2)) G_2^(2^(n-3)) ... G_{n-1} G_n

factors through the level polynomials, each with the exponent that
`measure._g_exponent` gives.  Both routes are implemented: an LU determinant
of the assembled matrix and the factored product in (sign, log-magnitude)
form, plus a dense rotation eigensolver as the oracle for eigenvalue
multiplicities.  The matrices are plain numpy arrays: a, b, c
as uint8 permutation matrices in a `LevelRep`, M_n(mu) as a float64 array.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConvergenceError, DomainError, _finite
from .ghpolys import g_signlog
from .measure import _g_exponent

# memory a level may take: `phi_det_signlog` holds three float64 copies of
# 8 * 4^n bytes (the cached pencil, the shifted copy and LAPACK's), and peak
# RSS grew by 26-28 bytes per 4^n at levels 10 and 11, so a level is budgeted
# 30 * 4^n bytes; 2 GiB admits 13, refuses 14
_LEVEL_BYTES_PER_ENTRY = 30
_LEVEL_BYTES_MAX = 2 << 30
# cyclic sweeps `dense_eigs` may run, and its stopping threshold relative to ||M||_F
_SWEEP_LIMIT = 50
_TOL_FACTOR = 1e-12


def _check_level(n: int):
    if n < 0:
        raise DomainError("level must be nonnegative")
    # min() keeps the integer small for any n; 30 * 4^64 is over any budget
    if _LEVEL_BYTES_PER_ENTRY << (2 * min(n, 64)) > _LEVEL_BYTES_MAX:
        raise CapacityError(
            f"level {n} needs {_LEVEL_BYTES_PER_ENTRY} * 4^{n} bytes of dense matrices, "
            f"over the budget of {_LEVEL_BYTES_MAX >> 30} GiB"
        )


@dataclass(frozen=True)
class LevelRep:
    """Permutation matrices of a, b, c acting on level n of the binary tree."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def build_level(n: int) -> LevelRep:
    """Assemble the level-n generator matrices by the block recursion."""
    _check_level(n)
    a = b = c = np.ones((1, 1), dtype=np.uint8)
    for k in range(1, n + 1):
        size = 1 << (k - 1)
        zero = np.zeros((size, size), dtype=np.uint8)
        eye = np.eye(size, dtype=np.uint8)
        a, b, c = (
            np.block([[zero, a], [b, zero]]),
            np.block([[a, zero], [zero, b]]),
            np.block([[zero, eye], [eye, zero]]),
        )
    return LevelRep(a=a, b=b, c=c)


def pencil_matrix(rep: LevelRep, mu: float) -> np.ndarray:
    """The symmetric float64 matrix a + a^T + b + b^T - mu c of the level."""
    mu = _finite(mu)  # an int mu times the uint8 c would keep uint8 and overflow
    # summed in place, in the order of a + a.T + b + b.T - mu * c, so at level
    # 12 two float copies (134 MB each) are live at once instead of five
    m = rep.a.astype(float)
    m += rep.a.T
    m += rep.b
    m += rep.b.T
    m -= mu * rep.c
    return m


@functools.lru_cache(maxsize=1)
def _pencil_entries(n: int, mu: float) -> np.ndarray:
    """M_n(mu) as a read-only array, kept for the next call with the same (n, mu)."""
    m = pencil_matrix(build_level(n), mu)
    m.flags.writeable = False
    return m


def phi_det_signlog(n: int, lam: float, mu: float) -> tuple[float, float]:
    """(sign, ln|Phi_n|) from an LU determinant of M_n(mu) - lam I."""
    _check_level(n)
    lam = _finite(lam, "lam")
    # the pencil holds no -0.0, so for finite lam this is M - lam I bit for bit
    m = _pencil_entries(n, mu).copy()
    m.flat[:: m.shape[0] + 1] -= lam
    sign, logabs = np.linalg.slogdet(m)
    return float(sign), float(logabs)


def phi_factorized_signlog(n: int, lam: float, mu: float) -> tuple[float, float]:
    """(sign, ln|Phi_n|) from the factored product over the level polynomials.

    The factor G_k enters with exponent `measure._g_exponent(n, k)`; at n = 0 the
    lead factor 4 - lam - mu is the whole product.
    Working in log-magnitude keeps exponents of order 2^n exact where plain
    floats would overflow by n around 15.
    """
    if n < 0:
        raise DomainError("factorized form needs n >= 0")
    lam, mu = _finite(lam, "lam"), _finite(mu)
    lead = 4.0 - lam - mu
    if lead == 0.0:
        return 0.0, -math.inf
    sign = math.copysign(1.0, lead)
    logabs = math.log(abs(lead))
    for k in range(1, n + 1):
        exponent = _g_exponent(n, k)
        gs, gl = g_signlog(k, lam, mu)
        if gs == 0.0:
            return 0.0, -math.inf
        logabs += exponent * gl
        if gs < 0.0 and exponent % 2 == 1:
            sign = -sign
    return sign, logabs


# highest level whose matrix `dense_eigs` diagonalises within the 60 s of
# `cli._GRID_SECONDS_MAX`: on 2 cores level 9 took 20-28 s at mu = 0.3, 7/6,
# 3, -1.5 and 100, and level 10 took 148 s at mu = 0.3
_DENSE_LEVEL_MAX = 9


def _check_dense_level(n: int):
    """Refuse a level over the memory budget or over `_DENSE_LEVEL_MAX`, before any matrix."""
    _check_level(n)
    if n > _DENSE_LEVEL_MAX:
        raise CapacityError(f"level {n} exceeds {_DENSE_LEVEL_MAX}, the highest level "
                            f"the dense eigensolver finishes within 60 s")


def dense_eigs(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square, exactly symmetric, finite matrix by cyclic Jacobi rotations.

    At most _SWEEP_LIMIT sweeps run, until the off-diagonal Frobenius norm
    drops below _TOL_FACTOR * ||M||_F.  Rotations are plain plane rotations on
    a private copy; no deflation heuristics are needed even though eigenvalue
    clusters carry multiplicities of order 2^(n-2).  Exactly symmetric input
    stays so, which lets a rotation update rows p and q in place, with the
    bits of a column update followed by a row update, and copy row q into
    column q.  Row p goes into column p once, after the last rotation of its
    p-loop: inside the loop column p is read only as entry p of row q, which
    the rotation overwrites with the 2x2 block's value, so the bits are those
    of copying both columns at every rotation.  A p-loop that rotates nothing
    copies nothing, so each p-loop ends on the matrix those copies leave,
    signed zeros included.
    """
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise DomainError("dense eigensolver expects a symmetric matrix")
    n = a.shape[0]
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(a))
    # an infinite norm would make the stopping threshold pass before any rotation
    if not math.isfinite(fro):
        raise DomainError("dense eigensolver expects finite entries with a finite norm")
    if n == 1:
        return a[0].copy()
    if fro == 0.0:
        return np.zeros(n)
    thresh = _TOL_FACTOR * fro
    skip = thresh / (2.0 * n)

    def offnorm():
        return math.sqrt(max((a * a).sum() - (np.diag(a) ** 2).sum(), 0.0))

    rows, cols = list(a), list(a.T)
    # sin * row p and sin * row q of the current rotation; cos and sin as 0-d
    # arrays, which a ufunc takes without converting a Python float
    sp, sq = np.empty((2, n))
    c0, s0 = np.empty(()), np.empty(())
    item, multiply, subtract, add, copyto = a.item, np.multiply, np.subtract, np.add, np.copyto
    copysign, hypot = math.copysign, math.hypot
    for _ in range(_SWEEP_LIMIT):
        if offnorm() <= thresh:
            return np.sort(np.diag(a))
        rotated = False
        for p in range(n - 1):
            row_p = rows[p]
            p_rotated = False
            for q in range(p + 1, n):
                apq = item(p, q)
                if abs(apq) <= skip:
                    continue
                p_rotated = True
                app, aqq = item(p, p), item(q, q)
                tau = (aqq - app) / (2.0 * apq)
                t = copysign(1.0, tau) / (abs(tau) + hypot(1.0, tau))
                cos = 1.0 / hypot(1.0, t)
                sin = t * cos
                row_q = rows[q]
                c0[()], s0[()] = cos, sin
                multiply(s0, row_p, out=sp)
                multiply(c0, row_p, out=row_p)
                multiply(s0, row_q, out=sq)
                subtract(row_p, sq, out=row_p)
                multiply(c0, row_q, out=row_q)
                add(sp, row_q, out=row_q)
                # the 2x2 block as a column update followed by a row update
                cpp, cqp = cos * app - sin * apq, cos * apq - sin * aqq
                cpq, cqq = sin * app + cos * apq, sin * apq + cos * aqq
                row_p[p], row_p[q] = cos * cpp - sin * cqp, 0.0
                row_q[p], row_q[q] = 0.0, sin * cpq + cos * cqq
                copyto(cols[q], row_q)
            if p_rotated:
                copyto(cols[p], row_p)
                rotated = True
        if not rotated:
            break  # an idle sweep changed nothing, so no later sweep would
    residual = offnorm()
    if residual <= thresh:
        return np.sort(np.diag(a))
    raise ConvergenceError(
        f"rotation sweeps exhausted with off-diagonal residual {residual:.3e}",
        residual=residual,
    )

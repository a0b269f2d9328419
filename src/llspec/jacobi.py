"""The one-parameter Jacobi matrix J*(mu) and symmetric tridiagonal spectra.

J*(mu) is the semi-infinite symmetric tridiagonal matrix with diagonal
(-mu/2, mu/2, mu/2, ...) and unit off-diagonals.  Its monic orthogonal
polynomials encode the level polynomials G_k via G_k(lam, mu) =
2^k P_k(-lam/2), so eigenvalues of finite truncations are the backbone of
every zero computation in the library.

Eigenvalues come from LAPACK (np.linalg.eigvalsh on the dense tridiagonal,
stacked for batches).  The leading-principal-minor pivot recurrence is kept
as the one Sturm count: a guaranteed "how many eigenvalues below x" oracle
for every truncation at once, which the tests check the eigenvalues against.

Only the matrix code (`TridiagonalMatrix`, `jstar_truncation`, the
eigenvalue kernels and the Sturm count) imports numpy, inside the functions
that use it; the closed forms (`jstar_band`, `isolated_eigenvalue`,
`isolated_mass`, `critical_index`, `ac_density`) are plain Python, so the
commands that need only them start without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError, _finite, _size

if TYPE_CHECKING:
    import numpy as np

_TINY = 2.2250738585072014e-308  # smallest normal double
# largest truncation: solved as a dense n x n matrix, 0.5 s and 32 MB at 2000 on 2 cores
_TRUNCATION_MAX = 2000
# most entries of the dense batch `tridiag_eigs_batch` builds: 2^24 doubles are
# 128 MiB, four of the largest truncation, solved in 1.8 s on 2 cores
_BATCH_ENTRIES_MAX = 1 << 24


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix given by its diagonal and off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        import numpy as np

        object.__setattr__(self, "diag", np.asarray(self.diag, dtype=float))
        object.__setattr__(self, "offdiag", np.asarray(self.offdiag, dtype=float))
        if self.diag.ndim != 1 or self.offdiag.ndim != 1:
            raise DomainError("diag and offdiag must be one-dimensional")
        if len(self.diag) == 0 or len(self.offdiag) != len(self.diag) - 1:
            raise DomainError("diag must be non-empty and offdiag of length len(diag) - 1")

    @property
    def n(self) -> int:
        return len(self.diag)


def jstar_truncation(mu: float, n: int) -> TridiagonalMatrix:
    """The n x n leading truncation of J*(mu)."""
    _size(n, "truncation size", 1, _TRUNCATION_MAX)
    mu = _finite(mu)
    import numpy as np

    diag = np.full(n, mu / 2.0)
    diag[0] = -mu / 2.0
    return TridiagonalMatrix(diag=diag, offdiag=np.ones(n - 1))


def jstar_band(mu: float) -> tuple[float, float]:
    """Essential spectrum of J*(mu): the band [mu/2 - 2, mu/2 + 2]."""
    mu = _finite(mu)
    return (mu / 2.0 - 2.0, mu / 2.0 + 2.0)


def tridiag_eigs_batch(diag2d, off2d) -> np.ndarray:
    """All eigenvalues of a batch of same-size tridiagonals, rows ascending.

    Each row is solved on its own, so its result does not depend on which
    other rows share the batch.
    """
    import numpy as np

    diag2d = np.atleast_2d(np.asarray(diag2d, dtype=float))
    off2d = np.atleast_2d(np.asarray(off2d, dtype=float))
    if diag2d.ndim != 2 or off2d.shape != (len(diag2d), diag2d.shape[1] - 1):
        raise DomainError(f"offdiag rows {off2d.shape} do not fit diag rows {diag2d.shape}")
    b, s = diag2d.shape
    _size(s, "tridiagonal size", 1, _TRUNCATION_MAX)
    _size(b * s * s, "dense batch entries", 0, _BATCH_ENTRIES_MAX)
    if not (np.isfinite(diag2d).all() and np.isfinite(off2d).all()):
        raise DomainError("tridiagonal entries must be finite")
    dense = np.zeros((b, s, s))
    idx = np.arange(s)
    dense[:, idx, idx] = diag2d
    dense[:, idx[1:], idx[:-1]] = off2d  # eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(dense)


def tridiag_eigs(t: TridiagonalMatrix) -> np.ndarray:
    """All eigenvalues of one tridiagonal matrix, ascending."""
    return tridiag_eigs_batch(t.diag[None, :], t.offdiag[None, :])[0]


def leading_counts_below(t: TridiagonalMatrix, x: float) -> np.ndarray:
    """Eigenvalue counts below x for every leading principal truncation.

    Entry k-1 is the count for the k x k leading submatrix; one pass of the
    pivot recurrence yields all of them, since each truncation shares the
    sequence of leading principal minors.
    """
    import numpy as np

    x = _finite(x, "x")
    counts = np.empty(t.n, dtype=np.int64)
    d = t.diag[0] - x
    if d == 0.0:
        d = -_TINY
    acc = 1 if d < 0 else 0
    counts[0] = acc
    # a pivot of -tiny overflows the next one to +-inf, which still counts
    # correctly and resets the recurrence a step later
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(1, t.n):
            d = (t.diag[i] - x) - (t.offdiag[i - 1] ** 2) / d
            if d == 0.0:
                d = -_TINY
            if d < 0:
                acc += 1
            counts[i] = acc
    return counts


def as_fraction(mu) -> Fraction:
    """The exact rational of an int or a Fraction, or the one a finite float stores."""
    return Fraction(mu if isinstance(mu, (int, Fraction)) else _finite(mu))


def isolated_eigenvalue(mu: float):
    """-mu/2 - 1/mu when |mu| > 1, else None (the band is all there is)."""
    mu = _finite(mu)
    if abs(mu) <= 1.0:
        return None
    return -mu / 2.0 - 1.0 / mu


def isolated_mass(mu: float) -> float:
    """Mass of the orthogonality measure of J*(mu) at its isolated point.

    The defining expression (mu - 1/mu + sqrt((mu + 1/mu)^2 - 4)) / (2 mu)
    with the square root analytic off [-2, 2] simplifies to 1 - 1/mu^2 on
    both components |mu| > 1; the mass is zero for |mu| <= 1.
    """
    mu = _finite(mu)
    if abs(mu) <= 1.0:
        return 0.0
    return 1.0 - 1.0 / (mu * mu)


def ac_density(x: float, mu: float) -> float:
    """Density of the absolutely continuous part of the J*(mu) measure.

    sqrt(4 - (x - mu/2)^2) / (2 pi (mu x + mu^2/2 + 1)) on the band, zero
    outside.  The denominator vanishes only at the isolated point, which sits
    outside the band except in the degenerate case |mu| = 1, where the pole
    touches a band endpoint; evaluation there, or at a non-finite x, raises.
    """
    x = _finite(x, "x")
    mu = _finite(mu)
    lo, hi = jstar_band(mu)
    if x < lo or x > hi:
        return 0.0
    denom = mu * x + mu * mu / 2.0 + 1.0
    if denom == 0.0:
        raise DomainError("density pole touches the band endpoint at |mu| = 1")
    return math.sqrt(max(4.0 - (x - mu / 2.0) ** 2, 0.0)) / (2.0 * math.pi * denom)


def critical_index(mu) -> int:
    """Smallest truncation size whose polynomial acquires an out-of-band zero.

    The unique m with (m+1)/m <= |mu| < m/(m-1) (the right bound read as
    +infinity at m = 1), decided exactly for the rational `as_fraction(mu)`:
    a float is the rational its double stores, so the double nearest 1.2,
    which lies below 6/5, has index 6, and 6/5 itself has index 5.
    """
    a = abs(as_fraction(mu))
    if a <= 1:
        raise DomainError("critical index requires |mu| > 1")
    return math.ceil(1 / (a - 1))


def band_edge_index(mu) -> int | None:
    """The m with |mu| = (m+1)/m exactly, where G_m's zero sits on the band edge; else None."""
    excess = abs(as_fraction(mu)) - 1
    return excess.denominator if excess > 0 and excess.numerator == 1 else None


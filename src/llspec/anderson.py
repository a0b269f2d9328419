"""Random Jacobi operator over the Bernoulli shift and its density of states.

Sites carry i.i.d. fair bits.  The operator couples site n to n+1 with
1 + (-1)^(bit_n) (so bit 0 opens the bond with weight 2 and bit 1 cuts it)
and puts mu * (-1)^(bit_n + 1) on the diagonal (bit 1 -> +mu, bit 0 -> -mu).
Almost surely the bond cuts split the line into finite blocks, and every
interior block of size s has the fixed profile (-mu, ..., -mu, +mu) with
off-diagonal 2: up to reversal this is -2 times the size-s truncation of
J*(mu), so its eigenvalues are exactly the zeros of G_s.  Pooling block
eigenvalues with uniform site weights therefore reproduces the atomic
spectral measure of the pencil; this module performs that experiment from
the sampled side, with the closed forms entering only through the object it
is compared against.

Bits are drawn from a counter-based generator (Philox) keyed by the seed and
indexed by the absolute site position, so windows are reproducible and
disjoint windows are independent regardless of how the line is sharded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .errors import DomainError
from .jacobi import TridiagonalMatrix, tridiag_eigs_batch
from .measure import AtomicMeasure, _coalesce_tol, measure_cdf_mid, mu_value

_PHILOX_BLOCK = 4  # native 64-bit outputs per counter increment
_PHILOX_PERIOD_BLOCKS = 2 ** 256


@dataclass(frozen=True)
class DisorderWindow:
    """A finite window of site bits with absolute indexing."""

    bits: np.ndarray
    offset: int
    seed: int


@dataclass(frozen=True)
class JacobiSample:
    """The operator restricted to one window: diagonal and bond weights."""

    diag: np.ndarray
    offdiag: np.ndarray
    window: DisorderWindow
    mu: float


@dataclass(frozen=True)
class EmpiricalIDS:
    """Pooled block eigenvalues with uniform site weights."""

    eigenvalues: np.ndarray  # sorted ascending
    site_count: int
    mu: float

    def cdf(self, x: float) -> float:
        """Right-continuous empirical distribution function."""
        return float(np.searchsorted(self.eigenvalues, x, side="right")) / self.site_count


@dataclass(frozen=True)
class ComparisonReport:
    sup_deviation: float
    tail_mass: float  # width of the theoretical CDF interval
    checkpoints: tuple[float, ...]
    empirical_cdf: tuple[float, ...]
    theoretical_mid: tuple[float, ...]


def sample_window(seed: int, offset: int, length: int) -> DisorderWindow:
    """Bits for absolute sites offset .. offset+length-1, keyed by seed.

    Bit i is the parity of the i-th native draw of Philox(seed), located by
    counter arithmetic, so the value at a given absolute index never depends
    on the window it was requested through.
    """
    if length < 1:
        raise DomainError("window length must be >= 1")
    first_block, head = divmod(offset, _PHILOX_BLOCK)
    gen = Philox(key=seed)
    gen.advance(first_block % _PHILOX_PERIOD_BLOCKS)
    raw = gen.random_raw(head + length)
    return DisorderWindow(
        bits=(raw[head:] & np.uint64(1)).astype(np.uint8), offset=offset, seed=seed
    )


def build_jacobi_sample(window: DisorderWindow, mu: float) -> JacobiSample:
    """Assemble diagonal and bond weights from the window bits.

    Bond (n, n+1) is indexed by its left endpoint n and carries
    1 + (-1)^(bit_n); the diagonal at n is mu * (-1)^(bit_n + 1).
    """
    if len(window.bits) < 2:
        raise DomainError("need at least two sites")
    bits = window.bits
    diag = float(mu) * np.where(bits == 1, 1.0, -1.0)
    offdiag = np.where(bits[:-1] == 0, 2.0, 0.0)
    return JacobiSample(diag=diag, offdiag=offdiag, window=window, mu=float(mu))


def _block_bounds(sample: JacobiSample) -> tuple[np.ndarray, np.ndarray]:
    """Start index and size of each block; a vanishing bond ends a block."""
    cuts = np.flatnonzero(sample.offdiag == 0.0)
    starts = np.concatenate(([0], cuts + 1))
    sizes = np.diff(starts, append=len(sample.diag))
    return starts, sizes


def block_decompose(sample: JacobiSample) -> list[TridiagonalMatrix]:
    """Split the sample at vanishing bonds into finite tridiagonal blocks."""
    starts, sizes = _block_bounds(sample)
    return [
        TridiagonalMatrix(diag=sample.diag[s : s + n], offdiag=sample.offdiag[s : s + n - 1])
        for s, n in zip(starts.tolist(), sizes.tolist())
    ]


def _interior_rows(sample: JacobiSample) -> dict[int, np.ndarray]:
    """Interior blocks by size, one row (diag then offdiag) per block.

    The first and last blocks touch the window edges and carry truncation
    bias, so they are left out.
    """
    starts, sizes = _block_bounds(sample)
    starts, sizes = starts[1:-1], sizes[1:-1]
    rows = {}
    for size in np.unique(sizes).tolist():
        idx = starts[sizes == size][:, None] + np.arange(size)
        rows[size] = np.hstack((sample.diag[idx], sample.offdiag[idx[:, :-1]]))
    return rows


def empirical_ids(samples: list[JacobiSample]) -> EmpiricalIDS:
    """Pool eigenvalues of all interior blocks with uniform site weights.

    Blocks of one size are grouped by their exact bytes and each distinct
    block is solved once; its eigenvalues then count once per copy.  Grouping
    looks only at the sampled entries, never at the closed-form block
    profile, so the pooled spectrum stays an independent check of the G_k
    zeros.
    """
    if not samples:
        raise DomainError("need at least one sample")
    mu = samples[0].mu
    by_size: dict[int, list[np.ndarray]] = {}
    for sample in samples:
        if sample.mu != mu:
            raise DomainError("all samples must share one parameter value")
        for size, rows in _interior_rows(sample).items():
            by_size.setdefault(size, []).append(rows)
    if not by_size:
        raise DomainError("no interior blocks; windows too short")
    pooled = []
    for size in sorted(by_size):
        rows = np.concatenate(by_size[size])
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        distinct = rows[first]
        eigs = tridiag_eigs_batch(distinct[:, :size], distinct[:, size:])
        pooled.append(np.repeat(eigs, counts, axis=0).ravel())
    pooled = np.sort(np.concatenate(pooled))
    return EmpiricalIDS(eigenvalues=pooled, site_count=len(pooled), mu=mu)


def default_checkpoints(theoretical: AtomicMeasure, count: int = 50) -> np.ndarray:
    """A grid spanning the spectrum, nudged off the truncated atom positions."""
    x = mu_value(theoretical.mu)
    lo = -4.0 - abs(x) - 0.5
    hi = 4.0 + abs(x) + 0.5
    pts = np.linspace(lo, hi, count)
    positions = np.array([a.position for a in theoretical.atoms])
    guard = 1e-6
    for i, p in enumerate(pts):
        while positions.size and np.min(np.abs(positions - pts[i])) < guard:
            pts[i] += 3 * guard
    return pts


def compare_ids(empirical, theoretical: AtomicMeasure, checkpoints) -> ComparisonReport:
    """Sup distance between an empirical CDF and the truncated-measure CDF.

    The theoretical value at a point is only known to within the truncation
    tail, so the midpoint of [lo, lo + tail] is used and the tail width is
    reported alongside.  `empirical` may itself be an AtomicMeasure, in which
    case its midpoint CDF is compared (useful as a self-consistency check).
    """
    checkpoints = np.asarray(list(checkpoints), dtype=float)
    if checkpoints.size == 0:
        raise DomainError("need at least one checkpoint")
    positions = np.array([a.position for a in theoretical.atoms])
    coal = _coalesce_tol(mu_value(theoretical.mu))
    for c in checkpoints:
        if positions.size and np.min(np.abs(positions - c)) < coal:
            raise DomainError(f"checkpoint {c} sits on an atom position")
    if isinstance(empirical, AtomicMeasure):
        emp_cdf = [measure_cdf_mid(empirical, c) for c in checkpoints]
    else:
        emp_cdf = [empirical.cdf(c) for c in checkpoints]
    theo_mid = [measure_cdf_mid(theoretical, c) for c in checkpoints]
    deviations = [abs(e - t) for e, t in zip(emp_cdf, theo_mid)]
    return ComparisonReport(
        sup_deviation=max(deviations),
        tail_mass=float(theoretical.tail_mass),
        checkpoints=tuple(float(c) for c in checkpoints),
        empirical_cdf=tuple(emp_cdf),
        theoretical_mid=tuple(theo_mid),
    )

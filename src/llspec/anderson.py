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
A window is a plain uint8 array of its sites' bits.
`line_ids` walks a long line one window at a time and keeps only a count of
each distinct block, so its memory is bounded by the window, not the line.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from numpy.random import Philox

from .errors import DomainError, _finite, _int_text, _size
from .jacobi import _BATCH_ENTRIES_MAX, TridiagonalMatrix, tridiag_eigs_batch
from .measure import AtomicMeasure, coalesce_tol, measure_cdf_mids, mu_value

_PHILOX_BLOCK = 4  # native 64-bit outputs per counter increment
_PHILOX_PERIOD_BLOCKS = 2 ** 256
_PHILOX_KEYS = 2 ** 128  # a seed is a Philox key, one of 0 .. 2^128 - 1
# sites per window of `line_ids`; a multiple of _PHILOX_BLOCK, so every
# window starts on a counter increment and no draw is made twice
_WINDOW = 1 << 14
# longest window: 17 bytes a site at once (draws, parities, bits), 170 MB at 10^7
_LENGTH_MAX = 10**7
# longest line, also `dos --sites`'s limit: memory stays bounded; on 2 cores
# `line_ids` took 7.2 s and `dos` wrote 10^7 sites of CSV in 2.8 s, so this
# stays near 28 s, inside `cli._GRID_SECONDS_MAX`; 10^9 would write about 40 GB
_SITES_MAX = 10**8
# points of the `dos` comparison grid
_CHECKPOINTS = 50


@dataclass(frozen=True)
class JacobiSample:
    """The operator restricted to one window: diagonal and bond weights."""

    diag: np.ndarray
    offdiag: np.ndarray
    mu: float


@dataclass(frozen=True)
class EmpiricalIDS:
    """Pooled block eigenvalues with uniform site weights, as (value, count) pairs.

    `values` holds each distinct float64 bit pattern once, ascending, with
    +0.0 before -0.0; `counts[i]` is how many sites carry `values[i]`.
    """

    values: np.ndarray
    counts: np.ndarray  # int64, all positive

    @property
    def site_count(self) -> int:
        return int(self.counts.sum())

    @property
    def eigenvalues(self) -> np.ndarray:
        """Every pooled eigenvalue once per site, sorted ascending."""
        return np.repeat(self.values, self.counts)

    def cdf(self, x: float) -> float:
        """Right-continuous empirical distribution function; a non-finite x is refused."""
        x = _finite(x, "x")  # NaN would sort above every value
        below = int(self.counts[: np.searchsorted(self.values, x, side="right")].sum())
        return float(below) / self.site_count


@dataclass(frozen=True)
class ComparisonReport:
    sup_deviation: float
    empirical_cdf: tuple[float, ...]
    theoretical_mid: tuple[float, ...]


def sample_window(seed: int, offset: int, length: int) -> np.ndarray:
    """The uint8 bits of absolute sites offset .. offset+length-1, keyed by seed.

    Bit i is the parity of the i-th native draw of Philox(seed), located by
    counter arithmetic, so the value at a given absolute index never depends
    on the window it was requested through.
    """
    _size(length, "window length", 1, _LENGTH_MAX)
    if not 0 <= seed < _PHILOX_KEYS:
        raise DomainError(f"seed must be in [0, 2**128), got {_int_text(seed)}")
    first_block, head = divmod(offset, _PHILOX_BLOCK)
    gen = Philox(key=seed)
    gen.advance(first_block % _PHILOX_PERIOD_BLOCKS)
    raw = gen.random_raw(head + length)
    return (raw[head:] & np.uint64(1)).astype(np.uint8)


def build_jacobi_sample(bits: np.ndarray, mu: float) -> JacobiSample:
    """Assemble diagonal and bond weights from a window's site bits.

    `bits` is an array of 0s and 1s, one per site, as `sample_window` returns;
    any other bit, or a non-finite mu, is refused.
    Bond (n, n+1) is indexed by its left endpoint n and carries
    1 + (-1)^(bit_n); the diagonal at n is mu * (-1)^(bit_n + 1).
    """
    bits = np.asarray(bits)
    _size(len(bits), "sites", 2)
    if not ((bits == 0) | (bits == 1)).all():
        raise DomainError("site bits must be 0 or 1")
    mu = _finite(mu)
    diag = mu * np.where(bits == 1, 1.0, -1.0)
    offdiag = np.where(bits[:-1] == 0, 2.0, 0.0)
    return JacobiSample(diag=diag, offdiag=offdiag, mu=mu)


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


class _BlockCounts:
    """Copies of each distinct block seen so far, keyed by its exact bytes.

    A block of size s is keyed by the bytes of its diagonal followed by its
    off-diagonal, so grouping looks only at the sampled entries, never at the
    closed-form block profile, and the pooled spectrum stays an independent
    check of the G_k zeros.
    """

    def __init__(self, mu: float):
        self.mu = mu
        self.copies: dict[int, dict[bytes, int]] = {}  # size -> key -> copies

    def add(self, sample: JacobiSample, first: int) -> int:
        """Count blocks `first` up to the second-to-last; return the last one's start."""
        if sample.mu != self.mu:
            raise DomainError("all samples must share one parameter value")
        starts, sizes = _block_bounds(sample)
        last = int(starts[-1])
        starts, sizes = starts[first:-1], sizes[first:-1]
        for size in np.flatnonzero(np.bincount(sizes)).tolist():  # unique() loads numpy.ma
            idx = starts[sizes == size][:, None] + np.arange(size)
            rows = np.hstack((sample.diag[idx], sample.offdiag[idx[:, :-1]]))
            words = rows.view(np.uint64)
            if (words == words[0]).all():  # the usual case, without a sort
                distinct, counts = [rows[0].tobytes()], [len(rows)]
            else:
                keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
                distinct, counts = np.unique(keys, return_counts=True)
                distinct, counts = distinct.tolist(), counts.tolist()
            tally = self.copies.setdefault(size, {})
            for key, count in zip(distinct, counts):
                tally[key] = tally.get(key, 0) + count
        return last

    def pool(self) -> EmpiricalIDS:
        """Solve each distinct block once; its eigenvalues count once per copy."""
        if not self.copies:
            raise DomainError("no interior blocks; windows too short")
        values, counts = [], []
        for size, tally in self.copies.items():
            rows = np.frombuffer(b"".join(tally), dtype=np.float64).reshape(len(tally), -1)
            # batches within the dense limit, one row at least, so a block over the
            # solver's size limit is refused by it; rows are solved alone, so no bit moves
            step = max(_BATCH_ENTRIES_MAX // size**2, 1)
            values.extend(tridiag_eigs_batch(rows[i:i + step, :size], rows[i:i + step, size:]).ravel()
                          for i in range(0, len(rows), step))
            counts.append(np.repeat(np.fromiter(tally.values(), np.int64, len(tally)), size))
        values, counts = np.concatenate(values), np.concatenate(counts)
        patterns = values.view(np.uint64)
        order = np.lexsort((patterns, values))
        values, patterns, counts = values[order], patterns[order], counts[order]
        runs = np.flatnonzero(np.concatenate(([True], patterns[1:] != patterns[:-1])))
        return EmpiricalIDS(values=values[runs], counts=np.add.reduceat(counts, runs))


def empirical_ids(samples: list[JacobiSample]) -> EmpiricalIDS:
    """Pool eigenvalues of all interior blocks with uniform site weights.

    Each sample is an independent window: its first and last blocks touch
    the window edges and carry truncation bias, so they are left out.
    """
    if not samples:
        raise DomainError("need at least one sample")
    counts = _BlockCounts(samples[0].mu)
    for sample in samples:
        counts.add(sample, first=1)
    return counts.pool()


def _walk_line(windows: Iterable[np.ndarray], mu: float) -> EmpiricalIDS:
    """Pool the interior blocks of one line given as the bits of consecutive windows.

    The open block at the end of each window is carried into the next one,
    so the result is the same as for a single window over the whole line:
    the line's first and last blocks are left out, every other block counts.
    """
    counts = _BlockCounts(_finite(mu))
    carry = np.empty(0, dtype=np.uint8)
    first = 1  # until the line's first block has been closed
    for window in windows:
        bits = np.concatenate((carry, window))
        last = counts.add(build_jacobi_sample(bits, mu), first)
        if last > 0:  # the chunk closed a block, so the line's first is behind us
            first = 0
        carry = bits[last:]
    return counts.pool()


def line_ids(seed: int, sites: int, mu: float) -> EmpiricalIDS:
    """`empirical_ids` of the single window of sites 0 .. sites-1, in bounded memory.

    The line is read `_WINDOW` sites at a time, so memory depends on the
    window and on how many distinct blocks occur, not on `sites`.
    """
    _size(sites, "window length", 1, _SITES_MAX)
    windows = (
        sample_window(seed, offset, min(_WINDOW, sites - offset))
        for offset in range(0, sites, _WINDOW)
    )
    return _walk_line(windows, mu)


def default_checkpoints(theoretical: AtomicMeasure) -> np.ndarray:
    """A grid spanning the spectrum, each point stepped off the atoms `compare_ids` refuses."""
    x = mu_value(theoretical.mu)
    lo = -4.0 - abs(x) - 0.5
    hi = 4.0 + abs(x) + 0.5
    pts = np.linspace(lo, hi, _CHECKPOINTS)
    tol = coalesce_tol(x)
    for i in range(len(pts)):
        while theoretical.atoms_at(pts[i]):
            pts[i] += 3 * tol  # far above an ulp of pts[i], at any mu
    return pts


def compare_ids(empirical, theoretical: AtomicMeasure, checkpoints) -> ComparisonReport:
    """Sup distance between an `EmpiricalIDS` and the truncated-measure CDF.

    The theoretical value at a point is only known to within the truncation
    tail, so the midpoint of [lo, lo + tail] is used; the tail width is the
    measure's own `tail_mass`.
    """
    checkpoints = np.array([_finite(c, "x") for c in checkpoints])
    if checkpoints.size == 0:
        raise DomainError("need at least one checkpoint")
    for c in checkpoints:
        if theoretical.atoms_at(c):
            raise DomainError(f"checkpoint {c} sits on an atom position")
    emp_cdf = [empirical.cdf(c) for c in checkpoints]
    theo_mid = measure_cdf_mids(theoretical, checkpoints.tolist())
    deviations = [abs(e - t) for e, t in zip(emp_cdf, theo_mid)]
    return ComparisonReport(
        sup_deviation=max(deviations),
        empirical_cdf=tuple(emp_cdf),
        theoretical_mid=tuple(theo_mid),
    )

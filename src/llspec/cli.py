"""Command-line interface.

Subcommands cover the full pipeline: characteristic determinants against the
factored closed form (char-poly), dense level eigenvalues (eigs), zeros of
the level polynomials (zeros), band/outlier description (spectrum), the
truncated atomic measure (measure), root multiplicities (multiplicity), the
two-parameter zero chart (joint-spectrum), the disorder-model density of
states (dos), and the gap-decay exponent (ns).

The parameter is passed as a tagged string ("float:0.3", "rat:7/6",
"b1:p/q:n", "b2:j/k") so exact forms survive the CLI boundary; bare numbers
are accepted as floats and bare p/q as rationals.  Reals are printed with 17
significant digits, rationals as "p/q".  With --check, every command but
spectrum exits 3 when its acceptance bound is breached; --tol sets that bound
and nothing else (measure, multiplicity and joint-spectrum have none: they
decide by exact masses and the same-point rule `measure.coalesce_tol`).
multiplicity reads each root from the atoms of one `measure_truncation`, and
eigs --check and multiplicity --check pair the sorted spectrum one to one with
the roots those atoms give (`measure.level_roots`).  Domain and capacity
errors, an --out path that cannot be opened and a failed write exit 2, and a
solver that fails to converge exits 4.  The memory budget binds the commands
that build a level matrix (char-poly, eigs, multiplicity --check); the last two
also refuse a level over `lamplighter._DENSE_LEVEL_MAX`.  multiplicity's
--level is a depth of its sweep, so it is capped like --depth.

Each handler builds its CSV rows and JSON payload from the plain values the
layers return (numbers, arrays, atoms, gap entries; no math module shapes
output) and returns them as a `_Result`; `main` alone writes it, as CSV or
JSON, and maps it to the exit code.

As a process (`run`: the `llspec` script and `python -m llspec.cli`), every
command starts OpenBLAS with one thread: `run` sets OPENBLAS_NUM_THREADS to 1
before numpy loads, unless numpy is loaded already or OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS is set, so a user's setting wins.  The
LAPACK calls of zeros, measure, joint-spectrum and dos are on matrices of at
most depth x depth, eigs and multiplicity diagonalise with elementwise numpy
and make no BLAS call on a level matrix, and char-poly's LU runs as fast on
one thread as on two up to level 9 (2^9 = 512).  OpenBLAS's worker threads
would only spin-wait after they start: a fresh `import numpy` used 0.23-0.24 s
of CPU with the default threads on 2 cores, 0.17 s with one.  From level 10
on, char-poly gains from more threads (LU at size 2048: 0.14-0.17 s on two,
0.19-0.24 s on one), which OPENBLAS_NUM_THREADS grants.  `main` alone leaves
the environment as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from typing import Iterable, NamedTuple

# `measure`, numpy and the other layers are imported by the commands that call
# them, and `json` by `main` under --format json alone, so a command loads only
# the modules it runs: --help and argument errors load none of them, and
# `spectrum` and `ns` no numpy
from .errors import CapacityError, ConvergenceError, DomainError, InsufficientDataError

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CHECK = 3
EXIT_CONVERGENCE = 4

_REAL = ".17g"  # 17 significant digits round-trip every double


def _fmt(x) -> str:
    return format(x, _REAL) if isinstance(x, float) else str(x)


# most points a "lo:hi:count" grid may ask for, checked before any is made
_GRID_MAX = 10**6
# most seconds a grid's points may be estimated to take, each estimate within a
# factor of 3.5 of one-point times measured on 2 cores with one BLAS thread; the
# default char-poly grid at level 12 (25 LUs of size 4096) is estimated at 52 s
_GRID_SECONDS_MAX = 60


# seconds a `multiplicity` row is estimated to take once its one sweep over
# G_1 .. G_level is done: on 2 cores 10^5 rows took 1.5 s at level 200 and 0.9 s
# at level 12, so the count cap of 10^6 rows stays near 15-20 s
_ROW_SECONDS = 2e-5


def _parse_grid(spec: str, point_seconds: float) -> list[float]:
    """Either "lo:hi:count" (inclusive linspace) or a comma list; every value finite.

    Refused if its points at `point_seconds` each would take over `_GRID_SECONDS_MAX`.
    """
    import numpy as np

    try:
        if ":" not in spec:
            values = [float(v) for v in spec.split(",") if v.strip()]
            if not values:
                raise ValueError("empty grid")
            count = None
        else:
            lo, hi, count = spec.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise DomainError(f"grid must be lo:hi:count or a comma list, got {spec!r}") from None
    if count is not None:
        if not 1 <= count <= _GRID_MAX:
            raise DomainError(f"grid count must be in [1, {_GRID_MAX}], got {count}")
        with np.errstate(over="ignore", invalid="ignore"):  # hi - lo may overflow
            values = [float(v) for v in np.linspace(lo, hi, count)]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"grid values must be finite, got {spec!r}")
    if len(values) * point_seconds > _GRID_SECONDS_MAX:
        raise DomainError(f"{len(values)} grid points at an estimated {point_seconds:.2g} s "
                          f"each exceed the bound of {_GRID_SECONDS_MAX} s")
    return values


def _tolerance(text: str) -> float:
    """Type of --tol: a finite, nonnegative float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value >= 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


# deepest --depth of zeros, measure, joint-spectrum and dos; their work grows
# faster than depth^2: on 2 cores the slowest, `zeros --check` at one mu, took
# 1.0 s at depth 200 and 6.0 s at 400 (`dos --check`: 1.0 s and 3.7 s)
_DEPTH_MAX = 200
# most --sites of dos: on 2 cores 10^7 sites took 2.8 s as CSV, so this stays near
# 28 s, inside the grid budget `_GRID_SECONDS_MAX`; 10^9 would write about 40 GB
_SITES_MAX = 10**8


def _depth(value: int, name: str = "depth") -> int:
    """--depth (multiplicity: --level) of a sweep over G_1 .. G_value, checked before any work."""
    if value < 1:
        raise DomainError(f"{name} must be >= 1")
    if value > _DEPTH_MAX:
        raise DomainError(f"{name} must be <= {_DEPTH_MAX}, got {value}")
    return value


def _open_out(path: str | None):
    """The stream a command writes to: stdout, or `path`, opened before the command runs."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise DomainError(f"cannot open --out {path!r}: {exc.strerror}") from None


def _csv_rows(rows):
    """One CSV line per row.

    No cell needs quoting: reals, integers, p/q masses, ';'-joined indices and
    fixed labels never contain a comma, a quote or a line break.
    """
    for row in rows:
        yield ",".join(map(_fmt, row)) + "\n"


class _Result(NamedTuple):
    """What a command computed; `main` writes it and turns it into the exit code."""

    header: tuple[str, ...]  # of the CSV
    lines: Iterable[str]  # the CSV rows, as whole lines or chunks of whole lines
    payload: dict  # the JSON; its "rows", if any, are the CSV's row tuples
    check_failed: bool = False  # --check was given and its bound failed


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _signlog_float(sign: float, logabs: float) -> float:
    """sign * exp(logabs), saturating to +-inf; 0.0 when sign is 0."""
    if sign == 0.0:
        return 0.0
    try:
        return sign * math.exp(logabs)
    except OverflowError:
        return math.copysign(math.inf, sign)


def _cmd_char_poly(args) -> _Result:
    import numpy as np

    from . import lamplighter, measure

    mu = measure.mu_value(measure.parse_mu(args.mu))
    lamplighter._check_level(args.level)  # bounds 8^level below
    # one LU a point: measured 8.2 ms at level 9, 0.22 s at 11, 0.9 s at 12
    grid = _parse_grid(args.grid, 1e-4 + 3e-11 * 8.0**args.level)
    rows = []
    for lam in grid:
        s_det, l_det = lamplighter.phi_det_signlog(args.level, lam, mu)
        s_fac, l_fac = lamplighter.phi_factorized_signlog(args.level, lam, mu)
        if s_det == 0.0 and s_fac == 0.0:
            rel = 0.0
        elif s_det != s_fac:
            rel = math.inf
        else:
            rel = abs(l_det - l_fac) / max(1.0, abs(l_det), abs(l_fac))
        rows.append((lam, _signlog_float(s_det, l_det), _signlog_float(s_fac, l_fac), rel))
    worst = float(np.max([row[3] for row in rows]))  # a NaN propagates, unlike max()
    header = ("lam", "phi_det", "phi_factorized", "rel_err")
    payload = {"mu": args.mu, "level": args.level, "max_rel_err": worst, "rows": rows}
    # a sign mismatch is inf, and NaN fails too
    return _Result(header, _csv_rows(rows), payload, args.check and not worst <= args.tol)


def _cmd_eigs(args) -> _Result:
    from . import lamplighter, measure

    param = measure.parse_mu(args.mu)
    mu = measure.mu_value(param)
    n = args.level
    lamplighter._check_dense_level(n)
    eigs = lamplighter.dense_eigs(lamplighter.pencil_matrix(lamplighter.build_level(n), mu))
    payload = {"mu": args.mu, "level": n, "eigenvalues": [float(v) for v in eigs]}
    failed = False
    if args.check:
        # level 0 is the lead factor alone
        roots = (measure.level_roots(measure.measure_truncation(param, n)) if n
                 else [4.0 - mu])
        failed = not _matches_roots(eigs, roots, args.tol)
    return _Result(("index", "eigenvalue"), _csv_rows(enumerate(eigs)), payload, failed)


def _matches_roots(eigs, roots, bound: float) -> bool:
    """Whether the sorted eigenvalues and the sorted roots pair off one to one within bound."""
    import numpy as np

    return len(eigs) == len(roots) and bool(np.max(np.abs(np.sort(eigs) - roots)) <= bound)


def _cmd_zeros(args) -> _Result:
    from . import ghpolys, measure

    depth = _depth(args.depth)
    mu = measure.mu_value(measure.parse_mu(args.mu))
    rows = []
    ok = True
    for k in range(1, depth + 1):
        zs = ghpolys.g_zeros(k, mu)
        for j, z in enumerate(zs):
            value, relative = ghpolys.g_residual(k, float(z), mu)
            bound = args.tol * (k + 1)
            in_band = -4.0 - mu <= z <= 4.0 - mu
            # the relative residual is dimensionless, so |mu| scales only the in-band one
            ok = ok and (abs(value) <= bound * max(1.0, abs(mu)) if in_band else relative <= bound)
            rows.append((k, j, float(z), value, relative))
    header = ("k", "index", "zero", "residual", "residual_relative")
    payload = {"mu": args.mu, "depth": depth, "rows": rows}
    return _Result(header, _csv_rows(rows), payload, args.check and not ok)


def _cmd_spectrum(args) -> _Result:
    from . import jacobi, measure

    mu_param = measure.parse_mu(args.mu)
    mu = measure.mu_value(mu_param)
    isolated, mass = jacobi.isolated_eigenvalue(mu), jacobi.isolated_mass(mu)
    # the pencil in J*'s lam = -2x coordinates: band [-4 - mu, 4 - mu] and, for |mu| > 1,
    # outliers accumulating at mu + 2/mu, where the pencil's own measure has no atom
    pencil_band, jstar_band = [-4.0 - mu, 4.0 - mu], list(jacobi.jstar_band(mu))
    accumulation = None if isolated is None else mu + 2.0 / mu
    onset = None if isolated is None else jacobi.critical_index(measure.mu_exact(mu_param))
    payload = {
        "mu": args.mu,
        "pencil": {"band": pencil_band, "accumulation_point": accumulation,
                   "outlier_onset_index": onset},
        "jstar": {"band": jstar_band, "isolated_eigenvalue": isolated, "isolated_mass": mass},
    }
    header = ("pencil_lo", "pencil_hi", "accumulation_point",
              "jstar_lo", "jstar_hi", "isolated_eigenvalue", "isolated_mass")
    values = (*pencil_band, accumulation, *jstar_band, isolated, mass)
    row = tuple("" if v is None else v for v in values)
    return _Result(header, _csv_rows([row]), payload)


def _cmd_measure(args) -> _Result:
    from . import measure

    depth = _depth(args.depth)
    trunc = measure.measure_truncation(measure.parse_mu(args.mu), depth)
    rows, atoms = [], []
    for a in trunc.atoms:
        mass = f"{a.mass.numerator}/{a.mass.denominator}"
        rows.append(("atom", a.position, mass, ";".join(map(str, a.indices)), a.kind))
        atoms.append({"position": a.position, "mass": mass, "indices": list(a.indices),
                      "class": a.kind})
    tail = f"{trunc.tail_mass.numerator}/{trunc.tail_mass.denominator}"
    rows.append(("tail", "", tail, "", ""))
    # "mu" in the exact form the measure was built for: "14/12" prints as rat:7/6
    payload = {"mu": measure.format_mu(trunc.mu), "depth": depth, "tail_mass": tail,
               "atoms": atoms}
    return _Result(("kind", "position", "mass", "indices", "class"), _csv_rows(rows), payload,
                   args.check and trunc.total_mass() != 1)


def _cmd_multiplicity(args) -> _Result:
    import numpy as np

    from . import lamplighter, measure

    level = _depth(args.level, "level")
    mu = measure.parse_mu(args.mu)
    grid = _parse_grid(args.grid, _ROW_SECONDS)
    # only the check builds and diagonalises the level matrix, so only it is held
    # to the memory budget and the dense limit
    if args.check:
        lamplighter._check_dense_level(level)
    trunc = measure.measure_truncation(mu, level)
    rows = [(lam, m, int(m > 0)) for lam in grid for m in [measure.root_multiplicity(trunc, lam)]]
    header = ("lam", "multiplicity", "is_root")
    payload = {"mu": args.mu, "level": level, "rows": rows}
    failed = False
    if args.check:
        x = measure.mu_value(mu)
        tol = measure.coalesce_tol(x)
        eigs = lamplighter.dense_eigs(lamplighter.pencil_matrix(lamplighter.build_level(level), x))
        # a row that is no root must have no eigenvalue at its point either
        failed = not _matches_roots(eigs, measure.level_roots(trunc), tol) or any(
            not is_root and np.min(np.abs(eigs - lam)) <= tol for lam, _, is_root in rows)
    return _Result(header, _csv_rows(rows), payload, failed)


def _cmd_joint_spectrum(args) -> _Result:
    import numpy as np

    from . import ghpolys, jacobi, measure

    depth = _depth(args.depth)
    rows = []
    ok = True
    # the zeros of G_1 .. G_depth at one mu: measured 0.24 s at depth 200
    for mu in _parse_grid(args.grid, 6e-6 * depth * (depth + 10)):
        onset = jacobi.critical_index(mu) if abs(mu) > 1 else None
        tol = measure.coalesce_tol(mu)
        for k in range(1, depth + 1):
            zs = ghpolys.g_zeros(k, mu)
            beyond = np.abs(zs + mu) - 4.0  # distance outside the band [-4 - mu, 4 - mu]
            inside = beyond <= tol
            rows.extend((mu, k, float(z), int(i)) for z, i in zip(zs, inside))
            if args.check:
                expected = int(onset is not None and k >= onset)
                outliers = int(np.sum(~inside))
                # at the exact onset the outlier may sit on the band edge, inside by the rule
                on_edge = outliers == 0 and bool(np.any(np.abs(beyond) <= tol))
                if outliers != expected and not (expected == 1 and on_edge):
                    ok = False
    header = ("mu", "k", "zero", "inside_strip")
    payload = {"depth": depth, "rows": rows}
    return _Result(header, _csv_rows(rows), payload, args.check and not ok)


# rows per chunk of `dos` CSV text, under 1 MB at 50 bytes a row
_ROWS_PER_CHUNK = 1 << 14
# weights from here to 1 (exclusive) print as 0.ddd, the form `_weight_digits`
# writes; 10^-j rounds up to these doubles, so each is the first weight with
# j - 1 zeros after the point
_FIXED_POINT_FROM = (1e-4, 1e-3, 1e-2, 1e-1)


@functools.cache  # built on first use, not at import, which every command pays for
def _weight_tables():
    """Lookup tables of `_weight_digits`.

    `groups` holds the four ASCII digits of 0..9999 as one uint32 each,
    followed by the same with trailing '0's turned to NUL; `leads` holds
    NUL NUL NUL and one digit.  `scale` is 10^p for p = 17..20 (exact below
    10^23) and `scale_hi + scale_lo` its Veltkamp split.
    """
    import numpy as np

    quads = [b"%04d" % i for i in range(10_000)]
    groups = b"".join(quads) + b"".join(q.rstrip(b"0").ljust(4, b"\0") for q in quads)
    leads = b"".join(b"\0\0\0%d" % i for i in range(10))
    scale = np.array([float(10**p) for p in range(17, 21)])
    chopped = scale * 134217729.0  # 2^27 + 1
    scale_hi = chopped - (chopped - scale)
    return (np.frombuffer(groups, np.uint32), np.frombuffer(leads, np.uint32),
            scale, scale_hi, scale - scale_hi)


def _weight_digits(x):
    """`format(w, ".17g")` of each double w in x, all in [1e-4, 1), as digit bytes.

    Returns (zeros, digits): w prints as "0.", then zeros[i] '0's, then the
    digits of row i of the (n, 5) uint32 array `digits`, read as 20 bytes
    with its NUL bytes left out.  Those are the 17 digits of D = w * 10^p
    rounded half to even, as Python rounds, with p = 17 + zeros and trailing
    '0's dropped.  Dekker's product splits w * 10^p exactly into the double
    hi, an even integer above 2^53, and the double lo.  A double below 10^-j
    is more than 5e-17 of it away, relatively, so D never rounds up to 10^17.
    """
    import numpy as np

    groups, leads, scale, scale_hi, scale_lo = _weight_tables()
    zeros = 3 - np.searchsorted(_FIXED_POINT_FROM[1:], x, side="right")
    hi = x * scale[zeros]
    chopped = x * 134217729.0
    x_hi = chopped - (chopped - x)
    x_lo = x - x_hi
    ten_hi, ten_lo = scale_hi[zeros], scale_lo[zeros]
    lo = ((x_hi * ten_hi - hi) + x_hi * ten_lo + x_lo * ten_hi) + x_lo * ten_lo
    lead, rest = np.divmod(hi.astype(np.int64) + np.rint(lo).astype(np.int64), 10**16)
    digits = np.empty((len(x), 5), np.uint32)
    digits[:, 0] = leads[lead]
    tail = np.ones(len(x), bool)  # no nonzero digit right of this group
    for col, unit in ((4, 1), (3, 10**4), (2, 10**8), (1, 10**12)):
        quad = rest // unit % 10_000
        digits[:, col] = groups[quad + 10_000 * tail]
        tail &= quad == 0
    return zeros, digits


def _weight_lines(cells, which, weights) -> str:
    """CSV lines "<cells[which[i]]>,<weights[i] to 17 digits>", for ascending weights.

    Weights in [1e-4, 1) go through `_weight_digits`; the others, at most the
    first N / 10^4 rows and the last, through Python's formatting.
    """
    import numpy as np

    start, stop = np.searchsorted(weights, (_FIXED_POINT_FROM[0], 1.0))

    def formatted(rows):
        return "".join(
            f"{cells[c]},{w:{_REAL}}\n"
            for c, w in zip(which[rows].tolist(), weights[rows].tolist())
        )

    # a line is a row of uint32: "<cell>,0." and the zeros after the point,
    # NUL-padded to `width` bytes, then the digits, then "\n" and NULs
    heads = [b"%s,0.%s" % (cell.encode(), b"0" * z) for cell in cells for z in range(4)]
    width = -(-max(map(len, heads)) // 4) * 4
    table = np.frombuffer(b"".join(h.ljust(width, b"\0") for h in heads), np.uint32)
    zeros, digits = _weight_digits(weights[start:stop])
    rows = np.empty((len(digits), width // 4 + 6), np.uint32)
    rows[:, :-6] = table.reshape(len(heads), -1)[4 * which[start:stop] + zeros]
    rows[:, -6:-1] = digits
    rows[:, -1] = np.frombuffer(b"\n\0\0\0", np.uint32)
    data = rows.view(np.uint8)
    text = data[data != 0].tobytes().decode("ascii")
    return formatted(slice(0, start)) + text + formatted(slice(stop, None))


def _dos_rows(ids):
    """CSV lines of the pooled eigenvalues, one per site, in chunks of bounded size.

    Row k (from 1) carries the cumulative weight k/N, printed as
    `format(k / N, ".17g")` would print it.
    """
    import numpy as np

    total = ids.site_count
    ends = np.cumsum(ids.counts)
    for lo in range(0, total, _ROWS_PER_CHUNK):
        k = np.arange(lo + 1, min(lo + _ROWS_PER_CHUNK, total) + 1)
        which = np.searchsorted(ends, k)  # the (value, count) pair of row k
        first = int(which[0])
        cells = [format(v, _REAL) for v in ids.values[first:which[-1] + 1].tolist()]
        yield _weight_lines(cells, which - first, k / total)


def _cmd_dos(args) -> _Result:
    from . import anderson, measure

    depth = _depth(args.depth)
    if not 1 <= args.sites <= _SITES_MAX:
        raise DomainError(f"--sites must be in [1, {_SITES_MAX}], got {args.sites}")
    mu_param = measure.parse_mu(args.mu)
    mu = measure.mu_value(mu_param)
    ids = anderson.line_ids(args.seed, args.sites, mu)
    trunc = measure.measure_truncation(mu_param, depth)
    checkpoints = anderson.default_checkpoints(trunc)
    report = anderson.compare_ids(ids, trunc, checkpoints)
    payload = {
        "mu": args.mu,
        "sites": args.sites,
        "seed": args.seed,
        "depth": depth,
        "interior_sites": ids.site_count,
        "sup_deviation": report.sup_deviation,
        "tail_mass": float(trunc.tail_mass),
        "checkpoints": checkpoints.tolist(),
        "empirical_cdf": list(report.empirical_cdf),
        "theoretical_mid": list(report.theoretical_mid),
    }
    return _Result(("eigenvalue", "cumulative_weight"), _dos_rows(ids), payload,
                   args.check and not report.sup_deviation <= args.tol)


def _cmd_ns(args) -> _Result:
    from . import measure, novikov

    mu = measure.mu_exact(measure.parse_mu(args.mu))
    seq = novikov.gap_sequence(mu, args.depth)
    rate = novikov.decay_rate(seq)
    inv = novikov.ns_invariant(mu, args.depth, seq=seq)
    header = ("m", "x_m", "gap", "log2_gap")
    rows = [(e.m, e.x_m, e.gap, e.log2_gap) for e in seq.entries]
    payload = {
        "mu": args.mu,
        "depth": args.depth,
        "decay_rate": rate,
        "closed_form": inv.closed_form,
        "empirical": inv.empirical,
        "rows": rows,
        "meta": {
            "effort": [
                {"m": e.m, "mp_digits": e.digits, "recurrence_passes": e.passes}
                for e in seq.entries
            ],
        },
    }
    muf = float(mu)
    failed = args.check and not (
        abs(rate * muf * muf - 1.0) <= args.tol
        and abs(inv.empirical / inv.closed_form - 1.0) <= 0.05
    )
    return _Result(header, _csv_rows(rows), payload, failed)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, *, mu=False, level=False, depth=None, grid=None, seed=False,
                sites=False, check=True, tol=None):
    """Flags shared by the commands; `tol` is the default --check bound, None for no --tol."""
    if mu:
        sub.add_argument("--mu", required=True, help="parameter, e.g. float:0.3 or rat:7/6")
    if level:
        sub.add_argument("--level", type=int, required=True, help="level n (size 2^n)")
    if depth is not None:
        sub.add_argument("--depth", type=int, default=depth, help=f"depth (default {depth})")
    if grid is not None:
        required = grid == "REQUIRED"
        sub.add_argument(
            "--grid",
            required=required,
            default=None if required else grid,
            help="lo:hi:count or comma-separated values",
        )
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if sites:
        sub.add_argument("--sites", type=int, default=100000)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if check:
        sub.add_argument("--check", action="store_true", help="exit 3 if the acceptance bound fails")
    if tol is not None:
        sub.add_argument("--tol", type=_tolerance, default=tol,
                         help=f"--check bound (default {tol:g}; finite, >= 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llspec",
        description="Spectra and spectral measures of the lamplighter convolution pencil.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("char-poly", help="determinant vs factored closed form on a grid")
    _add_common(sub, mu=True, level=True, grid="-6:6:25", tol=1e-8)
    sub.set_defaults(func=_cmd_char_poly)

    sub = subs.add_parser("eigs", help="dense eigenvalues of the level matrix")
    _add_common(sub, mu=True, level=True, tol=1e-8)
    sub.set_defaults(func=_cmd_eigs)

    sub = subs.add_parser("zeros", help="zeros of the level polynomials up to a depth")
    _add_common(sub, mu=True, depth=12, tol=1e-8)
    sub.set_defaults(func=_cmd_zeros)

    sub = subs.add_parser("spectrum", help="band, accumulation point and isolated mass")
    _add_common(sub, mu=True, check=False)
    sub.set_defaults(func=_cmd_spectrum)

    sub = subs.add_parser("measure", help="truncated atomic spectral measure")
    _add_common(sub, mu=True, depth=12)
    sub.set_defaults(func=_cmd_measure)

    sub = subs.add_parser("multiplicity", help="root multiplicities at given lambda values")
    _add_common(sub, mu=True, level=True, grid="REQUIRED")
    sub.set_defaults(func=_cmd_multiplicity)

    sub = subs.add_parser("joint-spectrum", help="zero chart over a parameter grid")
    _add_common(sub, depth=8, grid="-3:3:25")
    sub.set_defaults(func=_cmd_joint_spectrum)

    sub = subs.add_parser("dos", help="empirical density of states vs the measure")
    _add_common(sub, mu=True, depth=12, seed=True, sites=True, tol=0.02)
    sub.set_defaults(func=_cmd_dos)

    sub = subs.add_parser("ns", help="gap decay and spectral power-law exponent")
    _add_common(sub, mu=True, depth=60, tol=0.02)
    sub.set_defaults(func=_cmd_ns)

    return parser


# the variables OpenBLAS takes its thread count from, in its order of precedence
_BLAS_THREAD_VARIABLES = frozenset({"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"})


def main(argv=None) -> int:
    """Run one command, write its result and return the exit code; a ConvergenceError propagates.

    Under --format json, the payload's row tuples are written as objects keyed by the header.
    """
    args = build_parser().parse_args(argv)
    try:
        with _open_out(args.out) as stream:
            result = args.func(args)
            if args.format == "json":
                import json

                rows = [dict(zip(result.header, r)) for r in result.payload.get("rows", ())]
                payload = {**result.payload, "rows": rows} if rows else result.payload
                # in blocks of encoder chunks: with indent, json.dumps holds every chunk
                # before it joins them, and json.dump's write per chunk doubles the CPU
                chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload)
                while block := "".join(itertools.islice(chunks, 4096)):
                    stream.write(block)
                stream.write("\n")
            else:
                stream.writelines(itertools.chain([",".join(result.header) + "\n"], result.lines))
            stream.flush()  # a stdout that fails does so here, not in the exit-time flush
    except (DomainError, CapacityError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # from a write, or from the flush as the --out file closes
        target = "stdout" if args.out is None else f"--out {args.out!r}"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_CHECK if result.check_failed else EXIT_OK


def run(argv=None) -> int:
    """Process entry point: `main` on one BLAS thread, with a solver that did not converge as exit 4."""
    # OpenBLAS reads its thread count once, when numpy loads; a process that
    # loaded numpy already keeps its threads, and a count set by the user wins
    if "numpy" not in sys.modules and not _BLAS_THREAD_VARIABLES & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return main(argv)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    finally:
        # `main` reported a stdout that failed; what stays in its buffer would
        # fail again, with a second message, in the interpreter's exit-time flush
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())

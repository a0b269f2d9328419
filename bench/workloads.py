"""The benchmark's workloads: fixed lists of `llspec` commands and their output checks.

Each command runs as `python -m llspec.cli <argv>` in a fresh interpreter.
`{seed}` in an argv is replaced by the benchmark's seed and `{out}` by a
scratch file path.  Checks read what a command wrote and return a list of
problems (empty when the output is right).  They compare values with
tolerances or exact rationals, never bytes, so a solver change that moves the
last bits of a float still passes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Output:
    """What one finished command left behind, handed to its check."""

    stdout: Path
    out: Path  # the `{out}` file; only written by commands that name it
    seed: int


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    check: Callable[[Output], list[str]] | None = None

    def resolve(self, seed: int, out: Path) -> list[str]:
        return [a.replace("{seed}", str(seed)).replace("{out}", str(out)) for a in self.argv]


def _csv_rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))[1:]


def _close(a: float, b: float, tol: float = 1e-12) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def _row_count(n: int) -> Callable[[Output], list[str]]:
    def check(o: Output) -> list[str]:
        rows = len(_csv_rows(o.stdout))
        return [] if rows == n else [f"{rows} rows, expected {n}"]

    return check


def _spectrum_closed_forms(mu: float) -> Callable[[Output], list[str]]:
    def check(o: Output) -> list[str]:
        payload = json.loads(o.stdout.read_text())
        pencil, jstar = payload["pencil"], payload["jstar"]
        problems = []
        if not all(_close(a, b) for a, b in zip(pencil["band"], (-4.0 - mu, 4.0 - mu))):
            problems.append(f"band {pencil['band']} is not [-4-mu, 4-mu]")
        if not _close(pencil["accumulation_point"], mu + 2.0 / mu):
            problems.append(f"accumulation point {pencil['accumulation_point']} != mu+2/mu")
        if not _close(jstar["isolated_mass"], 1.0 - 1.0 / mu**2):
            problems.append(f"isolated mass {jstar['isolated_mass']} != 1-1/mu^2")
        return problems

    return check


def _measure_atoms(o: Output) -> tuple[list[tuple[float, Fraction, str]], Fraction]:
    """(position, mass, class) of each atom, and the tail mass, from CSV or JSON."""
    text = o.stdout.read_text()
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        atoms = [(a["position"], Fraction(a["mass"]), a["class"]) for a in payload["atoms"]]
        return atoms, Fraction(payload["tail_mass"])
    atoms, tail = [], None
    for kind, position, mass, _indices, cls in _csv_rows(o.stdout):
        if kind == "tail":
            tail = Fraction(mass)
        else:
            atoms.append((float(position), Fraction(mass), cls))
    if tail is None:
        raise ValueError("no tail row")
    return atoms, tail


def _measure_total(o: Output) -> list[str]:
    atoms, tail = _measure_atoms(o)
    total = sum((m for _, m, _ in atoms), Fraction(0)) + tail
    return [] if total == 1 else [f"masses plus tail sum to {total}, not 1"]


def _measure_with_b3(position: float) -> Callable[[Output], list[str]]:
    def check(o: Output) -> list[str]:
        atoms, _ = _measure_atoms(o)
        found = any(c == "B3_endpoint" and abs(p - position) <= 1e-9 for p, _, c in atoms)
        problems = _measure_total(o)
        return problems if found else problems + [f"no B3_endpoint atom at {position}"]

    return check


def interior_sites(seed: int, sites: int) -> int:
    """Sites in blocks that touch neither window edge, from the sampling rule.

    Bit n is the parity of the n-th raw Philox(seed) draw, and bit 1 cuts the
    bond (n, n+1).  The first and last blocks are dropped, so the interior
    runs from just after the first cut to the last cut.  This is derived here
    from the model's definition, not read from the program.
    """
    bits = np.random.Philox(key=seed).random_raw(sites) & np.uint64(1)
    cuts = np.flatnonzero(bits[:-1] == 1)
    return int(cuts[-1] - cuts[0]) if cuts.size >= 2 else 0


def _dos_csv(sites: int, to_file: bool) -> Callable[[Output], list[str]]:
    def check(o: Output) -> list[str]:
        data = (o.out if to_file else o.stdout).read_bytes()
        lines = data.rstrip(b"\n").split(b"\n")
        expected = interior_sites(o.seed, sites)
        problems = []
        if lines[0] != b"eigenvalue,cumulative_weight":
            problems.append(f"header {lines[0][:60]!r}")
        if len(lines) - 1 != expected:
            problems.append(f"{len(lines) - 1} rows, expected interior_sites={expected}")
        if float(lines[-1].split(b",")[1]) != 1.0:
            problems.append(f"final cumulative weight {lines[-1][-40:]!r} is not 1")
        return problems

    return check


def _dos_json(sites: int) -> Callable[[Output], list[str]]:
    def check(o: Output) -> list[str]:
        payload = json.loads(o.stdout.read_text())
        expected = interior_sites(o.seed, sites)
        got = payload["interior_sites"]
        return [] if got == expected else [f"interior_sites={got}, expected {expected}"]

    return check


# Each workload stresses different layers; see BENCHMARK.json for the one-line
# reasons and the comments below for what each command adds.
WORKLOADS: dict[str, tuple[Command, ...]] = {
    # One large J*(mu) truncation at a time, swept over k, plus mp bisection:
    # the work lands in jacobi and novikov.
    "spectral": (
        Command("zeros-f2-d40", ("zeros", "--mu", "float:2", "--depth", "40", "--check"),
                _row_count(40 * 41 // 2)),
        Command("spectrum-r2", ("spectrum", "--mu", "rat:2/1", "--format", "json"),
                _spectrum_closed_forms(2.0)),
        # B1/B2 collisions
        Command("measure-r0-d9",
                ("measure", "--mu", "rat:0/1", "--depth", "9", "--format", "json", "--check"),
                _measure_total),
        # deep generic float parameter
        Command("measure-f0.3-d40", ("measure", "--mu", "float:0.3", "--depth", "40", "--check"),
                _measure_total),
        # B3: mu = 1 + 1/2 puts a zero on the band endpoint 4 - mu
        Command("measure-r3_2-d12", ("measure", "--mu", "rat:3/2", "--depth", "12", "--check"),
                _measure_with_b3(2.5)),
        Command("joint-d8-g61", ("joint-spectrum", "--depth", "8", "--grid=-3:3:61", "--check"),
                _row_count(61 * (8 * 9 // 2))),
        Command("ns-f2-d60", ("ns", "--mu", "float:2", "--depth", "60", "--format", "json", "--check")),
    ),
    # 2^n level matrices: dense rotation eigensolver and repeated LU in lamplighter.
    "levels": (
        Command("charpoly-l6-g49",
                ("char-poly", "--level", "6", "--mu", "rat:7/6", "--grid=-6:6:49", "--check"),
                _row_count(49)),
        Command("charpoly-l9-g25",
                ("char-poly", "--level", "9", "--mu", "rat:7/6", "--grid=-6:6:25", "--check"),
                _row_count(25)),
        Command("eigs-l5", ("eigs", "--level", "5", "--mu", "float:0.3", "--check"), _row_count(2**5)),
        # Known defect: exits 1 with ConvergenceError (residual 3.37e-7).  It
        # stays in the workload and counts as failed until the solver is fixed.
        Command("eigs-l7", ("eigs", "--level", "7", "--mu", "float:0.3", "--check"), _row_count(2**7)),
        Command("eigs-l8", ("eigs", "--level", "8", "--mu", "float:0.3", "--check"), _row_count(2**8)),
        Command("mult-l6", ("multiplicity", "--level", "6", "--mu", "rat:2/1", "--grid", "2", "--check"),
                _row_count(1)),
    ),
    # Random operator: ~5e5 tiny blocks batched by size in anderson (a use of
    # jacobi unlike spectral's), pooled in worker processes, and 1e6 CSV rows
    # written by cli.  Sites vary tenfold, which sets the working set.
    "disorder": (
        Command("dos-f0.3-1e5",
                ("dos", "--mu", "float:0.3", "--sites", "100000", "--seed", "{seed}", "--check"),
                _dos_csv(100_000, to_file=False)),
        Command("dos-f0.3-1e6-csv",
                ("dos", "--mu", "float:0.3", "--sites", "1000000", "--seed", "{seed}", "--check",
                 "--out", "{out}"),
                _dos_csv(1_000_000, to_file=True)),
        # mu = 2 puts block eigenvalues out of band; JSON has no per-row output
        Command("dos-f2-1e6-json",
                ("dos", "--mu", "float:2", "--sites", "1000000", "--seed", "{seed}", "--check",
                 "--format", "json"),
                _dos_json(1_000_000)),
    ),
}

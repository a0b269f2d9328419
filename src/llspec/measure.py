"""Atomic spectral measure of the pencil and the exceptional-parameter calculus.

The spectral measure of the pencil at the delta function of the identity is
purely atomic:

    nu_mu = sum_{k >= 1} 2^-(k+1) * (counting measure of the zeros of G_k),

with the k = 1 term contributing the atom 1/4 * delta_mu.  Truncating at
depth K leaves the exact tail bound (K+2) 2^-(K+1), so masses can be kept as
rationals and the truncation always sums to one exactly.

Zero sets of distinct G_k are generically disjoint; they collide only for
exceptional parameter values, handled per atom through the index progression
of the colliding polynomials:

  * in-band collision at lam = -mu - 4 cos(t) with t = p pi / q: the indices
    k with G_k(lam, mu) = 0 form an arithmetic progression of step q whose
    first member n0 lies in 1..q, and the limiting mass is
    2^q / (2^(n0+1) (2^q - 1));
  * collision at lam = mu (equivalently U_k(-mu/2) = 0 for some k, minimal
    k): indices 1, k+2, 2k+3, ... -- the previous rule with n0 = 1 and
    q = k + 1, giving 1/4 + 1/(4 (2^(k+1) - 1));
  * mu = 1 + 1/k: the single zero of G_k sits exactly at the band endpoint
    4 - mu shared with the pencil factor (4 - lam - mu); the factor carries
    no limiting mass, so the atom keeps 2^-(k+1).

The three classes are labelled B1/B2/B3 throughout the API.  B2 lies inside
B1 (its atom at lam = mu recurs with n0 = 1), so `classify_mu` decides B1 and
B3 only, both exactly.  B1Mu and B2Mu are in B1 by construction.  A rational
is in B1 only at 0 and +-1, since a rational ratio of sines of rational
angles is +-1, +-2 or +-1/2 (Conway & Jones), and in B3 at 1 + 1/k.  A float
is the rational its double stores, and is decided as that rational.

The exponent e_k of G_k in the level factorization Phi_n = (4 - lam - mu)
prod G_k^(e_k) is `_g_exponent`, kept here with its readers
`root_multiplicity` and `level_roots`; `lamplighter` imports it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError, _finite, _size
from .jacobi import band_edge_index


# ---------------------------------------------------------------------------
# Parameter forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloatMu:
    """Real parameter, classified as the exact rational Fraction(x) its double stores."""

    x: float

    def __post_init__(self):
        _finite(self.x)


@dataclass(frozen=True)
class RationalMu:
    """Exact rational parameter p/q."""

    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0:
            raise DomainError("denominator must be positive")
        g = math.gcd(self.p, self.q)
        object.__setattr__(self, "p", self.p // g)
        object.__setattr__(self, "q", self.q // g)
        _require_float_value(self)


@dataclass(frozen=True)
class B1Mu:
    """mu = -cos(p pi/q) - sin(p pi/q) cot(n p pi/q): an in-band collision point."""

    p: int
    q: int
    n: int

    def __post_init__(self):
        if not (0 < self.p < self.q):
            raise DomainError("need 0 < p < q")
        if math.gcd(self.p, self.q) != 1:
            raise DomainError("p/q must be in lowest terms")
        if self.n < 1 or self.n % self.q == 0:
            raise DomainError("index n must be >= 1 and not a multiple of q")
        _require_float_value(self)


@dataclass(frozen=True)
class B2Mu:
    """mu = 2 cos(j pi/(k+1)), a zero of U_k(./2): collision at lam = mu."""

    j: int
    k: int

    def __post_init__(self):
        if not (1 <= self.j <= self.k):
            raise DomainError("need 1 <= j <= k")
        _require_float_value(self)


MuParam = Union[FloatMu, RationalMu, B1Mu, B2Mu]


def mu_value(mu: MuParam) -> float:
    """Float value of any parameter form."""
    if isinstance(mu, FloatMu):
        return float(mu.x)
    if isinstance(mu, RationalMu):
        return mu.p / mu.q
    if isinstance(mu, B1Mu):
        rational = _b1_rational(mu)
        if rational is not None:
            return rational
        # the value has period q in n, so evaluate at the witness index n0 in 1 .. q-1
        n0 = (mu.n - 1) % mu.q + 1
        t = mu.p * math.pi / mu.q
        return -math.sin((n0 + 1) * t) / math.sin(n0 * t)
    if isinstance(mu, B2Mu):
        d = math.gcd(mu.j, mu.k + 1)
        jr, mr = mu.j // d, (mu.k + 1) // d
        if mr == 2:  # 2cos(pi/2)
            return 0.0
        if mr == 3:  # 2cos(pi/3), 2cos(2pi/3)
            return 1.0 if jr == 1 else -1.0
        return 2.0 * math.cos(jr * math.pi / mr)
    raise DomainError(f"not a parameter form: {mu!r}")


def _b1_rational(mu: B1Mu) -> float | None:
    """The value of a B1Mu where it is rational, as an exact float; else None.

    With t = p pi/q the value -sin((n+1) t) / sin(n t) is 0 when q | n+1.  When
    q | 2n+1, (n+1) t = N pi - n t with N = (2n+1) p/q, so the value is (-1)^N.
    These are its only rational values, 0 and +-1.
    """
    if (mu.n + 1) % mu.q == 0:
        return 0.0
    if (2 * mu.n + 1) % mu.q == 0:
        return -1.0 if (2 * mu.n + 1) * mu.p // mu.q % 2 else 1.0
    return None


def _require_float_value(mu: MuParam) -> None:
    """Refuse an exact form whose value has no finite float (huge integers overflow)."""
    try:
        finite = math.isfinite(mu_value(mu))
    except (OverflowError, ValueError):
        finite = False
    if not finite:
        raise DomainError("parameter value does not fit in a float")


def mu_exact(mu: MuParam) -> Fraction:
    """Exact value of any form: p/q for a RationalMu, else the rational `mu_value` stores."""
    if isinstance(mu, RationalMu):
        return Fraction(mu.p, mu.q)
    return Fraction(mu_value(mu))


def parse_mu(text: str) -> MuParam:
    """Parse a tagged parameter string.

    Accepted forms: "float:0.3", "rat:7/6", "b1:p/q:n", "b2:j/k"; bare
    "7/6" and bare decimals are read as rational and float respectively.
    """
    text = text.strip()
    try:
        if text.startswith("float:"):
            return FloatMu(float(text[6:]))
        if text.startswith("rat:"):
            p, q = text[4:].split("/")
            return RationalMu(int(p), int(q))
        if text.startswith("b1:"):
            frac, n = text[3:].rsplit(":", 1)
            p, q = frac.split("/")
            return B1Mu(int(p), int(q), int(n))
        if text.startswith("b2:"):
            j, k = text[3:].split("/")
            return B2Mu(int(j), int(k))
        if "/" in text:
            p, q = text.split("/")
            return RationalMu(int(p), int(q))
        return FloatMu(float(text))
    except (ValueError, DomainError) as exc:
        raise DomainError(f"cannot parse parameter {text!r}: {exc}") from exc


def format_mu(mu: MuParam) -> str:
    """Tagged string form; round-trips through parse_mu."""
    if isinstance(mu, FloatMu):
        return f"float:{mu.x!r}"
    if isinstance(mu, RationalMu):
        return f"rat:{mu.p}/{mu.q}"
    if isinstance(mu, B1Mu):
        return f"b1:{mu.p}/{mu.q}:{mu.n}"
    if isinstance(mu, B2Mu):
        return f"b2:{mu.j}/{mu.k}"
    raise DomainError(f"not a parameter form: {mu!r}")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MuClassification:
    # a parameter is in B1 (B3) exactly when its witness is not None
    b1_witness: tuple[int, int, int] | None  # (p, q, n0): atom angle p pi/q, first index n0
    b3_witness: int | None  # k with mu = 1 + 1/k


def coalesce_tol(mu: float) -> float:
    """Positions a, b at parameter mu are one point when |a - b| <= coalesce_tol(mu).

    The package's only same-point rule: a billionth of the spectrum's scale,
    which overflows, and is refused, once |mu| reaches half the largest double.
    """
    mu = _finite(mu)
    tol = 1e-9 * (abs(4.0 - mu) + abs(4.0 + mu))
    if not math.isfinite(tol):
        raise DomainError(f"no same-point tolerance at mu={mu!r}: |4 - mu| + |4 + mu| overflows")
    return tol


# exact rational members of B1 with their witnesses.  A rational mu in B1
# other than 0 makes -mu = sin((n+1) t) / sin(n t), t = p pi/q, a rational
# ratio of sines of rational multiples of pi: +-1, or +-2 and +-1/2 with sines
# of size 1 and 1/2 (Conway & Jones, Acta Arith. 30, 1976).  +-1 gives
# mu = +-1; the others need t = +-pi/3 mod pi, where sin(n t) is 0 or
# +-sqrt(3)/2, so they never occur.
_RATIONAL_B1 = {Fraction(0): (1, 2, 1), Fraction(1): (2, 3, 1), Fraction(-1): (1, 3, 1)}


def classify_mu(mu: MuParam) -> MuClassification:
    """Decide B1 and B3 membership with witnesses, exactly.

    Each form is decided by one rule.  B1Mu and B2Mu are in B1 by
    construction, and never in B3.  A rational, and a float as the exact
    rational its double stores, is in B1 by the table above and in B3 when
    mu = 1 + 1/k.
    """
    b1 = b3 = None
    if isinstance(mu, B2Mu):
        # 2cos(j pi/(k+1)) is rational only at 0 and +-1, so never 1 + 1/k; the
        # atom at lam = mu recurs: angle pi - j pi/(k+1), first index 1
        d = math.gcd(mu.j, mu.k + 1)
        b1 = ((mu.k + 1 - mu.j) // d, (mu.k + 1) // d, 1)
    elif isinstance(mu, B1Mu):
        # B1 holds no 1 + 1/k (the rational members are 0 and +-1)
        b1 = (mu.p, mu.q, (mu.n - 1) % mu.q + 1)
    else:
        # a float is the rational its double stores; mu_value refuses a non-form
        frac = mu_exact(mu)
        b1 = _RATIONAL_B1.get(frac)
        b3 = band_edge_index(frac) if frac > 0 else None
    return MuClassification(b1, b3)


# ---------------------------------------------------------------------------
# Truncated measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    position: float
    mass: Fraction
    indices: tuple[int, ...]
    kind: str  # delta_mu | B2_merged (hold index 1) | B3_endpoint | B1_merged | generic


@dataclass(frozen=True)
class AtomicMeasure:
    mu: MuParam
    depth: int
    atoms: tuple[Atom, ...]  # ascending by position
    tail_mass: Fraction

    def total_mass(self) -> Fraction:
        return sum((a.mass for a in self.atoms), Fraction(0)) + self.tail_mass

    def atoms_at(self, position: float) -> tuple[Atom, ...]:
        """The atoms of the point `position` falls on; () when it is on none.

        That point is the nearest atom, if it lies within `coalesce_tol`, with
        every atom at the same double.  The atoms are in ascending order, so
        the nearest is found by bisection; of two equally near, the lower.
        A non-finite position is refused: NaN would fall on no atom.
        """
        position = _finite(position, "x")
        tol = coalesce_tol(mu_value(self.mu))
        atoms = self.atoms
        i = bisect.bisect_left(atoms, position, key=_position)
        near = min(atoms[max(i - 1, 0):i + 1], key=lambda a: abs(a.position - position))
        if not abs(near.position - position) <= tol:
            return ()
        return atoms[bisect.bisect_left(atoms, near.position, key=_position):
                     bisect.bisect_right(atoms, near.position, key=_position)]

    def atom_near(self, position: float) -> Atom:
        """The atom nearest to position, which must lie within `coalesce_tol`."""
        atoms = self.atoms_at(position)
        if not atoms:
            raise DomainError(f"no atom within {coalesce_tol(mu_value(self.mu))} of {position}")
        return atoms[0]


_position = operator.attrgetter("position")
# deepest truncation: the zeros of G_1 .. G_depth cost depth^4, 0.8 s at 300 on 2 cores
_DEPTH_MAX = 300


def tail_mass(depth: int) -> Fraction:
    """Exact mass not collected by a depth-K truncation: (K+2) 2^-(K+1)."""
    _size(depth, "depth", 1, _DEPTH_MAX)
    return Fraction(depth + 2, 2 ** (depth + 1))


def measure_truncation(mu: MuParam, depth: int) -> AtomicMeasure:
    """Depth-K truncation of the spectral measure with exact rational masses.

    Collects the zeros of G_1..G_K with mass 2^-(k+1) each.  `classify_mu`
    alone decides whether zeros can collide: outside B1 (every rational but
    0 and +-1) no two of them do, and each is an atom of its own.  At a B1
    parameter, which every B2 parameter is, in-band neighbours within
    `coalesce_tol` merge: in-band collisions are exact algebraic
    coincidences, so a tolerance well above eigenvalue accuracy and well
    below the zero spacing draws the same groups there.  Out-of-band zeros
    move strictly with k and never merge, however close they come to the
    accumulation point.

    The atom holding index 1 (G_1 = mu - lam) is delta_mu, or B2_merged when
    it collected more; a B3 parameter's atom at 4 - mu is B3_endpoint.  At
    mu = 2 the zero lam = 2 is both, and stays delta_mu.
    """
    from .ghpolys import g_zeros  # and so numpy: parsing a parameter needs neither

    _size(depth, "depth", 1, _DEPTH_MAX)
    x = mu_value(mu)
    tol = coalesce_tol(x)
    cls = classify_mu(mu)
    groups: list[list[tuple[float, int]]] = []
    for z, k in sorted((float(z), k) for k in range(1, depth + 1) for z in g_zeros(k, x)):
        prev = groups[-1][-1][0] if groups else -math.inf
        # prev <= z: both lie in the band [-4 - mu, 4 - mu] when these bounds hold
        if cls.b1_witness is not None and z - prev <= tol and -4.0 - x <= prev and z <= 4.0 - x:
            groups[-1].append((z, k))
        else:
            groups.append([(z, k)])
    atoms = []
    for grp in groups:
        ks = tuple(sorted(k for _, k in grp))
        pos = min(grp, key=lambda zk: zk[1])[0]  # from the smallest index
        mass = sum((Fraction(1, 2 ** (k + 1)) for k in ks), Fraction(0))
        if ks[0] == 1:
            kind = "delta_mu" if len(ks) == 1 else "B2_merged"
        elif cls.b3_witness is not None and abs(pos - (4.0 - x)) <= tol:
            kind = "B3_endpoint"
        else:
            kind = "B1_merged" if len(ks) > 1 else "generic"
        atoms.append(Atom(position=pos, mass=mass, indices=ks, kind=kind))
    return AtomicMeasure(mu=mu, depth=depth, atoms=tuple(atoms), tail_mass=tail_mass(depth))


def _g_exponent(n: int, k: int) -> int:
    """Exponent of G_k in the level-n factorization: 2^(n-1-k) for k < n, 1 for k = n."""
    return 1 if k == n else 1 << (n - 1 - k)


def root_multiplicity(measure: AtomicMeasure, lam: float) -> int:
    """Multiplicity of lam as a root of the level-n determinant, n = measure.depth.

    In Phi_n = (4 - lam - mu) prod G_k^(e_k) a root takes the exponent e_k of
    each G_k it is a zero of: the indices of the atoms lam falls on, as
    `AtomicMeasure.atoms_at` decides; 1 more when lam is 4 - mu.
    """
    x = mu_value(measure.mu)
    mult = sum(_g_exponent(measure.depth, k) for a in measure.atoms_at(lam) for k in a.indices)
    return mult + (abs(lam - (4.0 - x)) <= coalesce_tol(x))


def level_roots(measure: AtomicMeasure):
    """The roots of the level-n determinant, n = measure.depth, ascending, each as often
    as `root_multiplicity` counts it: 4 - mu, and each atom once per e_k of its indices."""
    import numpy as np

    counts = [sum(_g_exponent(measure.depth, k) for k in a.indices) for a in measure.atoms]
    roots = np.repeat([a.position for a in measure.atoms], counts)
    return np.sort(np.append(roots, 4.0 - mu_value(measure.mu)))


def measure_cdf_mids(measure: AtomicMeasure, xs) -> list[float]:
    """Midpoints of the exact bounds [lo, lo + tail_mass] on N(x) at the points xs.

    lo is the mass of the atoms at or below x; the tail could sit anywhere.
    The atoms, ascending already, are summed as they come, so each point
    costs one bisection, not a sum over every atom.
    """
    xs = [_finite(x, "x") for x in xs]  # NaN would count as above every atom
    positions = [a.position for a in measure.atoms]
    below = list(itertools.accumulate((a.mass for a in measure.atoms), initial=Fraction(0)))
    return [float(2 * below[bisect.bisect_right(positions, x)] + measure.tail_mass) / 2.0
            for x in xs]


"""Atomic measure truncations, exceptional-set classification, multiplicities."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from llspec import measure
from llspec.cli import _DEPTH_MAX
from llspec.errors import DomainError
from llspec.ghpolys import g_value, g_zeros
from llspec.lamplighter import build_level, dense_eigs, pencil_matrix
from llspec.measure import (
    B1Mu,
    B2Mu,
    FloatMu,
    RationalMu,
    classify_mu,
    format_mu,
    measure_cdf_mids,
    measure_truncation,
    mu_value,
    parse_mu,
    root_multiplicity,
    tail_mass,
)

# ---------------------------------------------------------------------------
# parameter forms
# ---------------------------------------------------------------------------


def test_parse_format_round_trip():
    for text in ("float:0.3", "rat:7/6", "b1:1/2:1", "b2:1/2", "rat:-3/2"):
        assert format_mu(parse_mu(text)) == text
    assert format_mu(parse_mu("7/6")) == "rat:7/6"
    assert isinstance(parse_mu("0.25"), FloatMu)
    with pytest.raises(DomainError):
        parse_mu("b1:2/4:1")  # not in lowest terms
    with pytest.raises(DomainError):
        parse_mu("rat:1/0")
    with pytest.raises(DomainError):
        parse_mu("nonsense:3")


@pytest.mark.parametrize("text", ["float:nan", "float:inf", "-inf", "float:-nan"])
def test_non_finite_parameters_rejected(text):
    with pytest.raises(DomainError):
        parse_mu(text)
    value = float(text.removeprefix("float:"))
    with pytest.raises(DomainError, match=f"parameter must be finite, got {value!r}$"):
        FloatMu(value)


_HUGE = 10 ** 400  # beyond the largest double, about 1.8e308


@pytest.mark.parametrize(
    "make",
    [
        lambda: RationalMu(_HUGE, 1),
        lambda: RationalMu(-_HUGE, 3),
        lambda: B1Mu(1, _HUGE, 1),
        lambda: B1Mu(1, _HUGE, _HUGE + 1),
        lambda: B2Mu(1, _HUGE),
    ],
)
def test_parameters_without_a_float_value_rejected(make):
    with pytest.raises(DomainError, match="does not fit in a float"):
        make()


@pytest.mark.parametrize("p, q, n0", [(1, 5, 3), (4, 5, 1), (2, 7, 5), (1, 2, 1), (3, 8, 6)])
def test_b1_value_has_period_q_in_the_index(p, q, n0):
    # sin((n+1) t) / sin(n t) with t = p pi/q is unchanged by n -> n + q, so
    # every index of one residue class gives the bits of the witness index
    value = mu_value(B1Mu(p, q, n0))
    for n in (n0 + q, n0 + 10 * q, n0 + 200000 * q, n0 + 10 ** 15 * q, n0 + _HUGE * q):
        assert classify_mu(B1Mu(p, q, n)).b1_witness == (p, q, n0)
        assert mu_value(B1Mu(p, q, n)) == value
    assert mu_value(B1Mu(1, 5, 10 ** 15 + 3)) == mu_value(B1Mu(1, 5, 3))
    # a huge index has a float value once reduced: -2 cos(4 pi/5)
    assert mu_value(B1Mu(4, 5, _HUGE + 1)) == mu_value(B1Mu(4, 5, 1))


@pytest.mark.parametrize("mu", [_HUGE, -_HUGE, Fraction(_HUGE, 3)],
                         ids=["1e400", "-1e400", "1e400/3"])
def test_a_float_parameter_past_the_float_range_rejected(mu):
    # float(mu) raised a bare OverflowError in both
    with pytest.raises(DomainError, match="parameter must be finite, got a value past"):
        FloatMu(mu)
    with pytest.raises(DomainError, match="parameter must be finite, got a value past"):
        measure.coalesce_tol(mu)


@pytest.mark.parametrize("x", [math.nan, math.inf, _HUGE], ids=["nan", "inf", "1e400"])
def test_the_cdf_midpoints_refuse_a_non_finite_point(x):
    # NaN used to count every atom as below it
    trunc = measure_truncation(FloatMu(0.3), 6)
    with pytest.raises(DomainError, match="x must be finite"):
        measure.measure_cdf_mids(trunc, [0.0, x])


def test_huge_exact_parts_with_a_float_value_accepted():
    assert mu_value(RationalMu(1, _HUGE)) == 0.0
    assert mu_value(RationalMu(3 * _HUGE, 2 * _HUGE)) == 1.5
    assert format_mu(parse_mu(f"rat:1/{_HUGE}")) == f"rat:1/{_HUGE}"


@given(st.floats(min_value=-3, max_value=3, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_float_round_trip(x):
    assert mu_value(parse_mu(format_mu(FloatMu(x)))) == x


def test_structured_values():
    assert mu_value(RationalMu(7, 6)) == pytest.approx(7.0 / 6.0)
    assert mu_value(B2Mu(1, 2)) == pytest.approx(1.0)  # 2 cos(pi/3)
    assert mu_value(B1Mu(1, 2, 1)) == pytest.approx(0.0, abs=1e-15)
    # -cos(t) - sin(t) cot(nt) at t = pi/3, n = 2: the ratio form -sin(3t)/sin(2t)
    assert mu_value(B1Mu(1, 3, 2)) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainError):
        B1Mu(1, 3, 3)  # n a multiple of q: cot undefined
    with pytest.raises(DomainError):
        B2Mu(3, 2)


def test_rational_cosine_values_are_exact_floats():
    # angles with rational cosine snap, so |mu| = 1 boundary semantics
    # (no isolated point, no outlier onset) are exact for these forms
    assert mu_value(B2Mu(1, 2)) == 1.0
    assert mu_value(B2Mu(2, 2)) == -1.0
    assert mu_value(B2Mu(1, 1)) == 0.0
    assert mu_value(B1Mu(1, 2, 1)) == 0.0
    assert mu_value(B1Mu(1, 3, 4)) == -1.0
    assert mu_value(B1Mu(2, 3, 4)) == 1.0
    # q | n + 1 gives 0; q | 2n + 1 gives (-1)^((2n+1) p/q)
    assert mu_value(B1Mu(1, 3, 2)) == 0.0
    assert mu_value(B1Mu(1, 5, 2)) == -1.0
    assert mu_value(B1Mu(2, 5, 2)) == 1.0
    assert mu_value(B1Mu(3, 7, 3)) == -1.0
    assert mu_value(B2Mu(1, 3)) == pytest.approx(math.sqrt(2.0))  # no snap


def test_b1_value_matches_cotangent_form():
    for p, q, n in [(1, 4, 2), (2, 5, 3), (1, 5, 4), (3, 7, 2)]:
        t = p * math.pi / q
        cot_form = -math.cos(t) - math.sin(t) / math.tan(n * t)
        assert mu_value(B1Mu(p, q, n)) == pytest.approx(cot_form, abs=1e-14)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_exceptional_rationals():
    c76 = classify_mu(RationalMu(7, 6))
    assert c76.b3_witness == 6

    c0 = classify_mu(RationalMu(0, 1))
    assert c0.b1_witness == (1, 2, 1)
    assert c0.b3_witness is None

    c1 = classify_mu(RationalMu(1, 1))
    assert c1.b1_witness is not None and c1.b3_witness is None

    c32 = classify_mu(RationalMu(3, 2))
    assert c32.b3_witness == 2

    c2 = classify_mu(RationalMu(2, 1))
    assert c2.b3_witness == 1


def test_classify_structured_forms():
    cb2 = classify_mu(B2Mu(1, 2))
    assert cb2.b3_witness is None
    # the atom at lam = mu recurs, so it has a B1 witness
    assert cb2.b1_witness == (2, 3, 1)

    # non-minimal angle reduces: 2 cos(2 pi / 6) = 2 cos(pi / 3)
    assert classify_mu(B2Mu(2, 5)).b1_witness == (2, 3, 1)

    cb1 = classify_mu(B1Mu(1, 4, 6))
    assert cb1.b1_witness == (1, 4, 2)  # first index 6 mod 4
    assert cb1.b3_witness is None


def test_classify_floats_are_exact():
    cf = classify_mu(FloatMu(0.3))
    assert cf.b1_witness is None and cf.b3_witness is None
    # the double nearest 1.2 is not 6/5, so not 1 + 1/5; 1.25 is 1 + 1/4
    assert classify_mu(FloatMu(1.2)).b3_witness is None
    c125 = classify_mu(FloatMu(1.25))
    assert c125.b3_witness == 4
    c1f = classify_mu(FloatMu(1.0))
    assert c1f.b1_witness is not None
    # 1.0 + 4e-16 rounds to 1 + 2^-51, which is 1 + 1/k exactly
    assert classify_mu(FloatMu(1.0 + 4e-16)).b3_witness == 2 ** 51
    # the double nearest an irrational member is not that member
    assert classify_mu(FloatMu(mu_value(B2Mu(1, 4)))).b1_witness is None
    assert classify_mu(FloatMu(mu_value(B1Mu(1, 4, 2)))).b1_witness is None


def test_b1_values_near_small_fractions_are_zero_or_plus_minus_one():
    # the evidence behind the rational table: a B1 value is a ratio of sines at
    # rational multiples of pi, rational only at 0 and +-1 (Conway & Jones);
    # the value depends on n modulo q, so n = 1 .. q - 1 covers every member
    near = set()
    for q in range(2, 61):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            for n in range(1, q):
                x = mu_value(B1Mu(p, q, n))
                frac = Fraction(x).limit_denominator(1000)
                if abs(x - frac) < 1e-12:
                    near.add(frac)
    assert near == {Fraction(-1), Fraction(0), Fraction(1)}


def test_rationals_are_exact_and_agree_with_their_floats():
    # a float agrees with p/q where its double is p/q; elsewhere its double is a
    # dyadic rational other than 0, +-1 and 1 + 1/k, so it is in no class
    cases = stored = 0
    for q in range(1, 41):
        for p in range(-160, 161):
            if math.gcd(p, q) != 1:
                continue
            exact = classify_mu(RationalMu(p, q))
            c = classify_mu(FloatMu(p / q))
            if Fraction(p / q) == Fraction(p, q):
                assert c == exact, (p, q)
                stored += 1
            else:
                assert (c.b1_witness, c.b3_witness) == (None, None), (p, q)
            cases += 1
    assert (cases, stored) == (7821, 1121)  # stored: q a power of two up to 32


@pytest.mark.parametrize("x", [1e4, 1e5, 1e8, 1e10, -1e8])
def test_large_floats_are_not_b1(x):
    # integers other than 0 and +-1, so exactly outside B1
    c = classify_mu(FloatMu(x))
    assert c.b1_witness is None


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)  # largest subnormal, negated
@example(1e308)
@example(1.0 + 2.0 ** -51)
@example(-1.0)
@example(2.0)
def test_a_float_is_classified_as_the_rational_it_stores(x):
    c = classify_mu(FloatMu(x))
    assert c == classify_mu(RationalMu(*x.as_integer_ratio()))


# ---------------------------------------------------------------------------
# truncated measure
# ---------------------------------------------------------------------------


def test_generic_float_atom_at_mu():
    m = measure_truncation(FloatMu(0.3), 8)
    atom = m.atom_near(0.3)
    assert atom.mass == Fraction(1, 4)
    assert atom.indices == (1,)
    assert atom.kind == "delta_mu"


def test_origin_mass_partial_sums():
    m7 = measure_truncation(RationalMu(0, 1), 7)
    assert m7.atom_near(0.0).mass == Fraction(85, 256)
    # partial sums approach 1/3 with error < 4^-(number of terms)
    partial = Fraction(0)
    for count, (k, expected) in enumerate(
        [(1, Fraction(1, 4)), (3, Fraction(5, 16)), (5, Fraction(21, 64))], start=1
    ):
        partial += Fraction(1, 2 ** (k + 1))
        assert partial == expected
        assert abs(Fraction(1, 3) - partial) < Fraction(1, 4 ** count)
    m15 = measure_truncation(RationalMu(0, 1), 15)
    assert abs(float(m15.atom_near(0.0).mass) - 1.0 / 3.0) < 1e-4


def test_atom_at_one_partial_sums():
    m25 = measure_truncation(RationalMu(1, 1), 25)
    atom = m25.atom_near(1.0)
    assert atom.indices == (1, 4, 7, 10, 13, 16, 19, 22, 25)
    # a direct scan of G_j(1, 1) finds indices 1, k + 2, 2k + 3, ... with k = 2
    hits = [j for j in range(1, 21) if abs(g_value(j, 1.0, 1.0)) < 1e-9]
    assert hits == [1, 4, 7, 10, 13, 16, 19]
    assert abs(float(atom.mass) - 2.0 / 7.0) < 1e-3
    assert atom.kind == "B2_merged"


def test_endpoint_atom_for_boundary_parameter():
    m = measure_truncation(RationalMu(3, 2), 9)
    atom = m.atom_near(2.5)
    assert atom.indices == (2,)
    assert atom.mass == Fraction(1, 8)
    assert atom.kind == "B3_endpoint"


@given(
    mu=st.floats(min_value=-2.5, max_value=2.5, allow_nan=False),
    depth=st.integers(min_value=1, max_value=14),
)
@settings(max_examples=25, deadline=None)
def test_truncation_always_sums_to_one(mu, depth):
    m = measure_truncation(FloatMu(mu), depth)
    assert m.total_mass() == 1
    assert all(a.mass > 0 for a in m.atoms)


def test_truncations_sum_to_one_for_exceptional_parameters():
    for mu, depth in [(RationalMu(0, 1), 12), (RationalMu(1, 1), 20),
                      (RationalMu(3, 2), 15), (RationalMu(2, 1), 10)]:
        assert measure_truncation(mu, depth).total_mass() == 1


def test_tail_mass_matches_series_remainder():
    # sum_{k>K} k 2^-(k+1) telescopes to (K+2) 2^-(K+1)
    for depth in range(1, 21):
        remainder = sum(Fraction(k, 2 ** (k + 1)) for k in range(depth + 1, depth + 400))
        assert abs(tail_mass(depth) - remainder) < Fraction(1, 2 ** 300)


def test_atom_positions_separated():
    m = measure_truncation(FloatMu(0.37), 14)
    positions = sorted(a.position for a in m.atoms)
    assert min(b - a for a, b in zip(positions, positions[1:])) > 1e-9


def test_atom_near_returns_the_nearest_atom():
    # at mu = 2 the out-of-band zeros of G_14..G_40 lie closer to their
    # neighbours than the tolerance, and each is an atom of its own
    m = measure_truncation(RationalMu(2, 1), 40)
    outliers = [float(g_zeros(k, 2.0)[-1]) for k in range(14, 41)]
    assert max(b - a for a, b in zip(outliers, outliers[1:])) < measure.coalesce_tol(2.0)
    atom = m.atom_near(outliers[13])
    assert atom.indices == (27,) and atom.position == outliers[13]


def _angles(mu: int, k: int) -> list[Fraction]:
    """t/pi of the zeros lam = -mu - 4 cos(t) of G_k at mu = 0, 1 or -1, ascending.

    sin((k+1)t) + mu sin(kt) is sin((k+1)t) at mu = 0, 2 sin((2k+1)t/2) cos(t/2)
    at mu = 1 and 2 cos((2k+1)t/2) sin(t/2) at mu = -1, so the j-th zero of G_k
    has t/pi = j/(k+1), 2j/(2k+1) or (2j-1)/(2k+1), j = 1..k.
    """
    return [{0: Fraction(j, k + 1), 1: Fraction(2 * j, 2 * k + 1),
             -1: Fraction(2 * j - 1, 2 * k + 1)}[mu] for j in range(1, k + 1)]


@pytest.mark.parametrize("mu", [0, 1, -1])
def test_rational_b1_groups_are_the_angle_groups(mu):
    depth = _DEPTH_MAX
    angles = {k: _angles(mu, k) for k in range(1, depth + 1)}
    groups: dict[Fraction, list[int]] = {}
    for k, fs in angles.items():
        for f in fs:
            groups.setdefault(f, []).append(k)
    centre = {f: -mu - 4.0 * math.cos(math.pi * f) for f in groups}
    tol = measure.coalesce_tol(float(mu))
    # every zero sits within tol / 4 of its closed form, and distinct closed
    # forms lie over 2 tol apart: chaining neighbours within tol then draws
    # exactly the angle groups from G_1..G_K at every K <= depth
    assert max(abs(float(z) - centre[f]) for k, fs in angles.items()
               for z, f in zip(g_zeros(k, float(mu)), fs, strict=True)) <= tol / 4
    points = sorted(centre.values())
    assert min(b - a for a, b in zip(points, points[1:])) > 2 * tol
    for d in [*range(1, 31), depth]:
        m = measure_truncation(RationalMu(mu, 1), d)
        expected = sorted((centre[f], tuple(k for k in ks if k <= d))
                          for f, ks in groups.items() if ks[0] <= d)
        atoms = sorted(m.atoms, key=lambda a: a.position)
        assert [a.indices for a in atoms] == [ks for _, ks in expected]
        assert max(abs(a.position - c) for a, (c, _) in zip(atoms, expected)) <= tol


@given(p=st.integers(-30, 30), q=st.integers(1, 30), depth=st.integers(1, 30))
@settings(max_examples=60, deadline=None)
def test_no_collision_outside_zero_and_plus_minus_one(p, q, depth):
    # B1 and B2 meet the rationals only in 0 and +-1, so every zero of
    # G_1..G_K is an atom of its own
    assume(Fraction(p, q) not in (0, 1, -1))
    m = measure_truncation(RationalMu(p, q), depth)
    assert len(m.atoms) == depth * (depth + 1) // 2
    assert all(len(a.indices) == 1 for a in m.atoms)
    assert m.total_mass() == 1


def test_b2_parameter_merges_in_band_only():
    m = measure_truncation(B2Mu(1, 3), 40)  # mu = sqrt(2)
    x = mu_value(m.mu)
    outside = [a for a in m.atoms if abs(a.position + x) > 4.0]
    assert len(outside) == 40 - 2  # G_k has an outlier from k = 3 on
    assert all(len(a.indices) == 1 and a.kind == "generic" for a in outside)
    assert any(len(a.indices) > 1 for a in m.atoms)
    assert m.total_mass() == 1


def test_b2_atom_at_mu_holds_the_index_progression():
    # mu = 2 cos(j pi/(k+1)) with j/(k+1) = j'/m in lowest terms is a zero of
    # U_k'(-mu/2), k' = m - 1, so the atom at lam = mu holds G_1, G_{k'+2},
    # G_{2k'+3}, ...; at depth 2k' + 4 those are the first three
    for k in range(1, 15):
        for j in range(1, k + 1):
            kk = (k + 1) // math.gcd(j, k + 1) - 1
            m = measure_truncation(B2Mu(j, k), 2 * kk + 4)
            (atom,) = m.atoms_at(mu_value(m.mu))
            assert atom.indices == (1, kk + 2, 2 * kk + 3), (j, k)
    # an irrational B1 value that is also in B2: -2 cos(7 pi/22), a zero of U_21(-mu/2)
    m = measure_truncation(B1Mu(1, 22, 7), 47)
    (atom,) = m.atoms_at(mu_value(m.mu))
    assert atom.indices == (1, 23, 45)


# ---------------------------------------------------------------------------
# mass limits and multiplicities
# ---------------------------------------------------------------------------


def test_b1_mass_limit_is_reached_by_truncations():
    # the atom of G_2 at -2 for the flat parameter recurs with step 3
    m = measure_truncation(RationalMu(0, 1), 17)
    atom = m.atom_near(-2.0)
    assert atom.indices == (2, 5, 8, 11, 14, 17)
    limit = Fraction(2 ** 3, 2 ** (2 + 1) * (2 ** 3 - 1))  # 2^q / (2^(n0+1) (2^q - 1))
    assert limit == Fraction(1, 7)
    assert abs(float(atom.mass) - float(limit)) < 1e-4


def _multiplicity(n, lam, mu):
    return root_multiplicity(measure_truncation(mu, n), lam)


def test_multiplicity_values():
    assert _multiplicity(6, 2.0, RationalMu(2, 1)) == 17  # 1 + 2^4
    assert _multiplicity(6, 1.0, RationalMu(1, 1)) == 18  # 16 + 7*8/28
    assert _multiplicity(4, 4.0 - 0.3, FloatMu(0.3)) == 1
    assert _multiplicity(5, float(g_zeros(2, 0.3)[0]), FloatMu(0.3)) == 4
    assert _multiplicity(4, 123.0, FloatMu(0.3)) == 0  # no root
    with pytest.raises(DomainError):
        _multiplicity(0, 3.7, FloatMu(0.3))


def test_crowded_outliers_are_roots_of_their_own():
    # at mu = 3 the largest zeros of G_10, G_11 and G_12 lie 1.3e-10 apart,
    # inside the same-point tolerance of 8e-9, yet each is a zero of its own
    # G_k alone; the nearest atom alone owns a point
    mu = RationalMu(3, 1)
    x_12 = 3.666666666649881
    assert float(g_zeros(12, 3.0)[-1]) == x_12
    trunc = measure_truncation(mu, 12)
    assert root_multiplicity(trunc, x_12) == 1
    assert [a.indices for a in trunc.atoms_at(x_12)] == [(12,)]
    # each neighbour takes the exponent of its own G_k alone
    for k, exponent in ((10, 2), (11, 1), (12, 1)):
        assert root_multiplicity(trunc, float(g_zeros(k, 3.0)[-1])) == exponent


# levels 1-6 where the rotation solver converges: at mu = 1000 it stops short
# of its threshold at levels 5 and 6
_ORACLE_LEVELS = {mu: range(1, 7) for mu in (0.0, 0.3, 1.0, 1.5, 2.0, 7.0, 30.0, 100.0)}
_ORACLE_LEVELS[1000.0] = range(1, 5)


@pytest.mark.parametrize("mu", list(_ORACLE_LEVELS))
def test_multiplicities_match_dense_oracle(mu):
    # the sorted match pairs each dense eigenvalue with one root of the
    # factorization; each eigenvalue then has its root's multiplicity, which
    # at mu = 30, 100 and 1000 tells apart outliers closer than the tolerance
    param = FloatMu(mu)
    tol = measure.coalesce_tol(mu)
    for n in _ORACLE_LEVELS[mu]:
        trunc = measure_truncation(param, n)
        roots = measure.level_roots(trunc)
        eigs = np.sort(dense_eigs(pencil_matrix(build_level(n), mu)))
        assert len(eigs) == len(roots) and np.max(np.abs(eigs - roots)) <= tol
        # a root's point is its atom's double, or 4 - mu, which at a B3
        # parameter is also the zero of one G_k
        points = ["lead" if abs(r - (4.0 - mu)) <= tol else r for r in roots.tolist()]
        sizes = Counter(points)
        for eig, point in zip(eigs.tolist(), points):
            assert root_multiplicity(trunc, eig) == sizes[point]


def test_generic_zero_sets_disjoint():
    # |mu| capped at 1.5: beyond that the out-of-band zeros of consecutive
    # polynomials approach each other geometrically (mu^-2k) and already sit
    # closer than 1e-7 around k = 15 for mu near 2
    rng = np.random.default_rng(5)
    for _ in range(3):
        mu = float(rng.uniform(-1.5, 1.5))
        zeros = [(float(z), k) for k in range(1, 16) for z in g_zeros(k, mu)]
        zeros.sort()
        for (za, ka), (zb, kb) in zip(zeros, zeros[1:]):
            if ka != kb:
                assert zb - za > 1e-7


# ---------------------------------------------------------------------------
# distribution function
# ---------------------------------------------------------------------------


def _ids_cdf(measure, x):
    # exact bounds on N(x): the atoms at or below x, then the tail anywhere
    lo = sum((a.mass for a in measure.atoms if a.position <= x), Fraction(0))
    return lo, lo + measure.tail_mass


def test_cdf_bounds():
    m = measure_truncation(FloatMu(0.5), 9)
    lo, hi = _ids_cdf(m, -10.0)
    assert lo == 0 and hi == m.tail_mass
    lo, hi = _ids_cdf(m, 10.0)
    assert lo == 1 - m.tail_mass and hi == 1


def test_cdf_symmetry_at_flat_parameter():
    m = measure_truncation(RationalMu(0, 1), 9)
    lo, hi = _ids_cdf(m, 0.0)
    assert lo >= Fraction(1, 2) - m.tail_mass


@pytest.mark.parametrize("mu", [RationalMu(1, 1), FloatMu(0.3), RationalMu(2, 1)])
def test_cdf_mids_match_ids_cdf_on_and_between_atoms(mu):
    m = measure_truncation(mu, 12)
    positions = sorted(a.position for a in m.atoms)
    xs = [-20.0, *positions, *(0.5 * (a + b) for a, b in zip(positions, positions[1:])), 20.0]
    assert measure_cdf_mids(m, xs) == [float(sum(_ids_cdf(m, x))) / 2.0 for x in xs]


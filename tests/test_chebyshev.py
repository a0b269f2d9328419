"""Chebyshev kernel: recurrence, trig oracle, ratio convergence, zeros."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llspec.chebyshev import u_eval, u_pair_scaled, u_zeros
from llspec.errors import DomainError


def test_low_degree_values():
    assert u_eval(3, 1) == 4
    assert u_eval(0, 0.37) == 1.0
    assert abs(u_eval(5, math.cos(math.pi / 6))) < 1e-12
    assert u_eval(1, 0.25) == 0.5


def test_integer_arguments_exact():
    for n in range(51):
        assert u_eval(n, 1) == n + 1
        assert u_eval(n, -1) == (-1) ** n * (n + 1)
        assert u_eval(n, 1.0) == float(n + 1)
        assert u_eval(n, Fraction(1)) == Fraction(n + 1)


@given(
    n=st.integers(min_value=1, max_value=2000),
    x=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_recurrence_identity(n, x):
    lhs = u_eval(n + 1, x)
    rhs = 2.0 * x * u_eval(n, x) - u_eval(n - 1, x)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 7, 40, 500, 10000])
@pytest.mark.parametrize("theta", [0.3, 1.1, 2.0, 2.9])
def test_trig_form_oracle(n, theta):
    value = u_eval(n, math.cos(theta))
    trig = math.sin((n + 1) * theta) / math.sin(theta)
    assert abs(value - trig) <= 1e-10 * (n + 1)


def test_no_overflow_in_contract_range():
    for x in (10.0, -10.0, 7.3):
        v = u_eval(200, x)
        assert math.isfinite(v)
    # magnitude grows geometrically: degree 200 at x = 10 is near 1e260
    assert abs(u_eval(200, 10.0)) > 1e250


def test_ratio_limit_matches_recurrence():
    n = 40
    ratio = u_eval(n, 2.0) / u_eval(n + 1, 2.0)
    assert abs(ratio - (2.0 - math.sqrt(3.0))) < 1e-10


def _u_exact(n: int, x: Fraction) -> Fraction:
    """U_n(x) by the forward recurrence in exact rationals: the oracle of the float one."""
    prev, cur = Fraction(0), Fraction(1)  # U_{-1}, U_0
    for _ in range(n):
        prev, cur = cur, 2 * x * cur - prev
    return cur


@pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(2), Fraction(-5, 4)])
def test_ratio_geometric_convergence_exact(x):
    # the convergence bound is far below double noise, so the ratio is formed
    # in exact rational arithmetic and compared against a 60-digit limit
    n = 50
    ratio = _u_exact(n - 1, x) / _u_exact(n, x)
    # the float recurrence agrees with the exact one to rounding
    assert u_eval(n, x) == pytest.approx(float(_u_exact(n, x)), rel=1e-12)
    with mp.workdps(60):
        xf = mp.mpf(x.numerator) / x.denominator
        limit = 1 / (xf + mp.sign(xf) * mp.sqrt(xf * xf - 1))
        err = abs(mp.mpf(ratio.numerator) / ratio.denominator - limit)
        bound = 10 * abs(limit) ** (2 * n)
        assert err < bound


def test_zeros_small_cases():
    assert abs(u_zeros(1)[0]) < 1e-15
    two = u_zeros(2)
    assert abs(two[0] + 0.5) < 1e-15 and abs(two[1] - 0.5) < 1e-15
    three = u_zeros(3)
    assert abs(three[0] + math.sqrt(2) / 2) < 1e-15
    assert abs(three[1]) < 1e-15
    assert abs(three[2] - math.sqrt(2) / 2) < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 10, 37])
def test_zeros_are_zeros_and_sorted(n):
    zs = u_zeros(n)
    assert zs == sorted(zs)
    assert len(zs) == n
    for z in zs:
        assert abs(u_eval(n, z)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 20, 49])
def test_zero_interlacing(n):
    inner = u_zeros(n)
    outer = u_zeros(n + 1)
    # exactly one zero of U_n between consecutive zeros of U_{n+1}
    for lo, hi in zip(outer, outer[1:]):
        inside = [z for z in inner if lo < z < hi]
        assert len(inside) == 1


@pytest.mark.parametrize("x", [10**400, Fraction(-(10**400), 3)], ids=["1e400", "-1e400/3"])
def test_an_argument_past_the_float_range_is_refused(x):
    with pytest.raises(DomainError, match="x must be finite"):
        u_eval(3, x)


@pytest.mark.parametrize("n", [0, 1, 2, 40, 1000])
def test_scaled_recurrence_stays_finite_up_to_its_argument_bound(n):
    # after a rescale |c| reaches 2^512, so 2x c is finite only for |x| < 2^511
    for x in (2.0**510, -(2.0**510)):
        p, c, e = u_pair_scaled(n, x)
        assert math.isfinite(p) and math.isfinite(c)
        assert not math.isnan(u_eval(n, x))
    for x in (math.nextafter(2.0**510, math.inf), -(2.0**511), 1e300, math.inf, math.nan):
        with pytest.raises(DomainError, match="exceeds 2\\^510"):
            u_pair_scaled(n, x)

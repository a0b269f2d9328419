"""Level polynomials: three realizations, zero finding, scaling pitfalls."""

import math

import numpy as np
import pytest

from llspec.chebyshev import u_eval
from llspec.errors import DomainError
from llspec.ghpolys import (
    angular_form,
    g_residual,
    g_signlog,
    g_value,
    g_value_recursive,
    g_zeros,
)
from llspec.jacobi import critical_index, jstar_truncation, tridiag_eigs


def test_low_index_values():
    for lam, mu in [(0.3, 0.7), (-2.0, 1.5), (5.0, -1.0)]:
        assert g_value(1, lam, mu) == pytest.approx((mu - lam) / 2.0, abs=1e-15)
    assert g_value(2, 0.0, 0.0) == pytest.approx(-1.0)  # G_2(0,0) = -4
    # one recursion step: G_3(1,1) = (-2) G_2(1,1) - 4 G_1(1,1) = 8
    assert 8.0 * g_value(3, 1.0, 1.0) == pytest.approx(8.0)


def test_recursive_realization_base_cases():
    assert g_value_recursive(1, 0.3, 0.7) == pytest.approx((0.7 - 0.3) / 2.0)
    assert g_value_recursive(2, 0.0, 0.0) == pytest.approx(-1.0)


def test_three_way_oracle_in_band():
    rng = np.random.default_rng(11)
    for _ in range(400):
        k = int(rng.integers(1, 51))
        mu = rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.02, math.pi - 0.02)
        lam = -mu - 4.0 * math.cos(t)
        closed = g_value(k, lam, mu)
        recur = g_value_recursive(k, lam, mu)
        ang = angular_form(k, t, mu) / math.sin(t)
        scale = max(1.0, abs(closed), abs(recur), abs(ang))
        assert abs(closed - recur) <= 1e-9 * scale
        assert abs(closed - ang) <= 1e-9 * scale


def test_closed_vs_recursive_off_band():
    rng = np.random.default_rng(12)
    for _ in range(300):
        k = int(rng.integers(1, 51))
        lam = rng.uniform(-6.0, 6.0)
        mu = rng.uniform(-3.0, 3.0)
        a = g_value(k, lam, mu)
        b = g_value_recursive(k, lam, mu)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _closed_form_with_off_coefficient(k, lam, mu, off_power):
    """2^(k-1) (mu-lam) U_{k-1}(s) - 2^off_power U_{k-2}(s), unnormalized."""
    s = (-lam - mu) / 4.0
    u_km1 = u_eval(k - 1, s)
    u_km2 = u_eval(k - 2, s) if k >= 2 else 0.0
    return 2.0 ** (k - 1) * (mu - lam) * u_km1 - 2.0 ** off_power * u_km2


def test_off_term_coefficient_negative_control():
    # at k = 2 the family member must equal lam^2 - mu^2 - 4 (it divides the
    # level-2 determinant); the coefficient 2^(k+1) on the off term yields
    # lam^2 - mu^2 - 8 instead, failing both the determinant and the
    # recursion, while 2^k reproduces the closed form exactly
    rng = np.random.default_rng(13)
    for _ in range(50):
        lam = rng.uniform(-6.0, 6.0)
        mu = rng.uniform(-3.0, 3.0)
        target = lam ** 2 - mu ** 2 - 4.0
        wrong = _closed_form_with_off_coefficient(2, lam, mu, off_power=3)
        right = _closed_form_with_off_coefficient(2, lam, mu, off_power=2)
        assert wrong - target == pytest.approx(-4.0, abs=1e-9)
        assert right == pytest.approx(target, abs=1e-9)
        assert right == pytest.approx(4.0 * g_value(2, lam, mu), abs=1e-9)


def test_wrong_coefficient_breaks_recursion_at_higher_index():
    lam, mu = 0.37, 0.91
    for k in (3, 4, 5):
        # the three-term recursion pins the unnormalized value exactly
        recursion = 2.0 ** k * (
            (-lam - mu) / 2.0 * g_value(k - 1, lam, mu)
            - (1.0 if k == 2 else g_value(k - 2, lam, mu))
        )
        wrong = _closed_form_with_off_coefficient(k, lam, mu, off_power=k + 1)
        right = _closed_form_with_off_coefficient(k, lam, mu, off_power=k)
        assert right == pytest.approx(recursion, rel=1e-12)
        assert abs(wrong - recursion) > 1e-3


def test_angular_form_values_and_domain():
    assert angular_form(1, math.pi / 2, 0.0) == pytest.approx(0.0, abs=1e-12)
    val = angular_form(2, 2.0 * math.pi / 3.0, 1.0)
    assert val == pytest.approx(-math.sqrt(3.0) / 2.0, abs=1e-12)
    for t in (0.0, math.pi, -0.5, 4.0):
        with pytest.raises(DomainError):
            angular_form(3, t, 0.5)


def test_g_zeros_small_cases():
    for mu in (0.0, 0.5, 2.0, -1.5):
        assert g_zeros(1, mu) == pytest.approx([mu])
    assert g_zeros(2, 0.0) == pytest.approx([-2.0, 2.0], abs=1e-12)
    # degree-2 zeros solve lam^2 = mu^2 + 4
    for mu in (1.0, 2.0):
        r = math.sqrt(mu * mu + 4.0)
        assert g_zeros(2, mu) == pytest.approx([-r, r], abs=1e-12)


def test_outlier_zero_approaches_accumulation_point():
    zs = g_zeros(40, 2.0)
    assert abs(zs[-1] - 3.0) < 1e-6


@pytest.mark.parametrize("mu", [-2.5, -1.0, 0.0, 0.4, 1.0, 1.7, 3.0])
@pytest.mark.parametrize("k", [3, 17, 80, 200])
def test_zero_residuals_and_simplicity(k, mu):
    zs = g_zeros(k, mu)
    assert len(zs) == k
    assert np.all(np.diff(zs) > 1e-9)
    bound = 1e-8 * (k + 1) * max(1.0, abs(mu))
    for z in zs:
        value, relative = g_residual(k, float(z), mu)
        if -4.0 - mu <= z <= 4.0 - mu:
            assert abs(value) <= bound
        else:
            # off the band the evaluation itself is exponentially
            # ill-conditioned; the meaningful residual is relative
            assert relative <= bound


def test_zero_translation_consistency():
    for k, mu in [(5, 0.3), (12, -1.2), (30, 2.0)]:
        eigs = tridiag_eigs(jstar_truncation(mu, k))
        assert np.allclose(np.sort(-2.0 * eigs), g_zeros(k, mu), atol=1e-9)


@pytest.mark.parametrize("mu", [0.0, 0.5, 0.9, -1.0])
def test_zero_membership_inside_band(mu):
    for k in range(1, 31):
        zs = g_zeros(k, mu)
        assert zs[0] >= -4.0 - mu - 1e-9
        assert zs[-1] <= 4.0 - mu + 1e-9


@pytest.mark.parametrize("mu", [1.2, 1.5, 2.0, -2.0])
def test_single_outlier_beyond_critical_index(mu):
    m = critical_index(mu)
    for k in range(m, m + 15):
        zs = g_zeros(k, mu)
        if mu > 0:
            outside = np.sum(zs >= 4.0 - mu - 1e-9)
        else:
            outside = np.sum(zs <= -4.0 - mu + 1e-9)
        assert outside == 1


@pytest.mark.parametrize("mu", [0.3, 1.5])
def test_interlacing_after_outlier_removal(mu):
    m = critical_index(mu) if abs(mu) > 1 else None
    for k in range(2, 25):
        inner = g_zeros(k, mu)
        outer = g_zeros(k + 1, mu)
        if m is not None and k >= m:
            inner = inner[:-1]
        if m is not None and k + 1 >= m:
            outer = outer[:-1]
        for lo, hi in zip(outer, outer[1:]):
            assert np.sum((inner > lo) & (inner < hi)) == 1


def test_recurrence_refuses_an_argument_over_the_scaled_range():
    # (-lam - mu) / 4 = -2^511 used to give (1.0, inf) for ln|G_2|
    with pytest.raises(DomainError, match="exceeds 2\\^510"):
        g_signlog(2, 0.0, 4 * 2.0**511)
    # G_2(0, mu) = -mu^2 - 4 at mu = 2^512
    sign, logabs = g_signlog(2, 0.0, 4 * 2.0**510)
    assert sign == -1.0 and logabs == pytest.approx(1024 * math.log(2.0))


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "1e400"])
def test_every_realization_refuses_a_non_finite_mu(mu):
    # the recursion returned nan and the angular form inf; 10**400 raised OverflowError
    for realization in (lambda: g_value(3, 0.0, mu), lambda: g_value_recursive(3, 0.0, mu),
                        lambda: angular_form(3, 1.0, mu), lambda: g_zeros(3, mu)):
        with pytest.raises(DomainError, match="parameter must be finite"):
            realization()


def test_recursion_refuses_arguments_where_a_step_would_overflow():
    # G_1 / 2 = (mu - lam) / 2 overflowed, and 0 * inf made the result nan
    with pytest.raises(DomainError, match="not below 2\\^510"):
        g_value_recursive(3, 1e308, -1e308)
    assert g_value_recursive(3, 2.0**509, -(2.0**509)) == g_value(3, 2.0**509, -(2.0**509))


@pytest.mark.parametrize("k", [3, 8])
def test_relative_residual_is_finite_where_the_value_overflows(k):
    # G_k / 2^k overflows a double, its relative residual does not
    # at s = 2^500 the two terms are (2s)^k and -2 (2s)^k
    value, relative = g_residual(k, 0.0, -(2.0**502))
    assert math.isinf(value) and relative == 1.0 / 3.0
    # where nothing overflows it is |G_k / 2^k| / max(1, |U_k(s)| + |mu U_(k-1)(s)|)
    for lam, mu in ((0.5, 1.5), (0.5, -9.5)):
        s = (-lam - mu) / 4.0
        scale = abs(u_eval(k, s)) + abs(mu * u_eval(k - 1, s))
        value = g_value(k, lam, mu)
        assert g_residual(k, lam, mu) == (value, abs(value) / max(1.0, scale))

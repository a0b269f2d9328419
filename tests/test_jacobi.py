"""J*(mu) truncations, tridiagonal eigenvalues and Sturm counts, measure density."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from llspec.chebyshev import u_zeros
from llspec.errors import DomainError
from llspec.ghpolys import g_zeros
from llspec.measure import FloatMu, RationalMu, classify_mu
from llspec.jacobi import (
    TridiagonalMatrix,
    ac_density,
    band_edge_index,
    critical_index,
    isolated_eigenvalue,
    isolated_mass,
    jstar_band,
    jstar_truncation,
    leading_counts_below,
    tridiag_eigs,
    tridiag_eigs_batch,
)


def test_truncation_layout():
    t = jstar_truncation(0.0, 3)
    assert t.diag.tolist() == [0.0, 0.0, 0.0] and t.offdiag.tolist() == [1.0, 1.0]
    t2 = jstar_truncation(2.0, 2)
    assert t2.diag.tolist() == [-1.0, 1.0] and t2.offdiag.tolist() == [1.0]
    with pytest.raises(DomainError):
        jstar_truncation(1.0, 0)


def test_free_truncation_eigenvalues():
    assert np.allclose(tridiag_eigs(jstar_truncation(0.0, 2)), [-1.0, 1.0])
    assert np.allclose(
        tridiag_eigs(jstar_truncation(0.0, 3)), [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12
    )
    # the free truncation diagonalizes through second-kind Chebyshev zeros
    for n in (5, 20, 50):
        eigs = tridiag_eigs(jstar_truncation(0.0, n))
        assert np.allclose(eigs, [2.0 * z for z in u_zeros(n)], atol=1e-11)


def test_single_entry_matrix():
    assert tridiag_eigs(TridiagonalMatrix(diag=[5.0], offdiag=[])).tolist() == [5.0]


@given(
    diag=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    seed=st.integers(0, 2 ** 31),
)
@settings(max_examples=40, deadline=None)
def test_trace_identity(diag, seed):
    rng = np.random.default_rng(seed)
    off = rng.uniform(-3.0, 3.0, size=len(diag) - 1)
    t = TridiagonalMatrix(diag=np.array(diag), offdiag=off)
    eigs = tridiag_eigs(t)
    assert abs(eigs.sum() - t.diag.sum()) <= len(diag) * 1e-11


def test_tridiag_eigs_against_dense_oracle():
    # references that share no code with the LAPACK kernel: the pivot
    # recurrence's Sturm count, and mpmath's dense eigensolver
    rng = np.random.default_rng(3)
    for n in (2, 5, 17, 40):
        t = TridiagonalMatrix(diag=rng.uniform(-4, 4, n), offdiag=rng.uniform(-2, 2, n - 1))
        got = tridiag_eigs(t)
        d = 1e-12 * (1.0 + max(np.abs(t.diag).max(), np.abs(t.offdiag).max()))
        for j, v in enumerate(got):
            assert leading_counts_below(t, v - d)[-1] <= j < leading_counts_below(t, v + d)[-1]
    for mu in (0.3, 2.0, -1.5):
        for n in (2, 5, 17, 40):
            t = jstar_truncation(mu, n)
            with mpmath.workdps(30):
                dense = np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)
                ref = mpmath.eigsy(mpmath.matrix(dense.tolist()), eigvals_only=True)
                ref = sorted(float(v) for v in ref)
            assert np.allclose(tridiag_eigs(t), ref, atol=1e-10)


_ENTRY = st.floats(-1e3, 1e3, allow_nan=False) | st.floats(-1e-3, 1e-3, allow_nan=False)


@given(size=st.integers(1, 6), data=st.data())
@settings(max_examples=100, deadline=None)
def test_batch_rows_are_solved_independently(size, data):
    row = st.lists(_ENTRY, min_size=2 * size - 1, max_size=2 * size - 1)
    rows = np.array(data.draw(st.lists(row, min_size=1, max_size=6)), dtype=float)
    diag, off = rows[:, :size], rows[:, size:]
    batch = tridiag_eigs_batch(diag, off)
    for i in range(len(rows)):
        alone = tridiag_eigs(TridiagonalMatrix(diag=diag[i], offdiag=off[i]))
        assert batch[i].tobytes() == alone.tobytes()


def test_non_finite_entries_rejected():
    with pytest.raises(DomainError):
        g_zeros(3, float("nan"))
    with pytest.raises(DomainError):
        g_zeros(3, float("inf"))
    with pytest.raises(DomainError):
        tridiag_eigs(TridiagonalMatrix(diag=[0.0, 1.0, 2.0], offdiag=[1.0, math.inf]))


@pytest.mark.parametrize("diag, off", [([[1, 2]], [[1, 2, 3]]), ([[1, 2], [3, 4]], [[1.0]])],
                         ids=["long-off-diagonal", "one-off-diagonal-row-for-two"])
def test_batch_refuses_mismatched_shapes(diag, off):
    # numpy would raise a bare ValueError, or spread one row over the batch
    with pytest.raises(DomainError, match="do not fit diag rows"):
        tridiag_eigs_batch(diag, off)


def test_empty_tridiagonal_is_refused():
    with pytest.raises(DomainError, match="diag must be non-empty"):
        TridiagonalMatrix([], [])


def test_eig_counts():
    t = jstar_truncation(0.0, 3)  # eigenvalues -sqrt2, 0, sqrt2
    assert leading_counts_below(t, -2.0)[-1] == 0
    assert leading_counts_below(t, -1.0)[-1] == 1
    assert leading_counts_below(t, 0.5)[-1] == 2
    assert leading_counts_below(t, 3.0)[-1] == 3
    counts = leading_counts_below(t, 0.5)
    # leading 1x1 has eigenvalue 0, leading 2x2 has -1 and 1
    assert counts.tolist() == [1, 1, 2]


def test_sturm_count_is_silent_after_a_zero_pivot():
    t = TridiagonalMatrix(diag=[0.0, 0.0], offdiag=[2.0])  # eigenvalues -2, 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert leading_counts_below(t, 0.0).tolist() == [1, 1]


def test_isolated_point():
    assert isolated_eigenvalue(2.0) == pytest.approx(-1.5)
    assert isolated_eigenvalue(-2.0) == pytest.approx(1.5)
    assert isolated_eigenvalue(0.5) is None
    assert isolated_eigenvalue(1.0) is None


def test_isolated_mass_matches_defining_expression():
    def displayed(mu):
        # (mu - 1/mu + sqrt((mu + 1/mu)^2 - 4)) / (2 mu) with the root
        # analytic off [-2, 2] (same sign as its argument at infinity)
        z = mu + 1.0 / mu
        root = math.copysign(math.sqrt(z * z - 4.0), z)
        return (mu - 1.0 / mu + root) / (2.0 * mu)

    for mu in (1.5, 2.0, 3.0, -2.0, -1.01, 7.0):
        assert isolated_mass(mu) == pytest.approx(displayed(mu), rel=1e-12)
    assert isolated_mass(2.0) == pytest.approx(0.75)
    assert isolated_mass(3.0) == pytest.approx(8.0 / 9.0)
    assert isolated_mass(1.0) == 0.0
    assert isolated_mass(0.5) == 0.0


def test_density_point_values():
    assert ac_density(0.0, 0.0) == pytest.approx(1.0 / math.pi)
    assert ac_density(5.0, 0.0) == 0.0
    assert ac_density(-5.0, 2.0) == 0.0
    lo, hi = jstar_band(0.7)
    assert ac_density(lo, 0.7) == 0.0 and ac_density(hi, 0.7) == 0.0
    with pytest.raises(DomainError):
        ac_density(-1.5, 1.0)  # pole exactly at the band endpoint


def _band_integral(mu, tol):
    # integrate through the angle substitution x = mu/2 + 2 cos(theta); the
    # integrand is smooth there while the density has sqrt endpoints
    lo, hi = jstar_band(mu)

    def integrand(theta):
        x = mu / 2.0 + 2.0 * math.cos(theta)
        return ac_density(x, mu) * 2.0 * math.sin(theta)

    val, err = quad(integrand, 0.0, math.pi, epsabs=tol, epsrel=tol, limit=200)
    return val


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.5, 2.0, 3.0])
def test_density_plus_atom_is_probability(mu):
    total = _band_integral(mu, 1e-10) + isolated_mass(mu)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_density_band_integral_examples():
    assert _band_integral(0.0, 1e-10) == pytest.approx(1.0, abs=1e-8)
    assert _band_integral(2.0, 1e-10) == pytest.approx(0.25, abs=1e-6)


@pytest.mark.parametrize("mu", [2.0, 3.0, -1.8])
def test_pole_location_by_bisection(mu):
    # the isolated point is the one eigenvalue of a long truncation outside
    # the band: its lowest for mu > 0, its highest for mu < 0
    x_star = isolated_eigenvalue(mu)
    eigs = tridiag_eigs(jstar_truncation(mu, 80))
    extreme = eigs[0] if mu > 0 else eigs[-1]
    band_lo, band_hi = jstar_band(mu)
    assert extreme < band_lo or extreme > band_hi
    assert abs(extreme - x_star) < 1e-8


def test_critical_index_table():
    assert critical_index(Fraction(7, 6)) == 6
    assert critical_index(1.5) == 2
    assert critical_index(2.0) == 1
    # the double nearest 1.2 lies below 6/5, so its index is one more than 6/5's
    assert critical_index(1.2) == 6
    assert critical_index(-1.2) == 6
    assert critical_index(Fraction(6, 5)) == 5
    assert critical_index(7.0) == 1
    for k in range(1, 13):
        assert critical_index(Fraction(k + 1, k)) == k
    with pytest.raises(DomainError):
        critical_index(1.0)
    with pytest.raises(DomainError):
        critical_index(Fraction(1, 2))


def _index_bounds_hold(a: Fraction, m: int) -> bool:
    """(m+1)/m <= a < m/(m-1), the right bound read as +infinity at m = 1."""
    return Fraction(m + 1, m) <= a and (m == 1 or a < Fraction(m, m - 1))


_ABOVE_ONE = st.floats(min_value=1.0, max_value=1e150, exclude_min=True)


@settings(max_examples=300, deadline=None)
@given(x=st.one_of(_ABOVE_ONE, _ABOVE_ONE.map(lambda v: -v)))
@example(x=1.0 + 2.0**-52)
@example(x=1.2)
@example(x=1.001)
@example(x=1.3333333333333333)
@example(x=1.25)
@example(x=-1.5)
def test_critical_index_is_exact_for_the_rational_a_double_stores(x):
    m = critical_index(x)
    assert _index_bounds_hold(abs(Fraction(x)), m)
    assert band_edge_index(x) == (m if abs(Fraction(x)) * m == m + 1 else None)
    if x > 0:
        assert (classify_mu(FloatMu(x)).b3_witness == m) == (Fraction(x) * m == m + 1)


@settings(max_examples=300, deadline=None)
@given(p=st.integers(-50, 50), q=st.integers(1, 50))
def test_critical_index_is_exact_for_small_rationals(p, q):
    a = Fraction(p, q)
    assume(abs(a) > 1)
    m = critical_index(a)
    assert _index_bounds_hold(abs(a), m)
    edge = m if abs(a) * m == m + 1 else None
    assert band_edge_index(a) == edge
    if a > 0:
        assert classify_mu(RationalMu(p, q)).b3_witness == edge


_NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("mu", _NON_FINITE)
@pytest.mark.parametrize("closed_form", [
    isolated_eigenvalue, isolated_mass, critical_index, band_edge_index,
    lambda mu: ac_density(0.0, mu), jstar_band,
], ids=["isolated_eigenvalue", "isolated_mass", "critical_index", "band_edge_index",
        "ac_density", "jstar_band"])
def test_closed_forms_refuse_a_non_finite_mu(closed_form, mu):
    with pytest.raises(DomainError, match="parameter must be finite"):
        closed_form(mu)


@pytest.mark.parametrize("mu", [10**400, -10**400, Fraction(10**400, 3)],
                         ids=["int", "negative-int", "fraction"])
def test_a_parameter_past_the_float_range_is_refused(mu):
    # float(mu) raises OverflowError for these; the guard reports it as a domain error
    for closed_form in (isolated_eigenvalue, jstar_band, lambda mu: jstar_truncation(mu, 3)):
        with pytest.raises(DomainError, match="parameter must be finite"):
            closed_form(mu)


@pytest.mark.parametrize("x", _NON_FINITE)
def test_density_refuses_a_non_finite_point(x):
    with pytest.raises(DomainError, match="x must be finite"):
        ac_density(x, 0.5)


@pytest.mark.parametrize("x", _NON_FINITE)
def test_sturm_count_refuses_a_non_finite_point(x):
    # a NaN pivot compares false and would count no eigenvalue at all
    with pytest.raises(DomainError, match="x must be finite"):
        leading_counts_below(jstar_truncation(0.5, 3), x)


@pytest.mark.parametrize("mu", [1.5, 2.0, 3.0])
def test_lowest_eigenvalue_converges_monotonically(mu):
    target = -mu / 2.0 - 1.0 / mu
    prev = None
    for n in range(2, 81):
        low = tridiag_eigs(jstar_truncation(mu, n))[0]
        assert low > target - 1e-12
        if prev is not None:
            assert low <= prev + 1e-12
        prev = low
    assert abs(prev - target) < 1e-8


@pytest.mark.parametrize("mu", [0.5, 1.0])
def test_no_eigenvalue_escapes_band_below_threshold(mu):
    # one pivot pass per bound covers every truncation size at once
    t = jstar_truncation(mu, 200)
    lo, hi = jstar_band(mu)
    assert leading_counts_below(t, lo - 1e-8).max() == 0
    above = leading_counts_below(t, hi + 1e-8)
    assert (above == np.arange(1, 201)).all()


def test_translation_to_level_polynomial_zeros():
    for k, mu in [(4, 0.3), (9, 2.0), (25, -0.8)]:
        eigs = tridiag_eigs(jstar_truncation(mu, k))
        assert np.allclose(g_zeros(k, mu), np.sort(-2.0 * eigs), atol=1e-9)

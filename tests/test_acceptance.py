"""Acceptance suite: one check per release criterion, at pinned tolerances.

Each criterion prints a single PASS/FAIL line (run with -s to watch them);
stated runtime budgets are asserted alongside the numeric tolerances.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from scipy.integrate import quad

from llspec.anderson import (
    build_jacobi_sample,
    compare_ids,
    default_checkpoints,
    empirical_ids,
    sample_window,
)
from llspec.chebyshev import u_eval
from llspec.ghpolys import angular_form, g_value, g_value_recursive, g_zeros
from llspec.jacobi import (
    ac_density,
    critical_index,
    isolated_mass,
    jstar_band,
    jstar_truncation,
    leading_counts_below,
    tridiag_eigs,
)
from llspec.lamplighter import (
    build_level,
    dense_eigs,
    pencil_matrix,
    phi_det_signlog,
    phi_factorized_signlog,
)
from llspec.measure import FloatMu, RationalMu, measure_truncation
from llspec.novikov import decay_rate, gap_sequence, ns_invariant


@contextmanager
def criterion(num, desc):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {num:2d}] PASS  {desc}  ({elapsed:.1f}s)")


def test_criterion_01_characteristic_polynomial_identity():
    with criterion(1, "determinant vs factored form, plus symbolic levels 0-3"):
        start = time.monotonic()
        rng = np.random.default_rng(101)
        for n in range(1, 7):
            for _ in range(20):
                lam = rng.uniform(-6.0, 6.0)
                mu = rng.uniform(-3.0, 3.0)
                s_det, l_det = phi_det_signlog(n, lam, mu)
                s_fac, l_fac = phi_factorized_signlog(n, lam, mu)
                assert s_det == s_fac
                assert abs(l_det - l_fac) <= 1e-8 * max(1.0, abs(l_det), abs(l_fac))

        lam_s, mu_s = sp.symbols("lam mu")
        displayed = {
            0: 4 - lam_s - mu_s,
            1: (mu_s - lam_s) * (4 - lam_s - mu_s),
            2: (mu_s - lam_s) * (4 - lam_s - mu_s) * (lam_s ** 2 - mu_s ** 2 - 4),
            3: (lam_s - mu_s) ** 2
            * (lam_s + mu_s - 4)
            * (lam_s ** 2 - mu_s ** 2 - 4)
            * (lam_s ** 3 + lam_s ** 2 * mu_s - lam_s * mu_s ** 2 - mu_s ** 3 - 8 * lam_s),
        }
        for n, poly in displayed.items():
            rep = build_level(n)
            m = (
                sp.Matrix(rep.a.tolist())
                + sp.Matrix(rep.a.tolist()).T
                + sp.Matrix(rep.b.tolist())
                + sp.Matrix(rep.b.tolist()).T
                - mu_s * sp.Matrix(rep.c.tolist())
                - lam_s * sp.eye(1 << n)
            )
            assert sp.expand(m.det() - poly) == 0
        assert time.monotonic() - start < 10.0


def test_criterion_02_corrected_closed_form():
    with criterion(2, "three realizations agree; wrong off-term constant fails"):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            k = int(rng.integers(1, 51))
            mu = rng.uniform(-3.0, 3.0)
            t = rng.uniform(0.02, math.pi - 0.02)
            lam = -mu - 4.0 * math.cos(t)
            a = g_value(k, lam, mu)
            b = g_value_recursive(k, lam, mu)
            c = angular_form(k, t, mu) / math.sin(t)
            scale = max(1.0, abs(a), abs(b), abs(c))
            assert abs(a - b) <= 1e-9 * scale
            assert abs(a - c) <= 1e-9 * scale
            assert abs(b - c) <= 1e-9 * scale

        # negative control: the off-term coefficient 2^(k+1) contradicts the
        # degree-2 determinant factor lam^2 - mu^2 - 4 at k = 2
        for _ in range(50):
            lam = rng.uniform(-6.0, 6.0)
            mu = rng.uniform(-3.0, 3.0)
            s = (-lam - mu) / 4.0
            wrong = 2.0 * (mu - lam) * u_eval(1, s) - 8.0 * u_eval(0, s)
            right = 2.0 * (mu - lam) * u_eval(1, s) - 4.0 * u_eval(0, s)
            target = lam ** 2 - mu ** 2 - 4.0
            assert abs(wrong - target) == pytest.approx(4.0, abs=1e-9)
            assert right == pytest.approx(target, abs=1e-9)


def test_criterion_03_eigenvalue_multiset_oracle():
    with criterion(3, "dense eigenvalue clusters match the factored multiset"):
        start = time.monotonic()
        for mu in (0.0, 0.3, 1.0, 1.5, 2.0):
            for n in range(1, 7):
                predicted = [(4.0 - mu, 1)]
                for k in range(1, n + 1):
                    weight = 1 if k == n else 1 << (n - 1 - k)
                    predicted.extend((float(z), weight) for z in g_zeros(k, mu))
                predicted.sort()
                clusters = []
                for pos, wt in predicted:
                    if clusters and pos - clusters[-1][0] <= 1e-7:
                        clusters[-1] = (clusters[-1][0], clusters[-1][1] + wt)
                    else:
                        clusters.append((pos, wt))
                eigs = dense_eigs(pencil_matrix(build_level(n), mu))
                assert len(eigs) == 1 << n
                assert sum(w for _, w in clusters) == 1 << n
                for pos, wt in clusters:
                    assert int(np.sum(np.abs(eigs - pos) <= 1e-7)) == wt
        eigs6_2 = dense_eigs(pencil_matrix(build_level(6), 2.0))
        assert int(np.sum(np.abs(eigs6_2 - 2.0) <= 1e-7)) == 17
        eigs6_1 = dense_eigs(pencil_matrix(build_level(6), 1.0))
        assert int(np.sum(np.abs(eigs6_1 - 1.0) <= 1e-7)) == 18
        assert time.monotonic() - start < 60.0


def test_criterion_04_truncation_spectrum_convergence():
    with criterion(4, "lowest truncation eigenvalue converges; band confines"):
        for mu in (1.5, 2.0, 3.0):
            target = -mu / 2.0 - 1.0 / mu
            prev = math.inf
            for n in range(2, 81):
                low = tridiag_eigs(jstar_truncation(mu, n))[0]
                assert low <= prev + 1e-12
                prev = low
            assert abs(prev - target) < 1e-8
        for mu in (0.5, 1.0):
            t = jstar_truncation(mu, 200)
            lo, hi = jstar_band(mu)
            assert leading_counts_below(t, lo - 1e-8).max() == 0
            assert (leading_counts_below(t, hi + 1e-8) == np.arange(1, 201)).all()


def test_criterion_05_critical_index_flip():
    with criterion(5, "out-of-band zero appears exactly at the critical index"):
        # exact edges, so a zero on the edge counts as out of band within 1e-9
        for mu_in in (Fraction(7, 6), Fraction(6, 5), 1.5, 2.0):
            mu = float(mu_in)
            m = critical_index(mu_in)
            for k in range(1, m + 6):
                top = g_zeros(k, mu)[-1]
                has_outlier = top >= 4.0 - mu - 1e-9
                assert has_outlier == (k >= m)
        for k in range(1, 9):
            mu = (k + 1) / k
            assert abs(g_value(k, 4.0 - mu, mu)) <= 1e-10


def test_criterion_06_measure_normalization_and_limits():
    with criterion(6, "exact normalization; atom masses approach closed forms"):
        cases = [
            (FloatMu(0.3), 20), (FloatMu(-1.7), 13), (RationalMu(0, 1), 15),
            (RationalMu(1, 1), 20), (RationalMu(3, 2), 18), (RationalMu(2, 1), 16),
            (RationalMu(7, 6), 12),
        ]
        for mu, depth in cases:
            for k in (1, depth // 2, depth):
                trunc = measure_truncation(mu, max(1, k))
                assert trunc.total_mass() == 1
        m0 = measure_truncation(RationalMu(0, 1), 15)
        assert abs(float(m0.atom_near(0.0).mass) - 1.0 / 3.0) < 1e-4
        m1 = measure_truncation(RationalMu(1, 1), 25)
        assert abs(float(m1.atom_near(1.0).mass) - 2.0 / 7.0) < 1e-3


def test_criterion_07_orthogonality_measure_normalization():
    with criterion(7, "band quadrature plus isolated atom integrates to one"):
        for mu in (0.0, 0.5, 1.5, 2.0, 3.0):
            def integrand(theta, mu=mu):
                x = mu / 2.0 + 2.0 * math.cos(theta)
                return ac_density(x, mu) * 2.0 * math.sin(theta)

            band, _ = quad(integrand, 0.0, math.pi, epsabs=1e-10, epsrel=1e-10, limit=200)
            atom = isolated_mass(mu)
            if abs(mu) > 1.0:
                assert atom == pytest.approx(1.0 - 1.0 / mu ** 2, rel=1e-12)
            assert band + atom == pytest.approx(1.0, abs=1e-6)


def test_criterion_08_density_of_states():
    with criterion(8, "empirical density of states matches the atomic measure"):
        start = time.monotonic()
        ids = empirical_ids(
            [build_jacobi_sample(sample_window(20260810, 0, 100000), 0.3)]
        )
        trunc = measure_truncation(FloatMu(0.3), 12)
        report = compare_ids(ids, trunc, default_checkpoints(trunc))
        assert report.sup_deviation < 0.02

        ids2 = empirical_ids(
            [build_jacobi_sample(sample_window(20260810, 0, 100000), 2.0)]
        )
        gap = ids2.eigenvalues[
            (ids2.eigenvalues > 2.0 + 1e-6) & (ids2.eigenvalues < 3.0 - 1e-6)
        ]
        outliers = np.array([g_zeros(m, 2.0)[-1] for m in range(2, 30)])
        for eig in gap:
            assert np.min(np.abs(outliers - eig)) < 1e-6
        assert ids2.eigenvalues[0] >= -6.0 - 1e-6
        assert ids2.eigenvalues[-1] <= 3.0 + 1e-6
        assert time.monotonic() - start < 120.0


def test_criterion_09_gap_decay_exponents():
    with criterion(9, "gap decay rate mu^-2 and exponent log2/(2 log mu)"):
        for mu in (1.5, 2.0, 3.0):
            seq = gap_sequence(mu, 60)
            rate = decay_rate(seq)
            assert abs(rate * mu * mu - 1.0) <= 0.02
            inv = ns_invariant(mu, 60)
            assert abs(inv.empirical / inv.closed_form - 1.0) <= 0.05
        assert ns_invariant(2.0, 20).closed_form == 0.5


def test_criterion_10_strip_meeting_points():
    with criterion(10, "outlier zero meets the strip at (3 - 1/n, 1 + 1/n)"):
        for n in range(2, 9):
            mu = 1.0 + 1.0 / n
            top = g_zeros(n, mu)[-1]
            assert abs(top - (3.0 - 1.0 / n)) < 1e-8

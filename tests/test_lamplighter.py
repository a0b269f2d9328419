"""Level matrices, determinants in both routes, dense eigen oracle."""

import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from llspec import lamplighter
from llspec.errors import CapacityError, ConvergenceError, DomainError
from llspec.ghpolys import g_zeros
from llspec.lamplighter import (
    build_level,
    dense_eigs,
    pencil_matrix,
    phi_det_signlog,
    phi_factorized_signlog,
)


def test_base_case_and_level_one():
    rep0 = build_level(0)
    assert rep0.a.tolist() == [[1]] and rep0.b.tolist() == [[1]] and rep0.c.tolist() == [[1]]
    rep1 = build_level(1)
    assert rep1.a.tolist() == [[0, 1], [1, 0]]
    assert rep1.b.tolist() == [[1, 0], [0, 1]]
    assert rep1.c.tolist() == [[0, 1], [1, 0]]


@pytest.mark.parametrize("n", range(7))
def test_generator_matrices_are_permutations(n):
    rep = build_level(n)
    for m in (rep.a, rep.b, rep.c):
        assert (m.sum(axis=0) == 1).all() and (m.sum(axis=1) == 1).all()
        assert set(np.unique(m)) <= {0, 1}
    ident = np.eye(1 << n, dtype=np.uint8)
    assert (rep.c @ rep.c == ident).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_block_recursion_holds(n):
    prev = build_level(n - 1)
    cur = build_level(n)
    h = 1 << (n - 1)
    assert (cur.a[:h, h:] == prev.a).all() and (cur.a[h:, :h] == prev.b).all()
    assert not cur.a[:h, :h].any() and not cur.a[h:, h:].any()
    assert (cur.b[:h, :h] == prev.a).all() and (cur.b[h:, h:] == prev.b).all()
    assert (cur.c[:h, h:] == np.eye(h)).all() and (cur.c[h:, :h] == np.eye(h)).all()


def test_pencil_small_cases():
    m1 = pencil_matrix(build_level(1), 0.7)
    assert np.allclose(m1, [[2.0, 1.3], [1.3, 2.0]])
    m0 = pencil_matrix(build_level(0), 0.0)
    assert m0.dtype == np.float64 and m0.tolist() == [[4.0]]


def test_pencil_row_sums():
    m = pencil_matrix(build_level(5), 0.7)
    assert np.allclose(m.sum(axis=1), 4.0 - 0.7)
    assert np.allclose(m, m.T)
    # the constant vector is an eigenvector with eigenvalue 4 - mu
    ones = np.ones(32)
    assert np.allclose(m @ ones, (4.0 - 0.7) * ones)


def test_phi_det_values():
    sign, logabs = phi_det_signlog(0, 0.0, 0.0)
    assert sign == 1.0 and math.exp(logabs) == pytest.approx(4.0)
    sign, logabs = phi_det_signlog(1, 1.0, 2.0)
    assert sign == 1.0 and math.exp(logabs) == pytest.approx(1.0)
    sign, logabs = phi_det_signlog(2, 0.0, 0.0)
    assert sign == 0.0 or math.exp(logabs) <= 1e-12


def test_phi_factorized_values():
    assert phi_factorized_signlog(2, 0.0, 0.0) == (0.0, -math.inf)
    assert phi_factorized_signlog(3, 1.0, 1.0) == (0.0, -math.inf)
    s_det, l_det = phi_det_signlog(5, 0.3, 0.7)
    s_fac, l_fac = phi_factorized_signlog(5, 0.3, 0.7)
    assert s_fac == s_det and math.exp(l_fac) == pytest.approx(math.exp(l_det), rel=1e-8)
    # level 0 is the lead factor 4 - lam - mu alone; a negative level has no product
    sign, logabs = phi_factorized_signlog(0, 1.0, 0.3)
    assert sign == 1.0 and math.exp(logabs) == pytest.approx(2.7, rel=1e-15)
    with pytest.raises(DomainError, match="level must be >= 0"):
        phi_factorized_signlog(-1, 1.0, 0.3)


def test_phi_factorized_stops_where_its_logarithm_leaves_the_doubles():
    # G_1's exponent 2^(n-2) is a double up to n = 1025, and ln|Phi_1025| still is here
    sign, logabs = phi_factorized_signlog(1025, 0.5, 0.3)
    assert sign == 1.0 and logabs == pytest.approx(1.53e307, rel=1e-3)
    with pytest.raises(DomainError, match="^level must be <= 1025, got 1026$"):
        phi_factorized_signlog(1026, 0.5, 0.3)
    # within the limit, 2^1023 ln|G_1| and 2^1022 ln|G_2| overflow with opposite
    # signs near a zero of G_2, and their sum was NaN
    with pytest.raises(DomainError, match=r"ln\|Phi_1025\| overflows"):
        phi_factorized_signlog(1025, -math.sqrt(29.0), 5.0)


def test_level_zero_product_past_the_float_range_is_refused(recwarn):
    # at level 0 the product is 4 - lam - mu, which no level polynomial checks
    with pytest.raises(DomainError, match="diagonal of M_n"):
        phi_det_signlog(0, -1e308, -1e308)
    with pytest.raises(DomainError, match="lead factor 4 - lam - mu overflows"):
        phi_factorized_signlog(0, -1e308, -1e308)
    assert len(recwarn) == 0


@pytest.mark.parametrize("n, shown", [(10**400, str(10**400)),
                                      (10**5000, "an integer of 16610 bits")],
                         ids=["10^400", "10^5000"])
def test_capacity_refusal_prints_any_level(n, shown):
    # past 4300 digits Python cannot print an integer, and the message said so in a ValueError
    with pytest.raises(CapacityError, match=f"^level {shown} needs 20 \\* 4\\^{shown} bytes"):
        build_level(n)


def test_phi_routes_agree_on_random_draws():
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for _ in range(20):
            lam = rng.uniform(-6.0, 6.0)
            mu = rng.uniform(-3.0, 3.0)
            s_det, l_det = phi_det_signlog(n, lam, mu)
            s_fac, l_fac = phi_factorized_signlog(n, lam, mu)
            assert s_det == s_fac
            assert abs(l_det - l_fac) <= 1e-8 * max(1.0, abs(l_det), abs(l_fac))


def test_phi_divides_next_level():
    for mu in (0.0, 0.3, 1.5):
        for n in range(1, 5):
            small = dense_eigs(pencil_matrix(build_level(n), mu))
            large = dense_eigs(pencil_matrix(build_level(n + 1), mu))
            for lam in small:
                assert np.min(np.abs(large - lam)) < 1e-7


def _symbolic_phi(n, lam, mu):
    rep = build_level(n)
    a = sp.Matrix(rep.a.tolist())
    b = sp.Matrix(rep.b.tolist())
    c = sp.Matrix(rep.c.tolist())
    m = a + a.T + b + b.T - mu * c - lam * sp.eye(1 << n)
    return sp.expand(m.det())


def test_symbolic_determinants_match_displayed_factorizations():
    lam, mu = sp.symbols("lam mu")
    expected = {
        0: 4 - lam - mu,
        1: (mu - lam) * (4 - lam - mu),
        2: (mu - lam) * (4 - lam - mu) * (lam ** 2 - mu ** 2 - 4),
        3: (lam - mu) ** 2
        * (lam + mu - 4)
        * (lam ** 2 - mu ** 2 - 4)
        * (lam ** 3 + lam ** 2 * mu - lam * mu ** 2 - mu ** 3 - 8 * lam),
    }
    for n, poly in expected.items():
        assert sp.expand(_symbolic_phi(n, lam, mu) - sp.expand(poly)) == 0


def test_dense_eigs_small_closed_forms():
    assert dense_eigs(pencil_matrix(build_level(0), 0.0)).tolist() == [4.0]
    for mu in (2.0, 0.5, -1.0):
        eigs = dense_eigs(pencil_matrix(build_level(1), mu))
        assert np.allclose(eigs, sorted([mu, 4.0 - mu]))
    eigs2 = dense_eigs(pencil_matrix(build_level(2), 0.0))
    assert np.allclose(eigs2, [-2.0, 0.0, 2.0, 4.0], atol=1e-10)


def test_dense_eigs_rejects_asymmetric():
    with pytest.raises(DomainError):
        dense_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("lower", [1.000001, 1.0 + 1e-9])
def test_dense_eigs_symmetry_guard_is_exact(lower):
    # the row-form rotation equals the column-then-row one only on exactly
    # symmetric input, so a relative slack of any size is refused
    with pytest.raises(DomainError):
        dense_eigs(np.array([[1.0, 1.0], [lower, 1.0]]))


@pytest.mark.parametrize(
    "entries",
    [np.array([[1.0, np.inf], [np.inf, 1.0]]), np.array([[np.inf]]),
     pencil_matrix(build_level(2), 1e200)],
    ids=["inf-off-diagonal", "inf-1x1", "overflowing-norm"],
)
def test_dense_eigs_rejects_non_finite_norm(entries):
    # an infinite norm made the stopping test pass at once, returning the diagonal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            dense_eigs(entries)


@pytest.mark.parametrize("entries", [np.array(1.0), np.ones(3), np.ones((2, 3))],
                         ids=["0-d", "1-d", "2x3"])
def test_dense_eigs_rejects_non_square_shapes(entries):
    with pytest.raises(DomainError):
        dense_eigs(entries)


@pytest.mark.parametrize("n", range(10))
def test_pencil_is_exactly_symmetric(n):
    for mu in (0.3, 2.0, 7 / 6, -1.5, 0.0):
        m = pencil_matrix(build_level(n), mu)
        assert np.array_equal(m, m.T)


@pytest.mark.parametrize("n", range(10))
def test_pencil_matches_the_generator_sum(n):
    # the in-place assembly must give the bits of the plain float expression
    rep = build_level(n)
    a, b, c = (g.astype(float) for g in (rep.a, rep.b, rep.c))
    for mu in (0.3, 2.0, 7 / 6, -1.5, 0.0, -0.0):
        reference = a + a.T + b + b.T - mu * c
        assert pencil_matrix(rep, mu).tobytes() == reference.tobytes()


# SHA-256 over the little-endian float64 eigenvalues for the five mu values
# below, in order, skipping the ones that fail to converge; taken from the
# column-then-row rotation code (x86_64, numpy 2.4.6).  Which levels converge
# is rounding luck of the off-diagonal norm, so the failures are pinned too.
_PINNED_MUS = (0.3, 2.0, 7 / 6, -1.5, 0.0)
_DENSE_EIGS_DIGESTS = {
    0: "fcb91cdfbcaf3697765a2202013012daa7cbcb3d97b99d03d504a0d9dbf331ff",
    1: "cef83d15c3ae7a8cd4a428b914e62aebaa0f9216abbce82a974ab32c1fb0987c",
    2: "db571924eb564fe878430ac8e01cefa9df4a001adf1631491554622965e96120",
    3: "404f3564fcde785d6905aba007fec7151e6a72e6a4de55427af449944584d9e4",
    4: "494aca360839005749f26d4f5d9af1e9a5ec998d59512126e07efe8e78a0097a",
    5: "2ee7b82dd0dea2c9b92029bfe320bf84573f872bf77dc2183886d16affeb7acd",
    6: "c584c3e3f7a08de26b98631d93470ea505d6c95b1762836a863d380347483ece",
    7: "30f769dd77b119897cf5e71707bed271f25db6d87bb0cfe73b516cfdd86cfd1b",
}
_DENSE_EIGS_FAILURES = {
    (5, 7 / 6): "1.686e-07",
    (6, 7 / 6): "2.384e-07",
    (7, 0.3): "3.372e-07",
    (7, 7 / 6): "3.372e-07",
}


@pytest.mark.parametrize("n", range(8))
def test_dense_eigs_bits_are_pinned(n):
    digest = hashlib.sha256()
    for mu in _PINNED_MUS:
        try:
            eigs = dense_eigs(pencil_matrix(build_level(n), mu))
        except ConvergenceError as exc:
            residual = _DENSE_EIGS_FAILURES[(n, mu)]
            assert str(exc) == f"rotation sweeps exhausted with off-diagonal residual {residual}"
        else:
            assert (n, mu) not in _DENSE_EIGS_FAILURES
            digest.update(eigs.astype("<f8").tobytes())
    assert digest.hexdigest() == _DENSE_EIGS_DIGESTS[n]


# level 8 and three more failures, taken from the kernel that built new rows
# and copied them into both rows and both columns at every rotation
_LEVEL_8_DIGESTS = {
    0.3: "308a19443f0581af1e7e73e26be3dda04403606c6526f529a178ea2e12ad9332",
    7 / 6: "61ad7653fb63594cdbabb1971ea142d44f9fb8f0c831f84ef1871165a810f381",
}


@pytest.mark.parametrize("mu", sorted(_LEVEL_8_DIGESTS))
def test_dense_eigs_level_8_bits_are_pinned(mu):
    eigs = dense_eigs(pencil_matrix(build_level(8), mu))
    assert hashlib.sha256(eigs.astype("<f8").tobytes()).hexdigest() == _LEVEL_8_DIGESTS[mu]


@pytest.mark.parametrize("n, mu, residual", [(4, 3.0, "1.686e-07"), (5, 1000.0, "6.104e-05"),
                                             (6, 10.0, "9.537e-07")])
def test_dense_eigs_failures_at_large_mu_are_pinned(n, mu, residual):
    with pytest.raises(ConvergenceError) as info:
        dense_eigs(pencil_matrix(build_level(n), mu))
    assert str(info.value) == f"rotation sweeps exhausted with off-diagonal residual {residual}"


def _dense_eigs_oracle(m):
    """`dense_eigs` as it was before its in-place kernel: each rotation builds
    two new rows and copies them into rows p, q and columns p, q."""
    a = np.array(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.array_equal(a, a.T):
        raise DomainError("dense eigensolver expects a symmetric matrix")
    n = a.shape[0]
    with np.errstate(over="ignore"):
        fro = float(np.linalg.norm(a))
    if not math.isfinite(fro):
        raise DomainError("dense eigensolver expects finite entries with a finite norm")
    if n == 1:
        return a[0].copy()
    if fro == 0.0:
        return np.zeros(n)
    thresh = lamplighter._TOL_FACTOR * fro
    skip = thresh / (2.0 * n)

    def offnorm():
        return math.sqrt(max((a * a).sum() - (np.diag(a) ** 2).sum(), 0.0))

    for _ in range(lamplighter._SWEEP_LIMIT):
        if offnorm() <= thresh:
            return np.sort(np.diag(a))
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                if abs(apq) <= skip:
                    continue
                rotated = True
                app, aqq = a.item(p, p), a.item(q, q)
                tau = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                cos = 1.0 / math.hypot(1.0, t)
                sin = t * cos
                row_p, row_q = a[p], a[q]
                new_p = cos * row_p - sin * row_q
                new_q = sin * row_p + cos * row_q
                cpp, cqp = cos * app - sin * apq, cos * apq - sin * aqq
                cpq, cqq = sin * app + cos * apq, sin * apq + cos * aqq
                new_p[p], new_p[q] = cos * cpp - sin * cqp, 0.0
                new_q[p], new_q[q] = 0.0, sin * cpq + cos * cqq
                a[p], a[q] = new_p, new_q
                a[:, p], a[:, q] = new_p, new_q
        if not rotated:
            break
    residual = offnorm()
    if residual <= thresh:
        return np.sort(np.diag(a))
    raise ConvergenceError(
        f"rotation sweeps exhausted with off-diagonal residual {residual:.3e}",
        residual=residual,
    )


# exact zeros and repeated dyadic entries (ties in the diagonal make tau 0),
# next to arbitrary doubles
_ENTRIES = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -3.0, 0.25]),
                     st.floats(-1e3, 1e3))


@st.composite
def _symmetric_matrices(draw):
    n = draw(st.integers(1, 24))
    upper = np.triu_indices(n)
    a = np.zeros((n, n))
    a[upper] = draw(st.lists(_ENTRIES, min_size=len(upper[0]), max_size=len(upper[0])))
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    # -0.0 opposite +0.0: the symmetry guard compares values, so both pass it
    for i, j in zip(*lower):
        if a[i, j] == 0.0 and draw(st.booleans()):
            a[i, j] = -0.0
    # a scale from subnormal products up to a norm that overflows
    return a * draw(st.sampled_from([1.0, 1.0, 2.0**-1000, 1e-300, 1e150, 1e200]))


@given(matrix=_symmetric_matrices())
@settings(max_examples=80, deadline=None)
def test_dense_eigs_matches_the_copying_kernel_bit_for_bit(matrix):
    def outcome(solve):
        try:
            return solve(matrix.copy()).astype("<f8").tobytes()
        except (ConvergenceError, DomainError) as exc:
            return type(exc), str(exc)

    assert outcome(dense_eigs) == outcome(_dense_eigs_oracle)


@pytest.mark.parametrize("mu", [0.0, 0.3, 1.0, 2.0])
def test_eigenvalue_multiset_matches_factorization(mu):
    # predicted: {4 - mu} once, zeros of G_k with multiplicity 2^(n-1-k)
    # (k < n) and 1 (k = n), merged across coincidences
    n = 5
    predicted = [(4.0 - mu, 1)]
    for k in range(1, n + 1):
        weight = 1 if k == n else 1 << (n - 1 - k)
        predicted.extend((z, weight) for z in g_zeros(k, mu))
    eigs = dense_eigs(pencil_matrix(build_level(n), mu))
    assert len(eigs) == 1 << n
    # group predictions within tolerance, then compare cluster counts
    predicted.sort()
    clusters = []
    for pos, wt in predicted:
        if clusters and pos - clusters[-1][0] <= 1e-7:
            clusters[-1] = (clusters[-1][0], clusters[-1][1] + wt)
        else:
            clusters.append((pos, wt))
    assert sum(w for _, w in clusters) == 1 << n
    for pos, wt in clusters:
        assert int(np.sum(np.abs(eigs - pos) <= 1e-7)) == wt


def test_dense_limit_refuses_a_level_the_rotation_solver_does_not_finish(monkeypatch):
    # level 9 took 20-28 s on 2 cores, level 10 148 s; the budget comes first
    def allocated(*args, **kwargs):
        raise AssertionError("a level matrix was allocated")

    monkeypatch.setattr(lamplighter.np, "ones", allocated)
    lamplighter._check_dense_level(lamplighter._DENSE_LEVEL_MAX)
    assert lamplighter._DENSE_LEVEL_MAX == 9
    with pytest.raises(CapacityError, match="^level 10 exceeds 9, the highest level the dense"):
        lamplighter._check_dense_level(10)
    with pytest.raises(CapacityError, match="budget"):
        lamplighter._check_dense_level(14)
    with pytest.raises(DomainError):
        lamplighter._check_dense_level(-1)


def test_level_over_the_memory_budget_is_refused_before_allocating(monkeypatch):
    # 20 * 4^n bytes: level 13 (1.34 GB) fits the 2 GiB (2.15 GB) budget, level 14 (5.4 GB) does not
    lamplighter._check_level(13)

    def allocated(*args, **kwargs):
        raise AssertionError("a level matrix was allocated")

    monkeypatch.setattr(lamplighter.np, "ones", allocated)
    for n in (14, 20, 10**9):
        with pytest.raises(CapacityError, match="budget"):
            build_level(n)
        with pytest.raises(CapacityError, match="budget"):
            phi_det_signlog(n, 0.5, 0.3)


_PEAK_PROBE = """
import os, llspec.cli

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

for level in (2, 11):
    argv = ["char-poly", "--level", str(level), "--mu", "float:0.3", "--grid", "0.5"]
    assert llspec.cli.main(argv + ["--out", os.devnull]) == 0
    print(peak())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_level_budget_covers_the_measured_peak():
    # VmHWM is the peak RSS of this interpreter alone (ru_maxrss of a child also
    # counts its parent's); level 2 loads every module, so the growth from there
    # to level 11 is what the level's matrices took.  One BLAS thread, as the
    # llspec process runs, so no per-thread LU buffers scale the growth with
    # the core count
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_PROBE], capture_output=True, text=True, check=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1",
                 PYTHONPATH=str(Path(lamplighter.__file__).parents[1])),
    ).stdout
    base_kib, peak_kib = map(int, out.split())
    # and the budget stays under three float64 copies of the level matrix (24
    # bytes per entry), which a copy of the cached pencil per grid point took
    assert (peak_kib - base_kib) * 1024 <= lamplighter._LEVEL_BYTES_PER_ENTRY * 4**11 < 24 * 4**11


def test_factorized_large_level_does_not_overflow():
    # exponents reach 2^(n-2); only the log form survives at n = 20
    sign, logabs = phi_factorized_signlog(20, 0.35, 0.72)
    assert sign in (-1.0, 1.0)
    assert math.isfinite(logabs) and logabs > 700.0


def test_phi_det_matches_a_freshly_built_pencil():
    # alternating (n, mu) pairs make the one-entry pencil cache miss and hit
    triples = [(3, 0.3, 1.0), (5, -1.5, 0.2), (3, 0.3, -2.5), (3, 0.3, 1.0),
               (5, -1.5, 4.0), (6, 7 / 6, 0.5), (6, 7 / 6, 0.5), (3, 2.0, 0.0)]
    for n, mu, lam in triples:
        fresh = pencil_matrix(build_level(n), mu) - lam * np.eye(1 << n)
        sign, logabs = np.linalg.slogdet(fresh)
        assert phi_det_signlog(n, lam, mu) == (float(sign), float(logabs))


@pytest.mark.parametrize("n", range(10))
def test_diagonal_shift_matches_subtracting_lam_times_identity(n):
    for mu in (0.3, -1.5):
        pencil = pencil_matrix(build_level(n), mu)
        for lam in (-2.5, -0.0, 0.0, 1.0, 7 / 6):
            sign, logabs = np.linalg.slogdet(pencil - lam * np.eye(1 << n))
            assert phi_det_signlog(n, lam, mu) == (float(sign), float(logabs))


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
def test_phi_det_rejects_non_finite_lam(lam):
    with pytest.raises(DomainError):
        phi_det_signlog(3, lam, 0.3)


def test_an_int_mu_is_taken_as_its_float():
    # mu * c kept c's uint8 for an int mu, and -1 overflowed it
    rep = build_level(1)
    assert (pencil_matrix(rep, -1) == pencil_matrix(rep, -1.0)).all()
    assert phi_det_signlog(1, 0.0, -1) == phi_det_signlog(1, 0.0, -1.0)


@pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan, 10**400],
                         ids=["inf", "-inf", "nan", "1e400"])
def test_level_routes_refuse_a_non_finite_mu(mu):
    # the LU route returned (1.0, nan), the factored route (-1.0, inf) at level 0
    for route in (lambda: pencil_matrix(build_level(1), mu), lambda: phi_det_signlog(1, 0.0, mu),
                  lambda: phi_factorized_signlog(0, 0.5, mu)):
        with pytest.raises(DomainError, match="parameter must be finite"):
            route()


def test_pencil_is_assembled_once_per_level_and_parameter(monkeypatch):
    lamplighter._pencil_entries.cache_clear()
    calls = []
    real = lamplighter.build_level
    monkeypatch.setattr(lamplighter, "build_level", lambda n: calls.append(n) or real(n))
    for lam in np.linspace(-6.0, 6.0, 25):
        phi_det_signlog(4, lam, 7 / 6)
    assert calls == [4]
    # each call rewrites only the cached matrix's diagonal, from the kept copy
    cached, diag = lamplighter._pencil_entries(4, 7 / 6)
    fresh = pencil_matrix(real(4), 7 / 6)
    off = ~np.eye(16, dtype=bool)
    assert diag.tobytes() == fresh.diagonal().tobytes()
    assert cached[off].tobytes() == fresh[off].tobytes()
    sign, logabs = np.linalg.slogdet(fresh - 0.3 * np.eye(16))
    assert phi_det_signlog(4, 0.3, 7 / 6) == (float(sign), float(logabs))
    assert calls == [4]


def test_capacity_is_checked_before_the_pencil_cache(monkeypatch):
    phi_det_signlog(4, 0.5, 0.3)
    # a budget that admits level 3 and refuses the cached level 4
    monkeypatch.setattr(lamplighter, "_LEVEL_BYTES_MAX", lamplighter._LEVEL_BYTES_PER_ENTRY * 4**3)
    with pytest.raises(CapacityError):
        phi_det_signlog(4, 0.5, 0.3)

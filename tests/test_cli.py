"""Command-line surface: outputs, determinism, exit codes, env override."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import llspec
from llspec import anderson, cli, ghpolys, lamplighter, measure, novikov
from llspec.cli import EXIT_CHECK, EXIT_CONVERGENCE, EXIT_DOMAIN, EXIT_OK, main, run
from llspec.errors import ConvergenceError


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_char_poly_csv(capsys):
    code, out, _ = _run(
        capsys, "char-poly", "--level", "2", "--mu", "rat:0/1", "--grid", "0,1,3"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "lam,phi_det,phi_factorized,rel_err"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    # Phi_2(1, 0) = (0-1)(4-1)(1-4) = 9
    assert float(lines[2].split(",")[1]) == pytest.approx(9.0)


def test_char_poly_check_passes(capsys):
    code, _, _ = _run(
        capsys, "char-poly", "--level", "4", "--mu", "float:0.7",
        "--grid=-5:5:11", "--check",
    )
    assert code == EXIT_OK


def test_eigs_output(capsys):
    code, out, _ = _run(capsys, "eigs", "--level", "1", "--mu", "float:2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["eigenvalues"] == [2.0, 2.0]


@pytest.mark.parametrize("level, mu", [(0, "rat:2/1"), (1, "float:0.3"), (6, "rat:0/1"),
                                       (6, "rat:1/1"), (6, "rat:2/1")])
def test_eigs_check_matches_the_factorization(capsys, level, mu):
    assert _run(capsys, "eigs", "--level", str(level), "--mu", mu, "--check")[0] == EXIT_OK


def test_eigs_check_sees_one_moved_eigenvalue(capsys, monkeypatch):
    # negative control: the check compares the whole spectrum, not only the
    # eigenvalue at 4 - mu, so one eigenvalue moved by 1e-6 fails it
    solve = lamplighter.dense_eigs

    def moved(matrix):
        eigs = solve(matrix).copy()
        eigs[0] += 1e-6
        return eigs

    argv = ("eigs", "--level", "4", "--mu", "float:0.3", "--check")
    assert _run(capsys, *argv)[0] == EXIT_OK
    monkeypatch.setattr(lamplighter, "dense_eigs", moved)
    assert _run(capsys, *argv)[0] == EXIT_CHECK


def test_zeros_check(capsys):
    code, _, _ = _run(capsys, "zeros", "--mu", "float:1.5", "--depth", "25", "--check")
    assert code == EXIT_OK


def test_zeros_check_holds_the_relative_residual_to_tol_at_any_mu(capsys):
    # residual_relative is dimensionless; with a bound scaled by |mu| it passed
    # 1 (no digit of the zero verified) from |mu| about 3e7
    code, out, _ = _run(capsys, "zeros", "--mu", "float:9.836204932433567e+146", "--depth", "3",
                        "--check")
    assert code == EXIT_CHECK
    relative = [line.rsplit(",", 1)[1] for line in out.splitlines()[1:]]
    assert relative == ["0", "1", "0", "1", "1", "0"]


@pytest.mark.parametrize("mu", ["float:2", "rat:7/6", "float:1e4", "float:-3"])
def test_zeros_check_passes_out_of_band_zeros_at_depth_40(capsys, mu):
    # their worst residual_relative / (k + 1) is about 5e-17, against a bound of 1e-8
    assert _run(capsys, "zeros", "--mu", mu, "--depth", "40", "--check")[0] == EXIT_OK


def test_spectrum_payload(capsys):
    code, out, _ = _run(capsys, "spectrum", "--mu", "rat:2/1", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pencil"]["band"] == [-6.0, 2.0]
    assert payload["pencil"]["accumulation_point"] == 3.0
    assert payload["pencil"]["outlier_onset_index"] == 1
    assert payload["jstar"]["isolated_mass"] == 0.75


def _spectrum_payload(capsys, mu):
    code, out, _ = _run(capsys, "spectrum", "--mu", mu, "--format", "json")
    assert code == EXIT_OK
    return json.loads(out)


def test_spectrum_descriptions(capsys):
    s0 = _spectrum_payload(capsys, "float:0")
    assert s0["pencil"]["band"] == [-4.0, 4.0] and s0["pencil"]["accumulation_point"] is None
    assert s0["jstar"]["isolated_mass"] == 0.0
    s2 = _spectrum_payload(capsys, "float:2")
    assert s2["pencil"]["band"] == [-6.0, 2.0]
    assert s2["pencil"]["accumulation_point"] == pytest.approx(3.0)
    sm2 = _spectrum_payload(capsys, "float:-2")
    assert sm2["pencil"]["band"] == [-2.0, 6.0]
    assert sm2["pencil"]["accumulation_point"] == pytest.approx(-3.0)
    assert s2["jstar"]["isolated_eigenvalue"] == pytest.approx(-1.5)
    assert s2["jstar"]["isolated_mass"] == pytest.approx(0.75)
    # the point lies outside the band by algebra, with no guard to meet
    for mu in (1.01, 1.5, 2.0, -1.01, -3.0, 1e6):
        pencil, jstar = map(_spectrum_payload(capsys, f"float:{mu!r}").get, ("pencil", "jstar"))
        for (lo, hi), point in ((pencil["band"], pencil["accumulation_point"]),
                                (jstar["band"], jstar["isolated_eigenvalue"])):
            assert not lo < point < hi


@given(mu=st.floats(allow_nan=False, allow_infinity=False))
@example(mu=1.0)
@example(mu=-1.0)
@example(mu=4.0)
@example(mu=-4.0)
@example(mu=math.nextafter(1.0, 2.0))
@example(mu=math.nextafter(1.0, 0.0))
@example(mu=math.nextafter(-1.0, -2.0))
@example(mu=5e-324)
@example(mu=-2.225073858507201e-308)
@example(mu=1e308)
@example(mu=-1e308)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_spectrum_pencil_row_is_the_jstar_row_at_lam_minus_two_x(capsys, mu):
    code, out, err = _run(capsys, "spectrum", "--mu", f"float:{mu!r}")
    assert (code, err) == (EXIT_OK, "")
    header, row = out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    # float == ignores the sign of zero, which the two sides may print differently
    assert float(cells["pencil_lo"]) == -2 * float(cells["jstar_hi"])
    assert float(cells["pencil_hi"]) == -2 * float(cells["jstar_lo"])
    assert (cells["accumulation_point"] == "") == (abs(mu) <= 1)
    assert (cells["isolated_eigenvalue"] == "") == (abs(mu) <= 1)
    if abs(mu) > 1:
        assert float(cells["accumulation_point"]) == -2 * float(cells["isolated_eigenvalue"])


def test_measure_json_serialization(capsys):
    m = measure.measure_truncation(measure.RationalMu(0, 1), 7)
    code, out, _ = _run(capsys, "measure", "--mu", "rat:0/1", "--depth", "7", "--format", "json")
    assert code == EXIT_OK
    parsed = json.loads(out)
    assert parsed["mu"] == "rat:0/1"
    assert parsed["depth"] == 7
    tail_num, tail_den = parsed["tail_mass"].split("/")
    assert Fraction(int(tail_num), int(tail_den)) == m.tail_mass
    masses = [Fraction(*(int(v) for v in a["mass"].split("/"))) for a in parsed["atoms"]]
    assert sum(masses, Fraction(0)) + m.tail_mass == 1
    origin = next(a for a in parsed["atoms"] if abs(a["position"]) < 1e-9)
    assert origin["class"] == "B2_merged" and origin["indices"] == [1, 3, 5, 7]


def test_measure_exact_masses(capsys):
    code, out, _ = _run(
        capsys, "measure", "--mu", "rat:0/1", "--depth", "7", "--format", "json", "--check"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    origin = next(a for a in payload["atoms"] if abs(a["position"]) < 1e-9)
    assert origin["mass"] == "85/256"
    masses = [Fraction(*map(int, a["mass"].split("/"))) for a in payload["atoms"]]
    tail = Fraction(*map(int, payload["tail_mass"].split("/")))
    assert sum(masses, Fraction(0)) + tail == 1
    # two depths deeper the same atom has collected one more progression term
    code, out, _ = _run(
        capsys, "measure", "--mu", "rat:0/1", "--depth", "9", "--format", "json"
    )
    assert code == EXIT_OK
    origin9 = next(a for a in json.loads(out)["atoms"] if abs(a["position"]) < 1e-9)
    assert origin9["mass"] == "341/1024"


@pytest.mark.parametrize("mu, depth", [("rat:2/1", 40), ("rat:-2/1", 40), ("float:-2", 40),
                                       ("rat:7/6", 100), ("float:1e10", 5), ("rat:10000/1", 12)])
def test_measure_keeps_isolated_zeros_apart(capsys, mu, depth):
    code, out, _ = _run(capsys, "measure", "--mu", mu, "--depth", str(depth), "--check")
    assert code == EXIT_OK
    # no parameter here is in B1 or B2, so every zero is an atom of its own
    classes = [row.split(",")[-1] for row in out.splitlines()[1:-1]]
    assert len(classes) == depth * (depth + 1) // 2
    assert classes.count("delta_mu") == 1
    # 7/6 = 1 + 1/6 puts a zero of G_6 on 4 - mu; at 2 = 1 + 1/1 that zero is
    # G_1's, at lam = mu, and stays delta_mu
    assert classes.count("B3_endpoint") == (mu == "rat:7/6")


def test_char_poly_level_one_is_exact(capsys):
    code, out, _ = _run(
        capsys, "char-poly", "--level", "1", "--mu", "float:0.7",
        "--grid=-6:6:25", "--format", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["max_rel_err"] < 1e-10


def test_char_poly_level_zero_is_the_lead_factor(capsys):
    # Phi_0 = 4 - lam - mu, the one factor that eigs --level 0 checks against
    code, out, _ = _run(capsys, "char-poly", "--level", "0", "--mu", "float:0.3",
                        "--grid=-6:6:25", "--format", "json", "--check")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["max_rel_err"] < 1e-15
    for row in payload["rows"]:
        assert row["phi_factorized"] == pytest.approx(4.0 - row["lam"] - 0.3, rel=1e-15)


def test_multiplicity_rows_and_check(capsys):
    code, out, _ = _run(
        capsys, "multiplicity", "--level", "6", "--mu", "rat:2/1",
        "--grid", "2", "--format", "json", "--check",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rows"][0]["multiplicity"] == 17


def test_multiplicity_and_its_check_share_the_same_point_rule(capsys):
    # 5e-7 from a zero of G_2, far beyond `coalesce_tol` (8e-9), so neither
    # the zero sets nor the dense eigenvalues count it as a root
    code, out, _ = _run(capsys, "multiplicity", "--level", "4", "--mu", "float:0.3",
                        "--grid=-2.0223743416156683", "--check")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "-2.0223743416156683,0,0"


@pytest.mark.parametrize("level, mu, lam", [(3, "rat:1000/1", "1000.002"),
                                           (7, "rat:7/1", "7.285714285694477")])
def test_multiplicity_of_crowded_outliers_is_one(capsys, level, mu, lam):
    # the outliers of G_2 .. G_level crowd toward mu + 2/mu, closer than the
    # same-point tolerance; the nearest zero alone owns a point, a simple root
    code, out, _ = _run(capsys, "multiplicity", "--level", str(level), "--mu", mu,
                        "--grid", lam, "--check")
    assert code == EXIT_OK
    assert out.splitlines()[1].split(",")[1:] == ["1", "1"]


def test_multiplicity_sweeps_g_1_to_g_level_once(capsys, monkeypatch):
    calls = Counter()
    solve = ghpolys.g_zeros

    def counted(k, mu):
        calls[k] += 1
        return solve(k, mu)

    monkeypatch.setattr(ghpolys, "g_zeros", counted)
    code, out, _ = _run(capsys, "multiplicity", "--level", "6", "--mu", "rat:2/1",
                        "--grid=-6:6:25")
    assert code == EXIT_OK and len(out.splitlines()) == 1 + 25
    assert calls == Counter(range(1, 7))


@pytest.mark.parametrize("argv", [
    ("eigs", "--level", "4", "--mu", "float:0.3", "--check"),
    ("multiplicity", "--level", "4", "--mu", "float:0.3", "--grid", "2", "--check"),
])
def test_level_checks_read_the_one_root_multiset(capsys, monkeypatch, argv):
    # negative control: both checks pair the spectrum with `measure.level_roots`,
    # so one root moved by 1e-6 fails them
    roots = measure.level_roots

    def moved(trunc):
        shifted = roots(trunc).copy()
        shifted[3] += 1e-6
        return shifted

    assert _run(capsys, *argv)[0] == EXIT_OK
    monkeypatch.setattr(measure, "level_roots", moved)
    assert _run(capsys, *argv)[0] == EXIT_CHECK


def test_multiplicity_check_sees_an_eigenvalue_at_a_non_root(capsys, monkeypatch):
    # a row that is no root fails the check when a dense eigenvalue sits at it
    solve = lamplighter.dense_eigs
    argv = ("multiplicity", "--level", "3", "--mu", "float:0.3", "--grid", "9.5", "--check")
    assert _run(capsys, *argv) == (EXIT_OK, "lam,multiplicity,is_root\n9.5,0,0\n", "")
    monkeypatch.setattr(lamplighter, "dense_eigs", lambda m: np.append(solve(m)[1:], 9.5))
    assert _run(capsys, *argv)[0] == EXIT_CHECK


def test_joint_spectrum_check(capsys):
    grid = ",".join(str(1.0 + 1.0 / n) for n in range(2, 7)) + ",0.5"
    code, out, _ = _run(
        capsys, "joint-spectrum", "--depth", "8", "--grid", grid, "--check"
    )
    assert code == EXIT_OK
    header, *rows = out.strip().splitlines()
    assert header == "mu,k,zero,inside_strip"
    # the sub-threshold parameter keeps every zero inside the strip
    half = [r for r in rows if r.startswith("0.5,")]
    assert half and all(r.endswith(",1") for r in half)


def test_dos_report_and_check(capsys):
    code, out, _ = _run(
        capsys, "dos", "--mu", "float:0.3", "--sites", "20000", "--seed", "7",
        "--depth", "10", "--format", "json", "--check",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["sup_deviation"] < 0.02
    assert len(payload["checkpoints"]) == 50


def test_dos_check_passes_at_its_own_deviation(capsys):
    # like every other bound, a deviation equal to --tol meets it
    argv = ["dos", "--mu", "float:0.3", "--sites", "100000", "--seed", "7", "--format", "json"]
    _, out, _ = _run(capsys, *argv)
    deviation = json.loads(out)["sup_deviation"]
    assert _run(capsys, *argv, "--check", "--tol", repr(deviation))[0] == EXIT_OK
    below = repr(math.nextafter(deviation, 0.0))
    assert _run(capsys, *argv, "--check", "--tol", below)[0] == EXIT_CHECK


def test_dos_check_breach_exit(capsys):
    code, _, _ = _run(
        capsys, "dos", "--mu", "float:0.3", "--sites", "5000", "--seed", "7",
        "--depth", "10", "--format", "json", "--check", "--tol", "1e-9",
    )
    assert code == EXIT_CHECK


def test_dos_csv_eigenvalues_match_mp_block_spectra(capsys):
    # the run pinned below: its pooled eigenvalues, against the 30-digit
    # spectra of the distinct interior blocks, each counted once per copy
    code, out, _ = _run(
        capsys, "dos", "--mu", "float:0.3", "--sites", "100000", "--seed", "7"
    )
    assert code == EXIT_OK
    got = np.array([float(line.split(",")[0]) for line in out.splitlines()[1:]])
    sample = anderson.build_jacobi_sample(anderson.sample_window(7, 0, 100000), 0.3)
    blocks, copies = {}, Counter()
    for block in anderson.block_decompose(sample)[1:-1]:
        key = (block.diag.tobytes(), block.offdiag.tobytes())
        blocks[key] = block
        copies[key] += 1
    exact = []
    with mpmath.workdps(30):
        for key, block in blocks.items():
            dense = np.diag(block.diag) + np.diag(block.offdiag, 1) + np.diag(block.offdiag, -1)
            eigs = mpmath.eigsy(mpmath.matrix(dense.tolist()), eigvals_only=True)
            exact.append(np.repeat([float(v) for v in eigs], copies[key]))
    exact = np.sort(np.concatenate(exact))
    assert len(got) == len(exact)
    assert np.abs(got - exact).max() <= 1e-13


def test_dos_csv_bytes_are_pinned(capsys):
    # digest of the LAPACK-kernel output, whose values the test above checks
    code, out, _ = _run(
        capsys, "dos", "--mu", "float:0.3", "--sites", "100000", "--seed", "7"
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "aac9d007120cfe12ee8b51a43f798957e9719b10d69a5fba5e7a1adda289d79c"
    )


# SHA-256 of `dos --sites 200000 --seed 7` output, taken before the line was
# walked in windows; float:0 puts a third of all sites on the eigenvalue 0
_DOS_DIGESTS = {
    ("float:0", "csv"): "df35bcad101e62d04cd286393612fec57aa3804b280f73e1e91a0704b7c9601d",
    ("float:0", "json"): "d730898155d3e8ae0f55d73be072a0a3bff6847bc7c4d7bde6c8c089c8f7151e",
    ("float:1", "csv"): "7f1bc5911a4271e306daa547a9662572cdf7a14fc53c1ed3f64588ba0ddc1c43",
    ("float:1", "json"): "386efbaf5b19500e3f5aee029dfcfb896d090c43c7442dbea977943de0c7d3f9",
    ("float:-1.3", "csv"): "5a5d072f34973602f3e753a5c435de5efde2b84372687cb892456aeb52e6f5b2",
    ("float:-1.3", "json"): "6b41bf2a1b3e8c3b45addcdc4876a4ac4496537e4897e8f0958e5c0915b662d0",
    ("float:2", "csv"): "3c3d038a0b677de665b3f2c6795c4e48758a491f2c802f51e77cd71c62f87702",
    ("float:2", "json"): "696c2eed8f74fb3178ac0b3c97ec1032677aabb6650c0d297ffd6f643a0773a1",
    ("rat:3/2", "csv"): "6f1285f33e6aa31d4755618611187159102771bccc535659af57d9bb17991971",
    ("rat:3/2", "json"): "2eea1524b22a002d11b0bcc95b3fda7e7e78b90e489c8c7c207f045e5ecf2c64",
}


@pytest.mark.parametrize("mu, fmt", sorted(_DOS_DIGESTS))
def test_dos_output_bytes_are_pinned_across_parameters(capsys, mu, fmt):
    code, out, _ = _run(
        capsys, "dos", "--mu", mu, "--sites", "200000", "--seed", "7", "--format", fmt
    )
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == _DOS_DIGESTS[mu, fmt]


# one small run of each command, and one --check that fails
_COMMANDS = {
    "char-poly": ("char-poly", "--level", "4", "--mu", "rat:7/6", "--grid=-6:6:13", "--check"),
    "eigs": ("eigs", "--level", "4", "--mu", "float:0.3", "--check"),
    "zeros": ("zeros", "--mu", "float:2", "--depth", "12", "--check"),
    "spectrum": ("spectrum", "--mu", "rat:2/1"),
    "measure": ("measure", "--mu", "rat:3/2", "--depth", "12", "--check"),
    "multiplicity": ("multiplicity", "--level", "5", "--mu", "rat:2/1", "--grid", "2,0,-1",
                     "--check"),
    "joint-spectrum": ("joint-spectrum", "--depth", "6", "--grid=-3:3:13", "--check"),
    "dos": ("dos", "--mu", "float:0.3", "--sites", "20000", "--seed", "7", "--depth", "10",
            "--check"),
    "ns": ("ns", "--mu", "float:2", "--depth", "12", "--check"),
    "dos-breach": ("dos", "--mu", "float:0.3", "--sites", "5000", "--seed", "7", "--depth", "10",
                   "--check", "--tol", "1e-9"),
    # exceptional parameters, where zeros of distinct G_k merge into one atom
    "measure-b2": ("measure", "--mu", "b2:1/4", "--depth", "12", "--check"),
    "measure-b1": ("measure", "--mu", "b1:1/22:7", "--depth", "24", "--check"),
    "multiplicity-b2": ("multiplicity", "--level", "5", "--mu", "b2:1/3", "--grid", "2,0,-1",
                        "--check"),
    # -2 * (J*'s values) would print -0 here, where the pencil's own expressions print 0
    "spectrum-r-4": ("spectrum", "--mu", "rat:-4/1"),
    # the largest parameters: 1/mu is subnormal, and vanishes next to mu
    "spectrum-f1e308": ("spectrum", "--mu", "float:1e308"),
}

# exit code and SHA-256 of stdout, taken before the handlers returned their
# results to `main`, when each handler wrote its own output; the two
# spectrum-r-4 and spectrum-f1e308 pairs were taken while `jacobi` still built
# spectrum's band records
_COMMAND_DIGESTS = {
    ("char-poly", "csv"): (0, "f5b1099ce8a15c7a438cf43799400a9329ee20b7b667ed14a285726fc278f3b2"),
    ("char-poly", "json"): (0, "14d2d8b5388f6eecde2234c4dbddb27bc0cf30adb178ea0cefce520c9c6efb05"),
    ("eigs", "csv"): (0, "2ebc517661a24425e0d46d36d8dd5cb3266094f02a9ebb34ccae95505253b47d"),
    ("eigs", "json"): (0, "45c024a266ba998da4607e799c838e77939a076ed17f1b6623c2930d49001441"),
    ("zeros", "csv"): (0, "39674ddccb98cfb29bbd49c18d1710fba57e1f6fa677b7cc1fcfdeae42e8844b"),
    ("zeros", "json"): (0, "6811778b8002401baa17d1be22de51511437991f63f96d0fea83f45cabbca471"),
    ("spectrum", "csv"): (0, "38bd20e0e0e03072f08a6a72de132491b969f2c0fd66d8dc47487bbd4cc65dcc"),
    ("spectrum", "json"): (0, "fc00fdabd1ca0779d531a992466e52362b46a3d58a7c71eef743ea2f710f26aa"),
    ("measure", "csv"): (0, "a6b22f820da9731d68dbaf0f150d7ef473d217c42a740f06c693defa6f9f5084"),
    ("measure", "json"): (0, "965149ba4d23af0649a5f3180821bb684d9b6d82fa163bc0ac3bb9ed15b68d78"),
    ("multiplicity", "csv"): (0, "4180d96028b4004ba51d588b693e6176a0b29a9cb7e7e160f3db239da06d7266"),
    ("multiplicity", "json"): (0, "ac9e45db145498e37966c7258f681719996b34e2eb223670a99661133ecd18ad"),
    ("joint-spectrum", "csv"): (0, "7f500a6fa51e4c3c395791be7dd0187160b877f2fe3d75d3227409ffd74b0f45"),
    ("joint-spectrum", "json"): (0, "e6f29d2acabf8ee8e78cec0546a40ae168ed874ff03a59441ae47a5ae4cfb540"),
    ("dos", "csv"): (0, "cd297affd07aa63d20eef1ae6e07a43cf0d79f2a2bc45e5597451dceb5620ab8"),
    ("dos", "json"): (0, "eed943d2bbaf0149a5967df516be7d3d98832f72e3c61cb9f459fe057eeff3d7"),
    ("ns", "csv"): (0, "dea426d6225dd5edb644dbd33c21720f6147879616bb1aab7d4b5991481d50e6"),
    ("ns", "json"): (0, "29d5390f4f99182eea0591e3b9bb9598ffcb54be2c83b7ddb1a029202b5fbaa9"),
    ("dos-breach", "csv"): (3, "dfc3c3c486b83841ef4269b99a19bf5412b17213616f0ebadd6fa6c9170dafde"),
    ("dos-breach", "json"): (3, "d502e22bd852122654120d500b5370d64ecb1e76618754150cd9ae9f03a6966a"),
    ("measure-b2", "csv"): (0, "684586e97cd2c4f391736f7cc24cd684188dc672872d35fa7f29ff3a5ae940b4"),
    ("measure-b2", "json"): (0, "9873db8d3a32319895e09c37c610ac12da713528c8c8dc1c322033a1eb2a2f3a"),
    ("measure-b1", "csv"): (0, "4820250fecb2b194c983cd8f1d1541db505bb96ee4e927e82b693408b721c28d"),
    ("measure-b1", "json"): (0, "3c8c319dee588f013ce9e7067d5eafa50da542546f9a17f27bef46cefef82255"),
    ("multiplicity-b2", "csv"): (0, "13833a99ab365b18faf2997f7042ff0a4090fbcb6ad16a43429bfa09a4c3c34e"),
    ("multiplicity-b2", "json"): (0, "95e83998984466e50269fc506579053f837450f371272109799cac12f31a7a2d"),
    ("spectrum-r-4", "csv"): (0, "1abbbf1ed131315c23805b1c6be1a66aa5741c68da0aea804d4d24201499e3a3"),
    ("spectrum-r-4", "json"): (0, "ad666207c1ab77debd887c3a084119b76dd1011786e69bfe48dca3fd9eda8300"),
    ("spectrum-f1e308", "csv"): (0, "8d72299be3bbe55326e1a67b71aa9dcccde4a939db60e1c2e5aeb3c7141a8c05"),
    ("spectrum-f1e308", "json"): (0, "8f9ed26356d1ba4dc876f26380a859f2de8f9c05c666f3949dcf9fce5b712348"),
}


@pytest.mark.parametrize("name, fmt", sorted(_COMMAND_DIGESTS))
def test_command_output_bytes_are_pinned(capsys, name, fmt):
    code, out, err = _run(capsys, *_COMMANDS[name], "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _COMMAND_DIGESTS[name, fmt]
    assert err == ""


# for each command, arguments it refuses after parsing: a bad parameter, a
# depth or level out of range, and an --out that cannot be opened
_REFUSED = {
    "char-poly": [("--mu", "float:nan"), ("--level", "13"), ("--out", "{missing}")],
    "eigs": [("--mu", "float:nan"), ("--level", "13"), ("--out", "{missing}")],
    "zeros": [("--mu", "float:nan"), ("--depth", "0"), ("--depth", "201"), ("--out", "{missing}")],
    "spectrum": [("--mu", "float:nan"), ("--out", "{missing}")],
    "measure": [("--mu", "rat:1/0"), ("--depth", "0"), ("--depth", "201"), ("--out", "{missing}")],
    "multiplicity": [("--mu", "float:nan"), ("--level", "13"), ("--out", "{missing}")],
    "joint-spectrum": [("--grid", "nan"), ("--depth", "0"), ("--depth", "201"),
                       ("--out", "{missing}")],
    "dos": [("--mu", "float:nan"), ("--depth", "0"), ("--depth", "201"), ("--out", "{missing}")],
    "ns": [("--mu", "float:0.5"), ("--depth", "5"), ("--out", "{missing}")],
}


@pytest.mark.parametrize(
    "name, extra",
    [(name, extra) for name, cases in _REFUSED.items() for extra in cases],
    ids=[f"{name}{'='.join(extra)}" for name, cases in _REFUSED.items() for extra in cases],
)
def test_refused_arguments_exit_two_with_one_error_line(tmp_path, capsys, name, extra):
    extra = [a.replace("{missing}", str(tmp_path / "missing" / "x")) for a in extra]
    # the later of two equal flags wins, so `extra` overrides the valid value
    code = run([*_COMMANDS[name], *extra])
    captured = capsys.readouterr()
    assert code == EXIT_DOMAIN and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("work", [("zeros", ghpolys, "g_zeros"),
                                  ("measure", measure, "measure_truncation"),
                                  ("joint-spectrum", ghpolys, "g_zeros"),
                                  ("dos", anderson, "line_ids")])
def test_depth_over_the_bound_is_refused_before_any_work(capsys, monkeypatch, work):
    name, module, function = work

    def worked(*args):
        raise AssertionError("the work began before the depth was checked")

    monkeypatch.setattr(module, function, worked)
    deepest = cli._DEPTH_MAX
    code, out, err = _run(capsys, *_COMMANDS[name], "--depth", str(deepest + 1))
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [f"error: depth must be <= {deepest}, got {deepest + 1}"]


def test_depth_bound_admits_the_benchmark_depths(capsys):
    deepest = cli._DEPTH_MAX
    assert deepest >= 60  # the deepest benchmark command, `ns` aside
    code, out, _ = _run(capsys, "joint-spectrum", "--grid", "0", "--depth", str(deepest))
    assert code == EXIT_OK and len(out.splitlines()) == 1 + deepest * (deepest + 1) // 2


class _Sampled(Exception):
    pass


@pytest.mark.parametrize("sites", [-5, 0, 1, cli._SITES_MAX, cli._SITES_MAX + 1, 10**9])
def test_sites_are_checked_before_any_sampling(capsys, monkeypatch, sites):
    def sampled(*args):
        raise _Sampled

    monkeypatch.setattr(anderson, "line_ids", sampled)
    if 1 <= sites <= cli._SITES_MAX:
        with pytest.raises(_Sampled):
            main(["dos", "--mu", "float:0.3", "--sites", str(sites)])
        return
    code, out, err = _run(capsys, "dos", "--mu", "float:0.3", "--sites", str(sites))
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [f"error: --sites must be in [1, 100000000], got {sites}"]


def _readme_examples() -> list[list[str]]:
    """The argv of each `llspec ...` line in the README's usage block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
            if line.startswith("llspec ")]


def test_readme_has_nine_examples():
    assert [argv[0] for argv in _readme_examples()] == [
        "char-poly", "eigs", "zeros", "spectrum", "measure", "multiplicity", "joint-spectrum",
        "dos", "ns"]


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: argv[0])
def test_readme_examples_run(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert out.stat().st_size > 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_write_to_a_full_device_exits_two(capsys, fmt):
    # the JSON fits the file's buffer, so it fails only as the file is flushed
    code, out, err = _run(capsys, "dos", "--mu", "float:0.3", "--sites", "100000",
                          "--format", fmt, "--out", "/dev/full")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == ["error: cannot write --out '/dev/full': No space left on device"]


@pytest.mark.parametrize("argv", [("spectrum", "--mu", "float:0.3"),
                                  ("dos", "--mu", "float:0.3", "--sites", "100000")])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_two(argv, unbuffered):
    # buffered, spectrum's one line fails only when stdout is flushed, and a
    # second failure in the exit-time flush would print a second message
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(llspec.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # no reader from the start, so every write fails
    try:
        proc = subprocess.run([sys.executable, "-m", "llspec.cli", *argv], env=env, stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == EXIT_DOMAIN
    assert proc.stderr.splitlines() == ["error: cannot write stdout: Broken pipe"]


@pytest.mark.parametrize("mu", ["float:1e10", "float:1e20", "float:1e300"])
def test_dos_check_at_large_mu_finishes(mu):
    # every checkpoint must step off the atoms, whose scale grows with mu
    src = str(Path(llspec.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "llspec.cli", "dos", "--mu", mu, "--sites", "10000",
         "--format", "json", "--check"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert len(json.loads(proc.stdout)["checkpoints"]) == 50


@pytest.mark.parametrize(
    "argv",
    [
        ("dos", "--mu", "float:1e308", "--sites", "10000", "--format", "json", "--check"),
        ("measure", "--mu", "float:-1e308", "--depth", "4"),
        ("multiplicity", "--level", "3", "--mu", "float:1e308", "--grid", "0"),
        ("joint-spectrum", "--depth", "2", "--grid", "1e308"),
    ],
)
def test_mu_beyond_the_same_point_rule_exits_two(capsys, recwarn, argv):
    # |4 - mu| + |4 + mu| overflows, so every position would be one point,
    # and the dos checkpoint grid [-4.5 - |mu|, 4.5 + |mu|] would hold NaN
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: no same-point tolerance")
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", "--mu", "float:1e308", "--depth", "3"),
        ("char-poly", "--level", "2", "--mu", "float:1e308", "--grid=1e308"),
    ],
)
def test_overflowing_polynomial_argument_exits_two(capsys, argv):
    # -lam - mu overflows at lam = mu = 1e308, which used to print NaN
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == ["error: (-lam - mu) / 4 is not finite at lam=1e+308, mu=1e+308"]


def test_out_that_cannot_be_opened_exits_two_before_the_work(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, "spectrum", "--mu", "float:0.3", "--out", str(missing))
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [
        f"error: cannot open --out {str(missing)!r}: No such file or directory"
    ]

    def walked(*args):
        raise AssertionError("the line was walked before --out was opened")

    monkeypatch.setattr(anderson, "line_ids", walked)
    code, out, err = _run(capsys, "dos", "--mu", "float:0.3", "--out", str(tmp_path))
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [f"error: cannot open --out {str(tmp_path)!r}: Is a directory"]


def _peak_rss_mb(argv) -> float:
    """Peak resident set of `python -m llspec.cli ARGV` in a fresh process."""
    src = str(Path(llspec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "llspec.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == EXIT_OK
    return usage.ru_maxrss / 1024.0


@pytest.mark.parametrize("form", [("--format", "json"), ("--out", "{out}")])
def test_dos_memory_does_not_grow_with_sites(tmp_path, form):
    peaks = []
    for sites in (100_000, 2_000_000):
        extra = [a.replace("{out}", str(tmp_path / f"{sites}.csv")) for a in form]
        argv = ["dos", "--mu", "float:0.3", "--sites", str(sites), "--seed", "7", *extra]
        peaks.append(_peak_rss_mb(argv))
    assert peaks[1] <= peaks[0] + 15.0, peaks


def test_json_output_takes_no_more_memory_than_csv():
    # the JSON text is written in blocks as the encoder makes it, never held
    # whole: at 30000 rows joining it first peaked at 1.6 times the CSV run
    argv = ["multiplicity", "--level", "12", "--mu", "float:0.3", "--grid=-6:6:30000"]
    csv_peak = _peak_rss_mb(argv)
    json_peak = _peak_rss_mb([*argv, "--format", "json"])
    assert json_peak <= 1.1 * csv_peak, (json_peak, csv_peak)


def test_csv_builds_no_json_row_objects(tmp_path):
    # handlers pass row tuples; only --format json makes an object of each,
    # so CSV holds about a third of the memory (10.4 against 28.9 MB when measured)
    argv = ["multiplicity", "--level", "6", "--mu", "rat:2/1", "--grid=-6:6:100000"]
    assert main([*argv[:-1], "--grid=-6:6:3", "--out", str(tmp_path / "warm")]) == EXIT_OK
    peaks = {}
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            assert main([*argv, "--format", fmt, "--out", str(tmp_path / fmt)]) == EXIT_OK
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["csv"] < 0.75 * peaks["json"], peaks


def test_ns_large_mu_is_certified_or_refused(capsys):
    # 1e30 needs digits for the size of the eigenvalue, not only for the gap
    code, out, _ = _run(capsys, "ns", "--mu", "float:1e30", "--depth", "10", "--check")
    assert code == EXIT_OK and len(out.splitlines()) == 11
    # past 1e150 the decay rate mu^-2 would underflow a double
    code, out, err = _run(capsys, "ns", "--mu", "float:1e200", "--depth", "10", "--check")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == ["error: gap sequence requires |mu| <= 1e+150, got 1e+200"]
    # the default depth at 1e150 would run for over a minute; refused before any mp work
    code, out, err = _run(capsys, "ns", "--mu", "float:1e150", "--check")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [
        "error: gap sequence to depth 60 at mu=1e+150 exceeds the work bound 100000 "
        "(precision 10675 digits at m=35); depth 34 is within it"
    ]


def test_ns_depth_past_the_float_range_exits_two(capsys):
    # the work-bound message used to turn the requested depth into a float
    code, out, err = _run(capsys, "ns", "--mu", "float:2", "--depth", str(10**310))
    assert code == EXIT_DOMAIN and out == ""
    assert len(err.splitlines()) == 1 and err.endswith("depth 372 is within it\n"), err


def test_ns_summary(capsys):
    code, out, _ = _run(
        capsys, "ns", "--mu", "float:2", "--depth", "20", "--format", "json", "--check"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["closed_form"] == 0.5
    assert abs(payload["decay_rate"] - 0.25) < 0.005


def test_ns_below_minus_one_mirrors_its_absolute_value(capsys):
    # G_k(-lam, -mu) = (-1)^k G_k(lam, mu): mu = -2 is the Cayley-graph weighting
    payloads = []
    for mu in ("rat:-2/1", "rat:2/1"):
        code, out, _ = _run(capsys, "ns", "--mu", mu, "--depth", "60", "--format", "json",
                            "--check")
        assert code == EXIT_OK
        payloads.append(json.loads(out))
    neg, pos = payloads
    assert [r["x_m"] for r in neg["rows"]] == [-r["x_m"] for r in pos["rows"]]
    for key in ("m", "gap", "log2_gap"):
        assert [r[key] for r in neg["rows"]] == [r[key] for r in pos["rows"]]
    for key in ("decay_rate", "empirical", "closed_form", "meta"):
        assert neg[key] == pos[key]
    for mu in ("rat:-1/1", "float:-0.5"):
        code, out, err = _run(capsys, "ns", "--mu", mu, "--depth", "20")
        assert code == EXIT_DOMAIN and out == ""
        assert err.splitlines() == ["error: gap sequence requires |mu| > 1"]


def test_ns_json_meta_is_deterministic(tmp_path, capsys):
    argv = ["ns", "--mu", "rat:5/2", "--depth", "20", "--format", "json"]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(argv + ["--out", str(path)]) == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    effort = payload["meta"]["effort"]
    assert [e["m"] for e in effort] == [r["m"] for r in payload["rows"]]
    assert all(e["mp_digits"] >= 30 and e["recurrence_passes"] > 0 for e in effort)
    # CSV keeps its four columns and carries no meta
    code, out, _ = _run(capsys, "ns", "--mu", "rat:5/2", "--depth", "20")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "m,x_m,gap,log2_gap" and len(lines) == len(effort) + 1


def test_ns_too_short_a_sequence_is_refused_before_any_mp_work(capsys, monkeypatch):
    # `decay_rate` fits at least 10 entries; at mu = 2 they start at m = 1
    solved = []
    solve = novikov._outlier_zero_mp
    monkeypatch.setattr(novikov, "_outlier_zero_mp",
                        lambda mu, m: solved.append(m) or solve(mu, m))
    code, out, err = _run(capsys, "ns", "--mu", "float:2", "--depth", "9")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.splitlines() == ["error: need M >= 10 for a usable sequence"]
    assert solved == []
    assert _run(capsys, "ns", "--mu", "float:2", "--depth", "10")[0] == EXIT_OK
    assert solved == list(range(1, 11))


def test_ns_convergence_failure_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(novikov, "_newton_pass_mp", lambda mmu, m, x: mpmath.mpf(1))
    argv = ["ns", "--mu", "float:2", "--depth", "12"]
    assert run(argv) == EXIT_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_eigs_with_overflowing_norm_exits_two(capsys, recwarn):
    # entries near 1e200 are finite but their squares are not
    code, out, err = _run(capsys, "eigs", "--level", "2", "--mu", "float:1e200")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == ["error: dense eigensolver expects finite entries with a finite norm"]
    assert len(recwarn) == 0


def test_domain_errors_exit_two(capsys):
    assert _run(capsys, "ns", "--mu", "float:0.5", "--depth", "20")[0] == EXIT_DOMAIN
    assert _run(capsys, "char-poly", "--level", "99", "--mu", "float:0")[0] == EXIT_DOMAIN
    assert _run(capsys, "measure", "--mu", "rat:1/0", "--depth", "5")[0] == EXIT_DOMAIN


@pytest.mark.parametrize("seed, code", [(-1, EXIT_DOMAIN), (2**128, EXIT_DOMAIN),
                                        (2**128 - 1, EXIT_OK)])
def test_dos_seed_is_a_philox_key(capsys, seed, code):
    got, out, err = _run(capsys, "dos", "--mu", "float:0.3", "--sites", "10",
                         "--seed", str(seed))
    assert got == code
    if code == EXIT_DOMAIN:
        assert out == "" and err.splitlines() == [f"error: seed must be in [0, 2**128), got {seed}"]


def test_char_poly_check_fails_on_a_non_finite_error(capsys, monkeypatch):
    # no real input makes a NaN since the recurrence refuses |(-lam - mu) / 4|
    # over 2^510, so a factored side that returns one stands in for a fault
    monkeypatch.setattr(lamplighter, "phi_factorized_signlog", lambda n, lam, mu: (1.0, math.nan))
    argv = ("char-poly", "--level", "2", "--mu", "float:0.3", "--grid", "0.5", "--check")
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_CHECK and out.splitlines()[1].endswith(",nan,nan")
    code, out, _ = _run(capsys, *argv, "--format", "json")
    assert code == EXIT_CHECK and math.isnan(json.loads(out)["max_rel_err"])


# values log-uniform in magnitude up to 1e300, either sign, and the edges of
# the scaled recurrence's argument range
_RECURRENCE_VALUES = st.one_of(
    st.sampled_from([0.0, 2.0**510, -(2.0**510), 2.0**511, -(2.0**511)]),
    st.builds(lambda sign, exponent: sign * 10.0**exponent,
              st.sampled_from([1.0, -1.0]), st.floats(-300.0, 300.0)),
)
_RECURRENCE_COMMANDS = st.one_of(
    st.builds(lambda mu, depth, check: ("zeros", f"--mu=float:{mu!r}", "--depth", str(depth),
                                        *check),
              _RECURRENCE_VALUES, st.integers(1, 8), st.sampled_from([(), ("--check",)])),
    st.builds(lambda mu, lam, level, fmt: ("char-poly", "--level", str(level),
                                           f"--mu=float:{mu!r}", f"--grid={lam!r}", "--check",
                                           "--format", fmt),
              _RECURRENCE_VALUES, _RECURRENCE_VALUES, st.integers(1, 3),
              st.sampled_from(["csv", "json"])),
)


@given(argv=_RECURRENCE_COMMANDS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_recurrence_commands_print_no_nan(capsys, argv):
    # the scaled Chebyshev recurrence either answers with finite residuals or refuses
    code, out, err = _run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_CHECK)
    if code == EXIT_DOMAIN:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "nan" not in out.lower()


_SIGNS = st.sampled_from([1, -1])
# the exceptional values 0 and +-1, mu = +-(1 + 1/k), small rationals and
# doubles log-uniform up to 1e300, each as rat: or as float:
_LEVEL_MUS = st.one_of(
    st.sampled_from(["rat:0/1", "float:0", "float:-0.0", "rat:1/1", "rat:-1/1", "float:1",
                     "float:-1"]),
    st.builds(lambda sign, k: f"rat:{sign * (k + 1)}/{k}", _SIGNS, st.integers(1, 60)),
    st.builds(lambda sign, k: f"float:{sign * (1 + 1 / k)!r}", _SIGNS, st.integers(1, 60)),
    st.builds(lambda p, q: f"rat:{p}/{q}", st.integers(-50, 50), st.integers(1, 20)),
    st.builds(lambda sign, e: f"float:{sign * 10.0**e!r}", _SIGNS, st.floats(-300.0, 300.0)),
)
_BAD_MUS = st.sampled_from(["float:nan", "float:inf", "float:-inf", "rat:1/0", "rat:x/2",
                            "bogus:1", "float:"])
_FORMATS = st.sampled_from([(), ("--format", "json")])
_CHECKS = st.sampled_from([(), ("--check",)])


def _eigs_argv(level, mu, fmt, check):
    return ("eigs", "--level", str(level), f"--mu={mu}", *fmt, *check)


def _multiplicity_argv(level, mu, grid, fmt, check):
    return ("multiplicity", "--level", str(level), f"--mu={mu}", f"--grid={grid}", *fmt, *check)


_GRIDS = st.sampled_from(["0", "2,0,-1", "-6:6:5", "3.7"])
_LEVEL_COMMANDS = st.one_of(
    st.builds(lambda *args: (True, _eigs_argv(*args)), st.integers(0, 5), _LEVEL_MUS, _FORMATS,
              _CHECKS),
    st.builds(lambda *args: (True, _multiplicity_argv(*args)), st.integers(1, 5), _LEVEL_MUS,
              _GRIDS, _FORMATS, _CHECKS),
    st.builds(lambda *args: (False, _eigs_argv(*args)), st.integers(0, 5), _BAD_MUS, _FORMATS,
              _CHECKS),
    st.builds(lambda *args: (False, _eigs_argv(*args)), st.integers(-3, -1), _LEVEL_MUS,
              _FORMATS, _CHECKS),
    st.builds(lambda *args: (False, _multiplicity_argv(*args)), st.integers(-2, 0), _LEVEL_MUS,
              _GRIDS, _FORMATS, _CHECKS),
    st.builds(lambda *args: (False, _multiplicity_argv(*args)), st.integers(1, 5), _BAD_MUS,
              _GRIDS, _FORMATS, _CHECKS),
)


@given(case=_LEVEL_COMMANDS)
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_level_commands_end_in_a_documented_exit(capsys, case):
    valid, argv = case

    def outcome():
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, err = outcome()
    assert outcome() == (code, out, err)
    assert "Traceback" not in err
    if code in (EXIT_DOMAIN, EXIT_CONVERGENCE):
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert code in (EXIT_OK, EXIT_CHECK) and err == ""
    if not valid:
        assert code == EXIT_DOMAIN
    elif code == EXIT_DOMAIN:
        # the one refusal of a well-formed level and parameter: a level matrix
        # whose Frobenius norm overflows, which needs |mu| over 1e150
        assert err == "error: dense eigensolver expects finite entries with a finite norm\n"
        assert abs(measure.mu_value(measure.parse_mu(argv[3][5:]))) > 1e150
    if code == EXIT_CONVERGENCE:
        assert err.startswith("error: rotation sweeps exhausted with off-diagonal residual ")


# the exceptional values 0 and +-1, the B3 parameters 3/2 and 7/6, a double
# just past 1, +-1e300, in-band collision forms b1:p/q:n and b2:j/k, and
# doubles log-uniform up to 1e300
_PARAMETER_MUS = st.one_of(
    st.sampled_from(["rat:0/1", "rat:1/1", "rat:-1/1", "rat:3/2", "rat:7/6", "float:1.0000001",
                     "float:1e300", "float:-1e300"]),
    st.integers(2, 12).flatmap(lambda q: st.builds(
        lambda p, n: f"b1:{p}/{q}:{n}",
        st.sampled_from([p for p in range(1, q) if math.gcd(p, q) == 1]),
        st.integers(1, 30).filter(lambda n: n % q != 0))),
    st.integers(1, 20).flatmap(lambda k: st.builds(lambda j: f"b2:{j}/{k}", st.integers(1, k))),
    st.builds(lambda sign, e: f"float:{sign * 10.0**e!r}", _SIGNS, st.floats(-300.0, 300.0)),
)
_BAD_PARAMETER_MUS = _BAD_MUS | st.sampled_from(["b1:2/4:1", "b1:1/3:3", "b1:0/3:1", "b2:0/3",
                                                 "b2:4/3"])
_JOINT_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1.5, 7 / 6, 1.0000001, 1e300, -1e300]),
    st.builds(lambda sign, e: sign * 10.0**e, _SIGNS, st.floats(-300.0, 300.0)),
)
_JOINT_GRIDS = st.lists(_JOINT_VALUES, min_size=1, max_size=3).map(
    lambda values: ",".join(repr(v) for v in values))
_BAD_JOINT_GRIDS = st.sampled_from(["nan", "inf", "x", "1e308", "1:0:0"])


def _spectral_cases(valid: bool):
    """(valid, argv) of spectrum, measure, joint-spectrum, dos and ns at small sizes."""
    mus = _PARAMETER_MUS if valid else _BAD_PARAMETER_MUS
    grids = _JOINT_GRIDS if valid else _BAD_JOINT_GRIDS
    depths = st.integers(1, 8)
    return st.one_of(
        st.builds(lambda mu, fmt: ("spectrum", f"--mu={mu}", *fmt), mus, _FORMATS),
        st.builds(lambda mu, depth, fmt, check: ("measure", f"--mu={mu}", "--depth", str(depth),
                                                 *fmt, *check),
                  mus, depths, _FORMATS, _CHECKS),
        st.builds(lambda grid, depth, fmt, check: ("joint-spectrum", "--depth", str(depth),
                                                   f"--grid={grid}", *fmt, *check),
                  grids, st.integers(1, 5), _FORMATS, _CHECKS),
        st.builds(lambda mu, sites, seed, depth, fmt, check: (
                      "dos", f"--mu={mu}", "--sites", str(sites), "--seed", str(seed),
                      "--depth", str(depth), *fmt, *check),
                  mus, st.integers(2, 2000), st.integers(0, 99), depths, _FORMATS, _CHECKS),
        st.builds(lambda mu, depth, fmt, check: ("ns", f"--mu={mu}", "--depth", str(depth),
                                                 *fmt, *check),
                  mus, st.integers(10, 20), _FORMATS, _CHECKS),
    ).map(lambda argv: (valid, argv))


# the refusals of well-formed input: a window with no interior block, and a
# parameter or depth outside what the gap sequence can certify
_DOCUMENTED_REFUSALS = {
    "dos": ("error: no interior blocks",),
    "ns": ("error: gap sequence ", "error: need "),
}


@given(case=_spectral_cases(True) | _spectral_cases(False))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_spectral_commands_end_in_a_documented_exit(capsys, case):
    valid, argv = case

    def outcome():
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, err = outcome()
    assert outcome() == (code, out, err)
    assert "Traceback" not in err
    assert re.search(r"\bnan\b", out.lower()) is None
    if code == EXIT_DOMAIN:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert code in (EXIT_OK, EXIT_CHECK) and err == ""
    if not valid:
        assert code == EXIT_DOMAIN
    elif code == EXIT_DOMAIN:
        assert err.startswith(_DOCUMENTED_REFUSALS.get(argv[0], ())), err


@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", "--mu", "float:1e300", "--depth", "2"),
        ("zeros", "--mu", "float:1e300", "--depth", "2", "--check"),
        ("char-poly", "--level", "2", "--mu", "float:0.3", "--grid", "1e300", "--check"),
    ],
)
def test_recurrence_argument_over_the_scaled_range_exits_two(capsys, argv):
    # the scaled recurrence used to overflow here and print inf,nan rows
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: recurrence argument")


@pytest.mark.parametrize("level", ["-1", "0", "-100000"])
@pytest.mark.parametrize("check", [(), ("--check",)])
def test_multiplicity_level_below_one_exits_two(capsys, level, check):
    # the level is checked before the grid, whose time estimate at level
    # -100000 is over the bound
    code, out, err = _run(capsys, "multiplicity", "--level", level, "--mu", "float:0.3",
                          "--grid", "0:1:1000", *check)
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == ["error: level must be >= 1"]


def test_multiplicity_level_cap_binds_only_the_check(capsys, monkeypatch):
    # the check would build and diagonalise the level matrix, so the dense
    # limit binds it, before anything is built; the factorization builds none
    def built(n):
        raise AssertionError("the level matrix was built")

    monkeypatch.setattr(lamplighter, "build_level", built)
    argv = ("multiplicity", "--level", "10", "--mu", "float:0.3", "--grid", "2")
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert out.splitlines() == ["lam,multiplicity,is_root", "2,0,0"]
    code, out, err = _run(capsys, *argv, "--check")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [
        "error: level 10 exceeds 9, the highest level the dense eigensolver finishes within 60 s"
    ]


def test_multiplicity_check_refuses_a_level_before_printing(capsys):
    code, out, err = _run(capsys, "multiplicity", "--level", "14", "--mu", "float:0.3",
                          "--grid", "0", "--check")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [
        "error: level 14 needs 30 * 4^14 bytes of dense matrices, over the budget of 2 GiB"
    ]


@pytest.mark.parametrize("level", ["10", "13"])
def test_eigs_over_the_dense_limit_is_refused_before_the_level_matrix_is_built(
        capsys, monkeypatch, level):
    # the rotation solver took 148 s at level 10 on 2 cores
    def built(n):
        raise AssertionError("the level matrix was built")

    monkeypatch.setattr(lamplighter, "build_level", built)
    code, out, err = _run(capsys, "eigs", "--level", level, "--mu", "float:0.3", "--check")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [
        f"error: level {level} exceeds 9, the highest level the dense eigensolver finishes within 60 s"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "--mu", "float:nan", "--depth", "5"),
        ("spectrum", "--mu", "inf"),
        ("dos", "--mu", "float:-inf", "--sites", "1000"),
    ],
)
def test_non_finite_parameter_exits_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == "" and err.startswith("error: ") and "finite" in err


def test_convergence_failure_exits_four(capsys, monkeypatch):
    def exhausted(matrix):
        raise ConvergenceError("rotation sweeps exhausted", residual=3.4e-7)

    monkeypatch.setattr(lamplighter, "dense_eigs", exhausted)
    argv = ["eigs", "--level", "3", "--mu", "float:0.3"]
    with pytest.raises(ConvergenceError):
        main(argv)
    assert run(argv) == EXIT_CONVERGENCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: rotation sweeps exhausted"]


def test_level_over_the_memory_budget_exits_two(capsys):
    # the budget is checked before the dense limit: level 16 would take 129 GB
    code, out, err = _run(capsys, "eigs", "--level", "16", "--mu", "float:0.3")
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == [
        "error: level 16 needs 30 * 4^16 bytes of dense matrices, over the budget of 2 GiB"
    ]


def test_output_files_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["dos", "--mu", "float:0.3", "--sites", "5000", "--seed", "11",
            "--depth", "8"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.csv"
    assert main(["dos", "--mu", "float:0.3", "--sites", "5000", "--seed", "12",
                 "--depth", "8", "--out", str(out3)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() != out3.read_bytes()


def test_csv_reals_have_full_precision(capsys):
    code, out, _ = _run(capsys, "zeros", "--mu", "float:0.1", "--depth", "2")
    assert code == EXIT_OK
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "0.10000000000000001" or row[2] == "0.1"


@pytest.mark.parametrize(
    "argv",
    [
        ("char-poly", "--level", "2", "--mu", "float:0.3", "--grid=a:b:3"),
        ("char-poly", "--level", "2", "--mu", "float:0.3", "--grid=0:1:2.5"),
        ("multiplicity", "--level", "2", "--mu", "float:0.3", "--grid", "foo"),
        ("char-poly", "--level", "2", "--mu", "float:0.3", "--grid", ",", "--check"),
        ("joint-spectrum", "--depth", "2", "--grid", " ", "--check"),
        # non-finite values, in a comma list, at an end, or from hi - lo overflowing
        ("multiplicity", "--level", "3", "--mu", "float:0.3", "--grid", "nan,inf", "--check"),
        ("char-poly", "--level", "2", "--mu", "float:0.3", "--grid=0:inf:3"),
        ("joint-spectrum", "--depth", "2", "--grid=nan:1:3", "--check"),
        ("multiplicity", "--level", "2", "--mu", "float:0.3", "--grid=-1e308:1e308:3"),
        # a count over the cap is refused before any grid point is made (7.28 TiB here)
        ("char-poly", "--level", "1", "--mu", "float:0.3", "--grid=0:1:1000000000000"),
        ("multiplicity", "--level", "1", "--mu", "float:0.3", "--grid=0:1:1000000000000"),
        ("joint-spectrum", "--depth", "2", "--grid=0:1:1000000000000", "--check"),
    ],
)
def test_malformed_grid_exits_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and "grid" in err


@pytest.mark.parametrize(
    "argv, module, function",
    [
        (("joint-spectrum", "--depth", "200", "--grid=-3:3:1000000"), ghpolys, "g_zeros"),
        (("joint-spectrum", "--depth", "8", "--grid=-3:3:1000000"), ghpolys, "g_zeros"),
        (("char-poly", "--level", "12", "--mu", "float:0.3", "--grid=-6:6:1000000"),
         lamplighter, "phi_det_signlog"),
        (("char-poly", "--level", "12", "--mu", "float:0.3", "--grid=-6:6:30"),
         lamplighter, "phi_det_signlog"),
        # 10^6 rows fit at any level, so only the check's dense limit refuses this
        (("multiplicity", "--level", "12", "--mu", "float:0.3", "--grid=-6:6:1000000",
          "--check"), measure, "measure_truncation"),
        # the level is a depth of multiplicity's sweep, capped like --depth
        (("multiplicity", "--level", "100000", "--mu", "float:0.3", "--grid", "0"),
         measure, "measure_truncation"),
        (("multiplicity", "--level", str(10**400), "--mu", "float:0.3", "--grid", "0"),
         measure, "measure_truncation"),
    ],
    ids=["joint-d200", "joint-d8", "char-poly-l12", "char-poly-l12-g30", "mult-l12",
         "mult-l100000", "mult-l1e400"],
)
def test_grid_over_the_work_bound_is_refused_before_any_work(capsys, monkeypatch, argv,
                                                             module, function):
    def worked(*args):
        raise AssertionError("the work began before the grid was checked")

    monkeypatch.setattr(module, function, worked)
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert len(err.splitlines()) == 1
    if argv[0] == "multiplicity":
        level = argv[2]
        assert err == (f"error: level {level} exceeds 9, the highest level the dense "
                       "eigensolver finishes within 60 s\n" if "--check" in argv else
                       f"error: level must be <= {cli._DEPTH_MAX}, got {level}\n")
    else:
        assert err.startswith("error: ") and f"exceed the bound of {cli._GRID_SECONDS_MAX} s" in err


def test_multiplicity_grid_is_priced_per_row(capsys):
    # the sweep over G_1 .. G_level runs once, so a row costs the same at
    # every level and the count cap of 10^6 rows is within the time bound
    assert len(cli._parse_grid("-6:6:1000000", cli._ROW_SECONDS)) == cli._GRID_MAX
    assert cli._GRID_MAX * cli._ROW_SECONDS <= cli._GRID_SECONDS_MAX
    # 4 - mu is the lead factor's simple root, and no G_k's zero
    code, out, err = _run(capsys, "multiplicity", "--level", str(cli._DEPTH_MAX),
                          "--mu", "float:0.3", "--grid", "3.7")
    assert (code, out.splitlines()[1].split(",")[1:], err) == (EXIT_OK, ["1", "1"], "")
    code, out, err = _run(capsys, "multiplicity", "--level", str(cli._DEPTH_MAX + 1),
                          "--mu", "float:0.3", "--grid", "3.7")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.splitlines() == [f"error: level must be <= {cli._DEPTH_MAX}, got 201"]


def test_grid_bound_admits_the_default_grid_at_level_12(capsys, monkeypatch):
    for function in ("phi_det_signlog", "phi_factorized_signlog"):  # skip the LUs
        monkeypatch.setattr(lamplighter, function, lambda n, lam, mu: (1.0, 0.0))
    code, out, _ = _run(capsys, "char-poly", "--level", "12", "--mu", "float:0.3")
    assert code == EXIT_OK and len(out.splitlines()) == 1 + 25
    # level 13 is within the memory budget: one point (16.5 s) is admitted, 25 are not
    code, out, _ = _run(capsys, "char-poly", "--level", "13", "--mu", "float:0.3", "--grid", "0.5")
    assert code == EXIT_OK and len(out.splitlines()) == 1 + 1
    code, out, err = _run(capsys, "char-poly", "--level", "13", "--mu", "float:0.3")
    assert code == EXIT_DOMAIN and out == "" and "grid points" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("zeros", "--mu", "float:0.3", "--depth", "-3", "--check"),
        ("joint-spectrum", "--depth", "0", "--check"),
        ("measure", "--mu", "float:0.3", "--depth", "0", "--check"),
        ("dos", "--mu", "float:0.3", "--sites", "2000", "--depth", "0", "--check"),
    ],
)
def test_depth_below_one_exits_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert err.splitlines() == ["error: depth must be >= 1"]


_HUGE = "1" + "0" * 400  # an integer far beyond the largest double


@pytest.mark.parametrize("mu", [f"rat:{_HUGE}/1", f"b1:1/{_HUGE}:1", f"b2:1/{_HUGE}"])
def test_parameter_overflowing_a_float_exits_two(capsys, mu):
    code, out, err = _run(capsys, "spectrum", "--mu", mu)
    assert code == EXIT_DOMAIN and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert err.rstrip().endswith("does not fit in a float")


def test_parameter_underflowing_to_zero_is_accepted(capsys):
    assert _run(capsys, "spectrum", "--mu", f"rat:1/{_HUGE}") == \
        _run(capsys, "spectrum", "--mu", "rat:0/1")


_CHECKED = {
    "char-poly": ("char-poly", "--level", "2", "--mu", "rat:0/1", "--grid", "0,1,3"),
    "eigs": ("eigs", "--level", "2", "--mu", "float:0.3"),
    "zeros": ("zeros", "--mu", "float:0.3", "--depth", "3"),
    "dos": ("dos", "--mu", "float:0.3", "--sites", "2000", "--depth", "8"),
    "ns": ("ns", "--mu", "float:2", "--depth", "8"),
    # these decide by `coalesce_tol` and exact masses, so they take no --tol
    "measure": ("measure", "--mu", "rat:0/1", "--depth", "5"),
    "multiplicity": ("multiplicity", "--level", "2", "--mu", "rat:0/1", "--grid", "0"),
}
_NO_TOL = {"measure", "multiplicity"}


@pytest.mark.parametrize("command", sorted(_CHECKED))
@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "abc"])
def test_bad_tolerance_exits_two_at_parse_time(capsys, command, tol):
    with pytest.raises(SystemExit) as exc:
        main([*_CHECKED[command], "--check", "--tol", tol])
    assert exc.value.code == EXIT_DOMAIN
    captured = capsys.readouterr()
    reason = "unrecognized arguments: --tol" if command in _NO_TOL else "argument --tol"
    assert captured.out == "" and reason in captured.err


@pytest.mark.parametrize("command", ["char-poly"])
def test_zero_tolerance_is_allowed(capsys, command):
    # the output is exact: the level-2 determinant at mu = 0
    assert _run(capsys, *_CHECKED[command], "--check", "--tol", "0")[0] == EXIT_OK


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--mu", "float:0.3", "--check"),
        ("spectrum", "--mu", "float:0.3", "--check", "--tol", "5"),
        ("spectrum", "--mu", "float:0.3", "--tol", "5"),
        ("joint-spectrum", "--depth", "3", "--grid", "0", "--tol", "5"),
        # these decide by `coalesce_tol` and exact masses, so there is no bound to set
        pytest.param(("measure", "--mu", "rat:0/1", "--depth", "5", "--check", "--tol", "0"),
                     id="measure-tol"),
        pytest.param(("multiplicity", "--level", "2", "--mu", "rat:0/1", "--grid", "0",
                      "--check", "--tol", "1e-7"), id="multiplicity-tol"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == EXIT_DOMAIN
    assert "unrecognized arguments" in capsys.readouterr().err

"""The public names of the package, pinned so that any change to them is deliberate."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "Atom", "AtomicMeasure", "B1Mu", "B2Mu", "CapacityError", "ConvergenceError",
    "DisorderWindow", "DomainError", "EmpiricalIDS", "FloatMu", "GapSequence",
    "InsufficientDataError", "JacobiSample", "LevelRep", "MuParam", "NsInvariant",
    "PencilMatrix", "RationalMu", "SpectrumDescription", "TridiagonalMatrix",
    "ac_density", "anderson", "angular_form", "atom_mass_exact", "block_decompose",
    "build_jacobi_sample", "build_level", "chebyshev", "classify_mu", "compare_ids",
    "critical_index", "decay_rate", "dense_eigs", "eig_count_below", "empirical_ids",
    "errors", "format_mu", "g_value", "g_value_recursive", "g_zeros", "gap_sequence",
    "ghpolys", "ids_cdf", "isolated_eigenvalue", "isolated_mass", "jacobi",
    "jstar_spectrum", "jstar_truncation", "lamplighter", "level_cap", "line_ids",
    "m_function", "measure", "measure_truncation", "mu_value", "multiplicity_in_phi",
    "novikov", "ns_invariant", "parse_mu", "pencil_matrix", "pencil_spectrum", "phi_det",
    "phi_factorized", "sample_window", "tridiag_eigs", "u_eval", "u_ratio_limit", "u_zeros",
]


def test_public_names_are_pinned():
    # a fresh interpreter, so submodules imported by other tests (llspec.cli) do not show
    code = "import llspec; print(*sorted(n for n in dir(llspec) if not n.startswith('_')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    assert out.split() == sorted(PUBLIC)

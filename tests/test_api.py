"""The package's public names and the functions the benchmark traces, pinned on purpose."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import llspec

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

PUBLIC = [
    "Atom", "AtomicMeasure", "B1Mu", "B2Mu", "CapacityError", "ConvergenceError",
    "DisorderWindow", "DomainError", "EmpiricalIDS", "FloatMu", "GapSequence",
    "InsufficientDataError", "JacobiSample", "LevelRep", "MuParam", "NsInvariant",
    "PencilMatrix", "RationalMu", "SpectrumDescription", "TridiagonalMatrix",
    "ac_density", "anderson", "angular_form", "block_decompose", "build_jacobi_sample",
    "build_level", "chebyshev", "classify_mu", "compare_ids", "critical_index",
    "decay_rate", "dense_eigs", "empirical_ids", "errors", "format_mu", "g_value",
    "g_value_recursive", "g_zeros", "gap_sequence", "ghpolys", "isolated_eigenvalue",
    "isolated_mass", "jacobi", "jstar_spectrum", "jstar_truncation", "lamplighter",
    "level_cap", "line_ids", "measure", "measure_truncation", "mu_value",
    "multiplicity_in_phi", "novikov", "ns_invariant", "parse_mu", "pencil_matrix",
    "pencil_spectrum", "phi_det", "phi_factorized", "sample_window", "tridiag_eigs",
    "u_eval", "u_zeros",
]


def test_public_names_are_pinned():
    # a fresh interpreter, so submodules imported by other tests (llspec.cli) do not show
    code = "import llspec; print(*sorted(n for n in dir(llspec) if not n.startswith('_')))"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    ).stdout
    assert out.split() == sorted(PUBLIC)
    # `dir` reads the name table, not the submodules, so each name must also resolve
    assert [name for name in PUBLIC if not hasattr(llspec, name)] == []


def _public_functions(module) -> set[str]:
    # the functions the benchmark's tracer wraps: defined in the module itself, no leading `_`
    return {
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def test_benchmark_traced_names_exist():
    # a traced benchmark run reports a layer or named-function metric only
    # while that module or function exists, and still exits 0 without it
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    layers = [n.split(".")[0] for n in names if n.endswith(".self_s")]
    functions = [n.rsplit(".", 1)[0] for n in names if n.count(".") == 2]
    assert layers and functions
    for layer in layers:
        assert _public_functions(importlib.import_module(f"llspec.{layer}")), layer
    for name in functions:
        layer, function = name.split(".")
        assert function in _public_functions(importlib.import_module(f"llspec.{layer}")), name

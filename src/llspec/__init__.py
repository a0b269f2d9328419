"""Spectra and spectral measures of the lamplighter convolution pencil.

Library layout:

  chebyshev    second-kind Chebyshev evaluation and zeros
  lamplighter  level matrices, pencil determinants, dense eigen oracle
  ghpolys      the level polynomial family G_k/H_k in three realizations
  jacobi       J*(mu) truncations, tridiagonal eigenvalues, Sturm counts, outlier index
  measure      atomic spectral measure, exceptional-set mass calculus
  anderson     random Jacobi operator, empirical density of states
  novikov      gap decay at the accumulation point, power-law exponent
  cli          the `llspec` command

Public names resolve on first use: `llspec.g_zeros` imports `llspec.ghpolys`
the first time it is read, so `import llspec` loads no submodule and a
command pays only for the modules it calls.  `dir(llspec)` lists every
public name before any of them is loaded.
"""

from importlib import import_module as _import_module

# public name -> the submodule that defines it; the submodules themselves are public too
_SUBMODULE_OF = {
    name: module
    for module, names in {
        "chebyshev": ("u_eval", "u_zeros"),
        "errors": ("CapacityError", "ConvergenceError", "DomainError", "InsufficientDataError"),
        "ghpolys": ("angular_form", "g_value", "g_value_recursive", "g_zeros"),
        "jacobi": (
            "SpectrumDescription", "TridiagonalMatrix", "ac_density", "critical_index",
            "isolated_eigenvalue", "isolated_mass", "jstar_spectrum", "jstar_truncation",
            "pencil_spectrum", "tridiag_eigs",
        ),
        "lamplighter": ("LevelRep", "build_level", "dense_eigs", "pencil_matrix"),
        "measure": (
            "Atom", "AtomicMeasure", "B1Mu", "B2Mu", "FloatMu", "MuParam", "RationalMu",
            "classify_mu", "format_mu", "measure_truncation", "mu_value", "parse_mu",
        ),
        "anderson": (
            "EmpiricalIDS", "JacobiSample", "block_decompose", "build_jacobi_sample",
            "compare_ids", "empirical_ids", "line_ids", "sample_window",
        ),
        "novikov": ("GapSequence", "NsInvariant", "decay_rate", "gap_sequence", "ns_invariant"),
    }.items()
    for name in names
}
_SUBMODULES = frozenset(_SUBMODULE_OF.values())

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    try:
        module = _SUBMODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SUBMODULE_OF.keys() | _SUBMODULES)

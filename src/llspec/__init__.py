"""Spectra and spectral measures of the lamplighter convolution pencil.

Library layout:

  chebyshev    second-kind Chebyshev evaluation and zeros
  lamplighter  level matrices, pencil determinants, dense eigen oracle
  ghpolys      the level polynomial family G_k/H_k in three realizations
  jacobi       J*(mu) truncations, tridiagonal eigenvalues, Sturm counts, outlier index
  measure      atomic spectral measure, exceptional-set mass calculus
  anderson     random Jacobi operator, empirical density of states
  novikov      gap decay at the accumulation point, power-law exponent
  errors       the typed exceptions every refusal raises
  cli          the `llspec` command

Import each name from its module (`from llspec.ghpolys import g_zeros`):
the package itself defines no public name and imports no submodule, so a
command pays only for the modules it calls.
"""

__version__ = "0.1.0"

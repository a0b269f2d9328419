"""Spectra and spectral measures of the lamplighter convolution pencil.

Library layout:

  chebyshev    second-kind Chebyshev evaluation, ratio limits, zeros
  lamplighter  level matrices, pencil determinants, dense eigen oracle
  ghpolys      the level polynomial family G_k/H_k in three realizations
  jacobi       J*(mu) truncations, tridiagonal eigenvalues, m-function, outlier index
  measure      atomic spectral measure, exceptional-set mass calculus
  anderson     random Jacobi operator, empirical density of states
  novikov      gap decay at the accumulation point, power-law exponent
  cli          the `llspec` command
"""

from .chebyshev import u_eval, u_ratio_limit, u_zeros
from .errors import CapacityError, ConvergenceError, DomainError, InsufficientDataError
from .ghpolys import angular_form, g_value, g_value_recursive, g_zeros
from .jacobi import (
    SpectrumDescription,
    TridiagonalMatrix,
    ac_density,
    critical_index,
    eig_count_below,
    isolated_eigenvalue,
    isolated_mass,
    jstar_spectrum,
    jstar_truncation,
    m_function,
    pencil_spectrum,
    tridiag_eigs,
)
from .lamplighter import (
    LevelRep,
    PencilMatrix,
    build_level,
    dense_eigs,
    level_cap,
    pencil_matrix,
    phi_det,
    phi_factorized,
)
from .measure import (
    Atom,
    AtomicMeasure,
    B1Mu,
    B2Mu,
    FloatMu,
    MuParam,
    RationalMu,
    atom_mass_exact,
    classify_mu,
    format_mu,
    ids_cdf,
    measure_truncation,
    multiplicity_in_phi,
    mu_value,
    parse_mu,
)
from .anderson import (
    DisorderWindow,
    EmpiricalIDS,
    JacobiSample,
    block_decompose,
    build_jacobi_sample,
    compare_ids,
    empirical_ids,
    line_ids,
    sample_window,
)
from .novikov import GapSequence, NsInvariant, decay_rate, gap_sequence, ns_invariant

__version__ = "0.1.0"

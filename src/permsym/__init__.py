"""Numerics for permutation-symmetric multi-qubit systems.

Exact reduced density matrices of qubit blocks in O(N) dimension, random
PS state ensembles with their analytic averages, entropy / mutual
information / TMI measures, the quantum kicked top with OTOCs, and
concentration-of-measure checks.
"""

from .concentration import (empirical_concentration, levy_bound,
                            lipschitz_bound_linear, lipschitz_bound_tmi,
                            lipschitz_bound_vn)
from .core import (PSState, block_eigenvalues, coefficient_matrix,
                   coherent_state, dicke_norm, embed_coeff, embed_coeff_table,
                   embed_to_full, load_state, reduced_density_matrix, save_state)
from .ensembles import (EnsembleSpec, SpectralHistogram, avg_linear_entropy_ps,
                        avg_linear_entropy_wishart, avg_purity_ps,
                        avg_tmi_linear_ps_111, avg_tmi_linear_ps_mmm,
                        avg_tmi_vn_ps, avg_tmi_vn_wishart,
                        avg_vn_entropy_ps, comb_identity_residual,
                        marchenko_pastur_density, page_entropy,
                        sample_ps_state, sample_wishart_rdm,
                        spectral_histogram, stream)
from .errors import CapacityError, DomainError, IntegrityError
from .kickedtop import (KickedTopParams, OtocSeries, SpinSystem,
                        build_spin_system, classical_step, ehrenfest_time,
                        evolve, lyapunov_exponent, otoc_series,
                        phase_portrait, time_averaged_tmi_grid,
                        timeseries_measures)
from .measures import (LINEAR, VON_NEUMANN, EntropyKind, entropy,
                       mutual_information, renyi, tmi)

__version__ = "0.1.0"

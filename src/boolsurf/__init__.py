"""Sensitivity, Boolean surface area, and boundary geometry of Boolean
functions on the signed hypercube.

Exact truth-table analysis up to 24 variables, sparse multilinear
polynomials and their threshold functions, random restrictions,
hypergeometric block-partition bounds certified in integer interval
arithmetic, and seeded Monte Carlo for everything too big to enumerate.
"""

from .boundary import (BoundaryReport, EdgeThresholdCheck, boundary_report,
                       edge_biased_cdf, edge_threshold_check,
                       edge_threshold_check_exhaustive, level_sign_counts)
from .core import (EXACT_CAP, EXHAUSTIVE_CAP, FourierSpectrum, Influence,
                   SensitivityProfile, TruthTable, all_function_words, all_functions,
                   all_points_signs, bsa, bsa_via_tails, fractional_moment, gather_bits,
                   index_to_point, minus_mask, noise_sensitivity, noise_sensitivity_semigroup,
                   pack_signs, point_to_index, popcount_table, sensitivities, sensitivity,
                   sensitivity_histogram, spread_bits, to_signs, total_influence,
                   walsh_hadamard)
from .errors import (BoolsurfError, CapacityError, DegenerateInputError,
                     InputError, ParseError, VerificationError)
from .interval import Interval
from .partition import (BlockBoundReport, BlockPartitionSpec,
                        HypergeometricParams, JensenBounds, SandwichReport,
                        block_average_B, bsa_block_bound, gap_bound, hg_pmf,
                        jensen_bounds, mc_partition_average, mean_sqrt_hg,
                        near_equal_sizes, near_equal_sweep, sandwich_check)
from .ptf import (PolyStats, SparsePolynomial, alpha_estimate, alpha_exact,
                  eval_on_cube, eval_poly, generate, poly_stats, restrict_poly,
                  sign_table, variables_mask)
from .restriction import (FailureProbEstimate, Restriction,
                          SensitiveFractionReport, TailReport,
                          closeness_to_constant, restrict_table,
                          restriction_failure_prob, sample_restriction,
                          sensitive_fraction_bound_exhaustive,
                          tail_coupling_check)
from .seeding import Estimate, chunk_sizes, resolve_workers, substream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Sensitivity, Boolean surface area, and boundary geometry of Boolean
functions on the signed hypercube.

Exact truth-table analysis up to 24 variables, sparse multilinear
polynomials and their threshold functions, random restrictions,
hypergeometric block-partition bounds certified in integer interval
arithmetic, and seeded Monte Carlo for everything too big to enumerate.

The names below are the ones the CLI, the demos, the benchmark and the
README use; every other public name is imported from its own module.
"""

from . import boundary, core, errors, interval, partition, ptf, restriction, seeding
from .boundary import boundary_report, edge_threshold_check_exhaustive, level_sign_counts
from .core import (EXACT_CAP, TruthTable, bsa, bsa_via_tails, fractional_moment,
                   noise_sensitivity, noise_sensitivity_semigroup, total_influence)
from .errors import (BoolsurfError, CapacityError, DegenerateInputError, InputError, ParseError,
                     VerificationError)
from .partition import (BlockPartitionSpec, HypergeometricParams, block_average_B,
                        bsa_block_bound, hg_pmf, jensen_bounds, mc_partition_average,
                        mean_sqrt_hg, near_equal_sizes, near_equal_sweep, sandwich_check)
from .ptf import (SparsePolynomial, alpha_estimate, alpha_exact, generate, poly_stats,
                  restrict_poly, sign_table, variables_mask)
from .restriction import (Restriction, closeness_to_constant, restrict_table,
                          restriction_failure_prob, sample_restriction, tail_coupling_check)

__version__ = "0.1.0"

__all__ = [
    # submodules
    "boundary", "core", "errors", "interval", "partition", "ptf", "restriction", "seeding",
    # boundary
    "boundary_report", "edge_threshold_check_exhaustive", "level_sign_counts",
    # core
    "EXACT_CAP", "TruthTable", "bsa", "bsa_via_tails", "fractional_moment",
    "noise_sensitivity", "noise_sensitivity_semigroup", "total_influence",
    # errors
    "BoolsurfError", "CapacityError", "DegenerateInputError", "InputError", "ParseError",
    "VerificationError",
    # partition
    "BlockPartitionSpec", "HypergeometricParams", "block_average_B", "bsa_block_bound",
    "hg_pmf", "jensen_bounds", "mc_partition_average", "mean_sqrt_hg", "near_equal_sizes",
    "near_equal_sweep", "sandwich_check",
    # ptf
    "SparsePolynomial", "alpha_estimate", "alpha_exact", "generate", "poly_stats",
    "restrict_poly", "sign_table", "variables_mask",
    # restriction
    "Restriction", "closeness_to_constant", "restrict_table", "restriction_failure_prob",
    "sample_restriction", "tail_coupling_check",
]

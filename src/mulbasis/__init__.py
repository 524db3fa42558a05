"""Multiplicative bases of order two: exact searches, reductions, and certified bounds.

Modules:
  numtheory    prime tables, divisors, prime-factor entries over a list of primes
  productsets  cover checks, exact and constructed interval bases
  reduction    normal-form reduction, marking sets, factorial divisibility
  spherelab    vectors over F_3 as uint8 rows: S_3 censuses, covers, overlap trials
  certificates pairing graphs, inequality reports, the end-to-end bound
  cli          deterministic command line reports
"""

from .certificates import (
    ComponentAnalysis,
    InequalityReport,
    PairingGraph,
    PipelineError,
    PipelineResult,
    build_pairing_graph,
    end_to_end_lower_bound,
    sphere_cover_report,
)
from .numtheory import PrimeTable, ResourceLimitError, sieve
from .productsets import (
    APSpec,
    BasisSolution,
    construct_interval_basis,
    exact_min_basis,
    first_uncovered,
    min_size_search,
)
from .reduction import (
    FactorialCheck,
    InvariantViolationError,
    MarkingSets,
    ReducedPair,
    build_marking_sets,
    factorial_divisibility_check,
    reduce_pair,
)
from .spherelab import (
    DifferenceCase,
    DifferenceCensus,
    OverlapCheck,
    OverlapRefinedCheck,
    check_sphere_overlap,
    check_sphere_overlap_general,
    difference_census,
    sphere_construction_basis,
    sphere_first_uncovered,
    sphere_min_basis,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "APSpec",
    "BasisSolution",
    "ComponentAnalysis",
    "DifferenceCase",
    "DifferenceCensus",
    "FactorialCheck",
    "InequalityReport",
    "InvariantViolationError",
    "MarkingSets",
    "OverlapCheck",
    "OverlapRefinedCheck",
    "PairingGraph",
    "PipelineError",
    "PipelineResult",
    "PrimeTable",
    "ReducedPair",
    "ResourceLimitError",
    "build_marking_sets",
    "build_pairing_graph",
    "check_sphere_overlap",
    "check_sphere_overlap_general",
    "construct_interval_basis",
    "difference_census",
    "end_to_end_lower_bound",
    "exact_min_basis",
    "factorial_divisibility_check",
    "first_uncovered",
    "min_size_search",
    "reduce_pair",
    "sieve",
    "sphere_construction_basis",
    "sphere_cover_report",
    "sphere_first_uncovered",
    "sphere_min_basis",
]

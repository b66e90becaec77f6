"""Exact solvers for maximum-forward-arc Hamilton oriented cycles and paths.

Supported digraph classes: semicomplete multipartite (SMD) and locally
semicomplete (LSD).  Optima come with certificate walks that are re-verified
against the input before being returned; an exact subset-DP oracle
provides independent ground truth on small instances.
"""

from .digraph import (
    ComponentDecomposition,
    Digraph,
    OrientedHamWalk,
    PartiteStructure,
    WalkKind,
    build_digraph,
    is_semicomplete,
    is_strong,
    recognize_lsd,
    recognize_smd,
    strong_components,
    underlying_is_2connected,
    underlying_is_connected,
    validate_walk,
)
from .errors import (
    InputError,
    InternalVerificationError,
    NotAWalkError,
    OracleBoundError,
    StrongDigraphError,
)
from .factor_flow import (
    CostDigraph,
    SpanningFactor,
    max_cost_cycle_factor,
    max_cost_one_path_cycle_factor,
    min_cost_assignment,
    symmetric_01,
)
from .generate import gen_lsd_nonstrong, gen_lsd_strong, gen_smd
from .harness import SolveReport, UnsupportedClassError, classify, solve, verify_report
from .instance_io import ParsedInstance, ParseError, parse_instance, serialize_instance
from .lsd import (
    greedy_c1_cl_path,
    ham_cycle_strong_lsd,
    ham_cycle_strong_semicomplete,
    ham_path_lsd,
    lsd_decomposition,
    mfahoc_lsd,
    mfahop_lsd,
)
from .oracle import (
    OracleResult,
    oracle_factor_cost,
    oracle_ham_cycle,
    oracle_mfahoc,
    oracle_mfahop,
)
from .smd import (
    OrderedCycleFactor,
    ham_path_distinct_ends,
    has_ham_oriented_cycle_smd,
    has_ham_oriented_path_smd,
    hc_majority,
    hp_majority,
    irreducible_ordered_cycle_factor,
    is_hamiltonian_smd,
    mfahoc_smd,
    mfahop_smd,
    weakly_dominates,
)

__version__ = "0.1.0"

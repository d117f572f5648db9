"""Neighborhood-based hypergraph core decomposition, densest-subhypergraph
search, and SIR diffusion experiments."""

from .model import (
    BuildReport,
    GuardError,
    Hypergraph,
    HypergraphError,
    InputError,
    SingletonPolicy,
    build,
    load_hg,
    parse_hg,
    serialize_hg,
)
from .peel import CoreAssignment, e_peel, local_lower_bound, peel
from .localcore import (
    ConvergenceReport,
    LocalCoreOptions,
    core_correction,
    h_operator,
    local_core,
    neighborhood_hierarchy,
)
from .kdcore import KDCoreResult, degree_core, kd_decompose, kd_fixpoint_oracle
from .densest import (
    DensestResult,
    brute_force_densest,
    exact_densest,
    greedy_densest,
    guarantee_factor,
    volume_density,
)
from .diffusion import SirOutcome, intervention_delete, sir_expected_spread, sir_run
from .gen import (
    clique_expansion,
    clique_graph_core,
    naive_core_oracle,
    naive_graph_h_index,
    oracle_k_core_sets,
    random_hypergraph,
)

__version__ = "0.1.0"

__all__ = [
    "BuildReport",
    "ConvergenceReport",
    "CoreAssignment",
    "DensestResult",
    "GuardError",
    "Hypergraph",
    "HypergraphError",
    "InputError",
    "KDCoreResult",
    "LocalCoreOptions",
    "SingletonPolicy",
    "SirOutcome",
    "brute_force_densest",
    "build",
    "clique_expansion",
    "clique_graph_core",
    "core_correction",
    "degree_core",
    "e_peel",
    "exact_densest",
    "greedy_densest",
    "guarantee_factor",
    "h_operator",
    "intervention_delete",
    "kd_decompose",
    "kd_fixpoint_oracle",
    "load_hg",
    "local_core",
    "local_lower_bound",
    "naive_core_oracle",
    "naive_graph_h_index",
    "neighborhood_hierarchy",
    "oracle_k_core_sets",
    "parse_hg",
    "peel",
    "random_hypergraph",
    "serialize_hg",
    "sir_expected_spread",
    "sir_run",
    "volume_density",
]

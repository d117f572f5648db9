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
from .peel import CoreAssignment, e_peel, peel
from .localcore import ConvergenceReport, LocalCoreOptions, local_core
from .kdcore import KDCoreResult, degree_core, kd_decompose
from .densest import (
    DensestResult,
    brute_force_densest,
    exact_densest,
    greedy_densest,
    guarantee_factor,
    volume_density,
)
from .diffusion import SirOutcome, intervention_delete, sir_run
from .gen import clique_expansion, clique_graph_core, naive_graph_h_index, random_hypergraph

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
    "degree_core",
    "e_peel",
    "exact_densest",
    "greedy_densest",
    "guarantee_factor",
    "intervention_delete",
    "kd_decompose",
    "load_hg",
    "local_core",
    "naive_graph_h_index",
    "parse_hg",
    "peel",
    "random_hypergraph",
    "serialize_hg",
    "sir_run",
    "volume_density",
]

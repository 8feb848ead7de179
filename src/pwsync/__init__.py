"""Coupling-gain certification and simulation for networks of piecewise-smooth systems.

The package answers, for a network of identical piecewise-smooth nodes coupled
through a linear diffusive layer plus a discontinuous (sign-coupling) layer:
how large must the two coupling gains be for global asymptotic
synchronization? The sufficient gains are

    c > c*  = mu2(Q)    / (lambda2(L)  * mu2_lower(P Gamma)),
    cd >= cd* = mu_inf(M) / (delta_d    * mu_inf_lower(P Gamma_d)),

where (P, Q, M) certify the node dynamics, lambda2 is the algebraic
connectivity of the diffusive layer and delta_d the *minimum density* of the
discontinuous layer, a sparsest-cut connectivity measure computed here exactly
(small graphs) or by a size-constrained Kernighan-Lin search. A fixed-step
simulator verifies gains on concrete networks.
"""

from .dynamics import (
    CertificateCheck,
    PwsVectorField,
    SigmaQuadCertificate,
    SwitchTerm,
    certificate_from_decomposition,
    verify_sigma_quad,
)
from .graphs import (
    Graph,
    algebraic_connectivity,
    complete_graph,
    erdos_renyi_graph,
    generate_topology,
    incidence,
    is_connected,
    nearest_neighbours_graph,
    path_graph,
    read_graph_file,
    ring_graph,
    star_graph,
    write_graph_file,
)
from .matrix_measures import mu2, mu2_lower, mu_inf, mu_inf_lower
from .min_density import (
    EXACT_VERTEX_CAP,
    Cut,
    MinDensityResult,
    min_density_closed_form,
    min_density_exact,
    min_density_heuristic,
    remove_edges,
)
from .presets import relay_certificate, relay_feedback_system
from .simulate import (
    SimConfig,
    SimulationRun,
    coupling,
    error_metrics,
    simulate,
    write_run_csv,
    write_run_metadata,
)
from .star_functions import (
    SeminegativityCheck,
    StarFunctionParams,
    bipartition_generator,
    check_global_seminegativity,
    enumerate_bipartitions,
    min_a2_for_bipartition,
    phi,
)
from .thresholds import (
    ScenarioResult,
    ThresholdReport,
    compute_thresholds,
    critical_gains,
    min_density_auto,
    resilience_report,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "incidence",
    "is_connected",
    "algebraic_connectivity",
    "complete_graph",
    "star_graph",
    "path_graph",
    "ring_graph",
    "nearest_neighbours_graph",
    "erdos_renyi_graph",
    "generate_topology",
    "read_graph_file",
    "write_graph_file",
    "Cut",
    "MinDensityResult",
    "min_density_exact",
    "min_density_heuristic",
    "min_density_closed_form",
    "min_density_auto",
    "remove_edges",
    "EXACT_VERTEX_CAP",
    "mu2",
    "mu_inf",
    "mu2_lower",
    "mu_inf_lower",
    "SwitchTerm",
    "PwsVectorField",
    "SigmaQuadCertificate",
    "certificate_from_decomposition",
    "verify_sigma_quad",
    "CertificateCheck",
    "ThresholdReport",
    "critical_gains",
    "compute_thresholds",
    "ScenarioResult",
    "resilience_report",
    "StarFunctionParams",
    "phi",
    "bipartition_generator",
    "min_a2_for_bipartition",
    "enumerate_bipartitions",
    "SeminegativityCheck",
    "check_global_seminegativity",
    "SimConfig",
    "SimulationRun",
    "coupling",
    "simulate",
    "error_metrics",
    "write_run_csv",
    "write_run_metadata",
    "relay_feedback_system",
    "relay_certificate",
]

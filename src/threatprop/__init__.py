"""Bayesian detection of coordinated subnetworks on graphs.

Posterior threat probabilities propagate from observed vertices through a
random-walk diffusion model, solved either as a harmonic boundary-value
problem or by absorbing-walk simulation; space-time lifting exploits
temporal coordination.  Generators, spectral baselines, and ROC evaluation
round out the experiment loop.
"""

from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    EigenSolverError,
    ExperimentError,
    GraphError,
    ObservationError,
    ThreatPropagationError,
    ValidationFailure,
)
from .evaluation import RocCurve, auc_standard_error, convexity_defect, pd_pfa, roc
from .experiment import (
    ExperimentConfig,
    ExperimentResult,
    hmmb_detection_config,
    run_experiment,
    sbm_detection_config,
)
from .generators import (
    GeneratedNetwork,
    HmmbParams,
    SbmParams,
    default_hmmb_params,
    generate_hmmb,
    generate_sbm,
)
from .graph import Graph, Interaction, Observation, ObservationSet, build_graph, fiedler, laplacian
from .priors import PriorSpec, average_path_length, compute_prior, er_average_path_length
from .spacetime import (
    SpaceTimeSystem,
    TimeGrid,
    assemble_spacetime,
    coordination_prior,
    reduce_to_vertex_scores,
    solve_spacetime,
    spacetime_operator,
)
from .spatial import (
    AbsorbingChain,
    build_absorbing_chain,
    hitting_threat,
    monte_carlo_threat,
    solve_harmonic,
)
from .spectral import localized_modularity_scores, modularity_matrix, spectral_scores

__version__ = "0.1.0"

__all__ = [
    "AbsorbingChain",
    "ConvergenceError",
    "DisconnectedGraphError",
    "EigenSolverError",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentResult",
    "GeneratedNetwork",
    "Graph",
    "GraphError",
    "HmmbParams",
    "Interaction",
    "Observation",
    "ObservationError",
    "ObservationSet",
    "PriorSpec",
    "RocCurve",
    "SbmParams",
    "SpaceTimeSystem",
    "ThreatPropagationError",
    "TimeGrid",
    "ValidationFailure",
    "assemble_spacetime",
    "auc_standard_error",
    "average_path_length",
    "build_absorbing_chain",
    "build_graph",
    "compute_prior",
    "convexity_defect",
    "coordination_prior",
    "default_hmmb_params",
    "er_average_path_length",
    "fiedler",
    "generate_hmmb",
    "generate_sbm",
    "hitting_threat",
    "hmmb_detection_config",
    "laplacian",
    "localized_modularity_scores",
    "modularity_matrix",
    "monte_carlo_threat",
    "pd_pfa",
    "reduce_to_vertex_scores",
    "roc",
    "run_experiment",
    "sbm_detection_config",
    "solve_harmonic",
    "solve_spacetime",
    "spacetime_operator",
    "spectral_scores",
]

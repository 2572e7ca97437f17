"""Bayesian detection of coordinated subnetworks on graphs.

Posterior threat probabilities propagate from observed vertices through a
random-walk diffusion model, solved either as a harmonic boundary-value
problem or by absorbing-walk simulation; space-time lifting exploits
temporal coordination.  Generators, spectral baselines, and ROC evaluation
round out the experiment loop.

Importing the package loads none of its modules: each exported name loads
its module on first use, so a command pays only for the code it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported names by the module that defines them.
_EXPORTS = {
    "errors": ("ConvergenceError", "DisconnectedGraphError", "EigenSolverError", "ExperimentError", "GraphError",
               "ObservationError", "ThreatPropagationError", "ValidationFailure"),
    "evaluation": ("RocCurve", "auc_standard_error", "convexity_defect", "pd_pfa", "roc"),
    "experiment": ("ExperimentConfig", "ExperimentResult", "hmmb_detection_config", "run_experiment",
                   "sbm_detection_config"),
    "generators": ("GeneratedNetwork", "HmmbParams", "SbmParams", "default_hmmb_params", "generate_hmmb",
                   "generate_sbm"),
    "graph": ("Graph", "Interaction", "Observation", "ObservationSet", "build_graph", "laplacian"),
    "priors": ("PriorSpec", "average_path_length", "compute_prior", "er_average_path_length"),
    "spacetime": ("SpaceTimeSystem", "TimeGrid", "assemble_spacetime", "coordination_prior",
                  "reduce_to_vertex_scores", "solve_spacetime", "spacetime_operator"),
    "spatial": ("AbsorbingChain", "build_absorbing_chain", "hitting_threat", "monte_carlo_threat", "solve_harmonic"),
    "spectral": ("fiedler", "localized_modularity_scores", "spectral_scores"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

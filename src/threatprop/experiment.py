"""Monte-Carlo detection experiments.

Each trial draws an independent network, cues one true-foreground vertex
(ideal observation, threat probability one), runs every configured detector,
and pools (score, truth) pairs across trials into one ROC per detector.
Trials use independent counter-based substreams keyed by (seed, trial), and
pooling is an order-independent merge, so results are identical for any
worker count.

With ``threads > 1`` the trials run in a pool of that many worker processes
(at most one per trial), started with ``fork`` and kept for the life of the
process; it is rebuilt only when the worker count changes.
Workers therefore run the library as it was when the pool started, and
their memory does not show in the parent's ``RUSAGE_SELF``.
"""

from __future__ import annotations

import atexit
import logging
import threading
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ._solve import SOLVE_METHODS
from .errors import ExperimentError, GraphError, ThreatPropagationError, checked_number
from .evaluation import RocCurve, convexity_defect, roc, vertical_average
from .generators import GeneratedNetwork, HmmbParams, SbmParams, generate_hmmb, generate_sbm
from .graph import Graph, ObservationSet
from .priors import PriorSpec, compute_prior
from .spacetime import (MAX_ORDER, REDUCERS, TimeGrid, assemble_spacetime, reduce_to_vertex_scores,
                        solve_spacetime)
from .spatial import solve_harmonic
from .spectral import localized_modularity_scores

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

logger = logging.getLogger(__name__)

DETECTORS = ("sttp", "bfs", "spec")

# The largest share of a run's trials that may abort before the run fails.
MAX_ABORT_FRACTION = 0.01


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible detection experiment."""

    kind: str  # "sbm" | "hmmb"
    params: object
    detectors: tuple[str, ...] = DETECTORS
    trials: int = 100
    seed: int = 0
    time_bins: int = 24
    rate: float = 0.7
    variant: str = "coordinated"
    reducer: str = "max"
    tol: float = 1e-8
    solve_method: str = "iterative"
    cue_value: float = 1.0
    threads: int = 1  # worker processes; see run_experiment
    aggregate: str = "pool"  # or "vertical"

    def __post_init__(self):
        # A trial passes no spatial prior, so coordinated-spatial would abort every one.
        choices = {"kind": ("sbm", "hmmb"), "variant": ("weighted", "coordinated"), "reducer": REDUCERS,
                   "solve_method": SOLVE_METHODS, "aggregate": ("pool", "vertical")}
        for name, allowed in choices.items():
            if getattr(self, name) not in allowed:
                raise GraphError(f"unknown {name} {getattr(self, name)!r}; expected one of {', '.join(allowed)}")
        if not isinstance(self.detectors, (list, tuple)):
            raise GraphError(f"detectors must be a list, got {self.detectors!r}")
        bad = [d for d in self.detectors if d not in DETECTORS]
        if bad:
            raise GraphError(f"unknown detectors {bad}")
        if not self.detectors or len(set(self.detectors)) < len(self.detectors):
            raise GraphError(f"detectors must name each detector to run once, got {list(self.detectors)}")
        fixed = {
            "detectors": tuple(self.detectors),
            "trials": checked_number("trials", self.trials, integer=True, low=1),
            "seed": checked_number("seed", self.seed, integer=True, low=0),
            "time_bins": checked_number("time_bins", self.time_bins, integer=True, low=1),
            "threads": checked_number("threads", self.threads, integer=True, low=1),
            "rate": checked_number("rate", self.rate, low=0, open_low=True),
            "tol": checked_number("tol", self.tol, low=0, open_low=True),
            "cue_value": checked_number("cue_value", self.cue_value, low=0, high=1),
        }
        for name, val in fixed.items():
            object.__setattr__(self, name, val)
        params = {"sbm": SbmParams, "hmmb": HmmbParams}[self.kind]
        if not isinstance(self.params, params):
            raise GraphError(f"{self.kind} experiment needs {params.__name__}, got {type(self.params).__name__}")
        if self.params.n * self.time_bins > MAX_ORDER:  # refused before any trial draws a network
            raise GraphError(f"time_bins {self.time_bins} over {self.params.n} vertices exceeds the space-time "
                             f"order limit of {MAX_ORDER:,}")


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    curves: dict[str, RocCurve]
    aborted: tuple[tuple[int, str], ...] = ()

    def summary(self) -> dict:
        out = {
            "trials": self.config.trials,
            "aborted": len(self.aborted),
            "detectors": {},
        }
        for name, curve in self.curves.items():
            out["detectors"][name] = {
                "auc": curve.auc,
                "auc_se": curve.auc_se,
                "convexity_defect": convexity_defect(curve),
                "points": int(curve.pfa.size),
                "n_fg": curve.n_fg,
                "n_bg": curve.n_bg,
            }
        return out


def _trial_seed(seed: int, trial: int) -> int:
    return int(np.random.SeedSequence((seed, trial)).generate_state(1)[0])


def _cue_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, trial, 0xC))))


def choose_cue(net: GeneratedNetwork, rng: np.random.Generator) -> tuple[int, float | None]:
    """Pick one true-foreground vertex (uniformly among the non-isolated)
    and one of its foreground-internal interaction times.

    The vertex choice depends only on topology, so it is identical across
    runs that differ in timestamps alone.
    """
    fg = net.foreground_vertices
    if fg.size == 0:
        raise ExperimentError("no foreground vertices to cue")
    deg = net.graph.neighbor_counts
    candidates = fg[deg[fg] > 0]
    if candidates.size == 0:
        raise ExperimentError("all foreground vertices are isolated")
    cue = int(rng.choice(candidates))

    g, truth = net.graph, net.truth != 0
    at_u = g.u == cue
    touching = g.timed & (at_u | (g.v == cue))
    own_time = np.where(at_u, g.t_u, g.t_v)
    times = own_time[touching & truth[g.u] & truth[g.v]]
    if not times.size:
        times = own_time[touching]
    cue_time = float(times[int(rng.integers(times.size))]) if times.size else None
    return cue, cue_time


def bfs_detector_scores(g: Graph, cue: int, cue_value: float, tol: float, method: str) -> np.ndarray:
    """Spatial propagation with the ``bfs`` prior from the cue; a vertex it
    cannot reach ends at zero threat, its value under the absorbing-walk model."""
    obs = ObservationSet.of((cue, cue_value))
    psi = compute_prior(g, PriorSpec("bfs"), obs)
    return solve_harmonic(g, psi, obs, tol=tol, method=method, on_unreachable="zero")


def sttp_detector_scores(
    net: GeneratedNetwork, cue: int, cue_time: float | None, cfg: ExperimentConfig
) -> np.ndarray:
    grid = TimeGrid(t0=0.0, dt=net.params.horizon / cfg.time_bins, nt=cfg.time_bins)
    sys_ = assemble_spacetime(net.graph, grid, cfg.rate, mode_default="clique")
    obs = ObservationSet.of((cue, cfg.cue_value, cue_time) if cue_time is not None else (cue, cfg.cue_value))
    theta = solve_spacetime(
        sys_, obs, variant=cfg.variant, tol=cfg.tol, method=cfg.solve_method, on_isolated="zero"
    )
    return reduce_to_vertex_scores(theta, cfg.reducer)


def run_trial(cfg: ExperimentConfig, trial: int) -> dict[str, np.ndarray] | str:
    """One generate-cue-detect round; returns scores per detector or an
    abort reason.

    Only toolkit errors abort a trial; any other exception is a programming
    error and propagates.  The caller logs the abort, so that a trial run in
    a worker process is reported through the parent's handlers.
    """
    seed = _trial_seed(cfg.seed, trial)
    try:
        if cfg.kind == "sbm":
            net = generate_sbm(cfg.params, seed=seed)
        else:
            net = generate_hmmb(cfg.params, seed=seed)
        cue, cue_time = choose_cue(net, _cue_rng(cfg.seed, trial))
        scores: dict[str, np.ndarray] = {"_truth": net.truth.astype(np.int8)}
        for det in cfg.detectors:
            if det == "sttp":
                scores[det] = sttp_detector_scores(net, cue, cue_time, cfg)
            elif det == "bfs":
                scores[det] = bfs_detector_scores(net.graph, cue, cfg.cue_value, cfg.tol, cfg.solve_method)
            else:
                # Uncued baseline: localized eigenvector selection; the
                # principal vector keys on global bisection structure and is
                # blind to a small embedded subgraph.
                scores[det] = localized_modularity_scores(net.graph)
        return scores
    except ThreatPropagationError as exc:
        return f"{type(exc).__name__}: {exc}"


# The worker pool and its size; one pool serves every run_experiment call.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_lock = threading.Lock()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool of ``workers`` fork-started processes, built on first
    use and rebuilt only when the worker count changes.

    The pool modules are imported here, so a run without workers does not
    pay for them, and the pool is shut down at exit, before interpreter
    teardown reaches those modules."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    global _pool, _pool_workers
    with _pool_lock:
        if _pool is None or _pool_workers != workers:
            if _pool is not None:
                _pool.shutdown()
            _pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))
            _pool_workers = workers
            atexit.register(_pool.shutdown)
        return _pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget ``pool`` if it is still the shared one, so the next call starts a new one."""
    global _pool
    with _pool_lock:
        if _pool is pool:
            _pool = None


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials and pool per-detector ROC curves.

    ``cfg.threads`` counts worker processes, at most one per trial.  With
    more than one, trials are mapped over the shared fork-started pool (see
    the module docstring); outcomes come back in trial order either way, so
    results do not depend on the worker count.  Aborted trials are logged
    here, in trial order.

    Raises :class:`ExperimentError` when more than ``MAX_ABORT_FRACTION`` of
    trials abort or when none completes; the check runs here, in the calling
    process, also for pooled runs.  A programming error in a trial
    propagates with its own type.  If a worker dies, the pool is dropped and
    ``BrokenProcessPool`` propagates; the next call starts a new pool.
    """
    workers = min(cfg.threads, cfg.trials)
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool

        pool = _worker_pool(workers)
        try:
            outcomes = list(pool.map(partial(run_trial, cfg), range(cfg.trials)))
        except BrokenProcessPool:
            _drop_pool(pool)
            raise
    else:
        outcomes = [run_trial(cfg, t) for t in range(cfg.trials)]

    aborted = tuple((t, out) for t, out in enumerate(outcomes) if isinstance(out, str))
    for t, why in aborted:
        logger.warning("trial %d aborted: %s", t, why)
    if len(aborted) > MAX_ABORT_FRACTION * cfg.trials or len(aborted) == cfg.trials:
        raise ExperimentError(
            f"{len(aborted)}/{cfg.trials} trials aborted; first: trial {aborted[0][0]}: {aborted[0][1]}"
        )

    pooled: dict[str, list[np.ndarray]] = {det: [] for det in cfg.detectors}
    truths: list[np.ndarray] = []
    for out in outcomes:
        if isinstance(out, str):
            continue
        truths.append(out["_truth"])
        for det in cfg.detectors:
            pooled[det].append(out[det])

    done = cfg.trials - len(aborted)
    if cfg.aggregate == "vertical":
        curves = {
            det: vertical_average(
                roc(scores, truth) for scores, truth in zip(pooled[det], truths)
            )
            for det in cfg.detectors
        }
    else:
        truth_all = np.concatenate(truths)
        curves = {
            det: roc(np.concatenate(pooled[det]), truth_all, trials=done)
            for det in cfg.detectors
        }
    return ExperimentResult(config=cfg, curves=curves, aborted=aborted)


def sbm_detection_config(
    activity: float = 2.0,
    trials: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentConfig:
    """Benchmark blockmodel: two background communities with an embedded
    coordinated foreground of order 30 at ``activity`` times its
    connectivity-threshold density."""
    s = np.array(
        [
            [0.08, 0.02, 0.02],
            [0.02, 0.08, 0.02],
            [0.02, 0.02, checked_number("activity", activity) * 0.1],
        ]
    )
    params = SbmParams(sizes=(113, 113, 30), block_probs=s, foreground=2)
    return ExperimentConfig(kind="sbm", params=params, trials=trials, seed=seed, threads=threads)


def hmmb_detection_config(
    gamma_fg: float = 1.0,
    trials: int = 100,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentConfig:
    """Benchmark hybrid blockmodel at a chosen foreground coordination level."""
    from .generators import default_hmmb_params

    return ExperimentConfig(
        kind="hmmb",
        params=default_hmmb_params(gamma_fg=gamma_fg),
        trials=trials,
        seed=seed,
        rate=3.0,
        threads=threads,
    )

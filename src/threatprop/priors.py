"""A-priori per-vertex diffusion probabilities.

Each model produces a vector ``psi`` with entries in ``(0, 1]``: the
probability that threat survives a visit to the vertex instead of being
absorbed into the non-threat state.  Supported kinds:

* ``uniform`` -- constant ``psi0``;
* ``dwtp`` -- degree weighted, ``psi_v = 1 / deg(v)``;
* ``lwtp`` -- length weighted, constant ``2**(-1/l)`` with ``l`` the graph's
  average shortest-path length;
* ``bfs`` -- inversely proportional to hop distance from the observed set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph

from .errors import DisconnectedGraphError, GraphError, ObservationError
from .graph import Graph, ObservationSet

logger = logging.getLogger(__name__)

EULER_GAMMA = 0.5772156649015329

PRIOR_KINDS = ("uniform", "dwtp", "lwtp", "bfs")

# Smallest prior value; keeps the absorbing chain non-degenerate.
PRIOR_FLOOR = 1e-6

# Above this order the lwtp path length is the closed-form estimate for
# sparse random graphs instead of the all-pairs mean.
EXACT_PATH_LENGTH_LIMIT = 2000


@dataclass(frozen=True)
class PriorSpec:
    """Configuration of a diffusion-probability model."""

    kind: str = "dwtp"
    psi0: float = 1.0

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise GraphError(f"unknown prior kind {self.kind!r}")
        if not 0.0 < self.psi0 <= 1.0:
            raise GraphError("uniform prior value must lie in (0, 1]")


def hop_distances(g: Graph, sources) -> np.ndarray:
    """Minimum hop count from any source vertex, ``inf`` where unreachable."""
    d = csgraph.shortest_path(g.adjacency, method="D", unweighted=True, directed=False, indices=sources)
    if d.ndim == 2:
        d = d.min(axis=0)
    return d


def hop_prior(dist: np.ndarray) -> np.ndarray:
    """The ``bfs`` prior ``1 / d`` at hop distance ``d >= 1``, one on the
    sources and ``PRIOR_FLOOR`` where unreachable (``d = inf``)."""
    return np.clip(1.0 / np.maximum(dist, 1.0), PRIOR_FLOOR, 1.0)


def average_path_length(g: Graph) -> float:
    """Mean shortest-path hop distance over all unordered vertex pairs."""
    if g.n < 2:
        raise GraphError("average path length needs at least two vertices")
    d = csgraph.shortest_path(g.adjacency, method="D", unweighted=True, directed=False)
    iu = np.triu_indices(g.n, k=1)
    vals = d[iu]
    if np.isinf(vals).any():
        raise DisconnectedGraphError("average path length undefined on a disconnected graph")
    return float(vals.mean())


def er_average_path_length(n: int) -> float:
    """Closed-form average path length of a sparse random graph of order n.

    Valid for edge probability near ``log(n)/n`` (the almost-sure
    connectivity regime).
    """
    return (math.log(n) - EULER_GAMMA) / math.log(math.log(n)) + 0.5


def compute_prior(g: Graph, spec: PriorSpec, obs: ObservationSet | None = None) -> np.ndarray:
    """Evaluate a diffusion prior over all vertices.

    The ``bfs`` kind requires a nonempty observation set and errors on
    vertices unreachable from it.
    """
    if spec.kind == "uniform":
        psi = np.full(g.n, spec.psi0)
    elif spec.kind == "dwtp":
        deg = g.neighbor_counts
        if np.any(deg <= 0):
            raise GraphError("degree-weighted prior undefined at an isolated vertex")
        psi = 1.0 / deg
    elif spec.kind == "lwtp":
        if g.n > EXACT_PATH_LENGTH_LIMIT:
            l = er_average_path_length(g.n)
            logger.warning("order %d above exact limit %d: using closed-form path length %.4f",
                           g.n, EXACT_PATH_LENGTH_LIMIT, l)
        else:
            l = average_path_length(g)
        psi = np.full(g.n, 2.0 ** (-1.0 / l))
    else:  # bfs
        if obs is None:
            raise ObservationError("distance-weighted prior requires an observation set")
        # Only the cued vertices matter, not their cells: a space-time cue set
        # may pin one vertex to different values at different bins.
        sources = obs.vertices
        bad = sources[(sources < 0) | (sources >= g.n)]
        if bad.size:
            raise ObservationError(f"observed vertices {bad.tolist()} out of range for n={g.n}")
        dist = hop_distances(g, sources)
        if np.isinf(dist).any():
            bad = int(np.flatnonzero(np.isinf(dist))[0])
            raise DisconnectedGraphError(f"vertex {bad} disconnected from cue")
        psi = hop_prior(dist)
    return np.clip(psi, PRIOR_FLOOR, 1.0)

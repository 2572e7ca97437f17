"""A-priori per-vertex diffusion probabilities.

Each model produces a vector ``psi`` with entries in ``(0, 1]``: the
probability that threat survives a visit to the vertex instead of being
absorbed into the non-threat state.  Supported kinds:

* ``uniform`` -- constant ``psi0``;
* ``dwtp`` -- degree weighted, ``psi_v = 1 / deg(v)`` (one at a vertex
  without neighbours);
* ``lwtp`` -- length weighted, constant ``2**(-1/l)`` with ``l`` the graph's
  average shortest-path length over the vertex pairs that a path joins;
* ``bfs`` -- ``1 / d`` at hop distance ``d >= 1`` from the observed set, one
  on it and the floor where no path leads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DisconnectedGraphError, GraphError, ObservationError
from .graph import Graph, ObservationSet, upper_pairs

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


def average_path_length(g: Graph) -> float:
    """Mean shortest-path hop distance over the unordered vertex pairs that a
    path joins; a graph in which no pair is joined has none."""
    if g.n < 2:
        raise GraphError("average path length needs at least two vertices")
    from scipy.sparse import csgraph

    # csgraph counts a stored zero as an edge; a zero-weight record links
    # nothing here, as in ``Graph.hops`` and every operator.
    a = g.adjacency.copy()
    a.eliminate_zeros()
    d = csgraph.shortest_path(a, method="D", unweighted=True, directed=False)
    vals = d[upper_pairs(g.n)]
    joined = vals[np.isfinite(vals)]
    if not joined.size:
        raise DisconnectedGraphError("average path length undefined: no pair of vertices is joined by a path")
    return float(joined.mean())


def er_average_path_length(n: int) -> float:
    """Closed-form average path length of a sparse random graph of order n.

    Valid for edge probability near ``log(n)/n`` (the almost-sure
    connectivity regime).
    """
    return (math.log(n) - EULER_GAMMA) / math.log(math.log(n)) + 0.5


def compute_prior(g: Graph, spec: PriorSpec, obs: ObservationSet | None = None) -> np.ndarray:
    """Evaluate a diffusion prior over all vertices.

    ``bfs`` requires a nonempty observation set, and ``lwtp`` up to
    ``EXACT_PATH_LENGTH_LIMIT`` vertices a graph in which a path joins some
    pair of vertices.  Neither ``bfs`` nor
    ``dwtp`` refuses a vertex: ``bfs`` gives one that the cues cannot reach
    the floor, ``dwtp`` gives one without neighbours 1, and the prior there
    changes no threat.
    """
    if spec.kind == "uniform":
        psi = np.full(g.n, spec.psi0)
    elif spec.kind == "dwtp":
        psi = 1.0 / np.maximum(g.neighbor_counts, 1.0)
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
        psi = 1.0 / np.maximum(g.hops(sources), 1.0)  # 1/inf = 0 where unreachable, floored below
    return np.clip(psi, PRIOR_FLOOR, 1.0)

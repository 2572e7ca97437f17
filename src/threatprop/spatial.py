"""Spatial threat propagation, and the absorbing chain of any operator.

Two equivalent realizations of the same Bayesian model are provided:

* the harmonic solve of the generalized-Laplacian boundary-value problem,
  ``theta_i = -(L_ii)^{-1} L_ib theta_b`` with ``L = I - diag(psi) D^{-1} A``;
* an absorbing Markov chain whose absorbing states are the observed vertices
  plus one augmented non-threat state, where threat is the expected value at
  the walk's terminal state.

One :class:`AbsorbingChain` serves any operator ``P``, spatial or
hub-augmented space-time.  Its exact hitting-probability solve and its walk
simulation, which samples the stored rows of ``P`` in O(nnz) memory, exist
as independent cross-checks of the harmonic path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._solve import scale_rows, solve_boundary_value
from .errors import DisconnectedGraphError, GraphError, checked_number, checked_prior, checked_sums
from .graph import Graph, ObservationSet

logger = logging.getLogger(__name__)

# Walks still alive after this many steps count as absorbed to non-threat.
MAX_WALK_STEPS = 1_000_000


def propagation_operator(g: Graph, psi: np.ndarray, allow_isolated: bool = False) -> sp.csr_matrix:
    """Row-substochastic operator ``diag(psi) D^{-1} A``.

    Isolated vertices are an error unless allowed, in which case their rows
    are zero (a walk there is absorbed to non-threat immediately).
    """
    psi = checked_prior(psi, g.n)
    d = checked_sums(g.degrees, g.labels).copy()
    if np.any(d <= 0):
        if not allow_isolated:
            raise GraphError("propagation undefined at an isolated vertex")
        d[d <= 0] = 1.0  # rows are zero anyway
    return scale_rows(g.adjacency, psi / d)


def solve_harmonic(
    g: Graph,
    psi: np.ndarray,
    obs: ObservationSet,
    tol: float = 1e-10,
    method: str = "iterative",
    on_unreachable: str = "error",
) -> np.ndarray:
    """Posterior threat probability at every vertex given boundary observations.

    Vertices with no path to any observed vertex have zero threat under the
    absorbing-walk model; by default their presence raises
    :class:`DisconnectedGraphError`, with ``on_unreachable='zero'`` they are
    assigned exactly that zero.
    """
    boundary, values = obs.boundary(g.n)
    if on_unreachable == "error":
        reach = g.component_of(boundary)
        if not reach.all():
            bad = int(np.flatnonzero(~reach)[0])
            raise DisconnectedGraphError(f"vertex {bad} unreachable from any observed vertex")
    elif on_unreachable != "zero":
        raise ValueError(f"unknown on_unreachable policy {on_unreachable!r}")
    p = propagation_operator(g, psi, allow_isolated=on_unreachable == "zero")
    return solve_boundary_value(p, boundary, values, tol=tol, method=method)


@dataclass(frozen=True)
class AbsorbingChain:
    """Absorbing-walk realization of a row-substochastic operator ``p``.

    The ``boundary`` states absorb with their ``boundary_values``; every
    other (interior) state moves by its row of ``p`` and sends the missing
    mass ``1 - sum_j p_ij`` to one augmented non-threat state.  Canonical
    state order is interior states first, then the boundary states, then the
    non-threat state; ``g_block`` and ``h_block`` are the interior-to-interior
    and interior-to-boundary blocks of ``p`` under that order.
    """

    p: sp.csr_matrix
    boundary: np.ndarray
    boundary_values: np.ndarray

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def n_absorbing(self) -> int:
        """Absorbing state count: observed vertices plus the non-threat state."""
        return len(self.boundary) + 1

    @cached_property
    def interior(self) -> np.ndarray:
        return np.setdiff1d(np.arange(self.n), self.boundary)

    @cached_property
    def g_block(self) -> sp.csr_matrix:
        return self.p[self.interior][:, self.interior].tocsr()

    @cached_property
    def h_block(self) -> sp.csr_matrix:
        return self.p[self.interior][:, self.boundary].tocsr()

    @cached_property
    def absorb(self) -> np.ndarray:
        """Interior mass sent to the non-threat state."""
        return 1.0 - np.asarray(self.p.sum(axis=1)).ravel()[self.interior]

    @cached_property
    def transition_matrix(self) -> sp.csr_matrix:
        """Full (n+1) x (n+1) row-stochastic chain in canonical state order."""
        return sp.bmat([[self.g_block, self.h_block, sp.csr_matrix(self.absorb[:, None])],
                        [None, sp.identity(len(self.boundary)), None],
                        [None, None, sp.identity(1)]], format="csr")

    def invariant_basis(self) -> np.ndarray:
        """Nonnegative basis E of the unit-eigenvalue invariant subspace.

        Columns span the subspace satisfying ``T @ E == E``: the interior
        block is ``(I - G)^{-1} R`` with ``R = [H, absorb]``, padded with an
        identity over the absorbing states.
        """
        ni = len(self.interior)
        r = np.hstack([self.h_block.toarray(), self.absorb[:, None]])
        e1 = np.linalg.solve(np.eye(ni) - self.g_block.toarray(), r)
        return np.vstack([e1, np.eye(self.n_absorbing)])

    def hitting_matrix(self) -> np.ndarray:
        """Walk absorption probabilities ``(I - G)^{-1} H`` (interior x observed)."""
        ni = len(self.interior)
        return np.linalg.solve(np.eye(ni) - self.g_block.toarray(), self.h_block.toarray())


def build_absorbing_chain(g: Graph, psi: np.ndarray, obs: ObservationSet) -> AbsorbingChain:
    """Assemble the spatial absorbing chain for a graph, prior, and observation set."""
    return AbsorbingChain(propagation_operator(g, psi), *obs.boundary(g.n))


def hitting_threat(chain: AbsorbingChain) -> np.ndarray:
    """Exact threat vector from the hitting matrix, in original vertex order."""
    theta = np.zeros(chain.n)
    theta[chain.boundary] = chain.boundary_values
    if len(chain.interior):
        theta[chain.interior] = chain.hitting_matrix() @ chain.boundary_values
    return theta


@dataclass(frozen=True)
class MonteCarloThreat:
    """Walk-simulation estimate with diagnostics."""

    theta: np.ndarray
    capped_walks: int


def monte_carlo_threat(chain: AbsorbingChain, walks_per_vertex: int, seed: int) -> MonteCarloThreat:
    """Estimate threat by simulating absorbing random walks from every state.

    Randomness is counter-based: the uniform draw consumed by walk ``j`` at
    step ``s`` depends only on ``(seed, s, j)``, so results are bitwise
    reproducible regardless of scheduling or batching.  Walks still alive at
    ``MAX_WALK_STEPS`` count as absorbed to non-threat and are tallied in
    ``capped_walks``.
    """
    k = checked_number("walks_per_vertex", walks_per_vertex, integer=True, low=1)
    seed = checked_number("seed", seed, integer=True, low=0, high=2**64 - 1)
    n = chain.n
    # Transition CDFs in CSR layout: each row is the row of ``p`` in column
    # order and then the non-threat sink (state n), whose entry closes the
    # CDF at exactly 1 and so takes the missing mass.  Observed rows are
    # never sampled, since walks stop there.
    t = sp.hstack([chain.p.sorted_indices(), sp.csr_matrix(np.ones((n, 1)))], format="csr")
    indptr, cols, flat_cdf, length = t.indptr, t.indices, t.data, np.diff(t.indptr)
    # Cumulative sums within every row but its closing 1, one column position
    # at a time: the additions of a cumulative sum over the dense row.
    rows = np.arange(n)
    for j in range(1, int(length.max()) - 1):
        rows = rows[length[rows] > j + 1]
        flat_cdf[indptr[rows] + j] += flat_cdf[indptr[rows] + j - 1]
    np.minimum(flat_cdf, 1.0, out=flat_cdf)
    # Offsetting row s by s makes the flattened CDF table globally sorted, so
    # one searchsorted samples every walk's row at once.
    flat_cdf += np.repeat(np.arange(n), length)

    nb = len(chain.boundary)
    slot = np.full(n + 1, -1, dtype=np.int64)
    slot[chain.boundary] = np.arange(nb)

    total = n * k
    state = np.repeat(np.arange(n), k).astype(np.int64)
    absorbing = np.zeros(n + 1, dtype=bool)
    absorbing[chain.boundary] = True
    absorbing[n] = True

    # Terminal tallies per (start vertex, observed vertex); the non-threat
    # sink contributes nothing.
    counts = np.zeros((n, nb), dtype=np.int64)

    def tally(walk_ids):
        hits = walk_ids[slot[state[walk_ids]] >= 0]
        np.add.at(counts, (hits // k, slot[state[hits]]), 1)

    active = np.flatnonzero(~absorbing[state])
    tally(np.flatnonzero(absorbing[state]))

    capped = 0
    step = 0
    while active.size and step < MAX_WALK_STEPS:
        u = _step_uniforms(seed, step, total)[active]
        cur = state[active]
        pos = np.searchsorted(flat_cdf, u + cur)
        # A draw below ulp(cur) / 2 rounds to ``cur`` itself and ties with the
        # previous row's closing 1; it belongs to this row's first entry.
        np.maximum(pos, indptr[cur], out=pos)
        nxt = cols[pos]
        state[active] = nxt
        landed = absorbing[nxt]
        if landed.any():
            tally(active[landed])
            active = active[~landed]
        step += 1
    if active.size:
        capped = int(active.size)
        logger.warning("%d walks hit the %d-step cap; counting them as non-threat", capped, MAX_WALK_STEPS)

    theta = counts @ chain.boundary_values / k
    # When every walk of a vertex ends at one observed vertex, the estimate
    # is that boundary value exactly (no float accumulation drift).
    sure = np.flatnonzero(counts.max(axis=1) == k)
    theta[sure] = chain.boundary_values[np.argmax(counts[sure], axis=1)]
    return MonteCarloThreat(theta=theta, capped_walks=capped)


def _step_uniforms(seed: int, step: int, count: int) -> np.ndarray:
    """Uniforms for all walks at one step from a counter-based stream.

    The step sits in the counter's second word: Philox advances the first
    word once per four draws, so a step there would reuse the next step's
    draws for walks four places on."""
    bits = np.random.Philox(key=np.uint64(seed), counter=[0, step, 0, 0])
    return np.random.Generator(bits).random(count)

"""Spatial threat propagation.

Two equivalent realizations of the same Bayesian model are provided:

* the harmonic solve of the generalized-Laplacian boundary-value problem,
  ``theta_i = -(L_ii)^{-1} L_ib theta_b`` with ``L = I - diag(psi) D^{-1} A``;
* an absorbing Markov chain whose absorbing states are the observed vertices
  plus one augmented non-threat state, where threat is the expected value at
  the walk's terminal state.

The exact hitting-probability solve and the walk-simulation estimator exist
as independent cross-checks of the harmonic path.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._solve import solve_boundary_value
from .errors import DisconnectedGraphError, GraphError, checked_number, checked_prior
from .graph import Graph, ObservationSet

logger = logging.getLogger(__name__)

# Dense transition matrices for walk simulation are capped at this order.
_WALK_DENSE_LIMIT = 5000

# Walks still alive after this many steps count as absorbed to non-threat.
MAX_WALK_STEPS = 1_000_000


def propagation_operator(g: Graph, psi: np.ndarray, allow_isolated: bool = False) -> sp.csr_matrix:
    """Row-substochastic operator ``diag(psi) D^{-1} A``.

    Isolated vertices are an error unless allowed, in which case their rows
    are zero (a walk there is absorbed to non-threat immediately).
    """
    psi = checked_prior(psi, g.n)
    d = g.degrees.copy()
    if np.any(d <= 0):
        if not allow_isolated:
            raise GraphError("propagation undefined at an isolated vertex")
        d[d <= 0] = 1.0  # rows are zero anyway
    return (sp.diags(psi / d) @ g.adjacency).tocsr()


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
    """Absorbing-walk realization of spatial propagation.

    State order is canonical: interior vertices first, then the observed
    (absorbing) vertices, then the augmented non-threat state.  ``g_block``
    and ``h_block`` are the interior-to-interior and interior-to-boundary
    blocks of ``diag(psi) D^{-1} A`` under that permutation.
    """

    interior: np.ndarray
    boundary: np.ndarray
    boundary_values: np.ndarray
    g_block: sp.csr_matrix
    h_block: sp.csr_matrix
    absorb: np.ndarray  # interior mass sent to the non-threat state, 1 - psi_i
    n: int

    @property
    def n_absorbing(self) -> int:
        """Absorbing state count: observed vertices plus the non-threat state."""
        return len(self.boundary) + 1

    @cached_property
    def transition_matrix(self) -> sp.csr_matrix:
        """Full (n+1) x (n+1) row-stochastic chain in canonical state order."""
        ni, nb = len(self.interior), len(self.boundary)
        top = sp.hstack([self.g_block, self.h_block, sp.csr_matrix(self.absorb[:, None])])
        mid = sp.hstack([sp.csr_matrix((nb, ni)), sp.identity(nb, format="csr"), sp.csr_matrix((nb, 1))])
        bot = sp.hstack([sp.csr_matrix((1, ni)), sp.csr_matrix((1, nb)), sp.identity(1, format="csr")])
        return sp.vstack([top, mid, bot]).tocsr()

    def invariant_basis(self) -> np.ndarray:
        """Nonnegative basis E of the unit-eigenvalue invariant subspace.

        Columns span the subspace satisfying ``T @ E == E``: the interior
        block is ``(I - G)^{-1} R`` with ``R = [H, 1 - psi]``, padded with an
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
    """Assemble the absorbing chain for a graph, prior, and observation set."""
    p = propagation_operator(g, psi)
    boundary, values = obs.boundary(g.n)
    mask = np.zeros(g.n, dtype=bool)
    mask[boundary] = True
    interior = np.flatnonzero(~mask)
    return AbsorbingChain(
        interior=interior,
        boundary=boundary,
        boundary_values=values,
        g_block=p[interior][:, interior].tocsr(),
        h_block=p[interior][:, boundary].tocsr(),
        absorb=1.0 - np.asarray(psi, dtype=float)[interior],
        n=g.n,
    )


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
    """Estimate threat by simulating absorbing random walks from every vertex.

    Randomness is counter-based: the uniform draw consumed by walk ``j`` at
    step ``s`` depends only on ``(seed, s, j)``, so results are bitwise
    reproducible regardless of scheduling or batching.  Walks still alive at
    ``MAX_WALK_STEPS`` count as absorbed to non-threat and are tallied in
    ``capped_walks``.
    """
    k = checked_number("walks_per_vertex", walks_per_vertex, integer=True, low=1)
    seed = checked_number("seed", seed, integer=True, low=0, high=2**64 - 1)
    n = chain.n
    if n > _WALK_DENSE_LIMIT:
        raise GraphError(f"walk simulation supports up to {_WALK_DENSE_LIMIT} vertices, got {n}")

    # Dense per-state transition CDFs in original vertex order; observed
    # vertices self-absorb, state n is the non-threat sink.
    t = np.zeros((n + 1, n + 1))
    perm = np.concatenate([chain.interior, chain.boundary])
    ni = len(chain.interior)
    if ni:
        inner = np.hstack([chain.g_block.toarray(), chain.h_block.toarray(), chain.absorb[:, None]])
        cols = np.concatenate([perm, [n]])
        t[np.repeat(chain.interior, n + 1), np.tile(cols, ni)] = inner.ravel()
    t[chain.boundary, chain.boundary] = 1.0
    t[n, n] = 1.0
    cdf = np.minimum(np.cumsum(t, axis=1), 1.0)
    # Offsetting row s by s makes the flattened CDF table globally sorted, so
    # one searchsorted samples every walk's row at once.
    flat_cdf = (cdf + np.arange(n + 1)[:, None]).ravel()

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
    counts = np.zeros(n * nb, dtype=np.int64)

    def tally(walk_ids):
        hits = walk_ids[slot[state[walk_ids]] >= 0]
        if hits.size:
            counts[:] += np.bincount(
                (hits // k) * nb + slot[state[hits]], minlength=n * nb
            )

    active = np.flatnonzero(~absorbing[state])
    tally(np.flatnonzero(absorbing[state]))

    capped = 0
    step = 0
    while active.size and step < MAX_WALK_STEPS:
        u = _step_uniforms(seed, step, total)[active]
        cur = state[active]
        nxt = np.searchsorted(flat_cdf, u + cur) - cur * (n + 1)
        # Row sums are 1 up to rounding; clip the (measure ~ulp) overflow case.
        np.clip(nxt, 0, n, out=nxt)
        state[active] = nxt
        landed = absorbing[nxt]
        if landed.any():
            tally(active[landed])
            active = active[~landed]
        step += 1
    if active.size:
        capped = int(active.size)
        logger.warning("%d walks hit the %d-step cap; counting them as non-threat", capped, MAX_WALK_STEPS)

    counts = counts.reshape(n, nb)
    theta = counts @ chain.boundary_values / k
    # When every walk of a vertex ends at one observed vertex, the estimate
    # is that boundary value exactly (no float accumulation drift).
    sure = np.flatnonzero(counts.max(axis=1) == k)
    theta[sure] = chain.boundary_values[np.argmax(counts[sure], axis=1)]
    return MonteCarloThreat(theta=theta, capped_walks=capped)


def _step_uniforms(seed: int, step: int, count: int) -> np.ndarray:
    """Uniforms for all walks at one step from a counter-based stream."""
    bits = np.random.Philox(key=np.uint64(seed), counter=[np.uint64(step), 0, 0, 0])
    return np.random.Generator(bits).random(count)

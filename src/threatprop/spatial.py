"""Spatial threat propagation, and the absorbing chain of any operator.

Two equivalent realizations of the same Bayesian model are provided:

* the harmonic solve of the generalized-Laplacian boundary-value problem,
  ``theta_i = -(L_ii)^{-1} L_ib theta_b`` with ``L = I - diag(psi) D^{-1} A``;
* an absorbing Markov chain whose absorbing states are the observed vertices
  plus one augmented non-threat state, where threat is the expected value at
  the walk's terminal state.

A vertex that no cue reaches has exactly zero threat in both; only
:func:`solve_harmonic` decides whether to refuse one (:func:`require_reach`).

One :class:`AbsorbingChain` serves any operator ``P``, spatial or
hub-augmented space-time.  Its exact hitting-probability solve and its walk
simulation, which samples the stored rows of ``P`` in O(nnz) memory, exist
as independent cross-checks of the harmonic path.

``scipy.sparse`` is imported only where a CSR is built here (the chain's
transition matrix and the walks' CDF table), so importing this module, as
``experiment`` does, loads no scipy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._solve import _reaches_boundary, scale_rows, solve_boundary_value
from .errors import DisconnectedGraphError, checked_number, checked_prior
from .graph import Graph, ObservationSet

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Walks still alive after this many steps count as absorbed to non-threat.
MAX_WALK_STEPS = 1_000_000
# Philox makes four draws per counter block, and starting a stream costs about
# as much as 2,000 draws, so a run of more unused blocks than this between two
# active walks is skipped by starting a new stream after it.
STREAM_GAP_BLOCKS = 512


def propagation_operator(g: Graph, psi: np.ndarray) -> sp.csr_matrix:
    """Row-substochastic operator ``diag(psi) D^{-1} A``.

    A vertex without weight has a zero row: a walk there is absorbed to
    non-threat at once.
    """
    psi = checked_prior(psi, g.n)
    d = g.degrees
    return scale_rows(g.adjacency, psi / np.where(d > 0, d, 1.0))


def require_reach(g: Graph, sources) -> None:
    """Refuse a vertex with no path from ``sources``, named as the edge list names it."""
    cut = np.flatnonzero(~np.isfinite(g.hops(sources)))
    if cut.size:
        raise DisconnectedGraphError(f"vertex {g.name(cut[0])} unreachable from any observed vertex")


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
    :class:`DisconnectedGraphError` (:func:`require_reach`), with
    ``on_unreachable='zero'`` they are assigned exactly that zero.
    """
    boundary, values = obs.boundary(g.n)
    if on_unreachable == "error":
        require_reach(g, boundary)
    elif on_unreachable != "zero":
        raise ValueError(f"unknown on_unreachable policy {on_unreachable!r}")
    return solve_boundary_value(propagation_operator(g, psi), boundary, values, tol=tol, method=method)


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
        import scipy.sparse as sp

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
    reproducible regardless of scheduling or batching.  A state with no path
    to an observed state is absorbed to non-threat on arrival, which is its
    exact value.  Walks still alive at ``MAX_WALK_STEPS`` count as absorbed
    to non-threat and are tallied in ``capped_walks``.
    """
    k = checked_number("walks_per_vertex", walks_per_vertex, integer=True, low=1)
    seed = checked_number("seed", seed, integer=True, low=0, high=2**64 - 1)
    import scipy.sparse as sp

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

    state = np.repeat(np.arange(n), k).astype(np.int64)
    absorbing = np.zeros(n + 1, dtype=bool)
    absorbing[:n] = ~_reaches_boundary(chain.p, chain.boundary)
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
        u = _step_uniforms(seed, step, active)
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


def _step_uniforms(seed: int, step: int, walks: np.ndarray) -> np.ndarray:
    """Uniforms of ``walks`` (ascending walk ids) at one step, from a
    counter-based stream.

    Walk ``j`` reads lane ``j % 4`` of Philox block ``j // 4``, and a stream
    started at counter ``[c, step, 0, 0]`` begins at block ``c``, so only the
    blocks that runs of walks span are drawn.  The step sits in the counter's
    second word: Philox advances the first word once per block, so a step
    there would reuse the next step's draws for walks four places on."""
    block = walks // 4
    cut = np.flatnonzero(np.diff(block) > STREAM_GAP_BLOCKS) + 1
    out = np.empty(walks.size)
    for a, b in zip(np.r_[0, cut], np.r_[cut, walks.size]):
        first = block[a]
        bits = np.random.Philox(key=np.uint64(seed), counter=[first, step, 0, 0])
        out[a:b] = np.random.Generator(bits).random(4 * (block[b - 1] - first + 1))[walks[a:b] - 4 * first]
    return out

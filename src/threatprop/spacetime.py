"""Space-time threat propagation.

The timestamped graph is lifted to a graph on (vertex, time-bin) pairs.  Each
timestamped interaction between ``u`` and ``v`` contributes one sparse column
per direction: threat received at ``v`` near the interaction's ``v``-side
time couples to the threat at ``u`` in the bin of the interaction's
``u``-side time, weighted by the exponential kernel ``exp(-lam * |dt|)``.
Untimed edges enter either as identity blocks (instantaneous contact at
every bin) or as a time clique, the zero-rate limit of the kernel, in which
every bin of one endpoint couples uniformly to every bin of the other.

A time clique is stored through hub states rather than as its dense
nt x nt block of ``w / nt``.  Each vertex with an untimed record gets one
hub state, appended after the ``n * nt`` cells in sorted vertex order:
every bin of ``u`` points at the hub of ``v`` with the record's weight, and
the hub's row averages the bins of ``v``.  Eliminating the hubs (Meyer's
stochastic complement) gives back the dense block exactly, so a clique
costs ``2 * nt`` entries per record plus ``nt`` per hub instead of
``2 * nt**2``.  The hubs carry no prior, and the solve drops them from its
output.

The coordination prior measures how temporally aligned a vertex's
interactions are: it is the kernel mass arriving at a (vertex, bin) divided
by the vertex's total interaction weight, and equals one exactly when all
interactions hit the same discretized time.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._solve import scale_rows, solve_boundary_value
from .errors import GraphError, checked_prior
from .graph import Graph, ObservationSet

logger = logging.getLogger(__name__)

MODES = ("kernel", "instant", "clique")
VARIANTS = ("weighted", "coordinated", "coordinated-spatial")
REDUCERS = ("max", "mean")

# Kernel entries below this are dropped to preserve sparsity (not renormalized).
KERNEL_TRUNCATION = 1e-4

# Default bin width keeps per-bin kernel decay below one percent.
DT_ACCURACY = 0.02

# Lifted systems beyond this order are almost certainly a misconfigured grid.
MAX_ORDER = 20_000_000

# A propagate run peaks at about 60 bytes of RSS per matrix entry (594 MiB
# for 10.4M entries: a 1.5k-record blockmodel draw with 231 hubs at 3,840
# bins; 71 bytes at 1,920 bins, where the interpreter's own share weighs
# more), so this caps it near 1 GB.
MAX_ENTRIES = 16_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization of the observation horizon.

    Bin ``k`` covers ``[t0 + k*dt, t0 + (k+1)*dt)``; timestamps snap to the
    covering bin's center.
    """

    t0: float
    dt: float
    nt: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise GraphError(f"bin width must be positive and finite, got {self.dt}")
        if self.nt < 1:
            raise GraphError("grid needs at least one bin")

    @property
    def centers(self) -> np.ndarray:
        return self.t0 + (np.arange(self.nt) + 0.5) * self.dt

    @property
    def end(self) -> float:
        return self.t0 + self.nt * self.dt

    def bin_of(self, t):
        """Covering bin of a timestamp, or of each entry of an array of them."""
        t = np.asarray(t, dtype=float)
        # Half-bin slack at the ends absorbs roundoff in caller-supplied times.
        outside = ~((t >= self.t0 - 0.5 * self.dt) & (t <= self.end + 0.5 * self.dt))
        if np.any(outside):
            raise GraphError(f"timestamp {t[outside].flat[0]} outside grid [{self.t0}, {self.end})")
        k = np.clip(((t - self.t0) // self.dt).astype(np.int64), 0, self.nt - 1)
        return int(k) if k.ndim == 0 else k

    @classmethod
    def cover(cls, times: np.ndarray, dt: float | None = None, lam: float = 1.0, nt: int | None = None) -> "TimeGrid":
        """Grid spanning the observed times.

        Without an explicit ``dt``, the width is chosen so the slowest kernel
        loses under one percent per bin (``dt <= DT_ACCURACY / lam``), unless
        a bin count ``nt`` is forced.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            raise GraphError("no timestamps to cover")
        for name, value in (("bin width", dt), ("kernel rate", lam)):
            if value is not None and not (np.isfinite(value) and value > 0):
                raise GraphError(f"{name} must be positive and finite, got {value}")
        if nt is not None and nt < 1:
            raise GraphError("grid needs at least one bin")
        lo, hi = float(times.min()), float(times.max())
        span = max(hi - lo, 1e-9)
        if nt is not None:
            return cls(t0=lo, dt=span / nt * (1 + 1e-9), nt=nt)
        if dt is None:
            dt = DT_ACCURACY / lam
        n_bins = np.ceil(span / dt + 1e-9)
        if not n_bins <= MAX_ORDER:
            raise GraphError(f"a bin width of {dt:g} needs {n_bins:g} bins over the span {span:g}, over "
                             f"the {MAX_ORDER:,} limit; coarsen the grid (--bins/--dt)")
        return cls(t0=lo, dt=dt, nt=max(1, int(n_bins)))


def default_rate(g: Graph, horizon: float | None = None) -> float:
    """Decay rate with half-life at the data's natural timescale.

    Uses ``ln 2 / median positive inter-interaction gap`` pooled over
    vertices; falls back to the horizon scale when gaps degenerate.
    """
    timed = g.timed
    vertex = np.concatenate([g.u[timed], g.v[timed]])
    times = np.concatenate([g.t_u[timed], g.t_v[timed]])
    order = np.lexsort((times, vertex))
    vertex, times = vertex[order], times[order]
    d = np.diff(times)
    gaps = d[(vertex[1:] == vertex[:-1]) & (d > 0)]
    if gaps.size:
        return float(np.log(2.0) / np.median(gaps))
    if horizon:
        return 1.0 / horizon
    raise GraphError("cannot infer a kernel rate from a graph with no timestamps")


def kernel_profile(lam: float, lags: np.ndarray) -> np.ndarray:
    """Exponential threat kernel ``exp(-lam * |lag|)``."""
    return np.exp(-lam * np.abs(lags))


@dataclass(frozen=True)
class SpaceTimeSystem:
    """Assembled space-time operator on ``order = n * nt`` (vertex, bin)
    cells, followed by one hub state per vertex with a time clique."""

    graph: Graph
    grid: TimeGrid
    adjacency: sp.csr_matrix

    @property
    def order(self) -> int:
        return self.graph.n * self.grid.nt

    @property
    def hubs(self) -> int:
        return self.adjacency.shape[0] - self.order

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Total weight of every row of the adjacency, the hubs' included."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()


def assemble_spacetime(
    g: Graph,
    grid: TimeGrid,
    rates: float | np.ndarray = 1.0,
    mode_default: str = "clique",
    truncation: float = KERNEL_TRUNCATION,
) -> SpaceTimeSystem:
    """Build the weighted space-time adjacency from the graph's edge columns.

    Timestamped records use the kernel mode; untimed ones fall back to
    ``mode_default``.  Kernel rates may be global or per-vertex and must be
    positive.
    """
    if mode_default not in MODES:
        raise GraphError(f"unknown mode {mode_default!r}")
    lam = np.asarray(rates, dtype=float)
    if lam.ndim == 0:
        lam = np.full(g.n, float(lam))
    if lam.shape != (g.n,) or not np.all(np.isfinite(lam) & (lam > 0)):
        raise GraphError("kernel rates must be positive and finite, one global or one per vertex")
    if g.n * grid.nt > MAX_ORDER:
        raise GraphError(
            f"space-time order {g.n * grid.nt} exceeds {MAX_ORDER}; coarsen the grid (dt/bins)"
        )
    nt = grid.nt
    untimed = np.flatnonzero(~g.timed)
    if untimed.size and mode_default == "kernel":
        i = untimed[0]
        raise GraphError(f"interaction {i} ({g.u[i]},{g.v[i]}) has no timestamps for kernel mode")
    # The vertices with a time clique, in hub order.  Before truncation every
    # record spans nt entries per direction, and each hub row nt more.
    hubbed = np.unique(np.stack([g.u[untimed], g.v[untimed]])) if mode_default == "clique" else untimed[:0]
    entries = nt * (2 * g.size + hubbed.size)
    if entries > MAX_ENTRIES:
        raise GraphError(f"space-time grid of {nt} bins needs about {entries:,} matrix entries, over "
                         f"the {MAX_ENTRIES:,} limit; coarsen it (--bins/--dt)")

    # One entry rule over (records, 2 directions, nt bins): every record
    # couples receiver v from sender u, then u from v, at each bin of the
    # receiver.  The entry is the record's weight times the receiver's kernel
    # centred on its own bin, kept above the truncation, in the column of the
    # sender's bin.  An untimed record takes the kernel's zero-rate limit,
    # exactly its weight at every bin and always kept, in the column of the
    # sender's hub for a time clique or of the sender's same bin for instant
    # contact.
    cells, bins, timed = g.n * nt, np.arange(nt), g.timed[:, None]
    recv = np.stack([g.v, g.u], axis=1)
    send = recv[:, ::-1]
    t_recv = grid.bin_of(np.where(timed, np.stack([g.t_v, g.t_u], axis=1), grid.t0))
    centers = grid.centers
    vals = g.w[:, None, None] * kernel_profile(np.where(timed, lam[recv], 0.0)[..., None],
                                               centers - centers[t_recv][..., None])
    keep = (vals >= truncation) | ~timed[..., None]
    col = send * nt + t_recv[:, ::-1]
    if mode_default == "clique":
        col = np.where(timed, col, cells + np.searchsorted(hubbed, send))
    cols = np.broadcast_to(col[..., None], keep.shape)
    if mode_default == "instant":
        cols = cols + ~timed[..., None] * bins
    # Reading the kept entries in C order emits them record by record, as a
    # per-record loop would, and the hub rows come last: the CSR conversion
    # sums duplicates in input order, so this keeps the sums bitwise
    # reproducible.  A hub's row weighs each bin of its vertex by one.
    hubs = cells + np.arange(hubbed.size)
    rows = np.concatenate([(recv[..., None] * nt + bins)[keep], np.repeat(hubs, nt)])
    cols = np.concatenate([cols[keep], (hubbed[:, None] * nt + bins).ravel()])
    vals = np.concatenate([vals[keep], np.ones(hubbed.size * nt)])
    size = cells + hubbed.size
    a = sp.coo_matrix((vals, (rows, cols)), shape=(size, size)).tocsr()
    return SpaceTimeSystem(graph=g, grid=grid, adjacency=a)


def coordination_prior(sys: SpaceTimeSystem, on_isolated: str = "error") -> np.ndarray:
    """Per-(vertex, bin) alignment prior, shape ``(n, nt)``.

    Equals one exactly where all of a vertex's interaction weight arrives in
    a single discretized bin.  Values above one (stacked interactions) are
    clamped and reported.  An isolated spatial vertex is an error by
    default; ``on_isolated='zero'`` assigns it the absorbing prior instead.
    """
    d = sys.graph.interaction_weight.copy()
    if np.any(d <= 0):
        if on_isolated == "error":
            raise GraphError(f"isolated spatial vertex {int(np.argmin(d))} has no interactions")
        if on_isolated != "zero":
            raise ValueError(f"unknown on_isolated policy {on_isolated!r}")
        d[d <= 0] = 1.0  # their kernel mass is zero, so the ratio is zero
    mass = sys.row_sums[:sys.order].reshape(sys.graph.n, sys.grid.nt)
    psi = mass / d[:, None]
    over = int(np.count_nonzero(psi > 1.0 + 1e-12))
    if over:
        logger.info("coordination prior clamped at %d space-time vertices (stacked interactions)", over)
    return np.clip(psi, 0.0, 1.0)


def spacetime_operator(
    sys: SpaceTimeSystem,
    variant: str = "coordinated",
    spatial_psi: np.ndarray | None = None,
    on_isolated: str = "error",
) -> sp.csr_matrix:
    """Row-substochastic propagation operator over the states of ``sys``.

    ``weighted`` normalizes each row by its kernel mass, damped by an optional
    spatial prior; ``coordinated`` normalizes by spatial interaction weight,
    which folds in the coordination prior; ``coordinated-spatial`` also damps
    each vertex by a spatial prior.  Hub rows are averages and carry no prior.
    """
    if variant not in VARIANTS:
        raise GraphError(f"unknown variant {variant!r}")
    w = sys.row_sums
    scales = [np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)]
    if variant == "weighted":
        psi = None if spatial_psi is None else np.repeat(checked_prior(spatial_psi, sys.graph.n), sys.grid.nt)
    else:
        psi = coordination_prior(sys, on_isolated=on_isolated).ravel()
        if variant == "coordinated-spatial":
            if spatial_psi is None:
                raise GraphError("coordinated-spatial variant needs a spatial prior")
            psi = psi * np.repeat(checked_prior(spatial_psi, sys.graph.n), sys.grid.nt)
    if psi is not None:
        scales.append(np.concatenate([psi, np.ones(sys.hubs)]))
    return scale_rows(sys.adjacency, *scales)


def solve_spacetime(
    sys: SpaceTimeSystem,
    obs: ObservationSet,
    variant: str = "coordinated",
    spatial_psi: np.ndarray | None = None,
    tol: float = 1e-10,
    method: str = "iterative",
    on_isolated: str = "error",
) -> np.ndarray:
    """Threat probability over every (vertex, bin), shape ``(n, nt)``, under
    :func:`spacetime_operator`.  Space-time vertices with no kernel mass (or
    cut off from every cue) take the absorbing value zero."""
    p = spacetime_operator(sys, variant, spatial_psi, on_isolated)
    boundary, values = obs.boundary(sys.graph.n, sys.grid)
    inbound = np.bincount(p.indices, minlength=p.shape[1])
    inert = boundary[inbound[boundary] == 0]
    if inert.size:
        nt = sys.grid.nt
        cells = [(int(i) // nt, int(i) % nt) for i in inert[:5]]
        logger.warning(
            "%d cue cells have no inbound coupling (vertex inactive at that bin): %s",
            inert.size, cells,
        )
    theta = solve_boundary_value(p, boundary, values, tol=tol, method=method, hubs=sys.hubs)
    return theta[:sys.order].reshape(sys.graph.n, sys.grid.nt)


def reduce_to_vertex_scores(theta_st: np.ndarray, reducer: str = "max") -> np.ndarray:
    """Collapse a (vertex, bin) threat field to one detection score per vertex."""
    if reducer == "max":
        return theta_st.max(axis=1)
    if reducer == "mean":
        return theta_st.mean(axis=1)
    raise GraphError(f"unknown reducer {reducer!r}")

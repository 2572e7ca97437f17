"""Space-time threat propagation.

The timestamped graph is lifted to a graph on (vertex, time-bin) cells.  Each
timestamped interaction between ``u`` and ``v`` contributes one sparse column
per direction: threat received at ``v`` near the interaction's ``v``-side
time couples to the threat at ``u`` in the bin of the interaction's
``u``-side time, weighted by the exponential kernel ``exp(-lam * |dt|)``
where the kernel reaches the truncation.  Untimed edges enter either as
identity blocks (instantaneous contact at every bin) or as a time clique,
the zero-rate limit of the kernel, in which every bin of one endpoint
couples uniformly, ``w / nt``, to every bin of the other.

Every timed entry is a record's weight times one table ``K`` of the
truncated kernel between bin centres, so the lifted adjacency factors as
``A = (I_n kron K) B + U``.  ``B`` holds one entry per record end: the weight,
from the sender's cell at its bin to the receiver's cell at its bin.  ``U``
is the untimed part: ``C kron I`` for instant contact and
``C kron (1/nt) 11^T`` for time cliques, with ``C`` the n x n matrix of
untimed weights.  A product ``A @ x`` is therefore ``vec(mat(B x) K)`` plus
``C @ X``, or ``C`` times the bin mean of ``X`` broadcast over the bins.
``assemble_spacetime`` builds only these factors, and holds ``B`` and ``C``
as numpy columns (:class:`Entries`), so a product through them is one
``np.bincount`` scatter each and needs no scipy.  The propagation operator
``P = diag(s) A`` scales that product by its row factors ``s`` (one over the
row sum, then the prior, both read off the product on ones), so the
iterative solve never writes ``A`` out.  The cue cells with no inbound
coupling, which ``solve_spacetime`` reports, are read off the factors: a
cell is coupled where a column of ``B`` or an untimed record reaches it
(:attr:`SpaceTimeSystem.coupled`).  Where the dense ``nt x nt``
product would cost more than the kernel entries themselves (a fine grid, or
a kernel that keeps only a few bins around each record), the timed part is
written out instead, as a CSR over the cells with one window of kernel
entries per record end; the untimed part stays factored in both forms.
That form and the explicit adjacency below are scipy CSRs, and scipy is
imported where they are built.

``SpaceTimeSystem.adjacency`` writes the factors out on demand, plus hub
rows, for the direct method, the absorbing chain and the tests, with the
timed part in the written-out kernel's windows.  There a time clique is
stored through hub states rather than as its dense nt x nt block: each
vertex with an untimed record gets one hub state, appended after the
``n * nt`` cells in sorted vertex order; every bin of ``u`` points at the
hub of ``v`` with the record's weight, and the hub's row averages the bins
of ``v``.  Eliminating the hubs (Meyer's stochastic complement) gives back
the dense block, which is ``U``; the hubs carry no prior.

The coordination prior measures how temporally aligned a vertex's
interactions are: it is the kernel mass arriving at a (vertex, bin) divided
by the vertex's total interaction weight, and equals one exactly when all
interactions hit the same discretized time, and zero at a vertex without
interaction weight; only ``solve_spacetime`` decides whether to refuse one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ._solve import Entries, scale_rows, solve_boundary_value
from .errors import GraphError, checked_prior
from .graph import Graph, ObservationSet

if TYPE_CHECKING:
    import scipy.sparse as sp

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

# One multiply-add of the dense kernel product (through BLAS) costs about
# this fraction of one entry of the written-out kernel CSR, its build
# included (see _dense_kernel_pays).  Assembly plus solve on blockmodel
# draws (256 vertices, a quarter of background records untimed, 2 cores, one
# BLAS thread), over grids of 24 to 480 bins with kernels keeping +-1 bin to
# every bin, tie where the rule's break-even is 1/51 to 1/55; the dense form
# takes 9-55% less time at 1/38 and below, the written-out one 20-63% less
# at 1/69 and above.
DENSE_KERNEL_COST = 1 / 50

# A grid is refused when the explicit adjacency could exceed this many
# entries (2 per record and bin, 1 per hub and bin), since the direct method
# and the absorbing chain build a CSR of that size, and the written-out
# kernel builds at most its timed part.  Building the explicit operator
# peaks at about 60 bytes of RSS per entry (619 MiB for 10.4M entries: a
# 1.5k-record blockmodel draw with 231 hubs at 3,840 bins), so this caps it
# near 1 GB; the iterative CLI run on that grid peaks at 444 MiB.  It also
# caps the dense kernel table, whose nt**2 entries are at most the estimate,
# so it is checked at assembly: 10,000 timed records on 3 vertices at 20,000
# bins would take a 400M-entry (3.2 GB) table and build no CSR at all.
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
    """The space-time system on ``order = n * nt`` (vertex, bin) cells, held
    as the factors of its adjacency (see the module docstring): ``ends`` is
    ``B``, ``kernel`` the table ``K`` and ``spatial`` the matrix ``C``,
    applied as instant contact or as time cliques by ``mode``.  Where the
    dense table does not pay (:func:`_dense_kernel_pays`) ``kernel`` is
    None, and products use ``(I_n kron K) B`` written out over the cells,
    built on first use as a scipy CSR.  ``B`` and ``C`` are :class:`Entries`,
    numpy columns with one entry per record end and per direction of an
    untimed record, unmerged.  ``rate`` defines ``K`` where it is written
    out, here and in the explicit adjacency, which are the same entries."""

    graph: Graph
    grid: TimeGrid
    rate: float
    mode: str
    ends: Entries
    kernel: np.ndarray | None
    spatial: Entries

    @property
    def order(self) -> int:
        return self.graph.n * self.grid.nt

    @property
    def hubs(self) -> int:
        """Hub states of the explicit adjacency, one per vertex with a time clique."""
        return self.hub_vertices.size

    @property
    def hub_vertices(self) -> np.ndarray:
        """The vertices with a time clique, ascending, which is the order of
        their hub states after the cells."""
        return np.flatnonzero(_clique_vertices(self.spatial, self.mode))

    @cached_property
    def factors(self) -> tuple:
        """``(B, K, C)``, or ``((I_n kron K) B, None, C)`` where the dense
        table does not pay, written out from :func:`_timed_entries`."""
        if self.kernel is not None:
            return self.ends, self.kernel, self.spatial
        import scipy.sparse as sp

        return sp.csr_matrix(_timed_entries(self), shape=self.ends.shape), None, self.spatial

    def product(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` over the cells, with every time clique's hub eliminated."""
        n, nt = self.graph.n, self.grid.nt
        timed, kernel, spatial = self.factors
        y = timed @ x if kernel is None else ((timed @ x).reshape(n, nt) @ kernel).ravel()
        if spatial.nnz:
            x, cells = x.reshape(n, nt), y.reshape(n, nt)
            cells += spatial @ x if self.mode == "instant" else (spatial @ x.mean(axis=1))[:, None]
        return y

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Total weight of every cell's row, ``A @ 1``."""
        return self.product(np.ones(self.order))

    @property
    def coupled(self) -> np.ndarray:
        """Mask of the cells with inbound coupling, a positive entry of ``A``
        (or of a hub's row) in their column, read off the factors: the cell
        of a record end of positive weight (a column of ``B``), and every bin
        of a vertex with an untimed record, of any weight through its time
        clique's hub, of positive weight under instant contact."""
        ends, spatial = self.ends, self.spatial
        hit = np.zeros(self.order, dtype=bool)
        hit[ends.cols[ends.vals > 0]] = True
        untimed = spatial.cols if self.mode == "clique" else spatial.cols[spatial.vals > 0]
        hit.reshape(self.graph.n, self.grid.nt)[untimed] = True
        return hit

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """The explicit adjacency, built on demand: the factors written out
        over the cells, then one hub row per vertex with a time clique."""
        return _explicit_adjacency(self)


def assemble_spacetime(
    g: Graph,
    grid: TimeGrid,
    rates: float = 1.0,
    mode_default: str = "clique",
) -> SpaceTimeSystem:
    """Build the factors of the space-time adjacency from the graph's edge columns.

    Timestamped records use the kernel mode; untimed ones fall back to
    ``mode_default``.  The kernel rate is one positive number for every
    vertex.
    """
    if mode_default not in MODES:
        raise GraphError(f"unknown mode {mode_default!r}")
    if np.ndim(rates) != 0 or not (np.isfinite(rates) and rates > 0):
        raise GraphError(f"the kernel rate must be one positive and finite number, got {rates!r}")
    lam = float(rates)
    if g.n * grid.nt > MAX_ORDER:
        raise GraphError(
            f"space-time order {g.n * grid.nt} exceeds {MAX_ORDER}; coarsen the grid (dt/bins)"
        )
    nt, cells, timed = grid.nt, g.n * grid.nt, g.timed
    untimed = ~timed
    if untimed.any() and mode_default == "kernel":
        i = int(np.argmax(untimed))
        raise GraphError(f"interaction {i} ({g.u[i]},{g.v[i]}) has no timestamps for kernel mode")
    # The untimed weights in both directions, twice on a self-loop.
    su, sv, sw = g.u[untimed], g.v[untimed], g.w[untimed]
    spatial = Entries(np.concatenate([su, sv]), np.concatenate([sv, su]), np.concatenate([sw, sw]), (g.n, g.n))
    entries = nt * (2 * g.size + np.count_nonzero(_clique_vertices(spatial, mode_default)))
    if entries > MAX_ENTRIES:
        raise GraphError(f"space-time grid of {nt} bins needs about {entries:,} matrix entries, over "
                         f"the {MAX_ENTRIES:,} limit; coarsen it (--bins/--dt)")
    # One entry per record end: v's cell at v's bin takes the weight from
    # u's cell at u's bin, then u's from v's.
    w = g.w[timed]
    cell = np.concatenate([g.u[timed], g.v[timed]]) * nt + grid.bin_of(np.concatenate([g.t_u[timed], g.t_v[timed]]))
    ends = Entries(np.roll(cell, w.size), cell, np.concatenate([w, w]), (cells, cells))
    # The cost rule counts the written-out kernel's entries, which a
    # position shared by several record ends holds once.
    keys = np.sort(ends.rows * cells + ends.cols)
    positions = keys.size - np.count_nonzero(keys[1:] == keys[:-1])
    kernel = None
    if _dense_kernel_pays(g.n, positions, grid, lam):
        centers = grid.centers
        kernel = kernel_profile(lam, centers - centers[:, None])
        kernel[kernel < KERNEL_TRUNCATION] = 0.0
    return SpaceTimeSystem(g, grid, lam, mode_default, ends, kernel, spatial)


def _clique_vertices(spatial: Entries, mode: str) -> np.ndarray:
    """Mask of the vertices with a time clique, each of which has one hub
    state in the explicit adjacency: those with an untimed record in clique
    mode."""
    n = spatial.shape[0]
    return np.bincount(spatial.rows, minlength=n) > 0 if mode == "clique" else np.zeros(n, dtype=bool)


def _kernel_lags(grid: TimeGrid, lam: float) -> np.ndarray:
    """The bin lags at which the truncated kernel keeps its entry."""
    return np.flatnonzero(kernel_profile(lam, np.arange(grid.nt) * grid.dt) >= KERNEL_TRUNCATION)


def _dense_kernel_pays(n: int, ends: int, grid: TimeGrid, lam: float) -> bool:
    """Whether a product applies the kernel as the dense ``nt x nt`` table.

    One dense product is ``n * nt**2`` multiply-adds, each costing
    ``DENSE_KERNEL_COST`` of an entry of the written-out kernel, which has
    about ``ends * kept / nt`` entries for the table's ``kept`` nonzeros and
    the ``ends`` distinct positions of ``B``.  The table is used where it
    costs less per product and holds no more entries than the written-out
    form, so it is never the larger of the two.
    """
    nt = grid.nt
    lags = _kernel_lags(grid, lam)
    written = ends * float(((nt - lags) * np.where(lags > 0, 2, 1)).sum()) / nt
    return nt * nt * max(1.0, n * DENSE_KERNEL_COST) <= written


def _timed_entries(sys: SpaceTimeSystem) -> tuple:
    """The entries of ``(I_n kron K) B`` in the order of ``B``, as scipy's ``(vals, (rows, cols))``."""
    # Every record end (receiver cell at bin b, sender cell s, weight w) spreads
    # to w * K[b, t] at each bin t of its receiver, in column s.  Only a window
    # of bins around b can keep its entry: one lag beyond the last kept one, for
    # roundoff in the bin centres, and no wider than the grid, shifted inside it.
    nt, centers, ends = sys.grid.nt, sys.grid.centers, sys.ends
    half = int(_kernel_lags(sys.grid, sys.rate).max(initial=-1)) + 1
    width = min(nt, 2 * half + 1)
    recv, b = np.divmod(ends.rows, nt)
    t = np.clip(b - width // 2, 0, nt - width)[:, None] + np.arange(width)
    vals = kernel_profile(sys.rate, centers[t] - centers[b][:, None])
    keep = vals >= KERNEL_TRUNCATION
    rows = (recv[:, None] * nt + t)[keep]
    cols = np.broadcast_to(ends.cols[:, None], keep.shape)[keep]
    return (ends.vals[:, None] * vals)[keep], (rows, cols)


def _explicit_adjacency(sys: SpaceTimeSystem) -> sp.csr_matrix:
    """The space-time adjacency of ``sys`` written out from its factors,
    with hub states for time cliques."""
    import scipy.sparse as sp

    # The timed entries; each entry of C at every bin of its receiver, from
    # the sender's hub (time clique) or the sender's same bin (instant
    # contact); the hub rows, weighing each bin of their vertex by one.  The
    # CSR conversion keeps the positions of this order; it sums a repeated
    # position in this order only on rows of at most 16 entries, since scipy
    # sorts a longer row with an unstable sort, so there the values are
    # equal up to summation order.
    nt, spatial, hubbed = sys.grid.nt, sys.spatial, sys.hub_vertices
    cells, bins = sys.order, np.arange(nt)
    vals, (rows, cols) = _timed_entries(sys)
    send = (np.repeat(cells + np.searchsorted(hubbed, spatial.cols), nt) if sys.mode == "clique"
            else (spatial.cols[:, None] * nt + bins).ravel())
    hubs = np.repeat(cells + np.arange(hubbed.size), nt)
    rows = np.concatenate([rows, (spatial.rows[:, None] * nt + bins).ravel(), hubs])
    cols = np.concatenate([cols, send, (hubbed[:, None] * nt + bins).ravel()])
    vals = np.concatenate([vals, np.repeat(spatial.vals, nt), np.ones(hubbed.size * nt)])
    return sp.coo_matrix((vals, (rows, cols)), shape=(cells + hubbed.size,) * 2).tocsr()


def coordination_prior(sys: SpaceTimeSystem) -> np.ndarray:
    """Per-(vertex, bin) alignment prior, shape ``(n, nt)``.

    Equals one exactly where all of a vertex's interaction weight arrives in
    a single discretized bin.  Values above one (stacked interactions) are
    clamped and reported.  A vertex without interaction weight has no kernel
    mass either, and gets the absorbing prior zero.
    """
    d = sys.graph.interaction_weight
    mass = sys.row_sums.reshape(sys.graph.n, sys.grid.nt)
    psi = mass / np.where(d > 0, d, 1.0)[:, None]
    over = int(np.count_nonzero(psi > 1.0 + 1e-12))
    if over:
        logger.info("coordination prior clamped at %d space-time vertices (stacked interactions)", over)
    return np.clip(psi, 0.0, 1.0)


def _cell_prior(sys, variant, spatial_psi) -> np.ndarray | None:
    """The prior that scales each cell's row after ``1/w``; None for
    ``weighted`` without a spatial prior."""
    if variant not in VARIANTS:
        raise GraphError(f"unknown variant {variant!r}")
    if variant == "coordinated" and spatial_psi is not None:
        raise GraphError("coordinated variant takes no spatial prior; coordinated-spatial applies one")
    spatial = None if spatial_psi is None else np.repeat(checked_prior(spatial_psi, sys.graph.n), sys.grid.nt)
    if variant == "weighted":
        return spatial
    psi = coordination_prior(sys).ravel()
    if variant == "coordinated-spatial":
        if spatial is None:
            raise GraphError("coordinated-spatial variant needs a spatial prior")
        psi = psi * spatial
    return psi


def spacetime_operator(
    sys: SpaceTimeSystem,
    variant: str = "coordinated",
    spatial_psi: np.ndarray | None = None,
) -> sp.csr_matrix:
    """Row-substochastic propagation operator over the states of the explicit
    adjacency, hubs included, for the direct method and the absorbing chain.

    ``weighted`` normalizes each row by its kernel mass, damped by an optional
    spatial prior; ``coordinated`` normalizes by spatial interaction weight,
    which folds in the coordination prior, and refuses a spatial prior;
    ``coordinated-spatial`` also damps each vertex by a spatial prior.  Hub
    rows are averages and carry no prior.
    """
    psi = _cell_prior(sys, variant, spatial_psi)
    a = sys.adjacency
    w = np.asarray(a.sum(axis=1)).ravel()
    p = scale_rows(Entries.of_csr(a), np.divide(1.0, w, out=np.zeros_like(w), where=w > 0))
    return (p if psi is None else scale_rows(p, np.concatenate([psi, np.ones(sys.hubs)]))).tocsr()


@dataclass(frozen=True)
class FactoredOperator:
    """``P = diag(scale) A`` over the cells of ``system``, applied through its
    factors and never written out: the operator form that ``_solve`` takes."""

    system: SpaceTimeSystem
    scale: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.system.order, self.system.order

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = self.system.product(x)  # a fresh array, so it is scaled in place
        return np.multiply(y, self.scale, out=y)


def factored_operator(
    sys: SpaceTimeSystem,
    variant: str = "coordinated",
    spatial_psi: np.ndarray | None = None,
) -> FactoredOperator:
    """:func:`spacetime_operator` over the cells, with the hubs eliminated,
    applied through the factors of ``sys``; its row factor is ``1/w`` times
    the prior, with ``w`` the factored :attr:`SpaceTimeSystem.row_sums`."""
    psi = _cell_prior(sys, variant, spatial_psi)
    w = sys.row_sums
    scale = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)
    return FactoredOperator(sys, scale if psi is None else scale * psi)


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
    :func:`spacetime_operator`: the iterative method applies it through the
    factors (:func:`factored_operator`), and ``direct`` writes it out.
    Space-time vertices with no kernel mass (or cut off from every cue) take
    the absorbing value zero; an uncued vertex without interaction weight is
    refused under every variant unless ``on_isolated='zero'``."""
    boundary, values = obs.boundary(sys.graph, sys.grid)
    if on_isolated == "error":
        idle = sys.graph.interaction_weight <= 0
        idle[obs.vertices] = False
        if idle.any():
            raise GraphError(f"isolated spatial vertex {sys.graph.name(np.argmax(idle))} has no interactions")
    elif on_isolated != "zero":
        raise ValueError(f"unknown on_isolated policy {on_isolated!r}")
    p = (spacetime_operator if method == "direct" else factored_operator)(sys, variant, spatial_psi)
    nt = sys.grid.nt
    inert = boundary[~sys.coupled[boundary]]
    if inert.size:
        logger.warning("%d cue cells have no inbound coupling (vertex inactive at that bin): %s",
                       inert.size, [(int(i) // nt, int(i) % nt) for i in inert[:5]])
    theta = solve_boundary_value(p, boundary, values, tol=tol, method=method)
    return theta[:sys.order].reshape(sys.graph.n, nt)


def reduce_to_vertex_scores(theta_st: np.ndarray, reducer: str = "max") -> np.ndarray:
    """Collapse a (vertex, bin) threat field to one detection score per vertex."""
    if reducer == "max":
        return theta_st.max(axis=1)
    if reducer == "mean":
        return theta_st.mean(axis=1)
    raise GraphError(f"unknown reducer {reducer!r}")

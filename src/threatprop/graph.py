"""Graph representation, matrix views, and observation containers.

Vertices are dense integer indices ``0..n-1``; external string identifiers are
handled by the I/O layer and carried here only as an optional label table.
Graphs are undirected.  Edges are stored as parallel numpy columns
``u, v, w, t_u, t_v``, one entry per interaction record, so that repeated
timestamped contacts between the same pair survive construction; NaN in both
time columns marks an untimed record.  Every matrix view is computed from
these columns, and the adjacency view coalesces repeated records by weight
summation.  That view is :class:`Entries`, numpy columns in the order a
CSR stores it, and the degrees, the spatial propagation operator and the
modularity operator read it without scipy; ``Graph.adjacency`` writes it
out as a scipy CSR for the paths that need one.

Observations are the boundary of the harmonic problem.
``ObservationSet.boundary`` is the one rule that turns cues into boundary
cells: a vertex in the spatial problem, a (vertex, bin) pair in the
space-time one, where an untimed cue pins every bin.  A cell pinned twice to
the same value is one cell; pinned to two values it is an error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from ._solve import Entries, hop_levels, scale_rows
from .errors import GraphError, ObservationError

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .spacetime import TimeGrid

logger = logging.getLogger(__name__)

LAPLACIAN_KINDS = ("kirchhoff", "generalized")

# A stored weight is 0 or lies in this range.  Every propagation operator is
# a ratio of weights, and inside it every row sum, reciprocal, kernel product
# and prior of either model is a normal float, so no positive entry rounds
# to zero and none of them overflows.
MIN_WEIGHT, MAX_WEIGHT = 1e-100, 1e100


@lru_cache(maxsize=1)
def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns ``(iu, ju)`` of the vertex pairs ``i < j`` of order
    ``n``, in ``np.triu_indices(n, 1)`` order.

    Every all-pairs draw reads this table, and successive draws mostly share
    one order, so the last order's table is held; it is read-only because
    every caller shares it."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


class Interaction(NamedTuple):
    """One edge record: endpoints, weight, and an optional timestamp pair.

    Timestamps are in abstract time units; ``t_u`` is the event time seen at
    ``u`` and ``t_v`` the one seen at ``v``.  Either both are set or neither.
    """

    u: int
    v: int
    weight: float = 1.0
    t_u: float | None = None
    t_v: float | None = None

    @property
    def timestamped(self) -> bool:
        return self.t_u is not None


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected weighted graph stored as edge columns.

    ``u, v, w, t_u, t_v`` hold one entry per interaction record; omitted
    time columns mean every record is untimed.  Construction validates the
    columns (endpoints in range, finite nonnegative weights, times finite or
    NaN in both columns of a record) and merges duplicate untimed records of
    the same pair by weight summation, in record order at the position of the
    first; repeated timestamped records are legitimate multiplicity.  Every
    stored weight, a merged one included, must then be 0 or lie in
    ``[MIN_WEIGHT, MAX_WEIGHT]``.  All matrix views are built lazily and
    cached.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    t_u: np.ndarray | None = None
    t_v: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = int(self.n)
        if n <= 0:
            raise GraphError("empty graph")
        u, v = np.array(self.u, dtype=np.int64).reshape(-1), np.array(self.v, dtype=np.int64).reshape(-1)
        w = np.array(self.w, dtype=np.float64).reshape(-1)
        t_u, t_v = (np.full(u.size, np.nan) if t is None else np.array(t, dtype=np.float64).reshape(-1)
                    for t in (self.t_u, self.t_v))
        if not u.size == v.size == w.size == t_u.size == t_v.size:
            raise GraphError("edge columns differ in length")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise GraphError(f"label table has {len(labels)} entries for n={n}")

        def refuse(bad, message):
            # An edge is named by its labels once its indices are in range.
            if np.any(bad):
                i = int(np.argmax(bad))
                a, b = int(u[i]), int(v[i])
                if labels is not None and 0 <= min(a, b) and max(a, b) < n:
                    a, b = labels[a], labels[b]
                raise GraphError(message.format(e=f"({a}, {b})", n=n, w=w[i]))

        checks = (
            ((u < 0) | (v < 0), "negative vertex index in edge {e}"),
            ((u >= n) | (v >= n), "vertex index out of range for n={n} in edge {e}"),
            (~np.isfinite(w), "non-finite weight {w} on edge {e}"),
            (w < 0, "negative weight {w} on edge {e}"),
            (np.isnan(t_u) != np.isnan(t_v), "edge {e} has a half-set timestamp pair"),
            (np.isinf(t_u) | np.isinf(t_v), "non-finite timestamp on edge {e}"),
        )
        for bad, message in checks:
            refuse(bad, message)

        static = np.flatnonzero(np.isnan(t_u))
        keys = np.minimum(u[static], v[static]) * n + np.maximum(u[static], v[static])  # unordered pair
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        if first.size < static.size:
            dup = np.ones(static.size, dtype=bool)
            dup[first] = False
            total = w[static[first]]
            with np.errstate(over="ignore"):  # an overflowed sum is inf, which the range refuses
                np.add.at(total, group[dup], w[static[dup]])
            w[static[first]] = total
            keep = np.ones(u.size, dtype=bool)
            keep[static[dup]] = False
            u, v, w, t_u, t_v = (col[keep] for col in (u, v, w, t_u, t_v))
            logger.warning("merged %d duplicate static edge records by weight summation", int(dup.sum()))
        refuse((w != 0) & ((w < MIN_WEIGHT) | (w > MAX_WEIGHT)),
               f"weight {{w}} on edge {{e}} is neither 0 nor in [{MIN_WEIGHT:g}, {MAX_WEIGHT:g}]; "
               "rescale the weights")
        for col in (u, v, w, t_u, t_v):
            col.flags.writeable = False
        # Frozen: store the normalized fields past the dataclass __setattr__.
        vars(self).update(n=n, u=u, v=v, w=w, t_u=t_u, t_v=t_v, labels=labels)

    @cached_property
    def timed(self) -> np.ndarray:
        """Boolean mask of timestamped records."""
        return ~np.isnan(self.t_u)

    @cached_property
    def interactions(self) -> tuple[Interaction, ...]:
        """Read-only record view of the columns (untimed times read as None)."""
        times = (np.where(self.timed, t, None).tolist() for t in (self.t_u, self.t_v))
        return tuple(map(Interaction, self.u.tolist(), self.v.tolist(), self.w.tolist(), *times))

    @cached_property
    def entries(self) -> Entries:
        """Coalesced symmetric weighted adjacency as numpy columns, in the
        order a CSR stores it: by row, then by column.  Each position is
        stored once, its records' weights summed in record order, and a
        zero-weight record's position is a stored zero."""
        src, dst = np.concatenate([self.u, self.v]), np.concatenate([self.v, self.u])
        order = np.argsort(src * self.n + dst)
        src, dst = src[order], dst[order]
        first = np.concatenate(([True], (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])))[: src.size]
        # Each record's position, scattered back to record order so that
        # repeated records sum in that order whatever the sort did with ties.
        position = np.empty_like(order)
        position[order] = np.cumsum(first) - 1
        vals = np.bincount(position, weights=np.concatenate([self.w, self.w]))
        return Entries(src[first], dst[first], vals.astype(float, copy=False), (self.n, self.n))

    @cached_property
    def adjacency(self) -> sp.csr_matrix:
        """:attr:`entries` written out as a scipy CSR."""
        return self.entries.tocsr()

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree vector d = A @ 1, each row summed as scipy sums a
        CSR's rows (``np.add.reduceat``)."""
        rows, vals = self.entries.rows, self.entries.vals
        start = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1]))[: rows.size])
        d = np.zeros(self.n)
        if start.size:
            d[rows[start]] = np.add.reduceat(vals, start)
        return d

    @cached_property
    def neighbor_counts(self) -> np.ndarray:
        """Unweighted degree: number of distinct neighbors per vertex,
        counted as the adjacency's stored entries per row, zero weights and a
        self-loop's one entry included."""
        return np.bincount(self.entries.rows, minlength=self.n).astype(np.float64)

    @cached_property
    def interaction_weight(self) -> np.ndarray:
        """Per-vertex total interaction weight (each record counted once)."""
        # Endpoints interleaved per record, so the sums accumulate in record order.
        ends = np.column_stack([self.u, self.v]).ravel()
        weights = np.column_stack([self.w, np.where(self.u != self.v, self.w, 0.0)]).ravel()
        return np.bincount(ends, weights=weights, minlength=self.n)

    @cached_property
    def label_index(self) -> dict[str, int]:
        """Index of each label, the first one where a label repeats."""
        labels = self.labels or ()
        return dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))

    def name(self, i: int) -> str | int:
        """Vertex ``i`` as the edge list names it: its label, else its index."""
        return self.labels[i] if self.labels is not None else int(i)

    @property
    def size(self) -> int:
        return int(self.u.size)

    def is_connected(self) -> bool:
        return bool(np.isfinite(self.hops([0])).all())

    def hops(self, sources: Sequence[int]) -> np.ndarray:
        """Hop count from the nearest of ``sources``, ``inf`` where no path
        leads.  Paths follow the records of positive weight, which are the
        entries every propagation operator keeps; a zero-weight record links
        nothing."""
        live = self.w > 0
        u, v = self.u[live], self.v[live]

        def step(front):
            hit = np.zeros_like(front)
            hit[v[front[u]]] = True
            hit[u[front[v]]] = True
            return hit
        return hop_levels(step, self.n, sources)


def build_graph(
    edges: Iterable[tuple],
    n: int | None = None,
    allow_self_loops: bool = False,
    labels: Sequence[str] | None = None,
) -> Graph:
    """Build a :class:`Graph` from edge rows.

    Each row is ``(u, v, weight)`` or ``(u, v, weight, t_u, t_v)`` with
    integer endpoints.  Duplicate static edges are merged by
    weight summation and reported; timestamped records are kept as distinct
    interactions.

    Raises
    ------
    GraphError
        On an empty edge list with no vertex count, negative or non-finite
        weights, a positive weight (after merging) outside ``[MIN_WEIGHT,
        MAX_WEIGHT]``, non-finite times, out-of-range indices, self-loops
        (unless allowed), or a half-set timestamp pair.
    """
    rows = [(*row, None, None) if len(row) == 3 else tuple(row) for row in edges]
    bad = next((len(row) for row in rows if len(row) != 5), None)
    if bad is not None:
        raise GraphError(f"edge row must have 3 or 5 fields, got {bad}")
    u, v, w, t_u, t_v = zip(*rows) if rows else ((),) * 5
    u, v = np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)
    # NaN is the untimed marker inside a graph, so an explicit NaN time is bad input.
    times = np.array([t_u, t_v], dtype=np.float64).reshape(2, -1)
    if np.any(np.isnan(times) & np.not_equal(np.array([t_u, t_v], dtype=object).reshape(2, -1), None)):
        raise GraphError("non-finite timestamp in edge rows")
    if not allow_self_loops and np.any(u == v):
        raise GraphError(f"self-loop at vertex {u[np.argmax(u == v)]} (pass allow_self_loops=True to permit)")
    if n is None:
        n = int(max(u.max(), v.max())) + 1 if u.size else 0
    return Graph(n, u, v, w, *times, labels=labels)


def laplacian(g: Graph, kind: str = "kirchhoff") -> sp.csr_matrix:
    """Return a Laplacian view of the graph.

    ``kind`` selects the Kirchhoff matrix ``Q = D - A`` or the generalized
    ``I - D^{-1} A``.  With a per-vertex prior, the generalized Laplacian is
    ``I - spatial.propagation_operator(g, psi)``.
    """
    if kind not in LAPLACIAN_KINDS:
        raise GraphError(f"unknown laplacian kind {kind!r}")
    import scipy.sparse as sp

    d = g.degrees
    if kind == "kirchhoff":
        return (sp.diags(d) - g.adjacency).tocsr()
    if np.any(d <= 0):
        raise GraphError(f"zero degree at vertex {g.name(np.argmax(d <= 0))}; {kind} laplacian undefined")
    return (sp.identity(g.n, format="csr") - scale_rows(g.entries, 1.0 / d).tocsr()).tocsr()


class Observation(NamedTuple):
    """A cued vertex with its boundary threat probability and optional time."""

    vertex: int
    p: float
    t: float | None = None


@dataclass(frozen=True)
class ObservationSet:
    """Validated collection of observations used as boundary conditions."""

    entries: tuple[Observation, ...]

    def __post_init__(self):
        if not self.entries:
            raise ObservationError("observation set is empty")
        for e in self.entries:
            if not 0.0 <= e.p <= 1.0:
                raise ObservationError(f"boundary probability {e.p} outside [0, 1]")
            if e.t is not None and not np.isfinite(e.t):
                raise ObservationError(f"observation time {e.t} at vertex {e.vertex} is not finite")

    @classmethod
    def of(cls, *pairs: tuple) -> "ObservationSet":
        """Build from ``(vertex, p)`` or ``(vertex, p, t)`` tuples."""
        return cls(tuple(Observation(int(v), float(p), *rest) for v, p, *rest in pairs))

    @property
    def vertices(self) -> np.ndarray:
        return np.fromiter((e.vertex for e in self.entries), dtype=np.int64, count=len(self.entries))

    @property
    def values(self) -> np.ndarray:
        return np.fromiter((e.p for e in self.entries), dtype=np.float64, count=len(self.entries))

    def boundary(self, g: Graph, grid: TimeGrid | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Boundary cells and their values, sorted by cell, on the graph ``g``.

        Without a grid a cue pins its vertex.  With one it pins the cell
        ``vertex * nt + bin`` of its time, and an untimed cue pins the vertex
        at every bin.  Rows pinning one cell to the same value merge; two
        different values are an :class:`ObservationError`, so the result
        never depends on row order; it names the vertex as the edge list does.
        """
        n, verts = g.n, self.vertices
        bad = verts[(verts < 0) | (verts >= n)]
        if bad.size:
            raise ObservationError(f"observed vertices {bad.tolist()} out of range for n={n}")
        # Adding 0.0 turns -0.0 into 0.0, so merged values keep the same bits.
        cells, vals = verts, self.values + 0.0
        if grid is not None:
            nt = grid.nt
            t = np.array([np.nan if e.t is None else e.t for e in self.entries])
            timed = ~np.isnan(t)
            cells = np.concatenate([verts[timed] * nt + grid.bin_of(t[timed]),
                                    (verts[~timed, None] * nt + np.arange(nt)).ravel()])
            vals = np.concatenate([vals[timed], np.repeat(vals[~timed], nt)])
        order = np.lexsort((vals, cells))
        cells, vals = cells[order], vals[order]
        same = cells[1:] == cells[:-1]
        clash = np.flatnonzero(same & (vals[1:] != vals[:-1]))
        if clash.size:
            i, cell = clash[0], int(cells[clash[0]])
            vertex, b = divmod(cell, 1 if grid is None else grid.nt)
            where = f"vertex {g.name(vertex)}" + ("" if grid is None else f" at bin {b}")
            raise ObservationError(f"{where} is cued with both p={vals[i]} and p={vals[i + 1]}")
        keep = np.concatenate(([True], ~same))
        return cells[keep], vals[keep]

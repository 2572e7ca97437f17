"""Property tests on random small graphs (timed, untimed and duplicate records),
random cue sets, random sparse propagation operators and random detector
scores."""

import csv
import re
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from threatprop import spacetime
from threatprop._solve import Entries, _reaches_boundary, scale_rows
from threatprop.errors import GraphError, ObservationError
from threatprop.evaluation import RocCurve, roc
from threatprop.graph import MAX_WEIGHT, MIN_WEIGHT, ObservationSet, build_graph
from threatprop.io import read_edges, write_edges, write_roc, write_scores, write_spacetime_scores
from threatprop.spacetime import (MODES, VARIANTS, TimeGrid, assemble_spacetime, coordination_prior,
                                  factored_operator, kernel_profile, solve_spacetime, spacetime_operator)
from threatprop.spatial import build_absorbing_chain, hitting_threat, propagation_operator, solve_harmonic

PROPERTY = settings(max_examples=150, deadline=None, database=None)


def reference_assembly(g, grid, rate, mode_default, truncation=1e-4):
    """Space-time adjacency built one interaction record at a time, keeping a
    timed entry where the kernel reaches the truncation.  The entries reach
    the conversion the assembly uses (COO to CSR) in the factors' order:
    every timed record's end at v, then every one at u, then every untimed
    record's end at u, then every one at v, then the hub rows.  So a
    repeated position sums as the assembly's does, also on a row of more
    than 16 entries, where scipy's unstable row sort does not keep input
    order."""
    nt = grid.nt
    centers = grid.centers
    eye = np.arange(nt)
    # one hub per vertex with a time clique, numbered after the cells
    hubs = sorted({x for e in g.interactions if not e.timestamped for x in (e.u, e.v)})
    hub_of = {x: g.n * nt + k for k, x in enumerate(hubs)} if mode_default == "clique" else {}
    sides = [[] for _ in range(5)]  # (rows, cols, vals) blocks in the order above

    def add_column(side, recv, send, t_recv, t_send, w):
        kernel = kernel_profile(rate, centers - centers[grid.bin_of(t_recv)])
        keep = np.flatnonzero(kernel >= truncation)
        sides[side].append((recv * nt + keep, np.full(keep.size, send * nt + grid.bin_of(t_send)), w * kernel[keep]))

    for i, e in enumerate(g.interactions):
        mode = "kernel" if e.timestamped else mode_default
        if mode == "kernel":
            if not e.timestamped:
                raise GraphError(f"interaction {i} ({e.u},{e.v}) has no timestamps for kernel mode")
            add_column(0, e.v, e.u, e.t_v, e.t_u, e.weight)
            add_column(1, e.u, e.v, e.t_u, e.t_v, e.weight)
        else:  # instant: bin to same bin; clique: every bin of one end points at the other end's hub
            for side, (a, b) in ((2, (e.u, e.v)), (3, (e.v, e.u))):
                col = b * nt + eye if mode == "instant" else np.full(nt, hub_of[b])
                sides[side].append((a * nt + eye, col, np.full(nt, e.weight)))
    for x, h in hub_of.items():  # a hub's row weighs each bin of its vertex by one
        sides[4].append((np.full(nt, h), x * nt + eye, np.ones(nt)))

    rows, cols, vals = (np.concatenate(part) for part in zip(*(block for side in sides for block in side)))
    order = g.n * nt + len(hub_of)
    return sp.coo_matrix((vals, (rows, cols)), shape=(order, order)).tocsr()


# Zero, or a weight in the graph's range, so every draw builds a graph.
WEIGHTS = st.just(0.0) | st.floats(MIN_WEIGHT, 1e6)


@st.composite
def edge_rows(draw, labelled=False, self_loops=False, weight=WEIGHTS):
    """Edge rows on a few vertices, with the vertex count, the bin count and
    a label table or None: some rows timed, some untimed, some repeated, and
    with ``self_loops`` some from a vertex to itself."""
    n = draw(st.integers(2, 6))
    nt = draw(st.integers(1, 5))
    # The second end is an offset from the first, nonzero without self-loops.
    pair = st.tuples(st.integers(0, n - 1), st.integers(0 if self_loops else 1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))
    time = st.floats(0.0, float(nt), allow_nan=False)
    static = st.tuples(pair, weight).map(lambda r: (*r[0], r[1]))
    timed = st.tuples(pair, weight, time, time).map(lambda r: (*r[0], *r[1:]))
    rows = draw(st.lists(st.one_of(static, timed), min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    labels = None
    if labelled:
        name = st.text("abcxyz019_-", min_size=1, max_size=4)
        labels = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    return rows, n, nt, labels


@st.composite
def timed_graphs(draw, labelled=False, self_loops=False):
    """A graph of :func:`edge_rows` and its time grid of unit bins."""
    rows, n, nt, labels = draw(edge_rows(labelled, self_loops))
    return build_graph(rows, n=n, labels=labels, allow_self_loops=self_loops), TimeGrid(0.0, 1.0, nt)


def long_row_graph():
    """Every row of vertex 1 holds 21 entries, past the 16 up to which
    scipy sorts a row by insertion.  Six of them are one cell with unequal
    weights, entered from both directions of the records between 0 and 1;
    under instant contact the untimed record shares a cell with three
    timed ones."""
    weights = [0.1, 0.7, 1e3, 0.3, 5.5, 1e-3]
    rows = [(1, 2, 0.7)]
    rows += [(a, b, w, 0.5, 0.5) for (a, b), w in zip([(0, 1), (1, 0)] * 3, weights)]
    rows += [(2, 1, 1 / (3 + k), t, t) for k, t in enumerate([0.5, 1.5, 2.5, 3.5] * 3)]
    rows += [(1, 1, 0.9, 1.5, 2.5)]
    return build_graph(rows, n=3, allow_self_loops=True), TimeGrid(0.0, 1.0, 4)


@PROPERTY
@given(case=timed_graphs(self_loops=True), data=st.data())
def test_numpy_adjacency_and_operator_match_their_csr(case, data):
    """The adjacency's numpy view stores the positions scipy's coalesced CSR
    stores, each the sum of its records in record order; the degrees are the
    row sums scipy takes of that CSR, and the spatial operator's product is
    its CSR's, bit for bit."""
    g, _ = case
    sides = (np.r_[g.u, g.v], np.r_[g.v, g.u])
    want = sp.coo_matrix((np.r_[g.w, g.w], sides), shape=(g.n, g.n)).tocsr()
    a = g.entries
    assert np.array_equal(a.rows, np.repeat(np.arange(g.n), np.diff(want.indptr)))
    assert np.array_equal(a.cols, want.indices)
    total = {}
    for r, c, w in zip(*sides, np.r_[g.w, g.w]):  # every record's u end, then every v end
        total[r, c] = total.get((r, c), 0.0) + w
    assert a.vals.tolist() == [total[r, c] for r, c in zip(a.rows.tolist(), a.cols.tolist())]
    assert g.degrees.tobytes() == np.asarray(g.adjacency.sum(axis=1)).ravel().tobytes()

    psi = np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=g.n, max_size=g.n)))
    x = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=g.n, max_size=g.n)))
    p = propagation_operator(g, psi)
    assert (p @ x).tobytes() == (p.tocsr() @ x).tobytes()


@PROPERTY
@given(
    case=timed_graphs(self_loops=True),
    mode=st.sampled_from(MODES),
    rate=st.floats(0.05, 5.0),
)
@example(case=long_row_graph(), mode="clique", rate=0.05)
@example(case=long_row_graph(), mode="instant", rate=0.05)
def test_columnar_assembly_matches_record_loop(case, mode, rate):
    g, grid = case
    try:
        want = reference_assembly(g, grid, rate, mode)
    except GraphError:
        with pytest.raises(GraphError, match="no timestamps"):
            assemble_spacetime(g, grid, rate, mode_default=mode)
        return
    got = assemble_spacetime(g, grid, rate, mode_default=mode).adjacency
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def reference_operator(sys_, variant, spatial_psi):
    """``diag(psi) @ (diag(1/w) @ A)`` by scipy's sparse products, with the
    hub rows' prior one; ``diag(1/w) @ A`` alone for ``weighted`` without a
    spatial prior."""
    a = sys_.adjacency
    w = np.asarray(a.sum(axis=1)).ravel()
    p = sp.diags(np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)) @ a
    psi = None if spatial_psi is None else np.repeat(spatial_psi, sys_.grid.nt)
    if variant != "weighted":
        coord = coordination_prior(sys_).ravel()
        psi = coord if variant == "coordinated" else coord * psi
    return p if psi is None else sp.diags(np.concatenate([psi, np.ones(sys_.hubs)])) @ p


def zero_prior_graph():
    """Vertex 0's timed record reaches only bins 0 and 1 at rate 5, and its
    zero-weight untimed record stores entries in every row of vertex 0, so
    bins 2 and 3 hold stored entries with row sum and prior zero; the time
    clique adds hubs."""
    return build_graph([(0, 1, 2.0, 0.5, 0.5), (0, 2, 0.0), (1, 2, 0.3), (2, 1, 4.0, 3.5, 1.5)], n=3), \
        TimeGrid(0.0, 1.0, 4)


@PROPERTY
@given(
    case=timed_graphs(self_loops=True),
    mode=st.sampled_from(["clique", "instant"]),
    variant=st.sampled_from(VARIANTS),
    rate=st.floats(0.05, 5.0),
    spatial=st.booleans(),
    data=st.data(),
)
@example(case=zero_prior_graph(), mode="clique", variant="coordinated", rate=5.0, spatial=False, data=None)
@example(case=zero_prior_graph(), mode="instant", variant="coordinated-spatial", rate=5.0, spatial=True, data=None)
@example(case=long_row_graph(), mode="clique", variant="weighted", rate=0.05, spatial=True, data=None)
def test_operator_matches_nested_products(case, mode, variant, rate, spatial, data):
    g, grid = case
    sys_ = assemble_spacetime(g, grid, rate, mode_default=mode)
    spatial_psi = None
    if spatial or variant == "coordinated-spatial":
        spatial_psi = np.linspace(1.0, 0.05, g.n) if data is None else \
            np.array(data.draw(st.lists(st.floats(0.01, 1.0), min_size=g.n, max_size=g.n)))
    got = spacetime_operator(sys_, variant, spatial_psi)
    want = reference_operator(sys_, variant, spatial_psi)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def repeated_ends_graph():
    """Three records between 0 and 1 whose ends all land in bin 0, one of
    them reversed and of weight zero, so each direction's three entries of
    ``B`` share one position; vertex 2 has a zero-weight untimed record and
    a positive one."""
    rows = [(0, 1, 2.0, 0.2, 0.4), (1, 0, 0.0, 0.5, 0.1), (0, 1, 0.7, 0.9, 0.3), (1, 2, 1.5, 2.5, 1.5),
            (0, 2, 0.0), (2, 1, 0.4)]
    return build_graph(rows, n=3), TimeGrid(0.0, 1.0, 4)


def eliminated_hubs(p, order):
    """The cells' block of a hub-augmented operator with its hubs eliminated
    (Meyer's stochastic complement): a hub row averages cells only, so
    ``P_cc + P_ch P_hc``."""
    p = p.toarray()
    return p[:order, :order] + p[:order, order:] @ p[order:, :order]


def written_out(op):
    """A factored operator's matrix, one product per column."""
    return np.column_stack([op @ e for e in np.eye(op.shape[0])])


def check_scatter_against_merged(m):
    """Numpy columns ``m``, whose repeated positions add one entry at a time,
    against the CSR that merges them first: the product one column at a time
    and as one flattened scatter over every column.  The matrix holds both
    directions of every record with one weight, so it is symmetric up to the
    order its repeated positions sum in."""
    merged = sp.csr_matrix((m.vals, (m.rows, m.cols)), shape=m.shape).toarray()
    np.testing.assert_allclose(merged, merged.T, rtol=1e-14, atol=SUBNORMAL_FLOOR)
    eye = np.eye(m.shape[0])
    np.testing.assert_allclose(np.column_stack([m @ e for e in eye]), merged, rtol=1e-14, atol=SUBNORMAL_FLOOR)
    np.testing.assert_allclose(m @ eye, merged, rtol=1e-14, atol=SUBNORMAL_FLOOR)


# Far below any entry of an operator whose weights are 0 or lie in
# [MIN_WEIGHT, 1e6].
SUBNORMAL_FLOOR = 1e-300


@PROPERTY
@given(
    case=timed_graphs(self_loops=True),
    mode=st.sampled_from(MODES),
    variant=st.sampled_from(VARIANTS),
    rate=st.floats(0.05, 5.0),
    dense=st.booleans(),
    data=st.data(),
)
@example(case=zero_prior_graph(), mode="clique", variant="coordinated", rate=5.0, dense=True, data=None)
@example(case=zero_prior_graph(), mode="instant", variant="weighted", rate=5.0, dense=False, data=None)
@example(case=(zero_prior_graph()[0], TimeGrid(0.0, 4.0, 1)), mode="clique", variant="coordinated-spatial",
         rate=1.0, dense=True, data=None)
@example(case=long_row_graph(), mode="instant", variant="coordinated", rate=0.05, dense=True, data=None)
@example(case=repeated_ends_graph(), mode="clique", variant="coordinated", rate=0.5, dense=True, data=None)
@example(case=repeated_ends_graph(), mode="clique", variant="weighted", rate=0.5, dense=False, data=None)
@example(case=repeated_ends_graph(), mode="instant", variant="coordinated-spatial", rate=0.5, dense=True, data=None)
@example(case=repeated_ends_graph(), mode="instant", variant="coordinated", rate=0.5, dense=False, data=None)
# Vertex 1's bins 3 and 4 carry mass, but the kernel from its record with the
# cued vertex 0 is truncated there, so they do not reach the cue at bin 0.
@example(case=(build_graph([(1, 0, 1.0, 0.5, 0.5), (1, 2, 1.0, 4.5, 4.5)]), TimeGrid(0.0, 1.0, 5)),
         mode="kernel", variant="weighted", rate=5.0, dense=True, data=None)
def test_factored_operator_matches_the_hub_matrix(case, mode, variant, rate, dense, data):
    """Both product forms against the explicit CSR with its hubs eliminated:
    the adjacency and the operator to rtol 1e-14, the reach set and the
    inert cue cells exactly, and the iterative solve to within its tolerance
    of ``direct``.  The unmerged factors ``B`` and ``C`` are checked against
    their merged CSRs first."""
    g, grid = case
    psi = np.linspace(0.95, 0.05, g.n) if data is None else \
        np.array(data.draw(st.lists(st.floats(0.05, 0.95), min_size=g.n, max_size=g.n)))
    with mock.patch.object(spacetime, "_dense_kernel_pays", lambda *args: dense):
        try:
            sys_ = assemble_spacetime(g, grid, rate, mode_default=mode)
        except GraphError as exc:
            assert mode == "kernel" and "no timestamps" in str(exc)
            return
        assert (sys_.kernel is None) != dense
        check_scatter_against_merged(sys_.ends)
        check_scatter_against_merged(sys_.spatial)
        # The adjacency over the cells: a hub's row weighs each bin by one.
        order, nt = sys_.order, grid.nt
        a = sys_.adjacency.toarray()
        cells = a[:order, :order] + a[:order, order:] @ a[order:, :order] / nt
        got = np.column_stack([sys_.product(e) for e in np.eye(order)])
        np.testing.assert_allclose(got, cells, rtol=1e-14, atol=SUBNORMAL_FLOOR)
        op = factored_operator(sys_, variant, psi)
        hub = spacetime_operator(sys_, variant, psi)
        np.testing.assert_allclose(written_out(op), eliminated_hubs(hub, order), rtol=1e-14, atol=SUBNORMAL_FLOOR)

        cells = data.draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=4)) if data else [0]
        cells = np.unique(cells)
        reach = csgraph.dijkstra(hub.T, indices=cells, min_only=True, unweighted=True)[:order]
        assert np.array_equal(_reaches_boundary(op, cells), np.isfinite(reach))
        assert np.array_equal(sys_.coupled, np.bincount(hub.indices, minlength=hub.shape[1])[:order] > 0)

        # The spatial prior keeps every row sum of P at most 0.95, so a
        # residual of 0.05 tol bounds the iterative error by tol.
        tol = 1e-10
        obs = ObservationSet.of(*((int(c) // nt, 1.0, float(grid.centers[c % nt])) for c in cells))
        solve = {m: solve_spacetime(sys_, obs, "coordinated-spatial", psi, tol=0.05 * tol, method=m,
                                    on_isolated="zero") for m in ("iterative", "direct")}
        assert np.abs(solve["iterative"] - solve["direct"]).max() <= tol


# Every magnitude a float weight can take, with the subnormal ones and those
# whose sums overflow drawn often.
WIDE_WEIGHTS = st.one_of(st.floats(0.0, np.finfo(float).max), st.sampled_from([5e-324, 1e-310, 1e-306, 1e308]))


def stored_weights(rows):
    """The weights a graph of ``rows`` stores, by a per-record loop: each
    timed record's own, and the untimed records of one pair summed in
    record order."""
    timed, merged = [], {}
    for u, v, w, *times in rows:
        if times:
            timed.append(w)
        else:
            merged[min(u, v), max(u, v)] = merged.get((min(u, v), max(u, v)), 0.0) + w
    return timed + list(merged.values())


def accepted(w):
    return w == 0 or MIN_WEIGHT <= w <= MAX_WEIGHT


# Both ends of the range at one vertex, timed and untimed.
RANGE_ENDS = [(0, 1, MIN_WEIGHT, 0.5, 0.5), (1, 2, MAX_WEIGHT, 2.5, 0.5), (1, 2, MIN_WEIGHT), (3, 1, MAX_WEIGHT)]


@PROPERTY
@given(case=edge_rows(self_loops=True, weight=WIDE_WEIGHTS), mode=st.sampled_from(["clique", "instant"]),
       variant=st.sampled_from(VARIANTS))
@example(case=(RANGE_ENDS, 4, 3, None), mode="clique", variant="coordinated")
@example(case=(RANGE_ENDS, 4, 3, None), mode="instant", variant="weighted")
def test_accepted_graphs_give_finite_operators(case, mode, variant):
    """A graph is refused exactly where a stored weight lies outside the
    range, and every operator of an accepted one is finite, with no
    subnormal entry."""
    rows, n, nt, _ = case
    weights = stored_weights(rows)
    try:
        g = build_graph(rows, n=n, allow_self_loops=True)
    except GraphError as exc:
        assert "is neither 0 nor in" in str(exc)
        assert not all(map(accepted, weights))
        return
    assert all(map(accepted, weights))
    psi = np.linspace(1.0, 0.05, g.n)
    sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, nt), 1.0, mode_default=mode)
    operators = {
        "spatial": propagation_operator(g, psi).vals,
        "explicit": spacetime_operator(sys_, variant, psi).data,
        "factored": factored_operator(sys_, variant, psi) @ np.ones(sys_.order),
    }
    for name, values in operators.items():
        assert np.all(np.isfinite(values)), name
        assert np.all((values == 0) | (values >= np.finfo(float).tiny)), name


# Graphs that earlier versions accepted, each with a weight outside the
# range, and the edge each refusal names.
OUT_OF_RANGE = [
    pytest.param([(0, 1, 1.0, 1.0, 1.0), (1, 2, 1.0, 2.0, 2.0), (3, 2, 1e-310)], (3, 2), id="subnormal-untimed"),
    pytest.param([(0, 1, 1e308, 1.0, 1.0), (1, 2, 1e308, 1.0, 1.0)], (0, 1), id="overflowing-sums"),
    pytest.param([(0, 1, 1e-306, 0.5, 0.5)], (0, 1), id="subnormal-reciprocal"),
    # The mass 1e-300 of a total weight 1e300 underflowed a prior to zero.
    pytest.param([(1, 0, 1e-300, 0.5, 0.5), (1, 2, 1e300, 4.5, 4.5)], (1, 0), id="underflowing-prior"),
    # The factored operator gave 0 at a cell, or reached a cell, that the
    # hub matrix did not: a subnormal weight times a kernel entry or a bin
    # mean underflowed in one operation order and not in the other (the
    # second in instant mode).
    pytest.param([(0, 1, 1.0, 1.0, 0.0), (0, 1, 5e-324), (1, 0, 1.0, 0.5, 0.5)], (0, 1), id="underflowing-pattern"),
    pytest.param([(0, 1, 1.87e-251, 0.5, 1.5), (1, 0, 2.2e-313)], (0, 1), id="underflowing-product"),
]


@pytest.mark.parametrize("rows, edge", OUT_OF_RANGE)
def test_weights_outside_the_range_are_refused(rows, edge):
    with pytest.raises(GraphError, match=re.escape(f"on edge {edge} is neither 0 nor in [1e-100, 1e+100]")):
        build_graph(rows)


@PROPERTY
@given(case=timed_graphs(labelled=True))
def test_edge_csv_round_trip(tmp_path_factory, case):
    g, _ = case
    path = tmp_path_factory.mktemp("edges") / "edges.csv"
    write_edges(path, g)
    back = read_edges(path)

    def records(graph):
        return [(graph.labels[e.u], graph.labels[e.v], e.weight, e.t_u, e.t_v) for e in graph.interactions]

    assert records(back) == records(g)


@PROPERTY
@given(case=timed_graphs(self_loops=True))
@example(case=(build_graph([], n=3), None))
@example(case=(build_graph([(0, 0, 1.0), (0, 0, 2.0), (0, 1, 0.0), (1, 0, 0.0, 1.0, 2.0), (1, 0, 0.0, 1.0, 2.0),
                            (1, 2, 1.0), (2, 1, 3.0), (3, 3, 0.5, 1.0, 1.0)], n=5, allow_self_loops=True), None))
def test_neighbor_counts_match_the_adjacency_rows(case):
    # Repeated timed records, merged untimed ones, zero weights, self-loops
    # and isolated vertices each count as the CSR stores them.
    g, _ = case
    counts = g.neighbor_counts
    assert "adjacency" not in vars(g)  # counted without building the CSR
    oracle = np.diff(g.adjacency.indptr).astype(np.float64)
    assert counts.dtype == oracle.dtype and counts.tobytes() == oracle.tobytes()


def reference_reach(p, boundary):
    """Reach of the boundary along the positive entries of ``p``, row to
    column, grown one frontier at a time."""
    csc = (p > 0).tocsc()
    reach = np.zeros(p.shape[0], dtype=bool)
    reach[boundary] = True
    frontier = boundary
    while frontier.size:
        preds = np.unique(np.concatenate([csc.indices[csc.indptr[j]:csc.indptr[j + 1]] for j in frontier]))
        frontier = preds[~reach[preds]]
        reach[frontier] = True
    return reach


@st.composite
def sparse_operators(draw):
    """Directed sparse P with zero rows and some stored zeros, plus a boundary set."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(vertex, vertex, st.sampled_from([0.0, 0.25, 1.0])), max_size=3 * n))
    rows, cols, vals = np.array(entries, dtype=float).reshape(-1, 3).T
    p = sp.csr_matrix((vals, (rows.astype(int), cols.astype(int))), shape=(n, n))
    boundary = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    return p, np.array(sorted(boundary), dtype=np.int64)


@PROPERTY
@given(case=sparse_operators())
def test_reach_mask_matches_frontier_loop(case):
    p, boundary = case
    assert np.array_equal(_reaches_boundary(p, boundary), reference_reach(p, boundary))


@st.composite
def substochastic_operators(draw):
    """A row-normalised random P damped by a prior with zeros, so some rows
    are empty and some are zeroed by psi = 0, and a boundary that may repeat
    a vertex."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    entries = draw(st.lists(st.tuples(vertex, vertex, st.floats(0.1, 10.0)), max_size=3 * n))
    rows, cols, vals = np.array(entries, dtype=float).reshape(-1, 3).T
    a = sp.csr_matrix((vals, (rows.astype(int), cols.astype(int))), shape=(n, n))
    w = np.asarray(a.sum(axis=1)).ravel()
    psi = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n, max_size=n)))
    p = scale_rows(Entries.of_csr(a), np.divide(psi, w, out=np.zeros(n), where=w > 0)).tocsr()
    return p, np.array(draw(st.lists(vertex, min_size=1, max_size=2 * n)), dtype=np.int64)


@st.composite
def hub_operators(draw):
    """The hub-augmented space-time operator of a graph with at least one
    time clique, cued at cells that may repeat."""
    g, grid = draw(timed_graphs().filter(lambda case: not case[0].timed.all()))
    sys_ = assemble_spacetime(g, grid, rates=draw(st.floats(0.05, 5.0)), mode_default="clique")
    p = spacetime_operator(sys_, draw(st.sampled_from(["weighted", "coordinated"])))
    cells = st.integers(0, g.n * grid.nt - 1)
    return p, np.array(draw(st.lists(cells, min_size=1, max_size=6)), dtype=np.int64)


@PROPERTY
@given(case=st.one_of(substochastic_operators(), hub_operators()))
def test_reach_mask_matches_dijkstra(case):
    from scipy.sparse import csgraph

    p, boundary = case
    hops = csgraph.dijkstra(p.T, indices=boundary, min_only=True, unweighted=True)
    assert np.array_equal(_reaches_boundary(p, boundary), np.isfinite(hops))


@PROPERTY
@given(case=timed_graphs(self_loops=True), data=st.data())
def test_graph_hops_match_csgraph(case, data):
    """Hop distances from several sources against csgraph's on the adjacency
    without its stored zeros, the entries every propagation operator keeps."""
    g, _ = case
    sources = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=4))
    a = g.adjacency.copy()
    a.eliminate_zeros()
    want = csgraph.shortest_path(a, unweighted=True, indices=sources).min(axis=0)
    got = g.hops(sources)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def propagation_problems(draw):
    """A graph from ``timed_graphs`` joined up by a unit-weight path, a prior
    in [0.05, 0.95] and observed vertices with values in [0, 1].

    A prior below one bounds the fixed point's contraction by 0.95, so the
    default iterative solve converges however uneven the weights are."""
    g, _ = draw(timed_graphs())
    rows = [(e.u, e.v, e.weight) for e in g.interactions] + [(i, i + 1, 1.0) for i in range(g.n - 1)]
    g = build_graph(rows, n=g.n)
    psi = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=g.n, max_size=g.n)))
    observed = draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n, unique=True))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(observed), max_size=len(observed)))
    return g, psi, ObservationSet.of(*zip(observed, values))


@PROPERTY
@given(case=propagation_problems())
def test_harmonic_maximum_principle(case):
    g, psi, obs = case
    theta = solve_harmonic(g, psi, obs, tol=1e-12)
    interior = np.setdiff1d(np.arange(g.n), obs.vertices)
    assert np.array_equal(theta[obs.vertices], obs.values)
    # theta_i = psi_i * (weighted neighbour mean), so no interior vertex
    # exceeds psi_i times the largest observed value or falls below zero
    assert np.all(theta[interior] >= 0.0)
    assert np.all(theta[interior] <= psi[interior] * obs.values.max() + 1e-10)


@PROPERTY
@given(case=propagation_problems())
def test_harmonic_matches_hitting_matrix(case):
    g, psi, obs = case
    theta = solve_harmonic(g, psi, obs, tol=1e-12)
    assert np.max(np.abs(theta - hitting_threat(build_absorbing_chain(g, psi, obs)))) <= 1e-9


@st.composite
def cut_off_problems(draw):
    """A problem from ``propagation_problems`` joined with an uncued
    component of one to six vertices that shares no edge with it, under a
    prior of one (stochastic rows wherever it has an edge) or a prior in
    [0.05, 1]."""
    g, psi, obs = draw(propagation_problems())
    m = draw(st.integers(1, 6))
    pairs = [(g.n + i, g.n + j) for i in range(m) for j in range(i + 1, m)]
    cut = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True)) if pairs else []
    weight = st.sampled_from([0.5, 1.0, 2.0])
    rows = [(e.u, e.v, e.weight) for e in g.interactions] + [(u, v, draw(weight)) for u, v in cut]
    prior = st.one_of(st.just([1.0] * m), st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))
    return build_graph(rows, n=g.n + m), np.r_[psi, draw(prior)], obs


@PROPERTY
@given(case=cut_off_problems())
def test_chain_on_a_cut_off_component_follows_the_harmonic_solve(case):
    # A component that no cue reaches has zero threat in the chain too: its
    # rows are emptied, which keeps I - G invertible and T stochastic.
    g, psi, obs = case
    chain = build_absorbing_chain(g, psi, obs)
    theta = solve_harmonic(g, psi, obs, tol=1e-12, on_unreachable="zero")
    assert np.max(np.abs(hitting_threat(chain) - theta)) <= 1e-10
    t, e = chain.transition_matrix, chain.invariant_basis()
    assert np.abs(t @ e - e).max() <= 1e-12
    assert np.linalg.matrix_rank(e) == chain.n_absorbing
    assert np.abs(np.asarray(t.sum(axis=1)).ravel() - 1.0).max() <= 1e-12


@st.composite
def cue_orders(draw):
    """A graph from ``timed_graphs`` joined up by a unit-weight path, its time
    grid, a prior in [0.05, 0.95], and cue rows in two orders.  The rows may
    be timed or untimed, share a vertex, a bin or a time, and agree or clash
    in value (-0.0 and 0.0 included)."""
    g, grid = draw(timed_graphs())
    rows = [tuple(e) for e in g.interactions] + [(i, i + 1, 1.0) for i in range(g.n - 1)]
    g = build_graph(rows, n=g.n)
    psi = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=g.n, max_size=g.n)))
    time = st.one_of(st.none(), st.sampled_from(grid.centers.tolist()), st.floats(0.0, float(grid.nt)))
    cue = st.tuples(st.integers(0, g.n - 1), st.sampled_from([-0.0, 0.0, 0.5, 1.0]), time)
    cues = draw(st.lists(cue, min_size=1, max_size=8))
    return g, grid, psi, cues, draw(st.permutations(cues))


def outcome(solve, cues):
    """θ's bytes, or the error class when the cues are refused."""
    try:
        return solve(ObservationSet.of(*cues)).tobytes()
    except ObservationError:
        return ObservationError


@PROPERTY
@given(case=cue_orders())
def test_cue_row_order_never_changes_the_result(case):
    g, grid, psi, cues, shuffled = case
    sys_ = assemble_spacetime(g, grid, rates=1.0)
    solvers = {
        "harmonic": lambda obs: solve_harmonic(g, psi, obs, tol=1e-12),
        "hitting": lambda obs: hitting_threat(build_absorbing_chain(g, psi, obs)),
        "spacetime": lambda obs: solve_spacetime(sys_, obs, variant="weighted", spatial_psi=psi, tol=1e-12),
    }
    for name, solve in solvers.items():
        assert outcome(solve, cues) == outcome(solve, shuffled), name


@PROPERTY
@given(
    rows=st.lists(st.tuples(st.integers(-40, 40), st.booleans()), min_size=2, max_size=60).filter(
        lambda rows: len({label for _, label in rows}) == 2),
    transform=st.sampled_from([np.exp, np.arctan, lambda x: x**3, lambda x: 3.0 * x - 7.0]),
)
def test_roc_invariant_under_increasing_transforms(rows, transform):
    # quarter steps over [-10, 10]: every transform keeps distinct scores distinct
    scores = np.array([score / 4 for score, _ in rows])
    truth = np.array([label for _, label in rows], dtype=int)
    base, moved = roc(scores, truth), roc(transform(scores), truth)
    for name in ("pfa", "pd", "se_pd"):
        assert np.array_equal(getattr(base, name), getattr(moved, name)), name
    assert base.auc == moved.auc


def reference_csv(path, header, rows):
    """The per-row writer the columnar ones replaced: ``repr`` for every float."""

    def fmt(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(x) for x in row])


# Every float, with the ones a writer could mangle drawn often.
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, 0.1]),
)


@st.composite
def score_tables(draw):
    """A labelled (or unlabelled) graph, a time grid and an (n, nt) float table."""
    n, nt = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    labels = None
    if draw(st.booleans()):
        name = st.text(st.sampled_from(list('ab,"\' \n\r;é€中😀')), min_size=0, max_size=5)
        labels = draw(st.lists(name, min_size=n, max_size=n))
    g = build_graph([(0, 1, 1.0)], n=n, labels=labels)
    t0 = draw(st.floats(-1e300, 1e300))
    dt = draw(st.one_of(st.floats(5e-324, 1e300), st.sampled_from([5e-324, 0.1, 1.0])))
    table = np.array(draw(st.lists(ANY_FLOAT, min_size=n * nt, max_size=n * nt))).reshape(n, nt)
    return g, TimeGrid(t0, dt, nt), table


def check_writer(directory, write, header, rows):
    """``write(path)`` gives the same bytes as the per-row reference."""
    got, want = directory / "got.csv", directory / "want.csv"
    write(got)
    reference_csv(want, header, rows)
    assert got.read_bytes() == want.read_bytes()


@PROPERTY
@given(case=score_tables())
def test_score_writers_match_per_row_writer(tmp_path_factory, case):
    g, grid, table = case
    labels = g.labels or [str(i) for i in range(g.n)]
    check_writer(tmp_path_factory.mktemp("scores"), lambda path: write_scores(path, g, table[:, 0]),
                 ["vertex", "theta"], [(labels[i], table[i, 0]) for i in range(g.n)])
    cells = [(labels[i], grid.centers[k], table[i, k]) for i in range(g.n) for k in range(grid.nt)]
    check_writer(tmp_path_factory.mktemp("cells"), lambda path: write_spacetime_scores(path, g, table, grid),
                 ["vertex", "t", "theta"], cells)


@PROPERTY
@given(columns=st.integers(0, 6).flatmap(lambda m: st.lists(
    st.lists(ANY_FLOAT, min_size=m, max_size=m).map(np.array), min_size=4, max_size=4)))
def test_roc_writer_matches_per_row_writer(tmp_path_factory, columns):
    check_writer(tmp_path_factory.mktemp("roc"), lambda path: write_roc(path, RocCurve(*columns, 0.5, 1, 1)),
                 ["threshold", "pfa", "pd", "se"], zip(*columns))

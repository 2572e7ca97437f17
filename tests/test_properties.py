"""Property tests on random small graphs (timed, untimed and duplicate records),
random cue sets, random sparse propagation operators and random detector
scores."""

import csv
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from threatprop import spacetime
from threatprop._solve import _reaches_boundary, scale_rows
from threatprop.errors import GraphError, ObservationError
from threatprop.evaluation import RocCurve, roc
from threatprop.graph import ObservationSet, build_graph
from threatprop.io import read_edges, write_edges, write_roc, write_scores, write_spacetime_scores
from threatprop.spacetime import (MODES, VARIANTS, TimeGrid, assemble_spacetime, coordination_prior,
                                  factored_operator, kernel_profile, solve_spacetime, spacetime_operator)
from threatprop.spatial import build_absorbing_chain, hitting_threat, propagation_operator, solve_harmonic

PROPERTY = settings(max_examples=150, deadline=None, database=None)


def reference_assembly(g, grid, rate, mode_default, truncation=1e-4):
    """Space-time adjacency built one interaction record at a time, keeping a
    timed entry where the kernel reaches the truncation."""
    nt = grid.nt
    centers = grid.centers
    rows, cols, vals = [], [], []
    eye = np.arange(nt)
    # one hub per vertex with a time clique, numbered after the cells
    hubs = sorted({x for e in g.interactions if not e.timestamped for x in (e.u, e.v)})
    hub_of = {x: g.n * nt + k for k, x in enumerate(hubs)} if mode_default == "clique" else {}

    def add_column(recv, send, t_recv, t_send, w):
        kernel = kernel_profile(rate, centers - centers[grid.bin_of(t_recv)])
        keep = np.flatnonzero(kernel >= truncation)
        if keep.size == 0:
            return
        rows.append(recv * nt + keep)
        cols.append(np.full(keep.size, send * nt + grid.bin_of(t_send)))
        vals.append(w * kernel[keep])

    for i, e in enumerate(g.interactions):
        mode = "kernel" if e.timestamped else mode_default
        if mode == "kernel":
            if not e.timestamped:
                raise GraphError(f"interaction {i} ({e.u},{e.v}) has no timestamps for kernel mode")
            add_column(e.v, e.u, e.t_v, e.t_u, e.weight)
            add_column(e.u, e.v, e.t_u, e.t_v, e.weight)
        elif mode == "instant":
            for a, b in ((e.u, e.v), (e.v, e.u)):
                rows.append(a * nt + eye)
                cols.append(b * nt + eye)
                vals.append(np.full(nt, e.weight))
        else:  # clique: every bin of one end points at the other end's hub
            for a, b in ((e.u, e.v), (e.v, e.u)):
                rows.append(a * nt + eye)
                cols.append(np.full(nt, hub_of[b]))
                vals.append(np.full(nt, e.weight))
    for x, h in hub_of.items():  # a hub's row weighs each bin of its vertex by one
        rows.append(np.full(nt, h))
        cols.append(x * nt + eye)
        vals.append(np.ones(nt))

    if not vals:  # every kernel entry fell below the truncation
        rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    order = g.n * nt + len(hub_of)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(order, order)
    ).tocsr()


@st.composite
def timed_graphs(draw, labelled=False, self_loops=False, weight=st.floats(0.0, 1e6, allow_nan=False)):
    """Edge rows on a few vertices: some timed, some untimed, some repeated,
    and with ``self_loops`` some from a vertex to itself."""
    n = draw(st.integers(2, 6))
    nt = draw(st.integers(1, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if not self_loops:
        pair = pair.filter(lambda p: p[0] != p[1])
    time = st.floats(0.0, float(nt), allow_nan=False)
    static = st.tuples(pair, weight).map(lambda r: (*r[0], r[1]))
    timed = st.tuples(pair, weight, time, time).map(lambda r: (*r[0], *r[1:]))
    rows = draw(st.lists(st.one_of(static, timed), min_size=1, max_size=12))
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    labels = None
    if labelled:
        name = st.text("abcxyz019_-", min_size=1, max_size=4)
        labels = draw(st.lists(name, min_size=n, max_size=n, unique=True))
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
        coord = coordination_prior(sys_, on_isolated="zero").ravel()
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
    try:
        got = spacetime_operator(sys_, variant, spatial_psi, on_isolated="zero")
    except GraphError as exc:
        # The weight-range rule refuses a row sum whose reciprocal overflows,
        # which takes a positive weight far below any kernel entry's reach.
        assert "finite reciprocal" in str(exc)
        assert np.any((g.w > 0) & (g.w < 1e-290))
        return
    want = reference_operator(sys_, variant, spatial_psi)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def eliminated_hubs(p, order):
    """The cells' block of a hub-augmented operator with its hubs eliminated
    (Meyer's stochastic complement): a hub row averages cells only, so
    ``P_cc + P_ch P_hc``."""
    p = p.toarray()
    return p[:order, :order] + p[:order, order:] @ p[order:, :order]


def written_out(op):
    """A factored operator's matrix, one product per column."""
    return np.column_stack([op @ e for e in np.eye(op.shape[0])])


# Far below any entry of an accepted operator whose weights lie in [0, 1e6],
# except where a subnormal weight's entry has lost its relative precision.
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
# Vertex 1's bins 3 and 4 carry mass, but the kernel from its record with the
# cued vertex 0 is truncated there, so they do not reach the cue at bin 0.
@example(case=(build_graph([(1, 0, 1.0, 0.5, 0.5), (1, 2, 1.0, 4.5, 4.5)]), TimeGrid(0.0, 1.0, 5)),
         mode="kernel", variant="weighted", rate=5.0, dense=True, data=None)
# Vertex 1's bin 0 has mass 1e-300 of a total weight 1e300, so its prior
# underflows to zero: its row is empty in P though its adjacency row is not.
@example(case=(build_graph([(1, 0, 1e-300, 0.5, 0.5), (1, 2, 1e300, 4.5, 4.5)]), TimeGrid(0.0, 1.0, 5)),
         mode="kernel", variant="coordinated", rate=5.0, dense=False, data=None)
def test_factored_operator_matches_the_hub_matrix(case, mode, variant, rate, dense, data):
    """Both product forms against the explicit CSR with its hubs eliminated:
    the operator to rtol 1e-14, the reach set and the inert cue cells
    exactly, and the iterative solve to within its tolerance of ``direct``."""
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
        try:
            op = factored_operator(sys_, variant, psi, on_isolated="zero")
            hub = spacetime_operator(sys_, variant, psi, on_isolated="zero")
        except GraphError as exc:
            assert "finite reciprocal" in str(exc) and np.any((g.w > 0) & (g.w < 1e-290))
            return
        order = sys_.order
        np.testing.assert_allclose(written_out(op), eliminated_hubs(hub, order), rtol=1e-14, atol=SUBNORMAL_FLOOR)

        cells = data.draw(st.lists(st.integers(0, order - 1), min_size=1, max_size=4)) if data else [0]
        cells = np.unique(cells)
        reach = csgraph.dijkstra(hub.T, indices=cells, min_only=True, unweighted=True)[:order]
        assert np.array_equal(_reaches_boundary(op, cells), np.isfinite(reach))
        assert np.array_equal(op.inbound(), np.bincount(hub.indices, minlength=hub.shape[1])[:order] > 0)

        # The spatial prior keeps every row sum of P at most 0.95, so a
        # residual of 0.05 tol bounds the iterative error by tol.
        tol = 1e-10
        nt = grid.nt
        obs = ObservationSet.of(*((int(c) // nt, 1.0, float(grid.centers[c % nt])) for c in cells))
        solve = {m: solve_spacetime(sys_, obs, "coordinated-spatial", psi, tol=0.05 * tol, method=m,
                                    on_isolated="zero") for m in ("iterative", "direct")}
        assert np.abs(solve["iterative"] - solve["direct"]).max() <= tol


# Every magnitude a float weight can take, the subnormal and overflowing sums
# that the weight-range rule refuses included.
WIDE_WEIGHTS = st.one_of(st.floats(0.0, np.finfo(float).max), st.sampled_from([5e-324, 1e-310, 1e-306, 1e308]))


# Sums of such weights overflow on their way to the refusal.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@PROPERTY
@given(case=timed_graphs(self_loops=True, weight=WIDE_WEIGHTS), mode=st.sampled_from(["clique", "instant"]),
       variant=st.sampled_from(VARIANTS))
@example(case=(build_graph([(0, 1, 1.0, 1.0, 1.0), (1, 2, 1.0, 2.0, 2.0), (3, 2, 1e-310)]), TimeGrid(0.0, 1.0, 3)),
         mode="clique", variant="weighted")
@example(case=(build_graph([(0, 1, 1e308, 1.0, 1.0), (1, 2, 1e308, 1.0, 1.0)]), TimeGrid(0.0, 1.0, 3)),
         mode="clique", variant="weighted")
@example(case=(build_graph([(0, 1, 1e-306, 0.5, 0.5)]), TimeGrid(0.0, 20.0, 5)), mode="clique", variant="weighted")
def test_accepted_graphs_give_finite_operators(case, mode, variant):
    g, grid = case
    psi = np.linspace(1.0, 0.05, g.n)
    sys_ = assemble_spacetime(g, grid, 1.0, mode_default=mode)
    operators = {
        "spatial": lambda: propagation_operator(g, psi, allow_isolated=True).data,
        "explicit": lambda: spacetime_operator(sys_, variant, psi, on_isolated="zero").data,
        "factored": lambda: factored_operator(sys_, variant, psi, on_isolated="zero") @ np.ones(sys_.order),
    }
    for name, entries in operators.items():
        try:
            values = entries()
        except GraphError as exc:
            assert "finite reciprocal" in str(exc), name
            continue
        assert np.all(np.isfinite(values)), name


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


def reference_reach(p, boundary):
    """Pull-path reach of the boundary, grown one frontier at a time."""
    csc = p.tocsc()
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
    p = scale_rows(a, np.divide(psi, w, out=np.zeros(n), where=w > 0))
    return p, np.array(draw(st.lists(vertex, min_size=1, max_size=2 * n)), dtype=np.int64)


@st.composite
def hub_operators(draw):
    """The hub-augmented space-time operator of a graph with at least one
    time clique, cued at cells that may repeat."""
    g, grid = draw(timed_graphs().filter(lambda case: not case[0].timed.all()))
    sys_ = assemble_spacetime(g, grid, rates=draw(st.floats(0.05, 5.0)), mode_default="clique")
    try:
        p = spacetime_operator(sys_, draw(st.sampled_from(["weighted", "coordinated"])), on_isolated="zero")
    except GraphError:  # the weight-range rule refused the graph, so it has no operator
        reject()
    cells = st.integers(0, g.n * grid.nt - 1)
    return p, np.array(draw(st.lists(cells, min_size=1, max_size=6)), dtype=np.int64)


@PROPERTY
@given(case=st.one_of(substochastic_operators(), hub_operators()))
def test_reach_mask_matches_dijkstra(case):
    from scipy.sparse import csgraph

    p, boundary = case
    hops = csgraph.dijkstra(p.T, indices=boundary, min_only=True, unweighted=True)
    assert np.array_equal(_reaches_boundary(p, boundary), np.isfinite(hops))


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

"""Property tests on random small graphs (timed, untimed and duplicate records),
random cue sets, random sparse propagation operators and random detector
scores."""

import csv

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threatprop._solve import _reaches_boundary, scale_rows
from threatprop.errors import GraphError, ObservationError
from threatprop.evaluation import RocCurve, roc
from threatprop.graph import ObservationSet, build_graph
from threatprop.io import read_edges, write_edges, write_roc, write_scores, write_spacetime_scores
from threatprop.spacetime import (MODES, VARIANTS, TimeGrid, assemble_spacetime, coordination_prior,
                                  kernel_profile, solve_spacetime, spacetime_operator)
from threatprop.spatial import build_absorbing_chain, hitting_threat, solve_harmonic

PROPERTY = settings(max_examples=150, deadline=None, database=None)


def reference_assembly(g, grid, rates, mode_default, truncation=1e-4):
    """Space-time adjacency built one interaction record at a time."""
    lam = np.asarray(rates, dtype=float)
    if lam.ndim == 0:
        lam = np.full(g.n, float(lam))
    nt = grid.nt
    centers = grid.centers
    rows, cols, vals = [], [], []
    eye = np.arange(nt)
    # one hub per vertex with a time clique, numbered after the cells
    hubs = sorted({x for e in g.interactions if not e.timestamped for x in (e.u, e.v)})
    hub_of = {x: g.n * nt + k for k, x in enumerate(hubs)} if mode_default == "clique" else {}

    def add_column(recv, send, t_recv, t_send, w):
        profile = w * kernel_profile(lam[recv], centers - centers[grid.bin_of(t_recv)])
        keep = np.flatnonzero(profile >= truncation)
        if keep.size == 0:
            return
        rows.append(recv * nt + keep)
        cols.append(np.full(keep.size, send * nt + grid.bin_of(t_send)))
        vals.append(profile[keep])

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
def timed_graphs(draw, labelled=False, self_loops=False):
    """Edge rows on a few vertices: some timed, some untimed, some repeated,
    and with ``self_loops`` some from a vertex to itself."""
    n = draw(st.integers(2, 6))
    nt = draw(st.integers(1, 5))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if not self_loops:
        pair = pair.filter(lambda p: p[0] != p[1])
    weight = st.floats(0.0, 1e6, allow_nan=False)
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
    per_vertex=st.booleans(),
    data=st.data(),
)
@example(case=long_row_graph(), mode="clique", rate=0.05, per_vertex=False, data=None)
@example(case=long_row_graph(), mode="instant", rate=0.05, per_vertex=False, data=None)
def test_columnar_assembly_matches_record_loop(case, mode, rate, per_vertex, data):
    g, grid = case
    rates = rate
    if per_vertex:
        rates = np.array(data.draw(st.lists(st.floats(0.05, 5.0), min_size=g.n, max_size=g.n)))
    try:
        want = reference_assembly(g, grid, rates, mode)
    except GraphError:
        with pytest.raises(GraphError, match="no timestamps"):
            assemble_spacetime(g, grid, rates, mode_default=mode)
        return
    got = assemble_spacetime(g, grid, rates, mode_default=mode).adjacency
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
    got = spacetime_operator(sys_, variant, spatial_psi, on_isolated="zero")
    want = reference_operator(sys_, variant, spatial_psi)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


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
    p = spacetime_operator(sys_, draw(st.sampled_from(["weighted", "coordinated"])), on_isolated="zero")
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

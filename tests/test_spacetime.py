import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from threatprop import spacetime, validate
from threatprop._solve import solve_boundary_value
from threatprop.errors import GraphError, ObservationError, ValidationFailure
from threatprop.experiment import sbm_detection_config
from threatprop.generators import generate_sbm
from threatprop.graph import Graph, ObservationSet, build_graph
from threatprop.priors import PriorSpec, compute_prior
from threatprop.spacetime import (
    DENSE_KERNEL_COST,
    TimeGrid,
    assemble_spacetime,
    coordination_prior,
    default_rate,
    kernel_profile,
    reduce_to_vertex_scores,
    solve_spacetime,
    spacetime_operator,
)
from threatprop.spatial import hitting_threat, monte_carlo_threat, solve_harmonic
from threatprop.validate import check_spacetime_hitting, check_spacetime_walks, hub_systems, walk_band_excess

from conftest import make_er, rng_for


class TestTimeGrid:
    def test_bins_cover_halfopen_intervals(self):
        grid = TimeGrid(t0=0.0, dt=2.0, nt=3)
        assert grid.bin_of(0.0) == 0
        assert grid.bin_of(1.99) == 0
        assert grid.bin_of(2.0) == 1
        assert grid.bin_of(5.9) == 2
        assert np.allclose(grid.centers, [1.0, 3.0, 5.0])

    def test_out_of_range_rejected(self):
        grid = TimeGrid(0.0, 1.0, 4)
        with pytest.raises(GraphError, match="outside grid"):
            grid.bin_of(12.0)
        with pytest.raises(GraphError, match="outside grid"):
            grid.bin_of(-2.0)

    def test_validation(self):
        with pytest.raises(GraphError):
            TimeGrid(0.0, 0.0, 4)
        with pytest.raises(GraphError):
            TimeGrid(0.0, np.nan, 4)
        with pytest.raises(GraphError):
            TimeGrid(0.0, 1.0, 0)

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -1.0}, {"dt": np.nan}, {"dt": np.inf},
        {"lam": 0.0}, {"lam": -2.0}, {"lam": np.nan}, {"lam": np.inf},
        {"nt": 0}, {"nt": -3}, {"dt": 1e-320}, {"lam": 1e308}, {"dt": 1e-9},
    ])
    def test_cover_rejects_bad_width_rate_and_count(self, kwargs):
        with pytest.raises(GraphError, match="positive|at least one bin|limit"):
            TimeGrid.cover(np.array([0.0, 5.0]), **kwargs)

    def test_cover_spans_times(self):
        times = np.array([1.0, 4.5, 9.9])
        grid = TimeGrid.cover(times, dt=1.0)
        assert grid.t0 == 1.0
        assert grid.bin_of(9.9) == grid.nt - 1
        forced = TimeGrid.cover(times, nt=5)
        assert forced.nt == 5 and forced.bin_of(9.9) == 4

    def test_cover_default_dt_tracks_rate(self):
        grid = TimeGrid.cover(np.array([0.0, 1.0]), lam=2.0)
        assert grid.dt <= 0.02 / 2.0 + 1e-12


class TestAssembly:
    def test_kernel_column_halving_profile(self):
        # lam*dt = ln 2 halves the kernel per bin away from the interaction
        grid = TimeGrid(0.0, 1.0, 6)
        t3 = grid.centers[3]
        g = build_graph([(0, 1, 1.0, t3, t3)])
        sys_ = assemble_spacetime(g, grid, rates=np.log(2.0))
        col = sys_.adjacency.toarray()[6:12, 3]
        assert np.allclose(col, [0.125, 0.25, 0.5, 1.0, 0.5, 0.25])

    def test_clique_routes_through_one_hub_per_vertex(self):
        # vertices 0 and 1 share a time clique; vertex 2 has only a timed record
        g = build_graph([(0, 1, 2.5), (1, 2, 1.0, 0.5, 0.5)])
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 4), rates=1.0, mode_default="clique")
        a = sys_.adjacency.toarray()
        assert sys_.order == 12 and sys_.hubs == 2 and a.shape == (14, 14)
        hub0, hub1 = 12, 13
        assert np.array_equal(a[0:4], np.eye(14)[[hub1] * 4] * 2.5)
        assert np.array_equal(a[4:8, hub0], np.full(4, 2.5)) and not a[4:8, :8].any()
        assert np.array_equal(a[hub0], np.eye(14)[0:4].sum(axis=0))
        assert np.array_equal(a[hub1], np.eye(14)[4:8].sum(axis=0))
        assert not a[8:12, 12:].any()

    def test_eliminating_hubs_gives_the_uniform_clique_block(self):
        # Meyer's stochastic complement: A_rr + A_rh P_hr, with P_hr the hub
        # rows normalized to averages, is the dense w / nt clique coupling
        # added to the timed kernel entries.
        (sys_, _), = hub_systems(rng_for("st-hub-elimination"), 1, 9, nt=7)
        a = sys_.adjacency.toarray()
        r = sys_.order
        hub_rows = a[r:] / a[r:].sum(axis=1, keepdims=True)
        eliminated = a[:r, :r] + a[:r, r:] @ hub_rows[:, :r]
        assert np.abs(eliminated - logical_adjacency(sys_)).max() <= 1e-15

    def test_instant_block_identity(self):
        g = build_graph([(0, 1, 1.0)])
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 4), mode_default="instant")
        block = sys_.adjacency.toarray()[0:4, 4:8]
        assert np.array_equal(block, np.eye(4))

    def test_no_temporal_self_block(self):
        rng = rng_for("selfblock")
        g = make_er(rng, 8)
        times = rng.uniform(0, 5, g.size)
        gt = build_graph([(e.u, e.v, e.weight, t, t) for e, t in zip(g.interactions, times)], n=g.n)
        sys_ = assemble_spacetime(gt, TimeGrid(0.0, 1.0, 5), rates=1.0)
        a = sys_.adjacency.toarray()
        for v in range(g.n):
            assert np.array_equal(a[v * 5:(v + 1) * 5, v * 5:(v + 1) * 5], np.zeros((5, 5)))

    def test_timestamp_outside_grid_names_edge(self):
        g = build_graph([(0, 1, 1.0, 99.0, 99.0)])
        with pytest.raises(GraphError, match="outside grid"):
            assemble_spacetime(g, TimeGrid(0.0, 1.0, 4), rates=1.0)

    def test_rate_validation(self):
        g = build_graph([(0, 1, 1.0, 0.5, 0.5)])
        with pytest.raises(GraphError, match="positive"):
            assemble_spacetime(g, TimeGrid(0.0, 1.0, 2), rates=0.0)
        with pytest.raises(GraphError, match="one positive and finite number"):
            assemble_spacetime(g, TimeGrid(0.0, 1.0, 2), rates=np.array([1.0, 2.0]))
        with pytest.raises(GraphError, match="finite"):
            assemble_spacetime(g, TimeGrid(0.0, 1.0, 2), rates=np.nan)

    def test_kernel_mode_needs_timestamps(self):
        g = build_graph([(0, 1, 1.0)])
        with pytest.raises(GraphError, match="no timestamps"):
            assemble_spacetime(g, TimeGrid(0.0, 1.0, 2), mode_default="kernel")

    # nt x (2 x 2 + 2 hubs) and nt x 2 x 2 entries, both over MAX_ENTRIES
    @pytest.mark.parametrize("mode, nt", [("clique", 2_700_000), ("instant", 4_100_000)])
    def test_oversize_grid_refused_before_allocating(self, mode, nt):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0, 0.0, 0.0)])
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="--bins"):
                assemble_spacetime(g, TimeGrid(0.0, 1.0, nt), mode_default=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_grid_of_an_oversize_dense_table_refused_before_allocating(self):
        # 10,000 timed records on 3 vertices at 20,000 bins: the cost rule
        # would take the dense table, 400M entries, so the entry estimate
        # must refuse the grid although no CSR would be built.
        t = rng_for("st-oversize-table").uniform(0.0, 24.0, 10_000)
        u = np.arange(t.size) % 3
        g = Graph(3, u, (u + 1) % 3, np.ones(t.size), t, t)
        grid = TimeGrid(0.0, 24 / 20_000, 20_000)
        assert spacetime._dense_kernel_pays(g.n, 2 * g.size, grid, 0.3)
        tracemalloc.start()
        try:
            with pytest.raises(GraphError, match="--bins"):
                assemble_spacetime(g, grid, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_clique_entries_grow_linearly_with_bins(self):
        g = make_er(rng_for("st-clique-linear"), 12, p=0.5)
        nnz = [assemble_spacetime(g, TimeGrid(0.0, 1.0, nt), mode_default="clique").adjacency.nnz
               for nt in (24, 48)]
        assert nnz[1] < 2.2 * nnz[0]

    def test_assembly_peak_stays_near_the_csr(self):
        # A blockmodel draw with every fourth record untimed, so both timed
        # records and time cliques fill the 480-bin grid.
        net = generate_sbm(sbm_detection_config(2.0).params, seed=0)
        g = net.graph
        untimed = np.arange(g.size) % 4 == 0
        g = Graph(g.n, g.u, g.v, g.w, np.where(untimed, np.nan, g.t_u), np.where(untimed, np.nan, g.t_v))
        grid = TimeGrid(0.0, net.params.horizon / 480, 480)
        tracemalloc.start()
        try:
            a = assemble_spacetime(g, grid, 0.7).adjacency
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)

    def test_truncation_preserves_sparsity(self):
        grid = TimeGrid(0.0, 1.0, 200)
        g = build_graph([(0, 1, 1.0, 0.5, 0.5)])
        sys_ = assemble_spacetime(g, grid, rates=2.0)
        # exp(-2*|lag|) < 1e-4 beyond ~4.6 time units -> far bins dropped
        assert sys_.adjacency.nnz < 2 * 12

    def test_kernel_weight_scaling(self):
        grid = TimeGrid(0.0, 1.0, 3)
        g = build_graph([(0, 1, 3.0, 1.5, 1.5)])
        sys_ = assemble_spacetime(g, grid, rates=1.0)
        assert sys_.adjacency.toarray()[3 + 1, 1] == pytest.approx(3.0)

    def test_default_rate_median_gap(self):
        g = build_graph([(0, 1, 1.0, 0.0, 0.0), (0, 1, 1.0, 2.0, 2.0), (0, 1, 1.0, 6.0, 6.0)])
        # per-endpoint gaps pooled: both vertices see gaps (2, 4) -> median 3
        assert default_rate(g) == pytest.approx(np.log(2.0) / 3.0)


class TestProductForms:
    @staticmethod
    def timed_graph(rng, mode):
        g = make_er(rng, 12, p=0.4)
        times = rng.uniform(0.0, 10.0, g.size)
        timed = rng.random(g.size) < 0.7
        timed[0] = True
        rows = [(e.u, e.v, float(rng.uniform(0.2, 3.0)), *((t, t) if k else ()))
                for e, t, k in zip(g.interactions, times, timed)]
        return build_graph(rows, n=g.n), ObservationSet.of((int(g.u[0]), 1.0, float(times[0])))

    def test_cost_rule_picks_the_form(self):
        # 24 bins of a kernel keeping every bin: the dense table.  The same
        # 24 bins with a kernel keeping +-1 bin, or 256 bins of the wide
        # kernel on this small graph: the written-out kernel, which holds
        # fewer entries than the table.
        g, _ = self.timed_graph(rng_for("st-cost-rule"), "clique")
        wide, fine = TimeGrid(0.0, 10.0 / 24, 24), TimeGrid(0.0, 10.0 / 256, 256)
        assert assemble_spacetime(g, wide, 0.05).kernel is not None
        assert assemble_spacetime(g, wide, 12.0).kernel is None
        assert assemble_spacetime(g, fine, 0.05).kernel is None
        # With more vertices per record end, the dense product's n * nt**2
        # multiply-adds outweigh the written-out entries at the same grid.
        ends = assemble_spacetime(g, wide, 0.05).ends.nnz
        pays = [spacetime._dense_kernel_pays(n, ends, wide, 0.05)
                for n in (g.n, round(ends / DENSE_KERNEL_COST))]
        assert pays == [True, False]

    def test_repeated_records_keep_the_form(self):
        # B holds a repeated record's ends once per record, the written-out
        # kernel once per position, so the rule counts positions.  On a grid
        # of one bin more than there are positions, with every lag kept, the
        # rule refuses the table for those positions and would take it for
        # twice as many.
        g, _ = self.timed_graph(rng_for("st-cost-rule"), "clique")
        rows = [(e.u, e.v, e.weight, e.t_u, e.t_v) for e in g.interactions if e.timestamped]
        positions = 2 * len(rows)
        grid, rate = TimeGrid(0.0, 10.0 / (positions + 1), positions + 1), 1e-3
        pays = [spacetime._dense_kernel_pays(g.n, k * positions, grid, rate) for k in (1, 2)]
        assert pays == [False, True]
        once, twice = (assemble_spacetime(build_graph(rows * k, n=g.n), grid, rate) for k in (1, 2))
        assert twice.ends.nnz == 2 * once.ends.nnz == 2 * positions
        assert once.kernel is None and twice.kernel is None

    @pytest.mark.parametrize("rate", [0.05, 12.0])
    @pytest.mark.parametrize("mode", ["clique", "instant"])
    def test_dense_and_written_kernel_agree(self, monkeypatch, rate, mode):
        # The cost rule picks the dense kernel for the wide kernel and the
        # written-out kernel CSR for the narrow one.  Forcing the other form
        # must not move a product, a row sum or the solution.
        rng = rng_for("st-product-forms", mode)
        gt, obs = self.timed_graph(rng, mode)
        grid = TimeGrid(0.0, 10.0 / 24, 24)
        chosen = assemble_spacetime(gt, grid, rate, mode_default=mode)
        assert (chosen.kernel is None) == (rate > 1.0)
        monkeypatch.setattr(spacetime, "_dense_kernel_pays", lambda *args: chosen.kernel is None)
        forced = assemble_spacetime(gt, grid, rate, mode_default=mode)
        assert (forced.kernel is None) != (chosen.kernel is None)
        x = rng.random(chosen.order)
        np.testing.assert_allclose(chosen.product(x), forced.product(x), rtol=1e-14)
        np.testing.assert_allclose(chosen.row_sums, forced.row_sums, rtol=1e-14)
        theta = [solve_spacetime(s, obs, tol=1e-12) for s in (chosen, forced)]
        assert np.abs(theta[0] - theta[1]).max() <= 1e-12


class TestCoordinationPrior:
    def test_perfect_alignment_is_unity(self):
        grid = TimeGrid(0.0, 1.0, 6)
        t = grid.centers[2]
        g = build_graph([(0, 1, 1.0, t, t), (0, 2, 1.0, t, t)])
        psi = coordination_prior(assemble_spacetime(g, grid, rates=1.0))
        assert psi[0, 2] == pytest.approx(1.0)

    def test_split_mass_at_large_lag(self):
        grid = TimeGrid(0.0, 1.0, 40)
        t0, t_far = grid.centers[0], grid.centers[39]
        g = build_graph([(0, 1, 1.0, t0, t0), (0, 2, 1.0, t_far, t_far)])
        psi = coordination_prior(assemble_spacetime(g, grid, rates=2.0))
        assert psi[0, 0] == pytest.approx(0.5, abs=1e-3)

    def test_intermediate_lag_matches_kernel_oracle(self):
        # two interactions at lags 0 and 1/lam: psi = (1 + e^{-1})/2
        lam = 0.5
        grid = TimeGrid(0.0, 1.0, 8)
        t_a = grid.centers[2]
        t_b = t_a + 1.0 / lam
        g = build_graph([(0, 1, 1.0, t_a, t_a), (0, 2, 1.0, t_b, t_b)])
        psi = coordination_prior(assemble_spacetime(g, grid, rates=lam))
        oracle = (kernel_profile(lam, np.array([0.0]))[0] + kernel_profile(lam, np.array([1.0 / lam]))[0]) / 2
        assert psi[0, 2] == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx((1 + np.exp(-1)) / 2)

    def test_isolated_vertex_policy(self):
        g = build_graph([(0, 1, 1.0, 0.5, 0.5)], n=3)
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 2), rates=1.0)
        # A vertex without interaction weight gets the absorbing prior zero.
        psi = coordination_prior(sys_)
        assert np.array_equal(psi[2], [0.0, 0.0])

    def test_monotone_under_tightening(self):
        # pulling a vertex's interactions toward one instant cannot decrease
        # its alignment there
        lam, grid = 1.0, TimeGrid(0.0, 1.0, 12)
        anchor = grid.centers[5]
        spreads = [4.0, 2.0, 1.0, 0.0]
        vals = []
        for s in spreads:
            g = build_graph([
                (0, 1, 1.0, anchor, anchor),
                (0, 2, 1.0, min(anchor + s, grid.centers[-1]), anchor),
                (0, 3, 1.0, max(anchor - s, grid.centers[0]), anchor),
            ])
            psi = coordination_prior(assemble_spacetime(g, grid, rates=lam))
            vals.append(psi[0, 5])
        assert np.all(np.diff(vals) >= -1e-12)
        assert vals[-1] == pytest.approx(1.0)


def logical_adjacency(sys_):
    """Dense (vertex, bin) adjacency with every time clique written out as
    its uniform ``w / nt`` block, next to the assembled timed entries."""
    nt, r = sys_.grid.nt, sys_.order
    a = sys_.adjacency.toarray()[:r, :r]
    for e in sys_.graph.interactions:
        if not e.timestamped:
            a[e.u * nt:(e.u + 1) * nt, e.v * nt:(e.v + 1) * nt] += e.weight / nt
            a[e.v * nt:(e.v + 1) * nt, e.u * nt:(e.u + 1) * nt] += e.weight / nt
    return a


def dense_spacetime_oracle(sys_, obs, variant="coordinated", a=None):
    """Direct dense solve of the space-time boundary-value system, on the
    assembled adjacency or on a given dense one over the cells."""
    if a is None:
        a = sys_.adjacency.toarray()
    w = a.sum(axis=1)
    winv = np.divide(1.0, w, out=np.zeros_like(w), where=w > 0)
    p = np.diag(winv) @ a
    if variant == "coordinated":
        psi = np.clip(w / np.repeat(sys_.graph.interaction_weight, sys_.grid.nt), 0.0, 1.0)
        p = np.diag(psi) @ p
    nt = sys_.grid.nt
    order = sys_.order
    bidx, bval = [], []
    for e in obs.entries:
        bidx.append(e.vertex * nt + sys_.grid.bin_of(e.t))
        bval.append(e.p)
    interior = np.array([i for i in range(order) if i not in set(bidx)])
    theta = np.zeros(order)
    theta[bidx] = bval
    lii = np.eye(interior.size) - p[np.ix_(interior, interior)]
    rhs = p[np.ix_(interior, bidx)] @ np.asarray(bval)
    theta[interior] = np.linalg.solve(lii, rhs)
    return np.clip(theta.reshape(sys_.graph.n, nt), 0.0, 1.0)


class TestSolveSpacetime:
    def test_uniform_prior_constant_field(self):
        rng = rng_for("st-const")
        g = make_er(rng, 10)
        times = rng.uniform(0, 8, g.size)
        gt = build_graph([(e.u, e.v, e.weight, t, t) for e, t in zip(g.interactions, times)], n=g.n)
        sys_ = assemble_spacetime(gt, TimeGrid(0.0, 1.0, 8), rates=0.3)
        p0 = 0.61
        # the cue must sit at one of the cue vertex's own interaction bins
        cue = gt.interactions[0].u
        theta = solve_spacetime(sys_, ObservationSet.of((cue, p0, times[0])), variant="weighted", tol=1e-12)
        assert np.abs(theta - p0).max() <= 1e-8

    def test_two_vertex_shared_interaction_closed_form(self):
        # single interaction at one bin, coordinated variant, cue at that bin:
        # partner hits 1 there and decays by the kernel across bins
        lam = 0.8
        grid = TimeGrid(0.0, 1.0, 5)
        t2 = grid.centers[2]
        g = build_graph([(0, 1, 1.0, t2, t2)])
        sys_ = assemble_spacetime(g, grid, rates=lam)
        obs = ObservationSet.of((0, 1.0, t2))
        theta = solve_spacetime(sys_, obs, variant="coordinated", tol=1e-12)
        oracle = dense_spacetime_oracle(sys_, obs)
        assert np.abs(theta - oracle).max() <= 1e-10
        assert theta[1, 2] == pytest.approx(1.0)
        lags = np.abs(grid.centers - t2)
        assert np.allclose(theta[1], kernel_profile(lam, lags), atol=1e-10)

    def test_matches_dense_oracle_on_random_systems(self):
        rng = rng_for("st-oracle")
        for _ in range(4):
            g = make_er(rng, 8)
            times = rng.uniform(0, 6, g.size)
            gt = build_graph([(e.u, e.v, e.weight, t, t) for e, t in zip(g.interactions, times)], n=g.n)
            sys_ = assemble_spacetime(gt, TimeGrid(0.0, 1.0, 6), rates=0.5)
            cue = int(rng.integers(g.n))
            obs = ObservationSet.of((cue, 1.0, float(times[0])))
            theta = solve_spacetime(sys_, obs, variant="coordinated", tol=1e-12)
            assert np.abs(theta - dense_spacetime_oracle(sys_, obs)).max() <= 1e-9

    @pytest.mark.parametrize("variant, mode", [
        ("coordinated", "clique"), ("coordinated", "instant"), ("weighted", "clique"),
    ])
    def test_iterative_matches_direct_on_random_systems(self, variant, mode):
        # Both methods stop at an interior residual of at most 1e-12; with
        # interior row sums below one that bounds each one's error by
        # 1e-12 / (1 - rho), and 1e-9 leaves room for rho up to 0.999.
        rng = rng_for("st-methods", variant, mode)
        for _ in range(6):
            g = make_er(rng, 9, p=0.35)
            times = rng.uniform(0, 6, g.size)
            timed = rng.random(g.size) < 0.7
            timed[0] = True  # the cue sits on the first record's time
            rows = [(e.u, e.v, float(rng.uniform(0.2, 3.0)), *((t, t) if k else ()))
                    for e, t, k in zip(g.interactions, times, timed)]
            sys_ = assemble_spacetime(build_graph(rows, n=g.n), TimeGrid(0.0, 1.0, 6), rates=0.6,
                                      mode_default=mode)
            obs = ObservationSet.of((int(g.u[0]), 1.0, float(times[0])))
            it = solve_spacetime(sys_, obs, variant=variant, tol=1e-12, on_isolated="zero")
            ref = solve_spacetime(sys_, obs, variant=variant, tol=1e-12, method="direct",
                                  on_isolated="zero")
            assert np.abs(it - ref).max() <= 1e-9

    @pytest.mark.parametrize("variant", ["coordinated", "weighted"])
    def test_clique_systems_match_dense_logical_oracle(self, variant):
        for sys_, obs in hub_systems(rng_for("st-clique-oracle", variant), 4, 8):
            theta = solve_spacetime(sys_, obs, variant=variant, tol=1e-12)
            oracle = dense_spacetime_oracle(sys_, obs, variant, a=logical_adjacency(sys_))
            assert np.abs(theta - oracle).max() <= 1e-10

    def test_clique_cue_constant_at_partner(self):
        g = build_graph([(0, 1, 1.0)])
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 4), mode_default="clique")
        theta = solve_spacetime(sys_, ObservationSet.of((0, 0.9, 1.5)), variant="weighted", tol=1e-12)
        assert np.allclose(theta[1], theta[1, 0])

    def test_untimed_cue_broadcasts(self):
        g = build_graph([(0, 1, 1.0)])
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 4), mode_default="instant")
        theta = solve_spacetime(sys_, ObservationSet.of((0, 0.8)), variant="weighted", tol=1e-12)
        assert np.allclose(theta[0], 0.8)

    def test_single_bin_clique_equals_spatial(self):
        rng = rng_for("st-equiv")
        for _ in range(5):
            g = make_er(rng, 12)
            obs = ObservationSet.of((int(rng.integers(g.n)), 1.0))
            psi = compute_prior(g, PriorSpec("dwtp"))
            ref = solve_harmonic(g, psi, obs, tol=1e-12)
            sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 1), mode_default="clique")
            theta = solve_spacetime(sys_, obs, variant="weighted", spatial_psi=psi, tol=1e-12)
            assert np.abs(theta[:, 0] - ref).max() <= 1e-10

    def test_coordinated_spatial_variant_damps(self):
        grid = TimeGrid(0.0, 1.0, 3)
        t1 = grid.centers[1]
        g = build_graph([(0, 1, 1.0, t1, t1), (1, 2, 1.0, t1, t1)])
        sys_ = assemble_spacetime(g, grid, rates=1.0)
        obs = ObservationSet.of((0, 1.0, t1))
        full = solve_spacetime(sys_, obs, variant="coordinated", tol=1e-12)
        damped = solve_spacetime(
            sys_, obs, variant="coordinated-spatial", spatial_psi=np.full(3, 0.5), tol=1e-12
        )
        assert np.all(damped <= full + 1e-12)
        assert damped[2].max() < full[2].max()

    def test_variant_validation(self):
        g = build_graph([(0, 1, 1.0, 0.5, 0.5)])
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 2), rates=1.0)
        with pytest.raises(GraphError, match="unknown variant"):
            solve_spacetime(sys_, ObservationSet.of((0, 1.0, 0.5)), variant="odd")
        with pytest.raises(GraphError, match="spatial prior"):
            solve_spacetime(sys_, ObservationSet.of((0, 1.0, 0.5)), variant="coordinated-spatial")
        # coordinated has no place for one: refused, not dropped
        with pytest.raises(GraphError, match="coordinated variant takes no spatial prior; coordinated-spatial"):
            solve_spacetime(sys_, ObservationSet.of((0, 1.0, 0.5)), variant="coordinated", spatial_psi=np.full(2, 0.01))

    def test_observation_time_outside_grid(self):
        g = build_graph([(0, 1, 1.0, 0.5, 0.5)])
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 2), rates=1.0)
        with pytest.raises(GraphError, match="outside grid"):
            solve_spacetime(sys_, ObservationSet.of((0, 1.0, 55.0)))

    def test_cue_at_an_inactive_bin_warns_with_its_cell(self, caplog):
        # vertex 0 interacts only in bin 0, so nothing couples into its bin 2
        g = build_graph([(0, 1, 1.0, 0.5, 0.5), (1, 2, 1.0, 1.5, 1.5)])
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 4), rates=1.0)
        with caplog.at_level("WARNING", logger="threatprop.spacetime"):
            solve_spacetime(sys_, ObservationSet.of((0, 1.0, 0.5)), tol=1e-12)
            assert "no inbound coupling" not in caplog.text
            theta = solve_spacetime(sys_, ObservationSet.of((0, 1.0, 2.5)), tol=1e-12)
        assert "1 cue cells have no inbound coupling (vertex inactive at that bin): [(0, 2)]" in caplog.text
        assert theta[0, 2] == 1.0 and np.count_nonzero(theta) == 1


# The path 0-1-2-3 with one interaction per bin of a three-bin grid.
PATH4 = [(0, 1, 1.0, 0.5, 0.5), (1, 2, 1.0, 1.5, 1.5), (2, 3, 1.0, 2.5, 2.5)]


class TestSpacetimeChain:
    @pytest.mark.parametrize("variant", ["coordinated", "weighted"])
    def test_hitting_matches_the_hubless_solve(self, variant):
        # Absorption probabilities survive eliminating the hubs (Meyer's
        # stochastic complement), so the hub chain's hitting solve equals the
        # solve through the factored operator, which has no hub states and
        # which test_clique_systems_match_dense_logical_oracle checks against
        # the written-out w / nt clique blocks.  For `weighted` both solves
        # stand on the fixed point at tol 1e-12, whose residual bounds the
        # error only loosely where rows are stochastic (ROADMAP item 2); at
        # this test's seed the weighted error is 2.0e-11.
        rng = rng_for("st-chain-hitting", variant)
        assert check_spacetime_hitting(rng, systems=4, n=8, variant=variant) <= 1e-10

    @pytest.mark.parametrize("variant", ["coordinated", "weighted"])
    def test_walks_inside_the_family_band(self, variant):
        # validate's walk band, over every state of both systems, hubs included
        walks = 1000
        _, runs = check_spacetime_walks(rng_for("st-chain-walks", variant), systems=2, n=8, walks=walks,
                                        variant=variant)
        assert all(mc.capped_walks == 0 for _, mc in runs)
        assert walk_band_excess(runs, walks) <= 1.0

    def test_draw_without_hubs_fails(self, monkeypatch):
        monkeypatch.setattr(validate, "assemble_spacetime",
                            lambda g, grid, **kw: assemble_spacetime(g, grid, **{**kw, "mode_default": "instant"}))
        with pytest.raises(ValidationFailure, match="no time clique"):
            check_spacetime_hitting(rng_for("st-chain-hubless"), systems=1, n=8)

    def test_state_cut_off_from_the_cue_scores_zero(self, monkeypatch):
        # The last hub's row sends all its mass to itself: a closed class
        # with no path to the cue, which made I - G singular.  The chain
        # empties that row, so the harmonic solve of the same operator, the
        # chain's hitting solve and its walks all score the hub exactly 0,
        # and the first two still agree.
        def closed_hub(sys_, variant):
            p = spacetime_operator(sys_, variant)
            last = p.shape[0] - 1
            loop = sp.csr_matrix(([1.0], ([last], [last])), shape=p.shape)
            return (p.multiply(np.r_[np.ones(last), 0.0][:, None]) + loop).tocsr()

        monkeypatch.setattr(validate, "spacetime_operator", closed_hub)
        (_, chain), = validate._hub_chains(rng_for("st-chain-cut"), 1, 8, "coordinated", 1e-12)
        assert chain.reaches.tolist() == [True] * (chain.n - 1) + [False]
        harmonic = solve_boundary_value(chain.p, chain.boundary, chain.boundary_values, tol=1e-12)
        hitting = hitting_threat(chain)
        mc = monte_carlo_threat(chain, 10, seed=0)
        assert harmonic[-1] == hitting[-1] == mc.theta[-1] == 0.0 and mc.capped_walks == 0
        assert np.abs(harmonic - hitting).max() <= 1e-10


class TestCueBoundary:
    def test_untimed_cue_pins_every_bin(self):
        obs = ObservationSet.of((1, 0.5), (2, 0.7, 1.5), (2, 0.7, 1.9))
        cells, values = obs.boundary(build_graph(PATH4), TimeGrid(0.0, 1.0, 3))
        assert cells.tolist() == [3, 4, 5, 7] and values.tolist() == [0.5, 0.5, 0.5, 0.7]

    def test_same_value_twice_is_one_cell(self):
        g = build_graph(PATH4)
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 3), rates=1.0)
        once = solve_spacetime(sys_, ObservationSet.of((3, 0.9)), tol=1e-12)
        twice = solve_spacetime(sys_, ObservationSet.of((3, 0.9, 2.5), (3, 0.9)), tol=1e-12)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("rows, cell", [
        pytest.param([(3, 0.9), (3, 0.3, 2.5)], "vertex 3 at bin 2", id="spacetime-untimed-then-timed"),
        pytest.param([(3, 0.9, 2.5), (3, 0.3, 0.5)], "vertex 3", id="spatial-two-times"),
        pytest.param([(3, 0.9), (3, 0.3, 2.5)], "vertex 3", id="spatial-untimed-then-timed"),
    ])
    @pytest.mark.parametrize("reverse", [False, True], ids=["as-given", "reversed"])
    def test_conflicting_cues_rejected_in_any_row_order(self, rows, cell, reverse):
        g = build_graph(PATH4)
        obs = ObservationSet.of(*(rows[::-1] if reverse else rows))
        with pytest.raises(ObservationError, match=f"^{cell} is cued with both p=0.3 and p=0.9$"):
            if " at bin " in cell:
                solve_spacetime(assemble_spacetime(g, TimeGrid(0.0, 1.0, 3), rates=1.0), obs)
            else:
                solve_harmonic(g, compute_prior(g, PriorSpec("dwtp")), obs)

    def test_bfs_prior_takes_a_vertex_cued_at_two_bins(self):
        g = build_graph(PATH4)
        obs = ObservationSet.of((3, 0.9, 0.5), (3, 0.3, 2.5))
        psi = compute_prior(g, PriorSpec("bfs"), obs)
        assert psi.tolist() == [1 / 3, 1 / 2, 1.0, 1.0]
        sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 3), rates=1.0)
        theta = solve_spacetime(sys_, obs, variant="coordinated-spatial", spatial_psi=psi, tol=1e-12)
        assert theta[3, 0] == 0.9 and theta[3, 2] == 0.3


class TestReduce:
    def test_constant_field(self):
        field = np.full((3, 4), 0.3)
        assert np.allclose(reduce_to_vertex_scores(field, "max"), 0.3)
        assert np.allclose(reduce_to_vertex_scores(field, "mean"), 0.3)

    def test_single_bin_spike(self):
        field = np.zeros((2, 5))
        field[1, 3] = 1.0
        assert reduce_to_vertex_scores(field, "max")[1] == 1.0
        assert reduce_to_vertex_scores(field, "mean")[1] == pytest.approx(0.2)

    def test_unknown_reducer(self):
        with pytest.raises(GraphError):
            reduce_to_vertex_scores(np.zeros((2, 2)), "median")

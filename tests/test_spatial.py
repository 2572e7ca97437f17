import numpy as np
import pytest
import scipy.sparse as sp

from threatprop import _solve, spatial
from threatprop._solve import Entries, scale_rows, solve_boundary_value
from threatprop.errors import ConvergenceError, DisconnectedGraphError, GraphError
from threatprop.graph import ObservationSet, build_graph
from threatprop.priors import PriorSpec, compute_prior
from threatprop.spacetime import TimeGrid, assemble_spacetime, solve_spacetime
from threatprop.spatial import (
    STREAM_GAP_BLOCKS,
    _step_uniforms,
    build_absorbing_chain,
    hitting_threat,
    monte_carlo_threat,
    propagation_operator,
    solve_harmonic,
)
from threatprop.validate import (
    check_chain_stochasticity,
    check_harmonic_hitting_equivalence,
    check_invariant_subspace,
    check_maximum_principle,
)

from conftest import make_er, rng_for


def dense_harmonic_oracle(g, psi, obs):
    """Independent dense solve of the partitioned boundary-value system."""
    lp = np.eye(g.n) - propagation_operator(g, psi).tocsr().toarray()
    boundary = np.array(sorted({e.vertex for e in obs.entries}))
    values = {e.vertex: e.p for e in obs.entries}
    interior = np.array([v for v in range(g.n) if v not in values])
    theta = np.zeros(g.n)
    theta[boundary] = [values[v] for v in boundary]
    if interior.size:
        lii = lp[np.ix_(interior, interior)]
        lib = lp[np.ix_(interior, boundary)]
        theta[interior] = -np.linalg.solve(lii, lib @ theta[boundary])
    return theta


def all_walk_uniforms(seed, step, walks):
    """Reference draw: every walk's uniform at one step, read at ``walks``."""
    bits = np.random.Philox(key=np.uint64(seed), counter=[0, step, 0, 0])
    return np.random.Generator(bits).random(int(walks[-1]) + 1)[walks]


def wheel(ring):
    """Hub 0 joined to every vertex of a ring 1..ring."""
    return build_graph([(0, i, 1.0) for i in range(1, ring + 1)]
                       + [(i, i % ring + 1, 1.0) for i in range(1, ring + 1)])


def random_system(rng, n=18, p=0.3):
    g = make_er(rng, n, p)
    count = int(rng.integers(1, 4))
    verts = rng.choice(g.n, size=count, replace=False)
    obs = ObservationSet.of(*[(int(v), float(rng.uniform(0.2, 1.0))) for v in verts])
    kind = ("uniform", "dwtp", "lwtp", "bfs")[int(rng.integers(4))]
    psi = compute_prior(g, PriorSpec(kind, psi0=float(rng.uniform(0.3, 1.0))), obs)
    return g, psi, obs


class TestSolveHarmonic:
    def test_path_dwtp_closed_form(self, path3):
        # oracle: dense solve of the 2x2 interior block, frozen to (1/3, 1/3, 1)
        psi = compute_prior(path3, PriorSpec("dwtp"))
        obs = ObservationSet.of((2, 1.0))
        oracle = dense_harmonic_oracle(path3, psi, obs)
        assert np.allclose(oracle, [1 / 3, 1 / 3, 1.0], atol=1e-14)
        theta = solve_harmonic(path3, psi, obs)
        assert np.abs(theta - np.array([1 / 3, 1 / 3, 1.0])).max() <= 1e-10

    def test_unit_prior_gives_constant_field(self, path3):
        p0 = 0.42
        theta = solve_harmonic(path3, np.ones(3), ObservationSet.of((2, p0)), tol=1e-12)
        assert np.abs(theta - p0).max() <= 1e-10

    def test_star_center_cued_saturates_leaves(self):
        star = build_graph([(0, i, 1.0) for i in range(1, 6)])
        theta = solve_harmonic(star, np.ones(6), ObservationSet.of((0, 1.0)), tol=1e-12)
        assert np.allclose(theta, 1.0, atol=1e-10)

    def test_residual_postcondition(self):
        rng = rng_for("resid")
        for _ in range(5):
            g, psi, obs = random_system(rng)
            tol = 1e-10
            theta = solve_harmonic(g, psi, obs, tol=tol)
            lp = np.eye(g.n) - propagation_operator(g, psi).tocsr().toarray()
            interior = np.array([v for v in range(g.n) if v not in set(obs.vertices)])
            resid = np.abs(lp @ theta)[interior].max()
            assert resid <= tol * 1.01

    def test_matches_dense_oracle(self):
        rng = rng_for("oracle")
        for _ in range(10):
            g, psi, obs = random_system(rng)
            theta = solve_harmonic(g, psi, obs, tol=1e-12)
            assert np.abs(theta - dense_harmonic_oracle(g, psi, obs)).max() <= 1e-9

    def test_methods_agree(self):
        rng = rng_for("methods")
        g, psi, obs = random_system(rng)
        base = solve_harmonic(g, psi, obs, tol=1e-12, method="iterative")
        other = solve_harmonic(g, psi, obs, tol=1e-12, method="direct")
        assert np.abs(base - other).max() <= 1e-9

    def test_maximum_principle_property(self):
        worst, pinned = check_maximum_principle(rng_for("maxprin"), reps=40, n=18, cues=3)
        assert worst <= 1e-8 and pinned <= 1e-12

    def test_cue_neighbor_lower_bound(self):
        # Provable for every cue neighbor: theta_i >= psi_i * theta_b / d_i.
        # The tighter proof-internal bound holds at the interior minimum when
        # that minimum sits next to the single cue.
        rng = rng_for("bound")
        for _ in range(20):
            g = make_er(rng, 15)
            cue = int(rng.integers(g.n))
            pb = float(rng.uniform(0.3, 1.0))
            obs = ObservationSet.of((cue, pb))
            psi = compute_prior(g, PriorSpec("uniform", psi0=float(rng.uniform(0.3, 1.0))), obs)
            theta = solve_harmonic(g, psi, obs, tol=1e-12)
            deg = g.neighbor_counts
            neighbors = g.adjacency[cue].indices
            for i in neighbors:
                assert theta[i] >= psi[i] * pb / deg[i] - 1e-9
            interior = np.array([v for v in range(g.n) if v != cue])
            m = interior[np.argmin(theta[interior])]
            if m in neighbors:
                tight = psi[m] * pb / ((1 - psi[m]) * deg[m] + psi[m])
                assert theta[m] >= tight - 1e-9

    def test_nonconvergence_carries_residual(self, path3):
        p = propagation_operator(path3, compute_prior(path3, PriorSpec("dwtp")))
        with pytest.raises(ConvergenceError) as err:
            solve_boundary_value(p, np.array([2]), np.array([1.0]), tol=1e-12, max_iter=3)
        assert err.value.residual is not None and err.value.residual > 1e-12

    def test_operator_needs_only_shape_and_matmul(self, path3):
        # The iterative solve and its reach set use nothing else of P; the
        # direct method, which factorizes, still needs a sparse matrix.
        p = propagation_operator(path3, compute_prior(path3, PriorSpec("dwtp")))

        class Operator:
            shape = p.shape

            def __matmul__(self, x):
                return p @ x

        cue = np.array([2]), np.array([1.0])
        want = solve_boundary_value(p, *cue, tol=1e-12)
        assert np.array_equal(solve_boundary_value(Operator(), *cue, tol=1e-12), want)
        with pytest.raises(ValueError, match="needs P as a sparse matrix"):
            solve_boundary_value(Operator(), *cue, method="direct")

    def test_iterative_solve_runs_no_reach_traversal(self, monkeypatch):
        # 3-4 is cut off from the cue and stochastic (prior one, rows
        # normalized), which would make the direct method's interior block
        # singular.  The iterative sweeps keep it at exactly zero without a
        # reach traversal, and give the bytes of the solve that traversed.
        def traversal(*args):
            raise AssertionError("the iterative solve traversed the operator")

        monkeypatch.setattr(_solve, "_reaches_boundary", traversal)
        psi = np.array([0.9, 0.8, 0.7, 1.0, 1.0])
        g = build_graph([(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.5)])
        theta = solve_harmonic(g, psi, ObservationSet.of((0, 1.0)), tol=1e-12, on_unreachable="zero")
        assert theta.tolist() == [1.0, 0.42553191489345116, 0.2978723404252209, 0.0, 0.0]
        st = build_graph([(0, 1, 1.0, 0.5, 0.5), (1, 2, 1.0, 1.5, 1.5), (3, 4, 1.0, 0.5, 1.5), (3, 4, 2.0, 1.5, 0.5)])
        theta = solve_spacetime(assemble_spacetime(st, TimeGrid(0.0, 1.0, 2), 1.0), ObservationSet.of((0, 1.0, 0.5)),
                                variant="weighted", spatial_psi=psi, tol=1e-12)
        assert theta.ravel().tolist() == [1.0, 0.5757405956582499, 0.6397117729537939, 0.36429142510438034,
                                          0.2550039975727179, 0.2550039975727179, 0.0, 0.0, 0.0, 0.0]

    def test_disconnected_policy(self):
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
        obs = ObservationSet.of((0, 1.0))
        psi = np.full(4, 0.8)
        with pytest.raises(DisconnectedGraphError, match="unreachable"):
            solve_harmonic(g, psi, obs)
        theta = solve_harmonic(g, psi, obs, on_unreachable="zero")
        assert theta[2] == 0.0 and theta[3] == 0.0 and theta[0] == 1.0

    def test_zero_weight_record_links_nothing(self):
        # The operator drops the zero-weight record 1-2, so 2 and 3 have no
        # path to the cue.
        g = build_graph([(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)], n=4)
        obs = ObservationSet.of((0, 1.0))
        psi = np.full(4, 0.9)
        with pytest.raises(DisconnectedGraphError, match="vertex 2 unreachable"):
            solve_harmonic(g, psi, obs)
        assert solve_harmonic(g, psi, obs, on_unreachable="zero").tolist() == [1.0, 0.9, 0.0, 0.0]

    def test_prior_range_validated(self, path3):
        obs = ObservationSet.of((2, 1.0))
        with pytest.raises(GraphError):
            solve_harmonic(path3, np.array([0.0, 0.5, 1.0]), obs)
        with pytest.raises(GraphError):
            solve_harmonic(path3, np.array([1.0, 1.5, 1.0]), obs)

    @pytest.mark.parametrize("psi", [[0.5, np.nan, 0.5], [0.5, 0.5], [[0.5, 0.5, 0.5]]])
    def test_every_prior_consumer_checks_the_same_way(self, path3, psi):
        with pytest.raises(GraphError, match="prior (vector has shape|probabilities must lie)"):
            propagation_operator(path3, psi)


class TestAbsorbingChain:
    def test_single_interior_vertex_example(self):
        # one interior vertex, psi = 0.5, one observed neighbor
        g = build_graph([(0, 1, 1.0)])
        chain = build_absorbing_chain(g, np.array([0.5, 1.0]), ObservationSet.of((1, 1.0)))
        expected = np.array([[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(chain.transition_matrix.toarray(), expected)
        assert chain.hitting_matrix()[0, 0] == pytest.approx(0.5)

    def test_neumann_series_oracle(self):
        # (I - G)^{-1} H  ==  sum_k G^k H, expanded until it converges
        rng = rng_for("neumann")
        g, psi, obs = random_system(rng, n=12)
        chain = build_absorbing_chain(g, psi, obs)
        gb = chain.g_block.toarray()
        hb = chain.h_block.toarray()
        acc = np.zeros_like(hb)
        term = hb.copy()
        for _ in range(20000):
            acc += term
            term = gb @ term
            if np.abs(term).max() < 1e-14:
                break
        assert np.allclose(chain.hitting_matrix(), acc, atol=1e-10)

    def test_rows_sum_to_one(self):
        assert check_chain_stochasticity(rng_for("stoch"), reps=10, n=18) <= 1e-14

    def test_observed_rows_are_identity(self):
        rng = rng_for("idrows")
        g, psi, obs = random_system(rng)
        chain = build_absorbing_chain(g, psi, obs)
        t = chain.transition_matrix.toarray()
        ni = len(chain.interior)
        for j in range(len(chain.boundary)):
            row = t[ni + j]
            assert row[ni + j] == 1.0 and row.sum() == 1.0

    def test_invariant_subspace_identity(self):
        worst, shortfall, negative = check_invariant_subspace(rng_for("piss"), reps=10, n=18, cues=3)
        assert worst <= 1e-12 and shortfall == 0 and negative <= 0

    def test_spectral_radius_of_interior_block(self):
        rng = rng_for("radius")
        g, psi, obs = random_system(rng)
        chain = build_absorbing_chain(g, psi, obs)
        eigs = np.linalg.eigvals(chain.g_block.toarray())
        assert np.abs(eigs).max() < 1.0

    def test_cut_off_component_has_zero_threat(self):
        # a-b-c cued at a, and d-e-f with prior one: a closed class that
        # never reaches the cue, which made I - G singular.  Its rows are
        # emptied, so it is absorbed at zero as the harmonic solve and the
        # walks have it.
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        psi, obs = np.array([0.9, 0.9, 0.9, 1.0, 1.0, 1.0]), ObservationSet.of((0, 1.0))
        chain = build_absorbing_chain(g, psi, obs)
        theta = hitting_threat(chain)
        assert chain.reaches.tolist() == [True, True, True, False, False, False]
        assert theta[3:].tolist() == [0.0, 0.0, 0.0]
        assert np.abs(theta - solve_harmonic(g, psi, obs, tol=1e-14, on_unreachable="zero")).max() <= 1e-13
        assert np.abs(theta[:3] - [1.0, 90 / 119, 81 / 119]).max() <= 1e-15
        assert chain.absorb[2:].tolist() == [1.0, 1.0, 1.0]
        e = chain.invariant_basis()
        assert np.abs(chain.transition_matrix @ e - e).max() == 0.0
        assert np.linalg.matrix_rank(e) == chain.n_absorbing == 2
        assert monte_carlo_threat(chain, 100, seed=1).theta[3:].tolist() == [0.0, 0.0, 0.0]

    def test_psi_validation(self, path3):
        with pytest.raises(GraphError):
            build_absorbing_chain(path3, np.array([1.2, 0.5, 0.5]), ObservationSet.of((0, 1.0)))


class TestEquivalence:
    def test_harmonic_equals_hitting(self):
        assert check_harmonic_hitting_equivalence(rng_for("equiv"), reps=10, n=18, cues=3) <= 1e-8


class TestMonteCarlo:
    def test_observed_vertex_exact_for_any_walk_count(self, path3):
        psi = compute_prior(path3, PriorSpec("dwtp"))
        chain = build_absorbing_chain(path3, psi, ObservationSet.of((2, 0.77)))
        for k in (1, 10):
            mc = monte_carlo_threat(chain, k, seed=5)
            assert mc.theta[2] == 0.77

    def test_no_absorption_mass_gives_exact_boundary_value(self, path3):
        p0 = 0.6
        chain = build_absorbing_chain(path3, np.ones(3), ObservationSet.of((2, p0)))
        mc = monte_carlo_threat(chain, 500, seed=9)
        assert np.array_equal(mc.theta, np.full(3, p0) * np.array([1.0, 1.0, 1.0]))
        assert np.abs(mc.theta - p0).max() == 0.0

    def test_path_estimate_within_binomial_error(self, path3):
        psi = compute_prior(path3, PriorSpec("dwtp"))
        chain = build_absorbing_chain(path3, psi, ObservationSet.of((2, 1.0)))
        k = 10**6
        mc = monte_carlo_threat(chain, k, seed=123)
        sigma = np.sqrt((1 / 3) * (2 / 3) / k)
        assert abs(mc.theta[0] - 1 / 3) <= 3 * sigma
        assert abs(mc.theta[1] - 1 / 3) <= 3 * sigma
        assert mc.capped_walks == 0

    def test_estimator_tracks_exact_solution(self):
        rng = rng_for("mc-prop")
        g, psi, obs = random_system(rng, n=15)
        chain = build_absorbing_chain(g, psi, obs)
        exact = hitting_threat(chain)
        k = 40_000
        mc = monte_carlo_threat(chain, k, seed=77)
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 0.0) / k)
        assert np.all(np.abs(mc.theta - exact) <= 3 * sigma + 1e-12)

    def test_bitwise_deterministic(self, path3):
        psi = compute_prior(path3, PriorSpec("dwtp"))
        chain = build_absorbing_chain(path3, psi, ObservationSet.of((2, 1.0)))
        a = monte_carlo_threat(chain, 5000, seed=42)
        b = monte_carlo_threat(chain, 5000, seed=42)
        c = monte_carlo_threat(chain, 5000, seed=43)
        assert np.array_equal(a.theta, b.theta)
        assert not np.array_equal(a.theta, c.theta)

    def test_walks_run_above_five_thousand_vertices(self):
        # 5,000 ring vertices around one cued hub; each steps to the hub with
        # probability psi / 3, so its threat x = psi (1 + 2x) / 3 is 0.75.
        ring = 5000
        chain = build_absorbing_chain(wheel(ring), np.full(ring + 1, 0.9), ObservationSet.of((0, 1.0)))
        k = 100
        mc = monte_carlo_threat(chain, k, seed=11)
        assert mc.capped_walks == 0 and mc.theta[0] == 1.0
        assert abs(mc.theta[1:].mean() - 0.75) <= 5 * np.sqrt(0.75 * 0.25 / (k * ring))

    def test_walks_in_a_cut_off_component_end_at_once(self, monkeypatch):
        # Vertices 3-5 are a stochastic component with no path to the cue:
        # its walks would wander to the step cap.  They have threat zero, and
        # the cued component keeps the estimates of its chain alone, since
        # each walk draws by (seed, step, walk) only.
        monkeypatch.setattr(spatial, "MAX_WALK_STEPS", 200)
        cued = [(0, 1, 1.0), (1, 2, 1.0)]
        psi = [0.9, 0.9, 0.9, 1.0, 1.0, 1.0]
        whole = build_graph(cued + [(3, 4, 1.0), (4, 5, 1.0)])
        mc = monte_carlo_threat(build_absorbing_chain(whole, psi, ObservationSet.of((0, 1.0))), 50, seed=3)
        alone = monte_carlo_threat(build_absorbing_chain(build_graph(cued), psi[:3], ObservationSet.of((0, 1.0))),
                                   50, seed=3)
        assert mc.capped_walks == 0
        assert mc.theta[3:].tolist() == [0.0, 0.0, 0.0]
        assert mc.theta[:3].tobytes() == alone.theta.tobytes()

    def test_consecutive_steps_share_no_draws(self):
        # Philox advances its first counter word once per four draws, so a
        # step kept in that word would hand walk j + 4's draws to walk j next step.
        assert not np.isin(_step_uniforms(11, 1, np.arange(8)), _step_uniforms(11, 0, np.arange(1000))).any()

    def test_active_walk_draws_match_all_walk_draw(self):
        # Runs of walks split where more than STREAM_GAP_BLOCKS blocks of
        # four draws go unused, and each run starts its own stream.
        far = 4 * STREAM_GAP_BLOCKS
        rng = rng_for("walk-draws")
        sets = [np.array([0]), np.array([7]), np.arange(8), np.array([3, 4, 4 + far, 8 + 2 * far, 13 + 2 * far]),
                np.array([1, 4 * (STREAM_GAP_BLOCKS + 1), 4 * (2 * STREAM_GAP_BLOCKS + 2) + 3, 50 * far + 2])]
        sets += [np.flatnonzero(rng.random(12 * far) < frac) for frac in (0.5, 1e-3, 1e-4)]
        for walks in sets:
            for seed, step in ((0, 0), (11, 5), (2**64 - 1, 2127)):
                got = _step_uniforms(seed, step, walks)
                assert got.tobytes() == all_walk_uniforms(seed, step, walks).tobytes(), (walks, seed, step)

    def test_long_walks_match_all_walk_draw(self, monkeypatch):
        # Three states far apart in walk order hold their walks for hundreds
        # of steps with a heavy self-loop, while the other walks end within a
        # few, so late steps draw for a few scattered runs of walks.
        heavy = (2, 15, 31)
        edges = [(i, i, 200.0 if i in heavy else 1.0) for i in range(2, 33)]
        edges += [(i, cue, 1.0) for i in range(2, 33) for cue in (0, 1)]
        g = build_graph(edges, allow_self_loops=True)
        chain = build_absorbing_chain(g, np.ones(g.n), ObservationSet.of((0, 1.0), (1, 0.0)))
        got = monte_carlo_threat(chain, 300, seed=7)
        monkeypatch.setattr(spatial, "_step_uniforms", all_walk_uniforms)
        want = monte_carlo_threat(chain, 300, seed=7)
        assert got.theta.tobytes() == want.theta.tobytes() and got.capped_walks == want.capped_walks == 0

    def test_spread_over_equivalent_vertices_is_binomial(self):
        # Every ring vertex of a wheel has the same threat, 0.75, so their
        # estimates should spread like independent binomial means.
        ring, k = 200, 100
        chain = build_absorbing_chain(wheel(ring), np.full(ring + 1, 0.9), ObservationSet.of((0, 1.0)))
        theta = monte_carlo_threat(chain, k, seed=11).theta[1:]
        assert theta.std() <= 1.25 * np.sqrt(0.75 * 0.25 / k)

    def test_walk_count_validated(self, path3):
        psi = compute_prior(path3, PriorSpec("dwtp"))
        chain = build_absorbing_chain(path3, psi, ObservationSet.of((2, 1.0)))
        with pytest.raises(GraphError, match="walks_per_vertex"):
            monte_carlo_threat(chain, 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
    def test_seed_validated(self, path3, seed):
        psi = compute_prior(path3, PriorSpec("dwtp"))
        chain = build_absorbing_chain(path3, psi, ObservationSet.of((2, 1.0)))
        with pytest.raises(GraphError, match="seed"):
            monte_carlo_threat(chain, 10, seed=seed)


class TestPropagationOperator:
    def test_weighted_rows_normalized(self):
        g = build_graph([(0, 1, 2.0), (1, 2, 6.0)])
        p = propagation_operator(g, np.ones(3)).tocsr().toarray()
        assert np.allclose(p[1], [0.25, 0.0, 0.75])

    def test_isolated_vertex_policy(self):
        # A vertex without weight gets a zero row: walks there absorb at once.
        g = build_graph([(0, 1, 1.0)], n=3)
        p = propagation_operator(g, np.ones(3)).tocsr().toarray()
        assert np.array_equal(p[2], [0.0, 0.0, 0.0])

    def test_row_scaling_stores_what_the_sparse_product_stores(self):
        # Same values, same order within each row and the same dropped zeros
        # (a zero weight, a zero scale), so every matvec sums as before, for
        # one factor and for two nested ones.
        rng = rng_for("scale-rows")
        a = make_er(rng, 30, 0.3).adjacency.copy()
        a.data = rng.uniform(0.0, 2.0, a.nnz) * (rng.random(a.nnz) > 0.1)
        s, t = (rng.uniform(0.1, 1.0, 30) * (rng.random(30) > 0.2) for _ in range(2))
        twice = sp.diags(t) @ (sp.diags(s) @ a)
        once = scale_rows(Entries.of_csr(a), s)
        for got, want in ((once.tocsr(), sp.diags(s) @ a), (scale_rows(once, t).tocsr(), twice)):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part))

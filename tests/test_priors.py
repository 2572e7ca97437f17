import math

import numpy as np
import pytest

from threatprop import priors
from threatprop.errors import DisconnectedGraphError, GraphError, ObservationError
from threatprop.graph import ObservationSet, build_graph
from threatprop.priors import (
    EULER_GAMMA,
    PRIOR_FLOOR,
    PriorSpec,
    average_path_length,
    compute_prior,
    er_average_path_length,
)

from conftest import make_er, rng_for


def brute_force_apl(g) -> float:
    """All-pairs BFS by hand, the oracle for average path length."""
    rows = {i: set() for i in range(g.n)}
    for e in g.interactions:
        rows[e.u].add(e.v)
        rows[e.v].add(e.u)
    total, pairs = 0, 0
    for s in range(g.n):
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in rows[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        for t in range(s + 1, g.n):
            total += dist[t]
            pairs += 1
    return total / pairs


class TestAveragePathLength:
    def test_path3(self, path3):
        assert average_path_length(path3) == pytest.approx(brute_force_apl(path3))
        assert average_path_length(path3) == pytest.approx(4.0 / 3.0)

    def test_complete_k4(self):
        k4 = build_graph([(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        assert average_path_length(k4) == pytest.approx(1.0)

    def test_star_s4(self):
        star = build_graph([(0, i, 1.0) for i in range(1, 4)])
        assert average_path_length(star) == pytest.approx(brute_force_apl(star))
        assert average_path_length(star) == pytest.approx(1.5)

    def test_matches_oracle_on_random_graphs(self):
        rng = rng_for("apl")
        for _ in range(5):
            g = make_er(rng, 14, 0.3)
            assert average_path_length(g) == pytest.approx(brute_force_apl(g))

    def test_disconnected_rejected(self):
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            average_path_length(g)

    def test_zero_weight_record_links_nothing(self):
        # As in Graph.hops and every operator; csgraph alone would count the
        # stored zero as an edge and return 5/3.
        g = build_graph([(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)], n=4)
        with pytest.raises(DisconnectedGraphError):
            average_path_length(g)


class TestClosedFormPathLength:
    def test_sparse_random_graph_formula(self):
        n = 1000
        expected = (math.log(n) - EULER_GAMMA) / math.log(math.log(n)) + 0.5
        assert er_average_path_length(n) == pytest.approx(expected, rel=1e-12)
        assert EULER_GAMMA == pytest.approx(0.5772, abs=5e-5)


class TestComputePrior:
    def test_dwtp_path(self, path3):
        psi = compute_prior(path3, PriorSpec("dwtp"))
        assert np.allclose(psi, [1.0, 0.5, 1.0])

    def test_dwtp_regular_graph_constant(self):
        cycle = build_graph([(i, (i + 1) % 6, 1.0) for i in range(6)])
        psi = compute_prior(cycle, PriorSpec("dwtp"))
        assert np.allclose(psi, 0.5)

    def test_lwtp_unit_path_length(self):
        k4 = build_graph([(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)])
        psi = compute_prior(k4, PriorSpec("lwtp"))
        assert np.allclose(psi, 0.5)  # 2**(-1/1)

    def test_lwtp_constant_by_construction(self):
        g = make_er(rng_for("lwtp"), 20)
        psi = compute_prior(g, PriorSpec("lwtp"))
        assert np.unique(psi).size == 1
        assert np.allclose(psi, 2.0 ** (-1.0 / average_path_length(g)))

    def test_lwtp_falls_back_to_closed_form_above_cutoff(self, caplog, monkeypatch):
        monkeypatch.setattr(priors, "EXACT_PATH_LENGTH_LIMIT", 10)
        g = make_er(rng_for("lwtp-big"), 40)
        with caplog.at_level("WARNING"):
            psi = compute_prior(g, PriorSpec("lwtp"))
        assert np.allclose(psi, 2.0 ** (-1.0 / er_average_path_length(40)))
        assert "closed-form" in caplog.text

    def test_bfs_prior_distance_weighting(self, path3):
        obs = ObservationSet.of((0, 1.0))
        psi = compute_prior(path3, PriorSpec("bfs"), obs)
        assert np.allclose(psi, [1.0, 1.0, 0.5])

    def test_bfs_prior_nonincreasing_in_distance(self):
        rng = rng_for("bfs-prop")
        for _ in range(10):
            g = make_er(rng, 25)
            cue = int(rng.integers(g.n))
            obs = ObservationSet.of((cue, 1.0))
            psi = compute_prior(g, PriorSpec("bfs"), obs)
            dist = g.hops([cue])
            order = np.argsort(dist)
            assert np.all(np.diff(psi[order]) <= 1e-12)

    def test_bfs_prior_needs_observations(self, path3):
        with pytest.raises(ObservationError):
            compute_prior(path3, PriorSpec("bfs"))

    def test_bfs_prior_unreachable_vertex(self):
        # Unreachable vertices take the floor, as in the bfs detector.
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
        psi = compute_prior(g, PriorSpec("bfs"), ObservationSet.of((0, 1.0)))
        assert np.array_equal(psi, [1.0, 1.0, PRIOR_FLOOR, PRIOR_FLOOR])

    def test_bfs_prior_across_a_zero_weight_record(self):
        g = build_graph([(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)], n=4)
        psi = compute_prior(g, PriorSpec("bfs"), ObservationSet.of((0, 1.0)))
        assert np.array_equal(psi, [1.0, 1.0, PRIOR_FLOOR, PRIOR_FLOOR])

    def test_uniform_prior(self, path3):
        assert np.allclose(compute_prior(path3, PriorSpec("uniform", psi0=0.7)), 0.7)

    def test_floor_applied(self, monkeypatch):
        monkeypatch.setattr(priors, "PRIOR_FLOOR", 0.1)
        star = build_graph([(0, i, 1.0) for i in range(1, 30)])
        psi = compute_prior(star, PriorSpec("dwtp"))
        assert psi[0] == pytest.approx(0.1)  # 1/29 floored

    def test_values_in_unit_interval(self):
        rng = rng_for("range")
        for kind in ("uniform", "dwtp", "lwtp", "bfs"):
            g = make_er(rng, 15)
            obs = ObservationSet.of((0, 1.0))
            psi = compute_prior(g, PriorSpec(kind), obs)
            assert np.all(psi > 0) and np.all(psi <= 1)

    def test_bad_kind_and_psi0(self):
        with pytest.raises(GraphError):
            PriorSpec("magic")
        with pytest.raises(GraphError):
            PriorSpec("uniform", psi0=0.0)

    def test_dwtp_isolated_vertex(self):
        # A vertex without neighbours gets 1; its operator row is zero anyway.
        g = build_graph([(0, 1, 1.0)], n=3)
        assert np.array_equal(compute_prior(g, PriorSpec("dwtp")), [1.0, 1.0, 1.0])

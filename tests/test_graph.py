import re
import warnings

import numpy as np
import pytest

from threatprop.errors import DisconnectedGraphError, GraphError, ObservationError
from threatprop.graph import MAX_WEIGHT, MIN_WEIGHT, Graph, ObservationSet, build_graph, laplacian
from threatprop.io import read_edges
from threatprop.spatial import propagation_operator
from threatprop.spacetime import TimeGrid
from threatprop.spectral import fiedler

from conftest import adjacency_sets, bfs_component, make_er, rng_for


class TestBuildGraph:
    def test_path_degrees(self, path3):
        assert path3.n == 3
        assert np.array_equal(path3.degrees, [1.0, 2.0, 1.0])

    def test_empty_edge_list_is_an_error(self):
        with pytest.raises(GraphError, match="empty graph"):
            build_graph([])

    def test_explicit_n_allows_edgeless_graph(self):
        g = build_graph([], n=4)
        assert g.n == 4 and g.size == 0

    def test_negative_weight_rejected(self):
        with pytest.raises(GraphError, match="negative weight"):
            build_graph([(0, 1, -2.0)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph([(0, 5, 1.0)], n=3)

    def test_self_loop_rejected_by_default(self, tmp_path):
        # The edge-list reader, the default way in, refuses a self-loop and
        # names its vertex; a graph built in code may hold one.
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\na,b,1\nc,c,1\n")
        with pytest.raises(GraphError, match=r"self-loop at vertex c$"):
            read_edges(path)
        g = build_graph([(0, 1, 1.0), (2, 2, 1.0)])
        assert g.size == 2

    @pytest.mark.parametrize("row, message", [
        ((0, 1, float("nan")), "non-finite weight"),
        ((0, 1, float("inf")), "non-finite weight"),
        ((0, 1, 1.0, float("nan"), float("nan")), "non-finite timestamp"),
        ((0, 1, 1.0, 2.0, float("inf")), "non-finite timestamp"),
    ])
    def test_non_finite_values_rejected(self, row, message):
        # NaN marks an untimed record inside a graph, so an explicit NaN time
        # in a row is bad input rather than "untimed".
        with pytest.raises(GraphError, match=message):
            build_graph([(1, 2, 1.0), row])

    def test_direct_construction_validates_columns(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(3, [0], [5], [1.0])
        with pytest.raises(GraphError, match="non-finite weight"):
            Graph(3, [0], [1], [np.nan])
        with pytest.raises(GraphError, match="half-set"):
            Graph(3, [0], [1], [1.0], [2.0], [np.nan])

    def test_interaction_view_reads_the_columns(self):
        g = build_graph([(0, 1, 2.0), (1, 2, 1.0, 3.25, 4.5)])
        assert g.interactions == ((0, 1, 2.0, None, None), (1, 2, 1.0, 3.25, 4.5))
        assert [e.timestamped for e in g.interactions] == [False, True]
        assert g.timed.tolist() == [False, True]
        with pytest.raises(ValueError):
            g.w[0] = 5.0

    def test_half_timestamp_pair_rejected(self):
        with pytest.raises(GraphError, match="timestamp"):
            build_graph([(0, 1, 1.0, 2.5, None)])

    def test_duplicate_static_edges_merge_by_weight_sum(self, caplog):
        with caplog.at_level("WARNING"):
            g = build_graph([(0, 1, 1.0), (1, 0, 2.5), (1, 2, 1.0)])
        assert g.size == 2
        assert g.adjacency[0, 1] == 3.5
        assert "duplicate" in caplog.text

    def test_overflowing_merge_is_refused(self):
        # The range applies to the merged weight, whose sum overflows quietly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GraphError, match=r"weight inf on edge \(0, 1\) is neither 0 nor in "):
                build_graph([(0, 1, 1e308), (2, 1, 1.0), (1, 0, 1e308)])

    def test_timestamped_multiplicity_is_kept(self):
        g = build_graph([(0, 1, 1.0, 0.0, 0.0), (0, 1, 1.0, 3.0, 3.0)])
        assert g.size == 2
        assert g.adjacency[0, 1] == 2.0

    def test_undirected_adjacency_symmetric(self):
        rng = rng_for("sym")
        for _ in range(5):
            g = make_er(rng, 15, 0.4, connected=False)
            assert (g.adjacency != g.adjacency.T).nnz == 0

    def test_label_table_length_checked(self):
        with pytest.raises(GraphError, match="label"):
            build_graph([(0, 1, 1.0)], labels=["a"])


class TestWeightRange:
    """A stored weight is 0 or lies in [MIN_WEIGHT, MAX_WEIGHT], timed or
    untimed, and a merged weight is held to the same range."""

    @pytest.mark.parametrize("w", [0.0, MIN_WEIGHT, MAX_WEIGHT])
    @pytest.mark.parametrize("times", [(), (0.5, 1.5)], ids=["untimed", "timed"])
    def test_zero_and_both_ends_are_accepted(self, w, times):
        g = build_graph([(0, 1, 1.0), (1, 2, w, *times)])
        assert g.w.tolist() == [1.0, w]

    @pytest.mark.parametrize("w", [np.nextafter(MIN_WEIGHT, 0.0), np.nextafter(MAX_WEIGHT, np.inf)],
                             ids=["below", "above"])
    @pytest.mark.parametrize("times", [(), (0.5, 1.5)], ids=["untimed", "timed"])
    def test_beyond_either_end_is_refused(self, w, times):
        message = f"weight {w} on edge (2, 1) is neither 0 nor in [1e-100, 1e+100]; rescale the weights"
        with pytest.raises(GraphError, match=re.escape(message)):
            build_graph([(0, 1, 1.0), (2, 1, w, *times)])

    def test_merged_sum_beyond_the_range_is_refused(self):
        # Both records lie in the range; their merged weight 1.2e100 does not.
        with pytest.raises(GraphError, match=r"weight 1\.2e\+100 on edge \(2, 1\) is neither 0 nor in "):
            build_graph([(0, 1, 1.0), (2, 1, 6e99), (1, 2, 6e99)])


class TestLaplacian:
    def test_path_kirchhoff_matrix(self, path3):
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(laplacian(path3, "kirchhoff").toarray(), expected)

    def test_kernel_property(self):
        rng = rng_for("kernel")
        for _ in range(10):
            g = make_er(rng, 20)
            one = np.ones(g.n)
            assert np.abs(laplacian(g, "kirchhoff") @ one).max() <= 1e-12
            assert np.abs(laplacian(g, "generalized") @ one).max() <= 1e-12

    def test_generalized_path_row_is_second_difference(self, path3):
        row = laplacian(path3, "generalized").toarray()[1]
        assert np.allclose(row, [-0.5, 1.0, -0.5])

    def test_normalized_requires_positive_degrees(self):
        # the generalized kind I - D^-1 A is the random-walk normalized Laplacian
        g = build_graph([(0, 1, 1.0)], n=3)
        with pytest.raises(GraphError, match="zero degree at vertex 2;"):
            laplacian(g, "generalized")
        # named as the edge list names it
        g = build_graph([(0, 1, 1.0)], n=3, labels=["x", "y", "z"])
        with pytest.raises(GraphError, match="zero degree at vertex z;"):
            laplacian(g, "generalized")

    def test_generalized_with_prior(self, path3):
        psi = np.array([1.0, 0.5, 1.0])
        lp = np.eye(3) - propagation_operator(path3, psi).tocsr().toarray()
        assert np.allclose(lp[1], [-0.25, 1.0, -0.25])

    def test_unknown_kind(self, path3):
        with pytest.raises(GraphError, match="unknown"):
            laplacian(path3, "weird")


class TestFiedler:
    def test_path3_value(self, path3):
        # oracle: dense eigendecomposition of the known 3x3 Kirchhoff matrix
        oracle = np.sort(np.linalg.eigvalsh(laplacian(path3, "kirchhoff").toarray()))[1]
        value, vec = fiedler(path3)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert np.abs(laplacian(path3) @ vec - value * vec).max() < 1e-8

    @pytest.mark.parametrize("n", [4, 5])
    def test_complete_graph_value(self, n):
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
        g = build_graph(edges)
        oracle = np.sort(np.linalg.eigvalsh(laplacian(g).toarray()))[1]
        value, _ = fiedler(g)
        assert value == pytest.approx(oracle, abs=1e-9)
        assert value == pytest.approx(n, abs=1e-9)

    def test_disconnected_flagged(self):
        g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(DisconnectedGraphError, match="not connected"):
            fiedler(g)

    def test_zero_weight_record_does_not_connect(self):
        # A zero weight leaves the Kirchhoff matrix block diagonal, so lambda_2 is zero.
        g = build_graph([(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)], n=4)
        assert not g.is_connected()
        with pytest.raises(DisconnectedGraphError, match="not connected"):
            fiedler(g)

    def test_sign_convention_deterministic(self):
        rng = rng_for("sign")
        g = make_er(rng, 12)
        _, v1 = fiedler(g)
        _, v2 = fiedler(g)
        assert np.array_equal(v1, v2)
        assert v1[np.abs(v1).argmax()] > 0

    def test_iterative_path_matches_dense_oracle(self):
        # above the dense cutoff the deflated iterative eigensolver takes over
        rng = rng_for("bigfiedler")
        g = make_er(rng, 300, 0.03)
        value, vec = fiedler(g)
        q = np.asarray((np.diag(g.degrees) - g.adjacency.toarray()))
        oracle = np.sort(np.linalg.eigvalsh(q))[1]
        assert value == pytest.approx(oracle, rel=1e-6)
        assert np.abs(q @ vec - value * vec).max() <= 1e-6

    def test_threshold_connectivity_and_bounds(self):
        # Nonpositive-threshold level sets of the connectivity eigenvector
        # induce connected subgraphs; the value sits between the diameter and
        # minimum-degree bounds.
        from scipy.sparse import csgraph

        rng = rng_for("fiedler-prop")
        for _ in range(20):
            n = int(rng.integers(6, 50))
            g = make_er(rng, n, 0.25)
            value, vec = fiedler(g)
            d = csgraph.shortest_path(g.adjacency, unweighted=True)
            lo = 4.0 / (g.n * d.max())
            hi = g.n / (g.n - 1) * g.degrees.min()
            assert lo - 1e-9 <= value <= hi + 1e-9
            rows = adjacency_sets(g)
            for c in np.r_[vec[vec < 0], 0.0]:
                keep = set(np.flatnonzero(vec >= c).tolist())
                if len(keep) <= 1:
                    continue
                sub = {v: rows[v] & keep for v in keep}
                start = next(iter(keep))
                assert bfs_component(sub, start) == keep


class TestObservationSet:
    def test_empty_rejected(self):
        with pytest.raises(ObservationError, match="empty"):
            ObservationSet(())

    def test_probability_range_checked(self):
        with pytest.raises(ObservationError, match="outside"):
            ObservationSet.of((0, 1.5))

    def test_duplicates_merge(self, path3):
        # a repeated row is one cue, in space and in space-time
        once = ObservationSet.of((0, 0.5, 1.0))
        twice = ObservationSet.of((0, 0.5, 1.0), (0, 0.5, 1.0))
        for grid in (None, TimeGrid(0.0, 1.0, 3)):
            cells, values = twice.boundary(path3, grid)
            assert cells.tolist() == once.boundary(path3, grid)[0].tolist() and values.tolist() == [0.5]

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ObservationError, match="not finite"):
            ObservationSet.of((0, 0.5, t))

    def test_timed_entries_distinct_per_bin(self):
        obs = ObservationSet.of((0, 0.5, 1.0), (0, 0.5, 2.0))
        assert len(obs.entries) == 2

    def test_boundary_range(self, path3):
        with pytest.raises(ObservationError, match="out of range"):
            ObservationSet.of((7, 1.0)).boundary(path3)

    def test_signed_zero_cues_merge_to_the_same_bits(self, path3):
        rows = [(1, -0.0, 0.5), (1, 0.0)]
        for order in (1, -1):
            cells, values = ObservationSet.of(*rows[::order]).boundary(path3)
            assert cells.tolist() == [1] and values.tobytes() == np.zeros(1).tobytes()

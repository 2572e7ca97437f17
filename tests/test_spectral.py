import numpy as np
import pytest

from threatprop import spectral
from threatprop.errors import EigenSolverError, GraphError
from threatprop.evaluation import roc
from threatprop.experiment import sbm_detection_config
from threatprop.generators import generate_sbm
from threatprop.graph import Graph, build_graph, laplacian
from threatprop.spectral import (
    DENSE_EIG_LIMIT,
    _eigenpairs,
    fiedler,
    localized_modularity_scores,
    modularity_operator,
    spectral_scores,
)

from conftest import make_er, rng_for


def modularity_matrix(g: Graph) -> np.ndarray:
    """The dense modularity matrix ``A - d d^T / V``, the oracle for the
    implicit operator."""
    d = g.degrees
    return g.adjacency.toarray() - np.outer(d, d) / float(d.sum())


class TestModularityMatrix:
    def test_single_edge_closed_form(self):
        # oracle: dense 2x2 eigensolve of M = A - d d^T / V gives the
        # spectrum {-1, 0}; the (1, -1) direction carries eigenvalue -1 and
        # the top-of-spectrum vector is the constant one (a single edge has
        # no split worth making)
        k2 = build_graph([(0, 1, 1.0)])
        m = modularity_matrix(k2)
        assert np.allclose(m, [[-0.5, 0.5], [0.5, -0.5]])
        w, v = np.linalg.eigh(m)
        assert np.allclose(w, [-1.0, 0.0])
        split = v[:, 0]
        assert abs(split[0] + split[1]) < 1e-12  # proportional to (1, -1)
        top = spectral_scores(k2)
        assert np.allclose(top, [2 ** -0.5, 2 ** -0.5])
        second = spectral_scores(k2, index=1)
        assert abs(second[0] + second[1]) < 1e-12

    def test_row_sums_vanish(self):
        rng = rng_for("modsum")
        for _ in range(8):
            g = make_er(rng, 18, 0.3, connected=False)
            if g.degrees.sum() == 0:
                continue
            m = modularity_matrix(g)
            assert np.abs(m @ np.ones(g.n)).max() <= 1e-12

    def test_operator_matches_dense(self):
        rng = rng_for("modop")
        g = make_er(rng, 20)
        op = modularity_operator(g)
        x = rng.normal(size=g.n)
        assert np.allclose(op(x), modularity_matrix(g) @ x)
        block = rng.normal(size=(g.n, 3))
        assert np.allclose(op(block), modularity_matrix(g) @ block)


class TestSpectralScores:
    def test_residual_bound(self):
        rng = rng_for("specres")
        g = make_er(rng, 30)
        scores = spectral_scores(g)
        m = modularity_matrix(g)
        w = np.sort(np.linalg.eigvalsh(m))
        resid = np.linalg.norm(m @ scores - w[-1] * scores)
        assert resid <= 1e-8

    def test_sign_fixed_max_magnitude_positive(self):
        rng = rng_for("specsign")
        for _ in range(5):
            g = make_er(rng, 15)
            s = spectral_scores(g)
            assert s[np.abs(s).argmax()] > 0

    def test_ordering_invariant_to_weight_scaling(self):
        rng = rng_for("specscale")
        g = make_er(rng, 20)
        scaled = build_graph([(e.u, e.v, e.weight * 7.5) for e in g.interactions], n=g.n)
        a = spectral_scores(g)
        b = spectral_scores(scaled)
        assert np.array_equal(np.argsort(a, kind="stable"), np.argsort(b, kind="stable"))

    def test_secondary_eigenvector_index(self):
        rng = rng_for("specidx")
        g = make_er(rng, 15)
        m = modularity_matrix(g)
        w, v = np.linalg.eigh(m)
        second = spectral_scores(g, index=1)
        ref = v[:, -2]
        assert min(np.abs(second - ref).max(), np.abs(second + ref).max()) <= 1e-8

    def test_sparse_path_matches_dense_oracle(self):
        rng = rng_for("bigspec")
        g = make_er(rng, 300, 0.04)
        scores = spectral_scores(g)  # Lanczos path above the dense limit
        m = modularity_matrix(g)
        w, v = np.linalg.eigh(m)
        ref = v[:, -1]
        assert min(np.abs(scores - ref).max(), np.abs(scores + ref).max()) <= 1e-7
        loc = localized_modularity_scores(g)
        cands = v[:, -5:]
        ref_loc = cands[:, np.argmin(np.abs(cands).sum(axis=0))]
        assert min(np.abs(loc - ref_loc).max(), np.abs(loc + ref_loc).max()) <= 1e-6

    def test_validation(self, path3):
        with pytest.raises(GraphError):
            spectral_scores(path3, index=99)


def same_up_to_sign(got, want) -> float:
    """Largest entry difference of each column pair, the column's sign free."""
    return float(np.minimum(np.abs(got - want).max(axis=0), np.abs(got + want).max(axis=0)).max())


class TestLanczosAgainstDense:
    # Above DENSE_EIG_LIMIT every pair comes from the Lanczos iteration; the
    # oracle is np.linalg.eigh of the written-out matrix, at the tolerances of
    # test_sparse_path_matches_dense_oracle.
    @pytest.fixture
    def weighted(self):
        rng = rng_for("lanczos-weighted")
        g = make_er(rng, DENSE_EIG_LIMIT + 44, 0.04)
        return Graph(g.n, g.u, g.v, rng.uniform(0.5, 2.0, g.size))

    @pytest.mark.parametrize("k", [1, 5, 31])  # 31 pairs take a basis of 63
    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_largest_modularity_pairs(self, weighted, k, scale):
        g = Graph(weighted.n, weighted.u, weighted.v, weighted.w * scale)
        w, v = np.linalg.eigh(modularity_matrix(g))
        got_w, got_v = _eigenpairs(g, modularity_operator(g), k, "LA")
        assert np.abs(got_w - w[::-1][:k]).max() <= 1e-9 * scale
        assert same_up_to_sign(got_v, v[:, ::-1][:, :k]) <= 1e-7

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_fiedler_pair(self, weighted, scale):
        g = Graph(weighted.n, weighted.u, weighted.v, weighted.w * scale)
        w, v = np.linalg.eigh(laplacian(g).toarray())
        value, vec = fiedler(g)
        assert value == pytest.approx(w[1], rel=1e-9)
        assert same_up_to_sign(vec[:, None], v[:, 1:2]) <= 1e-7

    def test_disjoint_union(self):
        rng = rng_for("lanczos-union")
        a, b = make_er(rng, 150, 0.08), make_er(rng, 160, 0.08)
        g = Graph(a.n + b.n, np.r_[a.u, b.u + a.n], np.r_[a.v, b.v + a.n], np.r_[a.w, b.w])
        w, v = np.linalg.eigh(modularity_matrix(g))
        got_w, got_v = _eigenpairs(g, modularity_operator(g), 5, "LA")
        assert np.abs(got_w - w[::-1][:5]).max() <= 1e-9
        assert same_up_to_sign(got_v, v[:, ::-1][:, :5]) <= 1e-6


class TestEigensolverFailures:
    # Above the dense cutoff every eigenpair comes from the Lanczos iteration.
    @pytest.fixture
    def big(self):
        return make_er(rng_for("eigfail"), DENSE_EIG_LIMIT + 44, 0.04)

    @pytest.mark.parametrize("solve", [fiedler, spectral_scores, localized_modularity_scores])
    def test_product_cap_is_an_eigensolver_error(self, big, solve, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_MAX_PRODUCTS", 3)
        with pytest.raises(EigenSolverError, match="eigensolver failed"):
            solve(big)

    def test_perturbed_eigenvector_fails_the_residual_bound(self, big, monkeypatch):
        real = spectral._lanczos

        def perturbed(*args):
            w, v = real(*args)
            v[0, -1] += 1e-6
            return w, v

        monkeypatch.setattr(spectral, "_lanczos", perturbed)
        with pytest.raises(EigenSolverError, match="residual"):
            localized_modularity_scores(big)


class TestEigenpairScale:
    def test_last_eigenvector_above_the_dense_limit(self):
        # index n - 1 asks for all n pairs, which the dense eigensolve gives
        g = make_er(rng_for("eiglast"), DENSE_EIG_LIMIT + 44, 0.04)
        _, v = np.linalg.eigh(modularity_matrix(g))
        ref = v[:, 0] * np.sign(v[np.argmax(np.abs(v[:, 0])), 0])
        assert np.abs(spectral_scores(g, index=g.n - 1) - ref).max() <= 1e-8

    def test_residual_bound_scales_with_the_weights(self):
        g = make_er(rng_for("eigscale"), 40)
        heavy = Graph(g.n, g.u, g.v, g.w * 1e8)
        value, vec = fiedler(g)
        heavy_value, heavy_vec = fiedler(heavy)
        assert heavy_value == pytest.approx(1e8 * value, rel=1e-9)
        assert np.abs(heavy_vec - vec).max() <= 1e-9
        assert np.abs(spectral_scores(heavy) - spectral_scores(g)).max() <= 1e-9


class TestPlantedBlockDetection:
    def test_dense_planted_block_enriches_top_scores(self):
        # with the foreground at twice its connectivity threshold, the most
        # localized top eigenvector concentrates on the planted community
        params = sbm_detection_config(activity=2.0).params
        hits = []
        for seed in range(10):
            net = generate_sbm(params, temporal="none", seed=seed)
            scores = localized_modularity_scores(net.graph)
            top = np.argsort(-scores)[:30]
            hits.append(net.truth[top].mean())
        assert np.mean(hits) > 0.5  # chance level would be 30/256

    def test_localized_beats_principal_on_embedded_foreground(self):
        params = sbm_detection_config(activity=2.0).params
        auc_loc, auc_pri = [], []
        for seed in range(10):
            net = generate_sbm(params, temporal="none", seed=seed)
            auc_loc.append(roc(localized_modularity_scores(net.graph), net.truth).auc)
            auc_pri.append(roc(spectral_scores(net.graph), net.truth).auc)
        assert np.mean(auc_loc) > np.mean(auc_pri) + 0.2

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from threatprop.errors import EigenSolverError, GraphError
from threatprop.evaluation import roc
from threatprop.experiment import sbm_detection_config
from threatprop.generators import generate_sbm
from threatprop.graph import build_graph
from threatprop.spectral import (
    DENSE_EIG_LIMIT,
    fiedler,
    localized_modularity_scores,
    modularity_matrix,
    modularity_operator,
    spectral_scores,
)

from conftest import make_er, rng_for


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
        assert np.allclose(op @ x, modularity_matrix(g) @ x)


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
        scores = spectral_scores(g)  # ARPACK path above cutoff
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


class TestEigensolverFailures:
    # Above the dense cutoff every eigenpair comes from ARPACK.
    @pytest.fixture
    def big(self):
        return make_er(rng_for("eigfail"), DENSE_EIG_LIMIT + 44, 0.04)

    @pytest.mark.parametrize("solve", [fiedler, spectral_scores, localized_modularity_scores])
    def test_arpack_failure_is_an_eigensolver_error(self, big, solve, monkeypatch):
        def stalled(a, k, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((a.shape[0], 0)))

        monkeypatch.setattr(spla, "eigsh", stalled)
        with pytest.raises(EigenSolverError, match="eigensolver failed"):
            solve(big)

    def test_perturbed_eigenvector_fails_the_residual_bound(self, big, monkeypatch):
        real = spla.eigsh

        def perturbed(*args, **kwargs):
            w, v = real(*args, **kwargs)
            v[0, -1] += 1e-6
            return w, v

        monkeypatch.setattr(spla, "eigsh", perturbed)
        with pytest.raises(EigenSolverError, match="residual"):
            localized_modularity_scores(big)


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

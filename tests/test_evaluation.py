import numpy as np
import pytest

from threatprop.errors import GraphError
from threatprop.evaluation import (
    RocCurve,
    auc_standard_error,
    convexity_defect,
    pd_pfa,
    roc,
)

from conftest import rng_for


class TestPdPfa:
    def test_perfect_detector(self):
        truth = np.array([1, 1, 0, 0])
        assert pd_pfa(truth, truth) == (1.0, 0.0)

    def test_declare_everything(self):
        truth = np.array([1, 1, 0, 0])
        assert pd_pfa(np.ones(4), truth) == (1.0, 1.0)

    def test_half_and_half(self):
        # oracle: direct set arithmetic
        truth = np.array([1, 1, 0, 0])
        detector = np.array([1, 0, 1, 0])
        hit = len({0} & {0, 1}) / 2
        fa = len({2} & {2, 3}) / 2
        assert (hit, fa) == (0.5, 0.5)
        assert pd_pfa(detector, truth) == (0.5, 0.5)

    def test_empty_class_rejected(self):
        with pytest.raises(GraphError, match="foreground"):
            pd_pfa(np.ones(3), np.ones(3))
        with pytest.raises(GraphError, match="foreground"):
            pd_pfa(np.ones(3), np.zeros(3))

    def test_shape_and_binary_validation(self):
        with pytest.raises(GraphError):
            pd_pfa(np.ones(3), np.array([0, 1]))
        with pytest.raises(GraphError):
            pd_pfa(np.ones(3), np.array([0, 1, 2]))


class TestRoc:
    def test_perfect_scores_auc_one(self):
        truth = np.array([1, 1, 0, 0, 0])
        curve = roc(truth.astype(float), truth)
        assert curve.auc == 1.0
        assert curve.pfa[0] == 0.0 and curve.pd[-1] == 1.0

    def test_chance_level(self):
        rng = rng_for("chance")
        scores = rng.random(10_000)
        truth = (rng.random(10_000) < 0.5).astype(int)
        curve = roc(scores, truth)
        assert abs(curve.auc - 0.5) <= 0.02

    def test_endpoints_present_and_monotone(self):
        rng = rng_for("endpoints")
        scores = rng.random(200)
        truth = (rng.random(200) < 0.3).astype(int)
        curve = roc(scores, truth)
        assert (curve.pfa[0], curve.pd[0]) == (0.0, 0.0)
        assert (curve.pfa[-1], curve.pd[-1]) == (1.0, 1.0)
        assert np.all(np.diff(curve.pfa) >= 0)
        assert np.all(np.diff(curve.pd) >= 0)
        assert np.all(np.diff(curve.thresholds) <= 0)

    def test_monotone_transform_invariance(self):
        rng = rng_for("monotone")
        scores = rng.random(500)
        truth = (rng.random(500) < 0.4).astype(int)
        base = roc(scores, truth)
        # the posterior-to-odds map absorbed into the threshold
        odds = roc(scores / (1.0 + 1e-9 - scores), truth)
        cubed = roc(scores**3, truth)
        for other in (odds, cubed):
            assert np.array_equal(base.pfa, other.pfa)
            assert np.array_equal(base.pd, other.pd)

    def test_tied_scores_share_a_point(self):
        scores = np.array([0.9, 0.9, 0.1, 0.1])
        truth = np.array([1, 0, 1, 0])
        curve = roc(scores, truth)
        assert curve.pfa.size == 3  # (0,0), tie level, (1,1)
        assert curve.pd[1] == 0.5 and curve.pfa[1] == 0.5

    def test_constant_scores_degenerate(self, caplog):
        with caplog.at_level("WARNING"):
            curve = roc(np.full(10, 0.5), np.array([1] * 3 + [0] * 7))
        assert "degenerates to the two endpoints" in caplog.text
        assert curve.auc == 0.5
        assert curve.pfa.size == 2

    def test_pooling_equals_vertical_average_statistically(self):
        # equal-size trials from one score distribution: pooled ROC tracks
        # the per-trial average at matched false-alarm rates
        rng = rng_for("pool")
        grid = np.linspace(0.05, 0.95, 10)
        pooled_scores, pooled_truth, trial_curves = [], [], []
        for _ in range(30):
            truth = np.r_[np.ones(40), np.zeros(160)].astype(int)
            scores = np.where(truth == 1, rng.normal(1.0, 1.0, 200), rng.normal(0.0, 1.0, 200))
            pooled_scores.append(scores)
            pooled_truth.append(truth)
            trial_curves.append(roc(scores, truth))
        pooled = roc(np.concatenate(pooled_scores), np.concatenate(pooled_truth))
        avg_pd = np.mean([c.pd_at(grid) for c in trial_curves], axis=0)
        assert np.abs(pooled.pd_at(grid) - avg_pd).max() <= 0.05

    def test_label_permuted_truth_is_chance(self):
        rng = rng_for("permuted")
        truth = np.r_[np.ones(500), np.zeros(500)].astype(int)
        scores = np.r_[rng.normal(1, 1, 500), rng.normal(0, 1, 500)]
        shuffled = rng.permutation(truth)
        curve = roc(scores, shuffled)
        se = auc_standard_error(curve.auc, 500, 500)
        assert abs(curve.auc - 0.5) <= 3 * max(se, auc_standard_error(0.5, 500, 500))

    def test_pd_at_interpolates(self):
        curve = RocCurve(
            thresholds=np.array([np.inf, 1.0, -np.inf]),
            pfa=np.array([0.0, 0.5, 1.0]),
            pd=np.array([0.0, 0.8, 1.0]),
            se_pd=np.zeros(3),
            auc=0.9, n_fg=10, n_bg=10,
        )
        assert curve.pd_at([0.25]) == pytest.approx(0.4)


class TestAucStandardError:
    def test_positive_and_shrinks_with_samples(self):
        small = auc_standard_error(0.8, 20, 100)
        big = auc_standard_error(0.8, 200, 1000)
        assert 0 < big < small

    def test_extreme_auc_does_not_blow_up(self):
        assert auc_standard_error(1.0, 10, 10) >= 0.0


class TestConvexityDefect:
    def test_straight_line_zero(self):
        curve = RocCurve(
            thresholds=np.array([np.inf, 0.5, -np.inf]),
            pfa=np.array([0.0, 0.5, 1.0]),
            pd=np.array([0.0, 0.5, 1.0]),
            se_pd=np.zeros(3), auc=0.5, n_fg=1, n_bg=1,
        )
        assert convexity_defect(curve) == 0.0

    def test_perfect_step_zero(self):
        truth = np.array([1, 1, 0, 0])
        assert convexity_defect(roc(truth.astype(float), truth)) == 0.0

    def test_known_dip(self):
        # hull between (0,0) and (0.4,0.5) passes through (0.2,0.25); the
        # curve sits at 0.1 there, so the defect is exactly 0.15
        curve = RocCurve(
            thresholds=np.array([np.inf, 3.0, 2.0, -np.inf]),
            pfa=np.array([0.0, 0.2, 0.4, 1.0]),
            pd=np.array([0.0, 0.1, 0.5, 1.0]),
            se_pd=np.zeros(4), auc=0.6, n_fg=1, n_bg=1,
        )
        assert convexity_defect(curve) == pytest.approx(0.15)

    def test_convex_curve_zero(self):
        curve = RocCurve(
            thresholds=np.array([np.inf, 3.0, 2.0, -np.inf]),
            pfa=np.array([0.0, 0.2, 0.5, 1.0]),
            pd=np.array([0.0, 0.6, 0.85, 1.0]),
            se_pd=np.zeros(4), auc=0.8, n_fg=1, n_bg=1,
        )
        assert convexity_defect(curve) == pytest.approx(0.0, abs=1e-12)

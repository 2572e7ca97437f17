"""Detection scoring: PD/PFA, swept-threshold ROC curves, AUC, convexity.

Thresholding the posterior threat directly realizes the optimal
likelihood-ratio test (any monotone transform of the scores lands in the
threshold), so the ROC of a score vector is the complete performance
summary of its detector family.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import GraphError

logger = logging.getLogger(__name__)

# False-alarm rates at which ``vertical_average`` samples each curve.
VERTICAL_GRID_SIZE = 201


def _check_detection_inputs(scores, truth):
    scores = np.asarray(scores, dtype=float).ravel()
    truth = np.asarray(truth).ravel().astype(np.int8)
    if scores.shape != truth.shape:
        raise GraphError("scores and truth must have equal length")
    if not np.isin(truth, (0, 1)).all():
        raise GraphError("truth must be 0/1 valued")
    n_fg = int(truth.sum())
    n_bg = truth.size - n_fg
    if n_fg == 0 or n_bg == 0:
        raise GraphError("need at least one foreground and one background vertex")
    return scores, truth, n_fg, n_bg


def pd_pfa(detector, truth) -> tuple[float, float]:
    """Exact detection and false-alarm fractions of a binary detector."""
    det, truth, n_fg, n_bg = _check_detection_inputs(detector, truth)
    det = det.astype(bool)
    hit = int(np.count_nonzero(det & (truth == 1)))
    fa = int(np.count_nonzero(det & (truth == 0)))
    return hit / n_fg, fa / n_bg


@dataclass(frozen=True)
class RocCurve:
    """Swept-threshold operating points with pooled binomial errors.

    Points are ordered by descending threshold, so PFA and PD ascend from
    (0, 0) to (1, 1).  ``se_pd`` is the per-point Monte-Carlo standard error
    of PD over the pooled foreground population.
    """

    thresholds: np.ndarray
    pfa: np.ndarray
    pd: np.ndarray
    se_pd: np.ndarray
    auc: float
    n_fg: int
    n_bg: int
    trials: int = 1

    def pd_at(self, pfa_grid) -> np.ndarray:
        """PD linearly interpolated at the requested false-alarm rates."""
        return np.interp(np.asarray(pfa_grid, dtype=float), self.pfa, self.pd)

    @property
    def auc_se(self) -> float:
        return auc_standard_error(self.auc, self.n_fg, self.n_bg)


def roc(scores, truth, trials: int = 1) -> RocCurve:
    """Sweep detection thresholds over a score vector.

    There is one operating point at every distinct score (ties share a
    point).  Endpoints (0, 0) and (1, 1) are always included, and the AUC is
    the trapezoid integral.
    """
    scores, truth, n_fg, n_bg = _check_detection_inputs(scores, truth)
    if np.unique(scores).size == 1:
        logger.warning("constant score vector: ROC degenerates to the two endpoints")
        thr = np.array([np.inf, float(scores[0])])
        pfa = np.array([0.0, 1.0])
        pd = np.array([0.0, 1.0])
        se = np.sqrt(pd * (1 - pd) / n_fg)
        return RocCurve(thr, pfa, pd, se, auc=0.5, n_fg=n_fg, n_bg=n_bg, trials=trials)

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = truth[order]
    last = np.r_[np.flatnonzero(np.diff(s)), s.size - 1]
    tp = np.cumsum(y)[last].astype(float)
    fp = np.cumsum(1 - y)[last].astype(float)
    pd = np.r_[0.0, tp / n_fg]
    pfa = np.r_[0.0, fp / n_bg]
    thr = np.r_[np.inf, s[last]]
    se = np.sqrt(pd * (1.0 - pd) / n_fg)
    auc = float(np.trapezoid(pd, pfa))
    return RocCurve(thr, pfa, pd, se, auc=auc, n_fg=n_fg, n_bg=n_bg, trials=trials)


def vertical_average(curves) -> RocCurve:
    """Average per-trial curves vertically (mean PD at matched PFA).

    The pooled aggregation mixes score scales across trials, which can dent
    the extreme low-PFA corner; the vertical average is the aggregate whose
    shape matches per-trial detector behavior.  Standard errors are the
    across-trial standard error of the mean.
    """
    curves = list(curves)
    if not curves:
        raise GraphError("nothing to average")
    grid = np.linspace(0.0, 1.0, VERTICAL_GRID_SIZE)
    stack = np.vstack([c.pd_at(grid) for c in curves])
    pd = stack.mean(axis=0)
    se = stack.std(axis=0, ddof=1) / np.sqrt(len(curves)) if len(curves) > 1 else np.zeros(grid.size)
    return RocCurve(
        thresholds=np.full(grid.size, np.nan),
        pfa=grid,
        pd=pd,
        se_pd=se,
        auc=float(np.trapezoid(pd, grid)),
        n_fg=sum(c.n_fg for c in curves),
        n_bg=sum(c.n_bg for c in curves),
        trials=len(curves),
    )


def auc_standard_error(auc: float, n_fg: int, n_bg: int) -> float:
    """Hanley-McNeil standard error of a trapezoidal AUC estimate."""
    a = min(max(auc, 1e-12), 1 - 1e-12)
    q1 = a / (2 - a)
    q2 = 2 * a * a / (1 + a)
    var = (a * (1 - a) + (n_fg - 1) * (q1 - a * a) + (n_bg - 1) * (q2 - a * a)) / (n_fg * n_bg)
    return float(np.sqrt(max(var, 0.0)))


def convexity_defect(curve: RocCurve) -> float:
    """Maximum vertical gap between the curve and its upper convex hull.

    Zero for any convex-up curve; a likelihood-ratio detector evaluated on
    data drawn from its own model is convex up to sampling noise.  Vertical
    ROC segments are collapsed to their top first (a step is not
    concavity), so the gap is measured on the staircase envelope.
    """
    if curve.pfa.size < 3:
        return 0.0
    xs, start = np.unique(curve.pfa, return_index=True)
    # points are PFA-ascending, so the segment top is the last pd per pfa
    end = np.r_[start[1:], curve.pfa.size] - 1
    ys = curve.pd[end]
    if xs.size < 3:
        return 0.0
    hull = _upper_hull(np.column_stack([xs, ys]))
    hull_pd = np.interp(xs, hull[:, 0], hull[:, 1])
    return float(np.max(hull_pd - ys))


def _upper_hull(points: np.ndarray) -> np.ndarray:
    """Upper convex hull of points sorted by x (monotone chain)."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]
    hull: list[np.ndarray] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) >= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.asarray(hull)

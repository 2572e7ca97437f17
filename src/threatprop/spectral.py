"""Uncued spectral detection baselines.

Scores are entries of an eigenvector of the modularity matrix
``M = A - d d^T / V`` (connectivity relative to a degree-matched random
background).  The rank-one term of ``M`` is applied implicitly so the
operator stays sparse at scale.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .errors import EigenSolverError, GraphError
from .graph import DENSE_EIG_LIMIT, RESIDUAL_TOL, Graph, _fix_sign

# Top modularity eigenvectors among which the localized scores pick one.
LOCALIZED_CANDIDATES = 5


def modularity_operator(g: Graph) -> spla.LinearOperator:
    """Implicit symmetric operator for the modularity matrix."""
    a = g.adjacency
    d = g.degrees
    vol = float(d.sum())
    if vol <= 0:
        raise GraphError("modularity undefined on an empty graph")

    def matvec(x):
        return a @ x - d * (d @ x) / vol

    return spla.LinearOperator((g.n, g.n), matvec=matvec, rmatvec=matvec, dtype=float)


def modularity_matrix(g: Graph) -> np.ndarray:
    """Dense modularity matrix; intended for small graphs and tests."""
    d = g.degrees
    return g.adjacency.toarray() - np.outer(d, d) / float(d.sum())


def spectral_scores(g: Graph, index: int = 0) -> np.ndarray:
    """Per-vertex detection scores from a modularity eigenvector.

    Returns the eigenvector of the ``index``-th largest modularity
    eigenvalue (principal by default).  The sign is fixed so the
    maximum-magnitude entry is positive, and the eigenpair must satisfy
    ``|M x - mu x| <= RESIDUAL_TOL |x|``.
    """
    if index < 0 or index >= g.n:
        raise GraphError(f"eigenvector index {index} out of range")

    if g.n < DENSE_EIG_LIMIT:
        m = modularity_matrix(g)
        w, v = np.linalg.eigh(m)
        value, vec = float(w[-1 - index]), v[:, -1 - index]
    else:
        op = modularity_operator(g)
        v0 = np.cos(np.arange(g.n, dtype=float))  # fixed start for determinism
        try:
            w, v = spla.eigsh(op, k=index + 1, which="LA", v0=v0, tol=1e-12)
        except spla.ArpackNoConvergence as exc:
            raise EigenSolverError(f"modularity eigensolver failed: {exc}") from exc
        order = np.argsort(w)[::-1]
        value, vec = float(w[order[index]]), v[:, order[index]]

    m_op = modularity_operator(g)
    res = float(np.linalg.norm(m_op @ vec - value * vec))
    if res > RESIDUAL_TOL * max(1.0, float(np.linalg.norm(vec))):
        raise EigenSolverError(f"modularity eigenpair residual {res:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return _fix_sign(vec)


def localized_modularity_scores(g: Graph) -> np.ndarray:
    """Scores from the most spatially concentrated top modularity eigenvector.

    Among the ``LOCALIZED_CANDIDATES`` largest-eigenvalue eigenvectors, pick the one
    with the smallest L1 norm (all are unit L2, so small L1 means the mass
    sits on few vertices).  A small dense subgraph produces exactly such a
    localized eigenvector, whereas global bisection structure spreads over
    everything; thresholding the principal vector alone keys on the latter.
    """
    k = min(LOCALIZED_CANDIDATES, g.n - 1)
    if g.n < DENSE_EIG_LIMIT:
        m = modularity_matrix(g)
        _, v = np.linalg.eigh(m)
        vecs = v[:, -k:]
    else:
        op = modularity_operator(g)
        v0 = np.cos(np.arange(g.n, dtype=float))
        try:
            _, vecs = spla.eigsh(op, k=k, which="LA", v0=v0, tol=1e-10)
        except spla.ArpackNoConvergence as exc:
            raise EigenSolverError(f"modularity eigensolver failed: {exc}") from exc
    l1 = np.abs(vecs).sum(axis=0)
    return _fix_sign(vecs[:, int(np.argmin(l1))])

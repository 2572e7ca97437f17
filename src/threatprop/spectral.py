"""Eigenpairs of graph operators and the uncued spectral baselines.

Every eigenpair comes from one routine, :func:`_eigenpairs`: a dense
eigensolve below ``DENSE_EIG_LIMIT`` or for every pair, and ARPACK from a
fixed start otherwise, with one sign rule and one residual bound.  The
connectivity (Fiedler) pair is the smallest of the Kirchhoff matrix with its
constant kernel shifted away.  Detection scores are entries of an
eigenvector of the modularity matrix ``M = A - d d^T / V`` (connectivity
relative to a degree-matched random background).  The rank-one term of
``M`` is applied implicitly so the operator stays sparse at scale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DisconnectedGraphError, EigenSolverError, GraphError
from .graph import Graph, laplacian

if TYPE_CHECKING:
    from scipy.sparse.linalg import LinearOperator

# Dense eigensolvers below this order: deterministic and fast at test scale.
DENSE_EIG_LIMIT = 256

# ARPACK convergence tolerance.
ARPACK_TOL = 1e-10

# Largest accepted eigenpair residual |op x - mu x| for a unit vector x, per
# unit of the graph's largest edge weight once that exceeds one.
RESIDUAL_TOL = 1e-8

# Top modularity eigenvectors among which the localized scores pick one.
LOCALIZED_CANDIDATES = 5


def _eigenpairs(g: Graph, op: LinearOperator, k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` most extreme eigenpairs of a symmetric operator on ``g``,
    most extreme first.

    ``which`` is ``"LA"`` (largest algebraic) or ``"SA"`` (smallest).  Below
    ``DENSE_EIG_LIMIT``, or when all ``n`` pairs are asked for, the operator
    is written out column by column and solved densely; otherwise ARPACK
    starts from a fixed vector, so the result is deterministic.  Each unit
    eigenvector has its maximum-magnitude entry made positive.  Raises
    :class:`EigenSolverError` when ARPACK does not converge or a pair's
    residual exceeds ``RESIDUAL_TOL * max(1, largest edge weight)``.
    """
    n = op.shape[0]
    if n < DENSE_EIG_LIMIT or k >= n:
        w, v = np.linalg.eigh(np.column_stack([op @ e for e in np.eye(n)]))
    else:
        import scipy.sparse.linalg as spla

        try:
            w, v = spla.eigsh(op, k=k, which=which, v0=np.cos(np.arange(n, dtype=float)), tol=ARPACK_TOL)
        except spla.ArpackNoConvergence as exc:
            raise EigenSolverError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(w, kind="stable")
    pick = (order if which == "SA" else order[::-1])[:k]
    w, v = w[pick], v[:, pick]
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(k)]
    v = v * np.where(peak > 0, 1.0, -1.0)
    res = max(float(np.linalg.norm(op @ x - mu * x)) for mu, x in zip(w, v.T))
    bound = RESIDUAL_TOL * max(1.0, float(g.adjacency.max()))
    if res > bound:
        raise EigenSolverError(f"eigenpair residual {res:.3e} exceeds {bound:.1e}")
    return w, v


def fiedler(g: Graph) -> tuple[float, np.ndarray]:
    """Second-smallest eigenpair of the Kirchhoff matrix.

    Raises :class:`DisconnectedGraphError` ("not connected") when the value
    degenerates to zero, and :class:`EigenSolverError` when the eigensolver
    fails.
    """
    import scipy.sparse.linalg as spla

    if not g.is_connected():
        raise DisconnectedGraphError("not connected: algebraic connectivity is zero")
    q = laplacian(g, "kirchhoff")
    # Deflate the constant kernel vector by shifting it above the spectrum;
    # the smallest pair of the shifted operator is then the Fiedler pair.
    shift = float(q.diagonal().max()) * 2.0 + 1.0
    ones = np.full(g.n, 1.0 / np.sqrt(g.n))

    def matvec(x):
        return q @ x + shift * ones * (ones @ x)

    w, v = _eigenpairs(g, spla.LinearOperator((g.n, g.n), matvec=matvec, dtype=float), 1, "SA")
    return float(w[0]), v[:, 0]


def modularity_operator(g: Graph) -> LinearOperator:
    """Implicit symmetric operator for the modularity matrix."""
    import scipy.sparse.linalg as spla

    a = g.adjacency
    d = g.degrees
    vol = float(d.sum())
    if vol <= 0:
        raise GraphError("modularity undefined on an empty graph")

    def matvec(x):
        return a @ x - d * (d @ x) / vol

    return spla.LinearOperator((g.n, g.n), matvec=matvec, rmatvec=matvec, dtype=float)


def spectral_scores(g: Graph, index: int = 0) -> np.ndarray:
    """Per-vertex detection scores from a modularity eigenvector.

    Returns the eigenvector of the ``index``-th largest modularity
    eigenvalue (principal by default), signed and checked by
    :func:`_eigenpairs`.
    """
    if index < 0 or index >= g.n:
        raise GraphError(f"eigenvector index {index} out of range")
    return _eigenpairs(g, modularity_operator(g), index + 1, "LA")[1][:, index]


def localized_modularity_scores(g: Graph) -> np.ndarray:
    """Scores from the most spatially concentrated top modularity eigenvector.

    Among the ``LOCALIZED_CANDIDATES`` largest-eigenvalue eigenvectors, pick the one
    with the smallest L1 norm (all are unit L2, so small L1 means the mass
    sits on few vertices).  A small dense subgraph produces exactly such a
    localized eigenvector, whereas global bisection structure spreads over
    everything; thresholding the principal vector alone keys on the latter.
    """
    _, vecs = _eigenpairs(g, modularity_operator(g), min(LOCALIZED_CANDIDATES, g.n - 1), "LA")
    return vecs[:, int(np.argmin(np.abs(vecs).sum(axis=0)))]

"""Eigenpairs of graph operators and the uncued spectral baselines.

Every eigenpair comes from one routine, :func:`_eigenpairs`: a dense
eigensolve below ``DENSE_EIG_LIMIT`` or for every pair, and otherwise a
thick-restart Lanczos iteration from a fixed start (:func:`_lanczos`), with
one sign rule and one residual bound.  The connectivity (Fiedler) pair is
the smallest of the Kirchhoff matrix with its constant kernel shifted away.
Detection scores are entries of an eigenvector of the modularity matrix
``M = A - d d^T / V`` (connectivity relative to a degree-matched random
background).  Its product reads the graph's numpy adjacency view and applies
the rank-one term implicitly, so the operator stays sparse at scale and the
detection scores load no scipy; only the Fiedler pair writes the Laplacian
out as a scipy CSR.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._solve import Entries
from .errors import DisconnectedGraphError, EigenSolverError, GraphError
from .graph import Graph, laplacian

# A symmetric operator: ``op(x)`` is its product with a vector, or with each
# column of a matrix.
Operator = Callable[[np.ndarray], np.ndarray]

# Dense eigensolvers below this order: deterministic and fast at test scale.
DENSE_EIG_LIMIT = 256

# A Ritz pair has converged once its residual is at most this fraction of
# max(eps ** (2/3), |Ritz value|), ARPACK's stopping rule.
RITZ_TOL = 1e-10

# Lanczos basis size for up to 9 pairs, 2k + 1 for more (ARPACK's default
# ncv), and the operator products after which the iteration gives up.
LANCZOS_BASIS = 20
LANCZOS_MAX_PRODUCTS = 20_000

# Largest accepted eigenpair residual |op x - mu x| for a unit vector x, per
# unit of the graph's largest edge weight once that exceeds one.
RESIDUAL_TOL = 1e-8

# Top modularity eigenvectors among which the localized scores pick one.
LOCALIZED_CANDIDATES = 5


def _lanczos(op: Operator, n: int, k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` most extreme eigenpairs of ``op``, most extreme first, by
    thick-restart Lanczos (Wu and Simon, SIAM J. Matrix Anal. Appl. 22(2),
    2000), the method ARPACK implements.

    The basis grows from ``cos(arange(n))`` to ``m = max(2k + 1,
    LANCZOS_BASIS)`` vectors, fewer than ``n``, each orthogonalized against
    all before it (:func:`_project_out`), so the projected matrix is
    ``V^T op V`` entry by entry.  Where the basis spans an invariant
    subspace the next vector is a fresh one, seeded by the product count.  A restart
    keeps the ``k + (m - k) // 2`` most extreme Ritz vectors and the last
    residual direction.  It stops when every wanted pair meets ``RITZ_TOL``,
    and raises :class:`EigenSolverError` after ``LANCZOS_MAX_PRODUCTS``
    products.
    """
    m = max(2 * k + 1, LANCZOS_BASIS)
    keep = k + (m - k) // 2
    eps = np.finfo(float).eps
    basis, t = np.zeros((m + 1, n)), np.zeros((m, m))
    start = np.cos(np.arange(n, dtype=float))
    basis[0] = start / _norm(start)
    first, products = 0, 0
    while True:
        for i in range(first, m):
            if products == LANCZOS_MAX_PRODUCTS:
                raise EigenSolverError(f"eigensolver failed: {k} {which} pairs not converged "
                                       f"after {products} operator products")
            w, q = op(basis[i]), basis[: i + 1]
            products += 1
            t[i, : i + 1], beta = _project_out(w, q)  # eigh reads the lower triangle only
            if beta == 0:
                w = np.random.default_rng(products).standard_normal(n)
                _project_out(w, q)
            basis[i + 1] = w / (beta or _norm(w))
        theta, s = np.linalg.eigh(t)
        order = np.argsort(-theta if which == "LA" else theta, kind="stable")
        theta, s = theta[order], s[:, order]
        if np.all(beta * np.abs(s[-1, :k]) <= RITZ_TOL * np.maximum(eps ** (2 / 3), np.abs(theta[:k]))):
            return theta[:k], (s[:, :k].T @ basis[:m]).T
        basis[:keep], basis[keep] = s[:, :keep].T @ basis[:m], basis[m]
        t[:keep, :keep] = np.diag(theta[:keep])
        first = keep


def _project_out(w: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Orthogonalize ``w`` in place against the orthonormal rows of ``q``.

    As in ARPACK, a pass is repeated while it leaves less than 0.717 of the
    norm it started from, at most three passes in all (Daniel, Gragg,
    Kaufman and Stewart, Math. Comp. 30, 1976).  Returns the coefficients
    removed and the norm left, which is zero where ``w`` lies numerically in
    the span of ``q``.
    """
    size = _norm(w)
    coef = q @ w
    w -= coef @ q
    for _ in range(2):
        left = _norm(w)
        if left > 0.717 * size:
            return coef, left
        size = left
        h = q @ w
        w -= h @ q
        coef += h
    left = _norm(w)
    return coef, left if left > 0.717 * size else 0.0


def _norm(w: np.ndarray) -> float:
    """Euclidean norm of a vector, without ``np.linalg.norm``'s per-call
    overhead, which the Lanczos steps would pay several times each."""
    return math.sqrt(w @ w)


def _eigenpairs(g: Graph, op: Operator, k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` most extreme eigenpairs of a symmetric operator on ``g``,
    most extreme first.

    ``which`` is ``"LA"`` (largest algebraic) or ``"SA"`` (smallest).  Below
    ``DENSE_EIG_LIMIT``, or when the Lanczos basis of ``2k + 1`` vectors
    would span the space, the operator is written out and solved densely;
    otherwise :func:`_lanczos` starts from a fixed vector, so the result is
    deterministic.  Each unit eigenvector
    has its maximum-magnitude entry made positive.  Raises
    :class:`EigenSolverError` when the iteration does not converge or a
    pair's residual exceeds ``RESIDUAL_TOL * max(1, largest edge weight)``.
    """
    n = g.n
    if n < DENSE_EIG_LIMIT or 2 * k + 1 >= n:
        w, v = np.linalg.eigh(op(np.eye(n)))
    else:
        w, v = _lanczos(op, n, k, which)
    order = np.argsort(w, kind="stable")
    pick = (order if which == "SA" else order[::-1])[:k]
    w, v = w[pick], v[:, pick]
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(k)]
    v = v * np.where(peak > 0, 1.0, -1.0)
    res = float(np.linalg.norm(op(v) - v * w, axis=0).max())
    bound = RESIDUAL_TOL * max(1.0, float(g.entries.vals.max(initial=0.0)))
    if res > bound:
        raise EigenSolverError(f"eigenpair residual {res:.3e} exceeds {bound:.1e}")
    return w, v


def fiedler(g: Graph) -> tuple[float, np.ndarray]:
    """Second-smallest eigenpair of the Kirchhoff matrix.

    Raises :class:`DisconnectedGraphError` ("not connected") when the value
    degenerates to zero, and :class:`EigenSolverError` when the eigensolver
    fails.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("not connected: algebraic connectivity is zero")
    q = laplacian(g, "kirchhoff")
    # Deflate the constant kernel vector by shifting it above the spectrum;
    # the smallest pair of the shifted operator is then the Fiedler pair.
    shift = float(q.diagonal().max()) * 2.0 + 1.0
    ones = np.full(g.n, 1.0 / np.sqrt(g.n))
    w, v = _eigenpairs(g, lambda x: q @ x + shift * np.multiply.outer(ones, ones @ x), 1, "SA")
    return float(w[0]), v[:, 0]


def modularity_operator(g: Graph) -> Operator:
    """Implicit symmetric operator for the modularity matrix, on the graph's
    numpy adjacency view."""
    # A is symmetric, so its entries read column for row are A again; in
    # that order each entry lands in another row than the one before, which
    # the product's scatter sums faster than runs into one row.
    a, d = g.entries, g.degrees
    a = Entries(a.cols, a.rows, a.vals, a.shape)
    vol = float(d.sum())
    if vol <= 0:
        raise GraphError("modularity undefined on an empty graph")
    share = d / vol
    return lambda x: a @ x - np.multiply.outer(d, share @ x)


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

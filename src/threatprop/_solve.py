"""Shared boundary-value solver for harmonic propagation systems.

Solves ``theta = P @ theta`` on interior vertices with boundary entries held
fixed, where ``P`` is a (sub)stochastic propagation operator.  Two methods:

* ``'iterative'`` (the default) sweeps ``theta <- P theta`` with the boundary
  re-imposed until the interior residual is below ``tol``; it needs only
  matrix-vector products, so ``P`` may be a sparse matrix or an operator
  that is never written out (the space-time system's factors, see
  ``spacetime``): any object with ``shape``, ``P @ x`` and ``P.pull(front)``,
  the mask of states with a nonzero entry in a column of ``front``.
* ``'direct'`` factorizes ``I - P_II`` with SuperLU and needs ``P`` as a
  sparse matrix.  It is the exact reference for validation and tests; its
  fill grows quickly with the order of space-time systems, so nothing
  selects it by default.

``tol`` bounds the interior residual ``max_i |theta_i - (P theta)_i|``, the
harmonic equation defect.  The error against the exact solution is bounded by
residual / (1 - rho) only when ``rho = ||P_II||_inf < 1``; at ``rho = 1``
(a uniform prior of one, for instance) ``tol`` bounds the residual alone.
"""

from __future__ import annotations

import logging

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, checked_number

logger = logging.getLogger(__name__)

# Clamping beyond this magnitude indicates ill-conditioning and is reported.
CLAMP_WARN = 1e-6

SOLVE_METHODS = ("iterative", "direct")


def scale_rows(a: sp.csr_matrix, scale: np.ndarray, *then: np.ndarray) -> sp.csr_matrix:
    """``diag(then[-1]) @ ... @ diag(scale) @ a`` for a CSR matrix without
    duplicate entries, in one pass, stored as scipy's nested sparse products
    store it.  Each product reverses every row and drops the entries that
    come out zero, so a row ends reversed after an odd count of factors and
    in stored order after an even one; with finite factors one final drop
    removes the same entries.  The factors multiply the data one after
    another, never fused, so every value rounds as the nested products round
    it.  Every propagation operator is built by this one rule, so its
    matrix-vector products sum in one order.
    """
    counts = np.diff(a.indptr)
    if len(then) % 2 == 0:
        rev = np.repeat(a.indptr[:-1] + a.indptr[1:] - 1, counts) - np.arange(a.nnz)  # each row reversed
        data, indices = a.data[rev], a.indices[rev]
    else:
        data, indices = a.data, a.indices.copy()
    for s in (scale, *then):
        data = data * np.repeat(s, counts)
    out = sp.csr_matrix((data, indices, a.indptr.copy()), shape=a.shape)
    out.eliminate_zeros()
    return out


def solve_boundary_value(
    p: sp.spmatrix,
    boundary: np.ndarray,
    boundary_values: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
    method: str = "iterative",
) -> np.ndarray:
    """Solve the fixed-boundary harmonic system and clamp the result to [0, 1]."""
    if method not in SOLVE_METHODS:
        raise ValueError(f"unknown solve method {method!r}")
    checked_number("tol", tol, low=0, open_low=True)
    n = p.shape[0]
    boundary = np.asarray(boundary, dtype=np.int64)
    theta = np.zeros(n)
    theta[boundary] = boundary_values

    if sp.issparse(p):
        p = p.tocsr()
    elif method == "direct":
        raise ValueError("the direct method needs P as a sparse matrix")
    # A vertex with no pull-path to the boundary has exactly zero threat;
    # solving only on the reaching set also keeps the interior system
    # nonsingular (a detached stochastic component would make I - P_ii
    # singular for the factorization).
    reach = _reaches_boundary(p, boundary)
    reach[boundary] = False
    interior = np.flatnonzero(reach)
    if interior.size == 0:
        return theta

    if method == "iterative":
        # Iteration count floor: the 10n heuristic is too small for tight
        # tolerances on small or weakly absorbing systems.
        if max_iter is None:
            max_iter = max(10 * n, 4096)
        theta = _fixed_point(p, theta, interior, boundary, boundary_values, tol, max_iter)
    else:
        import scipy.sparse.linalg as spla

        rows = p[interior]
        a = sp.identity(interior.size, format="csc") - rows[:, interior]
        theta[interior] = spla.spsolve(a, rows[:, boundary] @ boundary_values)
        resid = _residual(p, theta, interior)
        if not resid <= tol:  # NaN-safe: a failed factorization must not pass
            raise ConvergenceError(f"direct solve residual {resid:.3e} exceeds tol {tol:.1e}", residual=resid)

    over = max(float(np.max(theta) - 1.0), float(-np.min(theta)), 0.0)
    if over > CLAMP_WARN:
        logger.warning("clamping harmonic solution by %.3e; system may be ill-conditioned", over)
    return np.clip(theta, 0.0, 1.0)


def _reaches_boundary(p, boundary: np.ndarray) -> np.ndarray:
    """Vertices with a pull-path (following entries of P row->column) to the
    boundary set: a level-synchronous traversal from every boundary vertex.
    On a sparse matrix each level is one vectorised step over the stored
    entries of P^T; an operator supplies its own step, ``p.pull``."""
    if sp.issparse(p):
        pt = p.tocsc()
        counts = np.diff(pt.indptr)

        def pull(front):
            hit = np.zeros_like(front)
            hit[pt.indices[np.repeat(front, counts)]] = True  # rows with an entry in a frontier column
            return hit
    else:
        pull = p.pull
    reach = np.zeros(p.shape[0], dtype=bool)
    reach[boundary] = True
    front = reach
    while True:
        front = pull(front) & ~reach
        if not front.any():
            return reach
        reach |= front


def _residual(p, theta, interior) -> float:
    r = theta - p @ theta
    return float(np.max(np.abs(r[interior]))) if interior.size else 0.0


def _fixed_point(p, theta, interior, boundary, boundary_values, tol, max_iter):
    for _ in range(max_iter):
        nxt = p @ theta
        nxt[boundary] = boundary_values
        diff = float(np.max(np.abs(nxt - theta)))
        theta = nxt
        if diff <= 0.5 * tol and _residual(p, theta, interior) <= tol:
            return theta
    last = _residual(p, theta, interior)
    if last <= tol:
        return theta
    raise ConvergenceError(
        f"fixed-point iteration stalled at residual {last:.3e} after {max_iter} sweeps (tol {tol:.1e})",
        residual=last,
    )

"""Shared boundary-value solver for harmonic propagation systems.

Solves ``theta = P @ theta`` on interior vertices with boundary entries held
fixed, where ``P`` is a (sub)stochastic propagation operator.  Two methods:

* ``'iterative'`` (the default) sweeps ``theta <- P theta`` with the boundary
  re-imposed until the interior residual is below ``tol``; it needs only
  matrix-vector products, so ``P`` may be a sparse matrix or an operator
  that is never written out (the space-time system's factors, see
  ``spacetime``): any object with ``shape`` and ``P @ x``, so an operator's
  solve never imports scipy.  It solves only on the states with a path to
  the boundary along the positive entries of ``P``, found level by level by
  the sign of the same product, ``P @ front > 0``: an entry stored as zero
  links nothing.
* ``'direct'`` factorizes ``I - P_II`` with SuperLU and needs ``P`` as a
  scipy sparse matrix.  It is the exact reference for validation and tests;
  its fill grows quickly with the order of space-time systems, so nothing
  selects it by default.

``tol`` bounds the interior residual ``max_i |theta_i - (P theta)_i|``, the
harmonic equation defect.  The error against the exact solution is bounded by
residual / (1 - rho) only when ``rho = ||P_II||_inf < 1``; at ``rho = 1``
(a uniform prior of one, for instance) ``tol`` bounds the residual alone.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConvergenceError, checked_number

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Clamping beyond this magnitude indicates ill-conditioning and is reported.
CLAMP_WARN = 1e-6

SOLVE_METHODS = ("iterative", "direct")


def scale_rows(a: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    """``diag(scale) @ a`` for a CSR matrix without duplicate entries, stored
    as scipy's sparse product stores it: every row reversed, and the entries
    that come out zero dropped.  Every propagation operator is built by this
    one rule (nested for two factors), so its matrix-vector products sum in
    one order.
    """
    import scipy.sparse as sp

    counts = np.diff(a.indptr)
    rev = np.repeat(a.indptr[:-1] + a.indptr[1:] - 1, counts) - np.arange(a.nnz)  # each row reversed
    out = sp.csr_matrix((a.data[rev] * np.repeat(scale, counts), a.indices[rev], a.indptr.copy()), shape=a.shape)
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

    if method == "direct":
        if not hasattr(p, "tocsr"):
            raise ValueError("the direct method needs P as a sparse matrix")
        p = p.tocsr()
    # A vertex with no path to the boundary has exactly zero threat;
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
        import scipy.sparse as sp
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


def hop_levels(step, n: int, sources) -> np.ndarray:
    """Hop count from the nearest of ``sources`` over ``n`` states, ``inf``
    where none leads: a level-synchronous traversal in which ``step(front)``
    marks the states one hop from the boolean mask ``front``."""
    hops = np.full(n, np.inf)
    seen = np.zeros(n, dtype=bool)
    seen[sources] = True
    front, level = seen, 0
    while front.any():
        hops[front] = level
        front = step(front) & ~seen
        seen |= front
        level += 1
    return hops


def _reaches_boundary(p, boundary: np.ndarray) -> np.ndarray:
    """States with a path along the positive entries of P, row to column, to
    the boundary set: each level is the sign of one product, ``P @ front``."""
    return np.isfinite(hop_levels(lambda front: p @ front > 0, p.shape[0], boundary))


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

"""Sparse matrices as numpy columns, and the shared boundary-value solver
for harmonic propagation systems.

:class:`Entries` holds a sparse matrix as parallel numpy columns.  Both
models share it: the spatial adjacency and its propagation operator, and the
space-time factors.  A product through it is one ``np.bincount`` scatter, so
it needs no scipy, and where the entries are in the order a CSR stores them
it sums every row in the order the CSR's product does.  ``Entries.tocsr``
writes a scipy CSR out for the paths that need one.

:func:`solve_boundary_value` solves ``theta = P @ theta`` on interior
vertices with boundary entries held fixed, where ``P`` is a (sub)stochastic
propagation operator.  Two methods:

* ``'iterative'`` (the default) sweeps ``theta <- P theta`` with the boundary
  re-imposed until the interior residual is below ``tol``; it needs only
  matrix-vector products, so ``P`` may be :class:`Entries` or an operator
  that is never written out (the space-time system's factors, see
  ``spacetime``): any object with ``shape`` and ``P @ x``, so the solve
  imports no scipy.  Every state that is not on the boundary is interior.
  One that no cue reaches stays exactly zero, since ``P >= 0`` and every
  sweep starts from zero there, so it adds nothing to the residual.
* ``'direct'`` factorizes ``I - P_II`` with SuperLU and needs ``P`` as a
  scipy sparse matrix, or as :class:`Entries` written out by ``tocsr``.  It
  solves only on the states with a path to the boundary along the positive
  entries of ``P``, found level by level by the sign of the product
  ``P @ front > 0`` (an entry stored as zero links nothing), because a
  detached stochastic component would make ``I - P_II`` singular.  It is
  the exact reference for validation and tests; its fill grows quickly with
  the order of space-time systems, so nothing selects it by default.

``tol`` bounds the interior residual ``max_i |theta_i - (P theta)_i|``, the
harmonic equation defect.  The error against the exact solution is bounded by
residual / (1 - rho) only when ``rho = ||P_II||_inf < 1``; at ``rho = 1``
(a uniform prior of one, for instance) ``tol`` bounds the residual alone.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConvergenceError, checked_number

if TYPE_CHECKING:
    import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Clamping beyond this magnitude indicates ill-conditioning and is reported.
CLAMP_WARN = 1e-6

SOLVE_METHODS = ("iterative", "direct")


class Entries(NamedTuple):
    """A sparse matrix held as numpy columns: entry ``k`` adds ``vals[k]`` at
    ``(rows[k], cols[k])``, and repeated positions add.  A product is one
    ``np.bincount`` scatter over the entries, in entry order."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def of_csr(cls, a: sp.csr_matrix) -> "Entries":
        """The stored entries of a CSR, in its order."""
        return cls(np.repeat(np.arange(a.shape[0]), np.diff(a.indptr)), a.indices, a.data, a.shape)

    @property
    def nnz(self) -> int:
        """Stored entries, repeated positions counted each time."""
        return self.vals.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """``M @ x`` for a vector, or for a matrix of ``k`` columns through
        one scatter over the flattened cells ``rows * k + column``."""
        # astype: bincount over no entries at all returns integers.
        if x.ndim == 1:
            y = np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.shape[0])
            return y.astype(float, copy=False)
        k = x.shape[1]
        cells = (self.rows[:, None] * k + np.arange(k)).ravel()
        y = np.bincount(cells, weights=(self.vals[:, None] * x[self.cols]).ravel(), minlength=self.shape[0] * k)
        return y.astype(float, copy=False).reshape(-1, k)

    def tocsr(self) -> sp.csr_matrix:
        """The same matrix as a scipy CSR that keeps every entry and, within
        a row, their order, so its product sums as this one's does."""
        import scipy.sparse as sp

        order = np.argsort(self.rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.rows, minlength=self.shape[0]))))
        return sp.csr_matrix((self.vals[order], self.cols[order], indptr), shape=self.shape)


def scale_rows(a: Entries, scale: np.ndarray) -> Entries:
    """``diag(scale) @ a`` for entries sorted by row without repeated
    positions, stored as scipy's sparse product stores it: every row
    reversed, and the entries that come out zero dropped.  Every propagation
    operator is built by this one rule (nested for two factors), so its
    matrix-vector products sum in one order.
    """
    counts = np.bincount(a.rows, minlength=a.shape[0])
    ends = np.cumsum(counts)
    rev = np.repeat(2 * ends - counts - 1, counts) - np.arange(a.nnz)  # each row reversed
    vals = a.vals[rev] * np.repeat(scale, counts)
    keep = vals != 0
    return Entries(a.rows[keep], a.cols[rev][keep], vals[keep], a.shape)


def solve_boundary_value(
    p: Entries | sp.spmatrix,
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

    if method == "iterative":
        interior = np.ones(n, dtype=bool)
        interior[boundary] = False
        if not interior.any():
            return theta
        # Iteration count floor: the 10n heuristic is too small for tight
        # tolerances on small or weakly absorbing systems.
        if max_iter is None:
            max_iter = max(10 * n, 4096)
        theta = _fixed_point(p, theta, interior, boundary, boundary_values, tol, max_iter)
    else:
        if not hasattr(p, "tocsr"):
            raise ValueError("the direct method needs P as a sparse matrix")
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        p = p.tocsr()
        reach = _reaches_boundary(p, boundary)
        reach[boundary] = False
        interior = np.flatnonzero(reach)
        if interior.size == 0:
            return theta
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
    """The largest harmonic defect over ``interior``, a nonempty mask or index array."""
    r = theta - p @ theta
    return float(np.max(np.abs(r[interior])))


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

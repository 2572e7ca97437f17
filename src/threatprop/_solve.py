"""Sparse matrices as numpy columns, and the shared boundary-value solver
for harmonic propagation systems with its one exact solve.

:class:`Entries` holds a sparse matrix as parallel numpy columns.  Both
models share it: the spatial adjacency and its propagation operator, and the
space-time factors.  A product through it is one ``np.bincount`` scatter, so
it needs no scipy, and where the entries are in the order a CSR stores them
it sums every row in the order the CSR's product does.  ``Entries.tocsr``
writes a scipy CSR out for the paths that need one.

:func:`solve_boundary_value` solves ``theta = P @ theta`` on interior
vertices with boundary entries held fixed, where ``P`` is a (sub)stochastic
propagation operator: ``theta_I = (I - G)^{-1} H theta_B`` in the canonical
form of the absorbing chain (:class:`AbsorbingChain`).  Two methods:

* ``'iterative'`` (the default) sweeps ``theta <- P theta`` with the boundary
  re-imposed until the interior residual is below ``tol``; it needs only
  matrix-vector products, so ``P`` may be :class:`Entries` or an operator
  that is never written out (the space-time system's factors, see
  ``spacetime``): any object with ``shape`` and ``P @ x``, so the solve
  imports no scipy.  Every state that is not on the boundary is interior.
  One that no cue reaches stays exactly zero, since ``P >= 0`` and every
  sweep starts from zero there, so it adds nothing to the residual.
* ``'direct'`` is the chain's exact solve (:func:`hitting_threat`), the one
  factorization of ``I - G``, and needs ``P`` as a scipy sparse matrix, or
  as :class:`Entries` written out by ``tocsr``.  It is the exact reference
  for validation and tests; its fill grows quickly with the order of
  space-time systems, so nothing selects it by default.

``tol`` bounds the interior residual ``max_i |theta_i - (P theta)_i|``, the
harmonic equation defect.  The error against the exact solution is bounded by
residual / (1 - rho) only when ``rho = ||P_II||_inf < 1``; at ``rho = 1``
(a uniform prior of one, for instance) ``tol`` bounds the residual alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
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
    interior = np.ones(n, dtype=bool)
    interior[boundary] = False
    if not interior.any():
        return theta

    if method == "iterative":
        # Iteration count floor: the 10n heuristic is too small for tight
        # tolerances on small or weakly absorbing systems.
        if max_iter is None:
            max_iter = max(10 * n, 4096)
        theta = _fixed_point(p, theta, interior, boundary, boundary_values, tol, max_iter)
    else:
        if not hasattr(p, "tocsr"):
            raise ValueError("the direct method needs P as a sparse matrix")
        p = p.tocsr()
        theta = hitting_threat(AbsorbingChain(p, boundary, theta[boundary]))
        resid = _residual(p, theta, interior)
        if not resid <= tol:  # NaN-safe: a failed factorization must not pass
            raise ConvergenceError(f"direct solve residual {resid:.3e} exceeds tol {tol:.1e}", residual=resid)

    over = max(float(np.max(theta) - 1.0), float(-np.min(theta)), 0.0)
    if over > CLAMP_WARN:
        logger.warning("clamping harmonic solution by %.3e; system may be ill-conditioned", over)
    return np.clip(theta, 0.0, 1.0)


@dataclass(frozen=True)
class AbsorbingChain:
    """Absorbing-walk realization of a row-substochastic operator ``p``.

    The ``boundary`` states absorb with their ``boundary_values``; every
    other (interior) state moves by its row of ``p`` and sends the missing
    mass ``1 - sum_j p_ij`` to one augmented non-threat state.  Canonical
    state order is interior states first, then the boundary states, then the
    non-threat state; ``g_block`` and ``h_block`` are the interior-to-interior
    and interior-to-boundary blocks of ``p`` under that order.

    An interior state outside ``reaches`` has no path to the boundary, so
    its row is emptied and it goes to the non-threat state at once, as a walk
    there does (the canonical form of Kemeny and Snell, in which such a
    closed class is absorbed).  Its threat is then exactly zero, and
    ``I - G`` stays invertible where a stochastic component that no cue
    reaches would make it singular.  Where every state reaches the boundary
    the blocks are those of ``p`` itself.  ``I - G`` is factorized once, and
    :meth:`invariant_basis` and :func:`hitting_threat` solve through it.
    """

    p: sp.csr_matrix
    boundary: np.ndarray
    boundary_values: np.ndarray

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def n_absorbing(self) -> int:
        """Absorbing state count: observed vertices plus the non-threat state."""
        return len(self.boundary) + 1

    @cached_property
    def reaches(self) -> np.ndarray:
        """Mask of the states with a path to the boundary, the boundary included."""
        return _reaches_boundary(self.p, self.boundary)

    @cached_property
    def interior(self) -> np.ndarray:
        inside = np.ones(self.n, dtype=bool)
        inside[self.boundary] = False
        return np.flatnonzero(inside)

    @cached_property
    def _rows(self) -> sp.csr_matrix:
        """The interior rows of ``p``, emptied outside ``reaches``."""
        e = Entries.of_csr(self.p[self.interior])
        keep = self.reaches[self.interior][e.rows]
        return Entries(e.rows[keep], e.cols[keep], e.vals[keep], e.shape).tocsr()

    @cached_property
    def g_block(self) -> sp.csr_matrix:
        return self._rows[:, self.interior].tocsr()

    @cached_property
    def h_block(self) -> sp.csr_matrix:
        return self._rows[:, self.boundary].tocsr()

    @cached_property
    def absorb(self) -> np.ndarray:
        """Interior mass sent to the non-threat state."""
        return 1.0 - np.asarray(self._rows.sum(axis=1)).ravel()

    @cached_property
    def transition_matrix(self) -> sp.csr_matrix:
        """Full (n+1) x (n+1) row-stochastic chain in canonical state order."""
        import scipy.sparse as sp

        return sp.bmat([[self.g_block, self.h_block, sp.csr_matrix(self.absorb[:, None])],
                        [None, sp.identity(len(self.boundary)), None],
                        [None, None, sp.identity(1)]], format="csr")

    @cached_property
    def _factors(self):
        """SuperLU factors of ``I - G``: the one exact solve."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        return spla.splu(sp.identity(len(self.interior), format="csc") - self.g_block.tocsc())

    def _absorbed(self, rhs: np.ndarray) -> np.ndarray:
        """``(I - G)^{-1} rhs`` for a vector or the columns of a matrix."""
        return self._factors.solve(rhs) if len(self.interior) else rhs

    def invariant_basis(self) -> np.ndarray:
        """Nonnegative basis E of the unit-eigenvalue invariant subspace.

        Columns span the subspace satisfying ``T @ E == E``: the interior
        block is ``(I - G)^{-1} R`` with ``R = [H, absorb]``, padded with an
        identity over the absorbing states.  Its first ``len(boundary)``
        columns are the walks' absorption probabilities ``(I - G)^{-1} H``.
        """
        e1 = self._absorbed(np.column_stack([self.h_block.toarray(), self.absorb]))
        return np.vstack([e1, np.eye(self.n_absorbing)])


def hitting_threat(chain: AbsorbingChain) -> np.ndarray:
    """Exact threat vector ``(I - G)^{-1} H b`` over the interior, the
    boundary values ``b`` on the boundary, in original state order."""
    theta = np.zeros(chain.n)
    theta[chain.boundary] = chain.boundary_values
    theta[chain.interior] = chain._absorbed(chain.h_block @ chain.boundary_values)
    return theta


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

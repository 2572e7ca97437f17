"""Exception types shared across the toolkit.

The CLI maps these onto exit codes: input/usage problems exit 1, numerical
failures exit 2, validation-suite failures exit 3.  ``checked_number`` is
the one scalar input check the config objects and solvers share, and
``checked_prior`` the one check of a per-vertex prior vector.  The range of
an edge weight is checked where a graph is built (``graph.Graph``).
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class ThreatPropagationError(Exception):
    """Base class for all toolkit errors."""


class GraphError(ThreatPropagationError):
    """Invalid graph construction or graph-shaped input."""


class DisconnectedGraphError(GraphError):
    """An operation that requires a connected graph got a disconnected one."""


class ObservationError(ThreatPropagationError):
    """Invalid observation set (empty, out-of-range probability, bad time)."""


class ConvergenceError(ThreatPropagationError):
    """Iterative solver failed to reach the requested tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class EigenSolverError(ThreatPropagationError):
    """Eigenvector computation failed or did not meet its residual bound."""


class ExperimentError(ThreatPropagationError):
    """Monte-Carlo experiment could not produce a trustworthy result."""


class ValidationFailure(ThreatPropagationError):
    """One or more checks of the self-validation suite failed."""


def checked_number(name: str, value, *, integer: bool = False, low: float = -math.inf,
                   high: float = math.inf, open_low: bool = False):
    """``value`` as an ``int`` (with ``integer``) or a finite ``float`` in
    ``[low, high]``, or ``(low, high]`` with ``open_low``.

    Anything else, a boolean or a string included, is a :class:`GraphError`.
    """
    ok = (
        not isinstance(value, bool)
        and isinstance(value, numbers.Integral if integer else numbers.Real)
        and (integer or math.isfinite(value))
        and low <= value <= high
        and not (open_low and value == low)
    )
    if not ok:
        kind = "an integer" if integer else "a finite number"
        raise GraphError(f"{name} must be {kind} in {'(' if open_low else '['}{low:g}, {high:g}], got {value!r}")
    return int(value) if integer else float(value)


def checked_prior(psi, n: int) -> np.ndarray:
    """``psi`` as a float vector of ``n`` per-vertex probabilities in ``(0, 1]``,
    else a :class:`GraphError`."""
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (n,):
        raise GraphError(f"prior vector has shape {psi.shape}, expected ({n},)")
    if not np.all((psi > 0.0) & (psi <= 1.0)):
        raise GraphError("prior probabilities must lie in (0, 1]")
    return psi

"""Random covert-network simulators.

Two generators share a common output shape (graph + ground truth + seed):

* a stochastic blockmodel with an activity multiplier on the diagonal and a
  simple temporal overlay (foreground interactions perfectly coordinated at
  one shared instant, background uniform in time);
* a hybrid mixed-membership blockmodel that combines blockmodel support,
  expected-degree (power-law) scaling, mixed-membership bilinear rates,
  Poisson interaction counts, and community-level event-time coordination.

Structure and timestamps are drawn from separate counter-based streams so
that changing only coordination parameters leaves the topology bitwise
identical at a fixed seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError, checked_number
from .graph import Graph

logger = logging.getLogger(__name__)


def _streams(seed: int, count: int = 2) -> list[np.random.Generator]:
    children = np.random.SeedSequence(checked_number("seed", seed, integer=True, low=0)).spawn(count)
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _float_array(name: str, value) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise GraphError(f"{name} must be an array of numbers") from None
    if not np.all(np.isfinite(arr)):
        raise GraphError(f"{name} entries must be finite")
    return arr


def _int_tuple(name: str, values, low: int, high: float = math.inf) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise GraphError(f"{name} must be a list of integers, got {values!r}")
    return tuple(checked_number(name, v, integer=True, low=low, high=high) for v in values)


def activity_density(size: int, activity: float = 1.0) -> float:
    """Within-community edge probability at ``activity`` times the
    almost-sure connectivity threshold ``log(n)/n``."""
    if size < 2:
        raise GraphError("community needs at least two vertices")
    return activity * math.log(size) / size


@dataclass(frozen=True)
class SbmParams:
    """Blockmodel with one-hot memberships given by contiguous size blocks.

    ``foreground`` marks the community whose members carry truth value 1.
    With ``shuffle`` the community labels are randomly embedded over the
    vertex indices instead of kept contiguous.
    """

    sizes: tuple[int, ...]
    block_probs: np.ndarray
    foreground: int | None = None
    horizon: float = 24.0
    shuffle: bool = True

    def __post_init__(self):
        sizes = _int_tuple("community size", self.sizes, low=1)
        s = _float_array("block_probs", self.block_probs)
        k = len(sizes)
        if s.shape != (k, k):
            raise GraphError(f"block matrix shape {s.shape} does not match {k} communities")
        if np.any(s < 0) or np.any(s > 1):
            raise GraphError("block probabilities must lie in [0, 1]")
        if not np.allclose(s, s.T):
            raise GraphError("block matrix must be symmetric")
        if not isinstance(self.shuffle, bool):
            raise GraphError(f"shuffle must be true or false, got {self.shuffle!r}")
        fg = self.foreground
        if fg is not None:
            fg = checked_number("foreground community", fg, integer=True, low=0, high=k - 1)
        horizon = checked_number("horizon", self.horizon, low=0, open_low=True)
        for name, val in (("sizes", sizes), ("block_probs", s), ("foreground", fg), ("horizon", horizon)):
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return int(sum(self.sizes))


@dataclass(frozen=True)
class GeneratedNetwork:
    """A simulated network with its ground truth, parameters and generator metadata."""

    graph: Graph
    truth: np.ndarray
    params: object
    meta: dict = field(default_factory=dict)

    @property
    def foreground_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.truth == 1)


def generate_sbm(params: SbmParams, temporal: str = "coordinated", seed: int = 0) -> GeneratedNetwork:
    """Draw a blockmodel network with the simple coordination overlay.

    ``temporal``: ``'coordinated'`` stamps every foreground-internal
    interaction at one shared instant and everything else uniformly over the
    horizon; ``'uniform'`` stamps all interactions uniformly; ``'none'``
    leaves edges untimed.
    """
    if temporal not in ("coordinated", "uniform", "none"):
        raise GraphError(f"unknown temporal policy {temporal!r}")
    struct, clock = _streams(seed)
    n = params.n
    labels = np.repeat(np.arange(len(params.sizes)), params.sizes)
    if params.shuffle:
        labels = struct.permutation(labels)

    iu, ju = np.triu_indices(n, k=1)
    p = params.block_probs[labels[iu], labels[ju]]
    hit = struct.random(iu.size) < p
    src, dst = iu[hit], ju[hit]

    truth = (labels == params.foreground).astype(np.int8) if params.foreground is not None else np.zeros(n, np.int8)

    times = None
    if temporal != "none":
        t_star = float(clock.uniform(0.0, params.horizon))
        times = clock.uniform(0.0, params.horizon, size=src.size)
        if temporal == "coordinated":
            fg_edge = (truth[src] == 1) & (truth[dst] == 1)
            times = np.where(fg_edge, t_star, times)

    graph = Graph(n, src, dst, np.ones(src.size), times, times)
    return GeneratedNetwork(
        graph=graph,
        truth=truth,
        params=params,
        meta={"temporal": temporal, "labels": labels},
    )


@dataclass(frozen=True)
class HmmbParams:
    """Hybrid mixed-membership blockmodel parameters.

    ``concentration`` rows (strictly positive) give each lifestyle's expected
    community-membership profile; ``block_support`` is the blockmodel edge
    indicator probability over the hard home communities;
    ``block_strength`` scales the Poisson interaction rate between the
    community roles two vertices assume toward each other; ``gamma`` is the
    mean number of shared event times per community (smaller = more
    coordinated).  Truth marks vertices drawn into ``foreground_lifestyles``.
    """

    n: int
    communities: int
    lifestyles: int
    phi: np.ndarray
    concentration: np.ndarray
    block_support: np.ndarray
    block_strength: np.ndarray
    gamma: np.ndarray
    alpha: float = 2.8
    lam_min: float = 1.0
    horizon: float = 24.0
    foreground_lifestyles: tuple[int, ...] = ()

    def __post_init__(self):
        phi, x, s, b, g = (_float_array(name, getattr(self, name)) for name in (
            "phi", "concentration", "block_support", "block_strength", "gamma"))
        l = checked_number("lifestyles", self.lifestyles, integer=True, low=1)
        k = checked_number("communities", self.communities, integer=True, low=1)
        if phi.shape != (l,) or not math.isclose(phi.sum(), 1.0, abs_tol=1e-9) or np.any(phi < 0):
            raise GraphError("lifestyle probabilities must form a simplex vector")
        if x.shape != (l, k) or np.any(x <= 0):
            raise GraphError("degenerate Dirichlet concentration: entries must be positive")
        if s.shape != (k, k) or np.any(s < 0) or np.any(s > 1):
            raise GraphError("block support entries must lie in [0, 1]")
        if b.shape != (k, k) or np.any(b < 0):
            raise GraphError("block strength entries must be nonnegative")
        if g.shape != (k,) or np.any(g <= 0):
            raise GraphError("coordination parameters must be positive")
        fixed = {
            "n": checked_number("n", self.n, integer=True, low=1), "communities": k, "lifestyles": l,
            "phi": phi, "concentration": x, "block_support": s, "block_strength": b, "gamma": g,
            "alpha": checked_number("power-law exponent alpha", self.alpha, low=1, open_low=True),
            "lam_min": checked_number("lam_min", self.lam_min, low=0, open_low=True),
            "horizon": checked_number("horizon", self.horizon, low=0, open_low=True),
            "foreground_lifestyles": _int_tuple("foreground lifestyle", self.foreground_lifestyles, 0, l - 1),
        }
        for name, val in fixed.items():
            object.__setattr__(self, name, val)

    @property
    def home_communities(self) -> np.ndarray:
        """Hard blockmodel community of each lifestyle (dominant concentration)."""
        return np.argmax(self.concentration, axis=1)


def pareto_draw(rng: np.random.Generator, alpha: float, lam_min: float, size: int) -> np.ndarray:
    """Power-law draw with density proportional to ``x**(-alpha)`` on
    ``[lam_min, inf)``."""
    u = 1.0 - rng.random(size)
    return lam_min * u ** (-1.0 / (alpha - 1.0))


def generate_hmmb(params: HmmbParams, seed: int = 0) -> GeneratedNetwork:
    """Draw one hybrid mixed-membership network.

    Pipeline per vertex: lifestyle (multinomial on ``phi``), membership
    profile (Dirichlet on the lifestyle's concentration row), expected degree
    (power-law).  Per ordered pair: a community role drawn from the owner's
    membership profile.  Per pair: blockmodel support indicator on home
    communities, then a Poisson interaction count at rate
    ``support * deg_i * deg_j / sum(deg) * B[role_ij, role_ji]``.  Each
    interaction endpoint is stamped with an event time drawn uniformly from
    its role community's event pool; pool sizes are Poisson(``gamma``)
    per community (redrawn to be nonempty) and pool times uniform over the
    horizon.
    """
    struct, clock = _streams(seed)
    n, k = params.n, params.communities

    lifestyle = struct.choice(params.lifestyles, size=n, p=params.phi)
    conc = params.concentration[lifestyle]
    gam = struct.standard_gamma(conc)
    membership = gam / gam.sum(axis=1, keepdims=True)
    lam = pareto_draw(struct, params.alpha, params.lam_min, n)
    home = params.home_communities[lifestyle]

    iu, ju = np.triu_indices(n, k=1)
    cum = np.cumsum(membership, axis=1)
    role_ij = np.minimum((cum[iu] < struct.random(iu.size)[:, None]).sum(axis=1), k - 1)
    role_ji = np.minimum((cum[ju] < struct.random(ju.size)[:, None]).sum(axis=1), k - 1)
    support = struct.random(iu.size) < params.block_support[home[iu], home[ju]]
    rate = support * lam[iu] * lam[ju] / lam.sum() * params.block_strength[role_ij, role_ji]
    counts = struct.poisson(rate)

    keep = counts > 0
    rep = counts[keep]
    src = np.repeat(iu[keep], rep)
    dst = np.repeat(ju[keep], rep)
    role_s = np.repeat(role_ij[keep], rep)
    role_d = np.repeat(role_ji[keep], rep)

    # Community event pools: a zero-size pool would make stamping impossible,
    # so zero Poisson draws are redrawn.
    pool_sizes = np.empty(k, dtype=np.int64)
    pools = []
    for c in range(k):
        m = int(clock.poisson(params.gamma[c]))
        while m == 0:
            m = int(clock.poisson(params.gamma[c]))
        pool_sizes[c] = m
        pools.append(clock.uniform(0.0, params.horizon, size=m))
    offsets = np.concatenate([[0], np.cumsum(pool_sizes)])[:-1]
    flat_pool = np.concatenate(pools) if pools else np.empty(0)

    def stamp(roles: np.ndarray) -> np.ndarray:
        pick = np.floor(clock.random(roles.size) * pool_sizes[roles]).astype(np.int64)
        return flat_pool[offsets[roles] + pick]

    t_src = stamp(role_s)
    t_dst = stamp(role_d)

    graph = Graph(n, src, dst, np.ones(src.size), t_src, t_dst)
    truth = np.isin(lifestyle, params.foreground_lifestyles).astype(np.int8)
    return GeneratedNetwork(
        graph=graph,
        truth=truth,
        params=params,
        meta={
            "lifestyles": lifestyle,
            "membership": membership,
            "expected_degrees": lam,
            "event_pools": pools,
        },
    )


def default_hmmb_params(
    gamma_fg: float = 1.0,
    n: int = 256,
    expected_foreground: int = 30,
    gamma_bg: float = 96.0,
    alpha: float = 2.8,
    horizon: float = 24.0,
) -> HmmbParams:
    """Reference configuration: eleven lifestyles over ten communities.

    Nine background lifestyles each center on one of nine background
    communities with spillover into two others; two foreground lifestyles
    center on the covert community (index 9) and split their remaining
    membership across disjoint background communities.  Within-community
    support sits at the connectivity-threshold density ``log(m)/m`` for the
    community's expected order.
    """
    k, l = 10, 11
    eps = 0.05
    x = np.full((l, k), eps)
    for b in range(9):
        x[b, b] = 12.0
        x[b, (b + 1) % 9] = 2.5
        x[b, (b + 4) % 9] = 2.5
    # Covert actors concentrate on the covert community with spillover into
    # disjoint background communities.
    for fg, spill in ((9, (0, 2, 4)), (10, (1, 5, 7))):
        x[fg, 9] = 30.0
        for c in spill:
            x[fg, c] = 2.0

    p_fg = expected_foreground / n
    phi = np.empty(l)
    phi[:9] = (1.0 - p_fg) / 9.0
    phi[9] = phi[10] = p_fg / 2.0

    bg_order = n * (1.0 - p_fg) / 9.0
    s = np.full((k, k), 0.015)
    for c in range(9):
        s[c, c] = activity_density(round(bg_order))
    s[9, 9] = activity_density(expected_foreground)

    b = np.full((k, k), 120.0)
    np.fill_diagonal(b, 500.0)
    b[9, 9] = 900.0  # covert roles interact intensely when they do interact

    gamma = np.full(k, gamma_bg)
    gamma[9] = checked_number("gamma_fg", gamma_fg)

    return HmmbParams(
        n=n,
        communities=k,
        lifestyles=l,
        phi=phi,
        concentration=x,
        block_support=s,
        block_strength=b,
        gamma=gamma,
        alpha=alpha,
        horizon=horizon,
        foreground_lifestyles=(9, 10),
    )

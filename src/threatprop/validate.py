"""Self-validation suite: the toolkit's one catalogue of executable invariants.

Each check draws randomized instances from the generator it is given and
returns its measurement (a worst error, a worst z, a rank shortfall, a bound
violation, or walk estimates next to their exact values); the caller applies
the bound.  The checks cover kernel properties, stochasticity, the maximum
principle, the equivalence of the harmonic, hitting-matrix and
walk-simulation solutions on spatial graphs and on space-time systems with
time-clique hubs, and ROC invariances.  ``run_suite`` holds the suite's
budgets and bounds in one table and returns a machine-readable report; the
CLI maps failure onto exit code 3.  The acceptance gate
(``tests/test_acceptance.py``) calls the same checks at its own budgets and
bounds, so the two differ only in those.
"""

from __future__ import annotations

import math
import statistics
import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import spatial
from .errors import ValidationFailure
from .evaluation import roc
from .generators import SbmParams, generate_sbm
from .graph import LAPLACIAN_KINDS, Graph, ObservationSet, laplacian, upper_pairs
from .priors import PRIOR_KINDS, PriorSpec, compute_prior
from .spacetime import (
    TimeGrid,
    assemble_spacetime,
    coordination_prior,
    kernel_profile,
    solve_spacetime,
    spacetime_operator,
)
from .spatial import AbsorbingChain, build_absorbing_chain, hitting_threat, monte_carlo_threat
from .spectral import fiedler

# Routed through module scope so fault-injection tests can swap the solver.
_harmonic = spatial.solve_harmonic

SUITE_SEED = 20140708


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def random_connected_graph(rng: np.random.Generator, n: int, p: float = 0.3) -> Graph:
    """Random graph conditioned on connectivity (rejection draw)."""
    iu, ju = upper_pairs(n)
    for _ in range(200):
        hit = np.flatnonzero(rng.random(iu.size) < p)
        if not hit.size:
            continue
        g = Graph(n, iu.take(hit), ju.take(hit), np.ones(hit.size))
        if g.is_connected():
            return g
    raise ValidationFailure(f"could not draw a connected graph at n={n}, p={p}")


def _order(rng: np.random.Generator, n: int | range) -> int:
    """``n`` itself, or an order drawn from the range ``n``."""
    return n if isinstance(n, int) else int(rng.integers(n.start, n.stop))


def _join_cut_off(rng, g, psi, cut_off, p):
    """``g`` and its prior ``psi`` joined with a connected random component
    of order ``cut_off`` (or drawn from that range, edge probability ``p``)
    that shares no edge with it, so no cue of ``g`` reaches it.  In half the
    draws its prior is one, which makes its rows stochastic and ``I - G``
    singular over it; otherwise it is its own ``dwtp`` prior."""
    h = random_connected_graph(rng, _order(rng, cut_off), p)
    psi_h = np.ones(h.n) if rng.random() < 0.5 else compute_prior(h, PriorSpec("dwtp"))
    joined = Graph(g.n + h.n, np.r_[g.u, h.u + g.n], np.r_[g.v, h.v + g.n], np.r_[g.w, h.w])
    return joined, np.r_[psi, psi_h]


def _cued_graphs(rng, reps, n, p=0.3, cues=None, kinds=PRIOR_KINDS, cut_off=None):
    """``reps`` random (graph, prior, cues) triples.

    Each graph is connected, of order ``n`` (or drawn from the range ``n``),
    with edge probability ``p``.  It has one to ``cues`` cues at distinct
    vertices (by default fewer than a quarter of its order, and at least
    one), each valued in [0.1, 1), and a prior of a kind drawn from
    ``kinds`` with ``psi0`` in [0.2, 1).  With ``cut_off`` (an order or a
    range of orders) it is then joined with an uncued component
    (:func:`_join_cut_off`).
    """
    for _ in range(reps):
        g = random_connected_graph(rng, _order(rng, n), p)
        count = int(rng.integers(1, cues + 1 if cues else max(2, g.n // 4)))
        verts = rng.choice(g.n, size=count, replace=False)
        obs = ObservationSet.of(*[(int(v), float(rng.uniform(0.1, 1.0))) for v in verts])
        kind = kinds[int(rng.integers(len(kinds)))]
        psi = compute_prior(g, PriorSpec(kind, psi0=float(rng.uniform(0.2, 1.0))), obs)
        if cut_off is not None:
            g, psi = _join_cut_off(rng, g, psi, cut_off, p)
        yield g, psi, obs


def check_laplacian_kernel(rng, reps, n):
    """Largest |L @ 1| of both Laplacians, and the count of asymmetric
    adjacency entries, over ``reps`` random graphs of order ``n``."""
    worst, asymmetric = [], 0
    for _ in range(reps):
        g = random_connected_graph(rng, n)
        worst += [np.abs(laplacian(g, kind) @ np.ones(g.n)).max() for kind in LAPLACIAN_KINDS]
        a = g.adjacency
        asymmetric += (a != a.T).nnz
    return float(np.max(worst)), asymmetric


def check_fiedler_bounds(rng, reps, n):
    """Worst violation of ``4 / (n diam) <= lambda_2 <= n / (n - 1) d_min``
    and the count of disconnected nonpositive-threshold subgraphs of the
    Fiedler vector, over ``reps`` random graphs of order ``n`` (or drawn
    from the range ``n``)."""
    from scipy.sparse import csgraph

    violation, disconnected = [0.0], 0
    for _ in range(reps):
        g = random_connected_graph(rng, _order(rng, n))
        value, vec = fiedler(g)
        diam = float(csgraph.shortest_path(g.adjacency, unweighted=True).max())
        violation += [4.0 / (g.n * diam) - value, value - g.n / (g.n - 1) * float(g.degrees.min())]
        for c in np.r_[vec[vec < 0], 0.0]:
            keep = np.flatnonzero(vec >= c)
            if keep.size > 1:
                ncomp, _ = csgraph.connected_components(g.adjacency[keep][:, keep], directed=False)
                disconnected += ncomp != 1
    return float(np.max(violation)), disconnected


def check_maximum_principle(rng, reps, n, **family):
    """Worst violation of the maximum principle by the harmonic solve over
    ``reps`` triples of :func:`_cued_graphs` (``family`` takes its other
    arguments): a value below zero or above the largest cue, or a maximum
    away from every cue; and the largest |theta - p| at the cued vertices."""
    worst, pinned = [], []
    for g, psi, obs in _cued_graphs(rng, reps, n, **family):
        theta = _harmonic(g, psi, obs, tol=1e-10, on_unreachable="zero")
        top = theta.max()
        worst.append(max(-theta.min(), top - obs.values.max(), abs(top - theta[obs.vertices].max())))
        pinned.append(np.abs(theta[obs.vertices] - obs.values).max())
    return float(np.max(worst)), float(np.max(pinned))


def check_chain_stochasticity(rng, reps, n):
    """Largest |T @ 1 - 1| of the absorbing chains of ``reps`` triples of
    :func:`_cued_graphs`."""
    worst = []
    for g, psi, obs in _cued_graphs(rng, reps, n):
        t = build_absorbing_chain(g, psi, obs).transition_matrix
        worst.append(np.abs(t @ np.ones(t.shape[0]) - 1.0).max())
    return float(np.max(worst))


def check_invariant_subspace(rng, reps, n, **family):
    """Largest |T @ E - E| of the invariant basis ``E``, the largest gap
    between its rank and the absorbing state count, and the largest -min(E),
    over ``reps`` triples of :func:`_cued_graphs` (``family`` takes its other
    arguments)."""
    worst, shortfall, negative = [], 0, []
    for g, psi, obs in _cued_graphs(rng, reps, n, **family):
        chain = build_absorbing_chain(g, psi, obs)
        e = chain.invariant_basis()
        worst.append(np.abs(chain.transition_matrix @ e - e).max())
        shortfall = max(shortfall, abs(int(np.linalg.matrix_rank(e)) - chain.n_absorbing))
        negative.append(-e.min())
    return float(np.max(worst)), shortfall, float(np.max(negative))


def check_harmonic_hitting_equivalence(rng, reps, n, **family):
    """Largest |harmonic - hitting| over ``reps`` triples of :func:`_cued_graphs`
    (``family`` takes its other arguments)."""
    return float(np.max([
        np.abs(_harmonic(g, psi, obs, tol=1e-12, on_unreachable="zero")
               - hitting_threat(build_absorbing_chain(g, psi, obs))).max()
        for g, psi, obs in _cued_graphs(rng, reps, n, **family)
    ]))


def _three_solutions(cases, walks, seed):
    """Largest |harmonic - hitting| over ``(harmonic, chain)`` cases and, per
    case, its harmonic values with the walk estimate of ``walks`` walks per
    state (seeded ``seed``, ``seed + 1``, ...)."""
    errors, runs = [], []
    for i, (exact, chain) in enumerate(cases):
        errors.append(np.abs(exact - hitting_threat(chain)).max())
        runs.append((exact, monte_carlo_threat(chain, walks, seed=seed + i)))
    return float(np.max(errors)), runs


def hub_systems(rng, systems, n, nt=6):
    """``systems`` random space-time systems with time-clique hubs, each with
    its cue: a connected graph of order ``n`` (edge probability 0.4) with
    weights in [0.2, 3) and about 40% of its records untimed (never the
    first), on ``nt`` unit bins at kernel rate 0.6 in clique mode, cued with
    value 1 at its first record's sender and time.  A draw without hubs
    raises :class:`ValidationFailure`, since it leaves the hub rows untested.
    """
    for _ in range(systems):
        g = random_connected_graph(rng, n, p=0.4)
        times = rng.uniform(0, nt, g.size)
        timed = rng.random(g.size) < 0.6
        timed[0] = True
        t = np.where(timed, times, np.nan)
        gt = Graph(g.n, g.u, g.v, rng.uniform(0.2, 3.0, g.size), t, t)
        sys_ = assemble_spacetime(gt, TimeGrid(0.0, 1.0, nt), rates=0.6, mode_default="clique")
        if not sys_.hubs:
            raise ValidationFailure(f"a hub system of order {n} drew no time clique")
        yield sys_, ObservationSet.of((int(g.u[0]), 1.0, float(times[0])))


def _hub_chains(rng, systems, n, variant, tol):
    """The chains of :func:`spacetime_operator`, hubs included, of
    :func:`hub_systems`, each with its harmonic values (solved to ``tol``
    through the factored operator, which has no hubs) over every state; a
    hub's value is its vertex's bin mean, which its row takes with prior 1.
    A state with no path to the cue scores zero in the factored solve and in
    the chain alike (:class:`AbsorbingChain` empties its row)."""
    for sys_, obs in hub_systems(rng, systems, n):
        chain = AbsorbingChain(spacetime_operator(sys_, variant), *obs.boundary(sys_.graph, sys_.grid))
        theta = solve_spacetime(sys_, obs, variant=variant, tol=tol)
        yield np.concatenate([theta.ravel(), theta[sys_.hub_vertices].mean(axis=1)]), chain


def check_walk_equivalence(rng, graphs, n, walks, seed=0, cut_off=None):
    """The three solutions on ``graphs`` random graphs of order ``n``, each
    cued with value 1 at a random vertex under the ``dwtp`` prior, and with
    ``cut_off`` joined with an uncued component (:func:`_join_cut_off`): the
    largest |harmonic - hitting| and the runs ``(harmonic, walk estimate)``
    of ``walks`` walks per vertex, seeded from ``seed`` up."""
    def cases():
        for _ in range(graphs):
            g = random_connected_graph(rng, n)
            obs = ObservationSet.of((int(rng.integers(g.n)), 1.0))
            psi = compute_prior(g, PriorSpec("dwtp"))
            if cut_off is not None:
                g, psi = _join_cut_off(rng, g, psi, cut_off, 0.3)
            yield _harmonic(g, psi, obs, tol=1e-12, on_unreachable="zero"), build_absorbing_chain(g, psi, obs)
    return _three_solutions(cases(), walks, seed)


def check_spacetime_hitting(rng, systems, n, variant="coordinated"):
    """Largest |harmonic - hitting| over every state of the hub chains of
    ``systems`` space-time systems of order ``n`` (see :func:`_hub_chains`)."""
    cases = _hub_chains(rng, systems, n, variant, 1e-12)
    return float(np.max([np.abs(exact - hitting_threat(chain)).max() for exact, chain in cases]))


def check_spacetime_walks(rng, systems, n, walks, seed=0, variant="coordinated"):
    """:func:`check_walk_equivalence` on the hub chains of ``systems``
    space-time systems of order ``n`` (see :func:`_hub_chains`), walking from
    every state.  The harmonic solve stops at ``1e-10``, well under the walks'
    resolution: the ``weighted`` fixed point can stall short of ``1e-12``."""
    return _three_solutions(_hub_chains(rng, systems, n, variant, 1e-10), walks, seed)


def walk_band_excess(runs, walks) -> float:
    """Largest distance of a walk estimate from its exact value, in units of
    its band; the family lies inside its band when this is at most 1.

    The band is Bonferroni-corrected: the whole family of per-state
    estimates jointly stays inside a 3-sigma-equivalent confidence region.
    A naive per-state 3-sigma test rejects a correct estimator with
    probability 1-(1-0.0027)^m, which approaches one for m in the hundreds.
    """
    zstar = -statistics.NormalDist().inv_cdf(0.00135 / sum(exact.size for exact, _ in runs))
    worst = []
    for exact, mc in runs:
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 0.0) / walks)
        # the floor is the matching discrete tail where the expected hit
        # count is order one and the normal approximation undercovers
        band = np.maximum(zstar * sigma, (zstar + 2.0) / walks)
        worst.append((np.abs(mc.theta - exact) / (band + 1e-12)).max())
    return float(np.max(worst))


def check_degenerate_constant(rng, n, nt, tol):
    """Largest distance from the cue value ``p0 = 0.37`` of the spatial
    solution under a unit prior and of the weighted space-time solution
    (solved to ``tol``), on a random graph of order ``n`` with its records
    timed uniformly over ``nt`` unit bins.  Both are cued with ``p0`` at the
    first record's sender, the space-time one at that record's time."""
    p0 = 0.37
    g = random_connected_graph(rng, n)
    cue = int(g.u[0])
    theta = _harmonic(g, np.ones(g.n), ObservationSet.of((cue, p0)), tol=1e-10, method="direct",
                      on_unreachable="zero")
    times = rng.uniform(0, nt, g.size)
    # rate low enough that no kernel entry is truncated, keeping the lifted
    # graph fully coupled
    sys_ = assemble_spacetime(Graph(g.n, g.u, g.v, g.w, times, times), TimeGrid(0.0, 1.0, nt), rates=0.25)
    theta_st = solve_spacetime(sys_, ObservationSet.of((cue, p0, float(times[0]))), variant="weighted", tol=tol)
    return float(np.abs(theta - p0).max()), float(np.abs(theta_st - p0).max())


def check_kernel_identities(rng):
    """Largest failure of the kernel's unity at zero lag, of its symmetry and
    of its monotone decay at three rates, and how far the coordination prior
    of a random space-time system falls below 0 and rises above 1."""
    lags = np.linspace(0, 6, 121)
    kernel = []
    for lam in (0.3, 1.0, 4.0):
        k = kernel_profile(lam, lags)
        kernel.append([abs(k[0] - 1.0), np.abs(k - kernel_profile(lam, -lags)).max(), np.diff(k).max()])
    unity, symmetry, decay = np.max(kernel, axis=0)
    g = random_connected_graph(rng, 12)
    times = rng.uniform(0, 10, g.size)
    psi = coordination_prior(assemble_spacetime(Graph(g.n, g.u, g.v, g.w, times, times), TimeGrid(0.0, 1.0, 10),
                                                rates=0.8))
    return float(unity), float(symmetry), float(decay), float(-psi.min()), float(psi.max() - 1.0)


def check_spacetime_spatial_equivalence(rng):
    """Largest distance between the single-bin clique space-time solution
    and the spatial one on a random graph of order 15."""
    (g, psi, obs), = _cued_graphs(rng, 1, 15, kinds=("dwtp",))
    ref = _harmonic(g, psi, obs, tol=1e-12, on_unreachable="zero")
    sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 1), mode_default="clique")
    theta = solve_spacetime(sys_, obs, variant="weighted", spatial_psi=psi, tol=1e-12)
    return float(np.abs(theta[:, 0] - ref).max())


def check_roc_properties(rng):
    """Whether a monotone score transform moves the ROC curve (0 or 1), the
    distance of the chance AUC from 0.5, and of a perfect detector's from 1."""
    n = 10_000
    scores = rng.random(n)
    truth = (rng.random(n) < 0.5).astype(int)
    base = roc(scores, truth)
    mapped = roc(scores / (1.0 + 1e-9 - scores), truth)
    moved = not (np.array_equal(base.pfa, mapped.pfa) and np.array_equal(base.pd, mapped.pd))
    return int(moved), abs(base.auc - 0.5), abs(roc(truth.astype(float), truth).auc - 1.0)


def check_generator_statistics(rng, block_probs, sizes, trials, seed=0):
    """Largest z of the pooled block densities of ``trials`` unshuffled
    blockmodel draws (seeded ``seed``, ``seed + 1``, ...; ``rng`` is unused)
    against their block probabilities."""
    s = np.asarray(block_probs, dtype=float)
    params = SbmParams(sizes=sizes, block_probs=s, shuffle=False)
    counts = np.zeros_like(s)
    for t in range(trials):
        net = generate_sbm(params, temporal="none", seed=seed + t)
        a, b = net.meta["labels"][net.graph.u], net.meta["labels"][net.graph.v]
        np.add.at(counts, (np.minimum(a, b), np.maximum(a, b)), 1)
    size = np.asarray(sizes, dtype=float)
    pairs = trials * (np.outer(size, size) - np.diag(size * (size + 1) / 2))
    iu = np.triu_indices_from(s)
    z = np.abs(counts[iu] / pairs[iu] - s[iu]) / np.sqrt(s[iu] * (1 - s[iu]) / pairs[iu])
    return float(z.max())


def _banded(check):
    """A walk check measured as the suite bounds it: its hitting error and
    the band excess of its runs (:func:`walk_band_excess`)."""
    def measure(rng, walks, **budget):
        error, runs = check(rng, walks=walks, **budget)
        return error, walk_band_excess(runs, walks)
    return measure


# The orders of the uncued components that the cut-off rows join on.
CUT_OFF = range(2, 10)

# One row per check: its name, the check, its budget at level fast and at
# level full (None: the fast one), the bound on each part of its measurement
# and what each part is.  A ``-cut-off`` row runs its check on graphs joined
# with an uncued component (``cut_off``), under its own name, so the other
# rows keep their draws.
CHECKS = (
    ("laplacian-kernel", check_laplacian_kernel, dict(reps=10, n=25), None,
     (1e-12, 0), ("max |L@1|", "asymmetric entries")),
    ("fiedler-bounds-and-threshold", check_fiedler_bounds, dict(reps=10, n=20), None,
     (1e-9, 0), ("Fiedler bound violation", "disconnected threshold subgraphs")),
    ("maximum-principle", check_maximum_principle, dict(reps=50, n=18), dict(reps=200, n=18),
     (1e-8, 1e-12), ("worst maximum-principle violation", "max |theta - p| at cues")),
    ("maximum-principle-cut-off", check_maximum_principle, dict(reps=30, n=18, cut_off=CUT_OFF),
     dict(reps=100, n=18, cut_off=CUT_OFF),
     (1e-8, 1e-12), ("worst maximum-principle violation", "max |theta - p| at cues")),
    ("chain-row-stochasticity", check_chain_stochasticity, dict(reps=20, n=15), None,
     1e-12, "max |T@1 - 1|"),
    ("invariant-subspace", check_invariant_subspace, dict(reps=20, n=15), None,
     (1e-12, 0, 0), ("max |T@E - E|", "rank shortfall", "-min E")),
    ("invariant-subspace-cut-off", check_invariant_subspace, dict(reps=20, n=15, cut_off=CUT_OFF), None,
     (1e-12, 0, 0), ("max |T@E - E|", "rank shortfall", "-min E")),
    ("harmonic-vs-hitting", check_harmonic_hitting_equivalence, dict(reps=8, n=30), None,
     1e-8, "max |harmonic - hitting|"),
    ("harmonic-vs-hitting-cut-off", check_harmonic_hitting_equivalence, dict(reps=8, n=30, cut_off=CUT_OFF), None,
     1e-8, "max |harmonic - hitting|"),
    ("harmonic-vs-walks", _banded(check_walk_equivalence),
     dict(graphs=3, n=30, walks=10_000), dict(graphs=10, n=100, walks=100_000),
     (1e-8, 1.0), ("max |harmonic - hitting|", "walk band excess")),
    ("harmonic-vs-walks-cut-off", _banded(check_walk_equivalence),
     dict(graphs=3, n=30, walks=10_000, cut_off=CUT_OFF), dict(graphs=10, n=100, walks=100_000, cut_off=CUT_OFF),
     (1e-8, 1.0), ("max |harmonic - hitting|", "walk band excess")),
    ("degenerate-constant", check_degenerate_constant, dict(n=20, nt=8, tol=1e-12), None,
     (1e-8, 1e-8), ("spatial err", "space-time err")),
    ("kernel-identities", check_kernel_identities, {}, None,
     (1e-15, 0, 1e-15, 0, 1e-12),
     ("kernel |K(0) - 1|", "kernel asymmetry", "kernel rise", "coordination prior below 0",
      "coordination prior above 1")),
    ("spacetime-spatial-equivalence", check_spacetime_spatial_equivalence, {}, None,
     1e-10, "single-bin clique vs spatial err"),
    ("roc-properties", check_roc_properties, {}, None,
     (0, 0.02, 1e-12), ("ROC moved by a monotone transform", "|chance AUC - 0.5|", "|perfect AUC - 1|")),
    ("generator-block-densities", check_generator_statistics,
     dict(block_probs=((0.3, 0.05), (0.05, 0.2)), sizes=(20, 20), trials=60), None,
     math.nextafter(4.0, 0.0), "block density max z"),  # z < 4
    ("spacetime-harmonic-vs-hitting", check_spacetime_hitting, dict(systems=3, n=15), dict(systems=10, n=15),
     1e-8, "max |harmonic - hitting|"),
    ("spacetime-harmonic-vs-walks", _banded(check_spacetime_walks),
     dict(systems=3, n=8, walks=4_000), dict(systems=3, n=15, walks=20_000),
     (1e-8, 1.0), ("max |harmonic - hitting|", "walk band excess")),
)


def run_suite(level: str = "fast") -> dict:
    """Run all checks at the requested level and return the report."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown validation level {level!r}")
    results = []
    for name, check, fast, full, bound, what in CHECKS:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((SUITE_SEED, zlib.crc32(name.encode())))))
        t0 = time.perf_counter()
        try:
            measure = check(rng, **(full if level == "full" and full else fast))
            parts = list(zip(*(x if isinstance(x, tuple) else (x,) for x in (what, measure, bound)), strict=True))
            passed = all(m <= b for _, m, b in parts)
            detail = ", ".join(f"{w} {m:.3g} (<= {b!r})" for w, m, b in parts)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failing check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail, round(time.perf_counter() - t0, 3)))
    return {
        "level": level,
        "seed": SUITE_SEED,
        "passed": all(r.passed for r in results),
        "checks": [r.__dict__ for r in results],
    }

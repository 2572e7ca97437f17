"""Self-validation suite: executable invariants of every module.

Each check draws randomized instances from a fixed seed and verifies a
mathematical identity of the toolkit (kernel properties, stochasticity,
maximum principle, the equivalence of the harmonic, hitting-matrix, and
walk-simulation solutions, ROC invariances).  ``run_suite`` returns a
machine-readable report; the CLI maps failure onto exit code 3.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass

import numpy as np

from . import spatial
from .errors import ValidationFailure
from .evaluation import roc
from .generators import SbmParams, generate_sbm
from .graph import Graph, ObservationSet, laplacian, upper_pairs
from .priors import PriorSpec, compute_prior
from .spacetime import TimeGrid, assemble_spacetime, coordination_prior, kernel_profile, solve_spacetime
from .spatial import build_absorbing_chain, hitting_threat, monte_carlo_threat
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


def _random_prior(rng: np.random.Generator, g: Graph, obs: ObservationSet) -> np.ndarray:
    kind = ("uniform", "dwtp", "lwtp", "bfs")[int(rng.integers(4))]
    psi0 = float(rng.uniform(0.2, 1.0))
    return compute_prior(g, PriorSpec(kind, psi0=psi0), obs)


def _random_obs(rng: np.random.Generator, n: int) -> ObservationSet:
    count = int(rng.integers(1, max(2, n // 5)))
    verts = rng.choice(n, size=count, replace=False)
    return ObservationSet.of(*[(int(v), float(rng.uniform(0.1, 1.0))) for v in verts])


def check_laplacian_kernel(rng, reps=10, n=25):
    worst = 0.0
    for _ in range(reps):
        g = random_connected_graph(rng, n)
        one = np.ones(g.n)
        worst = max(
            worst,
            float(np.abs(laplacian(g, "kirchhoff") @ one).max()),
            float(np.abs(laplacian(g, "generalized") @ one).max()),
        )
        a = g.adjacency
        if (a != a.T).nnz:
            return False, "adjacency asymmetry on an undirected graph"
    return worst <= 1e-12, f"max |L@1| = {worst:.2e}"


def check_fiedler_bounds(rng, reps=10, n=20):
    from scipy.sparse import csgraph

    for _ in range(reps):
        g = random_connected_graph(rng, n)
        value, vec = fiedler(g)
        d = csgraph.shortest_path(g.adjacency, unweighted=True)
        diam = float(d.max())
        dmin = float(g.degrees.min())
        lo, hi = 4.0 / (g.n * diam), g.n / (g.n - 1) * dmin
        if not (lo - 1e-9 <= value <= hi + 1e-9):
            return False, f"fiedler value {value:.4f} outside [{lo:.4f}, {hi:.4f}]"
        if not _threshold_subgraphs_connected(g, vec):
            return False, "nonpositive-threshold subgraph disconnected"
    return True, f"{reps} graphs within bounds, thresholds connected"


def _threshold_subgraphs_connected(g: Graph, vec: np.ndarray) -> bool:
    from scipy.sparse import csgraph

    cuts = np.r_[vec[vec < 0], 0.0]
    for c in cuts:
        keep = np.flatnonzero(vec >= c)
        if keep.size <= 1:
            continue
        sub = g.adjacency[keep][:, keep]
        ncomp, _ = csgraph.connected_components(sub, directed=False)
        if ncomp != 1:
            return False
    return True


def check_maximum_principle(rng, reps=50, n=18):
    for _ in range(reps):
        g = random_connected_graph(rng, n)
        obs = _random_obs(rng, g.n)
        psi = _random_prior(rng, g, obs)
        theta = _harmonic(g, psi, obs, tol=1e-10)
        top = float(obs.values.max())
        if theta.min() < -1e-8 or theta.max() > top + 1e-8:
            return False, f"range violation: [{theta.min():.2e}, {theta.max():.2e}] vs boundary max {top}"
        if abs(theta.max() - theta[obs.vertices].max()) > 1e-8:
            return False, "maximum not attained at an observed vertex"
    return True, f"{reps} random (graph, prior, boundary) triples in range"


def check_chain_stochasticity(rng, reps=20, n=15):
    worst = 0.0
    for _ in range(reps):
        g = random_connected_graph(rng, n)
        obs = _random_obs(rng, g.n)
        psi = _random_prior(rng, g, obs)
        t = build_absorbing_chain(g, psi, obs).transition_matrix
        worst = max(worst, float(np.abs(t @ np.ones(t.shape[0]) - 1.0).max()))
    return worst <= 1e-12, f"max |T@1 - 1| = {worst:.2e}"


def check_invariant_subspace(rng, reps=20, n=15):
    worst = 0.0
    for _ in range(reps):
        g = random_connected_graph(rng, n)
        obs = _random_obs(rng, g.n)
        psi = _random_prior(rng, g, obs)
        chain = build_absorbing_chain(g, psi, obs)
        e = chain.invariant_basis()
        worst = max(worst, float(np.abs(chain.transition_matrix @ e - e).max()))
        if np.linalg.matrix_rank(e) != chain.n_absorbing:
            return False, f"invariant basis rank {np.linalg.matrix_rank(e)} != {chain.n_absorbing}"
    return worst <= 1e-12, f"max |T@E - E| = {worst:.2e}"


def check_harmonic_hitting_equivalence(rng, reps=8, n=30):
    worst = 0.0
    for _ in range(reps):
        g = random_connected_graph(rng, n)
        obs = _random_obs(rng, g.n)
        psi = _random_prior(rng, g, obs)
        theta = _harmonic(g, psi, obs, tol=1e-12)
        exact = hitting_threat(build_absorbing_chain(g, psi, obs))
        worst = max(worst, float(np.abs(theta - exact).max()))
    return worst <= 1e-8, f"max |harmonic - hitting| = {worst:.2e}"


def check_walk_equivalence(rng, graphs=3, n=30, walks=10_000):
    from scipy.stats import norm

    # Bonferroni-corrected band: the whole family of per-vertex estimates
    # jointly stays inside a 3-sigma-equivalent confidence region.  A naive
    # per-vertex 3-sigma test rejects a correct estimator with probability
    # 1-(1-0.0027)^m, which approaches one for m in the hundreds.
    m = graphs * n
    zstar = float(norm.isf(0.00135 / m))
    checked = 0
    for _ in range(graphs):
        g = random_connected_graph(rng, n, p=0.3)
        cue = int(rng.integers(g.n))
        obs = ObservationSet.of((cue, 1.0))
        psi = compute_prior(g, PriorSpec("dwtp"))
        exact = hitting_threat(build_absorbing_chain(g, psi, obs))
        mc = monte_carlo_threat(build_absorbing_chain(g, psi, obs), walks, seed=int(rng.integers(2**63)))
        sigma = np.sqrt(exact * (1 - exact) / walks)
        # the floor is the matching discrete tail where the expected hit
        # count is order one and the normal approximation undercovers
        band = np.maximum(zstar * sigma, (zstar + 2.0) / walks)
        bad = np.abs(mc.theta - exact) > band + 1e-12
        checked += g.n
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            return False, (
                f"walk estimate off at vertex {i}: |{mc.theta[i]:.5f} - {exact[i]:.5f}| "
                f"> {band[i]:.5f}"
            )
    return True, f"{checked} estimates inside the family 3-sigma region (z* = {zstar:.2f})"


def check_degenerate_constant(rng):
    g = random_connected_graph(rng, 20)
    p0 = 0.37
    obs = ObservationSet.of((3, p0))
    theta = _harmonic(g, np.ones(g.n), obs, tol=1e-10, method="direct")
    err_sp = float(np.abs(theta - p0).max())

    grid = TimeGrid(0.0, 1.0, 8)
    times = rng.uniform(0, 8, g.size)
    gt = Graph(g.n, g.u, g.v, g.w, times, times)
    sys_ = assemble_spacetime(gt, grid, rates=0.25)
    theta_st = solve_spacetime(sys_, ObservationSet.of((3, p0)), variant="weighted", tol=1e-12)
    err_st = float(np.abs(theta_st - p0).max())
    ok = err_sp <= 1e-8 and err_st <= 1e-8
    return ok, f"spatial err {err_sp:.2e}, space-time err {err_st:.2e}"


def check_kernel_identities(rng):
    lags = np.linspace(0, 6, 121)
    for lam in (0.3, 1.0, 4.0):
        k = kernel_profile(lam, lags)
        if abs(kernel_profile(lam, np.array([0.0]))[0] - 1.0) > 1e-15:
            return False, "kernel not unity at zero lag"
        if np.abs(k - kernel_profile(lam, -lags)).max() > 0:
            return False, "kernel asymmetric"
        if np.any(np.diff(k) > 1e-15):
            return False, "kernel not nonincreasing"
    g = random_connected_graph(rng, 12)
    times = rng.uniform(0, 10, g.size)
    gt = Graph(g.n, g.u, g.v, g.w, times, times)
    sys_ = assemble_spacetime(gt, TimeGrid(0.0, 1.0, 10), rates=0.8)
    psi = coordination_prior(sys_)
    if psi.min() < 0 or psi.max() > 1 + 1e-12:
        return False, f"coordination prior outside [0,1]: [{psi.min()}, {psi.max()}]"
    return True, "kernel unity/symmetric/monotone; coordination prior in range"


def check_spacetime_spatial_equivalence(rng):
    g = random_connected_graph(rng, 15)
    obs = _random_obs(rng, g.n)
    psi = compute_prior(g, PriorSpec("dwtp"))
    ref = _harmonic(g, psi, obs, tol=1e-12)
    sys_ = assemble_spacetime(g, TimeGrid(0.0, 1.0, 1), mode_default="clique")
    theta = solve_spacetime(sys_, obs, variant="weighted", spatial_psi=psi, tol=1e-12)
    err = float(np.abs(theta[:, 0] - ref).max())
    return err <= 1e-10, f"single-bin clique vs spatial err = {err:.2e}"


def check_roc_properties(rng):
    n = 10_000
    scores = rng.random(n)
    truth = (rng.random(n) < 0.5).astype(int)
    base = roc(scores, truth)
    mapped = roc(scores / (1.0 + 1e-9 - scores), truth)
    if not (np.array_equal(base.pfa, mapped.pfa) and np.array_equal(base.pd, mapped.pd)):
        return False, "ROC not invariant under a monotone score transform"
    if abs(base.auc - 0.5) > 0.02:
        return False, f"chance AUC {base.auc:.4f} far from 0.5"
    perfect = roc(truth.astype(float), truth)
    if abs(perfect.auc - 1.0) > 1e-12:
        return False, f"perfect detector AUC {perfect.auc}"
    return True, f"monotone invariance holds; chance AUC {base.auc:.3f}"


def check_generator_statistics(rng):
    s = np.array([[0.3, 0.05], [0.05, 0.2]])
    params = SbmParams(sizes=(20, 20), block_probs=s, foreground=1, shuffle=False)
    counts = np.zeros((2, 2))
    trials = 60
    for t in range(trials):
        net = generate_sbm(params, temporal="none", seed=int(rng.integers(2**63)))
        labels = net.meta["labels"]
        a, b = labels[net.graph.u], labels[net.graph.v]
        np.add.at(counts, (a, b), 1)
        np.add.at(counts, (b[a != b], a[a != b]), 1)
    pairs = np.array([[190, 400], [400, 190]]) * trials
    phat = counts / pairs
    sigma = np.sqrt(s * (1 - s) / pairs)
    z = np.abs(phat - s) / sigma
    return bool((z < 4).all()), f"block density max z = {z.max():.2f}"


FAST_CHECKS = [
    ("laplacian-kernel", check_laplacian_kernel),
    ("fiedler-bounds-and-threshold", check_fiedler_bounds),
    ("maximum-principle", check_maximum_principle),
    ("chain-row-stochasticity", check_chain_stochasticity),
    ("invariant-subspace", check_invariant_subspace),
    ("harmonic-vs-hitting", check_harmonic_hitting_equivalence),
    ("harmonic-vs-walks", check_walk_equivalence),
    ("degenerate-constant", check_degenerate_constant),
    ("kernel-identities", check_kernel_identities),
    ("spacetime-spatial-equivalence", check_spacetime_spatial_equivalence),
    ("roc-properties", check_roc_properties),
    ("generator-block-densities", check_generator_statistics),
]


def run_suite(level: str = "fast") -> dict:
    """Run all checks at the requested level and return the report."""
    if level not in ("fast", "full"):
        raise ValueError(f"unknown validation level {level!r}")
    results = []
    for name, fn in FAST_CHECKS:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((SUITE_SEED, zlib.crc32(name.encode())))))
        t0 = time.perf_counter()
        try:
            if level == "full" and name == "harmonic-vs-walks":
                passed, detail = check_walk_equivalence(rng, graphs=10, n=100, walks=100_000)
            elif level == "full" and name == "maximum-principle":
                passed, detail = check_maximum_principle(rng, reps=200)
            else:
                passed, detail = fn(rng)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failing check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail, round(time.perf_counter() - t0, 3)))
    report = {
        "level": level,
        "seed": SUITE_SEED,
        "passed": all(r.passed for r in results),
        "checks": [r.__dict__ for r in results],
    }
    return report

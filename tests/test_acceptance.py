"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one ``ACCEPTANCE <n> PASS/FAIL`` line (visible with -s, and
embedded in the failure message otherwise).
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import zeta

from threatprop.evaluation import convexity_defect, roc
from threatprop.experiment import hmmb_detection_config, run_experiment, sbm_detection_config
from threatprop.generators import HmmbParams, generate_hmmb
from threatprop.graph import ObservationSet
from threatprop.priors import PriorSpec, compute_prior
from threatprop.spatial import build_absorbing_chain, hitting_threat, solve_harmonic
from threatprop.validate import (
    check_degenerate_constant,
    check_fiedler_bounds,
    check_generator_statistics,
    check_invariant_subspace,
    check_maximum_principle,
    check_spacetime_hitting,
    check_spacetime_walks,
    check_walk_equivalence,
)

from conftest import make_er, rng_for


def report(num, ok, detail):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sbm_results():
    t0 = time.perf_counter()
    out = {
        r: run_experiment(sbm_detection_config(activity=r, trials=100, seed=7, threads=2))
        for r in (2.0, 1.1)
    }
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def hmmb_results():
    t0 = time.perf_counter()
    out = {
        g: run_experiment(hmmb_detection_config(gamma_fg=g, trials=100, seed=7, threads=2))
        for g in (1.0, 10.0, 24.0)
    }
    out["elapsed"] = time.perf_counter() - t0
    return out


def worst_z(runs, walks):
    """Largest plain z of a walk estimate against its exact value; a state
    whose exact value is 0 or 1 has no spread and counts as 0."""
    worst = 0.0
    for exact, mc in runs:
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 0.0) / walks)
        worst = max(worst, float((np.abs(mc.theta - exact) / np.where(sigma > 0, sigma, np.inf)).max()))
    return worst


def test_criterion_1_equivalence_of_the_three_solutions():
    rng = rng_for("acc1")
    t0 = time.perf_counter()
    # spatial: 10 graphs of order 20; space-time: hub systems of order 10 on 6 bins
    err, runs = check_walk_equivalence(rng, graphs=10, n=20, walks=100_000, seed=4000)
    err_st, runs_st = check_spacetime_walks(rng, systems=2, n=10, walks=20_000, seed=4010)
    err_hubs = check_spacetime_hitting(rng, systems=10, n=15)
    worst_exact = max(err, err_st, err_hubs)
    worst = max(worst_z(runs, 100_000), worst_z(runs_st, 20_000))
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-8 and worst <= 3.0 and elapsed < 30.0
    report(1, ok, f"harmonic vs hitting {worst_exact:.2e} (<=1e-8), "
                  f"walk max z {worst:.2f} (<=3), {elapsed:.1f}s (<30s)")


def test_criterion_2_maximum_principle():
    t0 = time.perf_counter()
    worst, _ = check_maximum_principle(rng_for("acc2"), reps=200, n=range(8, 30), cues=3)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(2, ok, f"200 triples, range and boundary maximum within {worst:.2e} (<=1e-8), "
                  f"{elapsed:.1f}s (<10s)")


def test_criterion_3_invariant_subspace_construction():
    t0 = time.perf_counter()
    worst, shortfall, _ = check_invariant_subspace(rng_for("acc3"), reps=100, n=range(5, 31), p=0.35,
                                                   kinds=("uniform",))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and shortfall == 0 and elapsed < 5.0
    report(3, ok, f"max |T@E - E| {worst:.2e} (<=1e-12), rank shortfall {shortfall}, {elapsed:.1f}s (<5s)")


def test_criterion_4_degenerate_constant_solution():
    err_spatial, err_st = check_degenerate_constant(rng_for("acc4"), n=24, nt=10, tol=1e-10)
    ok = err_spatial <= 1e-8 and err_st <= 1e-8
    report(4, ok, f"spatial err {err_spatial:.2e}, space-time err {err_st:.2e} (<=1e-8)")


def test_criterion_5_path_graph_closed_form(path3):
    psi = compute_prior(path3, PriorSpec("dwtp"))
    theta = solve_harmonic(path3, psi, ObservationSet.of((2, 1.0)))
    err = float(np.abs(theta - np.array([1 / 3, 1 / 3, 1.0])).max())
    report(5, err <= 1e-10, f"|theta - (1/3, 1/3, 1)| = {err:.2e} (<=1e-10)")


def test_criterion_6_blockmodel_benchmark(sbm_results):
    r2, r11 = sbm_results[2.0], sbm_results[1.1]
    sttp, bfs = r2.curves["sttp"], r2.curves["bfs"]
    gap = sttp.auc - bfs.auc
    need = 2 * np.hypot(sttp.auc_se, bfs.auc_se)
    grid = np.arange(0.05, 0.501, 0.05)
    slack = 2 * (np.interp(grid, sttp.pfa, sttp.se_pd) + np.interp(grid, bfs.pfa, bfs.se_pd))
    above = bool(np.all(sttp.pd_at(grid) + slack >= bfs.pd_at(grid)))
    spec_orders = r2.curves["spec"].auc > r11.curves["spec"].auc
    elapsed = sbm_results["elapsed"]
    ok = gap > need and above and spec_orders and elapsed < 600.0
    report(6, ok, f"AUC(sttp)-AUC(bfs)={gap:.3f} (>{need:.3f}), sttp above bfs on grid={above}, "
                  f"AUC(spec,r2)={r2.curves['spec'].auc:.3f} > AUC(spec,r1.1)={r11.curves['spec'].auc:.3f}, "
                  f"{elapsed:.0f}s (<600s)")


def test_criterion_7_hybrid_benchmark(hmmb_results):
    g1, g24 = hmmb_results[1.0], hmmb_results[24.0]
    sttp1, sttp24 = g1.curves["sttp"], g24.curves["sttp"]
    gap = sttp1.auc - sttp24.auc
    need = 2 * np.hypot(sttp1.auc_se, sttp24.auc_se)
    stable = True
    for det in ("bfs", "spec"):
        curves = [hmmb_results[g].curves[det] for g in (1.0, 10.0, 24.0)]
        for other in curves[1:]:
            stable = stable and np.array_equal(curves[0].pfa, other.pfa) \
                and np.array_equal(curves[0].pd, other.pd) \
                and np.array_equal(curves[0].thresholds, other.thresholds)
    elapsed = hmmb_results["elapsed"]
    ok = gap > need and stable and elapsed < 900.0
    report(7, ok, f"AUC(sttp,g=1)-AUC(sttp,g=24)={gap:.3f} (>{need:.3f}), "
                  f"bfs/spec bitwise stable across gamma={stable}, {elapsed:.0f}s (<900s)")


def test_criterion_8_roc_convexity():
    # scores on data drawn from the walk model itself: per vertex, threat is
    # Bernoulli at exactly the posterior the detector reports
    rng = rng_for("acc8")
    scores, truth = [], []
    for _ in range(400):
        g = make_er(rng, 60, 0.12)
        cue = int(rng.integers(g.n))
        obs = ObservationSet.of((cue, 1.0))
        psi = compute_prior(g, PriorSpec("dwtp"))
        theta = hitting_threat(build_absorbing_chain(g, psi, obs))
        scores.append(theta)
        truth.append((rng.random(g.n) < theta).astype(int))
    own_model = roc(np.concatenate(scores), np.concatenate(truth))
    own_defect = convexity_defect(own_model)

    # the aggregate that reflects per-trial curve shape: pooling mixes score
    # scales across trials and dents the low-PFA corner
    cfg = sbm_detection_config(activity=1.1, trials=100, seed=7, detectors=("sttp",))
    vert = run_experiment(replace(cfg, aggregate="vertical"))
    sbm_defect = convexity_defect(vert.curves["sttp"])
    ok = own_defect <= 0.02 and sbm_defect <= 0.04
    report(8, ok, f"walk-model defect {own_defect:.4f} (<=0.02), "
                  f"blockmodel sttp defect {sbm_defect:.4f} (<=0.04)")


def test_criterion_9_connectivity_eigenvector_properties():
    violation, disconnected = check_fiedler_bounds(rng_for("acc9"), reps=100, n=range(6, 40))
    ok = violation <= 1e-9 and disconnected == 0
    report(9, ok, f"100 graphs: Fiedler bound violation {violation:.2e} (<=1e-9), "
                  f"{disconnected} disconnected threshold subgraphs")


def ml_tail_exponent(samples: np.ndarray, x_min: float) -> float:
    """Brute-force discrete power-law fit: maximize the zeta-normalized
    log-likelihood over a dense exponent grid."""
    tail = samples[samples >= x_min].astype(float)
    grid = np.arange(1.5, 4.5, 0.001)
    ll = -grid * np.log(tail).sum() - tail.size * np.log(zeta(grid, x_min))
    return float(grid[int(np.argmax(ll))])


def test_criterion_10_generator_statistics():
    # blockmodel: pooled block densities within 3 sigma over 1000 draws
    worst_sigma = check_generator_statistics(rng_for("acc10"), block_probs=((0.25, 0.04), (0.04, 0.15)),
                                             sizes=(30, 30), trials=1000, seed=50_000)
    dens_ok = worst_sigma <= 3.0

    # hybrid model at ones strength and full support reduces to the
    # expected-degree model: the interaction-count tail recovers alpha
    alpha = 2.5
    params_cl = HmmbParams(
        n=2000, communities=1, lifestyles=1,
        phi=np.array([1.0]), concentration=np.array([[5.0]]),
        block_support=np.array([[1.0]]), block_strength=np.array([[1.0]]),
        gamma=np.array([50.0]), alpha=alpha, lam_min=1.0,
    )
    net = generate_hmmb(params_cl, seed=99)
    degrees = net.graph.degrees
    alpha_hat = ml_tail_exponent(degrees, x_min=6.0)
    tail_ok = abs(alpha_hat - alpha) <= 0.3
    ok = dens_ok and tail_ok
    report(10, ok, f"block densities max z {worst_sigma:.2f} (<=3), "
                   f"tail exponent {alpha_hat:.2f} vs {alpha} (+-0.3)")


def test_criterion_11_determinism(tmp_path):
    import json

    from threatprop.cli import main

    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"kind": "sbm", "activity": 2.0, "trials": 3, "seed": 4,
                               "detectors": ["sttp", "bfs", "spec"]}))
    blobs = []
    for name, threads in (("t1", "1"), ("t1b", "1"), ("t4", "4")):
        out = tmp_path / name
        assert main(["experiment", "--config", str(cfg), "--threads", threads, "--out", str(out)]) == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = blobs[0] == blobs[1] == blobs[2]
    report(11, ok, f"{sorted(blobs[0])} byte-identical across reruns and thread counts")

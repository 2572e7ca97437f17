import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from threatprop.errors import GraphError
from threatprop.experiment import sbm_detection_config
from threatprop.generators import (
    HmmbParams,
    SbmParams,
    _streams,
    activity_density,
    default_hmmb_params,
    generate_hmmb,
    generate_sbm,
    pareto_draw,
)
from threatprop.graph import upper_pairs

from conftest import rng_for


def small_sbm(foreground=1, shuffle=False):
    s = np.array([[0.3, 0.05], [0.05, 0.2]])
    return SbmParams(sizes=(20, 20), block_probs=s, foreground=foreground, shuffle=shuffle)


def reference_sbm(params, temporal, seed):
    """The blockmodel drawn with a fresh pair table and 2-D block lookups:
    ``(u, v, t_u, t_v, truth, labels)``."""
    struct, clock = _streams(seed)
    n = params.n
    labels = np.repeat(np.arange(len(params.sizes)), params.sizes)
    if params.shuffle:
        labels = struct.permutation(labels)
    iu, ju = np.triu_indices(n, k=1)
    hit = struct.random(iu.size) < params.block_probs[labels[iu], labels[ju]]
    src, dst = iu[hit], ju[hit]
    truth = (labels == params.foreground).astype(np.int8) if params.foreground is not None else np.zeros(n, np.int8)
    times = np.full(src.size, np.nan)
    if temporal != "none":
        t_star = float(clock.uniform(0.0, params.horizon))
        times = clock.uniform(0.0, params.horizon, size=src.size)
        if temporal == "coordinated":
            times = np.where((truth[src] == 1) & (truth[dst] == 1), t_star, times)
    return src, dst, times, times, truth, labels


class TestSbm:
    def test_matches_all_pairs_draw(self):
        # Orders 64 and 256 alternate, so a pair table held from one order
        # would show in the next draw.
        small = SbmParams(sizes=(40, 24), block_probs=np.array([[0.1, 0.03], [0.03, 0.4]]), foreground=1)
        for seed in range(6):
            for base in (small, sbm_detection_config(2.0).params):
                for shuffle in (True, False):
                    params = dataclasses.replace(base, shuffle=shuffle)
                    for temporal in ("coordinated", "uniform", "none"):
                        net = generate_sbm(params, temporal=temporal, seed=seed)
                        g = net.graph
                        got = (g.u, g.v, g.t_u, g.t_v, net.truth, net.meta["labels"])
                        for a, b in zip(got, reference_sbm(params, temporal, seed), strict=True):
                            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for n in (64, 256):
            iu, ju = upper_pairs(n)
            assert iu.size == n * (n - 1) // 2 and not iu.flags.writeable and not ju.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                iu[0] = 1

    def test_zero_probability_gives_empty_graph(self):
        params = SbmParams(sizes=(5, 5), block_probs=np.zeros((2, 2)))
        net = generate_sbm(params, seed=1)
        assert net.graph.size == 0 and net.graph.n == 10

    def test_activity_density_formula(self):
        assert activity_density(30, 1.1) == pytest.approx(1.1 * math.log(30) / 30)
        assert activity_density(30, 1.1) == pytest.approx(0.1247, abs=5e-4)

    def test_truth_marks_foreground_community(self):
        net = generate_sbm(small_sbm(), seed=3)
        assert net.truth.sum() == 20
        assert np.array_equal(np.sort(net.foreground_vertices), np.flatnonzero(net.truth))

    def test_shuffle_embeds_randomly(self):
        net = generate_sbm(SbmParams((100, 30), np.full((2, 2), 0.1), foreground=1, shuffle=True), seed=5)
        fg = net.foreground_vertices
        assert net.truth.sum() == 30
        assert fg.min() < 60 and fg.max() >= 100  # not a contiguous tail block

    def test_coordinated_foreground_single_instant(self):
        net = generate_sbm(small_sbm(), temporal="coordinated", seed=7)
        fg_times = {e.t_u for e in net.graph.interactions if net.truth[e.u] and net.truth[e.v]}
        bg_times = {e.t_u for e in net.graph.interactions if not (net.truth[e.u] and net.truth[e.v])}
        assert len(fg_times) == 1
        assert len(bg_times) > 10
        t_star = next(iter(fg_times))
        assert 0.0 <= t_star < net.params.horizon

    def test_uniform_and_untimed_policies(self):
        uni = generate_sbm(small_sbm(), temporal="uniform", seed=7)
        fg_times = {e.t_u for e in uni.graph.interactions if uni.truth[e.u] and uni.truth[e.v]}
        assert len(fg_times) > 3
        raw = generate_sbm(small_sbm(), temporal="none", seed=7)
        assert all(not e.timestamped for e in raw.graph.interactions)

    def test_reproducible_bitwise(self):
        a = generate_sbm(small_sbm(shuffle=True), seed=11)
        b = generate_sbm(small_sbm(shuffle=True), seed=11)
        c = generate_sbm(small_sbm(shuffle=True), seed=12)
        assert a.graph.interactions == b.graph.interactions
        assert np.array_equal(a.truth, b.truth)
        assert a.graph.interactions != c.graph.interactions

    def test_block_densities_chi_square(self):
        # edge-indicator marginals match the block matrix (chi-square over
        # pooled block counts)
        params = small_sbm()
        trials = 300
        counts = np.zeros((2, 2))
        for t in range(trials):
            net = generate_sbm(params, temporal="none", seed=1000 + t)
            labels = net.meta["labels"]
            for e in net.graph.interactions:
                a, b = labels[e.u], labels[e.v]
                counts[min(a, b), max(a, b)] += 1
        pairs = np.array([[190, 400], [0, 190]]) * trials
        s = params.block_probs
        chi2 = 0.0
        dof = 0
        for i in range(2):
            for j in range(i, 2):
                exp = pairs[i, j] * s[i, j]
                var = pairs[i, j] * s[i, j] * (1 - s[i, j])
                chi2 += (counts[i, j] - exp) ** 2 / var
                dof += 1
        assert stats.chi2.sf(chi2, dof) > 1e-4

    def test_foreground_density_tracks_activity(self):
        # empirical foreground density within 3 sigma of the configured
        # threshold multiple over many trials
        r = 1.1
        p_fg = activity_density(30, r)
        params = SbmParams(sizes=(10, 10, 30), block_probs=np.array(
            [[0.1, 0.02, 0.02], [0.02, 0.1, 0.02], [0.02, 0.02, p_fg]]), foreground=2, shuffle=False)
        trials = 1000
        edges = 0
        for t in range(trials):
            net = generate_sbm(params, temporal="none", seed=2000 + t)
            fg = net.truth.astype(bool)
            edges += sum(1 for e in net.graph.interactions if fg[e.u] and fg[e.v])
        total_pairs = trials * 435  # C(30, 2)
        phat = edges / total_pairs
        sigma = math.sqrt(p_fg * (1 - p_fg) / total_pairs)
        assert abs(phat - p_fg) <= 3 * sigma

    def test_params_validation(self):
        with pytest.raises(GraphError):
            SbmParams(sizes=(5,), block_probs=np.array([[1.5]]))
        with pytest.raises(GraphError):
            SbmParams(sizes=(5, 5), block_probs=np.array([[0.1, 0.2], [0.3, 0.1]]))
        with pytest.raises(GraphError):
            SbmParams(sizes=(5, 0), block_probs=np.full((2, 2), 0.1))
        with pytest.raises(GraphError):
            SbmParams(sizes=(5, 5), block_probs=np.full((2, 2), 0.1), foreground=9)
        with pytest.raises(GraphError):
            generate_sbm(small_sbm(), temporal="sometimes", seed=0)


class TestPareto:
    def test_tail_exponent_recovered(self):
        # ML fit on raw draws recovers the density exponent
        rng = rng_for("pareto")
        alpha = 2.5
        x = pareto_draw(rng, alpha, 1.0, 200_000)
        assert x.min() >= 1.0
        x_min = 3.0
        tail = x[x >= x_min]
        alpha_hat = 1.0 + tail.size / np.log(tail / x_min).sum()
        assert alpha_hat == pytest.approx(alpha, abs=0.05)


def chung_lu_params(n=60):
    """One community, all-ones strength and full support."""
    return HmmbParams(
        n=n, communities=1, lifestyles=1,
        phi=np.array([1.0]),
        concentration=np.array([[5.0]]),
        block_support=np.array([[1.0]]),
        block_strength=np.array([[1.0]]),
        gamma=np.array([10.0]),
        alpha=3.0,
    )


def reference_hmmb(params, seed):
    """The hybrid blockmodel drawn with roles and rates on every vertex pair:
    ``(u, v, t_u, t_v, truth, membership, expected degrees, event pools)``."""
    struct, clock = _streams(seed)
    n, k = params.n, params.communities
    lifestyle = struct.choice(params.lifestyles, size=n, p=params.phi)
    gam = struct.standard_gamma(params.concentration[lifestyle])
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

    pools = []
    for c in range(k):
        m = int(clock.poisson(params.gamma[c]))
        while m == 0:
            m = int(clock.poisson(params.gamma[c]))
        pools.append(clock.uniform(0.0, params.horizon, size=m))

    sizes = np.array([pool.size for pool in pools])
    flat, offsets = np.concatenate(pools), np.cumsum(sizes) - sizes

    def stamp(roles):
        return flat[offsets[roles] + np.floor(clock.random(roles.size) * sizes[roles]).astype(np.int64)]

    t_u = stamp(np.repeat(role_ij[keep], rep))
    t_v = stamp(np.repeat(role_ji[keep], rep))
    truth = np.isin(lifestyle, params.foreground_lifestyles).astype(np.int8)
    return (np.repeat(iu[keep], rep), np.repeat(ju[keep], rep), t_u, t_v, truth, membership, lam, *pools)


def full_support_params():
    """The reference configuration with every pair supported."""
    d = default_hmmb_params()
    return HmmbParams(n=d.n, communities=d.communities, lifestyles=d.lifestyles, phi=d.phi,
                      concentration=d.concentration, block_support=np.ones_like(d.block_support),
                      block_strength=d.block_strength, gamma=d.gamma, foreground_lifestyles=(9, 10))


class TestHmmb:
    @pytest.mark.parametrize("params", [
        default_hmmb_params(gamma_fg=1.0), default_hmmb_params(gamma_fg=24.0),
        dataclasses.replace(default_hmmb_params(), n=64),
        chung_lu_params(), full_support_params(),
    ], ids=["gamma1", "gamma24", "n64", "chung-lu", "full-support"])
    def test_matches_all_pairs_draw(self, params):
        # Roles and rates drawn on supported pairs only give the same network,
        # bit for bit, as the draw on every pair.
        for seed in range(20):
            net = generate_hmmb(params, seed=seed)
            g, meta = net.graph, net.meta
            got = (g.u, g.v, g.t_u, g.t_v, net.truth, meta["membership"], meta["expected_degrees"],
                   *meta["event_pools"])
            want = reference_hmmb(params, seed)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), seed

    def test_poisson_skips_zero_rates(self):
        # A zero rate draws 0 and consumes nothing, so dropping those rates
        # leaves every other draw, and the stream after them, unchanged.
        rate = np.array([0.0, 3.0, 0.0, 0.0, 12.0, 0.5, 0.0, 40.0, 0.0])
        for seed in range(20):
            full, part = rng_for("poisson", seed), rng_for("poisson", seed)
            drawn = full.poisson(rate)
            assert np.array_equal(drawn[rate > 0], part.poisson(rate[rate > 0]))
            assert not drawn[rate == 0].any()
            assert full.random() == part.random()

    def test_chung_lu_reduction(self):
        # single community, all-ones strength, full support: rates reduce to
        # deg_i * deg_j / sum(deg); check total interactions against a
        # Poisson bound on the exact total rate
        n = 60
        params = chung_lu_params(n)
        totals = []
        expected = []
        for seed in range(30):
            net = generate_hmmb(params, seed=seed)
            lam = net.meta["expected_degrees"]
            iu, ju = np.triu_indices(n, 1)
            expected.append((lam[iu] * lam[ju]).sum() / lam.sum())
            totals.append(net.graph.size)
        total, exp_total = sum(totals), sum(expected)
        assert abs(total - exp_total) <= 4 * math.sqrt(exp_total)

    def test_membership_profiles_on_simplex(self):
        net = generate_hmmb(default_hmmb_params(), seed=3)
        pi = net.meta["membership"]
        assert np.allclose(pi.sum(axis=1), 1.0)
        assert pi.min() >= 0.0

    def test_truth_follows_designated_lifestyles(self):
        params = default_hmmb_params()
        net = generate_hmmb(params, seed=4)
        expect = np.isin(net.meta["lifestyles"], params.foreground_lifestyles)
        assert np.array_equal(net.truth.astype(bool), expect)

    def test_interaction_records_have_two_timestamps(self):
        net = generate_hmmb(default_hmmb_params(), seed=5)
        assert net.graph.size > 0
        assert all(e.t_u is not None and e.t_v is not None for e in net.graph.interactions)
        horizon = net.params.horizon
        assert all(0.0 <= e.t_u < horizon and 0.0 <= e.t_v < horizon for e in net.graph.interactions)

    def test_event_pool_sizes_track_gamma(self):
        p1 = default_hmmb_params(gamma_fg=1.0)
        p24 = default_hmmb_params(gamma_fg=24.0)
        sizes1, sizes24 = [], []
        for seed in range(20):
            sizes1.append(len(generate_hmmb(p1, seed=seed).meta["event_pools"][9]))
            sizes24.append(len(generate_hmmb(p24, seed=seed).meta["event_pools"][9]))
        assert np.mean(sizes1) < 3.0
        assert abs(np.mean(sizes24) - 24.0) < 5.0
        assert min(sizes1) >= 1  # zero draws are redrawn

    def test_single_event_pool_means_perfect_coordination(self):
        params = default_hmmb_params(gamma_fg=0.05)  # pool size is almost surely 1
        for seed in range(5):
            net = generate_hmmb(params, seed=seed)
            pool = net.meta["event_pools"][9]
            if len(pool) != 1:
                continue
            stamps = {t for t in _community_stamps(net, 9)}
            assert len(stamps) <= 1

    def test_structure_identical_across_coordination(self):
        nets = [generate_hmmb(default_hmmb_params(gamma_fg=g), seed=9) for g in (1.0, 24.0)]
        struct = [[(e.u, e.v, e.weight) for e in n.graph.interactions] for n in nets]
        assert struct[0] == struct[1]
        assert np.array_equal(nets[0].truth, nets[1].truth)
        times = [[(e.t_u, e.t_v) for e in n.graph.interactions] for n in nets]
        assert times[0] != times[1]

    def test_reproducible_bitwise(self):
        params = default_hmmb_params()
        a = generate_hmmb(params, seed=21)
        b = generate_hmmb(params, seed=21)
        assert a.graph.interactions == b.graph.interactions
        assert np.array_equal(a.truth, b.truth)

    def test_degree_exchangeability_within_lifestyle(self):
        # two vertices conditioned on the same lifestyle draw their degrees
        # from the same distribution
        params = dataclasses.replace(default_hmmb_params(), n=64)
        lo, hi = [], []
        for seed in range(150):
            net = generate_hmmb(params, seed=3000 + seed)
            ls = net.meta["lifestyles"]
            deg = net.graph.degrees
            members = np.flatnonzero(ls == 0)
            if members.size >= 2:
                lo.append(deg[members[0]])
                hi.append(deg[members[-1]])
        assert stats.ks_2samp(lo, hi).pvalue > 1e-3

    def test_params_validation(self):
        good = default_hmmb_params()
        with pytest.raises(GraphError, match="simplex"):
            HmmbParams(n=10, communities=good.communities, lifestyles=good.lifestyles,
                       phi=good.phi * 2, concentration=good.concentration,
                       block_support=good.block_support, block_strength=good.block_strength,
                       gamma=good.gamma)
        with pytest.raises(GraphError, match="Dirichlet"):
            HmmbParams(n=10, communities=good.communities, lifestyles=good.lifestyles,
                       phi=good.phi, concentration=good.concentration * 0.0,
                       block_support=good.block_support, block_strength=good.block_strength,
                       gamma=good.gamma)
        with pytest.raises(GraphError, match="positive"):
            HmmbParams(n=10, communities=good.communities, lifestyles=good.lifestyles,
                       phi=good.phi, concentration=good.concentration,
                       block_support=good.block_support, block_strength=good.block_strength,
                       gamma=good.gamma * 0.0)
        with pytest.raises(GraphError, match="exponent"):
            dataclasses.replace(default_hmmb_params(), alpha=0.5)


def _community_stamps(net, community):
    # stamps drawn for endpoints whose pair role points at the community are
    # not recorded per role; approximate via the known single-event pool
    pool = set(net.meta["event_pools"][community])
    for e in net.graph.interactions:
        if e.t_u in pool:
            yield e.t_u
        if e.t_v in pool:
            yield e.t_v

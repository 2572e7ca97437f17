import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import threatprop.experiment as experiment
from threatprop.errors import ConvergenceError, ExperimentError, GraphError
from threatprop.experiment import (
    ExperimentConfig,
    choose_cue,
    hmmb_detection_config,
    run_experiment,
    run_trial,
    sbm_detection_config,
    _cue_rng,
    _trial_seed,
)
from threatprop.generators import SbmParams, generate_sbm
from threatprop.graph import ObservationSet
from threatprop.spacetime import TimeGrid, assemble_spacetime, solve_spacetime
from threatprop.spatial import solve_harmonic


def tiny_sbm_config(**kw):
    cfg = sbm_detection_config(activity=2.0, trials=4, seed=17)
    return replace(cfg, **kw) if kw else cfg


def isolated_foreground_config(**kw):
    """Every trial aborts in choose_cue: the foreground block has no edges."""
    s = np.array([[0.3, 0.05, 0.0], [0.05, 0.3, 0.0], [0.0, 0.0, 0.0]])
    params = SbmParams(sizes=(10, 10, 4), block_probs=s, foreground=2)
    return ExperimentConfig(kind="sbm", params=params, trials=3, seed=5, **kw)


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter.  Forked workers run the library as
    it was when the pool started, so a patch made in this process would not
    reach a pool that is already running."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=180)


class TestCuePolicy:
    def test_cue_is_true_foreground_with_interaction_time(self):
        cfg = tiny_sbm_config()
        for trial in range(3):
            net = generate_sbm(cfg.params, seed=_trial_seed(cfg.seed, trial))
            cue, cue_time = choose_cue(net, _cue_rng(cfg.seed, trial))
            assert net.truth[cue] == 1
            own_times = {
                (e.t_u if e.u == cue else e.t_v)
                for e in net.graph.interactions
                if cue in (e.u, e.v) and e.timestamped
            }
            assert cue_time in own_times

    def test_cue_prefers_foreground_interactions(self):
        cfg = tiny_sbm_config()
        net = generate_sbm(cfg.params, seed=_trial_seed(cfg.seed, 0))
        cue, cue_time = choose_cue(net, _cue_rng(cfg.seed, 0))
        fg_times = {
            (e.t_u if e.u == cue else e.t_v)
            for e in net.graph.interactions
            if cue in (e.u, e.v) and net.truth[e.u] and net.truth[e.v]
        }
        if fg_times:
            assert cue_time in fg_times

    def test_no_foreground_raises(self):
        cfg = tiny_sbm_config()
        net = generate_sbm(cfg.params, seed=1)
        bare = type(net)(graph=net.graph, truth=np.zeros(net.graph.n, np.int8), params=net.params)
        with pytest.raises(ExperimentError, match="foreground"):
            choose_cue(bare, _cue_rng(0, 0))


class TestRunExperiment:
    def test_smoke_and_summary(self):
        res = run_experiment(tiny_sbm_config())
        assert set(res.curves) == {"sttp", "bfs", "spec"}
        assert not res.aborted
        s = res.summary()
        assert s["trials"] == 4
        for det in ("sttp", "bfs", "spec"):
            assert 0.0 <= s["detectors"][det]["auc"] <= 1.0

    def test_deterministic_rerun(self):
        a = run_experiment(tiny_sbm_config())
        b = run_experiment(tiny_sbm_config())
        for det in a.curves:
            assert np.array_equal(a.curves[det].pfa, b.curves[det].pfa)
            assert np.array_equal(a.curves[det].pd, b.curves[det].pd)
            assert a.curves[det].auc == b.curves[det].auc

    def test_thread_count_does_not_change_results(self):
        one = run_experiment(tiny_sbm_config(threads=1))
        four = run_experiment(tiny_sbm_config(threads=4))
        for det in one.curves:
            assert np.array_equal(one.curves[det].pd, four.curves[det].pd)
            assert np.array_equal(one.curves[det].thresholds, four.curves[det].thresholds)

    def test_pool_gets_no_more_workers_than_trials(self):
        # A fork-started pool starts every worker on the first submit.
        cfg = tiny_sbm_config(threads=3, trials=2, detectors=("spec",))
        assert run_experiment(cfg).curves["spec"].auc == run_experiment(replace(cfg, threads=1)).curves["spec"].auc
        assert experiment._pool_workers == 2

    def test_hmmb_smoke(self):
        cfg = hmmb_detection_config(gamma_fg=1.0, trials=3, seed=23)
        res = run_experiment(cfg)
        assert not res.aborted
        assert res.curves["sttp"].n_fg > 0

    def test_abort_budget_enforced(self, monkeypatch):
        def broken(net, cue, cue_time, cfg):
            raise ConvergenceError("synthetic detector failure")

        monkeypatch.setattr(experiment, "sttp_detector_scores", broken)
        with pytest.raises(ExperimentError, match="aborted"):
            run_experiment(tiny_sbm_config())

    def test_aborts_within_budget_are_recorded(self, monkeypatch):
        calls = {"n": 0}
        real = experiment.sttp_detector_scores

        def flaky(net, cue, cue_time, cfg):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConvergenceError("synthetic one-off failure")
            return real(net, cue, cue_time, cfg)

        monkeypatch.setattr(experiment, "sttp_detector_scores", flaky)
        monkeypatch.setattr(experiment, "MAX_ABORT_FRACTION", 0.5)
        res = run_experiment(tiny_sbm_config())
        assert len(res.aborted) == 1
        assert "synthetic" in res.aborted[0][1]

    def test_run_trial_reports_abort_reason(self, monkeypatch):
        monkeypatch.setattr(experiment, "bfs_detector_scores",
                            lambda *a, **k: (_ for _ in ()).throw(GraphError("boom")))
        out = run_trial(tiny_sbm_config(), 0)
        assert isinstance(out, str) and "boom" in out

    def test_programming_error_is_not_an_abort(self, monkeypatch):
        def buggy(net, cue, cue_time, cfg):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(experiment, "sttp_detector_scores", buggy)
        monkeypatch.setattr(experiment, "MAX_ABORT_FRACTION", 1.0)
        with pytest.raises(TypeError, match="synthetic"):
            run_experiment(tiny_sbm_config())

    @pytest.mark.parametrize("threads", [1, 2])
    def test_abort_warnings_logged_in_trial_order(self, caplog, monkeypatch, threads):
        monkeypatch.setattr(experiment, "MAX_ABORT_FRACTION", 1.0)
        with caplog.at_level("WARNING", logger="threatprop.experiment"), \
                pytest.raises(ExperimentError):
            run_experiment(isolated_foreground_config(threads=threads))
        lines = [r.getMessage() for r in caplog.records if r.name == "threatprop.experiment"]
        assert lines == [f"trial {t} aborted: ExperimentError: all foreground vertices are isolated"
                         for t in range(3)]

    def test_every_trial_aborting_is_an_experiment_error(self, monkeypatch):
        # A fraction of 1.0 tolerates every abort, but there is nothing to pool.
        monkeypatch.setattr(experiment, "MAX_ABORT_FRACTION", 1.0)
        with pytest.raises(ExperimentError, match="3/3 trials aborted; first: trial 0"):
            run_experiment(isolated_foreground_config())

    @pytest.mark.parametrize("preset", [sbm_detection_config, hmmb_detection_config])
    def test_time_bins_over_the_order_limit_refused(self, preset):
        with pytest.raises(GraphError, match="time_bins 100000000 over"):
            replace(preset(), time_bins=100_000_000)

    def test_config_validation(self):
        with pytest.raises(GraphError):
            ExperimentConfig(kind="nonsense", params=None)
        with pytest.raises(GraphError):
            ExperimentConfig(kind="sbm", params=None, detectors=("sttp", "magic"))
        with pytest.raises(GraphError):
            ExperimentConfig(kind="sbm", params=None, trials=0)
        with pytest.raises(GraphError):
            ExperimentConfig(kind="sbm", params=None, aggregate="hexagonal")
        # A trial passes no spatial prior, so this variant would abort every trial.
        with pytest.raises(GraphError, match="unknown variant 'coordinated-spatial'; expected one of weighted, "
                                             "coordinated$"):
            ExperimentConfig(kind="sbm", params=None, variant="coordinated-spatial")

    @pytest.mark.parametrize("detectors", [(), ("bfs", "bfs")], ids=["none", "repeated"])
    def test_detectors_each_named_once(self, detectors):
        with pytest.raises(GraphError, match="each detector to run once"):
            replace(tiny_sbm_config(), detectors=detectors)

    @pytest.mark.parametrize("make, wanted, got", [
        (lambda: replace(sbm_detection_config(trials=1), kind="hmmb"), "HmmbParams", "SbmParams"),
        (lambda: ExperimentConfig(kind="sbm", params=None), "SbmParams", "NoneType"),
    ], ids=["other-kind", "none"])
    def test_params_of_the_kinds_class(self, make, wanted, got):
        with pytest.raises(GraphError, match=f"experiment needs {wanted}, got {got}"):
            make()

    def test_vertical_aggregation_mode(self):
        cfg = replace(tiny_sbm_config(), aggregate="vertical", detectors=("bfs",))
        res = run_experiment(cfg)
        curve = res.curves["bfs"]
        assert curve.pfa[0] == 0.0 and curve.pfa[-1] == 1.0
        assert 0.0 <= curve.auc <= 1.0
        assert curve.trials == 4


class TestWorkerProcesses:
    def test_programming_error_in_a_worker_reaches_the_caller(self):
        proc = run_fresh("""
            from dataclasses import replace

            import threatprop.experiment as ex

            def buggy(g):
                raise TypeError("synthetic programming error")

            ex.localized_modularity_scores = buggy
            cfg = replace(ex.sbm_detection_config(trials=4, seed=17, threads=2), detectors=("spec",))
            try:
                ex.run_experiment(cfg)
            except TypeError as exc:
                print("TypeError:", exc)
        """)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        assert proc.stdout.strip() == "TypeError: synthetic programming error"

    def test_killed_worker_breaks_the_pool_and_the_next_call_gets_a_new_one(self):
        proc = run_fresh("""
            import os
            import signal
            from concurrent.futures.process import BrokenProcessPool
            from dataclasses import replace

            import threatprop.experiment as ex

            real = ex.localized_modularity_scores
            kill = True

            def dying(g):
                if kill:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(g)

            ex.localized_modularity_scores = dying
            cfg = replace(ex.sbm_detection_config(trials=4, seed=17, threads=2), detectors=("spec",))
            try:
                ex.run_experiment(cfg)
            except BrokenProcessPool:
                print("broken")
            kill = False  # the next pool forks from here, so its workers see this
            pooled = ex.run_experiment(cfg).curves["spec"]
            serial = ex.run_experiment(replace(cfg, threads=1)).curves["spec"]
            same = pooled.auc == serial.auc and (pooled.pd == serial.pd).all()
            print("same" if same else "differ")
        """)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        assert proc.stdout.split() == ["broken", "same"]


class TestBenchmarkConfigs:
    def test_blockmodel_shape(self):
        p = sbm_detection_config(activity=2.0).params
        assert p.n == 256
        assert p.sizes == (113, 113, 30)
        assert p.foreground == 2
        s = p.block_probs
        assert s[0, 0] == s[1, 1] == 0.08
        assert s[0, 1] == s[0, 2] == 0.02
        assert s[2, 2] == pytest.approx(0.2)

    def test_hybrid_shape(self):
        import math

        cfg = hmmb_detection_config(gamma_fg=10.0)
        p = cfg.params
        assert p.communities == 10 and p.lifestyles == 11
        assert p.foreground_lifestyles == (9, 10)
        assert p.block_support[9, 9] == pytest.approx(math.log(30) / 30)
        assert p.gamma[9] == 10.0
        assert np.all(p.gamma[:9] == p.gamma[0])
        assert p.phi.sum() == pytest.approx(1.0)


def test_default_paths_never_factorize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sparse factorization on a default path")

    monkeypatch.setattr(spla, "splu", refuse)
    net = generate_sbm(sbm_detection_config(2.0).params, seed=3)
    cue = int(net.foreground_vertices[0])
    with pytest.raises(AssertionError, match="factorization"):
        solve_harmonic(net.graph, np.full(net.graph.n, 0.9), ObservationSet.of((cue, 1.0)),
                       method="direct", on_unreachable="zero")

    scores = run_trial(sbm_detection_config(2.0), 0)
    assert set(scores) == {"_truth", "sttp", "bfs", "spec"}
    sys_ = assemble_spacetime(net.graph, TimeGrid(0.0, 1.0, 24), rates=0.7)
    theta = solve_spacetime(sys_, ObservationSet.of((cue, 1.0)), on_isolated="zero")
    assert theta.shape == (net.graph.n, 24) and theta.max() == 1.0

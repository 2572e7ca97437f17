"""The benchmark's workloads, each a closed loop with one client.

``sbm-a2`` and ``hmmb-g1`` call ``run_experiment`` in batches; each batch
is one operation and starts when the previous one has returned.
``cli-mixed`` runs ``threatprop propagate spacetime`` as a subprocess, one
invocation at a time.  Every input is derived from the benchmark seed; the
program only ever sees the generated configs and files.

The traced replays below repeat the program's call sequence from its public
functions with a span around each call.  They are checked bitwise against
the program on every traced operation, so a change to ``run_trial`` or to
the command that the replay does not follow fails the traced run instead of
measuring another program.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from threatprop import __version__
from threatprop.errors import ExperimentError, ThreatPropagationError
from threatprop.evaluation import roc
from threatprop.experiment import (
    _cue_rng,
    _trial_seed,
    bfs_detector_scores,
    choose_cue,
    hmmb_detection_config,
    run_experiment,
    run_trial,
    sbm_detection_config,
)
from threatprop.generators import generate_hmmb, generate_sbm
from threatprop.graph import ObservationSet, build_graph
from threatprop.io import (
    read_edges,
    read_observations,
    write_edges,
    write_meta,
    write_scores,
    write_spacetime_scores,
)
from threatprop.spacetime import (
    TimeGrid,
    assemble_spacetime,
    reduce_to_vertex_scores,
    solve_spacetime,
)
from threatprop.spectral import localized_modularity_scores

from tracer import NullRecorder, Recorder

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0


@dataclass
class Sample:
    """One untraced operation: ``trials`` attempted, ``failed`` of them."""

    trials: int
    failed: int
    wall: float
    auc: float | None = None
    rss_mb: float | None = None
    problems: list[str] = field(default_factory=list)


@dataclass
class TracedSample:
    """One operation run once untraced and once traced by the replay."""

    trials: int
    failed: int
    untraced_wall: float
    traced_wall: float
    recorders: list[Recorder]
    problems: list[str] = field(default_factory=list)


def op_seed(seed: int, op: int) -> int:
    """Seed of operation ``op`` in a run with benchmark seed ``seed``."""
    return seed * 1000 + op


def _same_bits(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes() for k in a
    )


def _same_curve(a, b) -> bool:
    return a.auc == b.auc and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in ("thresholds", "pfa", "pd", "se_pd")
    )


# ---------------------------------------------------------------- detection


@dataclass(frozen=True)
class Detection:
    """``run_experiment`` on one of the paper's two benchmark generators."""

    name: str
    kind: str  # "sbm" | "hmmb"
    threads: int
    batch: int  # trials per run_experiment call
    auc_ops: int  # auc_sttp is the mean over this many first batches

    @property
    def min_ops(self) -> int:
        return self.auc_ops

    def config(self, seed: int, trials: int | None = None):
        trials = trials or self.batch
        if self.kind == "sbm":
            return sbm_detection_config(activity=2.0, trials=trials, seed=seed, threads=self.threads)
        return hmmb_detection_config(gamma_fg=1.0, trials=trials, seed=seed, threads=self.threads)

    def prepare(self, seed: int, workdir: Path, traced: bool = False):
        """Nothing to build: a batch's config is made when it runs."""
        return None, []

    def op(self, state, seed: int, i: int, workdir: Path) -> Sample:
        cfg = self.config(op_seed(seed, i))
        t0 = time.perf_counter()
        try:
            res = run_experiment(cfg)
        except ExperimentError as exc:
            return Sample(cfg.trials, cfg.trials, time.perf_counter() - t0, problems=[f"op {i}: {exc}"])
        wall = time.perf_counter() - t0
        sample = Sample(cfg.trials, len(res.aborted), wall, auc=res.curves["sttp"].auc)
        sample.problems += [f"op {i} trial {t}: {why}" for t, why in res.aborted]
        bad = [d for d, c in res.curves.items() if not 0.0 <= c.auc <= 1.0]
        if bad:
            sample.failed = cfg.trials
            sample.problems.append(f"op {i}: AUC outside [0, 1] for {bad}")
        return sample

    def _map(self, fn, trials: int) -> list:
        # Same scheduling as run_experiment: one pool per batch.
        if self.threads > 1:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                return list(pool.map(fn, range(trials)))
        return [fn(t) for t in range(trials)]

    def traced_op(self, state, seed: int, i: int, workdir: Path) -> TracedSample:
        cfg = self.config(op_seed(seed, i))
        recs = [Recorder(f"{i}.{t}") for t in range(cfg.trials)]
        pool_rec = Recorder(f"{i}.pool")

        def untraced():
            outs = self._map(lambda t: run_trial(cfg, t), cfg.trials)
            return outs, _pool_curves(cfg, outs, NullRecorder())

        def traced():
            outs = self._map(lambda t: replay_trial(cfg, t, recs[t]), cfg.trials)
            return outs, _pool_curves(cfg, outs, pool_rec)

        # Alternate which side runs first so neither always runs warm.
        walls = {}
        results = {}
        for side in ((untraced, traced) if i % 2 == 0 else (traced, untraced)):
            t0 = time.perf_counter()
            results[side.__name__] = side()
            walls[side.__name__] = time.perf_counter() - t0

        (prog_outs, _), (replay_outs, replay_curves) = results["untraced"], results["traced"]
        sample = TracedSample(cfg.trials, 0, walls["untraced"], walls["traced"], recs + [pool_rec])
        for t, (a, b) in enumerate(zip(prog_outs, replay_outs)):
            if isinstance(a, str):
                sample.problems.append(f"op {i} trial {t} aborted: {a}")
            if not _same_bits(a, b):
                sample.problems.append(f"op {i} trial {t}: replay scores differ from run_trial")
        if i == 0:
            # The replay pools like run_experiment; check that once per run.
            try:
                prog_curves = run_experiment(cfg).curves
            except ExperimentError as exc:
                prog_curves = {}
                sample.problems.append(f"op {i}: {exc}")
            if prog_curves.keys() != replay_curves.keys() or not all(
                _same_curve(prog_curves[d], replay_curves[d]) for d in prog_curves
            ):
                sample.problems.append(f"op {i}: replay curves differ from run_experiment")
        if sample.problems:
            sample.failed = cfg.trials
        return sample

    def reference(self, ref_seed: int, workdir: Path) -> dict:
        cfg = self.config(ref_seed, trials=self.batch)
        res = run_experiment(cfg)
        return {
            "seed": ref_seed,
            "trials": cfg.trials,
            "aborted": len(res.aborted),
            "auc": {d: c.auc for d, c in res.curves.items()},
        }

    def check_reference(self, ref: dict, tol: dict, workdir: Path) -> tuple[int, list[str]]:
        try:
            got = self.reference(ref["seed"], workdir)
        except ExperimentError as exc:
            return ref["trials"], [f"reference: {exc}"]
        problems = []
        if got["aborted"] != ref["aborted"]:
            problems.append(f"reference: {got['aborted']} aborted, recorded {ref['aborted']}")
        for det, want in ref["auc"].items():
            have = got["auc"].get(det, float("nan"))
            if not abs(have - want) <= tol["auc"]:
                problems.append(f"reference: {det} AUC {have!r}, recorded {want!r} (tolerance {tol['auc']})")
        return ref["trials"], problems


def replay_trial(cfg, trial: int, rec: Recorder):
    """``run_trial`` repeated from public calls, one span per layer."""
    with rec.span("experiment.trial"):
        seed = _trial_seed(cfg.seed, trial)
        try:
            with rec.span("generators.generate"):
                gen = generate_sbm if cfg.kind == "sbm" else generate_hmmb
                net = gen(cfg.params, seed=seed)
            rec.count("generators.interactions", net.graph.size)
            with rec.span("experiment.choose_cue"):
                cue, cue_time = choose_cue(net, _cue_rng(cfg.seed, trial))
            scores = {"_truth": net.truth.astype(np.int8)}
            for det in cfg.detectors:
                if det == "sttp":
                    scores[det] = _replay_sttp(net, cue, cue_time, cfg, rec)
                elif det == "bfs":
                    with rec.span("spatial.bfs_detector"):
                        scores[det] = bfs_detector_scores(net.graph, cue, cfg.cue_value, cfg.tol, cfg.solve_method)
                else:
                    with rec.span("spectral.localized"):
                        scores[det] = localized_modularity_scores(net.graph)
            return scores
        except ThreatPropagationError as exc:
            return f"{type(exc).__name__}: {exc}"


def _replay_sttp(net, cue, cue_time, cfg, rec: Recorder) -> np.ndarray:
    grid = TimeGrid(t0=0.0, dt=net.params.horizon / cfg.time_bins, nt=cfg.time_bins)
    with rec.span("spacetime.assemble"):
        sys_ = assemble_spacetime(net.graph, grid, cfg.rate, mode_default="clique")
    rec.count("spacetime.order", sys_.order)
    rec.count("spacetime.nnz", sys_.adjacency.nnz)
    obs = ObservationSet.of((cue, cfg.cue_value, cue_time) if cue_time is not None else (cue, cfg.cue_value))
    # This span covers the coordination prior and the boundary-value core.
    with rec.span("spacetime.solve"):
        theta = solve_spacetime(
            sys_, obs, variant=cfg.variant, tol=cfg.tol, method=cfg.solve_method, on_isolated="zero"
        )
    with rec.span("spacetime.reduce"):
        return reduce_to_vertex_scores(theta, cfg.reducer)


def _pool_curves(cfg, outcomes, rec) -> dict:
    """Pooled per-detector ROC curves, as ``run_experiment`` builds them."""
    done = [out for out in outcomes if not isinstance(out, str)]
    if not done:
        return {}
    with rec.span("evaluation.roc"):
        truth = np.concatenate([out["_truth"] for out in done])
        return {
            det: roc(np.concatenate([out[det] for out in done]), truth, trials=len(done))
            for det in cfg.detectors
        }


# ---------------------------------------------------------------- cli-mixed


@dataclass(frozen=True)
class CliInput:
    directory: Path
    truth: dict[str, int]  # vertex label -> 0/1
    cue: str


@dataclass(frozen=True)
class CliMixed:
    """``threatprop propagate spacetime`` on blockmodel draws in which a
    share of the background edges carry no timestamps."""

    name: str
    inputs: int  # distinct draws per run, cycled through
    untimed_share: float
    bins: int = 24
    lam: float = 0.7
    # The CLI default "coordinated" is not one of its own --variant choices
    # and exits 1, so the variant is passed explicitly.
    variant: str = "coord"
    reducer: str = "max"

    @property
    def min_ops(self) -> int:
        return self.inputs

    def args(self, inp: CliInput, out: Path) -> list[str]:
        return [
            "propagate", "spacetime",
            "--graph", str(inp.directory / "edges.csv"), "--obs", str(inp.directory / "obs.csv"),
            "--bins", str(self.bins), "--lambda", repr(self.lam),
            "--variant", self.variant, "--reduce", self.reducer, "--out", str(out),
        ]

    def build_input(self, seed: int, directory: Path, rec) -> CliInput:
        """Blockmodel draw at activity 2.0 in which ``untimed_share`` of the
        background edges lose their timestamps, so the command assembles
        clique blocks for them.  The share is exact rather than drawn per
        edge: clique blocks hold most of the system's nonzeros, and a
        binomial count would add its own spread to the solve time."""
        with rec.span("generators.generate"):
            net = generate_sbm(sbm_detection_config(activity=2.0).params, seed=seed)
        rec.count("generators.interactions", net.graph.size)
        rng = np.random.default_rng(seed)
        with rec.span("experiment.choose_cue"):
            cue, cue_time = choose_cue(net, rng)
        truth = net.truth
        edges = net.graph.interactions
        background = [k for k, e in enumerate(edges) if not (truth[e.u] and truth[e.v])]
        untimed = set(rng.choice(background, size=round(self.untimed_share * len(background)), replace=False).tolist())
        rows = [(e.u, e.v, e.weight) if k in untimed else (e.u, e.v, e.weight, e.t_u, e.t_v)
                for k, e in enumerate(edges)]
        labels = [f"v{i}" for i in range(net.graph.n)]
        directory.mkdir(parents=True, exist_ok=True)
        with rec.span("io.write_edges"):
            write_edges(directory / "edges.csv", build_graph(rows, n=net.graph.n, labels=labels))
        (directory / "obs.csv").write_text(f"vertex,t,p\n{labels[cue]},{cue_time!r},1.0\n")
        return CliInput(directory, {label: int(t) for label, t in zip(labels, truth)}, labels[cue])

    def prepare(self, seed: int, workdir: Path, traced: bool = False):
        """Build the run's input files; returns them and the setup spans."""
        recs = [Recorder(f"setup.{k}") if traced else NullRecorder() for k in range(self.inputs)]
        inputs = [self.build_input(op_seed(seed, k), workdir / f"input{k}", recs[k]) for k in range(self.inputs)]
        return inputs, recs if traced else []

    def invoke(self, inp: CliInput, out: Path) -> tuple[float, int, float, str]:
        """Run the command once; returns wall s, exit code, peak RSS MB and
        the tail of its stderr."""
        out.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, "-m", "threatprop.cli", *self.args(inp, out)]
        err_path = out.with_suffix(".stderr")
        with open(err_path, "wb") as err, open(os.devnull, "wb") as null:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=null, stderr=err, env=child_env())
            # wait4 gives the child's own peak RSS; poll it so a hung child
            # can still be killed.
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, err_path.read_text()[-500:]

    def check_output(self, inp: CliInput, out: Path, rec=NullRecorder()) -> tuple[float | None, list[str]]:
        """Validate the written scores; returns the detection AUC."""
        problems = []
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        theta = np.array([float(r[2]) for r in rows[1:]])
        labels = {r[0] for r in rows[1:]}
        if rows[0] != ["vertex", "t", "theta"] or theta.size != len(labels) * self.bins:
            problems.append(f"{out.name}: expected {self.bins} bins per vertex")
        if not (np.all(theta >= 0.0) and np.all(theta <= 1.0)):
            problems.append(f"{out.name}: theta outside [0, 1]")
        with open(out.with_suffix(".vertex.csv"), newline="") as fh:
            scores = {r[0]: float(r[1]) for r in list(csv.reader(fh))[1:]}
        if scores.get(inp.cue) != 1.0:
            problems.append(f"{out.name}: cued vertex {inp.cue} scores {scores.get(inp.cue)}, not 1.0")
        if problems:
            return None, problems
        # Vertices without any edge never reach the file; their threat is 0.
        labels = sorted(inp.truth)
        with rec.span("evaluation.roc"):
            auc = roc([scores.get(v, 0.0) for v in labels], [inp.truth[v] for v in labels]).auc
        return auc, problems

    def op(self, state, seed: int, i: int, workdir: Path) -> Sample:
        inp = state[i % self.inputs]
        out = workdir / f"op{i}" / "st.csv"
        wall, rc, rss, err = self.invoke(inp, out)
        if rc != 0:
            return Sample(1, 1, wall, rss_mb=rss, problems=[f"op {i}: exit {rc}: {err}"])
        auc, problems = self.check_output(inp, out)
        return Sample(1, 1 if problems else 0, wall, auc=auc, rss_mb=rss, problems=problems)

    def replay(self, inp: CliInput, out: Path, rec) -> None:
        """The command's call sequence, in process."""
        out.parent.mkdir(parents=True, exist_ok=True)
        with rec.span("cli.propagate"):
            # read_edges includes graph.build_graph.
            with rec.span("io.read_edges"):
                g = read_edges(inp.directory / "edges.csv")
            rec.count("io.edge_rows", g.size)
            with rec.span("io.read_observations"):
                obs = read_observations(inp.directory / "obs.csv", g)
            with rec.span("cli.grid"):
                times = np.array([t for e in g.interactions if e.timestamped for t in (e.t_u, e.t_v)])
                obs_times = np.array([e.t for e in obs.entries if e.t is not None])
                all_times = np.concatenate([times, obs_times]) if obs_times.size else times
                grid = TimeGrid.cover(all_times, dt=None, lam=self.lam, nt=self.bins)
            with rec.span("spacetime.assemble"):
                sys_ = assemble_spacetime(g, grid, rates=self.lam, mode_default="clique")
            rec.count("spacetime.order", sys_.order)
            rec.count("spacetime.nnz", sys_.adjacency.nnz)
            with rec.span("spacetime.solve"):
                theta = solve_spacetime(sys_, obs, variant="coordinated", spatial_psi=None, tol=1e-10)
            with rec.span("io.write_scores"):
                write_spacetime_scores(out, g, theta, grid)
            with rec.span("spacetime.reduce"):
                scores = reduce_to_vertex_scores(theta, self.reducer)
            with rec.span("io.write_scores"):
                write_scores(out.with_suffix(".vertex.csv"), g, scores, column="score")
                write_meta(str(out) + ".meta.json",
                           {"command": "propagate-spacetime", "graph": str(inp.directory / "edges.csv"),
                            "obs": str(inp.directory / "obs.csv"), "dt": grid.dt, "bins": grid.nt,
                            "t0": grid.t0, "lambda": self.lam, "variant": self.variant,
                            "mode_default": "clique", "tol": 1e-10, "reduce": self.reducer},
                           None, __version__)
        rec.count("io.bytes_written", out.stat().st_size + out.with_suffix(".vertex.csv").stat().st_size)

    def traced_op(self, state, seed: int, i: int, workdir: Path) -> TracedSample:
        inp = state[i % self.inputs]
        sub, plain, traced = (workdir / f"op{i}" / side / "st.csv" for side in ("subprocess", "untraced", "traced"))
        rec = Recorder(str(i))
        wall, rc, _, err = self.invoke(inp, sub)
        if rc != 0:
            return TracedSample(1, 1, wall, wall, [], [f"op {i}: exit {rc}: {err}"])
        walls = {}
        sides = (("untraced", plain, NullRecorder()), ("traced", traced, rec))
        for name, out, r in (sides if i % 2 == 0 else sides[::-1]):
            t0 = time.perf_counter()
            self.replay(inp, out, r)
            walls[name] = time.perf_counter() - t0
        sample = TracedSample(1, 0, walls["untraced"], walls["traced"], [rec])
        if not sub.read_bytes() == plain.read_bytes() == traced.read_bytes():
            sample.problems.append(f"op {i}: in-process st.csv differs from the command's")
        else:
            _, problems = self.check_output(inp, traced, rec)
            sample.problems += problems
        sample.failed = 1 if sample.problems else 0
        return sample

    def reference(self, ref_seed: int, workdir: Path) -> dict:
        inp = self.build_input(op_seed(ref_seed, 0), workdir / "reference", NullRecorder())
        out = workdir / "reference" / "st.csv"
        _, rc, _, err = self.invoke(inp, out)
        if rc != 0:
            raise RuntimeError(f"reference invocation exited {rc}: {err}")
        with open(out, newline="") as fh:
            theta = [float(r[2]) for r in list(csv.reader(fh))[1:]]
        return {"seed": ref_seed, "trials": 1, "theta": theta}

    def check_reference(self, ref: dict, tol: dict, workdir: Path) -> tuple[int, list[str]]:
        try:
            got = self.reference(ref["seed"], workdir)
        except RuntimeError as exc:
            return 1, [str(exc)]
        have, want = np.array(got["theta"]), np.array(ref["theta"])
        if have.shape != want.shape:
            return 1, [f"reference: {have.size} theta values, recorded {want.size}"]
        err = float(np.max(np.abs(have - want)))
        if not err <= tol["theta"]:
            return 1, [f"reference: theta differs by {err:.3e} (tolerance {tol['theta']})"]
        return 1, []


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources first on the path.

    run.py pins the BLAS and OpenMP pools in ``os.environ`` before numpy
    loads, so children inherit one thread per pool.
    """
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))


# Batch sizes keep each operation near 1.5-2 s; the AUC operations always run.
WORKLOADS = {
    w.name: w
    for w in (
        Detection("sbm-a2", "sbm", threads=1, batch=4, auc_ops=4),
        Detection("hmmb-g1", "hmmb", threads=2, batch=8, auc_ops=12),
        CliMixed("cli-mixed", inputs=5, untimed_share=0.25),
    )
}

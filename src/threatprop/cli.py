"""Command-line interface.

Subcommands: generate, propagate, detect, experiment, validate, plot.
Every artifact gets a sibling metadata record (resolved config, config
digest, seed, version) sufficient to reproduce it byte-for-byte.  Exit
codes: 0 success, 1 usage error, 2 numerical failure, 3 validation failure.
"""

from __future__ import annotations

import csv
import json
import logging
import secrets
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np

from . import __version__
from .errors import ConvergenceError, EigenSolverError, ThreatPropagationError, ValidationFailure
from .io import (
    ROC_HEADER,
    read_edges,
    read_observations,
    write_edges,
    write_meta,
    write_roc,
    write_scores,
    write_spacetime_scores,
    write_truth,
)
from .priors import PRIOR_KINDS, PriorSpec, compute_prior
from .spacetime import (MODES, REDUCERS, TimeGrid, assemble_spacetime, default_rate, reduce_to_vertex_scores,
                        solve_spacetime)

if TYPE_CHECKING:
    from .experiment import ExperimentConfig

# Modules that only some commands use are imported inside those commands, so
# that a command's start-up loads only what it runs.

logger = logging.getLogger("threatprop")


@click.group()
@click.option("--log-level", default="warning", show_default=True,
              type=click.Choice(["debug", "info", "warning", "error"]))
def cli(log_level):
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbits(32)
        click.echo(f"derived seed {seed}", err=True)
    return seed


def _load_json(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # unreadable, undecodable or not JSON
        raise click.UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise click.UsageError(f"config {path} must be a JSON object")
    return raw


def _check_keys(keys, allowed, required=()) -> None:
    for what, bad in (("unknown", set(keys) - set(allowed)), ("missing", set(required) - set(keys))):
        if bad:
            raise click.UsageError(f"{what} config key(s): {', '.join(sorted(bad))}")


def _leaves(node: dict, prefix: str = ""):
    """(dotted key, value) for every non-object value of a nested JSON object."""
    for key, val in node.items():
        if isinstance(val, dict):
            yield from _leaves(val, f"{prefix}{key}.")
        else:
            yield prefix + key, val


def _config_option(keymap: dict[str, str]):
    """``--config FILE``: a JSON object whose values become the defaults of
    the flags that ``keymap`` (dotted config key -> parameter name) names.

    A flag given on the command line still wins, and click converts and
    checks each file value with that flag's own type; a key the keymap does
    not name is a usage error and a ``null`` value is skipped.
    """
    def load(ctx, _param, path):
        if path:
            raw = dict(_leaves(_load_json(path)))
            _check_keys(raw, keymap)
            ctx.default_map = {keymap[key]: val for key, val in raw.items() if val is not None}

    return click.option("--config", type=click.Path(exists=True), is_eager=True, expose_value=False,
                        callback=load, help=f"JSON defaults ({', '.join(keymap)}); flags win.")


@cli.group()
def generate():
    """Draw a synthetic covert network."""


def _emit_network(net, out_dir: Path, config: dict, seed: int):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_edges(out_dir / "edges.csv", net.graph)
    write_truth(out_dir / "truth.csv", net.graph, net.truth)
    write_meta(out_dir / "meta.json", config, seed, __version__)
    click.echo(f"wrote {out_dir}/edges.csv ({net.graph.size} interactions, "
               f"{int(net.truth.sum())} foreground of {net.graph.n})")


def _shape(cls, config_path, knob: str, preset):
    """A generator's ``cls`` params: ``cls(**raw)`` of the ``--config`` file
    (keys checked here, values by the dataclass), else ``preset()``, the
    default shape tuned by the flag of parameter ``knob``.  That flag is
    refused next to a file, which would leave it without effect."""
    if not config_path:
        return preset()
    if click.get_current_context().get_parameter_source(knob) is click.core.ParameterSource.COMMANDLINE:
        raise click.UsageError(f"--{knob.replace('_', '-')} tunes the default shape and has no effect with --config")
    raw = _load_json(config_path)
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(raw, [f.name for f in fields(cls)], required)
    return cls(**raw)


@generate.command("sbm")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON with the SbmParams fields: sizes, block_probs, foreground, horizon, shuffle.")
@click.option("--activity", type=float, default=2.0, show_default=True,
              help="Foreground density multiplier for the benchmark shape (refused with --config).")
@click.option("--temporal", default="coordinated", show_default=True,
              type=click.Choice(["coordinated", "uniform", "none"]))
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def generate_sbm_cmd(config_path, activity, temporal, seed, out_dir):
    from .experiment import sbm_detection_config
    from .generators import SbmParams, generate_sbm

    params = _shape(SbmParams, config_path, "activity", lambda: sbm_detection_config(activity=activity).params)
    seed = _resolve_seed(seed)
    net = generate_sbm(params, temporal=temporal, seed=seed)
    _emit_network(net, Path(out_dir), {"generator": "sbm", "params": params, "temporal": temporal}, seed)


@generate.command("hmmb")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON with the HmmbParams fields.")
@click.option("--gamma-fg", type=float, default=1.0, show_default=True,
              help="Foreground coordination level for the default shape (refused with --config).")
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True)
def generate_hmmb_cmd(config_path, gamma_fg, seed, out_dir):
    from .generators import HmmbParams, default_hmmb_params, generate_hmmb

    params = _shape(HmmbParams, config_path, "gamma_fg", lambda: default_hmmb_params(gamma_fg=gamma_fg))
    seed = _resolve_seed(seed)
    net = generate_hmmb(params, seed=seed)
    _emit_network(net, Path(out_dir), {"generator": "hmmb", "params": params}, seed)


@cli.group()
def propagate():
    """Propagate observed threat through a graph."""


@propagate.command("spatial")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--obs", "obs_path", type=click.Path(exists=True), required=True,
              help="CSV vertex,p")
@_config_option({"prior.kind": "prior", "prior.psi0": "psi0", "tol": "tol", "method": "method",
                 "walks": "walks", "seed": "seed"})
@click.option("--prior", default="dwtp", show_default=True, type=click.Choice(PRIOR_KINDS))
@click.option("--psi0", type=float, default=1.0, show_default=True, help="Uniform prior value.")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--method", default="harmonic", show_default=True,
              type=click.Choice(["harmonic", "mc"]))
@click.option("--walks", type=int, default=10_000, show_default=True, help="Walks per vertex for --method mc.")
@click.option("--seed", type=int, default=None, help="Required for --method mc.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def propagate_spatial(graph_path, obs_path, prior, psi0, tol, method, walks, seed, out_path):
    from .spatial import build_absorbing_chain, monte_carlo_threat, require_reach, solve_harmonic

    g = read_edges(graph_path)
    obs = read_observations(obs_path, g)
    psi = compute_prior(g, PriorSpec(prior, psi0=psi0), obs)
    if method == "mc":
        require_reach(g, obs.vertices)  # the harmonic solve's refusal
        seed = _resolve_seed(seed)
        theta = monte_carlo_threat(build_absorbing_chain(g, psi, obs), walks, seed=seed).theta
    else:
        theta = solve_harmonic(g, psi, obs, tol=tol)
    write_scores(out_path, g, theta)
    write_meta(str(out_path) + ".meta.json",
               {"command": "propagate-spatial", "graph": str(graph_path), "obs": str(obs_path),
                "prior": prior, "psi0": psi0, "tol": tol, "method": method,
                "walks": walks if method == "mc" else None},
               seed, __version__)
    click.echo(f"wrote {out_path}")


@propagate.command("spacetime")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--obs", "obs_path", type=click.Path(exists=True), required=True,
              help="CSV vertex,t,p (empty t broadcasts the cue)")
@_config_option({"dt": "dt", "bins": "bins", "lambda": "lam", "variant": "variant", "mode_default": "mode_default",
                 "prior.kind": "prior", "tol": "tol", "reduce": "reducer"})
@click.option("--dt", type=float, default=None, help="Bin width; default from kernel accuracy.")
@click.option("--bins", type=int, default=None, help="Bin count override.")
@click.option("--lambda", "lam", type=float, default=None,
              help="Kernel decay rate; default ln2 / median interaction gap.")
@click.option("--variant", default="coord", show_default=True,
              type=click.Choice(["weighted", "coord", "coord-prior"]))
@click.option("--mode-default", default="clique", show_default=True, type=click.Choice(MODES),
              help="Temporal block for untimed edges.")
@click.option("--prior", default="dwtp", show_default=True, type=click.Choice(PRIOR_KINDS),
              help="Spatial prior for --variant coord-prior.")
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--reduce", "reducer", default=None, type=click.Choice(REDUCERS),
              help="Also write per-vertex scores with this reducer.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def propagate_spacetime(graph_path, obs_path, dt, bins, lam, variant, mode_default, prior, tol, reducer, out_path):
    g = read_edges(graph_path)
    obs = read_observations(obs_path, g)
    obs_times = [e.t for e in obs.entries if e.t is not None]
    all_times = np.concatenate([g.t_u[g.timed], g.t_v[g.timed], obs_times])
    if all_times.size == 0:
        raise click.UsageError("no timestamps anywhere: space-time propagation needs times")
    if lam is None:
        lam = default_rate(g, horizon=float(all_times.max() - all_times.min() or 1.0))
        click.echo(f"kernel rate {lam:.6g}", err=True)
    grid = TimeGrid.cover(all_times, dt=dt, lam=lam, nt=bins)
    sys_ = assemble_spacetime(g, grid, rates=lam, mode_default=mode_default)
    names = {"weighted": "weighted", "coord": "coordinated", "coord-prior": "coordinated-spatial"}
    spatial_psi = compute_prior(g, PriorSpec(prior), obs) if variant == "coord-prior" else None
    theta = solve_spacetime(sys_, obs, variant=names[variant], spatial_psi=spatial_psi, tol=tol)
    write_spacetime_scores(out_path, g, theta, grid)
    if reducer:
        write_scores(Path(out_path).with_suffix(".vertex.csv"), g, reduce_to_vertex_scores(theta, reducer),
                     column="score")
    write_meta(str(out_path) + ".meta.json",
               {"command": "propagate-spacetime", "graph": str(graph_path), "obs": str(obs_path),
                "dt": grid.dt, "bins": grid.nt, "t0": grid.t0, "lambda": lam, "variant": variant,
                "mode_default": mode_default, "tol": tol, "reduce": reducer},
               None, __version__)
    click.echo(f"wrote {out_path}")


@cli.group()
def detect():
    """Uncued detection baselines."""


@detect.command("spec")
@click.option("--graph", "graph_path", type=click.Path(exists=True), required=True)
@click.option("--eigenvector", default="principal", show_default=True,
              help="principal | localized | integer index of the modularity eigenvector")
@click.option("--out", "out_path", type=click.Path(), required=True)
def detect_spec(graph_path, eigenvector, out_path):
    from .spectral import localized_modularity_scores, spectral_scores

    g = read_edges(graph_path)
    if eigenvector == "principal":
        scores = spectral_scores(g)
    elif eigenvector == "localized":
        scores = localized_modularity_scores(g)
    else:
        try:
            idx = int(eigenvector)
        except ValueError:
            raise click.UsageError(f"bad eigenvector choice {eigenvector!r}") from None
        scores = spectral_scores(g, index=idx)
    write_scores(out_path, g, scores, column="score")
    write_meta(str(out_path) + ".meta.json",
               {"command": "detect-spec", "graph": str(graph_path), "eigenvector": eigenvector},
               None, __version__)
    click.echo(f"wrote {out_path}")


# ExperimentConfig fields an experiment config file may set over the preset.
_RUN_KEYS = ("detectors", "trials", "seed", "time_bins", "rate", "variant", "reducer", "tol", "cue_value",
             "aggregate")


def _experiment_config(raw: dict, **flags) -> ExperimentConfig:
    from .experiment import hmmb_detection_config, sbm_detection_config

    # Each experiment kind's preset and the one config key that tunes it.
    presets = {"sbm": (sbm_detection_config, "activity"), "hmmb": (hmmb_detection_config, "gamma_fg")}
    kind = raw.get("kind", "sbm")
    if not isinstance(kind, str) or kind not in presets:
        raise click.UsageError(f"unknown experiment kind {kind!r}")
    preset, knob = presets[kind]
    _check_keys(raw, ("kind", knob, *_RUN_KEYS))
    cfg = preset(**({knob: raw[knob]} if knob in raw else {}))
    changes = {k: raw[k] for k in _RUN_KEYS if k in raw}
    changes.update((k, v) for k, v in flags.items() if v is not None)
    return replace(cfg, **changes)


@cli.command("experiment")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--trials", type=int, default=None, help="Override trial count.")
@click.option("--seed", type=int, default=None)
@click.option("--threads", type=int, default=None, help="Worker processes (results are schedule-invariant).")
@click.option("--out", "out_dir", type=click.Path(), required=True)
def experiment_cmd(config_path, trials, seed, threads, out_dir):
    from .experiment import run_experiment
    from .svgplot import plot_roc

    raw = _load_json(config_path)
    if seed is None and "seed" not in raw:
        seed = _resolve_seed(None)
    cfg = _experiment_config(raw, trials=trials, seed=seed, threads=threads)
    result = run_experiment(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, curve in result.curves.items():
        write_roc(out / f"roc_{name}.csv", curve)
    summary = result.summary()
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    plot_roc(sorted(result.curves.items()), out / "roc.svg")
    # threads excluded: it must not change any artifact byte
    write_meta(out / "meta.json", {**raw, "kind": cfg.kind, "trials": cfg.trials}, cfg.seed, __version__)
    for name, stats in sorted(summary["detectors"].items()):
        click.echo(f"{name}: auc={stats['auc']:.4f} (se {stats['auc_se']:.4f})")
    click.echo(f"wrote {out_dir}")


@cli.command("validate")
@click.option("--level", default="fast", show_default=True, type=click.Choice(["fast", "full"]))
@click.option("--out", "out_path", type=click.Path(), default=None)
def validate_cmd(level, out_path):
    from .validate import run_suite

    report = run_suite(level)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    click.echo(text, nl=False)
    if not report["passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        raise ValidationFailure(f"checks failed: {', '.join(failed)}")


def _read_curve(path) -> np.ndarray:
    """The rows of a ROC CSV as ``write_roc`` writes it: the header
    ``threshold,pfa,pd,se``, then four numbers a row.  A threshold may be
    infinite or NaN (``write_roc`` writes both); the other fields must be
    finite."""
    expected = f"{path}: expected a {','.join(ROC_HEADER)} header and rows"
    try:
        with open(path, newline="") as fh:
            lines = list(csv.reader(fh))
        rows = np.array(lines[1:], dtype=float)
    except (ValueError, csv.Error) as exc:  # a non-number, a ragged row or undecodable bytes
        raise click.UsageError(f"{expected} ({exc})") from None
    if lines[:1] != [ROC_HEADER] or rows.ndim != 2 or rows.shape[1] != 4:
        raise click.UsageError(expected)
    if not np.isfinite(rows[:, 1:]).all():
        raise click.UsageError(f"{path}: non-finite pfa, pd or se")
    return rows


@cli.command("plot")
@click.argument("curves", nargs=-1, type=click.Path(exists=True), required=True)
@click.option("--labels", default=None, help="Comma-separated labels, one per curve file.")
@click.option("--out", "out_path", type=click.Path(), required=True)
def plot_cmd(curves, labels, out_path):
    from .evaluation import RocCurve
    from .svgplot import plot_roc

    names = labels.split(",") if labels else [Path(c).stem.removeprefix("roc_") for c in curves]
    if len(names) != len(curves):
        raise click.UsageError("label count does not match curve count")
    loaded = []
    for name, path in zip(names, curves):
        rows = _read_curve(path)
        curve = RocCurve(
            thresholds=rows[:, 0], pfa=rows[:, 1], pd=rows[:, 2], se_pd=rows[:, 3],
            auc=float(np.trapezoid(rows[:, 2], rows[:, 1])),
            n_fg=1, n_bg=1,
        )
        loaded.append((name, curve))
    plot_roc(loaded, out_path)
    click.echo(f"wrote {out_path}")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except ValidationFailure as exc:
        click.echo(f"validation failure: {exc}", err=True)
        return 3
    except (ConvergenceError, EigenSolverError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 2
    except (ThreatPropagationError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())

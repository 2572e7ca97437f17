"""What importing the package and running a command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threatprop
from threatprop.io import read_edges
from threatprop.spacetime import TimeGrid, assemble_spacetime

SRC = Path(threatprop.__file__).resolve().parents[1]

# Graph search and linear algebra, which neither propagate command runs.
NOT_ON_PROPAGATE_PATH = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")

# Modules that `propagate spacetime` never runs, so its process must not load them.
NOT_ON_SPACETIME_PATH = (
    *NOT_ON_PROPAGATE_PATH,
    "threatprop.experiment",
    "threatprop.spectral",
    "threatprop.validate",
    "multiprocessing",
)


def spacetime_input(tmp_path):
    """Twenty timed records on a ring of ten vertices over ten time units, one
    of them repeated, and two untimed records (time cliques or instant
    contact); the cue is timed."""
    rows = [f"v{i % 10},v{(i + 1) % 10},1,{i / 2},{i / 2 + 0.1}" for i in range(20)]
    rows += ["v3,v4,2,1.5,1.6", "v0,v5,1,,", "v2,v7,0.5,,"]
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,weight,t_src,t_dst\n" + "\n".join(rows) + "\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("vertex,p,t\nv0,1.0,0.5\n")
    return edges, obs


def loaded_modules(tmp_path, script):
    """Run ``script`` in a fresh interpreter in ``tmp_path``; it must bind
    ``_result`` to a JSON value.  Returns that value and the scipy,
    threatprop and multiprocessing modules the interpreter loaded."""
    script += ("\nimport json, sys\n"
               "print(json.dumps([_result, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', "
               "'threatprop', 'multiprocessing'))]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def scipy_modules(loaded):
    return [m for m in loaded if m.split(".")[0] == "scipy"]


def run_cli(tmp_path, argv):
    """``threatprop`` with ``argv`` in a fresh interpreter, which must exit 0;
    returns the modules it loaded."""
    rc, loaded = loaded_modules(tmp_path, f"from threatprop.cli import main\n_result = main({argv!r})")
    assert rc == 0
    return loaded


def run_propagate_spacetime(tmp_path, *options, variant="coord"):
    """``propagate spacetime`` in a fresh interpreter, which must exit 0 and
    write its scores; returns the modules it loaded."""
    edges, obs = spacetime_input(tmp_path)
    loaded = run_cli(tmp_path, ["propagate", "spacetime", "--graph", str(edges), "--obs", str(obs),
                                "--variant", variant, "--reduce", "max", "--out", str(tmp_path / "st.csv"), *options])
    assert (tmp_path / "st.vertex.csv").exists()
    return loaded


def test_propagate_spacetime_loads_only_what_it_runs(tmp_path):
    # A slow kernel keeps every one of 24 bins, so the dense kernel table
    # pays and the run needs no scipy at all, under time cliques and instant
    # contact alike and with the degree-weighted coordination prior; a fast
    # one keeps only a bin to either side, so the kernel is written out as a
    # scipy CSR.
    for variant, mode, rate, dense in (("coord", "clique", 0.05, True), ("coord", "instant", 0.05, True),
                                       ("coord-prior", "clique", 0.05, True), ("coord", "clique", 20.0, False)):
        options = ("--prior", "dwtp") if variant == "coord-prior" else ()
        loaded = run_propagate_spacetime(tmp_path, "--bins", "24", "--lambda", str(rate), "--mode-default", mode,
                                         *options, variant=variant)
        assert [m for m in NOT_ON_SPACETIME_PATH if m in loaded] == []
        assert (scipy_modules(loaded) == []) == dense, (variant, mode, rate, scipy_modules(loaded))

        # The run's own grid picks the form the case claims.
        config = json.loads((tmp_path / "st.csv.meta.json").read_text())["config"]
        grid = TimeGrid(config["t0"], config["dt"], config["bins"])
        system = assemble_spacetime(read_edges(tmp_path / "edges.csv"), grid, rate, mode_default=mode)
        assert (system.kernel is not None) == dense


def test_propagate_spatial_loads_no_graph_search_or_linalg(tmp_path):
    # The bfs prior's hop distances and the reach check are numpy traversals.
    edges, _ = spacetime_input(tmp_path)
    obs = tmp_path / "spatial-obs.csv"
    obs.write_text("vertex,p\nv0,1.0\n")
    for prior in ("dwtp", "bfs"):
        out = tmp_path / f"{prior}.csv"
        loaded = run_cli(tmp_path, ["propagate", "spatial", "--graph", str(edges), "--obs", str(obs),
                                    "--prior", prior, "--out", str(out)])
        assert out.exists()
        assert [m for m in NOT_ON_PROPAGATE_PATH if m in loaded] == [], prior


def test_experiment_trial_loads_no_csgraph(tmp_path):
    # The bfs detector's hop distances are a numpy traversal; the spec
    # detector still needs scipy.sparse.linalg.
    script = """
from threatprop.experiment import run_trial, sbm_detection_config

_result = sorted(run_trial(sbm_detection_config(trials=1), 0))
"""
    detectors, loaded = loaded_modules(tmp_path, script)
    assert detectors == ["_truth", "bfs", "spec", "sttp"]
    assert "scipy.sparse.linalg" in loaded and "scipy.sparse.csgraph" not in loaded


def test_generate_loads_no_scipy(tmp_path):
    for kind in ("sbm", "hmmb"):
        loaded = run_cli(tmp_path, ["generate", kind, "--seed", "1", "--out", str(tmp_path / kind)])
        assert (tmp_path / kind / "edges.csv").exists()
        assert scipy_modules(loaded) == [], kind


def test_drawing_networks_and_choosing_cues_load_no_scipy(tmp_path):
    script = """
from threatprop.experiment import _cue_rng, choose_cue, hmmb_detection_config, sbm_detection_config
from threatprop.generators import generate_hmmb, generate_sbm
from threatprop.priors import PriorSpec, compute_prior

sbm = generate_sbm(sbm_detection_config().params, seed=3)
hmmb = generate_hmmb(hmmb_detection_config().params, seed=3)
_result = [choose_cue(sbm, _cue_rng(0, 1))[0], choose_cue(hmmb, _cue_rng(0, 1))[0],
           float(compute_prior(sbm.graph, PriorSpec("dwtp")).min())]
"""
    result, loaded = loaded_modules(tmp_path, script)
    assert len(result) == 3 and result[2] > 0
    assert "threatprop.experiment" in loaded
    assert scipy_modules(loaded) == []


def test_pooled_experiment_parent_loads_no_scipy(tmp_path):
    # Only the fork-started workers solve, so only they import scipy.
    script = """
from threatprop.experiment import hmmb_detection_config, run_experiment

result = run_experiment(hmmb_detection_config(trials=2, threads=2))
_result = [len(result.aborted), sorted(result.curves)]
"""
    (aborted, detectors), loaded = loaded_modules(tmp_path, script)
    assert aborted == 0 and detectors == ["bfs", "spec", "sttp"]
    assert "multiprocessing" in loaded
    assert scipy_modules(loaded) == []


def test_every_export_resolves():
    for name in threatprop.__all__:
        assert getattr(threatprop, name).__module__.startswith("threatprop."), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from threatprop import *", namespace)
    assert set(threatprop.__all__) <= namespace.keys()


def test_unknown_attribute_is_an_attribute_error():
    assert not hasattr(threatprop, "nope")
    with pytest.raises(AttributeError, match="nope"):
        threatprop.nope

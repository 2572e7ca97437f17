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

# Modules that `propagate spacetime` never runs, so its process must not load them.
NOT_ON_SPACETIME_PATH = (
    "scipy.sparse.csgraph",
    "scipy.sparse.linalg",
    "scipy.linalg",
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


def run_propagate_spacetime(tmp_path, *options):
    """``propagate spacetime`` in a fresh interpreter, which must exit 0 and
    write its scores; returns the scipy, threatprop and multiprocessing
    modules it loaded."""
    edges, obs = spacetime_input(tmp_path)
    argv = ["propagate", "spacetime", "--graph", str(edges), "--obs", str(obs), "--variant", "coord",
            "--reduce", "max", "--out", str(tmp_path / "st.csv"), *options]
    script = ("import json, sys\n"
              "from threatprop.cli import main\n"
              f"rc = main({argv!r})\n"
              "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', "
              f"'threatprop', 'multiprocessing'))]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          check=True)
    rc, loaded = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0, done.stderr
    assert (tmp_path / "st.vertex.csv").exists()
    return loaded


def test_propagate_spacetime_loads_only_what_it_runs(tmp_path):
    # A slow kernel keeps every one of 24 bins, so the dense kernel table
    # pays and the run needs no scipy at all, under time cliques and instant
    # contact alike; a fast one keeps only a bin to either side, so the
    # kernel is written out as a scipy CSR.
    for mode, rate, dense in (("clique", 0.05, True), ("instant", 0.05, True), ("clique", 20.0, False)):
        loaded = run_propagate_spacetime(tmp_path, "--bins", "24", "--lambda", str(rate), "--mode-default", mode)
        assert [m for m in NOT_ON_SPACETIME_PATH if m in loaded] == []
        scipy_loaded = [m for m in loaded if m.split(".")[0] == "scipy"]
        assert (scipy_loaded == []) == dense, (mode, rate, scipy_loaded)

        # The run's own grid picks the form the case claims.
        config = json.loads((tmp_path / "st.csv.meta.json").read_text())["config"]
        grid = TimeGrid(config["t0"], config["dt"], config["bins"])
        system = assemble_spacetime(read_edges(tmp_path / "edges.csv"), grid, rate, mode_default=mode)
        assert (system.kernel is not None) == dense


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

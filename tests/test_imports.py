"""What importing the package and running a command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threatprop

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


def test_propagate_spacetime_loads_only_what_it_runs(tmp_path):
    # Timed records, a repeated pair and one untimed record (a time clique).
    edges = tmp_path / "edges.csv"
    edges.write_text("src,dst,weight,t_src,t_dst\n"
                     "a,b,1,0.5,0.6\nb,c,2,1.0,1.2\nc,a,1,,\nb,c,1,2.0,2.1\nc,d,0.5,2.5,2.5\n")
    obs = tmp_path / "obs.csv"
    obs.write_text("vertex,p,t\na,1.0,0.5\n")
    argv = ["propagate", "spacetime", "--graph", str(edges), "--obs", str(obs), "--bins", "8",
            "--variant", "coord", "--reduce", "max", "--out", str(tmp_path / "st.csv")]
    script = ("import json, sys\n"
              "from threatprop.cli import main\n"
              f"rc = main({argv!r})\n"
              f"print(json.dumps([rc, [m for m in {NOT_ON_SPACETIME_PATH!r} if m in sys.modules]]))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          check=True)
    rc, loaded = json.loads(done.stdout.splitlines()[-1])
    assert rc == 0, done.stderr
    assert loaded == []
    assert (tmp_path / "st.vertex.csv").exists()


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

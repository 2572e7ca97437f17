import json
import logging
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import threatprop.validate as validate
from threatprop.cli import main
from threatprop.errors import GraphError, ObservationError
from threatprop.evaluation import roc
from threatprop.graph import build_graph
from threatprop.io import (
    canonical_json,
    config_digest,
    read_edges,
    read_observations,
    read_truth,
    write_edges,
    write_roc,
    write_truth,
)
from threatprop.svgplot import render_roc_svg

from conftest import make_er, rng_for

SBM_PARAMS = {"sizes": [10, 10], "block_probs": [[0.5, 0.1], [0.1, 0.5]]}
EXPERIMENT = {"kind": "sbm", "trials": 2, "seed": 1, "detectors": ["sttp"]}


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        g = build_graph(
            [(0, 1, 2.0), (1, 2, 1.0, 3.25, 4.5), (0, 2, 1.5)],
            labels=["alpha", "beta", "gamma"],
        )
        path = tmp_path / "edges.csv"
        write_edges(path, g)
        back = read_edges(path)
        assert back.labels == ("alpha", "beta", "gamma")
        assert back.n == g.n
        assert [(e.u, e.v, e.weight, e.t_u, e.t_v) for e in back.interactions] == [
            (e.u, e.v, e.weight, e.t_u, e.t_v) for e in g.interactions
        ]

    def test_float_repr_round_trip_is_exact(self, tmp_path):
        rng = rng_for("ioexact")
        g = make_er(rng, 10)
        timed = build_graph(
            [(e.u, e.v, float(rng.random()), float(rng.random() * 9), float(rng.random() * 9))
             for e in g.interactions],
            n=g.n,
        )
        path = tmp_path / "e.csv"
        write_edges(path, timed)
        back = read_edges(path)
        for a, b in zip(timed.interactions, back.interactions):
            assert a.weight == b.weight and a.t_u == b.t_u and a.t_v == b.t_v

    def test_header_required(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(GraphError, match="header"):
            read_edges(bad)

    @pytest.mark.parametrize("header", [
        "src,dst,weight,t_dst,t_src",  # by position the column named t_dst would be read as t_src
        "src,dst,weight,foo,bar",
        "src,dst,weight,t_dst",
        "src,dst,weight,t_src,t_src",
        "src,dst,weight,t_src,t_dst,src",
    ])
    def test_misnamed_or_repeated_edge_header_rejected(self, tmp_path, header):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{header}\na,b,1.0,1.0,2.0\n")
        with pytest.raises(GraphError, match="header"):
            read_edges(bad)

    @pytest.mark.parametrize("header", ["src,dst,weight", "src,dst,weight,t_src", " src,dst , weight,t_src,t_dst"])
    def test_edge_header_prefixes_accepted(self, tmp_path, header):
        path = tmp_path / "edges.csv"
        path.write_text(f"{header}\na,b,2.0,1.0,2.0\n")
        edge, = read_edges(path).interactions
        assert (edge.weight, edge.t_u, edge.t_v) == (2.0, 1.0, 2.0)

    def test_half_timestamp_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,weight,t_src,t_dst\na,b,1.0,2.5,\n")
        with pytest.raises(GraphError, match="half-set"):
            read_edges(bad)

    @pytest.mark.parametrize("row, message", [
        ("a,b,nan,1.0,1.0", "non-finite"),
        ("a,b,inf,,", "non-finite"),
        ("a,b,1.0,nan,nan", "non-finite"),
        ("a,b,1.0,1.0,-inf", "non-finite"),
        ("a,b,heavy,,", "could not convert"),
        ("a,,1.0,,", "two vertex ids"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"src,dst,weight,t_src,t_dst\nb,c,1.0,2.0,2.0\n{row}\n")
        with pytest.raises(GraphError, match=message):
            read_edges(bad)

    @pytest.mark.parametrize("row", [
        pytest.param(b"\xff,b,1", id="undecodable"),  # 0xff starts no UTF-8 character
        pytest.param(b"a,%s,1" % (b"b" * 200_000), id="field-over-the-csv-limit"),
    ])
    @pytest.mark.parametrize("reader, error", [
        pytest.param(lambda path, g: read_edges(path), GraphError, id="edges"),
        pytest.param(read_observations, ObservationError, id="observations"),
        pytest.param(read_truth, GraphError, id="truth"),
    ])
    def test_unreadable_csv_names_the_file(self, tmp_path, reader, error, row):
        g = build_graph([(0, 1, 1.0)], labels=["a", "b"])
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"src,dst,weight\na,b,1\n%s\n" % row)
        with pytest.raises(error, match=f"{bad}: cannot read the file as CSV text"):
            reader(bad, g)

    def test_truth_round_trip(self, tmp_path):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], labels=["x", "y", "z"])
        truth = np.array([1, 0, 1], dtype=np.int8)
        write_truth(tmp_path / "t.csv", g, truth)
        assert np.array_equal(read_truth(tmp_path / "t.csv", g), truth)

    def test_vertex_names_resolve_through_the_label_index(self, tmp_path):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], labels=["x", "y", "x", "7"])
        assert g.label_index == {"x": 0, "y": 1, "7": 3}  # a repeated label keeps its first index
        assert build_graph([(0, 1, 1.0)]).label_index == {}
        p = tmp_path / "obs.csv"
        p.write_text("vertex,p\nx,1.0\n7,0.5\n")
        assert [e.vertex for e in read_observations(p, g).entries] == [0, 3]
        # On a labelled graph a name that is not a label is refused, even
        # one that would read as an index.
        for bad in ("w", "2", "4", "-1"):
            p.write_text(f"vertex,p\n{bad},1.0\n")
            with pytest.raises(ObservationError, match="unknown vertex identifier"):
                read_observations(p, g)
        # Without a label table a name reads as an index.
        plain = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        p.write_text("vertex,p\n2,1.0\n")
        assert read_observations(p, plain).entries[0].vertex == 2
        for bad, message in (("w", "unknown vertex identifier"), ("4", "out of range"), ("-1", "out of range")):
            p.write_text(f"vertex,p\n{bad},1.0\n")
            with pytest.raises(ObservationError, match=message):
                read_observations(p, plain)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_truth_of_a_generated_draw_reads_by_label(self, tmp_path, seed):
        # Vertices isolated in the draw are missing from its edge list, so
        # their truth rows name no vertex of the graph and are skipped.
        assert main(["generate", "hmmb", "--seed", str(seed), "--out", str(tmp_path)]) == 0
        g = read_edges(tmp_path / "edges.csv")
        rows = dict(line.split(",") for line in (tmp_path / "truth.csv").read_text().splitlines()[1:])
        assert len(rows) > g.n
        truth = read_truth(tmp_path / "truth.csv", g)
        assert truth.tolist() == [int(float(rows[name])) for name in g.labels]

    def test_observations(self, tmp_path):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], labels=["x", "y", "z"])
        p = tmp_path / "obs.csv"
        p.write_text("vertex,p,t\ny,0.9,\nz,0.5,3.5\n")
        obs = read_observations(p, g)
        assert obs.entries[0].vertex == 1 and obs.entries[0].t is None
        assert obs.entries[1].t == 3.5

    def test_observation_columns_by_name(self, tmp_path):
        # the space-time layout puts the time column in the middle
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], labels=["x", "y", "z"])
        p = tmp_path / "obs.csv"
        p.write_text("vertex,t,p\nz,3.5,0.5\ny,,0.9\n")
        obs = read_observations(p, g)
        assert obs.entries[0] == (2, 0.5, 3.5)
        assert obs.entries[1] == (1, 0.9, None)

    @pytest.mark.parametrize("header", ["vertex,p,p", "vertex,vertex,p", "vertex,p,t, t"])
    def test_repeated_observation_column_rejected(self, tmp_path, header):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], labels=["x", "y", "z"])
        p = tmp_path / "obs.csv"
        p.write_text(f"{header}\nx,1,0.5,1.0\n")
        with pytest.raises(ObservationError, match="appears twice in the header"):
            read_observations(p, g)

    @pytest.mark.parametrize("row, message", [
        ("y,abc,", "could not convert"),
        ("y,0.5,noon", "could not convert"),
        ("y,0.5,nan", "not finite"),
        ("y", "bad observation row"),
    ])
    def test_malformed_observation_rows_rejected(self, tmp_path, row, message):
        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], labels=["x", "y", "z"])
        p = tmp_path / "obs.csv"
        p.write_text(f"vertex,p,t\nx,1.0,2.0\n{row}\n")
        with pytest.raises(ObservationError, match=message):
            read_observations(p, g)

    def test_canonical_json_and_digest_stable(self):
        a = {"b": 1, "a": [1.5, 2], "arr": np.array([1.0, 2.0])}
        b = {"arr": np.array([1.0, 2.0]), "a": [1.5, 2], "b": 1}
        assert canonical_json(a) == canonical_json(b)
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 16


class TestSvg:
    def test_perfect_detector_polyline(self):
        truth = np.array([1, 1, 0, 0])
        svg = render_roc_svg([("perfect", roc(truth.astype(float), truth))])
        # corner path (0,0) -> (0,1) -> (1,1) in plot coordinates
        assert 'points="70.00,460.00 70.00,30.00 610.00,30.00"' in svg
        assert "perfect (AUC 1.000)" in svg

    def test_byte_identical_rerun(self):
        rng = rng_for("svg")
        scores, truth = rng.random(50), (rng.random(50) < 0.4).astype(int)
        curves = [("a", roc(scores, truth)), ("b", roc(-scores, truth))]
        assert render_roc_svg(curves) == render_roc_svg(curves)

    def test_three_detector_legend(self):
        rng = rng_for("svg3")
        truth = (rng.random(60) < 0.5).astype(int)
        curves = [(name, roc(rng.random(60), truth)) for name in ("sttp", "bfs", "spec")]
        svg = render_roc_svg(curves)
        for name in ("sttp", "bfs", "spec"):
            assert name in svg
        assert svg.count("<polyline") == 3


class TestCli:
    def test_generate_propagate_detect_pipeline(self, tmp_path):
        out = tmp_path / "net"
        assert main(["generate", "sbm", "--activity", "2", "--seed", "5", "--out", str(out)]) == 0
        assert (out / "edges.csv").exists() and (out / "truth.csv").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 5 and "config_digest" in meta

        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\n3,1.0\n")
        theta = tmp_path / "theta.csv"
        assert main(["propagate", "spatial", "--graph", str(out / "edges.csv"),
                     "--obs", str(obs), "--prior", "bfs", "--out", str(theta)]) == 0
        rows = theta.read_text().strip().splitlines()
        assert rows[0] == "vertex,theta" and len(rows) == 257

        scores = tmp_path / "spec.csv"
        assert main(["detect", "spec", "--graph", str(out / "edges.csv"),
                     "--eigenvector", "localized", "--out", str(scores)]) == 0
        assert scores.read_text().startswith("vertex,score")

    def test_detect_spec_last_eigenvector(self, tmp_path):
        # The 256th of 256 modularity eigenvectors: every pair is asked for.
        out = tmp_path / "net"
        main(["generate", "sbm", "--activity", "2", "--seed", "5", "--out", str(out)])
        scores = tmp_path / "spec.csv"
        assert main(["detect", "spec", "--graph", str(out / "edges.csv"),
                     "--eigenvector", "255", "--out", str(scores)]) == 0
        assert len(scores.read_text().splitlines()) == 257

    def test_propagate_mc_needs_seed_or_derives(self, tmp_path, capsys):
        out = tmp_path / "net"
        main(["generate", "sbm", "--activity", "2", "--seed", "5", "--out", str(out)])
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\n3,1.0\n")
        theta = tmp_path / "mc.csv"
        rc = main(["propagate", "spatial", "--graph", str(out / "edges.csv"), "--obs", str(obs),
                   "--method", "mc", "--walks", "200", "--out", str(theta)])
        assert rc == 0
        assert "derived seed" in capsys.readouterr().err

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["propagate", "spatial", "--graph", "/definitely/missing.csv",
                     "--obs", "/nope.csv", "--out", str(tmp_path / "x.csv")]) == 1

    def test_bad_input_exit_code(self, tmp_path):
        bad = tmp_path / "edges.csv"
        bad.write_text("src,dst,weight\na,b,-3\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\na,1.0\n")
        assert main(["propagate", "spatial", "--graph", str(bad), "--obs", str(obs),
                     "--out", str(tmp_path / "x.csv")]) == 1

    @pytest.mark.parametrize("command, row", [
        ("spatial", "a,b,nan,1.0,1.0"),
        ("spacetime", "a,b,nan,1.0,1.0"),
        ("spacetime", "a,b,1.0,nan,nan"),
    ])
    def test_non_finite_input_exits_1(self, tmp_path, capsys, command, row):
        edges = tmp_path / "edges.csv"
        edges.write_text(f"src,dst,weight,t_src,t_dst\n{row}\nb,c,1.0,2.0,2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\nb,1.0\n")
        rc = main(["propagate", command, "--graph", str(edges), "--obs", str(obs),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command, edge_header, obs_header", [
        ("spacetime", "src,dst,weight,t_src,t_dst", "vertex,p,p"),
        ("spatial", "src,dst,weight,t_src,t_dst", "vertex,p,p"),
        ("spacetime", "src,dst,weight,t_dst,t_src", "vertex,p"),
        ("spacetime", "src,dst,weight,foo,bar", "vertex,p"),
        ("spatial", "src,dst,weight,t_src,t_dst,weight", "vertex,p"),
    ])
    def test_malformed_header_exits_1(self, tmp_path, capsys, command, edge_header, obs_header):
        edges = tmp_path / "edges.csv"
        edges.write_text(f"{edge_header}\na,b,1.0,1.0,2.0\nb,c,1.0,2.0,3.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(f"{obs_header}\na,1,0.5\n")
        rc = main(["propagate", command, "--graph", str(edges), "--obs", str(obs), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and "header" in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_unreachable_across_a_zero_weight_record_exits_1(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight\na,b,1\nb,c,0\nc,d,1\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\na,1.0\n")
        rc = main(["propagate", "spatial", "--graph", str(edges), "--obs", str(obs),
                   "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: vertex c unreachable" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert list(tmp_path.glob("x.*")) == []

    def test_mc_refuses_what_harmonic_refuses(self, tmp_path, capsys, monkeypatch):
        # d and e have no path to the cue.  Walks there would run to the step
        # cap, which is lowered so that a run that does not refuse ends fast.
        import threatprop.spatial as spatial

        monkeypatch.setattr(spatial, "MAX_WALK_STEPS", 1000)
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight\na,b,1\nb,c,1\nd,e,1\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\na,1.0\n")
        errors = []
        for method, walks in (("harmonic", []), ("mc", ["--walks", "20", "--seed", "1"])):
            rc = main(["propagate", "spatial", "--graph", str(edges), "--obs", str(obs), "--method", method,
                       *walks, "--out", str(tmp_path / f"{method}.csv")])
            errors.append(capsys.readouterr().err)
            assert rc == 1, method
        assert errors[0] == errors[1] == "error: vertex d unreachable from any observed vertex\n"
        assert list(tmp_path.glob("harmonic.*")) == list(tmp_path.glob("mc.*")) == []

    @pytest.mark.parametrize("method", ["harmonic", "mc"])
    def test_a_weightless_cued_vertex_is_accepted(self, tmp_path, method):
        # c's one record has weight 0, but c is cued and b is reached from a.
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight\na,b,1\nc,b,0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\na,1.0\nc,0.3\n")
        out = tmp_path / "theta.csv"
        walks = ["--walks", "20", "--seed", "1"] if method == "mc" else []
        assert main(["propagate", "spatial", "--graph", str(edges), "--obs", str(obs), "--method", method,
                     *walks, "--out", str(out)]) == 0
        theta = dict(line.split(",") for line in out.read_text().splitlines()[1:])
        assert (theta["a"], theta["c"]) == ("1.0", "0.3")
        if method == "harmonic":  # b's dwtp prior is 1/2 over its two neighbours
            assert float(theta["b"]) == pytest.approx(0.5, abs=1e-9)

    def test_lwtp_accepts_what_the_other_priors_accept(self, tmp_path):
        # No path joins c, whose one record has weight 0, to a or b; the
        # length-weighted prior averages over the one joined pair, a-b, so
        # its 2 ** (-1 / 1) = 1/2 damps b's one live neighbour a.
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight\na,b,1\nc,b,0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\na,1.0\nc,0.3\n")
        for prior in ("uniform", "dwtp", "lwtp", "bfs"):
            out = tmp_path / f"{prior}.csv"
            assert main(["propagate", "spatial", "--graph", str(edges), "--obs", str(obs), "--prior", prior,
                         "--out", str(out)]) == 0, prior
        theta = dict(line.split(",") for line in (tmp_path / "lwtp.csv").read_text().splitlines()[1:])
        assert float(theta["b"]) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("command, obs_text, options, where", [
        ("spatial", "vertex,p\na,0.3\nb,1.0\na,0.9\n", [], "vertex a"),
        ("spacetime", "vertex,p,t\na,0.3,1.0\nb,1.0,2.0\na,0.9,1.0\n", ["--bins", "4", "--lambda", "0.7"],
         "vertex a at bin 0"),
    ], ids=["spatial", "spacetime"])
    def test_a_cue_clash_names_the_vertex_by_its_label(self, tmp_path, capsys, command, obs_text, options, where):
        # b is read first, so a is vertex 1.
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\nb,a,1,1,1\na,c,1,2,2\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(obs_text)
        rc = main(["propagate", command, "--graph", str(edges), "--obs", str(obs), *options,
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {where} is cued with both p=0.3 and p=0.9\n"
        assert list(tmp_path.glob("x.*")) == []

    @pytest.mark.parametrize("variant", ["weighted", "coord", "coord-prior"])
    def test_spacetime_refuses_a_weightless_uncued_vertex_under_every_variant(self, tmp_path, capsys, variant):
        # c, the fourth vertex read, has only a zero-weight record; cued, it
        # would be accepted.
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\na,b,1,1,1\nb,d,1,2,2\nc,b,0,1,1\n")
        obs = tmp_path / "obs.csv"
        common = ["propagate", "spacetime", "--graph", str(edges), "--obs", str(obs), "--variant", variant,
                  "--bins", "4", "--lambda", "0.7"]
        obs.write_text("vertex,p,t\na,1.0,1.0\n")
        assert main([*common, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == "error: isolated spatial vertex c has no interactions\n"
        assert list(tmp_path.glob("x.*")) == []
        obs.write_text("vertex,p,t\na,1.0,1.0\nc,0.5,\n")
        assert main([*common, "--out", str(tmp_path / "cued.csv")]) == 0

    @pytest.mark.parametrize("command, rows, obs_text, named", [
        # A subnormal weight, whose vertex's 1/w would overflow to inf
        pytest.param("spacetime", "a,b,1.0,1.0,1.0\nb,c,1.0,2.0,2.0\nd,c,1e-310,,", "vertex,p,t\na,1.0,1.0",
                     "weight 1e-310 on edge (d, c)", id="spacetime-subnormal-untimed"),
        pytest.param("spatial", "a,b,1.0,1.0,1.0\nb,c,1.0,2.0,2.0\nd,c,1e-310,,", "vertex,p\na,1.0",
                     "weight 1e-310 on edge (d, c)", id="spatial-subnormal-untimed"),
        # b's total weight would overflow to inf, so 1/w = 0 would empty its rows
        pytest.param("spacetime", "a,b,1e308,1.0,1.0\nb,c,1e308,1.0,1.0", "vertex,p,t\na,1.0,1.0",
                     "weight 1e+308 on edge (a, b)", id="spacetime-overflowing-timed"),
        # Just past either end of the range, and two untimed records in the
        # range whose merged weight is not
        pytest.param("spatial", "a,b,1.0\nb,c,9.999999999999999e-101", "vertex,p\na,1.0",
                     "weight 9.999999999999999e-101 on edge (b, c)", id="spatial-below-the-range"),
        pytest.param("spacetime", "a,b,1.0,1.0,1.0\nb,c,1.0000000000000002e+100,2.0,2.0", "vertex,p,t\na,1.0,1.0",
                     "weight 1.0000000000000002e+100 on edge (b, c)", id="spacetime-above-the-range"),
        pytest.param("spatial", "a,b,1.0\nb,c,6e99\nc,b,6e99", "vertex,p\na,1.0",
                     "weight 1.2e+100 on edge (b, c)", id="spatial-merged-above-the-range"),
        pytest.param("spacetime", "a,b,1.0,1.0,1.0\nb,c,6e99,,\nc,b,6e99,,", "vertex,p,t\na,1.0,1.0",
                     "weight 1.2e+100 on edge (b, c)", id="spacetime-merged-above-the-range"),
    ])
    def test_weight_sums_out_of_range_exit_1(self, tmp_path, capsys, command, rows, obs_text, named):
        edges = tmp_path / "edges.csv"
        edges.write_text(f"src,dst,weight,t_src,t_dst\n{rows}\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(obs_text + "\n")
        variant = ["--variant", "weighted"] if command == "spacetime" else []
        rc = main(["propagate", command, "--graph", str(edges), "--obs", str(obs), *variant,
                   "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {edges}: {named} is neither 0 nor in [1e-100, 1e+100]; rescale the weights" in err
        assert list(tmp_path.glob("x.*")) == []

    @pytest.mark.parametrize("bad", ["graph", "obs", "config"])
    def test_undecodable_input_exits_1(self, tmp_path, capsys, bad):
        # Byte 0xff starts no UTF-8 character, in an edge list, a cue list
        # or a config file.
        files = {"graph": tmp_path / "edges.csv", "obs": tmp_path / "obs.csv", "config": tmp_path / "cfg.json"}
        files["graph"].write_text("src,dst,weight\na,b,1.0\nb,c,1.0\n")
        files["obs"].write_text("vertex,p\na,1.0\n")
        files["config"].write_text(json.dumps(EXPERIMENT))
        files[bad].write_bytes(files[bad].read_bytes() + b"\xff\n")
        out = tmp_path / "out"
        if bad == "config":
            args = ["experiment", "--config", str(files["config"])]
        else:
            args = ["propagate", "spatial", "--graph", str(files["graph"]), "--obs", str(files["obs"])]
        rc = main([*args, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("usage error: " if bad == "config" else "error: ") and str(files[bad]) in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, obs_text, config", [
        pytest.param("spacetime", ["--dt", "0"], "a,1.0,1.0", None, id="dt-zero"),
        pytest.param("spacetime", ["--lambda", "0"], "a,1.0,1.0", None, id="lambda-zero"),
        pytest.param("spacetime", ["--bins", "0"], "a,1.0,1.0", None, id="bins-zero"),
        pytest.param("spacetime", [], "a,1.0,nan", None, id="nan-cue-time"),
        pytest.param("spacetime", ["--bins", "4"], "a,1.0,nan", None, id="nan-cue-time-bins"),
        pytest.param("spatial", [], "a,abc", None, id="spatial-bad-p"),
        pytest.param("spacetime", ["--bins", "4"], "a,abc,1.0", None, id="spacetime-bad-p"),
        pytest.param("spatial", [], "a,1.0", {"tol": "abc"}, id="config-tol"),
        pytest.param("spatial", [], "a,1.0", {"method": "bogus"}, id="config-method"),
        pytest.param("spatial", [], "a,1.0", {"method": "direct"}, id="config-method-direct"),
        pytest.param("spatial", [], "a,1.0", {"method": "bicgstab"}, id="config-method-bicgstab"),
        pytest.param("spacetime", ["--bins", "4"], "a,1.0,1.0", {"reduce": "bogus"}, id="config-reduce"),
        pytest.param("spacetime", ["--bins", "4"], "a,1.0,1.0", {"lambda": "fast"}, id="config-lambda"),
        pytest.param("spatial", ["--tol", "nan"], "a,1.0", None, id="spatial-tol-nan"),
        pytest.param("spatial", ["--tol", "-1"], "a,1.0", None, id="spatial-tol-negative"),
        pytest.param("spacetime", ["--bins", "4", "--tol", "nan"], "a,1.0,1.0", None, id="spacetime-tol-nan"),
        pytest.param("spacetime", ["--bins", "4", "--tol", "-1"], "a,1.0,1.0", None, id="spacetime-tol-negative"),
        pytest.param("spacetime", ["--dt", "1e-320"], "a,1.0,1.0", None, id="spacetime-dt-overflow"),
        pytest.param("spacetime", ["--lambda", "1e308"], "a,1.0,1.0", None, id="spacetime-lambda-overflow"),
        pytest.param("spacetime", ["--bins", "4"], "a,0.9,\na,0.3,1.0", None, id="spacetime-cell-cued-twice"),
        pytest.param("spatial", ["--method", "mc", "--walks", "10", "--seed", "-1"], "a,1.0", None,
                     id="spatial-mc-seed-negative"),
        pytest.param("spatial", ["--out", "missing/x.csv"], "a,1.0", None, id="spatial-out-missing-dir"),
        pytest.param("spacetime", ["--bins", "4", "--out", "missing/x.csv"], "a,1.0,1.0", None,
                     id="spacetime-out-missing-dir"),
    ])
    def test_bad_input_error_contract(self, tmp_path, capsys, monkeypatch, command, flags, obs_text, config):
        monkeypatch.chdir(tmp_path)  # a relative --out lands here
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\na,b,1.0,1.0,1.0\nb,c,1.0,2.0,2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text(("vertex,p,t\n" if command == "spacetime" else "vertex,p\n") + obs_text + "\n")
        args = ["propagate", command, "--graph", str(edges), "--obs", str(obs), *flags]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            args += ["--config", str(cfg)]
        out = [] if "--out" in flags else ["--out", str(tmp_path / "x.csv")]
        rc = main([*args, *out])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: " in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert list(tmp_path.glob("x.*")) == [] and not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("generator", ["sbm", "hmmb"])
    def test_generate_negative_seed_error_contract(self, tmp_path, capsys, generator):
        rc = main(["generate", generator, "--seed", "-1", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: seed" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert not (tmp_path / "out").exists()

    def test_oversize_grid_exits_1(self, tmp_path, capsys):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\na,b,1.0,,\nb,c,1.0,2.0,2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p,t\na,1.0,2.0\n")
        # two records and two hubs at 2.7M bins are 16.2M matrix entries
        rc = main(["propagate", "spacetime", "--graph", str(edges), "--obs", str(obs), "--bins", "2700000",
                   "--lambda", "1", "--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: " in captured.err and "--bins" in captured.err
        assert list(tmp_path.glob("x.*")) == []

    @pytest.mark.parametrize("command, config, flags", [
        pytest.param("generate sbm", {"sizes": [10, 10]}, [], id="sbm-missing-key"),
        pytest.param("generate hmmb", {"n": 50}, [], id="hmmb-missing-key"),
        pytest.param("generate sbm", {**SBM_PARAMS, "horizon": "x"}, [], id="sbm-horizon-type"),
        pytest.param("generate sbm", {**SBM_PARAMS, "horizon": -5}, [], id="sbm-horizon-negative"),
        pytest.param("generate sbm", {**SBM_PARAMS, "typo_key": 1}, [], id="sbm-unknown-key"),
        pytest.param("propagate spatial", {"tolerance": 1e-3}, [], id="propagate-unknown-key"),
        pytest.param("experiment", {**EXPERIMENT, "trials": "x"}, [], id="experiment-trials-type"),
        pytest.param("experiment", {**EXPERIMENT, "tol": "abc"}, [], id="experiment-tol-type"),
        pytest.param("experiment", {**EXPERIMENT, "variant": "bogus"}, [], id="experiment-variant"),
        pytest.param("experiment", {**EXPERIMENT, "variant": "coordinated-spatial"}, [],
                     id="experiment-variant-without-spatial-prior"),
        pytest.param("experiment", {**EXPERIMENT, "threads": 2, "solve_method": "direct"}, [],
                     id="experiment-unapplied-keys"),
        pytest.param("experiment", {**EXPERIMENT, "bogus": 1}, [], id="experiment-unknown-key"),
        pytest.param("experiment", {**EXPERIMENT, "activity": "x"}, [], id="experiment-activity-type"),
        pytest.param("experiment", {**EXPERIMENT, "kind": "hmmb", "gamma_fg": "x"}, [], id="experiment-gamma-type"),
        pytest.param("experiment", {**EXPERIMENT, "kind": "hmmb", "activity": 2.0}, [],
                     id="experiment-knob-of-other-kind"),
        pytest.param("experiment", EXPERIMENT, ["--threads", "0"], id="experiment-threads-zero"),
        pytest.param("experiment", {**EXPERIMENT, "detectors": []}, [], id="experiment-no-detectors"),
        pytest.param("experiment", {**EXPERIMENT, "detectors": ["bfs", "bfs"]}, [], id="experiment-detector-twice"),
    ])
    def test_config_error_contract(self, tmp_path, capsys, command, config, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [*command.split(), "--config", str(cfg), *flags]
        if command.startswith("generate"):
            args += ["--seed", "1"]
        if command.startswith("propagate"):
            edges, obs = tmp_path / "edges.csv", tmp_path / "obs.csv"
            edges.write_text("src,dst,weight\na,b,1.0\nb,c,1.0\n")
            obs.write_text("vertex,p\na,1.0\n")
            args += ["--graph", str(edges), "--obs", str(obs)]
        rc = main([*args, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: " in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert "aborted" not in captured.err  # refused before any trial runs
        assert not (tmp_path / "out").exists()

    def test_meta_params_reproduce_the_network(self, tmp_path):
        cfg = tmp_path / "sbm.json"
        cfg.write_text(json.dumps({**SBM_PARAMS, "foreground": 1, "shuffle": False}))
        for generator, source in (("sbm", ["--config", str(cfg)]), ("hmmb", ["--gamma-fg", "2"])):
            first, again = tmp_path / f"{generator}-first", tmp_path / f"{generator}-again"
            assert main(["generate", generator, *source, "--seed", "7", "--out", str(first)]) == 0
            replay = tmp_path / f"{generator}-params.json"
            replay.write_text(json.dumps(json.loads((first / "meta.json").read_text())["config"]["params"]))
            assert main(["generate", generator, "--config", str(replay), "--seed", "7", "--out", str(again)]) == 0
            for name in ("edges.csv", "truth.csv"):
                assert (first / name).read_bytes() == (again / name).read_bytes(), (generator, name)

    def test_spacetime_default_variant(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\na,b,1.0,1.0,1.0\nb,c,1.0,2.0,2.0\n")
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p,t\na,1.0,1.0\n")
        out = tmp_path / "st.csv"
        assert main(["propagate", "spacetime", "--graph", str(edges), "--obs", str(obs),
                     "--bins", "4", "--lambda", "0.7", "--out", str(out)]) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["config"]["variant"] == "coord"

    def test_repeated_cue_row_is_one_cue(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\na,b,1.0,1.0,1.0\nb,c,1.0,2.0,2.0\n")
        written = []
        for copies in (1, 2):
            obs = tmp_path / f"obs{copies}.csv"
            obs.write_text("vertex,p,t\n" + "a,1.0,0.5\n" * copies)
            out = tmp_path / f"st{copies}.csv"
            assert main(["propagate", "spacetime", "--graph", str(edges), "--obs", str(obs),
                         "--bins", "4", "--lambda", "0.7", "--variant", "coord", "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_numerical_failure_exit_code(self, tmp_path):
        out = tmp_path / "net"
        main(["generate", "sbm", "--activity", "2", "--seed", "5", "--out", str(out)])
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\n3,1.0\n")
        # an impossible tolerance cannot converge in one sweep
        rc = main(["propagate", "spatial", "--graph", str(out / "edges.csv"), "--obs", str(obs),
                   "--prior", "uniform", "--tol", "1e-30", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_validate_command(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["validate", "--level", "fast", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] and report["level"] == "fast"

    def test_spacetime_and_plot_pipeline(self, tmp_path):
        out = tmp_path / "net"
        main(["generate", "sbm", "--activity", "2", "--seed", "5", "--out", str(out)])
        # cue at a foreground vertex and one of its own interaction times
        g = read_edges(out / "edges.csv")
        truth = read_truth(out / "truth.csv", g)
        cue_edge = next(e for e in g.interactions if truth[e.u] and truth[e.v])
        labels = g.labels
        obs = tmp_path / "obs.csv"
        obs.write_text(f"vertex,p,t\n{labels[cue_edge.u]},1.0,{cue_edge.t_u!r}\n")
        st = tmp_path / "st.csv"
        rc = main(["propagate", "spacetime", "--graph", str(out / "edges.csv"), "--obs", str(obs),
                   "--bins", "24", "--lambda", "0.7", "--variant", "coord",
                   "--reduce", "max", "--out", str(st)])
        assert rc == 0
        assert st.exists() and st.with_suffix(".vertex.csv").exists()

    def test_propagate_config_file_with_flag_override(self, tmp_path):
        out = tmp_path / "net"
        main(["generate", "sbm", "--activity", "2", "--seed", "5", "--out", str(out)])
        obs = tmp_path / "obs.csv"
        obs.write_text("vertex,p\n3,1.0\n")
        cfg = tmp_path / "prop.json"
        cfg.write_text(json.dumps({"prior": {"kind": "uniform", "psi0": 0.5}, "tol": 1e-8}))
        theta = tmp_path / "a.csv"
        assert main(["propagate", "spatial", "--graph", str(out / "edges.csv"), "--obs", str(obs),
                     "--config", str(cfg), "--out", str(theta)]) == 0
        meta = json.loads(Path(str(theta) + ".meta.json").read_text())
        assert meta["config"]["prior"] == "uniform"
        assert meta["config"]["psi0"] == 0.5
        # an explicit flag beats the file
        theta2 = tmp_path / "b.csv"
        assert main(["propagate", "spatial", "--graph", str(out / "edges.csv"), "--obs", str(obs),
                     "--config", str(cfg), "--prior", "dwtp", "--out", str(theta2)]) == 0
        meta2 = json.loads(Path(str(theta2) + ".meta.json").read_text())
        assert meta2["config"]["prior"] == "dwtp"

    # One case per key of each propagate config: the file value, a different
    # flag value, and the flags under which the two give different outputs.
    @pytest.mark.parametrize("command, key, file_value, flag, flag_value, extra", [
        ("spatial", "prior.kind", "uniform", "--prior", "bfs", []),
        ("spatial", "prior.psi0", 0.5, "--psi0", "0.25", ["--prior", "uniform"]),
        ("spatial", "tol", 1e-6, "--tol", "1e-8", []),
        ("spatial", "method", "mc", "--method", "harmonic", ["--walks", "50", "--seed", "1"]),
        ("spatial", "walks", 50, "--walks", "80", ["--method", "mc", "--seed", "1"]),
        ("spatial", "seed", 3, "--seed", "4", ["--method", "mc", "--walks", "50"]),
        ("spacetime", "dt", 0.5, "--dt", "0.25", ["--lambda", "0.7"]),
        ("spacetime", "bins", 4, "--bins", "6", ["--lambda", "0.7"]),
        ("spacetime", "lambda", 0.7, "--lambda", "0.3", ["--bins", "4"]),
        ("spacetime", "variant", "weighted", "--variant", "coord", ["--bins", "4", "--lambda", "0.7"]),
        ("spacetime", "mode_default", "instant", "--mode-default", "clique", ["--bins", "4", "--lambda", "0.7"]),
        ("spacetime", "prior.kind", "uniform", "--prior", "bfs",
         ["--bins", "4", "--lambda", "0.7", "--variant", "coord-prior"]),
        ("spacetime", "tol", 1e-6, "--tol", "1e-8", ["--bins", "4", "--lambda", "0.7"]),
        ("spacetime", "reduce", "max", "--reduce", "mean", ["--bins", "4", "--lambda", "0.7"]),
    ])
    def test_propagate_config_values_are_flag_defaults(self, tmp_path, command, key, file_value, flag,
                                                       flag_value, extra):
        edges, obs = tmp_path / "edges.csv", tmp_path / "obs.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\na,b,1.0,0.5,0.5\nb,c,2.0,1.5,1.0\n"
                         "c,d,1.0,,\nd,a,1.0,3.0,3.5\n")
        obs.write_text("vertex,p,t\na,1.0,0.5\n" if command == "spacetime" else "vertex,p\na,1.0\n")
        head, _, leaf = key.partition(".")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({head: {leaf: file_value}} if leaf else {key: file_value}))

        def run(name, *args):
            out = tmp_path / name
            out.mkdir()
            # --walks and --seed are refused next to the harmonic method,
            # so the method case gives them to its mc runs only.
            flags = [] if key == "method" and "harmonic" in args else extra
            assert main(["propagate", command, "--graph", str(edges), "--obs", str(obs), *flags, *args,
                         "--out", str(out / "x.csv")]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        from_file = run("file", "--config", str(cfg))
        assert from_file == run("flag", flag, str(file_value))
        overridden = run("both", "--config", str(cfg), flag, flag_value)
        assert overridden == run("other", flag, flag_value)
        assert overridden != from_file
        meta = json.loads(from_file["x.csv.meta.json"])
        recorded = {"prior.kind": "prior", "prior.psi0": "psi0"}.get(key, key)
        if key == "seed":
            assert meta["seed"] == file_value
        elif not (command == "spacetime" and key == "prior.kind"):  # the prior is not in that record
            assert meta["config"][recorded] == file_value

    def test_experiment_hmmb_kind(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "hmmb", "gamma_fg": 24.0, "trials": 2, "seed": 3,
                                   "detectors": ["spec"]}))
        out = tmp_path / "res"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "spec" in summary["detectors"]

    def test_experiment_with_an_oversize_grid_exits_1_before_any_trial(self, tmp_path, capsys, caplog):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({**EXPERIMENT, "time_bins": 100_000_000}))
        with caplog.at_level("WARNING", logger="threatprop.experiment"):
            rc = main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "res")])
        assert rc == 1
        assert "error: time_bins" in capsys.readouterr().err
        assert not [r for r in caplog.records if "trial 0 aborted" in r.getMessage()]
        assert not (tmp_path / "res").exists()

    def test_experiment_determinism_across_threads(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"kind": "sbm", "activity": 2.0, "trials": 3, "seed": 9,
                                   "detectors": ["bfs", "spec"]}))
        outs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            rc = main(["experiment", "--config", str(cfg), "--threads", threads, "--out", str(out)])
            assert rc == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert set(outs[0]) == {"meta.json", "roc_bfs.csv", "roc_spec.csv", "roc.svg", "summary.json"}
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("command, flags, config", [
        ("spacetime", ["--dt", "0.5", "--bins", "24"], None),
        ("spacetime", ["--dt", "0.5"], {"bins": 24}),
        ("spacetime", [], {"dt": 0.5, "bins": 24}),
        ("spacetime", ["--prior", "lwtp", "--variant", "coord"], None),
        ("spacetime", ["--prior", "bfs"], None),
        ("spatial", ["--prior", "dwtp", "--psi0", "0.5"], None),
        ("spatial", ["--psi0", "0.5"], {"prior": {"kind": "bfs"}}),
        ("spatial", ["--seed", "3", "--walks", "7"], None),
        ("spatial", ["--method", "harmonic", "--walks", "7"], None),
        ("spatial", ["--seed", "3"], {"method": "harmonic"}),
    ], ids=["dt-bins", "dt-bins-in-file", "dt-bins-both-in-file", "prior-coord", "prior-default-variant",
            "psi0-dwtp", "psi0-bfs-in-file", "seed-walks-harmonic", "walks-harmonic", "seed-harmonic-in-file"])
    def test_a_flag_left_without_effect_is_refused(self, tmp_path, capsys, command, flags, config):
        # The chosen options would drop the flag, and the record would name
        # a value that nothing used.
        edges, obs = tmp_path / "edges.csv", tmp_path / "obs.csv"
        edges.write_text("src,dst,weight,t_src,t_dst\na,b,1.0,0.5,0.5\nb,c,2.0,1.5,1.0\n")
        obs.write_text("vertex,p,t\na,1.0,0.5\n" if command == "spacetime" else "vertex,p\na,1.0\n")
        args = ["propagate", command, "--graph", str(edges), "--obs", str(obs), *flags]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            args += ["--config", str(tmp_path / "cfg.json")]
        assert main([*args, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("usage error: --")
        assert list(tmp_path.glob("x.*")) == []

    @pytest.mark.parametrize("generator, flag", [("sbm", ["--activity", "9"]), ("hmmb", ["--gamma-fg", "2"])])
    def test_generate_refuses_a_shape_flag_next_to_config(self, tmp_path, capsys, generator, flag):
        # The flag tunes the default shape, which the config file replaces.
        first = tmp_path / "first"
        assert main(["generate", generator, *flag, "--seed", "3", "--out", str(first)]) == 0
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(json.loads((first / "meta.json").read_text())["config"]["params"]))
        capsys.readouterr()
        assert main(["generate", generator, "--config", str(cfg), *flag, "--seed", "3",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {flag[0]} ")
        assert not (tmp_path / "out").exists()

    def test_generate_hmmb_with_config_file(self, tmp_path):
        from threatprop.generators import default_hmmb_params, generate_hmmb
        from threatprop.io import canonical_json

        params = replace(default_hmmb_params(gamma_fg=2.0), n=64)
        raw = json.loads(canonical_json({
            "n": params.n, "communities": params.communities, "lifestyles": params.lifestyles,
            "phi": params.phi, "concentration": params.concentration,
            "block_support": params.block_support, "block_strength": params.block_strength,
            "gamma": params.gamma, "alpha": params.alpha, "lam_min": params.lam_min,
            "horizon": params.horizon, "foreground_lifestyles": list(params.foreground_lifestyles),
        }))
        cfg = tmp_path / "hmmb.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "net"
        assert main(["generate", "hmmb", "--config", str(cfg), "--seed", "13", "--out", str(out)]) == 0
        back = read_edges(out / "edges.csv")
        ref = generate_hmmb(params, seed=13)
        assert back.size == ref.graph.size

    def test_plot_from_csv(self, tmp_path):
        rng = rng_for("plotcsv")
        truth = (rng.random(80) < 0.4).astype(int)
        curve = roc(rng.random(80), truth)
        path = tmp_path / "roc_demo.csv"
        write_roc(path, curve)
        svg = tmp_path / "out.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 0
        content = svg.read_text()
        assert "demo" in content and "<polyline" in content

    @pytest.mark.parametrize("text", [
        "threshold,pfa,pd,se\ninf,0,0,0\nx,y,z,w\n-inf,1,1,0\n",  # a numeric loader reads NaN and plots nan,nan
        "",
        "threshold,pfa,pd,se\n",
        "0.9,0.2,0.7,0.1\n0.5,0.5,0.8,0.1\n-inf,1,1,0\n",  # no header: the first point would be lost
        "threshold,pfa,pd,se\ninf,0,0,0\n0.5,0.5\n",
        "threshold,pfa,pd,se\ninf,0,0,0\n0.5,0.5,0.6,0.1,7\n",
        "threshold,pfa,pd,se\ninf,0,0,0\n0.5,nan,0.6,0.1\n",
    ], ids=["non-number", "empty", "header-only", "no-header", "short-row", "long-row", "nan-pfa"])
    def test_plot_rejects_malformed_curves(self, tmp_path, capsys, text):
        path = tmp_path / "roc_bad.csv"
        path.write_text(text)
        svg = tmp_path / "out.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["plot", str(path), "--out", str(svg)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not svg.exists()

    def test_plot_takes_nan_thresholds(self, tmp_path):
        # A vertical average has no thresholds, and write_roc writes them as nan.
        path = tmp_path / "roc_avg.csv"
        path.write_text("threshold,pfa,pd,se\nnan,0.0,0.0,0.0\nnan,0.5,0.8,0.1\nnan,1.0,1.0,0.0\n")
        svg = tmp_path / "out.svg"
        assert main(["plot", str(path), "--out", str(svg)]) == 0
        assert "nan" not in svg.read_text()


class TestCliMemory:
    def test_clique_heavy_grid_of_120_bins_stays_small(self, tmp_path):
        # About 200 time cliques: as dense 120 x 120 blocks they would be 5.6M
        # entries and over 500 MB; through hubs they are 68k entries.
        rng = rng_for("cli-clique-rss")
        n, records, untimed = 200, 600, 200
        u = rng.integers(n, size=records)
        v = (u + rng.integers(1, n, size=records)) % n
        t = rng.uniform(0.0, 50.0, size=records)
        rows = [(int(a), int(b), 1.0, *((s, s) if k >= untimed else ()))
                for k, (a, b, s) in enumerate(zip(u, v, t))]
        write_edges(tmp_path / "edges.csv", build_graph(rows, n=n, labels=[f"v{i}" for i in range(n)]))
        (tmp_path / "obs.csv").write_text(f"vertex,p,t\nv{u[-1]},1.0,{float(t[-1])!r}\n")
        cmd = [sys.executable, "-m", "threatprop.cli", "propagate", "spacetime",
               "--graph", str(tmp_path / "edges.csv"), "--obs", str(tmp_path / "obs.csv"),
               "--bins", "120", "--lambda", "0.7", "--variant", "coord", "--out", str(tmp_path / "theta.csv")]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        # Linux charges the address space a child execs from to its
        # ru_maxrss, so a fresh small interpreter launches the command.
        launch = ("import os, subprocess, sys\n"
                  "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                  "_, status, usage = os.wait4(proc.pid, 0)\n"
                  "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
        proc = subprocess.run([sys.executable, "-c", launch, *cmd], env=env, capture_output=True, text=True,
                              timeout=180)
        rc, maxrss_kib = map(int, proc.stdout.split())
        assert rc == 0, proc.stderr
        assert maxrss_kib / 1024 < 200, maxrss_kib


@pytest.fixture(scope="module")
def fast_suite():
    """One unpatched run of the fast suite for the tests that only read it:
    its report, its wall time, and the messages it logged at WARNING or
    above, caught by a handler of its own since ``caplog`` lasts one test."""
    import time

    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    root = logging.getLogger()
    level = root.level
    root.addHandler(handler)
    root.setLevel(logging.WARNING)
    try:
        t0 = time.time()
        report = validate.run_suite("fast")
        seconds = time.time() - t0
    finally:
        root.removeHandler(handler)
        root.setLevel(level)
    return report, seconds, messages


class TestValidateFaultInjection:
    def test_cli_exit_code_on_validation_failure(self, monkeypatch, tmp_path):
        def broken(g, psi, obs, **kw):
            return np.full(g.n, -5.0)

        monkeypatch.setattr(validate, "_harmonic", broken)
        rc = main(["validate", "--level", "fast", "--out", str(tmp_path / "r.json")])
        assert rc == 3
        report = json.loads((tmp_path / "r.json").read_text())
        assert not report["passed"]

    def test_sign_flipped_solver_fails_maximum_principle(self, monkeypatch):
        real = validate._harmonic

        def sign_flipped(g, psi, obs, **kw):
            theta = real(g, psi, obs, **kw)
            flipped = -theta
            flipped[list(obs.vertices)] = obs.values
            return flipped

        monkeypatch.setattr(validate, "_harmonic", sign_flipped)
        report = validate.run_suite("fast")
        assert not report["passed"]
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "maximum-principle" in failed

    def test_fast_suite_under_a_minute(self, fast_suite):
        report, seconds, _ = fast_suite
        assert seconds < 60
        assert report["passed"]


class TestValidateReport:
    def test_fast_report_names_every_check_in_order(self, fast_suite):
        names = [c["name"] for c in fast_suite[0]["checks"]]
        assert names == [
            "laplacian-kernel", "fiedler-bounds-and-threshold", "maximum-principle", "maximum-principle-cut-off",
            "chain-row-stochasticity", "invariant-subspace", "invariant-subspace-cut-off", "harmonic-vs-hitting",
            "harmonic-vs-hitting-cut-off", "harmonic-vs-walks", "harmonic-vs-walks-cut-off", "degenerate-constant", "kernel-identities", "spacetime-spatial-equivalence", "roc-properties",
            "generator-block-densities", "spacetime-harmonic-vs-hitting", "spacetime-harmonic-vs-walks",
        ]

    def test_fast_suite_logs_no_warning(self, fast_suite):
        assert fast_suite[2] == []

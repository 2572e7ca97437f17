"""File formats: edge lists, observations, scores, truth, and run metadata.

Edge-list CSV header is ``src,dst,weight,t_src,t_dst``; empty time fields
denote static edges, times are real numbers in the configured units.
Vertex identifiers are strings externally and dense indices internally; the
symbol table travels with every artifact so runs are replayable.  Floats are
serialized with ``repr`` (shortest round-trip), which keeps artifacts
byte-stable across runs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .errors import GraphError, ObservationError
from .graph import Graph, Observation, ObservationSet, build_graph

EDGE_HEADER = ["src", "dst", "weight", "t_src", "t_dst"]
ROC_HEADER = ["threshold", "pfa", "pd", "se"]


def _write_csv(path, header, *columns) -> None:
    """A header row, then one row per position of the equal-length columns.

    The csv module writes a Python float with ``repr`` and ``None`` as an
    empty field, so columns are passed as ``ndarray.tolist()``.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*columns))


def _read_rows(path, error) -> list[list[str]]:
    """Every row of a CSV file; bytes that do not decode, or a field that the
    csv module refuses, raise ``error`` naming the file."""
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise error(f"{path}: cannot read the file as CSV text ({exc})") from None


def _header_names(path, header, error) -> list[str]:
    """The stripped column names of a header row; a name given twice is an
    error, since a reader by name could take only one of its columns."""
    names = [h.strip() for h in header]
    twice = sorted({name for name in names if name and names.count(name) > 1})
    if twice:
        raise error(f"{path}: column {twice[0]!r} appears twice in the header {','.join(names)}")
    return names


def _labels(g: Graph) -> np.ndarray:
    return np.asarray(g.labels or [str(i) for i in range(g.n)], dtype=object)


def write_edges(path, g: Graph) -> None:
    labels = _labels(g)
    t_u, t_v = (np.where(g.timed, t, None).tolist() for t in (g.t_u, g.t_v))
    _write_csv(path, EDGE_HEADER, labels[g.u].tolist(), labels[g.v].tolist(), g.w.tolist(), t_u, t_v)


def read_edges(path) -> Graph:
    """Load a graph, mapping string vertex ids to dense indices by first
    appearance.  An empty weight reads as 1 and empty time fields mark an
    untimed edge; a non-finite time, or a weight that is not 0 or in
    ``[graph.MIN_WEIGHT, graph.MAX_WEIGHT]`` once duplicate untimed edges
    merge, is an error that names the edge, and a self-loop is an error
    that names its vertex.  Columns are read by position, so the header must
    begin with ``src,dst,weight`` and name the time columns, if any, in the
    order ``t_src,t_dst``."""
    header, *rows = _read_rows(path, GraphError) or [[]]
    names = _header_names(path, header, GraphError)[:5]
    if len(names) < 3 or names != EDGE_HEADER[:len(names)]:
        raise GraphError(f"{path}: expected edge header {','.join(EDGE_HEADER)}")
    lines = [[c.strip() or None for c in (line + [""] * 4)[:5]] for line in rows if any(c.strip() for c in line)]
    if not lines:
        raise GraphError(f"{path}: empty graph")
    src, dst, weight, t_src, t_dst = zip(*lines)
    if None in src + dst:
        raise GraphError(f"{path}: edge row without two vertex ids")
    symbols: dict[str, int] = {}
    ends = np.array([symbols.setdefault(name, len(symbols)) for pair in zip(src, dst) for name in pair])
    loops = ends[0::2] == ends[1::2]
    if loops.any():
        raise GraphError(f"{path}: self-loop at vertex {src[int(np.argmax(loops))]}")
    try:
        return build_graph(zip(ends[0::2], ends[1::2], [x or 1.0 for x in weight], t_src, t_dst),
                           n=len(symbols), labels=list(symbols))
    except (GraphError, ValueError) as exc:
        raise GraphError(f"{path}: {exc}") from None


def resolve_vertex(g: Graph, name: str) -> int:
    """The vertex a name stands for: its label on a graph with a label table,
    else its index."""
    try:
        v = g.label_index[name] if g.labels is not None else int(name)
    except (KeyError, ValueError):
        raise ObservationError(f"unknown vertex identifier {name!r}") from None
    if not 0 <= v < g.n:
        raise ObservationError(f"vertex index {v} out of range for n={g.n}")
    return v


def read_observations(path, g: Graph) -> ObservationSet:
    """Observation CSV with named columns ``vertex``, ``p``, optional ``t``
    (in any order; an empty time broadcasts the cue over all bins)."""
    entries = []
    header, *rows = _read_rows(path, ObservationError) or [None]
    if header is None:
        raise ObservationError(f"{path}: empty observation file")
    cols = {name: i for i, name in enumerate(_header_names(path, header, ObservationError))}
    if "vertex" not in cols or "p" not in cols:
        raise ObservationError(f"{path}: expected columns vertex,p[,t], got {header}")
    t_col = cols.get("t")
    for line in rows:
        if not line or all(not c.strip() for c in line):
            continue
        try:
            v = resolve_vertex(g, line[cols["vertex"]].strip())
            p = float(line[cols["p"]])
            t_field = line[t_col].strip() if t_col is not None and len(line) > t_col else ""
            t = float(t_field) if t_field else None
        except (ValueError, IndexError) as exc:
            raise ObservationError(f"{path}: bad observation row {line}: {exc}") from None
        entries.append(Observation(v, p, t))
    return ObservationSet(tuple(entries))


def write_scores(path, g: Graph, values: np.ndarray, column: str = "theta") -> None:
    _write_csv(path, ["vertex", column], _labels(g).tolist(), np.asarray(values, dtype=float).tolist())


def write_spacetime_scores(path, g: Graph, theta_st: np.ndarray, grid) -> None:
    """One ``vertex,t,theta`` row per (vertex, bin) cell, vertex-major."""
    n, nt = theta_st.shape
    _write_csv(path, ["vertex", "t", "theta"], np.repeat(_labels(g)[:n], nt).tolist(),
               np.tile(grid.centers, n).tolist(), np.asarray(theta_st, dtype=float).ravel().tolist())


def write_truth(path, g: Graph, truth: np.ndarray) -> None:
    write_scores(path, g, truth.astype(float), column="theta")


def read_truth(path, g: Graph) -> np.ndarray:
    """Truth labels per vertex.  A row whose label the graph does not hold is
    skipped: it names a vertex isolated in a generated draw, which its edge
    list cannot carry."""
    truth = np.zeros(g.n, dtype=np.int8)
    for line in _read_rows(path, GraphError)[1:]:
        if not line or all(not c.strip() for c in line):
            continue
        name = line[0].strip()
        if g.labels is None or name in g.label_index:
            truth[resolve_vertex(g, name)] = int(float(line[1]))
    return truth


def write_roc(path, curve) -> None:
    _write_csv(path, ROC_HEADER,
               curve.thresholds.tolist(), curve.pfa.tolist(), curve.pd.tolist(), curve.se_pd.tolist())


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_jsonable)


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if hasattr(x, "__dataclass_fields__"):
        return {k: getattr(x, k) for k in x.__dataclass_fields__}
    raise TypeError(f"not JSON serializable: {type(x)}")


def config_digest(obj) -> str:
    import hashlib  # loads OpenSSL, so only a process that writes metadata pays for it

    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def write_meta(path, config: dict, seed: int | None, version: str) -> None:
    """Provenance record: resolved config, its hash, seed, toolkit version.

    Deliberately excludes wall-clock time so artifacts are byte-reproducible.
    """
    record = {
        "config": json.loads(canonical_json(config)),
        "config_digest": config_digest(config),
        "seed": seed,
        "version": version,
    }
    Path(path).write_text(canonical_json(record) + "\n")

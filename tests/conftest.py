import zlib

import numpy as np
import pytest

from threatprop.graph import Graph, build_graph, upper_pairs
from threatprop.validate import random_connected_graph


@pytest.fixture
def path3() -> Graph:
    return build_graph([(0, 1, 1), (1, 2, 1)])


def make_er(rng: np.random.Generator, n: int, p: float = 0.3, connected: bool = True) -> Graph:
    """Random graph: ``validate``'s connected draw, or with ``connected=False``
    the first draw with an edge."""
    if connected:
        return random_connected_graph(rng, n, p)
    iu, ju = upper_pairs(n)
    while True:
        hit = rng.random(iu.size) < p
        if hit.any():
            return Graph(n, iu[hit], ju[hit], np.ones(np.count_nonzero(hit)))


def rng_for(*key) -> np.random.Generator:
    ints = tuple(zlib.crc32(k.encode()) if isinstance(k, str) else int(k) for k in key)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(ints)))


def bfs_component(adj_rows: dict[int, set[int]], start: int) -> set[int]:
    """Plain queue BFS, independent of the library's connectivity code."""
    seen = {start}
    queue = [start]
    while queue:
        v = queue.pop()
        for u in adj_rows.get(v, ()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


def adjacency_sets(g: Graph) -> dict[int, set[int]]:
    rows: dict[int, set[int]] = {i: set() for i in range(g.n)}
    for e in g.interactions:
        rows[e.u].add(e.v)
        rows[e.v].add(e.u)
    return rows

import numpy as np
import pytest

from cutmetrics import Graph

CORPUS_SEED = 20250808
CORPUS_SIZE = 100


def p2():
    return Graph(2, ((1, 2, 1.0),))


def p3():
    return Graph(3, ((1, 2, 1.0), (2, 3, 1.0)))


def p4():
    return Graph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)))


def k3():
    return Graph(3, ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)))


def c4():
    return Graph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 4, 1.0)))


def diamond():
    # K4 minus the edge {1, 4}: two triangles sharing the edge {2, 3}.
    return Graph(4, ((1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)))


def star4():
    return Graph(4, ((1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)))


def clique_edges(vertices, weight=1.0):
    return [(u, v, weight) for idx, u in enumerate(vertices) for v in vertices[idx + 1 :]]


def path_edges(vertices, weight=1.0):
    return [(u, v, weight) for u, v in zip(vertices, vertices[1:])]


def complete(n):
    return Graph(n, tuple(clique_edges(range(1, n + 1))))


NAMED = {
    "p2": p2,
    "p3": p3,
    "p4": p4,
    "k3": k3,
    "c4": c4,
    "diamond": diamond,
    "star4": star4,
}


def random_multigraph(rng: np.random.Generator, tree_only: bool = False) -> Graph:
    """Random connected weighted multigraph, n <= 7, weights in [0.3, 1],
    with a chance of parallel edges and loops."""
    n = int(rng.integers(3 if tree_only else 2, 8))
    edges: list[tuple[int, int, float]] = []
    for v in range(2, n + 1):
        u = int(rng.integers(1, v))
        edges.append((u, v, _weight(rng)))
    if not tree_only:
        for _ in range(int(rng.integers(0, 4))):
            u = int(rng.integers(1, n + 1))
            v = int(rng.integers(1, n + 1))
            if u != v:
                edges.append((min(u, v), max(u, v), _weight(rng)))
    if rng.random() < 0.4:  # duplicate an existing edge: parallel instance
        u, v, _ = edges[int(rng.integers(0, len(edges)))]
        edges.append((u, v, _weight(rng)))
    if rng.random() < 0.4:
        x = int(rng.integers(1, n + 1))
        edges.append((x, x, _weight(rng)))
    return Graph(n, tuple(edges))


def _weight(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.3, 1.0))


def build_corpus(seed: int = CORPUS_SEED, count: int = CORPUS_SIZE) -> list[Graph]:
    """Deterministic test corpus; the first 30 graphs are trees (plus
    possible parallel edges and loops), which guarantees cutpoints."""
    rng = np.random.default_rng(seed)
    return [random_multigraph(rng, tree_only=(idx < 30)) for idx in range(count)]


@pytest.fixture(scope="session")
def corpus() -> list[Graph]:
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    return build_corpus(count=25)

import networkx as nx
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


def paw():
    # The triangle 1-2-3 with the pendant edge 3-4.
    return Graph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.0)))


# Checker tolerances outside [0, inf), which every checker refuses.
OUT_OF_RANGE_TOLERANCES = (float("nan"), -1.0, float("inf"))


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


def triangle_chain(count):
    """``count`` unit triangles glued in a row at cut vertices 3, 5, ...:
    triangle t spans 2t+1, 2t+2, 2t+3, so there are 2 count + 1 vertices."""
    edges = [e for t in range(count) for e in clique_edges((2 * t + 1, 2 * t + 2, 2 * t + 3))]
    return Graph(2 * count + 1, tuple(edges))


def cycle_with_chords(rng: np.random.Generator, n: int, chords: int) -> Graph:
    """A Hamiltonian cycle over a random order of vertices 1..n-2 plus
    ``chords`` distinct extra edges, which is 2-connected, and the path
    1 - (n-1) - n hung off it, so that 1 and n-1 are its cut vertices.
    Weights in [0.5, 1.5]."""
    core = n - 2
    order = rng.permutation(core) + 1
    pairs = {tuple(sorted((int(order[a]), int(order[(a + 1) % core])))) for a in range(core)}
    while len(pairs) < core + chords:
        u, v = sorted(int(x) for x in rng.integers(1, core + 1, size=2))
        if u != v:
            pairs.add((u, v))
    pairs = sorted(pairs) + [(1, n - 1), (n - 1, n)]
    return Graph(n, tuple((u, v, float(rng.uniform(0.5, 1.5))) for u, v in pairs))


def as_networkx(g):
    """``g`` as a simple networkx graph: loops dropped, parallel edges merged."""
    reference = nx.Graph()
    reference.add_nodes_from(range(1, g.n + 1))
    reference.add_edges_from((u, v) for u, v, _ in g.edges if u != v)
    return reference


def assert_blocks_match_networkx(g):
    """The blocks and cut vertices of the block-cut tree are those networkx finds."""
    from cutmetrics.graph import _block_cut_tree

    reference = as_networkx(g)
    tree = _block_cut_tree(g)
    blocks = sorted(sorted(block.tolist()) for block in tree.blocks)
    assert blocks == sorted(sorted(v - 1 for v in b) for b in nx.biconnected_components(reference)), g
    assert (tree.cut_vertices + 1).tolist() == sorted(nx.articulation_points(reference)), g


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


def sized_multigraph(rng: np.random.Generator, n: int, chords: int) -> Graph:
    """Random connected weighted multigraph of order ``n``: a random tree,
    ``chords`` extra edges, a few edges repeated in both orientations, and
    a few loops, weights in [0.3, 1]."""
    edges = [(int(rng.integers(1, v)), v, _weight(rng)) for v in range(2, n + 1)]
    for _ in range(chords):
        u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
        if u != v:
            edges.append((u, v, _weight(rng)))
    for _ in range(3):
        u, v, _ = edges[int(rng.integers(0, len(edges)))]
        edges.append((u, v, _weight(rng)))
        edges.append((v, u, _weight(rng)))
        x = int(rng.integers(1, n + 1))
        edges.append((x, x, _weight(rng)))
    rng.shuffle(edges)
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

"""Connected weighted multigraphs: parsing, matrices, the block-cut tree and the cutpoint oracle.

A graph is a frozen value object with 1-based vertex ids.  Parallel edges
and loops are kept as distinct edge instances; connectivity (ignoring
loops) is enforced at construction because every downstream computation
assumes it.  Loops contribute to the adjacency diagonal and leave the
Laplacian unchanged.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GraphInputError
from .types import DistanceMatrix

__all__ = [
    "Graph",
    "parse_graph",
    "adjacency_matrix",
    "laplacian",
    "is_cutpoint_between",
    "separation_labels",
    "shortest_path_lengths",
]


@dataclass(frozen=True)
class Graph:
    """Connected weighted multigraph with vertices ``1..n``.

    ``edges`` is a sequence of ``(u, v, w)`` triples with finite ``w > 0``;
    repeated ``(u, v)`` pairs are parallel edges and ``u == v`` is a loop.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        try:
            n = int(self.n)
        except (TypeError, ValueError, OverflowError):  # NaN, infinities, non-numbers
            n = 0
        if n != self.n or n <= 1:
            raise GraphInputError(f"vertex count must be an integer > 1, got {self.n!r}")
        object.__setattr__(self, "n", n)
        canonical = []
        for edge in self.edges:
            try:
                u, v, w = edge
                iu, iv, w = int(u), int(v), float(w)
            except (TypeError, ValueError, OverflowError):
                raise GraphInputError(f"edge must be (u, v, w) with numeric entries, got {edge!r}") from None
            if iu != u or iv != v or not (1 <= iu <= n and 1 <= iv <= n):
                raise GraphInputError(f"vertex ids must be integers in 1..{n}, got ({u!r}, {v!r})")
            if not 0.0 < w < np.inf:
                kind = "non-positive" if w <= 0.0 else "non-finite"
                raise GraphInputError(f"edge ({iu}, {iv}) has {kind} weight {w!r}")
            canonical.append((iu, iv, w))
        object.__setattr__(self, "edges", tuple(canonical))
        # Loop-free adjacency sets: only vertices on an edge hold a set, so
        # the memory follows the edges, not n.
        adj: defaultdict[int, set[int]] = defaultdict(set)
        for u, v, _ in canonical:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        reached = _bfs(adj, 1)
        if len(reached) < n:
            unreached = next(v for v in range(1, n + 1) if v not in reached)
            raise GraphInputError(f"graph is disconnected: vertex {unreached} unreachable from vertex 1")
        # Kept for the graph's searches, indexed by vertex id: an attribute,
        # not a field, so equality, hashing and repr read n and edges alone.
        # Tuples in the sets' order take a fifth of their memory.
        object.__setattr__(self, "_neighbors", tuple(tuple(adj[v]) for v in range(n + 1)))


def _bfs(adj, start: int, removed: int = 0) -> dict[int, int]:
    """Hop count from ``start`` to every vertex it reaches without entering
    ``removed`` (0, which is no vertex id, removes nothing); ``adj[v]``
    holds the neighbors of vertex id ``v``."""
    hops = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y != removed and y not in hops:
                hops[y] = hops[x] + 1
                queue.append(y)
    return hops


def parse_graph(text: str) -> Graph:
    """Parse an edge-list document into a :class:`Graph`.

    Format: ``#`` lines and blank lines are ignored; the first significant
    line is the vertex count ``n``; every following significant line is
    ``u v w`` with 1-based integer ids and a finite decimal weight ``w > 0``.
    Repeated ``u v`` lines are parallel edges, ``u u w`` is a loop.

    Raises :class:`GraphInputError` with the offending line number on
    syntax errors, and without one when the graph is disconnected.
    """
    n: int | None = None
    edges: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphInputError(f"line {lineno}: expected vertex count, got {line!r}") from None
            if n <= 1:
                raise GraphInputError(f"line {lineno}: vertex count must exceed 1, got {n}")
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GraphInputError(f"line {lineno}: expected 'u v w', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            w = float(parts[2])
        except ValueError:
            raise GraphInputError(f"line {lineno}: expected 'u v w', got {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphInputError(f"line {lineno}: vertex id out of range 1..{n}")
        if not 0.0 < w < np.inf:
            raise GraphInputError(f"line {lineno}: weight must be positive and finite, got {parts[2]}")
        edges.append((u, v, w))
    if n is None:
        raise GraphInputError("empty document: vertex count line missing")
    return Graph(n, tuple(edges))


def adjacency_matrix(g: Graph) -> np.ndarray:
    """Symmetric weighted adjacency matrix; parallel weights are summed,
    loop weights land on the diagonal."""
    u, v, w = (np.array(column) for column in zip(*g.edges))
    # Both ends of every edge in edge order, a loop's once.  bincount adds
    # in input order, so each entry rounds as in a loop over the edges.
    ends = np.column_stack((u, v)).ravel() - 1
    cells = ends * g.n + np.column_stack((v, u)).ravel() - 1
    keep = np.ones(len(cells), dtype=bool)
    keep[1::2] = u != v
    return np.bincount(cells[keep], np.repeat(w, 2)[keep], g.n * g.n).reshape(g.n, g.n)


def laplacian(g: Graph) -> np.ndarray:
    """Weighted Laplacian ``diag(A 1) - A``, its loops zeroed from ``A`` first."""
    a = adjacency_matrix(g)
    np.fill_diagonal(a, 0.0)
    return np.diag(a.sum(axis=1)) - a


def is_cutpoint_between(g: Graph, j: int, i: int, k: int) -> bool:
    """True iff every path from ``i`` to ``k`` visits ``j``.

    Endpoints contain themselves, so ``j == i`` or ``j == k`` is True.
    Otherwise ``j`` is removed and ``k`` must become unreachable from ``i``.
    """
    for v in (i, j, k):
        if not (1 <= v <= g.n):
            raise GraphInputError(f"vertex id out of range 1..{g.n}: {v}")
    if j == i or j == k:
        return True
    return k not in _bfs(g._neighbors, i, removed=j)


class _BlockCutTree(NamedTuple):
    """Blocks of a connected graph, from one depth-first search rooted at
    vertex 1; every vertex is 0-based.

    Block ``b`` is ``blocks[b]``, its head first: the vertex through which
    it hangs from the rest of the tree (vertex 0 for the blocks at the
    root).  Removing the head cuts off the branch below it through ``b``,
    whose vertices are ``order[spans[b, 0]:spans[b, 1]]`` in discovery
    order.
    """

    order: np.ndarray
    blocks: tuple[np.ndarray, ...]
    spans: np.ndarray


def _block_cut_tree(g: Graph) -> _BlockCutTree:
    """The block-cut tree by the Hopcroft-Tarjan low-point pass, O(n + m),
    with an explicit stack in place of recursion."""
    adj = g._neighbors
    found = [0] * (g.n + 1)  # discovery rank, from 1; 0 while undiscovered
    low = [0] * (g.n + 1)
    order = [1]
    trail = [1]  # discovered vertices not yet assigned to a block
    at = [0] * (g.n + 1)  # position on the trail
    found[1] = low[1] = 1
    stack = [(1, iter(adj[1]))]
    blocks, spans = [], []
    while stack:
        v, rest = stack[-1]
        for w in rest:
            if found[w]:
                low[v] = min(low[v], found[w])
            else:
                order.append(w)
                found[w] = low[w] = len(order)
                at[w] = len(trail)
                trail.append(w)
                stack.append((w, iter(adj[w])))
                break
        else:
            stack.pop()
            if not stack:
                break
            p = stack[-1][0]
            low[p] = min(low[p], low[v])
            if low[v] >= found[p]:  # p separates the subtree of v from the rest
                blocks.append(np.array([p, *trail[at[v] :]]) - 1)
                del trail[at[v] :]
                spans.append((found[v] - 1, len(order)))
    return _BlockCutTree(np.array(order) - 1, tuple(blocks), np.array(spans))


def separation_labels(g: Graph) -> np.ndarray:
    """n x n int array whose row ``j - 1`` labels every vertex by its
    component of G minus ``j``, numbered in order of their smallest
    vertex, and ``j`` itself by -1.

    ``j`` separates ``i`` from ``k`` exactly when their labels in that row
    differ or ``i == j == k``; ``j`` is an articulation point exactly when
    its row holds two labels besides -1.  Built from the block-cut tree:
    O(n + m) for the tree plus O(n^2) for writing the rows.
    """
    tree = _block_cut_tree(g)
    branches = [tree.order[start:stop] for start, stop in tree.spans]
    # The component holding vertex 1, the root, keeps label 0; the branches
    # below a head take the next labels in order of their smallest vertex.
    labels = np.zeros((g.n, g.n), dtype=int)
    next_label = {}
    for b in np.argsort([branch.min() for branch in branches]):
        head = tree.blocks[b][0]
        label = next_label.get(head, 1 if head else 0)
        next_label[head] = label + 1
        labels[head, branches[b]] = label
    np.fill_diagonal(labels, -1)
    return labels


def _separated(labels: np.ndarray, i, j, k) -> np.ndarray:
    """Whether ``j`` separates ``i`` from ``k``, elementwise over broadcast
    0-based index arrays."""
    return (labels[j, i] != labels[j, k]) | ((i == j) & (j == k))


def _separated_at(labels: np.ndarray, j: slice) -> np.ndarray:
    """``_separated`` for the pivots of the slice ``j`` over all pairs
    (i, k), as a (pivots, n, n) array indexed ``[j, i, k]``."""
    rows = labels[j]
    out = rows[:, :, None] != rows[:, None, :]
    pivots = np.arange(len(labels))[j]
    out[np.arange(len(pivots)), pivots, pivots] = True
    return out


def cutpoint_table(g: Graph) -> np.ndarray:
    """``table[j][i][k] = is_cutpoint_between(g, j, i, k)`` as an (n+1)^3
    boolean array with 1-based ids (index 0 unused), for small graphs."""
    table = np.zeros((g.n + 1,) * 3, dtype=bool)
    table[1:, 1:, 1:] = _separated_at(separation_labels(g), slice(None))
    return table


def shortest_path_lengths(g: Graph) -> DistanceMatrix:
    """Edge-count shortest-path distances (weights and loops ignored),
    by breadth-first search from every vertex."""
    adj = g._neighbors
    values = np.zeros((g.n, g.n))
    for s in range(1, g.n + 1):
        hops = _bfs(adj, s)
        values[s - 1, np.fromiter(hops, int, len(hops)) - 1] = np.fromiter(hops.values(), float, len(hops))
    return DistanceMatrix(values, "shortest")

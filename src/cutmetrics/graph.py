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
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import GraphInputError, NumericError
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
        # The u, v and w columns of the edges, kept the same way, read-only, for its matrices.
        columns = tuple(np.array(column) for column in zip(*canonical))
        for column in columns:
            column.flags.writeable = False
        object.__setattr__(self, "_edge_columns", columns)


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
    return _adjacency(g, g._edge_columns[2])


def _adjacency(g: Graph, w: np.ndarray) -> np.ndarray:
    """The adjacency matrix of ``g`` with edge instance ``e`` weighted ``w[e]``."""
    u, v, _ = g._edge_columns
    # Both ends of every edge in edge order, a loop's once.  bincount adds
    # in input order, so each entry rounds as in a loop over the edges.
    ends = np.column_stack((u, v)).ravel() - 1
    cells = ends * g.n + np.column_stack((v, u)).ravel() - 1
    keep = np.ones(len(cells), dtype=bool)
    keep[1::2] = u != v
    return np.bincount(cells[keep], np.repeat(w, 2)[keep], g.n * g.n).reshape(g.n, g.n)


def laplacian(g: Graph) -> np.ndarray:
    """Weighted Laplacian ``diag(A 1) - A``, its loops zeroed from ``A`` first.
    Raises :class:`NumericError` when a weighted degree overflows a float."""
    lap = _laplacian_of(adjacency_matrix(g))
    degrees = lap.diagonal()
    if not degrees.max() < np.inf:
        raise NumericError(f"the weighted degree of vertex {int(np.argmax(degrees)) + 1} overflows a float")
    return lap


def _laplacian_of(a: np.ndarray) -> np.ndarray:
    """``diag(A 1) - A`` of the adjacency matrix ``a``, its loops zeroed
    first, assembled in ``a``'s buffer; a degree past the float range is inf."""
    np.fill_diagonal(a, 0.0)
    with np.errstate(over="ignore"):
        degrees = a.sum(axis=1)
    # 0.0 - a, not -a, keeps the zeros positive as diag(A 1) - A has them.
    np.subtract(0.0, a, out=a)
    np.fill_diagonal(a, degrees)
    return a


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
    (i, k), as a (pivots, n, n) array indexed ``[j, i, k]``.  Only a cut
    vertex has a label above 0 in its row; any other pivot separates just
    the triples it ends, so where the slice holds no cut vertex those are
    marked without comparing labels."""
    rows = labels[j]
    pivots = np.arange(len(labels))[j]
    at = np.arange(len(pivots))
    if rows.max(initial=0) > 0:
        out = rows[:, :, None] != rows[:, None, :]
    else:
        out = np.zeros((len(pivots), len(labels), len(labels)), dtype=bool)
        out[at, pivots, :] = True
        out[at, :, pivots] = True
    out[at, pivots, pivots] = True
    return out


def cutpoint_table(g: Graph) -> np.ndarray:
    """``table[j][i][k] = is_cutpoint_between(g, j, i, k)`` as an (n+1)^3
    boolean array with 1-based ids (index 0 unused), for small graphs."""
    table = np.zeros((g.n + 1,) * 3, dtype=bool)
    table[1:, 1:, 1:] = _separated_at(separation_labels(g), slice(None))
    return table


def shortest_path_lengths(g: Graph) -> DistanceMatrix:
    """Edge-count shortest-path distances (weights and loops ignored), by
    one breadth-first search from every vertex at once.

    The search runs over the flat cells ``source * n + vertex`` of the
    output in one round per level: O(n m) work in O(diameter) array
    rounds.  Each round expands its frontier in chunks of about n^2 / 8
    neighbor entries, so that each index array a chunk needs takes about
    one byte per output cell, whatever the degrees."""
    n = g.n
    adj = g._neighbors  # loop-free, parallel edges merged
    degree = np.fromiter(map(len, adj[1:]), np.intp, n)
    neighbors = np.fromiter(chain.from_iterable(adj), np.intp, int(degree.sum()))
    neighbors -= 1
    stop = degree.cumsum()  # the end of each vertex's run in neighbors
    values = np.full(n * n, -1.0)
    # The int64 view of the output: a cell not yet reached holds -1.0,
    # whose bits are negative; a reached one holds its level, never
    # negative.  Within a chunk a new cell briefly holds the position of a
    # candidate that names it, so exactly one candidate per cell survives.
    marks = values.view(np.int64)
    frontier = np.arange(0, n * n, n + 1)
    values[frontier] = 0.0
    bound = max(n * n // 8, 4096)
    level = 0.0
    unreached = n * n - n  # the graph is connected, so every cell is reached
    while unreached:
        level += 1.0
        reached = []
        ends = degree[frontier % n]
        ends.cumsum(out=ends)
        cuts = ends.searchsorted(np.arange(bound, ends[-1], bound), side="right").tolist()
        # No vertex has more neighbors than a chunk holds, so no chunk is empty.
        for a, b in zip([0, *cuts], [*cuts, len(frontier)]):
            va = frontier[a:b] % n
            d = degree[va]
            # Entry e of the round's expansion belongs to the cell whose run
            # ends past it, and is neighbors[e - (that end - stop[vertex])].
            pos = np.arange(ends[a - 1] if a else 0, ends[b - 1])
            pos -= (ends[a:b] - stop[va]).repeat(d)
            cand = neighbors[pos]
            cand += (frontier[a:b] - va).repeat(d)
            cand = cand[marks[cand] < 0]
            stamps = np.arange(len(cand))
            marks[cand] = stamps
            cand = cand[marks[cand] == stamps]
            values[cand] = level
            reached.append(cand)
        frontier = np.concatenate(reached)
        unreached -= len(frontier)
    return DistanceMatrix(values.reshape(n, n), "shortest")

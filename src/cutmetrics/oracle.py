"""Independent brute-force references for certifying the closed-form
pipelines on small instances.

Nothing here shares traversal or factorization code with the main modules:
paths come from a recursive enumerator, walk weights from repeated matrix
powers, reliabilities from a sweep over all edge-survival states, forest
weights from explicit subset enumeration, and the long-walk distance from
Richardson extrapolation of its defining limit.  Caps fail loudly; the
oracles are exact or absent.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, NumericError, ParameterError
from .graph import Graph, _vertex, adjacency_matrix
from .measures import _cap
from .types import Path, RootedForestSummary, _integer

__all__ = [
    "enumerate_paths",
    "truncated_walk_sum",
    "long_walk_limit",
    "reliability_by_edge_states",
    "enumerate_rooted_forests",
]

PATH_VERTEX_CAP = 12
EDGE_STATE_CAP = 20
FOREST_EDGE_CAP = 20


def enumerate_paths(g: Graph, i: int, j: int, max_vertices: int = PATH_VERTEX_CAP) -> list[Path]:
    """Every simple path from ``i`` to ``j``, in lexicographic order of the
    (vertex, edge-instance) sequence.

    Parallel edges yield distinct paths; the ``i == j`` case is the single
    empty path of length 0 and weight 1.  A path weight that overflows a
    float raises :class:`NumericError`.
    """
    _cap("max_vertices", max_vertices)
    if g.n > max_vertices:
        raise CapExceededError(f"path enumeration capped at {max_vertices} vertices, graph has {g.n}")
    i, j = _vertex(g, i), _vertex(g, j)
    if i == j:
        return [Path((i,), (), 0, 1.0)]

    adj: list[list[tuple[int, int, float]]] = [[] for _ in range(g.n + 1)]
    for idx, (u, v, w) in enumerate(g.edges):
        if u != v:  # loops never lie on a simple path
            adj[u].append((v, idx, w))
            adj[v].append((u, idx, w))
    for entry in adj:
        entry.sort()

    paths: list[Path] = []
    on_path = [False] * (g.n + 1)
    on_path[i] = True
    vertices = [i]
    edge_ids: list[int] = []

    def extend(v: int, weight: float) -> None:
        for u, idx, w in adj[v]:
            if on_path[u]:
                continue
            wt = weight * w
            vertices.append(u)
            edge_ids.append(idx)
            if u == j:
                paths.append(Path(tuple(vertices), tuple(edge_ids), len(edge_ids), wt))
            else:
                on_path[u] = True
                extend(u, wt)
                on_path[u] = False
            vertices.pop()
            edge_ids.pop()

    extend(i, 1.0)
    if not all(math.isfinite(path.weight) for path in paths):
        raise NumericError(f"a path weight from {i} to {j} overflows a float")
    return paths


def truncated_walk_sum(g: Graph, t: float, k_terms: int) -> np.ndarray:
    """Partial walk-weight sum ``I + tA + ... + (tA)^K`` by repeated
    multiplication.  Converges to the full walk matrix for ``t rho < 1``
    with entrywise tail below ``(t rho)^(K+1) / (1 - t rho)``.  A
    non-finite ``t``, a ``k_terms`` that is not an integer >= 0 and a sum
    that overflows a float are refused."""
    if not math.isfinite(t):
        raise ParameterError(f"walk parameter must be finite, got {t!r}")
    terms = _integer(k_terms)
    if terms is None or terms < 0:
        raise ParameterError(f"k_terms must be an integer >= 0, got {k_terms!r}")
    acc = np.eye(g.n)
    term = np.eye(g.n)
    with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite below
        ta = t * adjacency_matrix(g)
        for _ in range(terms):
            term = term @ ta
            acc = acc + term
    if not np.isfinite(acc).all():
        raise NumericError(f"walk sum to (tA)^{terms} overflows a float at t={t!r}")
    return acc


def long_walk_limit(g: Graph, rtol: float = 1e-8, k_start: int = 2, k_max: int = 24) -> np.ndarray:
    """Long-walk distance as the limit of the scaled walk-distance quotient
    ``(ln R_ii + ln R_kk - 2 ln R_ik) / (n rho^2 (1/rho - t))``, with
    ``R = (I - tA)^-1``, as ``t`` approaches ``1/rho`` from below.

    The quotient is evaluated at ``t_k = (1 - 2^-k) / rho`` and
    Richardson-extrapolated, assuming a leading error term linear in
    ``1/rho - t``; iteration stops when two successive extrapolants agree
    to ``rtol`` relative off the diagonal.  The quotient's float-noise
    floor grows like 4^k, so on larger graphs a small ``rtol`` can be
    unreachable, and :class:`NumericError` says so.

    The limit is homogeneous of degree -1 in the edge weights, so it is
    taken on ``A`` scaled by the power of two that brings its largest entry
    into [0.5, 1), exactly, and scaled back: weights far from 1 neither
    overflow nor underflow the quotient.  Walk weights that underflow to 0,
    and a limit that overflows a float, raise :class:`NumericError`;
    an ``rtol`` outside (0, inf), a ``k_start`` that is not an integer >= 1
    and a ``k_max`` that is not an integer above it are refused before the
    first inverse.
    """
    if not 0.0 < rtol < math.inf:
        raise ParameterError(f"rtol must lie in (0, inf), got {rtol!r}")
    start, stop = _integer(k_start), _integer(k_max)
    if start is None or start < 1:
        raise ParameterError(f"k_start must be an integer >= 1, got {k_start!r}")
    if stop is None or stop <= start:
        raise ParameterError(f"k_max must be an integer above k_start, got {k_max!r}")
    n = g.n
    a = adjacency_matrix(g)
    exponent = math.frexp(a.max())[1]
    a = np.ldexp(a, -exponent)
    try:
        rho = float(np.linalg.eigvalsh(a)[-1])
    except np.linalg.LinAlgError:
        raise NumericError("long-walk limit: the eigenvalues of A did not converge") from None
    off_diag = ~np.eye(n, dtype=bool)
    previous_row: list[np.ndarray] | None = None
    change = np.inf
    for k in range(start, stop + 1):
        t = (1.0 - 2.0 ** (-k)) / rho
        r = np.linalg.inv(np.eye(n) - t * a)
        if not (r > 0.0).all():
            raise NumericError(f"long-walk limit: walk weights at t = (1 - 2^-{k}) / rho underflow to 0")
        log_r = np.log(r)
        diag = np.diag(log_r)
        row = [(diag[:, None] + diag[None, :] - 2.0 * log_r) / (n * rho**2 * (1.0 / rho - t))]
        if previous_row is not None:
            for m in range(1, len(previous_row) + 1):
                row.append(row[m - 1] + (row[m - 1] - previous_row[m - 1]) / (2.0**m - 1.0))
            scale = np.maximum(np.abs(row[-1]), 1e-30)
            change = float((np.abs(row[-1] - previous_row[-1]) / scale)[off_diag].max())
            if change < rtol:
                with np.errstate(over="ignore"):
                    limit = np.ldexp(row[-1], -exponent)
                if not np.isfinite(limit).all():
                    raise NumericError("long-walk limit overflows a float")
                return limit
        previous_row = row
    raise NumericError(
        f"long-walk extrapolation did not converge by k={stop}: last two "
        f"iterates differ by {change:.3e} relative (requested {rtol:.1e})"
    )


class _Kahan:
    """Compensated summation over a small dense table."""

    def __init__(self, n: int) -> None:
        self.sums = [[0.0] * n for _ in range(n)]
        self._comp = [[0.0] * n for _ in range(n)]

    def add(self, i: int, j: int, value: float) -> None:
        s, c = self.sums[i], self._comp[i]
        y = value - c[j]
        t = s[j] + y
        c[j] = (t - s[j]) - y
        s[j] = t


def _survival_edges(g: Graph) -> list[tuple[int, int, float]]:
    for _, _, w in g.edges:
        if not 0.0 < w <= 1.0:
            raise ParameterError(f"reliability needs edge weights in (0, 1], got {w}")
    return [(u - 1, v - 1, w) for u, v, w in g.edges if u != v]


@lru_cache(maxsize=32)
def _edge_state_table(g: Graph) -> np.ndarray:
    """All-pairs connection probabilities from the 2^m edge-state sweep."""
    edges = _survival_edges(g)
    m = len(edges)
    n = g.n
    # Survival probability of every state, built edge by edge.
    states = np.arange(1 << m)
    prob = np.ones(1 << m)
    for e, (_, _, w) in enumerate(edges):
        alive = (states >> e) & 1
        prob *= np.where(alive, w, 1.0 - w)

    acc = _Kahan(n)
    for state in range(1 << m):
        adj = [0] * n
        rest = state
        e = 0
        while rest:
            if rest & 1:
                u, v, _ = edges[e]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            rest >>= 1
            e += 1
        comp = [-1] * n
        label = 0
        for s in range(n):
            if comp[s] != -1:
                continue
            comp[s] = label
            stack = [s]
            while stack:
                x = stack.pop()
                mask = adj[x]
                while mask:
                    bit = mask & (-mask)
                    mask ^= bit
                    y = bit.bit_length() - 1
                    if comp[y] == -1:
                        comp[y] = label
                        stack.append(y)
            label += 1
        p = float(prob[state])
        for a in range(n):
            for b in range(a + 1, n):
                if comp[a] == comp[b]:
                    acc.add(a, b, p)

    table = np.ones((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            table[a, b] = table[b, a] = acc.sums[a][b]
    table.setflags(write=False)
    return table


def reliability_by_edge_states(g: Graph, i: int, j: int, max_edges: int = EDGE_STATE_CAP) -> float:
    """Probability that ``i`` and ``j`` stay connected under independent
    edge failures, summed over all 2^m survival states.

    The per-graph table is cached, so asking for every pair costs one sweep.
    """
    _cap("max_edges", max_edges)
    m = sum(1 for u, v, _ in g.edges if u != v)
    if m > max_edges:
        raise CapExceededError(f"edge-state sweep capped at {max_edges} edges, graph has {m}")
    i, j = _vertex(g, i), _vertex(g, j)
    return float(_edge_state_table(g)[i - 1, j - 1])


def enumerate_rooted_forests(g: Graph, max_edges: int = FOREST_EDGE_CAP) -> RootedForestSummary:
    """Total weights of all spanning rooted forests by subset enumeration.

    Every acyclic subset of non-loop edge instances is a spanning forest;
    each of its trees independently picks one root.  ``weights[i-1, j-1]``
    accumulates forests whose tree containing ``i`` is rooted at ``j``.
    A forest weight that overflows a float raises :class:`NumericError`.
    """
    _cap("max_edges", max_edges)
    edges = [(u - 1, v - 1, w) for u, v, w in g.edges if u != v]
    m = len(edges)
    if m > max_edges:
        raise CapExceededError(f"forest enumeration capped at {max_edges} edges, graph has {m}")
    n = g.n

    acc = _Kahan(n)
    total = 0.0
    total_comp = 0.0

    for subset in range(1 << m):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        weight = 1.0
        acyclic = True
        rest = subset
        e = 0
        while rest:
            if rest & 1:
                u, v, w = edges[e]
                ru, rv = find(u), find(v)
                if ru == rv:
                    acyclic = False
                    break
                parent[ru] = rv
                weight *= w
            rest >>= 1
            e += 1
        if not acyclic:
            continue

        members: dict[int, list[int]] = {}
        for v in range(n):
            members.setdefault(find(v), []).append(v)
        rootings = 1
        for group in members.values():
            rootings *= len(group)
        # Kahan-compensated total: f = sum of weight * rootings.
        y = weight * rootings - total_comp
        t = total + y
        total_comp = (t - total) - y
        total = t
        for group in members.values():
            cofactor = rootings // len(group)
            contribution = weight * cofactor
            for a in group:
                for b in group:
                    acc.add(a, b, contribution)

    weights = np.array(acc.sums)
    if not (math.isfinite(total) and np.isfinite(weights).all()):
        raise NumericError("a rooted-forest weight overflows a float")
    return RootedForestSummary(total_weight=total, weights=weights)

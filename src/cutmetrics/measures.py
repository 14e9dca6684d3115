"""The four transitional measures and the checker for the transition
inequality and bottleneck identity.

Each measure is a strictly positive symmetric matrix S over the vertices.
The defining property, verified by :func:`validate_transitional_measure`,
is ``S[i,j] * S[j,k] <= S[i,k] * S[j,j]`` for all triples, with equality
exactly when every path from ``i`` to ``k`` passes through ``j``.

Path and reliability values are sums over explicit simple-path
enumerations and therefore carry exhaustive-size caps that fail loudly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import CapExceededError, NumericError, ParameterError
from .graph import Graph, adjacency_matrix, cutpoint_table, laplacian
from .types import TransitionalMeasure, ValidationReport, Violation

__all__ = [
    "path_accessibility",
    "connection_reliability",
    "forest_matrix",
    "walk_matrix",
    "validate_transitional_measure",
    "find_tau_threshold",
]

PATH_VERTEX_CAP = 12
PATHS_PER_PAIR_CAP = 4096
EQUALITY_FLOOR = 1e-12


def _sorted_adjacency(g: Graph) -> list[list[tuple[int, int, float]]]:
    """Non-loop incidence lists sorted by (neighbor, edge instance)."""
    adj: list[list[tuple[int, int, float]]] = [[] for _ in range(g.n + 1)]
    for idx, (u, v, w) in enumerate(g.edges):
        if u != v:
            adj[u].append((v, idx, w))
            adj[v].append((u, idx, w))
    for entry in adj:
        entry.sort()
    return adj


@lru_cache(maxsize=64)
def _path_length_weights(g: Graph) -> list[list[list[float]]]:
    """``W[l][i-1][j-1]``: total weight of the simple i-to-j paths with
    exactly ``l`` edges, accumulated in lexicographic path order.

    The length-0 diagonal is 1 (the empty path).  Cached per graph; the
    result must not be mutated.
    """
    n = g.n
    adj = _sorted_adjacency(g)
    weights = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for source in range(1, n + 1):
        weights[0][source - 1][source - 1] = 1.0
        on_path = [False] * (n + 1)
        on_path[source] = True
        row = source - 1

        def extend(v: int, depth: int, weight: float) -> None:
            for u, idx, w in adj[v]:
                if on_path[u]:
                    continue
                wt = weight * w
                bucket = weights[depth + 1][row]
                bucket[u - 1] = bucket[u - 1] + wt
                on_path[u] = True
                extend(u, depth + 1, wt)
                on_path[u] = False

        extend(source, 0, 1.0)
    return weights


def path_accessibility(g: Graph, tau: float, max_vertices: int = PATH_VERTEX_CAP) -> TransitionalMeasure:
    """Total discounted weight of all simple paths between vertex pairs.

    A path with ``l`` edges contributes ``tau**l`` times the product of its
    edge weights; the empty path makes every diagonal entry exactly 1.
    Parallel edges count as distinct paths.  Dense graphs near the vertex
    cap are expensive: the enumeration is exhaustive by design.
    """
    if not tau > 0.0:
        raise ParameterError(f"tau must be positive, got {tau}")
    if g.n > max_vertices:
        raise CapExceededError(f"path enumeration capped at {max_vertices} vertices, graph has {g.n}")
    weights = _path_length_weights(g)
    n = g.n
    s = np.empty((n, n))
    for a in range(n):
        for b in range(n):
            value = 0.0
            for length in range(n):
                bucket = weights[length][a][b]
                if bucket != 0.0:
                    value = value + tau**length * bucket
            s[a, b] = value
    return TransitionalMeasure("path", s, {"tau": tau})


def _simple_path_edge_ids(
    g: Graph, i: int, j: int, max_paths: int = PATHS_PER_PAIR_CAP
) -> list[tuple[int, ...]]:
    """Edge-instance id sequences of every simple i-to-j path, in
    lexicographic order, via an explicit-stack traversal."""
    adj = _sorted_adjacency(g)
    found: list[tuple[int, ...]] = []
    visited = [False] * (g.n + 1)
    visited[i] = True
    stack: list[list[int]] = [[i, 0]]
    edge_trail: list[int] = []
    while stack:
        v, pointer = stack[-1]
        if pointer >= len(adj[v]):
            stack.pop()
            if stack:
                visited[v] = False
                edge_trail.pop()
            continue
        stack[-1][1] = pointer + 1
        u, idx, _ = adj[v][pointer]
        if visited[u]:
            continue
        if u == j:
            found.append(tuple(edge_trail) + (idx,))
            if len(found) > max_paths:
                raise CapExceededError(
                    f"more than {max_paths} simple paths between {i} and {j}"
                )
            continue
        visited[u] = True
        edge_trail.append(idx)
        stack.append([u, 0])
    return found


def _union_weight(mask: int, edge_weights: list[float]) -> float:
    w = 1.0
    while mask:
        bit = mask & (-mask)
        mask ^= bit
        w *= edge_weights[bit.bit_length() - 1]
    return w


def connection_reliability(g: Graph, max_paths_per_pair: int = PATHS_PER_PAIR_CAP) -> TransitionalMeasure:
    """Probability that at least one path between each vertex pair survives
    independent edge failures, the edge weights being intactness
    probabilities in (0, 1].

    Computed by inclusion-exclusion over the simple paths of each pair:
    every subset of paths contributes the signed product of the weights of
    the union of its edge sets.  Terms are grouped by identical union
    before summation, which keeps the expansion tractable on sparse
    graphs; the grouped coefficients are exact integers.
    """
    for _, _, w in g.edges:
        if not 0.0 < w <= 1.0:
            raise ParameterError(f"reliability needs edge weights in (0, 1], got {w}")
    edge_weights = [w for _, _, w in g.edges]
    n = g.n
    s = np.ones((n, n))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            masks = [
                _edge_mask(ids) for ids in _simple_path_edge_ids(g, i, j, max_paths_per_pair)
            ]
            terms: dict[int, int] = {}
            for path_mask in masks:
                updates: dict[int, int] = {path_mask: 1}
                for mask, coeff in terms.items():
                    union = mask | path_mask
                    updates[union] = updates.get(union, 0) - coeff
                for mask, coeff in updates.items():
                    merged = terms.get(mask, 0) + coeff
                    if merged:
                        terms[mask] = merged
                    else:
                        terms.pop(mask, None)
            value = math.fsum(
                coeff * _union_weight(mask, edge_weights) for mask, coeff in terms.items()
            )
            s[i - 1, j - 1] = s[j - 1, i - 1] = value
    return TransitionalMeasure("reliability", s)


def _edge_mask(edge_ids: tuple[int, ...]) -> int:
    mask = 0
    for idx in edge_ids:
        mask |= 1 << idx
    return mask


def _forest_system(g: Graph, t: float) -> np.ndarray:
    """``I + t L``: the forest matrix is ``det(I + tL) (I + tL)^-1``."""
    if not t > 0.0:
        raise ParameterError(f"edge-scale parameter must be positive, got {t}")
    return np.eye(g.n) + t * laplacian(g)


def forest_matrix(g: Graph, t: float = 1.0) -> TransitionalMeasure:
    """Matrix of spanning-rooted-forest weights with every edge weight
    scaled by ``t``, ``det(I + tL) (I + tL)^-1``.

    Entry (i, j) totals the forests whose tree containing ``i`` is rooted
    at ``j``; ``I + tL`` is always nonsingular.  Raises
    :class:`NumericError` when the determinant factor overflows a float;
    the forest distance is scale-invariant and never forms it.
    """
    m = _forest_system(g, t)
    log_det = np.linalg.slogdet(m)[1]
    inverse = linalg.invert(m)
    if not log_det + np.log(inverse.max()) < linalg.LOG_FLOAT_MAX:
        raise NumericError(
            f"det(I+tL) overflows a float (ln det = {log_det:.6g}), so the forest matrix cannot be formed; "
            "forest_distance does not need the determinant"
        )
    return TransitionalMeasure("forest", np.exp(log_det) * inverse, {"t": t})


def walk_matrix(g: Graph, t: float) -> TransitionalMeasure:
    """Walk-weight matrix ``(I - tA)^-1`` for ``0 < t < 1/rho``."""
    a = adjacency_matrix(g)
    rho = linalg._spectral_radius(a)
    if not 0.0 < t < 1.0 / rho:
        raise ParameterError(f"walk parameter must satisfy 0 < t < 1/rho = {1.0 / rho:.12g}, got {t}")
    r = linalg.invert(np.eye(g.n) - t * a)
    return TransitionalMeasure("walk", r, {"t": t})


def validate_transitional_measure(
    g: Graph, s: TransitionalMeasure, tol: float = 1e-9
) -> ValidationReport:
    """Check the transition inequality and the bottleneck identity of a
    candidate measure against the cutpoint oracle.

    For every ordered triple (i, j, k): ``S[i,j] * S[j,k]`` must not exceed
    ``S[i,k] * S[j,j]`` beyond tolerance, and must equal it (within ``tol``
    relative plus a 1e-12 floor) exactly when every i-to-k path contains
    ``j``.  All violations are reported, none raised.
    """
    if s.order != g.n:
        raise ParameterError(f"measure order {s.order} does not match graph order {g.n}")
    rows = s.matrix.tolist()
    cut = cutpoint_table(g)
    violations: list[Violation] = []
    n = g.n
    for j in range(1, n + 1):
        s_jj = rows[j - 1][j - 1]
        cut_j = cut[j]
        row_j = rows[j - 1]
        for i in range(1, n + 1):
            s_ij = rows[i - 1][j - 1]
            row_i = rows[i - 1]
            cut_ji = cut_j[i]
            for k in range(1, n + 1):
                lhs = s_ij * row_j[k - 1]
                rhs = row_i[k - 1] * s_jj
                slack = tol * (lhs if lhs > rhs else rhs) + EQUALITY_FLOOR
                expected = cut_ji[k]
                if lhs > rhs + slack:
                    violations.append(Violation(i, j, k, lhs, rhs, expected))
                elif (abs(lhs - rhs) <= slack) != expected:
                    violations.append(Violation(i, j, k, lhs, rhs, expected))
    return ValidationReport(passed=not violations, violations=tuple(violations))


def find_tau_threshold(
    g: Graph,
    precision: float = 1e-6,
    tol: float = 1e-9,
    max_vertices: int = PATH_VERTEX_CAP,
) -> float:
    """Largest path-discount ``tau`` (within ``precision``) at which the
    path measure still validates.

    Bisection between a passing and a failing sample, seeded at ``1/rho``
    and doubled until validation fails.  The validator outcome is assumed
    monotone in ``tau`` only heuristically, so the returned value is
    re-validated and a failure raises instead of returning silently.
    """
    if not precision > 0.0:
        raise ParameterError(f"precision must be positive, got {precision}")

    def passes(tau: float) -> bool:
        return validate_transitional_measure(g, path_accessibility(g, tau, max_vertices), tol).passed

    start = 1.0 / linalg._spectral_radius(adjacency_matrix(g))
    if passes(start):
        lo, hi = start, 2.0 * start
        doublings = 0
        while passes(hi):
            lo, hi = hi, 2.0 * hi
            doublings += 1
            if doublings > 60:
                raise NumericError("path measure validated at every tau up to 2^60 / rho")
    else:
        lo, hi = 0.0, start
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    if lo == 0.0:
        raise NumericError(f"path measure failed validation at every sampled tau down to {hi!r}")
    if not passes(lo):
        raise NumericError(f"non-monotone validation outcome: tau={lo!r} failed re-validation")
    return lo

"""The four transitional measures and the checker for the transition
inequality and bottleneck identity.

Each measure is a strictly positive symmetric matrix S over the vertices.
The defining property, verified by :func:`validate_transitional_measure`,
is ``S[i,j] * S[j,k] <= S[i,k] * S[j,j]`` for all triples, with equality
exactly when every path from ``i`` to ``k`` passes through ``j``.

Path and reliability values are sums over one explicit simple-path
enumeration, :func:`_simple_paths`, run once per source vertex, and
therefore carry exhaustive-size caps that fail loudly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import CapExceededError, NumericError, ParameterError
from .graph import Graph, _separated, _separated_at, adjacency_matrix, laplacian, separation_labels
from .types import TransitionalMeasure, ValidationReport

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
# Distinct edge unions kept by reliability's grouped inclusion-exclusion for
# one pair; up to 2^m of them, so a pair with few paths can still explode.
TERMS_PER_PAIR_CAP = 1 << 16


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


def _simple_paths(
    g: Graph, source: int, adj: list[list[tuple[int, int, float]]] | None = None
) -> Iterator[tuple[int, int, float, int]]:
    """Every simple path from ``source``, depth first in
    :func:`_sorted_adjacency` order, as ``(target, length, weight, edge
    mask)``: the weight is the product of the edge weights along the path,
    and bit ``e`` of the mask is set when edge instance ``e`` lies on it.
    ``adj`` is the graph's sorted adjacency, when the caller already has it."""
    adj = _sorted_adjacency(g) if adj is None else adj
    on_path = [False] * (g.n + 1)
    on_path[source] = True
    frames = [(source, iter(adj[source]), 1.0, 0)]
    while frames:
        v, edges, weight, mask = frames[-1]
        for u, idx, w in edges:
            if not on_path[u]:
                break
        else:
            on_path[v] = False
            frames.pop()
            continue
        weight *= w
        mask |= 1 << idx
        yield u, len(frames), weight, mask
        on_path[u] = True
        frames.append((u, iter(adj[u]), weight, mask))


@lru_cache(maxsize=64)
def _path_length_weights(g: Graph) -> np.ndarray:
    """``W[l, i-1, j-1]``: total weight of the simple i-to-j paths with
    exactly ``l`` edges, accumulated in lexicographic path order.

    The length-0 diagonal is 1 (the empty path).  Every prefix of a simple
    path is a simple path, so the all-zero buckets are the trailing ones,
    and they are dropped: ``l`` runs to the longest path length.  Cached
    per graph, so the array is read-only.
    """
    n = g.n
    adj = _sorted_adjacency(g)
    weights = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for row in range(n):
        weights[0][row][row] = 1.0
        for target, length, weight, _ in _simple_paths(g, row + 1, adj):
            weights[length][row][target - 1] += weight
    array = np.array(weights)
    array = array[: np.flatnonzero(array.any(axis=(1, 2)))[-1] + 1]
    array.flags.writeable = False
    return array


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
    scales = np.array([_discount(tau, length) for length in range(len(weights))])
    # Reducing over the outer axis adds each entry's buckets one at a time
    # by ascending length, one rounding per term; a zero term adds an exact
    # +0.0, so the result equals the sum of the nonzero buckets alone.
    with np.errstate(over="ignore"):  # an overflowing entry is refused as non-finite below
        s = np.add.reduce(scales[:, None, None] * weights, axis=0)
    return TransitionalMeasure("path", s, {"tau": tau})


def _discount(tau: float, length: int) -> float:
    """``tau**length`` as a finite float, or :class:`NumericError`."""
    try:
        scale = float(tau) ** length
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise NumericError(f"path discount tau**{length} overflows a float at tau={tau}")
    return scale


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
    graphs; the grouped coefficients are exact integers.  A pair whose
    expansion passes ``TERMS_PER_PAIR_CAP`` distinct unions raises
    :class:`CapExceededError` (K7 does; K6 peaks near 15,500).
    """
    for _, _, w in g.edges:
        if not 0.0 < w <= 1.0:
            raise ParameterError(f"reliability needs edge weights in (0, 1], got {w}")
    edge_weights = [w for _, _, w in g.edges]
    n = g.n
    s = np.ones((n, n))
    adj = _sorted_adjacency(g)
    for i in range(1, n + 1):
        # One traversal from i serves every pair (i, j).  A count to j < i
        # equals the (j, i) count, already held to the cap, so the pass
        # stops within (n - 1) * max_paths_per_pair paths.
        masks: list[list[int]] = [[] for _ in range(n + 1)]
        for j, _, _, path_mask in _simple_paths(g, i, adj):
            found = masks[j]
            found.append(path_mask)
            if len(found) > max_paths_per_pair:
                raise CapExceededError(f"more than {max_paths_per_pair} simple paths between {i} and {j}")
        for j in range(i + 1, n + 1):
            terms: dict[int, int] = {}
            for path_mask in masks[j]:
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
                if len(terms) > TERMS_PER_PAIR_CAP:
                    raise CapExceededError(
                        f"more than {TERMS_PER_PAIR_CAP} inclusion-exclusion terms between {i} and {j}"
                    )
            value = math.fsum(
                coeff * _union_weight(mask, edge_weights) for mask, coeff in terms.items()
            )
            s[i - 1, j - 1] = s[j - 1, i - 1] = value
    return TransitionalMeasure("reliability", s)


def _forest_system(g: Graph, t: float) -> np.ndarray:
    """``I + t L``: the forest matrix is ``det(I + tL) (I + tL)^-1``.  A ``t``
    so large that ``t L`` or the 1-norm ``linalg.invert`` takes of the
    system overflows is refused here."""
    if not t > 0.0:
        raise ParameterError(f"edge-scale parameter must be positive, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        system = np.eye(g.n) + t * laplacian(g)
        norm = np.abs(system).sum(axis=0).max()
    if not norm < np.inf:
        raise ParameterError(f"edge-scale parameter t={t!r} overflows a float in I + tL")
    return system


def _forest_inverse(g: Graph, t: float) -> TransitionalMeasure:
    """``(I + tL)^-1`` as a forest measure: the forest matrix without its
    determinant factor, which overflows on large graphs.  The log distance
    and the log-space measure check are scale-invariant, so both read it in
    place of :func:`forest_matrix`."""
    return TransitionalMeasure("forest", linalg.invert(_forest_system(g, t)), {"t": t})


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
    """Walk-weight matrix ``(I - tA)^-1`` for ``0 < t < 1/rho``.

    For ``t > 0``, ``I - tA`` is positive definite exactly when
    ``t < 1/rho``, so its Cholesky factor proves the bound and gives the
    inverse.  The spectral radius is computed only when the factorization
    or the condition check refuses, to tell a bad ``t`` from a
    near-singular system.
    """
    a = adjacency_matrix(g)
    # rho >= max(A), so a larger t fails the bound and t * A cannot overflow.
    if 0.0 < t < 1.0 / a.max():
        system = np.eye(g.n) - t * a
        factor = linalg._cholesky(system)
        if factor is not None:
            try:
                r = linalg._invert(system, factor)
            except NumericError:  # near-singular: rho below tells a bad t from a bad system
                pass
            else:
                return TransitionalMeasure("walk", r, {"t": t})
    rho = linalg._spectral_radius(a)
    if not 0.0 < t < 1.0 / rho:
        raise ParameterError(f"walk parameter must satisfy 0 < t < 1/rho = {1.0 / rho:.12g}, got {t}")
    r = linalg.invert(np.eye(g.n) - t * a)
    return TransitionalMeasure("walk", r, {"t": t})


def _gap_triples(x: np.ndarray, tests, distinct: bool, j_major: bool) -> list[np.ndarray]:
    """The kernel of every triple checker: for each pivot ``j``, the triangle
    gap ``x[i, j] + x[j, k] - x[i, k]`` as one n x n array, formed once for
    all ``tests``.

    Returns, for each test, the 0-based rows ``(i, j, k)`` where
    ``test(gap, j)`` holds, over all triples or only those with i, j, k
    distinct, ordered by ``(j, i, k)`` if ``j_major`` else by ``(i, j, k)``.
    """
    n = x.shape[0]
    other = ~np.eye(n, dtype=bool)
    hits = [[] for _ in tests]
    for j in range(n):
        gap = x[:, j, None] + x[None, j, :] - x
        for test, found in zip(tests, hits):
            bad = test(gap, j)
            if distinct:
                bad &= other
                bad[j, :] = bad[:, j] = False
            found.append(np.flatnonzero(bad))
    return [_ordered(found, n, j_major) for found in hits]


def _ordered(hits: list[np.ndarray], n: int, j_major: bool) -> np.ndarray:
    flat = np.concatenate([np.empty(0, dtype=np.intp), *hits])
    triples = np.column_stack((flat // n, np.repeat(np.arange(n), [len(h) for h in hits]), flat % n))
    return triples if j_major else triples[np.lexsort(triples.T[::-1])]


def _report(triples: np.ndarray, lhs: np.ndarray, rhs: np.ndarray, expected: np.ndarray) -> ValidationReport:
    """A report with one violation per row of 0-based ``triples``."""
    return ValidationReport._from_columns(triples + 1, lhs, rhs, expected)


def _transition_fails(gap: np.ndarray, separated: np.ndarray, tol: float) -> np.ndarray:
    """The failure rule of the measure check on the log gaps
    ``ln S_ik + ln S_jj - ln S_ij - ln S_jk = ln(rhs / lhs)``: the inequality
    is broken beyond ``tol``, or equality within ``tol`` disagrees with
    whether ``j`` separates ``i`` from ``k``."""
    return (gap < -tol) | ((np.abs(gap) <= tol) != separated)


def _transition_report(s: np.ndarray, labels: np.ndarray, tol: float) -> ValidationReport:
    """:func:`validate_transitional_measure` of the matrix ``s``, given the
    graph's :func:`separation_labels`."""
    h = np.log(s)

    def fails(kernel: np.ndarray, j: int) -> np.ndarray:
        return _transition_fails(h[j, j] - kernel, _separated_at(labels, j), tol)

    (triples,) = _gap_triples(h, [fails], distinct=False, j_major=True)
    i, j, k = triples.T
    with np.errstate(over="ignore"):  # products of huge entries may overflow; their logs do not
        return _report(triples, s[i, j] * s[j, k], s[i, k] * s[j, j], _separated(labels, i, j, k))


def _transition_test(g: Graph, tol: float):
    """The verdict of :func:`validate_transitional_measure` without its
    report: a function of a measure matrix that tests every triple in one
    broadcast pass, with the gaps of :func:`_transition_report` in the same
    float expression order.  The separation mask takes n^3 bytes."""
    idx = np.arange(g.n)
    # separated[j, i, k]: j separates i from k.
    separated = _separated(separation_labels(g), idx[None, :, None], idx[:, None, None], idx[None, None, :])

    def passes(s: np.ndarray) -> bool:
        h = np.log(s)
        gap = h.diagonal()[:, None, None] - ((h.T[:, :, None] + h[:, None, :]) - h)
        return not _transition_fails(gap, separated, tol).any()

    return passes


def validate_transitional_measure(
    g: Graph, s: TransitionalMeasure, tol: float = 1e-9
) -> ValidationReport:
    """Check the transition inequality and the bottleneck identity of a
    candidate measure against the cutpoint oracle.

    For every ordered triple (i, j, k): ``S[i,j] * S[j,k]`` must not exceed
    ``S[i,k] * S[j,j]`` beyond tolerance, and must equal it exactly when
    every i-to-k path contains ``j``.  The comparison is made in log
    space, ``|ln S_ik + ln S_jj - ln S_ij - ln S_jk| <= tol``, which is
    relative with no absolute floor, so neither tiny nor huge entries
    distort it.  Violations carry lhs = S_ij S_jk and rhs = S_ik S_jj, in
    (j, i, k) order.  All violations are reported, none raised.
    """
    if s.order != g.n:
        raise ParameterError(f"measure order {s.order} does not match graph order {g.n}")
    return _transition_report(s.matrix, separation_labels(g), tol)


def find_tau_threshold(
    g: Graph,
    precision: float = 1e-6,
    tol: float = 1e-9,
    max_vertices: int = PATH_VERTEX_CAP,
) -> float:
    """Largest path-discount ``tau`` (within ``precision``) at which the
    path measure still validates.

    Bisection between a passing and a failing sample, seeded at ``1/rho``
    and doubled until validation fails.  Each sample tests every triple in
    one vectorized pass with the failure rule of
    :func:`validate_transitional_measure`, and builds no report.  The
    validator outcome is assumed monotone in ``tau`` only heuristically, so
    the returned value is re-validated and a failure raises instead of
    returning silently.
    """
    if not precision > 0.0:
        raise ParameterError(f"precision must be positive, got {precision}")

    start = 1.0 / linalg._spectral_radius(adjacency_matrix(g))
    # The first sample raises above the vertex cap, before the mask exists.
    first = path_accessibility(g, start, max_vertices).matrix
    transitional = _transition_test(g, tol)

    def passes(tau: float) -> bool:
        return transitional(path_accessibility(g, tau, max_vertices).matrix)

    if transitional(first):
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

"""The four transitional measures and the triple checks.

Each measure is a strictly positive symmetric matrix S over the vertices.
The defining property, verified by :func:`validate_transitional_measure`,
is ``S[i,j] * S[j,k] <= S[i,k] * S[j,j]`` for all triples, with equality
exactly when every path from ``i`` to ``k`` passes through ``j``: the
triangle inequality of the log distance d, ``d_ij + d_jk - d_ik = ln(S_ik S_jj / S_ij S_jk)``.
The metric-axioms and cutpoint-additivity checks are rules on the same
gaps, and :func:`_checks` runs any of the three in one pass.

Path and reliability values are sums over explicit simple-path
enumerations: each measure runs its own pass of :func:`_simple_paths`, path
from every source vertex and reliability from every one but the last, so
both carry exhaustive-size caps that fail loudly.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import CapExceededError, NumericError, ParameterError
from .graph import Graph, _adjacency, _laplacian_of, _separated, _separated_at, adjacency_matrix, separation_labels
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
# Absolute slack the distance checks add to their relative ``tol``.
EQUALITY_FLOOR = 1e-12
# Gap entries a triple checker forms at once (at least one pivot's n x n slab):
# larger blocks make fewer calls per pivot until their buffers leave the cache.
# With one reused gap buffer, 2^15 beat 2^14 by 10% at n = 64; 2^16 lost on
# graphs rich in cut vertices.
_GAP_BLOCK = 1 << 15
# Paths whose cells and weights the length buckets hold before adding them:
# about 6 MB, where K12's 1.3e9 simple paths would take about 90 GB at once.
_PATH_CHUNK = 1 << 16


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
    g: Graph, source: int, adj: list[list[tuple[int, int, float]]]
) -> Iterator[tuple[int, int, float, int]]:
    """Every simple path from ``source``, depth first in ``adj``, the
    graph's :func:`_sorted_adjacency`, as ``(target, length, weight, edge
    mask)``: the weight is the product of the edge weights along the path,
    and bit ``e`` of the mask is set when edge instance ``e`` lies on it."""
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


@lru_cache(maxsize=1)
def _path_length_weights(g: Graph) -> np.ndarray:
    """``W[l, i-1, j-1]``: total weight of the simple i-to-j paths with
    exactly ``l`` edges, accumulated in lexicographic path order.

    The length-0 diagonal is 1 (the empty path).  Every path's flat cell
    and weight are collected in enumeration order and added by
    ``np.add.at`` a chunk of ``_PATH_CHUNK`` paths at a time, in order;
    ``np.add.at`` adds repeated cells in index order, so each entry rounds
    as in a loop over the paths, and the memory stays bounded however many
    paths a dense graph has.  Every prefix of a simple path is a
    simple path, so the all-zero buckets are the trailing ones, and they
    are dropped: ``l`` runs to the longest path length.  The last graph's
    array is cached, to carry it from a tau search to the path distance
    after it, so the array is read-only.
    """
    n = g.n
    adj = _sorted_adjacency(g)
    array = np.zeros(n * n * n)
    array[: n * n : n + 1] = 1.0  # the empty paths
    cells, weights = [], []
    with np.errstate(over="ignore"):  # a bucket past the float range is inf, refused by every sample
        for row in range(n):
            for target, length, weight, _ in _simple_paths(g, row + 1, adj):
                cells.append((length * n + row) * n + target - 1)
                weights.append(weight)
                if len(cells) == _PATH_CHUNK:
                    np.add.at(array, cells, weights)
                    cells.clear()
                    weights.clear()
        np.add.at(array, cells, weights)
    array = array.reshape(n, n, n)
    array = array[: np.flatnonzero(array.any(axis=(1, 2)))[-1] + 1]
    array.flags.writeable = False
    return array


def _path_matrix(weights: np.ndarray, tau: float) -> np.ndarray:
    """The path measure's matrix from the length buckets ``weights`` of
    :func:`_path_length_weights`: bucket ``l`` scaled by the :func:`_discount`
    ``tau**l``, summed by ascending length.  Unchecked; NaN and inf entries
    are left for the caller to refuse."""
    scales = np.array([_discount(tau, length) for length in range(len(weights))])
    # Reducing over the outer axis adds each entry's buckets one at a time
    # by ascending length, one rounding per term; a zero term adds an exact
    # +0.0, so the result equals the sum of the nonzero buckets alone.
    with np.errstate(over="ignore", invalid="ignore"):  # inf and inf * 0 are refused as non-finite
        return np.add.reduce(scales[:, None, None] * weights, axis=0)


def path_accessibility(g: Graph, tau: float, max_vertices: int = PATH_VERTEX_CAP) -> TransitionalMeasure:
    """Total discounted weight of all simple paths between vertex pairs.

    A path with ``l`` edges contributes ``tau**l`` times the product of its
    edge weights; the empty path makes every diagonal entry exactly 1.
    Parallel edges count as distinct paths.  Dense graphs near the vertex
    cap are expensive: the enumeration is exhaustive by design.
    """
    if not tau > 0.0:
        raise ParameterError(f"tau must be positive, got {tau}")
    _cap("max_vertices", max_vertices)
    if g.n > max_vertices:
        raise CapExceededError(f"path enumeration capped at {max_vertices} vertices, graph has {g.n}")
    return TransitionalMeasure("path", _path_matrix(_path_length_weights(g), tau), {"tau": tau})


def _cap(name: str, cap: float) -> None:
    """Refuse an exhaustive-size cap that is not at least 1: a NaN one
    would pass every size test and switch the cap off."""
    if not cap >= 1:
        raise ParameterError(f"{name} must be at least 1, got {cap!r}")


def _discount(tau: float, length: int) -> float:
    """``tau**length`` as a finite float, or :class:`NumericError`."""
    # Scalar ``**``, not ``np.power``, which would move thresholds: on an
    # AVX-512 host the two differ in 11,742 of 260,000 discounts (20,000
    # taus uniform in (0, 1), lengths 0 to 12).
    try:
        scale = float(tau) ** length
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise NumericError(f"path discount tau**{length} overflows a float at tau={tau}")
    return scale


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
    :class:`CapExceededError` (K7 does; K6 peaks near 15,500), and the
    first pair whose reliability underflows to 0 raises
    :class:`NumericError`.
    """
    _cap("max_paths_per_pair", max_paths_per_pair)
    for _, _, w in g.edges:
        if not 0.0 < w <= 1.0:
            raise ParameterError(f"reliability needs edge weights in (0, 1], got {w}")
    edge_weights = [w for _, _, w in g.edges]
    # The product of the weights of every edge union met in this call: that
    # of the union without its highest edge times that edge's weight, the
    # ascending left-to-right product, so a union met again is one lookup.
    products = {0: 1.0}

    def weighted(terms: dict[int, int]) -> Iterator[float]:
        """Each grouped term, its coefficient times its union's product."""
        for mask, coeff in terms.items():
            product = products.get(mask)
            if product is None:
                missing, prefix = [], mask
                while product is None:
                    missing.append(prefix)
                    prefix ^= 1 << (prefix.bit_length() - 1)
                    product = products.get(prefix)
                for prefix in reversed(missing):
                    product = products[prefix] = product * edge_weights[prefix.bit_length() - 1]
            yield coeff * product

    n = g.n
    s = np.ones((n, n))
    adj = _sorted_adjacency(g)
    for i in range(1, n):
        # One traversal from i records every pair (i, j > i); the last source
        # has none.  A count to j < i equals the (j, i) count, already held
        # to the cap, so a pass stops within (n - 1) * max_paths_per_pair paths.
        masks: list[list[int]] = [[] for _ in range(n + 1)]
        for j, _, _, path_mask in _simple_paths(g, i, adj):
            if j > i:
                masks[j].append(path_mask)
                if len(masks[j]) > max_paths_per_pair:
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
            value = math.fsum(weighted(terms))
            if not value > 0.0:
                raise NumericError(f"reliability between {i} and {j} underflows to {value!r}")
            s[i - 1, j - 1] = s[j - 1, i - 1] = value
    return TransitionalMeasure("reliability", s)


def _forest_system(g: Graph, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``I + t L``, built in one buffer, and its inverse: the forest matrix
    is ``det(I + tL) (I + tL)^-1``.  ``t`` scales each edge weight before
    assembly, so a small ``t`` gives a finite system wherever every ``t w``
    is.  A ``t`` that overflows ``t L`` or the system's 1-norm is refused,
    and so is one that leaves the system too ill-conditioned to invert,
    with a message that names ``t``: the condition grows like ``t`` times
    the largest Laplacian eigenvalue.  The system is finite past the norm
    test and exactly symmetric, so it goes to the positive-definite
    inverse without :func:`linalg.invert`'s entry checks."""
    if not t > 0.0:
        raise ParameterError(f"edge-scale parameter must be positive, got {t}")
    with np.errstate(over="ignore"):
        system = _laplacian_of(_adjacency(g, t * g._edge_columns[2]))
        system.flat[:: g.n + 1] += 1.0
        norm = np.linalg.norm(system, 1)
    if not norm < np.inf:
        raise ParameterError(f"edge-scale parameter t={t!r} overflows a float in I + tL")
    try:
        return system, linalg._invert(system, linalg._pd_inverse(system), norm)
    except NumericError as exc:
        raise NumericError(f"edge-scale parameter t={t!r} leaves I + tL too ill-conditioned to invert: {exc}") from None


def _forest_inverse(g: Graph, t: float) -> TransitionalMeasure:
    """``(I + tL)^-1`` as a forest measure: the forest matrix without its
    determinant factor, which overflows on large graphs.  The log distance
    and the log-space measure check are scale-invariant, so both read it in
    place of :func:`forest_matrix`."""
    return TransitionalMeasure("forest", _forest_system(g, t)[1], {"t": t})


def forest_matrix(g: Graph, t: float = 1.0) -> TransitionalMeasure:
    """Matrix of spanning-rooted-forest weights with every edge weight
    scaled by ``t``, ``det(I + tL) (I + tL)^-1``.

    Entry (i, j) totals the forests whose tree containing ``i`` is rooted
    at ``j``; ``I + tL`` is always nonsingular.  Raises
    :class:`NumericError` when the determinant factor overflows a float;
    the forest distance is scale-invariant and never forms it.
    """
    m, inverse = _forest_system(g, t)
    log_det = np.linalg.slogdet(m)[1]
    if not log_det + np.log(inverse.max()) < linalg.LOG_FLOAT_MAX:
        raise NumericError(
            f"det(I+tL) overflows a float (ln det = {log_det:.6g}), so the forest matrix cannot be formed; "
            "forest_distance does not need the determinant"
        )
    return TransitionalMeasure("forest", np.exp(log_det) * inverse, {"t": t})


def walk_matrix(g: Graph, t: float) -> TransitionalMeasure:
    """Walk-weight matrix ``(I - tA)^-1`` for ``0 < t < 1/rho``.

    For ``t > 0``, ``I - tA`` is positive definite exactly when
    ``t < 1/rho``.  ``linalg._pd_inverse`` inverts it by a
    Schur-complement recursion that finishes only when every leaf
    Cholesky factorization succeeds; by Haynsworth inertia additivity
    that proves positive definiteness, so the inverse both proves the
    bound and is the result.  The spectral radius is computed only when
    the recursion or the condition check refuses, to tell a bad ``t`` from
    a near-singular system.
    """
    system = adjacency_matrix(g)
    inverse = None
    # rho >= max(A), so a larger t fails the bound and t * A cannot overflow;
    # the product, unlike 1 / max(A), stays finite at subnormal weights.
    if t > 0.0 and t * float(system.max()) < 1.0:
        # I - tA in the adjacency's buffer: -t * a rounds as 0.0 - t * a does,
        # and the sign of a zero changes no nonzero entry of the inverse.
        system *= -t
        system.flat[:: g.n + 1] += 1.0
        inverse = linalg._pd_inverse(system)
        if inverse is not None:
            try:
                return TransitionalMeasure("walk", linalg._invert(system, inverse, np.linalg.norm(system, 1)), {"t": t})
            except NumericError:  # near-singular: rho below tells a bad t from a bad system
                pass
    a = adjacency_matrix(g)  # the buffer above may hold I - tA by now
    rho = linalg._spectral_radius(a)
    if not 0.0 < t < 1.0 / rho:
        raise ParameterError(f"walk parameter must satisfy 0 < t < 1/rho = {1.0 / rho:.12g}, got {t}")
    # A positive-definite inverse repeats its O(n^2) condition refusal; LU inverts the rest.
    system = np.eye(g.n) - t * a
    return TransitionalMeasure("walk", linalg._invert(system, inverse, np.linalg.norm(system, 1)), {"t": t})


def _gaps(x: np.ndarray, j: slice, out: np.ndarray) -> np.ndarray:
    """The triangle gaps ``(x[i, j] + x[j, k]) - x[i, k]`` for the pivots
    of the slice ``j``, as an array indexed ``[j, i, k]``, written into
    ``out``."""
    out = np.add(x.T[j, :, None], x[j, None, :], out=out)
    out -= x
    return out


def _tolerance(tol: float) -> float:
    """A checker's ``tol``, refused unless it lies in [0, inf)."""
    if not 0.0 <= tol < math.inf:
        raise ParameterError(f"tolerance must lie in [0, inf), got {tol!r}")
    return tol


def _log_distance(s: np.ndarray) -> np.ndarray:
    """The log distance ``(ln S_ii + ln S_jj - ln S_ij - ln S_ji) / 2`` of a
    positive matrix ``s``, as an array."""
    h = np.log(s)
    diag = h.diagonal()
    # ((ln S_ii + ln S_jj) - ln S_ij) - ln S_ji, then halved, in one buffer.
    out = np.add.outer(diag, diag)
    out -= h
    out -= h.T
    out *= 0.5
    return out


def _transition_fails(
    gap: np.ndarray, separated: np.ndarray, tol: float, out: tuple = (None, None, None)
) -> np.ndarray:
    """The measure check's failure rule on the :func:`_gaps` of its log distance,
    ``ln(rhs / lhs)``: below ``-tol``, or equal within ``tol`` where the
    :func:`_separated_at` mask says otherwise.  ``out`` holds the buffers of
    ``|gap|`` (``gap`` itself may serve) and of the two flag arrays, the
    first of which is returned; a ``None`` is allocated."""
    magnitude, fails, equal = out
    fails = np.less(gap, -tol, out=fails)
    equal = np.less_equal(np.abs(gap, out=magnitude), tol, out=equal)
    np.not_equal(equal, separated, out=equal)
    return np.logical_or(fails, equal, out=fails)


@lru_cache(maxsize=1)
def _separation_mask(g: Graph) -> np.ndarray:
    """The :func:`_separated_at` mask of every pivot of ``g``, n^3 bytes.
    The last graph's mask is cached, since the tau search and then
    :func:`cutmetrics.distances.path_distance` test one graph many times,
    so the array is read-only."""
    mask = _separated_at(separation_labels(g), slice(None))
    mask.flags.writeable = False
    return mask


def _transition_test(g: Graph, tol: float):
    """:func:`validate_transitional_measure` without its report: a function
    of a measure's log distance that counts the failing triples, with all
    pivots in one block.  The gap and the two flag arrays, n^3 entries each,
    are allocated once here and rewritten by every call."""
    separated = _separation_mask(g)
    gaps = np.empty(separated.shape)
    fails, equal = np.empty_like(separated), np.empty_like(separated)

    def failures(x: np.ndarray) -> int:
        gap = _gaps(x, slice(None), gaps)
        return int(np.count_nonzero(_transition_fails(gap, separated, tol, (gap, fails, equal))))

    return failures


def _slack(tol: float, v: np.ndarray) -> np.ndarray:
    """``tol * v + EQUALITY_FLOOR``, the slack of a comparison relative to
    ``v``.  Past the float range it is inf, the limit the rule means, so a
    huge ``tol`` does not warn."""
    with np.errstate(over="ignore"):
        return tol * v + EQUALITY_FLOOR


def _checks(x: np.ndarray, labels, tol: float, names, s: TransitionalMeasure | None = None) -> list[ValidationReport]:
    """The reports of the checks ``names``, in that order, from one pass
    over the triangle gaps of the finite distance array ``x``:
    ``"transitional-measure"`` of the measure ``s`` whose log distance is
    ``x``, ``"metric-axioms"`` and ``"cutpoint-additivity"``.  ``labels``
    are the graph's :func:`separation_labels`; the axioms need none.

    The :func:`_gaps` of one block slice of pivots are formed once for
    every check.  A triple can fail only where its gap is at most
    :func:`_screen_bound` or its pivot separates it, so the failure rules
    run on those triples alone, gathered in order.  The measure check
    reports its triples in ``(j, i, k)`` order; the other two report the
    triples of distinct vertices in ``(i, j, k)`` order, sorted as the one
    key ``(i * n + j) * n + k``."""
    n = x.shape[0]
    slack = _slack(tol, np.abs(x)) if "cutpoint-additivity" in names else None
    # Each rule reads a gathered triple's gap, separation and flat (i, k) index.
    rules = {
        "transitional-measure": lambda gap, separated, ik: _transition_fails(gap, separated, tol),
        "metric-axioms": lambda gap, separated, ik: -gap > _slack(tol, x.take(ik) + gap),
        "cutpoint-additivity": lambda gap, separated, ik: (np.abs(gap) <= slack.take(ik)) != separated,
    }
    bound = _screen_bound(x, tol, names, slack)
    step = max(1, _GAP_BLOCK // max(1, n * n))
    gaps, keep = np.empty((min(step, n), n, n)), np.empty((min(step, n), n, n), dtype=bool)
    hits = [[np.empty(0, dtype=np.intp)] for _ in names]
    # Sums past the float range are +-inf, and tol = 0 times inf is NaN: the
    # rules and the reports read them as the limits they stand for.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, step):
            block = slice(start, start + step)
            gap = _gaps(x, block, gaps[: min(step, n - start)])
            kept = np.less_equal(gap, bound, out=keep[: len(gap)])
            separated = None if labels is None else _separated_at(labels, block)
            if separated is not None:
                kept |= separated
            at = np.flatnonzero(kept)
            gap, ik = gap.ravel()[at], at % (n * n)
            separated = None if separated is None else separated.ravel()[at]
            for name, found in zip(names, hits):
                found.append(start * n * n + at[rules[name](gap, separated, ik)])
        del gaps, keep  # released before the reports' own n^2 arrays
        reports = []
        for name, found in zip(names, hits):
            j, i, k = np.unravel_index(np.concatenate(found), (n, n, n))
            if name == "transitional-measure":
                m = s.matrix
                columns = np.column_stack((i, j, k)), m[i, j] * m[j, k], m[i, k] * m[j, j], _separated(labels, i, j, k)
            else:
                key = ((i * n + j) * n + k)[(i != j) & (j != k) & (i != k)]
                i, j, k = np.unravel_index(np.sort(key), (n, n, n))
                triples = np.column_stack((i, j, k))
                if name == "metric-axioms":
                    columns = _axioms_columns(x, tol, triples)
                else:
                    columns = triples, x[i, j] + x[j, k], x[i, k], _separated(labels, i, j, k)
            reports.append(ValidationReport._from_columns(*columns))
    return reports


def _screen_bound(x: np.ndarray, tol: float, names, slack: np.ndarray | None) -> float:
    """The largest gap at which a triple whose pivot does not separate it
    can fail one of the checks ``names`` on the finite ``x``; ``slack`` is
    the additivity check's.  Where the pivot does not separate, the rules
    fail as follows, so a gap above the bound fails none, a +inf one past
    the float range included:

    - the measure check only where ``gap < -tol`` or ``|gap| <= tol``,
      so at ``gap <= tol``;
    - the additivity check only where ``|gap| <= slack[i, k]``, so at
      ``gap <= slack.max()``;
    - the axioms only where ``-gap > tol * (x[i, k] + gap) + EQUALITY_FLOOR``.
      When every entry of ``x`` is at least 0, a ``gap >= 0`` makes the
      right side positive (or inf, or NaN at ``tol = 0``), so only
      ``gap < 0`` fails.  Otherwise no gap is safe: inf.
    """
    bounds = []
    if "transitional-measure" in names:
        bounds.append(tol)
    if "metric-axioms" in names:
        bounds.append(0.0 if x.min(initial=0.0) >= 0.0 else math.inf)
    if "cutpoint-additivity" in names:
        bounds.append(float(slack.max(initial=0.0)))
    return max(bounds)


def _axioms_columns(v: np.ndarray, tol: float, triangle: np.ndarray) -> tuple[np.ndarray, ...]:
    """The columns of the metric-axioms report of ``v``, triples 0-based: its
    diagonal, symmetry and positivity failures, then its failing ``triangle`` triples."""
    diag = np.diag(v)
    loops = np.flatnonzero(np.abs(diag) > EQUALITY_FLOOR)
    upper, lower = np.triu_indices(len(v), 1)
    a, b = v[upper, lower], v[lower, upper]
    asymmetric = np.abs(a - b) > _slack(tol, np.maximum(np.abs(a), np.abs(b)))
    pair, kind = np.nonzero(np.column_stack((asymmetric, ~(a > 0.0))))  # per pair, symmetry first
    symmetry = kind == 0
    i, j, k = triangle.T
    return (
        np.concatenate((np.repeat(loops, 3).reshape(-1, 3), np.column_stack((upper, lower, upper))[pair], triangle)),
        np.concatenate((diag[loops], a[pair], v[i, k])),
        np.concatenate((np.zeros(len(loops)), np.where(symmetry, b[pair], 0.0), v[i, j] + v[j, k])),
        np.concatenate((np.ones(len(loops), dtype=bool), symmetry, np.zeros(len(triangle), dtype=bool))),
    )


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
    distort it; read as the triangle gap of the log distance, it judges
    ln S symmetrized, as the distance does.  Violations carry lhs = S_ij S_jk
    and rhs = S_ik S_jj, in (j, i, k) order.  All are reported, none raised.
    """
    if s.order != g.n:
        raise ParameterError(f"measure order {s.order} does not match graph order {g.n}")
    _tolerance(tol)
    return _checks(_log_distance(s.matrix), separation_labels(g), tol, ["transitional-measure"], s)[0]


def find_tau_threshold(
    g: Graph,
    precision: float = 1e-6,
    tol: float = 1e-9,
    max_vertices: int = PATH_VERTEX_CAP,
) -> float:
    """Largest path-discount ``tau`` (within ``precision``) at which the
    path measure still validates.

    The bracket starts at ``(0, 1/rho]`` and doubles its upper end while
    that end validates, then bisects between the last passing and the first
    failing sample until the bracket is no wider than ``precision`` or no
    float lies strictly inside it.  Each sample tests every triple in one
    vectorized pass with the failure rule of
    :func:`validate_transitional_measure`, and builds no report.  The
    returned ``tau`` is a sample that validated; the outcome is assumed
    monotone in ``tau`` only heuristically.

    The first sample is :func:`path_accessibility`; every later one is its
    :func:`_path_matrix`, refused only where an entry is not finite and
    positive, as the log distance needs.  The returned ``tau`` is built by
    :func:`path_accessibility` once more, so its measure is checked for
    symmetry and a unit diagonal as every measure is.
    """
    if not precision > 0.0:
        raise ParameterError(f"precision must be positive, got {precision}")
    _tolerance(tol)
    _cap("max_vertices", max_vertices)

    start = 1.0 / linalg._spectral_radius(adjacency_matrix(g))
    lo, hi = 0.0, start
    # The first sample raises above the vertex cap, before the mask exists.
    s = path_accessibility(g, hi, max_vertices).matrix
    weights = _path_length_weights(g)

    def sample(tau: float) -> np.ndarray:
        m = _path_matrix(weights, tau)
        if not (m.min() > 0.0 and m.max() < np.inf):
            raise NumericError("path measure has non-positive or non-finite entries")
        return m

    failures = _transition_test(g, tol)
    while not failures(_log_distance(s)):
        if hi > 2.0**60 * start:
            raise NumericError("path measure validated at every tau up to 2^60 / rho")
        lo, hi = hi, 2.0 * hi
        s = sample(hi)
    while hi - lo > precision and lo < (mid := 0.5 * (lo + hi)) < hi:
        if failures(_log_distance(sample(mid))):
            hi = mid
        else:
            lo = mid
    if lo == 0.0:
        raise NumericError(f"path measure failed validation at every sampled tau down to {hi!r}")
    path_accessibility(g, lo, max_vertices)
    return lo


"""Property tests of the checkers (vertex relabeling, gluing at a vertex), of
the measure checks, and of the limits that connect the distance families."""

from itertools import pairwise

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from cutmetrics import (
    DistanceMatrix,
    Graph,
    NumericError,
    TransitionalMeasure,
    adjacency_matrix,
    check_cutpoint_additivity,
    check_metric_axioms,
    connection_reliability,
    find_tau_threshold,
    forest_distance,
    forest_matrix,
    is_cutpoint_between,
    log_distance,
    long_walk_distance,
    path_accessibility,
    reliability_by_edge_states,
    resistance_distance,
    separation_labels,
    shortest_path_lengths,
    spectral_data,
    validate_transitional_measure,
    walk_distance,
    walk_matrix,
)

from cutmetrics.distances import LONG_WALK_RTOL
from cutmetrics.types import MEASURE_KINDS, _symmetric

from conftest import as_networkx, assert_blocks_match_networkx

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def connected_graphs(draw, min_n=2, max_n=7):
    """Random spanning tree plus a few chords, weights in [0.3, 0.95]
    (below 1 so that the reliability measure is not degenerate)."""
    n = draw(st.integers(min_n, max_n))
    weight = st.floats(0.3, 0.95)
    edges = [(draw(st.integers(1, v - 1)), v, draw(weight)) for v in range(2, n + 1)]
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(1, n)), draw(st.integers(1, n))
        if u != v and all({u, v} != {a, b} for a, b, _ in edges):
            edges.append((u, v, draw(weight)))
    return Graph(n, tuple(edges))


def _relabel(g, perm):
    """``perm[v - 1]`` is the new id of vertex ``v``."""
    return Graph(g.n, tuple((perm[u - 1], perm[v - 1], w) for u, v, w in g.edges))


def _permuted(matrix, perm):
    out = np.empty_like(matrix)
    idx = np.asarray(perm) - 1
    out[np.ix_(idx, idx)] = matrix
    return out


def _mapped(report, perm):
    return sorted(
        (perm[v.i - 1], perm[v.j - 1], perm[v.k - 1], v.lhs, v.rhs, v.expected_equal) for v in report.violations
    )


def _as_tuples(report):
    return sorted((v.i, v.j, v.k, v.lhs, v.rhs, v.expected_equal) for v in report.violations)


@PROPERTY_SETTINGS
@given(g=connected_graphs(min_n=3), data=st.data())
def test_relabeling_permutes_reports(g, data):
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    h = _relabel(g, perm)
    rho = spectral_data(adjacency_matrix(g)).rho
    # A path measure past its threshold and shortest path give violations
    # in both directions; symmetric noise on the forest distance breaks
    # the triangle inequality.
    measure = path_accessibility(g, 2.0 / rho)
    moved = TransitionalMeasure("path", _permuted(measure.matrix, perm))
    noise = np.random.default_rng(g.n).uniform(0.5, 1.5, (g.n, g.n))
    noisy = DistanceMatrix(forest_distance(g).values * (noise + noise.T) / 2.0, "noisy")
    shortest = shortest_path_lengths(g)

    before = [
        validate_transitional_measure(g, measure),
        check_cutpoint_additivity(g, shortest),
        check_metric_axioms(noisy),
    ]
    after = [
        validate_transitional_measure(h, moved),
        check_cutpoint_additivity(h, DistanceMatrix(_permuted(shortest.values, perm), "shortest")),
        check_metric_axioms(DistanceMatrix(_permuted(noisy.values, perm), "noisy")),
    ]
    for old, new in zip(before, after):
        assert new.passed == old.passed
        assert _as_tuples(new) == _mapped(old, perm)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=connected_graphs(), data=st.data())
def test_relabeling_permutes_reliability_bit_for_bit(g, data):
    # Relabeling keeps the edge order, so every pair keeps its path masks,
    # their union products and the multiset its fsum adds; only the order
    # in which they are met changes.
    perm = data.draw(st.permutations(range(1, g.n + 1)))
    moved = connection_reliability(_relabel(g, perm)).matrix
    assert moved.tobytes() == _permuted(connection_reliability(g).matrix, perm).tobytes()


@st.composite
def glued_graphs(draw):
    """``(g, a, left_side, right_side)``: two connected graphs glued at the
    vertex ``a``, and the vertices of each side apart from ``a``."""
    left, right = draw(connected_graphs(max_n=4)), draw(connected_graphs(max_n=4))
    a = draw(st.integers(1, left.n))
    b = draw(st.integers(1, right.n))
    # Right-hand vertex b becomes a; the others follow the left vertices.
    others = [v for v in range(1, right.n + 1) if v != b]
    new_id = {b: a, **{v: left.n + 1 + idx for idx, v in enumerate(others)}}
    g = Graph(left.n + len(others), left.edges + tuple((new_id[u], new_id[v], w) for u, v, w in right.edges))
    return g, a, [v for v in range(1, left.n + 1) if v != a], [new_id[v] for v in others]


@PROPERTY_SETTINGS
@given(glued=glued_graphs())
def test_gluing_at_a_vertex_makes_it_separate_and_all_families_additive(glued):
    g, a, left_side, right_side = glued
    side = separation_labels(g)[a - 1]
    assert not set(side[[v - 1 for v in left_side]]) & set(side[[v - 1 for v in right_side]])
    for i in left_side:
        for k in right_side:
            assert is_cutpoint_between(g, a, i, k)

    rho = spectral_data(adjacency_matrix(g)).rho
    families = {
        "path": path_accessibility(g, find_tau_threshold(g, precision=1e-4) / 2.0),
        "reliability": connection_reliability(g),
        "forest": forest_matrix(g),
        "walk": walk_matrix(g, 0.5 / rho),
    }
    for name, measure in families.items():
        report = check_cutpoint_additivity(g, log_distance(measure))
        assert report.passed, (name, report.violations[:3])


@PROPERTY_SETTINGS
@given(glued=glued_graphs())
def test_reliability_on_glued_graphs_matches_edge_states_and_factors_at_a_cut_vertex(glued):
    # A pair that one vertex j alone separates has a block on either side
    # of j, and its value is the product of the two, bit for bit.
    g = glued[0]
    r = connection_reliability(g).matrix
    for i in range(1, g.n + 1):
        for k in range(i + 1, g.n + 1):
            assert abs(r[i - 1, k - 1] - reliability_by_edge_states(g, i, k)) <= 1e-12
            inner = [j for j in range(1, g.n + 1) if j not in (i, k) and is_cutpoint_between(g, j, i, k)]
            if len(inner) == 1:
                j = inner[0]
                assert r[i - 1, k - 1] == r[i - 1, j - 1] * r[j - 1, k - 1]


@PROPERTY_SETTINGS
@given(glued=glued_graphs())
def test_block_cut_tree_matches_networkx_on_glued_graphs(glued):
    g, a, left_side, right_side = glued
    assert_blocks_match_networkx(g)
    if left_side and right_side:
        assert separation_labels(g)[a - 1].max() >= 1


@st.composite
def near_symmetric_matrices(draw):
    """Positive matrices whose upper entries sit within a few ulps of the
    edge of ``allclose(m, m.T, rtol=1e-9, atol=1e-12)``, above or below the
    mirrored entry."""
    n = draw(st.integers(1, 5))
    magnitude = st.floats(1e-300, 1e300) | st.floats(1e-14, 1e-10)
    m = np.array([[draw(magnitude) for _ in range(n)] for _ in range(n)])
    for i in range(n):
        for k in range(i + 1, n):
            base = m[k, i]
            value = base + draw(st.sampled_from([-1.0, 1.0])) * (1e-12 + 1e-9 * base)
            toward = draw(st.sampled_from([0.0, np.inf]))
            for _ in range(draw(st.integers(0, 3))):
                value = np.nextafter(value, toward)
            if draw(st.booleans()) and value > 0.0:
                m[i, k] = value
    return m


@settings(max_examples=100, deadline=None, derandomize=True)
@given(m=near_symmetric_matrices())
def test_symmetry_check_decides_as_allclose(m):
    assert _symmetric(m) == np.allclose(m, m.T, rtol=1e-9, atol=1e-12)


def test_symmetry_quick_pass_decides_as_allclose():
    # One pair sits within a few ulps of its own bound, beside entries of
    # the same size (the quick pass at the smallest entry decides) or far
    # larger (it must leave the decision to the entrywise test).
    decided = set()
    for small in (1e-14, 0.5, 3.7e10):
        for big in (small, 1e6 * small):
            edge = small + (1e-12 + 1e-9 * small)
            for steps in range(-2, 3):
                m = np.full((3, 3), big)
                m[2, 0] = small
                m[0, 2] = edge
                for _ in range(abs(steps)):
                    m[0, 2] = np.nextafter(m[0, 2], np.sign(steps) * np.inf)
                expected = np.allclose(m, m.T, rtol=1e-9, atol=1e-12)
                assert _symmetric(m) == expected, (small, big, steps)
                decided.add(expected)
    assert decided == {True, False}


def _measure_refusal(kind, m):
    """The checks of ``TransitionalMeasure`` as they read before they took
    fewer passes: the type and message of what they raise, or None."""
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return ValueError, "measure matrix must be square"
    if not np.all(np.isfinite(m)) or not np.all(m > 0.0):
        return NumericError, f"{kind} measure has non-positive or non-finite entries"
    if not np.all(np.abs(m - m.T) <= 1e-12 + 1e-9 * np.abs(m.T)):
        return NumericError, f"{kind} measure is not symmetric"
    if kind in ("path", "reliability") and not np.all(np.diag(m) == 1.0):
        return NumericError, f"{kind} measure must have unit diagonal"
    return None


SPECIAL_ENTRIES = (np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e-310, 1.0)


@st.composite
def measure_candidates(draw):
    """Matrices at the edge of each measure check: the near-symmetric ones
    above, some with a unit diagonal and some entries (alone or mirrored)
    swapped for NaN, infinities, signed zeros or subnormals; the 0 x 0
    matrix; and a non-square one."""
    shape = draw(st.sampled_from(["square"] * 8 + ["empty", "wide"]))
    if shape == "empty":
        return np.zeros((0, 0))
    if shape == "wide":
        return np.ones((2, 3))
    m = draw(near_symmetric_matrices())
    if draw(st.booleans()):
        np.fill_diagonal(m, 1.0)
    n = len(m)
    for _ in range(draw(st.integers(0, 2))):
        i, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i, k] = draw(st.sampled_from(SPECIAL_ENTRIES))
        if draw(st.booleans()):
            m[k, i] = m[i, k]
    return m


@settings(max_examples=200, deadline=None, derandomize=True)
@given(m=measure_candidates(), kind=st.sampled_from(MEASURE_KINDS))
def test_measure_checks_decide_and_raise_as_before(m, kind):
    try:
        TransitionalMeasure(kind, m)
    except (ValueError, NumericError) as exc:
        assert (type(exc), str(exc)) == _measure_refusal(kind, m)
    else:
        assert _measure_refusal(kind, m) is None


# The connections between the families are limits with a known rate.  On
# each decade ladder below, an error of order t (or 1/t) must shrink about
# tenfold per rung; RATE_SLACK leaves room for the next-order term, which
# on 600 random graphs of this kind raised the ratio to at most 0.103.  The
# floor is 2^10 ulps of the size of the compared quantities.
LARGE_T = (1e3, 1e4, 1e5, 1e6)
SMALL_T = (1e-3, 1e-4, 1e-5, 1e-6)
RATE_SLACK = 1.3


def _assert_decade_rate(errors, scale):
    floor = 1024 * np.finfo(float).eps * scale
    for before, after in pairwise(errors):
        assert after <= RATE_SLACK * 0.1 * before + floor, errors


def _shortest_walks(g):
    """Hop distance ``h`` between vertex pairs, from networkx, and
    ``(A^h)_ij``, the total weight of the walks of that length."""
    hops = dict(nx.all_pairs_shortest_path_length(as_networkx(g)))
    h = np.array([[hops[i][k] for k in range(1, g.n + 1)] for i in range(1, g.n + 1)])
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u - 1, v - 1] += w
        a[v - 1, u - 1] += w
    powers = [np.linalg.matrix_power(a, length) for length in range(g.n)]
    return h, np.array([[powers[h[i, k]][i, k] for k in range(g.n)] for i in range(g.n)])


@PROPERTY_SETTINGS
@given(g=connected_graphs())
def test_scaled_forest_distance_tends_to_resistance(g):
    # 2t d_forest(t) / n -> R as t -> infinity, relative error O(1/t)
    # (Chebotarev, Discrete Appl. Math. 159, 2011).
    resistance = resistance_distance(g).values
    off = ~np.eye(g.n, dtype=bool)
    errors = [
        np.max(np.abs(2.0 * t * forest_distance(g, t).values[off] / g.n - resistance[off]) / resistance[off])
        for t in LARGE_T
    ]
    _assert_decade_rate(errors, 1.0)


@PROPERTY_SETTINGS
@given(g=connected_graphs())
def test_forest_and_walk_distances_tend_to_shortest_walk_weights(g):
    # d(t) + h ln t -> -ln (A^h)_ij as t -> 0, error O(t), for the forest
    # and the walk distance alike (Chebotarev 2011; 2012).
    h, weights = _shortest_walks(g)
    limit = -np.log(weights)
    off = ~np.eye(g.n, dtype=bool)
    scale = 1.0 + np.max(np.abs(limit)) + h.max() * abs(np.log(SMALL_T[-1]))
    for family in (forest_distance, walk_distance):
        errors = [np.max(np.abs(family(g, t).values + h * np.log(t) - limit)[off]) for t in SMALL_T]
        _assert_decade_rate(errors, scale)


@st.composite
def regular_graphs(draw):
    """Weighted circulant multigraphs: vertex v is joined to v + s (mod n)
    for offset 1 and up to three more, with one weight per offset and
    possibly one loop of a common weight at every vertex, so that every
    vertex has the same weighted degree."""
    n = draw(st.integers(3, 10))
    weight = st.floats(0.3, 0.95)
    edges = []
    for s in sorted({1} | draw(st.sets(st.integers(1, n // 2), max_size=3))):
        w = draw(weight)
        edges += [(v, (v + s - 1) % n + 1, w) for v in range(1, n + 1)]
    if draw(st.booleans()):
        w = draw(weight)
        edges += [(v, v, w) for v in range(1, n + 1)]
    return Graph(n, tuple(edges))


def _long_walk_values(g):
    """``long_walk_distance(g).values``, or None where it refuses with its
    documented NumericError; any other error fails the caller."""
    try:
        return long_walk_distance(g).values
    except NumericError:
        return None


def _assert_within_long_walk_contract(got, expected):
    off = ~np.eye(len(got), dtype=bool)
    assert np.max(np.abs(got - expected)[off] / np.abs(expected)[off]) <= LONG_WALK_RTOL


@PROPERTY_SETTINGS
@given(g=connected_graphs(max_n=10))
def test_long_walk_distance_is_perron_reweighted_resistance_over_n(g):
    # With p the unit Perron vector and w_ik = p_i a_ik p_k, the Laplacian
    # of w is diag(p) (rho I - A) diag(p), so the closed form is R_w / n.
    values = _long_walk_values(g)
    if values is None:
        return
    perron = spectral_data(adjacency_matrix(g)).perron
    p = perron / np.linalg.norm(perron)
    reweighted = Graph(g.n, tuple((u, v, p[u - 1] * w * p[v - 1]) for u, v, w in g.edges))
    _assert_within_long_walk_contract(values, resistance_distance(reweighted).values / g.n)


@PROPERTY_SETTINGS
@given(g=regular_graphs())
def test_long_walk_distance_is_resistance_on_regular_graphs(g):
    # A constant Perron vector makes w = A / n above, so R_w / n = R.
    values = _long_walk_values(g)
    if values is None:
        return
    _assert_within_long_walk_contract(values, resistance_distance(g).values)

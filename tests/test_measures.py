import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from cutmetrics import (
    CapExceededError,
    Graph,
    NumericError,
    ParameterError,
    TransitionalMeasure,
    ValidationReport,
    adjacency_matrix,
    connection_reliability,
    enumerate_paths,
    find_tau_threshold,
    forest_matrix,
    is_cutpoint_between,
    laplacian,
    parse_graph,
    path_accessibility,
    reliability_by_edge_states,
    spectral_data,
    validate_transitional_measure,
    walk_matrix,
)
from cutmetrics import distances, linalg, measures
from cutmetrics.measures import _simple_paths, _sorted_adjacency

from conftest import (
    OUT_OF_RANGE_TOLERANCES,
    clique_edges,
    complete,
    diamond,
    k3,
    p2,
    p3,
    p4,
    paw,
    sized_multigraph,
    triangle_chain,
)


class TestPathAccessibility:
    def test_p2_single_edge(self):
        s = path_accessibility(p2(), 0.5).matrix
        assert s[0, 1] == 0.5
        assert s[0, 0] == 1.0 and s[1, 1] == 1.0

    def test_p3_bottleneck_identity_exact(self):
        s = path_accessibility(p3(), 0.73).matrix
        assert s[0, 2] == pytest.approx(0.73**2, abs=0)
        assert s[0, 1] * s[1, 2] == s[0, 2] * s[1, 1]

    def test_k3_two_paths(self):
        tau = 0.4
        s = path_accessibility(k3(), tau).matrix
        assert s[0, 1] == pytest.approx(tau + tau**2, abs=1e-16)

    def test_parallel_edges_generate_distinct_paths(self):
        g = parse_graph("2\n1 2 0.5\n1 2 0.25")
        s = path_accessibility(g, 1.0).matrix
        assert s[0, 1] == 0.75

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ParameterError):
            path_accessibility(p2(), 0.0)

    def test_vertex_cap(self):
        edges = tuple((v, v + 1, 1.0) for v in range(1, 13))
        with pytest.raises(CapExceededError):
            path_accessibility(Graph(13, edges), 0.5)

    def test_exact_agreement_with_path_enumerator(self, corpus):
        # Identical arithmetic, independent traversal code: group the oracle
        # paths by length in listed order, then combine by ascending length.
        tau = 0.4
        for g in corpus[:12]:
            s = path_accessibility(g, tau).matrix
            for i in range(1, g.n + 1):
                for j in range(1, g.n + 1):
                    groups: dict[int, float] = {}
                    for p in enumerate_paths(g, i, j):
                        groups[p.length] = groups.get(p.length, 0.0) + p.weight
                    expected = 0.0
                    for length in sorted(groups):
                        expected = expected + tau**length * groups[length]
                    assert float(s[i - 1, j - 1]) == expected

    def test_length_buckets_summed_as_a_scalar_loop(self, corpus):
        # The scalar loop the sum was vectorized from: each entry adds its
        # nonzero buckets by ascending length.  The first 30 corpus graphs
        # are trees, with one bucket per pair, so the graphs with cycles
        # are the ones that tell summation orders apart.
        tau = 0.4
        for g in corpus[30:60]:
            weights = measures._path_length_weights(g)
            s = path_accessibility(g, tau).matrix
            for a in range(g.n):
                for b in range(g.n):
                    value = 0.0
                    for length in range(len(weights)):
                        if weights[length][a][b] != 0.0:
                            value = value + tau**length * float(weights[length][a][b])
                    assert float(s[a, b]) == value

    def test_dense_sum_matches_masked_loop(self, corpus):
        # The masked sum the dense one replaced: each bucket adds only at its
        # nonzero entries.  The star's buckets of length 3 to 5 are all zero.
        star = Graph(6, tuple((1, v, 0.5 + 0.1 * v) for v in range(2, 7)))
        for g in [star, *corpus[::7]]:
            for tau in (0.1, 0.4, 1.3, 1e3):
                s = np.zeros((g.n, g.n))
                for length, bucket in enumerate(measures._path_length_weights(g)):
                    nonzero = bucket != 0.0
                    if nonzero.any():
                        s[nonzero] += tau**length * bucket[nonzero]
                assert path_accessibility(g, tau).matrix.tobytes() == s.tobytes()

    def test_buckets_equal_the_nested_list_build(self, corpus):
        rng = np.random.default_rng(7)
        sized = [sized_multigraph(rng, n, chords) for n in (6, 9, 12) for chords in (0, 2, 4)]
        huge = Graph(3, ((1, 2, 1e308), (1, 2, 1e308), (2, 3, 1.0)))  # a bucket entry past the float range
        for g in [*corpus, *sized, huge]:
            assert measures._path_length_weights(g).tobytes() == _nested_list_buckets(g).tobytes(), g

    @pytest.mark.parametrize("chunk", [1, 60, 61])
    def test_bucket_chunks_keep_the_bytes(self, monkeypatch, chunk):
        # K4 has 60 simple paths: one per chunk, an exact multiple, one chunk.
        g = Graph(4, tuple((u, v, 1.0 + 0.1 * u + 0.01 * v) for u in range(1, 5) for v in range(u + 1, 5)))
        monkeypatch.setattr(measures, "_PATH_CHUNK", chunk)
        measures._path_length_weights.cache_clear()
        assert measures._path_length_weights(g).tobytes() == _nested_list_buckets(g).tobytes()

    def test_bucket_memory_is_bounded_on_a_dense_graph(self, monkeypatch):
        # K8 has 109,592 simple paths; holding a cell and a weight for each
        # at once peaks near 10 MB, 1,024 at a time under 1 MB.
        g = Graph(8, tuple((u, v, 1.0 + 0.01 * (u + v)) for u in range(1, 9) for v in range(u + 1, 9)))
        monkeypatch.setattr(measures, "_PATH_CHUNK", 1024)
        measures._path_length_weights.cache_clear()
        tracemalloc.start()
        try:
            weights = measures._path_length_weights(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
        assert weights.tobytes() == _nested_list_buckets(g).tobytes()

    @pytest.mark.parametrize("tau", [1e30, np.float64(1e30), math.inf])
    def test_discount_overflow_is_numeric_error(self, tau):
        # 1e30**11 overflows a float; pytest turns any RuntimeWarning into an error.
        g = Graph(12, tuple((v, v + 1, 1.0) for v in range(1, 12)))
        with pytest.raises(NumericError, match="overflows a float"):
            path_accessibility(g, tau)

    def test_weighted_path_overflow_is_numeric_error(self):
        # tau is finite, but tau * 1e300 is not.
        with pytest.raises(NumericError, match="non-finite"):
            path_accessibility(Graph(2, ((1, 2, 1e300),)), 1e10)

    def test_overflowing_weight_under_a_vanishing_discount_is_numeric_error(self):
        # Paths of three 1e108 edges overflow to inf while tau**3 underflows
        # to 0; their product is NaN, refused with no RuntimeWarning.
        g = Graph(4, tuple(clique_edges(range(1, 5), 1e108)))
        tau = 1.0 / linalg._spectral_radius(adjacency_matrix(g))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (path_accessibility, distances.path_distance):
                with pytest.raises(NumericError, match="non-finite"):
                    call(g, tau)
            with pytest.raises(NumericError, match="non-finite"):
                find_tau_threshold(g)

    def test_traversals_agree_on_path_sets(self, corpus):
        # Both multiply the edge weights along the path, so weights are bit-equal.
        for g in corpus[:8]:
            adj = _sorted_adjacency(g)
            for i in range(1, g.n + 1):
                paths = list(_simple_paths(g, i, adj))
                for j in range(1, g.n + 1):
                    if j != i:
                        assert [p[1:] for p in paths if p[0] == j] == [
                            (p.length, p.weight, sum(1 << e for e in p.edge_indices))
                            for p in enumerate_paths(g, i, j)
                        ]


class TestConnectionReliability:
    def test_single_edge(self):
        assert connection_reliability(parse_graph("2\n1 2 0.5")).matrix[0, 1] == 0.5

    def test_k3_inclusion_exclusion(self):
        g = parse_graph("3\n1 2 0.5\n2 3 0.5\n1 3 0.5")
        p = connection_reliability(g).matrix
        assert p[0, 1] == pytest.approx(0.625, abs=1e-15)

    def test_series_bottleneck_identity(self):
        g = parse_graph("3\n1 2 0.5\n2 3 0.5")
        p = connection_reliability(g).matrix
        assert p[0, 2] == pytest.approx(0.25, abs=1e-15)
        assert p[0, 1] * p[1, 2] == p[0, 2]

    def test_weight_above_one_rejected(self):
        with pytest.raises(ParameterError):
            connection_reliability(Graph(2, ((1, 2, 1.2),)))

    def test_refuses_at_the_first_underflowed_pair(self, monkeypatch):
        # The one path 1-3-2 has weight 1e-400: the refusal names the pair
        # before any source but vertex 1 is traversed.
        g = Graph(4, ((1, 3, 1e-200), (3, 2, 1e-200), (1, 4, 0.5)))
        sources = []
        traverse = measures._simple_paths
        monkeypatch.setattr(
            measures, "_simple_paths", lambda g, source, adj: sources.append(source) or traverse(g, source, adj)
        )
        with pytest.raises(NumericError, match=r"reliability between 1 and 2 underflows to 0\.0"):
            connection_reliability(g)
        assert sources == [1]

    def test_paths_per_pair_cap(self):
        # K6 has 1 + 4 + 12 + 24 + 24 = 65 simple paths between any two vertices.
        g = Graph(6, tuple(clique_edges(range(1, 7), 0.5)))
        with pytest.raises(CapExceededError, match="more than 64 simple paths between"):
            connection_reliability(g, max_paths_per_pair=64)
        p = connection_reliability(g, max_paths_per_pair=65).matrix
        assert np.all((p > 0.5) & (p <= 1.0))

    def test_terms_per_pair_cap_stops_k7(self):
        # K7 has only 326 paths per pair, but their edge unions run past the
        # cap; uncapped, the expansion did not finish in 90 s.
        g = Graph(7, tuple(clique_edges(range(1, 8), 0.5)))
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="more than 65536 inclusion-exclusion terms between 1 and 2"):
            connection_reliability(g)
        assert time.perf_counter() - start < 30.0

    def test_k6_below_terms_cap_matches_edge_state_oracle(self):
        # K6 peaks near 15,500 distinct unions per pair, under the cap.
        g = Graph(6, tuple(clique_edges(range(1, 7), 0.5)))
        p = connection_reliability(g).matrix
        for i in range(1, 7):
            for j in range(i + 1, 7):
                assert p[i - 1, j - 1] == pytest.approx(reliability_by_edge_states(g, i, j), abs=1e-12)

    def test_corpus_stays_below_terms_cap(self, corpus):
        # The corpus peaks at 24 terms per pair, far from the cap.
        for g in corpus:
            connection_reliability(g)

    def test_matches_edge_state_oracle(self, small_corpus):
        for g in small_corpus[:12]:
            p = connection_reliability(g).matrix
            for i in range(1, g.n + 1):
                for j in range(i + 1, g.n + 1):
                    assert p[i - 1, j - 1] == pytest.approx(
                        reliability_by_edge_states(g, i, j), abs=1e-12
                    )

    def test_union_products_match_a_product_bit_by_bit(self, corpus):
        # Scaled by 1e-160, two-edge paths fall to subnormal products and
        # longer ones underflow: the refusal names the pair the reference does.
        graphs = [*corpus, *(Graph(g.n, tuple((u, v, w * 1e-160) for u, v, w in g.edges)) for g in corpus[:40])]
        graphs.append(Graph(3, ((1, 2, 5e-324), (2, 3, 0.5), (1, 3, 0.5))))
        refusals = 0
        for g in graphs:
            try:
                expected = _reliability_by_union_weight(g).tobytes()
            except NumericError as exc:
                refusals += 1
                with pytest.raises(NumericError) as refused:
                    connection_reliability(g)
                assert str(refused.value) == str(exc)
            else:
                assert connection_reliability(g).matrix.tobytes() == expected, g
        assert 0 < refusals < len(graphs) - len(corpus)


@pytest.mark.parametrize("cap", [math.nan, 0, 0.5, -math.inf])
def test_caps_below_one_refused_before_any_enumeration(monkeypatch, cap):
    # A NaN cap fails every size comparison, so it used to switch the cap off.
    calls = []
    for name in ("_simple_paths", "_path_length_weights", "_separation_mask"):
        monkeypatch.setattr(measures, name, lambda *args: calls.append(args))
    p13 = Graph(13, tuple((v, v + 1, 0.5) for v in range(1, 13)))
    for call, name in (
        (lambda: path_accessibility(p13, 0.5, cap), "max_vertices"),
        (lambda: find_tau_threshold(p13, max_vertices=cap), "max_vertices"),
        (lambda: distances.path_distance(p13, 0.3, max_vertices=cap), "max_vertices"),
        (lambda: connection_reliability(p13, max_paths_per_pair=cap), "max_paths_per_pair"),
    ):
        with pytest.raises(ParameterError) as refused:
            call()
        assert str(refused.value) == f"{name} must be at least 1, got {cap!r}"
    assert calls == []


def _union_weight(mask, edge_weights):
    """The product of the weights of the edges in ``mask``, lowest bit first."""
    w = 1.0
    while mask:
        bit = mask & (-mask)
        mask ^= bit
        w *= edge_weights[bit.bit_length() - 1]
    return w


def _reliability_by_union_weight(g):
    """Reliability's grouped inclusion-exclusion, uncapped, with each term's
    product formed bit by bit, kept to check the product memo against."""
    edge_weights = [w for _, _, w in g.edges]
    s = np.ones((g.n, g.n))
    adj = _sorted_adjacency(g)
    for i in range(1, g.n + 1):
        masks = [[] for _ in range(g.n + 1)]
        for j, _, _, path_mask in _simple_paths(g, i, adj):
            masks[j].append(path_mask)
        for j in range(i + 1, g.n + 1):
            terms = {}
            for path_mask in masks[j]:
                updates = {path_mask: 1}
                for mask, coeff in terms.items():
                    updates[mask | path_mask] = updates.get(mask | path_mask, 0) - coeff
                for mask, coeff in updates.items():
                    terms[mask] = terms.get(mask, 0) + coeff
                    if not terms[mask]:
                        del terms[mask]
            value = math.fsum(coeff * _union_weight(mask, edge_weights) for mask, coeff in terms.items())
            if not value > 0.0:
                raise NumericError(f"reliability between {i} and {j} underflows to {value!r}")
            s[i - 1, j - 1] = s[j - 1, i - 1] = value
    return s


class TestForestMatrix:
    def test_p2(self):
        f = forest_matrix(p2()).matrix
        assert np.allclose(f, [[2, 1], [1, 2]], atol=1e-12)

    def test_p3(self):
        f = forest_matrix(p3()).matrix
        assert np.allclose(f, [[5, 2, 1], [2, 4, 2], [1, 2, 5]], atol=1e-12)

    def test_single_weighted_edge(self):
        w = 0.6
        f = forest_matrix(Graph(2, ((1, 2, w),))).matrix
        assert np.allclose(f, [[1 + w, w], [w, 1 + w]], atol=1e-14)

    def test_row_sums_constant(self, small_corpus):
        # Q = (I+L)^-1 has unit row sums, so F rows all sum to f.
        for g in small_corpus[:10]:
            f = forest_matrix(g).matrix
            row_sums = f.sum(axis=1)
            assert np.abs(row_sums - row_sums[0]).max() <= 1e-9 * max(1.0, row_sums[0])

    def test_edge_scale_matches_rescaled_graph(self, corpus):
        # t scales each edge before I + tL is assembled, so the forest
        # matrix at t is, bit for bit, that of the graph whose edges weigh t w.
        rng = np.random.default_rng(29)
        for g in corpus + [sized_multigraph(rng, 40, 40) for _ in range(3)]:
            for t in (0.35, 3.0, 1e-3):
                scaled = Graph(g.n, tuple((u, v, t * w) for u, v, w in g.edges))
                f = forest_matrix(g, t)
                assert f.params == {"t": t}
                assert f.matrix.tobytes() == forest_matrix(scaled).matrix.tobytes()

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ParameterError, match="positive"):
            forest_matrix(p3(), 0.0)

    @pytest.mark.parametrize("weight", [1.0, 0.5])
    @pytest.mark.parametrize("t", [1e308, math.inf])
    def test_overflowing_edge_scale_names_t(self, t, weight):
        # With unit weights t*L itself overflows; with weight 0.5 its entries
        # stay finite but the 1-norm linalg.invert takes does not.  The
        # RuntimeWarning filter fails the test on any numpy warning.
        g = Graph(4, ((1, 2, weight), (2, 3, weight), (3, 4, weight)))
        for build in (forest_matrix, distances.forest_distance, measures._forest_inverse):
            with pytest.raises(ParameterError, match=r"edge-scale parameter t=.* overflows a float in I \+ tL"):
                build(g, t)

    def test_small_edge_scale_survives_overflowing_parallel_edges(self):
        # The two parallel 1e308 edges sum past the float range, but each
        # t w does not: t = 1e-300 gives the distance of the scaled graph,
        # and only a t that overflows I + tL itself is refused.
        g = Graph(3, ((1, 2, 1e308), (1, 2, 1e308), (2, 3, 1.0)))
        scaled = Graph(3, tuple((u, v, 1e-300 * w) for u, v, w in g.edges))
        values = distances.forest_distance(g, 1e-300).values
        assert np.isfinite(values).all()
        assert values.tobytes() == distances.forest_distance(scaled).values.tobytes()
        with pytest.raises(ParameterError, match=r"^edge-scale parameter t=1\.0 overflows a float in I \+ tL$"):
            distances.forest_distance(g, 1.0)

    def test_small_edge_scale_survives_an_overflowing_degree(self):
        # The degrees of K3 at weight 1.7e308 overflow, but t A does not:
        # at t = 1e-308 the system is that of unit K3 at t = 1.7.
        huge = Graph(3, ((1, 2, 1.7e308), (2, 3, 1.7e308), (1, 3, 1.7e308)))
        expected = distances.forest_distance(k3(), 1.7).values
        assert np.allclose(distances.forest_distance(huge, 1e-308).values, expected, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "t, refusal",
        [(1e15, "matrix near-singular: condition estimate"), (1e20, "singular matrix: zero pivot")],
    )
    def test_near_singular_edge_scale_names_t(self, t, refusal):
        # cond(I + tL) grows like t * lambda_max; at 1e20 the unit diagonal
        # is lost to rounding and I + tL is the singular tL.
        for build in (forest_matrix, distances.forest_distance, measures._forest_inverse):
            with pytest.raises(NumericError) as caught:
                build(p4(), t)
            message = str(caught.value)
            assert message.startswith(f"edge-scale parameter t={t!r} leaves I + tL too ill-conditioned to invert: ")
            assert refusal in message

    @pytest.mark.parametrize("t, d12", [(1e-300, 5.88e-09), (1e-308, 0.4626), (1e-310, 4.091), (1e-320, 27.10)])
    def test_overflow_route_builds_the_system_bit_for_bit(self, t, d12):
        # I + tL is assembled from the scaled edges even where a weighted
        # degree of L overflows; it must keep the bytes of the four steps
        # written out here, which scale the summed adjacency instead.
        huge = Graph(3, ((1, 2, 1.7e308), (2, 3, 1.7e308), (1, 3, 1.7e308)))
        chain = Graph(3, ((1, 2, 1e308), (2, 3, 1e308)))
        for g, vertex in ((huge, 1), (chain, 2)):
            with pytest.raises(NumericError) as caught:
                laplacian(g)
            assert str(caught.value) == f"the weighted degree of vertex {vertex} overflows a float"
            assert measures._forest_system(g, t)[0].tobytes() == _system_from_scaled_adjacency(g, t).tobytes()
        assert distances.forest_distance(huge, t).value(1, 2) == pytest.approx(d12, rel=1e-3)

    def test_determinant_overflow_named(self):
        # det(I+L) = 161^159 on K_160 exceeds the float range.
        with pytest.raises(NumericError, match="overflow"):
            forest_matrix(complete(160))

    def test_q_row_sums_are_one(self, small_corpus):
        from cutmetrics import invert, laplacian

        for g in small_corpus[:10]:
            q = invert(np.eye(g.n) + laplacian(g))
            assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-12


def _system_from_scaled_adjacency(g, t):
    """``I + tL`` built from ``tA``: zero the loops, scale, take the row
    sums, negate as ``0.0 - tA`` and write the sums on the diagonal."""
    a = adjacency_matrix(g)
    np.fill_diagonal(a, 0.0)
    a *= t
    degrees = a.sum(axis=1)
    np.subtract(0.0, a, out=a)
    np.fill_diagonal(a, degrees)
    a.flat[:: g.n + 1] += 1.0
    return a


class TestWalkMatrix:
    def test_p2_closed_form(self):
        r = walk_matrix(p2(), 0.5).matrix
        assert np.allclose(r, np.array([[4, 2], [2, 4]]) / 3.0, atol=1e-14)

    def test_p3_hand_inverse(self):
        r = walk_matrix(p3(), 0.5).matrix
        assert np.allclose(r, [[1.5, 1, 0.5], [1, 2, 1], [0.5, 1, 1.5]], atol=1e-13)

    def test_t_at_radius_rejected(self):
        with pytest.raises(ParameterError, match="1/rho"):
            walk_matrix(p2(), 1.0)

    def test_t_nonpositive_rejected(self):
        with pytest.raises(ParameterError):
            walk_matrix(p2(), -0.2)

    def test_entries_positive(self, small_corpus):
        for g in small_corpus[:10]:
            rho = spectral_data(adjacency_matrix(g)).rho
            assert np.all(walk_matrix(g, 0.5 / rho).matrix > 0)


def _walk_graphs():
    """Walk test graphs on both sides of order 64, the leaf order of the
    positive-definite inverse, and of order 257, two recursion levels above it."""
    rng = np.random.default_rng(17)
    return [
        sized_multigraph(rng, 12, 12),
        triangle_chain(31),
        triangle_chain(40),
        sized_multigraph(rng, 130, 130),
        sized_multigraph(rng, 257, 257),
    ]


class TestWalkBound:
    @pytest.mark.parametrize("call", [walk_matrix, distances.walk_distance], ids=["walk_matrix", "walk_distance"])
    @pytest.mark.parametrize("scale", [0.0, -1.0, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0])
    def test_refusals_unchanged(self, call, scale):
        for g in _walk_graphs():
            rho = linalg._spectral_radius(adjacency_matrix(g))
            t = scale / rho if scale > 0.0 else scale
            if scale == 1.0 - 1e-12:
                with pytest.raises(NumericError, match="near-singular: condition estimate"):
                    call(g, t)
            else:
                message = f"walk parameter must satisfy 0 < t < 1/rho = {1.0 / rho:.12g}, got {t}"
                with pytest.raises(ParameterError) as caught:
                    call(g, t)
                assert str(caught.value) == message

    def test_refusal_near_radius_inverts_once(self, monkeypatch):
        # Order 257 splits into five leaves.  After the rho check the kept
        # inverse repeats its condition refusal; nothing is inverted again.
        g = _walk_graphs()[-1]
        t = (1.0 - 1e-12) / linalg._spectral_radius(adjacency_matrix(g))
        calls = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(len(a)) or cholesky(a))
        with pytest.raises(NumericError, match="near-singular: condition estimate"):
            walk_matrix(g, t)
        assert len(calls) == 5

    def test_valid_t_computes_no_spectral_radius(self, monkeypatch):
        graphs = _walk_graphs()
        radii = [linalg._spectral_radius(adjacency_matrix(g)) for g in graphs]
        calls = []
        monkeypatch.setattr(linalg, "_spectral_radius", lambda a: calls.append(a))
        for g, rho in zip(graphs, radii):
            for scale in (0.5, 1.0 - 1e-6):
                walk_matrix(g, scale / rho)
                distances.walk_distance(g, scale / rho)
        assert calls == []

    def test_agrees_with_lu_and_exactly_symmetric(self):
        for g in _walk_graphs():
            a = adjacency_matrix(g)
            t = 0.5 / linalg._spectral_radius(a)
            r = walk_matrix(g, t).matrix
            expected = np.linalg.inv(np.eye(g.n) - t * a)
            assert np.abs(r - expected).max() <= 1e-12 * np.abs(expected).max()
            assert np.array_equal(r, r.T)

    def test_lu_step_agrees_with_numpy(self, corpus, monkeypatch):
        # With the positive-definite recursion refusing every system, each
        # inverse comes from the LU step after the rho check.
        refused = []
        monkeypatch.setattr(linalg, "_pd_inverse", lambda a: refused.append(len(a)))
        for g in corpus:
            a = adjacency_matrix(g)
            t = 0.5 / linalg._spectral_radius(a)
            measure = walk_matrix(g, t)
            expected = np.linalg.inv(np.eye(g.n) - t * a)
            assert np.abs(measure.matrix - expected).max() <= 1e-12 * np.abs(expected).max()
            assert validate_transitional_measure(g, measure).passed
        assert refused == [g.n for g in corpus]

    @pytest.mark.parametrize("call", [walk_matrix, distances.walk_distance], ids=["walk_matrix", "walk_distance"])
    @pytest.mark.parametrize("graph", [k3, p3, diamond])
    def test_last_float_below_radius_refused_as_singular(self, call, graph):
        # One float below 1/rho, I - tA is singular to rounding.  Which step
        # words the refusal (the LU step on K3 and the diamond here) depends
        # on how LAPACK rounds rho, so only the type and the word are pinned.
        g = graph()
        t = float(np.nextafter(1.0 / linalg._spectral_radius(adjacency_matrix(g)), 0.0))
        with pytest.raises(NumericError, match="singular"):
            call(g, t)

    @pytest.mark.parametrize("k", [9, 10])
    def test_near_radius_exactly_symmetric(self, k):
        # The LU inverse of I - tA is asymmetric here beyond the measure's
        # 1e-9 symmetry check; the Cholesky route is exactly symmetric.
        chain = triangle_chain(31)
        weights = np.random.default_rng(9).uniform(0.5, 1.5, size=len(chain.edges))
        g = Graph(chain.n, tuple((u, v, float(w)) for (u, v, _), w in zip(chain.edges, weights)))
        t = (1.0 - 10.0**-k) / linalg._spectral_radius(adjacency_matrix(g))
        r = walk_matrix(g, t).matrix
        assert np.array_equal(r, r.T)
        d = distances.walk_distance(g, t).values
        assert np.array_equal(d, d.T)


class TestValidateTransitionalMeasure:
    def test_forest_p3_passes(self):
        report = validate_transitional_measure(p3(), forest_matrix(p3()))
        assert report.passed and report.violations == ()

    def test_path_k3_small_tau_passes(self):
        report = validate_transitional_measure(k3(), path_accessibility(k3(), 0.5))
        assert report.passed

    def test_path_k3_large_tau_fails(self):
        report = validate_transitional_measure(k3(), path_accessibility(k3(), 0.7))
        assert not report.passed
        lhs = 0.7 + 0.7**2
        triples = {(v.i, v.j, v.k) for v in report.violations}
        assert (1, 2, 3) in triples
        v = next(v for v in report.violations if (v.i, v.j, v.k) == (1, 2, 3))
        assert v.lhs == pytest.approx(lhs**2, rel=1e-12)
        assert v.rhs == pytest.approx(lhs, rel=1e-12)
        assert not v.expected_equal

    def test_order_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            validate_transitional_measure(p2(), forest_matrix(p3()))

    def test_walk_on_triangle_chain_passes(self):
        # Walk entries between the ends of the chain fall to about 7e-15,
        # below any absolute floor a comparison of products could use, so
        # only a relative comparison tells their products apart.
        g = triangle_chain(20)
        measure = walk_matrix(g, 0.5 / spectral_data(adjacency_matrix(g)).rho)
        assert measure.matrix.min() < 1e-14
        report = validate_transitional_measure(g, measure)
        assert report.passed, report.violations[:3]

    def test_forest_on_k100_passes(self):
        # Forest entries of K_100 reach 1e196, so their products overflow a
        # float; their logarithms do not.
        g = complete(100)
        measure = forest_matrix(g)
        assert measure.matrix.max() > 1e190
        report = validate_transitional_measure(g, measure)
        assert report.passed, report.violations[:3]

    def test_violations_carry_products_in_pivot_major_order(self):
        measure = path_accessibility(k3(), 0.7)
        report = validate_transitional_measure(k3(), measure)
        s = measure.matrix
        triples = [(v.j, v.i, v.k) for v in report.violations]
        assert triples == sorted(triples)
        for v in report.violations:
            assert v.lhs == s[v.i - 1, v.j - 1] * s[v.j - 1, v.k - 1]
            assert v.rhs == s[v.i - 1, v.k - 1] * s[v.j - 1, v.j - 1]

    def test_matches_scalar_loop_on_log_measure(self, corpus):
        # The checker reads the triangle gaps of the log distance; the loop
        # forms ln S_ik + ln S_jj - ln S_ij - ln S_jk itself.  The spoiled
        # measures have S_ij^2 > S_ii S_jj, which fails triples with i == k.
        tol = 1e-9
        loops = 0
        for seed, g in enumerate(corpus[::3]):
            s = forest_matrix(g).matrix
            noise = np.random.default_rng(seed).uniform(0.5, 1.5, s.shape)
            spoiled = TransitionalMeasure("forest", s * (noise + noise.T) / 2.0)
            for measure in (forest_matrix(g), path_accessibility(g, 0.7), spoiled):
                rows = _scalar_transition_rows(g, measure.matrix, tol)
                report = validate_transitional_measure(g, measure, tol)
                assert [(v.i, v.j, v.k, v.lhs, v.rhs, v.expected_equal) for v in report.violations] == rows
                loops += sum(v.i == v.k != v.j for v in report.violations)
        assert loops > 0

    @pytest.mark.parametrize("tol", OUT_OF_RANGE_TOLERANCES)
    def test_tolerance_outside_range_refused(self, tol):
        with pytest.raises(ParameterError, match=r"tolerance must lie in \[0, inf\)"):
            validate_transitional_measure(paw(), forest_matrix(paw()), tol)


def _scalar_transition_rows(g, s, tol):
    """The measure check one triple at a time on ln S, in (j, i, k) order."""
    h = np.log(s)
    rows = []
    for j in range(1, g.n + 1):
        for i in range(1, g.n + 1):
            for k in range(1, g.n + 1):
                gap = h[i - 1, k - 1] + h[j - 1, j - 1] - h[i - 1, j - 1] - h[j - 1, k - 1]
                separated = is_cutpoint_between(g, j, i, k)
                if gap < -tol or (abs(gap) <= tol) != separated:
                    lhs, rhs = s[i - 1, j - 1] * s[j - 1, k - 1], s[i - 1, k - 1] * s[j - 1, j - 1]
                    rows.append((i, j, k, lhs, rhs, separated))
    return rows


class TestFindTauThreshold:
    def test_k3_golden_ratio(self):
        threshold = find_tau_threshold(k3(), precision=1e-6)
        assert threshold == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-3)

    def test_unit_tree_threshold_is_one(self):
        # On a unit-weight tree the first failure is the equality
        # s(1,2) * s(2,1) = 1 at tau = 1.
        assert find_tau_threshold(p3(), precision=1e-4) == pytest.approx(1.0, abs=1e-3)

    def test_p2_same_as_tree(self):
        assert find_tau_threshold(p2(), precision=1e-4) == pytest.approx(1.0, abs=1e-3)

    def test_returned_tau_validates(self, small_corpus):
        for g in small_corpus[:6]:
            tau = find_tau_threshold(g, precision=1e-4)
            assert validate_transitional_measure(g, path_accessibility(g, tau)).passed

    @pytest.mark.parametrize("tol", OUT_OF_RANGE_TOLERANCES)
    def test_tolerance_outside_range_refused(self, tol):
        with pytest.raises(ParameterError, match=r"tolerance must lie in \[0, inf\)"):
            find_tau_threshold(paw(), tol=tol)

    def test_zero_precision_refused(self):
        with pytest.raises(ParameterError) as refused:
            find_tau_threshold(paw(), precision=0.0)
        assert str(refused.value) == "precision must be positive, got 0.0"

    def test_one_label_pass_per_call(self, monkeypatch):
        measures._separation_mask.cache_clear()
        calls = []
        original = measures.separation_labels
        monkeypatch.setattr(measures, "separation_labels", lambda g: calls.append(g) or original(g))
        find_tau_threshold(k3(), precision=1e-6)
        assert len(calls) == 1

    def test_path_distance_reuses_the_search_mask(self, monkeypatch):
        measures._separation_mask.cache_clear()
        calls = []
        original = measures.separation_labels
        monkeypatch.setattr(measures, "separation_labels", lambda g: calls.append(g) or original(g))
        tau = find_tau_threshold(paw(), precision=1e-6)
        distances.path_distance(paw(), tau / 2)
        assert len(calls) == 1

    def test_one_enumeration_and_one_mask_per_search(self):
        # The search and path_distance at half its threshold share one
        # path-weight array and one separation mask.
        g = sized_multigraph(np.random.default_rng(3), 9, 3)
        measures._path_length_weights.cache_clear()
        measures._separation_mask.cache_clear()
        distances.path_distance(g, find_tau_threshold(g) / 2.0)
        assert measures._path_length_weights.cache_info().misses == 1
        assert measures._separation_mask.cache_info().misses == 1

    def test_reused_buffers_count_as_fresh_tests(self):
        # Two tests of one order, called in turn, share nothing: each count
        # equals that of a test built for the call and of the full report.
        g, h = (sized_multigraph(np.random.default_rng(seed), 8, 3) for seed in (4, 5))
        tests = [(g, measures._transition_test(g, 1e-9)), (h, measures._transition_test(h, 1e-9))]
        samples = [forest_matrix(g), forest_matrix(h)]
        for x in (g, h):
            samples += [path_accessibility(x, scale * find_tau_threshold(x)) for scale in (0.5, 1.5, 4.0)]
        counts = []
        for measure in samples:
            for graph, test in tests:
                count = test(measures._log_distance(measure.matrix))
                assert count == measures._transition_test(graph, 1e-9)(measures._log_distance(measure.matrix))
                assert count == len(validate_transitional_measure(graph, measure).violations)
                counts.append(count)
        assert len(set(counts)) > 4

    def test_vertex_cap(self, monkeypatch):
        # Refused before the n^3 separation mask is built.
        calls = []
        monkeypatch.setattr(measures, "_separation_mask", lambda g: calls.append(g))
        edges = tuple((v, v + 1, 1.0) for v in range(1, 13))
        with pytest.raises(CapExceededError, match="capped at 12 vertices, graph has 13"):
            find_tau_threshold(Graph(13, edges))
        assert calls == []

    def test_builds_no_report(self, monkeypatch, small_corpus):
        calls = []
        original = ValidationReport._from_columns
        monkeypatch.setattr(ValidationReport, "_from_columns", lambda *args: calls.append(args) or original(*args))
        for g in small_corpus[:6]:
            find_tau_threshold(g, precision=1e-6)
        assert calls == []
        validate_transitional_measure(k3(), path_accessibility(k3(), 0.5))
        assert len(calls) == 1

    def test_same_threshold_as_report_search(self, corpus):
        # Five parallel unit edges start failing; sized multigraphs carry
        # loops and parallel edges in both orientations.
        rng = np.random.default_rng(11)
        graphs = [
            *corpus,
            *(sized_multigraph(rng, n, chords) for n in (8, 10, 12) for chords in (0, 2, 4)),
            Graph(2, tuple((1, 2, 1.0) for _ in range(5))),
        ]
        for g in graphs:
            assert find_tau_threshold(g) == _report_search(g), g

    def test_descends_when_start_fails(self):
        # Five parallel unit edges: rho = 5 and s(1/rho) = 1 exactly, so the
        # search must bisect downward from its failing starting point.
        g = Graph(2, tuple((1, 2, 1.0) for _ in range(5)))
        tau = find_tau_threshold(g, precision=1e-6)
        assert 0.1999 < tau < 0.2
        assert validate_transitional_measure(g, path_accessibility(g, tau)).passed

    def test_returns_where_the_float_spacing_exceeds_precision(self):
        # tau* ~ 6.2e10, where adjacent floats lie about 8e-6 apart: the
        # bisection must stop once no float lies inside the bracket.
        g = Graph(3, ((1, 2, 1e-11), (2, 3, 1e-11), (1, 3, 1e-11)))
        tau = find_tau_threshold(g)
        assert validate_transitional_measure(g, path_accessibility(g, tau)).passed
        assert tau * 1e-11 == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-6)

    def test_returns_at_a_precision_below_the_float_spacing(self):
        tau = find_tau_threshold(k3(), precision=1e-20)
        assert tau == pytest.approx(find_tau_threshold(k3()), abs=1e-6)
        assert validate_transitional_measure(k3(), path_accessibility(k3(), tau)).passed

    @pytest.mark.parametrize(
        "verdict, samples, message",
        [
            (0, 62, r"path measure validated at every tau up to 2\^60 / rho"),
            (1, 20, r"path measure failed validation at every sampled tau down to 9\.53674316406\d*e-07"),
        ],
        ids=["always-passes", "always-fails"],
    )
    def test_refuses_a_validator_that_never_changes_its_verdict(self, monkeypatch, verdict, samples, message):
        # Passing: 1/rho and its 61 doublings up to 2^61 / rho.  Failing: 1/rho
        # and 19 halvings, to the first bracket no wider than 1e-6.
        # Every sample, the first one inside path_accessibility included,
        # sums its buckets through _path_matrix.
        taus = []
        original = measures._path_matrix
        monkeypatch.setattr(measures, "_path_matrix", lambda weights, tau: taus.append(tau) or original(weights, tau))
        monkeypatch.setattr(measures, "_transition_test", lambda g, tol: lambda s: verdict)
        with pytest.raises(NumericError, match=message):
            find_tau_threshold(k3())
        assert len(taus) == samples

    def test_one_measure_per_search(self, corpus, monkeypatch):
        # Only the first sample is built as a TransitionalMeasure; the rest
        # are checked by what their discount can change.
        g = corpus[40]
        calls = []
        original = measures.path_accessibility
        monkeypatch.setattr(measures, "path_accessibility", lambda g, tau, cap: calls.append(tau) or original(g, tau, cap))
        samples = []
        kernel = measures._path_matrix
        monkeypatch.setattr(measures, "_path_matrix", lambda weights, tau: samples.append(tau) or kernel(weights, tau))
        find_tau_threshold(g)
        assert len(calls) == 1 and len(samples) > 10

    @pytest.mark.parametrize("settled", [True, False], ids=["bucket-bound", "bound-fails"])
    def test_same_outcome_as_a_search_that_checks_every_sample(self, corpus, monkeypatch, settled):
        # The corpus scaled down keeps sums far below 1; scaled up, most
        # buckets overflow and every sample is refused.
        graphs = [
            *(Graph(g.n, tuple((u, v, w * scale) for u, v, w in g.edges)) for scale in (1.0, 1e-150, 1e150) for g in corpus),
            Graph(4, tuple(clique_edges(range(1, 5), 1e108))),
            Graph(3, ((1, 2, 1e-11), (2, 3, 1e-11), (1, 3, 1e-11))),
        ]
        if not settled:
            monkeypatch.setattr(measures, "_tau_free_checks", lambda weights: False)
        outcomes = set()
        for g in graphs:
            outcome = _outcome(find_tau_threshold, g)
            assert outcome == _outcome(_measure_search, g), g
            outcomes.add(outcome[0])
        assert outcomes == {float, NumericError}

    @pytest.mark.parametrize("settled", [True, False], ids=["bucket-bound", "bound-fails"])
    def test_a_later_sample_that_underflows_is_refused(self, monkeypatch, settled):
        # Exactly symmetric buckets: the first sample, at tau = 1, holds the
        # subnormal 1e-320, and halving tau underflows it to 0 before the
        # bracket is narrow enough.
        g = Graph(3, ((1, 2, 1e-320), (2, 3, 1.0)))
        assert measures._tau_free_checks(measures._path_length_weights(g))
        if not settled:
            monkeypatch.setattr(measures, "_tau_free_checks", lambda weights: False)
        monkeypatch.setattr(measures, "_transition_test", lambda g, tol: lambda s: 1)
        with pytest.raises(NumericError) as refused:
            find_tau_threshold(g)
        assert str(refused.value) == "path measure has non-positive or non-finite entries"
        assert _outcome(_measure_search, g) == (NumericError, str(refused.value))

    def test_lopsided_buckets_are_checked_in_full(self):
        # Products that underflow in one direction and not the other leave
        # W_3[1, 4] = 9.99989e-121 against W_3[4, 1] = 1e-120.
        g = Graph(4, ((1, 2, 1e-200), (2, 3, 1e-120), (3, 4, 1e200)))
        weights = measures._path_length_weights(g)
        assert weights[3, 3, 0] == 1e-120 and weights[3, 0, 3] != weights[3, 3, 0]
        assert not measures._tau_free_checks(weights)
        with pytest.raises(NumericError) as refused:
            find_tau_threshold(g)
        assert str(refused.value) == "path measure has non-positive or non-finite entries"
        assert _outcome(_measure_search, g) == (NumericError, str(refused.value))


def _nested_list_buckets(g):
    """The length buckets as they were built before the flat scatter: n^3
    nested lists, each path added to its cell in enumeration order."""
    n, adj = g.n, _sorted_adjacency(g)
    weights = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    for row in range(n):
        weights[0][row][row] = 1.0
        for target, length, weight, _ in _simple_paths(g, row + 1, adj):
            weights[length][row][target - 1] += weight
    array = np.array(weights)
    return array[: np.flatnonzero(array.any(axis=(1, 2)))[-1] + 1]


def _outcome(call, g):
    """``(float, repr(result))`` of ``call(g)``, or its refusal's type and message."""
    try:
        return float, repr(call(g))
    except Exception as exc:
        return type(exc), str(exc)


def _measure_search(g, precision=1e-6, tol=1e-9):
    """The threshold search as it was when every sample was built as a
    ``TransitionalMeasure``, kept to check the once-per-graph checks against."""
    start = 1.0 / linalg._spectral_radius(adjacency_matrix(g))
    failures = measures._transition_test(g, tol)

    def fails(tau):
        return failures(measures._log_distance(path_accessibility(g, tau).matrix))

    lo, hi = 0.0, start
    while not fails(hi):
        if hi > 2.0**60 * start:
            raise NumericError("path measure validated at every tau up to 2^60 / rho")
        lo, hi = hi, 2.0 * hi
    while hi - lo > precision and lo < (mid := 0.5 * (lo + hi)) < hi:
        if fails(mid):
            hi = mid
        else:
            lo = mid
    if lo == 0.0:
        raise NumericError(f"path measure failed validation at every sampled tau down to {hi!r}")
    return lo


def _report_search(g, precision=1e-6, tol=1e-9):
    """The threshold search as it was when every step built a full
    validation report, kept to check the fused test against."""

    def passes(tau):
        return validate_transitional_measure(g, path_accessibility(g, tau), tol).passed

    start = 1.0 / linalg._spectral_radius(adjacency_matrix(g))
    if passes(start):
        lo, hi = start, 2.0 * start
        while passes(hi):
            lo, hi = hi, 2.0 * hi
    else:
        lo, hi = 0.0, start
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    assert lo > 0.0 and passes(lo)
    return lo

import numpy as np
import pytest

from cutmetrics import (
    CapExceededError,
    Graph,
    GraphInputError,
    NumericError,
    ParameterError,
    Path,
    adjacency_matrix,
    enumerate_paths,
    enumerate_rooted_forests,
    long_walk_distance,
    long_walk_limit,
    parse_graph,
    reliability_by_edge_states,
    truncated_walk_sum,
)

from conftest import k3, p2, p3, p4


class TestEnumeratePaths:
    def test_p3_single_path(self):
        paths = enumerate_paths(p3(), 1, 3)
        assert len(paths) == 1
        assert paths[0].vertices == (1, 2, 3)
        assert paths[0].length == 2
        assert paths[0].weight == 1.0

    def test_k3_two_paths(self):
        paths = enumerate_paths(k3(), 1, 2)
        assert [p.length for p in paths] == [1, 2]
        assert paths[1].vertices == (1, 3, 2)

    def test_parallel_edges_are_distinct_paths(self):
        g = parse_graph("2\n1 2 0.5\n1 2 0.25")
        paths = enumerate_paths(g, 1, 2)
        assert [p.weight for p in paths] == [0.5, 0.25]
        assert [p.edge_indices for p in paths] == [(0,), (1,)]

    def test_self_pair_is_empty_path(self):
        assert enumerate_paths(p3(), 2, 2) == [Path((2,), (), 0, 1.0)]

    def test_loops_never_appear(self):
        g = parse_graph("2\n1 1 0.5\n1 2 1.0")
        paths = enumerate_paths(g, 1, 2)
        assert len(paths) == 1 and paths[0].edge_indices == (1,)

    def test_cap_exceeded(self):
        edges = tuple((v, v + 1, 1.0) for v in range(1, 13))
        with pytest.raises(CapExceededError):
            enumerate_paths(Graph(13, edges), 1, 13)

    @pytest.mark.parametrize("i, j, bad", [(0, 2, 0), (1, 4, 4)])
    def test_vertex_out_of_range(self, i, j, bad):
        with pytest.raises(GraphInputError) as refused:
            enumerate_paths(p3(), i, j)
        assert str(refused.value) == f"vertex id out of range 1..3: {bad}"

    def test_overflowing_path_weight_is_numeric_error(self):
        with pytest.raises(NumericError, match="path weight from 1 to 3 overflows"):
            enumerate_paths(Graph(3, ((1, 2, 1e200), (2, 3, 1e200))), 1, 3)


class TestTruncatedWalkSum:
    def test_zero_terms_is_identity(self):
        assert np.array_equal(truncated_walk_sum(p2(), 0.5, 0), np.eye(2))

    def test_p2_matches_inverse(self):
        total = truncated_walk_sum(p2(), 0.5, 60)
        expected = np.linalg.inv(np.eye(2) - 0.5 * adjacency_matrix(p2()))
        assert np.abs(total - expected).max() <= 1e-15

    def test_k3_matches_inverse_within_tail(self):
        total = truncated_walk_sum(k3(), 0.3, 40)
        expected = np.linalg.inv(np.eye(3) - 0.3 * adjacency_matrix(k3()))
        assert np.abs(total - expected).max() <= 1e-9  # tail (0.6)^41 / 0.4

    def test_monotone_entrywise(self):
        previous = truncated_walk_sum(p3(), 0.5, 0)
        for k in range(1, 12):
            current = truncated_walk_sum(p3(), 0.5, k)
            assert np.all(current >= previous - 1e-15)
            previous = current

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_parameter_refused(self, t):
        # nan used to give an all-NaN matrix, and inf a RuntimeWarning.
        with pytest.raises(ParameterError, match="walk parameter must be finite"):
            truncated_walk_sum(p2(), t, 5)

    def test_overflowing_sum_is_numeric_error(self):
        with pytest.raises(NumericError, match=r"walk sum to \(tA\)\^5 overflows"):
            truncated_walk_sum(p2(), 1e308, 5)


class TestLongWalkLimit:
    def test_closed_form_matches_limit(self, small_corpus):
        for g in small_corpus[:8]:
            limit = long_walk_limit(g)
            closed = long_walk_distance(g).values
            scale = np.maximum(np.abs(limit), 1e-30)
            off = ~np.eye(g.n, dtype=bool)
            assert (np.abs(limit - closed) / scale)[off].max() <= 1e-6

    def test_non_convergence_reported(self):
        with pytest.raises(NumericError, match="extrapolation"):
            long_walk_limit(p3(), k_max=3)

    def test_relaxed_rtol_on_larger_graph(self):
        # On bigger graphs the quotient's noise floor sits above 1e-8;
        # a relaxed tolerance converges and still matches the closed form.
        rng = np.random.default_rng(3)
        n = 40
        edges = [(int(rng.integers(1, v)), v, float(rng.uniform(0.2, 1.0))) for v in range(2, n + 1)]
        edges += [
            (int(a), int(b), float(rng.uniform(0.2, 1.0)))
            for a, b in rng.integers(1, n + 1, size=(20, 2))
            if a != b
        ]
        g = Graph(n, tuple(edges))
        limit = long_walk_limit(g, rtol=1e-6)
        closed = long_walk_distance(g).values
        off = ~np.eye(n, dtype=bool)
        assert (np.abs(limit - closed) / np.maximum(np.abs(closed), 1e-30))[off].max() <= 1e-4

    @pytest.mark.parametrize("weight", [1e200, 1e-170])
    def test_limit_scales_as_the_inverse_weight(self, weight):
        # rho**2 used to overflow at 1e200 and underflow to a zero divisor at 1e-170.
        limit = long_walk_limit(Graph(2, ((1, 2, weight),)))
        assert limit[0, 1] == pytest.approx(1.0 / weight, rel=1e-8)

    def test_underflowing_walk_weights_are_numeric_error(self):
        # ln 0 of the walk weight between the ends used to warn.
        g = Graph(4, ((1, 2, 1.0), (2, 3, 1e-200), (3, 4, 1e-200)))
        with pytest.raises(NumericError, match="walk weights .* underflow to 0"):
            long_walk_limit(g)

    def test_overflowing_limit_is_numeric_error(self):
        # The limit on P2 is 1/weight, past the float range for this subnormal.
        with pytest.raises(NumericError, match="long-walk limit overflows a float"):
            long_walk_limit(Graph(2, ((1, 2, 5e-309),)))


class TestReliabilityByEdgeStates:
    def test_single_edge(self):
        assert reliability_by_edge_states(parse_graph("2\n1 2 0.5"), 1, 2) == pytest.approx(0.5, abs=1e-15)

    def test_k3_half_weights(self):
        g = parse_graph("3\n1 2 0.5\n2 3 0.5\n1 3 0.5")
        assert reliability_by_edge_states(g, 1, 2) == pytest.approx(0.625, abs=1e-15)

    def test_series_pair(self):
        g = parse_graph("3\n1 2 0.9\n2 3 0.9")
        assert reliability_by_edge_states(g, 1, 3) == pytest.approx(0.81, abs=1e-15)

    def test_diagonal_is_one(self):
        g = parse_graph("3\n1 2 0.9\n2 3 0.9")
        assert reliability_by_edge_states(g, 2, 2) == 1.0

    def test_weight_above_one_rejected(self):
        g = Graph(2, ((1, 2, 1.5),))
        with pytest.raises(ParameterError):
            reliability_by_edge_states(g, 1, 2)

    def test_cap_exceeded(self):
        edges = tuple((1, 2, 0.5) for _ in range(21))
        with pytest.raises(CapExceededError):
            reliability_by_edge_states(Graph(2, edges), 1, 2)

    @pytest.mark.parametrize("i, j, bad", [(0, 2, 0), (1, 4, 4)])
    def test_vertex_out_of_range(self, i, j, bad):
        with pytest.raises(GraphInputError) as refused:
            reliability_by_edge_states(p3(), i, j)
        assert str(refused.value) == f"vertex id out of range 1..3: {bad}"

    def test_loops_do_not_matter(self):
        plain = parse_graph("2\n1 2 0.7")
        looped = parse_graph("2\n1 2 0.7\n1 1 0.2")
        assert reliability_by_edge_states(plain, 1, 2) == reliability_by_edge_states(looped, 1, 2)


class TestEnumerateRootedForests:
    def test_p2_by_hand(self):
        summary = enumerate_rooted_forests(p2())
        assert summary.total_weight == pytest.approx(3.0, abs=1e-15)
        assert np.allclose(summary.weights, [[2, 1], [1, 2]], atol=1e-15)

    def test_p3(self):
        summary = enumerate_rooted_forests(p3())
        assert summary.total_weight == pytest.approx(8.0, abs=1e-15)
        assert np.allclose(summary.weights, [[5, 2, 1], [2, 4, 2], [1, 2, 5]], atol=1e-15)

    def test_p4_total(self):
        assert enumerate_rooted_forests(p4()).total_weight == pytest.approx(21.0, abs=1e-12)

    def test_single_weighted_edge(self):
        w = 0.37
        summary = enumerate_rooted_forests(Graph(2, ((1, 2, w),)))
        assert summary.total_weight == pytest.approx(1 + 2 * w, abs=1e-15)
        assert np.allclose(summary.weights, [[1 + w, w], [w, 1 + w]], atol=1e-15)

    def test_row_sum_law(self, small_corpus):
        for g in small_corpus[:10]:
            summary = enumerate_rooted_forests(g)
            row_sums = summary.weights.sum(axis=1)
            assert np.abs(row_sums - summary.total_weight).max() <= 1e-10 * max(1.0, summary.total_weight)

    def test_loops_excluded(self):
        plain = p2()
        looped = parse_graph("2\n1 2 1.0\n2 2 0.5")
        assert enumerate_rooted_forests(plain).total_weight == enumerate_rooted_forests(looped).total_weight

    def test_cap_exceeded(self):
        edges = tuple((1, 2, 0.5) for _ in range(21))
        with pytest.raises(CapExceededError):
            enumerate_rooted_forests(Graph(2, edges))

    def test_overflowing_forest_weight_is_numeric_error(self):
        with pytest.raises(NumericError, match="rooted-forest weight overflows"):
            enumerate_rooted_forests(Graph(3, ((1, 2, 1e200), (2, 3, 1e200))))

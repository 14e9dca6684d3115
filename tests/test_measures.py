import math

import numpy as np
import pytest

from cutmetrics import (
    CapExceededError,
    Graph,
    NumericError,
    ParameterError,
    adjacency_matrix,
    connection_reliability,
    enumerate_paths,
    find_tau_threshold,
    forest_matrix,
    parse_graph,
    path_accessibility,
    reliability_by_edge_states,
    spectral_data,
    validate_transitional_measure,
    walk_matrix,
)
from cutmetrics.measures import _simple_path_edge_ids

from conftest import complete, k3, p2, p3


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

    def test_traversals_agree_on_path_sets(self, corpus):
        for g in corpus[:8]:
            for i in range(1, g.n + 1):
                for j in range(i + 1, g.n + 1):
                    assert _simple_path_edge_ids(g, i, j) == [
                        p.edge_indices for p in enumerate_paths(g, i, j)
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

    def test_matches_edge_state_oracle(self, small_corpus):
        for g in small_corpus[:12]:
            p = connection_reliability(g).matrix
            for i in range(1, g.n + 1):
                for j in range(i + 1, g.n + 1):
                    assert p[i - 1, j - 1] == pytest.approx(
                        reliability_by_edge_states(g, i, j), abs=1e-12
                    )


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

    def test_edge_scale_matches_rescaled_graph(self, small_corpus):
        for g in small_corpus[:10]:
            scaled = Graph(g.n, tuple((u, v, 0.35 * w) for u, v, w in g.edges))
            f = forest_matrix(g, 0.35)
            assert f.params == {"t": 0.35}
            assert np.allclose(f.matrix, forest_matrix(scaled).matrix, rtol=1e-12, atol=0.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ParameterError, match="positive"):
            forest_matrix(p3(), 0.0)

    def test_determinant_overflow_named(self):
        # det(I+L) = 161^159 on K_160 exceeds the float range.
        with pytest.raises(NumericError, match="overflow"):
            forest_matrix(complete(160))

    def test_q_row_sums_are_one(self, small_corpus):
        from cutmetrics import invert, laplacian

        for g in small_corpus[:10]:
            q = invert(np.eye(g.n) + laplacian(g))
            assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-12


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

    def test_descends_when_start_fails(self):
        # Five parallel unit edges: rho = 5 and s(1/rho) = 1 exactly, so the
        # search must bisect downward from its failing starting point.
        g = Graph(2, tuple((1, 2, 1.0) for _ in range(5)))
        tau = find_tau_threshold(g, precision=1e-6)
        assert 0.1999 < tau < 0.2
        assert validate_transitional_measure(g, path_accessibility(g, tau)).passed

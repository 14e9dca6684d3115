import math

import numpy as np
import pytest

from cutmetrics import (
    DistanceMatrix,
    Graph,
    NumericError,
    ParameterError,
    TransitionalMeasure,
    adjacency_matrix,
    check_cutpoint_additivity,
    check_metric_axioms,
    forest_distance,
    forest_matrix,
    log_distance,
    long_walk_distance,
    normalize_distances,
    parse_graph,
    path_distance,
    reliability_distance,
    rescaled_long_walk_distance,
    resistance_distance,
    shortest_path_lengths,
    spectral_data,
    walk_distance,
    walk_matrix,
)

from conftest import c4, clique_edges, complete, diamond, k3, p2, p3, p4, path_edges, star4


class TestLogDistance:
    def test_walk_p2_is_ln2(self):
        d = log_distance(walk_matrix(p2(), 0.5))
        assert d.value(1, 2) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_forest_p3_values_and_additivity(self):
        d = log_distance(forest_matrix(p3()))
        assert d.value(1, 2) == pytest.approx(0.5 * math.log(5.0), abs=1e-13)
        assert d.value(1, 3) == pytest.approx(math.log(5.0), abs=1e-13)
        assert d.value(1, 2) + d.value(2, 3) == pytest.approx(d.value(1, 3), abs=1e-13)

    def test_constant_measure_gives_zero(self):
        s = TransitionalMeasure("walk", np.full((3, 3), 2.5), {"t": 0.1})
        assert np.array_equal(log_distance(s).values, np.zeros((3, 3)))

    def test_scale_invariance(self):
        base = forest_matrix(p3())
        scaled = TransitionalMeasure("forest", 17.0 * base.matrix)
        assert np.allclose(log_distance(base).values, log_distance(scaled).values, atol=1e-12)

    def test_diagonal_exactly_zero(self, small_corpus):
        for g in small_corpus[:8]:
            d = log_distance(forest_matrix(g))
            assert np.array_equal(np.diag(d.values), np.zeros(g.n))

    def test_nonpositive_entries_rejected(self):
        s = forest_matrix(p2())
        s.matrix[0, 1] = -1.0  # corrupt in place to hit the guard
        with pytest.raises(NumericError):
            log_distance(s)


class TestDistanceFamilies:
    def test_reliability_p2(self):
        d = reliability_distance(parse_graph("2\n1 2 0.5"))
        assert d.value(1, 2) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_walk_p3(self):
        d = walk_distance(p3(), 0.5)
        assert d.value(1, 2) == pytest.approx(0.5 * math.log(3.0), abs=1e-13)
        assert d.value(1, 3) == pytest.approx(math.log(3.0), abs=1e-13)

    def test_forest_p2_unit_scale(self):
        assert forest_distance(p2(), 1.0).value(1, 2) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_forest_scale_parameter(self):
        # Re-weighting by t changes the metric but keeps it additive.
        d = forest_distance(p3(), 0.35)
        assert d.params == {"t": 0.35}
        assert d.value(1, 2) + d.value(2, 3) == pytest.approx(d.value(1, 3), abs=1e-12)

    def test_forest_complete_graph_closed_form(self):
        # On K_n, (I + tL)^-1 = (I + tJ) / (1 + tn), so every distance is
        # ln(1 + 1/t); det(I + tL) = (1 + 160t)^159 overflows for t >= 1.
        off = ~np.eye(160, dtype=bool)
        for t in (0.5, 1.0, 2.0):
            d = forest_distance(complete(160), t)
            assert np.abs(d.values[off] - math.log1p(1.0 / t)).max() <= 1e-12

    def test_walk_needs_only_rho(self):
        # A K8 hub with a 40-vertex pendant path: the Perron entries at the
        # far end (about 7^-40 of the largest) are below what an eigensolver
        # resolves, yet the walk distance only needs rho.
        g = Graph(48, tuple(clique_edges(range(1, 9)) + path_edges(range(8, 49))))
        a = adjacency_matrix(g)
        t = 0.5 / np.linalg.eigvalsh(a)[-1]
        h = np.log(np.linalg.inv(np.eye(g.n) - t * a))
        diag = np.diag(h)
        expected = 0.5 * (diag[:, None] + diag[None, :] - h - h.T)
        d = walk_distance(g, t)
        off = ~np.eye(g.n, dtype=bool)
        assert (np.abs(d.values - expected)[off] / expected[off]).max() <= 1e-12
        assert check_cutpoint_additivity(g, d).passed
        try:
            perron = spectral_data(a).perron
        except NumericError:
            pass
        else:
            assert np.all(perron > 0.0)

    def test_forest_nonpositive_scale_rejected(self):
        with pytest.raises(ParameterError):
            forest_distance(p3(), 0.0)

    def test_path_distance_refuses_invalid_tau(self):
        with pytest.raises(ParameterError, match="fails"):
            path_distance(k3(), 0.7)

    def test_path_distance_valid_tau(self):
        d = path_distance(k3(), 0.5)
        assert d.value(1, 2) == pytest.approx(-math.log(0.75), abs=1e-13)


class TestResistanceDistance:
    def test_p3_series(self):
        assert resistance_distance(p3()).value(1, 3) == pytest.approx(2.0, abs=1e-12)

    def test_k3_parallel(self):
        assert resistance_distance(k3()).value(1, 2) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_unit_trees_match_shortest_path(self):
        for g in (p2(), p3(), p4(), star4()):
            r = resistance_distance(g).values
            s = shortest_path_lengths(g).values
            assert np.abs(r - s).max() <= 1e-9

    def test_diamond_values(self):
        d = resistance_distance(diamond())
        assert d.value(1, 4) == pytest.approx(1.0, abs=1e-12)
        assert d.value(1, 2) == pytest.approx(5.0 / 8.0, abs=1e-12)
        assert d.value(2, 3) == pytest.approx(0.5, abs=1e-12)


class TestLongWalkDistance:
    def test_p2_limit_is_one(self):
        assert long_walk_distance(p2()).value(1, 2) == pytest.approx(1.0, abs=1e-6)

    def test_p3_p4_cutpoint_additive(self):
        for g in (p3(), p4()):
            assert check_cutpoint_additivity(g, long_walk_distance(g), tol=1e-6).passed

    def test_k3_vertex_transitive(self):
        d = long_walk_distance(k3()).values
        off = d[~np.eye(3, dtype=bool)]
        assert np.abs(off - off[0]).max() <= 1e-9

    def test_closed_form_matches_limit(self, small_corpus):
        for g in small_corpus[:8]:
            limit = long_walk_distance(g).values
            closed = long_walk_distance(g, method="closed_form").values
            scale = np.maximum(np.abs(limit), 1e-30)
            off = ~np.eye(g.n, dtype=bool)
            assert (np.abs(limit - closed) / scale)[off].max() <= 1e-6

    def test_non_convergence_reported(self):
        with pytest.raises(NumericError, match="extrapolation"):
            long_walk_distance(p3(), k_max=3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            long_walk_distance(p2(), method="magic")

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
        limit = long_walk_distance(g, rtol=1e-6).values
        closed = long_walk_distance(g, method="closed_form").values
        off = ~np.eye(n, dtype=bool)
        assert (np.abs(limit - closed) / np.maximum(np.abs(closed), 1e-30))[off].max() <= 1e-4


class TestRescaledLongWalk:
    def test_factor_one_on_regular_graphs(self):
        for g in (p2(), k3(), c4()):
            plain = long_walk_distance(g).values
            rescaled = rescaled_long_walk_distance(g).values
            assert np.abs(plain - rescaled).max() <= 1e-9

    def test_star_factor_above_one(self):
        g = star4()
        perron = spectral_data(adjacency_matrix(g)).perron
        factor = g.n * float(perron @ perron)
        assert factor > 1.0 + 1e-6
        plain = long_walk_distance(g).value(2, 3)
        assert rescaled_long_walk_distance(g).value(2, 3) == pytest.approx(factor * plain, rel=1e-12)


class TestCheckMetricAxioms:
    def test_walk_distance_passes(self, small_corpus):
        for g in small_corpus[:10]:
            rho = spectral_data(adjacency_matrix(g)).rho
            assert check_metric_axioms(walk_distance(g, 0.5 / rho)).passed

    def test_log_metric_families_pass_on_corpus(self, corpus):
        from cutmetrics import connection_reliability, find_tau_threshold, log_distance, path_accessibility, walk_matrix
        from cutmetrics import forest_matrix as fm

        for g in corpus:
            rho = spectral_data(adjacency_matrix(g)).rho
            tau = 0.9 * find_tau_threshold(g, precision=1e-4)
            for measure in (
                path_accessibility(g, tau),
                connection_reliability(g),
                fm(g),
                walk_matrix(g, 0.5 / rho),
            ):
                assert check_metric_axioms(log_distance(measure), tol=1e-9).passed, measure.kind

    def test_symmetry_failure(self):
        candidate = DistanceMatrix(np.array([[0.0, 1.0], [3.0, 0.0]]), "candidate")
        report = check_metric_axioms(candidate)
        assert not report.passed
        assert any(v.lhs == 1.0 and v.rhs == 3.0 for v in report.violations)

    def test_triangle_failure(self):
        candidate = DistanceMatrix(
            np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]), "candidate"
        )
        report = check_metric_axioms(candidate)
        assert not report.passed
        assert any(v.lhs == 3.0 and v.rhs == 2.0 for v in report.violations)

    def test_nonzero_diagonal_failure(self):
        candidate = DistanceMatrix(np.array([[0.1, 1.0], [1.0, 0.0]]), "candidate")
        assert not check_metric_axioms(candidate).passed


class TestCheckCutpointAdditivity:
    def test_forest_p4_passes_with_cut_equalities(self):
        d = forest_distance(p4())
        assert check_cutpoint_additivity(p4(), d).passed
        assert d.value(1, 2) + d.value(2, 4) == pytest.approx(d.value(1, 4), rel=1e-12)

    def test_shortest_path_fails_on_c4(self):
        report = check_cutpoint_additivity(c4(), shortest_path_lengths(c4()))
        assert not report.passed
        # d(1,2) + d(2,3) = d(1,3) although 2 is not a cutpoint of the cycle.
        bad = next(v for v in report.violations if (v.i, v.j, v.k) == (1, 2, 3))
        assert not bad.expected_equal

    def test_shortest_path_fails_on_diamond(self):
        report = check_cutpoint_additivity(diamond(), shortest_path_lengths(diamond()))
        assert not report.passed

    def test_resistance_is_cutpoint_additive_everywhere(self, small_corpus):
        # Effective resistance satisfies the equality exactly at cutpoints
        # (series decomposition) and strictly inside it otherwise, on every
        # connected graph, the diamond included.
        for g in list(small_corpus[:10]) + [diamond(), c4()]:
            assert check_cutpoint_additivity(g, resistance_distance(g)).passed

    def test_order_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            check_cutpoint_additivity(p3(), resistance_distance(p2()))


class TestNormalizeDistances:
    PAIRS = [(1, 2), (2, 3), (3, 4)]

    def test_walk_p4_framing(self):
        d = normalize_distances(walk_distance(p4(), 0.4), self.PAIRS, 3.0)
        assert d.value(1, 4) == pytest.approx(3.0, abs=1e-12)

    def test_identity_scaling(self):
        base = walk_distance(p4(), 0.4)
        total = sum(base.value(u, v) for u, v in self.PAIRS)
        unchanged = normalize_distances(base, self.PAIRS, total)
        assert np.allclose(unchanged.values, base.values, rtol=1e-15)

    def test_shortest_p4_already_normalized(self):
        d = normalize_distances(shortest_path_lengths(p4()), self.PAIRS, 3.0)
        assert np.array_equal(d.values, shortest_path_lengths(p4()).values)

    def test_empty_pairs_rejected(self):
        with pytest.raises(ParameterError):
            normalize_distances(shortest_path_lengths(p4()), [], 3.0)

    def test_zero_sum_rejected(self):
        zero = DistanceMatrix(np.zeros((4, 4)), "candidate")
        with pytest.raises(ParameterError):
            normalize_distances(zero, self.PAIRS, 3.0)

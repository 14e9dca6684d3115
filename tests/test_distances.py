import math
from dataclasses import astuple
from pathlib import Path

import networkx as nx
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
    find_tau_threshold,
    forest_distance,
    forest_matrix,
    is_cutpoint_between,
    log_distance,
    long_walk_distance,
    normalize_distances,
    parse_graph,
    path_accessibility,
    path_distance,
    reliability_distance,
    rescaled_long_walk_distance,
    resistance_distance,
    separation_labels,
    shortest_path_lengths,
    spectral_data,
    validate_transitional_measure,
    walk_distance,
    walk_matrix,
)
from cutmetrics import linalg, measures
from cutmetrics.types import ValidationReport, Violation

from conftest import (
    OUT_OF_RANGE_TOLERANCES,
    as_networkx,
    c4,
    clique_edges,
    complete,
    cycle_with_chords,
    diamond,
    k3,
    p2,
    p3,
    p4,
    path_edges,
    paw,
    star4,
)


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

    @pytest.mark.parametrize("tol", OUT_OF_RANGE_TOLERANCES)
    def test_path_distance_refuses_tolerance_outside_range(self, tol):
        with pytest.raises(ParameterError, match=r"tolerance must lie in \[0, inf\)"):
            path_distance(paw(), 0.3, tol)

    def test_path_distance_valid_tau(self):
        d = path_distance(k3(), 0.5)
        assert d.value(1, 2) == pytest.approx(-math.log(0.75), abs=1e-13)

    def test_path_distance_builds_no_report_when_valid(self, monkeypatch, small_corpus):
        calls = []
        original = ValidationReport._from_columns
        monkeypatch.setattr(ValidationReport, "_from_columns", lambda *args: calls.append(args) or original(*args))
        for g in small_corpus[:6]:
            path_distance(g, find_tau_threshold(g, precision=1e-4) / 2.0)
        assert calls == []
        with pytest.raises(ParameterError):
            path_distance(k3(), 0.7)
        assert calls == []  # the refusal's count comes from the verdict pass

    def test_path_distance_refuses_as_the_report_does(self, corpus):
        # The one-pass test refuses exactly when the full report fails, with
        # the report's violation count; a valid tau gives the log distance.
        for g in corpus[::4]:
            threshold = find_tau_threshold(g, precision=1e-4)
            for tau in (threshold / 2.0, threshold, threshold + 2e-4, 1.5 * threshold, 4.0 * threshold):
                measure = path_accessibility(g, tau)
                report = validate_transitional_measure(g, measure)
                if report.passed:
                    assert path_distance(g, tau).values.tobytes() == log_distance(measure).values.tobytes()
                    continue
                with pytest.raises(ParameterError) as refused:
                    path_distance(g, tau)
                assert str(refused.value) == (
                    f"tau={tau} fails transitional-measure validation "
                    f"({len(report.violations)} violating triples); try a smaller value"
                )


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

    def test_unknown_method_rejected(self):
        with pytest.raises(ParameterError):
            long_walk_distance(p2(), method="magic")

    def test_limit_method_names_the_oracle(self):
        with pytest.raises(ParameterError, match="oracle.long_walk_limit"):
            long_walk_distance(p2(), method="limit")

    def test_one_eigensolve_per_call(self, small_corpus, monkeypatch):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        for g in small_corpus[:6]:
            for fn in (long_walk_distance, rescaled_long_walk_distance):
                calls.clear()
                fn(g)
                assert len(calls) == 1, fn.__name__


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


def _exact(report):
    return report.passed, [(v.i, v.j, v.k, v.lhs.hex(), v.rhs.hex(), v.expected_equal) for v in report.violations]


def _spoiled(g, seed):
    """The forest distance spoiled in every way the axioms check: symmetric
    noise breaks the triangle inequality, asymmetric noise symmetry, a
    shifted diagonal the zero diagonal, and a shift down positivity."""
    d = forest_distance(g).values
    noise = np.random.default_rng(seed).uniform(0.5, 1.5, d.shape)
    return [
        DistanceMatrix(d * (noise + noise.T) / 2.0, "noisy"),
        DistanceMatrix(d * noise + 0.3 * np.eye(g.n), "asymmetric"),
        DistanceMatrix(d * noise - np.median(d), "shifted"),
    ]


class TestCheckMetricAxioms:
    def test_pair_checks_match_scalar_loop(self, corpus):
        # The scalar loop the diagonal, symmetry and positivity checks were
        # vectorized from: diagonal entries first, then each pair i < j in
        # row-major order, its symmetry failure before its positivity failure.
        tol, floor = 1e-9, 1e-12
        kinds = set()
        for seed, g in enumerate(corpus):
            for d in _spoiled(g, seed):
                v = d.values
                expected = [(i, i, i, v[i - 1, i - 1], 0.0, True) for i in range(1, g.n + 1) if abs(v[i - 1, i - 1]) > floor]
                for i in range(1, g.n + 1):
                    for j in range(i + 1, g.n + 1):
                        a, b = float(v[i - 1, j - 1]), float(v[j - 1, i - 1])
                        if abs(a - b) > tol * max(abs(a), abs(b)) + floor:
                            expected.append((i, j, i, a, b, True))
                        if not a > 0.0:
                            expected.append((i, j, i, a, 0.0, False))
                found = [astuple(x) for x in check_metric_axioms(d, tol).violations if len({x.i, x.j, x.k}) < 3]
                assert found == expected
                kinds.update((x[0] == x[1], x[5]) for x in found)
        assert kinds == {(True, True), (False, True), (False, False)}

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

    def test_shortest_violations_match_a_scalar_loop_in_order(self):
        # Thousands of shortest-path triples are additive with no cutpoint
        # between them.  The checker must report exactly those a plain loop
        # over (i, j, k) finds, in the same lexicographic order.
        g = cycle_with_chords(np.random.default_rng(7), 64, 64)
        d = shortest_path_lengths(g)
        x = d.values.tolist()
        # On distinct vertices is_cutpoint_between holds only where j is a cut vertex.
        cut = set(nx.articulation_points(as_networkx(g)))
        expected = []
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                for k in range(1, g.n + 1):
                    if i == j or j == k or i == k:
                        continue
                    lhs, rhs = x[i - 1][j - 1] + x[j - 1][k - 1], x[i - 1][k - 1]
                    equal = abs(lhs - rhs) <= 1e-9 * abs(rhs) + measures.EQUALITY_FLOOR
                    separated = j in cut and is_cutpoint_between(g, j, i, k)
                    if equal != separated:
                        expected.append(Violation(i, j, k, lhs, rhs, separated))
        report = check_cutpoint_additivity(g, d)
        triples = [(v.i, v.j, v.k) for v in report.violations]
        assert len(triples) > 10_000 and cut == {1, 63}
        assert triples == sorted(triples)
        assert report.violations == tuple(expected)


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

    def test_pair_out_of_range_rejected(self):
        with pytest.raises(ParameterError) as refused:
            normalize_distances(shortest_path_lengths(p3()), [(1, 9)], 3.0)
        assert str(refused.value) == "pair (1, 9) out of range 1..3"

    def test_integral_ids_accepted(self):
        # As Graph accepts an edge's ends: any id equal to its int.
        expected = normalize_distances(walk_distance(p4(), 0.4), self.PAIRS, 3.0).values.tobytes()
        for pair in ((1.0, 2), (np.float64(1), 2), (np.int32(1), 2.0), (True, 2)):
            d = normalize_distances(walk_distance(p4(), 0.4), [pair, (2, 3), (3, 4)], 3.0)
            assert d.values.tobytes() == expected

    @pytest.mark.parametrize(
        "pair",
        [(1.5, 2), ("1", 2), (1, 2, 3), (1,), 7, None, (math.nan, 2), (1, math.inf), (np.array([1, 2]), 3)],
    )
    def test_malformed_pair_refused_by_name(self, pair):
        with pytest.raises(ParameterError) as refused:
            normalize_distances(shortest_path_lengths(p4()), [(1, 2), pair], 3.0)
        assert str(refused.value) == f"pair must be two integer vertex ids, got {pair!r}"

    def test_zero_sum_rejected(self):
        zero = DistanceMatrix(np.zeros((4, 4)), "candidate")
        with pytest.raises(ParameterError):
            normalize_distances(zero, self.PAIRS, 3.0)

    @pytest.mark.parametrize("target", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_target_outside_positive_finite_rejected(self, target):
        with pytest.raises(ParameterError, match="target must be positive and finite"):
            normalize_distances(shortest_path_lengths(p4()), self.PAIRS, target)

    @pytest.mark.parametrize("target", [1.7e308, math.nextafter(math.inf, 0.0)])
    def test_overflowing_rescale_is_numeric_error(self, target):
        # d(1,2) = 0.5 doubles the target past the float range; the
        # RuntimeWarning filter turns any numpy overflow warning into a failure.
        half = DistanceMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]), "candidate")
        with pytest.raises(NumericError, match="overflows a float"):
            normalize_distances(half, [(1, 2)], target)

    def test_largest_finite_rescale_passes(self):
        d = normalize_distances(DistanceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]), "candidate"), [(1, 2)], 1.7e308)
        assert d.value(1, 2) == 1.7e308


class TestMergedDistancePass:
    NAMES = ("transitional-measure", "metric-axioms", "cutpoint-additivity")

    def test_reports_equal_the_public_checkers(self, corpus):
        for seed, g in enumerate(corpus):
            labels = separation_labels(g)
            for d in (forest_distance(g), shortest_path_lengths(g), resistance_distance(g), *_spoiled(g, seed)):
                axioms, additivity = measures._checks(d.values, labels, 1e-9, self.NAMES[1:])
                assert _exact(axioms) == _exact(check_metric_axioms(d, 1e-9))
                assert _exact(additivity) == _exact(check_cutpoint_additivity(g, d, 1e-9))

    def test_measure_report_equals_the_public_checker(self, corpus):
        for g in corpus:
            labels = separation_labels(g)
            for measure in (measures._forest_inverse(g, 1.0), path_accessibility(g, 0.7)):
                d = log_distance(measure)
                transition, axioms, additivity = measures._checks(d.values, labels, 1e-9, self.NAMES, measure)
                assert _exact(transition) == _exact(validate_transitional_measure(g, measure, 1e-9))
                assert _exact(axioms) == _exact(check_metric_axioms(d, 1e-9))
                assert _exact(additivity) == _exact(check_cutpoint_additivity(g, d, 1e-9))

    def test_failing_reports_equal_the_public_checkers(self, monkeypatch):
        # Each report must hold its own check's columns: on the corpus the
        # axioms and additivity reports of a valid measure are empty, so a
        # pass that filled one report from another's columns would go unseen.
        # Here walk at 1/(2 rho) with tol 1e-3 fails 466 transition and 798
        # additivity triples, and exp(-d) of a noisy forest distance d, whose
        # log distance is d, fails all three checks.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        import graphs

        g = Graph(*graphs.cut_rich(np.random.default_rng(1), 40, chain=False))
        labels = separation_labels(g)
        walk = walk_matrix(g, 0.5 / linalg._spectral_radius(adjacency_matrix(g)))
        noisy = TransitionalMeasure("forest", np.exp(-_spoiled(g, 1)[0].values))
        for measure, tol, counts in ((walk, 1e-3, (466, 0, 798)), (noisy, 1e-9, None)):
            d = log_distance(measure)
            reports = measures._checks(d.values, labels, tol, self.NAMES, measure)
            public = [
                validate_transitional_measure(g, measure, tol),
                check_metric_axioms(d, tol),
                check_cutpoint_additivity(g, d, tol),
            ]
            sizes = tuple(len(r.violations) for r in reports)
            assert (sizes == counts) if counts else all(sizes)
            for report, expected in zip(reports, public):
                assert report == expected
                assert [c.tobytes() for c in report._columns] == [c.tobytes() for c in expected._columns]

    def test_empty_matrix_passes(self):
        # A 0 x 0 matrix has no triple to test, as TransitionalMeasure allows.
        assert check_metric_axioms(DistanceMatrix(np.zeros((0, 0)), "candidate")).passed
        empty = TransitionalMeasure("forest", np.ones((0, 0)))
        reports = measures._checks(np.zeros((0, 0)), np.zeros((0, 0), dtype=int), 1e-9, self.NAMES, empty)
        assert [r.passed for r in reports] == [True] * 3

    @pytest.mark.parametrize("tol", OUT_OF_RANGE_TOLERANCES)
    @pytest.mark.parametrize("checker", ["axioms", "additivity"])
    def test_tolerance_outside_range_refused(self, checker, tol):
        # Before the refusal nan passed silently, -1 failed 30 triangle
        # triples of the correct forest distance, and inf raised a warning.
        g = paw()
        d = forest_distance(g)
        with pytest.raises(ParameterError, match=r"tolerance must lie in \[0, inf\)"):
            if checker == "axioms":
                check_metric_axioms(d, tol)
            else:
                check_cutpoint_additivity(g, d, tol)

    @pytest.mark.parametrize("tol", [1e308, np.finfo(float).max])
    def test_huge_tolerance_reports_equal_those_at_1e300(self, corpus, tol):
        # The slacks tol * (x + gap), tol * |x| and the symmetry slack used to
        # overflow with a RuntimeWarning; an infinite slack is their limit.
        for seed, g in enumerate(corpus):
            measure = measures._forest_inverse(g, 1.0)
            assert _exact(validate_transitional_measure(g, measure, tol)) == _exact(
                validate_transitional_measure(g, measure, 1e300)
            )
            for d in (resistance_distance(g), shortest_path_lengths(g), forest_distance(g), *_spoiled(g, seed)):
                assert _exact(check_metric_axioms(d, tol)) == _exact(check_metric_axioms(d, 1e300))
                assert _exact(check_cutpoint_additivity(g, d, tol)) == _exact(check_cutpoint_additivity(g, d, 1e300))


class TestValidationReport:
    def test_lazy_violations_equal_eager(self, corpus):
        # The first 30 corpus graphs are trees, where shortest path passes.
        assert not all(check_cutpoint_additivity(g, shortest_path_lengths(g)).passed for g in corpus)
        for g in corpus:
            lazy = check_cutpoint_additivity(g, shortest_path_lengths(g))
            triples, lhs, rhs, expected = lazy._columns
            eager = ValidationReport(
                lazy.passed,
                tuple(
                    Violation(int(i), int(j), int(k), float(a), float(b), bool(e))
                    for (i, j, k), a, b, e in zip(triples, lhs, rhs, expected)
                ),
            )
            assert lazy.violations == eager.violations
            assert (lazy == eager, hash(lazy), repr(lazy)) == (True, hash(eager), repr(eager))
            for v in lazy.violations:
                assert (type(v.i), type(v.lhs), type(v.rhs), type(v.expected_equal)) == (int, float, float, bool)
            for built, stored in zip(eager._columns, lazy._columns):
                assert built.dtype == stored.dtype and np.array_equal(built, stored)
            assert lazy.passed == (lazy.violations == ())

    def test_passing_check_has_empty_tuple(self):
        report = check_cutpoint_additivity(p4(), forest_distance(p4()))
        assert report.passed and report.violations == () and report == ValidationReport(True)

    def test_unequal_to_other_types(self):
        report = ValidationReport(True)
        assert report.__eq__(object()) is NotImplemented
        assert (report == object()) is False

    def test_immutable_and_consistent(self):
        report = check_cutpoint_additivity(c4(), shortest_path_lengths(c4()))
        with pytest.raises(AttributeError):
            report.passed = True
        with pytest.raises(ValueError):
            ValidationReport(True, report.violations)


class TestContainerRefusals:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: DistanceMatrix(np.zeros((2, 3)), "candidate"), ValueError, "distance matrix must be square"),
            (
                lambda: DistanceMatrix(np.array([[0.0, np.nan], [1.0, 0.0]]), "candidate"),
                NumericError,
                "candidate distance has non-finite entries",
            ),
            (lambda: DistanceMatrix(np.zeros((2, 2)), "candidate").value(0, 1), IndexError, "vertex pair (0, 1) out of range 1..2"),
            (lambda: TransitionalMeasure("bogus", np.ones((2, 2))), ValueError, "unknown measure kind 'bogus'"),
        ],
        ids=["non-square", "nan", "vertex-zero", "unknown-kind"],
    )
    def test_refused_with_its_type_and_message(self, build, error, message):
        with pytest.raises(error) as refused:
            build()
        assert str(refused.value) == message

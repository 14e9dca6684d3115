"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
execute.  The random corpus is seeded and deterministic: 100 connected
weighted multigraphs with n <= 7, weights in (0, 1], parallel edges and
loops included, the first 30 of them trees (so cutpoints are plentiful).
"""

import itertools
import math
import time
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from cutmetrics import (
    adjacency_matrix,
    check_cutpoint_additivity,
    connection_reliability,
    determinant,
    enumerate_paths,
    enumerate_rooted_forests,
    find_tau_threshold,
    forest_matrix,
    laplacian,
    log_distance,
    long_walk_distance,
    parse_graph,
    path_accessibility,
    reliability_by_edge_states,
    rescaled_long_walk_distance,
    resistance_distance,
    shortest_path_lengths,
    spectral_data,
    truncated_walk_sum,
    validate_transitional_measure,
    walk_matrix,
)
from cutmetrics.cli import main
from cutmetrics.graph import cutpoint_table

from conftest import c4, diamond, k3, p2, p3, p4


def _report(number: int, name: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    return ok


def _corpus_measures(g):
    """The four measures of criterion 1 for one corpus graph."""
    rho = spectral_data(adjacency_matrix(g)).rho
    tau = 0.9 * find_tau_threshold(g)
    return {
        "path": path_accessibility(g, tau),
        "reliability": connection_reliability(g),
        "forest": forest_matrix(g),
        "walk": walk_matrix(g, 0.5 / rho),
    }


def test_criterion_1_transitional_measures(corpus):
    started = time.perf_counter()
    failures = []
    for index, g in enumerate(corpus):
        for name, measure in _corpus_measures(g).items():
            report = validate_transitional_measure(g, measure, tol=1e-9)
            if not report.passed:
                failures.append((index, name, len(report.violations)))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    _report(1, f"transitional measures on 100 graphs in {elapsed:.2f}s", ok)
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_criterion_2_cutpoint_additivity(corpus):
    failures = []
    with_cutpoint = 0
    for index, g in enumerate(corpus):
        table = cutpoint_table(g)
        if any(
            table[j][i][k]
            for j in range(1, g.n + 1)
            for i in range(1, g.n + 1)
            for k in range(1, g.n + 1)
            if len({i, j, k}) == 3
        ):
            with_cutpoint += 1
        for name, measure in _corpus_measures(g).items():
            report = check_cutpoint_additivity(g, log_distance(measure), tol=1e-9)
            if not report.passed:
                failures.append((index, name, len(report.violations)))
    ok = not failures and with_cutpoint >= 20
    _report(2, f"cutpoint additivity, {with_cutpoint} graphs with a cutpoint", ok)
    assert not failures, failures[:5]
    assert with_cutpoint >= 20


def test_criterion_3_oracle_equivalences(corpus):
    worst_forest = worst_reliability = worst_walk_excess = 0.0
    path_mismatches = 0
    for g in corpus:
        non_loop = sum(1 for u, v, _ in g.edges if u != v)

        if non_loop <= 10:
            forest = forest_matrix(g).matrix
            summary = enumerate_rooted_forests(g)
            scale = np.maximum(1.0, np.abs(summary.weights))
            worst_forest = max(worst_forest, float((np.abs(forest - summary.weights) / scale).max()))

        if non_loop <= 12:
            reliability = connection_reliability(g).matrix
            for i in range(1, g.n + 1):
                for j in range(i + 1, g.n + 1):
                    delta = abs(reliability[i - 1, j - 1] - reliability_by_edge_states(g, i, j))
                    worst_reliability = max(worst_reliability, delta)

        rho = spectral_data(adjacency_matrix(g)).rho
        t = 0.5 / rho
        walk = walk_matrix(g, t).matrix
        partial = truncated_walk_sum(g, t, 60)
        tail = (t * rho) ** 61 / (1.0 - t * rho)
        scale = max(1.0, float(np.abs(walk).max()))
        # Allowance of 1e-13 per unit scale for the float roundoff of 60
        # matrix products and the LU solve; the analytic tail is far below it.
        bound = tail * scale + 1e-13 * scale
        worst_walk_excess = max(worst_walk_excess, float(np.abs(walk - partial).max()) - bound)

        s = path_accessibility(g, 0.4).matrix
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                groups: dict[int, float] = {}
                for p in enumerate_paths(g, i, j):
                    groups[p.length] = groups.get(p.length, 0.0) + p.weight
                expected = 0.0
                for length in sorted(groups):
                    expected = expected + 0.4**length * groups[length]
                if float(s[i - 1, j - 1]) != expected:
                    path_mismatches += 1

    ok = (
        worst_forest <= 1e-12
        and worst_reliability <= 1e-12
        and worst_walk_excess <= 0.0
        and path_mismatches == 0
    )
    _report(
        3,
        f"oracle equivalences (forest {worst_forest:.1e}, reliability {worst_reliability:.1e})",
        ok,
    )
    assert worst_forest <= 1e-12
    assert worst_reliability <= 1e-12
    assert worst_walk_excess <= 0.0
    assert path_mismatches == 0


def test_criterion_4_closed_derived_values():
    walk_p2 = log_distance(walk_matrix(p2(), 0.5)).value(1, 2)
    forest_p3 = log_distance(forest_matrix(p3()))
    walk_p3 = log_distance(walk_matrix(p3(), 0.5))
    det_p4 = determinant(np.eye(4) + laplacian(p4()))
    rel_k3 = connection_reliability(
        parse_graph("3\n1 2 0.5\n2 3 0.5\n1 3 0.5")
    ).matrix[0, 1]

    checks = [
        abs(walk_p2 - math.log(2.0)) <= 1e-12,
        abs(forest_p3.value(1, 2) - 0.5 * math.log(5.0)) <= 1e-12,
        abs(forest_p3.value(1, 3) - math.log(5.0)) <= 1e-12,
        abs(walk_p3.value(1, 2) - 0.5 * math.log(3.0)) <= 1e-12,
        abs(walk_p3.value(1, 3) - math.log(3.0)) <= 1e-12,
        abs(det_p4 - 21.0) <= 1e-9,
        abs(rel_k3 - 0.625) <= 1e-12,
    ]
    _report(4, "closed derived values", all(checks))
    assert all(checks), checks


def test_criterion_5_long_walk():
    lw_p2 = long_walk_distance(p2()).value(1, 2)
    additive_p3 = check_cutpoint_additivity(p3(), long_walk_distance(p3()), tol=1e-6).passed
    additive_p4 = check_cutpoint_additivity(p4(), long_walk_distance(p4()), tol=1e-6).passed
    factors = []
    for g in (k3(), p2()):
        perron = spectral_data(adjacency_matrix(g)).perron
        factors.append(g.n * float(perron @ perron))
    checks = [
        abs(lw_p2 - 1.0) <= 1e-6,
        additive_p3,
        additive_p4,
        abs(factors[0] - 1.0) <= 1e-9,
        abs(factors[1] - 1.0) <= 1e-9,
    ]
    # The rescaled metric must coincide with the plain one on these graphs.
    checks.append(
        np.abs(
            rescaled_long_walk_distance(k3()).values - long_walk_distance(k3()).values
        ).max()
        <= 1e-9
    )
    _report(5, f"long-walk limit (P2 -> {lw_p2:.9f})", all(checks))
    assert all(checks), checks


def test_criterion_6_tau_threshold_behavior():
    g = k3()
    passes_small = validate_transitional_measure(g, path_accessibility(g, 0.5), tol=1e-9).passed
    fails_large = not validate_transitional_measure(g, path_accessibility(g, 0.7), tol=1e-9).passed
    threshold = find_tau_threshold(g)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    checks = [passes_small, fails_large, abs(threshold - golden) <= 1e-3]
    _report(6, f"tau threshold on K3 ({threshold:.6f} vs {golden:.6f})", all(checks))
    assert all(checks), (passes_small, fails_large, threshold)


P4_FILE = "4\n1 2 1\n2 3 1\n3 4 1\n"
C4_FILE = "4\n1 2 1\n2 3 1\n3 4 1\n1 4 1\n"
ADDITIVE_METRICS = "shortest,resistance,path:tau=0.3,forest,walk:t=0.4"


def test_criterion_7_figure_conventions(tmp_path):
    p4_file = tmp_path / "p4.txt"
    p4_file.write_text(P4_FILE)
    c4_file = tmp_path / "c4.txt"
    c4_file.write_text(C4_FILE)

    table = tmp_path / "table.csv"
    assert main(["compare", "--input", str(p4_file), "--metric", ADDITIVE_METRICS, "--output", str(table)]) == 0
    lines = table.read_text().strip().splitlines()
    header = lines[0].split(",")
    far_column = header.index("d(1-4)")
    far_values = [float(line.split(",")[far_column]) for line in lines[1:]]
    compare_ok = len(far_values) == 5 and all(abs(v - 3.0) <= 1e-9 for v in far_values)

    coords = tmp_path / "p4_coords.csv"
    assert main(["figure", "--input", str(p4_file), "--metric", ADDITIVE_METRICS, "--output", str(coords)]) == 0
    heights_p4 = [
        float(line.split(",")[3])
        for line in coords.read_text().strip().splitlines()[1:]
        if line.split(",")[1] == "1"
    ]
    flat_ok = len(heights_p4) == 5 and all(abs(h) <= 1e-6 for h in heights_p4)

    c4_coords = tmp_path / "c4_coords.csv"
    assert main(["figure", "--input", str(c4_file), "--metric", "shortest,resistance,walk:t=0.4", "--output", str(c4_coords)]) == 0
    heights_c4 = [
        float(line.split(",")[3])
        for line in c4_coords.read_text().strip().splitlines()[1:]
        if line.split(",")[1] == "1"
    ]
    trapezoid_ok = len(heights_c4) == 3 and all(h > 0.0 for h in heights_c4)

    ok = compare_ok and flat_ok and trapezoid_ok
    _report(7, "normalized compare and projection conventions", ok)
    assert compare_ok, far_values
    assert flat_ok, heights_p4
    assert trapezoid_ok, heights_c4


def test_criterion_8a_shortest_path_not_additive_on_c4():
    report = check_cutpoint_additivity(c4(), shortest_path_lengths(c4()), tol=1e-9)
    ok = not report.passed
    _report(8, "negative control: shortest path on C4", ok)
    assert ok


# Effective resistance on the diamond with unit conductances, in closed form.
# R(1,4): by the 1 <-> 4 symmetry vertices 2 and 3 sit at one potential, the
# bridge 2-3 carries no current, and two series pairs in parallel give 1.
# R(2,3) = 1 || 2 || 2 = 1/2.  R(1,2) = 1 || (1 + (1 || 2)) = 5/8, and the
# other three edges of the outer 4-cycle follow by symmetry.
DIAMOND_RESISTANCE = {
    (1, 2): Fraction(5, 8),
    (1, 3): Fraction(5, 8),
    (1, 4): Fraction(1),
    (2, 3): Fraction(1, 2),
    (2, 4): Fraction(5, 8),
    (3, 4): Fraction(5, 8),
}


def test_criterion_8b_resistance_not_additive_on_diamond():
    # The diamond is 2-connected, so a cutpoint-additive distance must be
    # additive on none of its triples.  Resistance is cutpoint-additive
    # (Chebotarev, Discrete Appl. Math. 159, 2011): on the diamond every
    # triple stays at least 1/4 inside the triangle inequality and the
    # checker accepts it.  Shortest path is the negative control on the
    # same graph: it is additive through 2 and through 3 between 1 and 4,
    # where no cutpoint exists, and the checker must reject exactly those.
    g = diamond()
    triples = list(itertools.permutations(range(1, g.n + 1), 3))

    table = cutpoint_table(g)
    reference = nx.Graph((u, v) for u, v, _ in g.edges)
    no_cutpoint = not any(table[j][i][k] for i, j, k in triples)
    no_articulation = not list(nx.articulation_points(reference))

    def closed(u, v):
        return DIAMOND_RESISTANCE[(min(u, v), max(u, v))]

    closed_gaps = {(i, j, k): closed(i, j) + closed(j, k) - closed(i, k) for i, j, k in triples}
    closed_margin = min(closed_gaps.values())
    networkx_agrees = all(
        abs(nx.resistance_distance(reference, u, v) - float(value)) <= 1e-12
        for (u, v), value in DIAMOND_RESISTANCE.items()
    )

    r = resistance_distance(g)
    resistance_matches = all(
        abs(r.value(u, v) - float(value)) <= 1e-12 for (u, v), value in DIAMOND_RESISTANCE.items()
    )
    gaps = {(i, j, k): r.value(i, j) + r.value(j, k) - r.value(i, k) for i, j, k in triples}
    thin = {t: gap for t, gap in gaps.items() if gap < 0.25 - 1e-12}
    resistance_report = check_cutpoint_additivity(g, r, tol=1e-9)

    shortest_report = check_cutpoint_additivity(g, shortest_path_lengths(g), tol=1e-9)
    flagged = sorted((v.i, v.j, v.k) for v in shortest_report.violations)
    expected_flagged = [(1, 2, 4), (1, 3, 4), (4, 2, 1), (4, 3, 1)]
    shortest_rejected = (
        not shortest_report.passed
        and flagged == expected_flagged
        and not any(v.expected_equal for v in shortest_report.violations)
    )

    ok = (
        no_cutpoint
        and no_articulation
        and closed_margin == Fraction(1, 4)
        and networkx_agrees
        and resistance_matches
        and not thin
        and resistance_report.passed
        and shortest_rejected
    )
    _report(8, "negative control: shortest path rejected, resistance 1/4 inside on diamond", ok)
    assert no_cutpoint
    assert no_articulation
    assert closed_margin == Fraction(1, 4), closed_gaps
    assert networkx_agrees
    assert resistance_matches, r.values
    assert not thin, thin
    assert resistance_report.passed, resistance_report.violations
    assert not shortest_report.passed
    assert flagged == expected_flagged, flagged
    assert not any(v.expected_equal for v in shortest_report.violations), shortest_report.violations

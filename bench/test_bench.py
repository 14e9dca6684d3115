"""Tests of the benchmark's own references and checks.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import graphs
import reference
import workloads

P4 = (4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
K3 = (3, [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0)])
# K4 minus the edge {1, 4}: two triangles sharing the edge {2, 3}.
DIAMOND = (4, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)])


def off_diagonal(n, value):
    return np.full((n, n), value) - value * np.eye(n)


def test_p4_closed_forms():
    n, edges = P4
    a = graphs.adjacency(n, edges)
    hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    np.testing.assert_allclose(reference.resistance(a), hops, atol=1e-12)
    # On a tree every i-k path is the unique one: S_ik = tau^|i-k|.
    tau = 0.3
    path = reference.log_transform(reference.path_measure(reference.path_weight_polynomial(n, edges), tau))
    np.testing.assert_allclose(path, -math.log(tau) * hops, atol=1e-12)
    p = [0.9, 0.5, 0.7]
    rel = reference.reliability(n, [(u, v, w) for (u, v, _), w in zip(edges, p)])
    assert rel[0, 3] == pytest.approx(0.9 * 0.5 * 0.7, abs=1e-12)
    assert rel[1, 2] == pytest.approx(0.5, abs=1e-12)
    sep = reference.Separators(n, edges)
    assert sorted(sep.labels) == [2, 3]
    assert sep.separates(1, 2, 4) and sep.separates(1, 3, 4) and not sep.separates(2, 1, 3)
    assert reference.shortest_violations(n, edges, sep.table()) == set()


def test_k3_closed_forms():
    n, edges = K3
    a = graphs.adjacency(n, edges)
    assert reference.spectral_radius(a) == pytest.approx(2.0)
    # inv(I + L) = (I + J) / 4, so the forest distance is ln 2.
    np.testing.assert_allclose(reference.forest(a), off_diagonal(n, math.log(2.0)), atol=1e-12)
    # At t = 1/(2 rho) = 1/4 the walk distance is ln((1 - t) / t) = ln 3.
    np.testing.assert_allclose(reference.walk(a, 0.25), off_diagonal(n, math.log(3.0)), atol=1e-12)
    np.testing.assert_allclose(reference.resistance(a), off_diagonal(n, 2.0 / 3.0), atol=1e-12)
    # On a regular graph the long-walk distance equals the resistance.
    np.testing.assert_allclose(reference.long_walk(a), off_diagonal(n, 2.0 / 3.0), atol=1e-12)
    p = 0.6
    rel = reference.reliability(n, [(u, v, p) for u, v, _ in edges])
    assert rel[0, 1] == pytest.approx(1.0 - (1.0 - p) * (1.0 - p * p), abs=1e-12)
    assert reference.Separators(n, edges).labels == {}


def test_diamond_closed_forms():
    n, edges = DIAMOND
    r = reference.resistance(graphs.adjacency(n, edges))
    assert r[0, 3] == pytest.approx(1.0, abs=1e-12)
    assert r[1, 2] == pytest.approx(0.5, abs=1e-12)
    for i, j in ((0, 1), (0, 2), (1, 3), (2, 3)):
        assert r[i, j] == pytest.approx(5.0 / 8.0, abs=1e-12)
    sep = reference.Separators(n, edges)
    assert sep.labels == {}
    assert reference.shortest_violations(n, edges, sep.table()) == {(1, 2, 4), (1, 3, 4), (4, 2, 1), (4, 3, 1)}


def _compute_check(n, edges):
    a = graphs.adjacency(n, edges)
    ref = reference.resistance(a)
    triples = reference.Separators(n, edges).sample_triples(np.random.default_rng(0), 4)
    _, check = workloads._compute_op(None, None, None, [(ref, reference.REL_TOL)], triples)
    return ref, check


def test_compute_check_flags_one_entry_off_by_1e_6():
    ref, check = _compute_check(*P4)
    assert check([SimpleNamespace(values=ref.copy())]) == workloads.OK
    bad = ref.copy()
    bad[0, 2] *= 1.0 + 1e-6
    assert check([SimpleNamespace(values=bad)]) == workloads.WRONG


def test_additivity_check_flags_a_lost_cutpoint_equality():
    n, edges = P4
    d = reference.resistance(graphs.adjacency(n, edges))
    assert reference.additivity_holds(d, [((1, 2, 4), True), ((2, 1, 3), False)])
    d[0, 3] = d[3, 0] = 2.5
    assert not reference.additivity_holds(d, [((1, 2, 4), True)])


def _report(path, violations):
    payload = {"passed": not violations, "violations": violations}
    path.write_text(json.dumps(payload), encoding="utf-8")


def test_shortest_check_flags_a_dropped_violation(tmp_path):
    n, edges = DIAMOND
    sep = reference.Separators(n, edges)
    expected = reference.shortest_violations(n, edges, sep.table())
    report = tmp_path / "report.json"
    _, check = workloads._validate_op(None, report, None, expected, sep, False)
    violations = [
        {"i": i, "j": j, "k": k, "lhs": 2.0, "rhs": 2.0, "expected_equal": False} for i, j, k in sorted(expected)
    ]
    _report(report, violations)
    assert check(1) == workloads.OK
    _report(report, violations)
    assert check(0) == workloads.WRONG
    _report(report, violations[1:])
    assert check(1) == workloads.WRONG
    assert check(1) == workloads.WRONG  # no report written


def test_walk_floor_fault_is_told_apart_from_other_failures(tmp_path):
    n, edges = P4
    sep = reference.Separators(n, edges)
    report = tmp_path / "report.json"
    _, check = workloads._validate_op(None, report, None, None, sep, True)
    _report(report, [])
    assert check(0) == workloads.OK
    # (2, 1, 3) does not separate; 5e-16 against 8e-13 is "equal" only through the 1e-12 floor.
    floor = {"i": 2, "j": 1, "k": 3, "lhs": 5e-16, "rhs": 8e-13, "expected_equal": False}
    _report(report, [floor])
    assert check(1) == workloads.KNOWN_FAULT
    _report(report, [dict(floor, lhs=1e-3, rhs=2e-3)])
    assert check(1) == workloads.WRONG
    _, strict = workloads._validate_op(None, report, None, None, sep, False)
    _report(report, [floor])
    assert strict(1) == workloads.WRONG

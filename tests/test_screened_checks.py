"""The screened triple checks against the dense cube.

``measures._checks`` runs the three failure rules only on the triples its
screen keeps: a gap at most ``measures._screen_bound``, or a pivot that
separates the triple.  Its reports must equal, column for column and byte
for byte, those of the rules applied to every triple of the n x n x n
cube, and no triple outside the screen may fail a rule.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cutmetrics import (
    TransitionalMeasure,
    forest_distance,
    log_distance,
    resistance_distance,
    separation_labels,
    shortest_path_lengths,
)
from cutmetrics import measures
from cutmetrics.graph import _separated, _separated_at
from cutmetrics.types import ValidationReport

from conftest import sized_multigraph, triangle_chain
from test_properties import connected_graphs

NAMES = ("transitional-measure", "metric-axioms", "cutpoint-additivity")
TOLERANCES = (0.0, 1e-9, 1e-3, 1.0, 1e308)


def _dense_fails(x, labels, tol, name):
    """The failure rule of the check ``name`` on every triple of the cube
    of ``x``, indexed ``[j, i, k]``, as the rules read before the screen."""
    separated = None if labels is None else _separated_at(labels, slice(None))
    with np.errstate(over="ignore", invalid="ignore"):  # sums past the float range are +-inf
        gap = (x.T[:, :, None] + x[:, None, :]) - x
        if name == "transitional-measure":
            return (gap < -tol) | ((np.abs(gap) <= tol) != separated)
        if name == "metric-axioms":
            return -gap > tol * (x + gap) + measures.EQUALITY_FLOOR
        return (np.abs(gap) <= tol * np.abs(x) + measures.EQUALITY_FLOOR) != separated


def _dense_checks(x, labels, tol, names, s=None):
    """The reports of the checks ``names`` from the dense rules, decoded as
    ``measures._checks`` decodes its hits."""
    n = len(x)
    reports = []
    for name in names:
        j, i, k = np.unravel_index(np.flatnonzero(_dense_fails(x, labels, tol, name)), (n, n, n))
        if name == "transitional-measure":
            m = s.matrix
            with np.errstate(over="ignore"):
                columns = np.column_stack((i, j, k)), m[i, j] * m[j, k], m[i, k] * m[j, j], _separated(labels, i, j, k)
        else:
            key = ((i * n + j) * n + k)[(i != j) & (j != k) & (i != k)]
            i, j, k = np.unravel_index(np.sort(key), (n, n, n))
            triples = np.column_stack((i, j, k))
            with np.errstate(over="ignore"):
                if name == "metric-axioms":
                    columns = measures._axioms_columns(x, tol, triples)
                else:
                    columns = triples, x[i, j] + x[j, k], x[i, k], _separated(labels, i, j, k)
        reports.append(ValidationReport._from_columns(*columns))
    return reports


def _bytes(report):
    return [(c.dtype.str, c.shape, c.tobytes()) for c in report._columns]


def _matrices(g, seed):
    """The log distance of ``g``'s forest measure, its resistance and
    shortest-path distances, and the forest distance made noisy, negated,
    all zero and asymmetric."""
    measure = measures._forest_inverse(g, 1.0)
    d = log_distance(measure).values
    noise = np.random.default_rng(seed).uniform(0.5, 1.5, d.shape)
    return measure, [
        d,
        resistance_distance(g).values,
        shortest_path_lengths(g).values,
        d * (noise + noise.T) / 2.0,
        -d,
        np.zeros_like(d),
        d * noise + 0.3 * np.eye(g.n),
    ]


def _assert_parity(g, seed):
    measure, matrices = _matrices(g, seed)
    labels = separation_labels(g)
    for x in matrices:
        for tol in TOLERANCES:
            # Every check together, and each distance checker's call alone.
            for names, given_labels in ((NAMES, labels), (NAMES[1:2], None), (NAMES[2:], labels)):
                got = measures._checks(x, given_labels, tol, names, measure)
                expected = _dense_checks(x, given_labels, tol, names, measure)
                assert [_bytes(r) for r in got] == [_bytes(r) for r in expected], (names, tol)


def test_reports_match_the_dense_cube_on_the_corpus(corpus):
    for seed, g in enumerate(corpus):
        _assert_parity(g, seed)


def test_reports_match_the_dense_cube_with_one_pivot_per_block(small_corpus, monkeypatch):
    # One pivot per block mixes blocks with and without a cut vertex.
    monkeypatch.setattr(measures, "_GAP_BLOCK", 1)
    for seed, g in enumerate(small_corpus):
        _assert_parity(g, seed)


@pytest.mark.parametrize(
    "g",
    [
        sized_multigraph(np.random.default_rng(2), 40, 8),
        sized_multigraph(np.random.default_rng(3), 48, 48),
        triangle_chain(20),
    ],
    ids=["tree-like-40", "chorded-48", "triangle-chain-41"],
)
def test_reports_match_the_dense_cube_over_many_blocks(g):
    assert measures._GAP_BLOCK < g.n**3
    _assert_parity(g, g.n)


def test_empty_matrix_matches_the_dense_cube():
    # x.min() and labels.max() are undefined on a 0 x 0 matrix.
    x = np.zeros((0, 0))
    empty = TransitionalMeasure("forest", np.ones((0, 0)))
    for labels in (np.zeros((0, 0), dtype=int), None):
        names = NAMES if labels is not None else NAMES[1:2]
        got = measures._checks(x, labels, 1e-9, names, empty)
        assert [r.passed for r in got] == [True] * len(names)
        assert [_bytes(r) for r in got] == [_bytes(r) for r in _dense_checks(x, labels, 1e-9, names, empty)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    g=connected_graphs(max_n=7),
    base=st.sampled_from(["forest", "resistance", "shortest"]),
    scale=st.sampled_from([1.0, -1.0, 0.0, 1e-300, 1e300, 5e307]),
    noise=st.sampled_from([0.0, 1e-12, 1e-6, 0.5]),
    seed=st.integers(0, 2**32 - 1),
    tol=st.sampled_from(TOLERANCES),
    names=st.sampled_from([NAMES, NAMES[:1], NAMES[1:2], NAMES[2:], NAMES[1:]]),
)
def test_every_failing_triple_passes_the_screen(g, base, scale, noise, seed, tol, names):
    # Scaled to 5e307, gaps pass the float range and reach the rules as +-inf.
    distance = {"forest": forest_distance, "resistance": resistance_distance, "shortest": shortest_path_lengths}
    with np.errstate(over="ignore"):
        x = distance[base](g).values * scale
        x *= np.random.default_rng(seed).uniform(1.0 - noise, 1.0 + noise, x.shape)
    assume(np.isfinite(x).all())
    # The axioms alone are checked without labels, and screened by the gap alone.
    labels = None if names == NAMES[1:2] else separation_labels(g)
    measure = measures._forest_inverse(g, 1.0)
    got = measures._checks(x, labels, tol, names, measure)
    assert [_bytes(r) for r in got] == [_bytes(r) for r in _dense_checks(x, labels, tol, names, measure)]
    bound = measures._screen_bound(x, tol, names, measures._slack(tol, np.abs(x)))
    with np.errstate(over="ignore"):
        screened = (x.T[:, :, None] + x[:, None, :]) - x <= bound
    if labels is not None:
        screened |= _separated_at(labels, slice(None))
    for name in names:
        assert not (_dense_fails(x, labels, tol, name) & ~screened).any(), name

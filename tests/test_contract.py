"""The typed-outcome contract: on any connected graph, every public distance,
measure, checker, oracle and CLI command returns finite values or raises a
``CutMetricsError``."""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cutmetrics import (
    CutMetricsError,
    Graph,
    GraphInputError,
    NumericError,
    ParameterError,
    Path,
    adjacency_matrix,
    check_cutpoint_additivity,
    check_metric_axioms,
    connection_reliability,
    enumerate_paths,
    enumerate_rooted_forests,
    find_tau_threshold,
    forest_distance,
    forest_matrix,
    is_cutpoint_between,
    laplacian,
    log_distance,
    long_walk_distance,
    long_walk_limit,
    normalize_distances,
    path_accessibility,
    path_distance,
    reliability_by_edge_states,
    reliability_distance,
    rescaled_long_walk_distance,
    resistance_distance,
    shortest_path_lengths,
    spectral_data,
    truncated_walk_sum,
    validate_transitional_measure,
    walk_distance,
    walk_matrix,
)
from cutmetrics.cli import main


# Non-loop edges up to which the oracles sweep all 2^m edge subsets.
EXHAUSTIVE_EDGES = 10


@st.composite
def wide_multigraphs(draw, max_n=12, top=300.0):
    """A random spanning tree on 2 to ``max_n`` vertices plus up to n more
    edges, loops and parallel edges among them, weights log-uniform over
    [1e-300, 10^top]."""
    n = draw(st.integers(2, max_n))
    weight = st.floats(-300.0, top).map(lambda exponent: 10.0**exponent)
    ends = st.integers(1, n)
    edges = [(draw(st.integers(1, v - 1)), v, draw(weight)) for v in range(2, n + 1)]
    edges += [(draw(ends), draw(ends), draw(weight)) for _ in range(draw(st.integers(0, n)))]
    return Graph(n, tuple(edges))


def _typed(call, *args):
    """``call(*args)``, or None when it raises a :class:`CutMetricsError`;
    any other exception propagates."""
    try:
        return call(*args)
    except CutMetricsError:
        return None


def _finite_csv(out):
    """Whether every value of the CSV ``out``, past its first row and
    column, is finite."""
    rows = [line.split(",")[1:] for line in out.read_text().splitlines()[1:]]
    return np.isfinite(np.array(rows, dtype=float)).all()


def _assert_sound(report):
    triples, lhs, rhs, _ = report._columns
    assert report.passed == (len(lhs) == 0) and triples.shape == (len(lhs), 3)
    # The compared quantities may overflow to inf, but never compare garbage.
    assert not (np.isnan(lhs).any() or np.isnan(rhs).any())


def _cli(path, out, *args):
    """Exit code of ``cutmetrics`` with ``args`` on the graph file ``path``,
    writing to ``out``: a typed failure maps to an exit code, anything
    else propagates."""
    out.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):
        code = main([*args, "--input", str(path), "--output", str(out)])
    assert code in (0, 1, 2, 3)
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=wide_multigraphs())
# Subnormal weights: the walk bound and the long-walk distances pass the float range.
@example(g=Graph(2, ((1, 2, 5e-309),)))
@example(g=Graph(3, ((1, 2, 5e-309), (2, 3, 5e-309), (1, 3, 5e-309))))
@example(g=Graph(2, ((1, 2, 5e-324),)))
# Weights near the float maximum: degree sums, 1-norms and eigen-residuals overflow.
@example(g=Graph(2, ((1, 2, 1.7e308),)))
@example(g=Graph(3, ((1, 2, 1.7e308), (2, 3, 1.7e308), (1, 3, 1.7e308))))
def test_every_call_returns_finite_values_or_raises_a_typed_error(g, workdir):
    _sweep(g, workdir)


def test_weights_near_the_float_maximum_are_refused_by_type():
    # A degree sum, a 1-norm and an eigen-residual each pass the float range.
    p2 = Graph(2, ((1, 2, 1.7e308),))
    k3 = Graph(3, ((1, 2, 1.7e308), (2, 3, 1.7e308), (1, 3, 1.7e308)))
    one_edge = Graph(4, ((1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (1, 3, 1.7e308)))
    with pytest.raises(NumericError, match="the weighted degree of vertex 1 overflows a float"):
        laplacian(k3)
    with pytest.raises(ParameterError, match=r"t=1.0 overflows a float in I \+ tL"):
        forest_distance(k3)
    for g in (p2, one_edge):
        with pytest.raises(NumericError, match="condition estimate inf"):
            resistance_distance(g)
    for call in (lambda: spectral_data(adjacency_matrix(k3)), lambda: long_walk_distance(k3)):
        with pytest.raises(NumericError, match="eigen-residual nan"):
            call()


# Probabilities, as reliability reads them, on at most 5 vertices: at most
# 9 non-loop edges, so reliability's inclusion-exclusion and the 2^m oracle
# sweeps stay fast, and products of tiny weights reach its underflow refusal.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=wide_multigraphs(max_n=5, top=0.0))
def test_every_call_on_probability_weights_returns_finite_values_or_raises_a_typed_error(g, workdir):
    _sweep(g, workdir)


@st.composite
def glued_probability_graphs(draw):
    """Two to four probability multigraphs of at most 3 vertices, each but
    the first glued at one of its vertices to a vertex of those before it,
    which becomes a cut vertex."""
    pieces = wide_multigraphs(max_n=3, top=0.0)
    g = draw(pieces)
    n, edges = g.n, list(g.edges)
    for _ in range(draw(st.integers(1, 3))):
        piece = draw(pieces)
        ids = {1: draw(st.integers(1, n)), **{v: n + v - 1 for v in range(2, piece.n + 1)}}
        edges += [(ids[u], ids[v], w) for u, v, w in piece.edges]
        n += piece.n - 1
    return Graph(n, tuple(edges))


# Chains of blocks at probability weights: reliability composes its block
# values across the cut vertices, and the products of tiny factors reach
# its underflow refusal.
@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=glued_probability_graphs())
@example(g=Graph(3, ((1, 2, 1e-200), (2, 3, 1e-200))))
@example(g=Graph(5, ((1, 2, 1e-170), (2, 3, 1e-170), (1, 3, 0.5), (3, 4, 1e-170), (4, 5, 0.5), (4, 5, 0.5))))
def test_every_call_on_glued_probability_graphs_returns_finite_values_or_raises_a_typed_error(g, workdir):
    _sweep(g, workdir)


def _sweep(g, workdir):
    """Every public call and CLI command on ``g``, with warnings as errors."""
    path, out = workdir / "graph.txt", workdir / "out.txt"
    path.write_text(f"{g.n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in g.edges))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The largest row sum bounds rho, so t stays below 1/rho.  The sums
        # may overflow to inf, and a float quotient, unlike a numpy one, is
        # inf or 0 without a warning.
        with np.errstate(over="ignore"):
            t = 0.5 / float(adjacency_matrix(g).sum(axis=1).max())
        tau = _typed(find_tau_threshold, g)
        assert tau is None or 0.0 < tau < np.inf
        path_tau = t if tau is None else tau / 2.0
        assert np.isfinite(adjacency_matrix(g)).all()
        lap = _typed(laplacian, g)
        assert lap is None or np.isfinite(lap).all()
        spectral = _typed(spectral_data, adjacency_matrix(g))
        assert spectral is None or np.isfinite([spectral.rho, *spectral.perron]).all()

        measures = [
            _typed(path_accessibility, g, t),
            _typed(connection_reliability, g),
            _typed(forest_matrix, g),
            _typed(walk_matrix, g, t),
        ]
        distances = [
            _typed(path_distance, g, path_tau),
            _typed(reliability_distance, g),
            _typed(forest_distance, g),
            _typed(walk_distance, g, t),
            _typed(resistance_distance, g),
            _typed(long_walk_distance, g),
            _typed(rescaled_long_walk_distance, g),
            shortest_path_lengths(g),
        ]
        for s in filter(None, measures):
            assert np.isfinite(s.matrix).all()
            for tol in (1e-9, 1e308):
                _assert_sound(validate_transitional_measure(g, s, tol))
            distances.append(_typed(log_distance, s))
        for d in filter(None, distances):
            assert np.isfinite(d.values).all()
            for tol in (1e-9, 1e308):
                _assert_sound(check_metric_axioms(d, tol))
                _assert_sound(check_cutpoint_additivity(g, d, tol))
            scaled = _typed(normalize_distances, d, [(1, 2)], 3.0)
            assert scaled is None or np.isfinite(scaled.values).all()
            for pair in ((1.5, 2), ("1", 2), (1, 2, 3), (np.nan, 2), (0, g.n + 1)):
                with pytest.raises(ParameterError, match=r"^pair "):
                    normalize_distances(d, [pair], 3.0)

        # A cap that is not at least 1 is refused by name; a NaN one used to
        # pass every size test and switch the cap off.
        for cap in (np.nan, 0, -1.0):
            for name, call in (
                ("max_vertices", lambda: path_accessibility(g, 1.0, cap)),
                ("max_vertices", lambda: path_distance(g, 1.0, max_vertices=cap)),
                ("max_vertices", lambda: find_tau_threshold(g, max_vertices=cap)),
                ("max_paths_per_pair", lambda: connection_reliability(g, cap)),
                ("max_vertices", lambda: enumerate_paths(g, 1, g.n, cap)),
                ("max_edges", lambda: reliability_by_edge_states(g, 1, g.n, cap)),
                ("max_edges", lambda: enumerate_rooted_forests(g, cap)),
            ):
                with pytest.raises(ParameterError, match=f"^{name} must be at least 1, got "):
                    call()

        # A parameter that is not a real number is refused by name, not by a
        # TypeError from its first comparison.
        for name, call in (
            ("precision", lambda: find_tau_threshold(g, precision="1e-6")),
            ("tol", lambda: find_tau_threshold(g, tol="1e-9")),
            ("tau", lambda: path_accessibility(g, "0.5")),
            ("tau", lambda: path_distance(g, "0.5")),
            ("t", lambda: forest_distance(g, "1")),
            ("t", lambda: forest_matrix(g, None)),
            ("t", lambda: walk_distance(g, "0.1")),
            ("t", lambda: walk_matrix(g, None)),
            ("max_paths_per_pair", lambda: connection_reliability(g, "5")),
            ("max_vertices", lambda: enumerate_paths(g, 1, g.n, "12")),
            ("rtol", lambda: long_walk_limit(g, rtol="1e-8")),
            ("t", lambda: truncated_walk_sum(g, "0.5", 3)),
        ):
            with pytest.raises(ParameterError, match=f"^{name} must be a real number, got "):
                call()

        paths = _typed(enumerate_paths, g, 1, g.n)
        assert paths is None or np.isfinite([p.weight for p in paths]).all()
        forests = _typed(enumerate_rooted_forests, g, EXHAUSTIVE_EDGES)
        assert forests is None or np.isfinite([forests.total_weight, *forests.weights.ravel()]).all()
        reliability = _typed(reliability_by_edge_states, g, 1, g.n, EXHAUSTIVE_EDGES)
        for oracle in (_typed(truncated_walk_sum, g, t, 8), _typed(long_walk_limit, g), reliability):
            assert oracle is None or np.isfinite(oracle).all()

        # One vertex-id rule: an id of integral value is that vertex, any
        # other is refused, by GraphInputError and by IndexError for a value.
        hops = shortest_path_lengths(g)
        assert is_cutpoint_between(g, 1.0, 1, np.int64(g.n))
        assert enumerate_paths(g, 1.0, 1.0) == [Path((1,), (), 0, 1.0)]
        assert _typed(reliability_by_edge_states, g, 1.0, float(g.n), EXHAUSTIVE_EDGES) == reliability
        assert hops.value(1.0, np.int64(g.n)) == hops.value(1, g.n)
        for bad in (1.5, "1", np.nan, np.inf, None, 0, g.n + 1):
            for call in (
                lambda: is_cutpoint_between(g, bad, 1, g.n),
                lambda: is_cutpoint_between(g, 1, bad, g.n),
                lambda: enumerate_paths(g, 1, bad),
                lambda: reliability_by_edge_states(g, bad, 1, 1 << 30),
            ):
                with pytest.raises(GraphInputError, match=r"^vertex id (must be an integer|out of range)"):
                    call()
            with pytest.raises(IndexError, match=r"^vertex pair "):
                hops.value(1, bad)

        for metric in (
            "forest", "resistance", "longwalk", "shortest", "longwalk-rescaled", "reliability",
            f"walk:t={t!r}", f"path:tau={path_tau!r}",
        ):
            if _cli(path, out, "compute", "--metric", metric) == 0:
                assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)).all()
            code = _cli(path, out, "validate", "--metric", metric, "--json")
            if out.exists():
                assert json.loads(out.read_text())["passed"] == (code == 0)
            for command in ("compare", "figure"):
                if _cli(path, out, command, "--metric", metric) == 0:
                    assert _finite_csv(out)

"""Accuracy of the long-walk closed form against a 30-digit mpmath
evaluation of the same formula, and its refusals where the float result
cannot be vouched for.  The cut-rich graphs come from the benchmark's own
generator, loaded by path."""

import importlib.util
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cutmetrics import Graph, NumericError, adjacency_matrix, long_walk_distance
from cutmetrics.cli import main
from cutmetrics.distances import LONG_WALK_RTOL

from conftest import clique_edges, path_edges

_spec = importlib.util.spec_from_file_location(
    "bench_graphs", Path(__file__).resolve().parent.parent / "bench" / "graphs.py"
)
bench_graphs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_graphs)


def cut_rich(seed, n, chain):
    return Graph(*bench_graphs.cut_rich(np.random.default_rng(seed), n, chain))


def reference(g, digits=30):
    """``(psi_ii + psi_kk - 2 psi_ik) / n`` with ``psi`` the pseudoinverse
    of ``rho I - A`` over ``outer(p, p)``, every step in mpmath."""
    n = g.n
    with mp.workdps(digits):
        values, vectors = mp.eigsy(mp.matrix(adjacency_matrix(g).tolist()))
        top = max(range(n), key=lambda m: values[m])
        p = [vectors[i, top] for i in range(n)]
        scaled = [[vectors[i, m] / (p[i] * mp.sqrt(values[top] - values[m])) for m in range(n) if m != top] for i in range(n)]
        psi = [[mp.fsum(x * y for x, y in zip(scaled[i], scaled[k])) for k in range(n)] for i in range(n)]
        return np.array([[float((psi[i][i] + psi[k][k] - 2 * psi[i][k]) / n) for k in range(n)] for i in range(n)])


def worst_relative_error(got, ref):
    off = ~np.eye(len(ref), dtype=bool)
    return float((np.abs(got - ref)[off] / np.abs(ref)[off]).max())


@pytest.mark.parametrize("n", [12, 16, 20])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_closed_form_matches_mpmath_on_cut_rich_graphs(s, n):
    g = cut_rich([s, n], n, chain=s == 1)
    assert worst_relative_error(long_walk_distance(g).values, reference(g)) <= LONG_WALK_RTOL


def test_refused_on_a_long_chain_of_blocks():
    # Unguarded, the closed form is off by about 3e-3 here.
    with pytest.raises(NumericError, match="Perron ratio"):
        long_walk_distance(cut_rich([0, 50], 50, chain=True))


def test_refused_on_two_nearly_equal_far_apart_cliques():
    # Two K7 cliques, weights 1 and 1.00001, joined by a 20-vertex path: the
    # top two eigenvalues differ by about 6e-5.
    edges = clique_edges(range(1, 8)) + clique_edges(range(8, 15), 1.00001)
    edges += path_edges([7, *range(15, 35), 8])
    with pytest.raises(NumericError, match="spectral gap"):
        long_walk_distance(Graph(34, tuple(edges)))


def test_cli_longwalk_on_a_cut_rich_graph(tmp_path):
    n, edges = bench_graphs.cut_rich(np.random.default_rng([0, 20]), 20, False)
    source, out = tmp_path / "graph.txt", tmp_path / "d.csv"
    source.write_text(bench_graphs.edge_list_text(n, edges))
    assert main(["compute", "--input", str(source), "--metric", "longwalk", "--output", str(out)]) == 0
    got = np.loadtxt(out, delimiter=",", skiprows=1)
    assert worst_relative_error(got, reference(Graph(n, tuple(edges)))) <= 1e-9

"""Accuracy of the long-walk closed form against a 30-digit mpmath
evaluation of the same formula, its parity with the pseudoinverse route it
replaced, its cost in eigensolves and inverses, and its refusals where the
float result cannot be vouched for.  The cut-rich and 2-connected graphs
come from the benchmark's own generator, loaded by path."""

import importlib.util
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from cutmetrics import (
    Graph,
    NumericError,
    adjacency_matrix,
    linalg,
    long_walk_distance,
    rescaled_long_walk_distance,
    symmetric_pseudoinverse,
)
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


@pytest.mark.parametrize("index", [0, 1, 2])
def test_matches_the_pseudoinverse_route_on_biconnected_graphs(index):
    # The graphs of the benchmark's compute_biconnected workload at seed 1.
    rng = np.random.default_rng(1)
    for _ in range(index + 1):
        g = Graph(*bench_graphs.biconnected(rng, 200, chords=200))
    a = adjacency_matrix(g)
    values, vectors = linalg._perron_eigh(a)
    p = vectors[:, -1]
    psi = symmetric_pseudoinverse(values[-1] * np.eye(g.n) - a, p) / np.outer(p, p)
    diag = np.diag(psi)
    retired = (diag[:, None] + diag[None, :] - 2.0 * psi) / g.n
    assert worst_relative_error(long_walk_distance(g).values, retired) <= 1e-12


@pytest.mark.parametrize("call", [long_walk_distance, rescaled_long_walk_distance])
def test_one_eigensolve_and_no_inverse(call, monkeypatch):
    counts = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    monkeypatch.setattr(linalg, "_pd_inverse", counted("_pd_inverse", linalg._pd_inverse))
    call(cut_rich([0, 20], 20, chain=False))
    assert counts == {"eigh": 1}


def _swap_perron(vectors):
    # A true eigenvector of A, but not the Perron one.
    vectors[:, [0, -1]] = vectors[:, [-1, 0]]


def _tilt_perron(vectors):
    # A positive unit vector 1e-4 radians off the Perron vector.
    vectors[:, -1] = np.cos(1e-4) * vectors[:, -1] + np.sin(1e-4) * vectors[:, 0]


@pytest.mark.parametrize("corrupt", [_swap_perron, _tilt_perron], ids=["swapped", "tilted"])
def test_refused_when_the_eigenpairs_miss_the_contract(corrupt, monkeypatch):
    perron_eigh = linalg._perron_eigh

    def corrupted(a):
        values, vectors = perron_eigh(a)
        corrupt(vectors)
        return values, vectors

    monkeypatch.setattr(linalg, "_perron_eigh", corrupted)
    with pytest.raises(NumericError, match="pseudoinverse contract violated: residual"):
        long_walk_distance(cut_rich([0, 20], 20, chain=False))


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

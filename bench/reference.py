"""Independent references and output checks for the benchmark.

Everything here is built from ``numpy.linalg`` and ``networkx`` and never
calls ``cutmetrics``, so a fault in the program cannot hide in its own
reference.  Vertex ids are 1-based in arguments and triples, 0-based in
matrix indices.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

REL_TOL = 1e-9
EQUALITY_FLOOR = 1e-12


def log_transform(s):
    """``(ln S_ii + ln S_jj - ln S_ij - ln S_ji) / 2``."""
    h = np.log(s)
    d = np.diag(h)
    return 0.5 * (d[:, None] + d[None, :] - h - h.T)


def laplacian(a):
    return np.diag(a.sum(axis=1)) - a


def spectral_radius(a):
    return float(np.linalg.eigvalsh(a)[-1])


def forest(a):
    """Forest distance at t=1: the log transform is scale-invariant, so the
    determinant factor of the forest matrix cancels and ``inv(I+L)`` is enough."""
    return log_transform(np.linalg.inv(np.eye(len(a)) + laplacian(a)))


def walk(a, t):
    return log_transform(np.linalg.inv(np.eye(len(a)) - t * a))


def resistance(a):
    lp = np.linalg.pinv(laplacian(a), hermitian=True)
    d = np.diag(lp)
    return d[:, None] + d[None, :] - 2.0 * lp


def long_walk(a):
    """Closed-form long-walk distance: the pseudoinverse of ``rho I - A``
    conjugated by the inverse unit Perron vector, scaled by ``1/n``.

    The pseudoinverse is summed from the same ``eigh`` that gives the Perron
    vector.  ``numpy.linalg.pinv`` finds its own null direction, slightly
    off the Perron vector that the result is divided by, and loses about
    six digits on 200-vertex graphs.
    """
    n = len(a)
    values, vectors = np.linalg.eigh(a)
    rho, p = values[-1], vectors[:, -1] * np.sign(vectors[:, -1].sum())
    rest = vectors[:, :-1]
    psi = (rest / (rho - values[:-1])) @ rest.T / np.outer(p, p)
    d = np.diag(psi)
    return (d[:, None] + d[None, :] - 2.0 * psi) / n


def matrix_matches(got, ref, rtol=REL_TOL):
    """Off the diagonal ``got`` agrees with ``ref`` to ``rtol`` relative; on
    it ``got`` is zero to ``rtol`` of the largest reference entry."""
    got = np.asarray(got)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return False
    off = ~np.eye(len(ref), dtype=bool)
    if np.any(np.abs(got - ref)[off] > rtol * np.abs(ref)[off]):
        return False
    return bool(np.all(np.abs(np.diag(got)) <= rtol * np.abs(ref).max()))


def _nx_graph(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from((u, v) for u, v, _ in edges if u != v)
    return g


class Separators:
    """Which vertices separate which pairs, from ``networkx.biconnected_components``.

    A vertex in two or more blocks is a cut vertex; for each one the
    components of the graph without it are labelled, and ``j`` separates
    ``i`` from ``k`` exactly when their labels differ.
    """

    def __init__(self, n, edges):
        g = _nx_graph(n, edges)
        seen: dict[int, int] = {}
        for block in nx.biconnected_components(g):
            for v in block:
                seen[v] = seen.get(v, 0) + 1
        self.n = n
        self.labels: dict[int, np.ndarray] = {}
        for j in sorted(v for v, count in seen.items() if count > 1):
            label = np.full(n, -1)
            for c, comp in enumerate(nx.connected_components(nx.restricted_view(g, [j], []))):
                label[[v - 1 for v in comp]] = c
            self.labels[j] = label

    def separates(self, i, j, k):
        """For distinct ``i, j, k``: does every i-k path pass through ``j``?"""
        label = self.labels.get(j)
        return label is not None and label[i - 1] != label[k - 1]

    def table(self):
        """``sep[j-1, i-1, k-1]``, true when ``j`` is ``i`` or ``k`` or
        separates them (the convention of the transition inequality)."""
        n = self.n
        sep = np.zeros((n, n, n), dtype=bool)
        for j, label in self.labels.items():
            sep[j - 1] = label[:, None] != label[None, :]
        idx = np.arange(n)
        sep[idx, idx, :] = True
        sep[idx, :, idx] = True
        return sep

    def sample_triples(self, rng, count):
        """``count`` separating and ``count`` non-separating distinct triples
        (as many separating ones as exist, none on a 2-connected graph)."""
        n = self.n
        cut, other = [], []
        for _ in range(200 * count):
            if len(cut) >= count and len(other) >= count:
                break
            i, j, k = (int(x) for x in rng.choice(n, size=3, replace=False) + 1)
            bucket = cut if self.separates(i, j, k) else other
            if len(bucket) < count:
                bucket.append((i, j, k))
        return [(t, True) for t in cut] + [(t, False) for t in other]


def additivity_holds(d, triples, rtol=REL_TOL):
    """``d(i,j) + d(j,k) = d(i,k)`` within tolerance exactly on the triples
    marked separating; on the others the triangle inequality is strict."""
    for (i, j, k), separating in triples:
        direct = d[i - 1, k - 1]
        gap = d[i - 1, j - 1] + d[j - 1, k - 1] - direct
        if (abs(gap) <= rtol * abs(direct) + EQUALITY_FLOOR) != separating:
            return False
    return True


def shortest_violations(n, edges, sep):
    """The triples the additivity checker must report for BFS distances:
    distinct ``(i, j, k)`` with ``d(i,j) + d(j,k) = d(i,k)`` although ``j``
    does not separate ``i`` from ``k``."""
    dist = np.zeros((n, n))
    for s, lengths in nx.all_pairs_shortest_path_length(_nx_graph(n, edges)):
        for v, length in lengths.items():
            dist[s - 1, v - 1] = length
    # additive[j, i, k] = d(i,j) + d(j,k) == d(i,k)
    additive = dist.T[:, :, None] + dist[:, None, :] == dist[None, :, :]
    return {(int(i) + 1, int(j) + 1, int(k) + 1) for j, i, k in zip(*np.nonzero(additive & ~sep))}


def path_weight_polynomial(n, edges):
    """``W[l, i-1, j-1]``: total weight of the simple i-j paths with ``l``
    edges, from ``networkx.all_simple_edge_paths``; ``W[0]`` is the identity."""
    g = nx.Graph()
    g.add_nodes_from(range(1, n + 1))
    g.add_weighted_edges_from((u, v, w) for u, v, w in edges if u != v)
    poly = np.zeros((n, n, n))
    poly[0] = np.eye(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for path in nx.all_simple_edge_paths(g, i, j):
                weight = float(np.prod([g.edges[e]["weight"] for e in path]))
                poly[len(path), i - 1, j - 1] += weight
                poly[len(path), j - 1, i - 1] += weight
    return poly


def path_measure(poly, tau):
    return np.tensordot(tau ** np.arange(len(poly)), poly, axes=1)


def transitional(s, sep, tol=REL_TOL):
    """The transition inequality ``S_ij S_jk <= S_ik S_jj`` over every
    ordered triple, with equality (``tol`` relative plus a 1e-12 floor)
    exactly where ``sep`` says so."""
    lhs = s.T[:, :, None] * s[:, None, :]
    rhs = s[None, :, :] * np.diag(s)[:, None, None]
    slack = tol * np.maximum(lhs, rhs) + EQUALITY_FLOOR
    return not np.any(lhs > rhs + slack) and bool(np.all((np.abs(lhs - rhs) <= slack) == sep))


def reliability(n, edges):
    """Two-terminal reliability by a sweep over all ``2^m`` edge states:
    the probability of each state is added to every pair it connects."""
    m = len(edges)
    w = np.array([e[2] for e in edges])
    alive = (np.arange(2**m)[:, None] >> np.arange(m)) & 1 == 1
    prob = np.where(alive, w, 1.0 - w).prod(axis=1)
    incidence = np.zeros((m, n, n))
    for e, (u, v, _) in enumerate(edges):
        incidence[e, u - 1, v - 1] = incidence[e, v - 1, u - 1] = 1.0
    reach = (alive.astype(float) @ incidence.reshape(m, n * n)).reshape(-1, n, n) + np.eye(n)
    for _ in range(max(1, int(np.ceil(np.log2(n))))):
        reach = np.minimum(reach @ reach, 1.0)
    return np.tensordot(prob, reach, axes=1)

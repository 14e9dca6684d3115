"""Seeded graph generators for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` and returns ``(n, edges)``
with 1-based vertex ids and ``edges`` a list of ``(u, v, w)``; the same
generator state gives the same graph.  ``edge_list_text`` renders the
document that the program parses, so the program only ever sees the text.
"""

from __future__ import annotations

import numpy as np

HUB = 8


def _weighted(rng, pairs, lo, hi):
    return [(u, v, float(rng.uniform(lo, hi))) for u, v in pairs]


def biconnected(rng, n, chords, lo=0.5, hi=1.5):
    """A Hamiltonian cycle over a random vertex order plus ``chords``
    distinct extra edges: 2-connected, so there is no cut vertex."""
    order = rng.permutation(n) + 1
    pairs = set()
    for a in range(n):
        u, v = int(order[a]), int(order[(a + 1) % n])
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < n + chords:
        u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return n, _weighted(rng, sorted(pairs), lo, hi)


def cut_rich(rng, n, chain, lo=0.5, hi=1.5):
    """Small blocks glued at cut vertices until there are ``n`` vertices.

    The first block is a hub clique on ``HUB`` vertices with weights in
    ``[1, hi]``.  Each further block is a bridge, a cycle or a clique on 3
    to 7 vertices (the last block shrinks to fit).  With ``chain`` every
    block hangs off the newest vertex, which gives a long chain of blocks;
    otherwise off a uniformly chosen earlier vertex, which gives a bushy
    block tree.  The hub keeps the top of the adjacency spectrum apart:
    without it, two far-apart cliques of nearly equal weight leave a gap so
    small that the power iteration of ``spectral_data`` may not converge.
    """
    pairs = [(u, v) for u in range(1, HUB + 1) for v in range(u + 1, HUB + 1)]
    edges = _weighted(rng, pairs, 1.0, hi)
    pairs = []
    count = last = HUB
    while count < n:
        anchor = last if chain else int(rng.integers(1, count + 1))
        kind = int(rng.integers(0, 3))
        new = min(int(rng.integers(2, 7)), n - count)
        if kind == 0 or new == 1:
            new = 1
        verts = [anchor, *range(count + 1, count + new + 1)]
        if new == 1:
            pairs.append((anchor, count + 1))
        elif kind == 1:
            pairs.extend((verts[a], verts[(a + 1) % len(verts)]) for a in range(len(verts)))
        else:
            pairs.extend((verts[a], verts[b]) for a in range(len(verts)) for b in range(a + 1, len(verts)))
        count += new
        last = verts[-1]
    return n, edges + _weighted(rng, pairs, lo, hi)


def small_cyclic(rng, n, extra, lo=0.3, hi=1.0):
    """A random spanning tree plus ``extra`` distinct non-tree edges, so the
    graph has at least one cycle; weights are intactness probabilities."""
    order = rng.permutation(n) + 1
    pairs = set()
    for a in range(1, n):
        u, v = int(order[a]), int(order[rng.integers(0, a)])
        pairs.add((min(u, v), max(u, v)))
    while len(pairs) < n - 1 + extra:
        u, v = (int(x) for x in rng.integers(1, n + 1, size=2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    return n, _weighted(rng, sorted(pairs), lo, hi)


def edge_list_text(n, edges):
    """The edge-list document for ``parse_graph``; weights keep every digit."""
    return f"{n}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in edges)


def adjacency(n, edges):
    """Dense weighted adjacency matrix, built apart from the program."""
    a = np.zeros((n, n))
    for u, v, w in edges:
        if u == v:
            a[u - 1, u - 1] += w
        else:
            a[u - 1, v - 1] += w
            a[v - 1, u - 1] += w
    return a

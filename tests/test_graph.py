import sys
import tracemalloc

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cutmetrics import (
    Graph,
    GraphInputError,
    adjacency_matrix,
    check_metric_axioms,
    forest_distance,
    is_cutpoint_between,
    laplacian,
    parse_graph,
    resistance_distance,
    separation_labels,
    shortest_path_lengths,
)
from cutmetrics.graph import _adjacency, _bfs, _block_cut_tree, cutpoint_table

from conftest import as_networkx, assert_blocks_match_networkx, complete, k3, p2, p3, p4, sized_multigraph


class TestParseGraph:
    def test_minimal(self):
        g = parse_graph("2\n1 2 1.0")
        assert g.n == 2
        assert g.edges == ((1, 2, 1.0),)

    def test_parallel_edges_kept_distinct(self):
        g = parse_graph("2\n1 2 0.5\n1 2 0.5")
        assert len(g.edges) == 2

    def test_loop(self):
        g = parse_graph("2\n1 1 2.0\n1 2 1.0")
        assert (1, 1, 2.0) in g.edges

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\n3\n# edge block\n1 2 1\n2 3 1\n")
        assert g.n == 3 and len(g.edges) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(GraphInputError, match="disconnected"):
            parse_graph("3\n1 2 1")

    def test_unconnectable_vertex_count_refused_in_memory_of_the_edges(self):
        tracemalloc.start()
        try:
            with pytest.raises(GraphInputError) as refused:
                parse_graph("1000000\n1 2 1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(refused.value) == "graph is disconnected: vertex 3 unreachable from vertex 1"
        assert peak < 1 << 20

    def test_nonpositive_weight(self):
        with pytest.raises(GraphInputError, match="line 2"):
            parse_graph("2\n1 2 0")

    @pytest.mark.parametrize("weight", ["inf", "1e309", "nan"])
    def test_non_finite_weight_reports_line(self, weight):
        with pytest.raises(GraphInputError) as refused:
            parse_graph(f"3\n1 2 {weight}\n2 3 1\n")
        assert str(refused.value) == f"line 2: weight must be positive and finite, got {weight}"

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphInputError, match="line 2"):
            parse_graph("2\n1 3 1")

    def test_syntax_error_reports_line(self):
        with pytest.raises(GraphInputError, match="line 3"):
            parse_graph("3\n1 2 1\n2 three 1")

    @pytest.mark.parametrize(
        "text, message",
        [("x\n", "line 1: expected vertex count, got 'x'"), ("2\n1 2\n", "line 2: expected 'u v w', got '1 2'")],
    )
    def test_malformed_line_quoted(self, text, message):
        with pytest.raises(GraphInputError) as refused:
            parse_graph(text)
        assert str(refused.value) == message

    def test_missing_vertex_count(self):
        with pytest.raises(GraphInputError, match="vertex count"):
            parse_graph("# nothing else\n")

    def test_vertex_count_too_small(self):
        with pytest.raises(GraphInputError):
            parse_graph("1\n")


class TestMatrices:
    def test_adjacency_p2(self):
        assert adjacency_matrix(p2()).tolist() == [[0, 1], [1, 0]]

    def test_adjacency_sums_parallel_weights(self):
        g = parse_graph("2\n1 2 0.5\n1 2 0.5")
        assert adjacency_matrix(g).tolist() == [[0, 1], [1, 0]]

    def test_adjacency_loop_on_diagonal(self):
        g = parse_graph("2\n1 1 2.0\n1 2 1.0")
        assert adjacency_matrix(g).tolist() == [[2, 1], [1, 0]]

    def test_laplacian_p2(self):
        assert laplacian(p2()).tolist() == [[1, -1], [-1, 1]]

    def test_laplacian_p3_row_sums(self):
        lap = laplacian(p3())
        assert np.diag(lap).tolist() == [1, 2, 1]
        assert np.abs(lap.sum(axis=1)).max() == 0

    def test_loops_cancel_from_laplacian(self):
        plain = p2()
        looped = parse_graph("2\n1 1 5.0\n1 2 1.0")
        assert laplacian(looped).tolist() == laplacian(plain).tolist()

    @pytest.mark.parametrize("weight", [5.0, 1e6, 1e10])
    def test_loops_leave_laplacian_and_distances_unchanged(self, weight):
        # A loop counted into the degree and subtracted again rounded the
        # degree away: at 1e6 resistance was off by 8.6e-12 relative, and at
        # 1e10 the Laplacian left the kernel check and resistance raised.
        plain = Graph(3, ((1, 2, 0.1), (2, 3, 0.3)))
        looped = Graph(3, plain.edges + ((2, 2, weight), (3, 3, weight)))
        for build in (laplacian, lambda g: forest_distance(g).values, lambda g: resistance_distance(g).values):
            assert build(looped).tobytes() == build(plain).tobytes()

    def test_adjacency_symmetric_nonnegative_on_corpus(self, small_corpus):
        for g in small_corpus:
            a = adjacency_matrix(g)
            assert np.array_equal(a, a.T)
            assert np.all(a >= 0)
            assert np.abs(laplacian(g).sum(axis=1)).max() <= 1e-12

    def test_adjacency_bit_identical_to_scalar_loop(self, corpus):
        def scalar_adjacency(g):
            a = np.zeros((g.n, g.n))
            for u, v, w in g.edges:
                if u == v:
                    a[u - 1, u - 1] += w
                else:
                    a[u - 1, v - 1] += w
                    a[v - 1, u - 1] += w
            return a

        rng = np.random.default_rng(41)
        # Few vertices and many edges give long runs of parallel edges, in
        # both orientations, whose sums round differently in another order.
        graphs = corpus + [sized_multigraph(rng, n, chords) for n in (3, 5, 40, 200) for chords in (n, 8 * n)]
        for g in graphs:
            assert adjacency_matrix(g).tobytes() == scalar_adjacency(g).tobytes(), g

    def test_kept_scatter_index_matches_a_fresh_build(self, corpus):
        def fresh_adjacency(g, w):
            u, v, _ = g._edge_columns
            ends = np.column_stack((u, v)).ravel() - 1
            cells = ends * g.n + np.column_stack((v, u)).ravel() - 1
            keep = np.ones(len(cells), dtype=bool)
            keep[1::2] = u != v
            return np.bincount(cells[keep], np.repeat(w, 2)[keep], g.n * g.n).reshape(g.n, g.n)

        rng = np.random.default_rng(43)
        graphs = [Graph(g.n, g.edges) for g in corpus]
        graphs += [sized_multigraph(rng, n, chords) for n in (3, 5, 40) for chords in (n, 8 * n)]
        for g in graphs:
            assert not hasattr(g, "_scatter")  # nothing is built at parse
            w = g._edge_columns[2]
            for weights in (w, 0.5 * w, w, 3.0 * w):  # the first call builds the index, the rest reuse it
                assert _adjacency(g, weights).tobytes() == fresh_adjacency(g, weights).tobytes(), g
            for column in g._scatter:
                assert not column.flags.writeable


class TestCutpointOracle:
    def test_path_graph_cutpoint(self):
        assert is_cutpoint_between(p3(), 2, 1, 3)

    def test_triangle_has_no_cutpoint(self):
        assert not is_cutpoint_between(k3(), 3, 1, 2)

    def test_endpoint_contains_itself(self):
        g = k3()
        assert is_cutpoint_between(g, 1, 1, 2)
        assert is_cutpoint_between(g, 2, 1, 2)

    def test_same_endpoints_no_interior(self):
        # The only path from 1 to 1 is the empty path, which misses 2.
        assert not is_cutpoint_between(p3(), 2, 1, 1)

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphInputError) as refused:
            is_cutpoint_between(p3(), 9, 1, 2)
        assert str(refused.value) == "vertex id out of range 1..3: 9"

    @pytest.mark.parametrize("ids", [(1.5, 1, 3), (2, 1.5, 3), ("2", 1, 3), (2, 1, float("nan"))])
    def test_non_integer_vertex_refused(self, ids):
        # 1.5 as the pivot used to return False; as an end, or a string, it raised TypeError.
        bad = next(v for v in ids if not isinstance(v, int))
        with pytest.raises(GraphInputError) as refused:
            is_cutpoint_between(p3(), *ids)
        assert str(refused.value) == f"vertex id must be an integer, got {bad!r}"

    def test_symmetric_in_endpoints(self, small_corpus):
        for g in small_corpus[:10]:
            for j in range(1, g.n + 1):
                for i in range(1, g.n + 1):
                    for k in range(1, g.n + 1):
                        assert is_cutpoint_between(g, j, i, k) == is_cutpoint_between(g, j, k, i)

    def test_tree_cutpoints_match_unique_paths(self):
        g = p4()
        # On a tree, j is a cutpoint between i and k iff j lies on the
        # unique i-k path; extract the path by parent walking.
        adj = g._neighbors
        for i in range(1, 5):
            parent = {i: None}
            stack = [i]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in parent:
                        parent[y] = x
                        stack.append(y)
            for k in range(1, 5):
                node, on_path = k, set()
                while node is not None:
                    on_path.add(node)
                    node = parent[node]
                for j in range(1, 5):
                    assert is_cutpoint_between(g, j, i, k) == (j in on_path)


class TestSeparationLabels:
    def test_triangle_with_pendant_path(self):
        # Triangle 1-2-3 with the path 3-4-5 hanging off vertex 3.
        g = Graph(5, ((1, 2, 1.0), (2, 3, 1.0), (1, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0)))
        expected = [
            [-1, 0, 0, 0, 0],
            [0, -1, 0, 0, 0],
            [0, 0, -1, 1, 1],
            [0, 0, 0, -1, 1],
            [0, 0, 0, 0, -1],
        ]
        assert separation_labels(g).tolist() == expected

    def test_cutpoint_table_matches_oracle(self, small_corpus):
        for g in small_corpus[:10]:
            table = cutpoint_table(g)
            for j in range(1, g.n + 1):
                for i in range(1, g.n + 1):
                    for k in range(1, g.n + 1):
                        assert table[j][i][k] == is_cutpoint_between(g, j, i, k)

    def test_matches_is_cutpoint_between(self, corpus):
        # Vertices share a label in row j exactly when j does not separate
        # them; labels are numbered by the first vertex that takes them.
        # The path 5-3-1-4-2 has depth-first search meet vertex 3 before 4
        # from vertex 1, while 4 shares its component of G minus 1 with 2.
        path = Graph(5, ((1, 3, 1.0), (3, 5, 1.0), (1, 4, 1.0), (4, 2, 1.0)))
        for g in [path, *corpus]:
            expected = []
            for j in range(1, g.n + 1):
                row, firsts = [], []
                for v in range(1, g.n + 1):
                    same = [label for label, u in enumerate(firsts) if not is_cutpoint_between(g, j, u, v)]
                    if v == j:
                        row.append(-1)
                    elif same:
                        row.append(same[0])
                    else:
                        row.append(len(firsts))
                        firsts.append(v)
                expected.append(row)
            assert separation_labels(g).tolist() == expected, g

    def test_matches_networkx_on_corpus(self, corpus):
        for g in corpus:
            reference = as_networkx(g)
            labels = separation_labels(g)
            counts = [len(set(row.tolist()) - {-1}) for row in labels]
            for j in range(1, g.n + 1):
                rest = reference.subgraph(v for v in range(1, g.n + 1) if v != j)
                assert counts[j - 1] == nx.number_connected_components(rest), (g, j)
            articulation = {j for j in range(1, g.n + 1) if counts[j - 1] > 1}
            assert articulation == set(nx.articulation_points(reference)), g


class TestBlockCutTree:
    def test_matches_networkx_on_corpus(self, corpus):
        for g in corpus:
            assert_blocks_match_networkx(g)

    def test_branches_are_the_components_cut_off_by_the_head(self, small_corpus):
        for g in small_corpus:
            tree = _block_cut_tree(g)
            labels = separation_labels(g)
            for block, (start, stop) in zip(tree.blocks, tree.spans):
                branch = tree.order[start:stop]
                assert block[0] not in branch and block[1] in branch
                row = labels[block[0]]
                assert len(set(row[branch])) == 1 and not set(row[branch]) & set(np.delete(row, branch))

    def test_long_path_needs_no_recursion(self):
        n = 20_000
        assert sys.getrecursionlimit() < n
        tree = _block_cut_tree(Graph(n, tuple((v, v + 1, 1.0) for v in range(1, n))))
        assert sorted(sorted(block.tolist()) for block in tree.blocks) == [[v, v + 1] for v in range(n - 1)]
        # Vertex v heads the block {v, v + 1}: the root and the cut vertices 1..n-2.
        assert sorted(int(block[0]) for block in tree.blocks) == list(range(n - 1))


@st.composite
def looped_multigraphs(draw, max_n=40):
    """A random spanning tree on 2 to ``max_n`` vertices plus up to 2n more
    edges, loops and repeats among them; unit weights, which the hop count
    ignores anyway."""
    n = draw(st.integers(2, max_n))
    ends = st.integers(1, n)
    edges = [(draw(st.integers(1, v - 1)), v, 1.0) for v in range(2, n + 1)]
    edges += [(draw(ends), draw(ends), 1.0) for _ in range(draw(st.integers(0, 2 * n)))]
    return Graph(n, tuple(draw(st.permutations(edges))))


class TestShortestPath:
    def test_p4_end_to_end(self):
        assert shortest_path_lengths(p4()).value(1, 4) == 3

    def test_k3_all_adjacent(self):
        d = shortest_path_lengths(k3()).values
        assert np.array_equal(d, np.ones((3, 3)) - np.eye(3))

    def test_parallel_edges_do_not_change_length(self):
        g = parse_graph("3\n1 2 1\n1 2 1\n2 3 1")
        assert shortest_path_lengths(g).value(1, 2) == 1

    def test_metric_axioms_exact_on_corpus(self, small_corpus):
        for g in small_corpus:
            assert check_metric_axioms(shortest_path_lengths(g), tol=0.0).passed

    def test_bit_identical_to_scalar_stores(self, corpus):
        def scalar_lengths(g):
            adj = g._neighbors
            values = np.zeros((g.n, g.n))
            for s in range(1, g.n + 1):
                for v, d in _bfs(adj, s).items():
                    values[s - 1, v - 1] = float(d)
            return values

        rng = np.random.default_rng(43)
        chain = Graph(64, tuple((v, v + 1, 1.0) for v in range(1, 64)))
        # Long diameters (a path, sparse multigraphs) take many rounds; a
        # star and a clique expand one round across several chunks.
        wide = [
            Graph(300, tuple((v, v + 1, 1.0) for v in range(1, 300))),
            Graph(300, tuple((1, v, 1.0) for v in range(2, 301))),
            complete(80),
            sized_multigraph(rng, 200, 5),
            sized_multigraph(rng, 400, 10),
        ]
        for g in corpus + [chain, sized_multigraph(rng, 120, 30)] + wide:
            assert shortest_path_lengths(g).values.tobytes() == scalar_lengths(g).tobytes(), g

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(g=looped_multigraphs())
    def test_matches_networkx(self, g):
        expected = np.zeros((g.n, g.n))
        for s, hops in nx.all_pairs_shortest_path_length(as_networkx(g)):
            for v, d in hops.items():
                expected[s - 1, v - 1] = d
        assert np.array_equal(shortest_path_lengths(g).values, expected)



class TestGraphConstruction:
    def test_rejects_bad_ids(self):
        with pytest.raises(GraphInputError):
            Graph(2, ((1, 3, 1.0),))

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(GraphInputError):
            Graph(2, ((1, 2, -1.0),))

    @pytest.mark.parametrize("weight", [float("inf"), float("nan")])
    def test_non_finite_weight_worded_non_finite(self, weight):
        with pytest.raises(GraphInputError) as refused:
            Graph(2, ((1, 2, weight),))
        assert str(refused.value) == f"edge (1, 2) has non-finite weight {weight!r}"

    @pytest.mark.parametrize(
        "n, edges",
        [
            (float("nan"), ((1, 2, 1.0),)),
            (float("inf"), ((1, 2, 1.0),)),
            (2, ((float("nan"), 2, 1.0),)),
            (2, ((1, 2, "x"),)),
            (2, ((1, 2, None),)),
            (2, ((1, 2),)),
        ],
        ids=["nan-count", "infinite-count", "nan-id", "text-weight", "none-weight", "two-entry-edge"],
    )
    def test_rejects_malformed_values_with_a_typed_error(self, n, edges):
        with pytest.raises(GraphInputError):
            Graph(n, edges)

    def test_rejects_single_vertex(self):
        with pytest.raises(GraphInputError):
            Graph(1, ())

    def test_loop_only_vertex_is_disconnected(self):
        # A vertex whose only incidence is a loop is unreachable.
        with pytest.raises(GraphInputError, match="disconnected"):
            Graph(3, ((1, 2, 1.0), (3, 3, 1.0)))

    def test_hashable_value_object(self):
        assert hash(p2()) == hash(p2())
        assert p2() == p2()

    def test_kept_neighbor_sets_are_no_field(self):
        g = p3()
        assert repr(g) == "Graph(n=3, edges=((1, 2, 1.0), (2, 3, 1.0)))"
        assert g._neighbors == ((), (2,), (1, 3), (2,))

    def test_kept_edge_columns_are_no_field(self):
        g = Graph(3, ((1, 2, 0.5), (3, 2, 2.0), (3, 3, 1.0)))
        a = adjacency_matrix(g)
        fresh = Graph(3, g.edges)
        assert (g, hash(g), repr(g)) == (fresh, hash(fresh), repr(fresh))
        assert [c.tolist() for c in g._edge_columns] == [[1, 3, 3], [2, 2, 3], [0.5, 2.0, 1.0]]
        for column in g._edge_columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        # Built once and reused: later matrices are new arrays with the same bytes.
        a += 1.0
        assert adjacency_matrix(g).tobytes() == adjacency_matrix(fresh).tobytes()
        assert adjacency_matrix(g).tolist() == [[0.0, 0.5, 0.0], [0.5, 0.0, 2.0], [0.0, 2.0, 1.0]]

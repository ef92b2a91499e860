import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from surpkit.graph import EdgeListError, Graph, load_edge_list, save_edge_list


def graphs(max_k=12):
    @st.composite
    def build(draw):
        K = draw(st.integers(2, max_k))
        pairs = [(u, v) for u in range(K) for v in range(u + 1, K)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        return Graph(K, edges)

    return build()


class TestConstruction:
    def test_counts(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.K == 3 and g.n == 2 and g.F == 3

    def test_dedup_and_reversal(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.n == 1

    def test_self_loop_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(EdgeListError):
            Graph(2, [(0, 2)])

    def test_slots(self):
        # the adjacency sets are the only stored form of the edges
        assert Graph.__slots__ == ("K", "adj", "n", "F")
        with pytest.raises(AttributeError):
            Graph(2, [(0, 1)]).edges = frozenset()

    @given(st.data())
    def test_matches_sorted_pair_set(self, data):
        K = data.draw(st.integers(1, 30))
        node = st.integers(0, K - 1)
        raw = [(u, v) for u, v in data.draw(st.lists(st.tuples(node, node), max_size=80)) if u != v]
        # duplicates come from the draw; reversed copies of a prefix are added
        raw += [(v, u) for u, v in raw[: data.draw(st.integers(0, len(raw)))]]
        ref = frozenset((min(u, v), max(u, v)) for u, v in raw)
        g = Graph(K, raw)
        same = Graph(K, sorted(ref))
        assert g.edges == ref and g.n == len(ref) and g.F == K * (K - 1) // 2
        assert g == same and hash(g) == hash(same) == hash((K, ref))
        assert g != Graph(K + 1, sorted(ref))
        nodes = data.draw(st.sets(node, min_size=1))
        sub, order = g.subgraph(nodes)
        index = {u: i for i, u in enumerate(order)}
        induced = {(index[u], index[v]) for u, v in ref if u in index and v in index}
        assert sub.edges == induced and sub.n == len(induced) and sub.K == len(order)

    def test_toy_fixture_counts(self, toy):
        # two 4-cliques (6 edges each) plus the path and its attachments
        assert toy.K == 11 and toy.n == 16 and toy.F == 55


class TestQueries:
    def test_connected_within_clique(self, toy):
        assert toy.connected(0, 1)
        assert toy.connected(4, 7)

    def test_never_self_connected(self, toy):
        for u in range(toy.K):
            assert not toy.connected(u, u)

    def test_path_ends_not_connected(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert not g.connected(0, 2)

    def test_connected_out_of_range(self, toy):
        with pytest.raises(ValueError):
            toy.connected(0, 11)

    def test_links_in_clique(self, toy):
        assert toy.links_in({0, 1, 2, 3}) == (6, 1)

    def test_links_in_empty_and_full(self, toy):
        assert toy.links_in(set()) == (0, 0)
        assert toy.links_in(range(toy.K)) == (toy.n, 0)

    def test_degree(self, toy):
        assert toy.degree(9) == 2
        assert toy.degree(3) == 4

    @given(graphs(), st.data())
    def test_links_in_complement(self, g, data):
        nodes = data.draw(st.sets(st.integers(0, g.K - 1)))
        comp = set(range(g.K)) - nodes
        i1, e1 = g.links_in(nodes)
        i2, e2 = g.links_in(comp)
        assert e1 == e2
        assert i1 + i2 + e1 == g.n

    def test_subgraph_relabels(self, toy):
        sub, order = toy.subgraph({4, 6, 7, 10})
        assert order == [4, 6, 7, 10]
        assert sub.K == 4
        # clique edges among 4,6,7 plus attachment 10-4
        assert sub.n == 4
        assert sub.connected(0, 3)  # 4 and 10

    @given(st.data())
    def test_subgraph_matches_edge_filter(self, data):
        g = data.draw(graphs())
        nodes = data.draw(st.sets(st.integers(0, g.K - 1), min_size=1))
        sub, order = g.subgraph(nodes)
        assert order == sorted(nodes)
        index = {u: i for i, u in enumerate(order)}
        filtered = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
        ref = Graph(len(order), filtered)
        assert sub == ref
        assert (sub.adj, sub.n, sub.F) == (ref.adj, ref.n, ref.F)

    @pytest.mark.parametrize("nodes", [set(), [], {0, 11}, {-1, 2}, [3, 4, 11]])
    def test_subgraph_refuses_bad_node_sets(self, toy, nodes):
        with pytest.raises(ValueError):
            toy.subgraph(nodes)


class TestIO:
    def test_round_trip(self, toy, tmp_path):
        path = tmp_path / "toy.edges"
        save_edge_list(toy, path)
        assert load_edge_list(path) == toy

    def test_parse(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment\n0 1\n\n1 2\n")
        g = load_edge_list(path)
        assert g.K == 3 and g.n == 2

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 1\n0 1 2\n")
        with pytest.raises(EdgeListError, match=":2"):
            load_edge_list(path)

    def test_self_loop_reports_lineno(self, tmp_path):
        path = tmp_path / "loop.edges"
        path.write_text("0 1\n2 2\n")
        with pytest.raises(EdgeListError, match=":2"):
            load_edge_list(path)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "neg.edges"
        path.write_text("0 -1\n")
        with pytest.raises(EdgeListError):
            load_edge_list(path)

    def test_isolated_trailing_nodes(self, tmp_path):
        # node 5 appears only as an endpoint; 2-4 are isolated
        path = tmp_path / "iso.edges"
        path.write_text("0 1\n0 5\n")
        g = load_edge_list(path)
        assert g.K == 6 and g.degree(3) == 0

    def test_node_count_header_keeps_isolated_nodes(self, tmp_path):
        path = tmp_path / "iso.edges"
        g = Graph(7, [(0, 1), (1, 2)])
        save_edge_list(g, path)
        assert path.read_text().splitlines()[0] == "# nodes 7"
        assert load_edge_list(path) == g

    def test_node_count_header_too_small(self, tmp_path):
        path = tmp_path / "small.edges"
        path.write_text("# nodes 3\n0 1\n1 3\n")
        with pytest.raises(EdgeListError, match=r":3: node id 3 not below the declared node count 3"):
            load_edge_list(path)

    @pytest.mark.parametrize("text", ["# nodes 0\n", "0 1\n# nodes 0\n"])
    def test_node_count_header_below_one(self, tmp_path, text):
        path = tmp_path / "empty.edges"
        path.write_text(text)
        lineno = text.splitlines().index("# nodes 0") + 1
        with pytest.raises(EdgeListError, match=rf"^{re.escape(str(path))}:{lineno}: declared node count 0 is below 1$"):
            load_edge_list(path)

    @pytest.mark.parametrize("text", ["", " \n\t\n", "# nodes of a toy graph\n"])
    def test_no_edge_and_no_node_count_refused(self, tmp_path, text):
        # each used to load as a graph of one node
        path = tmp_path / "empty.edges"
        path.write_text(text)
        with pytest.raises(EdgeListError, match=rf"^{re.escape(str(path))}: no edges and no '# nodes K' line$"):
            load_edge_list(path)

    def test_node_count_alone_is_an_edgeless_graph(self, tmp_path):
        path = tmp_path / "edgeless.edges"
        save_edge_list(Graph(4, []), path)
        assert path.read_text() == "# nodes 4\n"
        assert load_edge_list(path) == Graph(4, [])

    def test_other_comments_do_not_set_node_count(self, tmp_path):
        path = tmp_path / "c.edges"
        path.write_text("# nodes of a toy graph\n# nodes x\n0 1\n")
        assert load_edge_list(path).K == 2

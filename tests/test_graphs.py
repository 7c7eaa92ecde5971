"""Graph structure, predicates, families, serialization."""
import pytest

from symdef.covers import cover_ideal
from symdef.graphs import (
    MAX_VERTICES,
    Graph,
    GraphTooLargeError,
    complete,
    cycle,
    parse_family,
    path,
    triangle_tail,
)


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError, match="n = -2"):
        Graph.from_edges(-2, [])
    empty = Graph.from_edges(0, [])  # no vertex: the cover ideal is the unit ideal
    assert cover_ideal(empty).is_unit()


def test_edges_normalized():
    G = Graph.from_edges(3, [(2, 0), (0, 2), (1, 0)])
    assert G.edge_list() == [(0, 1), (0, 2)]


def test_neighbors():
    assert cycle(5).neighbors(0) == {1, 4}
    assert complete(4).neighbors(0) == {1, 2, 3}
    assert cycle(5).neighbors_of_set([]) == set()
    assert cycle(5).neighbors_of_set([0]) == {1, 4}


def test_induced_subgraph():
    tri = complete(4).induced_subgraph([1, 2, 3])
    assert tri.n == 3 and tri.edges == complete(3).edges
    p = cycle(5).induced_subgraph([0, 1, 2])
    assert p.edges == path(3).edges
    empty = cycle(5).induced_subgraph([])
    assert empty.n == 0 and not empty.edges


def test_isolated_vertex():
    assert not complete(3).has_isolated_vertex()
    assert Graph.from_edges(1, []).has_isolated_vertex()
    assert Graph.from_edges(4, [(0, 1), (1, 2)]).has_isolated_vertex()


def test_bipartiteness():
    assert cycle(4).is_bipartite()
    assert path(5).is_bipartite()
    assert not cycle(5).is_bipartite()
    assert not complete(3).is_bipartite()


def test_vertex_bound():
    assert Graph.from_edges(MAX_VERTICES, [(0, 1)]).n == MAX_VERTICES
    with pytest.raises(GraphTooLargeError):
        Graph(MAX_VERTICES + 1, frozenset())
    with pytest.raises(GraphTooLargeError):
        parse_family("K100000")  # refused before any edge is drawn


def test_every_vertex_adjacent_to_every_odd_cycle():
    assert complete(4).every_vertex_adjacent_to_every_odd_cycle()
    assert cycle(5).every_vertex_adjacent_to_every_odd_cycle()
    # pendant vertex off a 5-cycle is not adjacent to the far side of the cycle
    G = Graph.from_edges(6, list(cycle(5).edges) + [(0, 5)])
    assert G.every_vertex_adjacent_to_every_odd_cycle()
    H = Graph.from_edges(7, list(cycle(5).edges) + [(0, 5), (5, 6)])
    assert not H.every_vertex_adjacent_to_every_odd_cycle()
    # bipartite graphs pass vacuously
    assert cycle(4).every_vertex_adjacent_to_every_odd_cycle()


def test_odd_cycle_adjacency_past_fourteen_vertices():
    assert cycle(15).every_vertex_adjacent_to_every_odd_cycle()
    assert complete(30).every_vertex_adjacent_to_every_odd_cycle()
    # a 2-edge pendant path off C15: its far end misses the whole cycle
    G = Graph.from_edges(17, list(cycle(15).edges) + [(0, 15), (15, 16)])
    assert not G.every_vertex_adjacent_to_every_odd_cycle()


def test_odd_cycle_adjacency_matches_cycle_enumeration():
    import networkx as nx

    checked = 0
    for H in nx.graph_atlas_g():
        n = H.number_of_nodes()
        if n < 1 or n > 7 or not nx.is_connected(H):
            continue
        odd = [c for c in nx.simple_cycles(H) if len(c) % 2 == 1]
        expected = all(
            v in c or any(w in c for w in H[v]) for c in odd for v in H
        )
        G = Graph.from_edges(n, H.edges())
        assert G.every_vertex_adjacent_to_every_odd_cycle() == expected, H.edges()
        checked += 1
    assert checked == 996


def test_json_roundtrip(tmp_path):
    G = triangle_tail(3)
    text = G.to_json()
    assert Graph.from_json(text) == G
    f = tmp_path / "g.json"
    f.write_text(text)
    assert Graph.from_json_file(f) == G


def test_json_is_one_based():
    assert '"edges": [[1, 2]]' in Graph.from_edges(2, [(0, 1)]).to_json()


def test_families():
    assert complete(3).edges == cycle(3).edges
    assert path(4).edge_list() == [(0, 1), (1, 2), (2, 3)]
    T = triangle_tail(2)
    assert T.n == 5
    assert T.edge_list() == [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]


def test_parse_family():
    assert parse_family("K5") == complete(5)
    assert parse_family("C7") == cycle(7)
    assert parse_family(" P4 ") == path(4)
    assert parse_family("T3") == triangle_tail(3)
    for bad in ("Q9", "K", "C-3", "k5"):
        with pytest.raises(ValueError):
            parse_family(bad)

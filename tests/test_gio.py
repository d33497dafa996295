import networkx as nx
import pytest
from hypothesis import given

from wheelkit.errors import InputDomainError
from wheelkit.gio import (
    from_graph6,
    parse_edgelist,
    sniff_graph,
    to_dot,
    to_edgelist,
    to_graph6,
)
from wheelkit.graph import complete_graph, cycle_graph

from tests.test_graph import graphs


def test_graph6_k4():
    assert to_graph6(complete_graph(["a", "b", "c", "d"])) == "C~"


def test_graph6_round_trip_examples():
    for g in (complete_graph(list("abcde")), cycle_graph(list("abcdef"))):
        back = from_graph6(to_graph6(g))
        assert back.n == g.n and back.m == g.m


@given(graphs())
def test_graph6_round_trip_preserves_structure(g):
    back = from_graph6(to_graph6(g))
    idx = {v: str(i) for i, v in enumerate(g.vertices)}
    assert back.n == g.n
    assert {tuple(sorted((idx[u], idx[v]))) for u, v in g.edges} == {
        tuple(sorted(e)) for e in back.edges
    }


@given(graphs())
def test_graph6_matches_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(int(i) for i in range(g.n))
    idx = {v: i for i, v in enumerate(g.vertices)}
    h.add_edges_from((idx[u], idx[v]) for u, v in g.edges)
    ours = to_graph6(g)
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert ours == theirs


def test_graph6_header_accepted():
    g = from_graph6(">>graph6<<C~")
    assert g.n == 4 and g.m == 6


def test_graph6_bytes_past_the_encoding_error():
    """Five vertices need two bytes after the size byte; networkx refuses
    the same line ("Expected 10 bits but got 36")."""
    assert from_graph6("D??").m == 0
    with pytest.raises(InputDomainError, match="4 bytes past its 5-vertex encoding"):
        from_graph6("D??junk")
    with pytest.raises(InputDomainError, match="1 bytes past its 4-vertex encoding"):
        sniff_graph(">>graph6<<C~~\n")
    with pytest.raises(InputDomainError, match="truncated"):
        from_graph6("D?")


def test_edgelist_round_trip_with_terminals():
    g = cycle_graph(["a", "b", "c", "d", "e"])
    text = to_edgelist(g, terminals=("a", "c"))
    back, ts = parse_edgelist(text)
    assert back.n == 5 and back.m == 5
    assert ts == ("0", "2")


def test_edgelist_bad_index_errors():
    with pytest.raises(InputDomainError):
        parse_edgelist("2\n0 5\n")


def test_sniff_both_formats():
    g1, ts = sniff_graph("3\n0 1\n1 2\nS: 0\n")
    assert g1.m == 2 and ts == ("0",)
    g2, ts2 = sniff_graph("C~\n")
    assert g2.m == 6 and ts2 is None


def test_dot_mentions_every_edge():
    g = complete_graph(["a", "b", "c"])
    dot = to_dot(g, terminals=("a",))
    assert dot.count("--") == 3 and 'shape=box' in dot

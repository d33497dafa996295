import random

import pytest

from wheelkit.cli import main
from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.generate import (
    generate_terminal_planar,
    random_planar_graph,
    small_graph_classes,
    terminal_set_classes,
)
from wheelkit.graph import Graph, add, complete_graph, cycle_graph, path_graph
from wheelkit.oracles import _all_cycles, brute_wheel_search
from wheelkit.planarity import TerminalGraph
from wheelkit.wheels import Wheel, find_s_good_wheel, is_s_good, is_wheel

from tests.test_planarity import icosahedron


def w4():
    rim = ("r1", "r2", "r3", "r4")
    g = add(cycle_graph(rim), {"c"}, [("c", r) for r in rim])
    return g, Wheel("c", rim, frozenset(rim))


def test_w4_is_wheel():
    g, w = w4()
    assert is_wheel(g, w)


def test_two_spokes_is_not_a_wheel():
    g = add(cycle_graph([f"v{i}" for i in range(5)]), {"c"}, [("c", "v0"), ("c", "v2")])
    w = Wheel("c", tuple(f"v{i}" for i in range(5)), frozenset(["v0", "v2"]))
    assert not is_wheel(g, w)


def test_rim_must_be_a_cycle_of_host():
    g, _ = w4()
    w = Wheel("c", ("r1", "r3", "r2", "r4"), frozenset(["r1", "r2", "r3"]))
    assert not is_wheel(g, w)


def test_s_good_vacuous_when_wheel_misses_s():
    g, w = w4()
    g2 = add(g, {"s"}, [("s", "r1")])
    assert is_s_good(g2, w, {"s"})


def test_s_good_fails_for_rim_terminal_off_center():
    g, _ = w4()
    # center adjacent to only three rim vertices; r4 on the rim is in S
    g2 = Graph(g.vertices, [e for e in g.edges if e != ("c", "r4")])
    w = Wheel("c", ("r1", "r2", "r3", "r4"), frozenset(["r1", "r2", "r3"]))
    assert is_wheel(g2, w)
    assert not is_s_good(g2, w, {"r4"})
    assert is_s_good(g2, w, {"r1"})


def test_s_good_center_in_s_errors():
    g, w = w4()
    with pytest.raises(InputDomainError):
        is_s_good(g, w, {"c"})


def test_find_wheel_in_icosahedron():
    tg = TerminalGraph(icosahedron(), (), ordered=False)
    w = find_s_good_wheel(tg)
    assert w is not None and is_wheel(tg.graph, w)
    # no 3- or 4-cycle of the icosahedron carries three spokes of any
    # center, so the first witness has a 5-cycle rim
    assert len(w.rim) == 5


def test_find_wheel_none_on_cycle():
    c5 = cycle_graph([f"v{i}" for i in range(5)])
    tg = TerminalGraph(c5, tuple(f"v{i}" for i in range(5)), ordered=False)
    assert find_s_good_wheel(tg) is None


def test_find_wheel_decides_a_30_vertex_graph():
    g = random_planar_graph(30, random.Random(30))
    ts = g.vertices[:5]
    w = find_s_good_wheel(TerminalGraph(g, ts, ordered=False))
    assert w is not None
    assert w.center not in ts and is_wheel(g, w) and is_s_good(g, w, ts)


def test_find_wheel_beyond_the_kernel_cap_exits_2(tmp_path, capsys):
    g = path_graph([str(i) for i in range(64)])
    with pytest.raises(ResourceLimitError):
        find_s_good_wheel(TerminalGraph(g, (), ordered=False))
    path = tmp_path / "p64.txt"
    path.write_text("64\n" + "".join(f"{i} {i + 1}\n" for i in range(63)))
    assert main(["good-wheel", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: kernels capped at 63 vertices, got 64"]


def test_find_wheel_agrees_with_brute_force():
    g, _ = w4()
    host = add(g, {"t"}, [("t", "r1"), ("t", "r2")])
    cases = [
        TerminalGraph(host, ("t",), ordered=False),
        TerminalGraph(host, ("t", "r4"), ordered=False),
        TerminalGraph(host, ("t", "r1", "r3"), ordered=False),
        TerminalGraph(cycle_graph(list("abcdef")), ("a",), ordered=False),
        TerminalGraph(complete_graph(list("abcde")), ("a", "b"), ordered=False),
    ]
    for tg in cases:
        ours = find_s_good_wheel(tg)
        brute = brute_wheel_search(tg.graph, tg.terminals)
        assert (ours is None) == (brute is None)
        if ours is not None:
            assert is_wheel(tg.graph, ours) and is_s_good(tg.graph, ours, tg.terminals)


def test_find_wheel_agrees_with_brute_force_random_corpus():
    import random
    from itertools import combinations

    rng = random.Random(271)
    for _ in range(150):
        n = rng.randrange(4, 9)
        names = [str(i) for i in range(n)]
        edges = [e for e in combinations(names, 2) if rng.random() < rng.uniform(0.25, 0.7)]
        g = Graph(names, edges)
        ts = tuple(rng.sample(names, rng.randrange(0, min(5, n) + 1)))
        tg = TerminalGraph(g, ts, ordered=False)
        ours = find_s_good_wheel(tg)
        brute = brute_wheel_search(g, ts)
        assert (ours is None) == (brute is None)
        if ours is not None:
            assert is_wheel(g, ours) and is_s_good(g, ours, ts)
            assert ours.center not in ts


def test_wheel_never_centered_at_terminal():
    g, _ = w4()
    # the center-c wheel exists as a subgraph, but every vertex is a
    # terminal, so no admissible center remains
    tg = TerminalGraph(g, tuple(g.vertices), ordered=False)
    assert find_s_good_wheel(tg) is None
    # and any returned witness never sits on a terminal
    tg2 = TerminalGraph(g, ("c",), ordered=False)
    w = find_s_good_wheel(tg2)
    assert w is None or w.center not in tg2.terminals


def shortest_good_rim(g: Graph, ts, center) -> int | None:
    """The fewest rim vertices of an S-good wheel centred at `center`,
    from the oracle's cycles of g - center."""
    nbrs = set(g.neighbors(center))
    rest = g.induced([v for v in g.vertices if v != center])
    bad = set(ts) - nbrs
    rims = (c for c in _all_cycles(rest) if len(nbrs.intersection(c)) >= 3 and bad.isdisjoint(c))
    return min(map(len, rims), default=None)


def wheel_oracle_mismatches(cases) -> tuple[int, list]:
    """The number of S-good wheels `find_s_good_wheel` finds among the
    terminal graphs `cases`, and the cases where it is wrong: its verdict
    differs from `brute_wheel_search`'s, or its witness is not an S-good
    wheel centred off S whose rim is a shortest S-good rim at its center."""
    found, bad = 0, []
    for tg in cases:
        g, ts = tg.graph, tg.terminals
        w = find_s_good_wheel(tg)
        if (w is None) != (brute_wheel_search(g, ts) is None):
            bad.append(tg)
        elif w is not None:
            found += 1
            if not (
                w.center not in ts
                and is_wheel(g, w)
                and is_s_good(g, w, ts)
                and len(w.rim) == shortest_good_rim(g, ts, w.center)
            ):
                bad.append(tg)
    return found, bad


def rooted_classes(n_max: int) -> list[TerminalGraph]:
    """Every `terminal_set_classes(g, k)`, k = 4 and 5, over
    `small_graph_classes(n_max)`."""
    return [
        TerminalGraph(g, ts, ordered=False)
        for g in small_graph_classes(n_max)
        for k in (4, 5)
        for ts in terminal_set_classes(g, k)
    ]


def test_find_wheel_matches_the_oracle_on_rooted_classes_to_6_vertices():
    cases = rooted_classes(6)
    found, bad = wheel_oracle_mismatches(cases)
    assert (len(cases), found, bad) == (1823, 366, [])


def test_find_wheel_matches_the_oracle_on_the_five_terminal_stream():
    cases = [tg for tg in generate_terminal_planar(8, 5, ("s-independent",)) if tg.graph.n > 5]
    found, bad = wheel_oracle_mismatches(cases)
    assert (len(cases), found, bad) == (748, 31, [])

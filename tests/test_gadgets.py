import json
from dataclasses import replace
from pathlib import Path

import pytest

from wheelkit.errors import LiftingError, PreconditionError
from wheelkit.gadgets import (
    Lift,
    apply_gadget,
    foreign_edges,
    gadget_case,
    gadget_library,
    lift_subdivision,
    reduced_witnesses,
    validate_rule,
)
from wheelkit.graph import Graph, union
from wheelkit.planarity import is_disc_planar
from wheelkit.subdivisions import find_k5_subdivision, validate_subdivision
from wheelkit.wheels import find_s_good_wheel

LIFTS_GOLDEN = Path(__file__).parent / "golden" / "lifts.json"


def test_library_structurally_sound():
    for case in gadget_library():
        assert validate_rule(case) == []


@pytest.mark.parametrize("case", gadget_library(), ids=lambda c: c.rule.name)
def test_side_is_disc_planar_in_its_order_and_has_no_good_wheel(case):
    assert is_disc_planar(case.side)
    assert find_s_good_wheel(case.side) is None


def test_gadget_case_shares_the_library_build():
    for case in gadget_library():
        assert gadget_case(case.rule.name) is case
    with pytest.raises(PreconditionError):
        gadget_case("no_such_rule")


def test_validate_rule_rejects_lift_edge_the_surgery_does_not_make():
    # pair_chord inserts v2-v4; a lift keyed on v2-v3 would never fire
    case = gadget_case("pair_chord")
    mutant = replace(
        case,
        rule=replace(
            case.rule,
            lifts=(Lift(frozenset({("v2", "v3")}), ((("v2", "u", "v", "v4"),),)),),
        ),
    )
    assert validate_rule(mutant) == [
        "pair_chord: lift edge ('v2', 'v3') is not made by the surgery"
    ]


def _with_extra_option(name, index, path):
    """The case `name` with `path` added as one more option of lift `index`."""
    case = gadget_case(name)
    lifts = list(case.rule.lifts)
    lifts[index] = Lift(lifts[index].edges, lifts[index].options + ((path,),))
    return replace(case, rule=replace(case.rule, lifts=tuple(lifts)))


def test_validate_rule_rejects_replacement_edge_missing_from_side():
    # v is not adjacent to v2 on pair_chord's side
    mutant = _with_extra_option("pair_chord", 0, ("v2", "v", "v4"))
    assert validate_rule(mutant) == [
        "pair_chord: replacement edge ('v2','v') missing from side"
    ]


def test_validate_rule_rejects_replacement_edge_between_kept_vertices():
    # gap_fan keeps v3 and v5, so the path may not run along their edge
    mutant = _with_extra_option("gap_fan", 0, ("t1", "v1", "v5", "v3"))
    assert validate_rule(mutant) == [
        "gap_fan: replacement interior 'v5' not deleted",
        "gap_fan: replacement edge ('v5','v3') avoids the deleted set",
    ]


def test_rule_names_unique():
    names = [c.rule.name for c in gadget_library()]
    assert len(names) == len(set(names))


def test_apply_gadget_pair_chord():
    case = gadget_case("pair_chord")
    host = case.hosts[0]
    gp = apply_gadget(host, case.rule)
    assert not gp.has_vertex("u") and not gp.has_vertex("v")
    assert gp.has_edge("v2", "v4")
    assert host.n - gp.n == 2


def test_apply_gadget_empty_rule_is_identity():
    from wheelkit.gadgets import GadgetRule

    g = Graph(edges=[("a", "b"), ("b", "c")])
    assert apply_gadget(g, GadgetRule("noop", frozenset())) == g


def test_apply_gadget_path_merge_produces_merged_vertex():
    case = gadget_case("path_merge")
    gp = apply_gadget(case.hosts[0], case.rule)
    assert gp.has_vertex("m")
    assert set(gp.neighbors("m")) == {"t2", "t3", "t4", "t5"}
    assert not gp.has_vertex("t1") and not gp.has_vertex("v")


def test_foreign_edges_are_the_inserted_web():
    case = gadget_case("web5")
    fe = foreign_edges(case.hosts[0], case.rule)
    assert len(fe) == 5


def _lifts(case):
    """Each witness of the lifting corpus, checked in the reduction, then
    lifted and checked in its host; yields (host index, kept foreign
    edges, lifted witness)."""
    for i, host, keep, sub in reduced_witnesses(case):
        validate_subdivision(apply_gadget(host, case.rule), sub)
        out = lift_subdivision(host, case.rule, sub)
        validate_subdivision(host, out)
        yield i, keep, out


@pytest.mark.parametrize("case", gadget_library(), ids=lambda c: c.rule.name)
def test_lift_all_hosts_all_usage_patterns(case):
    total = sum(1 for _ in _lifts(case))
    assert total > 0, "corpus for this rule never produced a subdivision"


def test_lifted_witnesses_match_the_golden_file():
    # every witness of the lift-all-gadgets loop, pinned vertex by vertex:
    # the key is rule, host index and kept foreign edges
    got = {}
    for case in gadget_library():
        for i, keep, out in _lifts(case):
            key = f"{case.rule.name} host{i} keep=" + ",".join(f"{a}-{b}" for a, b in keep)
            got[key] = {
                "branch": " ".join(out.branch),
                "paths": [" ".join(p) for p in out.paths],
            }
    assert got == json.loads(LIFTS_GOLDEN.read_text())


def test_pair_chord_host_uses_inserted_edge():
    case = gadget_case("pair_chord")
    host = case.hosts[0]
    gp = apply_gadget(host, case.rule)
    sub = find_k5_subdivision(gp)
    assert sub is not None
    assert ("v2", "v4") in sub.edge_set()
    out = lift_subdivision(host, case.rule, sub)
    validate_subdivision(host, out)
    # the replacement path through the deleted pair must appear
    assert {("u", "v2"), ("u", "v")} <= set(out.edge_set())


def test_pair_chord_mid_path_usage_lifts():
    # inserted chord consumed inside a longer subdivision path: both of
    # its endpoints are degree-2 vertices of the reduced witness
    case = gadget_case("pair_chord")
    host = case.hosts[2]
    gp = apply_gadget(host, case.rule)
    sub = find_k5_subdivision(gp)
    assert sub is not None
    assert ("v2", "v4") in sub.edge_set()
    assert "v2" not in sub.branch and "v4" not in sub.branch
    out = lift_subdivision(host, case.rule, sub)
    validate_subdivision(host, out)
    assert {("u", "v"), ("u", "v2")} <= set(out.edge_set())


def test_k5_search_deterministic():
    case = gadget_case("pair_chord")
    gp = apply_gadget(case.hosts[0], case.rule)
    a = find_k5_subdivision(gp)
    b = find_k5_subdivision(gp)
    assert a == b


def test_lift_without_foreign_edges_returns_same_subdivision():
    case = gadget_case("pair_chord")
    host = case.hosts[1]  # K5 entirely inside the host side
    gp = apply_gadget(host, case.rule)
    sub = find_k5_subdivision(gp)
    assert sub is not None and not (set(sub.edge_set()) & foreign_edges(host, case.rule))
    out = lift_subdivision(host, case.rule, sub)
    assert out.edge_set() == sub.edge_set()


def test_web5_all_five_edges_force_double_pivot():
    case = gadget_case("web5")
    host = case.hosts[0]
    gp = apply_gadget(host, case.rule)
    sub = find_k5_subdivision(gp)
    assert sub is not None
    used = set(sub.edge_set()) & foreign_edges(host, case.rule)
    assert len(used) == 5
    out = lift_subdivision(host, case.rule, sub)
    validate_subdivision(host, out)
    # the relocated branch vertices live in the deleted region
    assert {"w", "z"} <= set(out.branch)


def test_triangle_star3_all_three_edges_force_pivot():
    case = gadget_case("triangle_star3")
    host = case.hosts[0]
    gp = apply_gadget(host, case.rule)
    sub = find_k5_subdivision(gp)
    assert sub is not None
    used = set(sub.edge_set()) & foreign_edges(host, case.rule)
    assert len(used) == 3
    out = lift_subdivision(host, case.rule, sub)
    validate_subdivision(host, out)
    assert "w" in set(out.branch)


def test_web5_rp_detours_through_hub_when_connector_taken():
    # host_tpath: the reduced graph's only K5 runs the web as a path
    # r-t-s plus the two p-edges, so the r-p replacement cannot use the
    # connector vertex (needed by p-x) and must route through the hub
    case = gadget_case("web5")
    host = case.hosts[4]
    gp = apply_gadget(host, case.rule)
    sub = find_k5_subdivision(gp)
    assert sub is not None
    used = set(sub.edge_set()) & foreign_edges(host, case.rule)
    assert used == {("p", "r"), ("p", "x"), ("r", "t"), ("s", "t")}
    out = lift_subdivision(host, case.rule, sub)
    validate_subdivision(host, out)


def test_path_merge_host_coloring_oracle():
    # the 9-vertex host (side + the fan terminal's fourth neighbor):
    # the merged reduction stays 4-colorable, agreeing with enumeration,
    # and its colorings extend through the matching recipe schedule
    from wheelkit.coloring import four_color
    from wheelkit.graph import add
    from wheelkit.oracles import brute_four_color

    case = gadget_case("path_merge")
    host9 = add(case.side.graph, ("a",), (("a", "t1"),))
    assert host9.n == 9
    ours = four_color(host9)
    brute = brute_four_color(host9)
    assert (ours is None) == (brute is None) and ours is not None
    gp = apply_gadget(host9, case.rule)
    assert four_color(gp) is not None


def test_lifting_failure_reported_not_faked():
    # dismantle a rule: drop its lift data so the engine cannot succeed
    case = gadget_case("pair_chord")
    from wheelkit.gadgets import GadgetRule

    crippled = GadgetRule(
        name="pair_chord_crippled",
        delete_vertices=case.rule.delete_vertices,
        insert_edges=case.rule.insert_edges,
    )
    host = case.hosts[0]
    gp = apply_gadget(host, crippled)
    sub = find_k5_subdivision(gp)
    assert sub is not None
    with pytest.raises(LiftingError):
        lift_subdivision(host, crippled, sub)

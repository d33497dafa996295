"""Batch verification experiments over the package's finite claims.

Each experiment checks one machine-checkable property on a corpus of
instances.  It is a plain function whose parameters are the `Config`
keys it reads, and it returns (instance count, counterexamples
serialized).  `run_experiment` times it and builds the report, which
echoes exactly those keys.  Reports are deterministic for a fixed seed
and configuration.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import dataclass, field, fields

from wheelkit import gio
from wheelkit.catalog import catalog, matches_catalog, verify_catalog
from wheelkit.errors import InputDomainError, WheelkitError
from wheelkit.gadgets import gadget_library, lift_subdivision, reduced_witnesses, validate_rule
from wheelkit.generate import (
    generate_terminal_planar,
    random_graph,
    random_planar_graph,
    random_wheel_host,
    small_graph_classes,
    terminal_set_classes,
)
from wheelkit.graph import Graph, add, complete_graph, cycle_graph, path_graph, remove, union
from wheelkit.kernels import MAX_KERNEL_VERTICES
from wheelkit.oracles import (
    brute_disc_planar,
    brute_disjoint_paths,
    brute_four_color,
    brute_k5_subdivision,
    brute_separations,
)
from wheelkit.planarity import TerminalGraph, embed, is_disc_planar, is_planar
from wheelkit.recipes import verify_all_recipes
from wheelkit.coloring import four_color
from wheelkit.separations import (
    Separation,
    Verdict,
    check_trichotomy,
    enumerate_separations,
)
from wheelkit.subdivisions import (
    find_disjoint_paths,
    find_k5_subdivision,
    validate_subdivision,
    wheel_plus_paths_to_k5,
)


@dataclass
class Config:
    seed: int = 20191105
    oracle_bound: int = 8
    search_bound: int = 12
    instances: int = 200

    def validate(self) -> None:
        """Raise InputDomainError naming the first key out of its range.

        oracle-equivalence draws graphs of 5 to oracle_bound vertices for
        its K5 check and planar-no-k5 draws graphs of 5 to search_bound
        vertices, so both bounds must reach 5.  The oracles of
        oracle-equivalence grow fastest (its default instances took about
        2 s at oracle_bound 10 and 4.5 s at 11 on 2 cores): it stops at 10.
        planar-no-k5's inputs all pass the K5 search's width-3 screen, so
        search_bound stops only at the kernels' MAX_KERNEL_VERTICES (63),
        where the default instances take under a second.
        """
        minimums = {"oracle_bound": 5, "search_bound": 5, "instances": 1}
        for key, low in minimums.items():
            value = getattr(self, key)
            if value < low:
                raise InputDomainError(f"config {key} = {value} is below its minimum {low}")
        maximums = {"oracle_bound": 10, "search_bound": MAX_KERNEL_VERTICES}
        for key, high in maximums.items():
            value = getattr(self, key)
            if value > high:
                raise InputDomainError(f"config {key} = {value} is above its maximum {high}")


@dataclass
class ExperimentReport:
    name: str
    instances: int
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.instances > 0 and not self.counterexamples

    def as_dict(self) -> dict:
        return {
            "experiment": self.name,
            "instances": self.instances,
            "pass": self.passed,
            "counterexamples": self.counterexamples,
            "elapsed_seconds": round(self.elapsed, 3),
            "config": self.config,
        }


# -- experiments ---------------------------------------------------------------


def run_catalog_no_good_wheel():
    return len(catalog()), verify_catalog()


def run_wheel_k5_construction(seed):
    rng = random.Random(seed)
    instances, counterexamples = 0, []
    want = 100
    while instances < want:
        g, wheel, corners = random_wheel_host(rng)
        w1, w2, w3, w4 = corners
        ps = find_disjoint_paths(
            g,
            [(w1, w3), (w2, w4)],
            forbidden=set(wheel.vertex_set()) - set(corners),
            limit=16,
        )
        if ps is None:
            continue  # noise edges occasionally block the planted linkage
        instances += 1
        try:
            sub = wheel_plus_paths_to_k5(g, wheel, corners, ps)
            validate_subdivision(g, sub)
        except WheelkitError as exc:  # counterexample, not a crash
            counterexamples.append(f"{gio.to_graph6(g)}: {exc}")
    return instances, counterexamples


def run_lift_all_gadgets():
    instances, counterexamples = 0, []
    for case in gadget_library():
        counterexamples.extend(validate_rule(case))
        for _, host, _, sub in reduced_witnesses(case):
            instances += 1
            try:
                validate_subdivision(host, lift_subdivision(host, case.rule, sub))
            except WheelkitError as exc:
                counterexamples.append(f"{case.rule.name}: {exc}")
    return instances, counterexamples


def run_coloring_recipes():
    instances, counterexamples = 0, []
    for report in verify_all_recipes():
        instances += report.cases
        counterexamples.extend(f"{report.name}: {f}" for f in report.failures)
    return instances, counterexamples


def _structured_small_graphs() -> list[Graph]:
    """Hand-picked shapes that exercise the searches' edge cases."""
    k5 = complete_graph(list("abcde"))
    k5_minus = remove(k5, edges=[("a", "b")])
    sub_k5 = add(k5_minus, {"m"}, [("a", "m"), ("m", "b")])
    wheel7 = add(cycle_graph([f"r{i}" for i in range(7)]), {"c"},
                 [("c", f"r{i}") for i in range(7)])
    k33 = Graph("a b c x y z".split(), [(u, v) for u in "abc" for v in "xyz"])
    grid24 = Graph(
        [f"{r}{c}" for r in range(2) for c in range(4)],
        [(f"{r}{c}", f"{r}{c + 1}") for r in range(2) for c in range(3)]
        + [(f"0{c}", f"1{c}") for c in range(4)],
    )
    return [
        k5,
        k5_minus,
        sub_k5,
        wheel7,
        k33,
        add(k33, (), [("a", "b")]),
        grid24,
        complete_graph(list("abcdefgh")),
        cycle_graph(list("abcdefgh")),
        path_graph(list("abcde")),
    ]


def run_oracle_equivalence(seed, oracle_bound, instances):
    rng = random.Random(seed)
    count, counterexamples = 0, []
    structured = _structured_small_graphs()

    # four_color vs exhaustive enumeration
    for i in range(instances):
        if i < len(structured):
            g = structured[i]
        else:
            g = random_graph(rng.randrange(3, oracle_bound + 1), rng.uniform(0.2, 0.9), rng)
        count += 1
        ours = four_color(g)
        brute = brute_four_color(g)
        if (ours is None) != (brute is None):
            counterexamples.append(f"four-color: {gio.to_graph6(g)}")

    # disjoint paths vs brute force
    for _ in range(instances):
        g = random_graph(rng.randrange(4, oracle_bound + 1), rng.uniform(0.3, 0.8), rng)
        vs = list(g.vertices)
        rng.shuffle(vs)
        if len(vs) < 4:
            continue
        pairs = [(vs[0], vs[1]), (vs[2], vs[3])]
        count += 1
        ours = find_disjoint_paths(g, pairs)
        brute = brute_disjoint_paths(g, pairs)
        if (ours is None) != (brute is None):
            counterexamples.append(f"linkage: {gio.to_graph6(g)} pairs {pairs}")

    # K5-subdivision vs brute force
    for i in range(instances):
        if i < len(structured):
            g = structured[i]
        else:
            g = random_graph(rng.randrange(5, oracle_bound + 1), rng.uniform(0.3, 0.85), rng)
        count += 1
        ours = find_k5_subdivision(g)
        brute = brute_k5_subdivision(g)
        if (ours is not None) != brute:
            counterexamples.append(f"k5: {gio.to_graph6(g)}")

    # separations vs the definition filter, cut-internal edges on one side
    for _ in range(instances):
        g = random_graph(rng.randrange(4, min(7, oracle_bound) + 1), rng.uniform(0.3, 0.8), rng)
        k = rng.randrange(1, 4)
        count += 1
        got = {
            frozenset((frozenset(s.vertices), s.edge_set()) for s in (sep.side1, sep.side2))
            for sep in enumerate_separations(g, k)
        }
        want = set()
        inner_of = {}  # cut -> its cut-internal edges
        for pair in brute_separations(g, k):
            (v1, e1), (v2, e2) = pair
            cut = v1 & v2
            inner = inner_of.get(cut)
            if inner is None:
                inner = inner_of[cut] = {e for e in g.edges if set(e) <= cut}
            if inner <= e1 or inner <= e2:
                want.add(pair)
        if got != want:
            counterexamples.append(f"separations: {gio.to_graph6(g)} k={k}")

    return count, counterexamples


def run_planar_no_k5(seed, search_bound, instances):
    rng = random.Random(seed)
    counterexamples = []
    for _ in range(instances):
        n = rng.randrange(5, search_bound + 1)
        g = random_planar_graph(n, rng, keep_fraction=rng.uniform(0.6, 1.0))
        if find_k5_subdivision(g, limit=search_bound) is not None:
            counterexamples.append(f"k5-in-planar: {gio.to_graph6(g)}")
            continue
        emb = embed(g)
        comps = len(g.components())
        if g.n - g.m + emb.face_count() != 1 + comps:
            counterexamples.append(f"euler: {gio.to_graph6(g)}")
        if not is_planar(g):
            counterexamples.append(f"planarity-flip: {gio.to_graph6(g)}")
    return instances, counterexamples


def run_disc_planar_oracle():
    instances, counterexamples = 0, []
    for g in small_graph_classes(6):
        for size in (1, 2, 3):
            for ts in terminal_set_classes(g, size):
                instances += 1
                disc = is_disc_planar(TerminalGraph(g, ts, ordered=True))
                oracle = brute_disc_planar(g, ts)
                if disc != oracle:
                    counterexamples.append(
                        f"disc-planar: {gio.to_graph6(g)} S={ts} disc={disc} oracle={oracle}"
                    )
    return instances, counterexamples


def run_trichotomy_regression(seed):
    rng = random.Random(seed)
    instances, counterexamples = 0, []

    def hub_side(ts):
        edges = [(t, h) for t in ts for h in ("h1", "h2")] + [("h1", "h2")]
        return Graph(set(ts) | {"h1", "h2"}, edges)

    # catalog members glued as the planar side of an order-5 separation
    for m in catalog():
        side2 = hub_side(m.tg.terminals)
        g = union(m.tg.graph, side2)
        instances += 1
        res = check_trichotomy(g, Separation(m.tg.graph, side2))
        if res.verdict is not Verdict.CATALOG:
            counterexamples.append(f"catalog-glue {m.name}: {res.verdict.value}")

    # order-4 sides with five vertices
    for edges in (
        [("u", "t1"), ("u", "t2"), ("u", "t3"), ("u", "t4")],
        [("u", "t1"), ("u", "t2"), ("u", "t3"), ("u", "t4"), ("t1", "t2")],
        [("u", "t1"), ("u", "t2"), ("u", "t3"), ("u", "t4"), ("t1", "t2"), ("t3", "t4")],
    ):
        ts = ("t1", "t2", "t3", "t4")
        side1 = Graph(set(ts) | {"u"}, edges)
        side2 = hub_side(ts)
        g = union(side1, side2)
        instances += 1
        res = check_trichotomy(g, Separation(side1, side2))
        if res.verdict is not Verdict.SMALL:
            counterexamples.append(f"small-side: {res.verdict.value}")

    # seeded wheel-bearing sides (orders 4 and 5): a wheel with pendant
    # terminals on its rim is disc-planar and has at least 9 vertices
    for _ in range(40):
        order = rng.choice((4, 5))
        ts = tuple(f"t{i}" for i in range(1, order + 1))
        rim_len = rng.randrange(4, 7)
        rim = [f"r{i}" for i in range(rim_len)]
        side1 = add(
            Graph(rim, [(rim[i], rim[(i + 1) % rim_len]) for i in range(rim_len)]),
            {"c"},
            [("c", r) for r in rim],
        )
        side1 = add(side1, set(ts), [(t, rim[i % rim_len]) for i, t in enumerate(ts)])
        side2 = hub_side(ts)
        g = union(side1, side2)
        instances += 1
        res = check_trichotomy(g, Separation(side1, side2))
        if res.verdict is not Verdict.GOOD_WHEEL:
            counterexamples.append(f"wheel-side: {res.verdict.value}")

    return instances, counterexamples


def run_gen_catalog_members():
    instances, counterexamples = 0, []
    found = set()
    # W1 and W2 have six vertices: a larger stream would only add graphs
    # that cannot match them, and a smaller one misses both.
    for tg in generate_terminal_planar(6, 5, filters=("s-independent",)):
        instances += 1
        m = matches_catalog(tg)
        if m is not None:
            found.add(m.name)
    for name in ("W1", "W2"):
        if name not in found:
            counterexamples.append(f"stream missed catalog member {name}")
    return instances, counterexamples


EXPERIMENTS = {
    "catalog-no-good-wheel": run_catalog_no_good_wheel,
    "wheel-k5-construction": run_wheel_k5_construction,
    "lift-all-gadgets": run_lift_all_gadgets,
    "coloring-recipes": run_coloring_recipes,
    "oracle-equivalence": run_oracle_equivalence,
    "planar-no-k5": run_planar_no_k5,
    "disc-planar-oracle": run_disc_planar_oracle,
    "trichotomy-regression": run_trichotomy_regression,
    "gen-catalog-members": run_gen_catalog_members,
}


def run_experiment(name: str, cfg: Config | None = None) -> ExperimentReport:
    """Run one experiment on the `Config` keys it takes as parameters and
    report them, in field order, with its counts and wall time."""
    if name not in EXPERIMENTS:
        raise InputDomainError(
            f"unknown experiment {name!r}; known: {', '.join(sorted(EXPERIMENTS))}"
        )
    cfg = cfg or Config()
    cfg.validate()
    fn = EXPERIMENTS[name]
    params = inspect.signature(fn).parameters
    used = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name in params}
    t0 = time.perf_counter()
    instances, counterexamples = fn(**used)
    return ExperimentReport(name, instances, counterexamples, time.perf_counter() - t0, used)

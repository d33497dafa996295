"""The benchmark's four workloads.

Each workload has three steps:

- `setup()` imports what it needs from wheelkit and builds what every
  pass shares;
- `inputs(state, rng)` builds one pass's inputs from a seeded rng;
- `run(inputs, result)` runs one pass as a closed loop, calling
  `result.add(start)` as each instance (the unit it checks) ends and
  counting wrong verdicts into `result.failed`.

Library functions are always called through their module
(`oracles.brute_disc_planar`, not a bare name), so that the tracer's
patches are seen.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from itertools import combinations
from time import perf_counter

from speed import SpeedProbe


def wheelkit_module(name: str):
    # `from wheelkit import catalog` would give the function the package
    # re-exports under the module's name, not the module.
    return importlib.import_module(f"wheelkit.{name}")


@dataclass
class PassResult:
    intervals: list[tuple[float, float]] = field(default_factory=list)  # per instance
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    def add(self, start: float) -> None:
        """Record an instance that began at `start` and ends now."""
        self.intervals.append((start, perf_counter()))

    def scaled_times(self) -> list[float]:
        """Instance times at the reference speed."""
        return [self.probe.scaled(start, end) for start, end in self.intervals]

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.failed += 1
            self.problems.append(problem)


class DiscOracle:
    """Criterion 7: the fence construction against the rotation-system
    oracle on every graph with at most six vertices and one to three
    terminals, deduplicated by rooted canonical form.

    Set-up builds the full corpus; each pass checks its size.  A pass
    runs whole graphs only, so the terminal sets of one graph stay
    together: every graph except the six-vertex ones with 11 or 12 edges,
    whose oracle runs take 95% of the corpus's two minutes and do not fit
    a pass.  The seed shuffles the graph order.  (Renaming vertices by
    seed, tried first, moved the oracle's early exits and so the p99 by
    11% between seeds.)
    """

    name = "disc-oracle"
    FULL_CORPUS = 3571
    PASS_INSTANCES = 3347

    def setup(self):
        experiments = wheelkit_module("experiments")
        generate = wheelkit_module("generate")
        planarity = wheelkit_module("planarity")

        seen = set()
        corpus = []
        for g in experiments.small_graph_classes(6):
            sets = []
            for size in (1, 2, 3):
                for ts in combinations(g.vertices, size):
                    tg = planarity.TerminalGraph(g, ts, ordered=True)
                    key = generate.rooted_canonical_form(tg)
                    if key not in seen:
                        seen.add(key)
                        sets.append(ts)
            corpus.append((g, sets))
        size = sum(len(sets) for _, sets in corpus)
        return size, [(g, sets) for g, sets in corpus if not (g.n == 6 and g.m in (11, 12))]

    def inputs(self, state, rng):
        size, kept = state
        return size, rng.sample(kept, len(kept))

    def run(self, inputs, result):
        oracles = wheelkit_module("oracles")
        planarity = wheelkit_module("planarity")

        size, graphs = inputs
        result.check(size == self.FULL_CORPUS, f"corpus has {size} instances, expected {self.FULL_CORPUS}")
        for g, sets in graphs:
            for ts in sets:
                t0 = perf_counter()
                fence = planarity.is_disc_planar(planarity.TerminalGraph(g, ts, ordered=True))
                oracle = oracles.brute_disc_planar(g, ts)
                result.add(t0)
                result.check(fence == oracle, f"disc-planar disagreement: {g.edges} S={ts}")
        result.check(
            len(result.intervals) == self.PASS_INSTANCES,
            f"{len(result.intervals)} instances, expected {self.PASS_INSTANCES}",
        )


class GenStream:
    """The disc-planar terminal-graph stream with five independent
    terminals up to seven vertices, each emitted graph matched against the
    catalog.  Deterministic: the seed is not used.  An instance is one
    emitted graph, timed from the previous emission.
    """

    name = "gen-stream"
    N_MAX = 7
    EMITTED = 61
    MEMBERS = {"W1", "W2", "X1", "X2"}

    def setup(self):
        return None  # importing wheelkit loads everything the pass uses

    def inputs(self, state, rng):
        return None

    def run(self, inputs, result):
        catalog = wheelkit_module("catalog")
        generate = wheelkit_module("generate")
        found = set()
        t0 = perf_counter()
        for tg in generate.generate_terminal_planar(self.N_MAX, 5, ("s-independent",)):
            member = catalog.matches_catalog(tg)
            result.add(t0)
            ts = tg.terminals
            result.check(
                len(ts) == 5 and not any(tg.graph.has_edge(a, b) for a, b in combinations(ts, 2)),
                f"terminals not independent: {tg.graph.edges}",
            )
            if member is not None:
                found.add(member.name)
            t0 = perf_counter()
        result.check(
            len(result.intervals) == self.EMITTED,
            f"{len(result.intervals)} graphs emitted, expected {self.EMITTED}",
        )
        result.check(found == self.MEMBERS, f"catalog members found: {sorted(found)}")


class K5Search:
    """Seeded random planar graphs with 9 to 12 vertices (in turn, so every
    pass has the same size mix) and 95% of a stacked triangulation's
    edges: none may contain a K5-subdivision, and each must get a proper
    4-coloring.
    """

    name = "k5-search"
    PASS_SIZE = 250

    def setup(self):
        return None  # importing wheelkit loads everything the pass uses

    def inputs(self, state, rng):
        generate = wheelkit_module("generate")
        return [
            generate.random_planar_graph(9 + i % 4, rng, keep_fraction=0.95)
            for i in range(self.PASS_SIZE)
        ]

    def run(self, inputs, result):
        coloring = wheelkit_module("coloring")
        subdivisions = wheelkit_module("subdivisions")

        for g in inputs:
            t0 = perf_counter()
            sub = subdivisions.find_k5_subdivision(g)
            col = coloring.four_color(g)
            result.add(t0)
            result.check(
                sub is None and col is not None and coloring.is_proper(g, col, total=True),
                f"K5-subdivision or no proper 4-coloring: {g.edges}",
            )


class VerifySuite:
    """Every experiment but `disc-planar-oracle` through `run_experiment`,
    at the default `Config`, as `wheelkit verify` runs them.  The seed is
    not used: under a seeded `Config` one pass takes from 0.5x to 1.3x the
    default's time, too wide for a steady mean over a few passes.  An
    instance is one experiment; it passes when its report passes and,
    where the experiment's size is fixed, its instance count matches.
    """

    name = "verify-suite"
    EXPERIMENTS = (
        "catalog-no-good-wheel",
        "wheel-k5-construction",
        "lift-all-gadgets",
        "coloring-recipes",
        "oracle-equivalence",
        "planar-no-k5",
        "trichotomy-regression",
        "gen-catalog-members",
    )
    FIXED_SIZES = {
        "catalog-no-good-wheel": 6,
        "wheel-k5-construction": 100,
        "lift-all-gadgets": 57,
        "coloring-recipes": 2275,
        "oracle-equivalence": 800,
        "planar-no-k5": 200,
    }

    def setup(self):
        wheelkit_module("experiments")

    def inputs(self, state, rng):
        return wheelkit_module("experiments").Config()

    def run(self, inputs, result):
        experiments = wheelkit_module("experiments")

        for name in self.EXPERIMENTS:
            t0 = perf_counter()
            report = experiments.run_experiment(name, inputs)
            result.add(t0)
            want = self.FIXED_SIZES.get(name, report.instances)
            result.check(
                report.passed and report.instances == want,
                f"{name}: {report.instances} instances (expected {want}), "
                f"counterexamples {report.counterexamples[:3]}",
            )


WORKLOADS = {w.name: w for w in (DiscOracle(), GenStream(), K5Search(), VerifySuite())}

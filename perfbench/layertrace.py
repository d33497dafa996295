"""Per-layer tracing of wheelkit from outside the library.

`Tracer.install()` replaces each traced public function with a wrapper
that records a span around the call, in every loaded wheelkit module that
holds a reference to it.  A span's self time is its duration minus the
time of the spans nested in it, so the self times of all layers add up to
the time spent inside the library.  A generator function's span is open
only while the generator runs (each resumption up to its next yield), so
its time is counted across the whole iteration and not charged to the
consumer.

Installation patches module globals and is meant for a process that
throws the patched modules away when it ends (one pass's own interpreter).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# Public entry points, as "<module>.<function>".  Left out: the graph
# module's small helpers, public functions that no workload calls, and
# the generator filters (`generate.s_independent` and friends), which the
# generator compares by identity, so wrapping them would change its
# pruning.
TRACED = (
    "oracles.brute_four_color",
    "oracles.all_simple_paths",
    "oracles.brute_disjoint_paths",
    "oracles.brute_k5_subdivision",
    "oracles.brute_separations",
    "oracles.brute_disc_planar",
    "generate.rooted_canonical_form",
    "generate.generate_terminal_planar",
    "generate.random_planar_graph",
    "generate.random_wheel_host",
    "planarity.is_planar",
    "planarity.is_disc_planar",
    "planarity.embed",
    "kernels.four_color_masks",
    "kernels.linkage_masks",
    "coloring.is_proper",
    "coloring.four_color",
    "coloring.assign_then_extend",
    "subdivisions.validate_path_system",
    "subdivisions.validate_subdivision",
    "subdivisions.is_valid_subdivision",
    "subdivisions.find_disjoint_paths",
    "subdivisions.find_k5_subdivision",
    "subdivisions.subdivision_from_edges",
    "subdivisions.wheel_plus_paths_to_k5",
    "separations.validate_separation",
    "separations.enumerate_separations",
    "separations.check_trichotomy",
    "catalog.catalog",
    "catalog.verify_catalog",
    "catalog.rooted_isomorphic",
    "catalog.matches_catalog",
    "wheels.is_wheel",
    "wheels.find_s_good_wheel",
    "gadgets.apply_gadget",
    "gadgets.foreign_edges",
    "gadgets.lift_subdivision",
    "gadgets.gadget_library",
    "recipes.verify_recipe",
    "recipes.recipe_library",
    "recipes.verify_all_recipes",
    "graph.Graph",
    "graph.add",
    "graph.remove",
    "graph.union",
)


class Tracer:
    """Calls and self seconds per traced function.

    The pass's speed probe (`speed.SpeedProbe`) takes its samples from a
    signal, between any two bytecodes.  The tracer keeps each sample out
    of the open span's self time, and holds samples off while it opens or
    closes a span: a sample landing between a span's timestamp and its
    push or pop would be charged to a span it lies outside of.
    """

    def __init__(self, probe):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.yields: dict[str, int] = {}
        self._child_s: list[float] = []  # one entry per open span
        self._probe = probe
        probe.listener = self.exclude

    def _count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def _open(self) -> float:
        self._probe.busy = True
        self._child_s.append(0.0)
        start = perf_counter()
        self._probe.busy = False
        return start

    def _close(self, name: str, start: float) -> None:
        self._probe.busy = True
        elapsed = perf_counter() - start
        nested = self._child_s.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - nested
        if self._child_s:
            self._child_s[-1] += elapsed
        self._probe.busy = False

    def exclude(self, seconds: float) -> None:
        """Keep time the benchmark spent inside the open span (a speed
        sample) out of that span's self time."""
        if self._child_s:
            self._child_s[-1] += seconds

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name)
            start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start)

        return traced

    def _wrap_generator(self, name: str, fn):
        # One call per generator created; every resumption adds its time.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(name)
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name: str, gen):
        while True:
            start = self._open()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(name, start)
            self.yields[name] = self.yields.get(name, 0) + 1
            yield item

    def install(self) -> None:
        """Patch every traced function in all loaded wheelkit modules."""
        replace = {}
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            module = importlib.import_module(f"wheelkit.{module_name}")
            if not hasattr(module, attr):
                continue  # removed from the library: reported as zero
            original = getattr(module, attr)
            if inspect.isclass(original):
                original.__init__ = self.wrap(qualified, original.__init__)
            else:
                replace[id(original)] = (original, self.wrap(qualified, original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "wheelkit" and not mod_name.startswith("wheelkit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


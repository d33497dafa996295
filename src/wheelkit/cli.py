"""Command-line interface.

Graphs are read from files in graph6 or edge-list format (`-` for stdin);
terminal sets come from the edge list's trailing ``S:`` line or from
``--terminals``.  Reports are JSON on stdout (or --out).  Exit status:
0 success / property holds, 1 counterexample or property fails, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from itertools import islice
from pathlib import Path

from wheelkit import gio
from wheelkit.catalog import catalog, matches_catalog
from wheelkit.coloring import four_color
from wheelkit.errors import InputDomainError, PreconditionError, WheelkitError
from wheelkit.experiments import EXPERIMENTS, Config, run_experiment
from wheelkit.gadgets import apply_gadget, gadget_case, gadget_library, lift_subdivision
from wheelkit.generate import FILTERS, generate_terminal_planar
from wheelkit.graph import Graph, vkey
from wheelkit.planarity import TerminalGraph, embed, is_disc_planar
from wheelkit.separations import check_trichotomy, enumerate_separations, split
from wheelkit.subdivisions import DEFAULT_SEARCH_LIMIT, find_k5_subdivision
from wheelkit.wheels import find_s_good_wheel


def _read(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return gio.sniff_graph(text)


def _emit(payload, out):
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_terminals(args):
    """The graph file and its terminals: --terminals (vertex indices or
    names) when given, else the edge list's S: line."""
    g, ts = _read(args.graph)
    if args.terminals is None:
        return g, ts or ()
    names = args.terminals.split(",")
    for t in names:
        if t.isdecimal() and int(t) >= g.n:
            raise InputDomainError(f"terminal index {t} out of range for {g.n} vertices")
    return g, tuple(g.vertices[int(t)] if t.isdecimal() else t for t in names)


def _stop(args):
    """--max as an islice stop: None for the default 0, no negatives."""
    if args.max < 0:
        raise InputDomainError(f"--max must be at least 0, got {args.max}")
    return args.max or None


def cmd_planar(args):
    g, _ = _read(args.graph)
    try:
        emb = embed(g)
    except PreconditionError:
        return {"planar": False, "faces": None}, False
    faces = [list(emb.face_vertices(i)) for i in range(len(emb.faces))]
    return {"planar": True, "faces": faces, "face_count": emb.face_count()}, True


def cmd_disc_planar(args):
    g, ts = _read_terminals(args)
    tg = TerminalGraph(g, ts, ordered=args.ordered)
    ok = is_disc_planar(tg)
    return {"disc_planar": ok, "ordered": tg.ordered, "terminals": list(ts)}, ok


def cmd_good_wheel(args):
    g, ts = _read_terminals(args)
    w = find_s_good_wheel(TerminalGraph(g, ts, ordered=False))
    if w is None:
        return {"found": False}, False
    spokes = sorted(w.spokes, key=vkey)
    return {"found": True, "center": w.center, "rim": list(w.rim), "spokes": spokes}, True


def cmd_k5(args):
    g, _ = _read(args.graph)
    sub = find_k5_subdivision(g, limit=args.limit)
    if sub is None:
        return {"found": False}, False
    return {"found": True, "branch": list(sub.branch), "paths": [list(p) for p in sub.paths]}, True


def cmd_color(args):
    g, _ = _read(args.graph)
    col = four_color(g)
    return {"colorable": col is not None, "assignment": col}, col is not None


def _side(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


def _oriented(seps, planar_side: bool):
    """Each separation as (cut, side1, side2); with planar_side, only those
    with a side disc-planar over the cut, and that side first."""
    for sep in seps:
        if not planar_side:
            yield sep.cut, sep.side1, sep.side2
            continue
        for first, second in ((sep.side1, sep.side2), (sep.side2, sep.side1)):
            if is_disc_planar(TerminalGraph(first, sep.cut, ordered=False)):
                yield sep.cut, first, second
                break


def cmd_separations(args):
    stop = _stop(args)
    g, _ = _read(args.graph)
    found = islice(_oriented(enumerate_separations(g, args.k), args.planar_side), stop)
    out = [{"cut": list(cut), "side1": _side(s1), "side2": _side(s2)} for cut, s1, s2 in found]
    return {"order": args.k, "count": len(out), "separations": out}, True


def cmd_trichotomy(args):
    g, _ = _read(args.graph)
    res = check_trichotomy(g, split(g, args.cut.split(","), args.side.split(",")))
    report = {"verdict": res.verdict.value}
    if res.wheel:
        report["wheel"] = {"center": res.wheel.center, "rim": list(res.wheel.rim)}
    if res.member:
        report["member"] = res.member.name
    return report, res.verdict.value != "none"


_DUMP = {
    "graph6": lambda tg: gio.to_graph6(tg.graph),
    "dot": lambda tg: gio.to_dot(tg.graph, tg.terminals),
    "edgelist": lambda tg: gio.to_edgelist(tg.graph, tg.terminals),
}


def cmd_catalog_list(args):
    return [
        {
            "name": m.name,
            "vertices": m.tg.graph.n,
            "terminals": list(m.tg.terminals),
            "special_vertex": m.special_vertex,
        }
        for m in catalog()
    ], True


def cmd_catalog_dump(args):
    return {m.name: _DUMP[args.format](m.tg) for m in catalog()}, True


def cmd_catalog_match(args):
    g, ts = _read_terminals(args)
    m = matches_catalog(TerminalGraph(g, ts, ordered=False))
    return {"match": m.name if m else None}, m is not None


def _renamed(g: Graph, spec: str) -> Graph:
    """g with its vertices renamed by a `rule=input,...` map: each input is
    a vertex of g named once, and no two vertices end up with one name."""
    rename = {}
    for item in spec.split(","):
        rule_name, eq, input_name = (x.strip() for x in item.partition("="))
        if not (eq and rule_name and input_name):
            raise InputDomainError(f"--map entry {item!r} is not rule=input")
        if not g.has_vertex(input_name):
            raise InputDomainError(f"--map input {input_name!r} is not a vertex of the graph")
        if input_name in rename:
            raise InputDomainError(f"--map input {input_name!r} appears twice")
        rename[input_name] = rule_name
    names = [rename.get(v, v) for v in g.vertices]
    if len(set(names)) < len(names):
        twice = next(x for x in names if names.count(x) > 1)
        raise InputDomainError(f"--map gives two vertices the name {twice!r}")
    return Graph(names, [(rename.get(u, u), rename.get(v, v)) for u, v in g.edges])


def cmd_lift(args):
    case = gadget_case(args.rule)
    if args.demo:
        if args.map is not None:
            raise InputDomainError("--map applies to a graph file, not to --demo")
        host = args.host or 0
        if not 0 <= host < len(case.hosts):
            raise InputDomainError(
                f"host index {host} out of range for {len(case.hosts)} hosts of {args.rule}"
            )
        g = case.hosts[host]
    else:
        if args.host is not None:
            raise InputDomainError("--host applies to --demo, not to a graph file")
        g, _ = _read(args.graph)
        if args.map is not None:
            g = _renamed(g, args.map)
    sub = find_k5_subdivision(apply_gadget(g, case.rule), limit=args.limit)
    if sub is None:
        return {"reduced_has_k5": False}, False
    lifted = lift_subdivision(g, case.rule, sub)
    paths = [list(p) for p in lifted.paths]
    return {"reduced_has_k5": True, "branch": list(lifted.branch), "paths": paths}, True


def cmd_gen(args):
    stop = _stop(args)
    stream = generate_terminal_planar(args.n_max, args.s_size, filters=tuple(args.filter or ()))
    lines = [gio.to_edgelist(tg.graph, tg.terminals) for tg in islice(stream, stop)]
    return {"count": len(lines), "graphs": lines}, True


def _read_config(path: str) -> Config:
    """A Config from `key = value` lines; unknown keys and non-integer
    values are input errors."""
    cfg = Config()
    keys = {f.name for f in fields(Config)}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise InputDomainError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                setattr(cfg, key, int(value))
            except ValueError:
                raise InputDomainError(
                    f"{path}:{lineno}: {key} must be an integer, got {value.strip()!r}"
                ) from None
    return cfg


def cmd_verify(args):
    cfg = _read_config(args.config) if args.config else Config()
    if args.seed is not None:
        cfg.seed = args.seed
    cfg.validate()
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    reports = [run_experiment(n, cfg) for n in names]
    return [r.as_dict() for r in reports], all(r.passed for r in reports)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wheelkit", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("graph", help="graph file (graph6 or edge list), - for stdin")
        p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("planar", help="planarity plus a face report")
    common(p)
    p.set_defaults(func=cmd_planar)

    p = sub.add_parser("disc-planar", help="disc-planarity of a terminal graph")
    common(p)
    p.add_argument("--terminals", help="comma-separated terminal ids (else S: line)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--ordered", dest="ordered", action="store_true", default=True)
    mode.add_argument("--unordered", dest="ordered", action="store_false")
    p.set_defaults(func=cmd_disc_planar)

    p = sub.add_parser("good-wheel", help="search for a terminal-good wheel")
    common(p)
    p.add_argument("--terminals")
    p.set_defaults(func=cmd_good_wheel)

    p = sub.add_parser("k5", help="exact K5-subdivision search")
    common(p)
    p.add_argument("--limit", type=int, default=DEFAULT_SEARCH_LIMIT)
    p.set_defaults(func=cmd_k5)

    p = sub.add_parser("color", help="exact 4-coloring")
    common(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("separations", help="enumerate k-separations")
    common(p)
    p.add_argument("-k", type=int, required=True)
    p.add_argument(
        "--planar-side",
        action="store_true",
        help="keep only separations with a side disc-planar over the cut, printed as side1",
    )
    p.add_argument("--max", type=int, default=0, help="stop after this many")
    p.set_defaults(func=cmd_separations)

    p = sub.add_parser("trichotomy", help="planar-side trichotomy verdict")
    common(p)
    p.add_argument("--cut", required=True, help="comma-separated cut vertex ids")
    p.add_argument("--side", required=True, help="comma-separated side1 exclusive vertices")
    p.set_defaults(func=cmd_trichotomy)

    p = sub.add_parser("catalog", help="obstruction catalog")
    actions = p.add_subparsers(dest="action", required=True)
    a = actions.add_parser("list", help="the members and their terminals")
    a.add_argument("--out")
    a.set_defaults(func=cmd_catalog_list)
    a = actions.add_parser("dump", help="every member in one graph format")
    a.add_argument("--format", choices=("graph6", "dot", "edgelist"), default="edgelist")
    a.add_argument("--out")
    a.set_defaults(func=cmd_catalog_dump)
    a = actions.add_parser("match", help="the member a terminal graph is rooted-isomorphic to")
    common(a)
    a.add_argument("--terminals")
    a.set_defaults(func=cmd_catalog_match)

    p = sub.add_parser("lift", help="apply a gadget rule and lift the K5 witness")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("graph", nargs="?", help="host graph file; vertex names via --map")
    source.add_argument("--demo", action="store_true", help="run on the shipped corpus host")
    p.add_argument("--out")
    p.add_argument("--rule", required=True, choices=[c.rule.name for c in gadget_library()])
    p.add_argument("--map", help="rule-to-input vertex map for a graph file, e.g. u=0,v=1,v1=2")
    p.add_argument("--host", type=int, help="corpus host index for --demo (default 0)")
    p.add_argument("--limit", type=int, default=DEFAULT_SEARCH_LIMIT)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("gen", help="stream small disc-planar terminal graphs")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--s-size", type=int, required=True)
    p.add_argument("--filter", action="append", choices=FILTERS)
    p.add_argument("--max", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="run a named verification experiment")
    p.add_argument("experiment", choices=sorted(EXPERIMENTS) + ["all"])
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None) -> int:
    """Run one subcommand.  Each cmd_* returns (report, holds), and the
    report is written here once: exit 0 when holds, 1 when not, 2 on bad
    input (one `error:` line on stderr, no report)."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report, holds = args.func(args)
        _emit(report, args.out)
    except (WheelkitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface: density/arboricity/orientation on edge-list files,
VC reports and reductions on product-subgraph instances, factor
classification, adjacency labels, and the verification/fuzzing suites.

Exit codes: 0 all checks hold, 1 a proved claim was violated, 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .classes import (chordal_certificate, clique_number, min_dismantling_order,
                      suboctahedron_structure)
from .density import (arboricity, bounded_outdegree_orientation, densest_subgraph,
                      forest_decomposition)
from .graph import FactorGraph, GraphError, degeneracy_ordering, from_edgelist
from .harness import (SCHEMA, SUITES, _json_text, _verdict, fuzz_records, report_to_json,
                      run_suite)
from .labeling import decode, encode, from_label_file, to_label_file
from .products import ProductSpace, instance_doc, instance_from_json
from .reductions import reduce_edge, reduce_opposite_pair
from .vc import DEFAULT_BUDGET, compute_vc_report, vcd_induced, vcdens_induced


def _rational(x) -> dict:
    f = Fraction(x)
    return {"exact": f"{f.numerator}/{f.denominator}", "approx": float(f)}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _write(text: str, out: str | None = None) -> None:
    """Write `text` to the file `out`, or to stdout when there is none."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(doc: dict) -> None:
    _write(_json_text(doc) + "\n")


def _load_graph(path: str) -> FactorGraph:
    return from_edgelist(_read(path))


def _load_instance(path: str):
    return instance_from_json(_read(path))


# ---------------------------------------------------------------------------
# subcommands

def cmd_density(args) -> int:
    g = _load_graph(args.file)
    rep = densest_subgraph(g)
    _emit({"schema": SCHEMA, "density": _rational(rep.density),
           "mad": _rational(rep.mad), "witness": list(rep.witness)})
    return 0


def cmd_arboricity(args) -> int:
    g = _load_graph(args.file)
    doc = {"schema": SCHEMA, "arboricity": arboricity(g)}
    fd = forest_decomposition(g)
    doc["forests"] = {str(j): [list(e) for e in fd.forest_edges(j)]
                      for j in range(fd.k)}
    _emit(doc)
    return 0


def cmd_orient(args) -> int:
    g = _load_graph(args.file)
    orientation = bounded_outdegree_orientation(g, args.max_outdegree)
    arcs = sorted([u, v] if head == v else [v, u]
                  for (u, v), head in orientation.items())
    _emit({"schema": SCHEMA, "max_outdegree": args.max_outdegree,
           "arcs_tail_head": arcs})
    return 0


def cmd_vcd(args) -> int:
    g = _load_instance(args.instance)
    doc = {"schema": SCHEMA, "n": g.n, "m": g.num_edges}
    report = compute_vc_report(g, args.budget) if args.minor else {
        "vcd": vcd_induced(g, args.budget), "vcdens": vcdens_induced(g, args.budget)}
    for name, (value, witness, exact) in report.items():
        doc[name] = _rational(value) if name.startswith("vcdens") else value
        doc[f"{name}_exact"] = exact
        doc[f"{name}_witness"] = _witness(witness)
    _emit(doc)
    return 0


def _witness(w):
    """An induced witness as {str(factor): key}, a minor one as each factor's sorted parts."""
    if w is None:
        return None
    if isinstance(w, dict):
        return {str(i): list(vs) for i, vs in w.items()}
    return [[sorted(p) for p in factor_parts] for factor_parts in w.parts]


def cmd_reduce(args) -> int:
    if (args.edge is None) == (args.octahedron is None):
        return _fail("give exactly one of --edge and --octahedron")
    g = _load_instance(args.instance)
    if args.octahedron is not None:
        step = reduce_opposite_pair(g, args.factor, args.octahedron)
    else:
        try:
            u, v = map(int, args.edge.split(","))
        except ValueError:
            return _fail("--edge expects the form u,v")
        step = reduce_edge(g, args.factor, u, v)
    doc = {
        "schema": SCHEMA,
        "factor": step.factor_index,
        "edge": list(step.edge),
        "graphs": {
            "input": instance_doc(step.g),
            "contracted": instance_doc(step.g_contracted),
            "link": instance_doc(step.g_link),
            "link_centers": instance_doc(step.g_link_centers),
            "link_tips": sorted(list(v) for v in step.tips),
        },
        "contraction_map": sorted([list(a), list(b)]
                                  for a, b in step.contraction_map.items()),
        "edge_groups": step.edge_groups,
        "common_neighbors": step.num_common_neighbors,
    }
    _emit(doc)
    return 0


def cmd_classify(args) -> int:
    g = _load_graph(args.file)
    cert = chordal_certificate(g)
    dis = min_dismantling_order(g)
    sub = suboctahedron_structure(g)
    _, degeneracy = degeneracy_ordering(g)
    doc = {"schema": SCHEMA,
           "chordal": cert.chordal,
           "dismantlable": dis is not None,
           "suboctahedron": sub is not None,
           "dd": dis.dd if dis is not None else None,
           "dd_exact": dis.exact if dis is not None else None,
           "omega": clique_number(g),
           "degeneracy": degeneracy}
    if cert.hole:
        doc["hole"] = list(cert.hole)
    _emit(doc)
    return 0


def cmd_label(args) -> int:
    if args.action == "encode":
        _write(to_label_file(encode(_load_graph(args.file))), args.out)
        return 0
    scheme = from_label_file(_read(args.file))
    x, y = args.x, args.y
    if not (0 <= x < scheme.n and 0 <= y < scheme.n):
        return _fail(f"vertices must lie in 0..{scheme.n - 1}")
    adjacent = decode(scheme.labels[x], scheme.labels[y], scheme.k, scheme.w)
    _emit({"schema": SCHEMA, "x": x, "y": y, "adjacent": adjacent})
    return 0


def cmd_verify(args) -> int:
    records = run_suite(args.suite, trials=args.trials, seed=args.seed)
    _write(report_to_json(records) + "\n", args.out)
    violated = _verdict(False)  # a claim that fails on exact sides
    return 1 if any(r.verdict == violated for r in records) else 0


def _named_space(name: str) -> ProductSpace:
    from .graph import path_graph
    key = name.lower()
    sizes = {"p3p3": (3, 3), "p4p3": (4, 3), "p4p4": (4, 4)}.get(key)
    if sizes is None:
        raise GraphError(f"unknown space {name!r}; choose from p3p3, p4p3, p4p4")
    return ProductSpace([path_graph(s) for s in sizes])


def cmd_fuzz(args) -> int:
    records = []
    violations = []
    for idx, name in enumerate(args.spaces):
        space = _named_space(name)
        recs, viols = fuzz_records(space, args.trials, seed=args.seed + idx)
        records.extend(recs)
        violations.extend(viols)
    _write(report_to_json(records, violations=violations) + "\n", args.out)
    return 0  # discoveries are archived, never a failure


# ---------------------------------------------------------------------------

def _density_args(p) -> None:
    p.add_argument("file")
    p.set_defaults(func=cmd_density)


def _arboricity_args(p) -> None:
    p.add_argument("file")
    p.set_defaults(func=cmd_arboricity)


def _orient_args(p) -> None:
    p.add_argument("file")
    p.add_argument("--max-outdegree", type=int, required=True)
    p.set_defaults(func=cmd_orient)


def _vcd_args(p) -> None:
    p.add_argument("instance")
    p.add_argument("--minor", action="store_true",
                   help="also compute the minor (starred) quantities")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="work units of each VC scan before it stops with inexact bounds")
    p.set_defaults(func=cmd_vcd)


def _reduce_args(p) -> None:
    p.add_argument("instance")
    p.add_argument("--factor", type=int, required=True)
    p.add_argument("--edge", help="factor edge as u,v")
    p.add_argument("--octahedron", type=int, default=None,
                   help="reduce along the opposite pair of this factor vertex")
    p.set_defaults(func=cmd_reduce)


def _classify_args(p) -> None:
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)


def _label_args(p) -> None:
    label_subs = p.add_subparsers(dest="action", required=True)
    pe = label_subs.add_parser("encode")
    pe.add_argument("file")
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_label, action="encode")
    pd = label_subs.add_parser("decode")
    pd.add_argument("file", help="label file")
    pd.add_argument("x", type=int)
    pd.add_argument("y", type=int)
    pd.set_defaults(func=cmd_label, action="decode")


def _verify_args(p) -> None:
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)


def _fuzz_args(p) -> None:
    p.add_argument("--spaces", nargs="+", default=["p3p3", "p4p3"])
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fuzz)


# subcommand -> (help line, function adding its arguments), in help order
_COMMANDS = {
    "density": ("exact densest subgraph of an edge-list graph", _density_args),
    "arboricity": ("exact arboricity and a forest decomposition", _arboricity_args),
    "orient": ("orientation with bounded outdegree", _orient_args),
    "vcd": ("VC quantities of a product-subgraph instance", _vcd_args),
    "reduce": ("one reduction step along a factor edge", _reduce_args),
    "classify": ("structure classes of an edge-list graph", _classify_args),
    "label": ("adjacency labels from the degeneracy forests", _label_args),
    "verify": ("run a verification suite", _verify_args),
    "fuzz-conj3": ("fuzz |E|/|V| <= vcdens_star on small grids", _fuzz_args),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="prodvc",
        description="density and VC-dimension toolkit for subgraphs of "
                    "Cartesian products")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in _COMMANDS.items():
        add_args(subs.add_parser(name, help=help_line))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with a parser of only the subcommand that argv[0] names.  Help
    and errors that show the list of subcommands (no subcommand, an unknown
    one, or a stray argument after a known one) come from the full parser,
    so they read the same."""
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"prodvc {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    for name, low in (("budget", 0), ("trials", 1)):
        if getattr(args, name, low) < low:
            return _fail(f"--{name} must be at least {low}")
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``dem`` (exact monitoring number), ``gen`` (emit an edge list),
``cover`` (vertex cover number), ``verify`` (run the formula/bound/sharpness
suites), ``compare`` (monitoring number against the metric, edge metric and
strong metric dimensions). Graphs are given either as an edge-list file path
or inline as ``gen=<expression>``. Every exact solver, the comparison
dimensions included, refuses graphs above one vertex cap: ``--max-n``,
defaulting to ``DEMKIT_MAX_N`` or else 24. ``dem``, ``cover`` and ``compare``
check an input's vertex count against the cap before building it. ``gen``
solves nothing, so the cap does not apply to it; it refuses, before
building, an expression of more than ``MAX_GEN_ORDER`` vertices, a guard on
memory: a graph's neighbour masks take n² bits, and the edge list of
``complete:1024`` already peaks at about 120 MB.

Exit status: 0 on success, 1 when a verification suite reports a failure,
2 on usage or input errors. Identical arguments (and seed) produce
byte-identical reports; ``verify --timings`` adds a per-instance runtime
column and is the one deliberately non-reproducible option.
"""

from __future__ import annotations

import argparse
import os
import sys

from .comparison import compare_graph
from .cover import vertex_cover_number
from .errors import (
    CapExceededError,
    EnumerationCapExceededError,
    ExpressionError,
    GenerationError,
    GraphError,
)
from .exprs import build, canonical, order_of, parse_expr
from .formulas import SUITES, run_suite
from .graph import Graph, format_edge_list, parse_edge_list
from .monitoring import DEFAULT_ENUMERATION_CAP, DEFAULT_MAX_N, dem_number

FORMATS = ("json", "csv", "plain")

# the largest order ``gen`` builds; the largest products solved past the cap
# (C32 x C32, Q10) have this many vertices
MAX_GEN_ORDER = 1024

USAGE_ERRORS = (
    GraphError,
    GenerationError,
    ExpressionError,
    CapExceededError,
    EnumerationCapExceededError,
    OSError,
    UnicodeError,
)


def _at_least(low: int):
    """The argparse type of a cap: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            if int(text) >= low:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")

    return parse


def _default_max_n() -> int:
    env = os.environ.get("DEMKIT_MAX_N")
    if env is not None:
        try:
            return _at_least(1)(env)
        except argparse.ArgumentTypeError:
            print(f"demkit: ignoring bad DEMKIT_MAX_N={env!r}", file=sys.stderr)
    return DEFAULT_MAX_N


def _load_graph(token: str, max_n: int) -> tuple[Graph, str]:
    """Resolve a graph argument: inline ``gen=<expr>`` or an edge-list file.

    The vertex count is checked against ``max_n`` before the graph is built.
    """
    if token.startswith("gen="):
        expr = parse_expr(token[4:])
        n = order_of(expr)
        if n > max_n:
            raise CapExceededError(token, n, max_n)
        return build(expr), canonical(expr)
    with open(token) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{token}: {exc}") from None
    return parse_edge_list(text, max_n=max_n), token


def _emit(text: str, output: str | None) -> None:
    """Write the report to stdout, or to the file ``output`` as the bytes
    stdout would print (UTF-8, names that are not UTF-8 passed through as
    their raw bytes); the file is created only once the report is encoded."""
    if output is None:
        sys.stdout.write(text)
        return
    try:
        data = text.encode("utf-8", "surrogateescape")
    except UnicodeEncodeError as exc:
        raise UnicodeError(f"{output}: {exc}") from None
    with open(output, "wb") as fh:
        fh.write(data)


def _emit_json(doc, output: str | None) -> None:
    import json  # here, so that CSV and plain reports never load it

    _emit(json.dumps(doc, indent=2) + "\n", output)


def _csv(rows: list[list[str]]) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _ids(ids) -> str:
    return " ".join(str(v) for v in ids)


def _run_dem(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph, args.max_n)
    result = dem_number(
        g,
        enumerate_all=args.all_min_sets,
        max_n=args.max_n,
        enumeration_cap=args.enum_cap,
    )
    doc = result.to_json_dict()
    if args.greedy:
        doc["greedy"] = list(result.greedy)
        doc["greedy_size"] = len(result.greedy)
    if args.format == "json":
        _emit_json(doc, args.output)
    elif args.format == "csv":
        header = ["n", "m", "dem", "witness", "nodes_explored"]
        row = [
            str(result.n), str(result.m), str(result.value),
            _ids(result.witness), str(result.nodes_explored),
        ]
        if args.all_min_sets:
            header.append("minimum_sets")
            row.append(str(len(result.all_minimum_sets)))
        if args.greedy:
            header.append("greedy")
            row.append(_ids(doc["greedy"]))
        _emit(_csv([header, row]), args.output)
    else:
        lines = [
            f"n = {result.n}",
            f"m = {result.m}",
            f"dem = {result.value}",
            f"witness = {_ids(result.witness)}",
        ]
        if args.all_min_sets:
            lines.append(f"minimum sets ({len(result.all_minimum_sets)}):")
            lines += [f"  {_ids(s)}" for s in result.all_minimum_sets]
        if args.greedy:
            lines.append(f"greedy = {_ids(doc['greedy'])} (size {doc['greedy_size']})")
        lines.append(f"nodes explored = {result.nodes_explored}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _run_gen(args: argparse.Namespace) -> int:
    expr = parse_expr(args.family)
    n = order_of(expr)
    if n > MAX_GEN_ORDER:
        raise CapExceededError(args.family, n, MAX_GEN_ORDER)
    _emit(format_edge_list(build(expr)), args.output)
    return 0


def _run_cover(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args.graph, args.max_n)
    result = vertex_cover_number(g, max_n=args.max_n)
    if args.format == "json":
        doc = {
            "n": g.n,
            "m": g.m,
            "cover": result.value,
            "witness": list(result.witness),
        }
        _emit_json(doc, args.output)
    elif args.format == "csv":
        rows = [
            ["n", "m", "cover", "witness"],
            [str(g.n), str(g.m), str(result.value), _ids(result.witness)],
        ]
        _emit(_csv(rows), args.output)
    else:
        _emit(
            f"n = {g.n}\nm = {g.m}\ncover = {result.value}\n"
            f"witness = {_ids(result.witness)}\n",
            args.output,
        )
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    records = run_suite(args.suite, max_n=args.max_n, seed=args.seed)
    if args.format == "json":
        docs = []
        for r in records:
            doc = {
                "instance": r.instance,
                "predicted": r.predicted.render() if r.predicted else "",
                "computed": r.computed,
                "verdict": r.verdict,
                "rule": r.rule,
                "detail": r.detail,
            }
            if args.timings:
                doc["runtime"] = round(r.runtime, 3)
            docs.append(doc)
        _emit_json(docs, args.output)
    elif args.format == "csv":
        header = ["instance", "predicted", "computed", "verdict", "rule"]
        if args.timings:
            header.append("runtime")
        rows = [header]
        for r in records:
            row = [
                r.instance,
                r.predicted.render() if r.predicted else "",
                "" if r.computed is None else str(r.computed),
                r.verdict,
                r.rule,
            ]
            if args.timings:
                row.append(f"{r.runtime:.3f}")
            rows.append(row)
        _emit(_csv(rows), args.output)
    else:
        lines = []
        for r in records:
            predicted = r.predicted.render() if r.predicted else "-"
            line = f"{r.verdict:7s} {r.instance}: predicted {predicted} computed {r.computed}"
            if r.detail:
                line += f" ({r.detail})"
            if args.timings:
                line += f" [{r.runtime:.3f}s]"
            lines.append(line)
        failures = sum(r.verdict == "fail" for r in records)
        skipped = sum(r.verdict == "skipped" for r in records)
        lines.append(
            f"{len(records)} instances: {len(records) - failures - skipped} pass "
            f"{failures} fail {skipped} skipped"
        )
        _emit("\n".join(lines) + "\n", args.output)
    return 1 if any(r.verdict == "fail" for r in records) else 0


def _run_compare(args: argparse.Namespace) -> int:
    reports = []
    for token in args.graphs:
        g, name = _load_graph(token, args.max_n)
        reports.append(compare_graph(g, name, max_n=args.max_n))
    if args.format == "json":
        docs = [
            {
                "graph": r.name,
                "n": r.n,
                "m": r.m,
                "dem": r.dem,
                "dim": r.dim,
                "edim": r.edim,
                "dim_s": r.dim_s,
            }
            for r in reports
        ]
        _emit_json(docs, args.output)
    elif args.format == "csv":
        rows = [["graph", "n", "m", "dem", "dim", "edim", "dim_s"]]
        rows += [
            [r.name, str(r.n), str(r.m), str(r.dem), str(r.dim), str(r.edim), str(r.dim_s)]
            for r in reports
        ]
        _emit(_csv(rows), args.output)
    else:
        lines = [
            f"{r.name}: n={r.n} m={r.m} dem={r.dem} dim={r.dim} "
            f"edim={r.edim} dim_s={r.dim_s}"
            for r in reports
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demkit",
        description="Distance-edge monitoring of connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    max_n = _default_max_n()

    def common(p: argparse.ArgumentParser, fmt: str) -> None:
        p.add_argument("--format", choices=FORMATS, default=fmt)
        p.add_argument("-o", "--output", default=None, help="write the report to a file")
        p.add_argument(
            "--max-n", type=_at_least(1), default=max_n,
            help="exact-solver cap on the vertex count (env DEMKIT_MAX_N)",
        )

    p = sub.add_parser("dem", help="exact minimum monitoring set of a graph")
    p.add_argument("graph", help="edge-list file or gen=<expression>")
    p.add_argument("--all-min-sets", action="store_true", help="enumerate every minimum set")
    p.add_argument("--greedy", action="store_true", help="also report the greedy heuristic set")
    p.add_argument("--enum-cap", type=_at_least(0), default=DEFAULT_ENUMERATION_CAP)
    common(p, "json")
    p.set_defaults(run=_run_dem)

    p = sub.add_parser("gen", help="emit the edge list of a family or product")
    p.add_argument("family", help="expression such as book:4 or cartesian(path:3|cycle:4)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(run=_run_gen)

    p = sub.add_parser("cover", help="exact minimum vertex cover of a graph")
    p.add_argument("graph", help="edge-list file or gen=<expression>")
    common(p, "json")
    p.set_defaults(run=_run_cover)

    p = sub.add_parser("verify", help="check predicted values against the exact solver")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=0, help="seed for the seeded suite instances")
    p.add_argument("--timings", action="store_true", help="add a runtime column (not reproducible)")
    common(p, "csv")
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("compare", help="distance-parameter comparison table")
    p.add_argument("graphs", nargs="+", help="edge-list files or gen=<expression>s")
    common(p, "csv")
    p.set_defaults(run=_run_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except USAGE_ERRORS as exc:
        print(f"demkit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Text grammar for graph expressions.

A family is a colon-separated token, e.g. ``book:4``, ``bipartite:2:3``,
``randconn:8:1/3:seed=42``. Its first part is a kind's short token or full
name in ``families.FAMILIES``; that table also checks the parameter count
and the seed, when the family is sized (``order_of``) or built. A product
wraps two expressions, e.g. ``cartesian(path:3,cycle:4)`` or
``cluster(cycle:4,path:2,root=0)``; the argument separator may be ``,`` or
``|`` (canonical output uses ``|`` so the strings stay comma-free for CSV
reports). Products nest up to ``MAX_NESTING`` deep; deeper input is rejected
before the parser recurses into it, so the recursive parse, build and
printing stay far below the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import NamedTuple, Union

from . import products
from .errors import ExpressionError
from .families import KIND_OF_TOKEN, FamilySpec, family_order, generate
from .graph import Graph

PRODUCT_OPS = ("join", "corona", "cluster", "cartesian")
MAX_NESTING = 100


class ProductSpec(NamedTuple):
    """Declarative description of one binary operation on two expressions."""

    op: str
    left: "GraphExpr"
    right: "GraphExpr"
    root: int | None = None  # cluster only; the rooted factor's root vertex

    def __str__(self) -> str:
        inner = f"{self.left}|{self.right}"
        if self.op == "cluster":
            inner += f"|root={self.root}"
        return f"{self.op}({inner})"


GraphExpr = Union[FamilySpec, ProductSpec]


def _split_args(text: str) -> list[str]:
    args = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ExpressionError(f"unbalanced parentheses in {text!r}")
        if ch in ",|" and depth == 0:
            args.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ExpressionError(f"unbalanced parentheses in {text!r}")
    args.append("".join(current))
    return [a.strip() for a in args]


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ExpressionError(f"expected an integer {what}, got {token!r}") from None


def _parse_family(text: str) -> FamilySpec:
    parts = text.split(":")
    kind = KIND_OF_TOKEN.get(parts[0])
    if kind is None:
        raise ExpressionError(f"unknown family kind {parts[0]!r} in {text!r}")
    params: list[int] = []
    seed: int | None = None
    for part in parts[1:]:
        if part.startswith("seed="):
            if seed is not None:
                raise ExpressionError(f"more than one seed in {text!r}")
            seed = _parse_int(part[5:], "seed")
        elif "/" in part:
            num, den = part.split("/", 1)
            params.append(_parse_int(num, "probability numerator"))
            params.append(_parse_int(den, "probability denominator"))
        else:
            params.append(_parse_int(part, "parameter"))
    return FamilySpec(kind, tuple(params), seed)


def parse_expr(text: str) -> GraphExpr:
    """Parse a family or product expression."""
    return _parse(text, 0)


def _parse(text: str, depth: int) -> GraphExpr:
    s = text.strip()
    if not s:
        raise ExpressionError("empty graph expression")
    for op in PRODUCT_OPS:
        if s.startswith(op + "("):
            if not s.endswith(")"):
                raise ExpressionError(f"missing closing parenthesis in {s!r}")
            args = _split_args(s[len(op) + 1 : -1])
            root = None
            if op == "cluster":
                if len(args) == 3:
                    if not args[2].startswith("root="):
                        raise ExpressionError(
                            f"third cluster argument must be root=<id>, got {args[2]!r}"
                        )
                    root = _parse_int(args[2][5:], "root id")
                    args = args[:2]
                elif len(args) == 2:
                    root = 0
            if len(args) != 2:
                raise ExpressionError(f"{op} expects two graph arguments in {s!r}")
            if depth == MAX_NESTING:
                raise ExpressionError(
                    f"graph expression nests products more than {MAX_NESTING} deep"
                )
            return ProductSpec(
                op, _parse(args[0], depth + 1), _parse(args[1], depth + 1), root
            )
    return _parse_family(s)


def canonical(expr: GraphExpr) -> str:
    """Deterministic text form; parses back to an equal expression."""
    return str(expr)


def order_of(expr: GraphExpr) -> int:
    """Vertex count of the described graph, without building it."""
    if isinstance(expr, FamilySpec):
        return family_order(expr)
    m = order_of(expr.left)
    n = order_of(expr.right)
    if expr.op == "join":
        return m + n
    if expr.op == "corona":
        return m * (1 + n)
    # cluster identifies one vertex per copy; cartesian is the plain grid
    return m * n


def build(expr: GraphExpr) -> Graph:
    """Construct the described graph (product vertex maps are discarded)."""
    if isinstance(expr, FamilySpec):
        return generate(expr)
    left = build(expr.left)
    right = build(expr.right)
    if expr.op == "join":
        return products.join(left, right)[0]
    if expr.op == "corona":
        return products.corona(left, right)[0]
    if expr.op == "cluster":
        return products.cluster(left, right, expr.root or 0)[0]
    return products.cartesian(left, right)[0]

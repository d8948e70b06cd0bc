"""Closed-form predictions for the monitoring number, and the harness that
checks every prediction against the exact solver.

Predictions are data (an exact value or an interval plus the text of the rule
that produced it), matched structurally on the built factor graphs, so e.g. a
triangle is handled consistently whether it was spelled ``cycle:3`` or
``complete:3``. Instances larger than the solver cap are reported as skipped,
never silently passed.

The harness compares numbers and prints no witness, so every exact value
it needs (instances, factors and the sharpness products) comes from the
value memo ``_value``, backed by ``dem_value``, which skips the witness walk.
The minimum-set enumerations of the sharpness checks come from a second
memo, ``_exact``, and the vertex covers the rules use from a third,
``_cover_of``. Each is keyed by the built graph and the cap, so an instance
met under several spellings, or in several suites, is solved once per
process by each route.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from . import hitting, products
from .cover import vertex_cover_number
from .errors import CapExceededError
from .exprs import FamilySpec, GraphExpr, ProductSpec, build, canonical, order_of, parse_expr
from .graph import Graph
from .monitoring import DEFAULT_MAX_N, DemResult, dem_number, dem_value

SUITES = ("formulas", "bounds", "sharpness", "all")
# the largest product order the suites list; fixed, so that raising the
# solver cap leaves the suites and their reports as they are
_SUITE_MAX_ORDER = 24


@dataclass(frozen=True)
class PredictedValue:
    """A predicted exact value or interval, with the rule that produced it."""

    kind: str  # "exact" | "interval"
    lower: int
    upper: int
    rule: str

    @classmethod
    def exact(cls, value: int, rule: str) -> "PredictedValue":
        return cls("exact", value, value, rule)

    @classmethod
    def interval(cls, lower: int, upper: int, rule: str) -> "PredictedValue":
        if lower > upper:
            raise ValueError(f"empty interval [{lower}, {upper}]")
        return cls("interval", lower, upper, rule)

    def contains(self, x: int) -> bool:
        return self.lower <= x <= self.upper

    def render(self) -> str:
        if self.kind == "exact":
            return str(self.lower)
        return f"{self.lower}..{self.upper}"


@dataclass(frozen=True)
class VerificationRecord:
    instance: str
    predicted: PredictedValue | None
    computed: int | None
    verdict: str  # "pass" | "fail" | "skipped"
    rule: str
    detail: str = ""
    runtime: float = 0.0


# -- structural factor classification ---------------------------------------


def _is_cycle(g: Graph) -> bool:
    return g.n >= 3 and g.m == g.n and all(g.degree(v) == 2 for v in range(g.n))


def _is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _book_pages(g: Graph) -> int | None:
    """Page count when g is a book with >= 2 pages, else None.

    A one-page book is a triangle and has three minimum monitoring sets, so
    the unique-minimum-set rules below must not claim it.
    """
    q = g.n - 2
    if q < 1 or g.m != 2 * q + 1:
        return None
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(hubs) != 2 or not g.has_edge(hubs[0], hubs[1]):
        return None
    if all(g.degree(v) == 2 for v in range(g.n) if v not in hubs):
        return q
    return None


@lru_cache(maxsize=None)
def _built(expr: GraphExpr) -> Graph:
    return build(expr)


@lru_cache(maxsize=None)
def _value(g: Graph, max_n: int) -> int:
    return dem_value(g, max_n=max_n)


@lru_cache(maxsize=None)
def _exact(g: Graph, max_n: int) -> DemResult:
    return dem_number(g, True, max_n=max_n)


def _dem_of(expr: GraphExpr, max_n: int) -> int:
    return _value(_built(expr), max_n)


@lru_cache(maxsize=None)
def _cover_of(g: Graph, max_n: int) -> int:
    return vertex_cover_number(g, max_n=max_n).value


# -- the registry ------------------------------------------------------------


def _family_prediction(expr: FamilySpec, max_n: int) -> PredictedValue | None:
    kind, p = expr.kind, expr.params
    if kind in ("path", "random_tree"):
        if p[0] == 1:
            return PredictedValue.exact(0, "single vertex: no edges")
        return PredictedValue.exact(1, "tree: dem = 1")
    if kind == "cycle":
        return PredictedValue.exact(2, "cycle: dem = 2")
    if kind == "complete":
        return PredictedValue.exact(max(p[0] - 1, 0), "complete: dem = n-1")
    if kind == "complete_bipartite":
        return PredictedValue.exact(
            min(p[0], p[1]), "complete bipartite: dem = min(m; n)"
        )
    if kind == "book":
        if p[0] == 1:
            return PredictedValue.exact(2, "complete: dem = n-1")
        return PredictedValue.exact(2, "book: dem = 2")
    if kind == "hypercube":
        return PredictedValue.exact(2 ** (p[0] - 1), "hypercube: dem = 2^(d-1)")
    return None  # random_connected: no closed form


def _fallback_prediction(expr: GraphExpr, max_n: int) -> PredictedValue:
    g = _built(expr)
    if g.m == 0:
        return PredictedValue.exact(0, "single vertex: no edges")
    if g.is_tree():
        return PredictedValue.exact(1, "tree: dem = 1")
    return PredictedValue.interval(
        2, max(2, _cover_of(g, max_n)), "cover bound: 2 <= dem <= c(G)"
    )


def _apex_prediction(base: GraphExpr, max_n: int) -> PredictedValue:
    g = _built(base)
    c = _cover_of(g, max_n)
    if g.radius() >= 4:
        return PredictedValue.exact(c, "apex join: dem = c(G) when radius >= 4")
    return PredictedValue.interval(c, c + 1, "apex join: c(G) <= dem <= c(G)+1")


def _sandwich_prediction(expr: ProductSpec, max_n: int) -> PredictedValue:
    m, n = order_of(expr.left), order_of(expr.right)
    d1 = _dem_of(expr.left, max_n)
    d2 = _dem_of(expr.right, max_n)
    return PredictedValue.interval(
        max(m * d2, n * d1),
        m * d2 + n * d1 - d1 * d2,
        "cartesian: max(m*dem(H); n*dem(G)) <= dem <= m*dem(H)+n*dem(G)-dem(G)*dem(H)",
    )


def _cartesian_prediction(expr: ProductSpec, max_n: int) -> PredictedValue:
    lg, rg = _built(expr.left), _built(expr.right)
    m, n = lg.n, rg.n
    if lg.is_tree() and rg.is_tree() and m >= 2 and n >= 2:
        return PredictedValue.exact(max(m, n), "tree x tree: dem = max(m; n)")
    for tree, cyc in ((lg, rg), (rg, lg)):
        if tree.is_tree() and tree.n >= 2 and _is_cycle(cyc):
            t, c = tree.n, cyc.n
            if c >= 2 * t + 1:
                return PredictedValue.exact(
                    c, "tree x cycle: dem = n when n >= 2m+1"
                )
            return PredictedValue.exact(
                2 * t, "tree x cycle: dem = 2m when n <= 2m"
            )
    if _is_cycle(lg) and _is_cycle(rg):
        return PredictedValue.exact(
            max(2 * m, 2 * n), "cycle x cycle: dem = max(2m; 2n)"
        )
    if _is_complete(lg) and _is_complete(rg) and m >= 3 and n >= 3:
        return PredictedValue.exact(
            m * n - min(m, n), "complete x complete: dem = mn - min(m; n)"
        )
    for book_expr, other_expr in (
        (expr.left, expr.right),
        (expr.right, expr.left),
    ):
        book = _built(book_expr)
        if _book_pages(book) is not None:
            other = _built(other_expr)
            d = _dem_of(other_expr, max_n)
            return PredictedValue.exact(
                2 * other.n + book.n * d - 2 * d,
                "book factor: sharp upper bound attained (unique minimum set)",
            )
    return _sandwich_prediction(expr, max_n)


def predicted_dem(
    expr: GraphExpr | str, *, max_n: int = DEFAULT_MAX_N, mode: str = "best"
) -> PredictedValue:
    """Predicted monitoring number (exact value or interval) for an instance.

    ``mode="best"`` applies the most specific rule; ``mode="bounds"`` forces
    the interval-form rules (the product sandwich, the rooted-product and
    apex intervals, or the cover bound), which is what the bounds suite
    exercises even where an exact formula exists.
    """
    if isinstance(expr, str):
        expr = parse_expr(expr)
    if isinstance(expr, FamilySpec):
        if mode == "best":
            pred = _family_prediction(expr, max_n)
            if pred is not None:
                return pred
        return _fallback_prediction(expr, max_n)
    m, n = order_of(expr.left), order_of(expr.right)
    if expr.op == "join":
        if m == 1 or n == 1:
            return _apex_prediction(expr.right if m == 1 else expr.left, max_n)
        if mode != "best":
            return _fallback_prediction(expr, max_n)
        return PredictedValue.exact(
            min(
                _cover_of(_built(expr.left), max_n) + n,
                _cover_of(_built(expr.right), max_n) + m,
            ),
            "join: dem = min(c(G)+|H|; c(H)+|G|)",
        )
    if expr.op == "corona":
        if m == 1:
            # a single spine vertex joined to one copy: the apex join
            return _apex_prediction(expr.right, max_n)
        if n == 1 or mode != "best":
            return _fallback_prediction(expr, max_n)
        return PredictedValue.exact(
            m * _cover_of(_built(expr.right), max_n), "corona: dem = |G| * c(H)"
        )
    if expr.op == "cluster":
        h = _built(expr.right)
        if h.is_tree():
            return PredictedValue.exact(
                _dem_of(expr.left, max_n), "cluster by a tree: dem = dem(G)"
            )
        return PredictedValue.interval(
            _dem_of(expr.left, max_n) + 1,
            m * _dem_of(expr.right, max_n),
            "cluster: dem(G)+1 <= dem <= |G|*dem(H)",
        )
    if mode != "best":
        return _sandwich_prediction(expr, max_n)
    return _cartesian_prediction(expr, max_n)


# -- single-instance verification --------------------------------------------


def verify_instance(
    expr: GraphExpr | str, *, max_n: int = DEFAULT_MAX_N, mode: str = "best"
) -> VerificationRecord:
    """Build the instance, compute its exact monitoring number, and compare
    with the registry prediction."""
    start = time.perf_counter()
    if isinstance(expr, str):
        expr = parse_expr(expr)
    name = canonical(expr)
    try:
        order = order_of(expr)
        if order > max_n:
            return VerificationRecord(
                name, None, None, "skipped", "",
                f"order {order} exceeds cap {max_n}",
            )
        predicted = predicted_dem(expr, max_n=max_n, mode=mode)
        computed = _dem_of(expr, max_n)
    except CapExceededError as exc:
        return VerificationRecord(name, None, None, "skipped", "", str(exc))
    ok = predicted.contains(computed)
    detail = "" if ok else f"computed {computed} outside {predicted.render()}"
    return VerificationRecord(
        name, predicted, computed, "pass" if ok else "fail",
        predicted.rule, detail, time.perf_counter() - start,
    )


# -- sharpness of the product bounds -----------------------------------------


def _unique_minimum(g: Graph, max_n: int) -> tuple[int, bool]:
    result = _exact(g, max_n)
    return result.value, len(result.all_minimum_sets) == 1


def check_upper_equality_condition(
    g: Graph,
    h: Graph,
    *,
    max_n: int = DEFAULT_MAX_N,
    name_g: str = "G",
    name_h: str = "H",
) -> VerificationRecord:
    """The product attains the upper bound m*dem(H)+n*dem(G)-dem(G)*dem(H)
    exactly when one factor has a unique minimum monitoring set; checks both
    directions of that equivalence on a concrete pair."""
    start = time.perf_counter()
    rule = "upper sharpness: equality iff some factor has a unique minimum set"
    name = f"sharp-upper({name_g}|{name_h})"
    try:
        d1, unique_g = _unique_minimum(g, max_n)
        d2, unique_h = _unique_minimum(h, max_n)
        dp = _value(products.cartesian(g, h)[0], max_n)
    except CapExceededError as exc:
        return VerificationRecord(name, None, None, "skipped", rule, str(exc))
    bound = g.n * d2 + h.n * d1 - d1 * d2
    equal = dp == bound
    unique = unique_g or unique_h
    ok = equal == unique
    detail = (
        f"dem={dp}; bound={bound}; unique(G)={unique_g}; unique(H)={unique_h}"
    )
    return VerificationRecord(
        name, PredictedValue.exact(bound, rule) if unique else None,
        dp, "pass" if ok else "fail", rule, detail,
        time.perf_counter() - start,
    )


def _min_sets_covering_vertices(
    n: int, minimum_sets: tuple[tuple[int, ...], ...]
) -> int | None:
    """Fewest minimum sets whose union is all n vertices, or None if even the
    union of all of them misses a vertex."""
    if set().union(*map(set, minimum_sets)) != set(range(n)):
        return None
    columns = []
    for v in range(n):
        mask = 0
        for idx, s in enumerate(minimum_sets):
            if v in s:
                mask |= 1 << idx
        columns.append(mask)
    value, _ = hitting.minimum_hitting_set(hitting.reduce_columns(columns))
    return value


def _has_disjoint_sets(sets: tuple[tuple[int, ...], ...], k: int) -> bool:
    masks = sorted({sum(1 << v for v in s) for s in sets})

    def rec(start: int, used: int, count: int) -> bool:
        if count >= k:
            return True
        for i in range(start, len(masks)):
            if not masks[i] & used and rec(i + 1, used | masks[i], count + 1):
                return True
        return False

    return k <= 0 or rec(0, 0, 0)


def check_lower_equality_condition(
    g: Graph,
    h: Graph,
    *,
    max_n: int = DEFAULT_MAX_N,
    name_g: str = "G",
    name_h: str = "H",
) -> VerificationRecord:
    """dem(G box H) = |H|*dem(G) exactly when (1) every vertex of G lies in
    some minimum monitoring set and (2) H has at least k pairwise disjoint
    minimum monitoring sets, k being the fewest G-minimum-sets covering V(G).

    The equivalence is evaluated for any inputs; the record notes whether the
    stated hypotheses (|G| <= |H| and dem(G) >= dem(H)) hold, and the suites
    only select in-hypothesis pairs.
    """
    start = time.perf_counter()
    rule = "lower sharpness: equality iff covering and disjointness conditions"
    name = f"sharp-lower({name_g}|{name_h})"
    try:
        rg = _exact(g, max_n)
        rh = _exact(h, max_n)
        dp = _value(products.cartesian(g, h)[0], max_n)
    except CapExceededError as exc:
        return VerificationRecord(name, None, None, "skipped", rule, str(exc))
    hypotheses = g.n <= h.n and rg.value >= rh.value
    k = _min_sets_covering_vertices(g.n, rg.all_minimum_sets)
    cond1 = k is not None
    cond2 = cond1 and _has_disjoint_sets(rh.all_minimum_sets, k)
    target = h.n * rg.value
    equal = dp == target
    ok = equal == (cond1 and cond2)
    detail = (
        f"dem={dp}; n*dem(G)={target}; vertices-covered={cond1}; "
        f"k={k if k is not None else '-'}; disjoint-sets-in-H={cond2}; "
        f"hypotheses-ok={hypotheses}"
    )
    return VerificationRecord(
        name, PredictedValue.exact(target, rule) if (cond1 and cond2) else None,
        dp, "pass" if ok else "fail", rule, detail,
        time.perf_counter() - start,
    )


# -- suites -------------------------------------------------------------------


def formula_instances() -> list[str]:
    """Exact-value instances, none of order above ``_SUITE_MAX_ORDER``."""
    out: list[str] = []
    out += [f"complete:{n}" for n in range(2, 7)]
    out += ["path:2", "path:5", "path:9", "randtree:8:seed=11", "randtree:12:seed=12"]
    out += [f"bipartite:{m}:{n}" for m in range(2, 6) for n in range(m, 6)]
    out += [f"cycle:{n}" for n in range(3, 8)]
    out += [f"book:{q}" for q in range(2, 6)]
    out += ["hypercube:2", "hypercube:3", "hypercube:4"]
    join_factors = ["path:2", "path:3", "path:4", "cycle:3", "cycle:4", "complete:3"]
    out += [
        f"join({a}|{b})" for a, b in combinations_with_replacement(join_factors, 2)
    ]
    out += [
        f"corona({a}|{b})"
        for a in ("path:2", "path:3", "cycle:3")
        for b in ("path:2", "path:3", "complete:3")
    ]
    out += [
        "cluster(cycle:4|path:2)",
        "cluster(cycle:4|path:3)",
        "cluster(cycle:4|path:3|root=1)",
        "cluster(complete:4|path:2)",
    ]
    out += [
        f"cartesian(path:{m}|path:{n})"
        for m in range(2, 6)
        for n in range(m, 6)
        if m * n <= _SUITE_MAX_ORDER
    ]
    out += [
        "cartesian(path:2|cycle:4)",
        "cartesian(path:2|cycle:5)",
        "cartesian(path:2|cycle:6)",
        "cartesian(path:3|cycle:4)",
        "cartesian(path:3|cycle:7)",
        "cartesian(bipartite:1:3|cycle:4)",
    ]
    out += [
        "cartesian(cycle:3|cycle:3)",
        "cartesian(cycle:3|cycle:4)",
        "cartesian(cycle:3|cycle:5)",
        "cartesian(cycle:4|cycle:4)",
    ]
    out += [
        "cartesian(complete:3|complete:3)",
        "cartesian(complete:3|complete:4)",
        "cartesian(complete:4|complete:4)",
    ]
    out += [
        "cartesian(book:2|book:2)",
        "cartesian(book:2|book:3)",
        "cartesian(path:3|book:2)",
        "cartesian(cycle:4|book:2)",
    ]
    out += ["join(complete:1|path:9)", "join(complete:1|path:10)"]
    return out


def bounds_instances(seed: int = 0) -> list[str]:
    """Interval checks: the product sandwich, rooted-product and apex bounds."""
    factors = [
        "path:2", "path:3", "path:4",
        "cycle:3", "cycle:4", "cycle:5",
        "complete:3", "book:2",
    ]
    out = [
        f"cartesian({a}|{b})"
        for a, b in combinations_with_replacement(factors, 2)
        if order_of(parse_expr(f"cartesian({a}|{b})")) <= _SUITE_MAX_ORDER
    ]
    out += [
        "cluster(cycle:4|cycle:3)",
        "cluster(complete:4|cycle:3)",
        "cluster(cycle:4|complete:3)",
    ]
    out += ["join(complete:1|cycle:6)", "join(complete:1|book:3)"]
    out += [
        f"join(complete:1|randconn:8:1/2:seed={seed + i})" for i in range(4)
    ]
    return out


def sharpness_pairs() -> list[tuple[str, str, str]]:
    """(kind, G, H) pairs for the equality-condition checks; chosen within
    the stated hypotheses of each characterization."""
    return [
        ("upper", "book:2", "book:2"),
        ("upper", "path:2", "path:2"),
        ("upper", "cycle:4", "book:2"),
        ("upper", "book:2", "cycle:3"),
        ("lower", "cycle:4", "path:4"),
        ("lower", "cycle:4", "cycle:4"),
        ("lower", "path:3", "path:3"),
        ("lower", "complete:3", "complete:3"),
    ]


def run_suite(
    suite: str,
    *,
    max_n: int = DEFAULT_MAX_N,
    seed: int = 0,
) -> list[VerificationRecord]:
    """Run one of the verification suites; records come back sorted by
    instance description, independent of execution order."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    records: dict[str, VerificationRecord] = {}
    if suite in ("formulas", "all"):
        for instance in formula_instances():
            rec = verify_instance(instance, max_n=max_n)
            records.setdefault(rec.instance, rec)
    if suite in ("bounds", "all"):
        for instance in bounds_instances(seed):
            rec = verify_instance(instance, max_n=max_n, mode="bounds")
            records.setdefault(rec.instance, rec)
    if suite in ("sharpness", "all"):
        for kind, a, b in sharpness_pairs():
            g, h = _built(parse_expr(a)), _built(parse_expr(b))
            check = (
                check_upper_equality_condition
                if kind == "upper"
                else check_lower_equality_condition
            )
            rec = check(g, h, max_n=max_n, name_g=a, name_h=b)
            records.setdefault(rec.instance, rec)
    return sorted(records.values(), key=lambda r: r.instance)

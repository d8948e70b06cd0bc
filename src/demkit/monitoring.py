"""Distance-edge monitoring.

A probe x monitors edge e when removing e changes the distance from x to some
vertex y, i.e. e lies on every shortest x-y path. The monitoring number of a
graph is the smallest probe set under which every edge is monitored; it is
exactly the minimum hitting set of the per-edge monitor sets: the columns
that ``monitor_matrix`` returns, one vertex mask per edge.

What a probe monitors follows from its distances. Call u a parent of v when
u is a neighbour of v with d(x,u) = d(x,v) - 1. Then x monitors edge uv,
with d(x,v) = d(x,u) + 1, iff u is the only parent of v. Proof: removing an
edge never shortens a distance, and the distances along a shortest path
from x rise by one per step. So an edge whose endpoints are equally far
from x lies on no shortest x-path, and its removal changes nothing. If v
has a second parent w, a shortest x-w path reaches no vertex farther than
d(x,u), so it avoids uv; followed by wv it replaces the prefix x..u,v of
any shortest path through uv at equal length, and no distance changes. If
u is the only parent, every shortest x-v path ends with uv, so d(x,v)
grows when uv is removed.

The rule runs per edge, for all probes at once. The probes that see u as a
parent of v are those strictly closer to u than to v, one side of uv
(``Graph.sides``). Adjacent vertices' distances from x differ by at most
one, so d(x,v) - d(x,u) is -1, 0 or 1, three values distinct mod 3: x is
closer to u iff the two distances mod 3 differ by 1. Each vertex counts its
parents over its edges for every probe at once, saturating at two (the
masks ``once`` and ``twice``). The column of uv is the side closer to u
within the probes that see one parent of v, joined with the side closer to
v within those that see one parent of u.

On a Cartesian product every column lies in one layer of one prime factor,
a block of one partition of ``products.factor_layers``. The layer lemma:
for G = A box B and an edge e of the A-layer at B-coordinate b, the probes
monitoring e lie in that layer. Distances add over the coordinates. From
x = (a, b') with b' != b, a shortest path to any target makes its A-moves
at b' and so avoids e; from x in the layer, a target at another
B-coordinate is reached by making its B-moves first. The search is
bounded by the blocks on it (``hitting.partition_bound``).

The ``*_naive`` twins follow the definition instead: they re-run the
single-source distances with each edge removed in turn, and exist as the
independent oracle for the parent-count rule.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from . import hitting, products
from .errors import CapExceededError, GraphError
from .graph import Graph

DEFAULT_MAX_N = 24
DEFAULT_ENUMERATION_CAP = 100_000


def _validate_probes(g: Graph, probes: Iterable[int]) -> list[int]:
    out = sorted(set(probes))
    for x in out:
        if not 0 <= x < g.n:
            raise GraphError(f"probe vertex {x} out of range")
    return out


def monitored_pairs(g: Graph, probes: Iterable[int], eid: int) -> set[tuple[int, int]]:
    """All pairs (x, y), x a probe, whose distance changes when edge ``eid``
    is removed (becoming infinite counts as a change)."""
    if not 0 <= eid < g.m:
        raise GraphError(f"edge id {eid} out of range")
    pairs: set[tuple[int, int]] = set()
    for x in _validate_probes(g, probes):
        base = g.distances_from(x)
        cut = g.distances_from(x, removed=eid)
        pairs.update((x, y) for y in range(g.n) if base[y] != cut[y])
    return pairs


def _row(g: Graph, x: int) -> int:
    base = g.distances_from(x)
    row = 0
    for eid in range(g.m):
        if g.distances_from(x, removed=eid) != base:
            row |= 1 << eid
    return row


def monitored_edges(g: Graph, x: int) -> set[int]:
    """Edge ids monitored by vertex x: bit x of the monitor columns."""
    if not 0 <= x < g.n:
        raise GraphError(f"vertex {x} out of range")
    return {e for e, col in enumerate(monitor_matrix(g, max_n=g.n)) if col >> x & 1}


def monitored_edges_naive(g: Graph, x: int) -> set[int]:
    """Oracle twin of :func:`monitored_edges`: re-checks every edge."""
    if not 0 <= x < g.n:
        raise GraphError(f"vertex {x} out of range")
    return set(hitting.bits(_row(g, x)))


def _matrix(g: Graph, rows: list[int]) -> tuple[int, ...]:
    cols = [0] * g.m
    for x, row in enumerate(rows):
        for eid in hitting.bits(row):
            cols[eid] |= 1 << x
    return tuple(cols)


def monitor_matrix(g: Graph, *, max_n: int = DEFAULT_MAX_N) -> tuple[int, ...]:
    """The monitor columns: entry e is the mask of the vertices monitoring
    edge e, its two endpoints always among them. After the cap check, before
    any BFS, the single-parent rule runs per edge over ``g.sides``."""
    if g.n > max_n:
        raise CapExceededError("monitor matrix", g.n, max_n)
    once, twice = [0] * g.n, [0] * g.n
    for (u, v), (near_u, near_v) in zip(g.edges, g.sides):
        twice[v] |= once[v] & near_u
        once[v] |= near_u
        twice[u] |= once[u] & near_v
        once[u] |= near_v
    single = [o ^ t for o, t in zip(once, twice)]  # twice lies in once
    return tuple(
        (near_u & single[v]) | (near_v & single[u])
        for (u, v), (near_u, near_v) in zip(g.edges, g.sides)
    )


def monitor_matrix_naive(g: Graph, *, max_n: int = DEFAULT_MAX_N) -> tuple[int, ...]:
    """Oracle twin of :func:`monitor_matrix`: one row per probe by the
    definition, transposed into the columns."""
    if g.n > max_n:
        raise CapExceededError("monitor matrix", g.n, max_n)
    return _matrix(g, [_row(g, x) for x in range(g.n)])


def is_dem_set(
    g: Graph, vertices: Iterable[int], matrix: tuple[int, ...] | None = None
) -> bool:
    """True iff every edge is monitored by some vertex of the set."""
    mask = 0
    for v in _validate_probes(g, vertices):
        mask |= 1 << v
    if matrix is None:
        matrix = monitor_matrix(g, max_n=g.n)
    return all(col & mask for col in matrix)


def greedy_dem(g: Graph, matrix: tuple[int, ...] | None = None) -> tuple[int, ...]:
    """Greedy monitoring set: ``hitting.greedy_hitting`` over the monitor
    columns, i.e. repeatedly the vertex monitoring the most uncovered edges
    (ties: lowest id). Valid, not necessarily minimum."""
    if matrix is None:
        matrix = monitor_matrix(g, max_n=g.n)
    return tuple(hitting.greedy_hitting(matrix))


class DemResult(NamedTuple):
    """Exact monitoring number, one witness, the greedy seed and solver stats."""

    n: int
    m: int
    value: int
    witness: tuple[int, ...]
    all_minimum_sets: tuple[tuple[int, ...], ...] | None
    nodes_explored: int
    greedy: tuple[int, ...]

    def to_json_dict(self) -> dict:
        doc: dict = {
            "n": self.n,
            "m": self.m,
            "dem": self.value,
            "witness": list(self.witness),
        }
        if self.all_minimum_sets is not None:
            doc["all_minimum_sets"] = [list(s) for s in self.all_minimum_sets]
        doc["nodes_explored"] = self.nodes_explored
        return doc


def _solve(
    g: Graph, max_n: int
) -> tuple[list[int], tuple[int, ...], hitting.Layers, int, int]:
    """The value stage shared by :func:`dem_value` and :func:`dem_number`:
    the monitor columns (after the cap check), reduced once for every solve
    that follows, the factor layers with one memo of block values and their
    block tables for the partition bound, the greedy seed, and the minimum
    value with the nodes its branch and bound explored. Where the reduction
    keeps every column, the reduced columns are the monitor columns in
    another order, so the search seeds from the greedy set already built,
    which depends only on the columns. The layers keep a minimum set for the
    walk: the one the search found, or else the greedy set, whose size the
    value then is."""
    matrix = monitor_matrix(g, max_n=max_n)
    cols = hitting.reduce_columns(matrix)
    parts = hitting.Layers(products.factor_layers(g))
    greedy = greedy_dem(g, matrix)
    value, nodes = hitting.minimum_hitting_set(
        cols,
        upper=len(greedy),
        parts=parts,
        greedy=greedy if len(cols) == len(matrix) else None,
    )
    if parts.found is None:
        parts.found = sum(1 << v for v in greedy)
    return cols, greedy, parts, value, nodes


def dem_value(g: Graph, *, max_n: int = DEFAULT_MAX_N) -> int:
    """Exact monitoring number alone: the branch and bound of
    :func:`dem_number` without the witness walk, for callers that compare
    values only."""
    return _solve(g, max_n)[3]


def dem_number(
    g: Graph,
    enumerate_all: bool = False,
    *,
    max_n: int = DEFAULT_MAX_N,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> DemResult:
    """Exact minimum distance-edge-monitoring set.

    The witness is the lexicographically smallest minimum set; with
    ``enumerate_all`` every minimum set is listed (capped). Branch and bound
    over the hitting-set instance, seeded with the greedy monitoring set. The
    search, the witness and the enumeration also prune with the partition
    bound over the layers of the graph's Cartesian prime factors
    (``products.factor_layers``), and share one memo of its block values
    and one table of each partition's blocks.
    The value comes from the same stage as :func:`dem_value`.
    """
    cols, greedy, parts, value, nodes = _solve(g, max_n)
    if enumerate_all:
        sets = hitting.enumerate_minimum_sets(cols, value, enumeration_cap, parts)
        witness = sets[0]
    else:
        sets = None
        witness = hitting.lexicographically_smallest(cols, value, parts)
    return DemResult(g.n, g.m, value, witness, sets, nodes, greedy)

"""Exact minimum hitting set over bitmask columns.

A column is an int whose set bits are the vertices allowed to hit that
constraint. Every exact value the package reports is such an instance: the
monitoring number (one column per edge: the probes that monitor it), vertex
cover (the endpoint pairs) and the metric, edge metric and strong metric
dimensions (one column per pair: the vertices that resolve it).

``_solve`` is the one branch-and-bound loop: branch on the column with the
fewest candidates (ties by candidate coverage, then mask value), prune with a
greedy disjoint-column lower bound, and split into independent components
whenever the uncovered columns fall apart. Sibling branches exclude already
tried vertices, so no partial solution is explored twice. Given a target
size, it stops at the first solution that small: ``exists_hitting_set``.
Its upper bound is the greedy set less its redundant vertices
(``_minimal``): one pass over the columns keeps every seed vertex that some
column meets alone, and the others are dropped from the highest id down
while every column stays hit. Greedy picks that later picks made redundant
would otherwise leave a gap the search has to close by branching.

No solve needs reduced columns, since a duplicate or a superset of another
column changes no answer. The reduction (``reduce_columns``) is quadratic,
so whoever builds a column set reduces it once and passes the result to
every solve of it: the value search, the witness walk, the enumeration.

The two per-call kernels of ``_solve`` work on whole masks.
``greedy_hitting``, the seed of every solve, keeps each vertex's count of remaining columns
bit-sliced: ``digits[j]`` is the mask of the vertices whose count has bit j
set. A column enters by a ripple-carry of its mask into the digits and
leaves by a ripple-borrow, and the vertices of largest count are the
candidate mask narrowed from the top digit down, so no column is decoded
into vertices. ``_components`` grows the first column's support until no
column joins it, and runs its merge loop only when the columns really split.

``_lexicographic_walk`` is the one loop that lists minimum sets in order,
under the feasibility test each operation passes it. The enumeration passes
the disjoint-column bound, cheaper when every set is listed anyway. The
witness passes an exact test and takes the first set without backtracking.
One search serves its whole walk. ``_feasible``, which also answers
``exists_hitting_set``, takes the columns left unhit past a candidate vertex,
deduplicated but not reduced (the reduction is quadratic, ``_solve`` is exact
on any columns, and sorted they give the reduced columns' disjoint bound). It
rejects by the disjoint-column bound, then by the partition bound, else
``_solve`` decides. The set a solve finds is kept as a completion: its lowest
vertex is accepted next untested, so most feasible candidates cost nothing.

Where the disjoint-column bound fails to prune, ``_solve`` can also try a
partition bound (``partition_bound``). Take a partition of the vertices into
disjoint blocks and add up, over the blocks, the exact hitting number of the
columns lying wholly inside each block. That sum is a lower bound: a hitting
set meets each block in a set that hits the block's columns, and the blocks
are disjoint, so the set is at least as large as the sum. The bound needs
nothing about products, but products make it strong. ``monitoring`` passes
the layers of the Cartesian prime factors (``products.factor_layers``, after
Feder 1992 and Imrich and Peterin, "Recognizing Cartesian products in linear
time", Discrete Math. 2007). A layer edge of G box H is monitored only from
inside its layer, so when G and H are prime, and their layers are the blocks
found, the bound at the root over the H-layers is |G|·dem(H), and the larger
of the two partitions gives the paper's lower bound max(|G|·dem(H),
|H|·dem(G)). The bound tightens as the search bans vertices. Block values
are memoized with ids shifted down to the block, so copies of one layer are
solved once; the searches of one witness walk share one memo.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import islice
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import EnumerationCapExceededError

# partitions of the vertices, each a sequence of disjoint block masks
Partitions = Sequence[Sequence[int]]


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reduce_columns(columns: Iterable[int]) -> list[int]:
    """Deduplicate and drop every column that is a superset of another."""
    uniq = sorted(set(columns), key=lambda c: (c.bit_count(), c))
    kept: list[int] = []
    for c in uniq:
        if not any(k & c == k for k in kept):
            kept.append(c)
    return kept


def _components(cols: Sequence[int]) -> list[list[int]]:
    """Group columns whose vertex supports overlap (transitively).

    The support of the first column grows until no column joins it; when
    every column has joined, they form one group. Only a real split pays for
    the merge loop, whose groups and member order the callers rely on.
    """
    if not cols:
        return []
    support = cols[0]
    while True:
        grown = support
        joined = 0
        for c in cols:
            if c & support:
                support |= c
                joined += 1
        if joined == len(cols):
            return [list(cols)]
        if support == grown:
            break
    comps: list[tuple[int, list[int]]] = []  # (support, members)
    for c in cols:
        merged_support = c
        merged_members = [c]
        rest = []
        for support, members in comps:
            if support & merged_support:
                merged_support |= support
                merged_members += members
            else:
                rest.append((support, members))
        rest.append((merged_support, merged_members))
        comps = rest
    comps.sort(key=lambda item: item[0] & -item[0])  # by lowest support vertex
    return [members for _, members in comps]


def greedy_hitting(cols: Sequence[int]) -> list[int]:
    """Repeatedly take the vertex hitting the most remaining columns
    (ties: lowest id); valid, not necessarily minimum.

    The counts are bit-sliced: ``digits[j]`` is the vertex mask of bit j of
    each vertex's count of remaining columns, so adding a column is a
    ripple-carry of its mask into the digits and dropping a hit column a
    ripple-borrow. The vertices of largest count are found by narrowing a
    candidate mask from the top digit down; the lowest of them is taken.
    Raises ``ValueError`` on an empty column, which no vertex hits.
    """
    if 0 in cols:
        raise ValueError("unhittable empty column")
    digits: list[int] = []
    for c in cols:
        j = 0
        for d in digits:
            digits[j] = d ^ c
            c &= d
            if not c:
                break
            j += 1
        else:
            digits.append(c)
    remaining = cols
    chosen: list[int] = []
    while remaining:
        best = -1
        for d in reversed(digits):
            if best & d:
                best &= d
        low = best & -best  # the lowest id among the largest counts
        chosen.append(low.bit_length() - 1)
        kept = []
        for c in remaining:
            if c & low:
                j = 0
                while c:
                    d = digits[j]
                    digits[j] = d ^ c
                    c &= ~d
                    j += 1
            else:
                kept.append(c)
        remaining = kept
    return sorted(chosen)


def _minimal(cols: Sequence[int], seed: Sequence[int]) -> int:
    """The hitting set ``seed`` (sorted ids) as a mask, less every vertex the
    others make redundant: those hitting some column alone are kept, the
    rest are dropped from the highest id down while every column stays hit."""
    kept = sum(1 << v for v in seed)
    alone = 0
    for c in cols:
        hit = c & kept
        if not hit & (hit - 1):
            alone |= hit
    for v in reversed(seed):
        bit = 1 << v
        if bit & alone:
            continue
        rest = kept ^ bit
        if all(c & rest for c in cols):
            kept = rest
    return kept


def disjoint_lower_bound(cols: Sequence[int]) -> int:
    """Size of a greedily built family of pairwise disjoint columns; each
    needs its own vertex, so this lower-bounds the hitting number."""
    used = 0
    lb = 0
    for c in sorted(cols, key=int.bit_count):
        if not c & used:
            lb += 1
            used |= c
    return lb


def _branching(cols: Sequence[int]) -> list[int]:
    """Vertices of the column to branch on, in the order they are tried.

    The column has the fewest candidates (ties: the most candidate coverage,
    then the smallest mask); its vertices go by coverage, then id. Each
    column is decoded once.
    """
    decoded = [bits(c) for c in cols]
    count: dict[int, int] = {}
    for vs in decoded:
        for v in vs:
            count[v] = count.get(v, 0) + 1
    _, column = min(
        zip(cols, decoded),
        key=lambda cv: (cv[0].bit_count(), -sum(count[v] for v in cv[1]), cv[0]),
    )
    return sorted(column, key=lambda x: (-count[x], x))


class _Search:
    """What one solve shares across its recursion: the nodes explored and
    the memo of block values for :func:`partition_bound`. A witness walk
    keeps one for all its solves."""

    __slots__ = ("nodes", "memo")

    def __init__(self):
        self.nodes = 0
        self.memo: dict = {}


def partition_bound(
    cols: Sequence[int], parts: Partitions, memo: dict | None = None
) -> int:
    """Largest, over the partitions, sum over the blocks of the exact hitting
    number of the columns lying wholly inside the block.

    A hitting set meets each block in a set hitting that block's columns, and
    the blocks are disjoint, so every sum lower-bounds the hitting number.
    ``memo`` maps the set of a block's columns, with ids shifted down to the
    block's lowest vertex, to its value, so that copies of one layer are
    solved once. The block solves' own nodes are not counted.
    """
    if memo is None:
        memo = {}
    best = 0
    for blocks in parts:
        inside: dict[int, list[int]] = {}
        for c in cols:
            for b in blocks:
                if c & b:  # the only block that can hold c
                    if not c & ~b:
                        inside.setdefault(b, []).append(c)
                    break
        total = 0
        for b, group in inside.items():
            low = (b & -b).bit_length() - 1
            key = frozenset(c >> low for c in group)
            value = memo.get(key)
            if value is None:
                value = memo[key] = _solve(reduce_columns(group), _Search())[0]
            total += value
        best = max(best, total)
    return best


def _solve(
    cols: Sequence[int],
    search: _Search,
    cap: int | None = None,
    target: int = -1,
    parts: Partitions = (),
) -> tuple[int, int | None]:
    """Exact minimum hitting size of nonempty columns, and the set found.

    The columns need not be reduced: a duplicate or a superset of another
    column changes no answer, only the work. The set, a vertex mask, is the
    seed (the greedy set less its redundant vertices, :func:`_minimal`), a
    leaf or the union over the components. ``cap`` (when given) bounds the
    search from above: only solutions smaller than ``cap`` are searched for,
    and ``cap`` is returned if none exists, with no set (None) unless the
    seed has that size. The search stops at the first solution of size <=
    ``target`` and returns it, achievable but not necessarily minimum.
    ``parts`` feeds :func:`partition_bound`, tried at a node only when the
    disjoint-column bound failed to prune it.
    """
    if not cols:
        return 0, 0
    comps = _components(cols)
    if len(comps) > 1:
        # the components' sets are disjoint: their sum is their union
        total, hit = map(sum, zip(*(_solve(c, search, parts=parts) for c in comps)))
        return total, hit
    best_set = _minimal(cols, greedy_hitting(cols))
    best = best_set.bit_count()
    if cap is not None and cap < best:
        best, best_set = cap, None
    if best <= target:
        return best, best_set

    def rec(uncovered: list[int], chosen: int, size: int) -> None:
        nonlocal best, best_set
        search.nodes += 1
        if not uncovered:
            if size < best:
                best, best_set = size, chosen
            return
        if size + 1 >= best:
            return
        comps = _components(uncovered)
        if len(comps) > 1:
            total, hit = map(sum, zip(*(_solve(c, search, parts=parts) for c in comps)))
            if size + total < best:
                best, best_set = size + total, chosen | hit
            return
        if size + disjoint_lower_bound(uncovered) >= best:
            return
        if parts and size + partition_bound(uncovered, parts, search.memo) >= best:
            return
        banned = 0
        for v in _branching(uncovered):
            rest: list[int] = []
            dead = False
            for c in uncovered:
                if (c >> v) & 1:
                    continue
                c2 = c & ~banned
                if c2 == 0:
                    dead = True
                    break
                rest.append(c2)
            if not dead:
                rec(rest, chosen | 1 << v, size + 1)
                if best <= target:
                    return
            banned |= 1 << v

    rec(cols, 0, 0)
    return best, best_set


def minimum_hitting_set(
    columns: Sequence[int], *, upper: int | None = None, parts: Partitions = ()
) -> tuple[int, int]:
    """Exact minimum hitting-set size and the number of search nodes.

    The columns need not be reduced; callers that solve one column set more
    than once reduce it once (:func:`reduce_columns`) and pass the result to
    every solve. ``upper``, when given, must be the size of a known valid
    hitting set. ``parts`` are vertex partitions for :func:`partition_bound`.
    """
    if any(c == 0 for c in columns):
        raise ValueError("unhittable empty column")
    search = _Search()
    value, _ = _solve(columns, search, cap=upper, parts=parts)
    return value, search.nodes


def _feasible(
    cols: Sequence[int], budget: int, parts: Partitions, search: _Search
) -> bool | int:
    """False if no hitting set of size <= budget exists, else the set found
    (a vertex mask), or True if that set is empty. The bounds reject first,
    then ``_solve`` searches the deduplicated, unreduced columns."""
    cols = sorted(set(cols))
    if disjoint_lower_bound(cols) > budget:
        return False
    if parts and partition_bound(cols, parts, search.memo) > budget:
        return False
    found, hit = _solve(cols, search, budget + 1, budget, parts)
    return found <= budget and (hit or True)


def exists_hitting_set(
    columns: Sequence[int], budget: int, parts: Partitions = ()
) -> bool:
    """True iff some hitting set of size <= budget exists."""
    if budget < 0 or any(c == 0 for c in columns):
        return False
    return bool(_feasible(columns, budget, parts, _Search()))


def _lexicographic_walk(
    columns: Sequence[int],
    size: int,
    feasible: Callable[..., bool | int],
    parts: Partitions = (),
) -> Iterator[tuple[int, ...]]:
    """Hitting sets of ``size`` (the minimum) vertices, in lexicographic order.

    Tries, in id order, the vertices past the last one chosen that lie in the
    union of the unhit columns, and descends only where
    ``feasible(columns, budget, parts)`` accepts the columns left unhit,
    restricted to later vertices, within the rest of the budget; the blocks
    of ``parts`` are restricted to later vertices alike. ``feasible``
    returns False to reject, True to accept, or a completion: a nonzero mask
    of later vertices hitting those columns within the budget. The walk then
    descends into the completion's lowest vertex with no test, keeping the
    rest; vertices below it are still tested.
    """
    chosen: list[int] = []

    def walk(
        uncovered: Sequence[int], start: int, completion: int
    ) -> Iterator[tuple[int, ...]]:
        if not uncovered:
            if len(chosen) < size:
                raise ValueError("requested size exceeds the minimum hitting size")
            yield tuple(chosen)
            return
        budget = size - len(chosen) - 1
        reach = reduce(or_, uncovered) >> start << start
        while reach:
            low = reach & -reach
            reach ^= low
            v = low.bit_length() - 1
            rest = [c for c in uncovered if not c & low]
            if completion & -completion == low:
                kept = completion ^ low
            else:
                shift = v + 1  # ids shift, order is kept
                later = [c >> shift for c in rest]
                if 0 in later:
                    continue
                later_parts = [
                    [b >> shift for b in blocks if b >> shift] for blocks in parts
                ]
                found = feasible(later, budget, later_parts)
                if not found:
                    continue
                kept = 0 if found is True else found << shift
            chosen.append(v)
            yield from walk(rest, v + 1, kept)
            chosen.pop()

    return walk(columns, 0, 0)


def lexicographically_smallest(
    columns: Sequence[int], size: int, parts: Partitions = ()
) -> tuple[int, ...]:
    """The lexicographically smallest hitting set of exactly the given
    (minimum) size, as a sorted tuple of vertex ids."""
    feasible = partial(_feasible, search=_Search())  # one memo for the walk
    for first in _lexicographic_walk(columns, size, feasible, parts):
        return first
    raise ValueError("no hitting set of the requested size exists")


def lexicographic_minimum(columns: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Exact minimum hitting-set size and the lexicographically smallest
    minimum set."""
    cols = reduce_columns(columns)
    value, _ = minimum_hitting_set(cols)
    return value, lexicographically_smallest(cols, value)


def enumerate_minimum_sets(
    columns: Sequence[int], size: int, cap: int
) -> tuple[tuple[int, ...], ...]:
    """All hitting sets of exactly the given (minimum) size, in lexicographic
    order. Raises :class:`EnumerationCapExceededError` past ``cap`` sets."""
    walk = _lexicographic_walk(
        columns, size, lambda cols, budget, _: disjoint_lower_bound(cols) <= budget
    )
    sets = tuple(islice(walk, cap + 1))
    if len(sets) > cap:
        raise EnumerationCapExceededError(cap)
    return sets

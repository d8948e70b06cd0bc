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
tried vertices, so no partial solution is explored twice. A solve's shared
state (the nodes explored, the partitions and their memo of block values)
is one ``_Search``. Given a target size, the search (``_search_below``)
stops at the first solution that small, as the witness walk runs it.
Its upper bound is the greedy set less its redundant vertices
(``_minimal``): one pass over the columns keeps every seed vertex that some
column meets alone, and the others are dropped from the highest id down
while every column stays hit. Greedy picks that later picks made redundant
would otherwise leave a gap the search has to close by branching.

No solve needs reduced columns, since a duplicate or a superset of another
column changes no answer, only the work. So whoever builds a column set
reduces it once (``reduce_columns``) and passes the result to every solve
of it: the value search and the walk of the witness or the enumeration.
The reduction indexes the kept columns by their lowest bit, since a
column's subsets have their lowest bit among its bits, and tests each column
only against those indexed under its bits, until one lies inside it.

The per-call kernels of ``_solve`` work on whole masks. Each vertex's
count of columns is kept bit-sliced (``_coverage_digits``): ``digits[j]``
is the mask of the vertices whose count has bit j set, and a column enters
by a ripple-carry of its mask into the digits. ``greedy_hitting``, the seed
of every solve, drops a hit column by a ripple-borrow, and the vertices of
largest count are the candidate mask narrowed from the top digit down, so
no column is decoded into vertices. ``_branching`` scores each column of
fewest candidates by popcounts against the digits and decodes only the
column it picks. ``_components`` grows the first column's support until no
column joins it, and runs its merge loop only when the columns really split.

``_lexicographic_walk`` is the one loop that lists minimum sets in order,
for the witness (``lexicographically_smallest``, its first set) and the
enumeration (``enumerate_minimum_sets``) alike: a depth-first search in id
order, include first, whose every rejection is proven, so the first set it
reaches is the lexicographically smallest and no minimum set is missed. Its
docstring describes the test of each candidate and the layer quotas, which
restrict the candidates where a partition bound is the size walked for (on
products, the paper's lower bound case), and when it skips a candidate's
greedy set.

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
solved once. A column's block and its shifted ids depend only on the column
and the partition, so each partition keeps a table of them, and a column is
placed once, not at every bound. Partitions given as :class:`Layers` carry
the memo and the tables, so the value search and the walk after it solve
each block and place each column once. Callers only ask whether the bound
reaches a value, so it stops once one partition's running sum does, and the
blocks after it go unsolved. A block is not solved by the branch and bound:
its value, mostly 1 or 2, is found by deepening from the block's
disjoint-column bound with an exact test of k vertices (``_fits``), which
builds no reduction, greedy set or search state. The same test answers
``exists_hitting_set``.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby, islice
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .errors import EnumerationCapExceededError

# partitions of the vertices, each a table whose entry v is the mask of the
# block holding v, or 0 if v is in no block
Partitions = Sequence[Sequence[int]]


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reduce_columns(columns: Iterable[int]) -> list[int]:
    """Deduplicate and drop every column that is a superset of another; the
    columns kept go by size, then mask.

    A kept column k lies inside c only if k has fewer vertices, as the
    duplicates are gone, and k's lowest bit is a bit of c. So the kept
    columns are indexed by their lowest bit, each size group entering the
    index once it is done, and c is tested only against those indexed under
    its own bits, stopping at the first that lies inside it. The empty
    column lies inside every column.
    """
    cols = set(columns)
    if 0 in cols:
        return [0]
    kept: list[int] = []
    lows = 0  # the lowest bits of the indexed columns
    by_low: dict[int, list[int]] = {}
    for _, group in groupby(sorted(sorted(cols), key=int.bit_count), int.bit_count):
        new = []
        for c in group:
            common = c & lows
            while common:
                low = common & -common
                for k in by_low[low]:
                    if k & c == k:
                        break
                else:
                    common ^= low
                    continue
                break  # k lies inside c
            else:
                new.append(c)
        for k in new:
            low = k & -k
            by_low.setdefault(low, []).append(k)
            lows |= low
        kept += new
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


def _coverage_digits(cols: Sequence[int]) -> list[int]:
    """Each vertex's count of the columns holding it, bit-sliced:
    ``digits[j]`` is the mask of the vertices whose count has bit j set.
    Each column enters by a ripple-carry of its mask into the digits."""
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
    return digits


def greedy_hitting(cols: Sequence[int]) -> list[int]:
    """Repeatedly take the vertex hitting the most remaining columns
    (ties: lowest id); valid, not necessarily minimum.

    The counts are bit-sliced (:func:`_coverage_digits`), so dropping a hit
    column is a ripple-borrow of its mask out of the digits. The vertices of
    largest count are found by narrowing a candidate mask from the top digit
    down; the lowest of them is taken. Raises ``ValueError`` on an empty
    column, which no vertex hits.
    """
    if 0 in cols:
        raise ValueError("unhittable empty column")
    digits = _coverage_digits(cols)
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
    then the smallest mask); its vertices go by coverage, then id. A
    vertex's coverage is its count of columns, read from the bit-sliced
    counts (:func:`_coverage_digits`), and a column's is the sum over its
    vertices, Σⱼ |c ∧ digits[j]|·2ʲ, so only the chosen column is decoded.
    """
    planes = list(enumerate(_coverage_digits(cols)))
    k = min(map(int.bit_count, cols))
    best, column = -1, 0
    for c in cols:
        if c.bit_count() == k:
            score = 0
            for j, d in planes:
                score += (c & d).bit_count() << j
            if score > best or (score == best and c < column):
                best, column = score, c
    order = []
    for v in bits(column):
        count = 0
        for j, d in planes:
            count += ((d >> v) & 1) << j
        order.append((-count, v))
    order.sort()
    return [v for _, v in order]


class Layers(tuple):
    """Partitions that carry what the value search and the walk after it
    share: for :func:`partition_bound`, one memo of block values, so each
    block is solved once, and one block table per partition, so each column
    is placed in its block once (:func:`_block_values`); and ``found``, the
    minimum set (a vertex mask) that :func:`minimum_hitting_set` found, or
    None, which the walk takes as its root completion when it hits the
    walk's columns with ``size`` vertices."""

    def __init__(self, parts: Partitions):
        self.memo: dict = {}
        self.tables: list[dict] = [{} for _ in self]
        self.found: int | None = None


class _Search:
    """What one solve shares across its recursion: the nodes explored and
    the partitions, as :class:`Layers` (plain partitions are wrapped here,
    with a memo, tables and ``found`` of their own). A walk keeps one for
    all its solves."""

    __slots__ = ("nodes", "parts")

    def __init__(self, parts: Partitions = ()):
        self.nodes = 0
        self.parts = parts if isinstance(parts, Layers) else Layers(parts)


def partition_bound(cols: Sequence[int], parts: Partitions, stop: float) -> int:
    """Largest, over the partitions, sum over the blocks of the exact hitting
    number of the columns lying wholly inside the block; or, once one
    partition's running sum reaches ``stop``, that sum, which lies between
    ``stop`` and the largest.

    A hitting set meets each block in a set hitting that block's columns, and
    the blocks are disjoint, so every sum lower-bounds the hitting number.
    A caller that only asks whether the bound reaches ``stop`` gets the same
    answer from either value, and blocks past the stop are never solved.
    Block values are memoized by the set of a block's columns, with ids
    shifted down to the block's lowest vertex, so that copies of one layer
    are solved once. The memo and the block tables are those of ``parts``
    when they are :class:`Layers`, else fresh ones. A block is solved by
    :func:`_block_values`' deepening test, which counts no search nodes.
    """
    if not isinstance(parts, Layers):
        parts = Layers(parts)
    best = 0
    for blocks, table in zip(parts, parts.tables):
        total = 0
        for _, value in _block_values(cols, blocks, table, parts.memo):
            total += value
            if total >= stop:
                return total
        best = max(best, total)
    return best


def _block_values(
    cols: Sequence[int], blocks: Sequence[int], table: dict | None, memo: dict
) -> Iterator[tuple[int, int]]:
    """The exact hitting number of the columns lying wholly inside each
    block of one partition that holds any, with the block mask: the terms of
    :func:`partition_bound`'s sum, memoized as there.

    The columns are grouped at once, each by one lookup in the partition's
    block table: a column inside the block of its lowest vertex maps to that
    block and the column shifted down to the block's lowest vertex, any
    other column to ``()``. An entry depends only on the column and the
    partition, so a table serves every call on that partition, and a column
    missing from it is placed and entered. With no table (None), every
    column is placed and none is kept, for a call whose columns no later
    call need look up. Each block is solved when its term is asked for: k
    starts at the disjoint-column bound of its distinct columns and rises
    until :func:`_fits` finds k vertices that hit them all."""
    inside: dict[int, list[int]] = {}
    lookup = {}.get if table is None else table.get
    for c in cols:
        entry = lookup(c)
        if entry is None:
            b = blocks[(c & -c).bit_length() - 1]  # c's only possible block
            entry = () if c & ~b else (b, c >> (b & -b).bit_length() - 1)
            if table is not None:
                table[c] = entry
        if entry:
            b, shifted = entry
            group = inside.get(b)
            if group is None:
                inside[b] = [shifted]
            else:
                group.append(shifted)
    for b, group in inside.items():
        key = frozenset(group)
        value = memo.get(key)
        if value is None:
            distinct = sorted(key)
            value = disjoint_lower_bound(distinct)
            while not _fits(distinct, value):
                value += 1
            memo[key] = value
        yield b, value


def _fits(cols: Sequence[int], k: int) -> bool:
    """Whether at most k >= 1 vertices hit every one of the nonempty columns.

    One vertex does when the columns share one: their AND is nonzero. For a
    larger k, branch on a smallest column's vertices in id order: a child
    takes its vertex, drops the columns it hits and bans its earlier
    siblings' vertices, as in :func:`_search_below` (no column empties), and
    is pruned when its disjoint-column bound exceeds the k - 1 vertices left
    to it. No more than k columns (or none) take one vertex of each.
    """
    if len(cols) <= k:
        return True
    if k == 1:
        return reduce(and_, cols) != 0
    banned = 0
    for v in bits(min(cols, key=int.bit_count)):
        bit = 1 << v
        rest = [c & ~banned for c in cols if not c & bit]
        if disjoint_lower_bound(rest) < k and _fits(rest, k - 1):
            return True
        banned |= bit
    return False


def _solve(
    cols: Sequence[int],
    search: _Search,
    cap: int | None = None,
    greedy: Sequence[int] | None = None,
) -> tuple[int, int | None]:
    """Exact minimum hitting size of nonempty columns, and the set found.

    The columns need not be reduced: a duplicate or a superset of another
    column changes no answer, only the work. The set, a vertex mask, is the
    seed (the greedy set less its redundant vertices, :func:`_minimal`), a
    leaf or the union over the components. ``greedy``, when given, is
    :func:`greedy_hitting`'s set of these columns, which is then not built
    again. ``cap`` (when given) bounds the search from above: only solutions
    smaller than ``cap`` are searched for, and ``cap`` is returned if none
    exists, with no set (None) unless the seed has that size.
    """
    if not cols:
        return 0, 0
    comps = _components(cols)
    if len(comps) > 1:
        return _solve_components(comps, search)
    if greedy is None:
        greedy = greedy_hitting(cols)
    return _search_below(cols, search, _minimal(cols, greedy), cap)


def _solve_components(comps: list[list[int]], search: _Search) -> tuple[int, int]:
    """The summed minimum hitting size of independent components, and the
    union of their sets."""
    total = hit = 0
    for comp in comps:
        size, found = _solve(comp, search)
        total += size
        hit |= found
    return total, hit


def _search_below(
    cols: Sequence[int],
    search: _Search,
    seed: int,
    cap: int | None,
    target: int = -1,
) -> tuple[int, int | None]:
    """The branch and bound of :func:`_solve`, started from the hitting set
    ``seed`` (a vertex mask) on columns that need not form one component;
    ``cap`` acts as there. The search stops at the first solution of size
    <= ``target`` and returns it, achievable but not necessarily minimum.
    ``search.parts`` feed :func:`partition_bound`, tried at a node only when
    the disjoint-column bound failed to prune it.

    A child drops the columns its vertex hits and bans the vertices its
    earlier siblings took, which leaves no column empty: the branch column
    is a smallest one, with k vertices, fewer than k of them are banned, and
    every column has at least k.
    """
    parts = search.parts
    best_set = seed
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
            total, hit = _solve_components(comps, search)
            if size + total < best:
                best, best_set = size + total, chosen | hit
            return
        if size + disjoint_lower_bound(uncovered) >= best:
            return
        if parts and size + partition_bound(uncovered, parts, best - size) >= best:
            return
        banned = 0
        for v in _branching(uncovered):
            bit = 1 << v
            rec([c & ~banned for c in uncovered if not c & bit], chosen | bit, size + 1)
            if best <= target:
                return
            banned |= bit

    rec(cols, 0, 0)
    return best, best_set


def minimum_hitting_set(
    columns: Sequence[int],
    *,
    upper: int | None = None,
    parts: Partitions = (),
    greedy: Sequence[int] | None = None,
) -> tuple[int, int]:
    """Exact minimum hitting-set size and the number of search nodes.

    The columns need not be reduced; callers that solve one column set more
    than once reduce it once (:func:`reduce_columns`) and pass the result to
    every solve. ``upper``, when given, must be the size of a known valid
    hitting set. ``parts`` are vertex partitions for :func:`partition_bound`;
    given as :class:`Layers`, they keep the set found (None when the value
    is ``upper`` and the search found no set that small). ``greedy``, when
    given, must be :func:`greedy_hitting`'s set of these columns; the search
    seeds from it instead of building it again.
    """
    if any(c == 0 for c in columns):
        raise ValueError("unhittable empty column")
    search = _Search(parts)
    value, search.parts.found = _solve(columns, search, upper, greedy)
    return value, search.nodes


def exists_hitting_set(columns: Sequence[int], budget: int) -> bool:
    """True iff some hitting set of size <= budget exists: the exact test
    that solves the partition bound's blocks (:func:`_fits`), run on the
    deduplicated columns once their disjoint-column bound is within the
    budget."""
    cols = sorted(set(columns))
    if 0 in cols:
        return False
    return disjoint_lower_bound(cols) <= budget and _fits(cols, budget)


def _lexicographic_walk(
    columns: Sequence[int], size: int, parts: Partitions = ()
) -> Iterator[tuple[int, ...]]:
    """Hitting sets of ``size`` (the minimum) vertices, in lexicographic order.

    Tries, in id order, the vertices past the last one chosen that lie in the
    union of the unhit columns. Each candidate is tested on the columns it
    leaves unhit, masked to later vertices (ids never shift) and
    deduplicated but not reduced (sorted, they give the reduced columns'
    disjoint bound, and no solve needs them reduced), against the rest of the
    budget: rejected when the larger of the disjoint-column and the
    partition bound exceeds the budget; accepted with the pruned greedy set
    as completion when that set fits; accepted undecided when the bound
    equals the budget (the walk descends, and backtracks if no set lies
    below: on products the partition bound is tight, so a wrong branch dies
    a level or two down); and only when the bound leaves slack, decided by
    the branch and bound started from that greedy set, whose set is a
    completion too. The walk descends into a completion's lowest vertex with
    no test, keeping the rest; vertices below it are still tested. The walk
    stops at the first candidate that strands a column (leaves it unhit with
    no later vertex): every later candidate strands it too, and a
    completion's lowest vertex comes before it. One search, with one memo of
    block values and the block tables, serves the walk.

    No greedy set for a doomed test. When the latest subtree accepted
    undecided has listed no set, a tight bound has been seen not to promise
    a set, and greedy sets built under one mostly come out too large. Until
    a later undecided subtree lists a set, a tight candidate at a level with
    no completion is accepted undecided without its greedy set. The sets
    listed and their order do not change: an undecided candidate is
    searched by descent, and a completion only spares tests. Before any
    subtree dies the greedy set is built, as on products of complete graphs,
    where it fits and carries the walk; a witness walk stops at its first
    set, so only an enumeration sees a subtree list sets after one died.
    The levels live on a stack of the walk's own, so no set is too large
    for Python's recursion limit.

    Layer quotas. A partition whose block values (:func:`_block_values`, on
    these columns, with no block table: this one call sees every column, and
    the tests after it may look up none of them) sum to ``size`` is tight:
    every set of ``size`` vertices hitting the columns holds exactly val(B)
    vertices of each block B and none outside them, since the blocks are
    disjoint and each needs val(B). So only the vertices of blocks with
    quota left are candidates: choosing v lowers the quota of v's block, a
    block whose quota reaches 0 closes, and backtracking reopens it. A
    closed vertex lies in no listed set, so the sets listed do not change.
    Partitions that are not tight restrict nothing. On products this is the
    paper's lower bound case: where dem(G box H) = |G|·dem(H), every minimum
    set gives each H-layer exactly dem(H) monitors. The walk starts from the
    set the value search found (``found`` of :class:`Layers`), when it hits
    the columns with ``size`` vertices, as the root's completion.
    """
    search = _Search(parts)
    parts = search.parts
    chosen: list[int] = []
    marks: list[int] = []  # per chosen vertex: if undecided, sets listed before it
    quotas = []  # (blocks, quota left per block) of each tight partition
    candidates = -1
    if 0 not in columns:
        for blocks in parts:
            values = dict(_block_values(columns, blocks, None, parts.memo))
            if sum(values.values()) == size:
                quota = {b: k for b, k in values.items() if k}
                quotas.append((blocks, quota))
                candidates &= reduce(or_, quota, 0)
    root = parts.found
    if root is None or root.bit_count() != size or not all(c & root for c in columns):
        root = 0
    listed = 0  # sets listed so far
    dead = False  # the latest undecided candidate's subtree listed no set
    levels: list[list] = []  # per open level: uncovered, reach, completion, candidates
    uncovered, start, completion = columns, 0, root
    while True:
        if not uncovered:
            if len(chosen) < size:
                raise ValueError("requested size exceeds the minimum hitting size")
            yield tuple(chosen)
            listed += 1
        reach = (reduce(or_, uncovered, 0) >> start << start) & candidates
        levels.append([uncovered, reach, completion, candidates])
        while True:  # to the next candidate, backtracking out of spent levels
            level = levels[-1]
            uncovered, reach, completion, candidates = level
            budget = size - len(chosen) - 1
            while reach:
                low = reach & -reach
                reach ^= low
                mark = -1
                rest = [c for c in uncovered if not c & low]
                if completion & -completion == low:
                    kept = completion ^ low
                    break
                above = -(low << 1)  # the vertices after the candidate
                later = [c & above for c in rest]
                if 0 in later:
                    # a column lies wholly below it, so below every later one too
                    reach = 0
                    continue
                later = sorted(set(later))
                bound = disjoint_lower_bound(later)
                if parts and bound <= budget:
                    bound = max(bound, partition_bound(later, parts, budget + 1))
                if bound > budget:
                    continue
                if bound < budget or completion or not dead:
                    kept = _minimal(later, greedy_hitting(later))
                    if kept.bit_count() <= budget:
                        break
                if bound == budget:
                    mark, kept = listed, 0  # undecided
                    break
                found, kept = _search_below(later, search, kept, budget + 1, budget)
                if found <= budget:
                    break
            else:
                levels.pop()
                if not levels:
                    return
                v = chosen.pop()
                mark = marks.pop()
                if mark != -1:  # only the latest undecided subtree counts
                    dead = mark == listed
                for blocks, quota in quotas:
                    quota[blocks[v]] += 1
                continue
            level[1] = reach
            v = low.bit_length() - 1
            for blocks, quota in quotas:
                b = blocks[v]
                quota[b] -= 1
                if not quota[b]:
                    candidates &= ~b
            chosen.append(v)
            marks.append(mark)
            uncovered, start, completion = rest, v + 1, kept
            break


def lexicographically_smallest(
    columns: Sequence[int], size: int, parts: Partitions = ()
) -> tuple[int, ...]:
    """The lexicographically smallest hitting set of exactly the given
    (minimum) size, as a sorted tuple of vertex ids: the first set of
    :func:`_lexicographic_walk`."""
    for first in _lexicographic_walk(columns, size, parts):
        return first
    raise ValueError("no hitting set of the requested size exists")


def lexicographic_minimum(columns: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Exact minimum hitting-set size and the lexicographically smallest
    minimum set."""
    cols = reduce_columns(columns)
    value, _ = minimum_hitting_set(cols)
    return value, lexicographically_smallest(cols, value)


def enumerate_minimum_sets(
    columns: Sequence[int], size: int, cap: int, parts: Partitions = ()
) -> tuple[tuple[int, ...], ...]:
    """All hitting sets of exactly the given (minimum) size, in lexicographic
    order: the sets of :func:`_lexicographic_walk`, whose test prunes with
    ``parts`` as the witness's does. Raises
    :class:`EnumerationCapExceededError` past ``cap`` sets."""
    sets = tuple(islice(_lexicographic_walk(columns, size, parts), cap + 1))
    if len(sets) > cap:
        raise EnumerationCapExceededError(cap)
    return sets

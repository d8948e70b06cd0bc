import sys
from collections import Counter
from itertools import combinations
from math import inf

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from demkit import hitting
from demkit.errors import EnumerationCapExceededError
from demkit.hitting import (
    Layers,
    _block_values,
    _branching,
    _components,
    _minimal,
    _Search,
    _search_below,
    _solve,
    bits,
    disjoint_lower_bound,
    enumerate_minimum_sets,
    exists_hitting_set,
    greedy_hitting,
    lexicographically_smallest,
    minimum_hitting_set,
    partition_bound,
    reduce_columns,
)


def masks(*sets):
    return [sum(1 << v for v in s) for s in sets]


def test_reduce_drops_duplicates_and_supersets():
    cols = masks({0, 1}, {0, 1}, {0, 1, 2}, {3})
    assert reduce_columns(cols) == masks({3}, {0, 1})


def _reduce_columns_reference(columns):
    """The quadratic reduction: each column against every column kept
    before it, in order of size, then mask."""
    kept = []
    for c in sorted(set(columns), key=lambda c: (c.bit_count(), c)):
        if not any(k & c == k for k in kept):
            kept.append(c)
    return kept


# columns over 12 vertices that nest often: one-vertex columns, the meet of
# two masks (at times empty) and any mask, with every third one repeated
nesting_columns = st.lists(
    st.one_of(
        st.integers(0, 11).map(lambda v: 1 << v),
        st.tuples(st.integers(1, 4095), st.integers(1, 4095)).map(
            lambda pair: pair[0] & pair[1]
        ),
        st.integers(1, 4095),
    ),
    max_size=30,
).map(lambda cols: cols + cols[::3])


@settings(max_examples=500, deadline=None)
@given(nesting_columns)
# {1, 3} and {0, 1, 2} cross the blocks {0, 1} and {2, 3}: {1, 3} is kept
# and {0, 1, 2} dropped, as in the whole set
@example([0b0011, 0b1100, 0b1010, 0b0111])
@example([0, 0b011, 0b101])  # every column holds the empty one
# {0, 1, 2, 3} holds 0 and 2, the low vertices of the kept {0, 4} and
# {2, 3}; only {2, 3}, indexed under the later one, lies inside it
@example([0b10001, 0b1100, 0b1111])
def test_reduce_matches_the_quadratic_loop(cols):
    assert reduce_columns(cols) == _reduce_columns_reference(cols)


def test_minimum_value():
    cols = masks({0, 1}, {1, 2}, {2, 3})
    value, nodes = minimum_hitting_set(cols)
    assert value == 2 and nodes >= 1


def test_disjoint_columns_decompose():
    cols = masks({0, 1}, {2, 3}, {4, 5}, {6})
    assert minimum_hitting_set(cols)[0] == 4


def test_upper_bound_is_respected():
    cols = masks({0}, {1}, {2})
    assert minimum_hitting_set(cols, upper=3)[0] == 3


def test_unhittable_column_rejected():
    with pytest.raises(ValueError):
        minimum_hitting_set([0b10, 0b0])


def test_exists_hitting_set():
    cols = masks({0, 1}, {1, 2}, {2, 3})
    assert exists_hitting_set(cols, 2)
    assert not exists_hitting_set(cols, 1)
    assert exists_hitting_set([], 0)
    pairs = [0b11 << 2 * i for i in range(1200)]  # past the recursion limit
    assert exists_hitting_set(pairs, 1200) and not exists_hitting_set(pairs, 1199)


def test_lexicographically_smallest():
    cols = masks({0, 1}, {1, 2}, {2, 3})
    assert lexicographically_smallest(cols, 2) == (0, 2)


def test_size_above_the_minimum_is_refused():
    cols = masks({0})
    with pytest.raises(ValueError):
        lexicographically_smallest(cols, 2)
    with pytest.raises(ValueError):
        enumerate_minimum_sets(cols, 2, 10)


def test_an_unhittable_column_lists_no_set():
    # the walk's layer quotas read block values only of hittable columns
    for parts in ((), ((0b11, 0b11),)):
        assert enumerate_minimum_sets([0b11, 0], 1, 10, parts) == ()
        with pytest.raises(ValueError, match="no hitting set"):
            lexicographically_smallest([0b11, 0], 1, parts)


def test_enumeration_is_complete_and_ordered():
    cols = masks({0, 1}, {1, 2}, {2, 3})
    assert enumerate_minimum_sets(cols, 2, 100) == ((0, 2), (1, 2), (1, 3))


def test_enumeration_cap():
    cols = masks({0, 1, 2, 3})
    with pytest.raises(EnumerationCapExceededError):
        enumerate_minimum_sets(cols, 1, 2)


def test_greedy_is_valid():
    cols = masks({0, 1}, {1, 2}, {2, 3}, {0, 3})
    chosen = greedy_hitting(cols)
    assert all(any((c >> v) & 1 for v in chosen) for c in cols)


def _first_hitting_set(cols, n):
    """The first hitting set by increasing size in combinations order."""
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            mask = sum(1 << v for v in subset)
            if all(c & mask for c in cols):
                return subset
    return None


@st.composite
def column_sets(draw):
    n = draw(st.integers(1, 8))
    cols = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    return n, cols


@settings(max_examples=300, deadline=None)
@given(column_sets(), st.integers(-3, 3))
def test_feasibility_and_witness_match_subset_search(case, slack):
    n, cols = case
    first = _first_hitting_set(cols, n)
    for budget in range(-1, n + 1):
        expected = first is not None and len(first) <= budget
        assert exists_hitting_set(cols, budget) == expected, budget
    if first is not None:
        size = len(first)
        assert minimum_hitting_set(cols)[0] == size
        assert lexicographically_smallest(cols, size) == first
        minimum = tuple(
            subset
            for subset in combinations(range(n), size)
            if all(c & sum(1 << v for v in subset) for c in cols)
        )
        cap = max(len(minimum) + slack, 0)  # straddle the number of sets
        if len(minimum) > cap:
            with pytest.raises(EnumerationCapExceededError):
                enumerate_minimum_sets(cols, size, cap)
        else:
            assert enumerate_minimum_sets(cols, size, cap) == minimum


@pytest.mark.parametrize(
    "sets, first",
    [
        ([{3, 7}, {7, 12}, {3, 12}], (3, 7)),  # vertex ids with gaps
        ([{0, 40}, {1, 40}], (40,)),  # one vertex far above the rest
        ([], ()),  # no columns: the empty set, of size 0
    ],
)
def test_walk_takes_its_vertices_from_the_columns(sets, first):
    # the walk takes its candidate vertices from the columns' union alone
    cols = masks(*sets)
    n = max((c.bit_length() for c in cols), default=0)
    assert _first_hitting_set(cols, n) == first
    size = len(first)
    assert minimum_hitting_set(cols)[0] == size
    assert lexicographically_smallest(cols, size) == first
    minimum = tuple(
        subset
        for subset in combinations(range(n), size)
        if all(c & sum(1 << v for v in subset) for c in cols)
    )
    assert enumerate_minimum_sets(cols, size, 100) == minimum


@st.composite
def partitioned_columns(draw):
    """Nonempty columns and up to three partitions, each a table whose entry
    v is the block holding v; a vertex labelled -1 lies in no block of that
    partition, and its entry is 0. The columns are any masks over n <= 10
    vertices, or pairs over n <= 12 vertices as vertex cover's are, which
    reach the witness walk's undecided and slack tests far more often."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        pair = st.sets(st.integers(0, n - 1), min_size=2, max_size=2)
        cols = masks(*draw(st.lists(pair, max_size=20)))
    else:
        n = draw(st.integers(1, 10))
        cols = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=12))
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        blocks = [0] * 4
        for v, label in enumerate(labels):
            if label >= 0:
                blocks[label] |= 1 << v
        parts.append(tuple(blocks[label] if label >= 0 else 0 for label in labels))
    return n, cols, tuple(parts)


@settings(max_examples=300, deadline=None)
@given(partitioned_columns())
def test_partition_bound_is_a_lower_bound_and_changes_no_answer(case):
    n, cols, parts = case
    first = _first_hitting_set(cols, n)
    size = len(first)
    assert partition_bound(cols, parts, inf) <= size
    assert partition_bound(cols, (((1 << n) - 1,) * n,), inf) == size  # one block: exact
    value, nodes = minimum_hitting_set(cols, parts=parts)
    assert value == size and nodes <= minimum_hitting_set(cols)[1]
    for budget in range(size - 2, size + 2):
        assert exists_hitting_set(cols, budget) == (budget >= size)
    assert lexicographically_smallest(cols, size, parts) == first


@settings(max_examples=300, deadline=None)
@given(partitioned_columns(), st.integers(0, 12))
def test_partition_bound_matches_its_definition(case, stop):
    # max over partitions of the sum, over distinct blocks, of the hitting
    # number of the columns lying wholly inside the block; given a stop, the
    # full bound when it lies below the stop, else a sum reaching the stop
    n, cols, parts = case
    expected = max(
        (
            sum(
                len(_first_hitting_set([c for c in cols if not c & ~b], n))
                for b in set(blocks) - {0}
            )
            for blocks in parts
        ),
        default=0,
    )
    assert partition_bound(cols, parts, inf) == expected
    stopped = partition_bound(cols, parts, stop)
    if expected < stop:
        assert stopped == expected
    else:
        assert stop <= stopped <= expected


@settings(max_examples=300, deadline=None)
@given(
    partitioned_columns(),
    st.none() | st.integers(0, 11),
    st.integers(-1, 10),
    st.booleans(),
)
# splits into components below the root, where the set joins both
@example(
    case=(4, masks({1}, {0, 3}, {2}, {0, 1, 2}, {3}), ()),
    cap=None,
    target=-1,
    with_parts=False,
)
def test_solve_returns_a_set_of_the_size_it_reports(case, cap, target, with_parts):
    # unreduced columns, as the witness walk passes them
    n, cols, parts = case
    assume(cap is None or cap > target)  # as exists_hitting_set sets them
    size = len(_first_hitting_set(cols, n))
    search = _Search(parts if with_parts else ())
    seed = _minimal(cols, greedy_hitting(cols))
    # the whole search, split into components at the root, and the search
    # stopped at a target, as exists_hitting_set and the witness walk run it
    for stop, (found, hit) in [
        (-1, _solve(cols, search, cap)),
        (target, _search_below(cols, search, seed, cap, target)),
    ]:
        if hit is None:  # nothing smaller than the cap
            assert found == cap <= size
            continue
        assert hit.bit_count() == found
        assert all(c & hit for c in cols)
        if size <= stop:
            assert size <= found <= stop
        else:
            assert found == size


@settings(max_examples=300, deadline=None)
@given(partitioned_columns())
# the greedy set {0, 1, 2} keeps 0, which 1 and 2 make redundant
@example(case=(3, masks({0, 1}, {0, 2}, {1}, {2}), ()))
# greedy {0, 1, 2, 3}: 0 and 1 are each redundant, but not both at once
@example(
    case=(
        4,
        masks({1, 3}, {0, 2}, {2}, {1, 2}, {0, 3}, {0, 1, 3}, {3}, {0, 1}),
        (),
    )
)
def test_solve_starts_from_the_greedy_set_less_its_redundant_vertices(case):
    _, cols, _ = case
    assume(len(_components(cols)) == 1)  # a split solves each component
    with pytest.MonkeyPatch.context() as patch:
        starts = _recording(patch, "_search_below")
        _solve(cols, _Search())
    seed = starts[0][2]  # the root search's
    search = _Search()
    size, kept = _search_below(cols, search, seed, None, len(cols))  # stops at once
    greedy = sum(1 << v for v in greedy_hitting(cols))
    assert search.nodes == 0 and kept == seed and seed.bit_count() == size
    assert seed & ~greedy == 0
    assert all(c & seed for c in cols)
    for v in bits(seed):
        assert not all(c & (seed ^ 1 << v) for c in cols), v


@settings(max_examples=300, deadline=None)
@given(partitioned_columns())
def test_raw_and_reduced_columns_give_one_answer(case):
    # callers reduce once and pass the reduced columns to every solve
    _, cols, parts = case
    reduced = reduce_columns(cols)
    value, _ = minimum_hitting_set(cols, parts=parts)
    assert minimum_hitting_set(reduced, parts=parts)[0] == value
    assert lexicographically_smallest(
        cols, value, parts
    ) == lexicographically_smallest(reduced, value, parts)


@settings(max_examples=300, deadline=None)
@given(column_sets())
def test_disjoint_bound_needs_no_reduction(case):
    # dem_number gates the factorisation on this bound of the raw columns
    _, cols = case
    cols = [c for c in cols if c]
    assert disjoint_lower_bound(sorted(set(cols))) == disjoint_lower_bound(
        reduce_columns(cols)
    )


@st.composite
def block_groups(draw):
    """The columns of one block, past the block values partitioned_columns()
    reaches: Kn's pair columns for n <= 7 (value n - 1), less a drawn set of
    vertices, as the walk masks columns to later vertices, which leaves
    singletons; or any columns over up to 9 vertices."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 7))
        gone = draw(st.integers(0, (1 << n) - 1))
        pairs = [(1 << a | 1 << b) & ~gone for a, b in combinations(range(n), 2)]
        return n, [c for c in pairs if c]
    n = draw(st.integers(1, 9))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), max_size=16))


@settings(max_examples=300, deadline=None)
@given(block_groups(), st.integers(0, 3))
@example(case=(7, masks({1, 3, 5})), shift=3)  # one column
@example(case=(5, masks({0, 2}, {2, 3}, {1, 2, 4})), shift=2)  # all share vertex 2
@example(case=(7, masks(*combinations(range(7), 2))), shift=1)  # K7, value 6
def test_block_values_are_the_blocks_hitting_numbers(case, shift):
    # a block above vertex 0 and a copy of it above the block: each value is
    # the hitting number of the block's columns, solved once for both
    n, cols = case
    size = len(_first_hitting_set(cols, n))
    block = ((1 << n) - 1) << shift
    blocks = (0,) * shift + (block,) * n + (block << n,) * n
    lower = [c << shift for c in cols]
    columns = lower + [c << n for c in lower]
    table, memo = {}, {}
    values = dict(_block_values(columns, blocks, table, memo))
    assert values == ({block: size, block << n: size} if cols else {})
    assert len(memo) == (1 if cols else 0)
    assert dict(_block_values(columns, blocks, None, {})) == values  # no table
    assert exists_hitting_set(cols, size)
    assert not exists_hitting_set(cols, size - 1)


@settings(max_examples=300, deadline=None)
@given(partitioned_columns(), st.lists(st.integers(0, 11), max_size=8))
def test_block_tables_serve_every_call_on_their_partitions(case, cuts):
    # columns as the walk tests them: masked to the vertices from a cut on,
    # the empty ones left out, all bounded through one Layers
    n, cols, parts = case
    layers = Layers(parts)
    for cut in cuts:
        above = -(1 << cut)
        later = sorted({c & above for c in cols} - {0})
        assert partition_bound(later, layers, inf) == partition_bound(later, parts, inf)
    assert len(layers.tables) == len(parts)
    for blocks, table in zip(parts, layers.tables):
        for c, entry in table.items():
            b = blocks[(c & -c).bit_length() - 1]
            if c & ~b:
                assert entry == ()
            else:
                assert entry == (b, c >> (b & -b).bit_length() - 1)


def test_block_kernel_deepens_from_the_disjoint_bound(monkeypatch):
    # K5's pairs: disjoint bound 2, value 4. Each test branches on {0, 1}:
    # taking 0 leaves K4 on 1-4, of disjoint bound 2; taking 1 bans 0, which
    # leaves the pairs {0, v} as the singletons {2}, {3}, {4}, of bound 3.
    # A child whose bound exceeds the vertices left to it is never tested
    tests = _recording(monkeypatch, "_fits")
    cols = masks(*combinations(range(5), 2))
    assert dict(_block_values(cols, (0b11111,) * 5, {}, {})) == {0b11111: 4}
    assert [(len(tested), k) for tested, k in tests] == [
        (10, 2),  # both children pruned
        (10, 3),
        (6, 2),  # took 0
        (3, 1),  # took 0 and 1: K3 on 2-4 shares no vertex (2, banning 1, pruned)
        (10, 4),
        (6, 3),
        (3, 2),
        (1, 1),  # took 0, 1 and 2: {3, 4} is left
    ]


def _recording(monkeypatch, name, caller=None):
    """Record the positional arguments of every call to ``hitting.<name>``,
    or, given a function ``caller``, of the calls made directly from it."""
    calls = []
    original = getattr(hitting, name)

    def recording(*args, **kwargs):
        if caller is None or sys._getframe(1).f_code is caller.__code__:
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hitting, name, recording)
    return calls


def test_walk_restricts_blocks_as_it_restricts_columns(monkeypatch):
    # columns keep their ids, masked to the vertices past the candidate;
    # the partitions pass unchanged, as the search state's Layers
    bounds = _recording(monkeypatch, "partition_bound")
    cols = masks({0, 2}, {1, 3})
    parts = ((0b0101, 0b1010, 0b0101, 0b1010),)
    sets = enumerate_minimum_sets(cols, 2, 10, parts)
    assert sets == ((0, 1), (0, 3), (1, 2), (2, 3))
    # candidates 0 (its completion {1} carries the walk through 1), 3 below
    # 0, then 1 and 2: past 1, {0, 2} loses 0; past 2, {1, 3} loses 1. Each
    # bound stops at the budget + 1, the first value that rejects
    assert [(tested, stop) for tested, _, stop in bounds] == [
        (masks({1, 3}), 2),
        ([], 1),
        (masks({2}), 2),
        (masks({3}), 2),
    ]
    assert all(p == parts for _, p, _ in bounds)


def test_walk_descends_into_a_completion_untested(monkeypatch):
    bounds = _recording(monkeypatch, "disjoint_lower_bound")
    cols = masks({0, 1}, {2, 3})
    sets = enumerate_minimum_sets(cols, 2, 10)
    assert sets == ((0, 2), (0, 3), (1, 2), (1, 3))
    # past 0 and past 1 the greedy set {2} fits: the walk descends into 2
    # with no bound call, and tests 3 below them
    assert bounds == [
        (masks({2, 3}),),  # vertex 0
        ([],),  # 3 below 0
        (masks({2, 3}),),  # vertex 1
        ([],),  # 3 below 1
    ]


def test_witness_needs_no_solve_when_the_greedy_set_fits(monkeypatch):
    solves = _recording(monkeypatch, "_search_below")
    bounds = _recording(monkeypatch, "disjoint_lower_bound")
    cols = masks({0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5})
    assert lexicographically_smallest(cols, 3) == (0, 2, 4)
    # past vertex 0 the greedy set {2, 4} fits the budget of 2: its
    # completion carries the walk through 2 and 4; the disjoint bound
    # rejects 1 and 3
    assert solves == []
    assert bounds == [
        (masks({1, 2}, {2, 3}, {3, 4}, {4, 5}),),
        (masks({2, 3}, {3, 4}, {4, 5}),),
        (masks({4, 5}),),
    ]


def test_witness_solves_once_when_completions_carry_it(monkeypatch):
    solves = _recording(monkeypatch, "_search_below")
    splits = _recording(monkeypatch, "_solve")
    greedy = _recording(monkeypatch, "greedy_hitting")
    later = masks({1, 2, 4}, {1, 3, 5}, {2, 4, 6}, {2, 3, 7}, {4, 6, 7})
    cols = masks({0}) + later
    assert lexicographically_smallest(cols, 3) == (0, 3, 4)
    # past vertex 0 (budget 2) the disjoint bound 1 leaves slack and the
    # pruned greedy set {1, 2, 4} is too large: one branch and bound, started
    # from that set, finds {3, 4}, whose completion carries the walk
    searched, _, seed, *_ = solves[0]
    assert (searched, seed) == (later, masks({1, 2, 4})[0])
    # every other search solves a component below it; the walk's test
    # builds its greedy set once
    assert len(solves) == 1 + len(splits)
    assert greedy.count((later,)) == 1


def test_witness_backtracks_below_a_tight_candidate(monkeypatch):
    solves = _recording(monkeypatch, "_search_below")
    bounds = _recording(monkeypatch, "disjoint_lower_bound")
    ring = masks({1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5})
    cols = masks({0, 1}) + ring
    assert lexicographically_smallest(cols, 3) == (1, 2, 4)
    assert _first_hitting_set(cols, 6) == (1, 2, 4)
    # past vertex 0 the ring needs 3 vertices, but its disjoint bound is the
    # budget of 2 and its greedy set {1, 3, 4} is too large: 0 is accepted
    # undecided, the bound rejects 1 and 2 below it (3, 4 and 5 leave a
    # column unhittable), and the walk backtracks to 1 with no solve. Once
    # that subtree has died, the tight candidates 1, then 2 below it, are
    # accepted undecided with no greedy set, and 4 below 2 is tested too
    assert solves == []
    assert bounds == [
        (sorted(ring),),  # vertex 0, budget 2: tight
        (masks({2, 3}, {3, 4}, {4, 5}),),  # 1 below 0, budget 1: rejected
        (masks({3, 4}, {5}, {4, 5}),),  # 2 below 0, budget 1: rejected
        (masks({2, 3}, {3, 4}, {4, 5}),),  # vertex 1, budget 2: tight
        (masks({3, 4}, {4, 5}),),  # 2 below 1, budget 1: tight
        (masks({4, 5}),),  # 3 below 2, budget 0: rejected
        ([],),  # 4 below 2, budget 0: tight, a set
    ]


def test_walk_builds_no_greedy_set_under_a_tight_bound_once_a_subtree_died(
    monkeypatch,
):
    greedy = _recording(monkeypatch, "greedy_hitting")
    ring = masks({1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 5})
    cols = masks({0, 1}) + ring
    # past vertex 0 the bound is tight and its greedy set {1, 3, 4} too
    # large, and nothing lies below 0. After that, the witness builds no
    # greedy set for a tight candidate at a level with no completion: 1 at
    # the root, 2 below 1 and 4 below 2
    assert lexicographically_smallest(cols, 3) == (1, 2, 4)
    assert greedy == [(sorted(ring),)]
    greedy.clear()
    # nor does the enumeration, until the undecided subtree of 2 below 1
    # lists (1, 2, 4): then 3 below 1 and 5 below 3 build theirs again
    assert enumerate_minimum_sets(cols, 3, 10) == ((1, 2, 4), (1, 3, 4), (1, 3, 5))
    assert greedy == [(sorted(ring),), (masks({4, 5}),), ([],)]


def test_walk_builds_greedy_sets_under_a_tight_bound_while_no_subtree_died(
    monkeypatch,
):
    # K2 x K3's edges as pair columns, as K4 x K6's vertex cover has them,
    # with its rows and columns as the partitions
    tests = _recording(monkeypatch, "partition_bound")
    greedy = _recording(monkeypatch, "greedy_hitting")
    cols = reduce_columns(
        masks({0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {0, 3}, {1, 4}, {2, 5})
    )
    parts = ((0b000111,) * 3 + (0b111000,) * 3, (0b001001, 0b010010, 0b100100) * 2)
    assert lexicographically_smallest(cols, 4, parts) == (0, 1, 3, 5)
    # vertex 0 at the root, which has no completion: budget 3, partition
    # bound 3. No subtree has died, so its greedy set {2, 3, 4} is built; it
    # fits and carries the walk. Below it, 1 is tight too (budget 2) and its
    # greedy set {3, 5} carries the walk to the end
    past_0 = masks({1, 2}, {1, 4}, {3, 4}, {2, 5}, {3, 5}, {4, 5})
    past_1 = masks({3, 4}, {2, 5}, {3, 5}, {4, 5})
    assert [(tested, stop) for tested, _, stop in tests] == [(past_0, 4), (past_1, 3)]
    assert partition_bound(past_0, parts, inf) == 3
    assert partition_bound(past_1, parts, inf) == 2
    assert [args for args in greedy if args[0] in (past_0, past_1)] == [
        (past_0,),
        (past_1,),
    ]


def test_walk_builds_greedy_sets_again_once_a_later_subtree_lists_sets(
    monkeypatch,
):
    greedy = _recording(monkeypatch, "greedy_hitting")
    cols = masks({1, 3}, {2, 3}, {0, 2}, {1, 2})
    assert enumerate_minimum_sets(cols, 2, 10) == ((1, 2), (2, 3))
    # past vertex 0 the bound 1 is tight and the greedy set {1, 2} too
    # large, and nothing lies below 0. Vertex 1, tight too, is accepted
    # undecided with no greedy set, and its subtree lists (1, 2). So at
    # vertex 2, tight again, the greedy set {3} is built, and it completes
    # (2, 3)
    assert greedy == [(masks({1, 2}, {1, 3}, {2, 3}),), (masks({3}),)]


def test_walk_is_not_bounded_by_the_recursion_limit():
    # 1,200 disjoint pairs: the walk chooses 1,200 vertices, one level each
    cols = [0b11 << 2 * i for i in range(1200)]
    assert len(cols) > sys.getrecursionlimit()
    assert lexicographically_smallest(cols, 1200) == tuple(range(0, 2400, 2))


@settings(max_examples=500, deadline=None)
@given(partitioned_columns())
# about 4% of draws reach an undecided test and 0.5% a slack one: past 0
# the greedy set {1, 2, 3} is too large and the bound 2 tight, yet {4, 5} fits
@example(case=(6, masks({0, 2}, {1, 4}, {3, 4}, {2, 5}, {3, 5}), ()))
# past 0 the bound leaves slack (test_witness_solves_once_...)
@example(
    case=(8, masks({0}, {1, 2, 4}, {1, 3, 5}, {2, 4, 6}, {2, 3, 7}, {4, 6, 7}), ())
)
def test_witness_is_the_first_minimum_set_in_combinations_order(case):
    # the walk accepts tight candidates undecided and backtracks below them;
    # the enumeration lists every minimum set by the same walk
    n, cols, parts = case
    first = _first_hitting_set(cols, n)
    size = len(first)
    minimum = tuple(
        subset
        for subset in combinations(range(n), size)
        if all(c & sum(1 << v for v in subset) for c in cols)
    )
    for columns in (cols, reduce_columns(cols)):
        assert lexicographically_smallest(columns, size, parts) == first
        assert enumerate_minimum_sets(columns, size, len(minimum), parts) == minimum


# vertex 0 lies in no block and vertex 1 in a block of value 0 (no column
# lies inside it); {2, 3} and {4, 5} need one vertex each, and so does the
# whole set: {2, 5} is its only minimum set
QUOTA_COLUMNS = masks({2, 3}, {4, 5}, {0, 2}, {1, 5}, {3, 5})
TIGHT = ((0, 0b10, 0b1100, 0b1100, 0b110000, 0b110000),)
LOOSE = ((0b10001, 0b110, 0b110, 0b1000, 0b10001, 0b100000),)  # none inside


@pytest.mark.parametrize("listing", ["witness", "enumeration"])
def test_walk_skips_every_vertex_a_tight_partition_closes(monkeypatch, listing):
    # the walk's own tests: the block kernel bounds its blocks' columns too
    bounds = _recording(
        monkeypatch, "disjoint_lower_bound", hitting._lexicographic_walk
    )

    def walk(parts):
        bounds.clear()
        if listing == "witness":
            return (lexicographically_smallest(QUOTA_COLUMNS, 2, parts),)
        return enumerate_minimum_sets(QUOTA_COLUMNS, 2, 10, parts)

    assert walk(()) == ((2, 5),)
    free = list(bounds)
    # vertices 0 and 1 are rejected, 2's greedy set {5} fits, and 3 and 4
    # below 2 are rejected
    assert free == [
        (sorted(masks({2, 3}, {1, 5}, {3, 5}, {4, 5})),),
        (sorted(masks({2}, {2, 3}, {3, 5}, {4, 5})),),
        (sorted(masks({5}, {3, 5}, {4, 5})),),
        (sorted(masks({5}, {4, 5})),),
        (masks({5}),),
    ]
    # block values 0 + 1 + 1 = 2, the size: 0 and 1 are never candidates,
    # and once 2 fills its block, neither is 3
    assert walk(TIGHT) == ((2, 5),)
    assert bounds == [free[2], free[4]]
    # values 0 + 0 + 0 + 0 < 2: the partition restricts nothing
    assert walk(LOOSE) == ((2, 5),)
    assert bounds == free


def test_walk_starts_from_the_set_its_layers_carry(monkeypatch):
    bounds = _recording(monkeypatch, "disjoint_lower_bound")
    cols = masks({0, 1}, {2, 3})
    parts = Layers(())
    assert lexicographically_smallest(cols, 2, parts) == (0, 2)
    assert len(bounds) == 1  # vertex 0: its greedy set {2} fits
    bounds.clear()
    parts.found = masks({0, 2})[0]  # the root's completion: no test at all
    assert lexicographically_smallest(cols, 2, parts) == (0, 2)
    assert bounds == []


@settings(max_examples=300, deadline=None)
@given(partitioned_columns(), st.integers(0, 1000))
def test_a_root_completion_changes_no_listed_set(case, pick):
    n, cols, parts = case
    size = len(_first_hitting_set(cols, n))
    minimum = tuple(
        subset
        for subset in combinations(range(n), size)
        if all(c & sum(1 << v for v in subset) for c in cols)
    )
    # a minimum set, a set one vertex short or one too many, and no set
    start = sum(1 << v for v in minimum[pick % len(minimum)])
    for found in (start, start & (start - 1), start | 1 << n, None):
        layers = Layers(parts)
        layers.found = found
        for columns in (cols, reduce_columns(cols)):
            assert lexicographically_smallest(columns, size, layers) == minimum[0]
            listed = enumerate_minimum_sets(columns, size, len(minimum), layers)
            assert listed == minimum


def _greedy_by_rows(cols, n):
    """The former loop of ``greedy_dem``: one mask per vertex over the column
    positions, taking the largest popcount against the uncovered ones."""
    rows = [
        sum(1 << i for i, c in enumerate(cols) if (c >> v) & 1) for v in range(n)
    ]
    uncovered = (1 << len(cols)) - 1
    chosen = []
    while uncovered:
        best = max(range(n), key=lambda v: ((rows[v] & uncovered).bit_count(), -v))
        chosen.append(best)
        uncovered &= ~rows[best]
    return sorted(chosen)


def _greedy_by_counts(cols):
    """The former loop of ``greedy_hitting``: recount the remaining columns
    per vertex and drop the columns the pick hits."""
    remaining = list(cols)
    chosen = []
    while remaining:
        count = Counter(
            v for c in remaining for v in range(c.bit_length()) if (c >> v) & 1
        )
        v = max(count, key=lambda x: (count[x], -x))
        chosen.append(v)
        remaining = [c for c in remaining if not (c >> v) & 1]
    return sorted(chosen)


@settings(max_examples=300, deadline=None)
@given(column_sets())
def test_greedy_matches_both_former_loops(case):
    n, cols = case
    cols = [c for c in cols if c]
    assert greedy_hitting(cols) == _greedy_by_rows(cols, n) == _greedy_by_counts(cols)
    with pytest.raises(ValueError):
        greedy_hitting(cols + [0])


@st.composite
def wide_column_sets(draw):
    """Columns over up to 100 vertices, some ids past 64, where a hub vertex
    lies in at least 32 columns: counts need six or more digit planes. Small
    columns make ties between counts common."""
    n = draw(st.integers(65, 100))
    small = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
    cols = masks(*draw(st.lists(small, min_size=32, max_size=60)))
    hub = draw(st.integers(0, n - 1))
    hubbed = draw(st.integers(32, len(cols)))
    cols = [c | 1 << hub for c in cols[:hubbed]] + cols[hubbed:]
    cols += draw(st.lists(st.integers(1, (1 << n) - 1), max_size=8))  # dense
    cols.append(1 << draw(st.integers(64, n - 1)))
    return n, draw(st.permutations(cols))


@settings(max_examples=100, deadline=None)
@given(wide_column_sets())
def test_greedy_matches_both_former_loops_on_wide_counts(case):
    n, cols = case
    count = Counter(v for c in cols for v in range(n) if (c >> v) & 1)
    assert max(count.values()) >= 32 and max(count) >= 64
    assert greedy_hitting(cols) == _greedy_by_rows(cols, n) == _greedy_by_counts(cols)


def _branching_by_decoding(cols):
    """The former loop of ``_branching``: decode every column, count each
    vertex's columns, and score a column by its vertices' counts."""
    decoded = [bits(c) for c in cols]
    count = Counter(v for vs in decoded for v in vs)
    _, column = min(
        zip(cols, decoded),
        key=lambda cv: (cv[0].bit_count(), -sum(count[v] for v in cv[1]), cv[0]),
    )
    return sorted(column, key=lambda x: (-count[x], x))


@settings(max_examples=300, deadline=None)
@given(column_sets())
def test_branching_matches_the_decode_loop(case):
    _, cols = case
    cols = [c for c in cols if c]
    assume(cols)
    assert _branching(cols) == _branching_by_decoding(cols)


@settings(max_examples=100, deadline=None)
@given(wide_column_sets())
def test_branching_matches_the_decode_loop_on_wide_counts(case):
    # without the single-vertex columns the hub's columns of two vertices or
    # more are scored, and their counts span six or more digit planes
    _, cols = case
    for columns in filter(None, (cols, [c for c in cols if c & (c - 1)])):
        assert _branching(columns) == _branching_by_decoding(columns)


@pytest.mark.parametrize(
    "sets, order",
    [
        # duplicated columns tie in coverage: the smaller mask wins
        ([{2, 3}, {0, 1}, {2, 3}, {0, 1}, {4, 5}], [0, 1]),
        # equal scores; the shared vertex goes first by its count
        ([{2, 5}, {1, 5}, {0, 5}], [5, 0]),
        # the column of fewest candidates, however much the others cover
        ([{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {3, 4}], [3, 4]),
        # a duplicate lifts its column's score above a smaller mask's
        ([{0, 1}, {2, 3}, {2, 3}, {0, 4}], [2, 3]),
    ],
)
def test_branching_on_duplicates_and_ties(sets, order):
    cols = masks(*sets)
    assert _branching(cols) == _branching_by_decoding(cols) == order


def _components_by_merging(cols):
    """The merge loop of ``_components``, alone: each column merges every
    group it meets, groups ordered by their lowest vertex."""
    comps = []
    for c in cols:
        merged_support, merged_members, rest = c, [c], []
        for support, members in comps:
            if support & merged_support:
                merged_support |= support
                merged_members += members
            else:
                rest.append((support, members))
        rest.append((merged_support, merged_members))
        comps = rest
    comps.sort(key=lambda item: item[0] & -item[0])
    return [members for _, members in comps]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 70).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=3).map(
                lambda vs: sum(1 << v for v in vs)
            ),
            max_size=14,
        )
    )
)
def test_components_match_the_merge_loop(cols):
    expected = _components_by_merging(cols)
    got = _components(cols)
    if len(expected) > 1:
        assert got == expected  # the groups and their member order
    else:
        assert [sorted(group) for group in got] == [sorted(g) for g in expected]

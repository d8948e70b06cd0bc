from collections import Counter
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from demkit import hitting
from demkit.errors import EnumerationCapExceededError
from demkit.hitting import (
    _components,
    _lexicographic_walk,
    _Search,
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
    assert sorted(reduce_columns(cols)) == sorted(masks({0, 1}, {3}))


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


def test_lexicographically_smallest():
    cols = masks({0, 1}, {1, 2}, {2, 3})
    assert lexicographically_smallest(cols, 2) == (0, 2)


def test_size_above_the_minimum_is_refused():
    cols = masks({0})
    with pytest.raises(ValueError):
        lexicographically_smallest(cols, 2)
    with pytest.raises(ValueError):
        enumerate_minimum_sets(cols, 2, 10)


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
    """Nonempty columns over n <= 10 vertices and up to three partitions;
    a vertex labelled -1 lies in no block of that partition."""
    n = draw(st.integers(1, 10))
    cols = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=12))
    parts = []
    for _ in range(draw(st.integers(0, 3))):
        labels = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        blocks: dict[int, int] = {}
        for v, label in enumerate(labels):
            if label >= 0:
                blocks[label] = blocks.get(label, 0) | 1 << v
        parts.append(tuple(blocks.values()))
    return n, cols, tuple(parts)


@settings(max_examples=300, deadline=None)
@given(partitioned_columns())
def test_partition_bound_is_a_lower_bound_and_changes_no_answer(case):
    n, cols, parts = case
    first = _first_hitting_set(cols, n)
    size = len(first)
    assert partition_bound(cols, parts) <= size
    assert partition_bound(cols, (((1 << n) - 1,),)) == size  # one block: exact
    value, nodes = minimum_hitting_set(cols, parts=parts)
    assert value == size and nodes <= minimum_hitting_set(cols)[1]
    for budget in range(size - 2, size + 2):
        assert exists_hitting_set(cols, budget, parts) == (budget >= size)
    assert lexicographically_smallest(cols, size, parts) == first


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
    found, hit = _solve(cols, _Search(), cap, target, parts if with_parts else ())
    if hit is None:  # nothing smaller than the cap
        assert found == cap <= size
        return
    assert hit.bit_count() == found
    assert all(c & hit for c in cols)
    if size <= target:
        assert size <= found <= target
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
    search = _Search()
    size, seed = _solve(cols, search, target=len(cols))  # stops at the seed
    greedy = sum(1 << v for v in greedy_hitting(cols))
    assert search.nodes == 0 and seed.bit_count() == size
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


def test_walk_restricts_blocks_as_it_restricts_columns():
    # ids shift down past the chosen vertex; a block left empty is dropped
    seen = []

    def feasible(cols, budget, parts):
        seen.append((cols, parts))
        return exists_hitting_set(cols, budget, parts)

    cols = masks({0, 1}, {2, 3})
    parts = ((0b0011, 0b1100),)
    assert next(_lexicographic_walk(cols, 2, feasible, parts)) == (0, 2)
    assert seen == [([0b110], [[0b001, 0b110]]), ([], [[0b1]])]


def test_walk_descends_into_a_completion_untested():
    seen = []

    def feasible(cols, budget, parts):
        seen.append((cols, budget))
        return 0b010  # later vertex 1: vertex 2 once shifted back

    cols = masks({0, 1}, {2, 3})
    assert next(_lexicographic_walk(cols, 2, feasible)) == (0, 2)
    assert seen == [([0b110], 1)]


def test_witness_solves_once_when_completions_carry_it(monkeypatch):
    calls = []
    solve = hitting._solve

    def counting(cols, *args, **kwargs):
        calls.append(cols)
        return solve(cols, *args, **kwargs)

    monkeypatch.setattr(hitting, "_solve", counting)
    cols = masks({0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5})
    assert lexicographically_smallest(cols, 3) == (0, 2, 4)
    # vertex 0 is solved and its completion carries the walk through 2 and
    # 4; the disjoint bound rejects 1 and 3
    assert calls == [masks({0, 1}, {1, 2}, {2, 3}, {3, 4})]


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

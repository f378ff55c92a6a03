"""``build_set_system`` equals a build from the reference enumerator.

The integer-coded grouping kernel must reproduce, bit for bit, the system
that :func:`enumerate_nonempty_patterns` plus a ``sort_key`` sort gives:
labels, set order, benefit sets (and their iteration order, which
order-sensitive costs see), costs and canonical tie-break keys. Columns
mix types on purpose, including the cases the kernel hands back to the
reference path (equal values that print differently, unequal values
that print the same).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy_common import canonical_key, canonical_keys
from repro.core.setsystem import SetSystem
from repro.patterns.costs import CostFunction, get_cost_function
from repro.patterns.enumerate import (
    count_nonempty_patterns,
    enumerate_nonempty_patterns,
)
from repro.patterns.pattern import Pattern
from repro.patterns.pattern_sets import build_set_system
from repro.patterns.table import PatternTable


class Collide:
    """Unequal values that all print the same."""

    def __init__(self, tag: int) -> None:
        self.tag = tag

    def __eq__(self, other) -> bool:
        return isinstance(other, Collide) and self.tag == other.tag

    def __hash__(self) -> int:
        return hash(self.tag)

    def __repr__(self) -> str:
        return "Collide()"


#: One strategy per column kind; a table mixes kinds across columns.
column_kinds = st.sampled_from([
    st.sampled_from(["a", "b", "c"]),
    st.integers(-2, 3),
    st.one_of(st.none(), st.sampled_from(["x", "y"]), st.integers(0, 2)),
    st.one_of(
        st.sampled_from([0.5, 2.0, math.inf, -0.0, 0.0]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    st.sampled_from([1, 1.0, True, 2]),
    st.builds(Collide, st.integers(0, 2)),
])

#: One strategy per measure kind; the sampled kinds make signed-zero
#: ties and NaN (where Python's ``max`` depends on order) common.
measure_kinds = st.sampled_from([
    st.floats(min_value=0.0, max_value=1e6),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.sampled_from([0.0, -0.0, math.inf, math.nan, 1.5]),
])

#: Python's ``max`` and ``x[0]`` both depend on the benefit set's
#: iteration order, so this also pins that order.
FIRST_COST = CostFunction("first", lambda values: values[0])
COSTS = ["max", "sum", "mean", "count", "l2", FIRST_COST]


@st.composite
def mixed_tables(draw, max_rows: int = 10, max_attrs: int = 3,
                 measure_kind=None):
    n_attrs = draw(st.integers(1, max_attrs))
    kinds = [draw(column_kinds) for _ in range(n_attrs)]
    # Rows drawn from a small pool, so duplicate rows are common.
    pool = draw(st.lists(st.tuples(*kinds), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1,
                         max_size=max_rows))
    measure = None
    if measure_kind is not None or draw(st.booleans()):
        kind = measure_kind if measure_kind is not None else draw(
            measure_kinds
        )
        measure = draw(st.lists(kind, min_size=len(rows),
                                max_size=len(rows)))
    return PatternTable([f"D{i}" for i in range(n_attrs)], rows, measure)


def reference_build(table: PatternTable, cost) -> SetSystem:
    """The oracle: enumerate, sort by ``sort_key``, cost every set."""
    bound = get_cost_function(cost).bind(table)
    patterns = enumerate_nonempty_patterns(table)
    ordered = sorted(patterns, key=Pattern.sort_key)
    return SetSystem.from_iterables(
        table.n_rows,
        [patterns[pattern] for pattern in ordered],
        [bound(patterns[pattern]) for pattern in ordered],
        labels=ordered,
    )


def outcome(build, table, cost):
    try:
        return build(table, cost), None
    except Exception as error:  # compared, not swallowed
        return None, (type(error), str(error))


def assert_same_system(got: SetSystem, want: SetSystem) -> None:
    assert got.n_elements == want.n_elements
    assert [repr(ws.label) for ws in got] == [repr(ws.label) for ws in want]
    assert [ws.label for ws in got] == [ws.label for ws in want]
    assert [ws.benefit for ws in got] == [ws.benefit for ws in want]
    assert [list(ws.benefit) for ws in got] == [
        list(ws.benefit) for ws in want
    ]
    assert [float.hex(ws.cost) for ws in got] == [
        float.hex(ws.cost) for ws in want
    ]
    assert canonical_keys(got) == tuple(
        canonical_key(ws.label, ws.set_id) for ws in got
    )
    assert canonical_keys(got) == canonical_keys(want)


class TestKernelMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(mixed_tables(), st.sampled_from(COSTS))
    def test_same_system(self, table, cost):
        got, got_error = outcome(build_set_system, table, cost)
        want, want_error = outcome(reference_build, table, cost)
        assert got_error == want_error
        if want is not None:
            assert_same_system(got, want)

    @settings(max_examples=150, deadline=None)
    @given(mixed_tables(
        measure_kind=st.sampled_from([0.0, -0.0, math.nan, 1.0])
    ))
    def test_max_on_signed_zeros_and_nan(self, table):
        """Where Python's ``max`` depends on iteration order."""
        got, got_error = outcome(build_set_system, table, "max")
        want, want_error = outcome(reference_build, table, "max")
        assert got_error == want_error
        if want is not None:
            assert_same_system(got, want)

    @settings(max_examples=100, deadline=None)
    @given(mixed_tables(max_rows=16, max_attrs=4))
    def test_count_matches_enumeration(self, table):
        assert count_nonempty_patterns(table) == len(
            enumerate_nonempty_patterns(table)
        )


@pytest.mark.parametrize("cost", COSTS)
def test_wide_string_table(random_table, cost):
    """A realistic shape: every set id, benefit and cost agrees."""
    table = random_table(n_rows=60, n_attributes=4, domain_size=7, seed=11)
    assert_same_system(
        build_set_system(table, cost), reference_build(table, cost)
    )

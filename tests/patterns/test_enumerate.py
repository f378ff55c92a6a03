"""Unit tests for full pattern enumeration (Table II)."""

import pytest

from repro.errors import PatternSpaceError
from repro.patterns.enumerate import (
    count_nonempty_patterns,
    enumerate_nonempty_patterns,
)
from repro.patterns.index import PatternIndex
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable


class TestEntitiesExample:
    def test_exactly_24_patterns(self, entities):
        # Table II lists exactly 24 patterns for the 16-entity table.
        assert count_nonempty_patterns(entities) == 24

    def test_known_benefits(self, entities):
        patterns = enumerate_nonempty_patterns(entities)
        assert len(patterns[Pattern((ALL, ALL))]) == 16
        assert len(patterns[Pattern(("B", ALL))]) == 8
        assert len(patterns[Pattern(("B", "South"))]) == 2
        assert len(patterns[Pattern((ALL, "North"))]) == 3

    def test_benefits_match_index(self, entities):
        patterns = enumerate_nonempty_patterns(entities)
        index = PatternIndex(entities)
        for pattern, ben in patterns.items():
            assert index.benefit(pattern) == ben


class TestGeneralProperties:
    def test_all_pattern_always_present(self, random_table):
        table = random_table(n_rows=10, seed=3)
        patterns = enumerate_nonempty_patterns(table)
        assert Pattern.all_pattern(table.n_attributes) in patterns

    def test_no_empty_benefits(self, random_table):
        patterns = enumerate_nonempty_patterns(random_table(seed=1))
        assert all(ben for ben in patterns.values())

    def test_every_row_generates_its_generalizations(self, random_table):
        table = random_table(n_rows=6, n_attributes=2, seed=2)
        patterns = enumerate_nonempty_patterns(table)
        row = table.rows[0]
        for values in [
            row,
            (row[0], ALL),
            (ALL, row[1]),
            (ALL, ALL),
        ]:
            assert Pattern(values) in patterns
            assert 0 in patterns[Pattern(values)]

    def test_count_bounded_by_n_times_2j(self, random_table):
        table = random_table(n_rows=12, n_attributes=3, seed=4)
        assert count_nonempty_patterns(table) <= 12 * 2**3

    def test_too_many_attributes_rejected(self):
        table = PatternTable(
            attributes=[f"D{i}" for i in range(21)],
            rows=[tuple("x" for _ in range(21))],
        )
        with pytest.raises(PatternSpaceError):
            enumerate_nonempty_patterns(table)

    def test_empty_table(self):
        table = PatternTable(("A",), [])
        assert enumerate_nonempty_patterns(table) == {}


class TestCountKernel:
    """``count_nonempty_patterns`` groups coded rows instead of
    enumerating benefit sets; it must count the same patterns."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration_on_random_tables(self, random_table, seed):
        table = random_table(
            n_rows=5 + 7 * seed, n_attributes=1 + seed % 4,
            domain_size=2 + seed, seed=seed,
        )
        assert count_nonempty_patterns(table) == len(
            enumerate_nonempty_patterns(table)
        )

    def test_counts_by_equality_not_repr(self):
        # 1, 1.0 and True are one value; two NaN objects are two.
        table = PatternTable(
            ("A",), [(1,), (1.0,), (True,), (float("nan"),), (float("nan"),)]
        )
        assert count_nonempty_patterns(table) == len(
            enumerate_nonempty_patterns(table)
        ) == 4

    def test_empty_table_counts_zero(self):
        assert count_nonempty_patterns(PatternTable(("A",), [])) == 0

    def test_too_many_attributes_rejected(self):
        table = PatternTable(
            attributes=[f"D{i}" for i in range(21)],
            rows=[tuple("x" for _ in range(21))],
        )
        with pytest.raises(PatternSpaceError):
            count_nonempty_patterns(table)

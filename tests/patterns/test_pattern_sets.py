"""Unit tests for the pattern-table -> SetSystem bridge."""

import pytest

from repro.errors import PatternSpaceError, ValidationError
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.pattern_sets import build_set_system, pattern_of
from repro.patterns.table import PatternTable


class TestBuildSetSystem:
    def test_entities_table2(self, entities, entities_system):
        assert entities_system.n_sets == 24
        assert entities_system.n_elements == 16
        assert entities_system.has_full_cover

    def test_known_costs(self, entities_system):
        by_label = {ws.label: ws for ws in entities_system.sets}
        assert by_label[Pattern(("B", ALL))].cost == 24.0
        assert by_label[Pattern(("B", "South"))].cost == 2.0
        assert by_label[Pattern((ALL, ALL))].cost == 96.0
        assert by_label[Pattern(("A", "East"))].cost == 3.0

    def test_labels_sorted_deterministically(self, entities_system):
        labels = [ws.label for ws in entities_system.sets]
        assert labels == sorted(labels, key=Pattern.sort_key)

    def test_count_cost_without_measure(self):
        table = PatternTable(("A",), [("x",), ("x",), ("y",)])
        system = build_set_system(table, "count")
        by_label = {ws.label: ws for ws in system.sets}
        assert by_label[Pattern(("x",))].cost == 2.0
        assert by_label[Pattern((ALL,))].cost == 3.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            build_set_system(PatternTable(("A",), []))

    def test_pattern_of(self, entities_system):
        assert isinstance(pattern_of(entities_system, 0), Pattern)

    def test_pattern_of_non_pattern_label(self, random_system):
        with pytest.raises(ValidationError):
            pattern_of(random_system(seed=0), 0)


class TestKernelEdgeCases:
    """Cases where a vectorized shortcut would differ from the reference."""

    def test_max_keeps_pythons_signed_zero(self):
        # np.maximum(0.0, -0.0) is -0.0; Python's max keeps the first.
        table = PatternTable(("A",), [("x",), ("x",)], [0.0, -0.0])
        system = build_set_system(table, "max")
        assert [float.hex(ws.cost) for ws in system] == ["0x0.0p+0"] * 2

    def test_max_keeps_pythons_nan_order(self):
        # Python's max skips a NaN that is not iterated first; a
        # segmented numpy maximum would make the all-rows cost NaN.
        table = PatternTable(("A",), [("a",), ("b",)], [1.0, float("nan")])
        with pytest.raises(ValidationError, match="set 2 has invalid cost"):
            build_set_system(table, "max")

    def test_ordinary_columns_skip_the_reference(self, monkeypatch,
                                                 entities):
        import repro.patterns.pattern_sets as pattern_sets

        def fail(*args):
            raise AssertionError("reference path taken")

        monkeypatch.setattr(pattern_sets, "enumerate_nonempty_patterns", fail)
        assert build_set_system(entities, "max").n_sets == 24

    @pytest.mark.parametrize("column", [
        [1, 1.0, True],      # one value, three reprs
        [0.0, -0.0],         # equal, printed differently
        [float("nan"), float("nan")],  # unequal, printed the same
    ])
    def test_odd_columns_take_the_reference(self, monkeypatch, column):
        import repro.patterns.pattern_sets as pattern_sets

        calls = []
        real = pattern_sets.enumerate_nonempty_patterns

        def spy(table):
            calls.append(table)
            return real(table)

        monkeypatch.setattr(pattern_sets, "enumerate_nonempty_patterns", spy)
        rows = [("k", value) for value in column]
        build_set_system(PatternTable(("A", "B"), rows), "count")
        assert len(calls) == 1

    def test_too_many_attributes_rejected(self):
        table = PatternTable(
            attributes=[f"D{i}" for i in range(21)],
            rows=[tuple("x" for _ in range(21))],
        )
        with pytest.raises(PatternSpaceError):
            build_set_system(table, "count")


class TestSeededKeys:
    def test_keys_are_seeded_and_match(self, entities):
        from repro.core.greedy_common import (
            _CANON_CACHE, canonical_key, canonical_keys,
        )

        system = build_set_system(entities, "max")
        assert system in _CANON_CACHE
        assert canonical_keys(system) == tuple(
            canonical_key(ws.label, ws.set_id) for ws in system
        )

    def test_seeded_keys_drop_with_their_system(self, entities):
        import gc
        import weakref

        from repro.core.greedy_common import _CANON_CACHE

        system = build_set_system(entities, "max")
        alive = weakref.ref(system)
        gc.collect()  # so only this system can leave the cache below
        before = len(_CANON_CACHE)
        del system
        gc.collect()
        assert alive() is None
        assert len(_CANON_CACHE) == before - 1

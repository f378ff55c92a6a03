"""Unit tests for the packed-bitset coverage kernel."""

import pytest

from repro.core.bitset import (
    Bitset,
    BitsetUniverse,
    iter_bits,
    mask_table,
    pack_elements,
)
from repro.core.marginal import MarginalTracker, make_tracker, resolve_backend
from repro.core.packed import PackedMarginalTracker
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError


@pytest.fixture
def system() -> SetSystem:
    return SetSystem.from_iterables(
        5,
        benefits=[{0, 1, 2}, {2, 3}, {3, 4}, set(), {0, 1, 2, 3, 4}],
        costs=[3.0, 2.0, 2.0, 1.0, 10.0],
    )


class TestPacking:
    def test_pack_round_trips(self):
        mask = pack_elements(10, [0, 3, 9])
        assert mask == (1 << 0) | (1 << 3) | (1 << 9)
        assert list(iter_bits(mask)) == [0, 3, 9]

    def test_pack_empty(self):
        assert pack_elements(8, []) == 0
        assert pack_elements(0, []) == 0

    def test_pack_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            pack_elements(4, [4])
        with pytest.raises(ValidationError):
            pack_elements(4, [-1])

    def test_iter_bits_ascending(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b1011)) == [0, 1, 3]


class TestBitsetUniverse:
    def test_rejects_negative_universe(self):
        with pytest.raises(ValidationError):
            BitsetUniverse(-1)

    def test_pack_unpack(self):
        universe = BitsetUniverse(6)
        assert universe.unpack(universe.pack({1, 4})) == frozenset({1, 4})

    def test_from_mask_validates(self):
        universe = BitsetUniverse(3)
        assert universe.from_mask(0b101).to_frozenset() == frozenset({0, 2})
        with pytest.raises(ValidationError):
            universe.from_mask(1 << 3)


class TestBitsetOps:
    def setup_method(self):
        self.universe = BitsetUniverse(8)
        self.a = self.universe.bitset({0, 1, 2})
        self.b = self.universe.bitset({2, 3})

    def test_set_algebra(self):
        assert (self.a & self.b).to_frozenset() == frozenset({2})
        assert (self.a | self.b).to_frozenset() == frozenset({0, 1, 2, 3})
        assert (self.a - self.b).to_frozenset() == frozenset({0, 1})

    def test_len_bool_contains_iter(self):
        assert len(self.a) == 3
        assert bool(self.a) and not bool(self.universe.bitset())
        assert 1 in self.a and 3 not in self.a
        assert list(self.a) == [0, 1, 2]

    def test_subset_and_disjoint(self):
        whole = self.universe.bitset({0, 1, 2, 3})
        assert self.a.issubset(whole) and self.a <= whole
        assert not whole.issubset(self.a)
        assert self.a.isdisjoint(self.universe.bitset({5, 6}))
        assert not self.a.isdisjoint(self.b)

    def test_eq_and_hash(self):
        twin = self.universe.bitset({2, 1, 0})
        assert self.a == twin and hash(self.a) == hash(twin)
        assert self.a != self.b

    def test_cross_universe_rejected(self):
        other = BitsetUniverse(9).bitset({1})
        with pytest.raises(ValidationError):
            _ = self.a & other
        with pytest.raises(TypeError):
            _ = self.a | {1}


class TestMaskTable:
    def test_masks_match_benefits(self, system):
        table = mask_table(system)
        for ws in system.sets:
            assert table.universe.unpack(table.masks[ws.set_id]) == ws.benefit
            assert table.sizes[ws.set_id] == ws.size

    def test_cached_per_system(self, system):
        assert mask_table(system) is mask_table(system)

    def test_coverage_of(self, system):
        table = mask_table(system)
        assert table.coverage_of([0, 1]) == 4
        assert table.coverage_of([]) == 0

    def test_full_union(self, system):
        table = mask_table(system)
        assert table.full_union() == table.union_mask(range(system.n_sets))
        assert table.full_union() is table.full_union()


class TestBackendResolution:
    def test_explicit_argument_wins(self, system):
        assert resolve_backend(system, "set") == "set"
        assert resolve_backend(system, "packed") == "packed"

    def test_auto_by_instance_size(self, system):
        """``auto`` is packed whatever the instance size."""
        big = SetSystem.from_iterables(1 << 16, benefits=[{0}], costs=[1.0])
        for instance in (system, big):
            assert resolve_backend(instance) == "packed"
            assert resolve_backend(instance, "auto") == "packed"

    def test_unknown_backend_rejected(self, system):
        for name in ("quantum", "bitset"):
            with pytest.raises(ValidationError):
                resolve_backend(system, name)

    def test_make_tracker_types(self, system):
        assert isinstance(
            make_tracker(system, backend="set"), MarginalTracker
        )
        assert isinstance(make_tracker(system), PackedMarginalTracker)

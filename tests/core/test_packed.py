"""Unit tests for the packed columnar kernel (:mod:`repro.core.packed`)
and the backend registry in :mod:`repro.core.marginal`."""

import random

import pytest

from repro.core.bitset import mask_table
from repro.core.marginal import MarginalTracker, resolve_backend
from repro.core.packed import HAVE_NUMPY
from repro.core.result import Metrics
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError

pytestmark = pytest.mark.skipif(
    not HAVE_NUMPY, reason="packed backend requires numpy >= 2.0"
)

if HAVE_NUMPY:
    import numpy as np

    from repro.core.budget import standard_levels
    from repro.core.packed import (
        PackedLayout,
        PackedMarginalTracker,
        assign_levels,
        cached_layout,
        packed_layout,
        shard_layout,
    )


def random_system(rng: random.Random, n_elements: int = 130) -> SetSystem:
    benefits = [
        {rng.randrange(n_elements) for _ in range(rng.randrange(1, 25))}
        for _ in range(rng.randrange(3, 30))
    ]
    benefits.append(set())  # an always-dead set
    costs = [round(rng.uniform(0.5, 9.0), 2) for _ in benefits]
    return SetSystem.from_iterables(n_elements, benefits, costs)


@pytest.fixture
def system() -> SetSystem:
    return SetSystem.from_iterables(
        130,
        benefits=[
            {0, 1, 2, 64, 65},
            {2, 3, 127, 128, 129},
            set(range(60, 70)),
            set(),
            set(range(130)),
        ],
        costs=[3.0, 2.0, 2.0, 1.0, 10.0],
    )


class TestPackedLayout:
    def test_coverage_matches_mask_table(self, system):
        layout = PackedLayout.build(system)
        table = mask_table(system)
        for ids in ([], [0], [0, 1], [0, 1, 2, 4], [3]):
            assert layout.coverage_of(ids) == table.coverage_of(ids)

    def test_elements_roundtrip(self, system):
        layout = PackedLayout.build(system)
        for ws in system.sets:
            got = set(int(e) for e in layout.elements_of(ws.set_id))
            assert got == set(ws.benefit)

    def test_dense_and_csr_forms_agree(self, system):
        dense = PackedLayout.build(system, dense_byte_cap=1 << 30)
        csr = PackedLayout.build(system, dense_byte_cap=0)
        assert dense.dense is not None and csr.dense is None
        for ws in system.sets:
            assert np.array_equal(
                dense.row_words(ws.set_id), csr.row_words(ws.set_id)
            )
        assert np.array_equal(dense.sizes, csr.sizes)

    def test_dense_and_csr_trackers_agree_on_random_systems(self):
        rng = random.Random(20)
        for _ in range(15):
            system = random_system(rng)
            dense = PackedMarginalTracker(
                system, layout=PackedLayout.build(system, 1 << 30)
            )
            csr = PackedMarginalTracker(
                system, layout=PackedLayout.build(system, 0)
            )
            for _ in range(4):
                live = dense.live_ids
                if not live:
                    break
                set_id = rng.choice(live)
                assert dense.select(set_id) == csr.select(set_id)
                assert dense.live_items() == csr.live_items()

    def test_layout_cache_reused_and_lazy(self, system):
        assert cached_layout(system) is None  # no build on probe
        layout = packed_layout(system)
        assert packed_layout(system) is layout
        assert cached_layout(system) is layout


class TestShardLayout:
    def test_shards_partition_sizes(self, system):
        full = packed_layout(system)
        parts = [shard_layout(system, 0, 64), shard_layout(system, 64, 130)]
        summed = sum(part.sizes for part in parts)
        assert np.array_equal(summed, full.sizes)

    def test_word_interior_boundary_masks(self, system):
        # A boundary inside a word must mask, not duplicate, elements.
        lo_part = shard_layout(system, 0, 100)
        hi_part = shard_layout(system, 100, 130)
        full = packed_layout(system)
        assert np.array_equal(
            lo_part.sizes + hi_part.sizes, full.sizes
        )
        for ws in system.sets:
            lo_els = {int(e) for e in lo_part.elements_of(ws.set_id)}
            assert lo_els == {e for e in ws.benefit if e < 100}

    def test_empty_shard_is_legal_and_exhausted(self, system):
        empty = shard_layout(system, 130, 130)
        assert int(empty.sizes.sum()) == 0
        tracker = PackedMarginalTracker(system, layout=empty)
        assert tracker.live_ids == []

    def test_shard_with_no_owning_sets(self):
        # Elements 200..255 appear in no set: that shard starts fully
        # dead but must still answer selects with zero deltas.
        system = SetSystem.from_iterables(
            256, benefits=[{0, 1}, {2}], costs=[1.0, 1.0]
        )
        shard = shard_layout(system, 192, 256)
        tracker = PackedMarginalTracker(system, layout=shard)
        assert tracker.live_ids == []
        newly, ids, overlaps = tracker.select_with_deltas(0)
        assert newly == 0 and ids == [] and overlaps == []


class TestAssignLevels:
    def test_matches_level_of_reference(self):
        rng = random.Random(7)
        scheme = standard_levels(budget=64.0, k=8)
        costs = np.array(
            [rng.uniform(0.01, 80.0) for _ in range(300)] + [64.0, 0.01]
        )
        levels = assign_levels(costs, scheme)
        for cost, level in zip(costs, levels):
            expected = scheme.level_of(float(cost))
            assert level == (-1 if expected is None else expected)


class TestPackedTracker:
    @pytest.fixture
    def small(self) -> SetSystem:
        return SetSystem.from_iterables(
            5,
            benefits=[{0, 1, 2}, {2, 3}, {3, 4}, set(), {0, 1, 2, 3, 4}],
            costs=[3.0, 2.0, 2.0, 1.0, 10.0],
        )

    def test_mirrors_set_tracker(self, small):
        packed_tracker = PackedMarginalTracker(small)
        set_tracker = MarginalTracker(small)
        assert packed_tracker.live_ids == set_tracker.live_ids
        assert packed_tracker.select(1) == set_tracker.select(1)
        assert packed_tracker.covered == set_tracker.covered
        assert dict(packed_tracker.live_items()) == dict(
            set_tracker.live_items()
        )
        assert packed_tracker.marginal_benefit(0) == frozenset({0, 1})

    def test_select_evicted_returns_zero(self, small):
        tracker = PackedMarginalTracker(small)
        tracker.select(4)  # covers everything; all others evicted
        assert len(tracker) == 0
        assert tracker.select(0) == 0
        assert tracker.covered_count == 5

    def test_exhaustion_counts_match_set_backend(self, small):
        """Selecting the full-cover set evicts every candidate at once;
        its update total must equal the per-element walk's."""
        packed_metrics, set_metrics = Metrics(), Metrics()
        PackedMarginalTracker(small, metrics=packed_metrics).select(4)
        MarginalTracker(small, metrics=set_metrics).select(4)
        assert (
            packed_metrics.marginal_updates == set_metrics.marginal_updates
        )

    def test_restrict_to(self, small):
        tracker = PackedMarginalTracker(small, restrict_to=[0, 1, 3])
        assert tracker.live_ids == [0, 1]

    def test_drop_and_reset(self, small):
        tracker = PackedMarginalTracker(small)
        tracker.drop(0)
        assert 0 not in tracker
        tracker.reset()
        assert 0 in tracker and tracker.covered_count == 0


class TestSelectWithDeltas:
    def test_deltas_mirror_tracker_state(self, system):
        tracker = PackedMarginalTracker(system)
        before = dict(tracker.live_items())
        newly, ids, overlaps = tracker.select_with_deltas(0)
        assert newly == 5
        after = dict(tracker.live_items())
        for set_id, overlap in zip(ids, overlaps):
            assert before[set_id] - overlap == after.get(set_id, 0)


class TestResolveBackend:
    def _sized_system(self, cells_target: int) -> SetSystem:
        # n_elements * n_sets >= cells_target with tiny actual content.
        n_sets = cells_target // 1024 + 1
        return SetSystem.from_iterables(
            1024,
            benefits=[{i % 1024} for i in range(n_sets)],
            costs=[1.0] * n_sets,
        )

    # The three auto tests keep the names of the old size tiers (set below
    # 2^16 cells, bitset below 2^24, packed above); auto now resolves to
    # the one production kernel in every tier.

    def test_auto_small_picks_set(self):
        system = SetSystem.from_iterables(
            4, benefits=[{0, 1}, {2, 3}], costs=[1.0, 1.0]
        )
        assert resolve_backend(system) == "packed"

    def test_auto_mid_picks_bitset(self):
        system = self._sized_system(1 << 16)
        assert system.n_elements * system.n_sets < 1 << 24
        assert resolve_backend(system) == "packed"

    def test_auto_large_picks_packed(self):
        system = self._sized_system(1 << 24)
        assert resolve_backend(system) == "packed"

    def test_packed_without_numpy_is_an_error(self, monkeypatch):
        import repro.core.packed as packed

        monkeypatch.setattr(packed, "HAVE_NUMPY", False)
        with pytest.raises(ValidationError):
            resolve_backend(self._sized_system(1), "packed")

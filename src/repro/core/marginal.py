"""Marginal-benefit bookkeeping shared by the greedy algorithms.

The paper's algorithms repeatedly need, for every remaining candidate set
``s``, the marginal benefit ``MBen(s, S)`` — the elements of ``Ben(s)`` not
yet covered by the partial solution ``S``. A naive implementation recomputes
``Ben(s) \\ covered`` for every set after every selection (the loops in
Fig. 1 lines 24–27 and Fig. 2 lines 12–15).

Two interchangeable trackers implement the bookkeeping:

* :class:`~repro.core.packed.PackedMarginalTracker` — the production
  kernel (:mod:`repro.core.packed`): benefits live in a
  ``(n_sets, ceil(n/64))`` ``uint64`` matrix (dense or CSR-blocked by
  density), selection updates are vectorized gather/AND/popcount
  passes with no per-set Python, and the solvers use its vectorized
  argmax helpers instead of scanning ``live_items()``. Requires
  numpy >= 2.0 (``np.bitwise_count``).
* :class:`MarginalTracker` — the readable reference oracle: a static
  inverted index ``element -> sets containing it`` plus per-set
  marginal *counts*, so selecting a set only touches the sets that
  actually intersect it (the standard lazy implementation of greedy
  set cover).

Both produce **identical selections and identical metrics counters** —
property-tested in ``tests/property/test_props_bitset.py`` — so
:func:`make_tracker` always builds the production kernel unless its
``backend`` argument asks for the oracle (see docs/PERFORMANCE.md).

CMC restarts from scratch for every budget guess ``B``; :meth:`reset`
supports that without rebuilding the static structures.
"""

from __future__ import annotations

from typing import Iterable, Literal

from repro._typing import ElementId, SetId
from repro.core.result import Metrics
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError
from repro.obs import trace as obs_trace

TrackerBackend = Literal["auto", "set", "packed"]

#: Backend names accepted by :func:`resolve_backend`.
KNOWN_BACKENDS = ("auto", "set", "packed")

#: The kernel ``auto`` resolves to, on every system.
PRODUCTION_BACKEND = "packed"


class MarginalTracker:
    """Tracks ``|MBen(s, S)|`` for every live candidate set.

    Parameters
    ----------
    system:
        The set system whose candidates are tracked.
    restrict_to:
        Optional subset of set ids to track; defaults to all sets.
    metrics:
        Optional shared :class:`Metrics` to account work into.

    Notes
    -----
    Sets whose marginal benefit drops to zero are evicted automatically,
    matching Fig. 1 lines 26–27 / Fig. 2 lines 14–15. Empty sets are never
    live.
    """

    backend_name = "set"

    def __init__(
        self,
        system: SetSystem,
        restrict_to: Iterable[SetId] | None = None,
        metrics: Metrics | None = None,
    ) -> None:
        self._system = system
        self._metrics = metrics if metrics is not None else Metrics()
        ids = range(system.n_sets) if restrict_to is None else list(restrict_to)
        self._tracked: list[SetId] = [
            set_id for set_id in ids if system[set_id].benefit
        ]
        # Static structures, shared across reset() rounds.
        self._element_to_sets: dict[ElementId, tuple[SetId, ...]] = {}
        owners: dict[ElementId, list[SetId]] = {}
        for set_id in self._tracked:
            for element in system[set_id].benefit:
                owners.setdefault(element, []).append(set_id)
        self._element_to_sets = {
            element: tuple(ids) for element, ids in owners.items()
        }
        # Mutable per-round state.
        self._mben_count: dict[SetId, int] = {}
        self._covered: set[ElementId] = set()
        self.reset()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Restore the empty-solution state (new CMC budget round).

        Counts every live set as considered again, matching the paper's
        note that CMC's "patterns considered" sums over budget rounds.
        """
        self._mben_count = {
            set_id: self._system[set_id].size for set_id in self._tracked
        }
        self._covered = set()
        self._metrics.sets_considered += len(self._tracked)

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> Metrics:
        """The metrics object this tracker accounts work into."""
        return self._metrics

    @property
    def covered(self) -> frozenset[ElementId]:
        """Elements covered by all selections so far this round."""
        return frozenset(self._covered)

    @property
    def covered_count(self) -> int:
        """``|covered|`` without copying."""
        return len(self._covered)

    @property
    def live_ids(self) -> list[SetId]:
        """Ids of sets with non-empty marginal benefit, ascending."""
        return sorted(self._mben_count)

    def live_items(self) -> list[tuple[SetId, int]]:
        """``(set_id, |MBen|)`` pairs for all live sets, unordered."""
        return list(self._mben_count.items())

    def __contains__(self, set_id: SetId) -> bool:
        return set_id in self._mben_count

    def __len__(self) -> int:
        return len(self._mben_count)

    def marginal_size(self, set_id: SetId) -> int:
        """``|MBen(s, S)|`` for a live set; 0 for an evicted one."""
        return self._mben_count.get(set_id, 0)

    def marginal_benefit(self, set_id: SetId) -> frozenset[ElementId]:
        """A snapshot of ``MBen(s, S)``, materialized on demand."""
        if set_id not in self._mben_count:
            return frozenset()
        return frozenset(
            self._system[set_id].benefit - self._covered
        )

    def marginal_gain(self, set_id: SetId) -> float:
        """``MGain(s, S) = |MBen(s, S)| / Cost(s)``."""
        size = self.marginal_size(set_id)
        cost = self._system[set_id].cost
        if cost == 0:
            return float("inf") if size else 0.0
        return size / cost

    def drop(self, set_id: SetId) -> None:
        """Remove a set from consideration without selecting it."""
        self._mben_count.pop(set_id, None)

    def select(self, set_id: SetId) -> int:
        """Mark a set as chosen; returns the number of newly covered elements.

        Decrements the marginal count of every intersecting candidate and
        evicts candidates whose marginal benefit becomes empty.
        """
        self._mben_count.pop(set_id, None)
        self._metrics.selections += 1
        newly = [
            element
            for element in self._system[set_id].benefit
            if element not in self._covered
        ]
        counts = self._mben_count
        updates = 0
        for element in newly:
            self._covered.add(element)
            for other in self._element_to_sets.get(element, ()):
                remaining = counts.get(other)
                if remaining is None:
                    continue
                updates += 1
                if remaining == 1:
                    del counts[other]
                else:
                    counts[other] = remaining - 1
        self._metrics.marginal_updates += updates
        if obs_trace.enabled():
            obs_trace.event(
                "tracker_update",
                backend="set",
                strategy="inverted",
                set_id=set_id,
                newly_covered=len(newly),
                updates=updates,
                live=len(counts),
            )
        return len(newly)


def resolve_backend(
    system: SetSystem, backend: TrackerBackend | None = None
) -> str:
    """Resolve ``backend`` to ``"set"`` or ``"packed"``.

    ``None`` and ``"auto"`` give :data:`PRODUCTION_BACKEND` on every
    system; ``"set"`` asks for the reference oracle. ``"packed"``
    without a capable numpy raises
    :class:`~repro.errors.ValidationError` rather than importing lazily
    and crashing mid-solve.
    """
    choice = backend or "auto"
    if choice not in KNOWN_BACKENDS:
        raise ValidationError(
            f"unknown tracker backend {choice!r}; "
            f"expected one of {', '.join(repr(b) for b in KNOWN_BACKENDS)}"
        )
    if choice == "set":
        return choice
    from repro.core.packed import HAVE_NUMPY

    if not HAVE_NUMPY:
        raise ValidationError(
            "tracker backend 'packed' requires numpy >= 2.0 "
            "(np.bitwise_count); use 'set' instead"
        )
    return PRODUCTION_BACKEND


def make_tracker(
    system: SetSystem,
    restrict_to: Iterable[SetId] | None = None,
    metrics: Metrics | None = None,
    backend: TrackerBackend | None = None,
):
    """Build the marginal tracker for a system, choosing the backend.

    See :func:`resolve_backend` for the selection rules. Both backends
    yield identical selections and metrics; only speed differs.
    """
    if resolve_backend(system, backend) == "set":
        return MarginalTracker(
            system, restrict_to=restrict_to, metrics=metrics
        )
    from repro.core.packed import PackedMarginalTracker

    return PackedMarginalTracker(
        system, restrict_to=restrict_to, metrics=metrics
    )

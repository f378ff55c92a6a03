"""Deterministic tie-breaking shared by every greedy selection step.

The paper notes (end of Section V-C1) that the optimized pattern algorithms
choose exactly the same sets as their unoptimized counterparts *provided
both break ties the same way*. We therefore centralize tie-breaking so the
equivalence is testable:

* benefit-greedy steps (CMC) order by larger ``|MBen|``, then smaller cost,
  then smaller canonical key;
* gain-greedy steps (CWSC, WSC, BMC) order by larger ``MGain``, then larger
  ``|MBen|``, then smaller cost, then smaller canonical key.

The canonical key of a set is ``(repr(label), set_id)`` so that systems
built from the same patterns in a different id order still tie-break
identically.
"""

from __future__ import annotations

import weakref
from typing import Callable, Hashable, Iterable, TypeVar

from repro._typing import Cost, SetId

K = TypeVar("K")


def canonical_key(label: Hashable, set_id: SetId) -> tuple:
    """Stable final tie-breaker for a candidate set.

    Labels exposing a ``sort_key()`` (patterns, or the raw value tuples
    the optimized algorithms use via
    :func:`repro.patterns.pattern.values_sort_key`) are ordered by it so
    that the optimized and unoptimized algorithms agree on ties; other
    labels fall back to ``repr``. Labels within one system must be
    homogeneous (all with ``sort_key`` or none).
    """
    sort_key = getattr(label, "sort_key", None)
    if sort_key is not None:
        return (sort_key(), set_id)
    return (repr(label), set_id)


#: Canonical keys per system: building one key calls ``sort_key()`` (or
#: ``repr``), which dominates argmax scans on large systems, yet the key
#: of a set never changes. Weak keys so a dropped system drops its keys.
_CANON_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def canonical_keys(system) -> tuple[tuple, ...]:
    """``canonical_keys(system)[set_id]`` — cached per-set tie-break keys.

    Equal to ``canonical_key(ws.label, ws.set_id)`` for every set of the
    system, computed once per system and shared by every solver run
    against it (CMC rebuilds its heaps each budget round; CWSC scans all
    candidates each pick).
    """
    try:
        keys = _CANON_CACHE.get(system)
    except TypeError:  # unhashable/unweakrefable stand-in: build fresh
        keys = None
    if keys is not None:
        return keys
    keys = tuple(
        canonical_key(ws.label, ws.set_id) for ws in system.sets
    )
    try:
        _CANON_CACHE[system] = keys
    except TypeError:  # pragma: no cover - stand-in objects only
        pass
    return keys


def seed_canonical_keys(system, keys: tuple[tuple, ...]) -> None:
    """Install keys a builder computed while constructing ``system``.

    ``keys[set_id]`` must equal ``canonical_key(ws.label, ws.set_id)``;
    the next :func:`canonical_keys` call then returns them without a
    ``sort_key()`` pass. The cache holds the system weakly, so the keys
    are dropped with it.
    """
    _CANON_CACHE[system] = keys


def argbest(
    candidates: Iterable[K],
    key: Callable[[K], tuple],
) -> K | None:
    """Return the candidate with the lexicographically largest key.

    ``None`` when ``candidates`` is empty. Keys must be built so that
    "better" compares greater; invert ascending criteria (cost, canonical
    key) by negating or nesting, as the helpers below do.
    """
    best: K | None = None
    best_key: tuple | None = None
    for candidate in candidates:
        candidate_key = key(candidate)
        if best_key is None or candidate_key > best_key:
            best = candidate
            best_key = candidate_key
    return best


class _Descending:
    """Wraps a value so that a *smaller* value compares as *better*.

    Python tuples compare lexicographically with ``>`` meaning better in
    :func:`argbest`, so ascending criteria are wrapped in this inverter.
    Works for any totally ordered payload (floats, strings, tuples).
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other: "_Descending") -> bool:
        return self.value > other.value

    def __gt__(self, other: "_Descending") -> bool:
        return self.value < other.value

    def __eq__(self, other) -> bool:
        return isinstance(other, _Descending) and self.value == other.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Descending({self.value!r})"


def benefit_key(
    mben_size: int,
    cost: Cost,
    label: Hashable,
    set_id: SetId,
    canon_key: tuple | None = None,
) -> tuple:
    """Ordering key for benefit-greedy steps (CMC, max coverage).

    Pass ``canon_key`` (from :func:`canonical_keys`) to skip recomputing
    the tie-breaker; it must equal ``canonical_key(label, set_id)``.
    """
    if canon_key is None:
        canon_key = canonical_key(label, set_id)
    return (
        mben_size,
        _Descending(cost),
        _Descending(canon_key),
    )


def gain_key(
    gain: float,
    mben_size: int,
    cost: Cost,
    label: Hashable,
    set_id: SetId,
    canon_key: tuple | None = None,
) -> tuple:
    """Ordering key for gain-greedy steps (CWSC, WSC, BMC).

    Pass ``canon_key`` (from :func:`canonical_keys`) to skip recomputing
    the tie-breaker; it must equal ``canonical_key(label, set_id)``.
    """
    if canon_key is None:
        canon_key = canonical_key(label, set_id)
    return (
        gain,
        mben_size,
        _Descending(cost),
        _Descending(canon_key),
    )

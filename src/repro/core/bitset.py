"""Packed-bitset coverage kernel.

Every hot loop in this library — marginal-benefit updates, dominance
subset tests, coverage recomputation — reduces to operations on sets of
dense element ids. Python ``frozenset`` makes those loops pay per
*element*; this module packs an element set into an arbitrary-precision
``int`` bitmask (bit ``e`` set iff element ``e`` is in the set) so the
same operations run per *machine word* inside CPython's C core:

========================  =======================================
set operation             bitmask equivalent
========================  =======================================
``len(a)``                ``a.bit_count()``
``a <= b`` (subset)       ``a & ~b == 0``
``a | b``, ``a & b``      ``a | b``, ``a & b``
``a - covered``           ``a & ~covered``
``|Ben(s) \\ covered|``    ``(ben & ~covered).bit_count()``
========================  =======================================

The kernel has three layers:

* :class:`BitsetUniverse` — a fixed element universe ``[0, n)`` that
  packs/unpacks iterables to masks;
* :class:`Bitset` — an immutable, set-like view over one mask (the
  friendly API; the hot paths use raw ``int`` masks directly);
* :func:`mask_table` — a lazily-built, weakly-cached table of benefit
  masks for a :class:`~repro.core.setsystem.SetSystem`, shared by every
  solver run against that system (CMC rebuilds its tracker each budget
  round; the masks are built exactly once).

Nothing here imports :mod:`repro.core.setsystem` — the table builder
duck-types ``system.n_elements`` / ``system.sets`` — so the set system
itself can delegate :meth:`~repro.core.setsystem.SetSystem.coverage_of`
to this kernel without an import cycle.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator

from repro._typing import ElementId
from repro.errors import ValidationError

__all__ = [
    "Bitset",
    "BitsetUniverse",
    "MaskTable",
    "iter_bits",
    "mask_table",
    "pack_elements",
]


def pack_elements(n_elements: int, elements: Iterable[ElementId]) -> int:
    """Pack an iterable of element ids from ``[0, n)`` into a bitmask.

    Builds the mask through a ``bytearray`` so packing costs O(1) per
    element plus one ``int.from_bytes`` conversion, instead of one
    O(n/64) big-int shift per element.
    """
    buf = bytearray((n_elements + 7) >> 3)
    for element in elements:
        if not (0 <= element < n_elements):
            raise ValidationError(
                f"element {element!r} outside universe [0, {n_elements})"
            )
        buf[element >> 3] |= 1 << (element & 7)
    return int.from_bytes(buf, "little")


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BitsetUniverse:
    """A fixed element universe ``[0, n)`` for packing and unpacking.

    The universe owns the conversion between element iterables and
    masks; :class:`Bitset` instances carry a reference back to it so
    they can refuse cross-universe operations.
    """

    __slots__ = ("n_elements", "full_mask", "__weakref__")

    def __init__(self, n_elements: int) -> None:
        if n_elements < 0:
            raise ValidationError(
                f"n_elements must be >= 0, got {n_elements}"
            )
        self.n_elements = n_elements
        self.full_mask = (1 << n_elements) - 1

    def pack(self, elements: Iterable[ElementId]) -> int:
        """Elements to a raw mask (validating against the universe)."""
        return pack_elements(self.n_elements, elements)

    def unpack(self, mask: int) -> frozenset[ElementId]:
        """A raw mask back to a ``frozenset`` of element ids."""
        return frozenset(iter_bits(mask))

    def bitset(self, elements: Iterable[ElementId] = ()) -> "Bitset":
        """A :class:`Bitset` over this universe from an iterable."""
        return Bitset(self, self.pack(elements))

    def from_mask(self, mask: int) -> "Bitset":
        """A :class:`Bitset` wrapping an existing raw mask."""
        if mask & ~self.full_mask:
            raise ValidationError(
                f"mask has bits outside universe [0, {self.n_elements})"
            )
        return Bitset(self, mask)

    def __repr__(self) -> str:
        return f"BitsetUniverse(n_elements={self.n_elements})"


class Bitset:
    """An immutable set of element ids backed by one packed mask.

    Supports the set operators the solvers need (``& | - <= ==``, len,
    iteration, membership). Operations across different universes raise
    :class:`~repro.errors.ValidationError` rather than silently mixing
    incompatible bit layouts.
    """

    __slots__ = ("universe", "mask")

    def __init__(self, universe: BitsetUniverse, mask: int) -> None:
        self.universe = universe
        self.mask = mask

    def _coerce(self, other: "Bitset") -> int:
        if not isinstance(other, Bitset):
            raise TypeError(
                f"expected a Bitset, got {type(other).__name__}"
            )
        if other.universe.n_elements != self.universe.n_elements:
            raise ValidationError(
                "cannot combine bitsets over different universes "
                f"({self.universe.n_elements} vs "
                f"{other.universe.n_elements} elements)"
            )
        return other.mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, element: ElementId) -> bool:
        return 0 <= element < self.universe.n_elements and bool(
            (self.mask >> element) & 1
        )

    def __iter__(self) -> Iterator[ElementId]:
        return iter_bits(self.mask)

    def __and__(self, other: "Bitset") -> "Bitset":
        return Bitset(self.universe, self.mask & self._coerce(other))

    def __or__(self, other: "Bitset") -> "Bitset":
        return Bitset(self.universe, self.mask | self._coerce(other))

    def __sub__(self, other: "Bitset") -> "Bitset":
        return Bitset(self.universe, self.mask & ~self._coerce(other))

    def __le__(self, other: "Bitset") -> bool:
        return self.mask & ~self._coerce(other) == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bitset)
            and other.universe.n_elements == self.universe.n_elements
            and other.mask == self.mask
        )

    def __hash__(self) -> int:
        return hash((self.universe.n_elements, self.mask))

    def issubset(self, other: "Bitset") -> bool:
        """Whether every element of this set is in ``other``."""
        return self <= other

    def isdisjoint(self, other: "Bitset") -> bool:
        """Whether the two sets share no element."""
        return self.mask & self._coerce(other) == 0

    def to_frozenset(self) -> frozenset[ElementId]:
        """Materialize the element ids as a ``frozenset``."""
        return self.universe.unpack(self.mask)

    def __repr__(self) -> str:
        return f"Bitset({sorted(iter_bits(self.mask))!r})"


class MaskTable:
    """Benefit masks for every set of one set system, in set-id order.

    Attributes
    ----------
    universe:
        The :class:`BitsetUniverse` of the system's elements.
    masks:
        ``masks[set_id]`` is the packed ``Ben(set_id)``.
    sizes:
        ``sizes[set_id] == masks[set_id].bit_count()``, precomputed
        because tracker resets need every cardinality anyway.
    """

    __slots__ = ("universe", "masks", "sizes", "_full_union")

    def __init__(
        self, universe: BitsetUniverse, masks: tuple[int, ...]
    ) -> None:
        self.universe = universe
        self.masks = masks
        self.sizes = tuple(mask.bit_count() for mask in masks)
        self._full_union: int | None = None

    def full_union(self) -> int:
        """Packed union of *every* set's benefit, computed once.

        Trackers use it as an exhaustion test: once the covered mask
        swallows this union, no set has any marginal benefit left.
        """
        union = self._full_union
        if union is None:
            union = self._full_union = self.union_mask(range(len(self.masks)))
        return union

    def union_mask(self, set_ids: Iterable[int]) -> int:
        """Packed union of the benefits of a collection of sets."""
        covered = 0
        masks = self.masks
        for set_id in set_ids:
            covered |= masks[set_id]
        return covered

    def coverage_of(self, set_ids: Iterable[int]) -> int:
        """``|union of benefits|`` for a collection of sets."""
        return self.union_mask(set_ids).bit_count()


#: One table per live SetSystem. Weak keys: dropping the system drops
#: its masks. Systems are immutable, so a cached table never goes stale.
_TABLE_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

def mask_table(system) -> MaskTable:
    """The (cached) :class:`MaskTable` of a set system.

    Accepts any object with ``n_elements`` and ``sets`` (each set
    exposing ``benefit``); in practice a
    :class:`~repro.core.setsystem.SetSystem`. The first call packs every
    benefit set; later calls — including from other solvers, other
    budget rounds, or :meth:`SetSystem.coverage_of` — return the same
    table.
    """
    try:
        table = _TABLE_CACHE.get(system)
    except TypeError:  # unhashable/unweakrefable stand-in: build fresh
        table = None
    if table is not None:
        return table
    n = system.n_elements
    universe = BitsetUniverse(n)
    masks = tuple(pack_elements(n, ws.benefit) for ws in system.sets)
    table = MaskTable(universe, masks)
    try:
        _TABLE_CACHE[system] = table
    except TypeError:  # pragma: no cover - stand-in objects only
        pass
    return table

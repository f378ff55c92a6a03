"""Full enumeration of the non-empty patterns of a table.

The *unoptimized* algorithms of the paper operate on the complete pattern
collection (Table II of the running example lists all 24 patterns of the
16-row entities table). Every non-empty pattern is a generalization of at
least one record, so enumerating the ``2^j`` generalization masks of each
record visits exactly the non-empty patterns — there are at most
``n * 2^j`` of them, far fewer than the syntactic space
``prod(|dom| + 1)``.

Two implementations live here:

* :func:`enumerate_nonempty_patterns` walks the ``n * 2^j`` row/mask pairs
  with Python tuple keys. It is the readable reference oracle, and the
  path for columns whose values ``repr`` cannot order (see
  :func:`repr_ranked_column`).
* :func:`group_masked_codes` is the vectorized kernel behind
  :func:`count_nonempty_patterns` and
  :func:`~repro.patterns.pattern_sets.build_set_system`: each attribute
  column is coded as small integers (``ALL`` is 0), the ``2^j`` masked
  copies of the code matrix are stacked, and one ``np.lexsort`` groups
  equal rows — every group is one non-empty pattern.
"""

from __future__ import annotations

from itertools import combinations
from typing import Hashable, NamedTuple, Sequence

import numpy as np

from repro.errors import PatternSpaceError
from repro.patterns.pattern import ALL, Pattern
from repro.patterns.table import PatternTable

#: Enumeration materializes ``n * 2^j`` pattern/row pairs; beyond this many
#: attributes that blows up no matter how small the table is.
MAX_ENUMERABLE_ATTRIBUTES = 20


def check_enumerable(table: PatternTable) -> None:
    """Raise :class:`PatternSpaceError` when a table has too many attributes
    to enumerate."""
    j = table.n_attributes
    if j > MAX_ENUMERABLE_ATTRIBUTES:
        raise PatternSpaceError(
            f"enumerating patterns over {j} attributes would touch "
            f"n * 2^{j} pattern/row pairs; restructure the table or use "
            "the optimized (lattice-pruned) algorithms"
        )


def enumerate_nonempty_patterns(
    table: PatternTable,
) -> dict[Pattern, frozenset[int]]:
    """Map every non-empty pattern of the table to its benefit set.

    Includes the all-wildcards pattern whenever the table has rows, so a
    set system built from the result always has a full-coverage set (the
    paper's feasibility assumption).

    Raises
    ------
    PatternSpaceError
        If the table has more than :data:`MAX_ENUMERABLE_ATTRIBUTES`
        pattern attributes.
    """
    check_enumerable(table)
    masks = _generalization_masks(table.n_attributes)
    accumulator: dict[tuple, list[int]] = {}
    for row_id, row in enumerate(table.rows):
        for mask in masks:
            key = tuple(
                row[i] if keep else ALL for i, keep in enumerate(mask)
            )
            accumulator.setdefault(key, []).append(row_id)
    return {
        Pattern(values): frozenset(rows)
        for values, rows in accumulator.items()
    }


def _generalization_masks(j: int) -> list[tuple[bool, ...]]:
    """All ``2^j`` keep/wildcard masks, most-general first.

    Ordering is irrelevant to correctness; most-general-first makes the
    accumulator's insertion order stable for debugging.
    """
    masks: list[tuple[bool, ...]] = []
    for kept in range(j + 1):
        for keep_positions in combinations(range(j), kept):
            mask = tuple(i in keep_positions for i in range(j))
            masks.append(mask)
    return masks


class RankedColumn(NamedTuple):
    """One attribute column coded in :meth:`Pattern.sort_key` order.

    ``codes[row]`` is ``1 +`` the rank of the row's value among the
    column's distinct values sorted by ``repr``; code 0 stands for
    ``ALL``. ``values[code]`` and ``key_parts[code]`` are the pattern
    value and its :func:`~repro.patterns.pattern.values_sort_key` part.
    """

    codes: list[int]
    values: list
    key_parts: list[tuple[int, str]]


def repr_ranked_column(column: Sequence[Hashable]) -> RankedColumn | None:
    """Code a column so integer order equals ``values_sort_key`` order.

    Values are grouped by equality, exactly as the reference
    accumulator's tuple keys group them. ``None`` when ``repr`` does not
    name those groups one-to-one — two unequal values share a ``repr``
    (distinct NaN objects, objects with a constant ``repr``), or equal
    values print differently (``1``, ``1.0`` and ``True``; ``0.0`` and
    ``-0.0``). Such a column has no integer coding that reproduces the
    reference's labels and order, so the caller must use the reference
    path.
    """
    reprs = list(map(repr, column))
    value_of = dict(zip(reprs, column))
    n_classes = len(dict.fromkeys(column))
    if not (len(value_of) == n_classes == len(set(zip(column, reprs)))):
        return None
    ranked = sorted(value_of)
    code_of = {text: code for code, text in enumerate(ranked, 1)}
    return RankedColumn(
        codes=list(map(code_of.__getitem__, reprs)),
        values=[ALL] + [value_of[text] for text in ranked],
        key_parts=[(0, "")] + [(1, text) for text in ranked],
    )


def equality_coded_column(column: Sequence[Hashable]) -> list[int]:
    """Code a column by value equality alone (``1 + first-seen index``).

    Enough to count patterns, whose order does not matter.
    """
    classes: dict = {}
    return [classes.setdefault(value, len(classes) + 1) for value in column]


def code_matrix(columns: Sequence[Sequence[int]]) -> np.ndarray:
    """Stack per-column codes into an ``n x j`` matrix of the smallest
    unsigned dtype that holds them."""
    dtype = np.min_scalar_type(max(max(codes) for codes in columns))
    return np.array(columns, dtype=dtype).T


class PatternGroups(NamedTuple):
    """The non-empty patterns of a coded table, in code order.

    Group ``g`` is the pattern ``codes[starts[g]]``; it covers the rows
    ``rows[starts[g]:ends[g]]``, in ascending order.
    """

    codes: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    ends: np.ndarray


def group_masked_codes(codes: np.ndarray) -> PatternGroups:
    """Group the ``n * 2^j`` masked copies of an ``n x j`` code matrix.

    Copy ``m`` zeroes (wildcards) the columns whose bit is clear in
    ``m``. One ``np.lexsort`` over the code columns (first column most
    significant) and then the row id puts equal patterns next to each
    other, in lexicographic code order, with each group's rows ascending.
    """
    n, j = codes.shape
    keep = (np.arange(1 << j)[:, None] >> np.arange(j)) & 1
    stacked = codes[None, :, :] * keep[:, None, :].astype(codes.dtype)
    stacked = stacked.reshape(-1, j)
    row_ids = np.tile(np.arange(n), 1 << j)
    order = np.lexsort(
        [row_ids] + [stacked[:, column] for column in range(j - 1, -1, -1)]
    )
    ordered = stacked[order]
    boundary = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    starts = np.concatenate(([0], boundary))
    ends = np.concatenate((boundary, [len(ordered)]))
    return PatternGroups(ordered, row_ids[order], starts, ends)


def count_nonempty_patterns(table: PatternTable) -> int:
    """Number of distinct non-empty patterns (Table II's row count)."""
    check_enumerable(table)
    if table.n_rows == 0:
        return 0
    columns = [equality_coded_column(column) for column in zip(*table.rows)]
    return len(group_masked_codes(code_matrix(columns)).starts)

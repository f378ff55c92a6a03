"""Bridge from pattern tables to the core :class:`SetSystem`.

The unoptimized algorithms of the paper treat the patterns of a table as an
ordinary weighted set collection. :func:`build_set_system` enumerates every
non-empty pattern, computes its cost with the chosen cost function, and
packs the result into a :class:`~repro.core.SetSystem` whose labels are the
patterns themselves (sorted by :meth:`Pattern.sort_key` so set ids are
deterministic).

The build runs on the integer-coded grouping kernel of
:mod:`repro.patterns.enumerate`: every column is coded in ``repr`` order
(``ALL`` first), so the lexicographic order of the grouped code rows *is*
the ``sort_key`` order and set ids fall out of the grouping with no sort
over patterns. The canonical tie-break keys are assembled from per-column
key parts in the same pass and seeded into the
:func:`~repro.core.greedy_common.canonical_keys` cache. A table with a
column that ``repr`` cannot order (see
:func:`~repro.patterns.enumerate.repr_ranked_column`) takes the reference
path instead: :func:`~repro.patterns.enumerate.enumerate_nonempty_patterns`
plus a ``sort_key`` sort, which is also the oracle the kernel is tested
against.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.greedy_common import seed_canonical_keys
from repro.core.setsystem import SetSystem
from repro.errors import ValidationError
from repro.patterns.costs import (
    COUNT_COST,
    MAX_COST,
    CostFunction,
    get_cost_function,
)
from repro.patterns.enumerate import (
    PatternGroups,
    check_enumerable,
    code_matrix,
    enumerate_nonempty_patterns,
    group_masked_codes,
    repr_ranked_column,
)
from repro.patterns.pattern import Pattern
from repro.patterns.table import PatternTable


def build_set_system(
    table: PatternTable,
    cost: "str | CostFunction" = "max",
) -> SetSystem:
    """Materialize the full patterned set system of a table.

    Parameters
    ----------
    table:
        The record table. Must be non-empty — an empty table has no
        all-wildcards cover and Definition 1's feasibility assumption
        fails.
    cost:
        Cost function name or instance (default ``"max"``, as in the
        paper's running example).

    Returns
    -------
    SetSystem
        One weighted set per non-empty pattern; ``label`` is the
        :class:`Pattern`.
    """
    if table.n_rows == 0:
        raise ValidationError("cannot build a set system from an empty table")
    cost_fn = get_cost_function(cost)
    bound = cost_fn.bind(table)
    check_enumerable(table)
    columns = [repr_ranked_column(column) for column in zip(*table.rows)]
    if any(column is None for column in columns):
        return _build_from_enumeration(table, bound)

    groups = group_masked_codes(code_matrix([c.codes for c in columns]))
    rows = groups.rows.tolist()
    benefits = [
        frozenset(rows[start:end])
        for start, end in zip(groups.starts.tolist(), groups.ends.tolist())
    ]
    heads = groups.codes[groups.starts].T.tolist()
    labels = list(map(Pattern, zip(*(
        map(column.values.__getitem__, codes)
        for column, codes in zip(columns, heads)
    ))))
    sort_keys = zip(*(
        map(column.key_parts.__getitem__, codes)
        for column, codes in zip(columns, heads)
    ))
    keys = tuple(zip(sort_keys, range(len(labels))))
    costs = _group_costs(table, cost_fn, bound, groups, benefits)
    system = SetSystem.from_iterables(
        table.n_rows, benefits, costs, labels=labels
    )
    seed_canonical_keys(system, keys)
    return system


def _group_costs(
    table: PatternTable,
    cost_fn: CostFunction,
    bound: Callable[[Iterable[int]], float],
    groups: PatternGroups,
    benefits: list[frozenset[int]],
) -> list[float]:
    """Cost of every group, vectorized where that is bit-identical.

    ``count`` is the group length. ``max`` is a segmented maximum unless
    the measure holds a NaN or a negative zero: Python's ``max`` keeps
    the first of tied zeros and skips a NaN it does not meet first, so
    its answer depends on iteration order, and numpy's does not. Every
    other cost function is called on the benefit set, as the reference
    path does, so sums keep their summation order.
    """
    if cost_fn is COUNT_COST:
        return (groups.ends - groups.starts).astype(float).tolist()
    if cost_fn is MAX_COST:
        measure = np.asarray(table.measure, dtype=float)
        if not (np.isnan(measure).any()
                or (np.signbit(measure) & (measure == 0)).any()):
            return np.maximum.reduceat(
                measure[groups.rows], groups.starts
            ).tolist()
    return list(map(bound, benefits))


def _build_from_enumeration(
    table: PatternTable,
    bound: Callable[[Iterable[int]], float],
) -> SetSystem:
    """Reference build: enumerate, then sort patterns by ``sort_key``."""
    patterns = enumerate_nonempty_patterns(table)
    ordered = sorted(patterns, key=Pattern.sort_key)
    benefits = [patterns[pattern] for pattern in ordered]
    costs = [bound(patterns[pattern]) for pattern in ordered]
    return SetSystem.from_iterables(
        table.n_rows, benefits, costs, labels=ordered
    )


def pattern_of(system: SetSystem, set_id: int) -> Pattern:
    """The pattern labeling a set of a pattern-derived system."""
    label = system[set_id].label
    if not isinstance(label, Pattern):
        raise ValidationError(
            f"set {set_id} of this system is not labeled with a Pattern"
        )
    return label

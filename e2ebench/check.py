"""Independent answer checks, in benchmark code only.

``repro.verify_result`` may change under a later version of the program,
so every answer is also recomputed here from the benchmark's own copy
of the instance: coverage, set count and total cost, against the
requested ``k``/``s`` or the relaxation the answering solver documents.
"""

from __future__ import annotations

import math

import numpy as np

#: CMC targets (1 - 1/e) of the requested coverage (Theorem 4).
CMC_COVERAGE = 1.0 - 1.0 / math.e


def envelope(algorithm: str, k: int, s_hat: float) -> tuple[int | None, float]:
    """(largest set count, least coverage fraction) a solver promises.

    CMC may use up to ``5k`` sets for ``(1 - 1/e) s`` coverage; LP
    rounding may exceed ``k`` by design; every other solver (and the
    universal fallback) answers within ``k`` sets at full ``s``.
    """
    if algorithm in ("cmc", "cmc_epsilon"):
        return 5 * k, CMC_COVERAGE * s_hat
    if algorithm == "lp_rounding":
        return None, s_hat
    return k, s_hat


def _compare(claimed_cost, claimed_covered, claimed_sets, cost, covered,
             n_sets, n_elements, algorithm, k, s_hat) -> list[str]:
    problems = []
    if not math.isclose(claimed_cost, cost, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"claimed cost {claimed_cost} != recomputed {cost}")
    if claimed_covered != covered:
        problems.append(
            f"claimed coverage {claimed_covered} != recomputed {covered}")
    if claimed_sets != n_sets:
        problems.append(f"{claimed_sets} set ids but {n_sets} distinct sets")
    max_sets, fraction = envelope(algorithm, k, s_hat)
    if max_sets is not None and n_sets > max_sets:
        problems.append(f"{algorithm}: {n_sets} sets exceed {max_sets}")
    if covered < fraction * n_elements - 1e-9:
        problems.append(
            f"{algorithm}: covers {covered} of {n_elements}, needs "
            f"{fraction * n_elements:.3f}")
    return [f"{algorithm} k={k} s={s_hat}: {p}" for p in problems]


def check_table_answer(index, result, k: int, s_hat: float,
                       wildcard) -> list[str]:
    """Check a pattern answer against the table it was computed from.

    Coverage is the number of rows matching any chosen pattern; cost is
    the sum over chosen patterns of the largest ``duration`` among the
    rows each matches (the paper's ``max`` cost).
    """
    covered = np.zeros(index.n_rows, dtype=bool)
    cost = 0.0
    patterns = {tuple(label.values) for label in result.labels}
    for values in patterns:
        rows = index.rows_of(values, wildcard)
        if not rows.any():
            return [f"{result.algorithm}: pattern {values!r} matches no row"]
        covered |= rows
        cost += float(index.measure[rows].max())
    return _compare(
        result.total_cost, result.covered, len(result.set_ids), cost,
        int(covered.sum()), len(patterns), index.n_rows, result.algorithm,
        k, s_hat,
    )


def check_wire_answer(system_payload: dict, answer: dict, k: int,
                      s_hat: float) -> list[str]:
    """Check a served answer against the system payload that was sent."""
    sets = system_payload["sets"]
    n_elements = int(system_payload["n"])
    chosen = answer["set_ids"]
    if any(not 0 <= set_id < len(sets) for set_id in chosen):
        return [f"{answer['algorithm']}: set id outside the system"]
    distinct = set(chosen)
    covered: set = set()
    for set_id in distinct:
        covered.update(sets[set_id][0])
    cost = sum(sets[set_id][1] for set_id in distinct)
    return _compare(
        answer["total_cost"], answer["covered"], len(chosen), cost,
        len(covered), len(distinct), n_elements, answer["algorithm"],
        k, s_hat,
    )

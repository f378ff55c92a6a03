"""Tests of the benchmark's own inputs and answer checks.

Run from the repository root::

    python3 -m pytest e2ebench/test_inputs.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from check import check_table_answer, check_wire_answer  # noqa: E402
from inputs import ATTRIBUTES, TableIndex, lbl_rows  # noqa: E402

repro = pytest.importorskip("repro")


@pytest.mark.parametrize("n_rows, seed", [(1, 0), (150, 3), (600, 7), (2_000, 11)])
def test_tables_equal_program_lbl_trace(n_rows, seed):
    from repro.datasets.lbl import lbl_trace

    rows, measure = lbl_rows(n_rows, seed)
    table = lbl_trace(n_rows, seed=seed)
    assert table.attributes == ATTRIBUTES
    assert table.rows == tuple(rows)
    assert table.measure == tuple(measure)


def _solved(n_rows=120, seed=5, k=5, s_hat=0.3):
    rows, measure = lbl_rows(n_rows, seed)
    table = repro.PatternTable(ATTRIBUTES, rows, measure, measure_name="duration")
    system = repro.build_set_system(table, "max")
    return TableIndex(rows, measure), system, repro.cwsc(system, k, s_hat)


def test_table_check_accepts_answers_and_rejects_tampered_claims():
    index, system, result = _solved()
    assert check_table_answer(index, result, 5, 0.3, repro.ALL) == []
    cmc_result = repro.cmc(system, 5, 0.3)
    assert check_table_answer(index, cmc_result, 5, 0.3, repro.ALL) == []
    cheaper = dataclasses.replace(result, total_cost=result.total_cost / 2)
    assert check_table_answer(index, cheaper, 5, 0.3, repro.ALL)
    assert check_table_answer(index, result, result.n_sets - 1, 0.3, repro.ALL)
    assert check_table_answer(index, result, 5, 0.99, repro.ALL)


def test_wire_check_uses_the_sent_payload():
    from repro.resilience.pool.protocol import system_to_payload

    _, system, result = _solved()
    payload = system_to_payload(system)
    answer = result.to_dict()
    assert check_wire_answer(payload, answer, 5, 0.3) == []
    assert check_wire_answer(payload, dict(answer, covered=answer["covered"] + 1),
                             5, 0.3)
    assert check_wire_answer(payload, dict(answer, set_ids=[0] * 2), 5, 0.3)

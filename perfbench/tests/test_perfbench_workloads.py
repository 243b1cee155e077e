"""Seeded inputs: request-sequence generation and the metric contract."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from workloads import (  # noqa: E402
    DISK_HIT,
    MEMORY_CAPACITY,
    MISS,
    MEMORY_HIT,
    PREPOPULATED,
    cached_plan,
    digest,
    gap_panel,
    seeded_order,
)


def test_same_seed_same_plan_other_seed_other_plan():
    first, again, other = cached_plan(3, 400), cached_plan(3, 400), cached_plan(4, 400)
    assert digest(first.all_cases()) == digest(again.all_cases())
    assert first.expected == again.expected
    assert digest(first.all_cases()) != digest(other.all_cases())


def test_plan_mix_and_store_size():
    plan = cached_plan(11, 4000)
    total = len(plan.requests)
    assert total == 4000
    assert plan.expected[MISS] / total == pytest.approx(workloads.NEW_SHARE, abs=0.03)
    assert PREPOPULATED > MEMORY_CAPACITY
    matrices = [case.matrix for case in plan.all_cases()]
    ids = {case.case_id: case.matrix for case in plan.all_cases()}
    assert len(set(matrices)) == len(ids)  # one id per distinct matrix


def test_repeats_are_stored_and_kinds_are_predicted():
    plan = cached_plan(5, 1000)
    assert plan.disk_split_exact
    prepopulated = {case.case_id for case in plan.prepopulated}
    in_memory, introduced = set(), set()
    for request in plan.requests:
        case_id = request.case.case_id
        if case_id in prepopulated:
            kind = MEMORY_HIT if case_id in in_memory else DISK_HIT
        elif case_id in introduced:
            kind = MEMORY_HIT
        else:
            kind = MISS
            introduced.add(case_id)
        assert request.expect == kind
        in_memory.add(case_id)
    counts = {MISS: 0, MEMORY_HIT: 0, DISK_HIT: 0}
    for request in plan.requests:
        counts[request.expect] += 1
    assert counts == plan.expected
    assert min(counts.values()) > 0


def test_gap_panel_is_fixed_and_orders_are_seeded_permutations():
    panel = gap_panel()
    assert digest(panel) == digest(gap_panel())
    assert len({case.case_id for case in panel}) == len(panel) == workloads.GAP_PANEL_SIZE
    assert all(case.matrix.shape == workloads.GAP_SHAPE for case in panel)
    first, other = seeded_order(1, len(panel), "x"), seeded_order(2, len(panel), "x")
    assert sorted(first) == list(range(len(panel)))
    assert first != other and first == seeded_order(1, len(panel), "x")


def test_benchmark_json_names_what_run_prints():
    import run

    with open(BENCH.parent / "BENCHMARK.json") as stream:
        spec = json.load(stream)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])

"""WorkerPool under concurrent load: ordering and cancellation hold.

The pool shares state between the caller, one manager thread per slot
and the member-event drainer.  These tests run more slots than the
host has cores, with a short thread switch interval, and check the
invariants a lost update would break: every task resolves exactly
once, every member event of a task arrives before its result, and a
task cancelled while it waits never runs.
"""

import concurrent.futures
import sys
import threading
from collections import Counter

from repro.benchgen.random_matrices import random_matrix
from repro.service.batch import _solve_payload
from repro.service.pool import WorkerPool
from repro.service.portfolio import result_from_dict

MEMBERS = ("trivial", "packing:2")
TIMEOUT = 60


def _payload(index):
    matrix = random_matrix(5, 6, 0.4, seed=300 + index)
    return (
        f"p{index:02d}",
        matrix.row_masks,
        matrix.num_cols,
        MEMBERS,
        index,
        None,
        None,
        True,
        "sequential",
    )


def _content(result_dict):
    return result_from_dict(result_dict).provenance(include_timing=False)


def test_streaming_tasks_on_more_slots_than_cores():
    payloads = [_payload(i) for i in range(24)]
    lock = threading.Lock()
    members_seen = Counter()
    members_at_result = {}

    def on_member_for(case_id):
        def on_member(outcome):
            with lock:
                members_seen[case_id] += 1

        return on_member

    def on_result_for(case_id):
        def on_result(future):
            with lock:
                members_at_result[case_id] = members_seen[case_id]

        return on_result

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with WorkerPool(3) as pool:
            futures = []
            for payload in payloads:
                future = pool.submit(
                    payload, on_member=on_member_for(payload[0])
                )
                future.add_done_callback(on_result_for(payload[0]))
                futures.append(future)
            done, pending = concurrent.futures.wait(futures, timeout=TIMEOUT)
            assert not pending
            results = [future.result() for future in futures]
    finally:
        sys.setswitchinterval(previous)

    for payload, (result, retried) in zip(payloads, results):
        assert not retried
        assert _content(result) == _content(_solve_payload(payload))
        assert members_at_result[payload[0]] == len(MEMBERS)
    assert sum(members_seen.values()) == len(MEMBERS) * len(payloads)


def test_task_cancelled_while_waiting_never_runs():
    third_members = []
    with WorkerPool(1) as pool:
        first, second = (pool.submit(_payload(i)) for i in range(2))
        third = pool.submit(_payload(2), on_member=third_members.append)
        assert third.cancel()
        for index, future in enumerate((first, second)):
            result, _ = future.result(timeout=TIMEOUT)
            expected = _solve_payload(_payload(index))
            assert _content(result) == _content(expected)
    assert third.cancelled()
    assert third_members == []

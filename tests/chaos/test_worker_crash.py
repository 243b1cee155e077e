"""Worker death mid-batch: the batch finishes, results are identical.

The acceptance contract: with ``FaultPlan(kill_worker_on_case=n)`` a
20-case ``solve_batch`` still returns 20 results — 19 byte-identical to
a fault-free run and exactly one marked ``retried`` (itself
byte-identical in *content*; only the status differs).  The engine's
process executor runs on the same bulkhead pool, so it carries the same
guarantee: exactly the killed case comes back ``retried``.  A case that
kills its worker on both dispatches is a poison pill for either caller.
"""

import asyncio
import time

import pytest

from repro.benchgen.random_matrices import random_matrix
from repro.core.exceptions import SolverError
from repro.server.engine import (
    DONE,
    FAILED,
    WORKER_CRASHED,
    AsyncSolveEngine,
)
from repro.service import faults
from repro.service.batch import (
    STATUS_OK,
    STATUS_RETRIED,
    solve_batch,
)
MEMBERS = ("trivial", "packing:2")


def _content(result):
    """Byte-identity in this repo's sense: provenance minus wall time.

    (The same canonicalization the determinism suite pins — wall-clock
    fields legitimately differ across runs, everything else must not.)
    """
    return result.provenance(include_timing=False)


def _cases(count):
    return [
        (f"c{i:02d}", random_matrix(5, 6, 0.4, seed=100 + i))
        for i in range(count)
    ]


class TestBatchWorkerCrash:
    def test_twenty_case_batch_survives_a_worker_kill(self):
        """The ISSUE 8 acceptance test, verbatim."""
        cases = _cases(20)
        baseline = solve_batch(cases, members=MEMBERS, seed=7, workers=2)
        assert all(r.status == STATUS_OK for r in baseline)

        crashes = []
        with faults.injected(faults.FaultPlan(kill_worker_on_case=11)):
            records = solve_batch(
                cases,
                members=MEMBERS,
                seed=7,
                workers=2,
                on_fault=crashes.append,
            )

        assert len(records) == 20
        assert [r.case_id for r in records] == [c for c, _ in cases]

        retried = [r for r in records if r.status == STATUS_RETRIED]
        assert [r.case_id for r in retried] == ["c11"]
        assert sum(r.status == STATUS_OK for r in records) == 19

        assert len(crashes) == 1
        assert crashes[0]["event"] == WORKER_CRASHED
        assert crashes[0]["case_id"] == "c11"
        assert crashes[0]["will_retry"] is True

        # Byte-identical provenance, crash or no crash: the bulkhead
        # slots isolate the blast radius and per-case seeding makes the
        # retry deterministic.
        expected = {r.case_id: _content(r.result) for r in baseline}
        for record in records:
            assert (
                _content(record.result) == expected[record.case_id]
            ), record.case_id

    def test_kill_plan_never_kills_the_in_process_path(self):
        """``workers=1`` solves in the caller's process; the kill seam
        must refuse to fire there (it would take down the test run)."""
        cases = _cases(3)
        with faults.injected(faults.FaultPlan(kill_worker_on_case="c01")):
            records = solve_batch(cases, members=MEMBERS, seed=7, workers=1)
        assert len(records) == 3
        assert all(r.status == STATUS_OK for r in records)

    def test_out_of_range_kill_index_is_disarmed(self):
        cases = _cases(2)
        with faults.injected(faults.FaultPlan(kill_worker_on_case=99)):
            records = solve_batch(cases, members=MEMBERS, seed=7, workers=2)
        assert all(r.status == STATUS_OK for r in records)


class TestEngineWorkerCrash:
    async def test_process_pool_crash_recovers_all_cases(self):
        """A worker kill costs exactly the case it was running; every
        result comes back byte-identical."""
        cases = _cases(6)

        async with AsyncSolveEngine(
            members=MEMBERS, seed=7, workers=2, executor="process"
        ) as engine:
            baseline = {}
            async for event in engine.stream(cases):
                if event.kind == DONE:
                    baseline[event.case_id] = _content(event.record.result)
        assert len(baseline) == 6

        with faults.injected(faults.FaultPlan(kill_worker_on_case=3)):
            async with AsyncSolveEngine(
                members=MEMBERS, seed=7, workers=2, executor="process"
            ) as engine:
                events = []
                async for event in engine.stream(cases):
                    events.append(event)
                stats = engine.stats()

        crashes = [e for e in events if e.kind == WORKER_CRASHED]
        assert crashes, "no worker_crashed event surfaced"
        done = [e for e in events if e.kind == DONE]
        assert {e.case_id for e in done} == {c for c, _ in cases}

        retried = [e.case_id for e in done if e.retried]
        assert retried == ["c03"]
        assert [e.case_id for e in crashes] == ["c03"]
        assert stats["worker_crashes"] == 1

        for event in done:
            assert (
                _content(event.record.result) == baseline[event.case_id]
            ), event.case_id


class TestPoisonPill:
    """Second crash on the same case: the caller gives up on that case."""

    @pytest.mark.parametrize("caller", ["batch", "engine"])
    def test_second_crash_gives_up(self, caller, monkeypatch):
        # Keep the kill armed across the retry so it fires again.
        monkeypatch.setattr(faults, "disarm", lambda field_name: None)
        cases = _cases(4)
        with faults.injected(faults.FaultPlan(kill_worker_on_case="c02")):
            if caller == "batch":
                with pytest.raises(SolverError, match="'c02'"):
                    solve_batch(cases, members=MEMBERS, seed=7, workers=2)
                return
            events = asyncio.run(_engine_events(cases))

        crashes = [e.case_id for e in events if e.kind == WORKER_CRASHED]
        assert crashes == ["c02", "c02"]
        terminal = {e.case_id: e for e in events if e.terminal}
        assert terminal["c02"].kind == FAILED
        assert "c02" in terminal["c02"].error
        assert {c for c, e in terminal.items() if e.kind == DONE} == {
            "c00",
            "c01",
            "c03",
        }


async def _engine_events(cases):
    async with AsyncSolveEngine(
        members=MEMBERS, seed=7, workers=2, executor="process"
    ) as engine:
        return [event async for event in engine.stream(cases)]


class TestStalePlan:
    async def test_prewarmed_worker_runs_under_the_current_plan(self):
        """Workers started while a plan was installed must not keep it:
        each task runs under the plan active when it was submitted."""
        cases = _cases(1)
        async with AsyncSolveEngine(
            members=MEMBERS, seed=7, executor="process"
        ) as engine:
            with faults.injected(
                faults.FaultPlan(delay_seconds=2.0, delay_site="worker.solve")
            ):
                engine.prewarm()
            start = time.monotonic()
            records = await engine.solve(cases)
            elapsed = time.monotonic() - start
        assert len(records) == 1
        assert elapsed < 1.0


class TestDelaySeam:
    def test_delay_site_stretches_the_worker(self):
        cases = _cases(1)
        start = time.monotonic()
        solve_batch(cases, members=MEMBERS, seed=7)
        fast = time.monotonic() - start

        with faults.injected(
            faults.FaultPlan(delay_seconds=0.3, delay_site="worker.solve")
        ):
            start = time.monotonic()
            solve_batch(cases, members=MEMBERS, seed=7)
            slowed = time.monotonic() - start
        assert slowed >= fast + 0.25

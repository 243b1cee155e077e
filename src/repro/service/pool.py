"""The one worker pool behind every process-parallel solve, with its
crash recovery.

:func:`repro.service.batch.solve_batch` (``workers > 1``) and
``AsyncSolveEngine(executor="process")`` both run on :class:`WorkerPool`,
and only this module knows what a worker death means.  Each slot is its
own single-worker ``ProcessPoolExecutor``, because ``BrokenProcessPool``
poisons the executor it strikes: a death loses only the task its slot
was running.  The task keeps its slot until it resolves; on a death the
slot is respawned, ``on_crash`` hears a ``worker_crashed`` event, and
the task runs once more and resolves ``retried``.  A second death makes
it a poison pill: its future raises :class:`SolverError`.

Workers fork from a fork server that preloaded the solver stack
(:mod:`repro.service.batch`).  Forking the caller would leak its
descriptors into workers (a gateway's accepted sockets: clients would
never see EOF), and spawning costs about half a second per batch.  A
forked worker has the fork server's state, not the caller's, so each
task ships the caller's :func:`repro.service.faults.active` plan for the
worker to install.

Member events travel on a ``multiprocessing.Manager`` queue (a worker
killed mid-``put`` can leave a bare ``multiprocessing.Queue``'s lock
held), started only for callers that pass ``on_member``.  A worker
posts an end-of-stream marker before it returns, and the task's future
resolves only once the drainer has delivered it, so every ``on_member``
call precedes the result.  The wait is bounded and skipped after a
crash, so a dead worker cannot wedge the caller.
"""

from __future__ import annotations

import concurrent.futures
import functools
import itertools
import multiprocessing
import os
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.core.exceptions import SolverError
from repro.service import faults
from repro.service.portfolio import MemberOutcome, outcome_from_dict

WORKER_CRASHED = "worker_crashed"
"""Fault-event kind announcing a worker death (non-terminal)."""

MAX_DISPATCHES_PER_CASE = 2
"""A task may crash its worker once and be retried; a second crash
makes it a poison pill."""

EOF_WAIT_SECONDS = 10.0
"""Upper bound on waiting for a finished task's end-of-stream marker."""

MemberCallback = Callable[[MemberOutcome], None]
CrashCallback = Callable[[Dict[str, Any]], None]


@dataclass
class _Task:
    payload: Tuple[Any, ...]  # payload[0] names the case
    on_member: Optional[MemberCallback]
    on_crash: Optional[CrashCallback]
    future: concurrent.futures.Future = field(
        default_factory=concurrent.futures.Future
    )
    dispatches: int = 0


def _run_task(
    payload: Tuple[Any, ...],
    plan: Optional[faults.FaultPlan],
    events: Any,
    tag: Optional[str],
) -> Any:
    """Worker side: install the shipped fault plan, solve ``payload``
    with :func:`repro.service.batch._solve_payload`, and post
    ``("member", tag, outcome_dict)`` events then ``("eof", tag, None)``
    when the caller streams."""
    from repro.service.batch import _solve_payload  # batch imports us

    if plan is None:
        faults.clear()
    else:
        faults.install(plan)
    if events is None:
        return _solve_payload(payload)

    def post(kind: str, body: Any) -> None:
        try:
            events.put((kind, tag, body))
        # A parent that went away must not kill a solve already paid for.
        # repro-lint: disable=REP007 (vanished parent queue)
        except Exception:
            pass

    try:
        return _solve_payload(
            payload, on_member=lambda out: post("member", out.as_dict())
        )
    finally:
        post("eof", None)


class WorkerPool:
    """``workers`` bulkhead slots solving batch payloads.

    A payload is what :func:`repro.service.batch._solve_payload` takes.
    :meth:`submit` returns a future of ``(result dict, retried)``; it
    raises what the solve raised, or the poison-pill
    :class:`SolverError`.  Tasks start in submission order as slots come
    free.
    """

    def __init__(self, workers: int) -> None:
        self._context = multiprocessing.get_context("forkserver")
        self._context.set_forkserver_preload(["repro.service.batch"])
        self._slots: List[Any] = [None] * workers
        self._lock = threading.Lock()
        self._idle = list(range(workers))
        self._waiting: Deque[_Task] = deque()
        self._closed = False
        self._manager: Any = None
        self._events: Any = None
        self._drainer: Optional[threading.Thread] = None
        self._sinks: Dict[str, Tuple[MemberCallback, threading.Event]] = {}
        self._tags = itertools.count()

    def prewarm(self) -> None:
        """Start the member channel and every slot's worker now, so the
        first request of a long-lived front pays no start-up."""
        self._member_channel()
        slots = [self._slot(index) for index in range(len(self._slots))]
        for started in [slot.submit(os.getpid) for slot in slots]:
            started.result(timeout=60)

    def close(self) -> None:
        """Cancel waiting tasks, let running ones finish, stop every
        process."""
        with self._lock:
            self._closed = True
            waiting, self._waiting = self._waiting, deque()
        for task in waiting:
            task.future.cancel()
        for slot in self._slots:
            if slot is not None:
                slot.shutdown(wait=True)
        self._slots = [None] * len(self._slots)
        if self._manager is not None:
            self._manager.shutdown()  # the drainer's get() ends with it
            self._drainer.join(timeout=5)
            self._manager = self._drainer = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def submit(
        self,
        payload: Tuple[Any, ...],
        *,
        on_member: Optional[MemberCallback] = None,
        on_crash: Optional[CrashCallback] = None,
    ) -> concurrent.futures.Future:
        """Queue one task.  ``on_member`` gets each member outcome live
        (without it no Manager starts); ``on_crash`` gets a
        ``worker_crashed`` event dict per worker death, before the retry
        starts.  Both run on pool threads."""
        task = _Task(payload, on_member, on_crash)
        with self._lock:
            if self._closed:
                raise SolverError("worker pool closed")
            self._waiting.append(task)
            index = self._idle.pop() if self._idle else None
        if index is not None:
            self._next(index)
        return task.future

    def _slot(self, index: int) -> concurrent.futures.ProcessPoolExecutor:
        if self._slots[index] is None:
            self._slots[index] = concurrent.futures.ProcessPoolExecutor(
                max_workers=1, mp_context=self._context
            )
        return self._slots[index]

    def _next(self, index: int) -> None:
        """Hand a free slot to the next waiting task, or park it idle."""
        while True:
            with self._lock:
                if self._closed or not self._waiting:
                    self._idle.append(index)
                    return
                task = self._waiting.popleft()
            # A cancel that arrived while the task waited wins.
            if task.future.set_running_or_notify_cancel():
                self._start(index, task)
                return

    def _start(self, index: int, task: _Task) -> None:
        task.dispatches += 1
        events = tag = None
        if task.on_member is not None:
            events = self._member_channel()
            tag = f"task-{next(self._tags)}"
            self._sinks[tag] = (task.on_member, threading.Event())
        try:
            future = self._slot(index).submit(
                _run_task, task.payload, faults.active(), events, tag
            )
        except RuntimeError as exc:
            # BrokenProcessPool: the worker died while idle, recover as
            # from any crash.  Otherwise a shutdown racing close().
            future = concurrent.futures.Future()
            future.set_exception(exc)
        future.add_done_callback(
            functools.partial(self._finished, index, task, tag)
        )

    def _finished(
        self, index: int, task: _Task, tag: Optional[str], future: Any
    ) -> None:
        error = future.exception()
        crashed = isinstance(
            error, concurrent.futures.process.BrokenProcessPool
        )
        if tag is not None:
            if not crashed:
                self._sinks[tag][1].wait(EOF_WAIT_SECONDS)
            del self._sinks[tag]
        if crashed:
            error = self._crashed(index, task)
            if error is None:
                self._start(index, task)  # on the respawned slot
                return
        if error is None:
            task.future.set_result((future.result(), task.dispatches > 1))
        else:
            task.future.set_exception(error)
        self._next(index)

    def _crashed(self, index: int, task: _Task) -> Optional[BaseException]:
        """Respawn the dead slot and announce the crash; returns ``None``
        to retry the task, or the error that ends it.  The injected
        one-shot kill is disarmed first, so the retry ships without it."""
        faults.disarm("kill_worker_on_case")
        broken, self._slots[index] = self._slots[index], None
        if broken is not None:
            broken.shutdown(wait=False)
        retry = task.dispatches < MAX_DISPATCHES_PER_CASE and not self._closed
        if task.on_crash is not None:
            try:
                task.on_crash(
                    {
                        "event": WORKER_CRASHED,
                        "case_id": task.payload[0],
                        "dispatches": task.dispatches,
                        "will_retry": retry,
                    }
                )
            except Exception as exc:  # the caller's hook failed: the
                return exc  # task fails with its error
        if retry:
            return None
        return SolverError(
            f"case {task.payload[0]!r} crashed its worker "
            f"{task.dispatches} times; giving up (poison-pill instance?)"
        )

    def _member_channel(self) -> Any:
        with self._lock:
            if self._manager is None:
                self._manager = self._context.Manager()
                self._events = self._manager.Queue()
                self._drainer = threading.Thread(
                    target=self._drain,
                    args=(self._events,),
                    name="worker-pool-member-events",
                    daemon=True,
                )
                self._drainer.start()
            return self._events

    def _drain(self, events: Any) -> None:
        while True:
            try:
                kind, tag, payload = events.get()
            except (EOFError, OSError):
                return  # close() shut the manager down
            sink = self._sinks.get(tag)
            if sink is None:
                continue  # straggler from a crashed dispatch
            if kind == "eof":
                sink[1].set()
                continue
            try:
                sink[0](outcome_from_dict(payload))
            except RuntimeError:
                continue  # the caller's event loop already closed

"""Streaming solve server: the traffic-facing layer above the service.

Where :mod:`repro.service` turns one batch into results, this package
turns a *stream of requests* into a *stream of results*:

* :mod:`engine` — :class:`AsyncSolveEngine`, an asyncio front over an
  executor that yields per-instance :class:`SolveEvent` s as they
  complete, with bounded in-flight backpressure and per-instance
  cancellation;
* :mod:`shards` — the result cache's one disk tier: hash-prefix
  shards with ``fcntl`` locking, so concurrent runners on one host
  share a cache safely (``ResultCache.sharded``);
* :mod:`gateway` / :mod:`tenancy` — :class:`SolveGateway`, the one
  front, on TCP (``python -m repro gateway``) or a unix socket
  (``python -m repro serve``): per-tenant identities, priorities and
  rolling compute quotas, priority-aware admission control that
  rejects with ``retry_after`` instead of queueing unboundedly, and a
  ``metrics`` op reporting queue depth, per-tenant usage, cache hit
  rate, and per-solver win rates;
* :mod:`client` — the JSON-lines client (``python -m repro submit`` /
  ``health``) for either bind.

The serving stack is fault-tolerant end to end: the process executor
runs on :class:`repro.service.pool.WorkerPool`, the same bulkhead pool
as ``solve_batch``, so a worker death respawns one slot and
re-dispatches only the case it was running (a ``worker_crashed``
event, then ``done`` marked ``retried``; a second death ends the case
``failed``), corrupt cache shards are quarantined and read cold,
clients retry with :class:`repro.server.client.RetryPolicy` (capped
backoff + jitter, ``retry_after`` hints, reconnect-and-resume),
sustained overload flips the front to heuristic-only *degraded*
serving (``health`` op: ``ready`` / ``degraded`` / ``draining``), and a
vanished client has its in-flight solves cancelled.  The failure-class
-> event-code -> client-behavior table lives in
``docs/failure-semantics.md``; the fault-injection harness driving the
chaos tests is :mod:`repro.service.faults`.
"""

from repro.server.client import (
    ConnectFailed,
    DaemonError,
    RetryPolicy,
    StreamInterrupted,
)
from repro.server.engine import (
    AsyncSolveEngine,
    CANCELLED,
    DONE,
    FAILED,
    MEMBER_FINISHED,
    QUEUED,
    STARTED,
    WORKER_CRASHED,
    SolveEvent,
    TERMINAL_EVENTS,
)
from repro.server.gateway import SolveGateway
from repro.server.shards import ShardedDiskTier, quarantine_file
from repro.server.tenancy import (
    AdmissionController,
    DegradedModeController,
    HEALTH_DEGRADED,
    HEALTH_DRAINING,
    HEALTH_READY,
    RequestRejected,
    ServerMetrics,
    TenantConfig,
    TenantRegistry,
)
from repro.utils.fileio import atomic_write_json, locked_file

__all__ = [
    "AdmissionController",
    "AsyncSolveEngine",
    "CANCELLED",
    "ConnectFailed",
    "DONE",
    "DaemonError",
    "DegradedModeController",
    "FAILED",
    "HEALTH_DEGRADED",
    "HEALTH_DRAINING",
    "HEALTH_READY",
    "MEMBER_FINISHED",
    "QUEUED",
    "RequestRejected",
    "RetryPolicy",
    "STARTED",
    "ServerMetrics",
    "ShardedDiskTier",
    "SolveEvent",
    "SolveGateway",
    "StreamInterrupted",
    "TERMINAL_EVENTS",
    "TenantConfig",
    "TenantRegistry",
    "WORKER_CRASHED",
    "atomic_write_json",
    "locked_file",
    "quarantine_file",
]

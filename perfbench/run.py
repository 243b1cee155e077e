"""The repository's benchmark: one command, three workloads, checked answers.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact-gap --seed 1 --seconds 35 --trace 0

Workloads (inputs come from ``perfbench/workloads.py``):

* ``exact-gap``    closed loop, one in-process caller of
  ``service.batch.solve_batch(workers=1, cache=None)`` over a fixed
  panel of Set-3 gap matrices, visited in seeded order in whole passes;
* ``serve-small``  closed loop, 2 client threads, one single-case
  ``solve`` per connection to a spawned gateway (thread executor,
  1 worker, no cache), cycling through the smoke corpus;
* ``serve-cached`` closed loop, 1 client thread against a gateway with a
  sharded store and the process executor, sending a fixed seeded
  sequence of ``50 * seconds`` requests after set-up pre-populated the
  store.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced phase, then a traced one, each for half of ``--seconds`` (span
wrappers installed from ``perfbench/tracer.py``; in the gateway through
``perfbench/gateway_launcher.py``) and prints the per-layer metrics,
their self times, the uncovered share of wall time and the tracing
overhead.  Every answer is checked; a wrong one makes the run exit 1.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a run record with the
seed, git revision, ``nproc``, Python version, input digest, sample
counts and exact counts goes to ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

WORKLOADS = ("exact-gap", "serve-small", "serve-cached")
SETUP_REPEATS = 3
GATEWAY_SEED = 2024
"""Portfolio seed of the gateway and of the store pre-population (the
gateway's default), so pre-populated entries are the gateway's keys."""

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "depth_sum": "count",
    "optimal_fraction": "ratio",
    "peak_rss_mb": "MiB",
}

SPAN_TIMES: Dict[str, str] = {
    "sat.solver.solve_s": "sat.solver.solve",
    "smt.encoder.build_s": "smt.encoder.build",
    "smt.encoder.narrow_s": "smt.encoder.narrow",
    "smt.oracle.query_s": "smt.oracle.query",
    "solvers.sap.s": "solvers.sap",
    "solvers.row_packing.s": "solvers.row_packing",
    "core.bounds.rank_s": "core.bounds.rank",
    "core.reductions.s": "core.reductions",
    "core.partition.validate_s": "core.partition.validate",
    "service.portfolio.s": "service.portfolio",
    "service.batch.s": "service.batch",
    "service.cache.get_s": "service.cache.get",
    "service.cache.flush_s": "service.cache.flush",
    "server.shards.get_s": "server.shards.get",
    "server.shards.store_s": "server.shards.store",
}
"""Inclusive seconds per layer: metric name -> span name."""

SELF_TIMED = (
    "service.batch",
    "service.portfolio",
    "service.portfolio.member",
    "solvers.sap",
    "solvers.row_packing",
    "core.bounds.rank",
    "core.reductions",
    "smt.oracle.query",
    "smt.encoder.build",
    "smt.encoder.narrow",
    "sat.solver.solve",
    "core.partition.validate",
    "server.gateway.parse_case",
    "service.cache.get",
    "service.cache.flush",
    "server.shards.get",
    "server.shards.store",
)
"""Spans whose self time is reported as ``<span>.self_s``."""

COUNTERS = (
    "sat.solver.calls",
    "sat.solver.conflicts",
    "sat.solver.propagations",
    "sat.solver.decisions",
    "smt.encoder.clauses",
    "smt.encoder.vars",
    "smt.oracle.queries",
    "smt.oracle.unsat_queries",
    "solvers.sap.calls",
    "solvers.row_packing.calls",
    "service.portfolio.members_run",
    "service.portfolio.members_skipped",
)

EVENT_INTERVALS = {
    "server.client.connect_ms": ("began", "connected"),
    "server.gateway.to_queued_ms": ("connected", "queued"),
    "server.engine.queue_wait_ms": ("queued", "started"),
    "server.engine.executor_ms": ("started", "done"),
    "server.engine.drain_ms": ("done", "ended"),
}
"""Client-side medians of the intervals between event arrivals."""


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in SPAN_TIMES:
        units[name] = "s"
    for span in SELF_TIMED:
        units[f"{span}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["sat.solver.propagations_per_s"] = "1/s"
    units["solvers.sap.closed_by_bound_ratio"] = "ratio"
    units["service.portfolio.skip_ratio"] = "ratio"
    for name in EVENT_INTERVALS:
        units[name] = "ms"
    for name in (
        "server.gateway.rejected",
        "server.engine.failed",
        "service.cache.hits",
        "service.cache.disk_hits",
        "service.cache.misses",
        "server.shards.integrity_failures",
        "server.shards.entries",
    ):
        units[name] = "count"
    units["service.cache.hit_ratio"] = "ratio"
    units["server.shards.bytes_used"] = "bytes"
    units["trace.spans"] = "count"
    units["trace.uncovered_share"] = "ratio"
    units["trace.overhead_share"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


# ----------------------------------------------------------------------
# Phase results
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one timed phase measured and what its checks found."""

    latencies: List[float] = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    depths: Dict[str, int] = field(default_factory=dict)
    optimal: Dict[str, bool] = field(default_factory=dict)
    exchanges: List[Any] = field(default_factory=list)
    passes: List[float] = field(default_factory=list)
    """Seconds per whole pass (``exact-gap`` only)."""
    quality: Optional[Tuple[int, float, int]] = None
    """``(depth_sum, optimal_fraction, answers)`` over one pass of the
    inputs, when that is not simply every distinct case once."""
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Cases that failed, were rejected or answered wrongly."""
        return min(self.attempted, len(self.problems))

    def depth_quality(self) -> Tuple[int, float, int]:
        """Depth sum, optimal share and answer count over one pass."""
        if self.quality is not None:
            return self.quality
        return (
            sum(self.depths.values()),
            sum(self.optimal.values()) / len(self.optimal),
            len(self.depths),
        )

    def timing(self) -> Dict[str, Any]:
        """Cases completed per second over the timed phase, and latency
        percentiles over every completed case."""
        from stats import latency_summary

        if not self.latencies:
            raise RuntimeError("no case completed in the timed phase")
        summary = latency_summary(self.latencies)
        summary["cases_per_s"] = len(self.latencies) / self.elapsed
        return summary

    def answer(self, case_id: str, depth: int, optimal: bool) -> None:
        """Record a distinct case's depth; a repeat must match it."""
        known = self.depths.get(case_id)
        if known is None:
            self.depths[case_id] = depth
            self.optimal[case_id] = optimal
        elif known != depth:
            self.problems.append(
                f"{case_id}: depth {depth} differs from earlier {known}"
            )


# ----------------------------------------------------------------------
# exact-gap
# ----------------------------------------------------------------------
def gap_inputs(seed: int):
    from workloads import gap_panel, seeded_order

    panel = gap_panel()
    order = seeded_order(seed, len(panel), "exact-gap")
    return [panel[index] for index in order]


def run_gap(cases, seconds: float, tracer=None) -> Phase:
    """Whole passes over ``cases`` until ``seconds`` have elapsed.

    With a ``tracer`` exactly one pass runs, each call inside a
    ``service.batch`` root span carrying the case id.
    """
    from repro.service.batch import BatchItem, solve_batch

    phase = Phase()
    first_pass: Dict[str, Any] = {}
    clock = time.perf_counter
    began = clock()
    while True:
        pass_began = clock()
        for case in cases:
            item = BatchItem(case.case_id, case.matrix)
            phase.attempted += 1
            span = (
                nullcontext()
                if tracer is None
                else tracer.span("service.batch", case.case_id)
            )
            started = clock()
            with span:
                record = solve_batch([item], workers=1, cache=None)[0]
            phase.latencies.append(clock() - started)
            first_pass.setdefault(case.case_id, record)
            phase.answer(case.case_id, record.depth, record.result.optimal)
        phase.passes.append(clock() - pass_began)
        if tracer is not None or clock() - began >= seconds:
            break
    phase.elapsed = clock() - began
    phase.extra["records"] = first_pass
    return phase


def check_gap(cases, phase: Phase) -> Dict[str, int]:
    """Depth >= the rank lower bound and the partition validates."""
    from repro.core.bounds import rank_lower_bound
    from repro.core.exceptions import InvalidPartitionError

    queries = 0
    for case in cases:
        record = phase.extra["records"][case.case_id]
        lower = rank_lower_bound(case.matrix)
        if record.depth < lower:
            phase.problems.append(
                f"{case.case_id}: depth {record.depth} < rank bound {lower}"
            )
        try:
            record.result.partition.validate(case.matrix)
        except InvalidPartitionError as exc:
            phase.problems.append(f"{case.case_id}: invalid partition: {exc}")
        for outcome in record.result.outcomes:
            if outcome.detail and "queries" in outcome.detail:
                queries += outcome.detail["queries"]
    return {"smt.oracle.queries": queries}


# ----------------------------------------------------------------------
# serve-small / serve-cached: closed-loop clients
# ----------------------------------------------------------------------
def run_clients(port: int, plans: List[Callable[[], Optional[Any]]]) -> Phase:
    """One thread per plan; a plan yields the next case or ``None``."""
    from client import exchange

    phase = Phase()
    results: List[List[Tuple[Any, Any]]] = [[] for _ in plans]
    errors: List[Exception] = []

    def client(index: int) -> None:
        try:
            while True:
                case = plans[index]()
                if case is None:
                    return
                request = {"op": "solve", "cases": [case.wire()]}
                results[index].append((case, exchange(port, request)))
        except Exception as exc:  # re-raised in the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(index,), name=f"client-{index}")
        for index in range(len(plans))
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.elapsed = time.perf_counter() - began
    if errors:
        raise errors[0]
    for client_results in results:
        for case, ex in client_results:
            phase.attempted += 1
            phase.exchanges.append((case, ex))
            if ex.latency_s is None:
                phase.problems.append(f"{case.case_id}: no done event: {ex.terminal}")
            else:
                phase.latencies.append(ex.latency_s)
    return phase


def serve_small_plans(cases, seed: int, seconds: float) -> List[Callable[[], Optional[Any]]]:
    """Both clients draw from one shared sequence: cycle after cycle
    through the corpus, each cycle in its own seeded order."""
    from workloads import CLIENTS, smoke_cycle

    lock = threading.Lock()
    cursor = [0]
    orders: Dict[int, List[int]] = {}
    deadline = time.perf_counter() + seconds

    def next_case():
        if time.perf_counter() >= deadline:
            return None
        with lock:
            cycle, position = divmod(cursor[0], len(cases))
            cursor[0] += 1
            if cycle not in orders:
                orders[cycle] = smoke_cycle(seed, cycle, len(cases))
            return cases[orders[cycle][position]]

    return [next_case] * CLIENTS


def check_small(phase: Phase, expected: Dict[str, int]) -> None:
    for case, ex in phase.exchanges:
        done = ex.event("done")
        if done is None:
            continue
        depth = done.get("depth")
        if depth != expected[case.case_id]:
            phase.problems.append(
                f"{case.case_id}: depth {depth} != baseline {expected[case.case_id]}"
            )
        optimal = bool(done.get("provenance", {}).get("optimal"))
        phase.answer(case.case_id, depth, optimal)


def cached_plans(plan) -> List[Callable[[], Optional[Any]]]:
    """One client walking the plan's request sequence."""
    position = iter([request.case for request in plan.requests])
    return [lambda: next(position, None)]


def check_cached(
    phase: Phase, prepopulated: Dict[str, int], plan, gateway_disk_hits: float
) -> Dict[str, int]:
    """Every answer repeats the matrix's first answer (the pre-populated
    one, or the gateway's own first one); a first answer lies between
    the matrix's rank lower bound and its row count.  The hits and
    misses the client saw must be the plan's, and so must the gateway's
    disk hits when the plan predicts them exactly: a workload whose
    repeats stopped hitting the store would otherwise measure misses."""
    from repro.core.bounds import rank_lower_bound
    from workloads import DISK_HIT, MEMORY_HIT, MISS

    observed = {"hits": 0, "misses": 0}
    depth_total = optimal_total = 0
    for case, ex in phase.exchanges:
        done = ex.event("done")
        if done is None:
            continue
        depth = done.get("depth")
        optimal = bool(done.get("provenance", {}).get("optimal"))
        depth_total += depth
        optimal_total += optimal
        observed["hits" if done.get("from_cache") else "misses"] += 1
        first = prepopulated.get(case.case_id, phase.depths.get(case.case_id))
        if first is None:
            lower = rank_lower_bound(case.matrix)
            if not lower <= depth <= case.matrix.num_rows:
                phase.problems.append(
                    f"{case.case_id}: depth {depth} outside "
                    f"[{lower}, {case.matrix.num_rows}]"
                )
        elif depth != first:
            phase.problems.append(
                f"{case.case_id}: depth {depth} != first answer {first}"
            )
        phase.depths.setdefault(case.case_id, depth)
        phase.optimal.setdefault(case.case_id, optimal)
    answered = observed["hits"] + observed["misses"]
    phase.quality = (
        depth_total, optimal_total / answered if answered else 0.0, answered
    )
    predicted = plan.expected
    expected_hits = predicted[MEMORY_HIT] + predicted[DISK_HIT]
    if (observed["hits"], observed["misses"]) != (expected_hits, predicted[MISS]):
        phase.problems.append(
            f"cache: {observed['hits']} hits and {observed['misses']} misses, "
            f"plan predicts {expected_hits} and {predicted[MISS]}"
        )
    if plan.disk_split_exact and gateway_disk_hits != predicted[DISK_HIT]:
        phase.problems.append(
            f"cache: {gateway_disk_hits:g} disk hits, plan predicts "
            f"{predicted[DISK_HIT]}"
        )
    return observed


# ----------------------------------------------------------------------
# Set-up (each repeat in a fresh interpreter, so imports count)
# ----------------------------------------------------------------------
def prepare_inputs(workload: str, seed: int, seconds: float, workdir: Optional[Path]):
    """Import the workload's stack, build its inputs, and for
    ``serve-cached`` pre-populate the store under ``workdir``."""
    import repro.service.batch  # noqa: F401  (the stack every workload drives)
    from workloads import (
        REQUESTS_PER_RUN_SECOND,
        cached_plan,
        digest,
        smoke_cases,
        smoke_digest,
    )

    if workload == "exact-gap":
        cases = gap_inputs(seed)
        return {"digest": digest(cases)}, cases
    if workload == "serve-small":
        cases, expected = smoke_cases(ROOT)
        return {"digest": smoke_digest(cases, seed)}, (cases, expected)
    plan = cached_plan(seed, int(round(REQUESTS_PER_RUN_SECOND * seconds)))
    info = {"digest": digest(plan.all_cases())}
    if workdir is not None:
        from repro.service.batch import BatchItem, solve_batch
        from repro.service.cache import ResultCache

        store = ResultCache.sharded(workdir / "store")
        records = solve_batch(
            [BatchItem(c.case_id, c.matrix) for c in plan.prepopulated],
            seed=GATEWAY_SEED,
            cache=store,
        )
        answers = {record.case_id: record.depth for record in records}
        with open(workdir / "prepopulated.json", "w") as stream:
            json.dump(answers, stream, sort_keys=True)
    return info, plan


def gateway_args(workload: str, workdir: Path) -> List[str]:
    args = ["--workers", "1", "--seed", str(GATEWAY_SEED)]
    if workload == "serve-cached":
        return args + ["--executor", "process", "--cache-dir", str(workdir / "store")]
    return args + ["--executor", "thread"]


def setup_once(args, workdir: Path, *, traced_spans: Optional[Path] = None):
    """One timed set-up: a fresh interpreter builds the inputs (and the
    store), then for ``serve-*`` a gateway is spawned and pinged.
    Returns ``(seconds, digest, gateway or None)``."""
    from client import Gateway

    workdir.mkdir(parents=True, exist_ok=True)
    began = time.perf_counter()
    child = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--setup-only",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.phase_seconds),
            "--workdir", str(workdir),
        ],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed: {child.stderr.strip()[-2000:]}")
    info = json.loads(child.stdout.strip().splitlines()[-1])
    gateway = None
    if args.workload != "exact-gap":
        launcher = None
        if traced_spans is not None:
            launcher = [str(HERE / "gateway_launcher.py"), str(traced_spans)]
        gateway = Gateway(
            ROOT,
            workdir,
            gateway_args(args.workload, workdir),
            launcher=launcher,
        )
        try:
            gateway.wait_ready()
        except BaseException:
            gateway.stop()
            raise
    return time.perf_counter() - began, info["digest"], gateway


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end_metrics(phase: Phase, setup_s: List[float], rss_mb: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    timing = phase.timing()
    depth_sum, optimal_fraction, answers = phase.depth_quality()
    values = {
        "setup_s": statistics.median(setup_s),
        "cases_per_s": timing["cases_per_s"],
        "depth_sum": float(depth_sum),
        "optimal_fraction": optimal_fraction,
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": len(setup_s),
        "cases_per_s": timing["samples"],
        "latency": timing,
        "depth_sum": answers,
        "optimal_fraction": answers,
    }
    return values, samples


def span_metrics(spans, counters: Dict[str, float]) -> Dict[str, float]:
    from tracer import layer_totals

    totals = layer_totals(spans)
    values: Dict[str, float] = {}
    for metric, span in SPAN_TIMES.items():
        values[metric] = totals.get(span, {}).get("s", 0.0)
    for span in SELF_TIMED:
        values[f"{span}.self_s"] = totals.get(span, {}).get("self_s", 0.0)
    for name in COUNTERS:
        values[name] = float(counters.get(name, 0))
    solve_s = values["sat.solver.solve_s"]
    values["sat.solver.propagations_per_s"] = (
        values["sat.solver.propagations"] / solve_s if solve_s else 0.0
    )
    sap_calls = counters.get("solvers.sap.calls", 0)
    values["solvers.sap.closed_by_bound_ratio"] = (
        counters.get("solvers.sap.closed_by_bound", 0) / sap_calls if sap_calls else 0.0
    )
    listed = counters.get("service.portfolio.members_listed", 0)
    values["service.portfolio.skip_ratio"] = (
        counters.get("service.portfolio.members_skipped", 0) / listed if listed else 0.0
    )
    values["trace.spans"] = float(len(spans))
    return values


def event_metrics(phase: Phase) -> Tuple[Dict[str, float], Dict[str, int]]:
    values: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    for metric, (first, second) in EVENT_INTERVALS.items():
        intervals = []
        for _, ex in phase.exchanges:
            stamps = dict(ex.stamps, began=ex.began, connected=ex.connected, ended=ex.ended)
            if first in stamps and second in stamps:
                intervals.append((stamps[second] - stamps[first]) * 1e3)
        values[metric] = statistics.median(intervals) if intervals else 0.0
        samples[metric] = len(intervals)
    return values, samples


def gateway_counters(metrics: Dict[str, Any], store_entries: int) -> Dict[str, float]:
    cache = metrics["engine"].get("cache", {})
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    return {
        "server.gateway.rejected": float(metrics["requests"]["rejected"]),
        "server.engine.failed": float(metrics["engine"]["failed"]),
        "service.cache.hits": float(hits),
        "service.cache.disk_hits": float(cache.get("disk_hits", 0)),
        "service.cache.misses": float(misses),
        "service.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.shards.integrity_failures": float(cache.get("integrity_failures", 0)),
        "server.shards.bytes_used": float(cache.get("bytes_used", 0)),
        "server.shards.entries": float(store_entries),
    }


def store_entries(workdir: Path) -> int:
    store = workdir / "store"
    if not store.is_dir():
        return 0
    from repro.server.shards import ShardedDiskTier

    return ShardedDiskTier(store).entry_count()


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


class Run:
    def __init__(self, args) -> None:
        self.args = args
        self.workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.gateways: List[Any] = []
        self.record: Dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "phase_seconds": args.phase_seconds,
            "trace": args.trace,
            "git_rev": git_revision(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }

    # -- set-up --------------------------------------------------------
    def setup(self) -> Optional[Any]:
        """``SETUP_REPEATS`` timed set-ups; the last one's gateway stays."""
        times: List[float] = []
        digests = set()
        gateway = None
        for repeat in range(SETUP_REPEATS):
            directory = self.workdir / f"setup-{repeat}"
            seconds, digest, gateway = setup_once(self.args, directory)
            times.append(seconds)
            digests.add(digest)
            if gateway is not None:
                self.gateways.append(gateway)
                if repeat < SETUP_REPEATS - 1:
                    gateway.stop()
                    self.gateways.remove(gateway)
        self.setup_times = times
        self.store_dir = self.workdir / f"setup-{SETUP_REPEATS - 1}"
        self.record["setup_s"] = times
        if len(digests) != 1:
            raise RuntimeError(f"set-up repeats built different inputs: {digests}")
        self.record["input_digest"] = digests.pop()
        return gateway

    def local_inputs(self):
        info, inputs = prepare_inputs(
            self.args.workload, self.args.seed, self.args.phase_seconds, None
        )
        if info["digest"] != self.record["input_digest"]:
            raise RuntimeError("in-process inputs differ from set-up inputs")
        return inputs

    # -- workloads -----------------------------------------------------
    def exact_gap(self) -> Tuple[Phase, float, Dict[str, float]]:
        self.setup()
        cases = self.local_inputs()
        phase = run_gap(cases, self.args.phase_seconds)
        import resource

        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        exact = check_gap(cases, phase)
        self.record["pass_seconds"] = phase.passes
        layers: Dict[str, float] = {}
        if self.args.trace:
            layers = self.trace_gap(cases, phase, exact)
        depth_sum, optimal_fraction, _ = phase.depth_quality()
        self.record["exact"] = {
            "depth_sum": depth_sum,
            "optimal_fraction": optimal_fraction,
            **exact,
        }
        if self.args.trace:
            self.record["exact"]["sat.solver.conflicts"] = layers["sat.solver.conflicts"]
        return phase, rss_mb, layers

    def trace_gap(self, cases, untraced: Phase, exact: Dict[str, int]) -> Dict[str, float]:
        from tracer import Tracer, install_solver_layers, uncovered_share

        from repro.service import batch

        tracer = Tracer()
        install_solver_layers(tracer, batch)
        try:
            traced = run_gap(cases, 0.0, tracer=tracer)
        finally:
            tracer.uninstall()
        spans = tracer.spans
        tracer.dump(str(WORK / f"spans-{self.args.workload}-seed{self.args.seed}.json"))
        layers = span_metrics(spans, tracer.counters)
        if layers["smt.oracle.queries"] != exact["smt.oracle.queries"]:
            untraced.problems.append(
                "traced pass ran a different number of oracle queries"
            )
        for case_id, depth in traced.depths.items():
            if untraced.depths.get(case_id) != depth:
                untraced.problems.append(f"{case_id}: traced depth differs")
        # The benchmark's own service.batch spans are the only roots; the
        # share of their time outside every program span is uncovered.
        roots = [(s.start, s.end) for s in spans if s.parent is None]
        layers["trace.uncovered_share"] = uncovered_share(
            roots, (s for s in spans if s.parent is not None)
        )
        untraced_pass = statistics.median(untraced.passes)
        layers["trace.overhead_share"] = traced.elapsed / untraced_pass - 1.0
        self.record["traced_pass_s"] = traced.elapsed
        return layers

    def serve(self) -> Tuple[Phase, float, Dict[str, float]]:
        gateway = self.setup()
        inputs = self.local_inputs()
        phase, rss_mb, counters = self.serve_phase(gateway, inputs, self.store_dir)
        self.record["gateway_counters"] = counters
        layers: Dict[str, float] = {}
        if self.args.trace:
            layers = self.trace_serve(inputs, phase)
        depth_sum, optimal_fraction, _ = phase.depth_quality()
        self.record["exact"] = {
            "depth_sum": depth_sum,
            "optimal_fraction": optimal_fraction,
        }
        if self.args.workload == "serve-cached":
            self.record["exact"].update(
                {
                    "hits": counters["service.cache.hits"],
                    "misses": counters["service.cache.misses"],
                    "disk_hits": counters["service.cache.disk_hits"],
                }
            )
        return phase, rss_mb, layers

    def serve_phase(self, gateway, inputs, store_dir: Path) -> Tuple[Phase, float, Dict[str, float]]:
        if self.args.workload == "serve-small":
            cases, expected = inputs
            plans = serve_small_plans(cases, self.args.seed, self.args.phase_seconds)
            phase = run_clients(gateway.port, plans)
        else:
            plan = inputs
            phase = run_clients(gateway.port, cached_plans(plan))
        metrics = gateway.metrics()
        rss_mb = gateway.peak_rss_mb()
        gateway.stop()
        self.gateways.remove(gateway)
        counters = gateway_counters(metrics, store_entries(store_dir))
        if self.args.workload == "serve-small":
            check_small(phase, expected)
        else:
            with open(store_dir / "prepopulated.json") as stream:
                prepopulated = json.load(stream)
            observed = check_cached(
                phase, prepopulated, plan, counters["service.cache.disk_hits"]
            )
            self.record["cache_prediction"] = {
                "expected": plan.expected,
                "observed": observed,
                "disk_split_exact": plan.disk_split_exact,
                "touched": plan.touched,
            }
        return phase, rss_mb, counters

    def trace_serve(self, inputs, untraced: Phase) -> Dict[str, float]:
        from tracer import load_dump, uncovered_share

        spans_path = WORK / f"spans-{self.args.workload}-seed{self.args.seed}.json"
        directory = self.workdir / "traced"
        _, _, gateway = setup_once(self.args, directory, traced_spans=spans_path)
        self.gateways.append(gateway)
        traced, _, counters = self.serve_phase(gateway, inputs, directory)
        untraced.problems.extend(f"traced: {p}" for p in traced.problems)
        spans, span_counters = load_dump(str(spans_path))
        layers = span_metrics(spans, span_counters)
        layers.update(counters)
        events, samples = event_metrics(traced)
        layers.update(events)
        self.record["event_samples"] = samples
        # Request windows (send -> done) against the gateway's spans: both
        # sides stamp with perf_counter, which is CLOCK_MONOTONIC on Linux
        # and so compares across processes.
        windows = [
            (ex.connected, ex.stamps["done"])
            for _, ex in traced.exchanges
            if "done" in ex.stamps
        ]
        layers["trace.uncovered_share"] = uncovered_share(windows, spans)
        untraced_rate = untraced.timing()["cases_per_s"]
        traced_rate = traced.timing()["cases_per_s"]
        layers["trace.overhead_share"] = untraced_rate / traced_rate - 1.0
        self.record["traced_cases_per_s"] = traced_rate
        return layers

    # -- orchestration -------------------------------------------------
    def execute(self) -> Tuple[Dict[str, Any], int]:
        try:
            if self.args.workload == "exact-gap":
                phase, rss_mb, layers = self.exact_gap()
            else:
                phase, rss_mb, layers = self.serve()
        finally:
            for gateway in list(self.gateways):
                gateway.stop()
            shutil.rmtree(self.workdir, ignore_errors=True)
        values, samples = end_to_end_metrics(phase, self.setup_times, rss_mb)
        self.record["samples"] = samples
        self.record["latencies_ms"] = [round(x * 1e3, 3) for x in phase.latencies]
        self.record["end_to_end"] = values
        self.record["error_rate"] = phase.failed / phase.attempted
        self.record["problems"] = phase.problems[:50]
        self.record["tracer_loaded"] = "tracer" in sys.modules
        if self.args.trace:
            chosen = {name: layers.get(name, 0.0) for name in PER_LAYER}
            units = PER_LAYER
            self.record["per_layer"] = chosen
        else:
            chosen = values
            units = END_TO_END
        metrics = {
            name: {"value": float(chosen[name]), "unit": units[name]} for name in units
        }
        result = {
            "correct": not phase.problems,
            "attempted": phase.attempted,
            "failed": phase.failed,
            "metrics": metrics,
        }
        return result, (0 if not phase.problems else 1)


def print_report(run: Run, result: Dict[str, Any]) -> None:
    record = run.record
    print(
        f"workload {record['workload']} seed {record['seed']} "
        f"trace {record['trace']} git {record['git_rev'][:12]} "
        f"nproc {record['nproc']} python {record['python']}"
    )
    print(f"input digest {record['input_digest']}")
    latency = record["samples"]["latency"]
    print(
        f"latency over {latency['samples']} cases: "
        + ", ".join(
            f"{label} {latency[label + '_ms']:.6g} ms"
            for label in ("p50", "p90", "p95", "p99")
        )
        + f" (p99 supported: {latency['p99_supported']}); "
        f"error_rate {record['error_rate']:.6f}"
    )
    for problem in record["problems"][:10]:
        print(f"CHECK FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")


def write_record(run: Run) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / (
        f"record-{run.args.workload}-seed{run.args.seed}-trace{run.args.trace}.json"
    )
    with open(path, "w") as stream:
        json.dump(run.record, stream, sort_keys=True, indent=1, default=str)
    return path


def setup_only(args) -> int:
    info, _ = prepare_inputs(args.workload, args.seed, args.seconds, Path(args.workdir))
    print(json.dumps(info))
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A traced run measures an untraced and a traced phase; each gets half
    # of --seconds, so a traced run takes about as long as an untraced one.
    args.phase_seconds = args.seconds / 2 if args.trace else args.seconds
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.setup_only:
        return setup_only(args)
    run = Run(args)
    try:
        result, status = run.execute()
    except Exception:
        traceback.print_exc()
        return 2
    path = write_record(run)
    print_report(run, result)
    print(f"run record: {path.relative_to(ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return status


if __name__ == "__main__":
    raise SystemExit(main())

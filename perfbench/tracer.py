"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from the outside:
:func:`install_solver_layers` and :func:`install_gateway_layers` replace
public entry points with wrappers that open a span, call the original
and close the span, and :meth:`Tracer.uninstall` puts every original
back.  Each name is patched where its caller looks it up
(``sap.py`` imports ``row_packing`` by name, so the wrapper goes into
``repro.solvers.sap`` as well as ``repro.solvers.registry``).

A span is ``(name, start, end, parent, case_id)``.  The parent is the
innermost span open on the same thread; the case id is inherited from
it unless the wrapper names one.  Spans stay in memory until
:meth:`Tracer.dump` writes them when the run ends.

Nothing here is imported by an untraced run: with tracing off the
program runs exactly as shipped.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

Interval = Tuple[float, float]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    case_id: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


def union(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint intervals covering the same points."""
    merged: List[Interval] = []
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def overlap(first: Sequence[Interval], second: Sequence[Interval]) -> float:
    """Length shared by two sorted, disjoint interval lists."""
    total = 0.0
    i = j = 0
    while i < len(first) and j < len(second):
        low = max(first[i][0], second[j][0])
        high = min(first[i][1], second[j][1])
        if high > low:
            total += high - low
        if first[i][1] < second[j][1]:
            i += 1
        else:
            j += 1
    return total


def covered(intervals: Sequence[Interval], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    return overlap(union(intervals), [(start, end)])


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: inclusive seconds, self seconds and span count."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "count": 0}
    )
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span.name]
        entry["s"] += span.duration
        entry["self_s"] += own
        entry["count"] += 1
    return dict(totals)


def uncovered_share(windows: Iterable[Interval], spans: Iterable[Span]) -> float:
    """Share of the time inside ``windows`` that no span in ``spans`` covers.

    Windows and spans are unions first, so overlapping requests or
    nested spans count once.
    """
    inside = union(windows)
    total = sum(b - a for a, b in inside)
    if total <= 0:
        return 0.0
    spanned = union((span.start, span.end) for span in spans)
    return 1.0 - overlap(inside, spanned) / total


class Tracer:
    """Thread-aware span recorder with named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, case_id: Optional[str] = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if case_id is None and parent is not None:
            case_id = self.spans[parent].case_id
        span = Span(name, self.clock(), 0.0, parent, case_id)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str, case_id: Optional[str] = None) -> Iterator[int]:
        index = self.open(name, case_id)
        try:
            yield index
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def dump(self, path: str) -> None:
        """Write spans and counters as JSON; a span still open is
        written with zero duration so parent indices stay valid."""
        payload = {
            "spans": [
                [s.name, s.start, max(s.start, s.end), s.parent, s.case_id]
                for s in self.spans
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w") as stream:
            json.dump(payload, stream, sort_keys=True)

    # -- wrappers ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
        case_of: Optional[Callable[..., Optional[str]]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``before(args, kwargs)`` runs just outside the span and returns a
        state handed to ``after(tracer, state, args, kwargs, result)``;
        ``case_of(args, kwargs)`` names the span's case id.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before is not None else None
            case_id = case_of(args, kwargs) if case_of is not None else None
            index = tracer.open(name, case_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# The layer table: which public entry points get a span, under what name
# ----------------------------------------------------------------------
def _solver_before(args: Sequence[Any], kwargs: Dict[str, Any]) -> Tuple[int, int, int]:
    stats = args[0].stats
    return stats.conflicts, stats.propagations, stats.decisions


def _solver_after(tracer, state, args, kwargs, result) -> None:
    stats = args[0].stats
    conflicts, propagations, decisions = state
    tracer.count("sat.solver.calls")
    tracer.count("sat.solver.conflicts", stats.conflicts - conflicts)
    tracer.count("sat.solver.propagations", stats.propagations - propagations)
    tracer.count("sat.solver.decisions", stats.decisions - decisions)


def _encoder_after(tracer, state, args, kwargs, result) -> None:
    solver = result.solver
    tracer.count("smt.encoder.builds")
    tracer.count("smt.encoder.clauses", solver.num_clauses)
    tracer.count("smt.encoder.vars", solver.num_vars)


def _query_after(tracer, state, args, kwargs, result) -> None:
    from repro.sat.solver import SolveStatus

    tracer.count("smt.oracle.queries")
    if result[0] is SolveStatus.UNSAT:
        tracer.count("smt.oracle.unsat_queries")


def _sap_after(tracer, state, args, kwargs, result) -> None:
    tracer.count("solvers.sap.calls")
    if not result.queries:
        tracer.count("solvers.sap.closed_by_bound")


def _packing_after(tracer, state, args, kwargs, result) -> None:
    tracer.count("solvers.row_packing.calls")


def _portfolio_after(tracer, state, args, kwargs, result) -> None:
    from repro.service.portfolio import DEFAULT_PORTFOLIO

    listed = len(kwargs.get("members", DEFAULT_PORTFOLIO))
    run = sum(1 for outcome in result.outcomes if not outcome.skipped)
    # Skipped with no error means skipped because the best depth was
    # already certified (budget/cancel skips carry an error string).
    certified_skips = sum(
        1
        for outcome in result.outcomes
        if outcome.skipped and outcome.error is None
    )
    tracer.count("service.portfolio.calls")
    tracer.count("service.portfolio.members_listed", listed)
    tracer.count("service.portfolio.members_run", run)
    tracer.count("service.portfolio.members_skipped", certified_skips)


def install_solver_layers(
    tracer: Tracer,
    entry: Any,
    case_of: Optional[Callable[..., Optional[str]]] = None,
) -> None:
    """Wrap the solver stack from the portfolio down to the CDCL call.

    ``entry`` is the module whose ``solve_portfolio`` name is the way
    into the portfolio: :mod:`repro.service.batch` for in-process batch
    solving, :mod:`repro.server.engine` inside the gateway.
    """
    from repro.core.partition import Partition
    from repro.sat.solver import CdclSolver
    from repro.service import portfolio
    from repro.smt import encoder, oracle
    from repro.solvers import registry, sap

    tracer.wrap(entry, "solve_portfolio", "service.portfolio",
                after=_portfolio_after, case_of=case_of)
    tracer.wrap(portfolio, "run_member", "service.portfolio.member")
    tracer.wrap(portfolio, "sap_solve", "solvers.sap", after=_sap_after)
    tracer.wrap(portfolio, "rank_lower_bound", "core.bounds.rank")
    for owner in (sap, registry):
        tracer.wrap(owner, "row_packing", "solvers.row_packing",
                    after=_packing_after)
    tracer.wrap(sap, "rank_lower_bound", "core.bounds.rank")
    tracer.wrap(sap, "reduce_matrix", "core.reductions")
    tracer.wrap(oracle.RankDecisionOracle, "check_at_most", "smt.oracle.query",
                after=_query_after)
    tracer.wrap(oracle, "make_encoder", "smt.encoder.build",
                after=_encoder_after)
    for encoder_class in (encoder.DirectEncoder, encoder.BinaryLabelEncoder):
        tracer.wrap(encoder_class, "narrow_to", "smt.encoder.narrow")
    tracer.wrap(CdclSolver, "solve", "sat.solver.solve",
                before=_solver_before, after=_solver_after)
    tracer.wrap(Partition, "validate", "core.partition.validate")


def install_gateway_layers(tracer: Tracer) -> None:
    """Solver layers as run by the gateway's engine, plus the cache tier.

    The engine hands ``solve_portfolio`` a matrix, not a case id, so the
    wrapper around ``parse_case`` remembers which id each matrix came in
    with and the portfolio span takes it from there.
    """
    from repro.server import engine, gateway
    from repro.server.shards import ShardedDiskTier
    from repro.service.cache import ResultCache

    case_by_matrix: Dict[Any, str] = {}

    def remember(tracer, state, args, kwargs, item) -> None:
        case_by_matrix[item.matrix] = item.case_id

    def case_of(args: Sequence[Any], kwargs: Dict[str, Any]) -> Optional[str]:
        return case_by_matrix.get(args[0])

    def wire_case_id(args: Sequence[Any], kwargs: Dict[str, Any]) -> Optional[str]:
        payload = args[0]
        return payload.get("case_id") if isinstance(payload, dict) else None

    tracer.wrap(gateway, "parse_case", "server.gateway.parse_case",
                after=remember, case_of=wire_case_id)
    install_solver_layers(tracer, engine, case_of)
    tracer.wrap(ResultCache, "get_by_key", "service.cache.get")
    tracer.wrap(ResultCache, "flush", "service.cache.flush")
    tracer.wrap(ShardedDiskTier, "get", "server.shards.get")
    tracer.wrap(ShardedDiskTier, "store", "server.shards.store")


def load_dump(path: str) -> Tuple[List[Span], Dict[str, float]]:
    with open(path) as stream:
        payload = json.load(stream)
    spans = [Span(*row) for row in payload["spans"]]
    return spans, payload["counters"]

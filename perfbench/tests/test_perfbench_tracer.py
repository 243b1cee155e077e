"""Span arithmetic, the recorder, and wrapper install/uninstall."""

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracer import (  # noqa: E402
    Span,
    Tracer,
    covered,
    install_gateway_layers,
    install_solver_layers,
    layer_totals,
    self_times,
    uncovered_share,
    union,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_is_the_clipped_union():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 4)], 0, 10) == 3
    assert covered([(1, 3), (5, 6)], 0, 10) == 3
    assert covered([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered([(0, 10), (2, 3)], 0, 10) == 10


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        Span("root", 0.0, 10.0, None, "c"),
        Span("child", 1.0, 5.0, 0, "c"),
        Span("grandchild", 2.0, 4.0, 1, "c"),
        Span("child", 6.0, 7.0, 0, "c"),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0])
    totals = layer_totals(spans)
    assert totals["child"] == {"s": 5.0, "self_s": 3.0, "count": 2}
    # Self times of all spans add up to the root spans' durations.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [
        Span("root", 0.0, 10.0, None, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_union_merges_overlaps_and_drops_empty_intervals():
    assert union([(5, 6), (1, 3), (2, 4), (7, 7)]) == [(1, 4), (5, 6)]


def test_uncovered_share_counts_window_time_outside_every_span():
    windows = [(0.0, 4.0), (2.0, 6.0), (8.0, 10.0)]  # union: 8 s
    spans = [
        Span("a", 1.0, 3.0, None, None),
        Span("b", 2.5, 5.0, 0, None),  # overlaps a: counted once
        Span("c", 6.0, 9.0, None, None),  # only 8-9 s lies inside
    ]
    # Covered inside the windows: 1-5 (4 s) and 8-9 (1 s).
    assert uncovered_share(windows, spans) == pytest.approx(1 - 5 / 8)
    assert uncovered_share(windows, []) == 1.0
    assert uncovered_share([], spans) == 0.0


def test_recorder_links_parents_and_inherits_case_ids():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("outer", "case-1"):
        clock.now = 1.0
        with tracer.span("inner"):
            clock.now = 3.0
        clock.now = 4.0
    with tracer.span("other"):
        clock.now = 5.0
    outer, inner, other = tracer.spans
    assert (outer.parent, inner.parent, other.parent) == (None, 0, None)
    assert inner.case_id == "case-1" and other.case_id is None
    assert (outer.duration, inner.duration, other.duration) == (4.0, 2.0, 1.0)


def test_wrap_records_and_uninstall_restores():
    class Owner:
        def work(self, value):
            return value * 2

    original = Owner.work
    tracer = Tracer()
    seen = []
    tracer.wrap(
        Owner, "work", "owner.work",
        before=lambda args, kwargs: args[1],
        after=lambda tr, state, args, kwargs, result: seen.append((state, result)),
    )
    assert Owner().work(21) == 42
    assert seen == [(21, 42)]
    assert [span.name for span in tracer.spans] == ["owner.work"]
    tracer.uninstall()
    assert Owner.work is original


def _entry_points():
    from repro.core.partition import Partition
    from repro.sat.solver import CdclSolver
    from repro.server import engine, gateway
    from repro.server.shards import ShardedDiskTier
    from repro.service import batch, cache, portfolio
    from repro.smt import encoder, oracle
    from repro.solvers import registry, sap

    return {
        "batch.solve_portfolio": batch.solve_portfolio,
        "engine.solve_portfolio": engine.solve_portfolio,
        "gateway.parse_case": gateway.parse_case,
        "portfolio.run_member": portfolio.run_member,
        "portfolio.sap_solve": portfolio.sap_solve,
        "sap.row_packing": sap.row_packing,
        "registry.row_packing": registry.row_packing,
        "sap.reduce_matrix": sap.reduce_matrix,
        "oracle.make_encoder": oracle.make_encoder,
        "encoder.narrow_to": encoder.DirectEncoder.narrow_to,
        "CdclSolver.solve": CdclSolver.solve,
        "Partition.validate": Partition.validate,
        "ResultCache.get_by_key": cache.ResultCache.get_by_key,
        "ShardedDiskTier.store": ShardedDiskTier.store,
    }


def test_layer_install_patches_callers_and_uninstall_restores_everything():
    from repro.service import batch

    before = _entry_points()
    tracer = Tracer()
    install_gateway_layers(tracer)
    install_solver_layers(tracer, batch)
    try:
        patched = _entry_points()
        assert all(patched[name] is not before[name] for name in before)
    finally:
        tracer.uninstall()
    assert _entry_points() == before


def test_traced_batch_solve_nests_every_span_under_its_case():
    from repro.core.binary_matrix import BinaryMatrix
    from repro.service import batch
    from repro.service.batch import BatchItem, solve_batch

    # A Set-3 style matrix whose rank bound is slack, so SAP queries.
    matrix = BinaryMatrix.from_strings(
        ["1100", "0011", "1010", "0101", "1111"]
    )
    tracer = Tracer()
    install_solver_layers(tracer, batch)
    try:
        with tracer.span("service.batch", "c1"):
            record = solve_batch([BatchItem("c1", matrix)], workers=1)[0]
    finally:
        tracer.uninstall()
    assert record.depth == 4 and record.result.lower_bound == 3
    assert all(span.case_id == "c1" for span in tracer.spans)
    solve = next(s for s in tracer.spans if s.name == "sat.solver.solve")
    chain = []
    while solve.parent is not None:
        solve = tracer.spans[solve.parent]
        chain.append(solve.name)
    assert chain == [
        "smt.oracle.query",
        "solvers.sap",
        "service.portfolio.member",
        "service.portfolio",
        "service.batch",
    ]
    counters = tracer.counters
    assert counters["smt.oracle.queries"] == counters["smt.oracle.unsat_queries"] == 1
    assert counters["sat.solver.calls"] == 1 and counters["sat.solver.conflicts"] > 0
    assert counters["service.portfolio.members_listed"] == 3


def test_untraced_phase_never_loads_the_tracer():
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(BENCH.parent / 'src')!r}, {str(BENCH)!r}]\n"
        "import run\n"
        "phase = run.run_gap(run.gap_inputs(1)[:3], 0.0)\n"
        "from repro.sat.solver import CdclSolver\n"
        "print(len(phase.latencies), 'tracer' in sys.modules,"
        " hasattr(CdclSolver.solve, '__wrapped__'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout.split() == ["3", "False", "False"]

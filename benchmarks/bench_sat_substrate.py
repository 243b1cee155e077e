"""Substrate benchmarks: the CDCL SAT solver itself.

Not a paper artefact, but the oracle's speed bounds everything in
Figure 4; these keep the solver's performance visible (pigeonhole UNSAT
proofs and large random SAT instances).

``test_ebmf_hot_path`` measures the encode and CDCL hot path on the EBMF
formulas SAP actually solves — two UNSAT ``r_B(M) <= 9`` queries from
the Table-I suites — and writes ``BENCH_sat.json`` (directory
overridable via ``REPRO_BENCH_DIR``).  Each run of the benchmark
replaces the record of its own git revision and keeps the others, so
the file can hold a parent and a change side by side.  Run it alone
with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_sat_substrate.py -k hot_path
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import time
from pathlib import Path

import pytest

from repro.sat.formula import CnfFormula
from repro.sat.solver import CdclSolver, SolveStatus

HOT_PATH_CASES = ("rand-10x10-occ0.5-1", "gap-10x10-p2-4")
HOT_PATH_BOUND = 9
HOT_PATH_RUNS = 3


def pigeonhole(holes: int) -> CnfFormula:
    formula = CnfFormula()
    var = [
        [formula.new_var() for _ in range(holes)]
        for _ in range(holes + 1)
    ]
    for pigeon in var:
        formula.add_clause(pigeon)
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                formula.add_clause([-var[p1][h], -var[p2][h]])
    return formula


def random_3sat(num_vars: int, num_clauses: int, seed: int) -> CnfFormula:
    rng = random.Random(seed)
    formula = CnfFormula()
    formula.new_vars(num_vars)
    for _ in range(num_clauses):
        clause_vars = rng.sample(range(1, num_vars + 1), 3)
        formula.add_clause(
            [v * rng.choice([1, -1]) for v in clause_vars]
        )
    return formula


@pytest.mark.parametrize("holes", [5, 6])
def test_pigeonhole_unsat(benchmark, holes):
    formula = pigeonhole(holes)

    def prove():
        solver = CdclSolver.from_formula(formula)
        return solver.solve()

    status = benchmark(prove)
    assert status is SolveStatus.UNSAT


@pytest.mark.parametrize("ratio", [3.0, 4.2])
def test_random_3sat(benchmark, root_seed, ratio):
    num_vars = 60
    formula = random_3sat(num_vars, int(num_vars * ratio), root_seed)

    def solve():
        solver = CdclSolver.from_formula(formula)
        return solver.solve(), solver.stats.conflicts

    status, conflicts = benchmark(solve)
    assert status in (SolveStatus.SAT, SolveStatus.UNSAT)
    benchmark.extra_info["clause_ratio"] = ratio
    benchmark.extra_info["conflicts"] = conflicts


def test_incremental_narrowing_pattern(benchmark):
    """The SAP access pattern: one encoding, repeated narrowing solves."""
    from repro.core.paper_matrices import figure_1b
    from repro.smt.encoder import DirectEncoder

    matrix = figure_1b()

    def descend():
        encoder = DirectEncoder(matrix, 6)
        statuses = [encoder.solve()]
        encoder.narrow_to(5)
        statuses.append(encoder.solve())
        encoder.narrow_to(4)
        statuses.append(encoder.solve())
        return statuses

    statuses = benchmark(descend)
    assert statuses == [
        SolveStatus.SAT,
        SolveStatus.SAT,
        SolveStatus.UNSAT,
    ]


def _artifact_path() -> Path:
    return Path(os.environ.get("REPRO_BENCH_DIR", ".")) / "BENCH_sat.json"


def _git_rev() -> str:
    """Short revision of the checkout, ``-dirty`` if ``src/`` is edited."""
    root = Path(__file__).resolve().parent.parent

    def git(*args):
        return subprocess.run(
            ["git", *args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()

    try:
        rev = git("rev-parse", "--short=7", "HEAD")
        edited = git("status", "--porcelain", "--", "src")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if not rev:
        return "unknown"
    return f"{rev}-dirty" if edited else rev


def _hot_path_matrices():
    from repro.benchgen.suite import (
        SMALL_OCCUPANCIES,
        gap_suite,
        random_suite,
    )

    cases = random_suite((10, 10), SMALL_OCCUPANCIES, 3, seed=2024)
    cases += gap_suite((10, 10), 2, 12, seed=2024)
    by_id = {case.case_id: case.matrix for case in cases}
    return {case_id: by_id[case_id] for case_id in HOT_PATH_CASES}


def _summary(values):
    return {
        "runs": values,
        "median": statistics.median(values),
        "min": min(values),
    }


def test_ebmf_hot_path():
    """Encode + solve the EBMF hot-path formulas; record to BENCH_sat.json."""
    from repro.smt.encoder import DirectEncoder

    formulas = {}
    for case_id, matrix in _hot_path_matrices().items():
        runs = {"encode_s": [], "solve_s": [], "propagations_per_s": []}
        counters = set()
        for _ in range(HOT_PATH_RUNS):
            began = time.perf_counter()
            encoder = DirectEncoder(matrix, HOT_PATH_BOUND)
            encoded = time.perf_counter()
            status = encoder.solve()
            solved = time.perf_counter()
            assert status is SolveStatus.UNSAT
            stats = encoder.solver.stats
            runs["encode_s"].append(encoded - began)
            runs["solve_s"].append(solved - encoded)
            runs["propagations_per_s"].append(
                stats.propagations / (solved - encoded)
            )
            counters.add((stats.conflicts, stats.propagations))
        assert len(counters) == 1, "the search must be deterministic"
        ((conflicts, propagations),) = counters
        formulas[case_id] = {
            "bound": HOT_PATH_BOUND,
            "num_vars": encoder.solver.num_vars,
            "num_clauses": encoder.solver.num_clauses,
            "conflicts": conflicts,
            "propagations": propagations,
            **{name: _summary(values) for name, values in runs.items()},
        }

    nproc = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    record = {
        "git_rev": _git_rev(),
        "nproc": nproc,
        "python": platform.python_version(),
        "formulas": formulas,
    }
    path = _artifact_path()
    records = []
    if path.exists():
        with open(path) as stream:
            records = json.load(stream).get("records", [])
    records = [r for r in records if r.get("git_rev") != record["git_rev"]]
    records.append(record)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as stream:
        json.dump(
            {"benchmark": "sat", "records": records},
            stream,
            indent=2,
            sort_keys=True,
        )
        stream.write("\n")

"""Search pin: exact CDCL search counters on fixed EBMF formulas.

The solver's hot path (propagation, conflict analysis, backtracking,
clause loading) is tuned for speed under one rule: a speed-up must not
change the search.  These goldens hold the rule to account.  For each
formula — :class:`~repro.smt.encoder.DirectEncoder` at depth - 1 on
``figure_1b()`` and on a few Set-3 gap matrices, in every symmetry
mode — they pin the stored clause count, a digest of the stored
clauses and the level-0 trail, and the ``(conflicts, decisions,
propagations)`` of one budgeted solve.

An engine change that is *meant* to change the search (binary
implication lists, blocker literals, a new heuristic) updates the
goldens below and records the old and new counters in CHANGES.md.  Any
other change that moves them is a bug.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.benchgen.gap import gap_matrix
from repro.core.paper_matrices import figure_1b
from repro.smt.encoder import SYMMETRY_MODES, DirectEncoder

CONFLICT_BUDGET = 1000
"""Caps the unbroken-symmetry solves; the pin covers UNKNOWN runs too."""

FORMULAS = {
    # name: (matrix builder, bound = binary rank - 1)
    "figure-1b": (figure_1b, 4),
    "gap-10x10-p2-s1": (lambda: gap_matrix(10, 10, 2, seed=1), 9),
    "gap-10x10-p3-s3": (lambda: gap_matrix(10, 10, 3, seed=3), 8),
    "gap-10x10-p4-s4": (lambda: gap_matrix(10, 10, 4, seed=4), 6),
    "gap-10x10-p5-s7": (lambda: gap_matrix(10, 10, 5, seed=7), 6),
}

# (name, symmetry): (status, conflicts, decisions, propagations,
#                    num_clauses, clause/trail digest)
GOLDEN = {
    ("figure-1b", "none"): ("unsat", 38, 54, 1003, 642, "b5d80efa53167d70"),
    ("figure-1b", "restricted"): ("unsat", 9, 12, 211, 424, "ee06bd4d39897dba"),
    ("figure-1b", "precedence"): ("unsat", 5, 5, 137, 455, "57e8c2d3eadfebe7"),
    ("gap-10x10-p2-s1", "none"): ("unknown", 1000, 1751, 91947, 8280, "2cc474e3afa8b1e5"),
    ("gap-10x10-p2-s1", "restricted"): ("unknown", 1000, 1333, 90503, 6063, "7e99d1e146928c6d"),
    ("gap-10x10-p2-s1", "precedence"): ("unsat", 645, 1205, 43192, 6322, "3a4c073ae3f5d83e"),
    ("gap-10x10-p3-s3", "none"): ("unknown", 1000, 1500, 65415, 4019, "fa9d68531563c4d5"),
    ("gap-10x10-p3-s3", "restricted"): ("unknown", 1000, 1220, 66045, 2769, "3c3dc0e483d833f6"),
    ("gap-10x10-p3-s3", "precedence"): ("unsat", 80, 118, 4336, 2928, "1422a405b4b0a458"),
    ("gap-10x10-p4-s4", "none"): ("unsat", 939, 1087, 55027, 5092, "b273a76a0d585625"),
    ("gap-10x10-p4-s4", "restricted"): ("unsat", 133, 151, 6823, 3777, "b01cad34f049a1b7"),
    ("gap-10x10-p4-s4", "precedence"): ("unsat", 36, 43, 2016, 3923, "71a09ceb98f69ebf"),
    ("gap-10x10-p5-s7", "none"): ("unsat", 754, 910, 38621, 3968, "aa7ed6dc41a3b23f"),
    ("gap-10x10-p5-s7", "restricted"): ("unsat", 216, 250, 10858, 2960, "45f35df89f6a402f"),
    ("gap-10x10-p5-s7", "precedence"): ("unsat", 71, 104, 3282, 3086, "42b1762c66a03142"),
}


def _digest(solver) -> str:
    text = repr((solver._clauses, solver._trail))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("symmetry", SYMMETRY_MODES)
@pytest.mark.parametrize("name", sorted(FORMULAS))
def test_search_is_pinned(name, symmetry):
    build, bound = FORMULAS[name]
    encoder = DirectEncoder(build(), bound, symmetry=symmetry)
    num_clauses = encoder.solver.num_clauses
    digest = _digest(encoder.solver)
    status = encoder.solve(conflict_budget=CONFLICT_BUDGET)
    stats = encoder.solver.stats
    observed = (
        status.value,
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        num_clauses,
        digest,
    )
    assert observed == GOLDEN[(name, symmetry)]

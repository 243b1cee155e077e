"""Proof logging (DRUP-style) and RUP verification tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ProofError, SolverError
from repro.sat import (
    CdclSolver,
    ProofLog,
    RupChecker,
    SolveStatus,
    brute_force_model,
    check_refutation,
    is_valid_refutation,
    pigeonhole,
    proof_stats,
    random_ksat,
    xor_chain,
)


def solve_with_proof(formula):
    log = ProofLog()
    solver = CdclSolver(proof=log)
    solver.new_vars(formula.num_vars)
    for clause in formula.clauses:
        solver.add_clause(clause)
    status = solver.solve()
    return status, log


class TestProofLog:
    def test_events_recorded_in_order(self):
        log = ProofLog()
        log.axiom([1, 2])
        log.learn([1])
        log.empty()
        kinds = [event.kind for event in log.events]
        assert kinds == ["axiom", "learn", "empty"]
        assert log.refuted

    def test_empty_is_idempotent(self):
        log = ProofLog()
        log.empty()
        log.empty()
        assert sum(1 for e in log.events if e.kind == "empty") == 1

    def test_to_drup_omits_axioms(self):
        log = ProofLog()
        log.axiom([1, 2])
        log.learn([-1])
        log.delete([-1])
        log.empty()
        text = log.to_drup()
        assert "-1 0" in text
        assert "d -1 0" in text
        assert text.strip().endswith("0")
        assert "1 2 0" not in text.splitlines()[0] or text.startswith("-1")

    def test_accessors(self):
        log = ProofLog()
        log.axiom([1])
        log.axiom([-1])
        log.learn([2, 3])
        assert log.num_axioms == 2
        assert log.num_learned == 1
        assert log.axioms() == [(1,), (-1,)]
        assert log.learned() == [(2, 3)]

    def test_stats(self):
        log = ProofLog()
        log.axiom([1])
        log.learn([2, 3])
        log.delete([2, 3])
        log.empty()
        stats = proof_stats(log)
        assert stats["axioms"] == 1
        assert stats["learned"] == 1
        assert stats["deleted"] == 1
        assert stats["learned_literals"] == 2
        assert stats["refuted"] == 1


class TestRupChecker:
    def test_unit_conflict(self):
        checker = RupChecker()
        checker.add_clause([1])
        checker.add_clause([-1])
        assert checker.refuted

    def test_rup_of_implied_unit(self):
        checker = RupChecker()
        checker.add_clause([1, 2])
        checker.add_clause([1, -2])
        assert checker.check_rup([1])
        assert not checker.check_rup([2])

    def test_check_is_side_effect_free(self):
        checker = RupChecker()
        checker.add_clause([1, 2])
        checker.add_clause([1, -2])
        assert checker.check_rup([1])
        # A failed check must not leave assignments behind either.
        assert not checker.check_rup([-2])
        assert checker.check_rup([1])

    def test_tautology_is_trivially_rup(self):
        checker = RupChecker()
        checker.add_clause([1, 2])
        assert checker.check_rup([3, -3])

    def test_satisfied_clause_dropped(self):
        checker = RupChecker()
        checker.add_clause([1])
        checker.add_clause([1, 2])  # root-satisfied, should not matter
        assert not checker.check_rup([2])

    def test_admit_checked_extends_database(self):
        checker = RupChecker()
        checker.add_clause([1, 2])
        checker.add_clause([1, -2])
        checker.add_clause([-1, 3])
        assert checker.admit_checked([1])
        # Now the root forces 1 and hence 3.
        assert checker.check_rup([3])

    def test_zero_literal_rejected(self):
        checker = RupChecker()
        with pytest.raises(ProofError):
            checker.add_clause([1, 0])


class TestSolverProofs:
    def test_trivial_unsat_units(self):
        log = ProofLog()
        solver = CdclSolver(proof=log)
        a = solver.new_var()
        solver.add_clause([a])
        assert solver.add_clause([-a]) is False
        assert log.refuted
        check_refutation(log)

    def test_xor_chain_unsat_proof(self):
        status, log = solve_with_proof(xor_chain(8, parity=1))
        assert status is SolveStatus.UNSAT
        check_refutation(log)

    def test_xor_chain_sat_has_no_refutation(self):
        status, log = solve_with_proof(xor_chain(8, parity=0))
        assert status is SolveStatus.SAT
        assert not log.refuted
        with pytest.raises(ProofError):
            check_refutation(log)

    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_proof(self, holes):
        status, log = solve_with_proof(pigeonhole(holes))
        assert status is SolveStatus.UNSAT
        assert log.num_learned > 0
        check_refutation(log)

    def test_pigeonhole_sat_direction(self):
        status, log = solve_with_proof(pigeonhole(3, pigeons=3))
        assert status is SolveStatus.SAT
        assert not log.refuted

    def test_assumption_unsat_is_not_a_refutation(self):
        log = ProofLog()
        solver = CdclSolver(proof=log)
        a, b = solver.new_var(), solver.new_var()
        solver.add_clause([a, b])
        status = solver.solve(assumptions=[-a, -b])
        assert status is SolveStatus.UNSAT
        assert solver.unsat_due_to_assumptions
        assert not log.refuted
        # The formula itself is still satisfiable.
        assert solver.solve() is SolveStatus.SAT

    def test_incremental_axioms_interleave(self):
        """Clauses added between solve calls are part of the proof."""
        log = ProofLog()
        solver = CdclSolver(proof=log)
        a, b, c = solver.new_vars(3)
        solver.add_clause([a, b])
        solver.add_clause([-a, c])
        assert solver.solve() is SolveStatus.SAT
        solver.add_clause([-c])
        solver.add_clause([-b])
        solver.add_clause([a, c])
        status = solver.solve()
        assert status is SolveStatus.UNSAT
        check_refutation(log)

    @pytest.mark.parametrize("bad", [[0], [1, 0], [3], [-3], [1, 2, 9]])
    def test_rejected_clause_leaves_no_axiom(self, bad):
        """An invalid literal raises before the clause reaches the log."""
        log = ProofLog()
        solver = CdclSolver(proof=log)
        a, b = solver.new_vars(2)
        solver.add_clause([a])  # makes ``1`` true at level 0
        solver.add_clause([a, b])
        before = log.axioms()
        with pytest.raises(SolverError):
            solver.add_clause(bad)
        assert log.axioms() == before
        assert len(log) == 2

    def test_proof_overhead_only_when_enabled(self):
        formula = xor_chain(6, parity=1)
        plain = CdclSolver()
        plain.new_vars(formula.num_vars)
        for clause in formula.clauses:
            plain.add_clause(clause)
        assert plain.solve() is SolveStatus.UNSAT
        # No proof attribute populated.
        assert plain._proof is None


class TestTamperedProofs:
    def _unsat_log(self):
        status, log = solve_with_proof(pigeonhole(3))
        assert status is SolveStatus.UNSAT
        return log

    def test_dropping_axioms_breaks_proof(self):
        log = self._unsat_log()
        log.events = [e for e in log.events if e.kind != "axiom"]
        assert not is_valid_refutation(log)

    def test_injecting_bogus_lemma_is_caught(self):
        from repro.sat.proof import ProofEvent

        log = ProofLog()
        log.axiom([1, 2])
        log.events.append(ProofEvent("learn", (1,)))  # not RUP
        log.empty()
        with pytest.raises(ProofError, match="not RUP"):
            check_refutation(log)

    def test_premature_empty_is_caught(self):
        log = ProofLog()
        log.axiom([1, 2])
        log.axiom([-1, 2])
        log.empty()
        with pytest.raises(ProofError, match="empty clause"):
            check_refutation(log)

    def test_missing_empty_is_caught(self):
        log = self._unsat_log()
        log.events = [e for e in log.events if e.kind != "empty"]
        # refuted flag still set; stream no longer justifies it.
        with pytest.raises(ProofError, match="ended without"):
            check_refutation(log)

    def test_unknown_event_kind(self):
        from repro.sat.proof import ProofEvent

        log = ProofLog()
        log.events.append(ProofEvent("frobnicate", (1,)))
        log.refuted = True
        with pytest.raises(ProofError):
            check_refutation(log)


def _as_formula(num_vars, clauses):
    from repro.sat import CnfFormula

    formula = CnfFormula()
    formula.new_vars(num_vars)
    formula.add_clauses(clauses)
    return formula


@st.composite
def small_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=6))
    num_clauses = draw(st.integers(min_value=1, max_value=14))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(min_value=1, max_value=min(3, num_vars)))
        variables = draw(
            st.lists(
                st.integers(min_value=1, max_value=num_vars),
                min_size=width,
                max_size=width,
                unique=True,
            )
        )
        signs = draw(
            st.lists(st.booleans(), min_size=width, max_size=width)
        )
        clauses.append(
            [v if s else -v for v, s in zip(variables, signs)]
        )
    return num_vars, clauses


class TestProofFuzz:
    @given(small_cnf())
    @settings(max_examples=120, deadline=None)
    def test_unsat_proofs_always_verify(self, cnf):
        num_vars, clauses = cnf
        reference = brute_force_model(_as_formula(num_vars, clauses))
        log = ProofLog()
        solver = CdclSolver(proof=log)
        solver.new_vars(num_vars)
        for clause in clauses:
            solver.add_clause(clause)
        status = solver.solve()
        if reference is None:
            assert status is SolveStatus.UNSAT
            check_refutation(log)
        else:
            assert status is SolveStatus.SAT
            assert not log.refuted

    @given(small_cnf(), small_cnf())
    @settings(max_examples=40, deadline=None)
    def test_incremental_two_phase_proofs(self, first, second):
        """Add a second batch of clauses after an initial solve."""
        num_vars = max(first[0], second[0])
        log = ProofLog()
        solver = CdclSolver(proof=log)
        solver.new_vars(num_vars)
        for clause in first[1]:
            solver.add_clause(clause)
        solver.solve()
        for clause in second[1]:
            if not solver.add_clause(clause):
                break
        status = solver.solve()
        combined = first[1] + second[1]
        reference = brute_force_model(_as_formula(num_vars, combined))
        if reference is None:
            assert status is SolveStatus.UNSAT
            check_refutation(log)
        else:
            assert status is SolveStatus.SAT


class TestEbmfProofIntegration:
    def test_eq2_matrix_unsat_at_two_has_proof(self):
        """Eq. 2's matrix has binary rank 3; b=2 must be UNSAT and the
        refutation must verify."""
        from repro.core.paper_matrices import equation_2
        from repro.smt.encoder import DirectEncoder

        matrix = equation_2()
        log = ProofLog()
        encoder = DirectEncoder(matrix, 2, proof=log)
        assert encoder.solve() is SolveStatus.UNSAT
        check_refutation(log)

    def test_narrowing_clauses_enter_proof(self):
        """SAP-style descent: SAT at 3, narrowed to 2, UNSAT verified."""
        from repro.core.paper_matrices import equation_2
        from repro.smt.encoder import DirectEncoder

        matrix = equation_2()
        log = ProofLog()
        encoder = DirectEncoder(matrix, 3, proof=log)
        assert encoder.solve() is SolveStatus.SAT
        encoder.narrow_to(2)
        assert encoder.solve() is SolveStatus.UNSAT
        check_refutation(log)


class TestProofExport:
    def test_dimacs_drup_pair_roundtrip(self, tmp_path):
        """Exported (CNF, DRUP) files parse back and re-verify."""
        status, log = solve_with_proof(pigeonhole(3))
        assert status is SolveStatus.UNSAT
        cnf_path = tmp_path / "formula.cnf"
        drup_path = tmp_path / "proof.drup"
        log.write_files(str(cnf_path), str(drup_path))

        from repro.sat import parse_dimacs

        formula = parse_dimacs(cnf_path.read_text())
        assert formula.num_clauses == log.num_axioms

        # Replay: axioms first (as an external checker would see them),
        # then the derivation lines.
        replay = ProofLog()
        for clause in formula.clauses:
            replay.axiom(clause)
        for line in drup_path.read_text().splitlines():
            if line == "0":
                replay.empty()
            elif line.startswith("d "):
                replay.delete(
                    [int(t) for t in line[2:].split()[:-1]]
                )
            else:
                replay.learn([int(t) for t in line.split()[:-1]])
        check_refutation(replay)

    def test_dimacs_export_of_empty_log(self):
        log = ProofLog()
        text = log.to_dimacs()
        assert "p cnf 0 0" in text
        assert log.to_drup() == ""

    def test_incremental_axioms_hoisted_soundly(self, tmp_path):
        """Axioms added between solves still yield a checkable pair."""
        log = ProofLog()
        solver = CdclSolver(proof=log)
        a, b = solver.new_vars(2)
        solver.add_clause([a, b])
        assert solver.solve() is SolveStatus.SAT
        solver.add_clause([-a])
        solver.add_clause([-b])
        assert solver.solve() is SolveStatus.UNSAT

        replay = ProofLog()
        from repro.sat import parse_dimacs

        for clause in parse_dimacs(log.to_dimacs()).clauses:
            replay.axiom(clause)
        for event in log.events:
            if event.kind in ("learn", "empty"):
                if event.kind == "learn":
                    replay.learn(list(event.literals))
                else:
                    replay.empty()
        check_refutation(replay)

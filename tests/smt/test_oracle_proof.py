"""Proof-enabled oracle tests (the audited SAP descent)."""

import pytest

from repro.benchgen.gap import gap_matrix
from repro.core.exceptions import ProofError
from repro.core.paper_matrices import equation_2, figure_1b
from repro.sat.solver import SolveStatus
from repro.smt.oracle import RankDecisionOracle


class TestOracleProof:
    def test_descent_produces_verifiable_refutation(self):
        oracle = RankDecisionOracle(figure_1b(), proof=True)
        status, partition = oracle.check_at_most(5)
        assert status is SolveStatus.SAT and partition.depth == 5
        status, _ = oracle.check_at_most(4)
        assert status is SolveStatus.UNSAT
        oracle.verify_refutation()  # must not raise

    def test_set3_gap_refutation_verifies(self):
        """A realistic descent: Set-3 matrix, binary rank 7, rank bound 6.

        Symmetry breaking lets the encoder skip clauses that its ban
        units already satisfy, so the axiom log is shorter than the
        full Eq. 4 set; the checker must still accept the refutation.
        """
        oracle = RankDecisionOracle(gap_matrix(10, 10, 4, seed=4), proof=True)
        status, partition = oracle.check_at_most(7)
        assert status is SolveStatus.SAT and partition.depth == 7
        status, _ = oracle.check_at_most(6)
        assert status is SolveStatus.UNSAT
        assert oracle.queries[-1].conflicts > 0
        oracle.verify_refutation()  # must not raise

    def test_verify_without_proof_raises(self):
        oracle = RankDecisionOracle(equation_2())
        oracle.check_at_most(2)
        with pytest.raises(ProofError):
            oracle.verify_refutation()

    def test_sat_only_descent_has_no_refutation(self):
        oracle = RankDecisionOracle(equation_2(), proof=True)
        status, _ = oracle.check_at_most(3)
        assert status is SolveStatus.SAT
        with pytest.raises(ProofError):
            oracle.verify_refutation()

    def test_non_incremental_proof_rebuilds_log(self):
        oracle = RankDecisionOracle(
            equation_2(), incremental=False, proof=True
        )
        oracle.check_at_most(3)
        first_log = oracle.proof_log
        status, _ = oracle.check_at_most(2)
        assert status is SolveStatus.UNSAT
        # Fresh solver per query: the log was replaced, and the current
        # one holds the complete (single-query) refutation.
        assert oracle.proof_log is not first_log
        oracle.verify_refutation()

    def test_assumption_mode_unsat_is_not_a_refutation(self):
        oracle = RankDecisionOracle(
            equation_2(), query_mode="assumption", proof=True
        )
        oracle.prime(3)
        status, _ = oracle.check_at_most(2)
        assert status is SolveStatus.UNSAT
        # Conditional on the assumption literal: no standalone proof.
        with pytest.raises(ProofError):
            oracle.verify_refutation()

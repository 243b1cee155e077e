"""CNF encodings of the EBMF decision problem ``r_B(M) <= b``.

The paper (Section III-A) encodes a function ``f : E -> P`` from 1-cells
to rectangle indices with z3's uninterpreted functions over bit-vectors,
constrained by Eq. 4: for distinct 1-cells ``e = (i, j)`` and
``e' = (i', j')``,

* ``f(e) != f(e')``                                if ``M[i, j'] = 0``,
* ``f(e) = f(e')  ->  f(e) = f((i, j'))``          if ``M[i, j'] = 1``.

(The same constraints with the roles swapped cover the ``M[i', j]`` cross
cell.)  Cells sharing a row or column need no constraint — the rectangle
closure property (Eq. 1) is trivial for them.  Any satisfying labelling's
label classes are therefore rectangles, pairwise disjoint, covering all
1s: a valid EBMF with at most ``b`` rectangles.

Two encodings are provided:

* :class:`DirectEncoder` — one boolean ``x[e, k]`` per cell/label
  ("one-hot"), with exactly-one constraints per cell and optional
  precedence symmetry breaking.  Default; strongest for UNSAT proofs.
* :class:`BinaryLabelEncoder` — per-cell bit-vector labels with Tseitin
  equality gates, mirroring the paper's bit-vector formulation.

Both support the paper's incremental narrowing (Algorithm 1, line 8):
``narrow_to(b)`` adds ``f(e) != b`` for every 1-cell.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.binary_matrix import BinaryMatrix
from repro.core.exceptions import EncodingError, SolverError
from repro.core.partition import Partition
from repro.sat.cardinality import exactly_one
from repro.sat.proof import ProofLog
from repro.sat.solver import CdclSolver, SolveStatus
from repro.sat.tseitin import encode_less_than_constant, gate_equals

Cell = Tuple[int, int]

SYMMETRY_MODES = ("none", "restricted", "precedence")


def _cell_pairs_constraints(matrix: BinaryMatrix, cells: Sequence[Cell]):
    """Classify all unordered cell pairs per Eq. 4.

    Yields ``("conflict", e, e2)`` when the cells can never share a
    rectangle and ``("closure", e, e2, cross)`` when sharing forces the
    cross cell ``cross`` into the same rectangle.
    """
    index = {cell: t for t, cell in enumerate(cells)}
    for a in range(len(cells)):
        i, j = cells[a]
        for b in range(a + 1, len(cells)):
            i2, j2 = cells[b]
            if i == i2 or j == j2:
                continue
            cross_a = matrix[i, j2]
            cross_b = matrix[i2, j]
            if cross_a == 0 or cross_b == 0:
                yield ("conflict", a, b, None)
            else:
                yield ("closure", a, b, index[(i, j2)])
                yield ("closure", a, b, index[(i2, j)])


class DirectEncoder:
    """One-hot label encoding of ``r_B(M) <= bound``.

    Variables ``x[t][k]`` mean "1-cell number ``t`` belongs to rectangle
    ``k``".  Narrowing to smaller bounds adds blocking units, so a single
    solver instance serves the whole SAP descent, retaining learned
    clauses between queries.

    With ``indicators=True`` the encoder additionally creates one
    monotone *usage* variable per label (``use[k]`` true whenever some
    cell takes label ``k``, and ``use[k] -> use[k-1]``).  The question
    ``r_B(M) <= b`` then becomes solving under the single assumption
    ``not use[b]`` — no clauses are added per query, so one solver
    serves bounds moving in *either* direction (SAP's ``assumption``
    descent bisects on it).
    """

    def __init__(
        self,
        matrix: BinaryMatrix,
        bound: int,
        *,
        symmetry: str = "precedence",
        amo_encoding: str = "auto",
        proof: Optional[ProofLog] = None,
        indicators: bool = False,
    ) -> None:
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        if symmetry not in SYMMETRY_MODES:
            raise EncodingError(
                f"unknown symmetry mode {symmetry!r}; "
                f"expected one of {SYMMETRY_MODES}"
            )
        self.matrix = matrix
        self.cells: List[Cell] = list(matrix.ones())
        self.bound = bound
        self.symmetry = symmetry
        self.proof = proof
        self.solver = CdclSolver(proof=proof)
        self._trivially_unsat = False
        self._use: List[int] = []

        if not self.cells:
            # Zero matrix: any bound >= 0 works.
            return
        if bound == 0:
            self._trivially_unsat = True
            return

        num_cells = len(self.cells)
        self._vars: List[List[int]] = [
            [self.solver.new_var() for _ in range(bound)]
            for _ in range(num_cells)
        ]

        if indicators:
            self._use = [self.solver.new_var() for _ in range(bound)]
            for k in range(1, bound):
                self.solver.add_clause([-self._use[k], self._use[k - 1]])
            for t in range(num_cells):
                for k in range(bound):
                    self.solver.add_clause(
                        [-self._vars[t][k], self._use[k]]
                    )

        for t in range(num_cells):
            literals = self._vars[t]
            if symmetry in ("restricted", "precedence"):
                usable = literals[: min(bound, t + 1)]
                for banned in literals[len(usable) :]:
                    self.solver.add_clause([-banned])
            else:
                usable = literals
            exactly_one(self.solver, usable, encoding=amo_encoding)

        if symmetry == "precedence":
            # x[t][k] -> OR_{s<t} x[s][k-1]: label k may only be opened
            # after label k-1 has been used by an earlier cell.
            for t in range(num_cells):
                for k in range(1, min(bound, t + 1)):
                    clause = [-self._vars[t][k]]
                    clause.extend(self._vars[s][k - 1] for s in range(k - 1, t))
                    self.solver.add_clause(clause)

        # Eq. 4 per label.  Under symmetry breaking cell ``a`` (always the
        # lower index of the pair) is banned from labels >= a + 1 by the
        # units above, so the clauses for those labels would be satisfied
        # at level 0 and discarded by the solver; they are not emitted.
        add_clause = self.solver.add_clause
        variables = self._vars
        broken = symmetry in ("restricted", "precedence")
        for kind, a, b, cross in _cell_pairs_constraints(matrix, self.cells):
            x_a, x_b = variables[a], variables[b]
            labels = range(min(bound, a + 1) if broken else bound)
            if kind == "conflict":
                for k in labels:
                    add_clause([-x_a[k], -x_b[k]])
            else:
                x_cross = variables[cross]
                for k in labels:
                    add_clause([-x_a[k], -x_b[k], x_cross[k]])

    # ------------------------------------------------------------------
    @property
    def has_indicators(self) -> bool:
        return bool(self._use)

    def assumption_for(self, bound: int) -> List[int]:
        """Assumption literals asking ``r_B(M) <= bound`` (indicator mode).

        An empty list means the structural bound already enforces it.
        """
        if not self._use:
            raise EncodingError(
                "encoder was built without indicators; "
                "use narrow_to or rebuild with indicators=True"
            )
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        if bound >= self.bound:
            return []
        return [-self._use[bound]]

    def narrow_to(self, bound: int) -> None:
        """Forbid labels >= ``bound`` (the paper's ``f(e) != b`` clauses)."""
        if bound > self.bound:
            raise EncodingError(
                f"cannot widen from {self.bound} to {bound}; re-encode instead"
            )
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        if not self.cells:
            self.bound = bound
            return
        if bound == 0:
            self._trivially_unsat = True
            self.bound = 0
            return
        for t in range(len(self.cells)):
            for k in range(bound, self.bound):
                self.solver.add_clause([-self._vars[t][k]])
        self.bound = bound

    def solve(
        self,
        *,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveStatus:
        if not self.cells:
            return SolveStatus.SAT
        if self._trivially_unsat:
            return SolveStatus.UNSAT
        return self.solver.solve(
            assumptions,
            conflict_budget=conflict_budget,
            time_budget=time_budget,
        )

    def extract_partition(self) -> Partition:
        """Decode the last SAT model into a validated partition."""
        if not self.cells:
            return Partition([], self.matrix.shape)
        labels: Dict[Cell, int] = {}
        for t, cell in enumerate(self.cells):
            assigned = [
                k for k in range(self.bound) if self.solver.model_value(self._vars[t][k])
            ]
            if len(assigned) != 1:
                raise SolverError(
                    f"cell {cell} has {len(assigned)} labels in the model"
                )
            labels[cell] = assigned[0]
        partition = Partition.from_assignment(self.matrix, labels)
        partition.validate(self.matrix)
        return partition


class BinaryLabelEncoder:
    """Bit-vector label encoding of ``r_B(M) <= bound``.

    Each 1-cell carries a ``ceil(log2(bound))``-wide label; rectangle
    sharing becomes label equality through Tseitin gates — structurally
    the closest CNF rendition of the paper's bit-vector SMT encoding.
    Narrowing adds ``label < bound`` range clauses.
    """

    def __init__(
        self,
        matrix: BinaryMatrix,
        bound: int,
        *,
        proof: Optional[ProofLog] = None,
    ) -> None:
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        self.matrix = matrix
        self.cells: List[Cell] = list(matrix.ones())
        self.bound = bound
        self.proof = proof
        self.solver = CdclSolver(proof=proof)
        self._trivially_unsat = False

        if not self.cells:
            return
        if bound == 0:
            self._trivially_unsat = True
            return

        self.width = max(1, (bound - 1).bit_length())
        self._labels: List[List[int]] = [
            [self.solver.new_var() for _ in range(self.width)]
            for _ in range(len(self.cells))
        ]
        for bits in self._labels:
            encode_less_than_constant(self.solver, bits, bound)

        self._eq_cache: Dict[Tuple[int, int], int] = {}
        for kind, a, b, cross in _cell_pairs_constraints(matrix, self.cells):
            if kind == "conflict":
                eq = self._equality(a, b)
                self.solver.add_clause([-eq])
            else:
                eq_ab = self._equality(a, b)
                eq_ac = self._equality(a, cross)
                self.solver.add_clause([-eq_ab, eq_ac])

    def _equality(self, a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        cached = self._eq_cache.get(key)
        if cached is None:
            cached = gate_equals(self.solver, self._labels[key[0]], self._labels[key[1]])
            self._eq_cache[key] = cached
        return cached

    def narrow_to(self, bound: int) -> None:
        if bound > self.bound:
            raise EncodingError(
                f"cannot widen from {self.bound} to {bound}; re-encode instead"
            )
        if bound < 0:
            raise EncodingError(f"bound must be >= 0, got {bound}")
        if not self.cells:
            self.bound = bound
            return
        if bound == 0:
            self._trivially_unsat = True
            self.bound = 0
            return
        for bits in self._labels:
            encode_less_than_constant(self.solver, bits, bound)
        self.bound = bound

    def solve(
        self,
        *,
        assumptions: Sequence[int] = (),
        conflict_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
    ) -> SolveStatus:
        if not self.cells:
            return SolveStatus.SAT
        if self._trivially_unsat:
            return SolveStatus.UNSAT
        return self.solver.solve(
            assumptions,
            conflict_budget=conflict_budget,
            time_budget=time_budget,
        )

    def extract_partition(self) -> Partition:
        if not self.cells:
            return Partition([], self.matrix.shape)
        labels: Dict[Cell, int] = {}
        for t, cell in enumerate(self.cells):
            value = 0
            for position, var in enumerate(self._labels[t]):
                if self.solver.model_value(var):
                    value |= 1 << position
            labels[cell] = value
        partition = Partition.from_assignment(self.matrix, labels)
        partition.validate(self.matrix)
        return partition


def make_encoder(
    matrix: BinaryMatrix,
    bound: int,
    *,
    encoding: str = "direct",
    symmetry: str = "precedence",
    amo_encoding: str = "auto",
    proof: Optional[ProofLog] = None,
    indicators: bool = False,
):
    """Factory over the two encoders (``direct`` | ``binary``)."""
    if encoding == "direct":
        return DirectEncoder(
            matrix,
            bound,
            symmetry=symmetry,
            amo_encoding=amo_encoding,
            proof=proof,
            indicators=indicators,
        )
    if encoding == "binary":
        if indicators:
            raise EncodingError(
                "usage indicators require the direct encoding"
            )
        return BinaryLabelEncoder(matrix, bound, proof=proof)
    raise EncodingError(f"unknown encoding {encoding!r}")

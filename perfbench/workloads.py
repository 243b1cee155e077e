"""Seeded inputs for the three workloads, and digests that pin them.

* ``exact-gap`` — a fixed panel of the paper's Set 3 (10x10 gap
  matrices, 2-5 split pairs) drawn once from :data:`GAP_PANEL_SEED`;
  the run seed draws the order the panel is visited in.  CDCL solve
  times on fresh Set-3 draws are heavy-tailed (the slowest 1% of cases
  take over a third of the time), so a per-seed panel would make
  throughput a property of the draw rather than of the program.
* ``serve-small`` — the ``smoke`` corpus, each cycle through it in a
  fresh seeded order, so which cases meet in the gateway's queue varies
  over the run rather than being fixed by one order.
* ``serve-cached`` — a pre-populated store plus a fixed-length seeded
  request sequence: a quarter new matrices (misses), the rest repeats
  of earlier matrices (memory or disk hits).  See :func:`cached_plan`.
  Its ``depth_sum`` counts every request, so it depends on the seed.

The program only ever sees the generated matrices; the seed stays here.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

from repro.benchgen.gap import gap_matrix
from repro.core.binary_matrix import BinaryMatrix

GAP_PANEL_SEED = 2024
GAP_PANEL_SIZE = 120
GAP_SHAPE = (10, 10)
GAP_PAIRS = (2, 5)

SMOKE_DIGEST_CYCLES = 1024

CLIENTS = 2
"""Client threads of ``serve-small``.  ``serve-cached`` has one: with
two, a request often waited behind the other client's per-stream store
flush (memory hits took 1.9 ms at the median but 28 ms at the 75th
percentile, against 1.0 and 1.1 ms with one client), and over ten runs
of the same code the quartiles of its throughput and median latency lay
30-45% of the median apart."""
PREPOPULATED = 1280
"""Entries written to the store in set-up: more than the gateway's
in-memory LRU tier holds (:data:`MEMORY_CAPACITY`)."""
MEMORY_CAPACITY = 1024
CACHED_SHAPE = (6, 6)
REQUESTS_PER_RUN_SECOND = 50
"""``serve-cached`` sends ``REQUESTS_PER_RUN_SECOND * seconds`` requests
however fast they are answered, so the hit/miss mix never depends on
speed; one client completes about that many per second."""
NEW_SHARE = 0.25
HOT_SHARE = 0.40
HOT_WINDOW = 32


@dataclass(frozen=True)
class Case:
    case_id: str
    matrix: BinaryMatrix

    def wire(self) -> Dict[str, object]:
        return {
            "case_id": self.case_id,
            "row_masks": list(self.matrix.row_masks),
            "num_cols": self.matrix.num_cols,
        }


def digest(cases: Iterable[Case]) -> str:
    """SHA-256 over ids and matrices, in order."""
    hasher = hashlib.sha256()
    for case in cases:
        hasher.update(json.dumps(case.wire(), sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def seeded_order(seed: int, size: int, salt: str) -> List[int]:
    order = list(range(size))
    random.Random(f"{salt}/{seed}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# exact-gap
# ----------------------------------------------------------------------
def gap_panel(size: int = GAP_PANEL_SIZE) -> List[Case]:
    rng = random.Random(GAP_PANEL_SEED)
    rows, cols = GAP_SHAPE
    panel = []
    for index in range(size):
        pairs = rng.randint(*GAP_PAIRS)
        matrix = gap_matrix(rows, cols, pairs, seed=rng.getrandbits(32))
        panel.append(Case(f"gap-{index:03d}-p{pairs}", matrix))
    return panel


# ----------------------------------------------------------------------
# serve-small
# ----------------------------------------------------------------------
def smoke_cases(root: Path) -> Tuple[List[Case], Dict[str, int]]:
    """The smoke corpus and its checked-in optimal depths."""
    from repro.corpus.registry import build_corpus

    baseline_path = root / "baselines" / "scoreboard_smoke.json"
    with open(baseline_path) as stream:
        baseline = json.load(stream)
    cases = [
        Case(instance.case_id, instance.matrix)
        for instance in build_corpus(
            profile=baseline["profile"], seed=baseline["seed"]
        )
    ]
    depths = {cid: entry["depth"] for cid, entry in baseline["entries"].items()}
    missing = [case.case_id for case in cases if case.case_id not in depths]
    if missing:
        raise ValueError(f"smoke cases without a baseline depth: {missing}")
    return cases, depths


def smoke_cycle(seed: int, cycle: int, size: int) -> List[int]:
    """The visiting order of the ``cycle``-th pass over the corpus."""
    return seeded_order(seed, size, f"serve-small/{cycle}")


def smoke_digest(cases: List[Case], seed: int) -> str:
    """Digest of the corpus and of the first :data:`SMOKE_DIGEST_CYCLES`
    cycle orders (more cycles than a run completes)."""
    hasher = hashlib.sha256(digest(cases).encode())
    for cycle in range(SMOKE_DIGEST_CYCLES):
        hasher.update(json.dumps(smoke_cycle(seed, cycle, len(cases))).encode())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# serve-cached
# ----------------------------------------------------------------------
MISS, MEMORY_HIT, DISK_HIT = "miss", "memory", "disk"


@dataclass(frozen=True)
class Request:
    case: Case
    expect: str
    """:data:`MISS`, :data:`MEMORY_HIT` or :data:`DISK_HIT`."""


@dataclass
class CachedPlan:
    prepopulated: List[Case]
    requests: List[Request]
    touched: int = 0
    """Distinct entries the gateway's memory tier sees during the run."""
    expected: Dict[str, int] = field(default_factory=dict)

    @property
    def disk_split_exact(self) -> bool:
        """With no LRU eviction the memory/disk split is exact; beyond
        capacity it depends on the gateway's eviction order."""
        return self.touched <= MEMORY_CAPACITY

    def all_cases(self) -> List[Case]:
        return self.prepopulated + [request.case for request in self.requests]


def _draw_distinct(rng: random.Random, seen: Set[Tuple[int, ...]]) -> BinaryMatrix:
    rows, cols = CACHED_SHAPE
    while True:
        masks = tuple(rng.getrandbits(cols) for _ in range(rows))
        if any(masks) and masks not in seen:
            seen.add(masks)
            return BinaryMatrix(list(masks), cols)


def cached_plan(seed: int, length: int) -> CachedPlan:
    """Store contents and the client's request list for ``serve-cached``.

    The requests are a seeded shuffle of a fixed mix: :data:`NEW_SHARE`
    new matrices, :data:`HOT_SHARE` repeats of one of the
    :data:`HOT_WINDOW` most recent matrices (memory hits), and the rest
    repeats of any stored matrix — pre-populated or introduced earlier.
    The client sends its next request after the last one finished, so
    every repeat's first answer is already stored and the expected hit
    kind is known in advance.
    """
    rng = random.Random(f"serve-cached/{seed}")
    seen: Set[Tuple[int, ...]] = set()
    prepopulated = [
        Case(f"pre-{index:05d}", _draw_distinct(rng, seen))
        for index in range(PREPOPULATED)
    ]
    new = round(length * NEW_SHARE)
    hot = round(length * HOT_SHARE)
    kinds = ["new"] * new + ["hot"] * hot + ["cold"] * (length - new - hot)
    rng.shuffle(kinds)
    stored = list(prepopulated)
    recent: List[Case] = []
    in_memory: Set[str] = set()
    requests: List[Request] = []
    expected = {MISS: 0, MEMORY_HIT: 0, DISK_HIT: 0}
    for kind in kinds:
        if kind == "new":
            case = Case(f"new-{expected[MISS]:05d}", _draw_distinct(rng, seen))
            stored.append(case)
            expect = MISS
        else:
            case = rng.choice(recent if kind == "hot" and recent else stored)
            expect = MEMORY_HIT if case.case_id in in_memory else DISK_HIT
        in_memory.add(case.case_id)
        if case in recent:
            recent.remove(case)
        recent.append(case)
        del recent[:-HOT_WINDOW]
        requests.append(Request(case, expect))
        expected[expect] += 1
    return CachedPlan(prepopulated, requests, len(in_memory), expected)

"""What the benchmark runs: sizes, the query mix and the four workloads.

Everything a later PR might be tempted to retune lives here, so a diff of
this file is a diff of the benchmark's definition. ``BENCHMARK.json`` at
the repository root names the workloads and metrics; its schema is fixed by
the driver and has no room for sizes, weights or op counts, so they are
recorded here and stamped into every result (see ``run.environment``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple

#: Table 1 query weights. Chosen so that, on every workload, the median
#: read falls inside the structural-join mode (Q4-Q6) and p90 inside the
#: Q1 mode; a percentile sitting on the boundary between two query shapes
#: flips between them from run to run.
MIX: Tuple[Tuple[str, int], ...] = (
    ("Q1", 2), ("Q2", 1), ("Q3", 1), ("Q4", 2), ("Q5", 2), ("Q6", 2),
)

#: a block is this many rounds of the ten-slot mix; each slot runs under
#: view semantics in exactly one round of a block (cho:view = 3:1)
ROUNDS_PER_BLOCK = 4

#: The document and ACL are one fixed instance, like the paper's single
#: XMark instance; ``--seed`` drives request order and update targets.
#: Seeding the data as well was measured first: the Section 5 ACL generator
#: decides ~70% of one region's items with a single coin flip per profile,
#: so seeds differed in difficulty by up to 50% and no bound could hold.
DATA_SEED = 2005

#: ACL generator parameters (Section 5 methodology, correlated subjects)
N_SUBJECTS = 12
N_PROFILES = 4
MUTATION_RATE = 0.0002
PROPAGATION_RATIO = 0.3
ACCESSIBILITY_RATIO = 0.7

PAGE_SIZE = 4096
CODEC = "structure-delta"

#: every group can read the top levels (site, its sections, the regions):
#: a group denied the root answers every path query by static denial
SKELETON_DEPTH = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark run."""

    n_items: int        # XMark items (~22 nodes each)
    twin_items: int     # size of the oracle-checked twin document
    setups: int         # full set-ups per run; setup_s is their median
    min_reps: int       # repetitions per run, whatever --seconds says
    max_blocks: int     # cap on a workload's 40-read blocks per repetition
    update_probe: int   # updates timed after the reads where none ran among them
    probe_reps: int     # how many times that probe runs
    update_ranges: int  # distinct subtree ranges the updates cycle over
    ttff_streams: int   # Q6 streams timed in a traced serve-* run

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


FULL = Sizes(
    n_items=2000, twin_items=200, setups=3, min_reps=3, max_blocks=1000,
    update_probe=20, probe_reps=5, update_ranges=8, ttff_streams=5,
)
QUICK = Sizes(
    n_items=100, twin_items=40, setups=1, min_reps=1, max_blocks=1,
    update_probe=4, probe_reps=1, update_ranges=4, ttff_streams=2,
)


@dataclass(frozen=True)
class Workload:
    """One fixed request multiset, its seeded order, and the store it runs on."""

    name: str
    kind: str                 # "twig": in-process engine; "serve": wire path
    buffer_capacity: int      # buffer-pool frames
    decoded_cache_bytes: int  # decoded-page cache budget
    updates: bool             # one update after every round of ten reads
    warm_all: bool            # warm-up covers every distinct request
    rep_blocks: int           # 40-read blocks in one repetition
    why: str

    def blocks(self, sizes: Sizes) -> int:
        return min(self.rep_blocks, sizes.max_blocks)


_4_MIB = 4 << 20

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "twig-hot", "twig", 1024, _4_MIB, False, True, 4,
            "whole store fits the decoded-page cache: operators, kernels, "
            "run lists and point navigation do all the work",
        ),
        Workload(
            "twig-cold", "twig", 8, 64 * 1024, False, False, 1,
            "caches hold ~1/9 of the store, so every join re-reads, "
            "re-verifies and re-decodes every page: storage dominates",
        ),
        Workload(
            "serve-read", "serve", 1024, _4_MIB, False, True, 80,
            "closed loop over the wire with every cache warm: protocol, "
            "admission and the result cache do nearly all the work",
        ),
        Workload(
            "serve-rw", "serve", 1024, _4_MIB, True, True, 2,
            "an update after every ten reads: each commit bumps the epoch, "
            "so caches refill while page rewrite and WAL are paid",
        ),
    )
}

#: closed-loop clients of the serve-* workloads. The box's two CPUs slow
#: each other down when both are busy (a CPU-bound loop runs up to 1.8x
#: slower beside another), so a second connection bought serve-read +33%
#: throughput at +52% latency and twice the run-to-run spread, and cost
#: serve-rw throughput outright (29-33 vs 43 ops/s) with p90 swinging 2x.
SERVE_CONNECTIONS = 1
SERVE_WORKERS = 2
SERVE_QUEUE_DEPTH = 16
#: serve-* users hold one or two of the first four groups
SERVE_GROUPS = 4
#: twig-* requests rotate over this many subject sets
TWIG_SUBJECT_SETS = 8

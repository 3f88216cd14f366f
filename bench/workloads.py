"""Seeded workload generation: operations, their argv and their spec files.

A workload is a closed loop with one client: a user running one `gmd`
command after another.  Its operations come in blocks of fixed
composition (operation kind, dimension n, family, nu, location offset,
draws, chunks, dump).  The seed chooses only the numbers inside each spec
and the order of operations within a block, so every seed keeps the mix,
and latency percentiles and throughput compare across seeds and commits.

A share of every block's specs adds a common location offset of 10^k,
k in {4, 8, 12}.  GMD does not depend on location, so those specs must
give the same answer as unshifted ones; they are kept even where the
program is known to fail on them.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

NORMAL = ("normal", None)
T105, T15, T2, T4, T30 = (("student-t", nu) for nu in (1.05, 1.5, 2.0, 4.0, 30.0))
OFFSETS = (1e4, 1e8, 1e12)


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a workload."""

    index: int
    block: int
    kind: str  # closed-form | bound | verify | quantile-gmd | estimate
    n: int
    family: str
    nu: float | None
    offset: float
    draws: int = 0
    chunks: int = 1
    dump: bool = False
    seed: int = 0
    spec: str = ""

    def argv(self, workdir: Path) -> list[str]:
        argv = [self.kind, str(workdir / self.spec)]
        if self.kind in ("verify", "estimate"):
            argv += ["--draws", str(self.draws), "--seed", str(self.seed),
                     "--chunks", str(self.chunks)]
        if self.dump:
            argv += ["--dump", str(workdir / self.dump_name)]
        return argv

    @property
    def dump_name(self) -> str:
        return self.spec.replace(".json", ".csv")

    def to_dict(self) -> dict:
        return asdict(self)


# Each layout row is (kind, n, (family, nu), offset, draws, chunks, dump).

def _exact_layout() -> list[tuple]:
    # 100 operations.  Sorted by latency, the two n = 500 operations and
    # the sixteen n = 200 ones make the top fifth, so p90 falls in the
    # middle of the n = 200 group and p50 inside the n = 10 group, where
    # argparse, file read and validation dominate.
    fams = (NORMAL, T4, T30, T15)
    rows = [("closed-form", 500, NORMAL, 0.0, 0, 1, False),
            ("bound", 500, T4, 0.0, 0, 1, False)]
    for n, count in ((2, 32), (10, 30), (50, 20), (200, 16)):
        for i in range(count):
            offset = OFFSETS[(i // 3) % 3] if i % 3 == 2 else 0.0
            rows.append((("closed-form", "bound")[i % 2], n, fams[(i // 2) % 4],
                         offset, 0, 1, False))
    return rows


def _verify_layout() -> list[tuple]:
    # nu = 1.05 stops at n = 3: at n = 6 one verify takes about 2 s and
    # would crowd out the other nu classes.
    rows = []
    for n in (2, 3, 4, 6):
        for fam in (NORMAL, T105, T15, T2, T4, T30):
            if fam is T105 and n > 3:
                continue
            rows.append(("verify", n, fam, 0.0, 2000, 1, False))
    for n, fam, offset in ((2, NORMAL, 1e4), (2, T15, 1e4), (3, T2, 1e4), (4, T4, 1e4),
                           (2, T30, 1e8), (3, NORMAL, 1e8), (4, T4, 1e12), (2, T15, 1e12)):
        rows.append(("verify", n, fam, offset, 2000, 1, False))
    for fam in (NORMAL, T105, T15, T2, T4, T30):
        rows.append(("quantile-gmd", 2, fam, 0.0, 0, 1, False))
    for i, fam in enumerate((NORMAL, T4, T30)):
        rows.append(("quantile-gmd", 3, fam, OFFSETS[i], 0, 1, False))
    return rows


def _estimate_layout() -> list[tuple]:
    # 34 operations.  Sampling dominates at n = 2, the O(n^2) pair
    # reduction at n = 50; one n = 50 operation takes about a third of a
    # block.  One n = 2 operation per block dumps its samples, so the CSV
    # writer stays well under the Monte Carlo share of the time and p90
    # falls inside the n = 10, 5e5-draw group rather than at its edge.
    fams = (NORMAL, T4, T30)
    rows = []
    for i in range(20):
        draws = (200_000, 200_000, 500_000, 1_000_000)[i % 4]
        dump = i == 13
        offset = OFFSETS[(i // 5) % 3] if i % 5 == 3 else 0.0
        rows.append(("estimate", 2, fams[i % 3], offset, draws, (1, 4)[i % 2], dump))
    for i in range(13):
        offset = OFFSETS[(i // 4) % 3] if i % 4 == 1 else 0.0
        rows.append(("estimate", 10, fams[i % 3], offset, (200_000, 500_000)[i % 2],
                     (4, 1)[i % 2], False))
    rows.append(("estimate", 50, T4, 0.0, 200_000, 4, False))
    return rows


@dataclass(frozen=True)
class Workload:
    name: str
    layout: tuple
    # Blocks a run measures at least: 100 operations or more, so that p90
    # has >= 10 beyond it.
    min_blocks: int
    # CPU seconds one block takes on the machine the benchmark was built on
    # (2-vCPU Xeon VM); it turns --seconds into a block count.
    block_s: float

    def blocks(self, seconds: float, traced: bool) -> int:
        """Blocks one run measures.

        The count depends on ``seconds`` alone, never on how fast the
        operations ran, so a seed always gives the same operations and
        the same failures.  A traced run runs every operation twice and
        reports sums, not percentiles, so it measures half as many.
        """
        blocks = max(self.min_blocks, round(seconds / self.block_s))
        return max(1, blocks // 2) if traced else blocks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact", tuple(_exact_layout()), 1, 13.0),
        Workload("verify-quad", tuple(_verify_layout()), 3, 3.6),
        Workload("estimate", tuple(_estimate_layout()), 3, 7.0),
    )
}


def random_spec(rng: np.random.Generator, n: int, family: str, nu: float | None,
                offset: float) -> dict:
    """A spec with a two-factor correlation matrix and mildly unequal scales.

    Factor loadings below 0.6 keep every idiosyncratic variance above
    0.28, so the scale matrix is well conditioned at every n.  It is
    assembled from its upper triangle, so it is exactly symmetric.
    """
    scales = np.exp(rng.uniform(-0.4, 0.4, n))
    loadings = rng.uniform(-0.6, 0.6, (n, 2))
    corr = loadings @ loadings.T
    np.fill_diagonal(corr, 1.0)
    sigma = np.triu(scales[:, None] * corr * scales[None, :])
    sigma = sigma + np.triu(sigma, 1).T
    mu = offset + rng.uniform(-1.0, 1.0, n)
    spec = {"family": family, "mu": mu.tolist(), "sigma": sigma.tolist()}
    if nu is not None:
        spec["nu"] = nu
    return spec


def block_ops(workload: Workload, seed: int, block: int, first_index: int
              ) -> Iterator[tuple[Op, dict]]:
    """The operations of one block with their specs, in run order."""
    rng = np.random.default_rng([seed, block, zlib.crc32(workload.name.encode())])
    order = rng.permutation(len(workload.layout))
    for k, row in enumerate(workload.layout[i] for i in order):
        kind, n, (family, nu), offset, draws, chunks, dump = row
        index = first_index + k
        op = Op(index, block, kind, n, family, nu, offset, draws, chunks, dump,
                seed=int(rng.integers(0, 2**31)), spec=f"op{index:05d}.json")
        yield op, random_spec(rng, n, family, nu, offset)


def write_spec(path: Path, spec: dict) -> None:
    path.write_text(json.dumps(spec))


def warmup_spec() -> dict:
    return {"family": "normal", "mu": [0.0, 0.0], "sigma": [[1.0, 0.0], [0.0, 1.0]]}

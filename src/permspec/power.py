"""Power study: estimated rejection rates over a (noise, n, snr) grid.

Each cell runs K independent replicates (fresh noise and fresh random
signal frequency every time), tests each at the given number of
permutations, and counts p-values at or below the significance level.
The replicates of a cell share one set of permutations, which is
independent of every replicate's series, and each of its rows is
shuffled once for all of them (once a cell where M rows fit a window of
plan rows, as at the desk grid's M=200).  Only the decision is needed, so
each test stops once it is settled (:func:`permutation.count_rejections`);
the count stays exact.
Cell seeds are pure functions of the master seed and the cell's position
in the grid, so cells can be computed in any order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .permutation import (
    PermutationPlan,
    check_alpha,
    check_confidence,
    check_permutations,
    count_rejections,
    decision_group,
    wilson_interval,
)
from .report import field_map, from_record, parse_object, parse_tagged, to_record, write_text
from .rng import ShuffleBuffers, check_integer, check_seed, seed_chain
from .signals import DISTRIBUTIONS, NoiseSpec, check_snr, composite_block

_DISTRIBUTION_IDS = {name: index + 1 for index, name in enumerate(DISTRIBUTIONS)}

# Full reference grid; an estimated 4.5-5.5 min on one core of a shared
# 2-core Xeon VM (a K=500 run of every cell took 13.6-16.6 s).
FULL_SCALE = dict(
    n_values=(30, 60, 120, 240),
    snr_values=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    replicates=10_000,
    permutations=1_000,
)


def check_replicates(replicates: int) -> None:
    """Reject a number of replicates per cell that is not an integer >= 1."""
    check_integer("replicates", replicates)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")


def _check_settings(replicates, permutations, alpha, confidence, seed) -> None:
    """The checks of the test settings that a grid and each of its cells share."""
    check_replicates(replicates)
    check_permutations(permutations)
    check_alpha(alpha)
    check_confidence(confidence)
    check_seed(seed)


@dataclass(frozen=True)
class StudyConfig:
    """A power-study grid and its test settings.  The defaults are the desk
    grid of the acceptance study, which runs in seconds on one core.  Its
    noise families are named, so a family appended to
    ``signals.DISTRIBUTIONS`` joins a grid only where a caller names it."""

    distributions: tuple[str, ...] = ("normal", "t2")
    n_values: tuple[int, ...] = (30, 60)
    snr_values: tuple[float, ...] = (0.0, 0.4, 0.8, 1.0)
    replicates: int = 500
    permutations: int = 200
    alpha: float = 0.05
    confidence: float = 0.95
    master_seed: int = 0

    def __post_init__(self):
        # the grids may arrive as lists, e.g. read back from a results file
        for name in ("distributions", "n_values", "snr_values"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for distribution in self.distributions:
            for n in self.n_values:
                NoiseSpec(distribution, n)  # each cell's noise family and length
        # equal values share a cell seed, so they would repeat a cell
        for label, values in (
            ("distribution", self.distributions),
            ("n", self.n_values),
            ("lambda", self.snr_values),
        ):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {label} values in {values}")
        for snr in self.snr_values:
            check_snr(snr)
        _check_settings(
            self.replicates, self.permutations, self.alpha, self.confidence, self.master_seed
        )

    def grid(self):
        """The grid's ``(distribution, n, snr)`` cells, in run order."""
        return itertools.product(self.distributions, self.n_values, self.snr_values)

    def cell_seed(self, distribution: str, n: int, snr: float) -> int:
        if (distribution, n, snr) not in self.grid():
            raise ValueError(f"no cell ({distribution!r}, n={n}, lambda={snr}) in the grid")
        return seed_chain(
            self.master_seed, _DISTRIBUTION_IDS[distribution], n, self.snr_values.index(snr)
        )


def desk_scale_config(master_seed: int = StudyConfig.master_seed, **overrides) -> StudyConfig:
    return StudyConfig(master_seed=master_seed, **overrides)


def full_scale_config(master_seed: int = StudyConfig.master_seed, **overrides) -> StudyConfig:
    return StudyConfig(master_seed=master_seed, **{**FULL_SCALE, **overrides})


@dataclass(frozen=True)
class PowerCell:
    """Estimated power for one (distribution, n, snr) combination."""

    distribution: str
    n: int
    snr: float
    replicates: int
    permutations: int
    alpha: float
    rejections: int
    power: float
    wilson_low: float
    wilson_high: float
    cell_seed: int


@dataclass(frozen=True)
class PowerTable:
    config: StudyConfig
    cells: tuple[PowerCell, ...] = field(default_factory=tuple)

    def cell(self, distribution: str, n: int, snr: float) -> PowerCell:
        for cell in self.cells:
            if (
                cell.distribution == distribution
                and cell.n == n
                and cell.snr == snr
            ):
                return cell
        raise KeyError(f"no cell for ({distribution!r}, n={n}, snr={snr})")


def run_cell(
    distribution: str,
    n: int,
    snr: float,
    replicates: int,
    permutations: int,
    alpha: float,
    cell_seed: int,
    confidence: float = 0.95,
    buffers: ShuffleBuffers | None = None,
) -> PowerCell:
    """Estimate power for one cell; deterministic given ``cell_seed``.

    Replicate r is ``random_composite`` of noise seed ``seed_chain(cell_seed,
    r, 0)`` tested with the cell's one plan, of test seed
    ``seed_chain(cell_seed, 1)``: a chain of two components, where every
    noise seed is a chain of three.  The replicates thus share their
    permutations, which are independent of each replicate's series, so
    each test keeps its size (Hemerik & Goeman 2018, *TEST* 27:811).  A
    window of the plan's rows is shuffled once for every replicate of a
    block, and, where M rows fit one window (M=200 at n <= 60), once for
    the whole cell, as the blocks find its rows still held in ``buffers``.
    The replicates are made and decided a block of
    :func:`decision_group` at a time, as arrays, whose values go to
    :func:`count_rejections` as they are, so memory does not grow with
    their number and no object is built per replicate.  Every round
    of the cell shuffles and scores in ``buffers``, which a caller with
    many cells holds for all of them (fresh ones without).  The blocks and
    the gather tiles of the rounds change no count: a replicate's
    simulations are a pure function of the test seed and their index.
    """
    spec = NoiseSpec(distribution, n)
    check_snr(snr)
    _check_settings(replicates, permutations, alpha, confidence, cell_seed)
    rejections, block = 0, decision_group(n, permutations)
    plan = PermutationPlan(seed_chain(cell_seed, 1), permutations)
    if buffers is None:
        buffers = ShuffleBuffers()  # the first round's arrays serve every later round
    for first in range(0, replicates, block):
        index = np.arange(first, min(first + block, replicates), dtype=np.uint64)
        values, _, _ = composite_block(spec, snr, seed_chain(cell_seed, index, 0))
        rejections += count_rejections(values, plan, alpha, buffers)
    low, high = wilson_interval(rejections, replicates, confidence)
    return PowerCell(
        distribution=distribution,
        n=n,
        snr=snr,
        replicates=replicates,
        permutations=permutations,
        alpha=alpha,
        rejections=rejections,
        power=rejections / replicates,
        wilson_low=low,
        wilson_high=high,
        cell_seed=cell_seed,
    )


def run_grid(config: StudyConfig, progress=None) -> PowerTable:
    """Run every cell of the grid.

    ``progress``, if given, is called with each finished PowerCell (the
    CLI uses this to stream one line per cell).  The cells share one set
    of shuffle buffers, grown to the largest any cell needs, so no cell
    faults them in anew.
    """
    cells, buffers = [], ShuffleBuffers()
    for distribution, n, snr in config.grid():
        cell = run_cell(
            distribution,
            n,
            snr,
            config.replicates,
            config.permutations,
            config.alpha,
            config.cell_seed(distribution, n, snr),
            config.confidence,
            buffers,
        )
        if progress is not None:
            progress(cell)
        cells.append(cell)
    return PowerTable(config=config, cells=tuple(cells))


POWER_SCHEMA = "permspec-power/2"

# the header line and the cell records, each key named as its field
# unless renamed here
_HEADER_FIELDS = field_map(
    StudyConfig, {"snr_values": "lambda_values", "replicates": "K", "permutations": "M"}
)
_CELL_FIELDS = field_map(PowerCell, {"snr": "lambda", "replicates": "K", "permutations": "M"})


def render_table(table: PowerTable) -> str:
    """Results file text: a schema header line, then one JSON record per cell."""
    header = {"schema": POWER_SCHEMA, **to_record(table.config, _HEADER_FIELDS)}
    records = [header, *(to_record(cell, _CELL_FIELDS) for cell in table.cells)]
    lines = [json.dumps(record, sort_keys=True, default=np.generic.item) for record in records]
    return "\n".join(lines) + "\n"


def save_table(table: PowerTable, path) -> None:
    write_text(path, render_table(table))


def load_table(path) -> PowerTable:
    """Parse a results file back into a PowerTable, validating the schema."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty results file")
    header = parse_tagged(lines[0], POWER_SCHEMA, "results")
    config = from_record(StudyConfig, header, _HEADER_FIELDS, "results header")
    cells = []
    for index, line in enumerate(lines[1:], start=1):
        what = f"cell record {index}"
        cells.append(from_record(PowerCell, parse_object(line, what), _CELL_FIELDS, what))
    return PowerTable(config=config, cells=tuple(cells))

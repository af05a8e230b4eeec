"""Power study: estimated rejection rates over a (noise, n, snr) grid.

Each cell runs K independent replicates (fresh noise and fresh random
signal frequency every time), tests each at the given number of
permutations, and counts p-values at or below the significance level.
Only that decision is needed, so each test stops once it is settled
(:func:`permutation.count_rejections`); the count stays exact.
Cell seeds are pure functions of the master seed and the cell's position
in the grid, so cells can be computed in any order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .kernels import msi_scale
from .permutation import (
    check_alpha,
    check_confidence,
    check_permutations,
    count_rejections,
    decision_group,
    wilson_interval,
)
from .report import field_map, from_record, parse_object, parse_tagged, to_record
from .rng import ShuffleBuffers, check_integer, check_seed, seed_chain
from .series import spread_rows
from .signals import DISTRIBUTIONS, NoiseSpec, check_snr, composite_block

_DISTRIBUTION_IDS = {name: index + 1 for index, name in enumerate(DISTRIBUTIONS)}

# Full reference grid; about 18 min on one core of a shared Xeon VM (a
# K=500 run of every cell took 54 s).
FULL_SCALE = dict(
    n_values=(30, 60, 120, 240),
    snr_values=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    replicates=10_000,
    permutations=1_000,
)

# seed_chain's last component: a replicate's noise seed, then its test seed
_ROLES = np.array([[0], [1]])


def check_replicates(replicates: int) -> None:
    """Reject a number of replicates per cell that is not an integer >= 1."""
    check_integer("replicates", replicates)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")


@dataclass(frozen=True)
class StudyConfig:
    """A power-study grid and its test settings.  The defaults are the desk
    grid of the acceptance study, which runs in seconds on one core."""

    distributions: tuple[str, ...] = DISTRIBUTIONS
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
        check_replicates(self.replicates)
        check_permutations(self.permutations)
        check_alpha(self.alpha)
        check_confidence(self.confidence)
        check_seed(self.master_seed)

    def cell_seed(self, distribution: str, n: int, snr: float) -> int:
        if (
            distribution not in self.distributions
            or n not in self.n_values
            or snr not in self.snr_values
        ):
            raise ValueError(f"no cell ({distribution!r}, n={n}, lambda={snr}) in the grid")
        return seed_chain(
            self.master_seed, _DISTRIBUTION_IDS[distribution], n, self.snr_values.index(snr)
        )


def desk_scale_config(master_seed: int = 0, **overrides) -> StudyConfig:
    return StudyConfig(master_seed=master_seed, **overrides)


def full_scale_config(master_seed: int = 0, **overrides) -> StudyConfig:
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
    r, 0)`` tested with master seed ``seed_chain(cell_seed, r, 1)``.  The
    replicates are made and decided a block of :func:`decision_group` at a
    time, as arrays, so memory does not grow with their number and no
    object is built per replicate.  Every round of the cell shuffles and
    scores in ``buffers``, which a caller with many cells holds for all of
    them (fresh ones without).  The blocks and the gather tiles of the
    rounds change no count: a replicate's simulations are a pure function
    of its seed and their index.
    """
    spec = NoiseSpec(distribution, n)
    check_snr(snr)
    check_replicates(replicates)
    check_permutations(permutations)
    check_alpha(alpha)
    check_confidence(confidence)
    check_seed(cell_seed)
    rejections = 0
    block = decision_group(n, permutations)
    if buffers is None:
        buffers = ShuffleBuffers()  # the first round's arrays serve every later round
    for first in range(0, replicates, block):
        index = np.arange(first, min(first + block, replicates), dtype=np.uint64)
        noise_seeds, test_seeds = seed_chain(cell_seed, index, _ROLES)
        values, _, _ = composite_block(spec, snr, noise_seeds)
        units, variances, _ = spread_rows(values)
        rejections += count_rejections(
            units, msi_scale(n, variances), test_seeds, permutations, alpha, buffers
        )
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
    for distribution in config.distributions:
        for n in config.n_values:
            for snr in config.snr_values:
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


POWER_SCHEMA = "permspec-power/1"

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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_table(table))


def load_table(path) -> PowerTable:
    """Parse a results file back into a PowerTable, validating the schema."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty results file")
    header = parse_tagged(lines[0], POWER_SCHEMA, "results")
    config = from_record(StudyConfig, header, _HEADER_FIELDS, "results header")
    cells = []
    for index, line in enumerate(lines[1:], start=1):
        what = f"cell record {index}"
        cells.append(from_record(PowerCell, parse_object(line, what), _CELL_FIELDS, what))
    return PowerTable(config=config, cells=tuple(cells))

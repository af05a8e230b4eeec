import re
from pathlib import Path

import numpy as np

import permspec
from permspec import kernels, rng
from permspec.permutation import DECISION_BLOCK, DECISION_ROUND_BYTES, ROW_BLOCK_BYTES, decision_group

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_section_names_only_exported_identifiers():
    """A public name deleted from the package cannot linger in README's
    *Library* section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*)`", prose)
    assert names, "no backticked identifier in the Library section"
    assert sorted(set(names) - set(permspec.__all__)) == []


def _sized(size: int) -> str:
    """A byte count as the README writes it: whole MiB or KiB."""
    return f"{size >> 20} MiB" if size >= 1 << 20 else f"{size >> 10} KiB"


def _widths() -> str:
    """The position types and the largest n of each narrower one, derived
    from rng.position_type."""
    tops = []
    for dtype in (np.uint8, np.uint16):
        top = int(np.iinfo(dtype).max) + 1
        assert rng.position_type(top) == dtype and rng.position_type(top + 1) != dtype
        tops.append(f"{dtype.__name__} up to n={top:,}")
    return f"({', '.join(tops)}, {rng.position_type(2**16 + 1).name} beyond)"


def _staged() -> str:
    """The lengths whose gather index is widened through a lane block, and
    a full tile at n=5,000, derived from TILE_BYTES, the cache line and
    rng.position_type."""
    dtype = rng.position_type(2**16)
    top = kernels.TILE_BYTES * dtype.itemsize // (8 * kernels.CACHE_LINE)  # the last unstaged n
    assert rng.position_type(top) == dtype == rng.position_type(top + 1)
    assert not kernels.stages_index(top, dtype) and kernels.stages_index(top + 1, dtype)
    lanes = kernels.TILE_BYTES // (8 * 5000)
    return (f"less than a {kernels.CACHE_LINE}-byte cache line (n > {top:,} with {dtype.name} positions: "
            f"{lanes} permutations, {lanes * dtype.itemsize} bytes, at n=5,000)")


def test_engine_figures_follow_the_code():
    """Every figure README quotes for the null engine is derived from the
    constant or rule that sets it, so a retune cannot leave it stale."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    figures = [
        f"at most {_sized(ROW_BLOCK_BYTES)} of shuffled positions",
        f"at most {_sized(kernels.TILE_BYTES)} of float rows",
        f"shuffling the next {DECISION_BLOCK} permutations",
        f"make that call gather {_sized(DECISION_ROUND_BYTES)} of positions",
        f"or {_sized(kernels.SMALL_TILE_BYTES)} where that is more",
        f"({decision_group(30, 200)} replicates of n=30, {decision_group(60, 200)} of n=60, at M=200)",
        f"narrowest unsigned type that holds them {_widths()}",
        f"narrowest unsigned type {_widths()}",
        f"its strip spans {_staged()}",
    ]
    assert [figure for figure in figures if figure not in text] == []

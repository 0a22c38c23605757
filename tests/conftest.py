"""Shared builders for frames, blocks, and palettes used across the suite."""

from __future__ import annotations

import numpy as np
import pytest

from dcpbench.dcp_codecs import CompressedBlocks
from dcpbench.palette import Ccd
from dcpbench.surface import Frame

OPAQUE = 0xFF000000


def rand_palette(rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` distinct opaque colors."""
    colors = set()
    while len(colors) < count:
        colors.add(int(rng.integers(0, 1 << 24)) | OPAQUE)
    return np.array(sorted(colors), dtype=np.uint32)


def make_block(kind: str, rng: np.random.Generator, palette: np.ndarray | None = None) -> np.ndarray:
    """One 8x8 uint32 block of the requested texture."""
    if palette is None:
        palette = rand_palette(rng, 16)
    if kind == "uniform":
        return np.full((8, 8), palette[rng.integers(len(palette))], dtype=np.uint32)
    if kind == "palette":
        idx = rng.integers(0, len(palette), size=(8, 8))
        return palette[idx].astype(np.uint32)
    if kind == "gradient":
        base = int(rng.integers(0, 200))
        xs = np.arange(8)
        r = (base + xs[None, :] * 3 + xs[:, None]) & 0xFF
        g = (base // 2 + xs[None, :] + xs[:, None] * 2) & 0xFF
        b = (base + xs[None, :]) & 0xFF
        return (r | (g << 8) | (b << 16) | OPAQUE).astype(np.uint32)
    if kind == "random":
        return rng.integers(0, 1 << 32, size=(8, 8), dtype=np.uint64).astype(np.uint32)
    if kind == "ui":
        block = np.full((8, 8), palette[0], dtype=np.uint32)
        ink = palette[1 % len(palette)]
        for y in range(1, 8, 3):
            run = int(rng.integers(2, 6))
            x = int(rng.integers(0, 8 - run + 1))
            block[y, x:x + run] = ink
        return block
    raise ValueError(kind)


def block_pool(total: int, seed: int, kinds=("palette", "uniform", "gradient", "ui")) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    palette = rand_palette(rng, 24)
    blocks = []
    for i in range(total):
        blocks.append(make_block(kinds[i % len(kinds)], rng, palette))
    return blocks


def ccd_from_blocks(blocks, size: int) -> Ccd:
    """Palette of the `size` most frequent colors over a block pool."""
    colors, counts = np.unique(np.stack(blocks), return_counts=True)
    order = np.lexsort((colors, -counts))
    return Ccd(colors[order][:size])


def assert_same_blocks(got, want):
    """Two `CompressedBlocks` records hold the same status rows, payload and
    bit counts."""
    assert np.array_equal(got.csb, want.csb)
    assert got.payload == want.payload
    assert np.array_equal(got.payload_bits, want.payload_bits)
    assert np.array_equal(got.cost_bits, want.cost_bits)


def split_blocks(comp) -> list[CompressedBlocks]:
    """Each block of a `CompressedBlocks` record as a one-block record."""
    ends = np.cumsum((comp.payload_bits + 7) // 8).tolist()
    return [CompressedBlocks(comp.csb[i:i + 1], comp.payload[lo:hi],
                             comp.payload_bits[i:i + 1], comp.cost_bits[i:i + 1])
            for i, (lo, hi) in enumerate(zip([0] + ends, ends))]


def frame_from_cells(cells: np.ndarray) -> Frame:
    """Blow up an (H/2, W/2) grid of per-sub-block colors into a frame."""
    grid = np.asarray(cells, dtype=np.uint32)
    return Frame(np.kron(grid, np.ones((2, 2), dtype=np.uint32)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

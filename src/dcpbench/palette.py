"""Color palettes: the read-side map code -> color, and the forward palette
that adds color -> code on top of it."""

from __future__ import annotations

import numpy as np

from .bitio import CorruptStreamError
from .fvc import is_pow2


def largest_pow2_le(n: int) -> int:
    if n < 1:
        return 0
    return 1 << (n.bit_length() - 1)


class Rccd:
    """Reverse palette (code -> color), attached to compressed frames."""

    def __init__(self, colors):
        self.colors = np.asarray(colors, dtype=np.uint32)
        # Code width in bits; a single-entry palette needs zero bits. Stored
        # once because the block codecs read it for every code.
        self.bits_per_code = (self.colors.size - 1).bit_length() if self.colors.size else 0

    def __len__(self) -> int:
        return int(self.colors.size)

    def to_bytes(self) -> bytes:
        """Serialized layout: u16 entry count then count little-endian u32."""
        count = len(self)
        return count.to_bytes(2, "little") + self.colors.astype("<u4").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Rccd":
        if len(data) < 2:
            raise CorruptStreamError("truncated palette blob")
        count = int.from_bytes(data[:2], "little")
        if len(data) < 2 + 4 * count:
            raise CorruptStreamError("truncated palette blob")
        colors = np.frombuffer(data[2:2 + 4 * count], dtype="<u4").astype(np.uint32)
        return cls(colors)

    @property
    def byte_size(self) -> int:
        return 2 + 4 * len(self)


class Ccd(Rccd):
    """Forward palette: the reverse palette plus a color -> index map.

    Index 0 always holds the most frequent color; the order is exactly the
    ranked-frequency order it was built from, so a size-k palette is a
    prefix of the size-2k palette built from the same ranking. The same
    object encodes a frame and decodes it, and serializes as its reverse
    palette.
    """

    def __init__(self, colors):
        super().__init__(list(colors))
        arr = self.colors
        if arr.ndim != 1:
            raise ValueError("palette colors must be a flat sequence")
        if len(np.unique(arr)) != arr.size:
            raise ValueError("palette colors must be unique")
        self._sorted = sorted_colors(arr)

    def lookup(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized encode: (codes, hit). codes is -1 where hit is False."""
        return sorted_lookup(self._sorted, pixels)


def sorted_colors(colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`colors` sorted, and the index of each sorted color in `colors`."""
    order = np.argsort(colors, kind="stable").astype(np.int64)
    return colors[order], order


def sorted_lookup(sorted_index: tuple[np.ndarray, np.ndarray],
                  pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, hit) for every pixel, by binary search over a palette's
    `sorted_colors`; the index is -1 where hit is False. Of equal colors the
    first is found."""
    colors, order = sorted_index
    if colors.size == 0:
        return np.full(pixels.shape, -1, dtype=np.int64), np.zeros(pixels.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(colors, pixels), colors.size - 1)
    hit = colors[pos] == pixels
    return np.where(hit, order[pos], -1), hit


def build_ccd(ranked: list[tuple[int, int]], size: int) -> Ccd:
    """Top `size` colors of a ranked frequency list, order preserved.

    `size` must be a power of two (or zero). When fewer colors are
    available the palette degrades to the largest power of two that fits;
    an empty ranking yields an empty palette, which disables compression.
    """
    if size == 0 or not ranked:
        return Ccd([])
    if not is_pow2(size):
        raise ValueError(f"palette size must be a power of two, got {size}")
    size = min(size, largest_pow2_le(len(ranked)))
    return Ccd([c for c, _ in ranked[:size]])

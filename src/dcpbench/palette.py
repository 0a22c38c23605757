"""Color palettes: `Ccd`, the ranked colors a frame is coded with. The one
object encodes (color -> code), decodes (code -> color) and serializes
itself as the reverse palette (RCCD) that a container carries."""

from __future__ import annotations

import numpy as np

from .bitio import CorruptStreamError
from .fvc import is_pow2


def largest_pow2_le(n: int) -> int:
    if n < 1:
        return 0
    return 1 << (n.bit_length() - 1)


class Ccd:
    """Forward palette (color -> index) and its reverse (index -> color).

    Index 0 always holds the most frequent color; the order is exactly the
    ranked-frequency order it was built from, so a size-k palette is a
    prefix of the size-2k palette built from the same ranking. Colors are
    unique. An empty palette codes nothing: every lookup misses.
    """

    def __init__(self, colors=()):
        self.colors = np.asarray(list(colors), dtype=np.uint32)
        if self.colors.ndim != 1:
            raise ValueError("palette colors must be a flat sequence")
        if len(np.unique(self.colors)) != self.colors.size:
            raise ValueError("palette colors must be unique")
        # Code width in bits; a single-entry palette needs zero bits. Stored
        # once because the block codecs read it for every code.
        self.bits_per_code = (self.colors.size - 1).bit_length() if self.colors.size else 0
        self._sorted = sorted_colors(self.colors)

    def __len__(self) -> int:
        return int(self.colors.size)

    def to_bytes(self) -> bytes:
        """Serialized layout: u16 entry count then count little-endian u32."""
        return len(self).to_bytes(2, "little") + self.colors.astype("<u4").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ccd":
        """The reverse palette at the head of `data`; a truncated one, or
        one that repeats a color, raises CorruptStreamError."""
        if len(data) < 2:
            raise CorruptStreamError("truncated palette blob")
        count = int.from_bytes(data[:2], "little")
        if len(data) < 2 + 4 * count:
            raise CorruptStreamError("truncated palette blob")
        try:
            return cls(np.frombuffer(data[2:2 + 4 * count], dtype="<u4"))
        except ValueError as exc:
            raise CorruptStreamError(str(exc)) from None

    @property
    def byte_size(self) -> int:
        return 2 + 4 * len(self)

    def lookup(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized encode: (codes, hit). codes is -1 where hit is False."""
        return sorted_lookup(self._sorted, pixels)


def sorted_colors(colors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`colors` sorted, and the index of each sorted color in `colors`."""
    order = np.argsort(colors, kind="stable").astype(np.int64)
    return colors[order], order


# A lookup searches only each raster run's first pixel when the runs number
# at most 1/RUN_HEAD_SHARE of the pixels. On UI content that more than halves
# the lookup's time; on run-poor content the heads cost more than they save.
RUN_HEAD_SHARE = 8


def sorted_lookup(sorted_index: tuple[np.ndarray, np.ndarray],
                  pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, hit) for every pixel, by binary search over a palette's
    `sorted_colors`; the index is -1 where hit is False. Of equal colors the
    first is found.

    Runs are taken in raster (C) order over the whole of `pixels`, across
    rows. When they number at most 1/RUN_HEAD_SHARE of the pixels, only each
    run's head is searched and its (index, hit) repeated over the run;
    otherwise every pixel is searched. Both give the same result. Counting
    the runs takes one compare pass over the pixels.
    """
    colors, order = sorted_index
    if colors.size == 0:
        return np.full(pixels.shape, -1, dtype=np.int64), np.zeros(pixels.shape, dtype=bool)
    flat = pixels.ravel()
    head = np.empty(flat.shape, dtype=bool)
    head[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=head[1:])
    if np.count_nonzero(head) <= flat.size // RUN_HEAD_SHARE:
        starts = np.flatnonzero(head)
        index, hit = _search(colors, order, flat[starts])
        lengths = np.diff(starts, append=flat.size)
        return (np.repeat(index, lengths).reshape(pixels.shape),
                np.repeat(hit, lengths).reshape(pixels.shape))
    return _search(colors, order, pixels)


def _search(colors: np.ndarray, order: np.ndarray,
            pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`sorted_lookup` by one binary search per pixel, over a non-empty palette."""
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
        return Ccd()
    if not is_pow2(size):
        raise ValueError(f"palette size must be a power of two, got {size}")
    size = min(size, largest_pow2_le(len(ranked)))
    return Ccd([c for c, _ in ranked[:size]])

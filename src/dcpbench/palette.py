"""Color palettes. A `Palette` is the rank-ordered colors a frame is coded
with: it finds each pixel's entry (`lookup`) and serializes itself for the
frame container. It has two kinds, each of which also gives the code of
every entry as one bit field (`code_fields`): a `Ccd`, whose codes are
fixed-width entry indices (DCP, ADCP, VDCP), and `huffman.HuffmanTable`,
whose codes are canonical prefix codes (HUFFDCP)."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bitio import CorruptStreamError
from .fvc import is_pow2


def largest_pow2_le(n: int) -> int:
    if n < 1:
        return 0
    return 1 << (n.bit_length() - 1)


class Palette:
    """Colors in rank order: index 0 holds the most frequent one. An empty
    palette codes nothing: every lookup misses.

    Serialized, a palette is a little-endian u16 entry count, then one
    `ENTRY` per color. `ENTRY`'s fields are the palette's per-entry arrays,
    named as its attributes and in the order its constructor takes them.
    """

    ENTRY = np.dtype([("colors", "<u4")])

    def __init__(self, colors=()):
        self.colors = np.asarray(list(colors), dtype=np.uint32)
        if self.colors.ndim != 1:
            raise ValueError("palette colors must be a flat sequence")
        order = np.argsort(self.colors, kind="stable").astype(np.int64)
        self._sorted = (self.colors[order], order)

    def __len__(self) -> int:
        return int(self.colors.size)

    def lookup(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized encode: (entry index per pixel, hit mask); the index
        is -1 where hit is False. Of equal colors the first is found."""
        return sorted_lookup(self._sorted, pixels)

    def to_bytes(self) -> bytes:
        entries = np.empty(len(self), dtype=self.ENTRY)
        for name in self.ENTRY.names:
            entries[name] = getattr(self, name)
        return len(self).to_bytes(2, "little") + entries.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Palette":
        """The palette at the head of `data`; a truncated one, or one the
        constructor refuses, raises CorruptStreamError."""
        end = 2 + cls.ENTRY.itemsize * int.from_bytes(data[:2], "little")
        if len(data) < end:
            raise CorruptStreamError(f"truncated {cls.__name__}")
        entries = np.frombuffer(data[2:end], dtype=cls.ENTRY)
        try:
            return cls(*(entries[name] for name in cls.ENTRY.names))
        except ValueError as exc:
            raise CorruptStreamError(str(exc)) from None

    @property
    def byte_size(self) -> int:
        return 2 + self.ENTRY.itemsize * len(self)


class Ccd(Palette):
    """A palette of unique colors coded by entry index, every code
    `bits_per_code` bits wide. Its order is exactly the ranked-frequency
    order it was built from, so a size-k palette is a prefix of the size-2k
    palette built from the same ranking. Serialized, it is the reverse
    palette (RCCD) that a container carries.
    """

    def __init__(self, colors=()):
        super().__init__(colors)
        if len(np.unique(self.colors)) != self.colors.size:
            raise ValueError("palette colors must be unique")
        # Code width in bits; a single-entry palette needs zero bits. Stored
        # once because the block codecs read it for every code.
        self.bits_per_code = (self.colors.size - 1).bit_length() if self.colors.size else 0

    @cached_property
    def code_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(widths, values) per entry, each code its index in
        `bits_per_code` bits, then one zero-width field that a miss (entry
        -1) reads."""
        return (np.append(np.full(len(self), self.bits_per_code), 0),
                np.append(np.arange(len(self)), 0).astype(np.uint64))


# A lookup searches only each raster run's first pixel when the runs number
# at most 1/RUN_HEAD_SHARE of the pixels. On UI content that more than halves
# the lookup's time; on run-poor content the heads cost more than they save.
RUN_HEAD_SHARE = 8


def sorted_lookup(sorted_index: tuple[np.ndarray, np.ndarray],
                  pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, hit) for every pixel, by binary search over a palette's
    sorted colors and the index of each in the palette; the index is -1
    where hit is False. Of equal colors the first is found.

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

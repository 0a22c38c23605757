"""Canonical prefix codes over ranked color frequencies.

A `HuffmanTable` is HUFFDCP's palette: it encodes and decodes the codes and
serializes itself for the frame container. Only the color and the code
length of each entry are stored; the codes follow from the lengths by the
canonical assignment.
"""

from __future__ import annotations

import heapq

import numpy as np

from .bitio import BitReader, CorruptStreamError


def code_lengths(freqs: list[int]) -> list[int]:
    """Huffman code length per symbol, in input (rank) order.

    Weight ties merge the later-ranked entry first so frequent symbols stay
    shallow; a single symbol gets a 1-bit code because zero-length codes
    break bitstream framing.
    """
    n = len(freqs)
    if n == 0:
        return []
    if n == 1:
        return [1]
    # Heap items: (weight, order, node). Symbol i gets order n-1-i; merged
    # nodes get fresh orders above n, so tie behavior is fully pinned.
    heap = [(w, n - 1 - i, i) for i, w in enumerate(freqs)]
    heapq.heapify(heap)
    parent: dict[int, int] = {}
    next_node = n
    next_order = n
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        parent[a] = next_node
        parent[b] = next_node
        heapq.heappush(heap, (w1 + w2, next_order, next_node))
        next_node += 1
        next_order += 1
    lengths = []
    for i in range(n):
        depth = 0
        node = i
        while node in parent:
            node = parent[node]
            depth += 1
        lengths.append(depth)
    return lengths


def canonical_codes(lengths: list[int]) -> list[int]:
    """Canonical code values: symbols sorted by (length, rank), codes counted up."""
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    codes = [0] * len(lengths)
    code = 0
    prev_len = lengths[order[0]] if order else 0
    for sym in order:
        code <<= lengths[sym] - prev_len
        codes[sym] = code
        prev_len = lengths[sym]
        code += 1
    return codes


# One serialized table entry: little-endian u32 color, u8 code length.
_ENTRY = np.dtype([("color", "<u4"), ("length", "u1")])


class HuffmanTable:
    """Prefix-code table over ranked colors, canonical assignment."""

    def __init__(self, colors: list[int], lengths: list[int]):
        if len(colors) != len(lengths):
            raise ValueError("colors and lengths differ in size")
        self.colors = np.asarray(colors, dtype=np.uint32)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.codes = canonical_codes(list(lengths))
        self._enc = {int(c): (self.codes[i], int(lengths[i]))
                     for i, c in enumerate(colors)}
        self._dec = {(int(lengths[i]), self.codes[i]): int(c)
                     for i, c in enumerate(colors)}
        self.max_length = int(self.lengths.max()) if len(lengths) else 0
        order = np.argsort(self.colors, kind="stable")
        self._sorted_colors = self.colors[order]
        self._sorted_lengths = self.lengths[order]

    def __len__(self) -> int:
        return int(self.colors.size)

    def to_bytes(self) -> bytes:
        """Serialized layout: u16 entry count, then per entry the u32 color
        and the u8 code length."""
        entries = np.empty(len(self), dtype=_ENTRY)
        entries["color"] = self.colors
        entries["length"] = self.lengths
        return len(self).to_bytes(2, "little") + entries.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HuffmanTable":
        if len(data) < 2:
            raise CorruptStreamError("truncated Huffman table")
        count = int.from_bytes(data[:2], "little")
        if len(data) < 2 + _ENTRY.itemsize * count:
            raise CorruptStreamError("truncated Huffman table")
        entries = np.frombuffer(data[2:2 + _ENTRY.itemsize * count], dtype=_ENTRY)
        return cls(entries["color"].tolist(), entries["length"].tolist())

    @property
    def byte_size(self) -> int:
        return 2 + _ENTRY.itemsize * len(self)

    def encode(self, color: int) -> tuple[int, int] | None:
        return self._enc.get(int(color))

    def lookup(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized: (code length per pixel, hit mask). Length 0 on miss."""
        if len(self) == 0:
            return np.zeros(pixels.shape, dtype=np.int64), np.zeros(pixels.shape, dtype=bool)
        pos = np.searchsorted(self._sorted_colors, pixels)
        pos = np.minimum(pos, len(self) - 1)
        hit = self._sorted_colors[pos] == pixels
        lens = np.where(hit, self._sorted_lengths[pos], 0)
        return lens, hit

    def decode_symbol(self, reader: BitReader) -> int:
        code = 0
        length = 0
        while True:
            code = (code << 1) | reader.read(1)
            length += 1
            sym = self._dec.get((length, code))
            if sym is not None:
                return sym
            if length > self.max_length:
                raise CorruptStreamError("no prefix code matches the stream")


def build_table(ranked: list[tuple[int, int]]) -> HuffmanTable:
    """Huffman table from a ranked (color, frequency) list."""
    colors = [c for c, _ in ranked]
    freqs = [f for _, f in ranked]
    return HuffmanTable(colors, code_lengths(freqs))

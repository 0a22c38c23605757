"""Canonical prefix codes over ranked color frequencies.

A `HuffmanTable` is HUFFDCP's palette: it gives each code as one bit field
for the encoder, finds the code at any offset of a stream for the decoder,
and serializes itself for the frame container. Only the color and the code
length of each entry are stored; the codes follow from the lengths by the
canonical assignment. No code is longer than one `bitio` field, 32 bits:
`build_table` flattens a deeper tree until it fits, and a stored length
over 32 is rejected.
"""

from __future__ import annotations

import heapq
from functools import cached_property

import numpy as np

from .bitio import FIELD_MAX_BITS, CorruptStreamError, read_fields
from .palette import sorted_colors, sorted_lookup


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
    """Prefix-code table over ranked colors, canonical assignment.

    Every code is at most `FIELD_MAX_BITS` (32) bits long, so each is one
    field, read with one 32-bit window. An empty table codes nothing.
    """

    def __init__(self, colors=(), lengths=()):
        if len(colors) != len(lengths):
            raise ValueError("colors and lengths differ in size")
        if max(lengths, default=0) > FIELD_MAX_BITS:
            raise ValueError(f"code length over {FIELD_MAX_BITS} bits")
        self.colors = np.asarray(colors, dtype=np.uint32)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        self.codes = canonical_codes(list(lengths))
        self._sorted = sorted_colors(self.colors)

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
        if entries["length"].max(initial=0) > FIELD_MAX_BITS:
            raise CorruptStreamError(f"Huffman code length over {FIELD_MAX_BITS} bits")
        return cls(entries["color"].tolist(), entries["length"].tolist())

    @property
    def byte_size(self) -> int:
        return 2 + _ENTRY.itemsize * len(self)

    def lookup(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized: (entry index per pixel, hit mask); -1 on a miss."""
        return sorted_lookup(self._sorted, pixels)

    @cached_property
    def code_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(widths, values) per entry, each code as one field, then one
        zero-width field that a miss (entry -1) reads."""
        return np.append(self.lengths, 0), np.array(self.codes + [0], dtype=np.uint64)

    @cached_property
    def _decoder(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The 32-bit left-justified starts of the codes a stream can reach,
        ascending, with each code's length and entry.

        Canonical codes, taken in order, left-justified, tile the line from
        0: each starts where the one before ends. A code is reachable while
        it fits its length and is at least 1 bit long; once one does not,
        none after it does. The code containing a window of stream bits is
        the last whose start is not above it. Past the last reachable code
        a sentinel with entry -1 marks the rest of the line as no code.
        """
        order = sorted(range(len(self)), key=lambda i: (int(self.lengths[i]), i))
        starts, lengths, entries = [], [], []
        end = 0
        for i in order:
            code, length = self.codes[i], int(self.lengths[i])
            if length < 1 or code >> length:
                break
            starts.append(code << (FIELD_MAX_BITS - length))
            lengths.append(length)
            entries.append(i)
            end = starts[-1] + (1 << (FIELD_MAX_BITS - length))
        if end < 1 << FIELD_MAX_BITS:
            starts.append(end)
            lengths.append(0)
            entries.append(-1)
        return (np.array(starts, dtype=np.uint64), np.array(lengths, dtype=np.int64),
                np.array(entries, dtype=np.int64))

    def decode_at(self, buf: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(code length, entry) of the code starting at each bit offset
        `at` of a `bitio.join_streams` buffer; entry -1 where the bits
        begin no code. A code may reach past the caller's stream end, which
        the caller checks against the length.
        """
        starts, lengths, entries = self._decoder
        k = np.searchsorted(starts, read_fields(buf, at, FIELD_MAX_BITS), side="right") - 1
        return lengths[k], entries[k]


def build_table(ranked: list[tuple[int, int]]) -> HuffmanTable:
    """Huffman table from a ranked (color, frequency) list.

    While the longest code is over 32 bits, the weights are halved, rounding
    up, and the codes rebuilt: that flattens the tree until every code fits
    one field. Rankings whose codes already fit keep `code_lengths` exactly.
    """
    colors = [c for c, _ in ranked]
    freqs = [f for _, f in ranked]
    lengths = code_lengths(freqs)
    while max(lengths, default=0) > FIELD_MAX_BITS:
        freqs = [(f + 1) // 2 for f in freqs]
        lengths = code_lengths(freqs)
    return HuffmanTable(colors, lengths)

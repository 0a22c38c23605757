"""Canonical prefix codes over ranked color frequencies.

A `HuffmanTable` is HUFFDCP's kind of `palette.Palette`: beside the lookup
and the serialization every palette has, it gives each code as one bit
field for the encoder and finds the code at any offset of a stream for the
decoder. Only the color and the code length of each entry are stored; the
codes follow from the lengths by the canonical assignment. No code is
longer than one `bitio` field, 32 bits: `build_table` flattens a deeper
tree until it fits, and a stored length over 32 is rejected.
"""

from __future__ import annotations

import heapq
from functools import cached_property

import numpy as np

from .bitio import FIELD_MAX_BITS, read_fields
from .palette import Palette


def code_lengths(freqs: list[int]) -> list[int]:
    """Huffman code length per symbol, in input (rank) order: the number
    of merges above it.

    Weight ties merge the later-ranked entry first so frequent symbols stay
    shallow; a single symbol gets a 1-bit code because zero-length codes
    break bitstream framing.
    """
    n = len(freqs)
    if n == 1:
        return [1]
    # Heap items: (weight, order, symbols under the node). Symbol i gets
    # order n-1-i; merged nodes get fresh orders from n up, so tie behavior
    # is fully pinned and the symbol lists are never compared.
    heap = [(w, n - 1 - i, [i]) for i, w in enumerate(freqs)]
    heapq.heapify(heap)
    lengths = [0] * n
    for order in range(n, 2 * n - 1):
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        merged = a + b
        for sym in merged:
            lengths[sym] += 1
        heapq.heappush(heap, (w1 + w2, order, merged))
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


class HuffmanTable(Palette):
    """Prefix-code table over ranked colors, canonical assignment. A table
    may repeat a color; the first entry of a color codes it.

    Every code is at most `FIELD_MAX_BITS` (32) bits long, so each is one
    field, read with one 32-bit window. Serialized, an entry is its u32
    color and its u8 code length.
    """

    ENTRY = np.dtype([("colors", "<u4"), ("lengths", "u1")])

    def __init__(self, colors=(), lengths=()):
        super().__init__(colors)
        self.lengths = np.asarray(lengths, dtype=np.int64)
        if self.lengths.shape != self.colors.shape:
            raise ValueError("colors and lengths differ in size")
        if self.lengths.max(initial=0) > FIELD_MAX_BITS:
            raise ValueError(f"code length over {FIELD_MAX_BITS} bits")
        self.codes = canonical_codes(self.lengths.tolist())

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

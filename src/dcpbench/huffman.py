"""Canonical prefix codes over ranked color frequencies.

A `HuffmanTable` is HUFFDCP's palette: it splits its codes into bit fields
for the encoder, finds the code at any offset of a stream for the decoder,
and serializes itself for the frame container. Only the color and the code
length of each entry are stored; the codes follow from the lengths by the
canonical assignment.
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

    Codes are handled as fields of at most 32 bits (`FIELD_MAX_BITS`), so a
    code of any stored length, up to 255 bits, is coded exactly and no code
    value is ever held in a machine word wider than its field.
    """

    def __init__(self, colors: list[int], lengths: list[int]):
        if len(colors) != len(lengths):
            raise ValueError("colors and lengths differ in size")
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
        return cls(entries["color"].tolist(), entries["length"].tolist())

    @property
    def byte_size(self) -> int:
        return 2 + _ENTRY.itemsize * len(self)

    def lookup(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized: (entry index per pixel, hit mask); -1 on a miss."""
        return sorted_lookup(self._sorted, pixels)

    @cached_property
    def code_fields(self) -> tuple[np.ndarray, np.ndarray]:
        """(widths, values), each (entries, C): every code split MSB first
        into C fields of at most 32 bits, C fixed by the longest code."""
        chunks = max(1, -(-int(self.lengths.max(initial=0)) // FIELD_MAX_BITS))
        widths = np.zeros((len(self), chunks), dtype=np.int64)
        values = np.zeros((len(self), chunks), dtype=np.uint64)
        for i, (code, length) in enumerate(zip(self.codes, self.lengths.tolist())):
            for j in range(-(-length // FIELD_MAX_BITS)):
                w = min(length - FIELD_MAX_BITS * j, FIELD_MAX_BITS)
                widths[i, j] = w
                values[i, j] = (code >> (length - FIELD_MAX_BITS * j - w)) & ((1 << w) - 1)
        return widths, values

    @cached_property
    def _decoder(self) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """Search keys over the codes a stream can reach, one key array per
        32-bit digit of a code left-justified to D digits, plus each code's
        length and entry.

        Canonical codes, taken in order, left-justified, tile the line from
        0: each starts where the one before ends. A code is reachable while
        it fits its length and is at least 1 bit long; once one does not,
        none after it does. The code containing a window of stream bits is
        the last whose start is not above it. Past the last reachable code
        a sentinel with entry -1 marks the rest of the line as no code.

        A digit key is (index of the first code sharing the earlier digits)
        << 32 | digit, so each key array is sorted and one search per digit
        narrows to the codes that share the window's digits so far.
        """
        order = sorted(range(len(self)), key=lambda i: (int(self.lengths[i]), i))
        reach = []
        for i in order:
            code, length = self.codes[i], int(self.lengths[i])
            if length < 1 or code >> length:
                break
            reach.append((code, length, i))
        digits = max(1, -(-max((r[1] for r in reach), default=0) // FIELD_MAX_BITS))
        span = FIELD_MAX_BITS * digits
        starts = [code << (span - length) for code, length, _ in reach]
        lengths = [length for _, length, _ in reach]
        entries = [i for _, _, i in reach]
        end = starts[-1] + (1 << (span - lengths[-1])) if reach else 0
        if end < 1 << span:
            starts.append(end)
            lengths.append(0)
            entries.append(-1)
        keys = []
        run = [0] * len(starts)
        for j in range(digits):
            digit = [(s >> FIELD_MAX_BITS * (digits - 1 - j)) & 0xFFFFFFFF for s in starts]
            keys.append(np.array([(r << 32) | d for r, d in zip(run, digit)], dtype=np.uint64))
            nxt: list[int] = []
            for i in range(len(starts)):
                same = i and run[i - 1] == run[i] and digit[i - 1] == digit[i]
                nxt.append(nxt[-1] if same else i)
            run = nxt
        return keys, np.array(lengths, dtype=np.int64), np.array(entries, dtype=np.int64)

    def decode_at(self, buf: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(code length, entry) of the code starting at each bit offset
        `at` of a `bitio.join_streams` buffer; entry -1 where the bits
        begin no code. A code may reach past the caller's stream end, which
        the caller checks against the length.
        """
        keys, lengths, entries = self._decoder
        at = np.asarray(at, dtype=np.int64)
        lo = np.zeros(at.shape, dtype=np.int64)
        found = np.empty(at.shape, dtype=np.int64)
        open_ = np.ones(at.shape, dtype=bool)
        for j, key in enumerate(keys):
            q = (lo.astype(np.uint64) << np.uint64(32)) | read_fields(buf, at + 32 * j, 32)
            k = np.searchsorted(key, q, side="right") - 1
            if j == len(keys) - 1:
                found[open_] = k[open_]
                break
            # The window's digit equals code k's: look among the codes that
            # share it. Otherwise code k (or the one before the run) is it.
            same = (k >= lo) & (key[np.maximum(k, 0)] == q)
            found[open_ & ~same] = k[open_ & ~same]
            open_ &= same
            if not open_.any():
                break
            lo = np.where(same, np.searchsorted(key, q, side="left"), lo)
        return lengths[found], entries[found]


def build_table(ranked: list[tuple[int, int]]) -> HuffmanTable:
    """Huffman table from a ranked (color, frequency) list."""
    colors = [c for c, _ in ranked]
    freqs = [f for _, f in ranked]
    return HuffmanTable(colors, code_lengths(freqs))

"""The scalar palette and RED block codecs, and a block-by-block frame
decoder: the differential oracle.

This is the bit-at-a-time implementation the batched codecs in
`dcpbench.dcp_codecs` and `dcpbench.reference_codecs` replaced. It writes
and reads one field at a time through `BitWriter`/`BitReader` and encodes
one pixel at a time through dictionaries built from the palette, so it is
slow and easy to check by eye. Each block encodes to a one-block
`CompressedBlocks` record, and `compress_blocks` joins a stack's records
into one, as the batch entries return it. Tests pin the batch entries, the
frame-cost engines and the frame decoder to it: same status entries,
payload bytes, payload and cost bits, same decoded blocks, and
`CorruptStreamError` on exactly the same damaged streams.

`sorted_lookup` is the per-pixel binary search that the palette lookup
keeps only for bands with many runs; tests pin the run-head search to it.
`code_lengths` builds the Huffman tree as a parent map and walks each
symbol to the root; tests pin `dcpbench.huffman.code_lengths` to it.
"""

from __future__ import annotations

import heapq
from functools import lru_cache

import numpy as np

from dcpbench.bitio import CorruptStreamError
from dcpbench.container import parse
from dcpbench.dcp_codecs import VDCP_MAX_CCD, VDCP_RAW, CompressedBlocks
from dcpbench.reference_codecs import RED_C4, RED_C8, RED_RAW
from dcpbench.surface import BLOCK, Frame, block_grid


# ---------------------------------------------------------------------------
# Records

def record(csb, w: BitWriter, cost_bits: int | None = None) -> CompressedBlocks:
    """One block's record: its status entries and the stream written to
    `w`, charged `cost_bits`, by default the stream's bits."""
    bits = w.bit_length
    return CompressedBlocks(np.array([csb], dtype=np.int64), w.to_bytes(), np.array([bits]),
                            np.array([bits if cost_bits is None else cost_bits]))


def stack(records: list[CompressedBlocks], k: int) -> CompressedBlocks:
    """One-block records of k status entries each as one record of the
    stack, as a batch entry returns it."""
    return CompressedBlocks(
        np.concatenate([np.empty((0, k), dtype=np.int64)] + [r.csb for r in records]),
        b"".join(r.payload for r in records),
        np.concatenate([np.empty(0, dtype=np.int64)] + [r.payload_bits for r in records]),
        np.concatenate([np.empty(0, dtype=np.int64)] + [r.cost_bits for r in records]))


# ---------------------------------------------------------------------------
# Bit I/O

class BitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self):
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits

    def align_byte(self) -> None:
        pad = -self._nbits % 8
        if pad:
            self.write(0, pad)

    @property
    def bit_length(self) -> int:
        return self._nbits

    def to_bytes(self) -> bytes:
        nbytes = (self._nbits + 7) // 8
        acc = self._acc << (nbytes * 8 - self._nbits)
        return acc.to_bytes(nbytes, "big")


class BitReader:
    """Reads bits most-significant-first from a byte string.

    Only a window of WINDOW_BYTES bytes is held as an integer, reloaded when
    a read crosses its end, so a read costs the same however long the
    stream is.
    """

    WINDOW_BYTES = 64

    def __init__(self, data: bytes, nbits: int | None = None):
        self._data = bytes(data)
        self._total = len(data) * 8 if nbits is None else nbits
        if nbits is not None and nbits > len(data) * 8:
            raise ValueError("declared bit length exceeds buffer")
        self._pos = 0
        self._window = 0
        self._window_end = 0     # bit position just past the window

    def read(self, nbits: int) -> int:
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        end = self._pos + nbits
        if end > self._total:
            raise CorruptStreamError("bit stream exhausted")
        if end > self._window_end:
            first = self._pos // 8
            last = max(first + self.WINDOW_BYTES, (end + 7) // 8)
            chunk = self._data[first:last]
            self._window = int.from_bytes(chunk, "big")
            self._window_end = (first + len(chunk)) * 8
        self._pos = end
        return (self._window >> (self._window_end - end)) & ((1 << nbits) - 1)

    def peek(self, nbits: int) -> int:
        """The next `nbits` bits, left unread."""
        value = self.read(nbits)
        self._pos -= nbits
        return value

    def remaining(self) -> int:
        return self._total - self._pos

    def align_byte(self) -> None:
        pad = -self._pos % 8
        if pad:
            self.read(pad)

    def tell(self) -> int:
        return self._pos


# ---------------------------------------------------------------------------
# Sub-blocks and palettes, one pixel at a time

def sub_block_pixels(block: np.ndarray) -> np.ndarray:
    """The 16 2x2 sub-blocks of an 8x8 block, raster order on both levels,
    as a (16, 4) array: each row one sub-block's pixels in raster order."""
    return block.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 4)


def assemble_sub_blocks(groups: np.ndarray) -> np.ndarray:
    """Inverse of sub_block_pixels: (16, 4) -> (8, 8)."""
    return np.asarray(groups).reshape(4, 4, 2, 2).transpose(0, 2, 1, 3).reshape(8, 8)


@lru_cache(maxsize=16)
def _first_index(palette) -> dict[int, int]:
    index: dict[int, int] = {}
    for i, color in enumerate(palette.colors.tolist()):
        index.setdefault(color, i)
    return index


def sorted_lookup(sorted_index: tuple[np.ndarray, np.ndarray],
                  pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`dcpbench.palette.sorted_lookup` by one binary search per pixel,
    whatever the runs: (index, hit), the index -1 where hit is False, the
    first of equal colors found."""
    colors, order = sorted_index
    if colors.size == 0:
        return np.full(pixels.shape, -1, dtype=np.int64), np.zeros(pixels.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(colors, pixels), colors.size - 1)
    hit = colors[pos] == pixels
    return np.where(hit, order[pos], -1), hit


def ccd_encode(ccd, color: int) -> int | None:
    """The code of `color` in a forward palette, or None."""
    return _first_index(ccd).get(int(color))


def ccd_decode(ccd, index: int) -> int:
    """The color of code `index` in a palette; a code past its end raises."""
    if index < 0 or index >= len(ccd):
        raise CorruptStreamError(f"palette index {index} out of range 0..{len(ccd) - 1}")
    return int(ccd.colors[index])


def code_lengths(freqs: list[int]) -> list[int]:
    """Huffman code length per symbol, in input order: the depth of its
    leaf. Ties pop the later-ranked symbol first, then the older node."""
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
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        parent[a] = parent[b] = next_node
        heapq.heappush(heap, (w1 + w2, next_node, next_node))
        next_node += 1
    lengths = []
    for i in range(n):
        depth, node = 0, i
        while node in parent:
            node = parent[node]
            depth += 1
        lengths.append(depth)
    return lengths


def huffman_encode(table, color: int) -> tuple[int, int] | None:
    """(code, length) of `color` in a Huffman table, or None."""
    i = _first_index(table).get(int(color))
    return None if i is None else (table.codes[i], int(table.lengths[i]))


@lru_cache(maxsize=16)
def _prefix_codes(table) -> dict[tuple[int, int], int]:
    return {(int(length), code): int(color)
            for color, length, code in zip(table.colors, table.lengths, table.codes)}


def huffman_decode_symbol(table, reader: BitReader) -> int:
    """The color of the next prefix code, matched one bit at a time."""
    codes = _prefix_codes(table)
    max_length = int(table.lengths.max(initial=0))
    code = 0
    length = 0
    while True:
        code = (code << 1) | reader.read(1)
        length += 1
        sym = codes.get((length, code))
        if sym is not None:
            return sym
        if length > max_length:
            raise CorruptStreamError("no prefix code matches the stream")


# ---------------------------------------------------------------------------
# DCP, VDCP, HUFFDCP
#
# A family fixes the status of a raw sub-block and how a coded sub-block's
# codes are sized and read:
#
#   size(codes, palette)          -> (status, [(value, width), ...]) to write
#   read(status, reader, palette) -> the color of the next code in the stream

def _fixed_size(codes, ccd):
    return 1, [(c, ccd.bits_per_code) for c in codes]


def _fixed_read(status, reader: BitReader, ccd) -> int:
    return ccd_decode(ccd, reader.read(ccd.bits_per_code))


def _variable_size(codes, ccd):
    v = max(codes).bit_length()
    return v, [(c, v) for c in codes]


def _variable_read(status, reader: BitReader, ccd) -> int:
    return ccd_decode(ccd, reader.read(status))


def _prefix_size(codes, table):
    return 1, codes                  # huffman_encode already gives (code, length)


def _prefix_read(status, reader: BitReader, table) -> int:
    return huffman_decode_symbol(table, reader)


# codec -> (raw status, encode one color, size, read)
FAMILIES = {
    "dcp": (0, ccd_encode, _fixed_size, _fixed_read),
    "vdcp": (VDCP_RAW, ccd_encode, _variable_size, _variable_read),
    "huffdcp": (0, huffman_encode, _prefix_size, _prefix_read),
}


def _compress_block(codec: str, block: np.ndarray, palette) -> CompressedBlocks:
    raw_status, encode, size, _ = FAMILIES[codec]
    w = BitWriter()
    csb = []
    for group in sub_block_pixels(block).tolist():
        codes = [encode(palette, p) for p in group]
        if None in codes:
            csb.append(raw_status)
            for p in group:
                w.write(p, 32)
        else:
            status, fields = size(codes, palette)
            csb.append(status)
            for value, width in fields:
                w.write(value, width)
    return record(csb, w)


def _read_palette_block(codec: str, reader: BitReader, csb, palette) -> np.ndarray:
    raw_status, _, _, read = FAMILIES[codec]
    groups = []
    for status in csb:
        if status == raw_status:
            groups.append([reader.read(32) for _ in range(4)])
        else:
            groups.append([read(status, reader, palette) for _ in range(4)])
    return assemble_sub_blocks(np.array(groups, dtype=np.uint32))


def dcp_compress_block(block: np.ndarray, ccd) -> CompressedBlocks:
    return _compress_block("dcp", block, ccd)


def vdcp_compress_block(block: np.ndarray, ccd) -> CompressedBlocks:
    if len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    return _compress_block("vdcp", block, ccd)


def huffdcp_compress_block(block: np.ndarray, table) -> CompressedBlocks:
    return _compress_block("huffdcp", block, table)


# ---------------------------------------------------------------------------
# RED

# 8 region colors, 16 sub-block colors, or 64 raw pixels, 32 bits each.
RED_CHARGED_BITS = {RED_C8: 256, RED_C4: 512, RED_RAW: 2048}


def _red_tiles_uniform(rows: list[list[int]], height: int, width: int) -> bool:
    """Whether every `height`-tall x `width`-wide tile of an 8x8 block holds
    one color, comparing each pixel with its tile's top-left pixel."""
    for y0 in range(0, 8, height):
        for x0 in range(0, 8, width):
            for y in range(y0, y0 + height):
                for x in range(x0, x0 + width):
                    if rows[y][x] != rows[y0][x0]:
                        return False
    return True


def red_classify_block(block: np.ndarray) -> tuple[int, int]:
    """(class, charged bits): C8 when every 2-tall x 4-wide region is one
    color, else C4 when every 2x2 cell is, else raw."""
    rows = np.asarray(block).reshape(8, 8).tolist()
    if _red_tiles_uniform(rows, 2, 4):
        cls = RED_C8
    elif _red_tiles_uniform(rows, 2, 2):
        cls = RED_C4
    else:
        cls = RED_RAW
    return cls, RED_CHARGED_BITS[cls]


def red_compress_block(block: np.ndarray, palette=None) -> CompressedBlocks:
    cls, bits = red_classify_block(block)
    if cls == RED_C8:
        colors = block.reshape(4, 2, 2, 4)[:, 0, :, 0]
    elif cls == RED_C4:
        colors = block.reshape(4, 2, 4, 2)[:, 0, :, 0]
    else:
        colors = block
    w = BitWriter()
    for c in colors.reshape(-1).tolist():
        w.write(c, 32)
    return record([cls], w)


def _read_red(reader: BitReader, csb, palette=None) -> np.ndarray:
    bits = RED_CHARGED_BITS.get(csb[0])
    if bits is None:
        raise CorruptStreamError(f"RED status {csb[0]} is not a class")
    colors = np.array([reader.read(32) for _ in range(bits // 32)], dtype=np.uint32)
    if csb[0] == RED_C8:
        return np.repeat(np.repeat(colors.reshape(4, 2), 2, axis=0), 4, axis=1)
    if csb[0] == RED_C4:
        return np.repeat(np.repeat(colors.reshape(4, 4), 2, axis=0), 2, axis=1)
    return colors.reshape(8, 8)


# ---------------------------------------------------------------------------
# Any family, in place, and a whole frame block by block

def read_block(codec: str, reader: BitReader, csb, palette=None) -> np.ndarray:
    """Decode one block in place from `reader`, given its status entries,
    leaving the reader just past the block's stream."""
    if codec in FAMILIES:
        return _read_palette_block(codec, reader, csb, palette)
    if codec == "red":
        return _read_red(reader, csb)
    import ras_oracle                   # it imports this module
    if codec == "ras":
        return ras_oracle.read_ras(reader, csb)
    return ras_oracle.read_hybrid(reader, csb, palette)


def compress_block(codec: str, block: np.ndarray, palette) -> CompressedBlocks:
    if codec == "red":
        return red_compress_block(block)
    if codec in FAMILIES:
        return _compress_block(codec, block, palette)
    import ras_oracle
    if codec == "ras":
        return ras_oracle.ras_compress_block(block)
    return ras_oracle.hybrid_compress_block(block, palette)


def compress_blocks(codec: str, blocks: np.ndarray, palette) -> CompressedBlocks:
    """A stack encoded block by block, as one record."""
    return stack([compress_block(codec, block, palette) for block in blocks],
                 1 if codec in ("ras", "red") else 16)


def decompress_streams(codec: str, grid, payload: bytes, palette=None) -> np.ndarray:
    """The blocks of a payload of byte-aligned streams, one status row of
    `grid` each, decoded one at a time from one reader over the payload;
    payload bytes left over raise."""
    reader = BitReader(payload)
    blocks = []
    for entries in np.asarray(grid).tolist():
        blocks.append(read_block(codec, reader, entries, palette))
        reader.align_byte()
    if reader.remaining():
        raise CorruptStreamError(f"{reader.remaining() // 8} payload bytes left unread")
    return np.array(blocks, dtype=np.uint32).reshape(-1, BLOCK, BLOCK)


def decompress_frame(data: bytes) -> Frame:
    """A container decoded block by block with `decompress_streams`."""
    s, width, height, palette, grid, payload = parse(data)
    nbx, nby = block_grid(width, height)
    blocks = decompress_streams(s.codec, grid, payload, palette)
    padded = blocks.reshape(nby, nbx, BLOCK, BLOCK).swapaxes(1, 2).reshape(nby * BLOCK, -1)
    return Frame(padded[:height, :width].copy())

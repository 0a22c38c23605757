"""The scalar palette and RED block codecs, and a block-by-block frame
decoder: the differential oracle.

This is the bit-at-a-time implementation the batched codecs in
`dcpbench.dcp_codecs` and `dcpbench.reference_codecs` replaced. It writes
and reads one field at a time through `BitWriter`/`BitReader` and encodes
one pixel at a time through dictionaries built from the palette, so it is
slow and easy to check by eye. Tests pin the batch entries, the frame-cost
engines and the frame decoder to it: same status entries, payload bytes,
payload and cost bits, same decoded blocks, and `CorruptStreamError` on
exactly the same damaged streams.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from dcpbench.bitio import CorruptStreamError
from dcpbench.container import parse
from dcpbench.dcp_codecs import VDCP_MAX_CCD, VDCP_RAW, CompressedBlock
from dcpbench.huffman import HuffmanTable
from dcpbench.palette import Rccd
from dcpbench.reference_codecs import RED_C4, RED_C8, RED_CHARGED_BITS, red_classify_block
from dcpbench.surface import BLOCK, Frame, block_grid


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


def ccd_encode(ccd, color: int) -> int | None:
    """The code of `color` in a forward palette, or None."""
    return _first_index(ccd).get(int(color))


def rccd_decode(rccd, index: int) -> int:
    if index < 0 or index >= len(rccd):
        raise CorruptStreamError(f"palette index {index} out of range 0..{len(rccd) - 1}")
    return int(rccd.colors[index])


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


def _fixed_read(status, reader: BitReader, rccd) -> int:
    return rccd_decode(rccd, reader.read(rccd.bits_per_code))


def _variable_size(codes, ccd):
    v = max(codes).bit_length()
    return v, [(c, v) for c in codes]


def _variable_read(status, reader: BitReader, rccd) -> int:
    return rccd_decode(rccd, reader.read(status))


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


def _compress_block(codec: str, block: np.ndarray, palette) -> CompressedBlock:
    raw_status, encode, size, _ = FAMILIES[codec]
    usable = palette is not None and len(palette) > 0
    w = BitWriter()
    csb = []
    for group in sub_block_pixels(block).tolist():
        codes = [encode(palette, p) for p in group] if usable else [None]
        if None in codes:
            csb.append(raw_status)
            for p in group:
                w.write(p, 32)
        else:
            status, fields = size(codes, palette)
            csb.append(status)
            for value, width in fields:
                w.write(value, width)
    return CompressedBlock(tuple(csb), w.to_bytes(), w.bit_length, w.bit_length)


def _read_palette_block(codec: str, reader: BitReader, csb, palette) -> np.ndarray:
    raw_status, _, _, read = FAMILIES[codec]
    if palette is None:
        palette = HuffmanTable([], []) if codec == "huffdcp" else Rccd([])
    groups = []
    for status in csb:
        if status == raw_status:
            groups.append([reader.read(32) for _ in range(4)])
        else:
            groups.append([read(status, reader, palette) for _ in range(4)])
    return assemble_sub_blocks(np.array(groups, dtype=np.uint32))


def dcp_compress_block(block: np.ndarray, ccd) -> CompressedBlock:
    return _compress_block("dcp", block, ccd)


def vdcp_compress_block(block: np.ndarray, ccd) -> CompressedBlock:
    if ccd is not None and len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    return _compress_block("vdcp", block, ccd)


def huffdcp_compress_block(block: np.ndarray, table) -> CompressedBlock:
    return _compress_block("huffdcp", block, table)


# ---------------------------------------------------------------------------
# RED

def red_compress_block(block: np.ndarray, palette=None) -> CompressedBlock:
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
    return CompressedBlock((cls,), w.to_bytes(), bits, bits)


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


def compress_block(codec: str, block: np.ndarray, palette) -> CompressedBlock:
    if codec == "red":
        return red_compress_block(block)
    if codec in FAMILIES:
        return _compress_block(codec, block, palette)
    import ras_oracle
    if codec == "ras":
        return ras_oracle.ras_compress_block(block)
    return ras_oracle.hybrid_compress_block(block, palette)


def decompress_block(codec: str, comp: CompressedBlock, palette=None) -> np.ndarray:
    return read_block(codec, BitReader(comp.payload, comp.payload_bits), comp.csb, palette)


def decompress_frame(data: bytes) -> Frame:
    """A container decoded one block at a time from one reader over the
    payload, each block byte-aligned; payload bytes left over raise."""
    s, width, height, palette, grid, payload = parse(data)
    reader = BitReader(payload)
    nbx, nby = block_grid(width, height)
    padded = np.zeros((nby * BLOCK, nbx * BLOCK), dtype=np.uint32)
    for i, entries in enumerate(grid.tolist()):
        y0, x0 = divmod(i, nbx)
        padded[BLOCK * y0:BLOCK * (y0 + 1), BLOCK * x0:BLOCK * (x0 + 1)] = read_block(
            s.codec, reader, entries, palette)
        reader.align_byte()
    if reader.remaining():
        raise CorruptStreamError(f"{reader.remaining() // 8} payload bytes left unread")
    return Frame(padded[:height, :width].copy())

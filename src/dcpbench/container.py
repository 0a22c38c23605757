"""On-disk container for a compressed frame: a round-trip test artifact.

Layout (integers little-endian unless they live in the bit streams):

  magic   4 bytes  b"FBC1"
  scheme  u8       the scheme's tag in `schemes.py`
  width   u32      real frame width in pixels
  height  u32      real frame height
  rccd    u16 entry count + count x u32 colors (zero entries for RAS/RED)
  table   HUFFDCP only: u16 count + count x (u32 color, u8 code length)
  csb     packed status entries, padded to a byte boundary; palette schemes
          store one entry per sub-block in global raster order, RAS/RED
          store one 2-bit entry per block in block raster order
  payload per-block bit streams in block raster order, each byte-aligned

Bandwidth accounting never reads container bytes; the burst model is the
measurement path and this format exists for losslessness audits. Scheme facts
come from `schemes.py`; `--dump-frames` takes palettes from `runner.replay`.
"""

from __future__ import annotations

import numpy as np

from .bitio import BitReader, BitWriter, CorruptStreamError
from .dcp_codecs import (
    dcp_compress_block,
    huffdcp_compress_block,
    read_block,
    vdcp_compress_block,
)
from .huffman import HuffmanTable
from .palette import Ccd, Rccd
from .reference_codecs import (
    GR_K_RAW,
    HDCP_RAS_BASE,
    RasBlock,
    RedBlock,
    golomb_rice_decode,
    hybrid_compress_block,
    ras_compress_block,
    ras_decompress_block,
    red_compress_block,
    red_decompress_block,
)
from .schemes import BY_TAG, CCD, HUFFMAN, SCHEMES, Scheme
from .surface import BLOCK, Frame, block_refs, iter_blocks

MAGIC = b"FBC1"


def compress_frame(frame: Frame, scheme: str, ccd: Ccd | None = None,
                   table: HuffmanTable | None = None) -> bytes:
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    s = SCHEMES[scheme]
    blocks = [_encode_block(s, block, ccd, table) for _, _, block, _ in iter_blocks(frame)]

    out = bytearray()
    out += MAGIC
    out.append(s.tag)
    out += frame.width.to_bytes(4, "little")
    out += frame.height.to_bytes(4, "little")
    if ccd is not None and s.palette == CCD:
        out += ccd.rccd().to_bytes()
    else:
        out += Rccd([]).to_bytes()
    if s.palette == HUFFMAN:
        tbl = table if table is not None else HuffmanTable([], [])
        out += len(tbl).to_bytes(2, "little")
        for color, length in zip(tbl.colors.tolist(), tbl.lengths.tolist()):
            out += int(color).to_bytes(4, "little")
            out.append(int(length))

    csb = BitWriter()
    if s.per_block:
        for blk in blocks:
            csb.write(blk.size_class if s.codec == "ras" else blk.cls, s.status_bits)
    else:
        padded, _ = frame.padded()
        nbx = padded.shape[1] // BLOCK
        cells_y = padded.shape[0] // 2
        cells_x = padded.shape[1] // 2
        entries = np.zeros((cells_y, cells_x), dtype=np.int64)
        for ref_idx, blk in enumerate(blocks):
            by, bx = divmod(ref_idx, nbx)
            entries[by * 4:(by + 1) * 4, bx * 4:(bx + 1) * 4] = \
                np.array(blk.csb, dtype=np.int64).reshape(4, 4)
        for value in entries.reshape(-1).tolist():
            csb.write(value, s.status_bits)
    csb.align_byte()
    out += csb.to_bytes()

    # Per-block payloads are byte-aligned already, so they just concatenate.
    payload = bytearray()
    for blk in blocks:
        if s.codec == "red":
            w = BitWriter()
            for color in blk.colors:
                w.write(color, 32)
            payload += w.to_bytes()
        elif s.codec == "hybrid":
            inner = blk.vdcp if blk.winner == "VDCP" else blk.ras
            payload += inner.payload
        else:
            payload += blk.payload
    out += payload
    return bytes(out)


def _encode_block(s: Scheme, block, ccd, table):
    if s.codec == "dcp":
        return dcp_compress_block(block, ccd)
    if s.codec == "vdcp":
        return vdcp_compress_block(block, ccd)
    if s.codec == "huffdcp":
        return huffdcp_compress_block(block, table)
    if s.codec == "ras":
        return ras_compress_block(block)
    if s.codec == "red":
        return red_compress_block(block)
    return hybrid_compress_block(block, ccd)


def decompress_frame(data: bytes) -> Frame:
    if data[:4] != MAGIC:
        raise CorruptStreamError("bad container magic")
    s = BY_TAG.get(data[4])
    if s is None:
        raise CorruptStreamError(f"unknown scheme tag {data[4]}")
    width = int.from_bytes(data[5:9], "little")
    height = int.from_bytes(data[9:13], "little")
    pos = 13
    palette = Rccd.from_bytes(data[pos:])
    pos += palette.byte_size
    if s.palette == HUFFMAN:
        count = int.from_bytes(data[pos:pos + 2], "little")
        pos += 2
        colors, lengths = [], []
        for _ in range(count):
            colors.append(int.from_bytes(data[pos:pos + 4], "little"))
            lengths.append(data[pos + 4])
            pos += 5
        palette = HuffmanTable(colors, lengths)

    refs = block_refs(width, height)
    nbx, nby = -(-width // BLOCK), -(-height // BLOCK)
    cells = len(refs) if s.per_block else (nby * 4) * (nbx * 4)
    csb_bytes = (cells * s.status_bits + 7) // 8
    csb = BitReader(data[pos:pos + csb_bytes])
    pos += csb_bytes
    statuses = [csb.read(s.status_bits) for _ in range(cells)]
    if not s.per_block:
        grid = np.array(statuses, dtype=np.int64).reshape(nby * 4, nbx * 4)

    codec = "vdcp" if s.codec == "hybrid" else s.codec   # HDCP's palette blocks are VDCP's
    reader = BitReader(data[pos:])
    padded = np.zeros((nby * BLOCK, nbx * BLOCK), dtype=np.uint32)
    for ref_idx, (x0, y0) in enumerate(refs):
        by, bx = divmod(ref_idx, nbx)
        if s.codec == "red":
            block = red_decompress_block(
                _read_red_block(statuses[ref_idx], reader))
        elif s.codec == "ras":
            block = ras_decompress_block(
                _read_ras_block(statuses[ref_idx], reader))
        else:
            entries = grid[by * 4:(by + 1) * 4, bx * 4:(bx + 1) * 4].reshape(-1).tolist()
            if s.codec == "hybrid" and entries[0] >= HDCP_RAS_BASE:
                block = ras_decompress_block(
                    _read_ras_block(entries[0] - HDCP_RAS_BASE, reader))
            else:
                block = read_block(codec, reader, entries, palette)
        reader.align_byte()
        padded[y0:y0 + BLOCK, x0:x0 + BLOCK] = block
    return Frame(padded[:height, :width].copy())


def _slice_bits(reader: BitReader, nbits: int) -> bytes:
    value = reader.read(nbits)
    nbytes = (nbits + 7) // 8
    return (value << (nbytes * 8 - nbits)).to_bytes(nbytes, "big")


def _read_red_block(status, reader) -> RedBlock:
    count = {0: 8, 1: 16, 2: 64}[status]
    return RedBlock(status, tuple(reader.read(32) for _ in range(count)))


def _read_ras_block(size_class: int, reader: BitReader) -> RasBlock:
    if size_class == 3:
        return RasBlock(3, _slice_bits(reader, 2048), 2048, 2048)
    # The stream is self-terminating: walk it once to measure, then slice.
    mark = reader.tell()
    for _ in range(4):
        k = reader.read(3)
        if k == GR_K_RAW:
            reader.read(64 * 8)
        else:
            for _ in range(64):
                golomb_rice_decode(reader, k)
    nbits = reader.tell() - mark
    reader.seek(mark)
    return RasBlock(size_class, _slice_bits(reader, nbits), nbits,
                    (size_class + 1) * 512)

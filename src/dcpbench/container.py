"""On-disk container for a compressed frame: a round-trip test artifact.

Layout (integers little-endian unless they live in the bit streams):

  magic   4 bytes  b"FBC1"
  scheme  u8       the scheme's tag in `schemes.py`
  width   u32      real frame width in pixels
  height  u32      real frame height
  rccd    the reverse palette, `Ccd.to_bytes`; a scheme whose palette is
          not a CCD carries zero entries, and more are damage
  table   HUFFDCP only: the prefix-code table, `HuffmanTable.to_bytes`
  csb     packed status entries, padded to a byte boundary; palette schemes
          and HDCP store one entry per sub-block in global raster order,
          RAS/RED store one 2-bit entry per block in block raster order
  payload per-block bit streams in block raster order, each byte-aligned

The container knows no block format. The frame's blocks go through the
codec family's batch entries, which `schemes.resolve` looks up on the
family's module when called. Compressing, one call returns one
`CompressedBlocks` record: its status rows go into the status grid and
its payload, the blocks' joined streams, is stored as is. Decoding, one
`decompress_blocks` call takes the status grid and the whole payload: the
family parses each stream once, in order, finding where it ends as it
goes (DCP, VDCP and RED from the status entries, HUFFDCP by chasing code
lengths, RAS and HDCP by the Golomb-Rice next-zero parse). A stream that
runs past the payload, and payload bytes left over after the last block,
are damage.

Likewise the palettes serialize themselves: the container places their
bytes and knows neither layout. A palette is passed as the one object
`runner.replay` yields, which both encodes and decodes: a `Palette` of
either kind, a `Ccd` or a `HuffmanTable`, empty while compression is
gated off, and an empty `Ccd` for the reference schemes, which ignore it.

Bandwidth accounting never reads container bytes; the burst model is the
measurement path and this format exists for losslessness audits. Scheme facts
come from `schemes.py`; `--dump-frames` takes the palettes that `run_experiment`
kept from `runner.replay`. Any damage the decoder detects raises
`CorruptStreamError`.
"""

from __future__ import annotations

import numpy as np

from .bitio import CorruptStreamError, join_streams, pack_fields, read_fields
from .huffman import HuffmanTable
from .palette import Ccd, Palette
from .schemes import BY_TAG, CCD, HUFFMAN, SCHEMES, Scheme, resolve
from .surface import BLOCK, Frame, block_grid, block_stack

MAGIC = b"FBC1"
HEADER_BYTES = 13              # magic, scheme, width, height


def compress_frame(frame: Frame, scheme: str, palette: Palette) -> bytes:
    """`palette` is the scheme's palette in force: a `Ccd` for the CCD
    schemes, a `HuffmanTable` for HUFFDCP. The reference schemes ignore it."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    s = SCHEMES[scheme]
    padded = frame.padded()
    comp = resolve(s.codec, "compress_blocks")(
        block_stack(padded).reshape(-1, BLOCK, BLOCK), palette)

    out = bytearray()
    out += MAGIC
    out.append(s.tag)
    out += frame.width.to_bytes(4, "little")
    out += frame.height.to_bytes(4, "little")
    out += (palette if s.palette == CCD else Ccd()).to_bytes()
    if s.palette == HUFFMAN:
        out += palette.to_bytes()

    # Each block's k x k status entries go to their place in the frame's
    # raster-order grid: k = 1 per block, or 4 per 2x2 sub-block.
    nbx, nby = block_grid(frame.width, frame.height)
    k = 1 if s.per_block else 4
    grid = comp.csb.reshape(nby, nbx, k, k).transpose(0, 2, 1, 3).reshape(1, -1)
    out += pack_fields(np.full(grid.shape, s.status_bits), grid)[0]
    out += comp.payload
    return bytes(out)


def decompress_frame(data: bytes) -> Frame:
    s, width, height, palette, grid, payload = parse(data)
    blocks = resolve(s.codec, "decompress_blocks")(grid, payload, palette)
    nbx, nby = block_grid(width, height)
    padded = blocks.reshape(nby, nbx, BLOCK, BLOCK).swapaxes(1, 2).reshape(nby * BLOCK, -1)
    return Frame(padded[:height, :width].copy())


def parse(data: bytes) -> tuple[Scheme, int, int, Palette, np.ndarray, bytes]:
    """(scheme, width, height, palette, status grid, payload) of a container.

    The grid has one row per block in raster order, holding its status
    entries as the codec returned them. Raises CorruptStreamError on a
    damaged header, palette or status buffer.
    """
    if len(data) < HEADER_BYTES:
        raise CorruptStreamError("truncated container header")
    if data[:4] != MAGIC:
        raise CorruptStreamError("bad container magic")
    s = BY_TAG.get(data[4])
    if s is None:
        raise CorruptStreamError(f"unknown scheme tag {data[4]}")
    width = int.from_bytes(data[5:9], "little")
    height = int.from_bytes(data[9:13], "little")
    if width == 0 or height == 0:
        raise CorruptStreamError(f"frame of {width}x{height} pixels")
    pos = HEADER_BYTES
    palette = Ccd.from_bytes(data[pos:])
    pos += palette.byte_size
    if s.palette != CCD and len(palette):
        raise CorruptStreamError(f"{s.name} carries a {len(palette)}-entry reverse palette")
    if s.palette == HUFFMAN:
        palette = HuffmanTable.from_bytes(data[pos:])
        pos += palette.byte_size

    nbx, nby = block_grid(width, height)
    k = 1 if s.per_block else 4
    cells = nby * nbx * k * k
    csb_bytes = (cells * s.status_bits + 7) // 8
    if len(data) < pos + csb_bytes:
        raise CorruptStreamError("status buffer truncated")
    buf = join_streams(data[pos:pos + csb_bytes])
    values = read_fields(buf, np.arange(cells) * s.status_bits, s.status_bits).astype(np.int64)
    pos += csb_bytes
    grid = values.reshape(nby, k, nbx, k).transpose(0, 2, 1, 3).reshape(nby * nbx, k * k)
    return s, width, height, palette, grid, data[pos:]

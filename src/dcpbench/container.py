"""On-disk container for a compressed frame: a round-trip test artifact.

Layout (integers little-endian unless they live in the bit streams):

  magic   4 bytes  b"FBC1"
  scheme  u8       the scheme's tag in `schemes.py`
  width   u32      real frame width in pixels
  height  u32      real frame height
  rccd    the reverse palette, `Rccd.to_bytes` (zero entries unless the
          scheme's palette is a CCD)
  table   HUFFDCP only: the prefix-code table, `HuffmanTable.to_bytes`
  csb     packed status entries, padded to a byte boundary; palette schemes
          and HDCP store one entry per sub-block in global raster order,
          RAS/RED store one 2-bit entry per block in block raster order
  payload per-block bit streams in block raster order, each byte-aligned

The container knows no block format. The frame's blocks go through the
codec family's batch entries, which `schemes.resolve` looks up on the
family's module when called. Compressing, one call returns one
`CompressedBlock` per block: its status entries go into the status grid
and its payload is appended as is. Decoding, the family's
`stream_bits` finds where each block's stream ends from the status grid
(DCP, VDCP and RED from the entries alone, HUFFDCP by chasing code
lengths, RAS and HDCP by the Golomb-Rice next-zero parse), the payload is
cut into `CompressedBlock`s, and one `decompress_blocks` call decodes the
frame. Payload bytes left over after the last block are damage too.

Likewise the palettes serialize themselves: the container places their
bytes and knows neither layout. A palette is passed as the one object
`runner.replay` yields, which both encodes and decodes.

Bandwidth accounting never reads container bytes; the burst model is the
measurement path and this format exists for losslessness audits. Scheme facts
come from `schemes.py`; `--dump-frames` takes the palettes that `run_experiment`
kept from `runner.replay`. Any damage the decoder detects raises
`CorruptStreamError`.
"""

from __future__ import annotations

import numpy as np

from .bitio import CorruptStreamError
from .dcp_codecs import CompressedBlock
from .huffman import HuffmanTable
from .palette import Ccd, Rccd
from .schemes import BY_TAG, CCD, HUFFMAN, SCHEMES, Scheme, resolve
from .surface import BLOCK, Frame, block_grid, block_stack

MAGIC = b"FBC1"
HEADER_BYTES = 13              # magic, scheme, width, height


def compress_frame(frame: Frame, scheme: str,
                   palette: Ccd | HuffmanTable | None = None) -> bytes:
    """`palette` is the scheme's palette in force (a `Ccd` for the CCD
    schemes, a `HuffmanTable` for HUFFDCP) or None for none; the reference
    schemes ignore it."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    s = SCHEMES[scheme]
    padded, _ = frame.padded()
    blocks = resolve(s.codec, "compress_blocks")(
        block_stack(padded).reshape(-1, BLOCK, BLOCK), palette)

    out = bytearray()
    out += MAGIC
    out.append(s.tag)
    out += frame.width.to_bytes(4, "little")
    out += frame.height.to_bytes(4, "little")
    out += (palette if s.palette == CCD and palette is not None else Rccd([])).to_bytes()
    if s.palette == HUFFMAN:
        out += (palette if palette is not None else HuffmanTable([], [])).to_bytes()

    # Each block's k x k status entries go to their place in the frame's
    # raster-order grid: k = 1 per block, or 4 per 2x2 sub-block.
    nbx, nby = block_grid(frame.width, frame.height)
    k = 1 if s.per_block else 4
    entries = np.array([blk.csb for blk in blocks], dtype=np.uint8)
    grid = entries.reshape(nby, nbx, k, k).transpose(0, 2, 1, 3).reshape(-1, 1)
    out += np.packbits(np.unpackbits(grid, axis=1)[:, 8 - s.status_bits:]).tobytes()
    # Per-block payloads are byte-aligned already, so they just concatenate.
    out += b"".join(blk.payload for blk in blocks)
    return bytes(out)


def decompress_frame(data: bytes) -> Frame:
    s, width, height, palette, grid, payload = parse(data)
    bits = np.asarray(resolve(s.codec, "stream_bits")(grid, payload, palette), dtype=np.int64)
    nbytes = (bits + 7) // 8
    ends = np.cumsum(nbytes)
    if ends[-1] > len(payload):
        raise CorruptStreamError("bit stream exhausted")
    if ends[-1] < len(payload):
        raise CorruptStreamError(f"{len(payload) - ends[-1]} payload bytes left unread")
    comps = [CompressedBlock(tuple(csb), payload[end - n:end], b, b)
             for csb, end, n, b in zip(grid.tolist(), ends.tolist(), nbytes.tolist(),
                                       bits.tolist())]
    blocks = resolve(s.codec, "decompress_blocks")(comps, palette)
    nbx, nby = block_grid(width, height)
    padded = blocks.reshape(nby, nbx, BLOCK, BLOCK).swapaxes(1, 2).reshape(nby * BLOCK, -1)
    return Frame(padded[:height, :width].copy())


def parse(data: bytes) -> tuple[Scheme, int, int, Rccd | HuffmanTable, np.ndarray, bytes]:
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
    palette = Rccd.from_bytes(data[pos:])
    pos += palette.byte_size
    if s.palette == HUFFMAN:
        palette = HuffmanTable.from_bytes(data[pos:])
        pos += palette.byte_size

    nbx, nby = block_grid(width, height)
    k = 1 if s.per_block else 4
    cells = nby * nbx * k * k
    csb_bytes = (cells * s.status_bits + 7) // 8
    packed = np.frombuffer(data[pos:pos + csb_bytes], dtype=np.uint8)
    if packed.size < csb_bytes:
        raise CorruptStreamError("status buffer truncated")
    pos += csb_bytes
    bits = np.unpackbits(packed)[:cells * s.status_bits].reshape(cells, s.status_bits)
    values = bits.dot(1 << np.arange(s.status_bits - 1, -1, -1))
    grid = values.reshape(nby, k, nbx, k).transpose(0, 2, 1, 3).reshape(nby * nbx, k * k)
    return s, width, height, palette, grid, data[pos:]

"""The palette codecs over 8x8 blocks and the palette rebuild between frames.

Four schemes share one skeleton: a 2x2 sub-block is compressed only when all
four of its pixels encode through the current palette, otherwise the four
raw 32-bit pixels are stored. They differ in how codes are sized:

  DCP      fixed log2(palette size) bits per pixel, 1-bit sub-block status
  ADCP     DCP with the palette size chosen per frame from the ranked
           frequencies (predicted-size minimization)
  VDCP     per-sub-block width v in 0..6, the 3-bit status selects the top
           2**v palette entries (7 marks a raw sub-block)
  HuffDCP  canonical prefix codes built from the frequencies, 1-bit status

Each scheme has an exact bitstream codec over stacks of blocks (used for
round-trip verification and the frame container) and a vectorized
whole-frame cost engine used by the benchmark runner; tests pin the two
against each other. The engines return the per-block bits array alone,
not a `(bits, classes)` tuple like the reference engines, since wrappers
around them read array attributes off the result. `advance_frame` builds
the next palette from the collector's ranking; the handoff around it
(schedule, coverage gate, reset) is `runner.replay`.

Every codec family, here and in `reference_codecs`, has the four entries
that `schemes.resolve` reaches by name: the frame cost, compress a stack
to one `CompressedBlock` per block, decompress such blocks to a stack, and
find each block's stream length in a frame's payload. The codec modules
are the only owners of the block bitstream formats: the container stores
status entries and payloads without knowing what is in them.

The palette codecs run on one skeleton over a chunk of blocks at a time:
`lookup` over the (n, 16, 4) sub-block view, an all-hit mask per
sub-block, a field width per pixel, then one `bitio.pack_fields` call.
Decoding reads every field with one gather from offsets that follow from
the status entries (DCP, VDCP); HUFFDCP finds one code per block per step.
Payload bits are packed most-significant-bit first, sub-blocks in raster
order; raw sub-blocks store their four packed pixels the same way. The
scalar codecs these replaced live on in `tests/palette_oracle.py` as the
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitio import CorruptStreamError, join_streams, pack_fields, read_fields
from .fvc import Fvc
from .huffman import HuffmanTable, build_table
from .palette import Ccd, Rccd, build_ccd
from .schemes import HUFFMAN, SCHEMES, Scheme
from .surface import pool

VDCP_RAW = 7                  # 3-bit status value marking a raw sub-block
VDCP_MAX_CCD = SCHEMES["VDCP"].max_palette   # widths 0..6 address at most 64 entries

# v for a zero-based max palette index m: the smallest v with 2**v > m.
_VDCP_WIDTH = np.array([m.bit_length() for m in range(VDCP_MAX_CCD)], dtype=np.int16)


@dataclass
class CompressedBlock:
    """One block's output from any block codec.

    `csb` holds the status entries as the container stores them: 16 in
    sub-block raster order for the palette schemes and HDCP, one per block
    for RAS (its size class) and RED (its class). `payload` is the stream,
    padded to a byte boundary. `cost_bits` is what the burst model charges
    and the frame engines must reproduce: the stream bits for the palette
    schemes and RED, the size-class bits for RAS, the winner's for HDCP.
    """

    csb: tuple[int, ...]
    payload: bytes
    payload_bits: int          # true stream bits before the byte padding
    cost_bits: int


# ---------------------------------------------------------------------------
# Codec entries
#
# Every family has a batch entry per direction, `<codec>_compress_blocks`
# and `<codec>_decompress_blocks`, and `<codec>_stream_bits`, which finds
# each block's stream length in a frame's payload from its status entries;
# `schemes.resolve` states their contract. The per-block names are the
# batch entries on one block.

BATCH_BLOCKS = 64              # blocks per encode/decode chunk; bounds the temporaries


def sub_blocks(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) blocks -> (n, 16, 4): the 2x2 sub-blocks in raster order,
    each sub-block's pixels in raster order. This is the stream order."""
    return blocks.reshape(-1, 4, 2, 4, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 16, 4)


# _TO_RASTER[i]: the stream position of raster pixel i of a block.
_TO_RASTER = sub_blocks(np.arange(64).reshape(1, 8, 8)).reshape(64).argsort()


def compressed_blocks(csb: np.ndarray, payloads, nbits: np.ndarray) -> list[CompressedBlock]:
    """`CompressedBlock`s from an (n, k) status array, payloads and bit
    lengths, each charged its stream bits."""
    return [CompressedBlock(tuple(c), p, b, b)
            for c, p, b in zip(csb.tolist(), payloads, nbits.tolist())]


def stream_rows(comps, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(status entries (n, k), joined buffer, first bit, bits) of a list of
    `CompressedBlock`; raises CorruptStreamError on a block that does not
    carry k entries or declares more bits than it holds."""
    if any(len(c.csb) != k for c in comps):
        raise CorruptStreamError(f"a block needs {k} status entries")
    csb = np.array([c.csb for c in comps], dtype=np.int64).reshape(len(comps), k)
    nbits = np.array([c.payload_bits for c in comps], dtype=np.int64)
    buf, base = join_streams([c.payload for c in comps], nbits)
    return csb, buf, base, nbits


# ---------------------------------------------------------------------------
# The palette skeleton
#
# One skeleton serves DCP, VDCP and HUFFDCP. A sub-block is coded when all
# four of its pixels are in the palette, else its four pixels are stored
# raw as 32-bit fields. The families differ only in the width of a code:
# `bits_per_code` (DCP), the sub-block's v (VDCP), or the code's length
# (HUFFDCP, whose codes may span several 32-bit fields).

_RAW_STATUS = {"dcp": 0, "vdcp": VDCP_RAW, "huffdcp": 0}


def _palette_compress(codec: str, blocks: np.ndarray, palette) -> list[CompressedBlock]:
    blocks = np.asarray(blocks, dtype=np.uint32).reshape(-1, 8, 8)
    out: list[CompressedBlock] = []
    for lo in range(0, len(blocks), BATCH_BLOCKS):
        out += _palette_encode(codec, blocks[lo:lo + BATCH_BLOCKS], palette)
    return out


def _palette_encode(codec: str, blocks: np.ndarray, palette) -> list[CompressedBlock]:
    pixels = sub_blocks(blocks)                              # (n, 16, 4)
    if palette is None:
        entries, hit = np.full(pixels.shape, -1), np.zeros(pixels.shape, dtype=bool)
    else:
        entries, hit = palette.lookup(pixels)
    coded = hit.all(axis=2)
    if not coded.any():                                      # also no or an empty palette
        width = value = np.zeros((*pixels.shape, 1), dtype=np.int64)
        status = np.full(coded.shape, _RAW_STATUS[codec])
    elif codec == "huffdcp":
        width, value = (f[entries] for f in palette.code_fields)     # (n, 16, 4, C)
        status = coded.astype(np.int64)
    elif codec == "dcp":
        value = entries[..., None]
        width = np.full(value.shape, palette.bits_per_code)
        status = coded.astype(np.int64)
    else:
        value = entries[..., None]
        v = _VDCP_WIDTH[np.clip(entries.max(axis=2), 0, VDCP_MAX_CCD - 1)]
        width = np.repeat(v[:, :, None, None], 4, axis=2)
        status = np.where(coded, v, VDCP_RAW)
    # A raw pixel is one 32-bit field, then zero-width fields.
    first = np.arange(width.shape[-1]) == 0
    keep = coded[:, :, None, None]
    widths = np.where(keep, width, np.where(first, 32, 0))
    values = np.where(keep, value, np.where(first, pixels[..., None], 0))
    n = len(blocks)
    payloads, nbits = pack_fields(widths.reshape(n, -1), values.reshape(n, -1))
    return compressed_blocks(status, payloads, nbits)


def _palette_widths(codec: str, csb: np.ndarray, palette) -> tuple[np.ndarray, np.ndarray]:
    """(code width, raw mask) per sub-block of DCP or VDCP status entries;
    a status no encoder writes raises CorruptStreamError."""
    raw = csb == _RAW_STATUS[codec]
    if codec == "dcp":
        return np.where(raw, 32, palette.bits_per_code if palette is not None else 0), raw
    if csb.size and (csb.min() < 0 or csb.max() > VDCP_RAW):
        raise CorruptStreamError("VDCP status outside 0..7")
    return np.where(raw, 32, csb), raw


def _palette_decompress(codec: str, comps, palette) -> np.ndarray:
    comps = list(comps)
    out = np.empty((len(comps), 8, 8), dtype=np.uint32)
    for lo in range(0, len(comps), BATCH_BLOCKS):
        chunk = comps[lo:lo + BATCH_BLOCKS]
        out[lo:lo + len(chunk)] = _palette_decode(codec, *stream_rows(chunk, 16), palette)
    return out


def _palette_decode(codec, csb, buf, base, nbits, palette) -> np.ndarray:
    if codec == "huffdcp":
        values, coded = _prefix_decode(csb, buf, base, nbits, palette)
    else:
        width, raw = _palette_widths(codec, csb, palette)
        widths = np.repeat(width, 4, axis=1)                 # (n, 64), stream order
        ends = np.cumsum(widths, axis=1)
        if np.any(ends[:, -1] > nbits):
            raise CorruptStreamError("bit stream exhausted")
        values = read_fields(buf, base[:, None] + ends - widths, widths).astype(np.int64)
        coded = ~np.repeat(raw, 4, axis=1)
    colors = palette.colors if palette is not None else np.empty(0, dtype=np.uint32)
    if np.any(values[coded] >= colors.size):
        raise CorruptStreamError(f"palette index out of range 0..{colors.size - 1}")
    pixels = np.where(coded, colors[np.where(coded, values, 0)] if colors.size else 0, values)
    return pixels[:, _TO_RASTER].reshape(-1, 8, 8)


def _prefix_decode(csb, buf, base, nbits, table) -> tuple[np.ndarray, np.ndarray]:
    """HUFFDCP fields as (raw pixel or table entry, coded) per pixel."""
    at, entry = fields = [], []
    _prefix_walk(table, buf, (csb != 0).tolist(), base.tolist(), (base + nbits).tolist(), fields)
    at = np.array(at, dtype=np.int64).reshape(-1, 64)
    entry = np.array(entry, dtype=np.int64).reshape(-1, 64)
    coded = entry >= 0
    return np.where(coded, entry, read_fields(buf, at, 32).astype(np.int64)), coded


_WALK_WINDOW = 4096            # stream offsets whose codes are found at once


def _prefix_walk(table, buf, coded_rows, starts, ends, fields=None) -> list[int]:
    """Chase HUFFDCP streams field by field; returns each block's bits.

    Block i starts at bit `starts[i]`, or where `starts` is None on the byte
    after block i-1 ends, and may not pass bit `ends[i]`; `coded_rows[i]`
    says which of its sub-blocks are coded. With `fields`, appends each
    field's offset to `fields[0]` and its table entry (-1 for a raw pixel)
    to `fields[1]`, in stream order. The code at every offset of a window
    of the buffer is found with one `HuffmanTable.decode_at` call; the
    chase itself runs on Python ints.
    """
    offsets, entries = fields if fields is not None else ([], [])
    used = []
    limit = max(ends, default=0)
    lo = span = 0
    lens: list[int] = []
    ents: list[int] = []
    start = 0
    for row, end in zip(coded_rows, ends):
        if starts is not None:
            start = starts[len(used)]
        at = start
        for coded in row:
            if not coded:
                if fields is not None:
                    offsets += (at, at + 32, at + 64, at + 96)
                    entries += (-1, -1, -1, -1)
                at += 128
                continue
            if table is None:
                raise CorruptStreamError("coded sub-block without a Huffman table")
            for _ in range(4):
                i = at - lo
                if not 0 <= i < span:
                    if at >= end:
                        raise CorruptStreamError("bit stream exhausted")
                    lo, span, i = at, min(_WALK_WINDOW, limit - at), 0
                    length, entry = table.decode_at(buf, np.arange(lo, lo + span))
                    lens, ents = length.tolist(), entry.tolist()
                if ents[i] < 0:
                    raise CorruptStreamError("no prefix code matches the stream")
                if fields is not None:
                    offsets.append(at)
                    entries.append(ents[i])
                at += lens[i]
        if at > end:
            raise CorruptStreamError("bit stream exhausted")
        used.append(at - start)
        start += -(-(at - start) // 8) * 8
    return used


def dcp_compress_blocks(blocks: np.ndarray, ccd: Ccd | None) -> list[CompressedBlock]:
    return _palette_compress("dcp", blocks, ccd)


def dcp_decompress_blocks(comps, palette: Rccd | None = None) -> np.ndarray:
    return _palette_decompress("dcp", comps, palette)


def vdcp_compress_blocks(blocks: np.ndarray, ccd: Ccd | None) -> list[CompressedBlock]:
    if ccd is not None and len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    return _palette_compress("vdcp", blocks, ccd)


def vdcp_decompress_blocks(comps, palette: Rccd | None = None) -> np.ndarray:
    return _palette_decompress("vdcp", comps, palette)


def huffdcp_compress_blocks(blocks: np.ndarray,
                            table: HuffmanTable | None) -> list[CompressedBlock]:
    return _palette_compress("huffdcp", blocks, table)


def huffdcp_decompress_blocks(comps, palette: HuffmanTable | None = None) -> np.ndarray:
    return _palette_decompress("huffdcp", comps, palette)


def dcp_stream_bits(csb: np.ndarray, payload: bytes, palette: Rccd | None) -> np.ndarray:
    return 4 * _palette_widths("dcp", csb, palette)[0].sum(axis=1)


def vdcp_stream_bits(csb: np.ndarray, payload: bytes, palette=None) -> np.ndarray:
    return 4 * _palette_widths("vdcp", csb, palette)[0].sum(axis=1)


def huffdcp_stream_bits(csb: np.ndarray, payload: bytes,
                        table: HuffmanTable | None) -> list[int]:
    """Each block's stream bits, by chasing code lengths from block to
    block; raw sub-blocks skip 128 bits."""
    buf, _ = join_streams([payload], [0])
    return _prefix_walk(table, buf, (csb != 0).tolist(), None, [8 * len(payload)] * len(csb))


def dcp_compress_block(block: np.ndarray, ccd: Ccd | None) -> CompressedBlock:
    return dcp_compress_blocks(block[None], ccd)[0]


def dcp_decompress_block(comp: CompressedBlock, palette: Rccd | None = None) -> np.ndarray:
    return dcp_decompress_blocks([comp], palette)[0]


def vdcp_compress_block(block: np.ndarray, ccd: Ccd | None) -> CompressedBlock:
    return vdcp_compress_blocks(block[None], ccd)[0]


def vdcp_decompress_block(comp: CompressedBlock, palette: Rccd | None = None) -> np.ndarray:
    return vdcp_decompress_blocks([comp], palette)[0]


def huffdcp_compress_block(block: np.ndarray, table: HuffmanTable | None) -> CompressedBlock:
    return huffdcp_compress_blocks(block[None], table)[0]


def huffdcp_decompress_block(comp: CompressedBlock,
                             palette: HuffmanTable | None = None) -> np.ndarray:
    return huffdcp_decompress_blocks([comp], palette)[0]


# ---------------------------------------------------------------------------
# Adaptive palette sizing

def adcp_optimal_ccd_size(frequencies, frame_size_pixels: int,
                          pixel_size_bits: int = 32, max_size: int = 64) -> int:
    """Palette size 2**i minimizing the predicted compressed frame size.

    For each candidate i in 0..log2(max_size) the predictor charges the
    pixel mass covered by the top 2**i colors at i bits per pixel and the
    remainder at the raw pixel width; the initial candidate is the
    uncompressed frame, and ties keep the smaller palette. An empty
    frequency list returns 0, which disables compression.

    Frequencies must already be scaled to frame_size_pixels when they were
    collected under pixel sampling; cumulative mass is clamped to the frame
    so oversampled inputs cannot go negative.
    """
    freqs = list(frequencies)
    if not freqs:
        return 0
    best_bits = frame_size_pixels * pixel_size_bits
    opt = 0
    chosen = False
    cum = 0
    taken = 0
    for i in range(max_size.bit_length()):  # i = 0 .. log2(max_size)
        want = 1 << i
        while taken < min(want, len(freqs)):
            cum += freqs[taken]
            taken += 1
        covered = min(cum, frame_size_pixels)
        bits = covered * i + (frame_size_pixels - covered) * pixel_size_bits
        if bits < best_bits:
            best_bits = bits
            opt = i
            chosen = True
    return (1 << opt) if chosen else 1


# ---------------------------------------------------------------------------
# Vectorized whole-frame costs
#
# All engines take `schemes.resolve`'s five arguments and return per-block
# *accounting* payload bits as an (nblocks_y, nblocks_x) int64 array. Padded pixels never count: a
# compressed sub-block with r live pixels charges bits_per_pixel * r and a
# raw one charges 32 * r. For fully live frames this equals the exact
# bitstream length of the per-block codecs. Every tile is reduced with
# `surface.pool`. A block charges DCP and VDCP at most 16 * 128 bits, so
# their bits stay int16; HUFFDCP's codes have no fixed bound and sum in
# int32. Only the per-block result is widened to int64.

_RAW_BITS = np.int16(32)


def _block_bits(sb_bits: np.ndarray) -> np.ndarray:
    """Per-block sums of per-sub-block bits, as int64."""
    return pool(sb_bits, np.add, 4, 4).astype(np.int64)


def dcp_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray, ccd: Ccd | None) -> np.ndarray:
    if ccd is None or len(ccd) == 0:
        return _block_bits(_RAW_BITS * sb_real)
    _, hit = ccd.lookup(padded)
    compressible = pool(hit, np.logical_and, 2, 2)
    return _block_bits(np.where(compressible, np.int16(ccd.bits_per_code), _RAW_BITS) * sb_real)


def vdcp_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                    block_real: np.ndarray, ccd: Ccd | None) -> np.ndarray:
    if ccd is None or len(ccd) == 0:
        return _block_bits(_RAW_BITS * sb_real)
    if len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    codes, hit = ccd.lookup(padded)
    compressible = pool(hit, np.logical_and, 2, 2)
    # Codes are -1..63. A -1 maximum (no pixel hit) indexes the last width,
    # which `compressible` then discards.
    v = _VDCP_WIDTH[pool(codes, np.maximum, 2, 2, dtype=np.int8)]
    return _block_bits(np.where(compressible, v, _RAW_BITS) * sb_real)


def huffdcp_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                       block_real: np.ndarray, table: HuffmanTable | None) -> np.ndarray:
    if table is None or len(table) == 0:
        return _block_bits(_RAW_BITS * sb_real)
    entries, hit = table.lookup(padded)
    compressible = pool(hit, np.logical_and, 2, 2)
    lengths = table.lengths.astype(np.int32)[entries]
    code_bits = pool(np.where(valid & hit, lengths, np.int32(0)), np.add, 2, 2)
    return _block_bits(np.where(compressible, code_bits, _RAW_BITS * sb_real))


# ---------------------------------------------------------------------------
# Palette rebuild

def advance_frame(scheme: Scheme, fvc: Fvc, frame_pixels: int,
                  ccd_size: int | None = None) -> Ccd | HuffmanTable:
    """The next palette, built from the collector's ranking.

    ADCP sizes its palette from the ranked frequencies; HUFFDCP builds a
    prefix-code table over the top `ccd_size` colors (all of them when
    unset); the other palette schemes take the top `ccd_size` colors, by
    default as many as the collector holds and their status bits address.
    An empty ranking gives an empty palette. When to rebuild, the coverage
    gate and the collector reset belong to `runner.replay`.
    """
    ranked = fvc.ranked_values()
    if scheme.adaptive:
        n = fvc.config.pixel_sampling
        size = adcp_optimal_ccd_size([f * n for _, f in ranked], frame_pixels,
                                     max_size=fvc.entry_count)
        return build_ccd(ranked, size)
    if scheme.palette == HUFFMAN:
        return build_table(ranked[:ccd_size] if ccd_size else ranked)
    return build_ccd(ranked, ccd_size or min(fvc.entry_count,
                                             scheme.max_palette or fvc.entry_count))

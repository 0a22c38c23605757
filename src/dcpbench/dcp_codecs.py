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

Every codec family, here and in `reference_codecs`, has the three entries
that `schemes.resolve` reaches by name: the frame cost, compress a stack
to one `CompressedBlocks` record, and decompress a record's status rows
and joined streams to the stack. The codec modules are the only
owners of the block bitstream formats: the container stores status
entries and payloads without knowing what is in them.

Every encoder runs on a chunk of blocks at a time (`encode_chunks`). The
palette codecs run on one skeleton: `lookup` over the (n, 16, 4) sub-block
view, an all-hit mask per sub-block, a field per pixel from the palette's
`code_fields` (VDCP's width is its v), then one `bitio.pack_fields` call.
Decoding reads every field with one gather from offsets that follow from
the status entries (DCP, VDCP). HUFFDCP's offsets follow from its code
lengths: one `_prefix_walk` per chunk chases the chunk's blocks in order,
one step per sub-block over a table of four-code steps, and records only
where each sub-block starts and where the next chunk starts. The codes of
all the chunk's coded sub-blocks are then found in lockstep, with four
`HuffmanTable.decode_at` calls (`_prefix_decode`).
Payload bits are packed most-significant-bit first, sub-blocks in raster
order; raw sub-blocks store their four packed pixels the same way. The
scalar codecs these replaced live on in `tests/palette_oracle.py` as the
differential oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .bitio import (
    CorruptStreamError,
    check_payload_end,
    join_streams,
    pack_fields,
    read_fields,
    stream_starts,
)
from .fvc import Fvc
from .huffman import HuffmanTable, build_table
from .palette import Ccd, Palette, build_ccd
from .schemes import HUFFMAN, SCHEMES, Scheme
from .surface import pool

PIXEL_BITS = 32               # raw pixel width
VDCP_RAW = 7                  # 3-bit status value marking a raw sub-block
VDCP_MAX_CCD = SCHEMES["VDCP"].max_palette   # widths 0..6 address at most 64 entries

# v for a zero-based max palette index m: the smallest v with 2**v > m.
_VDCP_WIDTH = np.array([m.bit_length() for m in range(VDCP_MAX_CCD)], dtype=np.int16)


@dataclass(eq=False)            # arrays have no one truth value: compare the fields
class CompressedBlocks:
    """A stack of n blocks from any block codec, as its decoder and the
    container take them.

    `csb` holds the (n, k) status rows: 16 entries in sub-block raster
    order for the palette schemes and HDCP, one for RAS (its size class)
    and RED (its class). `cost_bits` is what the burst model charges and
    the frame engines must reproduce: the stream bits for the palette
    schemes and RED, the size-class bits for RAS, the winner's for HDCP.
    """

    csb: np.ndarray
    payload: bytes             # the blocks' streams, each byte-padded, joined in order
    payload_bits: np.ndarray   # (n,) true stream bits before the byte padding
    cost_bits: np.ndarray      # (n,)


# ---------------------------------------------------------------------------
# Codec entries
#
# Every family has a batch entry per direction, `<codec>_compress_blocks`
# and `<codec>_decompress_blocks`; `schemes.resolve` states their contract.
# A decoder takes an encoder's status rows and payload as they are, parses
# each stream once in order and raises CorruptStreamError where a stream
# runs past the payload or payload bytes are left over. The per-block names
# are the batch entries on one block.

BATCH_BLOCKS = 64              # blocks per encode/decode chunk; bounds the temporaries


def sub_blocks(blocks: np.ndarray) -> np.ndarray:
    """(n, 8, 8) blocks -> (n, 16, 4): the 2x2 sub-blocks in raster order,
    each sub-block's pixels in raster order. This is the stream order."""
    return blocks.reshape(-1, 4, 2, 4, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 16, 4)


# _TO_RASTER[i]: the stream position of raster pixel i of a block.
_TO_RASTER = sub_blocks(np.arange(64).reshape(1, 8, 8)).reshape(64).argsort()


def encode_chunks(encode, blocks: np.ndarray, *args) -> CompressedBlocks:
    """`encode(chunk, *args)` over an (n, 8, 8) stack a chunk of
    BATCH_BLOCKS blocks at a time (an empty stack is one empty chunk), its
    records joined in block order."""
    blocks = np.asarray(blocks, dtype=np.uint32).reshape(-1, 8, 8)
    parts = [encode(blocks[lo:lo + BATCH_BLOCKS], *args)
             for lo in range(0, max(len(blocks), 1), BATCH_BLOCKS)]
    return CompressedBlocks(np.concatenate([p.csb for p in parts]),
                            b"".join(p.payload for p in parts),
                            np.concatenate([p.payload_bits for p in parts]),
                            np.concatenate([p.cost_bits for p in parts]))


# ---------------------------------------------------------------------------
# The palette skeleton
#
# One skeleton serves DCP, VDCP and HUFFDCP. A sub-block is coded when all
# four of its pixels are in the palette, else its four pixels are stored
# raw as 32-bit fields. Every pixel is one field, and the palette's
# `code_fields` give each entry's code: its index in `bits_per_code` bits
# (DCP, ADCP) or its prefix code, at most 32 bits (HUFFDCP). VDCP alone
# overrides the width, with the sub-block's v.

_RAW_STATUS = {"dcp": 0, "vdcp": VDCP_RAW, "huffdcp": 0}


def _palette_encode(blocks: np.ndarray, codec: str, palette) -> CompressedBlocks:
    pixels = sub_blocks(blocks)                              # (n, 16, 4)
    entries, hit = palette.lookup(pixels)
    coded = hit.all(axis=2)
    width, value = (f[entries] for f in palette.code_fields)
    status = coded.astype(np.int64)
    if codec == "vdcp":
        v = _VDCP_WIDTH[np.clip(entries.max(axis=2), 0, VDCP_MAX_CCD - 1)]
        width = np.repeat(v[:, :, None], 4, axis=2)
        status = np.where(coded, v, VDCP_RAW)
    keep = coded[:, :, None]
    widths = np.where(keep, width, 32)
    values = np.where(keep, value, pixels)
    n = len(blocks)
    payload, nbits = pack_fields(widths.reshape(n, 64), values.reshape(n, 64))
    return CompressedBlocks(status, payload, nbits, nbits)


def palette_widths(codec: str, csb: np.ndarray, palette) -> tuple[np.ndarray, np.ndarray]:
    """(code width, raw mask) per sub-block of DCP or VDCP status entries;
    a status no encoder writes raises CorruptStreamError."""
    raw = csb == _RAW_STATUS[codec]
    if codec == "dcp":
        return np.where(raw, 32, palette.bits_per_code), raw
    if csb.size and (csb.min() < 0 or csb.max() > VDCP_RAW):
        raise CorruptStreamError("VDCP status outside 0..7")
    return np.where(raw, 32, csb), raw


def _palette_decompress(codec: str, csb: np.ndarray, payload: bytes, palette) -> np.ndarray:
    csb = np.asarray(csb, dtype=np.int64).reshape(-1, 16)
    buf = join_streams(payload)
    out = np.empty((len(csb), 8, 8), dtype=np.uint32)
    if codec == "huffdcp":
        # The code lengths place every block, so one walk per chunk finds
        # the chunk's sub-blocks and where the next chunk starts.
        start = 0
        for lo in range(0, len(csb), BATCH_BLOCKS):
            coded = csb[lo:lo + BATCH_BLOCKS] != 0
            starts: list[int] = []
            start = _prefix_walk(palette, buf, coded.tolist(), start, 8 * len(payload), starts)
            out[lo:lo + len(coded)] = _prefix_decode(buf, starts, coded, palette)
        check_payload_end(start // 8, payload)
        return out
    width, raw = palette_widths(codec, csb, palette)
    starts = stream_starts(4 * width.sum(axis=1), payload)
    for lo in range(0, len(csb), BATCH_BLOCKS):
        hi = lo + BATCH_BLOCKS
        out[lo:hi] = palette_decode(width[lo:hi], raw[lo:hi], buf, starts[lo:hi], palette)
    return out


def palette_decode(width, raw, buf, starts, palette) -> np.ndarray:
    """DCP or VDCP blocks of the given code widths and raw masks per
    sub-block, whose streams start at bits `starts` of `buf`."""
    widths = np.repeat(width, 4, axis=1)                     # (n, 64), stream order
    at = starts[:, None] + np.cumsum(widths, axis=1) - widths
    values = read_fields(buf, at, widths).astype(np.int64)
    return _palette_pixels(values, ~np.repeat(raw, 4, axis=1), palette)


def _palette_pixels(values, coded, palette) -> np.ndarray:
    """(n, 8, 8) blocks from (n, 64) fields in stream order: a palette
    entry where `coded`, else a raw pixel."""
    colors = palette.colors
    if np.any(values[coded] >= colors.size):
        raise CorruptStreamError(f"palette index out of range 0..{colors.size - 1}")
    pixels = np.where(coded, colors[np.where(coded, values, 0)] if colors.size else 0, values)
    return pixels[:, _TO_RASTER].reshape(-1, 8, 8)


def _prefix_decode(buf, starts, coded, table) -> np.ndarray:
    """HUFFDCP blocks from the sub-block starts `_prefix_walk` found and
    the (n, 16) coded mask: four 32-bit reads per raw sub-block, and the
    four codes of every coded one found with four `decode_at` calls, in
    lockstep over all of them. Bits that begin no code raise."""
    at = np.array(starts, dtype=np.int64).reshape(coded.shape)
    values = np.empty((*coded.shape, 4), dtype=np.int64)
    values[~coded] = read_fields(buf, at[~coded][:, None] + 32 * np.arange(4), 32)
    if coded.any():
        at = at[coded]
        codes = np.empty((at.size, 4), dtype=np.int64)
        for j in range(4):
            length, codes[:, j] = table.decode_at(buf, at)
            at = at + length
        if codes.min() < 0:
            raise CorruptStreamError("no prefix code matches the stream")
        values[coded] = codes
    return _palette_pixels(values.reshape(-1, 64), np.repeat(coded, 4, axis=1), table)


_WALK_WINDOW = 4096            # stream offsets whose sub-block steps are found at once


def _prefix_walk(table, buf, coded_rows, start: int, end: int, starts: list[int]) -> int:
    """Chase HUFFDCP streams sub-block by sub-block; returns the first bit
    of the byte after the last stream, where a next block would start.

    The blocks follow each other from bit `start` of `buf`, each starting on
    the byte after the one before it ends, and no coded sub-block is
    chased from bit `end` or past it; `coded_rows[i]` says which of block
    i's sub-blocks are coded. Appends each sub-block's first bit to `starts`, in stream
    order. A coded sub-block's four codes are crossed in one step, from a
    table of such steps over a window of the buffer (`_sub_block_steps`);
    the chase itself runs on Python ints. Codes that run past `end` read
    the buffer's slack, but their stream then ends past `end` too, which
    shows in the bit returned.
    """
    lo = span = 0
    steps: list[int] = []
    for row in coded_rows:
        at = start
        for coded in row:
            starts.append(at)
            if not coded:
                at += 128
                continue
            i = at - lo
            if not 0 <= i < span:
                if at >= end:
                    raise CorruptStreamError("bit stream exhausted")
                lo, span, i = at, min(_WALK_WINDOW, end - at), 0
                steps = _sub_block_steps(table, buf, lo, span)
            at += steps[i]
        start += -(-(at - start) // 8) * 8
    return start


def _sub_block_steps(table, buf, lo: int, span: int) -> list[int]:
    """The bits that four codes take from each offset lo..lo+span-1 of
    `buf`, from the code lengths `HuffmanTable.decode_at` finds there.

    Bits that begin no code have length 0, so the step stays on them and
    `_prefix_decode` raises there.
    """
    reach = 3 * int(table.lengths.max(initial=0))
    length = table.decode_at(buf, np.arange(lo, lo + span + reach))[0]
    at = np.arange(span)
    for _ in range(4):
        at = at + length[at]                 # past the next code
    return (at - np.arange(span)).tolist()


def dcp_compress_blocks(blocks: np.ndarray, ccd: Ccd) -> CompressedBlocks:
    return encode_chunks(_palette_encode, blocks, "dcp", ccd)


def dcp_decompress_blocks(csb: np.ndarray, payload: bytes, palette: Ccd) -> np.ndarray:
    return _palette_decompress("dcp", csb, payload, palette)


def vdcp_compress_blocks(blocks: np.ndarray, ccd: Ccd) -> CompressedBlocks:
    if len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    return encode_chunks(_palette_encode, blocks, "vdcp", ccd)


def vdcp_decompress_blocks(csb: np.ndarray, payload: bytes, palette: Ccd) -> np.ndarray:
    return _palette_decompress("vdcp", csb, payload, palette)


def huffdcp_compress_blocks(blocks: np.ndarray, table: HuffmanTable) -> CompressedBlocks:
    return encode_chunks(_palette_encode, blocks, "huffdcp", table)


def huffdcp_decompress_blocks(csb: np.ndarray, payload: bytes,
                              palette: HuffmanTable) -> np.ndarray:
    return _palette_decompress("huffdcp", csb, payload, palette)


def dcp_compress_block(block: np.ndarray, ccd: Ccd) -> CompressedBlocks:
    return dcp_compress_blocks(block[None], ccd)


def dcp_decompress_block(comp: CompressedBlocks, palette: Ccd) -> np.ndarray:
    return dcp_decompress_blocks(comp.csb, comp.payload, palette)[0]


def vdcp_compress_block(block: np.ndarray, ccd: Ccd) -> CompressedBlocks:
    return vdcp_compress_blocks(block[None], ccd)


def vdcp_decompress_block(comp: CompressedBlocks, palette: Ccd) -> np.ndarray:
    return vdcp_decompress_blocks(comp.csb, comp.payload, palette)[0]


def huffdcp_compress_block(block: np.ndarray, table: HuffmanTable) -> CompressedBlocks:
    return huffdcp_compress_blocks(block[None], table)


def huffdcp_decompress_block(comp: CompressedBlocks, palette: HuffmanTable) -> np.ndarray:
    return huffdcp_decompress_blocks(comp.csb, comp.payload, palette)[0]


# ---------------------------------------------------------------------------
# Adaptive palette sizing

def adcp_optimal_ccd_size(frequencies, frame_size_pixels: int, max_size: int) -> int:
    """Palette size 2**i minimizing the predicted compressed frame size.

    For each candidate i in 0..log2(max_size) the predictor charges the
    pixel mass covered by the top 2**i colors at i bits per pixel and the
    remainder at the raw pixel width. Of equal predictions the smaller
    palette wins, and when none beats the uncompressed frame the size is 1.
    An empty frequency list returns 0, which disables compression.

    Frequencies must already be scaled to frame_size_pixels when they were
    collected under pixel sampling; cumulative mass is clamped to the frame
    so oversampled inputs cannot go negative.
    """
    cum = list(accumulate(frequencies))
    if not cum:
        return 0
    # bits[0] is the uncompressed frame; bits[i + 1] is candidate i.
    bits = [frame_size_pixels * PIXEL_BITS]
    for i in range(max_size.bit_length()):  # i = 0 .. log2(max_size)
        covered = min(cum[min(1 << i, len(cum)) - 1], frame_size_pixels)
        bits.append(covered * i + (frame_size_pixels - covered) * PIXEL_BITS)
    best = bits.index(min(bits))
    return 1 << (best - 1) if best else 1


# ---------------------------------------------------------------------------
# Vectorized whole-frame costs
#
# All engines take `schemes.resolve`'s five arguments and return per-block
# *accounting* payload bits as an (nblocks_y, nblocks_x) int64 array. Padded pixels never count: a
# compressed sub-block with r live pixels charges bits_per_pixel * r and a
# raw one charges 32 * r. For fully live frames this equals the exact
# bitstream length of the per-block codecs. Every tile is reduced with
# `surface.pool`. No code is wider than 32 bits, so a block charges at most
# 16 * 128 bits and every scheme's bits stay int16. Only the per-block
# result is widened to int64.

_RAW_BITS = np.int16(PIXEL_BITS)


def _block_bits(sb_bits: np.ndarray) -> np.ndarray:
    """Per-block sums of per-sub-block bits, as int64."""
    return pool(sb_bits, np.add, 4, 4).astype(np.int64)


def dcp_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray, ccd: Ccd) -> np.ndarray:
    _, hit = ccd.lookup(padded)
    compressible = pool(hit, np.logical_and, 2, 2)
    return _block_bits(np.where(compressible, np.int16(ccd.bits_per_code), _RAW_BITS) * sb_real)


def vdcp_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                    block_real: np.ndarray, ccd: Ccd) -> np.ndarray:
    if len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    codes, hit = ccd.lookup(padded)
    compressible = pool(hit, np.logical_and, 2, 2)
    # Codes are -1..63. A -1 maximum (no pixel hit) indexes the last width,
    # which `compressible` then discards.
    v = _VDCP_WIDTH[pool(codes, np.maximum, 2, 2, dtype=np.int8)]
    return _block_bits(np.where(compressible, v, _RAW_BITS) * sb_real)


def huffdcp_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                       block_real: np.ndarray, table: HuffmanTable) -> np.ndarray:
    entries, hit = table.lookup(padded)
    compressible = pool(hit, np.logical_and, 2, 2)
    # A miss (entry -1) reads the table's zero-width field.
    lengths = table.code_fields[0].astype(np.int16)[entries]
    code_bits = pool(np.where(valid, lengths, np.int16(0)), np.add, 2, 2)
    return _block_bits(np.where(compressible, code_bits, _RAW_BITS * sb_real))


# ---------------------------------------------------------------------------
# Palette rebuild

def advance_frame(scheme: Scheme, fvc: Fvc, frame_pixels: int,
                  ccd_size: int | None = None) -> Palette:
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

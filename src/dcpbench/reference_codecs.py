"""Comparison codecs: RED uniform-region check, RAS neighbor prediction with
Golomb-Rice residual coding, and the per-block VDCP/RAS hybrid.

Both reference codecs are block self-contained: no pixel outside the 8x8
block is ever consulted, preserving random block access. RAS predicts each
channel sample with the median edge detector (MED, LOCO-I), using the
constant 128 where the left / above / above-left neighbor falls outside the
block.

This module owns the RAS, RED and HDCP block formats. Their compressors
return the same `CompressedBlocks` record as the palette codecs, with one
status entry per block for RAS (its size class) and RED (its class) and 16
for HDCP. Like the palette families, each has the three entries that
`schemes.resolve` reaches by name: batch entries over stacks of blocks
(`<codec>_compress_blocks`, and `<codec>_decompress_blocks` over a
record's status rows and joined streams) and `<codec>_frame_cost`, which
takes the palette engines' five arguments and returns `(bits, classes)`
per block: the RAS size class, the RED class, or HDCP's VDCP-won mask.
HDCP's engine calls `vdcp_frame_cost` and `ras_frame_cost` through this
module's names, so a patch on either here is the one that runs.

RED classifies blocks once, in `_red_classes`, for its encoder and its
engine; it stores its class's colors as 32-bit words and rebuilds a stack
with one gather. RAS runs on whole arrays, never one sample at a time:

- `med_zigzag` is the one MED kernel. It maps the 8-bit samples of any
  `(..., 8a, 8b)` int16 array (a padded frame's four channels, or a strip
  of blocks) to zigzag residuals, all in int16 arithmetic, and `_gr_bits`
  sums them per block and Golomb-Rice parameter by successive shifts in
  uint16. `ras_frame_cost` and the encoder share both, and `_ras_charge`.
- `ras_compress_blocks` costs a chunk of n blocks laid side by side as
  one 8-row strip (`_ras_cost`), so the kernels' row reduce and
  `surface.pool` run along rows 8n pixels wide, not 8, and writes the
  chunk's payload with one `packbits`. `ras_decompress_blocks` walks the
  payload a chunk of blocks at a time: one next-zero table per chunk
  serves the Golomb-Rice parse of each stream, which also finds where the
  next stream starts, and the fields it collects rebuild all channels of
  the chunk's blocks at once, one anti-diagonal of the 8x8 grid per step.
- `hybrid_compress_blocks` encodes each block once, with its winner. VDCP
  encodes a chunk; RAS costs every block with its encoder's kernels and
  charge (not `ras_frame_cost`'s, which caps edge blocks), and
  `ras_compress_blocks` encodes only the blocks RAS wins; one byte gather
  puts the streams in block order. `hybrid_decompress_blocks` is the same
  walk as RAS's, with each VDCP block's length taken from its status
  entries.

The per-block names (`ras_compress_block`, ...) are the batch entries on
one block. The scalar bit-at-a-time codecs these replaced live on in
`tests/ras_oracle.py` and `tests/palette_oracle.py` as the differential
oracle.
"""

from __future__ import annotations

import numpy as np

from .bandwidth import charged_bursts
from .bitio import (
    CorruptStreamError,
    check_payload_end,
    join_streams,
    read_fields,
    stream_starts,
)
from .dcp_codecs import (
    BATCH_BLOCKS,
    VDCP_RAW,
    CompressedBlocks,
    encode_chunks,
    palette_decode,
    palette_widths,
    vdcp_compress_blocks,
    vdcp_frame_cost,
)
from .palette import Ccd
from .surface import pool

GR_K_MAX = 6
GR_K_RAW = 7                   # "special mode": channel stored raw
RAW_CHANNEL_BITS = 512         # 64 samples x 8 bits
RAW_BLOCK_BITS = 2048


# ---------------------------------------------------------------------------
# Median edge detector

def _channels(pixels: np.ndarray) -> np.ndarray:
    """(..., H, W) packed pixels -> (..., 4, H, W) int16 samples, R G B A."""
    octets = np.ascontiguousarray(pixels, dtype="<u4").view(np.uint8)
    octets = octets.reshape(*pixels.shape, 4)
    return np.moveaxis(octets, -1, -3).astype(np.int16, order="C")


def med_zigzag(x: np.ndarray) -> np.ndarray:
    """Zigzag-mapped MED residuals of int16 samples 0..255, as uint16 0..510.

    `x` is any (..., 8a, 8b) array; neighbors are taken inside each 8x8
    block of the last two axes, with 128 on block borders. The median of
    left a, above b and above-left c is a + b - c clipped to min(a, b)..
    max(a, b), and a + b - c spans -255..510, so int16 holds every step.
    """
    a = np.empty_like(x)
    a[..., 1:] = x[..., :-1]
    a[..., ::8] = 128                       # left
    b = np.empty_like(x)
    b[..., 1:, :] = x[..., :-1, :]
    b[..., ::8, :] = 128                    # above
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    a += b
    b[..., 1:] = b[..., :-1]
    b[..., ::8] = 128                       # above-left
    a -= b
    np.maximum(a, lo, out=a)                # clip to lo..hi; lo <= hi
    np.minimum(a, hi, out=a)
    np.subtract(x, a, out=a)                # residual, -255..255
    np.right_shift(a, 15, out=b)
    a <<= 1
    a ^= b                                  # zigzag: (r << 1) ^ (r >> 15)
    return a.view(np.uint16)


def _gr_bits(zz: np.ndarray) -> np.ndarray:
    """(7, ..., a, b) uint16: Golomb-Rice bits of each 8x8 block of the
    (..., 8a, 8b) residuals under k = 0..6, each code (z >> k) + 1 + k bits.

    A block sums to at most 64 * 510 + 64 * 7 < 65536.
    """
    *lead, h, w = zz.shape
    out = np.empty((GR_K_MAX + 1, *lead, h // 8, w // 8), dtype=np.uint16)
    shifted = zz
    for k in range(GR_K_MAX + 1):
        if k == 1:
            shifted = zz >> 1
        elif k > 1:
            shifted >>= 1
        # Each block's 8 rows in one reduce, then its 8 columns pairwise.
        rows = np.add.reduce(shifted.reshape(*lead, h // 8, 8, w), axis=-2, dtype=np.uint16)
        np.add(pool(rows, np.add, 1, 8), 64 * (1 + k), out=out[k])
    return out


# ---------------------------------------------------------------------------
# RED: uniform-region classification

RED_C8, RED_C4, RED_RAW = 0, 1, 2


# A class's stream holds _RED_FIELDS[class] colors of 32 bits each: 8 region
# colors, 16 sub-block colors, or 64 raw pixels. Field j of a class's stream
# holds raster pixel _RED_FIELD_PIXEL[class][j]:
# the top-left pixel of each 4-wide x 2-tall region (C8), of each 2x2
# sub-block (C4), or every pixel (raw). _RED_PIXEL_FIELD[class][i] is the
# field raster pixel i is rebuilt from.
_RED_FIELDS = np.array([8, 16, 64])
_y, _x = np.divmod(np.arange(64), 8)
_RED_PIXEL_FIELD = np.stack([(_y // 2) * 2 + _x // 4, (_y // 2) * 4 + _x // 2, np.arange(64)])
_RED_FIELD_PIXEL = np.stack([np.pad(np.unique(f, return_index=True)[1], (0, 64 - f.max() - 1))
                             for f in _RED_PIXEL_FIELD])


def _red_uniform(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u4, u8) of the last two axes of `pixels`: whether each 2x2 cell, and
    each 2-tall x 4-wide region, holds one color. A cell is uniform when its
    vertical pairs are equal and so is its top pair; a region, when its two
    cells are uniform and their top-left pixels equal."""
    top, bottom = pixels[..., 0::2, :], pixels[..., 1::2, :]
    pairs = top == bottom
    corner = top[..., 0::2]
    u4 = pairs[..., 0::2] & pairs[..., 1::2] & (corner == top[..., 1::2])
    u8 = u4[..., 0::2] & u4[..., 1::2] & (corner[..., 0::2] == corner[..., 1::2])
    return u4, u8


def _red_classes(pixels: np.ndarray) -> np.ndarray:
    """The class of each 8x8 block of the last two axes of any (..., 8a, 8b)
    array of pixels."""
    u4, u8 = _red_uniform(pixels)
    c8 = pool(u8, np.logical_and, 4, 2)
    c4 = pool(u4, np.logical_and, 4, 4)
    return np.where(c8, RED_C8, np.where(c4, RED_C4, RED_RAW))


def red_compress_blocks(blocks: np.ndarray, palette=None) -> CompressedBlocks:
    """Each block's class colors as big-endian 32-bit words; `palette` is
    unused."""
    return encode_chunks(_red_encode, blocks)


def _red_encode(blocks: np.ndarray) -> CompressedBlocks:
    cls = _red_classes(blocks).reshape(-1)
    words = np.take_along_axis(blocks.reshape(-1, 64), _RED_FIELD_PIXEL[cls], axis=1)
    count = _RED_FIELDS[cls]
    kept = words[np.arange(64) < count[:, None]]           # each row's fields, in order
    return CompressedBlocks(cls[:, None], kept.astype(">u4").tobytes(), 32 * count, 32 * count)


def red_decompress_blocks(csb: np.ndarray, payload: bytes, palette=None) -> np.ndarray:
    """Each block's class sets its stream's length; `palette` is unused."""
    cls = np.asarray(csb, dtype=np.int64).reshape(-1)
    bad = (cls < RED_C8) | (cls > RED_RAW)
    if bad.any():
        raise CorruptStreamError(f"RED status {int(cls[bad][0])} is not a class")
    starts = stream_starts(32 * _RED_FIELDS[cls], payload)
    buf = join_streams(payload)
    out = np.empty((len(cls), 8, 8), dtype=np.uint32)
    for lo in range(0, len(cls), BATCH_BLOCKS):
        c = cls[lo:lo + BATCH_BLOCKS]
        at = starts[lo:lo + BATCH_BLOCKS, None] + 32 * np.minimum(np.arange(64),
                                                                  _RED_FIELDS[c][:, None] - 1)
        pixels = np.take_along_axis(read_fields(buf, at, 32), _RED_PIXEL_FIELD[c], axis=1)
        out[lo:lo + len(c)] = pixels.reshape(-1, 8, 8)
    return out


def red_compress_block(block: np.ndarray, palette=None) -> CompressedBlocks:
    return red_compress_blocks(block[None])


def red_decompress_block(comp: CompressedBlocks, palette=None) -> np.ndarray:
    return red_decompress_blocks(comp.csb, comp.payload)[0]


def red_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray, palette=None) -> tuple[np.ndarray, np.ndarray]:
    """(accounting bits per block, class per block).

    A C8 block charges 32 bits per region and a C4 block per 2x2 cell that
    holds a live pixel; a raw block charges its live pixels.
    """
    classes = _red_classes(padded)
    live4 = sb_real > 0
    real_r8 = pool(pool(live4, np.logical_or, 1, 2), np.add, 4, 2, dtype=np.int8)
    real_r4 = pool(live4, np.add, 4, 4, dtype=np.int8)
    return 32 * np.choose(classes, (real_r8, real_r4, block_real)), classes


# ---------------------------------------------------------------------------
# RAS: MED prediction + Golomb-Rice, quantized to four block sizes
#
# Per channel the stream holds a 3-bit k, then 64 Golomb-Rice codes (the
# zigzag residual z as z >> k ones, a zero and the k low bits of z) or, under
# k = 7, the 64 raw 8-bit samples. The status entry is the size class, 0..3
# for 512/1024/1536/2048 charged bits; class 3 stores the 64 pixels raw.

RAS_RAW_CLASS = 3


def _ras_charge(total: np.ndarray) -> np.ndarray:
    """The bits charged for RAS streams of `total` bits: the size class's
    512-bit multiple, or the raw 2048 above 1536."""
    return np.where(total > 1536, RAW_BLOCK_BITS, (total + 511) // 512 * 512)


def ras_compress_blocks(blocks: np.ndarray, palette=None) -> CompressedBlocks:
    """Encode an (n, 8, 8) stack of blocks; `palette` is unused.

    Each channel takes the smallest k in 0..6 that minimizes its Golomb-Rice
    size. A channel whose best size exceeds its raw size (512 bits) stores
    raw samples under k=7. A block whose channel total exceeds 1536 bits is
    stored as 64 raw pixels and charged the full 2048.
    """
    return encode_chunks(_ras_encode, blocks)


def _ras_cost(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(samples, zz, k, total) of a chunk of n blocks: the channel samples
    and their zigzag residuals, each (4, 8, n, 8), each channel's k (n, 4)
    and each block's stream bits (n,).

    The blocks are laid side by side as one 8-row strip, so the MED kernel
    and the per-block sums run along rows 8n wide, not 8; MED never looks
    across a block's border, so the residuals are the stack's.
    """
    n = len(blocks)
    samples = _channels(blocks.transpose(1, 0, 2).reshape(8, 8 * n))    # (4, 8, 8n)
    zz = med_zigzag(samples)
    costs = _gr_bits(zz)[:, :, 0, :]                     # (7, 4, n)
    k = costs.argmin(axis=0).T                           # the first minimum
    gr = costs.min(axis=0).T.astype(np.int64)
    k[gr > RAW_CHANNEL_BITS] = GR_K_RAW
    total = (3 + np.minimum(gr, RAW_CHANNEL_BITS)).sum(axis=1)
    return samples.reshape(4, 8, n, 8), zz.reshape(4, 8, n, 8), k, total


def _ras_encode(blocks: np.ndarray) -> CompressedBlocks:
    samples, zz, k, total = _ras_cost(blocks)
    charged = _ras_charge(total)
    nbits = np.where(total > 1536, RAW_BLOCK_BITS, total)
    payload = _ras_pack(blocks, samples, zz, k, nbits)
    return CompressedBlocks(charged[:, None] // 512 - 1, payload, nbits, charged)


def _ras_pack(blocks: np.ndarray, samples: np.ndarray, zz: np.ndarray, k: np.ndarray,
              nbits: np.ndarray) -> bytes:
    """The joined byte-aligned streams of a chunk of blocks, given their
    samples and residuals as (4, 8, n, 8) strips, each channel's k and each
    stream's bits: RAW_BLOCK_BITS for a block stored raw.

    The coded blocks are written channel by channel. Every item of a stream
    (a channel's k, a code, a raw sample) gets its start bit from one
    cumulative sum. The unary runs are set with one `repeat`; every field
    of at most 8 bits (k, a remainder, a raw sample) is left-aligned in a
    byte whose one-bits are scattered to their place; the zeros between
    are already there. One `packbits` makes the bytes, and each raw block's
    256 bytes are then put in its place.
    """
    nbytes = (nbits + 7) // 8
    first = np.cumsum(nbytes) - nbytes                   # each stream's first byte
    raw_block = nbits == RAW_BLOCK_BITS                  # a coded stream is at most 1536
    coded = np.flatnonzero(~raw_block)
    n = coded.size
    kk = k[coded, :, None]                               # (n, 4, 1)
    raw = kk == GR_K_RAW
    z = zz[:, :, coded].transpose(2, 0, 1, 3).reshape(n, 4, 64).astype(np.int64)
    q = np.where(raw, 0, z >> np.minimum(kk, GR_K_MAX))
    lengths = np.empty((n, 4, 65), dtype=np.int64)
    lengths[..., 0] = 3
    lengths[..., 1:] = np.where(raw, 8, q + 1 + kk)
    flat = lengths.reshape(n, 4 * 65)
    starts = (8 * first[coded, None] + np.cumsum(flat, axis=1) - flat).reshape(n, 4, 65)
    code_at = starts[..., 1:]

    bits = np.zeros(8 * int(nbytes.sum()), dtype=np.uint8)
    runs = q.reshape(-1)
    bits[np.repeat(code_at.reshape(-1) - (np.cumsum(runs) - runs), runs)
         + np.arange(int(runs.sum()))] = 1

    width = np.where(raw, 8, kk)
    value = np.where(raw, samples[:, :, coded].transpose(2, 0, 1, 3).reshape(n, 4, 64),
                     z & ((1 << width) - 1))
    field_at = np.concatenate([starts[..., 0].reshape(-1),
                               np.where(raw, code_at, code_at + q + 1).reshape(-1)])
    aligned = np.concatenate([(kk << 5).reshape(-1),
                              (value << (8 - width)).reshape(-1)]).astype(np.uint8)
    ones = np.unpackbits(aligned[:, None], axis=1).astype(bool)
    bits[(field_at[:, None] + np.arange(8))[ones]] = 1

    packed = np.packbits(bits)
    packed[first[raw_block, None] + np.arange(256)] = (
        blocks[raw_block].astype(">u4").view(np.uint8).reshape(-1, 256))
    return packed.tobytes()


def ras_decompress_blocks(csb: np.ndarray, payload: bytes, palette=None) -> np.ndarray:
    """Decode RAS blocks, one status entry each, to an (n, 8, 8) stack;
    `palette` is unused.

    Raises CorruptStreamError where the scalar reader would, reading the
    blocks' streams in order from one reader over the payload.
    """
    size_class = np.asarray(csb, dtype=np.int64).reshape(-1)
    if np.any((size_class < 0) | (size_class > RAS_RAW_CLASS)):
        raise CorruptStreamError("RAS status outside the size classes 0..3")
    return _ras_streams(size_class, payload)


def _ras_streams(size_class: np.ndarray, payload: bytes, vdcp=None) -> np.ndarray:
    """Decode a payload of RAS blocks of size class `size_class`, and for
    HDCP of VDCP blocks where the class is -1 and `vdcp` holds their (code
    width, raw mask) per sub-block and the palette.

    The streams are parsed once, in order, a chunk of BATCH_BLOCKS blocks
    at a time. No block's stream is longer than its class allows (or its
    VDCP widths set), so a chunk's blocks lie in the sum of those bounds
    past its first byte, and one next-zero table over that window serves
    the chunk's Golomb-Rice parse and its decode. The window reads as
    zeros past the payload's end; a stream that runs into them moves every
    later stream, so the last ends past the payload, which
    `check_payload_end` rejects.
    """
    bound = np.where(size_class < RAS_RAW_CLASS, 512 * (size_class + 1), RAW_BLOCK_BITS)
    if vdcp is not None:
        bound = np.where(size_class < 0, 4 * vdcp[0].sum(axis=1), bound)
    out = np.empty((len(size_class), 8, 8), dtype=np.uint32)
    start = 0                                   # the next stream's first bit
    for lo in range(0, len(size_class), BATCH_BLOCKS):
        hi = lo + BATCH_BLOCKS
        first = start // 8
        buf, nz = _next_zero(payload[first:first + int(((bound[lo:hi] + 7) // 8).sum())])
        table = memoryview(nz)
        fields: tuple[list, list, list, list] = ([], [], [], [])
        at = []                                 # each stream's first bit in buf
        for c, nbits in zip(size_class[lo:hi].tolist(), bound[lo:hi].tolist()):
            p = start - 8 * first
            if 0 <= c < RAS_RAW_CLASS:         # a coded stream's bound becomes its length
                nbits = _ras_parse(buf, table, p, p + nbits, c, fields)
            at.append(p)
            start += -(-nbits // 8) * 8
        c, at = size_class[lo:hi], np.array(at, dtype=np.int64)
        vdcp_won = np.flatnonzero(c < 0)
        if vdcp_won.size:
            out[lo + vdcp_won] = palette_decode(vdcp[0][lo + vdcp_won], vdcp[1][lo + vdcp_won],
                                                buf, at[vdcp_won], vdcp[2])
        raw = np.flatnonzero(c == RAS_RAW_CLASS)
        if raw.size:
            words = read_fields(buf, at[raw, None] + 32 * np.arange(64), 32)
            out[lo + raw] = words.reshape(-1, 8, 8)
        coded = np.flatnonzero((c >= 0) & (c < RAS_RAW_CLASS))
        if coded.size:
            out[lo + coded] = _ras_decode(buf, nz, fields)
    check_payload_end(start // 8, payload)
    return out


# Anti-diagonal y + x = d of the 8x8 grid, as strided slices: its samples
# in the block framed by a row and a column of 128s (9x9, flat index
# 8y + d + 10), and their residuals (flat index 7y + d).
_DIAGONALS = [(slice(8 * y0 + d + 10, 8 * y1 + d + 11, 8), slice(7 * y0 + d, 7 * y1 + d + 1, 7))
              for d in range(15) for y0, y1 in [(max(0, d - 7), min(d, 7))]]


def _next_zero(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """`data` as a `bitio.join_streams` buffer, and for each of its bits the
    position of the first zero bit at or after it. The buffer's zero slack
    bounds every next-zero lookup and every field read near the end."""
    buf = join_streams(data)
    ones = np.unpackbits(buf).view(bool)
    nz = np.arange(ones.size, dtype=np.int32)
    nz[ones] = ones.size
    np.minimum.accumulate(nz[::-1], out=nz[::-1])      # in place, one table in memory
    return buf, nz


def _ras_parse(buf: np.ndarray, nz: memoryview, start: int, end: int, size_class: int,
               fields: tuple[list, list, list, list]) -> int:
    """Parse the coded stream at bits start..end of `buf`, given the
    next-zero table `nz` of its bits. Returns the bits used.

    Appends each Golomb-Rice channel's k to `fields[0]`, its 64 code
    offsets to `fields[1]`, each raw channel's first sample offset to
    `fields[2]` and whether each channel is raw to `fields[3]`.

    A stream may not read past `end`, and the bits used must fit the size
    class. The next-zero chase runs on Python ints; a chase that leaves
    `end` is caught once its channel is done, since offsets only grow.
    """
    p = start
    try:
        for _ in range(4):
            if p + 3 > end:
                raise CorruptStreamError("bit stream exhausted")
            k = (int(buf[p >> 3]) << 8 | int(buf[(p >> 3) + 1])) >> (13 - (p & 7)) & 7
            p += 3
            if k == GR_K_RAW:
                fields[2].append(p)
                fields[3].append(True)
                p += RAW_CHANNEL_BITS
            else:
                fields[0].append(k)
                fields[3].append(False)
                codes = fields[1]
                step = k + 1                    # past the zero and the remainder
                for _ in range(64):
                    codes.append(p)
                    p = nz[p] + step
            if p > end:
                raise CorruptStreamError("bit stream exhausted")
    except IndexError:                          # a chase past the buffer
        raise CorruptStreamError("bit stream exhausted") from None
    if not size_class * 512 < p - start:
        raise CorruptStreamError(
            f"RAS stream of {p - start} bits does not fit size class {size_class}")
    return p - start


def _ras_decode(buf: np.ndarray, nz: np.ndarray, fields) -> np.ndarray:
    """(n, 8, 8) blocks from the fields `_ras_parse` collected from coded
    (class 0..2) streams in `buf`, given the next-zero table `nz` of its
    bits.

    Every sample must be 0..255. The scalar reader's other checks were the
    parse's: it keeps each stream within its class's 1536 bits at most, so
    no unary run comes near the reader's cap of 4096.
    """
    gr_k, gr_codes, raw_at, is_raw = fields
    samples = np.empty((len(is_raw), 64), dtype=np.int64)
    is_raw = np.array(is_raw, dtype=bool)
    if raw_at:
        samples[is_raw] = read_fields(buf, np.array(raw_at)[:, None] + 8 * np.arange(64), 8)
    if gr_k:
        at = np.array(gr_codes).reshape(-1, 64)
        k = np.array(gr_k)[:, None]
        zero = nz[at]
        z = ((zero - at) << k) | read_fields(buf, zero + 1, k).astype(np.int64)
        samples[~is_raw] = _med_rebuild((z >> 1) ^ -(z & 1))
    if samples.min() < 0 or samples.max() > 255:
        raise CorruptStreamError("RAS sample outside 0..255")
    planes = samples.astype(np.uint8).reshape(-1, 4, 8, 8)
    pixels = np.ascontiguousarray(np.moveaxis(planes, 1, -1)).view("<u4")
    return pixels.reshape(-1, 8, 8).astype(np.uint32)


def _med_rebuild(residuals: np.ndarray) -> np.ndarray:
    """Samples from (m, 64) MED residuals, one anti-diagonal at a time.

    Every sample on a diagonal needs only the two before it, so each step
    rebuilds one diagonal of all m channels. Values stay exact in int32
    however corrupt the residuals are, so an out-of-range sample is never
    wrapped back into range.
    """
    res = residuals.T.astype(np.int32)
    grid = np.full((81, len(residuals)), 128, dtype=np.int32)
    for at, r in _DIAGONALS:
        a = grid[at.start - 1:at.stop - 1:8]            # left
        b = grid[at.start - 9:at.stop - 9:8]            # above
        pred = a + b
        pred -= grid[at.start - 10:at.stop - 10:8]      # above-left
        np.maximum(pred, np.minimum(a, b), out=pred)
        np.minimum(pred, np.maximum(a, b), out=pred)
        pred += res[r]
        grid[at] = pred
    return grid.reshape(9, 9, -1)[1:, 1:].reshape(64, -1).T


def ras_compress_block(block: np.ndarray, palette=None) -> CompressedBlocks:
    return ras_compress_blocks(block[None])


def ras_decompress_block(comp: CompressedBlocks, palette=None) -> np.ndarray:
    return ras_decompress_blocks(comp.csb, comp.payload)[0]


def ras_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray, palette=None) -> tuple[np.ndarray, np.ndarray]:
    """(charged bits, size class) per block, vectorized.

    Matches ras_compress_blocks exactly on fully live blocks. Edge blocks
    cap their charge at the burst-rounded raw size of their live pixels so
    padding never inflates the accounting.
    """
    gr = _gr_bits(med_zigzag(_channels(padded))).min(axis=0)
    charged = _ras_charge(12 + np.minimum(gr, RAW_CHANNEL_BITS).sum(axis=0, dtype=np.int64))
    classes = charged // 512 - 1
    raw_cap = ((32 * block_real + 127) // 128) * 128
    return np.minimum(charged, raw_cap), classes


# ---------------------------------------------------------------------------
# HDCP: per-block best of VDCP and RAS

HDCP_RAS_BASE = 8              # 5-bit status values 8..11 carry the RAS class


def hybrid_compress_blocks(blocks: np.ndarray, ccd: Ccd) -> CompressedBlocks:
    """Compress each block with the codec needing fewer bursts; ties go to VDCP.

    A chunk at a time: VDCP encodes the chunk; RAS costs every block with
    its encoder's kernels and charge, and encodes only the blocks it wins.
    The RAS outcome replicates its size class into all 16 status slots
    (values 8..11); VDCP outcomes reuse its 0..7 codes.
    """
    return encode_chunks(_hybrid_encode, blocks, ccd)


def _hybrid_encode(blocks: np.ndarray, ccd: Ccd) -> CompressedBlocks:
    v = vdcp_compress_blocks(blocks, ccd)
    won = charged_bursts(_ras_charge(_ras_cost(blocks)[3])) < charged_bursts(v.cost_bits)
    r = ras_compress_blocks(blocks[won])
    csb, payload_bits, cost_bits = v.csb.copy(), v.payload_bits.copy(), v.cost_bits.copy()
    csb[won] = HDCP_RAS_BASE + r.csb
    payload_bits[won] = r.payload_bits
    cost_bits[won] = r.cost_bits
    # Each block's stream, in block order, from VDCP's payload or from
    # RAS's after it: one gather of its bytes.
    v_bytes, r_bytes = (v.payload_bits + 7) // 8, (r.payload_bits + 7) // 8
    first = np.cumsum(v_bytes) - v_bytes
    first[won] = len(v.payload) + np.cumsum(r_bytes) - r_bytes
    nbytes = (payload_bits + 7) // 8
    at = np.repeat(first - (np.cumsum(nbytes) - nbytes), nbytes) + np.arange(nbytes.sum())
    source = np.frombuffer(v.payload + r.payload, dtype=np.uint8)
    return CompressedBlocks(csb, source[at].tobytes(), payload_bits, cost_bits)


def hybrid_decompress_blocks(csb: np.ndarray, payload: bytes, palette: Ccd) -> np.ndarray:
    """VDCP-coded and RAS-coded blocks, parsed in one walk of the payload."""
    csb = np.asarray(csb, dtype=np.int64).reshape(-1, 16)
    size_class = _hdcp_ras_classes(csb)
    width, raw = palette_widths("vdcp", np.where(size_class[:, None] < 0, csb, 0), palette)
    return _ras_streams(size_class, payload, (width, raw, palette))


def _hdcp_ras_classes(csb: np.ndarray) -> np.ndarray:
    """The RAS size class of each block of HDCP status entries, or -1 for
    VDCP codes; entries that are neither raise CorruptStreamError."""
    is_vdcp = csb.max(axis=1) <= VDCP_RAW
    size_class = csb[:, 0] - HDCP_RAS_BASE
    ok = is_vdcp | ((csb == csb[:, :1]).all(axis=1)
                    & (size_class >= 0) & (size_class <= RAS_RAW_CLASS))
    if not ok.all():
        bad = csb[np.flatnonzero(~ok)[0]].tolist()
        raise CorruptStreamError(f"HDCP status {bad} is neither VDCP codes nor a RAS class")
    return np.where(is_vdcp, -1, size_class)


def hybrid_compress_block(block: np.ndarray, ccd: Ccd) -> CompressedBlocks:
    return hybrid_compress_blocks(block[None], ccd)


def hybrid_decompress_block(comp: CompressedBlocks, palette: Ccd) -> np.ndarray:
    return hybrid_decompress_blocks(comp.csb, comp.payload, palette)[0]


def hybrid_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                      block_real: np.ndarray, ccd: Ccd) -> tuple[np.ndarray, np.ndarray]:
    """(accounting bits, vdcp-won mask) per block; ties go to VDCP."""
    vbits = vdcp_frame_cost(padded, valid, sb_real, block_real, ccd)
    r_charged, _ = ras_frame_cost(padded, valid, sb_real, block_real)
    raw_bits = 32 * block_real
    vdcp_wins = charged_bursts(vbits, raw_bits) <= charged_bursts(r_charged, raw_bits)
    return np.where(vdcp_wins, vbits, r_charged), vdcp_wins

"""Comparison codecs: RED uniform-region check, RAS neighbor prediction with
Golomb-Rice residual coding, and the per-block VDCP/RAS hybrid.

Both reference codecs are block self-contained: no pixel outside the 8x8
block is ever consulted, preserving random block access. RAS predicts each
channel sample with the median edge detector (MED, LOCO-I), using the
constant 128 where the left / above / above-left neighbor falls outside the
block.

This module owns the RAS, RED and HDCP block formats. Their compressors
return the same `CompressedBlock` as the palette codecs, with one status
entry per block for RAS (its size class) and RED (its class) and 16 for
HDCP. Like the palette families, each has the four entries that
`schemes.resolve` reaches by name: batch entries over stacks of blocks
(`<codec>_compress_blocks`, `<codec>_decompress_blocks`),
`<codec>_stream_bits`, which finds each block's stream length in a frame's
payload, and `<codec>_frame_cost`, which takes the palette engines' five
arguments and returns `(bits, classes)` per block: the RAS size class, the
RED class, or HDCP's VDCP-won mask. HDCP's engine calls `vdcp_frame_cost`
and `ras_frame_cost` through this module's names, so a patch on either
here is the one that runs.

RED stores its class's colors as 32-bit words and rebuilds a stack with one
gather. RAS runs on whole arrays, never one
sample at a time:

- `med_zigzag` is the one MED kernel. It maps the 8-bit samples of any
  `(..., 8a, 8b)` int16 array (a padded frame's four channels, or a stack
  of blocks) to zigzag residuals, all in int16 arithmetic, and `_gr_bits`
  sums them per block and Golomb-Rice parameter by successive shifts in
  uint16. `ras_frame_cost` and the encoder share both.
- `ras_compress_blocks` encodes a stack of blocks with one `packbits`.
  `ras_decompress_blocks` parses each stream from a next-zero table and
  rebuilds all channels of all blocks at once, one anti-diagonal of the
  8x8 grid per step. `ras_stream_bits` runs the same next-zero parse over
  a frame's payload to find where each stream ends, so a whole frame's
  blocks reach the wavefront in one call.
- `hybrid_compress_blocks`/`hybrid_decompress_blocks` run the VDCP and
  RAS batch entries once each over the stack.

The per-block names (`ras_compress_block`, ...) are the batch entries on
one block. The scalar bit-at-a-time codecs these replaced live on in
`tests/ras_oracle.py` and `tests/palette_oracle.py` as the differential
oracle.
"""

from __future__ import annotations

import numpy as np

from .bandwidth import charged_bursts
from .bitio import CorruptStreamError, join_streams, read_fields
from .dcp_codecs import (
    BATCH_BLOCKS,
    VDCP_RAW,
    CompressedBlock,
    compressed_blocks,
    stream_rows,
    vdcp_compress_blocks,
    vdcp_decompress_blocks,
    vdcp_frame_cost,
    vdcp_stream_bits,
)
from .palette import Ccd, Rccd
from .surface import pool

GR_K_MAX = 6
GR_K_RAW = 7                   # "special mode": channel stored raw
GR_UNARY_CAP = 4096            # longest unary run a reader accepts
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
# 8 region colors, 16 sub-block colors, or 64 raw pixels, 32 bits each.
RED_CHARGED_BITS = {RED_C8: 256, RED_C4: 512, RED_RAW: 2048}


# Field j of a class's stream holds raster pixel _RED_FIELD_PIXEL[class][j]:
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


def _red_classes(blocks: np.ndarray) -> np.ndarray:
    """The class of each block of an (n, 8, 8) or (n, 64) stack."""
    u4, u8 = _red_uniform(blocks.reshape(-1, 8, 8))
    c8 = pool(u8, np.logical_and, 4, 2)[:, 0, 0]
    c4 = pool(u4, np.logical_and, 4, 4)[:, 0, 0]
    return np.where(c8, RED_C8, np.where(c4, RED_C4, RED_RAW))


def red_classify_block(block: np.ndarray) -> tuple[int, int]:
    """(class, charged bits). C8 compresses 1:8, C4 1:4, else raw."""
    cls = int(_red_classes(np.asarray(block)[None])[0])
    return cls, RED_CHARGED_BITS[cls]


def red_compress_blocks(blocks: np.ndarray, palette=None) -> list[CompressedBlock]:
    """Each block's class colors as big-endian 32-bit words; `palette` is
    unused."""
    blocks = np.asarray(blocks, dtype=np.uint32).reshape(-1, 64)
    out: list[CompressedBlock] = []
    for lo in range(0, len(blocks), BATCH_BLOCKS):
        chunk = blocks[lo:lo + BATCH_BLOCKS]
        cls = _red_classes(chunk)
        words = np.take_along_axis(chunk, _RED_FIELD_PIXEL[cls], axis=1).astype(">u4")
        count = _RED_FIELDS[cls]
        out += compressed_blocks(cls[:, None],
                                 [row[:n].tobytes() for row, n in zip(words, count.tolist())],
                                 32 * count)
    return out


def red_decompress_blocks(comps, palette=None) -> np.ndarray:
    comps = list(comps)
    out = np.empty((len(comps), 8, 8), dtype=np.uint32)
    for lo in range(0, len(comps), BATCH_BLOCKS):
        csb, buf, base, nbits = stream_rows(comps[lo:lo + BATCH_BLOCKS], 1)
        if np.any(red_stream_bits(csb, b"") > nbits):
            raise CorruptStreamError("bit stream exhausted")
        cls = csb[:, 0]
        at = base[:, None] + 32 * np.minimum(np.arange(64), _RED_FIELDS[cls][:, None] - 1)
        fields = read_fields(buf, at, 32)
        pixels = np.take_along_axis(fields, _RED_PIXEL_FIELD[cls], axis=1)
        out[lo:lo + len(cls)] = pixels.reshape(-1, 8, 8)
    return out


def red_stream_bits(csb: np.ndarray, payload: bytes, palette=None) -> np.ndarray:
    """Each block's stream bits, from its class alone."""
    cls = csb[:, 0]
    bad = (cls < RED_C8) | (cls > RED_RAW)
    if bad.any():
        raise CorruptStreamError(f"RED status {int(cls[bad][0])} is not a class")
    return 32 * _RED_FIELDS[cls]


def red_compress_block(block: np.ndarray, palette=None) -> CompressedBlock:
    return red_compress_blocks(block[None])[0]


def red_decompress_block(comp: CompressedBlock, palette=None) -> np.ndarray:
    return red_decompress_blocks([comp])[0]


def red_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray, palette=None) -> tuple[np.ndarray, np.ndarray]:
    """(accounting bits per block, class per block).

    A C8 block charges 32 bits per region and a C4 block per 2x2 cell that
    holds a live pixel; a raw block charges its live pixels.
    """
    u4, u8 = _red_uniform(padded)
    c8_ok = pool(u8, np.logical_and, 4, 2)
    c4_ok = pool(u4, np.logical_and, 4, 4)
    live4 = sb_real > 0
    real_r8 = pool(pool(live4, np.logical_or, 1, 2), np.add, 4, 2, dtype=np.int8)
    real_r4 = pool(live4, np.add, 4, 4, dtype=np.int8)
    bits = 32 * np.where(c8_ok, real_r8, np.where(c4_ok, real_r4, block_real))
    classes = np.where(c8_ok, RED_C8, np.where(c4_ok, RED_C4, RED_RAW))
    return bits, classes


# ---------------------------------------------------------------------------
# RAS: MED prediction + Golomb-Rice, quantized to four block sizes
#
# Per channel the stream holds a 3-bit k, then 64 Golomb-Rice codes (the
# zigzag residual z as z >> k ones, a zero and the k low bits of z) or, under
# k = 7, the 64 raw 8-bit samples. The status entry is the size class, 0..3
# for 512/1024/1536/2048 charged bits; class 3 stores the 64 pixels raw.

RAS_RAW_CLASS = 3


def _quantize_512(bits: int | np.ndarray):
    return ((bits + 511) // 512) * 512


def ras_compress_blocks(blocks: np.ndarray, palette=None) -> list[CompressedBlock]:
    """Encode an (n, 8, 8) stack of blocks; `palette` is unused.

    Each channel takes the smallest k in 0..6 that minimizes its Golomb-Rice
    size. A channel whose best size exceeds its raw size (512 bits) stores
    raw samples under k=7. A block whose channel total exceeds 1536 bits is
    stored as 64 raw pixels and charged the full 2048.
    """
    blocks = np.asarray(blocks, dtype=np.uint32).reshape(-1, 8, 8)
    out: list[CompressedBlock] = []
    for lo in range(0, len(blocks), BATCH_BLOCKS):
        out += _ras_encode(blocks[lo:lo + BATCH_BLOCKS])
    return out


def _ras_encode(blocks: np.ndarray) -> list[CompressedBlock]:
    samples = _channels(blocks)                          # (n, 4, 8, 8)
    zz = med_zigzag(samples)
    costs = _gr_bits(zz)[..., 0, 0]                      # (7, n, 4)
    k = costs.argmin(axis=0)                             # the first minimum
    gr = costs.min(axis=0).astype(np.int64)
    k[gr > RAW_CHANNEL_BITS] = GR_K_RAW
    total = (3 + np.minimum(gr, RAW_CHANNEL_BITS)).sum(axis=1)
    coded = np.flatnonzero(total <= 1536)
    payloads = iter(_ras_pack(samples[coded], zz[coded], k[coded], total[coded]))
    out = []
    for block, bits in zip(blocks, total.tolist()):
        if bits > 1536:
            out.append(CompressedBlock((RAS_RAW_CLASS,), block.astype(">u4").tobytes(),
                                       RAW_BLOCK_BITS, RAW_BLOCK_BITS))
        else:
            charged = _quantize_512(bits)
            out.append(CompressedBlock((charged // 512 - 1,), next(payloads), bits, charged))
    return out


def _ras_pack(samples: np.ndarray, zz: np.ndarray, k: np.ndarray,
              total: np.ndarray) -> list[bytes]:
    """The byte-aligned streams of blocks coded channel by channel.

    Every item of a stream (a channel's k, a code, a raw sample) gets its
    start bit from one cumulative sum. The unary runs are set with one
    `repeat`; every field of at most 8 bits (k, a remainder, a raw sample)
    is left-aligned in a byte whose one-bits are scattered to their place;
    the zeros between are already there. One `packbits` makes the bytes.
    """
    n = len(k)
    kk = k[:, :, None]                                   # (n, 4, 1)
    raw = kk == GR_K_RAW
    z = zz.reshape(n, 4, 64).astype(np.int64)
    q = np.where(raw, 0, z >> np.minimum(kk, GR_K_MAX))
    lengths = np.empty((n, 4, 65), dtype=np.int64)
    lengths[..., 0] = 3
    lengths[..., 1:] = np.where(raw, 8, q + 1 + kk)
    nbytes = (total + 7) // 8
    base = 8 * (np.cumsum(nbytes) - nbytes)
    flat = lengths.reshape(n, 4 * 65)
    starts = (base[:, None] + np.cumsum(flat, axis=1) - flat).reshape(n, 4, 65)
    code_at = starts[..., 1:]

    bits = np.zeros(8 * int(nbytes.sum()), dtype=np.uint8)
    runs = q.reshape(-1)
    bits[np.repeat(code_at.reshape(-1) - (np.cumsum(runs) - runs), runs)
         + np.arange(int(runs.sum()))] = 1

    width = np.where(raw, 8, kk)
    value = np.where(raw, samples.reshape(n, 4, 64), z & ((1 << width) - 1))
    field_at = np.concatenate([starts[..., 0].reshape(-1),
                               np.where(raw, code_at, code_at + q + 1).reshape(-1)])
    aligned = np.concatenate([(k << 5).reshape(-1),
                              (value << (8 - width)).reshape(-1)]).astype(np.uint8)
    ones = np.unpackbits(aligned[:, None], axis=1).astype(bool)
    bits[(field_at[:, None] + np.arange(8))[ones]] = 1

    packed = np.packbits(bits).tobytes()
    return [packed[b:b + m] for b, m in zip((base // 8).tolist(), nbytes.tolist())]


def ras_decompress_blocks(comps, palette=None) -> np.ndarray:
    """Decode RAS blocks to an (n, 8, 8) stack; `palette` is unused.

    Raises CorruptStreamError where the scalar reader would on each block's
    own stream, and also when a block declares more bits than it carries.
    """
    comps = list(comps)
    out = np.empty((len(comps), 8, 8), dtype=np.uint32)
    for lo in range(0, len(comps), BATCH_BLOCKS):
        chunk = comps[lo:lo + BATCH_BLOCKS]
        coded, data, starts, avail, classes = [], [], [], [], []
        offset = 0
        for i, comp in enumerate(chunk, lo):
            if comp.payload_bits > 8 * len(comp.payload):
                raise CorruptStreamError("declared bit length exceeds buffer")
            if comp.csb[0] == RAS_RAW_CLASS:
                if comp.payload_bits < RAW_BLOCK_BITS:
                    raise CorruptStreamError("bit stream exhausted")
                out[i] = np.frombuffer(comp.payload, dtype=">u4", count=64).reshape(8, 8)
                continue
            coded.append(i)
            data.append(comp.payload)
            starts.append(8 * offset)
            avail.append(comp.payload_bits)
            classes.append(comp.csb[0])
            offset += len(comp.payload)
        if coded:
            out[coded] = _ras_decode(b"".join(data), starts, avail, classes)
    return out


def ras_stream_bits(csb: np.ndarray, payload: bytes, palette=None) -> list[int]:
    return _ras_walk(payload, [None] * len(csb), csb[:, 0].tolist())


_WALK_WINDOW = 1 << 13         # payload bytes given one next-zero table


def _ras_walk(payload: bytes, known, classes) -> list[int]:
    """Each block's stream bits in a payload of byte-aligned streams. A
    block's bits are `known`, or None for a RAS block of size class
    `classes[i]`, whose stream is parsed up to its end. The next-zero
    table covers a window of the payload at a time."""
    total = 8 * len(payload)
    out = []
    start = 0
    first, last, buf, nz = 0, -1, None, None    # the window's bits first..last
    for nbits, size_class in zip(known, classes):
        if nbits is None and size_class == RAS_RAW_CLASS:
            nbits = RAW_BLOCK_BITS
        if nbits is None:
            end = start + max(0, min((size_class + 1) * 512, total - start))
            if end > last:
                chunk = payload[start // 8:start // 8 + _WALK_WINDOW]
                first, last = start, start + 8 * len(chunk)
                buf, nz = _next_zero(chunk)
                nz = memoryview(nz)
            nbits = _ras_parse(buf, nz, start - first, end - first, size_class)
        elif start + nbits > total:
            raise CorruptStreamError("bit stream exhausted")
        out.append(nbits)
        start += -(-nbits // 8) * 8
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
    buf, _ = join_streams([data], [0])
    bits = np.unpackbits(buf)
    zero_at = np.where(bits == 0, np.arange(bits.size, dtype=np.int32), np.int32(bits.size))
    return buf, np.minimum.accumulate(zero_at[::-1])[::-1]


def _ras_parse(buf: np.ndarray, nz: memoryview, start: int, end: int, size_class: int,
               fields: tuple[list, list, list, list] | None = None) -> int:
    """Parse the coded stream at bits start..end of `buf`, given the
    next-zero table `nz` of its bits. Returns the bits used.

    With `fields`, appends each Golomb-Rice channel's k to `fields[0]`, its
    64 code offsets to `fields[1]`, each raw channel's first sample offset
    to `fields[2]` and whether each channel is raw to `fields[3]`.

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
                if fields is not None:
                    fields[2].append(p)
                    fields[3].append(True)
                p += RAW_CHANNEL_BITS
            elif fields is None:
                step = k + 1                    # past the zero and the remainder
                for _ in range(64):
                    p = nz[p] + step
            else:
                fields[0].append(k)
                fields[3].append(False)
                codes = fields[1]
                step = k + 1
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


def _ras_decode(data: bytes, starts, avail, classes) -> np.ndarray:
    """Decode the coded (class 0..2) RAS streams that start at bit `starts`
    of `data` and have `avail` bits each, to (n, 8, 8) blocks.

    Every check of the scalar reader holds: a stream may not read past its
    bits, a unary run may not pass GR_UNARY_CAP, the bits used must fit the
    size class, and every sample must be 0..255. A coded stream never uses
    more than its class's bits, so each is parsed within that window. The
    streams share one buffer; a code that crosses its stream's end is an
    error, so no stream decodes another's bits.
    """
    buf, nz = _next_zero(data)
    table = memoryview(nz)
    fields: tuple[list, list, list, list] = ([], [], [], [])
    for start, n_avail, size_class in zip(starts, avail, classes):
        end = start + max(0, min(n_avail, (size_class + 1) * 512))
        _ras_parse(buf, table, start, end, size_class, fields)
    gr_k, gr_codes, raw_at, is_raw = fields

    samples = np.empty((len(is_raw), 64), dtype=np.int64)
    is_raw = np.array(is_raw, dtype=bool)
    if raw_at:
        samples[is_raw] = read_fields(buf, np.array(raw_at)[:, None] + 8 * np.arange(64), 8)
    if gr_k:
        at = np.array(gr_codes).reshape(-1, 64)
        k = np.array(gr_k)[:, None]
        q = nz[at] - at
        if q.max() > GR_UNARY_CAP:
            raise CorruptStreamError("unary run exceeds cap")
        z = (q << k) | read_fields(buf, nz[at] + 1, k).astype(np.int64)
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


def ras_compress_block(block: np.ndarray, palette=None) -> CompressedBlock:
    return ras_compress_blocks(block[None])[0]


def ras_decompress_block(comp: CompressedBlock, palette=None) -> np.ndarray:
    return ras_decompress_blocks([comp])[0]


def ras_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray, palette=None) -> tuple[np.ndarray, np.ndarray]:
    """(charged bits, size class) per block, vectorized.

    Matches ras_compress_blocks exactly on fully live blocks. Edge blocks
    cap their charge at the burst-rounded raw size of their live pixels so
    padding never inflates the accounting.
    """
    gr = _gr_bits(med_zigzag(_channels(padded))).min(axis=0)
    total = 12 + np.minimum(gr, RAW_CHANNEL_BITS).sum(axis=0, dtype=np.int64)
    charged = np.where(total > 1536, RAW_BLOCK_BITS, _quantize_512(total))
    classes = charged // 512 - 1
    raw_cap = ((32 * block_real + 127) // 128) * 128
    return np.minimum(charged, raw_cap), classes


# ---------------------------------------------------------------------------
# HDCP: per-block best of VDCP and RAS

HDCP_RAS_BASE = 8              # 5-bit status values 8..11 carry the RAS class


def hybrid_compress_blocks(blocks: np.ndarray, ccd: Ccd | None) -> list[CompressedBlock]:
    """Compress each block with both codecs, keep the one needing fewer bursts.

    Each codec runs once over the stack. Ties go to VDCP. The RAS outcome
    replicates its size class into all 16 status slots (values 8..11); VDCP
    outcomes reuse its 0..7 codes.
    """
    blocks = np.asarray(blocks, dtype=np.uint32).reshape(-1, 8, 8)
    vdcp = vdcp_compress_blocks(blocks, ccd)
    ras = ras_compress_blocks(blocks)
    v_cost = np.array([b.cost_bits for b in vdcp], dtype=np.int64)
    r_cost = np.array([b.cost_bits for b in ras], dtype=np.int64)
    vdcp_wins = (charged_bursts(v_cost) <= charged_bursts(r_cost)).tolist()
    return [vb if win else CompressedBlock((HDCP_RAS_BASE + rb.csb[0],) * 16, rb.payload,
                                           rb.payload_bits, rb.cost_bits)
            for vb, rb, win in zip(vdcp, ras, vdcp_wins)]


def hybrid_decompress_blocks(comps, palette: Rccd | None = None) -> np.ndarray:
    """VDCP-coded and RAS-coded blocks each decode as one batch."""
    comps = list(comps)
    out = np.empty((len(comps), 8, 8), dtype=np.uint32)
    if not comps:
        return out
    csb = np.array([c.csb for c in comps], dtype=np.int64).reshape(len(comps), -1)
    size_class = _hdcp_ras_classes(csb)
    vdcp = np.flatnonzero(size_class < 0)
    ras = np.flatnonzero(size_class >= 0)
    if vdcp.size:
        out[vdcp] = vdcp_decompress_blocks([comps[i] for i in vdcp], palette)
    if ras.size:
        out[ras] = ras_decompress_blocks([
            CompressedBlock((c,), comps[i].payload, comps[i].payload_bits, comps[i].cost_bits)
            for i, c in zip(ras.tolist(), size_class[ras].tolist())])
    return out


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


def hybrid_stream_bits(csb: np.ndarray, payload: bytes, palette=None) -> list[int]:
    size_class = _hdcp_ras_classes(csb)
    vbits = vdcp_stream_bits(np.where(size_class[:, None] < 0, csb, 0), payload)
    known = [int(b) if c < 0 else None for b, c in zip(vbits.tolist(), size_class.tolist())]
    return _ras_walk(payload, known, size_class.tolist())


def hybrid_compress_block(block: np.ndarray, ccd: Ccd | None) -> CompressedBlock:
    return hybrid_compress_blocks(block[None], ccd)[0]


def hybrid_decompress_block(comp: CompressedBlock, palette: Rccd | None = None) -> np.ndarray:
    return hybrid_decompress_blocks([comp], palette)[0]


def hybrid_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                      block_real: np.ndarray, ccd: Ccd | None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """(accounting bits, vdcp-won mask) per block; ties go to VDCP."""
    vbits = vdcp_frame_cost(padded, valid, sb_real, block_real, ccd)
    r_charged, _ = ras_frame_cost(padded, valid, sb_real, block_real)
    raw_bits = 32 * block_real
    vdcp_wins = charged_bursts(vbits, raw_bits) <= charged_bursts(r_charged, raw_bits)
    return np.where(vdcp_wins, vbits, r_charged), vdcp_wins

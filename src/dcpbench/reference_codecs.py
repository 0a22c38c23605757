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
HDCP; `READERS` decodes each in place from a `BitReader`, and
`dcp_codecs.read_block` is the one entry point to them.

RAS runs on whole arrays, never one sample at a time:

- `med_zigzag` is the one MED kernel. It maps the 8-bit samples of any
  `(..., 8a, 8b)` int16 array (a padded frame's four channels, or a stack
  of blocks) to zigzag residuals, all in int16 arithmetic, and `_gr_bits`
  sums them per block and Golomb-Rice parameter by successive shifts in
  uint16. `ras_frame_cost` and the encoder share both.
- `ras_compress_blocks` encodes a stack of blocks with one `packbits`.
  `ras_decompress_blocks` parses each stream from a next-zero table and
  rebuilds all channels of all blocks at once, one anti-diagonal of the
  8x8 grid per step. `_read_ras`, the in-place reader, is the same parser
  and wavefront on one block.
- `hybrid_compress_blocks`/`hybrid_decompress_blocks` batch the RAS half
  of HDCP; the VDCP half stays per block.

The per-block names (`ras_compress_block`, ...) are the batch entries on
one block. The scalar bit-at-a-time codec these replaced lives on in
`tests/ras_oracle.py` as the differential oracle.
"""

from __future__ import annotations

import numpy as np

from .bandwidth import charged_bursts
from .bitio import BitReader, CorruptStreamError
from .dcp_codecs import (
    VDCP_RAW,
    CompressedBlock,
    read_block,
    vdcp_compress_block,
    vdcp_frame_cost,
)
from .palette import Ccd, Rccd

GR_K_MAX = 6
GR_K_RAW = 7                   # "special mode": channel stored raw
GR_UNARY_CAP = 4096            # longest unary run a reader accepts
RAW_CHANNEL_BITS = 512         # 64 samples x 8 bits
RAW_BLOCK_BITS = 2048
_BATCH = 64                    # blocks per encode/decode chunk; bounds the temporaries


def _read_pixels(reader: BitReader, count: int) -> np.ndarray:
    """`count` raw 32-bit pixels, read as one field."""
    data = reader.read(32 * count).to_bytes(4 * count, "big")
    return np.frombuffer(data, dtype=">u4").astype(np.uint32)


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
    left a, above b and above-left c is `clip(a + b - c, min(a, b),
    max(a, b))`, and a + b - c spans -255..510, so int16 holds every step.
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
    np.clip(a, lo, hi, out=a)
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
        # Rows first, then columns: much faster than one two-axis sum.
        columns = np.add.reduce(shifted.reshape(*lead, h // 8, 8, w), axis=-2, dtype=np.uint16)
        np.add.reduce(columns.reshape(*lead, h // 8, w // 8, 8), axis=-1, out=out[k])
        out[k] += 64 * (1 + k)
    return out


# ---------------------------------------------------------------------------
# RED: uniform-region classification

RED_C8, RED_C4, RED_RAW = 0, 1, 2
# 8 region colors, 16 sub-block colors, or 64 raw pixels, 32 bits each.
RED_CHARGED_BITS = {RED_C8: 256, RED_C4: 512, RED_RAW: 2048}


def _red_regions8(block: np.ndarray) -> np.ndarray:
    # Eight 4-wide x 2-tall regions: (region_row, row, region_col, col).
    return block.reshape(4, 2, 2, 4)


def _red_regions4(block: np.ndarray) -> np.ndarray:
    return block.reshape(4, 2, 4, 2)


def red_classify_block(block: np.ndarray) -> tuple[int, int]:
    """(class, charged bits). C8 compresses 1:8, C4 1:4, else raw."""
    r8 = _red_regions8(block)
    if bool((r8 == r8[:, :1, :, :1]).all()):
        return RED_C8, RED_CHARGED_BITS[RED_C8]
    r4 = _red_regions4(block)
    if bool((r4 == r4[:, :1, :, :1]).all()):
        return RED_C4, RED_CHARGED_BITS[RED_C4]
    return RED_RAW, RED_CHARGED_BITS[RED_RAW]


def red_compress_block(block: np.ndarray, palette=None) -> CompressedBlock:
    """The class's region colors as 32-bit words; `palette` is unused."""
    cls, bits = red_classify_block(block)
    if cls == RED_C8:
        colors = _red_regions8(block)[:, 0, :, 0]
    elif cls == RED_C4:
        colors = _red_regions4(block)[:, 0, :, 0]
    else:
        colors = block
    return CompressedBlock((cls,), colors.astype(">u4").tobytes(), bits, bits)


def red_decompress_block(comp: CompressedBlock, palette=None) -> np.ndarray:
    return read_block("red", BitReader(comp.payload, comp.payload_bits), comp.csb)


def _read_red(reader: BitReader, csb, palette=None) -> np.ndarray:
    bits = RED_CHARGED_BITS.get(csb[0])
    if bits is None:
        raise CorruptStreamError(f"RED status {csb[0]} is not a class")
    colors = _read_pixels(reader, bits // 32)
    if csb[0] == RED_C8:
        return np.repeat(np.repeat(colors.reshape(4, 2), 2, axis=0), 4, axis=1)
    if csb[0] == RED_C4:
        return np.repeat(np.repeat(colors.reshape(4, 4), 2, axis=0), 2, axis=1)
    return colors.reshape(8, 8)


def red_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                   block_real: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(accounting bits per block, class per block)."""
    h, w = padded.shape
    nby, nbx = h // 8, w // 8
    r8 = padded.reshape(h // 2, 2, w // 4, 4)
    u8 = (r8 == r8[:, :1, :, :1]).all(axis=(1, 3))
    c8_ok = u8.reshape(nby, 4, nbx, 2).all(axis=(1, 3))
    r4 = padded.reshape(h // 2, 2, w // 2, 2)
    u4 = (r4 == r4[:, :1, :, :1]).all(axis=(1, 3))
    c4_ok = u4.reshape(nby, 4, nbx, 4).all(axis=(1, 3))
    live8 = valid.reshape(h // 2, 2, w // 4, 4).any(axis=(1, 3))
    real_r8 = live8.reshape(nby, 4, nbx, 2).sum(axis=(1, 3), dtype=np.int64)
    real_r4 = (sb_real > 0).reshape(nby, 4, nbx, 4).sum(axis=(1, 3), dtype=np.int64)
    bits = np.where(c8_ok, 32 * real_r8,
                    np.where(c4_ok, 32 * real_r4, 32 * block_real))
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
    for lo in range(0, len(blocks), _BATCH):
        out += _ras_encode(blocks[lo:lo + _BATCH])
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

    Raises CorruptStreamError where `_read_ras` would on each block's own
    stream, and also when a block declares more bits than it carries.
    """
    comps = list(comps)
    out = np.empty((len(comps), 8, 8), dtype=np.uint32)
    for lo in range(0, len(comps), _BATCH):
        chunk = comps[lo:lo + _BATCH]
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
            out[coded] = _ras_decode(b"".join(data), starts, avail, classes)[0]
    return out


def _read_ras(r: BitReader, csb, palette=None) -> np.ndarray:
    """One block in place. A coded stream is at most its size class's bits,
    so that window is all the parser is given."""
    size_class = csb[0]
    if size_class == RAS_RAW_CLASS:
        return _read_pixels(r, 64).reshape(8, 8)
    nbits = max(0, min((size_class + 1) * 512, r.remaining()))
    data = (r.peek(nbits) << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big")
    blocks, used = _ras_decode(data, [0], [nbits], [size_class])
    r.read(used[0])
    return blocks[0]


# Anti-diagonal y + x = d of the 8x8 grid, as strided slices: its samples
# in the block framed by a row and a column of 128s (9x9, flat index
# 8y + d + 10), and their residuals (flat index 7y + d).
_DIAGONALS = [(slice(8 * y0 + d + 10, 8 * y1 + d + 11, 8), slice(7 * y0 + d, 7 * y1 + d + 1, 7))
              for d in range(15) for y0, y1 in [(max(0, d - 7), min(d, 7))]]


def _ras_decode(data: bytes, starts, avail, classes) -> tuple[np.ndarray, list[int]]:
    """Decode the coded (class 0..2) RAS streams that start at bit `starts`
    of `data` and have `avail` bits each; returns the (n, 8, 8) blocks and
    the bits each stream used.

    Every check of the scalar reader holds: a stream may not read past its
    bits, a unary run may not pass GR_UNARY_CAP, the bits used must fit the
    size class, and every sample must be 0..255. A coded stream never uses
    more than its class's bits, so each is parsed within that window. The
    streams share one buffer; a code that crosses its stream's end is an
    error, so no stream decodes another's bits.
    """
    # Two zero bytes appended bound every next-zero lookup and every field
    # read near a stream's end.
    buf = data + bytes(2)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8))
    zero_at = np.where(bits == 0, np.arange(bits.size), bits.size)
    nz = np.minimum.accumulate(zero_at[::-1])[::-1]      # nz[p]: first zero bit at or after p

    gr_k, gr_codes, raw_at, is_raw, used = [], [], [], [], []
    for start, n_avail, size_class in zip(starts, avail, classes):
        end = start + max(0, min(n_avail, (size_class + 1) * 512))
        nzl = nz[start:end + 1].tolist()                 # the chase runs on Python ints
        p = start
        for _ in range(4):
            if p + 3 > end:
                raise CorruptStreamError("bit stream exhausted")
            k = (int.from_bytes(buf[p >> 3:(p >> 3) + 2], "big") >> (13 - (p & 7))) & 7
            p += 3
            if k == GR_K_RAW:
                raw_at.append(p)
                is_raw.append(True)
                p += RAW_CHANNEL_BITS
                if p > end:
                    raise CorruptStreamError("bit stream exhausted")
                continue
            gr_k.append(k)                      # 3 bits: 0..6, or 7 for raw
            is_raw.append(False)
            step = k + 1
            for _ in range(64):
                gr_codes.append(p)
                p = nzl[p - start] + step       # past the zero and the remainder
                if p > end:
                    raise CorruptStreamError("bit stream exhausted")
        if not size_class * 512 < p - start:
            raise CorruptStreamError(
                f"RAS stream of {p - start} bits does not fit size class {size_class}")
        used.append(p - start)

    samples = np.empty((len(is_raw), 64), dtype=np.int32)
    is_raw = np.array(is_raw, dtype=bool)
    if raw_at:
        at = np.array(raw_at)[:, None] + 8 * np.arange(64)
        samples[is_raw] = _fields(bits, at, 8)
    if gr_k:
        at = np.array(gr_codes).reshape(-1, 64)
        k = np.array(gr_k)[:, None]
        q = nz[at] - at
        if q.max() > GR_UNARY_CAP:
            raise CorruptStreamError("unary run exceeds cap")
        z = (q << k) | _fields(bits, nz[at] + 1, k)
        samples[~is_raw] = _med_rebuild((z >> 1) ^ -(z & 1))
    if samples.min() < 0 or samples.max() > 255:
        raise CorruptStreamError("RAS sample outside 0..255")
    planes = samples.astype(np.uint8).reshape(-1, 4, 8, 8)
    pixels = np.ascontiguousarray(np.moveaxis(planes, 1, -1)).view("<u4")
    return pixels.reshape(-1, 8, 8).astype(np.uint32), used


def _fields(bits: np.ndarray, at: np.ndarray, width) -> np.ndarray:
    """The `width`-bit (at most 8) MSB-first values starting at bits `at`."""
    octet = np.packbits(bits[at[..., None] + np.arange(8)], axis=-1)[..., 0]
    return octet.astype(np.int64) >> (8 - width)


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


def ras_frame_cost(padded: np.ndarray, block_real: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(charged bits, true stream bits, size class) per block, vectorized.

    Matches ras_compress_blocks exactly on fully live blocks. Edge blocks
    cap their charge at the burst-rounded raw size of their live pixels so
    padding never inflates the accounting.
    """
    gr = _gr_bits(med_zigzag(_channels(padded))).min(axis=0)
    total = 12 + np.minimum(gr, RAW_CHANNEL_BITS).sum(axis=0, dtype=np.int64)
    raw = total > 1536
    true_bits = np.where(raw, RAW_BLOCK_BITS, total)
    charged = np.where(raw, RAW_BLOCK_BITS, _quantize_512(total))
    classes = charged // 512 - 1
    raw_cap = ((32 * block_real + 127) // 128) * 128
    charged = np.minimum(charged, raw_cap)
    return charged, true_bits, classes


# ---------------------------------------------------------------------------
# HDCP: per-block best of VDCP and RAS

HDCP_RAS_BASE = 8              # 5-bit status values 8..11 carry the RAS class


def hybrid_compress_blocks(blocks: np.ndarray, ccd: Ccd | None) -> list[CompressedBlock]:
    """Compress each block with both codecs, keep the one needing fewer bursts.

    VDCP runs per block, RAS once over the stack. Ties go to VDCP. The RAS
    outcome replicates its size class into all 16 status slots (values
    8..11); VDCP outcomes reuse its 0..7 codes.
    """
    blocks = np.asarray(blocks, dtype=np.uint32).reshape(-1, 8, 8)
    out = []
    for block, rb in zip(blocks, ras_compress_blocks(blocks)):
        vb = vdcp_compress_block(block, ccd)
        if charged_bursts(vb.cost_bits) <= charged_bursts(rb.cost_bits):
            out.append(vb)
        else:
            out.append(CompressedBlock((HDCP_RAS_BASE + rb.csb[0],) * 16, rb.payload,
                                       rb.payload_bits, rb.cost_bits))
    return out


def hybrid_decompress_blocks(comps, palette: Rccd | None = None) -> np.ndarray:
    """VDCP-coded blocks decode one by one, RAS-coded ones as one batch."""
    comps = list(comps)
    out = np.empty((len(comps), 8, 8), dtype=np.uint32)
    ras_at, ras = [], []
    for i, comp in enumerate(comps):
        if max(comp.csb) <= VDCP_RAW:
            reader = BitReader(comp.payload, comp.payload_bits)
            out[i] = read_block("vdcp", reader, comp.csb, palette)
        else:
            ras_at.append(i)
            ras.append(CompressedBlock((_hdcp_ras_class(comp.csb),), comp.payload,
                                       comp.payload_bits, comp.cost_bits))
    if ras:
        out[ras_at] = ras_decompress_blocks(ras)
    return out


def _hdcp_ras_class(csb) -> int:
    size_class = csb[0] - HDCP_RAS_BASE
    if not 0 <= size_class <= RAS_RAW_CLASS or any(e != csb[0] for e in csb):
        raise CorruptStreamError(f"HDCP status {list(csb)} is neither VDCP codes nor a RAS class")
    return size_class


def _read_hybrid(reader: BitReader, csb, rccd: Rccd | None) -> np.ndarray:
    if max(csb) <= VDCP_RAW:
        return read_block("vdcp", reader, csb, rccd)
    return _read_ras(reader, (_hdcp_ras_class(csb),))


def hybrid_compress_block(block: np.ndarray, ccd: Ccd | None) -> CompressedBlock:
    return hybrid_compress_blocks(block[None], ccd)[0]


def hybrid_decompress_block(comp: CompressedBlock, palette: Rccd | None = None) -> np.ndarray:
    return hybrid_decompress_blocks([comp], palette)[0]


# Block format -> in-place reader(reader, status entries, palette); reached
# through dcp_codecs.read_block.
READERS = {"ras": _read_ras, "red": _read_red, "hybrid": _read_hybrid}


def hybrid_frame_cost(padded: np.ndarray, sb_real: np.ndarray, block_real: np.ndarray,
                      ccd: Ccd | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(accounting bits, charged bursts, vdcp-won mask) per block."""
    vbits = vdcp_frame_cost(padded, sb_real, ccd)
    v_bursts = charged_bursts(vbits, 32 * block_real)
    r_charged, _, _ = ras_frame_cost(padded, block_real)
    r_bursts = charged_bursts(r_charged, 32 * block_real)
    vdcp_wins = v_bursts <= r_bursts
    bits = np.where(vdcp_wins, vbits, r_charged)
    bursts = np.where(vdcp_wins, v_bursts, r_bursts)
    return bits, bursts, vdcp_wins

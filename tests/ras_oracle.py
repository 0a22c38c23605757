"""The scalar RAS and HDCP block codecs: the differential oracle.

This is the bit-at-a-time implementation the batched codecs in
`dcpbench.reference_codecs` replaced. It writes and reads one Golomb-Rice
code at a time through `BitWriter`/`BitReader` and predicts one sample at a
time with the median edge detector, so it is slow and easy to check by eye.
Tests pin the batched codecs, the frame-cost engine and the frame decoder
to it: same status entries, payload bytes, payload and cost bits, same
decoded blocks, and `CorruptStreamError` on exactly the same damaged
streams.
"""

from __future__ import annotations

import numpy as np

from palette_oracle import BitReader, BitWriter, read_block, vdcp_compress_block

from dcpbench.bandwidth import charged_bursts
from dcpbench.bitio import CorruptStreamError
from dcpbench.dcp_codecs import VDCP_RAW, CompressedBlock
from dcpbench.reference_codecs import (
    GR_K_MAX,
    GR_K_RAW,
    HDCP_RAS_BASE,
    RAS_RAW_CLASS,
    RAW_BLOCK_BITS,
    RAW_CHANNEL_BITS,
)

CHANNEL_SHIFTS = (0, 8, 16, 24)      # R, G, B, A


# ---------------------------------------------------------------------------
# Golomb-Rice primitives

def zigzag(value: int) -> int:
    return 2 * value if value >= 0 else -2 * value - 1


def unzigzag(z: int) -> int:
    return z // 2 if z % 2 == 0 else -(z + 1) // 2


def golomb_rice_length(value: int, k: int) -> int:
    return (value >> k) + 1 + k


def golomb_rice_encode(writer: BitWriter, value: int, k: int) -> None:
    """Quotient in unary (q ones, then a zero), remainder in k bits."""
    if value < 0:
        raise ValueError("Golomb-Rice encodes non-negative integers")
    q = value >> k
    writer.write((1 << q) - 1, q)
    writer.write(0, 1)
    if k:
        writer.write(value & ((1 << k) - 1), k)


def read_unary(reader: BitReader, cap: int = 4096) -> int:
    """Count of leading one-bits before a zero; `cap` guards corrupt data."""
    q = 0
    while reader.read(1):
        q += 1
        if q > cap:
            raise CorruptStreamError("unary run exceeds cap")
    return q


def golomb_rice_decode(reader: BitReader, k: int, cap: int = 4096) -> int:
    q = read_unary(reader, cap)
    r = reader.read(k) if k else 0
    return (q << k) | r


# ---------------------------------------------------------------------------
# Median edge detector

def med_predict(a: int, b: int, c: int) -> int:
    """Predict from left (a), above (b), above-left (c)."""
    if c >= max(a, b):
        return min(a, b)
    if c <= min(a, b):
        return max(a, b)
    return a + b - c


def med_zigzag_plane(plane) -> list[list[int]]:
    """Zigzag MED residuals of one 8-bit plane, one sample at a time, with
    neighbours taken inside each 8x8 block and 128 on block borders."""
    p = np.asarray(plane).astype(int).tolist()
    out = []
    for y, row in enumerate(p):
        out.append([])
        for x, v in enumerate(row):
            a = row[x - 1] if x % 8 else 128
            b = p[y - 1][x] if y % 8 else 128
            c = p[y - 1][x - 1] if (x % 8 and y % 8) else 128
            out[-1].append(zigzag(v - med_predict(a, b, c)))
    return out


def choose_k(zz: list[int]) -> tuple[int, int]:
    """Smallest k in 0..6 minimizing the channel's encoded bits."""
    best_k, best_bits = 0, None
    for k in range(GR_K_MAX + 1):
        bits = sum(golomb_rice_length(z, k) for z in zz)
        if best_bits is None or bits < best_bits:
            best_k, best_bits = k, bits
    return best_k, best_bits


# ---------------------------------------------------------------------------
# RAS

def ras_compress_block(block: np.ndarray, palette=None) -> CompressedBlock:
    """Encode one block: per channel a 3-bit k then the sample stream.

    A channel whose best Golomb-Rice size exceeds its raw size (512 bits)
    stores raw samples under k=7. A block whose channel total exceeds 1536
    bits is stored as 64 raw pixels and charged the full 2048.
    """
    planes = [((block >> s) & np.uint32(0xFF)).astype(np.int64) for s in CHANNEL_SHIFTS]
    choices = []
    total = 0
    for plane in planes:
        zz = [z for row in med_zigzag_plane(plane) for z in row]
        k, gr_bits = choose_k(zz)
        if gr_bits > RAW_CHANNEL_BITS:
            choices.append((GR_K_RAW, plane.reshape(-1).tolist()))
            total += 3 + RAW_CHANNEL_BITS
        else:
            choices.append((k, zz))
            total += 3 + gr_bits
    if total > 1536:
        w = BitWriter()
        for p in block.reshape(-1).tolist():
            w.write(p, 32)
        return CompressedBlock((RAS_RAW_CLASS,), w.to_bytes(), w.bit_length, RAW_BLOCK_BITS)
    w = BitWriter()
    for k, samples in choices:
        w.write(k, 3)
        if k == GR_K_RAW:
            for v in samples:
                w.write(v, 8)
        else:
            for z in samples:
                golomb_rice_encode(w, z, k)
    charged = ((total + 511) // 512) * 512
    return CompressedBlock((charged // 512 - 1,), w.to_bytes(), w.bit_length, charged)


def read_ras(r: BitReader, csb, palette=None) -> np.ndarray:
    size_class = csb[0]
    if size_class == RAS_RAW_CLASS:
        data = r.read(32 * 64).to_bytes(4 * 64, "big")
        return np.frombuffer(data, dtype=">u4").astype(np.uint32).reshape(8, 8)
    start = r.tell()
    planes = []
    for _ in range(4):
        k = r.read(3)
        if k == GR_K_RAW:
            vals = [[r.read(8) for _ in range(8)] for _ in range(8)]
            planes.append(vals)
            continue
        if k > GR_K_MAX:
            raise CorruptStreamError(f"invalid Golomb-Rice parameter {k}")
        vals = [[0] * 8 for _ in range(8)]
        for y in range(8):
            for x in range(8):
                res = unzigzag(golomb_rice_decode(r, k))
                a = vals[y][x - 1] if x else 128
                b = vals[y - 1][x] if y else 128
                c = vals[y - 1][x - 1] if x and y else 128
                vals[y][x] = res + med_predict(a, b, c)
        planes.append(vals)
    if not size_class * 512 < r.tell() - start <= (size_class + 1) * 512:
        raise CorruptStreamError(
            f"RAS stream of {r.tell() - start} bits does not fit size class {size_class}")
    samples = np.array(planes, dtype=np.int64)
    if samples.min() < 0 or samples.max() > 255:
        raise CorruptStreamError("RAS sample outside 0..255")
    shifts = np.array(CHANNEL_SHIFTS, dtype=np.int64).reshape(4, 1, 1)
    return (samples << shifts).sum(axis=0).astype(np.uint32)


def ras_decompress_block(comp: CompressedBlock, palette=None) -> np.ndarray:
    return read_ras(BitReader(comp.payload, comp.payload_bits), comp.csb)


# ---------------------------------------------------------------------------
# HDCP

def hybrid_compress_block(block: np.ndarray, ccd) -> CompressedBlock:
    """The cheaper in bursts of VDCP and RAS; ties go to VDCP."""
    vb = vdcp_compress_block(block, ccd)
    rb = ras_compress_block(block)
    if charged_bursts(vb.cost_bits) <= charged_bursts(rb.cost_bits):
        return vb
    return CompressedBlock((HDCP_RAS_BASE + rb.csb[0],) * 16, rb.payload,
                           rb.payload_bits, rb.cost_bits)


def read_hybrid(reader: BitReader, csb, rccd) -> np.ndarray:
    if max(csb) <= VDCP_RAW:
        return read_block("vdcp", reader, csb, rccd)
    size_class = csb[0] - HDCP_RAS_BASE
    if not 0 <= size_class <= RAS_RAW_CLASS or any(e != csb[0] for e in csb):
        raise CorruptStreamError(f"HDCP status {list(csb)} is neither VDCP codes nor a RAS class")
    return read_ras(reader, (size_class,))


def hybrid_decompress_block(comp: CompressedBlock, palette=None) -> np.ndarray:
    return read_hybrid(BitReader(comp.payload, comp.payload_bits), comp.csb, palette)

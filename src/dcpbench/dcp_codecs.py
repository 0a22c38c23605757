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

Each scheme has a per-block bitstream codec (exact, used for round-trip
verification and the frame container) and a vectorized whole-frame cost
engine used by the benchmark runner; tests pin the two against each other.
`advance_frame` builds the next palette from the collector's ranking; the
handoff around it (schedule, coverage gate, reset) is `runner.replay`.

Every block codec, here and in `reference_codecs`, returns one
`CompressedBlock`, and `read_block` decodes any of them in place from a
`BitReader` given its status entries. The codec modules are the only owners
of the block bitstream formats: the container stores status entries and
payloads without knowing what is in them.

Payload bits are packed most-significant-bit first, sub-blocks in raster
order; raw sub-blocks store their four packed pixels the same way.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .bitio import BitReader, BitWriter
from .fvc import Fvc
from .huffman import HuffmanTable, build_table
from .palette import Ccd, Rccd, build_ccd
from .schemes import HUFFMAN, SCHEMES, Scheme
from .surface import assemble_sub_blocks, sub_block_pixels

VDCP_RAW = 7                  # 3-bit status value marking a raw sub-block
VDCP_MAX_CCD = SCHEMES["VDCP"].max_palette   # widths 0..6 address at most 64 entries

# v for a zero-based max palette index m: the smallest v with 2**v > m.
_VDCP_WIDTH = np.array([m.bit_length() for m in range(VDCP_MAX_CCD)], dtype=np.int64)


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
# Per-block bitstream codecs
#
# One skeleton serves the three code families. A family fixes the status of
# a raw sub-block and how a coded sub-block's codes are sized and read:
#
#   size(codes, palette)          -> (status, [(value, width), ...]) to write
#   read(status, reader, palette) -> the color of the next code in the stream

def _fixed_size(codes, ccd: Ccd):
    return 1, [(c, ccd.bits_per_code) for c in codes]


def _fixed_read(status, reader: BitReader, rccd: Rccd) -> int:
    return rccd.decode(reader.read(rccd.bits_per_code))


def _variable_size(codes, ccd: Ccd):
    v = max(codes).bit_length()
    return v, [(c, v) for c in codes]


def _variable_read(status, reader: BitReader, rccd: Rccd) -> int:
    return rccd.decode(reader.read(status))


def _prefix_size(codes, table: HuffmanTable):
    return 1, codes                  # table.encode already gives (code, length)


def _prefix_read(status, reader: BitReader, table: HuffmanTable) -> int:
    return table.decode_symbol(reader)


# codec -> (raw status, size, read)
_FAMILIES = {
    "dcp": (0, _fixed_size, _fixed_read),
    "vdcp": (VDCP_RAW, _variable_size, _variable_read),
    "huffdcp": (0, _prefix_size, _prefix_read),
}


def _compress_block(codec: str, block: np.ndarray, palette) -> CompressedBlock:
    raw_status, size, _ = _FAMILIES[codec]
    usable = palette is not None and len(palette) > 0
    w = BitWriter()
    csb = []
    for group in sub_block_pixels(block).tolist():
        codes = [palette.encode(p) for p in group] if usable else [None]
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


def _codec_module(codec: str):
    """The module that owns a codec family's bitstream format."""
    if codec in _FAMILIES:
        return sys.modules[__name__]
    from . import reference_codecs   # it imports this module, so it is found when called
    return reference_codecs


def block_codec(codec: str, op: str):
    """`<codec>_<op>_block` for op "compress" or "decompress", looked up on
    its module when called, so that a patched codec is the one that runs."""
    return getattr(_codec_module(codec), f"{codec}_{op}_block")


def batch_codec(codec: str, op: str):
    """`<codec>_<op>_blocks` over a stack of blocks, or one call of
    `<codec>_<op>_block` per block where the family has no batch entry;
    looked up on its module when called, like `block_codec`.

    Compress takes an (n, 8, 8) stack and a palette and returns a list of
    `CompressedBlock`; decompress takes that list and the palette and
    returns an (n, 8, 8) stack.
    """
    batch = getattr(_codec_module(codec), f"{codec}_{op}_blocks", None)
    if batch is not None:
        return batch
    one = block_codec(codec, op)
    if op == "compress":
        return lambda blocks, palette=None: [one(block, palette) for block in blocks]
    return lambda comps, palette=None: np.array(
        [one(comp, palette) for comp in comps], dtype=np.uint32).reshape(-1, 8, 8)


def read_block(codec: str, reader: BitReader, csb, palette=None) -> np.ndarray:
    """Decode one block in place from `reader`, given its status entries.

    `palette` is the reverse palette for "dcp", "vdcp" and "hybrid", the
    Huffman table for "huffdcp", and unused by "ras" and "red". The reader is
    left just past the block's stream; a status no encoder writes raises
    CorruptStreamError.
    """
    if codec not in _FAMILIES:
        return _codec_module(codec).READERS[codec](reader, csb, palette)
    raw_status, _, read = _FAMILIES[codec]
    groups = []
    for status in csb:
        if status == raw_status:
            groups.append([reader.read(32) for _ in range(4)])
        else:
            groups.append([read(status, reader, palette) for _ in range(4)])
    return assemble_sub_blocks(np.array(groups, dtype=np.uint32))


def dcp_compress_block(block: np.ndarray, ccd: Ccd | None) -> CompressedBlock:
    return _compress_block("dcp", block, ccd)


def dcp_decompress_block(comp: CompressedBlock, palette: Rccd | None = None) -> np.ndarray:
    return read_block("dcp", BitReader(comp.payload, comp.payload_bits), comp.csb, palette)


def vdcp_compress_block(block: np.ndarray, ccd: Ccd | None) -> CompressedBlock:
    if ccd is not None and len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    return _compress_block("vdcp", block, ccd)


def vdcp_decompress_block(comp: CompressedBlock, palette: Rccd | None = None) -> np.ndarray:
    return read_block("vdcp", BitReader(comp.payload, comp.payload_bits), comp.csb, palette)


def huffdcp_compress_block(block: np.ndarray, table: HuffmanTable | None) -> CompressedBlock:
    return _compress_block("huffdcp", block, table)


def huffdcp_decompress_block(comp: CompressedBlock,
                             palette: HuffmanTable | None = None) -> np.ndarray:
    return read_block("huffdcp", BitReader(comp.payload, comp.payload_bits), comp.csb, palette)


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
# All engines return per-block *accounting* payload bits as an
# (nblocks_y, nblocks_x) int64 array. Padded pixels never count: a
# compressed sub-block with r live pixels charges bits_per_pixel * r and a
# raw one charges 32 * r. For fully live frames this equals the exact
# bitstream length of the per-block codecs.

def _sub_block_all(mask: np.ndarray) -> np.ndarray:
    h, w = mask.shape
    return mask.reshape(h // 2, 2, w // 2, 2).all(axis=(1, 3))


def _sub_block_sum(values: np.ndarray) -> np.ndarray:
    h, w = values.shape
    return values.reshape(h // 2, 2, w // 2, 2).sum(axis=(1, 3), dtype=np.int64)


def _block_sum(sb_values: np.ndarray) -> np.ndarray:
    h, w = sb_values.shape
    return sb_values.reshape(h // 4, 4, w // 4, 4).sum(axis=(1, 3), dtype=np.int64)


def dcp_frame_cost(padded: np.ndarray, sb_real: np.ndarray, ccd: Ccd | None) -> np.ndarray:
    if ccd is None or len(ccd) == 0:
        return _block_sum(32 * sb_real)
    _, hit = ccd.lookup(padded)
    compressible = _sub_block_all(hit)
    bits = np.where(compressible, ccd.bits_per_code * sb_real, 32 * sb_real)
    return _block_sum(bits)


def vdcp_frame_cost(padded: np.ndarray, sb_real: np.ndarray, ccd: Ccd | None) -> np.ndarray:
    if ccd is None or len(ccd) == 0:
        return _block_sum(32 * sb_real)
    if len(ccd) > VDCP_MAX_CCD:
        raise ValueError(f"VDCP palette limited to {VDCP_MAX_CCD} entries, got {len(ccd)}")
    codes, hit = ccd.lookup(padded)
    compressible = _sub_block_all(hit)
    h, w = codes.shape
    m = codes.reshape(h // 2, 2, w // 2, 2).max(axis=(1, 3))
    v = _VDCP_WIDTH[np.clip(m, 0, VDCP_MAX_CCD - 1)]
    bits = np.where(compressible, v * sb_real, 32 * sb_real)
    return _block_sum(bits)


def huffdcp_frame_cost(padded: np.ndarray, valid: np.ndarray, sb_real: np.ndarray,
                       table: HuffmanTable | None) -> np.ndarray:
    if table is None or len(table) == 0:
        return _block_sum(32 * sb_real)
    lens, hit = table.lookup(padded)
    compressible = _sub_block_all(hit)
    code_bits = _sub_block_sum(np.where(valid, lens, 0))
    bits = np.where(compressible, code_bits, 32 * sb_real)
    return _block_sum(bits)


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

"""DRAM-burst accounting and compression rates.

DRAM moves data in fixed 128-bit bursts, so a block compressed to S2 bits
actually occupies ceil(S2 / 128) bursts; the effective compression rate of a
block is its raw burst count over that charge. Three accounting modes are
reported, from most optimistic to most faithful:

  payload       raw bits / payload bits, no metadata, no burst rounding
  payload+csb   raw bits / (payload + status-buffer bits), no rounding
  full          raw bursts / (charged bursts + status-buffer bursts)

Status widths come from `schemes.py`; the runner charges each `replay` frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schemes import SCHEMES

BURST_BITS = 128
BLOCK_BITS = 2048              # uncompressed 8x8 block

ACCOUNTING_MODES = ("payload", "payload+csb", "full")


def bursts(bits):
    """Bursts needed to move `bits`; works elementwise on arrays."""
    return -(-bits // BURST_BITS)


def charged_bursts(payload_bits, raw_bits=BLOCK_BITS):
    """Burst charge per block, elementwise on arrays.

    The payload is rounded up to whole bursts and never charged more than
    storing the block raw; an edge block's raw size counts its live pixels.
    """
    return np.minimum(bursts(payload_bits), bursts(raw_bits))


def csb_frame_bits(width: int, height: int, scheme: str) -> int:
    """Status-buffer bits for one frame of the given scheme.

    Only cells containing at least one real pixel count, so for the 1-bit
    schemes on block-aligned frames this equals surface_bits / 128.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    s = SCHEMES[scheme]
    edge = 8 if s.per_block else 2
    return -(-width // edge) * -(-height // edge) * s.status_bits


def csb_overhead(width: int, height: int, scheme: str) -> int:
    """Status-buffer bursts per frame, rounded up once per frame."""
    return bursts(csb_frame_bits(width, height, scheme))


@dataclass
class FrameStats:
    frame: int
    uncompressed_bits: int
    payload_bits: int
    csb_bits: int
    uncompressed_bursts: int
    payload_bursts: int
    csb_bursts: int
    rate: float
    coverage: float = float("nan")
    ccd_size: int = 0
    rccd_bytes: int = 0
    compression_enabled: bool = True
    vdcp_blocks: int = 0
    ras_blocks: int = 0


@dataclass
class WorkloadStats:
    name: str
    category: str
    scheme: str
    accounting: str
    frames_measured: int = 0
    uncompressed_bits: int = 0
    payload_bits: int = 0
    csb_bits: int = 0
    uncompressed_bursts: int = 0
    payload_bursts: int = 0
    csb_bursts: int = 0
    rccd_bytes: int = 0
    vdcp_blocks: int = 0
    ras_blocks: int = 0
    rate: float = 0.0


def rate(stats: FrameStats | WorkloadStats, mode: str) -> float:
    """The compression rate of a frame's or a workload's six totals under
    an accounting mode; inf when nothing is charged."""
    if mode == "payload":
        num, den = stats.uncompressed_bits, stats.payload_bits
    elif mode == "payload+csb":
        num, den = stats.uncompressed_bits, stats.payload_bits + stats.csb_bits
    elif mode == "full":
        num, den = stats.uncompressed_bursts, stats.payload_bursts + stats.csb_bursts
    else:
        raise ValueError(f"accounting mode must be one of {ACCOUNTING_MODES}, got {mode!r}")
    if den == 0:
        return float("inf")
    return num / den

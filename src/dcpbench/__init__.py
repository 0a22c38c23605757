"""Lossless framebuffer-surface compression codecs and a bandwidth bench.

The package models the write/read path of a tile-based GPU committing 8x8
pixel blocks to DRAM. Palette codecs (DCP and its adaptive, variable-width,
and Huffman variants) exploit frame-to-frame color coherence; RED and RAS
are the uniform-region and prediction-based comparison codecs; HDCP picks
the better of VDCP and RAS per block. The bench replays frame traces,
charges compressed blocks in 128-bit DRAM bursts, and reports effective
compression rates.
"""

__version__ = "0.1.0"

from .bandwidth import (
    FrameStats,
    WorkloadStats,
    aggregate,
    charged_bursts,
    csb_frame_bits,
    csb_overhead,
    harmonic_mean,
)
from .dcp_codecs import (
    CompressedBlock,
    adcp_optimal_ccd_size,
    advance_frame,
    dcp_compress_block,
    dcp_decompress_block,
    huffdcp_compress_block,
    huffdcp_decompress_block,
    vdcp_compress_block,
    vdcp_decompress_block,
)
from .fvc import Fvc, FvcConfig, relative_coverage
from .huffman import HuffmanTable, build_table
from .metrics import color_cdf, color_change, entropy, pixel_change
from .palette import Ccd, Rccd, build_ccd
from .reference_codecs import (
    hybrid_compress_block,
    hybrid_decompress_block,
    ras_compress_block,
    ras_decompress_block,
    red_classify_block,
    red_compress_block,
    red_decompress_block,
)
from .runner import ExperimentConfig, ReplayFrame, RunResult, replay, run_experiment
from .schemes import SCHEMES, Scheme
from .surface import Frame, SurfaceTrace, load_trace, write_trace
from .synth import SyntheticSpec, generate

__all__ = [
    "SCHEMES", "Ccd", "CompressedBlock", "ExperimentConfig",
    "Frame", "FrameStats", "Fvc", "FvcConfig", "HuffmanTable", "Rccd",
    "ReplayFrame", "RunResult", "Scheme", "SurfaceTrace", "SyntheticSpec",
    "WorkloadStats", "adcp_optimal_ccd_size", "advance_frame", "aggregate",
    "build_ccd", "build_table", "charged_bursts", "color_cdf", "color_change",
    "csb_frame_bits", "csb_overhead", "dcp_compress_block",
    "dcp_decompress_block", "entropy", "generate", "harmonic_mean",
    "huffdcp_compress_block", "huffdcp_decompress_block",
    "hybrid_compress_block", "hybrid_decompress_block", "load_trace",
    "pixel_change", "ras_compress_block", "ras_decompress_block",
    "red_classify_block", "red_compress_block", "red_decompress_block",
    "relative_coverage", "replay", "run_experiment", "vdcp_compress_block",
    "vdcp_decompress_block", "write_trace",
]

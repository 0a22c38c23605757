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

from .bandwidth import FrameStats, WorkloadStats, charged_bursts
from .dcp_codecs import CompressedBlocks
from .fvc import Fvc, FvcConfig, relative_coverage
from .huffman import HuffmanTable, build_table
from .metrics import color_cdf, color_change, entropy, pixel_change
from .palette import Ccd, build_ccd
from .runner import ExperimentConfig, ReplayFrame, RunResult, replay, run_experiment
from .schemes import SCHEMES, Scheme
from .surface import Frame, SurfaceTrace, load_trace, write_trace
from .synth import SyntheticSpec, generate

__all__ = [
    "SCHEMES", "Ccd", "CompressedBlocks", "ExperimentConfig", "Frame",
    "FrameStats", "Fvc", "FvcConfig", "HuffmanTable", "ReplayFrame",
    "RunResult", "Scheme", "SurfaceTrace", "SyntheticSpec", "WorkloadStats",
    "build_ccd", "build_table", "charged_bursts", "color_cdf", "color_change",
    "entropy", "generate", "load_trace", "pixel_change", "relative_coverage",
    "replay", "run_experiment", "write_trace",
]

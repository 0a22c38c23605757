"""The scheme table: every per-scheme fact, in one place.

Each compression scheme is one frozen `Scheme` record. The runner, the
palette handoff, the burst accounting, the frame container and the CLI all
branch on these fields rather than on scheme names, so adding or changing a
scheme starts here.

The records hold data only. Every codec family (a `Scheme.codec`) is owned
by one module, recorded in `CODEC_MODULES`. That module defines the
family's three entries, all reached through `resolve`:

  frame_cost         (padded, valid, sb_real, block_real, palette): the
                     vectorized accounting bits of a padded frame per
                     8x8 block. RAS, RED and HDCP return (bits, classes):
                     the RAS size class, the RED class, or HDCP's VDCP-won
                     mask. The palette engines return the bits array alone,
                     not a tuple, since wrappers around them read array
                     attributes (`.size`) off the result.
  compress_blocks    (blocks, palette) -> one `CompressedBlocks` record:
                     the (n, k) status rows, the blocks' joined byte-
                     aligned streams, and their (n,) payload and cost bits
  decompress_blocks  (csb, payload, palette) -> an (n, 8, 8) stack, from a
                     record's status rows and payload. Each stream is
                     parsed once, in order; one that runs past the payload,
                     or payload bytes left over, raise CorruptStreamError.

The reference families ignore the palette. `resolve` looks the entry up on
its module when called, which keeps this module free of package imports
(the codec modules import it) and lets tests and tracers patch an entry
where its caller finds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module

CCD = "ccd"            # ranked-color palette (forward CCD, reverse RCCD)
HUFFMAN = "huffman"    # canonical prefix-code table


@dataclass(frozen=True)
class Scheme:
    name: str
    tag: int                        # container scheme byte
    codec: str                      # block codec and frame-cost engine family
    status_bits: int                # status-buffer bits per status cell
    per_block: bool                 # one status cell per 8x8 block, else per 2x2 sub-block
    palette: str | None             # CCD, HUFFMAN, or None for the reference codecs
    adaptive: bool = False          # palette size chosen per frame from the frequencies
    max_palette: int | None = None  # entries the status bits can address


SCHEMES = {s.name: s for s in (
    Scheme("DCP", 1, "dcp", 1, False, CCD),
    Scheme("ADCP", 2, "dcp", 1, False, CCD, adaptive=True),
    # Widths 0..6 address at most 64 entries; HDCP reuses the VDCP codes.
    Scheme("VDCP", 3, "vdcp", 3, False, CCD, max_palette=64),
    Scheme("HUFFDCP", 4, "huffdcp", 1, False, HUFFMAN),
    Scheme("RAS", 5, "ras", 2, True, None),
    Scheme("RED", 6, "red", 2, True, None),
    Scheme("HDCP", 7, "hybrid", 5, False, CCD, max_palette=64),
)}
BY_TAG = {s.tag: s for s in SCHEMES.values()}

# The module that owns each codec family's block format and entries.
CODEC_MODULES = {
    "dcp": "dcp_codecs",
    "vdcp": "dcp_codecs",
    "huffdcp": "dcp_codecs",
    "ras": "reference_codecs",
    "red": "reference_codecs",
    "hybrid": "reference_codecs",
}


def resolve(codec: str, job: str):
    """`<codec>_<job>` on the family's module, looked up now, so that a
    patched entry is the one that runs; `job` is one of the three jobs
    every family has: "frame_cost", "compress_blocks" or
    "decompress_blocks"."""
    return getattr(import_module(f"{__package__}.{CODEC_MODULES[codec]}"), f"{codec}_{job}")

"""The scheme table: every per-scheme fact, in one place.

Each compression scheme is one frozen `Scheme` record. The runner, the
palette handoff, the burst accounting, the frame container and the CLI all
branch on these fields rather than on scheme names, so adding or changing a
scheme starts here.

The records hold data only. Codec functions are looked up on their modules
when they are called, which keeps this module free of package imports and
lets tests and tracers patch a codec where its caller finds it.
"""

from __future__ import annotations

from dataclasses import dataclass

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

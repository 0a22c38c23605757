"""The argument and stream checks that no end-to-end path reaches: each
raise pinned by its exception type and message."""

import numpy as np
import pytest

from dcpbench.bandwidth import csb_frame_bits
from dcpbench.bitio import CorruptStreamError
from dcpbench.dcp_codecs import VDCP_MAX_CCD, vdcp_decompress_blocks, vdcp_frame_cost
from dcpbench.huffman import HuffmanTable
from dcpbench.palette import Ccd, Palette
from dcpbench.reference_codecs import ras_decompress_blocks
from dcpbench.rng import SplitMix64
from dcpbench.surface import Frame, SurfaceTrace, TooFewFramesError


def _vdcp_status(status):
    # One block of 16 sub-blocks; a container's 3-bit field cannot hold it.
    return vdcp_decompress_blocks(np.full(16, status), b"", Ccd([1, 2]))


def _ras_status(status):
    # A container's 2-bit field cannot hold it either.
    return ras_decompress_blocks(np.array([status]), b"")


@pytest.mark.parametrize("call, error, message", [
    (lambda: csb_frame_bits(8, 8, "BOGUS"), ValueError, "unknown scheme 'BOGUS'"),
    (lambda: _vdcp_status(8), CorruptStreamError, "VDCP status outside 0..7"),
    (lambda: _vdcp_status(-1), CorruptStreamError, "VDCP status outside 0..7"),
    (lambda: vdcp_frame_cost(None, None, None, None, Ccd(range(VDCP_MAX_CCD + 1))),
     ValueError, "VDCP palette limited to 64 entries, got 65"),
    (lambda: HuffmanTable([1, 2], [1]), ValueError, "colors and lengths differ in size"),
    (lambda: Palette([[1, 2], [3, 4]]), ValueError, "palette colors must be a flat sequence"),
    (lambda: _ras_status(4), CorruptStreamError, "RAS status outside the size classes 0..3"),
    (lambda: _ras_status(-1), CorruptStreamError, "RAS status outside the size classes 0..3"),
    (lambda: SplitMix64(0).next_below(0), ValueError, "n must be positive"),
    (lambda: SurfaceTrace([Frame(np.zeros((8, 8), dtype=np.uint32))]),
     TooFewFramesError, "a trace needs at least 2 frames"),
], ids=["unknown-scheme", "vdcp-status-8", "vdcp-status-neg", "vdcp-cost-65", "huffman-sizes",
        "palette-not-flat", "ras-status-4", "ras-status-neg", "next-below-0", "one-frame-trace"])
def test_unreached_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message

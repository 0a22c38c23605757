import numpy as np
import pytest

from conftest import block_pool, ccd_from_blocks

from dcpbench.bitio import CorruptStreamError
from dcpbench.container import compress_frame, decompress_frame
from dcpbench.huffman import build_table
from dcpbench.schemes import SCHEMES
from dcpbench.surface import Frame, frames_equal


def _frame(seed, width=40, height=24):
    rng = np.random.default_rng(seed)
    blocks = block_pool(((width + 7) // 8) * ((height + 7) // 8), seed=seed)
    nbx = (width + 7) // 8
    rows = [np.hstack(blocks[i * nbx:(i + 1) * nbx]) for i in range(len(blocks) // nbx)]
    pixels = np.vstack(rows)[:height, :width]
    return Frame(pixels.copy())


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_container_round_trip_block_aligned(scheme):
    frame = _frame(3, width=48, height=24)
    blocks = block_pool(18, seed=3)
    ccd = ccd_from_blocks(blocks, 16)
    table = build_table([(int(c), 50 - i) for i, c in enumerate(ccd.colors)])
    data = compress_frame(frame, scheme, ccd=ccd, table=table)
    assert frames_equal(decompress_frame(data), frame)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_container_round_trip_with_padding(scheme):
    # 21x13 forces edge-replicated padding on both axes.
    frame = _frame(7, width=21, height=13)
    blocks = block_pool(12, seed=7)
    ccd = ccd_from_blocks(blocks, 8)
    table = build_table([(int(c), 20 - i) for i, c in enumerate(ccd.colors)])
    data = compress_frame(frame, scheme, ccd=ccd, table=table)
    assert frames_equal(decompress_frame(data), frame)


def test_container_empty_palette():
    frame = _frame(5, width=16, height=16)
    data = compress_frame(frame, "DCP", ccd=None)
    assert frames_equal(decompress_frame(data), frame)


def test_container_rejects_bad_magic():
    frame = _frame(1, width=16, height=8)
    data = bytearray(compress_frame(frame, "RED"))
    data[0] = 0
    with pytest.raises(CorruptStreamError):
        decompress_frame(bytes(data))


def test_container_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        compress_frame(_frame(1, width=16, height=8), "LZW")


def test_scheme_tag_distinguishes_layouts():
    frame = _frame(9, width=16, height=16)
    blocks = block_pool(4, seed=9)
    ccd = ccd_from_blocks(blocks, 8)
    vdcp = compress_frame(frame, "VDCP", ccd=ccd)
    ras = compress_frame(frame, "RAS")
    assert vdcp[4] != ras[4]
    assert frames_equal(decompress_frame(vdcp), decompress_frame(ras))

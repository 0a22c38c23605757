import numpy as np
import pytest

import palette_oracle as oracle
from conftest import block_pool, ccd_from_blocks

from dcpbench.bitio import CorruptStreamError
from dcpbench.container import compress_frame, decompress_frame
from dcpbench.dcp_codecs import CompressedBlock
from dcpbench.huffman import build_table
from dcpbench.palette import Rccd
from dcpbench.reference_codecs import (
    HDCP_RAS_BASE,
    RED_C4,
    RED_C8,
    RED_RAW,
    hybrid_decompress_blocks,
    ras_decompress_blocks,
)
from dcpbench.runner import ExperimentConfig, replay
from dcpbench.schemes import HUFFMAN, SCHEMES, resolve
from dcpbench.surface import Frame
from dcpbench.synth import SyntheticSpec, generate


def frames_equal(a: Frame, b: Frame) -> bool:
    return a.pixels.shape == b.pixels.shape and bool(np.array_equal(a.pixels, b.pixels))


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
    data = compress_frame(frame, scheme, table if SCHEMES[scheme].palette == HUFFMAN else ccd)
    assert frames_equal(decompress_frame(data), frame)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_container_round_trip_with_padding(scheme):
    # 21x13 forces edge-replicated padding on both axes.
    frame = _frame(7, width=21, height=13)
    blocks = block_pool(12, seed=7)
    ccd = ccd_from_blocks(blocks, 8)
    table = build_table([(int(c), 20 - i) for i, c in enumerate(ccd.colors)])
    data = compress_frame(frame, scheme, table if SCHEMES[scheme].palette == HUFFMAN else ccd)
    assert frames_equal(decompress_frame(data), frame)


def test_container_empty_palette():
    frame = _frame(5, width=16, height=16)
    data = compress_frame(frame, "DCP", None)
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
    vdcp = compress_frame(frame, "VDCP", ccd)
    ras = compress_frame(frame, "RAS")
    assert vdcp[4] != ras[4]
    assert frames_equal(decompress_frame(vdcp), decompress_frame(ras))


def _stream_cases():
    """(codec, block, palette) covering every status kind: raw and coded
    sub-blocks, every RAS size class, every RED class and both HDCP
    winners."""
    blocks = block_pool(40, seed=13)
    blocks.append(np.full((8, 8), 0x80808080, dtype=np.uint32))      # RAS class 0
    noise = np.random.default_rng(0).integers(0, 1 << 32, size=(8, 8), dtype=np.uint64)
    blocks.append(noise.astype(np.uint32))                            # RAS class 3
    quads = np.indices((4, 4)).sum(axis=0) % 2
    blocks.append(np.kron(quads, np.ones((2, 2), dtype=np.uint32)) + 7)  # RED C4
    ccd = ccd_from_blocks(blocks[:8], 16)
    table = build_table([(int(c), 30 - i) for i, c in enumerate(ccd.colors)])
    cases = []
    for block in blocks:
        cases += [("dcp", block, ccd), ("vdcp", block, ccd), ("huffdcp", block, table),
                  ("ras", block, None), ("red", block, None), ("hybrid", block, ccd)]
    return cases


def test_every_decoder_stops_where_its_stream_ends():
    # Each family's stream_bits finds a block's end in a payload that goes
    # on past it, and so does the oracle's in-place reader.
    sentinel = b"\xa5\x5a"
    seen = {}
    for codec, block, palette in _stream_cases():
        (comp,) = resolve(codec, "compress_blocks")(block[None], palette)
        payload = comp.payload + sentinel
        csb = np.array([comp.csb])
        assert list(resolve(codec, "stream_bits")(csb, payload, palette)) == \
            [comp.payload_bits], (codec, comp.csb)
        reader = oracle.BitReader(payload)
        decoded = oracle.read_block(codec, reader, comp.csb, palette)
        assert np.array_equal(decoded, block), codec
        assert reader.tell() == comp.payload_bits, (codec, comp.csb)
        reader.align_byte()
        assert reader.read(16) == 0xA55A, (codec, comp.csb)
        seen.setdefault(codec, set()).add(comp.csb[0] if codec in ("ras", "red", "hybrid")
                                          else min(comp.csb))
    assert seen["ras"] == {0, 1, 2, 3}
    assert seen["red"] == {RED_C8, RED_C4, RED_RAW}
    assert any(s < HDCP_RAS_BASE for s in seen["hybrid"])
    assert any(s >= HDCP_RAS_BASE for s in seen["hybrid"])
    assert {0, 1} <= seen["dcp"] and {0, 1} <= seen["huffdcp"]


def test_container_rejects_red_status_3():
    frame = _frame(1, width=16, height=8)
    data = bytearray(compress_frame(frame, "RED"))
    data[15] = 0xFF            # the status byte after a 2-byte empty palette
    with pytest.raises(CorruptStreamError):
        decompress_frame(bytes(data))


@pytest.mark.parametrize("status", [12, 20, 31])
def test_container_rejects_hdcp_status_past_ras_classes(status):
    frame = Frame(np.full((8, 8), 0x80808080, dtype=np.uint32))
    data = bytearray(compress_frame(frame, "HDCP"))  # no palette: RAS class 0
    assert data[15] >> 3 == HDCP_RAS_BASE            # first 5-bit entry
    data[15] = (status << 3) | (data[15] & 0b111)
    with pytest.raises(CorruptStreamError):
        decompress_frame(bytes(data))


def test_hdcp_reader_rejects_mixed_status_entries():
    block = np.full((8, 8), 0x80808080, dtype=np.uint32)
    (comp,) = resolve("hybrid", "compress_blocks")(block[None], None)
    assert comp.csb == (HDCP_RAS_BASE,) * 16
    for csb in ((HDCP_RAS_BASE,) * 15 + (HDCP_RAS_BASE + 1,), (0,) * 15 + (HDCP_RAS_BASE,)):
        with pytest.raises(CorruptStreamError):
            hybrid_decompress_blocks([CompressedBlock(csb, comp.payload, comp.payload_bits,
                                                      comp.cost_bits)], Rccd([]))
        with pytest.raises(CorruptStreamError):
            resolve("hybrid", "stream_bits")(np.array([csb]), comp.payload, Rccd([]))


def test_ras_reader_rejects_wrong_size_class():
    block = np.full((8, 8), 0x80808080, dtype=np.uint32)
    (comp,) = resolve("ras", "compress_blocks")(block[None], None)
    assert comp.csb == (0,)
    with pytest.raises(CorruptStreamError):
        ras_decompress_blocks([CompressedBlock((1,), comp.payload, comp.payload_bits,
                                               comp.cost_bits)])
    with pytest.raises(CorruptStreamError):
        resolve("ras", "stream_bits")(np.array([[1]]), comp.payload)


def _damaged(data: bytes, rng, flips: int, cuts: int, header: int = 0):
    """Truncations of `data` at every length under 256 bytes and at `cuts`
    seeded longer lengths, then `flips` seeded single-bit flips past the
    header, then `header` seeded new values of one of header bytes 5..12
    (the width and height)."""
    lengths = list(range(min(len(data), 256)))
    if len(data) > 256:
        lengths += rng.integers(256, len(data), size=cuts).tolist()
    for n in lengths:
        yield data[:n]
    for bit in rng.integers(13 * 8, 8 * len(data), size=flips).tolist():
        blob = bytearray(data)
        blob[bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(blob)
    for at, value in zip(rng.integers(5, 13, size=header).tolist(),
                         rng.integers(0, 256, size=header).tolist()):
        blob = bytearray(data)
        blob[at] = value
        yield bytes(blob)


def _decoded(decode, blob):
    """The decoded frame, or CorruptStreamError; any other exception fails."""
    try:
        return decode(blob)
    except CorruptStreamError:
        return CorruptStreamError


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_damaged_containers_raise_only_corrupt_stream_error(scheme):
    # A wrong frame decoded without an error is still allowed: FBC1 has no
    # integrity check. Whatever happens, the frame decode does what a
    # block-by-block decode of the same blob does.
    trace = generate(SyntheticSpec(generator="ui-like", width=32, height=16, frames=2, seed=0))
    (m,) = replay(trace, ExperimentConfig(scheme=scheme))
    data = compress_frame(trace.frames[1], scheme, m.palette)
    assert frames_equal(decompress_frame(data), trace.frames[1])
    rng = np.random.default_rng(SCHEMES[scheme].tag)
    raised = 0
    for blob in _damaged(data, rng, flips=200, cuts=100, header=200):
        got = _decoded(decompress_frame, blob)
        want = _decoded(oracle.decompress_frame, blob)
        if got is CorruptStreamError or want is CorruptStreamError:
            assert got is want, blob
            raised += 1
        else:
            assert frames_equal(got, want)
    assert raised > 300


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_narrowed_width_leaves_payload_unread(scheme):
    # One block column fewer. The status buffer shrinks and the payload
    # starts early, yet on all schemes but RAS every block still decodes:
    # only the payload bytes left over show the damage.
    trace = generate(SyntheticSpec(generator="ui-like", width=40, height=16, frames=2, seed=4))
    (m,) = replay(trace, ExperimentConfig(scheme=scheme))
    data = bytearray(compress_frame(trace.frames[1], scheme, m.palette))
    data[5:9] = (32).to_bytes(4, "little")
    with pytest.raises(CorruptStreamError):
        decompress_frame(bytes(data))
    with pytest.raises(CorruptStreamError):
        oracle.decompress_frame(bytes(data))


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("field", ["width", "height"])
def test_container_rejects_zero_dimension(scheme, field):
    frame = _frame(2, width=24, height=16)
    ccd = ccd_from_blocks(block_pool(6, seed=2), 8)
    palette = build_table([(int(c), 9 - i) for i, c in enumerate(ccd.colors)]) \
        if SCHEMES[scheme].palette == HUFFMAN else ccd
    data = bytearray(compress_frame(frame, scheme, palette))
    offset = {"width": 5, "height": 9}[field]
    data[offset:offset + 4] = bytes(4)
    with pytest.raises(CorruptStreamError):
        decompress_frame(bytes(data))


def test_container_rejects_header_only_blob():
    data = compress_frame(_frame(1, width=16, height=8), "DCP")
    for n in (0, 4, 5, 12):
        with pytest.raises(CorruptStreamError):
            decompress_frame(data[:n])

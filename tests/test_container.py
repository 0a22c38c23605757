import numpy as np
import pytest

from conftest import block_pool, ccd_from_blocks

from dcpbench.bitio import BitReader, CorruptStreamError
from dcpbench.container import compress_frame, decompress_frame
from dcpbench.dcp_codecs import block_codec, read_block
from dcpbench.huffman import build_table
from dcpbench.palette import Rccd
from dcpbench.reference_codecs import HDCP_RAS_BASE, RED_C4, RED_C8, RED_RAW
from dcpbench.runner import ExperimentConfig, replay
from dcpbench.schemes import HUFFMAN, SCHEMES
from dcpbench.surface import Frame, frames_equal
from dcpbench.synth import SyntheticSpec, generate


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
    sentinel = b"\xa5\x5a"
    seen = {}
    for codec, block, palette in _stream_cases():
        comp = block_codec(codec, "compress")(block, palette)
        reader = BitReader(comp.payload + sentinel)
        decoded = read_block(codec, reader, comp.csb, palette)
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
    comp = block_codec("hybrid", "compress")(block, None)
    assert comp.csb == (HDCP_RAS_BASE,) * 16
    for csb in ((HDCP_RAS_BASE,) * 15 + (HDCP_RAS_BASE + 1,), (0,) * 15 + (HDCP_RAS_BASE,)):
        with pytest.raises(CorruptStreamError):
            read_block("hybrid", BitReader(comp.payload), csb, Rccd([]))


def test_ras_reader_rejects_wrong_size_class():
    block = np.full((8, 8), 0x80808080, dtype=np.uint32)
    comp = block_codec("ras", "compress")(block)
    assert comp.csb == (0,)
    with pytest.raises(CorruptStreamError):
        read_block("ras", BitReader(comp.payload), (1,))


def _damaged(data: bytes, rng, flips: int, cuts: int):
    """Truncations of `data` at every length under 256 bytes and at `cuts`
    seeded longer lengths, then `flips` seeded single-bit flips past the
    header."""
    lengths = list(range(min(len(data), 256)))
    if len(data) > 256:
        lengths += rng.integers(256, len(data), size=cuts).tolist()
    for n in lengths:
        yield data[:n]
    for bit in rng.integers(13 * 8, 8 * len(data), size=flips).tolist():
        blob = bytearray(data)
        blob[bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(blob)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_damaged_containers_raise_only_corrupt_stream_error(scheme):
    # A wrong frame decoded without an error is still allowed: FBC1 has no
    # integrity check.
    trace = generate(SyntheticSpec(generator="ui-like", width=32, height=16, frames=2, seed=0))
    (m,) = replay(trace, ExperimentConfig(scheme=scheme))
    data = compress_frame(trace.frames[1], scheme, m.palette)
    assert frames_equal(decompress_frame(data), trace.frames[1])
    rng = np.random.default_rng(SCHEMES[scheme].tag)
    for blob in _damaged(data, rng, flips=200, cuts=100):
        try:
            decompress_frame(blob)
        except CorruptStreamError:
            pass


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

import json

import numpy as np
import pytest

from dcpbench.rng import SplitMix64, mix64, splitmix64_array
from dcpbench.surface import (
    Frame,
    FrameSizeError,
    FormatError,
    MissingManifestError,
    SurfaceTrace,
    TooFewFramesError,
    block_grid,
    block_stack,
    load_trace,
    sub_block_valid_counts,
    write_trace,
)
from dcpbench.dcp_codecs import sub_blocks
from dcpbench.synth import SyntheticSpec, generate
from palette_oracle import assemble_sub_blocks, sub_block_pixels

OPAQUE_123 = 0xFF030201          # R=1, G=2, B=3, A=255 in the packed word


def test_pack_unpack_round_trip(tmp_path):
    # R is the low byte of the packed word: raw frame bytes are R, G, B, A.
    frame = Frame(np.array([[0x04030201, 0xFFFFFFFF]], dtype=np.uint32))
    assert frame.to_raw_bytes() == bytes([1, 2, 3, 4, 255, 255, 255, 255])
    # A PPM carries R, G, B and reads back opaque.
    opaque = Frame(np.full((8, 8), OPAQUE_123, dtype=np.uint32))
    write_trace(SurfaceTrace([opaque, opaque]), tmp_path / "p", fmt="ppm")
    assert (tmp_path / "p" / "frame_00000.ppm").read_bytes().endswith(bytes([1, 2, 3]))
    assert np.array_equal(load_trace(tmp_path / "p").frames[0].pixels, opaque.pixels)


def test_splitmix_vector_matches_scalar():
    gen = SplitMix64(42)
    scalar = [gen.next_u64() for _ in range(64)]
    vector = splitmix64_array(42, 64).tolist()
    assert scalar == vector
    assert mix64(1) not in (0, 1)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(np.zeros((0, 4), dtype=np.uint32))
    with pytest.raises(ValueError):
        Frame(np.zeros(16, dtype=np.uint32))


def test_block_grid_counts():
    assert block_grid(720, 1280) == (90, 160)
    assert block_grid(8, 8) == (1, 1)
    assert block_stack(np.zeros((1280, 720), dtype=np.uint32)).reshape(-1, 8, 8).shape[0] == 14400


def test_padding_flags_9x8():
    frame = Frame(np.arange(72, dtype=np.uint32).reshape(8, 9))
    padded, valid = frame.padded()
    assert padded.shape == (8, 16)
    assert block_grid(9, 8) == (2, 1)
    blocks = block_stack(valid)
    assert blocks.shape == (1, 2, 8, 8)
    assert blocks[0, 1].sum() == 8  # one real column left in the second block
    assert np.array_equal(block_stack(padded)[0, 1], padded[:, 8:16])
    assert (~valid).sum() == 7 * 8
    # replicated content equals the last real column
    assert (padded[:, 9:] == padded[:, 8:9]).all()


def test_sub_block_order():
    block = np.arange(64, dtype=np.uint32).reshape(8, 8)
    groups = sub_blocks(block[None])[0]
    assert groups.shape == (16, 4)
    assert groups[0].tolist() == [0, 1, 8, 9]
    assert groups[1].tolist() == [2, 3, 10, 11]
    assert groups[4].tolist() == [16, 17, 24, 25]
    assert np.array_equal(groups, sub_block_pixels(block))
    assert np.array_equal(assemble_sub_blocks(groups), block)


def test_sub_blocks_uniform():
    block = np.full((8, 8), 7, dtype=np.uint32)
    groups = sub_blocks(block[None])[0]
    assert all(len(set(g.tolist())) == 1 for g in groups)


def test_tiling_partition():
    rng = np.random.default_rng(0)
    frame = Frame(rng.integers(0, 1 << 32, size=(13, 21), dtype=np.uint64).astype(np.uint32))
    seen = np.zeros((13, 21), dtype=int)
    _, valid = frame.padded()
    nbx, _ = block_grid(21, 13)
    for i, block_valid in enumerate(block_stack(valid).reshape(-1, 8, 8)):
        y0, x0 = 8 * (i // nbx), 8 * (i % nbx)
        ys, xs = np.nonzero(block_valid)
        for y, x in zip(ys + y0, xs + x0):
            seen[y, x] += 1
    assert (seen == 1).all()


def test_sub_block_valid_counts():
    frame = Frame(np.zeros((8, 9), dtype=np.uint32))
    _, valid = frame.padded()
    counts = sub_block_valid_counts(valid)
    assert counts.shape == (4, 8)
    assert counts[:, :4].tolist() == [[4] * 4] * 4
    assert counts[:, 4].tolist() == [2, 2, 2, 2]   # column x=8 only
    assert counts[:, 5:].sum() == 0


def test_write_load_raw_round_trip(tmp_path):
    trace = generate(SyntheticSpec(generator="noise", width=24, height=16, frames=3, seed=5))
    write_trace(trace, tmp_path / "t")
    back = load_trace(tmp_path / "t")
    assert back.name == trace.name and back.category == "synthetic"
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(trace.frames, back.frames))


def test_write_load_720x1280_bit_identical(tmp_path):
    trace = generate(SyntheticSpec(generator="gradient", width=720, height=1280, frames=2))
    write_trace(trace, tmp_path / "big")
    back = load_trace(tmp_path / "big")
    for a, b in zip(trace.frames, back.frames):
        assert a.to_raw_bytes() == b.to_raw_bytes()


def test_ppm_round_trip(tmp_path):
    trace = generate(SyntheticSpec(generator="ui-like", width=32, height=16, frames=2, seed=2))
    write_trace(trace, tmp_path / "p", fmt="ppm")
    back = load_trace(tmp_path / "p")
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(trace.frames, back.frames))


def test_ppm_rejects_translucent_frames(tmp_path):
    frame = Frame(np.full((8, 8), 0x80030201, dtype=np.uint32))     # alpha 128
    trace = SurfaceTrace([frame, frame], category="synthetic")
    with pytest.raises(FormatError):
        write_trace(trace, tmp_path / "p", fmt="ppm")


def test_png_round_trip(tmp_path):
    pytest.importorskip("PIL")
    trace = generate(SyntheticSpec(generator="2d-like", width=32, height=24, frames=2, seed=3))
    write_trace(trace, tmp_path / "png", fmt="png")
    back = load_trace(tmp_path / "png")
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(trace.frames, back.frames))


def test_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(MissingManifestError):
        load_trace(tmp_path / "empty")


def test_truncated_frame_file(tmp_path):
    trace = generate(SyntheticSpec(generator="noise", width=16, height=8, frames=3, seed=1))
    write_trace(trace, tmp_path / "t")
    target = tmp_path / "t" / "frame_00001.raw"
    target.write_bytes(target.read_bytes()[:-4])
    with pytest.raises(FrameSizeError):
        load_trace(tmp_path / "t")


def test_too_few_frames(tmp_path):
    trace = generate(SyntheticSpec(generator="noise", width=16, height=8, frames=2, seed=1))
    write_trace(trace, tmp_path / "t")
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    manifest["frames"] = manifest["frames"][:1]
    (tmp_path / "t" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(TooFewFramesError):
        load_trace(tmp_path / "t")


def test_bad_category(tmp_path):
    trace = generate(SyntheticSpec(generator="noise", width=16, height=8, frames=2, seed=1))
    write_trace(trace, tmp_path / "t")
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    manifest["category"] = "movies"
    (tmp_path / "t" / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError):
        load_trace(tmp_path / "t")


def test_mixed_dimensions_rejected():
    a = Frame(np.zeros((8, 8), dtype=np.uint32))
    b = Frame(np.zeros((8, 16), dtype=np.uint32))
    with pytest.raises(FrameSizeError):
        SurfaceTrace([a, b])

import json
import sys
import tracemalloc

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
    live_mask,
    load_trace,
    sub_block_valid_counts,
    trace_files,
    write_trace,
)
from dcpbench.dcp_codecs import sub_blocks
from dcpbench.synth import SyntheticSpec, generate
from palette_oracle import assemble_sub_blocks, sub_block_pixels

OPAQUE_123 = 0xFF030201          # R=1, G=2, B=3, A=255 in the packed word


def _trace_dir(root, frames, suffix, write):
    """A trace directory of `frames`, each saved by `write(path, frame)`."""
    root.mkdir()
    names = [f"frame_{i}{suffix}" for i in range(len(frames))]
    for name, frame in zip(names, frames):
        write(root / name, frame)
    manifest = {"width": frames[0].width, "height": frames[0].height, "frames": names}
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


def _channels(frame, n):
    """A frame's first n bytes per pixel, R first, as an (h, w, n) uint8 array."""
    return frame.pixels.astype("<u4").view(np.uint8).reshape(frame.height, frame.width, 4)[..., :n]


def _write_ppm(path, frame):
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    path.write_bytes(header + _channels(frame, 3).tobytes())


def test_pack_unpack_round_trip(tmp_path):
    # R is the low byte of the packed word: raw frame bytes are R, G, B, A.
    frame = Frame(np.array([[0x04030201, 0xFFFFFFFF]], dtype=np.uint32))
    write_trace(SurfaceTrace([frame, frame]), tmp_path / "raw")
    assert (tmp_path / "raw" / "frame_00000.raw").read_bytes() == bytes(
        [1, 2, 3, 4, 255, 255, 255, 255])
    # A PPM carries R, G, B and reads back opaque; '#' comments between
    # header tokens are skipped.
    opaque = Frame(np.full((8, 8), OPAQUE_123, dtype=np.uint32))
    ppm = b"P6\n# by hand\n8 8 # size\n255\n" + bytes([1, 2, 3]) * 64
    root = _trace_dir(tmp_path / "p", [opaque, opaque], ".ppm",
                      lambda path, _: path.write_bytes(ppm))
    assert np.array_equal(load_trace(root).frames[0].pixels, opaque.pixels)


def test_splitmix_vector_matches_scalar():
    gen = SplitMix64(42)
    scalar = [gen.next_u64() for _ in range(64)]
    vector = splitmix64_array(42, 64).tolist()
    assert scalar == vector
    assert mix64(1) not in (0, 1)


def test_splitmix_block_equals_scalar_draws():
    block, scalar = SplitMix64(77), SplitMix64(77)
    for k in (0, 1, 5, 4099):
        draws = block.peek_block(k).tolist()
        block.advance(k)
        assert draws == [scalar.next_u64() for _ in range(k)]
        assert block.next_u64() == scalar.next_u64()


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
    padded, valid = frame.padded(), live_mask(9, 8)
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
    valid = live_mask(frame.width, frame.height)
    nbx, _ = block_grid(21, 13)
    for i, block_valid in enumerate(block_stack(valid).reshape(-1, 8, 8)):
        y0, x0 = 8 * (i // nbx), 8 * (i % nbx)
        ys, xs = np.nonzero(block_valid)
        for y, x in zip(ys + y0, xs + x0):
            seen[y, x] += 1
    assert (seen == 1).all()


def test_sub_block_valid_counts():
    counts = sub_block_valid_counts(live_mask(9, 8))
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
    files = trace_files(tmp_path / "big")[1:]
    for a, b, path in zip(trace.frames, back.frames, files, strict=True):
        assert path.read_bytes() == a.pixels.astype("<u4").tobytes()
        assert np.array_equal(a.pixels, b.pixels)


@pytest.mark.skipif(sys.byteorder != "little", reason="a big-endian host writes a swapped copy")
def test_write_trace_copies_no_frame(tmp_path):
    # Each frame file is written from the frame's own buffer: the write's
    # allocation peak stays far below one frame's bytes.
    trace = generate(SyntheticSpec(generator="gradient", width=720, height=1280, frames=2))
    tracemalloc.start()
    try:
        write_trace(trace, tmp_path / "big")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < trace.frames[0].pixels.nbytes // 8


def test_ppm_round_trip(tmp_path):
    trace = generate(SyntheticSpec(generator="ui-like", width=32, height=16, frames=2, seed=2))
    back = load_trace(_trace_dir(tmp_path / "p", trace.frames, ".ppm", _write_ppm))
    assert all(np.array_equal(a.pixels, b.pixels) for a, b in zip(trace.frames, back.frames))


PPM_BODY = bytes(8 * 8 * 3)


@pytest.mark.parametrize("ppm, error, message", [
    (b"P6\n8 8\n", FormatError, "truncated PPM header"),
    (b"P3\n8 8\n255\n" + PPM_BODY, FormatError, "not a binary PPM"),
    (b"P6\n8 x\n255\n" + PPM_BODY, FormatError, "bad PPM header"),
    (b"P6\n8 8\n65535\n" + PPM_BODY, FormatError, "only maxval 255"),
    (b"P6\n8 4\n255\n" + PPM_BODY[:96], FrameSizeError, "does not match manifest 8x8"),
    (b"P6\n8 8\n255\n" + PPM_BODY[1:], FrameSizeError, "191 body bytes, expected 192"),
], ids=["truncated", "not-p6", "bad-number", "maxval", "size", "body"])
def test_bad_ppm_raises(tmp_path, ppm, error, message):
    frame = Frame(np.zeros((8, 8), dtype=np.uint32))
    root = _trace_dir(tmp_path / "p", [frame, frame], ".ppm",
                      lambda path, _: path.write_bytes(ppm))
    with pytest.raises(error, match=message):
        load_trace(root)


def test_png_round_trip(tmp_path):
    image = pytest.importorskip("PIL.Image")

    def write_png(path, frame):
        image.fromarray(_channels(frame, 4)).save(path)   # (h, w, 4) uint8 is RGBA

    trace = generate(SyntheticSpec(generator="2d-like", width=32, height=24, frames=2, seed=3))
    back = load_trace(_trace_dir(tmp_path / "png", trace.frames, ".png", write_png))
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


def _with_manifest(tmp_path, edit):
    """A valid two-frame trace directory whose manifest is replaced by
    `edit(manifest)`."""
    trace = generate(SyntheticSpec(generator="noise", width=16, height=8, frames=2, seed=1))
    write_trace(trace, tmp_path / "t")
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    (tmp_path / "t" / "manifest.json").write_text(json.dumps(edit(manifest)))
    return tmp_path / "t"


@pytest.mark.parametrize("edit", [
    lambda m: {**m, "width": 16.9},
    lambda m: {**m, "width": True},
    lambda m: {**m, "width": "16"},
    lambda m: {**m, "name": "a\nb"},
    lambda m: {**m, "name": 5},
    lambda m: [m],
], ids=["width-float", "width-bool", "width-string", "name-two-lines", "name-int", "list"])
def test_manifest_types_are_strict(tmp_path, edit):
    root = _with_manifest(tmp_path, edit)
    with pytest.raises(FormatError):
        load_trace(root)
    # The frame files of a manifest that does not load are no inputs.
    assert trace_files(root) == [root / "manifest.json"]


def test_name_defaults_to_the_directory_name(tmp_path):
    root = _with_manifest(tmp_path, lambda m: {k: v for k, v in m.items() if k != "name"})
    assert load_trace(root).name == "t"
    with pytest.raises(FormatError):
        load_trace(root.rename(tmp_path / "a\nb"))


@pytest.mark.parametrize("width,height", [(61, 45), (1, 1), (8, 8), (9, 17)])
def test_live_mask_marks_the_real_pixels(width, height):
    frame = Frame(np.arange(width * height, dtype=np.uint32).reshape(height, width))
    padded, valid = frame.padded(), live_mask(width, height)
    # The padded frame's shape, True on the frame's own rows and columns.
    expected = np.zeros(padded.shape, dtype=bool)
    expected[:height, :width] = True
    assert valid.shape == (-(-height // 8) * 8, -(-width // 8) * 8)
    assert np.array_equal(valid, expected)
    assert np.array_equal(padded[valid].reshape(height, width), frame.pixels)
    assert (padded is frame.pixels) == (width % 8 == 0 and height % 8 == 0)


def test_too_few_frames(tmp_path):
    root = _with_manifest(tmp_path, lambda m: {**m, "frames": m["frames"][:1]})
    with pytest.raises(TooFewFramesError):
        load_trace(root)


def test_bad_category(tmp_path):
    with pytest.raises(FormatError):
        load_trace(_with_manifest(tmp_path, lambda m: {**m, "category": "movies"}))


def test_mixed_dimensions_rejected():
    a = Frame(np.zeros((8, 8), dtype=np.uint32))
    b = Frame(np.zeros((8, 16), dtype=np.uint32))
    with pytest.raises(FrameSizeError):
        SurfaceTrace([a, b])

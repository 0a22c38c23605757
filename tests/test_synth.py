import numpy as np
import pytest

from dcpbench.metrics import color_change, pixel_change, unique_colors
from dcpbench.rng import SplitMix64
from dcpbench.surface import load_trace, write_trace
from dcpbench.synth import GENERATORS, MAX_PALETTE, SyntheticSpec, _palette, generate


def test_generation_is_deterministic():
    for gen in GENERATORS:
        spec = SyntheticSpec(generator=gen, width=48, height=32, frames=3, seed=9)
        a = generate(spec)
        b = generate(SyntheticSpec(generator=gen, width=48, height=32, frames=3, seed=9))
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(a.frames, b.frames))


def test_seeds_differ():
    a = generate(SyntheticSpec(generator="ui-like", width=48, height=32, frames=2, seed=0))
    b = generate(SyntheticSpec(generator="ui-like", width=48, height=32, frames=2, seed=1))
    assert not np.array_equal(a.frames[0].pixels, b.frames[0].pixels)


def test_written_directories_byte_identical(tmp_path):
    spec = SyntheticSpec(generator="2d-like", width=40, height=24, frames=3, seed=4)
    write_trace(generate(spec), tmp_path / "a")
    write_trace(generate(spec), tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_all_generators_loadable(tmp_path):
    for gen in GENERATORS:
        spec = SyntheticSpec(generator=gen, width=32, height=16, frames=2, seed=2)
        trace = generate(spec)
        write_trace(trace, tmp_path / gen)
        back = load_trace(tmp_path / gen)
        assert back.category == "synthetic"
        assert all(np.array_equal(x.pixels, y.pixels) for x, y in zip(trace.frames, back.frames))


def test_ui_like_moves_without_changing_colors():
    trace = generate(SyntheticSpec(generator="ui-like", width=96, height=64, frames=5, seed=3))
    for a, b in zip(trace.frames, trace.frames[1:]):
        pc = pixel_change(a, b)
        cc = color_change(a, b)
        assert pc > cc
        assert pc > 0.02          # the scroll band really moves
        assert cc < 0.05          # the histogram barely shifts


def scalar_ui_like(spec):
    """The ui-like generator with one next_below call per draw: the oracle
    for the block-drawn text strips."""
    w, h = spec.width, spec.height
    rng = SplitMix64(spec.seed)
    pal = _palette(rng, max(spec.palette_size, 4))
    pal[0] = 0xFFF6F4F2
    pal[1] = 0xFF141210
    base = np.full((h, w), pal[0], dtype=np.uint32)
    for _ in range(6):
        rw = 8 + rng.next_below(max(w // 3, 9))
        rh = 8 + rng.next_below(max(h // 4, 9))
        x = rng.next_below(max(w - rw, 1))
        y = rng.next_below(max(h - rh, 1))
        base[y:y + rh, x:x + rw] = pal[2 + rng.next_below(len(pal) - 2)]
    for y in range(4, h - 4, 12):
        x = 2
        while x < w - 6:
            run = 2 + rng.next_below(5)
            gap = 1 + rng.next_below(3)
            if rng.next_below(5):
                base[y:y + 2, x:x + run] = pal[1]
            x += run + gap
    y0, y1 = h // 4, h - h // 4
    frames = []
    for t in range(spec.frames):
        fr = base.copy()
        fr[y0:y1] = np.roll(base[y0:y1], -spec.scroll * t, axis=0)
        cx = (8 + 6 * t) % max(w - 8, 1)
        fr[2:6, cx:cx + 4] = pal[2 + (t % (len(pal) - 2))]
        frames.append(fr)
    return frames, rng.next_u64()


@pytest.mark.parametrize("width,height", [(8, 8), (9, 17), (14, 20), (61, 45), (100, 60),
                                          (640, 480)])
@pytest.mark.parametrize("seed", [0, 1, 43])
def test_ui_like_matches_scalar_draws(width, height, seed, monkeypatch):
    spec = SyntheticSpec(generator="ui-like", width=width, height=height, frames=3, seed=seed)
    want, next_draw = scalar_ui_like(spec)
    rngs = []
    real_init = SplitMix64.__init__

    def recording(self, seed):
        real_init(self, seed)
        rngs.append(self)

    monkeypatch.setattr(SplitMix64, "__init__", recording)
    got = generate(spec).frames
    assert all(np.array_equal(a.pixels, b) for a, b in zip(got, want))
    assert rngs[0].next_u64() == next_draw          # the stream advanced by the draws used


def test_noise_statistics():
    trace = generate(SyntheticSpec(generator="noise", width=96, height=64, frames=2, seed=1))
    pc = pixel_change(trace.frames[0], trace.frames[1])
    cc = color_change(trace.frames[0], trace.frames[1])
    assert pc > 0.95
    assert cc < 0.5               # palette histograms nearly match


def test_ui_palette_is_small():
    trace = generate(SyntheticSpec(generator="ui-like", width=96, height=64, frames=2, seed=0))
    assert unique_colors(trace.frames[1]) <= 32


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(generator="fractal")
    with pytest.raises(ValueError):
        SyntheticSpec(width=4)
    with pytest.raises(ValueError):
        SyntheticSpec(frames=1)


@pytest.mark.parametrize("size", [-1, MAX_PALETTE + 1, (1 << 24) + 1])
def test_palette_size_is_bounded(size):
    # Drawing stops only at `palette_size` distinct colors, and there are
    # 2**24 opaque ones: a larger size would never return.
    with pytest.raises(ValueError, match="palette size"):
        SyntheticSpec(palette_size=size)
    assert SyntheticSpec(palette_size=MAX_PALETTE).palette_size == MAX_PALETTE
    assert SyntheticSpec(generator="noise", palette_size=0).palette_size == 0

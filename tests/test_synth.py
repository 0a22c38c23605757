import numpy as np
import pytest

from dcpbench.metrics import color_change, pixel_change, unique_colors
from dcpbench.surface import load_trace, write_trace
from dcpbench.synth import GENERATORS, SyntheticSpec, generate


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

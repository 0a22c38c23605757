"""Seeded synthetic traces standing in for captured surfaces.

Four generators cover the workload families the codecs care about:

  ui-like    solid background, solid rectangles, text-like strips, and a
             band that scrolls a few pixels per frame: high pixel change,
             near-zero color change, few distinct colors
  2d-like    smooth gradient backdrop with solid moving sprites
  gradient   pure scrolling gradient, prediction-friendly, palette-hostile
  noise      every pixel drawn from a seeded palette, no coherence

Generation is a pure function of the spec: identical specs produce
bit-identical traces on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import SplitMix64, splitmix64_array
from .surface import Frame, SurfaceTrace

GENERATORS = ("ui-like", "2d-like", "noise", "gradient")

_DEFAULT_PALETTE = {"ui-like": 24, "2d-like": 40, "noise": 4096, "gradient": 0}
MAX_PALETTE = 1 << 20   # _palette draws until it holds this many of the 2**24 colors
_STRIP_BOUNDS = np.array([5, 3, 5], dtype=np.uint64)   # next_below bounds: run, gap, inked


@dataclass
class SyntheticSpec:
    generator: str = "ui-like"
    width: int = 192
    height: int = 128
    frames: int = 8
    palette_size: int | None = None    # None: per-generator default
    seed: int = 0
    scroll: int = 4                    # rows the scroll band moves per frame

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"generator must be one of {GENERATORS}, got {self.generator!r}")
        if self.width < 8 or self.height < 8:
            raise ValueError("synthetic frames must be at least 8x8")
        if self.frames < 2:
            raise ValueError("a trace needs at least 2 frames")
        if self.palette_size is None:
            self.palette_size = _DEFAULT_PALETTE[self.generator]
        if not 0 <= self.palette_size <= MAX_PALETTE:
            raise ValueError(f"palette size must be 0..{MAX_PALETTE}, got {self.palette_size}")


def generate(spec: SyntheticSpec) -> SurfaceTrace:
    gen = {
        "ui-like": _gen_ui_like,
        "2d-like": _gen_2d_like,
        "noise": _gen_noise,
        "gradient": _gen_gradient,
    }[spec.generator]
    frames = [Frame(p) for p in gen(spec)]
    return SurfaceTrace(frames, name=f"{spec.generator}-{spec.seed}", category="synthetic")


def _palette(rng: SplitMix64, count: int) -> np.ndarray:
    """`count` distinct opaque colors drawn from the seeded stream."""
    seen: dict[int, None] = {}
    while len(seen) < count:
        seen.setdefault((rng.next_u64() & 0x00FFFFFF) | 0xFF000000, None)
    return np.array(list(seen), dtype=np.uint32)


def _gen_ui_like(spec: SyntheticSpec) -> list[np.ndarray]:
    w, h = spec.width, spec.height
    rng = SplitMix64(spec.seed)
    pal = _palette(rng, max(spec.palette_size, 4))
    pal[0] = 0xFFF6F4F2   # light background
    pal[1] = 0xFF141210   # dark ink for the text strips
    base = np.full((h, w), pal[0], dtype=np.uint32)

    # Solid widget rectangles.
    for _ in range(6):
        rw = 8 + rng.next_below(max(w // 3, 9))
        rh = 8 + rng.next_below(max(h // 4, 9))
        x = rng.next_below(max(w - rw, 1))
        y = rng.next_below(max(h - rh, 1))
        base[y:y + rh, x:x + rw] = pal[2 + rng.next_below(len(pal) - 2)]

    # Text-like strips: 2-pixel-tall ink runs on the background. From x = 2
    # while x < w - 6, each step draws a run of 2..6, a gap of 1..3 and
    # whether the run is inked (some gaps read as word spaces), one
    # next_below each. A step moves x by at least 3, so a row takes at most
    # `steps` of them, and its draws are read as one block of the stream.
    steps = w // 3 + 1
    for y in range(4, h - 4, 12):
        draws = (rng.peek_block(3 * steps).reshape(steps, 3) % _STRIP_BOUNDS).astype(np.int64)
        run = 2 + draws[:, 0]
        advance = run + 1 + draws[:, 1]
        x = 2 + np.cumsum(advance) - advance
        n = int(np.searchsorted(x, w - 6))
        rng.advance(3 * n)
        inked = draws[:n, 2] != 0
        starts, lengths = x[:n][inked], run[:n][inked]
        first = np.cumsum(lengths) - lengths          # each run's first index in cols
        cols = np.repeat(starts - first, lengths) + np.arange(lengths.sum())
        base[y:y + 2, cols[cols < w]] = pal[1]

    # Scroll band: the middle half of the screen moves `scroll` rows/frame.
    y0, y1 = h // 4, h - h // 4
    frames = []
    for t in range(spec.frames):
        fr = base.copy()
        fr[y0:y1] = np.roll(base[y0:y1], -spec.scroll * t, axis=0)
        # A small moving cursor block adds a trickle of color change.
        cx = (8 + 6 * t) % max(w - 8, 1)
        fr[2:6, cx:cx + 4] = pal[2 + (t % (len(pal) - 2))]
        frames.append(fr)
    return frames


def _gen_2d_like(spec: SyntheticSpec) -> list[np.ndarray]:
    w, h = spec.width, spec.height
    rng = SplitMix64(spec.seed)
    pal = _palette(rng, max(spec.palette_size, 6))
    sprites = []
    for i in range(5):
        sw = 10 + rng.next_below(14)
        sh = 10 + rng.next_below(14)
        x = rng.next_below(max(w - sw, 1))
        y = rng.next_below(max(h - sh, 1))
        dx = 1 + rng.next_below(3)
        dy = 1 + rng.next_below(2)
        sprites.append((x, y, sw, sh, dx, dy, pal[i % len(pal)]))
    frames = []
    for t in range(spec.frames):
        fr = _gradient_field(w, h, 2 * t)
        for (x, y, sw, sh, dx, dy, color) in sprites:
            sx = (x + dx * t) % max(w - sw, 1)
            sy = (y + dy * t) % max(h - sh, 1)
            fr[sy:sy + sh, sx:sx + sw] = color
        frames.append(fr)
    return frames


def _gradient_field(w: int, h: int, phase: int) -> np.ndarray:
    xs = np.arange(w, dtype=np.uint32)
    ys = np.arange(h, dtype=np.uint32)
    r = (xs[None, :] + phase) & 0xFF
    g = (ys[:, None] + phase // 2) & 0xFF
    b = ((xs[None, :] // 2 + ys[:, None] // 2) + phase) & 0xFF
    return (r | (g << np.uint32(8)) | (b << np.uint32(16))
            | np.uint32(0xFF000000)).astype(np.uint32)


def _gen_gradient(spec: SyntheticSpec) -> list[np.ndarray]:
    return [_gradient_field(spec.width, spec.height, 3 * t) for t in range(spec.frames)]


def _gen_noise(spec: SyntheticSpec) -> list[np.ndarray]:
    w, h = spec.width, spec.height
    rng = SplitMix64(spec.seed)
    pal = _palette(rng, max(spec.palette_size, 2))
    frames = []
    for t in range(spec.frames):
        draws = splitmix64_array((spec.seed * 0x9E37 + t + 1) & ((1 << 64) - 1), w * h)
        idx = (draws % np.uint64(len(pal))).astype(np.int64)
        frames.append(pal[idx].reshape(h, w))
    return frames

import math

import numpy as np
import pytest

from dcpbench.metrics import color_cdf, color_change, entropy, pixel_change, unique_colors
from dcpbench.surface import Frame


def F(array):
    return Frame(np.asarray(array, dtype=np.uint32))


def test_identical_frames_score_zero(rng):
    pixels = rng.integers(0, 50, size=(16, 16)).astype(np.uint32)
    assert pixel_change(F(pixels), F(pixels)) == 0.0
    assert color_change(F(pixels), F(pixels)) == 0.0


def test_full_replacement_scores_one():
    white = F(np.full((8, 8), 0xFFFFFFFF))
    black = F(np.zeros((8, 8)))
    assert pixel_change(white, black) == 1.0
    assert color_change(white, black) == 1.0


def test_permutation_has_zero_color_change(rng):
    pixels = rng.integers(0, 999, size=256).astype(np.uint32)
    shuffled = pixels.copy()
    rng.shuffle(shuffled)
    a, b = F(pixels.reshape(16, 16)), F(shuffled.reshape(16, 16))
    assert color_change(a, b) == 0.0
    assert pixel_change(a, b) >= 0.0


def test_row_shift_matches_double_loop_oracle(rng):
    pixels = rng.integers(0, 7, size=(12, 10)).astype(np.uint32)
    shifted = np.roll(pixels, 1, axis=0)
    got = pixel_change(F(pixels), F(shifted))
    diff = sum(
        int(pixels[y, x] != shifted[y, x]) for y in range(12) for x in range(10))
    assert got == diff / 120


def test_color_change_matches_histogram_oracle(rng):
    a = rng.integers(0, 40, size=(10, 10)).astype(np.uint32)
    b = rng.integers(0, 40, size=(10, 10)).astype(np.uint32)
    got = color_change(F(a), F(b))
    ha, hb = {}, {}
    for v in a.reshape(-1).tolist():
        ha[v] = ha.get(v, 0) + 1
    for v in b.reshape(-1).tolist():
        hb[v] = hb.get(v, 0) + 1
    total = sum(abs(ha.get(c, 0) - hb.get(c, 0)) for c in set(ha) | set(hb))
    assert got == total / 200


def test_inequality_color_le_pixel(rng):
    for _ in range(100):
        a = rng.integers(0, 9, size=(8, 8)).astype(np.uint32)
        b = a.copy()
        edits = rng.integers(0, 20)
        for _ in range(edits):
            b[rng.integers(8), rng.integers(8)] = rng.integers(0, 9)
        assert color_change(F(a), F(b)) <= pixel_change(F(a), F(b)) + 1e-12


def test_metrics_symmetric(rng):
    a = rng.integers(0, 9, size=(8, 8)).astype(np.uint32)
    b = rng.integers(0, 9, size=(8, 8)).astype(np.uint32)
    assert pixel_change(F(a), F(b)) == pixel_change(F(b), F(a))
    assert color_change(F(a), F(b)) == color_change(F(b), F(a))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        pixel_change(F(np.zeros((8, 8))), F(np.zeros((8, 16))))
    with pytest.raises(ValueError):
        color_change(F(np.zeros((8, 8))), F(np.zeros((4, 8))))


def test_entropy_known_values():
    assert entropy(F(np.zeros((8, 8)))) == 0.0
    half = np.zeros((8, 8), dtype=np.uint32)
    half[:, 4:] = 1
    assert entropy(F(half)) == pytest.approx(1.0)
    uniform = np.arange(256, dtype=np.uint32).reshape(16, 16)
    assert entropy(F(uniform)) == pytest.approx(8.0)


def test_entropy_of_one_color_is_positive_zero():
    assert math.copysign(1.0, entropy(F(np.full((1, 1), 7)))) == 1.0
    assert math.copysign(1.0, entropy(F(np.zeros((8, 8))))) == 1.0


def test_entropy_bounded_by_unique_colors(rng):
    pixels = rng.integers(0, 20, size=(16, 16)).astype(np.uint32)
    frame = F(pixels)
    assert entropy(frame) <= np.log2(unique_colors(frame)) + 1e-12


def test_color_cdf():
    uniform = np.arange(256, dtype=np.uint32).reshape(16, 16)
    assert color_cdf(F(uniform), 128) == pytest.approx(0.5)
    assert color_cdf(F(np.zeros((8, 8))), 1) == 1.0
    skew = np.zeros(100, dtype=np.uint32)
    skew[:20] = np.arange(1, 21)
    assert color_cdf(F(skew.reshape(10, 10)), 1) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        color_cdf(F(np.zeros((8, 8))), 0)

"""Temporal-coherence metrics: pixel change, color change, entropy, color CDF.

Pixel change counts positions whose color differs between two frames; color
change compares the frames' color histograms regardless of position, so
moving content scores zero. Color change is normalized by 2*N so a frame
whose every pixel switches to an unseen color scores exactly 1.0, which
makes color_change <= pixel_change hold for every pair.
"""

from __future__ import annotations

import numpy as np

from .surface import Frame


def _check_dims(f1: Frame, f2: Frame) -> None:
    if f1.pixels.shape != f2.pixels.shape:
        raise ValueError(
            f"frame dimensions differ: {f1.width}x{f1.height} vs {f2.width}x{f2.height}")


def pixel_change(f1: Frame, f2: Frame) -> float:
    _check_dims(f1, f2)
    return float(np.count_nonzero(f1.pixels != f2.pixels)) / f1.pixels.size


def color_change(f1: Frame, f2: Frame) -> float:
    _check_dims(f1, f2)
    c1, n1 = np.unique(f1.pixels, return_counts=True)
    c2, n2 = np.unique(f2.pixels, return_counts=True)
    union = np.union1d(c1, c2)
    h1 = np.zeros(union.size, dtype=np.int64)
    h2 = np.zeros(union.size, dtype=np.int64)
    h1[np.searchsorted(union, c1)] = n1
    h2[np.searchsorted(union, c2)] = n2
    return float(np.abs(h1 - h2).sum()) / (2 * f1.pixels.size)


def entropy(frame: Frame) -> float:
    """Shannon entropy of the exact color histogram, in bits per pixel."""
    _, counts = np.unique(frame.pixels, return_counts=True)
    p = counts / frame.pixels.size
    # Every term is <= 0, so abs is the negation but for one color's -0.0.
    return float(abs((p * np.log2(p)).sum()))


def color_cdf(frame: Frame, k: int) -> float:
    """Fraction of pixels covered by the k most frequent colors."""
    if k < 1:
        raise ValueError("k must be positive")
    _, counts = np.unique(frame.pixels, return_counts=True)
    top = np.sort(counts)[::-1][:k]
    return float(top.sum()) / frame.pixels.size


def unique_colors(frame: Frame) -> int:
    return int(np.unique(frame.pixels).size)

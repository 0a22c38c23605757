"""Reference kernel that measures how fast the host runs at the moment.

On a shared VM the same pass can take anywhere from 1x to 2x its quiet
time, in episodes of seconds to minutes that no run length averages out.
run.py therefore times this fixed kernel before the first round and after
every round, and rescales the run's host times to a reference speed:

    scaled = measured time * REFERENCE_S / mean kernel time of the run

The kernel is frozen benchmark code and never calls the program, so a
change to dcpbench moves the scaled times exactly as it moves the measured
ones. It mixes the four kinds of host work the workloads spend their time
on: an interpreter loop, a small dict with min() eviction (the collector),
shifts of one large integer (the bit reader) and numpy array passes (the
cost engines). Each part takes roughly a quarter of the kernel.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds that define the reference speed: about the median of 108
# kernel times on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4), so that
# scaled times there read close to the times as measured.
REFERENCE_S = 0.45

_STREAM = [(i * 7919 + (i >> 3) * 104729) % 400 for i in range(7500)]
_BIG = int.from_bytes(bytes(range(256)) * 400, "little")
_ARRAY = (np.arange(720 * 1280, dtype=np.uint32).reshape(720, 1280) * 2654435761) >> 8


def _interpreter() -> int:
    s = 0
    for i in range(1_000_000):
        s += i * i % 7
    return s


def _collector() -> int:
    sets: dict[int, list[int]] = {}
    for tick, color in enumerate(_STREAM):
        entry = sets.get(color)
        if entry is not None:
            entry[0] += 1
            entry[1] = tick
            continue
        if len(sets) >= 64:
            del sets[min(sets.items(), key=lambda kv: (kv[1][0], kv[0]))[0]]
        sets[color] = [1, tick]
    return len(sets)


def _bit_reader() -> int:
    s = 0
    for i in range(2500):
        s += (_BIG >> (i * 37)) & 0xFFFF
    return s


def _arrays() -> int:
    s = 0
    for _ in range(25):
        s += int(np.count_nonzero(_ARRAY[:, 1:] != _ARRAY[:, :-1]))
        s += int(np.unique(_ARRAY[::8, ::8]).size)
    return s


def kernel_seconds() -> float:
    """Host seconds for one run of the fixed reference kernel."""
    start = time.perf_counter()
    _interpreter()
    _collector()
    _bit_reader()
    _arrays()
    return time.perf_counter() - start

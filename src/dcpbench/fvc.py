"""The frequent-values collector: a bounded associative color counter.

The collector tracks (color, frequency) pairs for the most common pixel
values seen during a frame. Capacity is bounded, so a replacement policy
picks a victim when a new color arrives and its set is full. Everything is
deterministic: iteration is canonical raster order, frequency ties break on
ascending packed color value, and the RANDOM policy draws from a seeded
splitmix64 stream.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass
from itertools import islice
from operator import length_hint

import numpy as np

from .rng import SplitMix64
from .surface import Frame

POLICIES = ("LFC", "2LFC", "LRU", "RANDOM")
MAX_PIXEL_SAMPLING = 16384
# Every set is a dict plus a victim structure, so the entry count bounds the
# collector's memory; a direct-mapped 2**30-entry collector would build 2**30
# of each.
MAX_ENTRY_COUNT = 512
# Colors are packed 32-bit pixels; a heap key is `frequency << 32 | color`.
_COLOR_MASK = (1 << 32) - 1
# RANDOM draws victims ahead in blocks of at most this many outputs.
_DRAW_CHUNK = 4096


class UndefinedCoverageError(ValueError):
    """Coverage is undefined before any sample has been observed."""


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FvcConfig:
    entry_count: int = 64
    ways: int | None = None      # None = fully associative, 1 = direct-mapped
    policy: str = "LFC"
    pixel_sampling: int = 1      # observe one pixel in every n, raster order
    rng_seed: int = 0

    def __post_init__(self):
        if not is_pow2(self.entry_count) or self.entry_count > MAX_ENTRY_COUNT:
            raise ValueError(f"entry_count must be a power of two <= {MAX_ENTRY_COUNT}, "
                             f"got {self.entry_count}")
        if self.ways is not None:
            if not is_pow2(self.ways) or self.ways > self.entry_count:
                raise ValueError(f"ways must be a power of two <= entry_count, got {self.ways}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not is_pow2(self.pixel_sampling) or self.pixel_sampling > MAX_PIXEL_SAMPLING:
            raise ValueError(
                f"pixel_sampling must be a power of two in 1..{MAX_PIXEL_SAMPLING}")

    @property
    def num_sets(self) -> int:
        return 1 if self.ways is None else self.entry_count // self.ways

    @property
    def ways_effective(self) -> int:
        return self.entry_count if self.ways is None else self.ways


class Fvc:
    """Bounded color -> frequency tracker with eviction.

    Colors are packed 32-bit pixel values, 0..2**32-1; observe_run() rejects
    anything else. Set index for associative configurations is the low
    log2(num_sets) bits of the color. Capacity is at most MAX_ENTRY_COUNT
    (512) entries. Each set is a dict color -> frequency, and each policy
    keeps one structure per set that finds its victim without scanning the
    set:

    - LFC/2LFC: a min-heap of packed keys `frequency << 32 | color`, one per
      resident color. Colors fit in 32 bits, so the int order is the
      (frequency, color) order. A hit only bumps the dict, so a key's
      frequency may lag; an eviction refreshes lagging keys at the top until
      the top is exact. O(log ways) per eviction, amortized over the hits.
    - LRU: the dict's own order. A hit moves the color to the end, so the
      victim is the first key. O(1).
    - RANDOM: the set's colors as a sorted list; the victim is the entry at a
      drawn index, and a memmove of at most `ways` keys removes it. A full
      set holds exactly `ways` colors, so victims are drawn ahead in blocks
      of splitmix64 outputs reduced `% ways`; the RNG then advances by the
      draws used, exactly as one next_below() per eviction would.

    LFC and 2LFC share one heap loop, `_runs_lfc`; 2LFC is LFC that spares
    its least key, holding it out of the heap while the second least goes.
    LRU and RANDOM each have their own loop. The loop is picked once in
    __init__; observe_run() is a one-run call to it. observe_frame() counts
    the frame's samples and classifies its runs once: one stable sort of
    the run colors gives each distinct color's first run, and one search of
    the resident colors tells which colors are new. Then it takes one of
    two paths:

    - No set can overflow (every set's resident colors plus the frame's new
      distinct colors fit in `ways`): the loop enters only the new colors,
      which cannot evict, and the frame's counts are applied in one
      vectorized pass, leaving the collector exactly as the loop would, with
      no RNG draw.
    - Otherwise the frame's runs go through the loop. A run is a guaranteed
      miss when it is the first run of a new color. Under LFC, 2LFC and
      LRU, a miss into a full set takes the rest of its streak of
      guaranteed misses in one step. The runs are taken set by set (one
      stable sort by set index), which leaves every set as raster order
      does. A full set of W ways with entries S, taking a streak of keys
      x_1..x_L, ends with:
      - LFC: the W-1 greatest keys of S and x_1..x_(L-1), then x_L, since
        each miss evicts the least key and inserts one.
      - 2LFC: the least key of that union, the W-2 greatest of the rest,
        then x_L.
      - LRU: the last max(0, W - L) entries of S, then the streak's last
        min(L, W) runs.
      An LFC or 2LFC step picks the streak's greatest keys (one partition
      when there are more than the set can keep) and merges them into the
      heap in descending order, each replacing the set's least while it is
      greater: O(L) numpy work and O(min(L, W) log W) Python work. Hits,
      other misses and fills of a set that is not yet full go through the
      loop one at a time, as does every run under RANDOM (each of its
      evictions draws, and the draws' order is part of the result).
    """

    def __init__(self, config: FvcConfig | None = None):
        self.config = config or FvcConfig()
        nsets = self.config.num_sets
        self._set_mask = nsets - 1
        self._ways = self.config.ways_effective
        self._rng = SplitMix64(self.config.rng_seed)
        self._sets: list[dict[int, int]] = [{} for _ in range(nsets)]
        # Per-set victim structure: the packed-key heap for LFC/2LFC, the
        # sorted color list for RANDOM; unused by LRU.
        self._victims: list[list[int]] = [[] for _ in range(nsets)]
        self._lru = self.config.policy == "LRU"
        policy = self.config.policy
        if self._ways == 1 and policy != "RANDOM":
            # A one-entry set evicts its only entry under LFC, 2LFC and LRU
            # alike, with no victim structure; RANDOM still draws.
            policy = "LRU"
        self._runs = {"LFC": self._runs_lfc, "2LFC": self._runs_lfc,
                      "LRU": self._runs_lru, "RANDOM": self._runs_random}[policy]
        # The least entries an eviction spares: 2LFC's victim is the second least.
        self._spare = int(policy == "2LFC")
        # RANDOM draws one victim per eviction, in run order, so it takes
        # every run one at a time; the other loops take streaks in one step.
        self._streak_rules = policy != "RANDOM"
        self._samples = 0

    @property
    def entry_count(self) -> int:
        return self.config.entry_count

    @property
    def samples_observed(self) -> int:
        return self._samples

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def reset(self) -> None:
        """Invalidate all entries and zero the sample counter.

        The replacement RNG keeps its stream position so RANDOM stays
        deterministic across a whole run.
        """
        for s, v in zip(self._sets, self._victims):
            s.clear()
            v.clear()
        self._samples = 0

    def observe_run(self, color: int, count: int) -> None:
        """Observe `count` consecutive occurrences of one color.

        Equivalent to count one-sample runs: after the first occurrence the
        color is resident, so the remainder are guaranteed hits.
        """
        color = int(color)
        if not 0 <= color <= _COLOR_MASK:
            raise ValueError(f"color {color} is outside 0..2**32-1")
        if count <= 0:
            return
        self._samples += count
        self._runs((color,), (count,))

    # Each _runs_* applies runs colors x counts (counts >= 1) in order.
    # A run of a resident color is a hit; any other run is a miss that
    # inserts its color, evicting first when the set is full. Frequency ties
    # break on ascending color.
    #
    # LFC, 2LFC and LRU also take `keys` and `ends` (see _streak_bounds):
    # each run's packed key and the index of its streak's last run. A miss
    # into a full set whose run is not its streak's last takes the rest of
    # the streak in one step by the rule in the class docstring: it reads
    # its run's index off the color iterator's remaining length and skips
    # the runs the step covers, so the loops keep their `for` over the runs
    # and a hit costs no more than without streaks. All other runs take the
    # loop body one at a time.

    def _runs_lfc(self, colors, counts, keys=None, ends=None):
        # 2LFC (spare 1) holds its least key out, so a fresh color is not at
        # once thrashed out; its sets have at least two ways (see __init__).
        sets, heaps, mask, ways = self._sets, self._victims, self._set_mask, self._ways
        spare = self._spare
        push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
        color_iter = iter(colors)
        runs = zip(color_iter, counts)
        for color, count in runs:
            s = sets[color & mask]
            if color in s:
                s[color] += count
                continue
            heap = heaps[color & mask]
            if len(s) < ways:
                push(heap, count << 32 | color)
            else:
                if spare:
                    _exact_top(heap, s)
                    least = pop(heap)
                if ends is not None:
                    i = len(colors) - length_hint(color_iter) - 1
                    end = ends[i]
                    if end > i:
                        kept = _streak_keys(keys, i, end, ways - 1 - spare)
                        if spare and kept[-1] < least:      # the streak's least survives
                            del s[least & _COLOR_MASK]
                            least = kept.pop()
                            s[least & _COLOR_MASK] = least >> 32
                        _merge(heap, s, kept)
                        _skip(runs, end - i)
                        color, count = colors[end], counts[end]
                del s[_exact_top(heap, s)]
                if spare:
                    # `least` is no greater than any key left, so it can take
                    # the victim's place at the top without a sift.
                    heap[0] = least
                    push(heap, count << 32 | color)
                else:
                    replace(heap, count << 32 | color)
            s[color] = count

    def _runs_lru(self, colors, counts, keys=None, ends=None):
        sets, mask, ways = self._sets, self._set_mask, self._ways
        color_iter = iter(colors)
        runs = zip(color_iter, counts)
        for color, count in runs:
            s = sets[color & mask]
            if color in s:
                s[color] = s.pop(color) + count
                continue
            if len(s) >= ways:
                if ends is not None:
                    i = len(colors) - length_hint(color_iter) - 1
                if ends is None or ends[i] == i:
                    del s[next(iter(s))]
                else:
                    end = ends[i] + 1
                    for old in list(islice(s, end - i)):
                        del s[old]
                    tail = max(i, end - ways)
                    s.update(zip(colors[tail:end], counts[tail:end]))
                    _skip(runs, end - i - 1)
                    continue
            s[color] = count

    def _runs_random(self, colors, counts):
        # Uniform over the set's entries in ascending color order.
        sets, keys_of, mask, ways = self._sets, self._victims, self._set_mask, self._ways
        insort, rng = bisect.insort, self._rng
        chunk = min(_DRAW_CHUNK, len(colors))
        draws, used = [], 0
        for color, count in zip(colors, counts):
            s = sets[color & mask]
            if color in s:
                s[color] += count
                continue
            keys = keys_of[color & mask]
            if len(s) >= ways:
                if used == len(draws):
                    rng.advance(used)
                    draws, used = (rng.peek_block(chunk) % np.uint64(ways)).tolist(), 0
                del s[keys.pop(draws[used])]
                used += 1
            insort(keys, color)
            s[color] = count
        rng.advance(used)

    def observe_frame(self, frame: Frame) -> None:
        """Feed a frame through pixel sampling in canonical raster order.

        Position p of the non-padded raster stream is sampled when
        p % pixel_sampling == 0. Runs of equal sampled values collapse into
        (color, count) runs, which is exact for every policy. A frame that
        can overflow a set goes through the policy's run loop in one call,
        with its streaks of guaranteed misses marked for LFC, 2LFC and LRU;
        any other frame takes the vectorized no-overflow path.
        """
        flat = frame.pixels.reshape(-1)
        n = self.config.pixel_sampling
        if n > 1:
            flat = flat[::n]
        starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
        values, lengths = flat[starts], np.diff(starts, append=flat.size)
        del starts
        self._samples += flat.size
        # The distinct colors, ascending, each one's first run, and which
        # colors were not resident before the frame.
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        head = np.ones(values.size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
        colors, first = ordered[head], order[head]
        del order, ordered, head
        resident = np.fromiter((c for s in self._sets for c in s), dtype=np.int64, count=len(self))
        resident = np.append(np.sort(resident), 1 << 32)    # 2**32 equals no color
        new = resident[np.searchsorted(resident, colors)] != colors
        if self._observe_without_eviction(values, lengths, colors, first, new):
            return
        if not self._streak_rules:
            self._runs(values.tolist(), lengths.tolist())
            return
        go_on = np.zeros(values.size, dtype=bool)          # the guaranteed misses
        go_on[first[new]] = True
        del colors, first, new
        if self._set_mask:
            # Sets are independent: taking each set's runs in raster order,
            # one set after another, leaves every set as raster order does.
            by_set = np.argsort(values & self._set_mask, kind="stable")
            values, lengths, go_on = values[by_set], lengths[by_set], go_on[by_set]
            del by_set
        keys, ends = self._streak_bounds(values, lengths, go_on)
        colors, counts = values.tolist(), lengths.tolist()
        del values, lengths         # the loop needs only the lists, keys and ends
        self._runs(colors, counts, memoryview(keys), memoryview(ends))

    def _streak_bounds(self, values: np.ndarray, lengths: np.ndarray,
                       go_on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each run's packed key `count << 32 | color`, and its streak end.

        `values` are grouped by set, and `go_on` marks their guaranteed
        misses; it is overwritten. A streak is a maximal stretch of
        guaranteed misses in one set. A run's end is the index of its
        streak's last run, or its own index when it is no guaranteed miss.
        """
        # A guaranteed miss goes on to the next run when that run is one too,
        # in the same set.
        go_on[:-1] &= go_on[1:]
        go_on[-1] = False
        if self._set_mask:
            set_of = values & self._set_mask
            go_on[:-1] &= set_of[1:] == set_of[:-1]
        # Keys cannot overflow: a frame holds far fewer than 2**32 samples.
        keys = lengths.astype(np.uint64)
        keys <<= np.uint64(32)
        keys |= values
        # A run's end is the first run at or after it that does not go on.
        stops = np.where(go_on, values.size, np.arange(values.size, dtype=np.int32))
        return keys, np.minimum.accumulate(stops[::-1])[::-1]

    def _observe_without_eviction(self, values: np.ndarray, lengths: np.ndarray,
                                  colors: np.ndarray, first: np.ndarray,
                                  new: np.ndarray) -> bool:
        """Apply runs `values` x `lengths` at once if no set can overflow.

        `colors` holds the runs' distinct colors, ascending, `first` each
        one's first run and `new` whether it was not resident. Returns
        False, changing nothing, when some set's resident colors plus its
        new colors exceed `ways`. Otherwise no eviction can happen, and the
        collector ends exactly as the run loop leaves it: the same
        frequencies, new colors entered in order of first occurrence (dict,
        heap and key list alike), and under LRU every observed color moved
        to the end in order of its last run.
        """
        if colors.size > self.config.entry_count:
            return False
        sets, mask = self._sets, self._set_mask
        new_per_set = np.bincount(colors[new] & mask, minlength=len(sets))
        if any(len(s) + k > self._ways for s, k in zip(sets, new_per_set.tolist())):
            return False
        # The frame fits: now each run's color index.
        inverse = np.searchsorted(colors, values)
        # Float weights are exact: a frame holds far fewer than 2**53 samples.
        counts = np.bincount(inverse, weights=lengths).astype(np.int64)
        # New colors enter as in the run loop, and through it: by first
        # occurrence, with their first run's length, which cannot evict here.
        # Then every color gets the rest of its frame count.
        entering = np.sort(first[new])
        self._runs(values[entering].tolist(), lengths[entering].tolist())
        counts[new] -= lengths[first[new]]
        color_list = colors.tolist()
        for c, n in zip(color_list, counts.tolist()):
            sets[c & mask][c] += n
        if self._lru:
            last_end = np.zeros(colors.size, dtype=lengths.dtype)
            np.maximum.at(last_end, inverse, np.cumsum(lengths))
            for i in np.argsort(last_end).tolist():
                c = color_list[i]
                s = sets[c & mask]
                s[c] = s.pop(c)
        return True

    def coverage(self) -> float:
        """Fraction of observed samples whose colors are still resident."""
        if self._samples == 0:
            raise UndefinedCoverageError("no samples observed")
        kept = sum(sum(s.values()) for s in self._sets)
        return kept / self._samples

    def ranked_values(self) -> list[tuple[int, int]]:
        """(color, frequency) pairs, descending frequency, ties on color."""
        items = [cf for s in self._sets for cf in s.items()]
        items.sort(key=lambda cf: (-cf[1], cf[0]))
        return items


def _exact_top(heap: list[int], s: dict[int, int]) -> int:
    """Refresh lagging keys at the heap top until it holds its color's true
    frequency; that key is then the set's true (freq, color) minimum,
    because stored frequencies never exceed true ones. Returns its color."""
    while True:
        key = heap[0]
        color = key & _COLOR_MASK
        true = s[color] << 32 | color
        if key == true:
            return color
        heapq.heapreplace(heap, true)


def _streak_keys(keys: memoryview, start: int, end: int, k: int) -> list[int]:
    """The keys of runs start..end-1 that a streak step may keep, descending:
    their k greatest, then their least; all of them when there are at most
    k. A longer stretch takes one partition for both."""
    n = end - start
    if n <= k:
        return sorted(keys[start:end], reverse=True)
    part = np.partition(np.asarray(keys[start:end]), (0, n - k - 1))
    return [*sorted(part[n - k:].tolist(), reverse=True), int(part[0])]


def _merge(heap: list[int], s: dict[int, int], keys: list[int]) -> None:
    """Enter new colors' keys, descending, into a full set: each replaces
    the set's least key while it is greater. The first key that is not ends
    the merge, as no later key can be."""
    for key in keys:
        color = _exact_top(heap, s)
        if key < heap[0]:
            return
        del s[color]
        heapq.heapreplace(heap, key)
        s[key & _COLOR_MASK] = key >> 32


def _skip(runs, n: int) -> None:
    """Advance the run iterator past its next `n` runs."""
    next(islice(runs, n, n), None)


def relative_coverage(ranked: list[tuple[int, int]], frame: Frame, top_n: int) -> float:
    """Pixel mass of the collector's top-N colors over the true top-N mass.

    `ranked` is a ranked_values() result; N should normally be the
    collector's entry count. An empty ranking covers nothing.
    """
    if top_n == 0:
        raise ValueError("top_n must be positive")
    colors, counts = np.unique(frame.pixels, return_counts=True)
    chosen = np.array([c for c, _ in ranked[:top_n]], dtype=np.uint32)
    pos = np.minimum(np.searchsorted(colors, chosen), len(colors) - 1)
    fvc_mass = int(counts[pos[colors[pos] == chosen]].sum())
    k = min(top_n, len(counts))
    true_mass = int(np.sort(counts)[::-1][:k].sum())
    return fvc_mass / true_mass

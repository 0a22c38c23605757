import heapq

import numpy as np
import pytest

from dcpbench import fvc as fvc_module
from dcpbench.fvc import (
    _DRAW_CHUNK,
    MAX_ENTRY_COUNT,
    POLICIES,
    Fvc,
    FvcConfig,
    UndefinedCoverageError,
    relative_coverage,
)
from dcpbench.rng import SplitMix64
from dcpbench.surface import Frame
from dcpbench.synth import SyntheticSpec, generate


def fvc(entries=64, **kw):
    return Fvc(FvcConfig(entry_count=entries, **kw))


class ReferenceFvc:
    """The scan-based collector, used as the eviction oracle for every policy.

    Each entry holds [frequency, tick of last use], and every miss in a full
    set scans the whole set for its victim.
    """

    def __init__(self, config):
        self.config = config
        self._set_mask = config.num_sets - 1
        self._ways = config.ways_effective
        self._rng = SplitMix64(config.rng_seed)
        self._sets = [{} for _ in range(config.num_sets)]
        self.samples_observed = 0
        self._tick = 0

    def __len__(self):
        return sum(len(s) for s in self._sets)

    def reset(self):
        for s in self._sets:
            s.clear()
        self.samples_observed = 0
        self._tick = 0

    def observe_run(self, color, count):
        if count <= 0:
            return
        color = int(color)
        self.samples_observed += count
        self._tick += count
        s = self._sets[color & self._set_mask]
        entry = s.get(color)
        if entry is not None:
            entry[0] += count
            entry[1] = self._tick
            return
        if len(s) >= self._ways:
            del s[self._pick_victim(s)]
        s[color] = [count, self._tick]

    def _pick_victim(self, s):
        policy = self.config.policy
        if policy == "LFC":
            return min(s.items(), key=lambda kv: (kv[1][0], kv[0]))[0]
        if policy == "2LFC":
            two = heapq.nsmallest(2, s.items(), key=lambda kv: (kv[1][0], kv[0]))
            return two[-1][0]
        if policy == "LRU":
            return min(s.items(), key=lambda kv: kv[1][1])[0]
        keys = sorted(s)
        return keys[self._rng.next_below(len(keys))]

    def observe_frame(self, frame):
        flat = frame.pixels.reshape(-1)[::self.config.pixel_sampling]
        if flat.size == 0:
            return
        change = np.flatnonzero(flat[:-1] != flat[1:]) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [flat.size]))
        for value, a, b in zip(flat[starts].tolist(), starts.tolist(), ends.tolist()):
            self.observe_run(value, b - a)

    def coverage(self):
        return sum(e[0] for s in self._sets for e in s.values()) / self.samples_observed

    def ranked_values(self):
        items = [(c, e[0]) for s in self._sets for c, e in s.items()]
        items.sort(key=lambda cf: (-cf[1], cf[0]))
        return items


def test_basic_counting():
    f = fvc(2)
    for c in (10, 10, 20):
        f.observe_run(c, 1)
    assert f.ranked_values() == [(10, 2), (20, 1)]
    assert f.samples_observed == 3


def test_lfc_evicts_minimum():
    f = fvc(2)
    for _ in range(5):
        f.observe_run(0xA, 1)
    f.observe_run(0xB, 1)
    f.observe_run(0xC, 1)
    assert f.ranked_values() == [(0xA, 5), (0xC, 1)]


def test_histogram_oracle_when_capacity_suffices(rng):
    palette = rng.integers(0, 1 << 32, size=60, dtype=np.uint64).astype(np.uint32)
    palette = np.unique(palette)
    pixels = palette[rng.integers(0, len(palette), size=(32, 32))]
    f = fvc(64)
    f.observe_frame(Frame(pixels))
    colors, counts = np.unique(pixels, return_counts=True)
    order = np.lexsort((colors, -counts))
    expected = [(int(colors[i]), int(counts[i])) for i in order]
    assert f.ranked_values() == expected
    assert f.coverage() == 1.0


def test_coverage_single_color():
    f = fvc(4)
    f.observe_frame(Frame(np.zeros((8, 8), dtype=np.uint32)))
    assert f.coverage() == 1.0


def test_coverage_undefined_without_samples():
    with pytest.raises(UndefinedCoverageError):
        fvc(4).coverage()


def test_eviction_replay_oracle_65_colors():
    # 65 equally frequent colors through a 64-entry collector: coverage must
    # equal a step-by-step replay of the same eviction sequence.
    rng = np.random.default_rng(7)
    stream = np.repeat(np.arange(65, dtype=np.uint32), 16)
    rng.shuffle(stream)
    f = fvc(64)
    ref = ReferenceFvc(FvcConfig(entry_count=64))
    for c in stream.tolist():
        f.observe_run(c, 1)
        ref.observe_run(c, 1)
    assert f.coverage() == ref.coverage()
    assert f.ranked_values() == ref.ranked_values()


def test_ranked_tie_breaks_on_color():
    f = fvc(4)
    for c in (5, 5, 5, 3, 3, 3):
        f.observe_run(c, 1)
    assert f.ranked_values() == [(3, 3), (5, 3)]


@pytest.mark.parametrize("policy", ["LFC", "2LFC", "LRU", "RANDOM"])
def test_observe_run_equivalent_to_loop(policy, rng):
    runs = [(int(rng.integers(0, 6)), int(rng.integers(1, 9))) for _ in range(200)]
    a = fvc(4, policy=policy, rng_seed=5)
    b = fvc(4, policy=policy, rng_seed=5)
    for color, count in runs:
        a.observe_run(color, count)
        for _ in range(count):
            b.observe_run(color, 1)
    assert a.ranked_values() == b.ranked_values()
    assert a.samples_observed == b.samples_observed


def test_pixel_sampling_positions():
    # 1:4 sampling observes raster positions 0, 4, 8, ...
    pixels = np.arange(64, dtype=np.uint32).reshape(8, 8)
    f = fvc(64, pixel_sampling=4)
    f.observe_frame(Frame(pixels))
    assert f.samples_observed == 16
    assert sorted(c for c, _ in f.ranked_values()) == list(range(0, 64, 4))


def test_2lfc_spares_smallest():
    f = fvc(4, policy="2LFC")
    for color, count in ((0xA, 5), (0xB, 1), (0xC, 3), (0xD, 4)):
        f.observe_run(color, count)
    f.observe_run(0xE, 1)
    held = dict(f.ranked_values())
    assert 0xB in held          # the most vulnerable entry survives
    assert 0xC not in held      # the second-least-frequent went
    assert held[0xE] == 1


def test_lru_evicts_stalest():
    f = fvc(4, policy="LRU")
    for c in (1, 2, 3, 4):
        f.observe_run(c, 1)
    f.observe_run(1, 1)   # refresh color 1
    f.observe_run(5, 1)
    held = dict(f.ranked_values())
    assert 2 not in held and 1 in held


def test_random_policy_deterministic():
    def run(seed):
        f = fvc(4, policy="RANDOM", rng_seed=seed)
        for c in range(32):
            f.observe_run(c % 9, 1)
        return f.ranked_values()

    assert run(3) == run(3)
    results = {tuple(run(s)) for s in range(12)}
    assert len(results) > 1


def test_direct_mapped_sets():
    # Direct-mapped: set index is the low 2 bits with 4 single-entry sets.
    f = fvc(4, ways=1)
    f.observe_run(0b100, 1)   # set 0
    f.observe_run(0b1000, 1)  # set 0, evicts regardless of frequency
    held = dict(f.ranked_values())
    assert held == {0b1000: 1}
    f.observe_run(0b101, 1)   # set 1 unaffected by set 0 traffic
    assert dict(f.ranked_values()) == {0b1000: 1, 0b101: 1}


def test_capacity_and_mass_invariants(rng):
    for _ in range(20):
        entries = int(2 ** rng.integers(1, 5))
        f = fvc(entries, policy=str(rng.choice(["LFC", "2LFC", "LRU", "RANDOM"])))
        stream = rng.integers(0, 10, size=400).astype(np.uint32)
        for c in stream.tolist():
            f.observe_run(c, 1)
        assert len(f) <= entries
        assert sum(n for _, n in f.ranked_values()) <= f.samples_observed


def test_reset_clears_state():
    f = fvc(4)
    f.observe_run(1, 1)
    f.reset()
    assert len(f) == 0 and f.samples_observed == 0


def test_relative_coverage_full_capacity(rng):
    pixels = rng.integers(0, 8, size=(16, 16)).astype(np.uint32)
    f = fvc(16)
    frame = Frame(pixels)
    f.observe_frame(frame)
    assert relative_coverage(f.ranked_values(), frame, top_n=16) == 1.0


def test_relative_coverage_of_an_empty_ranking_is_zero(rng):
    frame = Frame(rng.integers(0, 8, size=(16, 16)).astype(np.uint32))
    assert relative_coverage([], frame, top_n=4) == 0.0
    with pytest.raises(ValueError):
        relative_coverage([], frame, top_n=0)


def test_relative_coverage_adversarial_burst():
    # A frequent early color gets displaced by late one-off bursts; the
    # collector's top set then misses mass a full replay would also miss.
    head = np.repeat(np.arange(2, dtype=np.uint32), 20)
    tail = np.arange(2, 10, dtype=np.uint32)   # 8 distinct latecomers
    pixels = np.concatenate([head, np.tile(tail, 3)])
    frame = Frame(pixels.reshape(4, 16))
    f = fvc(2)
    f.observe_frame(frame)
    ref = ReferenceFvc(FvcConfig(entry_count=2))
    for c in pixels.tolist():
        ref.observe_run(c, 1)
    ranked = f.ranked_values()
    assert ranked == ref.ranked_values()
    rc = relative_coverage(ranked, frame, top_n=2)
    colors, counts = np.unique(pixels, return_counts=True)
    true_top = np.sort(counts)[::-1][:2].sum()
    got = sum(int(counts[np.where(colors == c)[0][0]]) for c, _ in ranked)
    assert rc == got / true_top < 1.0


@pytest.mark.parametrize("color", [1 << 32, -1])
def test_observe_run_rejects_colors_outside_pixel_domain(color):
    f = fvc(4)
    with pytest.raises(ValueError):
        f.observe_run(color, 3)
    with pytest.raises(ValueError):
        f.observe_run(color, 0)
    assert len(f) == 0 and f.samples_observed == 0
    top = (1 << 32) - 1
    f.observe_run(top, 3)
    frame = Frame(np.full((2, 2), top, dtype=np.uint32))
    assert relative_coverage(f.ranked_values(), frame, top_n=4) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        FvcConfig(entry_count=48)
    with pytest.raises(ValueError):
        FvcConfig(ways=3)
    with pytest.raises(ValueError):
        FvcConfig(policy="MRU")
    with pytest.raises(ValueError):
        FvcConfig(pixel_sampling=3)
    with pytest.raises(ValueError):
        FvcConfig(pixel_sampling=32768)
    with pytest.raises(ValueError):
        FvcConfig(entry_count=2 * MAX_ENTRY_COUNT)
    assert FvcConfig(entry_count=MAX_ENTRY_COUNT, ways=1).num_sets == MAX_ENTRY_COUNT


# ---------------------------------------------------------------------------
# Differential tests against the scan-based oracle

ASSOCS = {"full": None, "direct": 1, "4-way": 4}


def _pair(policy, assoc, sampling=1, entries=16, seed=11):
    cfg = FvcConfig(entry_count=entries, ways=ASSOCS[assoc], policy=policy,
                    pixel_sampling=sampling, rng_seed=seed)
    return Fvc(cfg), ReferenceFvc(cfg)


def _assert_same(f, ref):
    assert f.ranked_values() == ref.ranked_values()
    assert len(f) == len(ref)
    assert f.samples_observed == ref.samples_observed
    if ref.samples_observed:
        assert f.coverage() == ref.coverage()
    assert f._rng._state == ref._rng._state
    _assert_heaps(f)


def _assert_heaps(f):
    """Each LFC or 2LFC heap holds one key per resident color of its set,
    none above its color's true key, in heap order."""
    if f.config.policy not in ("LFC", "2LFC") or f._ways == 1:
        return
    mask = (1 << 32) - 1
    for s, heap in zip(f._sets, f._victims):
        assert sorted(key & mask for key in heap) == sorted(s)
        assert all(key <= s[key & mask] << 32 | key & mask for key in heap)
        assert all(heap[(j - 1) // 2] <= heap[j] for j in range(1, len(heap)))


def _run_frame(rng, pool, shape=(8, 16), max_run=9):
    """A frame of runs of colors drawn from `pool`, raster order."""
    size = shape[0] * shape[1]
    lengths = rng.integers(1, max_run, size=size)
    values = pool[rng.integers(0, len(pool), size=size)]
    return Frame(np.repeat(values, lengths)[:size].reshape(shape))


class _PathProbe:
    """Records whether each observe_frame on one collector took the
    no-overflow path, from _observe_without_eviction's return value."""

    def __init__(self, f):
        self.took = []
        real = f._observe_without_eviction

        def probing(*args):
            took = real(*args)
            self.took.append(took)
            return took

        f._observe_without_eviction = probing

    def took_fast_path(self, f, frame):
        before = len(self.took)
        f.observe_frame(frame)
        assert len(self.took) == before + 1
        return self.took[-1]


@pytest.mark.parametrize("sampling", [1, 4])
@pytest.mark.parametrize("assoc", list(ASSOCS))
@pytest.mark.parametrize("policy", POLICIES)
def test_frames_match_reference(policy, assoc, sampling):
    rng = np.random.default_rng(101)
    pool = rng.integers(0, 1 << 32, size=48, dtype=np.uint64).astype(np.uint32)
    f, ref = _pair(policy, assoc, sampling)
    probe = _PathProbe(f)
    paths = set()
    for _ in range(40):
        sub = pool[:int(rng.choice([1, 2, 3, 6, 12, 48]))]
        frame = _run_frame(rng, sub)
        paths.add(probe.took_fast_path(f, frame))
        ref.observe_frame(frame)
        _assert_same(f, ref)
    assert paths == {True, False}


@pytest.mark.parametrize("reset", [False, True], ids=["carry", "reset"])
@pytest.mark.parametrize("assoc", list(ASSOCS))
@pytest.mark.parametrize("policy", POLICIES)
def test_mixed_calls_match_reference(policy, assoc, reset):
    rng = np.random.default_rng(202)
    pool = rng.integers(0, 1 << 32, size=40, dtype=np.uint64).astype(np.uint32)
    f, ref = _pair(policy, assoc)
    for step in range(60):
        if rng.random() < 0.5:
            for _ in range(int(rng.integers(1, 30))):
                color = int(pool[rng.integers(0, len(pool))])
                count = int(rng.integers(0, 5))
                f.observe_run(color, count)
                ref.observe_run(color, count)
        else:
            frame = _run_frame(rng, pool[:int(rng.integers(1, len(pool) + 1))])
            f.observe_frame(frame)
            ref.observe_frame(frame)
        _assert_same(f, ref)
        if reset and step % 7 == 6:
            f.reset()
            ref.reset()
            _assert_same(f, ref)


@pytest.mark.parametrize("assoc", list(ASSOCS))
@pytest.mark.parametrize("policy", POLICIES)
def test_fast_path_then_overflow(policy, assoc):
    # The no-overflow path must leave the recency order, heaps and key lists
    # exactly as the run loop does, or the evictions that follow diverge.
    rng = np.random.default_rng(303)
    colors = rng.permutation(1 << 12)[:64].tolist()
    f, ref = _pair(policy, assoc)
    loop = Fvc(f.config)            # fed the same runs one by one
    for c in colors[:6]:
        n = int(rng.integers(1, 5))
        for x in (f, ref, loop):
            x.observe_run(c, n)
    mask = f.config.num_sets - 1
    fill = [c for s in f._sets for c in s]
    free = [f._ways - len(s) for s in f._sets]
    for c in colors[6:]:            # fill every set, overflow none
        if c not in fill and free[c & mask]:
            fill.append(c)
            free[c & mask] -= 1
    frame = Frame(np.array(fill, dtype=np.uint32)[rng.integers(0, len(fill), size=(4, 16))])
    assert _PathProbe(f).took_fast_path(f, frame)
    ref.observe_frame(frame)
    flat = frame.pixels.reshape(-1).tolist()
    starts = [0, *(i for i in range(1, len(flat)) if flat[i] != flat[i - 1])]
    for a, b in zip(starts, [*starts[1:], len(flat)]):
        loop.observe_run(flat[a], b - a)
    _assert_same(f, ref)
    _assert_same(loop, ref)
    assert [list(s.items()) for s in f._sets] == [list(s.items()) for s in loop._sets]
    assert f._victims == loop._victims
    for _ in range(300):
        color = colors[rng.integers(0, len(colors))]
        count = int(rng.integers(1, 4))
        f.observe_run(color, count)
        ref.observe_run(color, count)
        _assert_same(f, ref)


@pytest.fixture(scope="module")
def synthetic_traces():
    return {g: generate(SyntheticSpec(g, 64, 48, 3, seed=7)) for g in ("2d-like", "noise")}


@pytest.mark.parametrize("sampling", [1, 4])
@pytest.mark.parametrize("assoc", list(ASSOCS))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("generator", ["2d-like", "noise"])
def test_synthetic_frames_match_reference(synthetic_traces, generator, policy, assoc, sampling):
    # Palette-hostile content overflows the sets, so every frame runs the
    # policy's run loop; the oracle is checked after each frame.
    f, ref = _pair(policy, assoc, sampling, entries=64)
    probe = _PathProbe(f)
    for frame in synthetic_traces[generator].frames:
        assert not probe.took_fast_path(f, frame)
        ref.observe_frame(frame)
        _assert_same(f, ref)


@pytest.mark.parametrize("assoc", ["full", "4-way"])
def test_random_run_loop_longer_than_one_draw_chunk(assoc):
    # Every run is a new color, so each one past the first 16 evicts: the
    # victims span three draw blocks, and the RNG must end one draw per
    # eviction past its start.
    n = 2 * _DRAW_CHUNK + 100
    colors = (np.arange(n, dtype=np.uint64) * 2654435761 % (1 << 32)).astype(np.uint32)
    f, ref = _pair("RANDOM", assoc, seed=23)
    f.observe_frame(Frame(colors.reshape(1, n)))
    ref.observe_frame(Frame(colors.reshape(1, n)))
    _assert_same(f, ref)
    expected = SplitMix64(23)
    for _ in range(n - 16):
        expected.next_u64()
    assert f._rng._state == expected._state


def test_2lfc_one_way_evicts_sole_entry():
    f = fvc(4, policy="2LFC", ways=1)
    f.observe_run(0b100, 5)
    f.observe_run(0b1000, 1)                   # same set: the only entry goes
    assert f.ranked_values() == [(0b1000, 1)]
    g = fvc(1, policy="2LFC")
    g.observe_run(7, 9)
    g.observe_run(8, 1)
    assert g.ranked_values() == [(8, 1)]


def test_random_one_way_draws_once_per_miss():
    f = fvc(4, policy="RANDOM", ways=1, rng_seed=9)
    ref = ReferenceFvc(f.config)
    evictions = 0
    for color in (0, 4, 4, 8, 1, 5, 5, 0, 2, 3):
        s = f._sets[color & 3]
        evictions += color not in s and len(s) == 1
        f.observe_run(color, 1)
        ref.observe_run(color, 1)
    expected = SplitMix64(9)
    for _ in range(evictions):
        expected.next_u64()
    assert evictions == 4
    assert f._rng._state == expected._state == ref._rng._state
    assert f.ranked_values() == ref.ranked_values()


@pytest.mark.parametrize("policy", POLICIES)
def test_fast_path_takes_frames_that_exactly_fill(policy):
    # 16 entries, 4 ways: set index is the low 2 bits. Color 0x10 is resident
    # in set 0, so a frame holding it plus 3 new set-0 colors and 4 new
    # colors in each other set fills every set exactly.
    def collector():
        f = fvc(16, ways=4, policy=policy)
        f.observe_run(0x10, 2)
        return f

    full = [0x10 | 0, 0x20, 0x30, 0x40] + [(k << 4) | s for s in (1, 2, 3) for k in range(4)]
    f = collector()
    assert _PathProbe(f).took_fast_path(f, Frame(np.array([full], dtype=np.uint32)))
    assert len(f) == 16
    for extra_set in range(4):
        f = collector()
        frame = Frame(np.array([full + [(9 << 4) | extra_set]], dtype=np.uint32))
        assert not _PathProbe(f).took_fast_path(f, frame)


# ---------------------------------------------------------------------------
# Streaks of guaranteed misses, taken in one step under LFC, 2LFC and LRU

def _runs_frame(runs):
    """A one-row frame holding `runs`, (color, count) pairs in raster order."""
    colors, counts = zip(*runs)
    return Frame(np.repeat(np.array(colors, dtype=np.uint32), counts)[None, :])


class _StepCount:
    """Counts the streak steps: each skips, once, the runs its streak covers."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = fvc_module._skip

        def skip(*args):
            self.calls += 1
            return real(*args)

        monkeypatch.setattr(fvc_module, "_skip", skip)


def _streak_case(monkeypatch, policy, before, frames, entries=4, ways=None, sampling=1):
    """Feed `before` runs through observe_run, then `frames` (run lists)
    through observe_frame, checking the collector against the oracle after
    each call. Returns how many streak steps the frames took."""
    cfg = FvcConfig(entry_count=entries, ways=ways, policy=policy, pixel_sampling=sampling,
                    rng_seed=3)
    f, ref = Fvc(cfg), ReferenceFvc(cfg)
    for color, count in before:
        f.observe_run(color, count)
        ref.observe_run(color, count)
    _assert_same(f, ref)
    steps, probe = _StepCount(monkeypatch), _PathProbe(f)
    for runs in frames:
        frame = _runs_frame(runs)
        assert not probe.took_fast_path(f, frame)
        ref.observe_frame(frame)
        _assert_same(f, ref)
    return steps.calls


@pytest.mark.parametrize("policy", POLICIES)
def test_streak_ties_on_frequency(monkeypatch, policy):
    # Every key has frequency 2, so the order is the color's: streak colors
    # fall on both sides of each floor's color (20 for LFC, 30 for 2LFC).
    before = [(10, 2), (20, 2), (30, 2), (40, 2)]
    runs = [(15, 2), (5, 2), (25, 2), (12, 2), (45, 2), (22, 2), (35, 2), (1, 2), (50, 2),
            (21, 2), (19, 2), (41, 2), (2, 2)]
    steps = _streak_case(monkeypatch, policy, before, [runs])
    assert (steps > 0) == (policy != "RANDOM")
    # Equal frequencies with lower and higher counts around them.
    _streak_case(monkeypatch, policy, before, [[(c, 1 + c % 3) for c, _ in runs]])


@pytest.mark.parametrize("policy", POLICIES)
def test_streak_hit_on_churn_slot(monkeypatch, policy):
    # Under LFC and 2LFC, 3 takes the churn slot; a hit on resident 10
    # leaves it there, and the hit on 3 that follows lifts it over the floor
    # between two streaks.
    before = [(10, 9), (20, 5), (30, 5), (40, 5)]
    frames = [[(1, 1), (2, 1), (3, 1), (10, 1), (3, 9), (4, 1), (5, 1), (6, 1), (7, 1)],
              [(8, 1), (9, 1), (11, 1), (8, 1), (12, 1), (13, 1), (11, 2), (14, 1), (15, 1)]]
    assert _streak_case(monkeypatch, policy, before, frames) > 0 or policy == "RANDOM"


@pytest.mark.parametrize("ways", [None, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_streak_starts_while_set_not_full(monkeypatch, policy, ways):
    # Two of eight entries are held; the frame's first new colors fill the
    # set without evicting, and the rest of the same streak overflows it.
    before = [(0x100, 3), (0x201, 1)]
    runs = [((k << 4) | (k % 4), 1 + k % 2) for k in range(1, 40)]
    steps = _streak_case(monkeypatch, policy, before, [runs], entries=8, ways=ways)
    assert (steps > 0) == (policy != "RANDOM")


@pytest.mark.parametrize("policy", POLICIES)
def test_streak_around_colors_resident_before_the_frame(monkeypatch, policy):
    # 7 and 9 were observed before the frame, so their runs are no
    # guaranteed misses: 7 (the least) is evicted by the first streak and
    # comes back as a miss; 9 is hit inside the frame.
    before = [(7, 1), (9, 4), (30, 6), (40, 6)]
    runs = [(1, 1), (2, 1), (7, 2), (3, 1), (9, 1), (4, 1), (5, 1), (7, 1), (6, 1), (8, 1)]
    steps = _streak_case(monkeypatch, policy, before, [runs, runs[::-1]])
    assert (steps > 0) == (policy != "RANDOM")


@pytest.mark.parametrize("policy", ["2LFC", "LFC", "LRU"])
def test_streak_in_two_way_sets(monkeypatch, policy):
    # 2LFC's two-way sets have no third key, so nothing bounds a streak but
    # its own end: the survivor is the least key seen.
    rng = np.random.default_rng(77)
    frames = [[(int(c), int(n)) for c, n in zip(rng.permutation(1 << 10)[:300],
                                                 rng.integers(1, 4, size=300))]
              for _ in range(3)]
    assert _streak_case(monkeypatch, policy, [(5, 2), (9, 1)], frames, entries=8, ways=2) > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_streak_in_one_way_sets(monkeypatch, policy):
    rng = np.random.default_rng(78)
    frames = [[(int(c), 1 + int(c) % 3) for c in rng.permutation(1 << 9)[:200]],
              [(1, 1), (17, 2), (33, 1), (1, 1), (49, 4), (2, 1), (18, 1)]]
    steps = _streak_case(monkeypatch, policy, [(1, 3)], frames, entries=16, ways=1)
    assert (steps > 0) == (policy != "RANDOM")


@pytest.mark.parametrize("ways", [None, 2, 4])
@pytest.mark.parametrize("policy", POLICIES)
def test_streak_with_pixel_sampling(monkeypatch, policy, ways):
    # Sampling one pixel in four merges and splits the written runs.
    rng = np.random.default_rng(79)
    frames = [[(int(c), int(n)) for c, n in zip(rng.integers(0, 64, size=400),
                                                 rng.integers(1, 9, size=400))]
              for _ in range(3)]
    steps = _streak_case(monkeypatch, policy, [], frames, entries=8, ways=ways, sampling=4)
    assert (steps > 0) == (policy != "RANDOM")


@pytest.mark.parametrize("policy", POLICIES)
def test_streak_runs_longer_than_two_to_the_sixteen(monkeypatch, policy):
    long = 1 << 16
    before = [(10, long + 5), (20, 3), (30, 3), (40, long)]
    runs = [(1, long + 1), (2, 1), (3, long + 2), (4, 2), (5, long + 1), (6, 1), (7, 3 * long),
            (8, 1), (9, 1)]
    steps = _streak_case(monkeypatch, policy, before, [runs, runs[::-1]])
    assert (steps > 0) == (policy != "RANDOM")


@pytest.mark.parametrize("assoc", [None, 4, 2, 1])
@pytest.mark.parametrize("policy", POLICIES)
def test_small_alphabet_fuzz_matches_reference(policy, assoc):
    # 24 colors for 8 entries, and no reset: hits, misses of colors evicted
    # earlier in the same frame, and streaks all mix.
    rng = np.random.default_rng(404)
    alphabet = rng.integers(0, 1 << 32, size=24, dtype=np.uint64).astype(np.uint32)
    cfg = FvcConfig(entry_count=8, ways=assoc, policy=policy, rng_seed=404)
    f, ref = Fvc(cfg), ReferenceFvc(cfg)
    for _ in range(80):
        if rng.random() < 0.3:
            for _ in range(int(rng.integers(1, 6))):
                color, count = int(rng.choice(alphabet)), int(rng.integers(1, 5))
                f.observe_run(color, count)
                ref.observe_run(color, count)
        else:
            frame = _run_frame(rng, alphabet[:int(rng.integers(4, 25))],
                               shape=(int(rng.integers(1, 5)), 16), max_run=4)
            f.observe_frame(frame)
            ref.observe_frame(frame)
        _assert_same(f, ref)


@pytest.mark.parametrize("policy, share", [("LFC", 0.15), ("2LFC", 0.15), ("LRU", 0.02),
                                           ("LFC", 0.02), ("2LFC", 0.02)])
def test_streaks_skip_most_runs_on_hostile_content(policy, share):
    # The 2d-like frame holds 48,183 runs of 48,129 distinct colors. The run
    # loop may take only a small share of them one at a time, each with one
    # residency test; streak steps cover the rest. The 0.15 cases are the
    # looser bound of floor-bounded LFC and 2LFC steps; one merge step per
    # streak keeps every policy under 0.02.
    frame = generate(SyntheticSpec("2d-like", 256, 192, 2, seed=5)).frames[0]
    tested = []

    class CountingSet(dict):
        def __contains__(self, color):
            tested.append(color)
            return super().__contains__(color)

    f = fvc(64, policy=policy)
    f._sets = [CountingSet() for _ in f._sets]
    f.observe_frame(frame)
    flat = frame.pixels.reshape(-1)
    starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    assert starts.size == 48183
    assert len(tested) < share * starts.size
    # The same runs one at a time leave the same collector.
    loop = fvc(64, policy=policy)
    for color, count in zip(flat[starts].tolist(), np.diff(starts, append=flat.size).tolist()):
        loop.observe_run(color, count)
    assert f.ranked_values() == loop.ranked_values()
    assert f.samples_observed == loop.samples_observed


@pytest.mark.parametrize("length", [3, 12, 40])
@pytest.mark.parametrize("entries", [4, 16])
@pytest.mark.parametrize("policy", POLICIES)
def test_one_streak_takes_one_step(monkeypatch, policy, entries, length):
    # The exact top is (5, 10). The streak's keys fall on both sides of it,
    # by frequency and, at frequency 5, by color; 3 runs fit in what a
    # 4-entry set keeps, 12 and 40 do not.
    before = [(10 * (k + 1), 5 + k // 4) for k in range(entries)]
    rng = np.random.default_rng(81)
    colors = rng.permutation(np.arange(1, 1000))
    colors = colors[colors % 10 != 0][:length]
    runs = [(int(c), int(n)) for c, n in zip(colors, rng.integers(1, 10, size=length))]
    steps = _streak_case(monkeypatch, policy, before, [runs], entries=entries)
    assert steps == (policy != "RANDOM")


@pytest.mark.parametrize("policy", POLICIES)
def test_streak_after_hits_on_lagging_keys(monkeypatch, policy):
    # Hits raise 10, 20, 30 and 40 above their heap keys, before the frame
    # and within it; the streak's keys fall between stored and true keys.
    before = [(10, 1), (20, 1), (30, 1), (40, 1), (10, 6), (20, 4), (30, 2)]
    runs = [(40, 3), (10, 1), (1, 2), (2, 5), (3, 4), (4, 1), (5, 3), (6, 6), (7, 2), (20, 1),
            (8, 4), (9, 3), (11, 8)]
    assert _streak_case(monkeypatch, policy, before, [runs, runs[::-1]]) > 0 or policy == "RANDOM"


@pytest.mark.parametrize("runs, kept", [
    ([(50, 4), (60, 1), (70, 6), (80, 2)], False),  # (1, 60) undercuts (3, 10)
    ([(50, 4), (60, 6), (70, 1)], True),            # only the last key undercuts
    ([(50, 4), (11, 3), (70, 6), (80, 2)], True),   # (3, 11) is just above
], ids=["dropped", "last-undercuts", "just-above"])
@pytest.mark.parametrize("entries", [4, 16])
def test_2lfc_streak_survivor(monkeypatch, runs, kept, entries):
    # The survivor (3, 10) is the set's least; it stays unless a streak key
    # but the last is less, which then survives in its place.
    before = [(10, 3), *((20 + k, 5) for k in range(entries - 1))]
    cfg = FvcConfig(entry_count=entries, policy="2LFC")
    f, ref = Fvc(cfg), ReferenceFvc(cfg)
    for color, count in before:
        f.observe_run(color, count)
        ref.observe_run(color, count)
    steps = _StepCount(monkeypatch)
    frame = _runs_frame(runs)
    f.observe_frame(frame)
    ref.observe_frame(frame)
    _assert_same(f, ref)
    assert steps.calls == 1
    assert (10 in dict(f.ranked_values())) == kept


@pytest.mark.parametrize("entries, ways", [(2, None), (8, 2)])
def test_2lfc_streaks_in_two_way_sets(monkeypatch, entries, ways):
    # A two-way 2LFC set ends a streak holding the least key seen and the
    # streak's last.
    before = [(c, 3) for c in range(entries)]
    frames = [[(c, 1 + (c * 7) % 5) for c in range(entries, entries + 9 * entries)],
              [(c, 5 - (c * 3) % 4) for c in range(10 * entries, 13 * entries)]]
    assert _streak_case(monkeypatch, "2LFC", before, frames, entries=entries, ways=ways) > 0


@pytest.mark.parametrize("policy", POLICIES)
def test_streaks_into_a_512_entry_set(monkeypatch, policy):
    # One streak four times the set, then 200 two-run streaks, each ended by
    # a hit on the first streak's last color, which every policy but RANDOM
    # keeps: one step per streak.
    rng = np.random.default_rng(82)
    colors = rng.permutation(1 << 16).tolist()
    before = [(c, int(n)) for c, n in zip(colors[:512], rng.integers(1, 9, size=512))]
    long = [(c, int(n)) for c, n in zip(colors[512:2560], rng.integers(1, 12, size=2048))]
    pairs = []
    for k in range(200):
        pairs += [(colors[2560 + 2 * k], 1 + k % 7), (colors[2561 + 2 * k], 1 + k % 5),
                  (long[-1][0], 1)]
    steps = _streak_case(monkeypatch, policy, before, [long, pairs], entries=MAX_ENTRY_COUNT)
    assert steps == (0 if policy == "RANDOM" else 201)


@pytest.mark.parametrize("policy", POLICIES)
def test_few_colors_over_many_runs_take_every_run(monkeypatch, policy):
    # 20 colors in 400 runs overflow 8 entries; at most 20 runs are
    # guaranteed misses, and the hits and misses between them go through
    # the run loop one at a time.
    rng = np.random.default_rng(80)
    runs = [(int(c), int(n)) for c, n in zip(rng.integers(0, 20, size=400) * 7,
                                             rng.integers(1, 4, size=400))]
    _streak_case(monkeypatch, policy, [(3, 2)], [runs, runs[::-1]], entries=8)

"""Replays a trace through one compression scheme and collects statistics.

`replay` is the one palette handoff loop. Frame 0 is warm-up: it populates
the first collector and palette and is never measured. Every later frame is
yielded with the palette built from the most recent collection frame, one
object that encodes, decodes and serializes itself; `run_experiment`
charges the frame through the burst model into a `FrameStats`, keeps what
was yielded, from which `--dump-frames` writes containers, and sums the
frames into the workload with `bandwidth.sum_frames`. Block costs come
from the scheme's vectorized frame engine; a seeded sample of distinct blocks
additionally runs through its exact batch codecs, checking both
losslessness and that the two cost paths agree. What differs between
schemes is read from the table in `schemes.py`, and every engine and codec
is reached through `schemes.resolve`: all engines take the same five
arguments, so one banded call prices any scheme's frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import bandwidth, dcp_codecs
from .bandwidth import ACCOUNTING_MODES, FrameStats, WorkloadStats
from .fvc import Fvc, FvcConfig, is_pow2, relative_coverage
from .palette import Ccd, Palette
from .rng import SplitMix64, mix64
from .schemes import SCHEMES, Scheme, resolve
from .surface import (
    BLOCK,
    SurfaceTrace,
    block_stack,
    block_valid_counts,
    live_mask,
    sub_block_valid_counts,
)

BAND_PIXELS = 1 << 15          # pixels per frame-cost band; bounds the temporaries


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class VerificationError(Exception):
    """A sampled block failed round-trip or cost cross-checking."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's settings: frozen and checked on construction, so
    `dataclasses.replace` checks every copy."""

    scheme: str = "DCP"
    fvc: FvcConfig = field(default_factory=FvcConfig)
    ccd_size: int | None = None          # explicit palette size where legal
    frame_sampling: int = 1              # reuse one palette for N frames
    coverage_threshold: float | None = None
    accounting: str = "full"
    seed: int = 0
    verify_fraction: float = 0.01        # 1.0 verifies every block
    track_relative_coverage: bool = False

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme must be one of {tuple(SCHEMES)}, got {self.scheme!r}")
        scheme = SCHEMES[self.scheme]
        if self.accounting not in ACCOUNTING_MODES:
            raise ConfigError(
                f"accounting must be one of {ACCOUNTING_MODES}, got {self.accounting!r}")
        if self.frame_sampling < 1:
            raise ConfigError("frame_sampling must be >= 1")
        if self.ccd_size is not None:
            if scheme.adaptive:
                raise ConfigError(f"{self.scheme} chooses its own palette size")
            if scheme.palette is None:
                raise ConfigError(f"{self.scheme} does not use a palette")
            if not is_pow2(self.ccd_size):
                raise ConfigError("ccd_size must be a power of two")
            if self.ccd_size > self.fvc.entry_count:
                raise ConfigError("ccd_size cannot exceed the FVC entry count")
            if scheme.max_palette is not None and self.ccd_size > scheme.max_palette:
                raise ConfigError(
                    f"{self.scheme} status bits address at most "
                    f"{scheme.max_palette} palette entries")
        if self.coverage_threshold is not None and not 0.0 <= self.coverage_threshold <= 1.0:
            raise ConfigError("coverage_threshold must lie in [0, 1]")
        if not 0.0 < self.verify_fraction <= 1.0:
            raise ConfigError("verify_fraction must lie in (0, 1]")


@dataclass
class RunResult:
    workload: WorkloadStats
    frames: list[FrameStats]
    blocks_verified: int = 0
    mean_relative_coverage: float = float("nan")
    # The palettes in force for each measured frame, for writing containers.
    replayed: list[ReplayFrame] = field(default_factory=list)


@dataclass(frozen=True)
class ReplayFrame:
    """The palette in force for one measured frame.

    The frame is `trace.frames[index]`; it is not held here, so a result
    that keeps its ReplayFrames does not keep the trace's pixels alive.
    """

    index: int
    palette: Palette                     # empty while gated off, and for RAS and RED
    palette_size: int = 0                # entries built, even when gated off
    rccd_bytes: int = 0                  # palette bytes first sent with this frame
    coverage: float = float("nan")
    enabled: bool = True
    # One value per collection since the previous measured frame (warm-up
    # included), when cfg.track_relative_coverage is set.
    relative_coverages: tuple[float, ...] = ()


def replay(trace: SurfaceTrace, cfg: ExperimentConfig):
    """Yield every measured frame with the palette in force for it.

    This is the palette handoff: warm-up on frame 0, collection every
    cfg.frame_sampling frames, and after each collection the coverage gate,
    the rebuild (`dcp_codecs.advance_frame`) and the collector reset. A
    palette's serialized size is charged to the first frame that uses it.
    A frame's palette is fixed before the collector observes that frame.
    """
    scheme = SCHEMES[cfg.scheme]
    if scheme.palette is None:
        for t in range(1, len(trace)):
            yield ReplayFrame(t, Ccd())
        return
    fvc = Fvc(replace(cfg.fvc, rng_seed=cfg.fvc.rng_seed or cfg.seed))
    palette, coverage, enabled = None, float("nan"), True
    rel_covs: list[float] = []
    last = len(trace) - 1
    for t, frame in enumerate(trace.frames):
        in_force = palette, coverage, enabled
        if t % cfg.frame_sampling == 0:      # always true on the warm-up frame
            # No frame uses a palette built from the last frame, so the last
            # frame is observed only for its relative coverage.
            if t < last or cfg.track_relative_coverage:
                fvc.observe_frame(frame)
            if cfg.track_relative_coverage:
                rel_covs.append(relative_coverage(fvc.ranked_values(), frame,
                                                  top_n=fvc.entry_count))
            if t < last:
                coverage = fvc.coverage() if fvc.samples_observed else 0.0
                if cfg.coverage_threshold is not None:
                    enabled = coverage >= cfg.coverage_threshold
                palette = dcp_codecs.advance_frame(scheme, fvc, trace.width * trace.height,
                                                   cfg.ccd_size)
                fvc.reset()
        if t >= 1:
            built, cov, on = in_force
            yield ReplayFrame(
                index=t,
                palette=built if on else type(built)(),
                palette_size=len(built),
                # A palette travels with the first frame that uses it.
                rccd_bytes=built.byte_size if (t - 1) % cfg.frame_sampling == 0 else 0,
                coverage=cov,
                enabled=on,
                relative_coverages=tuple(rel_covs),
            )
            rel_covs.clear()


def run_experiment(trace: SurfaceTrace, cfg: ExperimentConfig) -> RunResult:
    scheme = SCHEMES[cfg.scheme]
    valid = live_mask(trace.width, trace.height)
    sb_real = sub_block_valid_counts(valid)
    block_real = block_valid_counts(valid)
    raw_bits = 32 * block_real
    uncompressed_bits = int(raw_bits.sum())
    uncompressed_bursts = int(bandwidth.bursts(raw_bits).sum())
    csb_bits = bandwidth.csb_frame_bits(trace.width, trace.height, cfg.scheme)
    csb_bursts = bandwidth.csb_overhead(trace.width, trace.height, cfg.scheme)

    verify_rng = SplitMix64(mix64(cfg.seed ^ 0xB10C5))
    frames_out: list[FrameStats] = []
    replayed: list[ReplayFrame] = []
    blocks_verified = 0
    rel_covs: list[float] = []

    for m in replay(trace, cfg):
        replayed.append(m)
        padded = trace.frames[m.index].padded()
        bits, classes = _banded(resolve(scheme.codec, "frame_cost"), m.palette,
                                padded, valid, sb_real, block_real)
        v_blocks = r_blocks = 0
        if scheme.codec == "hybrid":         # HDCP's classes: the VDCP-won mask
            v_blocks = int(classes.sum())
            r_blocks = int(classes.size) - v_blocks
        fs = FrameStats(
            frame=m.index,
            uncompressed_bits=uncompressed_bits,
            payload_bits=int(bits.sum()),
            csb_bits=csb_bits,
            uncompressed_bursts=uncompressed_bursts,
            payload_bursts=int(bandwidth.charged_bursts(bits, raw_bits).sum()),
            csb_bursts=csb_bursts,
            coverage=m.coverage,
            ccd_size=m.palette_size,
            rccd_bytes=m.rccd_bytes,
            enabled=m.enabled,
            vdcp_blocks=v_blocks,
            ras_blocks=r_blocks,
        )
        fs.rate = bandwidth.rate(fs, cfg.accounting)
        frames_out.append(fs)
        rel_covs += m.relative_coverages
        blocks_verified += _verify_frame(cfg, scheme, m, padded, block_real, bits, verify_rng)

    workload = bandwidth.sum_frames(frames_out, trace.name, trace.category, cfg.scheme,
                                    cfg.accounting)
    mean_rel = float(np.mean(rel_covs)) if rel_covs else float("nan")
    return RunResult(workload, frames_out, blocks_verified, mean_rel, replayed)


def _banded(engine, palette, padded, valid, sb_real, block_real):
    """(bits, classes) per block of a frame-cost engine run over bands of
    block rows, on the calling thread; classes is None for an engine that
    returns its bits alone.

    Blocks are self-contained in every scheme, so splitting on block-row
    boundaries is exact and the results concatenate in order. A band holds
    about BAND_PIXELS pixels, so an engine's temporaries stay small and are
    reused from the heap rather than mapped afresh for every frame.

    Bands run one after another. On a shared 2-vCPU VM a second band thread
    changed a 720p run's speed by -7% to +25%, with the load on the other
    vCPU, so one run's time did not repeat; on one thread it repeats to
    within a few percent.
    """
    nby, nbx = block_real.shape
    rows = max(1, BAND_PIXELS // (BLOCK * BLOCK * nbx))
    results = [
        engine(padded[lo * BLOCK:(lo + rows) * BLOCK], valid[lo * BLOCK:(lo + rows) * BLOCK],
               sb_real[lo * 4:(lo + rows) * 4], block_real[lo:lo + rows], palette)
        for lo in range(0, nby, rows)
    ]
    if isinstance(results[0], tuple):
        return tuple(np.concatenate(parts, axis=0) for parts in zip(*results))
    return np.concatenate(results, axis=0), None


def _verify_frame(cfg, scheme: Scheme, m: ReplayFrame, padded, block_real,
                  engine_bits, rng) -> int:
    """Round-trip a sample of distinct blocks through the exact codecs.

    The sample goes through the family's codec pair as one stack, one
    palette both encoding and decoding (the reference codecs ignore it);
    the encoder's record decodes as it is, as a container's would.
    `schemes.resolve` looks the pair up on its module when called.
    Fully live blocks must also reproduce the vectorized engine's
    accounting bits exactly; edge blocks are checked for losslessness
    only. The first failing block in index order raises, naming the frame
    and the block; a block that fails both checks is reported as a
    round-trip mismatch.
    """
    nby, nbx = block_real.shape
    nblocks = nby * nbx
    indices = _sample(rng, nblocks, max(1, round(cfg.verify_fraction * nblocks)))
    idx = np.array(indices, dtype=np.int64)
    rows, cols = np.divmod(idx, nbx)
    blocks = block_stack(padded)[rows, cols]
    comp = resolve(scheme.codec, "compress_blocks")(blocks, m.palette)
    decoded = resolve(scheme.codec, "decompress_blocks")(comp.csb, comp.payload, m.palette)
    lossy = (decoded.reshape(len(idx), 64) != blocks.reshape(len(idx), 64)).any(axis=1)
    stream = comp.cost_bits
    engine = engine_bits.reshape(-1)[idx]
    costly = (block_real.reshape(-1)[idx] == 64) & (stream != engine)
    bad = np.flatnonzero(lossy | costly)
    if bad.size:
        i = int(bad[0])
        by, bx = divmod(indices[i], nbx)
        if lossy[i]:
            raise VerificationError(
                f"{scheme.name} round-trip mismatch at frame {m.index} block ({bx},{by})")
        raise VerificationError(
            f"{scheme.name} cost mismatch at frame {m.index} block ({bx},{by}): "
            f"stream {int(stream[i])} bits vs engine {int(engine[i])}")
    return len(indices)


def _sample(rng: SplitMix64, n: int, k: int) -> list[int]:
    """k distinct indices in range(n), ascending (Floyd's algorithm)."""
    chosen: set[int] = set()
    for j in range(n - k, n):
        pick = rng.next_below(j + 1)
        chosen.add(j if pick in chosen else pick)
    return sorted(chosen)

import dataclasses

import numpy as np
import pytest

import dcpbench.dcp_codecs
import dcpbench.reference_codecs
import dcpbench.runner
from dcpbench.fvc import FvcConfig
from dcpbench.runner import (
    ConfigError,
    ExperimentConfig,
    VerificationError,
    run_experiment,
)
from dcpbench.surface import Frame, SurfaceTrace
from dcpbench.synth import SyntheticSpec, generate


def static_trace(color=0xFFFFFFFF, frames=3, width=80, height=40, name="static"):
    pixels = np.full((height, width), color, dtype=np.uint32)
    return SurfaceTrace([Frame(pixels.copy()) for _ in range(frames)],
                        name=name, category="synthetic")


def test_static_white_vdcp_closed_form():
    trace = static_trace()
    res = run_experiment(trace, ExperimentConfig(scheme="VDCP", accounting="full"))
    blocks = (80 // 8) * (40 // 8)
    for fs in res.frames:
        assert fs.payload_bits == 0
        assert fs.payload_bursts == 0
        assert fs.rate == pytest.approx(16 * blocks / fs.csb_bursts)


def test_noise_palette_rate_near_one():
    trace = generate(SyntheticSpec(generator="noise", width=96, height=64, frames=3, seed=2))
    for scheme in ("DCP", "ADCP", "VDCP", "HUFFDCP"):
        res = run_experiment(trace, ExperimentConfig(scheme=scheme, accounting="payload"))
        assert res.workload.rate < 1.05


def test_ui_ordering_vdcp_over_red_over_one():
    trace = generate(SyntheticSpec(generator="ui-like", width=96, height=64, frames=4, seed=0))
    vdcp = run_experiment(trace, ExperimentConfig(scheme="VDCP", accounting="full"))
    red = run_experiment(trace, ExperimentConfig(scheme="RED", accounting="full"))
    assert vdcp.workload.rate > red.workload.rate > 1.0


def test_frame_sampling_one_equals_baseline():
    trace = generate(SyntheticSpec(generator="ui-like", width=64, height=48, frames=5, seed=1))
    base = run_experiment(trace, ExperimentConfig(scheme="VDCP"))
    sampled = run_experiment(trace, ExperimentConfig(scheme="VDCP", frame_sampling=1))
    assert base.frames == sampled.frames


def test_frame_sampling_static_trace_invariant():
    trace = static_trace(frames=5)
    rates = []
    for n in (1, 2):
        res = run_experiment(trace, ExperimentConfig(scheme="ADCP", frame_sampling=n))
        rates.append(res.workload.rate)
    assert rates[0] == pytest.approx(rates[1])


def test_pixel_sampling_invariant_on_static_trace():
    # Static content with frequency order visible at every 16th position:
    # sampled and full histograms rank identically, so rates match.
    pixels = np.zeros((32, 64), dtype=np.uint32)
    pixels[20:, :] = 1   # color 0 outweighs color 1 in every sampled stride
    trace = SurfaceTrace([Frame(pixels.copy()) for _ in range(4)],
                         name="static2", category="synthetic")
    base = run_experiment(trace, ExperimentConfig(
        scheme="VDCP", fvc=FvcConfig(pixel_sampling=1)))
    sampled = run_experiment(trace, ExperimentConfig(
        scheme="VDCP", fvc=FvcConfig(pixel_sampling=16)))
    assert base.workload.rate == pytest.approx(sampled.workload.rate)


def test_frame_sampling_rebuild_cadence():
    trace = generate(SyntheticSpec(generator="ui-like", width=64, height=48, frames=7, seed=3))
    res = run_experiment(trace, ExperimentConfig(scheme="DCP", frame_sampling=3))
    refresh = [f.rccd_bytes > 0 for f in res.frames]
    # Palettes built after frames 0, 3, 6 surface on measured frames 1, 4, 7.
    assert refresh == [True, False, False, True, False, False]


def test_coverage_gate_disables_compression():
    # Two-entry collector over a 3-color frame: coverage < 0.7 disables the
    # next period; payload then equals the raw surface.
    pixels = np.zeros((8, 24), dtype=np.uint32)
    pixels[:, 8:16] = 1
    pixels[:, 16:] = 2
    trace = SurfaceTrace([Frame(pixels.copy()) for _ in range(3)],
                         name="tri", category="synthetic")
    cfg = ExperimentConfig(scheme="DCP", fvc=FvcConfig(entry_count=2),
                           coverage_threshold=0.7, accounting="payload")
    res = run_experiment(trace, cfg)
    assert all(not f.compression_enabled for f in res.frames)
    assert all(f.payload_bits == f.uncompressed_bits for f in res.frames)
    assert all(f.rate == 1.0 for f in res.frames)

    open_cfg = ExperimentConfig(scheme="DCP", fvc=FvcConfig(entry_count=4),
                                coverage_threshold=0.7, accounting="payload")
    res2 = run_experiment(trace, open_cfg)
    assert all(f.compression_enabled for f in res2.frames)
    assert res2.workload.rate > 1.0


def test_frame_zero_content_is_irrelevant_given_histogram(rng):
    # Shuffling frame 0 preserves its histogram, hence the palette, hence
    # every measured number.
    trace = generate(SyntheticSpec(generator="ui-like", width=64, height=48, frames=4, seed=5))
    first = trace.frames[0].pixels.reshape(-1).copy()
    rng.shuffle(first)
    shuffled = SurfaceTrace(
        [Frame(first.reshape(48, 64))] + trace.frames[1:], name="x", category="synthetic")
    a = run_experiment(trace, ExperimentConfig(scheme="VDCP"))
    b = run_experiment(shuffled, ExperimentConfig(scheme="VDCP"))
    assert a.frames == b.frames


def test_full_rate_bounded_by_payload_rate():
    trace = generate(SyntheticSpec(generator="2d-like", width=64, height=48, frames=4, seed=6))
    for scheme in ("DCP", "VDCP", "RAS", "RED", "HDCP"):
        pay = run_experiment(trace, ExperimentConfig(scheme=scheme, accounting="payload"))
        full = run_experiment(trace, ExperimentConfig(scheme=scheme, accounting="full"))
        assert full.workload.rate <= pay.workload.rate + 1e-12


def test_determinism_across_runs_and_jobs():
    trace = generate(SyntheticSpec(generator="ui-like", width=96, height=64, frames=4, seed=8))
    for scheme in ("VDCP", "HDCP", "RAS"):
        cfg = ExperimentConfig(scheme=scheme, seed=8)
        a = run_experiment(trace, cfg)
        b = run_experiment(trace, cfg)
        c = run_experiment(trace, dataclasses.replace(cfg, jobs=3))
        # repr-level equality: nan coverage fields defeat == comparison
        assert repr(a.frames) == repr(b.frames) == repr(c.frames)


@pytest.mark.parametrize("scheme", ["DCP", "ADCP", "VDCP", "HUFFDCP", "RAS", "RED", "HDCP"])
def test_bands_split_frames_exactly(monkeypatch, scheme):
    # 100x60 pads to 13x8 blocks; 3-row bands leave a 2-row band at the end.
    trace = generate(SyntheticSpec(generator="ui-like", width=100, height=60, frames=3, seed=4))
    cfg = ExperimentConfig(scheme=scheme, seed=4)
    whole = run_experiment(trace, cfg)
    calls = []
    for owner in (dcpbench.dcp_codecs, dcpbench.reference_codecs):
        for name in ("dcp_frame_cost", "vdcp_frame_cost", "huffdcp_frame_cost",
                     "ras_frame_cost", "red_frame_cost", "hybrid_frame_cost"):
            engine = getattr(owner, name, None)
            if engine is not None:
                def spy(*args, _engine=engine):
                    calls.append(args[0].shape)
                    return _engine(*args)
                monkeypatch.setattr(owner, name, spy)
    monkeypatch.setattr(dcpbench.runner, "BAND_PIXELS", 3 * 64 * 13)
    banded = run_experiment(trace, cfg)
    assert repr(banded.frames) == repr(whole.frames)
    assert banded.blocks_verified == whole.blocks_verified
    assert set(calls) == {(24, 104), (16, 104)}


def test_hybrid_shares_are_reported():
    trace = generate(SyntheticSpec(generator="2d-like", width=64, height=48, frames=4, seed=9))
    res = run_experiment(trace, ExperimentConfig(scheme="HDCP"))
    w = res.workload
    blocks_per_frame = (64 // 8) * (48 // 8)
    assert w.vdcp_blocks + w.ras_blocks == blocks_per_frame * w.frames_measured
    assert w.vdcp_blocks > 0 and w.ras_blocks > 0


def test_verification_catches_corruption(monkeypatch):
    trace = generate(SyntheticSpec(generator="ui-like", width=64, height=48, frames=3, seed=1))

    real = dcpbench.dcp_codecs.dcp_decompress_blocks

    def corrupt(comps, rccd):
        out = real(comps, rccd)
        out[0, 0, 0] ^= 1
        return out

    monkeypatch.setattr("dcpbench.runner.dcp_codecs.dcp_decompress_blocks", corrupt)
    with pytest.raises(VerificationError, match=r"at frame 1 block \(0,0\)"):
        run_experiment(trace, ExperimentConfig(scheme="DCP", verify_fraction=1.0))


@pytest.mark.parametrize("lossy_block,message", [
    (5, r"cost mismatch at frame 1 block \(2,0\): stream \d+ bits vs engine \d+"),
    (2, r"round-trip mismatch at frame 1 block \(2,0\)"),
    (1, r"round-trip mismatch at frame 1 block \(1,0\)"),
])
def test_verification_catches_cost_mismatch(monkeypatch, lossy_block, message):
    # Block (2,0) costs one bit more in the engine than in its stream; a
    # round-trip fault is put on another block, or on the same one. The
    # first failing block in index order is reported, its round trip first.
    trace = generate(SyntheticSpec(generator="ui-like", width=64, height=48, frames=3, seed=1))
    real_cost = dcpbench.dcp_codecs.dcp_frame_cost
    real_decode = dcpbench.dcp_codecs.dcp_decompress_blocks

    def costly(padded, valid, sb_real, block_real, ccd):
        bits = real_cost(padded, valid, sb_real, block_real, ccd)
        bits[0, 2] += 1
        return bits

    def corrupt(comps, rccd):
        out = real_decode(comps, rccd)
        out[lossy_block, 0, 0] ^= 1
        return out

    monkeypatch.setattr("dcpbench.dcp_codecs.dcp_frame_cost", costly)
    monkeypatch.setattr("dcpbench.dcp_codecs.dcp_decompress_blocks", corrupt)
    with pytest.raises(VerificationError, match=message):
        run_experiment(trace, ExperimentConfig(scheme="DCP", verify_fraction=1.0))


def test_verify_full_checks_every_block():
    trace = static_trace(frames=3, width=64, height=48)
    res = run_experiment(trace, ExperimentConfig(scheme="DCP", verify_fraction=1.0))
    blocks = (64 // 8) * (48 // 8)
    assert res.blocks_verified == blocks * res.workload.frames_measured


@pytest.mark.parametrize("fraction", [1.0, 0.5, 0.01])
def test_verify_fraction_checks_distinct_blocks(fraction, monkeypatch):
    # 160x128 is 320 blocks a frame; each sampled block is verified once.
    trace = generate(SyntheticSpec(generator="ui-like", width=160, height=128, frames=3, seed=1))
    seen = []
    real = dcpbench.dcp_codecs.dcp_compress_blocks

    def recording(blocks, palette):
        seen.extend(block.tobytes() for block in blocks)
        return real(blocks, palette)

    monkeypatch.setattr("dcpbench.dcp_codecs.dcp_compress_blocks", recording)
    res = run_experiment(trace, ExperimentConfig(scheme="DCP", verify_fraction=fraction))
    per_frame = round(fraction * 320)
    assert res.blocks_verified == per_frame * res.workload.frames_measured == len(seen)
    if fraction == 1.0:
        blocks = [trace.frames[t].pixels[y:y + 8, x:x + 8].tobytes()
                  for t in (1, 2) for y in range(0, 128, 8) for x in range(0, 160, 8)]
        assert sorted(seen) == sorted(blocks)


@pytest.mark.parametrize("scheme", ["DCP", "VDCP", "HUFFDCP", "HDCP"])
def test_rccd_bytes_is_the_serialized_palette(scheme):
    trace = generate(SyntheticSpec(generator="ui-like", width=64, height=48, frames=5, seed=4))
    res = run_experiment(trace, ExperimentConfig(scheme=scheme, frame_sampling=2))
    # Palettes built after frames 0 and 2 are first used by frames 1 and 3.
    for f, m in zip(res.frames, res.replayed):
        assert len(m.palette) > 0
        assert f.rccd_bytes == (len(m.palette.to_bytes()) if m.index in (1, 3) else 0)


def test_padded_trace_runs_all_schemes():
    rng = np.random.default_rng(4)
    frames = [Frame(rng.integers(0, 6, size=(13, 21)).astype(np.uint32)) for _ in range(3)]
    trace = SurfaceTrace(frames, name="odd", category="synthetic")
    for scheme in ("DCP", "ADCP", "VDCP", "HUFFDCP", "RAS", "RED", "HDCP"):
        res = run_experiment(trace, ExperimentConfig(scheme=scheme, verify_fraction=1.0))
        for fs in res.frames:
            assert fs.uncompressed_bits == 13 * 21 * 32
            assert fs.payload_bursts <= fs.uncompressed_bursts


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="LZ4").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(accounting="none").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="ADCP", ccd_size=16).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="RAS", ccd_size=16).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="VDCP", ccd_size=128,
                         fvc=FvcConfig(entry_count=256)).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(scheme="DCP", ccd_size=3).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(frame_sampling=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(coverage_threshold=1.5).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(jobs=0).validate()


def test_vdcp_palette_clamped_to_64():
    trace = generate(SyntheticSpec(generator="gradient", width=64, height=48, frames=3, seed=0))
    cfg = ExperimentConfig(scheme="VDCP", fvc=FvcConfig(entry_count=256))
    res = run_experiment(trace, cfg)
    assert all(f.ccd_size <= 64 for f in res.frames)


# Every frame-cost engine and batch codec entry a scheme uses, named at the
# module attribute where callers look it up. Verification calls the batch
# entries; HDCP's run the VDCP and RAS encoders, and `ras_frame_cost` stays
# the engine both RAS and HDCP call.
_DCP, _REF = "dcpbench.dcp_codecs", "dcpbench.reference_codecs"
SCHEME_FUNCTIONS = {
    "DCP": [(_DCP, "dcp_frame_cost"), (_DCP, "dcp_compress_blocks"),
            (_DCP, "dcp_decompress_blocks")],
    "ADCP": [(_DCP, "dcp_frame_cost"), (_DCP, "dcp_compress_blocks"),
             (_DCP, "dcp_decompress_blocks")],
    "VDCP": [(_DCP, "vdcp_frame_cost"), (_DCP, "vdcp_compress_blocks"),
             (_DCP, "vdcp_decompress_blocks")],
    "HUFFDCP": [(_DCP, "huffdcp_frame_cost"), (_DCP, "huffdcp_compress_blocks"),
                (_DCP, "huffdcp_decompress_blocks")],
    "RAS": [(_REF, "ras_frame_cost"), (_REF, "ras_compress_blocks"),
            (_REF, "ras_decompress_blocks")],
    "RED": [(_REF, "red_frame_cost"), (_REF, "red_compress_blocks"),
            (_REF, "red_decompress_blocks")],
    "HDCP": [(_REF, "hybrid_frame_cost"), (_REF, "vdcp_frame_cost"), (_REF, "ras_frame_cost"),
             (_REF, "hybrid_compress_blocks"), (_REF, "hybrid_decompress_blocks"),
             (_REF, "vdcp_compress_blocks"), (_REF, "ras_compress_blocks")],
}


@pytest.mark.parametrize("scheme", list(SCHEME_FUNCTIONS))
def test_engines_and_codecs_looked_up_when_called(scheme, monkeypatch):
    # A scheme table holding function objects would call the originals and
    # bypass patches like these.
    calls = {}
    for module, name in SCHEME_FUNCTIONS[scheme]:
        real = getattr(__import__(module, fromlist=[name]), name)

        def counting(*args, _real=real, _key=(module, name), **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(f"{module}.{name}", counting)
    trace = generate(SyntheticSpec(generator="ui-like", width=32, height=24, frames=2, seed=2))
    run_experiment(trace, ExperimentConfig(scheme=scheme, verify_fraction=1.0))
    assert sorted(calls) == sorted(SCHEME_FUNCTIONS[scheme])

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import frame_from_cells, rand_palette

from dcpbench.bandwidth import charged_bursts, csb_frame_bits, csb_overhead
from dcpbench.dcp_codecs import (
    adcp_optimal_ccd_size,
    dcp_compress_block,
    dcp_decompress_block,
    huffdcp_compress_block,
    huffdcp_decompress_block,
    vdcp_compress_block,
    vdcp_decompress_block,
    vdcp_frame_cost,
)
from dcpbench.fvc import Fvc, FvcConfig
from dcpbench.huffman import build_table
from dcpbench.metrics import color_change, pixel_change
from dcpbench.palette import Ccd, build_ccd
from dcpbench.reference_codecs import (
    hybrid_compress_block,
    hybrid_decompress_block,
    hybrid_frame_cost,
    ras_compress_block,
    ras_decompress_block,
    ras_frame_cost,
    red_compress_block,
    red_decompress_block,
)
from dcpbench.runner import ExperimentConfig, replay, run_experiment
from dcpbench.surface import (
    Frame,
    SurfaceTrace,
    block_valid_counts,
    sub_block_valid_counts,
)
from dcpbench.synth import SyntheticSpec, generate


def report(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Criterion fixtures

def _block_corpus(total=10000):
    """Blocks drawn from random, uniform, gradient, and synthetic-UI frames."""
    per_kind = total // 4
    blocks = []

    def frame_blocks(pixels):
        h, w = pixels.shape
        return [pixels[y:y + 8, x:x + 8]
                for y in range(0, h, 8) for x in range(0, w, 8)]

    rng = np.random.default_rng(101)
    while len(blocks) < per_kind:   # fully random 32-bit pixels
        pixels = rng.integers(0, 1 << 32, size=(64, 320), dtype=np.uint64).astype(np.uint32)
        blocks.extend(frame_blocks(pixels))
    blocks = blocks[:per_kind]

    count = 0
    palette = rand_palette(rng, 96)
    while count < per_kind:         # per-block uniform colors
        grid = palette[rng.integers(0, len(palette), size=(8, 40))]
        pixels = np.kron(grid, np.ones((8, 8), dtype=np.uint32))
        new = frame_blocks(pixels)
        blocks.extend(new)
        count += len(new)

    count = 0
    seed = 0
    while count < per_kind:         # smooth gradients
        tr = generate(SyntheticSpec(generator="gradient", width=320, height=64,
                                    frames=2, seed=seed))
        new = frame_blocks(tr.frames[1].pixels)
        blocks.extend(new)
        count += len(new)
        seed += 1

    count = 0
    seed = 0
    while count < per_kind:         # synthetic UI content
        tr = generate(SyntheticSpec(generator="ui-like", width=320, height=64,
                                    frames=2, seed=seed))
        new = frame_blocks(tr.frames[1].pixels)
        blocks.extend(new)
        count += len(new)
        seed += 1
    return blocks[:total]


def _palettes_for_corpus(blocks):
    sample = np.stack(blocks[::7])
    colors, counts = np.unique(sample, return_counts=True)
    order = np.lexsort((colors, -counts))
    ranked = [(int(colors[i]), int(counts[i])) for i in order]
    ccds = {size: build_ccd(ranked, size) for size in (1, 2, 16, 64)}
    tables = {size: build_table(ranked[:size]) for size in (1, 2, 16, 64)}
    return ccds, tables


def _worked_example_frame_80_18_1_1():
    # 80x40 frame, sub-block uniform cells: 2560 W / 576 B / 32 K / 32 R.
    W, B, K, R = 0xFFFFFFFF, 0xFFCC8844, 0xFF000000, 0xFF2211AA
    cells = np.full(800, W, dtype=np.uint32)
    cells[:8] = K
    cells[8:16] = R
    cells[16:160] = B
    return frame_from_cells(cells.reshape(20, 40))


def _worked_example_frame_skewed_pair():
    # 80x40 frame: 1584 A + 1584 B interleaved inside sub-blocks, 16 C, 16 D.
    A, B, C, D = 0xFF101010, 0xFF202020, 0xFF303030, 0xFF404040
    cells = np.zeros((20, 40, 2, 2), dtype=np.uint32)
    cells[..., :, :] = np.array([[A, B], [A, B]], dtype=np.uint32)
    flat = cells.reshape(-1, 2, 2)
    flat[0:4] = C
    flat[4:8] = D
    return Frame(cells.transpose(0, 2, 1, 3).reshape(40, 80))


def _two_frame_trace(frame):
    return SurfaceTrace([frame, Frame(frame.pixels.copy())],
                        name="worked", category="synthetic")


# ---------------------------------------------------------------------------
# Criteria

def test_c01_lossless_round_trip_all_schemes():
    start = time.time()
    blocks = _block_corpus(10000)
    ccds, tables = _palettes_for_corpus(blocks)
    sizes = (1, 2, 16, 64)
    failures = 0
    for i, block in enumerate(blocks):
        size = sizes[i % 4]
        ccd = ccds[size]
        table = tables[size]
        pairs = (
            dcp_decompress_block(dcp_compress_block(block, ccd), ccd),
            vdcp_decompress_block(vdcp_compress_block(block, ccd), ccd),
            huffdcp_decompress_block(huffdcp_compress_block(block, table), table),
            ras_decompress_block(ras_compress_block(block)),
            red_decompress_block(red_compress_block(block)),
            hybrid_decompress_block(hybrid_compress_block(block, ccd), ccd),
        )
        for out in pairs:
            if not np.array_equal(out, block):
                failures += 1
    elapsed = time.time() - start
    report(1, failures == 0 and elapsed < 60,
           f"lossless round-trip for DCP/ADCP (shared block codec), VDCP, HuffDCP, "
           f"RAS, RED, HDCP over {len(blocks)} blocks x CCD sizes {sizes} "
           f"({failures} failures, {elapsed:.1f}s)")


def test_c02_adaptive_palette_worked_example():
    trace = _two_frame_trace(_worked_example_frame_80_18_1_1())
    adcp = run_experiment(trace, ExperimentConfig(scheme="ADCP", accounting="payload"))
    size_ok = all(f.ccd_size == 2 for f in adcp.frames)
    rate_adcp = adcp.workload.rate
    forced = run_experiment(trace, ExperimentConfig(scheme="DCP", ccd_size=4,
                                                    accounting="payload"))
    rate_forced = forced.workload.rate
    ok = size_ok and abs(rate_adcp - 19.75) <= 0.01 and abs(rate_forced - 16.00) <= 0.01
    report(2, ok,
           f"80/18/1/1 mass: ADCP picks size 2 at {rate_adcp:.4f} (19.75 +/- 0.01), "
           f"forced size 4 gives {rate_forced:.4f} (16.00 +/- 0.01)")


def test_c03_huffman_vs_palette_worked_example():
    trace = _two_frame_trace(_worked_example_frame_skewed_pair())
    huff = run_experiment(trace, ExperimentConfig(scheme="HUFFDCP", accounting="payload"))
    adcp = run_experiment(trace, ExperimentConfig(scheme="ADCP", accounting="payload"))
    vdcp = run_experiment(trace, ExperimentConfig(scheme="VDCP", ccd_size=2,
                                                  accounting="payload"))
    ok = (abs(huff.workload.rate - 21.12) <= 0.05
          and abs(adcp.workload.rate - 24.4) <= 0.1
          and abs(vdcp.workload.rate - 24.4) <= 0.1)
    report(3, ok,
           f"49.5/49.5/0.5/0.5 mass: HuffDCP {huff.workload.rate:.4f} (21.12 +/- 0.05), "
           f"ADCP {adcp.workload.rate:.4f} / VDCP {vdcp.workload.rate:.4f} (24.4 +/- 0.1)")


def test_c04_adaptive_size_matches_exhaustive_search():
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(1000):
        count = int(rng.integers(1, 65))
        freqs = sorted(rng.integers(1, 5000, size=count).tolist(), reverse=True)
        n = int(sum(freqs) + rng.integers(0, 10000))
        got = adcp_optimal_ccd_size(freqs, n, max_size=64)
        best = (Fraction(n * 32), -1)
        for i in range(7):
            covered = min(sum(freqs[: 1 << i]), n)
            bits = Fraction(covered * i + (n - covered) * 32)
            if bits < best[0]:
                best = (bits, i)
        want = 2 ** best[1] if best[1] >= 0 else 1
        mismatches += (got != want)
    report(4, mismatches == 0,
           f"palette-size prediction equals exhaustive minimization on 1000 random "
           f"distributions ({mismatches} mismatches)")


def test_c05_collector_equals_exact_histogram():
    rng = np.random.default_rng(505)
    bad = 0
    trials = 50
    for _ in range(trials):
        palette = rand_palette(rng, int(rng.integers(2, 65)))
        pixels = palette[rng.integers(0, len(palette), size=(24, 24))]
        fvc = Fvc(FvcConfig(entry_count=64))
        fvc.observe_frame(Frame(pixels))
        colors, counts = np.unique(pixels, return_counts=True)
        order = np.lexsort((colors, -counts))
        expected = [(int(colors[i]), int(counts[i])) for i in order]
        if fvc.ranked_values() != expected or fvc.coverage() != 1.0:
            bad += 1
    report(5, bad == 0,
           f"collector matches the exact histogram with coverage 1.0 when capacity "
           f"suffices ({trials} frames, {bad} mismatches)")


def test_c06_burst_model_fixtures():
    fixtures = {0: 0, 1: 1, 128: 1, 129: 2, 2048: 16, 2049: 16}
    charges_ok = all(charged_bursts(bits) == want for bits, want in fixtures.items())
    identity_ok = (csb_frame_bits(720, 1280, "DCP") == 720 * 1280 * 32 // 128
                   and csb_overhead(720, 1280, "DCP") == 1800
                   and csb_overhead(8, 8, "DCP") == 1)
    report(6, charges_ok and identity_ok,
           f"burst charges {sorted(fixtures.items())} and the 1-bit-per-128-surface-bits "
           f"status identity hold")


def test_c07_variable_width_never_beats_fixed_width():
    rng = np.random.default_rng(707)
    palette = rand_palette(rng, 80)
    ccd = Ccd(palette[:64])
    b = ccd.bits_per_code
    violations = 0
    checked = 0
    for _ in range(10000):
        idx = rng.integers(0, len(palette), size=(8, 8))
        block = palette[idx].astype(np.uint32)
        d = dcp_compress_block(block, ccd)
        v = vdcp_compress_block(block, ccd)
        for ds, vs in zip(d.csb, v.csb):
            checked += 1
            d_bits = 4 * b if ds else 128
            v_bits = 128 if vs == 7 else 4 * vs
            violations += (v_bits > d_bits)
    report(7, violations == 0,
           f"per sub-block variable-width payload <= fixed-width payload over 10000 "
           f"shared-palette blocks ({checked} sub-blocks, {violations} violations)")


def test_c08_color_change_bounded_by_pixel_change():
    rng = np.random.default_rng(808)
    violations = 0
    perm_errors = 0
    pairs = 0
    for i in range(1000):
        kind = i % 3
        a = rng.integers(0, 12, size=(16, 16)).astype(np.uint32)
        if kind == 0:           # independent random frames
            b = rng.integers(0, 12, size=(16, 16)).astype(np.uint32)
        elif kind == 1:         # structured edit: scroll plus a dirty rect
            b = np.roll(a, int(rng.integers(1, 8)), axis=rng.integers(0, 2))
            y, x = rng.integers(0, 12, size=2)
            b[y:y + 4, x:x + 4] = rng.integers(0, 12)
        else:                   # pure permutation
            b = a.reshape(-1).copy()
            rng.shuffle(b)
            b = b.reshape(16, 16)
        fa, fb = Frame(a), Frame(b)
        cc, pc = color_change(fa, fb), pixel_change(fa, fb)
        pairs += 1
        violations += (cc > pc + 1e-12)
        if kind == 2:
            perm_errors += (cc != 0.0)
    report(8, violations == 0 and perm_errors == 0,
           f"color change <= pixel change on {pairs} frame pairs ({violations} "
           f"violations); permutations score exactly 0 ({perm_errors} errors)")


def test_c09_scheme_ordering_on_synthetic_corpora():
    start = time.time()
    ui_wins = 0
    for seed in range(10):
        tr = generate(SyntheticSpec(generator="ui-like", width=128, height=96,
                                    frames=4, seed=seed))
        rates = {}
        for scheme in ("VDCP", "RAS", "RED"):
            cfg = ExperimentConfig(scheme=scheme, accounting="full", seed=seed)
            rates[scheme] = run_experiment(tr, cfg).workload.rate
        ui_wins += (rates["VDCP"] > rates["RED"] and rates["VDCP"] > rates["RAS"])

    noise_wins = 0
    for seed in range(10):
        tr = generate(SyntheticSpec(generator="noise", width=128, height=96,
                                    frames=4, seed=seed))
        v = run_experiment(tr, ExperimentConfig(scheme="VDCP", accounting="full",
                                                seed=seed)).workload.rate
        r = run_experiment(tr, ExperimentConfig(scheme="RAS", accounting="full",
                                                seed=seed)).workload.rate
        noise_wins += (r >= v)

    # Hybrid dominance per block across both corpora.
    total_blocks = 0
    dominated = 0
    for gen, seeds in (("ui-like", range(10)), ("noise", range(10))):
        for seed in seeds:
            tr = generate(SyntheticSpec(generator=gen, width=128, height=96,
                                        frames=4, seed=seed))
            _, valid = tr.frames[0].padded()
            sb_real = sub_block_valid_counts(valid)
            block_real = block_valid_counts(valid)
            raw_bursts = (32 * block_real + 127) // 128
            for m in replay(tr, ExperimentConfig(scheme="HDCP")):
                padded, _ = tr.frames[m.index].padded()
                vbits = vdcp_frame_cost(padded, valid, sb_real, block_real, m.palette)
                vbursts = np.minimum((vbits + 127) // 128, raw_bursts)
                rcharged, _ = ras_frame_cost(padded, valid, sb_real, block_real)
                rbursts = (rcharged + 127) // 128
                hbits, _ = hybrid_frame_cost(padded, valid, sb_real, block_real, m.palette)
                hbursts = charged_bursts(hbits, 32 * block_real)
                floor = np.minimum(vbursts, rbursts)
                total_blocks += hbursts.size
                dominated += int((hbursts <= floor).sum())
    elapsed = time.time() - start
    ok = (ui_wins >= 9 and noise_wins >= 9 and dominated == total_blocks
          and elapsed < 300)
    report(9, ok,
           f"VDCP beats RAS and RED on {ui_wins}/10 UI traces; RAS >= VDCP on "
           f"{noise_wins}/10 noise traces; hybrid bursts <= min(VDCP, RAS) on "
           f"{dominated}/{total_blocks} blocks ({elapsed:.1f}s)")


def test_c10_end_to_end_determinism(tmp_path):
    from dcpbench.cli import main

    trace_dir = tmp_path / "trace"
    assert main(["gen", "--generator", "ui-like", "--width", "96", "--height", "64",
                 "--frames", "4", "--seed", "10", "--out", str(trace_dir)]) == 0
    texts = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.csv"
        assert main(["compress", str(trace_dir), "--scheme", "HDCP", "--seed", "10",
                     "--jobs", jobs, "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    ok = texts[0] == texts[1] == texts[2]
    report(10, ok,
           "byte-identical per-frame CSV across repeated runs and "
           "--jobs values")

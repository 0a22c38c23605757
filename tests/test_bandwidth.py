import numpy as np
import pytest

from dcpbench.bandwidth import (
    FrameStats,
    WorkloadStats,
    charged_bursts,
    csb_frame_bits,
    csb_overhead,
    rate,
)


@pytest.mark.parametrize("bits,expect", [(0, 0), (1, 1), (128, 1), (129, 2),
                                         (384, 3), (2048, 16), (2049, 16), (99999, 16)])
def test_charge_block_fixtures(bits, expect):
    assert charged_bursts(bits) == expect


def test_charge_block_effective_rate():
    assert 16 / charged_bursts(384) == pytest.approx(16 / 3)   # a raw block is 16 bursts
    assert charged_bursts(0) == 0      # an empty payload moves no bursts


def test_charge_block_respects_partial_raw_size():
    # An edge block with 8 live pixels never charges past its own raw size.
    assert charged_bursts(999, raw_bits=256) == 2


def test_charge_block_vectorized():
    bits = np.array([[0, 129, 99999], [999, 999, 64]])
    raw = np.array([[2048, 2048, 2048], [256, 2048, 32]])
    assert charged_bursts(bits, raw).tolist() == [[0, 2, 16], [2, 8, 1]]


def test_csb_identity_for_one_bit_schemes():
    bits = csb_frame_bits(720, 1280, "DCP")
    assert bits == 230400 == 720 * 1280 * 32 // 128
    assert csb_overhead(720, 1280, "DCP") == 1800
    assert csb_overhead(720, 1280, "VDCP") == 5400
    assert csb_overhead(720, 1280, "HDCP") == 9000


def test_csb_tiny_frame_rounds_to_one_burst():
    assert csb_frame_bits(8, 8, "DCP") == 16
    assert csb_overhead(8, 8, "DCP") == 1


def test_csb_per_block_schemes():
    assert csb_frame_bits(720, 1280, "RAS") == 14400 * 2
    assert csb_frame_bits(720, 1280, "RED") == 14400 * 2


def test_csb_counts_live_cells_only():
    # 9x8: five sub-block columns hold live pixels, over two blocks.
    assert csb_frame_bits(9, 8, "DCP") == 20
    assert csb_frame_bits(9, 8, "VDCP") == 60


def _stats(ubits=2048, pbits=1024, cbits=16, ubursts=16, pbursts=8, cbursts=1):
    return FrameStats(frame=1, uncompressed_bits=ubits, payload_bits=pbits,
                      csb_bits=cbits, uncompressed_bursts=ubursts,
                      payload_bursts=pbursts, csb_bursts=cbursts, rate=0.0)


def test_rate_modes():
    fs = _stats()
    assert rate(fs, "payload") == 2.0
    assert rate(fs, "payload+csb") == pytest.approx(2048 / 1040)
    assert rate(fs, "full") == pytest.approx(16 / 9)
    with pytest.raises(ValueError):
        rate(fs, "bogus")
    assert rate(_stats(pbits=0), "payload") == float("inf")   # nothing charged


def test_full_rate_never_beats_payload_rate():
    for pbits in (0, 1, 128, 500, 2048):
        fs = _stats(pbits=pbits, pbursts=int(charged_bursts(pbits)))
        assert rate(fs, "full") <= rate(fs, "payload")
        assert rate(fs, "payload+csb") <= rate(fs, "payload")


def test_workload_rate_sums_frames():
    # A workload's rate is that of its frames' summed totals, not a mean of
    # the frame rates (2.0 and 1.0 here).
    frames = [_stats(), _stats(pbits=2048, pbursts=16)]
    totals = {name: sum(getattr(f, name) for f in frames)
              for name in ("uncompressed_bits", "payload_bits", "csb_bits",
                           "uncompressed_bursts", "payload_bursts", "csb_bursts")}
    workload = WorkloadStats("w", "UI", "DCP", "payload", **totals)
    assert rate(workload, "payload") == pytest.approx(4096 / 3072)

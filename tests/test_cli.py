import json

import numpy as np
import pytest

from dcpbench.cli import build_config, build_parser, main
from dcpbench.runner import VerificationError
from dcpbench.surface import Frame, SurfaceTrace, write_trace


@pytest.fixture
def ui_trace(tmp_path):
    out = tmp_path / "trace"
    assert main(["gen", "--generator", "ui-like", "--width", "64", "--height", "48",
                 "--frames", "4", "--seed", "3", "--out", str(out)]) == 0
    return out


def _strip_volatile(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# generated"))


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["gen", "--generator", "noise", "--width", "32", "--height", "16",
                     "--frames", "2", "--seed", "7", "--out", str(out)]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_summary_without_a_finite_rate_is_json(tmp_path):
    # A flat frame is one palette color: DCP codes it in 0 payload bits, so
    # the payload rate is infinite. The summary writes null, the CSV inf.
    flat = np.full((16, 16), 0xFF204060, dtype=np.uint32)
    write_trace(SurfaceTrace([Frame(flat.copy()) for _ in range(3)], name="flat"),
                tmp_path / "flat")
    out = tmp_path / "run.csv"
    assert main(["compress", str(tmp_path / "flat"), "--scheme", "DCP",
                 "--accounting", "payload", "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text(), parse_constant=_no_constant)
    assert summary["rate"] is None
    assert summary["totals"]["payload_bits"] == 0
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 2 and all(row.split(",")[7] == "inf" for row in rows)


def test_compress_writes_csv_and_summary(ui_trace, tmp_path):
    out = tmp_path / "run.csv"
    rc = main(["compress", str(ui_trace), "--scheme", "VDCP", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# dcpbench compress")
    assert "seed=3" in lines[0]
    header = lines[1].split(",")
    assert header[:4] == ["frame", "uncompressed_bits", "payload_bits", "csb_bits"]
    assert len(lines) == 2 + 3   # comment, header, three measured frames

    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["config"]["scheme"] == "VDCP"
    assert summary["frames_measured"] == 3
    assert summary["rate"] > 1.0
    assert "generated_at" in summary


def test_compress_deterministic_and_parallel(ui_trace, tmp_path):
    outs = []
    for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
        path = tmp_path / name
        assert main(["compress", str(ui_trace), "--scheme", "HDCP", "--seed", "5",
                     "--jobs", jobs, "--out", str(path)]) == 0
        outs.append(path.read_text())
    assert outs[0] == outs[1] == outs[2]


def test_compress_accounting_flag(ui_trace, tmp_path):
    rates = {}
    for mode in ("payload", "full"):
        out = tmp_path / f"{mode}.csv"
        assert main(["compress", str(ui_trace), "--scheme", "VDCP",
                     "--accounting", mode, "--out", str(out)]) == 0
        rates[mode] = json.loads(out.with_suffix(".json").read_text())["rate"]
    assert rates["full"] <= rates["payload"]


def test_config_file_merging(ui_trace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": "RED", "accounting": "payload", "seed": 11}))
    out = tmp_path / "out.csv"
    assert main(["compress", str(ui_trace), "--config", str(cfg),
                 "--scheme", "RAS", "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["config"]["scheme"] == "RAS"          # flag wins
    assert summary["config"]["accounting"] == "payload"  # file fills the gap
    assert summary["config"]["seed"] == 11


def test_sweep_first_value_matches_baseline(ui_trace, tmp_path):
    base = tmp_path / "base.csv"
    assert main(["compress", str(ui_trace), "--scheme", "VDCP", "--seed", "2",
                 "--out", str(base)]) == 0
    base_rate = json.loads(base.with_suffix(".json").read_text())["rate"]

    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", str(ui_trace), "--scheme", "VDCP", "--seed", "2",
                 "--dimension", "frame_sampling", "--values", "1,2,3",
                 "--out", str(sweep)]) == 0
    rows = [line.split(",") for line in sweep.read_text().splitlines()[2:]]
    assert len(rows) == 3
    assert float(rows[0][5]) == pytest.approx(base_rate)
    assert float(rows[0][6]) == 1.0    # normalized to the first value


def test_sweep_relative_coverage_saturates(tmp_path):
    trace = tmp_path / "noise"
    assert main(["gen", "--generator", "noise", "--width", "64", "--height", "32",
                 "--frames", "3", "--palette-size", "128", "--seed", "1",
                 "--out", str(trace)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(trace), "--scheme", "DCP",
                 "--dimension", "fvc_size", "--values", "16,128,256",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    rel = {int(r[1]): float(r[8]) for r in rows}
    assert rel[128] == 1.0 and rel[256] == 1.0
    assert rel[16] <= 1.0


def test_sweep_range_validation(ui_trace, tmp_path):
    rc = main(["sweep", str(ui_trace), "--dimension", "fvc_size", "--values", "8",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    rc = main(["sweep", str(ui_trace), "--dimension", "frame_sampling", "--values", "99",
               "--out", str(tmp_path / "y.csv")])
    assert rc == 1
    rc = main(["sweep", str(ui_trace), "--dimension", "pixel_sampling", "--values", "3",
               "--out", str(tmp_path / "z.csv")])
    assert rc == 1


def test_bare_ct_flag_defaults_to_paper_threshold(ui_trace, tmp_path):
    out = tmp_path / "ct.csv"
    assert main(["compress", str(ui_trace), "--scheme", "DCP", "--ct",
                 "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["config"]["coverage_threshold"] == 0.7


def test_analyze_output(ui_trace, tmp_path):
    out = tmp_path / "a.csv"
    assert main(["analyze", str(ui_trace), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[1].split(",")
    assert header[:5] == ["frame", "entropy_bpp", "unique_colors", "pixel_change", "color_change"]
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 4
    assert rows[0][3] == ""   # frame 0 has no predecessor
    for row in rows[1:]:
        assert float(row[4]) <= float(row[3])   # color <= pixel change


def test_exit_code_usage_error():
    assert main(["compress", "/nonexistent", "--scheme", "BOGUS", "--out", "x.csv"]) == 1
    assert main(["sweep"]) == 1
    assert main(["gen", "--generator", "ui-like", "--frames", "1", "--out", "x"]) == 1


def test_exit_code_data_error(tmp_path):
    assert main(["compress", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o.csv")]) == 2
    assert main(["analyze", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o.csv")]) == 2


def test_exit_code_verification_failure(ui_trace, tmp_path, monkeypatch):
    def boom(trace, cfg):
        raise VerificationError("synthetic corruption")

    monkeypatch.setattr("dcpbench.cli.run_experiment", boom)
    rc = main(["compress", str(ui_trace), "--out", str(tmp_path / "o.csv")])
    assert rc == 3


@pytest.mark.parametrize("values", [{"ccd_size": "32"}, {"ccd_size": 32.0}, {"ct": "0.5"}],
                         ids=["ccd-string", "ccd-float", "ct-string"])
def test_config_file_wrong_type(ui_trace, tmp_path, capsys, values):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    rc = main(["compress", str(ui_trace), "--config", str(cfg),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


def test_oversized_collector_is_a_configuration_error(ui_trace, tmp_path, capsys):
    rc = main(["compress", str(ui_trace), "--fvc-size", str(1 << 30), "--assoc", "direct",
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flags, values, fraction", [
    ([], {}, 0.01),
    (["--verify-fraction", "0.5"], {}, 0.5),
    (["--verify-full"], {}, 1.0),
    (["--verify-fraction", "0.5", "--verify-full"], {}, 1.0),
    ([], {"verify_full": True}, 1.0),
    ([], {"verify_full": False, "verify_fraction": 0.25}, 0.25),
], ids=["default", "fraction", "full-flag", "full-wins", "full-key", "fraction-key"])
def test_verify_full_sets_fraction_one(tmp_path, flags, values, fraction):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    args = build_parser().parse_args(["compress", "trace", "--out", "o.csv",
                                      "--config", str(cfg), *flags])
    assert build_config(args).verify_fraction == fraction


def test_invalid_config_combination(ui_trace, tmp_path):
    rc = main(["compress", str(ui_trace), "--scheme", "VDCP", "--fvc-size", "256",
               "--ccd-size", "128", "--out", str(tmp_path / "o.csv")])
    assert rc == 1


def test_dump_frames_round_trip(ui_trace, tmp_path):
    from dcpbench.container import decompress_frame
    from dcpbench.surface import load_trace

    dump = tmp_path / "frames"
    assert main(["compress", str(ui_trace), "--scheme", "VDCP",
                 "--out", str(tmp_path / "o.csv"), "--dump-frames", str(dump)]) == 0
    trace = load_trace(ui_trace)
    files = sorted(dump.iterdir())
    assert len(files) == 3
    for t, path in enumerate(files, start=1):
        assert np.array_equal(decompress_frame(path.read_bytes()).pixels, trace.frames[t].pixels)


@pytest.mark.parametrize("scheme", ["DCP", "HUFFDCP", "HDCP"])
def test_dump_frames_replays_once(ui_trace, tmp_path, monkeypatch, scheme):
    from dcpbench.fvc import Fvc

    calls = []
    real = Fvc.observe_frame

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Fvc, "observe_frame", counting)
    counts = []
    for extra in ([], ["--dump-frames", str(tmp_path / "frames")]):
        calls.clear()
        assert main(["compress", str(ui_trace), "--scheme", scheme,
                     "--out", str(tmp_path / "o.csv"), *extra]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] == 4     # one observation per trace frame

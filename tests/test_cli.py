import json
import os
from pathlib import Path

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


def test_config_file_numbers_are_floats_as_their_flags(ui_trace, tmp_path):
    # An integer for a number key writes the summary its flag's float does.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ct": 1, "verify_fraction": 1}))
    outs = {}
    for name, flags in {"config": ["--config", str(cfg)],
                        "flags": ["--ct", "1", "--verify-fraction", "1"]}.items():
        outs[name] = out = tmp_path / f"{name}.csv"
        assert main(["compress", str(ui_trace), *flags, "--out", str(out)]) == 0
    assert outs["config"].read_bytes() == outs["flags"].read_bytes()
    summaries = [[line for line in out.with_suffix(".json").read_text().splitlines()
                  if '"generated_at"' not in line] for out in outs.values()]
    assert summaries[0] == summaries[1]
    assert '    "coverage_threshold": 1.0,' in summaries[0]


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


def test_sweep_range_validation(ui_trace, tmp_path, capsys):
    # A sweep value is checked where its flag's value is: by the config.
    for dimension, value, error in (
            ("fvc_size", "1024", "entry_count must be a power of two <= 512, got 1024"),
            ("pixel_sampling", "3", "pixel_sampling must be a power of two in 1..16384"),
            ("frame_sampling", "0", "frame_sampling must be >= 1")):
        rc = main(["sweep", str(ui_trace), "--dimension", dimension, "--values", value,
                   "--out", str(tmp_path / "out" / "x.csv")])
        assert rc == 1
        assert f"configuration error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_sweep_values_run_as_their_flags(ui_trace, tmp_path):
    # fvc_size 8 and frame_sampling 61 are values `compress` takes, so a
    # sweep takes them too and gives compress's rates.
    for dimension, flag, values in (("fvc_size", "--fvc-size", ("8", "16")),
                                    ("frame_sampling", "--frame-sampling", ("61",))):
        rates = []
        for value in values:
            out = tmp_path / f"{dimension}-{value}.csv"
            assert main(["compress", str(ui_trace), "--scheme", "VDCP", flag, value,
                         "--out", str(out)]) == 0
            rates.append(json.loads(out.with_suffix(".json").read_text())["rate"])
        sweep = tmp_path / f"{dimension}.csv"
        assert main(["sweep", str(ui_trace), "--scheme", "VDCP", "--dimension", dimension,
                     "--values", ",".join(values), "--out", str(sweep)]) == 0
        rows = [line.split(",") for line in sweep.read_text().splitlines()[2:]]
        assert [row[1] for row in rows] == list(values)
        assert [float(row[5]) for row in rows] == pytest.approx(rates)


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


def test_analyze_writes_a_one_color_entropy_as_zero(tmp_path):
    flat = np.full((1, 1), 0xFF204060, dtype=np.uint32)
    write_trace(SurfaceTrace([Frame(flat.copy()) for _ in range(2)], name="flat"),
                tmp_path / "flat")
    out = tmp_path / "a.csv"
    assert main(["analyze", str(tmp_path / "flat"), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [row[1] for row in rows] == ["0.0", "0.0"]


def test_exit_code_usage_error():
    assert main(["compress", "/nonexistent", "--scheme", "BOGUS", "--out", "x.csv"]) == 1
    assert main(["sweep"]) == 1
    assert main(["gen", "--generator", "ui-like", "--frames", "1", "--out", "x"]) == 1
    assert main(["gen", "--palette-size", "-1", "--out", "x"]) == 1


def test_exit_code_data_error(ui_trace, tmp_path, capsys):
    assert main(["compress", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o.csv")]) == 2
    assert main(["analyze", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "o.csv")]) == 2
    # A config file that is not UTF-8.
    (tmp_path / "c.json").write_bytes(b'{"scheme": "\xff"}')
    assert main(["compress", str(ui_trace), "--config", str(tmp_path / "c.json"),
                 "--out", str(tmp_path / "o.csv")]) == 2
    assert "data error" in capsys.readouterr().err
    # A manifest whose frames are not a list of names.
    manifest = json.loads((ui_trace / "manifest.json").read_text())
    for frames in ([1, 2], "ab"):
        (ui_trace / "manifest.json").write_text(json.dumps({**manifest, "frames": frames}))
        assert main(["analyze", str(ui_trace), "--out", str(tmp_path / "o.csv")]) == 2
        assert "frames must be a list of file names" in capsys.readouterr().err
    # A missing frame file, a frame file of an unsupported type and a
    # manifest that is not JSON: compress exits 2 before writing anything.
    (ui_trace / "frame.gif").write_bytes(b"GIF89a")
    for text, message in (
            (json.dumps({**manifest, "frames": ["frame_00000.raw", "gone.raw"]}),
             "missing frame file gone.raw"),
            (json.dumps({**manifest, "frames": ["frame_00000.raw", "frame.gif"]}),
             "unsupported frame file type 'frame.gif'"),
            ("{not json", "bad manifest")):
        (ui_trace / "manifest.json").write_text(text)
        assert main(["compress", str(ui_trace), "--out", str(tmp_path / "o.csv")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "o.json").exists()


def test_exit_code_verification_failure(ui_trace, tmp_path, monkeypatch):
    from dcpbench.runner import run_experiment

    # A sweep fails on its second run, after one has finished.
    sweep = ["sweep", "--dimension", "fvc_size", "--values", "16,32,64"]
    for command, failing_run in ((["compress"], 1), (sweep, 2)):
        calls = []

        def boom(trace, cfg):
            calls.append(cfg)
            if len(calls) == failing_run:
                raise VerificationError("synthetic corruption")
            return run_experiment(trace, cfg)

        monkeypatch.setattr("dcpbench.cli.run_experiment", boom)
        rc = main([*command, str(ui_trace), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace"]


@pytest.mark.parametrize("values", [
    {"ccd_size": "32"}, {"ccd_size": 32.0}, {"ct": "0.5"},
    {"fvc_size": 64.9}, {"pixel_sampling": 2.5}, {"seed": "7"}, {"frame_sampling": 1.9},
    {"seed": True}, {"verify_fraction": "0.5"}, {"verify_full": "no"}, {"assoc": 4.0},
    {"fvc_sise": 128}, {"sheme": "RAS"}, {"jobs": 2},
], ids=["ccd-string", "ccd-float", "ct-string",
        "fvc-float", "pixel-sampling-float", "seed-string", "frame-sampling-float",
        "seed-bool", "fraction-string", "verify-full-string", "assoc-float",
        "unknown-fvc-sise", "unknown-sheme", "unknown-jobs"])
def test_config_file_wrong_type(ui_trace, tmp_path, capsys, values):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(values))
    rc = main(["compress", str(ui_trace), "--config", str(cfg),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, out", [
    (["compress"], "run.csv"),     # the summary, run.json, is the config file
    (["compress"], "run.json"),
    (["sweep", "--dimension", "policy", "--values", "LFC"], "run.json"),
], ids=["compress-summary", "compress-csv", "sweep-csv"])
def test_outputs_may_not_overwrite_the_config_file(ui_trace, tmp_path, capsys, command, out):
    cfg = tmp_path / "run.json"
    text = json.dumps({"scheme": "VDCP"})
    cfg.write_text(text)
    rc = main([*command, str(ui_trace), "--config", str(cfg), "--out", str(tmp_path / out)])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert cfg.read_text() == text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json", "trace"]


@pytest.mark.parametrize("dump", ["run.csv", "run.json", "c.json", "."],
                         ids=["csv", "summary", "config", "above-csv"])
def test_dump_frames_may_not_be_another_output(ui_trace, tmp_path, capsys, dump):
    (tmp_path / "c.json").write_text(json.dumps({"scheme": "DCP"}))
    rc = main(["compress", str(ui_trace), "--config", str(tmp_path / "c.json"),
               "--out", str(tmp_path / "run.csv"), "--dump-frames", str(tmp_path / dump)])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "trace"]


@pytest.mark.parametrize("dump", ["blocker", "blocker/frames", "run.csv/frames"],
                         ids=["file", "under-file", "under-csv"])
def test_dump_frames_may_not_be_a_file(ui_trace, tmp_path, capsys, dump):
    (tmp_path / "blocker").write_bytes(b"")
    rc = main(["compress", str(ui_trace), "--out", str(tmp_path / "run.csv"),
               "--dump-frames", str(tmp_path / dump)])
    assert rc == 1
    assert "lie under, a file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "trace"]
    assert (tmp_path / "blocker").read_bytes() == b""


@pytest.mark.parametrize("command", [
    ["compress", "--scheme", "DCP"],
    ["sweep", "--dimension", "policy", "--values", "LFC"],
    ["analyze"],
], ids=["compress", "sweep", "analyze"])
def test_outputs_may_not_lie_under_a_file(ui_trace, tmp_path, capsys, command):
    (tmp_path / "blocker").write_bytes(b"")
    rc = main([*command, str(ui_trace), "--out", str(tmp_path / "blocker" / "run.csv")])
    assert rc == 1
    assert "lie under, a file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "trace"]
    assert (tmp_path / "blocker").read_bytes() == b""


@pytest.mark.parametrize("command", [
    ["compress", "--scheme", "DCP"],
    ["sweep", "--dimension", "policy", "--values", "LFC"],
    ["analyze"],
], ids=["compress", "sweep", "analyze"])
def test_outputs_may_not_lie_under_a_symlink_loop(ui_trace, tmp_path, capsys, command):
    (tmp_path / "self").symlink_to("self")
    rc = main([*command, str(ui_trace), "--out", str(tmp_path / "self" / "x.csv")])
    assert rc == 1
    assert "cannot be resolved" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["self", "trace"]
    assert (tmp_path / "self").readlink() == Path("self")


@pytest.mark.parametrize("out, message", [
    ("blocker", "lie under, a file"),
    ("blocker/trace", "lie under, a file"),
    ("self", "cannot be resolved"),
    ("self/trace", "cannot be resolved"),
], ids=["file", "under-file", "loop", "under-loop"])
def test_gen_out_follows_the_output_rule(tmp_path, capsys, monkeypatch, out, message):
    # Refused before anything is generated, with nothing written.
    (tmp_path / "blocker").write_bytes(b"")
    (tmp_path / "self").symlink_to("self")
    monkeypatch.setattr("dcpbench.cli.generate", lambda spec: pytest.fail("generated"))
    assert main(["gen", "--width", "16", "--height", "8", "--out", str(tmp_path / out)]) == 1
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "self"]
    assert (tmp_path / "blocker").read_bytes() == b""


@pytest.mark.parametrize("command", [
    ["compress", "--scheme", "DCP"],
    ["sweep", "--dimension", "policy", "--values", "LFC"],
    ["analyze"],
], ids=["compress", "sweep", "analyze"])
def test_symlink_loop_is_refused_where_resolve_returns_it(ui_trace, tmp_path, capsys,
                                                          monkeypatch, command):
    # From Python 3.13 a non-strict resolve returns a path through a loop,
    # as os.path.realpath does, where earlier versions raise RuntimeError.
    monkeypatch.setattr(Path, "resolve", lambda self, strict=False: Path(os.path.realpath(self)))
    test_outputs_may_not_lie_under_a_symlink_loop(ui_trace, tmp_path, capsys, command)


@pytest.mark.parametrize("command, out", [
    (["compress", "--scheme", "DCP"], "run.csv"),   # the summary, run.json, is a directory
    (["compress"], "o"),
    (["sweep", "--dimension", "policy", "--values", "LFC"], "o"),
    (["analyze"], "o"),
], ids=["compress-summary", "compress-csv", "sweep", "analyze"])
def test_file_outputs_may_not_be_directories(ui_trace, tmp_path, capsys, command, out):
    for name in ("o", "run.json"):
        (tmp_path / name).mkdir()
    rc = main([*command, str(ui_trace), "--out", str(tmp_path / out)])
    assert rc == 1
    assert "is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["o", "run.json", "trace"]
    assert [list((tmp_path / name).iterdir()) for name in ("o", "run.json")] == [[], []]


def test_compress_summary_may_not_overwrite_the_csv(ui_trace, tmp_path, capsys):
    # The summary goes to the CSV path with a .json suffix: here, the same file.
    rc = main(["compress", str(ui_trace), "--out", str(tmp_path / "run.json")])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace"]


@pytest.mark.parametrize("command, out", [
    (["compress"], "trace/manifest.csv"),       # the summary would be the manifest
    (["sweep", "--dimension", "policy", "--values", "LFC"], "other/frame_00002.raw"),
    (["analyze"], "trace/frame_00001.raw"),
], ids=["compress", "sweep", "analyze"])
def test_outputs_may_not_overwrite_the_trace(ui_trace, tmp_path, capsys, command, out):
    other = tmp_path / "other"
    assert main(["gen", "--generator", "noise", "--width", "16", "--height", "8",
                 "--frames", "3", "--out", str(other)]) == 0
    traces = [ui_trace, other] if command[0] == "sweep" else [ui_trace]
    before = {p: p.read_bytes() for t in traces for p in t.iterdir()}
    rc = main([*command, *map(str, traces), "--out", str(tmp_path / out)])
    assert rc == 1
    assert "usage error: an output would overwrite the input" in capsys.readouterr().err
    assert {p: p.read_bytes() for t in traces for p in t.iterdir()} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["other", "trace"]


@pytest.mark.parametrize("command", [
    ["compress"], ["analyze"], ["sweep", "--dimension", "policy", "--values", "LFC"],
], ids=["compress", "analyze", "sweep"])
def test_multi_line_trace_name_exits_2_before_writing(ui_trace, tmp_path, capsys, command):
    # The name goes into the CSV's one-line comment header.
    manifest = json.loads((ui_trace / "manifest.json").read_text())
    (ui_trace / "manifest.json").write_text(json.dumps({**manifest, "name": "a\nb"}))
    rc = main([*command, str(ui_trace), "--out", str(tmp_path / "out" / "run.csv")])
    assert rc == 2
    assert "data error: the trace name must be one printable line" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_invalid_manifest_is_refused_before_its_frame_files_are_written(ui_trace, capsys):
    # Its frame files are no inputs, so the output check passes them; the
    # load refuses the manifest before anything is written.
    manifest = json.loads((ui_trace / "manifest.json").read_text())
    (ui_trace / "manifest.json").write_text(json.dumps({**manifest, "width": "64"}))
    frame = ui_trace / "frame_00001.raw"
    before = frame.read_bytes()
    assert main(["analyze", str(ui_trace), "--out", str(frame)]) == 2
    assert "data error: width and height must be integers" in capsys.readouterr().err
    assert frame.read_bytes() == before


@pytest.mark.parametrize("link", ["hardlink_to", "symlink_to"])
def test_outputs_may_not_be_a_link_to_an_input(ui_trace, tmp_path, capsys, link):
    frame = ui_trace / "frame_00001.raw"
    before = frame.read_bytes()
    getattr(tmp_path / "m.csv", link)(frame)
    rc = main(["analyze", str(ui_trace), "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    assert "usage error: an output would overwrite the input" in capsys.readouterr().err
    assert frame.read_bytes() == before


def test_main_calls_share_no_parser_state(ui_trace, tmp_path, monkeypatch):
    # The parser is built once; each call still parses its own argv alone.
    seen = []
    monkeypatch.setattr("dcpbench.cli._cmd_compress", lambda args: seen.append(args) or 0)
    monkeypatch.setattr("dcpbench.cli._cmd_sweep", lambda args: seen.append(args) or 0)
    assert build_parser() is build_parser()
    argvs = (["compress", "a", "--scheme", "HDCP", "--ct", "--dump-frames", "d", "--out", "o"],
             ["sweep", "b", "c", "--dimension", "policy", "--values", "LFC", "--out", "s"],
             ["compress", "e", "--out", "p"])
    for argv in argvs:
        assert main(argv) == 0
    first, sweep, last = (vars(args) for args in seen)
    assert (first["trace"], first["scheme"], first["ct"], first["dump_frames"]) == \
        ("a", "HDCP", 0.7, "d")
    assert sweep["traces"] == ["b", "c"] and "trace" not in sweep
    assert (last["trace"], last["scheme"], last["ct"], last["dump_frames"]) == \
        ("e", None, None, None)
    assert "traces" not in last and last.keys() == first.keys()


def test_jobs_is_checked_and_ignored(ui_trace, tmp_path):
    assert main(["compress", str(ui_trace), "--jobs", "0", "--out", str(tmp_path / "o.csv")]) == 1
    args = build_parser().parse_args(["compress", "trace", "--out", "o.csv", "--jobs", "2"])
    assert build_config(args) == build_config(
        build_parser().parse_args(["compress", "trace", "--out", "o.csv"]))


def test_assoc_full_is_the_default(ui_trace, tmp_path):
    args = build_parser().parse_args(["compress", "trace", "--out", "o.csv", "--assoc", "full"])
    assert build_config(args).fvc.ways is None
    runs = []
    for name, flags in (("default", []), ("full", ["--assoc", "full"])):
        out = tmp_path / f"{name}.csv"
        assert main(["compress", str(ui_trace), "--scheme", "VDCP", *flags,
                     "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("argv, config, error", [
    (["compress", "--assoc", "half"], None, "configuration error: assoc must be"),
    (["compress"], "[1, 2]", "usage error: config file must hold a JSON object"),
    (["compress"], '"VDCP"', "usage error: config file must hold a JSON object"),
    (["sweep", "--dimension", "policy", "--values", " , "], None,
     "usage error: --values is empty"),
    (["sweep", "--dimension", "fvc_size", "--values", "16,big"], None,
     "usage error: fvc_size values must be integers"),
    (["sweep", "--dimension", "pixel_sampling", "--values", "1.5"], None,
     "usage error: pixel_sampling values must be integers"),
    (["compress", "--scheme", "DCP", "--fvc-size", "16", "--ccd-size", "32"], None,
     "configuration error: ccd_size cannot exceed the FVC entry count"),
    (["compress", "--verify-fraction", "0"], None, "verify_fraction must lie in (0, 1]"),
    (["compress", "--verify-fraction", "1.5"], None, "verify_fraction must lie in (0, 1]"),
    (["compress", "--verify-fraction", "-0.5"], None, "verify_fraction must lie in (0, 1]"),
], ids=["assoc-word", "config-list", "config-string", "values-empty", "values-word",
        "values-float", "ccd-over-fvc", "fraction-0", "fraction-1.5", "fraction-negative"])
def test_bad_input_exits_1_before_writing(ui_trace, tmp_path, capsys, argv, config, error):
    extra = []
    if config is not None:
        (tmp_path / "c.json").write_text(config)
        extra = ["--config", str(tmp_path / "c.json")]
    rc = main([*argv, str(ui_trace), *extra, "--out", str(tmp_path / "out" / "o.csv")])
    assert rc == 1
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
def test_gated_dump_frames_round_trip(ui_trace, tmp_path, scheme):
    # A 4-entry collector covers under all of the trace's colors, so CT 1
    # gates every frame: each container holds an empty palette.
    from dcpbench.container import decompress_frame, parse
    from dcpbench.surface import load_trace

    out, dump = tmp_path / "o.csv", tmp_path / "frames"
    assert main(["compress", str(ui_trace), "--scheme", scheme, "--fvc-size", "4", "--ct", "1",
                 "--verify-full", "--out", str(out), "--dump-frames", str(dump)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 3 and all(row[11] == "0" and row[9] != "0" for row in rows)
    trace = load_trace(ui_trace)
    files = sorted(dump.iterdir())
    assert len(files) == 3
    for t, path in enumerate(files, start=1):
        data = path.read_bytes()
        assert len(parse(data)[3]) == 0
        assert np.array_equal(decompress_frame(data).pixels, trace.frames[t].pixels)


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
    # One observation per trace frame but the last, whose palette no frame
    # would use.
    assert counts[0] == counts[1] == 3

"""Golden outputs: byte-identical CLI results on a fixed, seeded matrix.

Every cell runs `dcpbench` in-process and hashes what it wrote: the CSV
bytes, the summary JSON without its `generated_at` stamp, and every dumped
container. A changed digest means a changed rate, report or container
format, so refactors must leave all of them alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dcpbench.cli import main

SCHEMES = ("DCP", "ADCP", "VDCP", "HUFFDCP", "RAS", "RED", "HDCP")
GENERATORS = ("ui-like", "2d-like", "gradient", "noise")
WIDTH, HEIGHT, SEED = 44, 36, 7

# Extra compress cells on ui-like, each run for every scheme that accepts it.
VARIANTS = (
    ("ct", ["--ct", "0.7"]),
    ("ccd16", ["--ccd-size", "16"]),
    ("fs2", ["--frame-sampling", "2"]),
    ("ps4", ["--pixel-sampling", "4"]),
    ("payload", ["--accounting", "payload"]),
)
NO_EXPLICIT_SIZE = ("ADCP", "RAS", "RED")
# A 512-entry collector on many-color content: every measured frame is
# coded through a 512-entry palette, the largest the collector holds.
FVC512_GENERATORS = ("noise", "2d-like")
FVC512_SCHEMES = ("DCP", "ADCP", "HUFFDCP")


def compress_cells() -> dict[str, tuple[str, list[str]]]:
    """Cell id -> (trace, flags); the trace "ui-like-4" has four frames."""
    cells = {f"{gen}-{scheme}": (gen, ["--scheme", scheme])
             for gen in GENERATORS for scheme in SCHEMES}
    for name, flags in VARIANTS:
        for scheme in SCHEMES:
            if name == "ccd16" and scheme in NO_EXPLICIT_SIZE:
                continue
            trace = "ui-like-4" if name == "fs2" else "ui-like"
            cells[f"ui-like-{scheme}-{name}"] = (trace, ["--scheme", scheme, *flags])
    for gen in FVC512_GENERATORS:
        for scheme in FVC512_SCHEMES:
            cells[f"{gen}-{scheme}-fvc512"] = (gen, ["--scheme", scheme, "--fvc-size", "512"])
    return cells


CELLS = compress_cells()


def make_traces(root: Path, width: int = WIDTH, height: int = HEIGHT) -> dict[str, Path]:
    traces = {}
    for gen in GENERATORS:
        traces[gen] = root / gen
        assert main(["gen", "--generator", gen, "--width", str(width), "--height",
                     str(height), "--frames", "3", "--seed", str(SEED),
                     "--out", str(traces[gen])]) == 0
    traces["ui-like-4"] = root / "ui-like-4"
    assert main(["gen", "--generator", "ui-like", "--width", str(width), "--height",
                 str(height), "--frames", "4", "--seed", str(SEED),
                 "--out", str(traces["ui-like-4"])]) == 0
    return traces


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def compress_digest(trace: Path, flags: list[str], work: Path) -> str:
    out, dump = work / "run.csv", work / "dump"
    assert main(["compress", str(trace), *flags, "--verify-full",
                 "--dump-frames", str(dump), "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    del summary["generated_at"]
    parts = [out.read_bytes(), json.dumps(summary, sort_keys=True).encode()]
    parts += [p.read_bytes() for p in sorted(dump.iterdir())]
    return _digest(parts)


def sweep_digest(trace: Path, work: Path, dimension: str = "policy",
                 values: str = "LFC,2LFC,LRU,RANDOM", flags: tuple[str, ...] = ()) -> str:
    out = work / "sweep.csv"
    assert main(["sweep", str(trace), "--scheme", "VDCP", "--dimension", dimension,
                 "--values", values, *flags, "--out", str(out)]) == 0
    return _digest([out.read_bytes()])


def analyze_digest(trace: Path, work: Path) -> str:
    out = work / "analyze.csv"
    assert main(["analyze", str(trace), "--out", str(out)]) == 0
    return _digest([out.read_bytes()])


# Recorded before the scheme table and the replay loop were introduced.
GOLDEN = {
    "ui-like-DCP": "1893c2b96e129278",
    "ui-like-ADCP": "109b5ec01f1c17cc",
    "ui-like-VDCP": "b2da83c0373c7df9",
    "ui-like-HUFFDCP": "1b35e34b9d7be685",
    "ui-like-RAS": "dec7f6f1c38233f2",
    "ui-like-RED": "5fbf64ec067ff2f1",
    "ui-like-HDCP": "5fa99079b633b733",
    "2d-like-DCP": "46ee1822b7dcb296",
    "2d-like-ADCP": "8723305415eed63c",
    "2d-like-VDCP": "5089a383b7936fdb",
    "2d-like-HUFFDCP": "aa81b6b05a01bd85",
    "2d-like-RAS": "d8d766473b37a3d9",
    "2d-like-RED": "cd9fdd34a6575674",
    "2d-like-HDCP": "f22f83f2f5240266",
    "gradient-DCP": "b155f097e4719735",
    "gradient-ADCP": "36f95e7db6cc0ae6",
    "gradient-VDCP": "ed22a6a124ce9f96",
    "gradient-HUFFDCP": "031cdd1c2d72a934",
    "gradient-RAS": "69566f9a6e94b5fe",
    "gradient-RED": "f97087ac844faca2",
    "gradient-HDCP": "310f41a25af496a6",
    "noise-DCP": "5cac8e60b21e3d3a",
    "noise-ADCP": "8d85d34836ccac2a",
    "noise-VDCP": "573d53ca3854e04f",
    "noise-HUFFDCP": "99dd5b68c53131d0",
    "noise-RAS": "1951f3e5d94d4c40",
    "noise-RED": "419e71cb2a4e5702",
    "noise-HDCP": "d0841cebc4120053",
    "ui-like-DCP-ct": "9ebf368b7dfa74b9",
    "ui-like-ADCP-ct": "edcf46b54fd26a29",
    "ui-like-VDCP-ct": "0434f7794912742f",
    "ui-like-HUFFDCP-ct": "fc4e220e18d1c3b3",
    "ui-like-RAS-ct": "beb83d99fef65da6",
    "ui-like-RED-ct": "632c6483afb247c3",
    "ui-like-HDCP-ct": "9164f754901a3877",
    "ui-like-DCP-ccd16": "80e7daeb7dc46505",
    "ui-like-VDCP-ccd16": "531275df7c34049c",
    "ui-like-HUFFDCP-ccd16": "d9f6920b08729a84",
    "ui-like-HDCP-ccd16": "c7185bc90fe2fd73",
    "ui-like-DCP-fs2": "ee2772c661805f62",
    "ui-like-ADCP-fs2": "2d74876c9cdebbb7",
    "ui-like-VDCP-fs2": "c407942f0eaa27bf",
    "ui-like-HUFFDCP-fs2": "9d8d01a111070df5",
    "ui-like-RAS-fs2": "e6aaf48363c756b6",
    "ui-like-RED-fs2": "18082fdee55cd137",
    "ui-like-HDCP-fs2": "1ab60393c03aca85",
    "ui-like-DCP-ps4": "3803965dceeed425",
    "ui-like-ADCP-ps4": "42355bf68c11c18c",
    "ui-like-VDCP-ps4": "439676d6aee923c3",
    "ui-like-HUFFDCP-ps4": "d51fa878e4f4b3e5",
    "ui-like-RAS-ps4": "7981151dd981b596",
    "ui-like-RED-ps4": "e7bf2d7bb3a7b977",
    "ui-like-HDCP-ps4": "f872016d8a358683",
    "ui-like-DCP-payload": "5dd7f3645f4778d1",
    "ui-like-ADCP-payload": "784dc0ad96d6ae95",
    "ui-like-VDCP-payload": "9a0f03bb2a72e0c2",
    "ui-like-HUFFDCP-payload": "6f1a363bbcfd9ebf",
    "ui-like-RAS-payload": "38bae5413250d820",
    "ui-like-RED-payload": "e2818c5ac0c54414",
    "ui-like-HDCP-payload": "c2f395dd19064fc2",
    # Recorded before `Ccd` and `HuffmanTable` became kinds of one `Palette`.
    "noise-DCP-fvc512": "6b35f2003f93eec8",
    "noise-ADCP-fvc512": "dce5818f4e2edaae",
    "noise-HUFFDCP-fvc512": "465bbe316c0d0e40",
    "2d-like-DCP-fvc512": "ae2bca59c8eff768",
    "2d-like-ADCP-fvc512": "cde598bde00579dc",
    "2d-like-HUFFDCP-fvc512": "1a129e024aab9d3a",
}
SWEEP_GOLDEN = "4581439b5cc2af67"
# ui-like content's 9 colors over a 4-entry collector: frames that overflow
# with few distinct colors over many runs. Recorded while such frames still
# skipped the streak rules.
FEW_COLOR_SWEEP_GOLDEN = "74859b7fe7a5901b"

# The other four sweep dimensions: id -> (trace, dimension, values, digest).
# Recorded before sweep values went through the config reader.
DIMENSION_SWEEPS = {
    "fvc_size": ("2d-like", "fvc_size", "16,64,256", "404a6a231b7c1512"),
    "associativity": ("2d-like", "associativity", "2,4,direct", "a9b36d811832060a"),
    "pixel_sampling": ("2d-like", "pixel_sampling", "1,4", "ac1e7fb9022af0b8"),
    "frame_sampling": ("ui-like-4", "frame_sampling", "1,2", "92153d75dd46830d"),
}

# Each golden trace's analyze CSV. Recorded while analyze still wrote each
# row as it computed it.
ANALYZE_GOLDEN = {
    "ui-like": "c28f6d621da8955f",
    "2d-like": "9a253ce43acaca33",
    "gradient": "6b36f556a2c21601",
    "noise": "f5fcc9cdea160251",
    "ui-like-4": "9c8f7c8566fd94a6",
}


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    return make_traces(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("cell", list(CELLS))
def test_compress_outputs_unchanged(cell, traces, tmp_path):
    trace, flags = CELLS[cell]
    assert compress_digest(traces[trace], flags, tmp_path) == GOLDEN[cell]


def test_policy_sweep_unchanged(traces, tmp_path):
    assert sweep_digest(traces["2d-like"], tmp_path) == SWEEP_GOLDEN


def test_few_color_policy_sweep_unchanged(traces, tmp_path):
    assert sweep_digest(traces["ui-like"], tmp_path, flags=("--fvc-size", "4")) == \
        FEW_COLOR_SWEEP_GOLDEN


@pytest.mark.parametrize("sweep", list(DIMENSION_SWEEPS))
def test_dimension_sweep_unchanged(sweep, traces, tmp_path):
    trace, dimension, values, digest = DIMENSION_SWEEPS[sweep]
    assert sweep_digest(traces[trace], tmp_path, dimension, values) == digest


@pytest.mark.parametrize("trace", list(ANALYZE_GOLDEN))
def test_analyze_outputs_unchanged(trace, traces, tmp_path):
    assert analyze_digest(traces[trace], tmp_path) == ANALYZE_GOLDEN[trace]

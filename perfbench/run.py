"""Replay benchmark for dcpbench: seeded synthetic traces through the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload ui-replay --seed 1 --seconds 40 --trace 0

Each run generates its workload's trace from --seed with `dcpbench gen`,
then repeats rounds until the next one would end after --seconds. A round
times one more set-up (generating the trace again) and one pass of the
workload's command list, run in-process through `dcpbench.cli.main`. Every
pass is checked: commands must exit 0, container decodes must
reproduce the source frames, each cell's outputs must agree with the
returned RunResult, and each cell's output digest must be identical in every
pass. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (host time except `rate_hmean`,
which is simulated). Host times are scaled to a reference speed with the
kernel in refspeed.py, timed between rounds, because the shared machine's
speed changes by up to 2x over minutes; the times as measured are printed
beside them. --trace 1 alternates untraced passes with passes in
which timing wrappers are patched onto the program's public functions, and
reports per-layer metrics from the spans plus the tracing overhead.

The program is imported from `src/` beside this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import refspeed
from tracing import PATCH_MARK, Hooks, SpanIndex, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
SPAN_DIR = ROOT / ".perfbench_out"
SCHEMES = ("DCP", "ADCP", "VDCP", "HUFFDCP", "RAS", "RED", "HDCP")
EXIT_NO_PROGRAM = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "mpix_s": "Mpixel/s",
    "peak_rss_mb": "MB",
    "rate_hmean": "ratio",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "surface.load_s": "s",
    "surface.frames_loaded": "count",
    "synth.generate_s": "s",
    "fvc.observe_s": "s",
    "fvc.samples": "count",
    "fvc.runs": "count",
    "fvc.coverage": "ratio",
    "palette.build_s": "s",
    "palette.rebuilds": "count",
    "dcp_codecs.frame_cost_s": "s",
    "dcp_codecs.blocks_costed": "count",
    "reference_codecs.ras_cost_s": "s",
    "reference_codecs.red_cost_s": "s",
    "reference_codecs.hybrid_cost_s": "s",
    "verify.encode_s": "s",
    "verify.decode_s": "s",
    "verify.blocks": "count",
    "verify.blocks_s": "1/s",
    "container.encode_s": "s",
    "container.decode_s": "s",
    "container.codec_s": "s",
    "container.bytes": "count",
    "container.decode_mb_s": "MB/s",
    "runner.replay_s": "s",
    "runner.self_s": "s",
    "runner.band_parallelism": "ratio",
    "cli.self_s": "s",
    "bandwidth.charged_bursts": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

ENGINE_SPANS = ("dcp_codecs.frame_cost", "reference_codecs.ras_cost",
                "reference_codecs.red_cost", "reference_codecs.hybrid_cost")
CODEC_PREFIXES = ("verify.", "container.")


# ---------------------------------------------------------------------------
# Workloads

@dataclass(frozen=True)
class TraceSpec:
    generator: str
    width: int
    height: int
    frames: int


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    csv: Path
    dump: Path | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    trace: TraceSpec
    commands: tuple[Command, ...]
    audit: bool = False    # decode every dumped container against the trace


def build_workload(name: str, trace_dir: Path, out: Path, tiny: bool = False) -> Workload:
    """The workload's trace and command list. `tiny` shrinks the frames."""
    trace = str(trace_dir)
    if name == "ui-replay":
        # Paper-target content at 720p: every scheme, band threads on.
        spec = TraceSpec("ui-like", *((64, 48, 3) if tiny else (1280, 720, 4)))
        commands = tuple(
            Command(s, ("compress", trace, "--scheme", s, "--accounting", "full",
                        "--fvc-size", "64", "--policy", "LFC", "--assoc", "full",
                        "--verify-fraction", "0.01", "--jobs", "2",
                        "--out", str(out / f"{s}.csv")), out / f"{s}.csv")
            for s in SCHEMES)
        return Workload(name, spec, commands)
    if name == "hostile-sweep":
        # Palette-hostile 2D content: every collector set overflows.
        spec = TraceSpec("2d-like", *((64, 48, 2) if tiny else (256, 192, 2)))
        common = ("--scheme", "VDCP", "--accounting", "full", "--fvc-size", "64",
                  "--jobs", "1")
        commands = (
            Command("policy", ("sweep", trace, *common, "--assoc", "full",
                               "--dimension", "policy", "--values", "LFC,2LFC,LRU,RANDOM",
                               "--out", str(out / "policy.csv")), out / "policy.csv"),
            Command("associativity", ("sweep", trace, *common, "--policy", "LFC",
                                      "--dimension", "associativity", "--values", "4,direct",
                                      "--out", str(out / "assoc.csv")), out / "assoc.csv"),
        )
        return Workload(name, spec, commands)
    if name == "audit":
        # Exact codecs, bitio and the container, with a full decode audit.
        spec = TraceSpec("ui-like", *((32, 24, 2) if tiny else (160, 128, 2)))
        commands = tuple(
            Command(s, ("compress", trace, "--scheme", s, "--accounting", "full",
                        "--verify-full", "--jobs", "1", "--dump-frames", str(out / f"dump-{s}"),
                        "--out", str(out / f"{s}.csv")), out / f"{s}.csv", out / f"dump-{s}")
            for s in SCHEMES)
        return Workload(name, spec, commands, audit=True)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("ui-replay", "hostile-sweep", "audit")


# ---------------------------------------------------------------------------
# Program import

def import_program(root: Path = ROOT) -> SimpleNamespace:
    """Import dcpbench from root/src, never from an installed copy."""
    src = root / "src"
    if not (src / "dcpbench" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dcpbench package under {src}")
    sys.path.insert(0, str(src))
    import dcpbench
    from dcpbench import (bandwidth, cli, container, dcp_codecs, fvc,
                          reference_codecs, surface, synth)
    if Path(dcpbench.__file__).resolve().parent != (src / "dcpbench").resolve():
        raise ImportError(f"dcpbench resolved to {dcpbench.__file__}, not {src}")
    return SimpleNamespace(bandwidth=bandwidth, cli=cli, container=container,
                           dcp_codecs=dcp_codecs, fvc=fvc, reference_codecs=reference_codecs,
                           surface=surface, synth=synth)


def install_tracer(tracer: Tracer, prog: SimpleNamespace) -> None:
    """Patch a span or counter onto every layer boundary the metrics use.

    Names bound with `from ... import` are wrapped at the importing module,
    so verification-path codecs (looked up on their own modules by the
    runner) and container-path codecs land in separate spans.
    """
    cli, dcp, ref, cont = prog.cli, prog.dcp_codecs, prog.reference_codecs, prog.container
    Fvc = prog.fvc.Fvc

    tracer.wrap(cli, "generate", "synth.generate")
    tracer.wrap(cli, "load_trace", "surface.load",
                probe=lambda args: lambda trace: tracer.add("surface.frames_loaded", len(trace)))
    tracer.wrap(cli, "run_experiment", "runner.replay")
    tracer.wrap(cli, "compress_frame", "container.encode",
                probe=lambda args: lambda data: tracer.add("container.bytes", len(data)))
    tracer.wrap(cont, "decompress_frame", "container.decode",
                probe=lambda args: lambda frame: tracer.add("container.bytes_decoded",
                                                            len(args[0])))

    def samples(args):
        fvc, before = args[0], args[0].samples_observed
        return lambda _: tracer.add("fvc.samples", fvc.samples_observed - before)

    tracer.wrap(Fvc, "observe_frame", "fvc.observe", probe=samples)
    tracer.count(Fvc, "observe_run", "fvc.runs")
    tracer.record(Fvc, "coverage", "fvc.coverage")
    tracer.wrap(dcp, "advance_frame", "palette.build",
                probe=lambda args: lambda _: tracer.add("palette.rebuilds"))

    costed = lambda args: lambda bits: tracer.add("dcp_codecs.blocks_costed", bits.size)  # noqa: E731
    for owner, attr in ((dcp, "dcp_frame_cost"), (dcp, "vdcp_frame_cost"),
                        (dcp, "huffdcp_frame_cost"), (ref, "vdcp_frame_cost")):
        tracer.wrap(owner, attr, "dcp_codecs.frame_cost", probe=costed)
    tracer.wrap(ref, "ras_frame_cost", "reference_codecs.ras_cost")
    tracer.wrap(ref, "red_frame_cost", "reference_codecs.red_cost")
    tracer.wrap(ref, "hybrid_frame_cost", "reference_codecs.hybrid_cost")

    for owner, prefix in ((dcp, ("dcp", "vdcp", "huffdcp")), (ref, ("ras", "red", "hybrid"))):
        for codec in prefix:
            tracer.wrap(owner, f"{codec}_compress_block", "verify.encode")
            tracer.wrap(owner, f"{codec}_decompress_block", "verify.decode")
    for attr in sorted(vars(cont)):
        if attr.endswith(("_compress_block", "_decompress_block")):
            tracer.wrap(cont, attr, "container.codec")


# ---------------------------------------------------------------------------
# Passes

@dataclass
class Cell:
    label: str
    rate: float
    charged_bursts: int
    blocks_verified: int
    mpix: float
    digest: str


@dataclass
class PassResult:
    wall: float
    cells: list[Cell]
    command_seconds: dict[str, float]
    attempted: int
    failed: int
    errors: list[str]

    @property
    def mpix(self) -> float:
        return sum(c.mpix for c in self.cells)


def digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()[:16]


def tree_digest(directory: Path) -> str:
    files = sorted(p for p in directory.rglob("*") if p.is_file())
    return digest(*(p.relative_to(directory).as_posix().encode() + b"\0" + p.read_bytes()
                    for p in files))


class Bench:
    def __init__(self, prog: SimpleNamespace, name: str, seed: int, work: Path, tiny: bool = False):
        self.prog = prog
        self.seed = seed
        self.work = work
        self.trace_dir = work / "trace"
        self.out = work / "out"
        self.workload = build_workload(name, self.trace_dir, self.out, tiny)
        self.source: list[np.ndarray] = []
        self.tapped: list = []
        self.hooks = Hooks()
        self.hooks.patch(prog.cli, "run_experiment", self._tap)

    def close(self) -> None:
        self.hooks.restore()

    def _tap(self, original):
        # Keeps each cell's RunResult so outputs can be checked against it.
        def tapped(trace, cfg):
            result = original(trace, cfg)
            self.tapped.append((trace.width * trace.height, result))
            return result
        return tapped

    def _cli(self, argv, tracer: Tracer | None) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return self.prog.cli.main(list(argv))
            return tracer.span("cli.command", self.prog.cli.main, list(argv))

    def setup(self, target: Path, tracer: Tracer | None = None) -> tuple[float, str]:
        """Generate the trace into target; (seconds, digest of the files)."""
        shutil.rmtree(target, ignore_errors=True)
        spec = self.workload.trace
        start = time.perf_counter()
        rc = self._cli(("gen", "--generator", spec.generator, "--width", str(spec.width),
                        "--height", str(spec.height), "--frames", str(spec.frames),
                        "--seed", str(self.seed), "--out", str(target)), tracer)
        seconds = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"dcpbench gen exited {rc}")
        return seconds, tree_digest(target)

    def load_source(self) -> None:
        if self.workload.audit:
            trace = self.prog.surface.load_trace(self.trace_dir)
            self.source = [f.pixels for f in trace.frames]

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        attempted = failed = 0
        rcs: dict[str, int | None] = {}
        taps: dict[str, list] = {}
        seconds: dict[str, float] = {}
        decoded: list[tuple[str, Path, object]] = []
        start = time.perf_counter()
        for cmd in self.workload.commands:
            attempted += 1
            before = len(self.tapped)
            t0 = time.perf_counter()
            try:
                rcs[cmd.label] = self._cli(cmd.argv, tracer)
            except Exception:
                traceback.print_exc()
                rcs[cmd.label] = None
            seconds[cmd.label] = time.perf_counter() - t0
            taps[cmd.label] = self.tapped[before:]
            if rcs[cmd.label] != 0:
                failed += 1
        if self.workload.audit:
            for cmd in self.workload.commands:
                for path in sorted(cmd.dump.glob("*.fbc")) if cmd.dump.is_dir() else ():
                    attempted += 1
                    try:
                        frame = self.prog.container.decompress_frame(path.read_bytes())
                    except Exception as exc:
                        frame = exc
                    decoded.append((cmd.label, path, frame))
        wall = time.perf_counter() - start
        del self.tapped[:]

        errors: list[str] = []
        cells: list[Cell] = []
        for cmd in self.workload.commands:
            if rcs[cmd.label] != 0:
                errors.append(f"{cmd.label}: command exited {rcs[cmd.label]}")
                continue
            try:
                cells += self._cells(cmd, taps[cmd.label])
            except (OSError, ValueError, KeyError) as exc:
                errors.append(f"{cmd.label}: unreadable outputs: {exc!r}")
        failed += self._check_decodes(decoded, errors)
        return PassResult(wall, cells, seconds, attempted, failed, errors)

    def _cells(self, cmd: Command, taps: list) -> list[Cell]:
        raw = cmd.csv.read_bytes()
        lines = raw.decode().splitlines()
        rows = list(csv.DictReader(lines[1:]))
        if cmd.argv[0] == "compress":
            summary = json.loads(cmd.csv.with_suffix(".json").read_text())
            summary.pop("generated_at")
            parts = [raw, json.dumps(summary, sort_keys=True).encode()]
            if cmd.dump is not None:
                parts.append(tree_digest(cmd.dump).encode())
            outputs = [(cmd.label, summary["rate"], summary["blocks_verified"],
                        len(rows), digest(*parts))]
        else:
            outputs = [(f"{cmd.label}={row['value']}", float(row["rate"]), None, None,
                        digest(lines[0].encode(), json.dumps(row, sort_keys=True).encode()))
                       for row in rows]
        if len(taps) != len(outputs):
            raise ValueError(f"{len(outputs)} output cells but {len(taps)} replays")
        cells = []
        for (label, rate, verified, nrows, dig), (pixels, result) in zip(outputs, taps):
            w = result.workload
            if rate != w.rate or not math.isfinite(rate) or rate <= 0:
                raise ValueError(f"{label}: output rate {rate!r} vs replay {w.rate!r}")
            if verified is not None and verified != result.blocks_verified:
                raise ValueError(f"{label}: {verified} verified blocks vs {result.blocks_verified}")
            if nrows is not None and nrows != w.frames_measured:
                raise ValueError(f"{label}: {nrows} CSV rows vs {w.frames_measured} frames")
            cells.append(Cell(label, rate, w.payload_bursts + w.csb_bursts,
                              result.blocks_verified, w.frames_measured * pixels / 1e6, dig))
        return cells

    def _check_decodes(self, decoded, errors: list[str]) -> int:
        """Compare each decoded container with its source frame; count failures."""
        if not self.workload.audit:
            return 0
        source = self.source
        failed = 0
        expected = {c.label: len(source) - 1 for c in self.workload.commands}
        for label, path, frame in decoded:
            expected[label] -= 1
            index = int(path.stem.split("_")[1])
            if isinstance(frame, Exception):
                problem = f"decode raised {frame!r}"
            elif not np.array_equal(frame.pixels, source[index]):
                problem = "decoded frame differs from the source frame"
            else:
                continue
            failed += 1
            errors.append(f"{label}: {path.name}: {problem}")
        errors += [f"{label}: {n} containers missing" for label, n in expected.items() if n]
        return failed


# ---------------------------------------------------------------------------
# Metrics

def layer_metrics(tracer: Tracer, result: PassResult) -> dict[str, float]:
    idx = SpanIndex(tracer.spans)
    c = tracer.counters
    enc = sum(s.duration for s in idx.outermost("verify.encode", CODEC_PREFIXES))
    dec = sum(s.duration for s in idx.outermost("verify.decode", CODEC_PREFIXES))
    blocks = len(idx.outermost("verify.encode", CODEC_PREFIXES))
    decode_s = idx.total("container.decode")
    coverage = tracer.values.get("fvc.coverage") or [0.0]
    return {
        "surface.load_s": idx.total("surface.load"),
        "surface.frames_loaded": c["surface.frames_loaded"],
        "fvc.observe_s": idx.total("fvc.observe"),
        "fvc.samples": c["fvc.samples"],
        "fvc.runs": c["fvc.runs"],
        "fvc.coverage": statistics.fmean(coverage),
        "palette.build_s": idx.total("palette.build"),
        "palette.rebuilds": c["palette.rebuilds"],
        "dcp_codecs.frame_cost_s": idx.total("dcp_codecs.frame_cost"),
        "dcp_codecs.blocks_costed": c["dcp_codecs.blocks_costed"],
        "reference_codecs.ras_cost_s": idx.total("reference_codecs.ras_cost"),
        "reference_codecs.red_cost_s": idx.total("reference_codecs.red_cost"),
        "reference_codecs.hybrid_cost_s": idx.total_self("reference_codecs.hybrid_cost"),
        "verify.encode_s": enc,
        "verify.decode_s": dec,
        "verify.blocks": blocks,
        "verify.blocks_s": blocks / (enc + dec) if enc + dec > 0 else 0.0,
        "container.encode_s": idx.total("container.encode"),
        "container.decode_s": decode_s,
        "container.codec_s": idx.total("container.codec"),
        "container.bytes": c["container.bytes"],
        "container.decode_mb_s": c["container.bytes_decoded"] / decode_s / 1e6 if decode_s else 0.0,
        "runner.replay_s": idx.total("runner.replay"),
        "runner.self_s": idx.total_self("runner.replay"),
        "runner.band_parallelism": idx.parallelism(ENGINE_SPANS),
        "cli.self_s": idx.total_self("cli.command"),
        "bandwidth.charged_bursts": sum(cell.charged_bursts for cell in result.cells),
        "trace.wall_s": result.wall,
    }


def median_metrics(dicts: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median_low(d[k] for d in dicts) for k in dicts[0]}


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = min((s.start for s in tracer.spans), default=0.0)
    with path.open("w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start - origin,
                                 "end": s.end - origin, "parent": s.parent,
                                 "thread": s.thread}) + "\n")


# ---------------------------------------------------------------------------
# Runs and reports

@dataclass
class HostTimes:
    """A run's set-up and pass times as measured, one per round, and the
    reference kernel times taken before the first round and after each."""
    setup_s: list[float]
    wall_s: list[float]
    kernel_s: list[float]

    @property
    def scale(self) -> float:
        """Factor that takes this run's host times to the reference speed."""
        return refspeed.REFERENCE_S / statistics.fmean(self.kernel_s)


@dataclass
class Outcome:
    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    errors: list[str]
    plain: list[PassResult]
    host: HostTimes

    @property
    def correct(self) -> bool:
        return not self.errors and self.failed == 0


@contextlib.contextmanager
def tracing(prog: SimpleNamespace):
    """A fresh Tracer with every wrapper installed, removed on exit."""
    tracer = Tracer()
    try:
        install_tracer(tracer, prog)
        yield tracer
    finally:
        tracer.hooks.restore()


def leftover_wrappers(prog: SimpleNamespace) -> list[str]:
    """Names in the program's modules still bound to a benchmark wrapper."""
    owners = [*vars(prog).values(), prog.fvc.Fvc]
    return [f"{o.__name__}.{attr}" for o in owners
            for attr, value in vars(o).items() if hasattr(value, PATCH_MARK)]


def run(prog: SimpleNamespace, name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> Outcome:
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(prog, name, seed, work, tiny)
    try:
        outcome = _measure(bench, seconds, trace, name, seed)
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    outcome.errors += [f"wrapper left installed: {n}" for n in leftover_wrappers(prog)]
    return outcome


def _measure(bench: Bench, seconds: float, trace: bool, name: str, seed: int) -> Outcome:
    errors: list[str] = []
    setup_s, generate_s, digests = [], [], set()

    def set_up(target: Path) -> None:
        if trace:
            with tracing(bench.prog) as tracer:
                dt, dig = bench.setup(target, tracer)
            generate_s.append(SpanIndex(tracer.spans).total("synth.generate"))
        else:
            dt, dig = bench.setup(target)
        setup_s.append(dt)
        digests.add(dig)

    set_up(bench.trace_dir)
    # This set-up writes the trace the passes read. The timed samples are the
    # per-round set-ups, which fall between kernel runs as the passes do.
    del setup_s[:]
    bench.load_source()

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict[str, float]] = []
    rounds: list[float] = []
    # The reference kernel runs before the first round and after every round,
    # so its mean speaks for the same stretch of time as the passes'. It runs
    # twice each time: one run is short beside a pass and varies more. The
    # first run of a process is slower (page faults), so it is not kept.
    refspeed.kernel_seconds()
    kernel = [refspeed.kernel_seconds() for _ in range(2)]
    start = time.perf_counter()
    # A round starts only when it is expected to end within --seconds, so a
    # run lasts about --seconds however fast the machine is.
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t0 = time.perf_counter()
        # One more set-up per round, so set-up samples span the run as passes do.
        set_up(bench.work / "setup")
        plain.append(bench.run_pass())
        if trace:
            with tracing(bench.prog) as tracer:
                traced.append(bench.run_pass(tracer))
            layers.append(layer_metrics(tracer, traced[-1]))
        kernel += [refspeed.kernel_seconds() for _ in range(2)]
        rounds.append(time.perf_counter() - t0)
    if trace:
        write_spans(tracer, SPAN_DIR / f"spans-{name}-seed{seed}.jsonl")

    if len(digests) != 1:
        errors.append(f"set-up is not deterministic: {len(digests)} distinct trace digests")
    passes = plain + traced
    reference = [(c.label, c.digest) for c in passes[0].cells]
    for i, p in enumerate(passes):
        errors += [f"pass {i}: {e}" for e in p.errors]
        if [(c.label, c.digest) for c in p.cells] != reference and not p.errors:
            errors.append(f"pass {i}: cell digests differ from pass 0")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)

    host = HostTimes(setup_s, [p.wall for p in plain], kernel)
    if trace:
        metrics = median_metrics(layers)
        metrics["synth.generate_s"] = statistics.median(generate_s)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(host.wall_s)
        return Outcome({k: metrics[k] for k in PER_LAYER}, PER_LAYER,
                       attempted, failed, errors, plain, host)
    rates = [c.rate for c in passes[0].cells]
    metrics = {
        # Set-ups are short, so their median is taken; passes are long and the
        # machine alternates between a fast and a slow speed, so a pass's time
        # is the run's mean, which weighs both speeds by the time spent in
        # them as the kernel's mean does.
        "setup_s": statistics.median(host.setup_s) * host.scale,
        "wall_s": statistics.fmean(host.wall_s) * host.scale,
        "mpix_s": statistics.fmean(p.mpix for p in plain)
                  / (statistics.fmean(host.wall_s) * host.scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rate_hmean": statistics.harmonic_mean(rates) if rates else 0.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return Outcome(metrics, END_TO_END, attempted, failed, errors, plain, host)


def report(name: str, seed: int, outcome: Outcome) -> str:
    """Human-readable lines, then the JSON result line."""
    out = io.StringIO()
    first = outcome.plain[0]
    host = outcome.host
    fmt = lambda values: ", ".join(f"{v:.4f}" for v in values)  # noqa: E731
    print(f"# workload={name} seed={seed} rounds={len(host.wall_s)}", file=out)
    print(f"# untraced pass walls, as measured (s): {fmt(host.wall_s)}", file=out)
    print(f"# reference kernel (s): {fmt(host.kernel_s)}", file=out)
    print(f"# scale to the reference speed: {refspeed.REFERENCE_S} s / mean kernel = "
          f"{host.scale:.4f}", file=out)
    print(f"raw setup_s {statistics.median(host.setup_s)!r} s", file=out)
    print(f"raw wall_s {statistics.fmean(host.wall_s)!r} s", file=out)
    for label in first.command_seconds:
        times = [p.command_seconds[label] for p in outcome.plain]
        print(f"command {label} median_s={statistics.median(times):.4f}", file=out)
    for c in first.cells:
        print(f"cell {c.label} rate={c.rate!r} charged_bursts={c.charged_bursts} "
              f"verified_blocks={c.blocks_verified} mpix={c.mpix:.4f} digest={c.digest}",
              file=out)
    for e in outcome.errors:
        print(f"error {e}", file=out)
    fail_ratio = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"metric fail_ratio {fail_ratio!r} ratio "
          f"({outcome.failed} of {outcome.attempted} operations)", file=out)
    for key, value in outcome.metrics.items():
        print(f"metric {key} {value!r} {outcome.units[key]}", file=out)
    doc = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": outcome.units[k]}
                    for k, v in outcome.metrics.items()},
    }
    print(json.dumps(doc), file=out)
    return out.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prog = import_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    outcome = run(prog, args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(report(args.workload, args.seed, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line harness: trace generation, analysis, compression, sweeps.

Subcommands:

  gen       write a synthetic trace directory
  analyze   per-frame coherence metrics as CSV
  compress  run one scheme over a trace; per-frame CSV plus a JSON summary
  sweep     run compress once per value of one configuration dimension

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 round-trip verification failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import sys
import time
from dataclasses import asdict, replace
from functools import cache
from pathlib import Path

from . import __version__
from .bandwidth import ACCOUNTING_MODES, COUNTERS
from .container import compress_frame
from .fvc import POLICIES, FvcConfig
from .metrics import color_cdf, color_change, entropy, pixel_change, unique_colors
from .runner import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    VerificationError,
    run_experiment,
)
from .schemes import SCHEMES
from .surface import SurfaceTrace, TraceError, load_trace, trace_files, write_trace
from .synth import GENERATORS, SyntheticSpec, generate

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_VERIFY = 0, 1, 2, 3

CDF_POINTS = (1, 4, 16, 64, 256, 1024)

# Sweep dimension -> the experiment key it sets.
SWEEP_DIMENSIONS = {
    "fvc_size": "fvc_size",
    "policy": "policy",
    "associativity": "assoc",
    "pixel_sampling": "pixel_sampling",
    "frame_sampling": "frame_sampling",
}

# Experiment key -> the JSON types it takes. A key is its flag's name with
# underscores, on the command line, in a config file and in a sweep.
KEY_TYPES = {
    "scheme": str, "fvc_size": int, "policy": str, "assoc": (int, str),
    "pixel_sampling": int, "frame_sampling": int, "ct": (int, float), "ccd_size": int,
    "accounting": str, "seed": int, "verify_full": bool, "verify_fraction": (int, float),
}
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false",
               (int, float): "a number", (int, str): "an integer or a word"}

# The per-frame CSV's columns, each a `FrameStats` field.
FRAME_COLUMNS = (
    "frame", "uncompressed_bits", "payload_bits", "csb_bits",
    "uncompressed_bursts", "payload_bursts", "csb_bursts", "rate",
    "coverage", "ccd_size", "rccd_bytes", "enabled", "vdcp_blocks", "ras_blocks",
)

# The summary's "totals": the workload's counters but HDCP's block counts,
# which it reports as "hybrid_blocks".
SUMMARY_TOTALS = tuple(c for c in COUNTERS if not c.endswith("_blocks"))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@cache
def build_parser() -> _Parser:
    """Built once per process: each `parse_args` call returns a new namespace."""
    parser = _Parser(prog="dcpbench", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"dcpbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic trace directory")
    gen.add_argument("--generator", choices=GENERATORS, default="ui-like")
    gen.add_argument("--width", type=int, default=192)
    gen.add_argument("--height", type=int, default=128)
    gen.add_argument("--frames", type=int, default=8)
    gen.add_argument("--palette-size", type=int, default=None)
    gen.add_argument("--scroll", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="trace directory to write")

    analyze = sub.add_parser("analyze", help="temporal-coherence metrics for a trace")
    analyze.add_argument("trace")
    analyze.add_argument("--out", required=True, help="CSV output path")

    compress = sub.add_parser("compress", help="run one scheme over a trace")
    _add_experiment_flags(compress)
    compress.add_argument("trace")
    compress.add_argument("--out", required=True, help="per-frame CSV path; summary JSON lands beside it")
    compress.add_argument("--dump-frames", default=None, metavar="DIR",
                          help="also write one compressed-frame container per measured frame")

    sweep = sub.add_parser("sweep", help="one compress run per value of a dimension")
    _add_experiment_flags(sweep)
    sweep.add_argument("traces", nargs="+")
    sweep.add_argument("--dimension", required=True, choices=SWEEP_DIMENSIONS)
    sweep.add_argument("--values", required=True,
                       help="comma-separated values for the dimension")
    sweep.add_argument("--out", required=True, help="matrix CSV path")
    return parser


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    # Defaults live in ExperimentConfig and FvcConfig; None here means "not
    # set on the command line" so a config file can fill the gap.
    p.add_argument("--config", default=None, help="JSON file mirroring these flags")
    p.add_argument("--scheme", choices=tuple(SCHEMES), default=None)
    p.add_argument("--fvc-size", type=int, default=None)
    p.add_argument("--policy", choices=POLICIES, default=None)
    p.add_argument("--assoc", default=None,
                   help="'full', 'direct', or ways per set")
    p.add_argument("--pixel-sampling", type=int, default=None, metavar="N",
                   help="observe one pixel in every N")
    p.add_argument("--frame-sampling", type=int, default=None, metavar="N",
                   help="reuse one palette for N frames")
    p.add_argument("--ct", type=float, nargs="?", const=0.7, default=None,
                   help="coverage threshold gating compression (bare flag: 0.7)")
    p.add_argument("--ccd-size", type=int, default=None)
    p.add_argument("--accounting", choices=ACCOUNTING_MODES, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--verify-full", action="store_true", default=None)
    p.add_argument("--verify-fraction", type=float, default=None)
    p.add_argument("--jobs", type=_jobs, default=None,
                   help="accepted for compatibility and ignored")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "compress":
            return _cmd_compress(args)
        return _cmd_sweep(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


# ---------------------------------------------------------------------------
# Configuration plumbing

def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("--jobs must be >= 1")
    return jobs


def _parse_assoc(token) -> int | None:
    text = str(token).lower()
    if text == "full":
        return None
    if text == "direct":
        return 1
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"assoc must be 'full', 'direct', or a way count, got {token!r}")


def build_config(args, **overrides) -> ExperimentConfig:
    """Each experiment key from an override, else its flag, else the JSON
    config file; a key set nowhere keeps its dataclass default."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(file_cfg.keys() - KEY_TYPES.keys())
        if unknown:
            raise ConfigError(f"config file keys {unknown} name no experiment flag")
    given = {}
    for key, kinds in KEY_TYPES.items():
        value = overrides.get(key, getattr(args, key, None))
        if value is None:
            value = file_cfg.get(key)
        if value is None:
            continue
        if not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool):
            raise ConfigError(f"{key} must be {_TYPE_NAMES[kinds]}, got {value!r}")
        # A number is a float, as its flag's is, wherever it was given.
        given[key] = float(value) if kinds == (int, float) else value

    def fields(**names):
        return {name: given[key] for name, key in names.items() if key in given}

    fvc = fields(entry_count="fvc_size", policy="policy", pixel_sampling="pixel_sampling",
                 rng_seed="seed")
    if "assoc" in given:
        fvc["ways"] = _parse_assoc(given["assoc"])
    exp = fields(scheme="scheme", ccd_size="ccd_size", frame_sampling="frame_sampling",
                 coverage_threshold="ct", accounting="accounting", seed="seed",
                 verify_fraction="verify_fraction")
    # --verify-full (or "verify_full": true in a config file) means fraction 1.
    if given.get("verify_full"):
        exp["verify_fraction"] = 1.0
    try:
        return ExperimentConfig(fvc=FvcConfig(**fvc), **exp)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_outputs(args, *files: Path, directory: Path | None = None) -> None:
    """Refuse, before anything is written, an output that is an existing
    path of the other kind: a file output that is a directory, or the
    directory output (`gen --out`, `compress --dump-frames`) that is a file.
    Refuse too an output that is an input (the config file, a trace's
    manifest or a frame file it lists, or a link to one; `gen` reads none),
    lies under a file, or is or lies under another output."""
    inputs = [Path(args.config)] if getattr(args, "config", None) else []
    traces = getattr(args, "traces", None) or [getattr(args, "trace", None)]
    for trace in filter(None, traces):
        inputs += trace_files(trace)
    by_file = {_file_id(path): path for path in inputs if path.exists()}
    outputs = [(path, _resolve(path)) for path in (*files, directory) if path is not None]
    for path, resolved in outputs:
        chain = (resolved, *resolved.parents)
        nearest = next(p for p in chain if p.exists())
        if nearest is resolved and path is not directory and nearest.is_dir():
            raise UsageError(f"the output {path} is a directory")
        if nearest is resolved and (source := by_file.get(_file_id(nearest))):
            raise UsageError(f"an output would overwrite the input {source}")
        # An output counts itself once; a second count is another output.
        if sum(r in chain for _, r in outputs) > 1 or not nearest.is_dir() and (
                nearest is not resolved or path is directory):
            raise UsageError(f"the output {path} would be, or lie under, a file or another output")


def _resolve(path: Path) -> Path:
    """`path` with its links followed. A symlink loop on the way is a usage
    error: `resolve` raises RuntimeError on one before Python 3.13, and from
    3.13 returns a path whose stat fails with ELOOP."""
    try:
        resolved = path.resolve()
        try:
            resolved.stat()
        except OSError as exc:
            if exc.errno == errno.ELOOP:
                raise
        return resolved
    except (OSError, RuntimeError) as exc:
        raise UsageError(f"the output {path} cannot be resolved: {exc}") from None


def _file_id(path: Path) -> tuple[int, int]:
    st = path.stat()
    return st.st_dev, st.st_ino


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_gen(args) -> int:
    _check_outputs(args, directory=Path(args.out))
    try:
        spec = SyntheticSpec(
            generator=args.generator,
            width=args.width,
            height=args.height,
            frames=args.frames,
            palette_size=args.palette_size,
            seed=args.seed,
            scroll=args.scroll,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    trace = generate(spec)
    write_trace(trace, args.out)
    print(f"wrote {len(trace)} frames ({trace.width}x{trace.height}) to {args.out}")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    out = Path(args.out)
    _check_outputs(args, out)
    trace = load_trace(args.trace)
    rows = []
    for i, frame in enumerate(trace.frames):
        prev = trace.frames[i - 1]
        change = [pixel_change(prev, frame), color_change(prev, frame)] if i else ["", ""]
        rows.append([i, entropy(frame), unique_colors(frame), *change,
                     *(color_cdf(frame, k) for k in CDF_POINTS)])
    _write_csv(out, f"analyze trace={trace.name} category={trace.category}",
               ["frame", "entropy_bpp", "unique_colors", "pixel_change", "color_change",
                *(f"cdf_{k}" for k in CDF_POINTS)], rows)
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_compress(args) -> int:
    out = Path(args.out)
    summary_path = out.with_suffix(".json")
    _check_outputs(args, out, summary_path,
                   directory=Path(args.dump_frames) if args.dump_frames else None)
    cfg = build_config(args)
    trace = load_trace(args.trace)
    result = run_experiment(trace, cfg)
    _write_csv(out, f"compress trace={trace.name} category={trace.category} "
               f"scheme={cfg.scheme} accounting={cfg.accounting} seed={cfg.seed} "
               f"fvc={cfg.fvc.entry_count} policy={cfg.fvc.policy} "
               f"pixel_sampling={cfg.fvc.pixel_sampling} frame_sampling={cfg.frame_sampling}",
               FRAME_COLUMNS, [[getattr(f, c) for c in FRAME_COLUMNS] for f in result.frames])
    summary_path.write_text(_summary_json(trace, cfg, result))
    if args.dump_frames:
        _dump_containers(args.dump_frames, trace, cfg, result)
    w = result.workload
    print(f"{trace.name}: scheme={cfg.scheme} accounting={cfg.accounting} "
          f"frames={w.frames_measured} rate={w.rate:.4f} "
          f"(verified {result.blocks_verified} blocks)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    out = Path(args.out)
    _check_outputs(args, out)
    key = SWEEP_DIMENSIONS[args.dimension]
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError("--values is empty")
    # Each value is read as the dimension's flag would read it; the config
    # then checks it.
    if KEY_TYPES[key] is int:
        try:
            values = [int(v) for v in values]
        except ValueError:
            raise UsageError(f"{args.dimension} values must be integers, got {args.values!r}")
    # A scheme without a palette never reads track_relative_coverage.
    configs = [replace(build_config(args, **{key: v}), track_relative_coverage=True)
               for v in values]
    traces = [load_trace(t) for t in args.traces]
    # Every run finishes before the CSV is opened: a failed run leaves none.
    rows = []
    for trace in traces:
        first_rate = None
        for value, cfg in zip(values, configs):
            result = run_experiment(trace, cfg)
            rate = result.workload.rate
            if first_rate is None:
                first_rate = rate
            covs = [f.coverage for f in result.frames if f.coverage == f.coverage]
            mean_cov = sum(covs) / len(covs) if covs else float("nan")
            rows.append([args.dimension, value, trace.name, trace.category, cfg.scheme, rate,
                         rate / first_rate if first_rate else float("nan"),
                         mean_cov, result.mean_relative_coverage])
    base = configs[0]
    _write_csv(out, f"sweep dimension={args.dimension} scheme={base.scheme} "
               f"accounting={base.accounting} seed={base.seed}",
               ["dimension", "value", "trace", "category", "scheme", "rate",
                "normalized_rate", "mean_coverage", "mean_relative_coverage"], rows)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Report writing

def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, comment: str, header, rows) -> None:
    """Write `# dcpbench <comment>`, the header and the rows, each cell
    through `_fmt`, creating the parent directory. Callers build every row
    first, so a failed command leaves no partial CSV."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# dcpbench {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _summary_json(trace: SurfaceTrace, cfg: ExperimentConfig, result: RunResult) -> str:
    w = result.workload
    doc = {
        "trace": trace.name,
        "category": trace.category,
        "config": {
            "scheme": cfg.scheme,
            "fvc": asdict(cfg.fvc),
            "ccd_size": cfg.ccd_size,
            "frame_sampling": cfg.frame_sampling,
            "coverage_threshold": cfg.coverage_threshold,
            "accounting": cfg.accounting,
            "seed": cfg.seed,
        },
        "frames_measured": w.frames_measured,
        "totals": {key: getattr(w, key) for key in SUMMARY_TOTALS},
        # RFC 8259 has no Infinity: a rate with nothing charged is null here
        # (the CSV keeps inf).
        "rate": w.rate if math.isfinite(w.rate) else None,
        "hybrid_blocks": {"vdcp": w.vdcp_blocks, "ras": w.ras_blocks},
        "blocks_verified": result.blocks_verified,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _dump_containers(directory: str, trace: SurfaceTrace, cfg: ExperimentConfig,
                     result: RunResult) -> None:
    """Write one container per measured frame, under the palette in force."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    for m in result.replayed:
        data = compress_frame(trace.frames[m.index], cfg.scheme, m.palette)
        (out_dir / f"frame_{m.index:05d}.fbc").write_bytes(data)


if __name__ == "__main__":
    sys.exit(main())

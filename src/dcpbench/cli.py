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
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .bandwidth import ACCOUNTING_MODES
from .container import compress_frame
from .fvc import MAX_ENTRY_COUNT, POLICIES, FvcConfig
from .metrics import color_cdf, color_change, entropy, pixel_change, unique_colors
from .runner import (
    ConfigError,
    ExperimentConfig,
    RunResult,
    VerificationError,
    run_experiment,
)
from .schemes import SCHEMES
from .surface import SurfaceTrace, TraceError, load_trace, write_trace
from .synth import GENERATORS, SyntheticSpec, generate

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_VERIFY = 0, 1, 2, 3

CDF_POINTS = (1, 4, 16, 64, 256, 1024)

SWEEP_DIMENSIONS = ("fvc_size", "policy", "associativity", "pixel_sampling", "frame_sampling")

FRAME_COLUMNS = (
    "frame", "uncompressed_bits", "payload_bits", "csb_bits",
    "uncompressed_bursts", "payload_bursts", "csb_bursts", "rate",
    "coverage", "ccd_size", "rccd_bytes", "enabled", "vdcp_blocks", "ras_blocks",
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
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
    # Defaults live in ExperimentConfig; None here means "not set on the
    # command line" so a config file can fill the gap.
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
    p.add_argument("--jobs", type=int, default=None)


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
    except (TraceError, OSError, json.JSONDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


# ---------------------------------------------------------------------------
# Configuration plumbing

def _parse_assoc(token, entry_count: int) -> int | None:
    if token is None:
        return None
    text = str(token).lower()
    if text == "full":
        return None
    if text == "direct":
        return 1
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"--assoc must be 'full', 'direct', or an integer, got {token!r}")


def build_config(args) -> ExperimentConfig:
    """Merge hard defaults, an optional JSON config file, and CLI flags."""
    file_cfg = {}
    if getattr(args, "config", None):
        file_cfg = json.loads(Path(args.config).read_text())
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")

    def pick(flag, key, default):
        value = getattr(args, flag, None)
        if value is not None:
            return value
        return file_cfg.get(key, default)

    try:
        seed = int(pick("seed", "seed", 0))
        entry_count = int(pick("fvc_size", "fvc_size", 64))
        fvc = FvcConfig(
            entry_count=entry_count,
            ways=_parse_assoc(pick("assoc", "assoc", None), entry_count),
            policy=str(pick("policy", "policy", "LFC")),
            pixel_sampling=int(pick("pixel_sampling", "pixel_sampling", 1)),
            rng_seed=seed,
        )
        cfg = ExperimentConfig(
            scheme=str(pick("scheme", "scheme", "DCP")),
            fvc=fvc,
            ccd_size=_typed(pick("ccd_size", "ccd_size", None), "ccd_size", int),
            frame_sampling=int(pick("frame_sampling", "frame_sampling", 1)),
            coverage_threshold=_typed(pick("ct", "ct", None), "ct", (int, float)),
            accounting=str(pick("accounting", "accounting", "full")),
            seed=seed,
            # --verify-full (or "verify_full" in a config file) means fraction 1.
            verify_fraction=(1.0 if pick("verify_full", "verify_full", False) else
                             float(pick("verify_fraction", "verify_fraction", 0.01))),
            jobs=int(pick("jobs", "jobs", 1)),
        )
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _typed(value, key: str, kinds):
    """A value unset or of the given JSON number type; a config file can hold
    strings or fractions where a typed flag could not."""
    if value is None or (isinstance(value, kinds) and not isinstance(value, bool)):
        return value
    kind = "an integer" if kinds is int else "a number"
    raise ConfigError(f"{key} must be {kind}, got {value!r}")


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_gen(args) -> int:
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
    trace = load_trace(args.trace)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        fh.write(f"# dcpbench analyze trace={trace.name} category={trace.category}\n")
        writer = csv.writer(fh)
        header = ["frame", "entropy_bpp", "unique_colors", "pixel_change", "color_change"]
        header += [f"cdf_{k}" for k in CDF_POINTS]
        writer.writerow(header)
        prev = None
        for i, frame in enumerate(trace.frames):
            row = [i, _fmt(entropy(frame)), unique_colors(frame)]
            if prev is None:
                row += ["", ""]
            else:
                row += [_fmt(pixel_change(prev, frame)), _fmt(color_change(prev, frame))]
            row += [_fmt(color_cdf(frame, k)) for k in CDF_POINTS]
            writer.writerow(row)
            prev = frame
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_compress(args) -> int:
    cfg = build_config(args)
    trace = load_trace(args.trace)
    result = run_experiment(trace, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_frame_csv(out, trace, cfg, result)
    summary_path = out.with_suffix(".json")
    summary_path.write_text(_summary_json(trace, cfg, result))
    if args.dump_frames:
        _dump_containers(args.dump_frames, trace, cfg, result)
    w = result.workload
    print(f"{trace.name}: scheme={cfg.scheme} accounting={cfg.accounting} "
          f"frames={w.frames_measured} rate={w.rate:.4f} "
          f"(verified {result.blocks_verified} blocks)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base = build_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise UsageError("--values is empty")
    configs = [(_coerce_sweep_value(args.dimension, v),
                _config_for_value(base, args.dimension, v)) for v in values]
    traces = [load_trace(t) for t in args.traces]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        fh.write(f"# dcpbench sweep dimension={args.dimension} scheme={base.scheme} "
                 f"accounting={base.accounting} seed={base.seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["dimension", "value", "trace", "category", "scheme", "rate",
                         "normalized_rate", "mean_coverage", "mean_relative_coverage"])
        for trace in traces:
            first_rate = None
            for value, cfg in configs:
                result = run_experiment(trace, cfg)
                rate = result.workload.rate
                if first_rate is None:
                    first_rate = rate
                covs = [f.coverage for f in result.frames if f.coverage == f.coverage]
                mean_cov = sum(covs) / len(covs) if covs else float("nan")
                writer.writerow([
                    args.dimension, value, trace.name, trace.category, cfg.scheme,
                    _fmt(rate), _fmt(rate / first_rate if first_rate else float("nan")),
                    _fmt(mean_cov), _fmt(result.mean_relative_coverage),
                ])
    print(f"wrote {out}")
    return EXIT_OK


def _coerce_sweep_value(dimension: str, token: str):
    if dimension in ("fvc_size", "pixel_sampling", "frame_sampling"):
        try:
            return int(token)
        except ValueError:
            raise UsageError(f"{dimension} values must be integers, got {token!r}")
    return token


def _config_for_value(base: ExperimentConfig, dimension: str, token: str) -> ExperimentConfig:
    from dataclasses import replace
    value = _coerce_sweep_value(dimension, token)
    try:
        if dimension == "fvc_size":
            if not 16 <= value <= MAX_ENTRY_COUNT:
                raise ConfigError(f"fvc_size sweep values must lie in 16..{MAX_ENTRY_COUNT}")
            cfg = replace(base, fvc=replace(base.fvc, entry_count=value))
        elif dimension == "policy":
            if value not in POLICIES:
                raise ConfigError(f"policy must be one of {POLICIES}")
            cfg = replace(base, fvc=replace(base.fvc, policy=value))
        elif dimension == "associativity":
            cfg = replace(base, fvc=replace(base.fvc,
                                            ways=_parse_assoc(value, base.fvc.entry_count)))
        elif dimension == "pixel_sampling":
            if not 1 <= value <= 16384:
                raise ConfigError("pixel_sampling sweep values must lie in 1..16384")
            cfg = replace(base, fvc=replace(base.fvc, pixel_sampling=value))
        else:
            if not 1 <= value <= 60:
                raise ConfigError("frame_sampling sweep values must lie in 1..60")
            cfg = replace(base, frame_sampling=value)
        cfg = replace(cfg, track_relative_coverage=SCHEMES[base.scheme].palette is not None)
        cfg.validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# Report writing

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_frame_csv(path: Path, trace: SurfaceTrace, cfg: ExperimentConfig,
                     result: RunResult) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# dcpbench compress trace={trace.name} category={trace.category} "
                 f"scheme={cfg.scheme} accounting={cfg.accounting} seed={cfg.seed} "
                 f"fvc={cfg.fvc.entry_count} policy={cfg.fvc.policy} "
                 f"pixel_sampling={cfg.fvc.pixel_sampling} frame_sampling={cfg.frame_sampling}\n")
        writer = csv.writer(fh)
        writer.writerow(FRAME_COLUMNS)
        for f in result.frames:
            writer.writerow([
                f.frame, f.uncompressed_bits, f.payload_bits, f.csb_bits,
                f.uncompressed_bursts, f.payload_bursts, f.csb_bursts,
                _fmt(f.rate), _fmt(f.coverage), f.ccd_size, f.rccd_bytes,
                int(f.compression_enabled), f.vdcp_blocks, f.ras_blocks,
            ])


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
        "totals": {
            "uncompressed_bits": w.uncompressed_bits,
            "payload_bits": w.payload_bits,
            "csb_bits": w.csb_bits,
            "uncompressed_bursts": w.uncompressed_bursts,
            "payload_bursts": w.payload_bursts,
            "csb_bursts": w.csb_bursts,
            "rccd_bytes": w.rccd_bytes,
        },
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

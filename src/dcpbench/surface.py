"""Pixel surfaces, frame traces, and the 8x8-block / 2x2-sub-block tiling.

Pixels are packed RGBA8888 values held in uint32 arrays: R in the low byte,
then G, B, A (the little-endian byte order of the raw frame files). Equality
is exact bitwise equality; every codec in the package treats the packed
32-bit word as the unit of compression.

A trace directory is the package's one outside input: `_read_manifest` alone
parses and checks its manifest, and `write_trace` writes its frames raw.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BLOCK = 8        # pixel block edge, fixed
SUB = 2          # sub-block edge, fixed

CATEGORIES = ("UI", "2D", "3D", "synthetic", "unknown")


class TraceError(Exception):
    """Base class for trace-directory data errors."""


class MissingManifestError(TraceError):
    pass


class FrameSizeError(TraceError):
    """A frame file does not match the manifest geometry."""


class TooFewFramesError(TraceError):
    """Traces need at least two frames: frame 0 is warm-up only."""


class FormatError(TraceError):
    """Malformed manifest or unsupported frame file format."""


class Frame:
    """A width x height grid of packed RGBA pixels, row-major. The pixels are
    all it holds: padding is made on demand, and `live_mask` gives the mask."""

    def __init__(self, pixels: np.ndarray):
        pixels = np.ascontiguousarray(pixels, dtype=np.uint32)
        if pixels.ndim != 2 or pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ValueError("frame pixels must be a non-empty 2-D array")
        self.pixels = pixels

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def padded(self) -> np.ndarray:
        """The pixels padded to block multiples by edge replication: the
        frame's own array when it is block-aligned, a new copy otherwise."""
        h, w = self.pixels.shape
        if h % BLOCK or w % BLOCK:
            return np.pad(self.pixels, ((0, -h % BLOCK), (0, -w % BLOCK)), mode="edge")
        return self.pixels

    def to_raw_bytes(self) -> bytes:
        return self.pixels.astype("<u4").tobytes()


class SurfaceTrace:
    """An ordered sequence of same-sized frames with workload metadata."""

    def __init__(self, frames: list[Frame], name: str = "trace", category: str = "unknown"):
        if len(frames) < 2:
            raise TooFewFramesError("a trace needs at least 2 frames")
        w, h = frames[0].width, frames[0].height
        for i, f in enumerate(frames):
            if f.width != w or f.height != h:
                raise FrameSizeError(f"frame {i} is {f.width}x{f.height}, expected {w}x{h}")
        if category not in CATEGORIES:
            raise FormatError(f"category {category!r} not one of {CATEGORIES}")
        self.frames = frames
        self.name = name
        self.category = category

    @property
    def width(self) -> int:
        return self.frames[0].width

    @property
    def height(self) -> int:
        return self.frames[0].height

    def __len__(self) -> int:
        return len(self.frames)


# ---------------------------------------------------------------------------
# Block tiling

def block_grid(width: int, height: int) -> tuple[int, int]:
    """(columns, rows) of the 8x8 block grid covering a frame."""
    return (-(-width // BLOCK), -(-height // BLOCK))


def live_mask(width: int, height: int) -> np.ndarray:
    """The live-pixel mask over a width x height frame's padded grid: False on
    the padded pixels, which never enter frequency collection or bandwidth."""
    cols, rows = block_grid(width, height)
    valid = np.zeros((rows * BLOCK, cols * BLOCK), dtype=bool)
    valid[:height, :width] = True
    return valid


def block_stack(pixels: np.ndarray) -> np.ndarray:
    """A padded frame, or its valid mask, as an (nby, nbx, 8, 8) view of its
    blocks: `[by, bx]` is one block, and `.reshape(-1, 8, 8)` lists them in
    raster order."""
    h, w = pixels.shape
    return pixels.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).swapaxes(1, 2)


def pool(x: np.ndarray, op: np.ufunc, fy: int, fx: int, dtype=None) -> np.ndarray:
    """`op` applied over each fy x fx tile of the last two axes of `x`.

    fy and fx are powers of two that divide those axes, and `op` is an
    associative, commutative binary ufunc (`logical_and`, `logical_or`,
    `add`, `maximum`). Each step halves one axis by applying `op` to its
    even and odd strided halves, rows first, then columns. numpy reduces
    over the 2- and 4-wide axes of a reshaped view about 20x slower. Every
    step's result has `dtype` (default: what `op` gives on `x`); the caller
    picks one that holds a whole tile's result. This is the one tile
    reduction of the package.
    """
    while fy > 1:
        x = op(x[..., 0::2, :], x[..., 1::2, :], dtype=dtype)
        fy //= 2
    while fx > 1:
        x = op(x[..., 0::2], x[..., 1::2], dtype=dtype)
        fx //= 2
    return x


def sub_block_valid_counts(valid: np.ndarray) -> np.ndarray:
    """Non-padded pixel count per 2x2 cell over a padded-size mask, as int8."""
    return pool(valid, np.add, SUB, SUB, dtype=np.int8)


def block_valid_counts(valid: np.ndarray) -> np.ndarray:
    """Non-padded pixel count per 8x8 block over a padded-size mask."""
    return pool(valid, np.add, BLOCK, BLOCK, dtype=np.int8).astype(np.int64)


# ---------------------------------------------------------------------------
# Trace directory I/O
#
# A trace directory holds manifest.json plus one file per frame:
#   manifest.json: {"width": W, "height": H, "frames": [names...],
#                   "name": str, "category": str}, W and H JSON integers
#                   >= 1, at least two frames, the name one printable line
#   frame files:   .raw/.bin  raw RGBA8888, row-major, R,G,B,A per pixel
#                  .ppm       binary P6, alpha read as 255
#                  .png       optional, decoded to the identical raw bytes

MANIFEST = "manifest.json"


def _read_manifest(root: Path) -> tuple[int, int, list[str], str, str]:
    """(width, height, frame file names, name, category) from the manifest in
    `root`, checked here but for the category, which `SurfaceTrace` checks."""
    path = root / MANIFEST
    if not path.is_file():
        raise MissingManifestError(f"no {MANIFEST} in {root}")
    try:
        manifest = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"bad manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise FormatError("the manifest must be a JSON object")
    width, height = manifest.get("width"), manifest.get("height")
    if not all(type(v) is int and v >= 1 for v in (width, height)):
        raise FormatError(f"width and height must be integers >= 1, got {width!r} and {height!r}")
    names = manifest.get("frames")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FormatError("manifest frames must be a list of file names")
    if len(names) < 2:
        raise TooFewFramesError(f"trace has {len(names)} frames, need >= 2")
    name = manifest.get("name", root.name)
    if not isinstance(name, str) or not name.isprintable():
        raise FormatError(f"the trace name must be one printable line, got {name!r}")
    return width, height, names, name, manifest.get("category", "unknown")


def load_trace(path) -> SurfaceTrace:
    root = Path(path)
    width, height, names, name, category = _read_manifest(root)
    frames = [_read_frame_file(root / fname, width, height) for fname in names]
    return SurfaceTrace(frames, name=name, category=category)


def trace_files(path) -> list[Path]:
    """The files `load_trace` reads: the manifest and the frame files it
    lists, or the manifest alone when it is not a valid one."""
    root = Path(path)
    try:
        names = _read_manifest(root)[2]
    except (TraceError, OSError):
        names = []
    return [root / MANIFEST, *(root / name for name in names)]


def write_trace(trace: SurfaceTrace, path) -> None:
    """Write a loadable trace directory of raw frames."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    names = [f"frame_{i:05d}.raw" for i in range(len(trace))]
    for fname, frame in zip(names, trace.frames):
        (root / fname).write_bytes(frame.to_raw_bytes())
    manifest = {"width": trace.width, "height": trace.height, "frames": names,
                "name": trace.name, "category": trace.category}
    (root / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_frame_file(path: Path, width: int, height: int) -> Frame:
    suffix = path.suffix.lower()
    if not path.is_file():
        raise FrameSizeError(f"missing frame file {path.name}")
    if suffix in (".raw", ".bin"):
        size = path.stat().st_size
        expected = width * height * 4
        if size != expected:
            raise FrameSizeError(
                f"{path.name}: {size} bytes, expected {expected} for {width}x{height}")
        return Frame(np.fromfile(path, dtype="<u4").reshape(height, width))
    if suffix == ".ppm":
        return _read_ppm(path, width, height)
    if suffix == ".png":
        return _read_png(path, width, height)
    raise FormatError(f"unsupported frame file type {path.name!r}")


def _read_ppm(path: Path, width: int, height: int) -> Frame:
    data = path.read_bytes()
    fields = []
    pos = 0
    # P6 header: magic, width, height, maxval, separated by whitespace,
    # with '#' comments allowed between tokens.
    while len(fields) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path.name}: truncated PPM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise FormatError(f"{path.name}: not a binary PPM")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise FormatError(f"{path.name}: bad PPM header") from exc
    if maxval != 255:
        raise FormatError(f"{path.name}: only maxval 255 supported")
    if (w, h) != (width, height):
        raise FrameSizeError(f"{path.name}: {w}x{h} does not match manifest {width}x{height}")
    body = data[pos:]
    if len(body) != w * h * 3:
        raise FrameSizeError(f"{path.name}: {len(body)} body bytes, expected {w * h * 3}")
    rgb = np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).astype(np.uint32)
    pixels = rgb[:, :, 0] | (rgb[:, :, 1] << 8) | (rgb[:, :, 2] << 16) | np.uint32(0xFF000000)
    return Frame(pixels)


def _read_png(path: Path, width: int, height: int) -> Frame:
    try:
        from PIL import Image
    except ImportError as exc:
        raise FormatError("PNG support requires Pillow") from exc
    with Image.open(path) as img:
        rgba = np.asarray(img.convert("RGBA"), dtype=np.uint32)
    h, w = rgba.shape[:2]
    if (w, h) != (width, height):
        raise FrameSizeError(f"{path.name}: {w}x{h} does not match manifest {width}x{height}")
    pixels = rgba[:, :, 0] | (rgba[:, :, 1] << 8) | (rgba[:, :, 2] << 16) | (rgba[:, :, 3] << 24)
    return Frame(pixels)

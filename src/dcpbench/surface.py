"""Pixel surfaces, frame traces, and the 8x8-block / 2x2-sub-block tiling.

Pixels are packed RGBA8888 values held in uint32 arrays: R in the low byte,
then G, B, A (the little-endian byte order of the raw frame files). Equality
is exact bitwise equality; every codec in the package treats the packed
32-bit word as the unit of compression.
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
    """A width x height grid of packed RGBA pixels, row-major."""

    def __init__(self, pixels: np.ndarray):
        pixels = np.ascontiguousarray(pixels, dtype=np.uint32)
        if pixels.ndim != 2 or pixels.shape[0] < 1 or pixels.shape[1] < 1:
            raise ValueError("frame pixels must be a non-empty 2-D array")
        self.pixels = pixels
        self._padded: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Frame padded to block multiples by edge replication, plus a mask.

        Returns (pixels, valid) where valid is False exactly on padded
        positions. Padded pixels never enter frequency collection or
        bandwidth totals.
        """
        if self._padded is None:
            h, w = self.pixels.shape
            ph = -h % BLOCK
            pw = -w % BLOCK
            if ph or pw:
                padded = np.pad(self.pixels, ((0, ph), (0, pw)), mode="edge")
            else:
                padded = self.pixels
            valid = np.zeros(padded.shape, dtype=bool)
            valid[:h, :w] = True
            self._padded = (padded, valid)
        return self._padded

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


def block_stack(pixels: np.ndarray) -> np.ndarray:
    """A padded frame, or its valid mask, as an (nby, nbx, 8, 8) view of its
    blocks: `[by, bx]` is one block, and `.reshape(-1, 8, 8)` lists them in
    raster order."""
    h, w = pixels.shape
    return pixels.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).swapaxes(1, 2)


def sub_block_valid_counts(valid: np.ndarray) -> np.ndarray:
    """Non-padded pixel count per 2x2 cell over a padded-size mask."""
    h, w = valid.shape
    return valid.reshape(h // SUB, SUB, w // SUB, SUB).sum(axis=(1, 3), dtype=np.int64)


def block_valid_counts(valid: np.ndarray) -> np.ndarray:
    """Non-padded pixel count per 8x8 block over a padded-size mask."""
    h, w = valid.shape
    return valid.reshape(h // BLOCK, BLOCK, w // BLOCK, BLOCK).sum(axis=(1, 3), dtype=np.int64)


# ---------------------------------------------------------------------------
# Trace directory I/O
#
# A trace directory holds manifest.json plus one file per frame:
#   manifest.json: {"width": W, "height": H, "frames": [names...],
#                   "name": str, "category": str}
#   frame files:   .raw/.bin  raw RGBA8888, row-major, R,G,B,A per pixel
#                  .ppm       binary P6, alpha read as 255
#                  .png       optional, decoded to the identical raw bytes

MANIFEST = "manifest.json"


def load_trace(path) -> SurfaceTrace:
    root = Path(path)
    manifest_path = root / MANIFEST
    if not manifest_path.is_file():
        raise MissingManifestError(f"no {MANIFEST} in {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"bad manifest: {exc}") from exc
    try:
        width = int(manifest["width"])
        height = int(manifest["height"])
        names = list(manifest["frames"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"manifest missing width/height/frames: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError("width and height must be >= 1")
    if len(names) < 2:
        raise TooFewFramesError(f"trace has {len(names)} frames, need >= 2")
    name = str(manifest.get("name", root.name))
    category = str(manifest.get("category", "unknown"))
    if category not in CATEGORIES:
        raise FormatError(f"category {category!r} not one of {CATEGORIES}")
    frames = [_read_frame_file(root / fname, width, height) for fname in names]
    return SurfaceTrace(frames, name=name, category=category)


def write_trace(trace: SurfaceTrace, path, fmt: str = "raw") -> None:
    """Write a loadable trace directory. `fmt` is raw, ppm, or png."""
    if fmt not in ("raw", "ppm", "png"):
        raise FormatError(f"unsupported output format {fmt!r}")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    ext = {"raw": "raw", "ppm": "ppm", "png": "png"}[fmt]
    names = []
    for i, frame in enumerate(trace.frames):
        fname = f"frame_{i:05d}.{ext}"
        names.append(fname)
        _write_frame_file(root / fname, frame, fmt)
    manifest = {
        "width": trace.width,
        "height": trace.height,
        "frames": names,
        "name": trace.name,
        "category": trace.category,
    }
    (root / MANIFEST).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _read_frame_file(path: Path, width: int, height: int) -> Frame:
    suffix = path.suffix.lower()
    if not path.is_file():
        raise FrameSizeError(f"missing frame file {path.name}")
    if suffix in (".raw", ".bin"):
        data = path.read_bytes()
        expected = width * height * 4
        if len(data) != expected:
            raise FrameSizeError(
                f"{path.name}: {len(data)} bytes, expected {expected} for {width}x{height}")
        return Frame(np.frombuffer(data, dtype="<u4").reshape(height, width).copy())
    if suffix == ".ppm":
        return _read_ppm(path, width, height)
    if suffix == ".png":
        return _read_png(path, width, height)
    raise FormatError(f"unsupported frame file type {path.name!r}")


def _write_frame_file(path: Path, frame: Frame, fmt: str) -> None:
    if fmt == "raw":
        path.write_bytes(frame.to_raw_bytes())
    elif fmt == "ppm":
        alpha = frame.pixels >> 24
        if not bool((alpha == 255).all()):
            raise FormatError("PPM cannot carry alpha != 255")
        rgb = np.stack([(frame.pixels >> s) & 0xFF for s in (0, 8, 16)], axis=-1)
        header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
        path.write_bytes(header + rgb.astype(np.uint8).tobytes())
    else:
        try:
            from PIL import Image
        except ImportError as exc:
            raise FormatError("PNG support requires Pillow") from exc
        rgba = np.stack([(frame.pixels >> s) & 0xFF for s in (0, 8, 16, 24)], axis=-1)
        Image.fromarray(rgba.astype(np.uint8), mode="RGBA").save(path)


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

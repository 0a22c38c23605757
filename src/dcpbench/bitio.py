"""MSB-first bit fields over whole stacks of blocks.

Every block codec writes its block as a row of fields, each at most 32 bits
wide, packed most-significant-bit first and padded to a byte boundary per
block. `pack_fields` packs all rows of a stack at once into their joined
streams and `read_fields` reads fields back from any bit offsets of a byte
buffer, so no codec ever touches one bit or one block at a time.
"""

from __future__ import annotations

import numpy as np

FIELD_MAX_BITS = 32
_SLACK_BYTES = 8               # zero bytes after a buffer bound every 8-byte window


class CorruptStreamError(Exception):
    """A compressed payload is inconsistent with its metadata."""


def pack_fields(widths: np.ndarray, values: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Pack an (n, F) stack of fields into n byte-aligned streams.

    `widths` are 0..32 bits and `values[i, j] < 2 ** widths[i, j]`. Returns
    the rows' streams joined in order and each row's true bit length.
    Word-level, after Lemire and Boytsov (SPE 2015): every field is shifted
    once into the 64-bit pair of 32-bit words it falls in, and each word
    gathers its fields' parts.
    """
    widths = np.asarray(widths, dtype=np.int64)
    nbits = widths.sum(axis=1)
    nbytes = (nbits + 7) // 8
    base = 8 * (np.cumsum(nbytes) - nbytes)
    at = (base[:, None] + np.cumsum(widths, axis=1) - widths).reshape(-1)
    pair = np.asarray(values, dtype=np.uint64).reshape(-1) << (
        (64 - (at & 31) - widths.reshape(-1)).astype(np.uint64))
    # A word's fields never overlap, so the sum of their parts is their OR,
    # and a sum below 2**32 is exact in bincount's float64.
    q = at >> 5
    size = (int(nbytes.sum()) + 3) // 4 + 2
    words = np.bincount(q, (pair >> np.uint64(32)).astype(np.float64), size)
    words[1:] += np.bincount(q, (pair & np.uint64(0xFFFFFFFF)).astype(np.float64), size)[:-1]
    return words.astype(">u4").view(np.uint8)[:int(nbytes.sum())].tobytes(), nbits


def join_streams(payload: bytes) -> np.ndarray:
    """A payload of joined byte-aligned streams as a `read_fields` buffer:
    its bytes, then the zero slack that bounds every 8-byte window."""
    return np.frombuffer(payload + bytes(_SLACK_BYTES), dtype=np.uint8)


def stream_starts(nbits: np.ndarray, payload: bytes) -> np.ndarray:
    """The first bit of each byte-aligned stream of `nbits` bits, given that
    the streams make up `payload` in order; see `check_payload_end`."""
    nbytes = (np.asarray(nbits, dtype=np.int64) + 7) // 8
    ends = np.cumsum(nbytes)
    check_payload_end(int(ends[-1]) if ends.size else 0, payload)
    return 8 * (ends - nbytes)


def check_payload_end(used: int, payload: bytes) -> None:
    """Raise CorruptStreamError unless streams that take `used` bytes use
    exactly the payload's: a stream past its end, or bytes left unread."""
    if used > len(payload):
        raise CorruptStreamError("bit stream exhausted")
    if used < len(payload):
        raise CorruptStreamError(f"{len(payload) - used} payload bytes left unread")


def read_fields(buf: np.ndarray, at: np.ndarray, widths) -> np.ndarray:
    """The `widths`-bit (0..32) MSB-first values at bit offsets `at` of a
    buffer from `join_streams`, as uint64; one 8-byte gather per field.

    A field may end up to 32 bits past the last byte of the streams, in
    the slack, which reads as zeros. Offsets further out read an
    unspecified value but never outside the buffer: callers check lengths
    against their streams' ends.
    """
    at = np.asarray(at, dtype=np.int64)
    windows = np.ndarray(shape=(buf.size - 7,), dtype=">u8", buffer=buf, strides=(1,))
    w = windows[np.minimum(at >> 3, buf.size - 8)] << (at & 7).astype(np.uint64)
    return (w >> np.uint64(32)) >> (32 - np.asarray(widths, dtype=np.int64)).astype(np.uint64)

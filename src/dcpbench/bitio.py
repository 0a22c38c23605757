"""MSB-first bit packing used by the block codecs and the frame container."""

from __future__ import annotations


class CorruptStreamError(Exception):
    """A compressed payload is inconsistent with its metadata."""


class BitWriter:
    """Accumulates bits most-significant-first into a byte string."""

    def __init__(self):
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits

    def align_byte(self) -> None:
        pad = -self._nbits % 8
        if pad:
            self.write(0, pad)

    @property
    def bit_length(self) -> int:
        return self._nbits

    def to_bytes(self) -> bytes:
        nbytes = (self._nbits + 7) // 8
        acc = self._acc << (nbytes * 8 - self._nbits)
        return acc.to_bytes(nbytes, "big")


class BitReader:
    """Reads bits most-significant-first from a byte string.

    Only a window of WINDOW_BYTES bytes is held as an integer, reloaded when
    a read crosses its end, so a read costs the same however long the
    stream is.
    """

    WINDOW_BYTES = 64

    def __init__(self, data: bytes, nbits: int | None = None):
        self._data = bytes(data)
        self._total = len(data) * 8 if nbits is None else nbits
        if nbits is not None and nbits > len(data) * 8:
            raise ValueError("declared bit length exceeds buffer")
        self._pos = 0
        self._window = 0
        self._window_end = 0     # bit position just past the window

    def read(self, nbits: int) -> int:
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        end = self._pos + nbits
        if end > self._total:
            raise CorruptStreamError("bit stream exhausted")
        if end > self._window_end:
            first = self._pos // 8
            last = max(first + self.WINDOW_BYTES, (end + 7) // 8)
            chunk = self._data[first:last]
            self._window = int.from_bytes(chunk, "big")
            self._window_end = (first + len(chunk)) * 8
        self._pos = end
        return (self._window >> (self._window_end - end)) & ((1 << nbits) - 1)

    def peek(self, nbits: int) -> int:
        """The next `nbits` bits, left unread."""
        value = self.read(nbits)
        self._pos -= nbits
        return value

    def remaining(self) -> int:
        return self._total - self._pos

    def align_byte(self) -> None:
        pad = -self._pos % 8
        if pad:
            self.read(pad)

    def tell(self) -> int:
        return self._pos

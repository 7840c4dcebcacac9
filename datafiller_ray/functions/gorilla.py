"""Gorilla-style chunk compression (Pelkonen et al., VLDB 2015).

Two streams per chunk:

- **timestamps** (int64, regular-ish): first value raw 64b, first delta raw
  64b, then delta-of-delta with prefix codes
  ``0`` (dod=0), ``10``+7b [-63,64], ``110``+9b [-255,256],
  ``1110``+12b [-2047,2048], ``1111``+64b raw. On a dense tier grid the dod
  is 0 for every point → ~1 bit/timestamp.
- **float64 values**: XOR with previous; ``0`` if equal, else ``1`` then
  ``0``+meaningful-bits when the XOR fits the previous leading/trailing-zero
  window, else ``1``+6b leading+6b (significant length - 1)+bits. NaN is a
  regular bit pattern and round-trips bit-exactly (tier gap buckets).

The engine reuses the float path for integer aggregate columns by exact
float64 embedding (|v| < 2^53 — guarded). Bit-packing style follows the
reference's in-repo precedent of packing bool masks into uint64 words
(``/root/reference/src/datafiller/multivariate/_gram.py:38-56``), but the
codec itself is written from the published paper format.
"""

from __future__ import annotations

import struct

import numpy as np

from datafiller_ray.config import EngineValueError

_MASK64 = (1 << 64) - 1


class BitWriter:
    __slots__ = ("buf", "acc", "nbits")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, value: int, bits: int) -> None:
        self.acc = (self.acc << bits) | (value & ((1 << bits) - 1))
        self.nbits += bits
        while self.nbits >= 8:
            self.nbits -= 8
            self.buf.append((self.acc >> self.nbits) & 0xFF)
        self.acc &= (1 << self.nbits) - 1

    def getvalue(self) -> bytes:
        out = bytearray(self.buf)
        if self.nbits:
            out.append((self.acc << (8 - self.nbits)) & 0xFF)
        return bytes(out)


class BitReader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0  # bit position

    def read(self, bits: int) -> int:
        end = self.pos + bits
        first_byte = self.pos >> 3
        last_byte = (end + 7) >> 3
        chunk = int.from_bytes(self.data[first_byte:last_byte], "big")
        shift = (last_byte << 3) - end
        self.pos = end
        return (chunk >> shift) & ((1 << bits) - 1)

    def check_consumed(self) -> None:
        """Reads past the payload end return zero bits; a decoder calls
        this once at the end to reject a truncated payload."""
        if self.pos > len(self.data) * 8:
            raise EngineValueError(
                f"truncated Gorilla payload: decoding needs {self.pos} bits, "
                f"payload holds {len(self.data) * 8}"
            )


def encode_timestamps(ts: np.ndarray) -> bytes:
    """Delta-of-delta encode an int64 array."""
    ts = np.asarray(ts, dtype=np.int64)
    n = ts.size
    w = BitWriter()
    if n == 0:
        return struct.pack("<I", 0)
    w.write(int(ts[0]) & _MASK64, 64)
    if n > 1:
        deltas = np.diff(ts)
        w.write(int(deltas[0]) & _MASK64, 64)
        dods = np.diff(deltas)
        for dod in dods.tolist():
            if dod == 0:
                w.write(0, 1)
            elif -63 <= dod <= 64:
                w.write(0b10, 2)
                w.write(dod + 63, 7)
            elif -255 <= dod <= 256:
                w.write(0b110, 3)
                w.write(dod + 255, 9)
            elif -2047 <= dod <= 2048:
                w.write(0b1110, 4)
                w.write(dod + 2047, 12)
            else:
                w.write(0b1111, 4)
                w.write(dod & _MASK64, 64)
    return struct.pack("<I", n) + w.getvalue()


def decode_timestamps(blob: bytes) -> np.ndarray:
    (n,) = struct.unpack_from("<I", blob, 0)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    r = BitReader(blob[4:])

    def s64(u: int) -> int:
        return u - (1 << 64) if u >= (1 << 63) else u

    out[0] = s64(r.read(64))
    if n > 1:
        delta = s64(r.read(64))
        out[1] = out[0] + delta
    for i in range(2, n):
        if r.read(1) == 0:
            dod = 0
        elif r.read(1) == 0:
            dod = r.read(7) - 63
        elif r.read(1) == 0:
            dod = r.read(9) - 255
        elif r.read(1) == 0:
            dod = r.read(12) - 2047
        else:
            dod = s64(r.read(64))
        delta += dod
        out[i] = out[i - 1] + delta
    r.check_consumed()
    return out


def encode_floats(values: np.ndarray) -> bytes:
    """XOR-encode a float64 array (bit-exact incl. NaN payloads)."""
    bits = np.asarray(values, dtype=np.float64).view(np.uint64)
    n = bits.size
    w = BitWriter()
    if n == 0:
        return struct.pack("<I", 0)
    prev = int(bits[0])
    w.write(prev, 64)
    lead, sig = 65, 0  # invalid window forces a new-window code first time
    for cur in bits[1:].tolist():
        cur = int(cur)
        x = prev ^ cur
        prev = cur
        if x == 0:
            w.write(0, 1)
            continue
        w.write(1, 1)
        bl = x.bit_length()
        cur_lead = 64 - bl
        cur_trail = (x & -x).bit_length() - 1
        cur_sig = 64 - cur_lead - cur_trail
        if lead <= cur_lead and sig >= (64 - cur_lead - cur_trail) and (64 - lead - sig) <= cur_trail:
            # fits previous window: '0' + sig bits from the stored window
            w.write(0, 1)
            w.write(x >> (64 - lead - sig), sig)
        else:
            lead = min(cur_lead, 63)
            sig = 64 - lead - cur_trail
            w.write(1, 1)
            w.write(lead, 6)
            w.write(sig - 1, 6)
            w.write(x >> cur_trail, sig)
    return struct.pack("<I", n) + w.getvalue()


def decode_floats(blob: bytes) -> np.ndarray:
    (n,) = struct.unpack_from("<I", blob, 0)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    r = BitReader(blob[4:])
    prev = r.read(64)
    out[0] = prev
    lead, sig = 0, 0
    for i in range(1, n):
        if r.read(1) == 0:
            out[i] = prev
            continue
        if r.read(1) == 1:
            lead = r.read(6)
            sig = r.read(6) + 1
        x = r.read(sig) << (64 - lead - sig)
        prev ^= x
        out[i] = prev
    r.check_consumed()
    return out.view(np.float64)


def encode_int_column(values: np.ndarray) -> bytes:
    """Encode an integer-valued float64/int64 column via the float path
    (exact for |v| < 2^53; tier aggregates are far below)."""
    arr = np.asarray(values, dtype=np.float64)
    finite = arr[np.isfinite(arr)]
    if finite.size and np.abs(finite).max() >= 2**53:
        raise EngineValueError("integer column exceeds exact float64 range")
    return encode_floats(arr)

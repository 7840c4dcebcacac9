"""Gorilla codec round-trip + hand-computed bit goldens (FIXTURES.md F4)."""

import struct

import numpy as np
import pandas as pd
import pytest

from datafiller_ray.functions import gorilla
from datafiller_ray.stages.compress import decode_tier_chunk, encode_tier_chunks


def roundtrip_ts(ts):
    ts = np.asarray(ts, dtype=np.int64)
    out = gorilla.decode_timestamps(gorilla.encode_timestamps(ts))
    np.testing.assert_array_equal(out, ts)


def roundtrip_f(v):
    v = np.asarray(v, dtype=np.float64)
    out = gorilla.decode_floats(gorilla.encode_floats(v))
    np.testing.assert_array_equal(v.view(np.uint64), out.view(np.uint64))


def test_timestamp_roundtrips():
    roundtrip_ts([])
    roundtrip_ts([7])
    roundtrip_ts([0, 60])
    roundtrip_ts(np.arange(0, 60_000, 60))
    roundtrip_ts([0, 60, 120, 300, 360, 100_000, 100_060])  # irregular jumps
    roundtrip_ts([-86400, 0, 86400])
    rng = np.random.default_rng(0)
    roundtrip_ts(np.sort(rng.integers(-(2**40), 2**40, 500)))


def test_float_roundtrips():
    roundtrip_f([])
    roundtrip_f([3.25])
    roundtrip_f(np.full(50, 1.5))  # constant series
    roundtrip_f([1.0, -1.0, 1.0, -1.0])  # sign flips
    roundtrip_f([np.nan, 1.0, np.nan, np.inf, -np.inf, 0.0, -0.0])
    rng = np.random.default_rng(1)
    v = rng.normal(size=2000)
    v[rng.random(2000) < 0.25] = np.nan
    roundtrip_f(v)
    roundtrip_f(rng.integers(0, 2**50, 300).astype(np.float64))


def test_timestamp_golden_regular_grid():
    # 4 points at step 60: header n=4, first ts 64b, first delta 64b,
    # then two dod=0 single '0' bits -> padded to one byte 0x00
    ts = np.array([120, 180, 240, 300], dtype=np.int64)
    blob = gorilla.encode_timestamps(ts)
    n = struct.unpack_from("<I", blob, 0)[0]
    assert n == 4
    body = blob[4:]
    assert int.from_bytes(body[0:8], "big") == 120
    assert int.from_bytes(body[8:16], "big") == 60
    assert body[16] == 0x00 and len(body) == 17


def test_timestamp_golden_small_dod():
    # deltas 60, 62 -> dod=+2 -> '10' + (2+63=65 as 7 bits) = 10 1000001 0(pad)
    ts = np.array([0, 60, 122], dtype=np.int64)
    body = gorilla.encode_timestamps(ts)[4:]
    # bit stream: '10' + '1000001' = 101000001 -> bytes 0b10100000, 0b1<7 pad>
    assert body[16] == 0b10100000 and body[17] == 0b10000000


def test_float_golden_repeat_and_new_window():
    # [v, v] -> after first raw 64b, single '0' bit
    v = np.array([2.0, 2.0])
    body = gorilla.encode_floats(v)[4:]
    assert len(body) == 9 and body[8] == 0x00
    # [1.5, 1.75]: xor = 2^50 -> lead=13, sig=1; bits are
    # '1'(nonzero) '1'(new window) 001101(lead=13) 000000(sig-1=0) '1'(the bit)
    # -> bytes 0b11001101, 0b00000010 (zero-padded)
    body2 = gorilla.encode_floats(np.array([1.5, 1.75]))[4:]
    assert body2[8] == 0b11001101
    assert body2[9] == 0b00000010
    assert len(body2) == 10


def test_int_column_guard():
    from datafiller_ray.config import EngineValueError

    with pytest.raises(EngineValueError):
        gorilla.encode_int_column(np.array([2.0**53]))
    # below the limit is fine
    gorilla.encode_int_column(np.array([2.0**53 - 1]))


def test_tier_chunk_roundtrip():
    rng = np.random.default_rng(2)
    n = 500
    rows = pd.DataFrame(
        {
            "source": "src_0001",
            "tier": "1m",
            "bucket_ts": np.arange(n, dtype=np.int64) * 60,
            "count": rng.integers(0, 5, n),
            "sum": rng.integers(0, 10_000, n).astype(float),
            "min": rng.integers(0, 100, n).astype(float),
            "max": rng.integers(100, 200, n).astype(float),
            "value": rng.normal(size=n),
            "filled": False,
            "fill_method": "observed",
        }
    )
    rows.loc[rng.random(n) < 0.2, ["sum", "min", "max", "value"]] = np.nan
    blobs = encode_tier_chunks(rows)
    assert len(blobs) == 1
    dec = decode_tier_chunk(blobs.iloc[0])
    np.testing.assert_array_equal(dec["bucket_ts"], rows["bucket_ts"])
    for col in ["count", "sum", "min", "max", "value"]:
        np.testing.assert_array_equal(
            dec[col].to_numpy(np.float64).view(np.uint64),
            rows[col].to_numpy(np.float64).view(np.uint64),
        )
    # compression actually compresses the regular grid timestamps
    assert len(blobs.iloc[0]["ts_blob"]) * 8 / n < 2.0


@pytest.mark.parametrize(
    "ts",
    [[7], [0, 60], np.arange(0, 60_000, 60), [0, 60, 120, 300, 360, 100_000]],
    ids=["one", "two", "regular", "irregular"],
)
def test_truncated_timestamp_blob_raises(ts):
    from datafiller_ray.config import EngineValueError

    blob = gorilla.encode_timestamps(np.asarray(ts, dtype=np.int64))
    with pytest.raises(EngineValueError, match="truncated"):
        gorilla.decode_timestamps(blob[:-1])


@pytest.mark.parametrize(
    "v",
    [[3.25], np.full(50, 1.5), [np.nan, 1.0, np.nan, np.inf, -0.0]],
    ids=["one", "constant", "mixed"],
)
def test_truncated_float_blob_raises(v):
    from datafiller_ray.config import EngineValueError

    blob = gorilla.encode_floats(np.asarray(v, dtype=np.float64))
    with pytest.raises(EngineValueError, match="truncated"):
        gorilla.decode_floats(blob[:-1])

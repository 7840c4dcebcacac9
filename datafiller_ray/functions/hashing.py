"""Deterministic vectorized hashing used by the fixture generator and the
token-equality invariant check.

The token payload of every row is a pure function of ``(source, epoch_minute,
n_tok)`` via a splitmix64-style mixer, so per-row token-array equality can be
verified anywhere in the pipeline without shipping golden copies (FIXTURES.md
F1: "hash(doc_id) seeds the draw").
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_VOCAB = 50_000  # token ids in [0, 50_000) per FIXTURES.md F1
_VOCAB_U64 = np.uint64(_VOCAB)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
    return x


def string_hash64(values: np.ndarray | list[str]) -> np.ndarray:
    """Stable 64-bit hash of an array of strings (vectorized FNV-1a over a
    fixed-width byte view, then splitmix64 finalized)."""
    arr = np.asarray(values, dtype="U")
    # View unicode code points as uint32 matrix (n, width)
    width = arr.dtype.itemsize // 4
    codes = arr.view(np.uint32).reshape(len(arr), width).astype(np.uint64)
    h = np.full(len(arr), np.uint64(0xCBF29CE484222325))
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for j in range(width):
            col = codes[:, j]
            live = col != 0  # NUL padding: shorter strings stop mixing, so the
            # hash is independent of the array-wide width
            h2 = (h ^ col) * prime
            h = np.where(live, h2, h)
    return splitmix64(h)


def row_seed(source_hash: np.ndarray, epoch_minute: np.ndarray) -> np.ndarray:
    """Per-row 64-bit seed from source hash + event minute."""
    with np.errstate(over="ignore"):
        mixed = source_hash.astype(np.uint64) ^ (
            epoch_minute.astype(np.uint64) * _GOLDEN
        )
    return splitmix64(mixed)


def _mix_tokens(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Overwrite ``x``, a uint64 array of ``seed + position + _GOLDEN``,
    with the token values ``splitmix64(seed + position) % _VOCAB`` (still
    uint64). ``tmp`` is uint64 scratch of ``x``'s size, so the shifts and
    the division allocate nothing.

    ``x mod V`` is taken as ``x - (x // V) * V``: NumPy's 64-bit unsigned
    ``%`` by a scalar does not vectorize (about 130 us per 64 Ki values on
    one core), while ``floor_divide`` by the same ``np.uint64`` scalar runs
    as a multiply-shift (about 10 us). Both are exact integer arithmetic
    over the whole uint64 range, so the values equal ``%``'s."""
    with np.errstate(over="ignore"):
        # splitmix64 after its ``+ _GOLDEN`` step, which the caller folded in
        np.right_shift(x, np.uint64(30), out=tmp)
        x ^= tmp
        x *= _MIX1
        np.right_shift(x, np.uint64(27), out=tmp)
        x ^= tmp
        x *= _MIX2
        np.right_shift(x, np.uint64(31), out=tmp)
        x ^= tmp
    np.floor_divide(x, _VOCAB_U64, out=tmp)
    tmp *= _VOCAB_U64
    x -= tmp
    return x


def _row_bases(seeds: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per row ``seed_i - offset_i + _GOLDEN`` (mod 2**64): token ``k`` of
    the flat array, in row ``i``, is ``_mix_tokens`` of ``base_i + k``."""
    with np.errstate(over="ignore"):
        base = seeds.astype(np.uint64) - offsets[:-1].astype(np.uint64)
        base += _GOLDEN
    return base


def _offsets(n_tok: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(n_tok) + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    return offsets


def expected_tokens_flat(
    seeds: np.ndarray, n_tok: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic token values for a batch of rows, flattened.

    Returns ``(offsets, values)`` suitable for
    ``pa.ListArray.from_arrays(offsets, values)``: ``values[k]`` for row ``i``,
    position ``j`` is ``splitmix64(seed_i + j) % 50000``, all vectorized over
    the ragged structure (no per-row loop).
    """
    n_tok = np.asarray(n_tok, dtype=np.int64)
    offsets = _offsets(n_tok)
    x = np.repeat(_row_bases(seeds, offsets), n_tok)
    with np.errstate(over="ignore"):
        x += np.arange(x.size, dtype=np.uint64)
    values = _mix_tokens(x, np.empty_like(x)).astype(np.int32)
    return offsets, values


def tokens_match(
    seeds: np.ndarray,
    n_tok: np.ndarray,
    actual: np.ndarray,
    *,
    chunk: int = 1 << 16,
) -> bool:
    """Whether the flattened token array ``actual`` equals
    ``expected_tokens_flat(seeds, n_tok)[1]``.

    The expected values are built ``chunk`` tokens at a time (512 KiB of
    uint64 scratch at the default, so each chunk stays in cache) and each
    chunk is compared as soon as it is built; the first mismatching chunk
    ends the check. Token ``k`` of the flat array, in row ``i``, is
    ``splitmix64(seed_i - offset_i + k) % 50000``, so a chunk starting at
    ``lo`` needs one ``repeat`` of ``seed_i - offset_i + lo`` (plus the
    mixer's first constant) over its rows, one shared ``arange`` and the
    mixer, which reuses one scratch buffer. The ``% 50000`` is a division
    and a multiply-subtract (see ``_mix_tokens``): 64-bit ``%`` by a
    scalar was half of the check's time.
    """
    n_tok = np.asarray(n_tok, dtype=np.int64)
    offsets = _offsets(n_tok)
    total = int(offsets[-1])
    if actual.size != total:
        return False
    base = _row_bases(seeds, offsets)
    ramp = np.arange(min(chunk, total), dtype=np.uint64)
    tmp = np.empty_like(ramp)
    got = np.empty(ramp.size, np.int32)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        m = hi - lo
        # rows r0 .. r1-1 overlap [lo, hi); r0 is the non-empty row holding lo
        r0 = int(np.searchsorted(offsets, lo, side="right")) - 1
        r1 = int(np.searchsorted(offsets, hi, side="left"))
        counts = np.minimum(offsets[r0 + 1 : r1 + 1], hi) - np.maximum(
            offsets[r0:r1], lo
        )
        with np.errstate(over="ignore"):
            x = np.repeat(base[r0:r1] + np.uint64(lo), counts)
            x += ramp[:m]
        _mix_tokens(x, tmp[:m])
        np.copyto(got[:m], x, casting="unsafe")  # values < 50000: exact
        if not np.array_equal(got[:m], actual[lo:hi]):
            return False
    return True

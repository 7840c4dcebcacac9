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


def splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array."""
    return _splitmix64_inplace(x.astype(np.uint64, copy=True))


def _splitmix64_inplace(x: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` overwriting the uint64 array ``x``."""
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


def expected_tokens_flat(
    seeds: np.ndarray, n_tok: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic token values for a batch of rows, flattened.

    Returns ``(offsets, values)`` suitable for
    ``pa.ListArray.from_arrays(offsets, values)``: ``values[k]`` for row ``i``,
    position ``j`` is ``splitmix64(seed_i + j) % 50000``, all vectorized over
    the ragged structure (no per-row loop).
    """
    n_tok = n_tok.astype(np.int64)
    offsets = np.zeros(len(n_tok) + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    total = int(offsets[-1])
    j = np.arange(total, dtype=np.uint64)
    j -= np.repeat(offsets[:-1].astype(np.uint64), n_tok)
    seed_rep = np.repeat(seeds.astype(np.uint64), n_tok)
    with np.errstate(over="ignore"):
        mixed = splitmix64(seed_rep + j)
    values = (mixed % np.uint64(_VOCAB)).astype(np.int32)
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
    ``splitmix64(seed_i - offset_i + k) % 50000``, so a chunk needs one
    ``repeat`` of ``seed_i - offset_i`` over its rows plus an ``arange``.
    """
    n_tok = np.asarray(n_tok, dtype=np.int64)
    offsets = np.zeros(n_tok.size + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])
    total = int(offsets[-1])
    if actual.size != total:
        return False
    with np.errstate(over="ignore"):  # seed - offset wraps mod 2**64
        base = seeds.astype(np.uint64) - offsets[:-1].astype(np.uint64)
    vocab = np.uint64(_VOCAB)
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        # rows r0 .. r1-1 overlap [lo, hi); r0 is the non-empty row holding lo
        r0 = int(np.searchsorted(offsets, lo, side="right")) - 1
        r1 = int(np.searchsorted(offsets, hi, side="left"))
        counts = np.minimum(offsets[r0 + 1 : r1 + 1], hi) - np.maximum(
            offsets[r0:r1], lo
        )
        x = np.repeat(base[r0:r1], counts)
        with np.errstate(over="ignore"):
            x += np.arange(lo, hi, dtype=np.uint64)
        _splitmix64_inplace(x)
        x %= vocab
        if not np.array_equal(x.astype(np.int32), actual[lo:hi]):
            return False
    return True

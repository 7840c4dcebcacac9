"""Sequence packing: greedy fixed-length packing of pre-tokenized docs.

The canonical pretraining step over this engine's input domain: documents
(doc_id, n_tok, source) are packed per source into training sequences of
at most ``max_len`` tokens. This stage computes the PACK MANIFEST — pack
boundaries, per-pack token/doc counts, fill ratios — from the 16-byte
(doc_id, n_tok) projection only; the heavy ``tokens`` column never moves.
Materializing the packed token arrays is a second, embarrassingly
parallel gather: each manifest row names a contiguous doc_id range of one
source, so a `map_batches` over the manifest can read exactly those rows
(the same partition-pruned pattern as the ANN storage index).

Determinism contract (shared with the vendored scalar oracle):

- docs are packed in ascending ``doc_id`` order within each source;
- greedy rule: a pack takes consecutive docs while total n_tok stays
  <= max_len; a single doc longer than max_len forms its own (oversize)
  pack — nothing is split or dropped;
- all arithmetic is int64 (boundaries via searchsorted on the token
  cumsum, one pack per iteration); only ``fill_ratio`` divides, rounded
  with the engine-wide floor(x*1e6+0.5)/1e6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import pandas as pd

if TYPE_CHECKING:
    from ray.data import Dataset


def pack_bounds(n_tok: np.ndarray, max_len: int) -> np.ndarray:
    """Start indices of each pack (greedy; one searchsorted per pack)."""
    n = n_tok.size
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(n_tok.astype(np.int64))])
    starts = []
    i = 0
    while i < n:
        starts.append(i)
        j = int(np.searchsorted(cs, cs[i] + max_len, side="right")) - 1
        i = max(j, i + 1)  # an oversize doc advances by one
    return np.asarray(starts, dtype=np.int64)


def _pack_one_source(g: pd.DataFrame, source: str, max_len: int) -> pd.DataFrame:
    order = np.argsort(g["doc_id"].to_numpy(), kind="stable")
    ids = g["doc_id"].to_numpy()[order]
    tok = g["n_tok"].to_numpy(np.int64)[order]
    starts = pack_bounds(tok, max_len)
    ends = np.concatenate([starts[1:], np.array([tok.size], dtype=np.int64)])
    cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(tok)])
    filled = cs[ends] - cs[starts]
    n_packs = starts.size
    return pd.DataFrame(
        {
            "source": np.full(n_packs, source, dtype=object),
            "pack_idx": np.arange(n_packs, dtype=np.int64),
            "n_docs": (ends - starts).astype(np.int64),
            "tok_filled": filled,
            "oversize": filled > max_len,
            "fill_ratio": np.floor(
                filled.astype(np.float64) / float(max_len) * 1e6 + 0.5
            )
            / 1e6,
            "first_doc_id": ids[starts],
            "last_doc_id": ids[ends - 1],
        }
    )


def _keyed_for_packing(input_path, *, with_tokens: bool, chunk_span):
    """Project + key the doc stream for a packing exchange: skey always;
    plus a deterministic time-chunk key (epoch-minute // chunk_span, from
    the doc_id suffix — the salted-fill range-partition idea) when
    ``chunk_span`` is set, so one giant source splits into bounded,
    independently-packable ranges."""
    import ray

    from datafiller_ray.pipelines.rollup import read_input

    ds = (
        input_path
        if isinstance(input_path, ray.data.Dataset)
        else read_input(input_path, with_tokens=with_tokens)
    )

    from datafiller_ray.config import EngineValueError

    if chunk_span is not None and (
        not isinstance(chunk_span, int) or chunk_span < 1
    ):
        raise EngineValueError(
            f"chunk_span must be a positive integer of minutes, got {chunk_span}"
        )

    def add_keys(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        from datafiller_ray.functions.hashing import string_hash64
        from datafiller_ray.stages.validate import extract_epoch_minute

        skey = string_hash64(
            np.asarray(t["source"].to_pandas(), dtype="U")
        ).view(np.int64)
        t = t.append_column("skey", pa.array(skey, pa.int64()))
        if chunk_span is not None:
            minute = extract_epoch_minute(t["doc_id"])
            chunk = pc.divide(minute, pa.scalar(chunk_span, pa.int64()))
            t = t.append_column("chunk", pc.cast(chunk, pa.int64()))
        return t

    keyed = ds.map_batches(add_keys, batch_format="pyarrow")
    keys = ["skey", "chunk"] if chunk_span is not None else "skey"
    return keyed, keys


def _collision_safe_group_fn(per_source, chunk_span):
    """Shared map_groups wrapper: skey-collision sub-grouping (the engine
    invariant — a hash collision must never merge sources) plus the chunk
    column passthrough, used by both packing stages."""

    def pack_part(g: pd.DataFrame, src: str) -> pd.DataFrame:
        out = per_source(g, src)
        if chunk_span is not None:
            out.insert(1, "chunk", np.full(len(out), g["chunk"].iloc[0], np.int64))
        return out

    def group_fn(g: pd.DataFrame) -> pd.DataFrame:
        if g["source"].iloc[0] == g["source"].iloc[-1] and g["source"].nunique() == 1:
            return pack_part(g, g["source"].iloc[0])
        return pd.concat(
            [pack_part(sub, src) for src, sub in g.groupby("source", sort=True)],
            ignore_index=True,
        )

    return group_fn


def pack_sequences(
    input_path, *, max_len: int = 2048, chunk_span: "int | None" = None
) -> "Dataset":
    """Pack manifest per source. The shuffle moves only (doc_id, n_tok,
    source) rows keyed by the int64 source hash — the same exchange shape
    as the flagship, minus the minute pre-aggregation (packing is
    doc-granular by nature).

    ``chunk_span`` (minutes) switches to CHUNKED packing: each
    (source, time-chunk) packs independently — a deterministic,
    parallelism-independent semantic whose per-task memory is bounded by
    the chunk, the scale path for sources whose doc stream exceeds one
    task (pack_idx restarts per chunk; the output gains a ``chunk``
    column; the final pack of each chunk closes at the boundary instead
    of borrowing from the next)."""
    from datafiller_ray.config import EngineValueError

    if max_len < 1:
        raise EngineValueError(f"max_len must be >= 1, got {max_len}")
    keyed, keys = _keyed_for_packing(
        input_path, with_tokens=False, chunk_span=chunk_span
    )

    group_fn = _collision_safe_group_fn(
        lambda g, src: _pack_one_source(g, src, max_len), chunk_span
    )
    return keyed.groupby(keys).map_groups(group_fn, batch_format="pandas")


def pack_tokens(
    input_path, *, max_len: int = 2048, chunk_span: "int | None" = None
) -> "Dataset":
    """Materialize the packed training sequences: same deterministic
    boundaries as :func:`pack_sequences` (both derive from
    ``pack_bounds`` on the doc_id-sorted stream — no manifest join
    needed), emitting one row per pack with the concatenated token array
    as a little-endian int32 blob. This stage is the one that MUST move
    the token payload (it is the output), and the per-row
    token-array-equality invariant holds through it: decoding
    ``tokens_blob`` yields exactly the input docs' token arrays
    concatenated in doc_id order (pinned by tests and the driver oracle).
    A source whose token volume exceeds one task's heap uses
    ``chunk_span`` (time-chunked packing, see :func:`pack_sequences`) —
    per-task memory drops to one chunk's tokens."""
    from datafiller_ray.config import EngineValueError

    if max_len < 1:
        raise EngineValueError(f"max_len must be >= 1, got {max_len}")
    keyed, keys = _keyed_for_packing(
        input_path, with_tokens=True, chunk_span=chunk_span
    )

    def one_source(g: pd.DataFrame, source: str) -> pd.DataFrame:
        order = np.argsort(g["doc_id"].to_numpy(), kind="stable")
        tok_counts = g["n_tok"].to_numpy(np.int64)[order]
        arrays = g["tokens"].to_numpy()[order]
        flat = (
            np.concatenate([np.asarray(a, dtype=np.int32) for a in arrays])
            if arrays.size
            else np.empty(0, dtype=np.int32)
        )
        starts = pack_bounds(tok_counts, max_len)
        ends = np.concatenate([starts[1:], np.array([tok_counts.size], np.int64)])
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(tok_counts)])
        if flat.size != cs[-1]:
            # boundaries come from n_tok, bytes from the arrays — a
            # mismatch would silently misalign every later blob
            from datafiller_ray.config import EngineValueError

            raise EngineValueError(
                f"token-array invariant violated for source {source!r}: "
                f"n_tok totals {int(cs[-1])} but token arrays hold {flat.size}"
            )
        blobs = [
            flat[cs[s] : cs[e]].astype("<i4").tobytes()
            for s, e in zip(starts, ends)
        ]
        return pd.DataFrame(
            {
                "source": np.full(starts.size, source, dtype=object),
                "pack_idx": np.arange(starts.size, dtype=np.int64),
                "tok_filled": (cs[ends] - cs[starts]).astype(np.int64),
                "tokens_blob": np.asarray(blobs, dtype=object),
            }
        )

    group_fn = _collision_safe_group_fn(one_source, chunk_span)
    return keyed.groupby(keys).map_groups(group_fn, batch_format="pandas")


# ---------------------------------------------------------------------------
# fixed-length chunking with overlap (the flip side of packing)


def chunk_counts(n_tok: np.ndarray, max_len: int, overlap: int) -> np.ndarray:
    """Chunks per doc under the sliding rule: chunk ``i`` covers
    ``[i*stride, min(i*stride + max_len, n_tok))`` with
    ``stride = max_len - overlap``; a doc that fits is one chunk.
    Integer arithmetic only (``1 + ceil((n_tok - max_len) / stride)`` via
    the add-stride-minus-one trick), shared with the SQL oracle."""
    stride = max_len - overlap
    n = n_tok.astype(np.int64)
    extra = np.maximum(n - max_len, 0)
    return np.where(n <= max_len, 1, 1 + (extra + stride - 1) // stride)


def chunk_sequences(
    ds,
    *,
    max_len: int = 128,
    overlap: int = 16,
) -> "Dataset":
    """Chunk MANIFEST for splitting long pre-tokenized docs into
    fixed-length training windows with overlap — the complement of
    :func:`pack_sequences` (packing joins short docs; chunking splits long
    ones; real pipelines run both). Output: one row per (doc, chunk) with
    ``(doc_id, source, chunk_idx, tok_start, tok_end, chunk_len)`` —
    token indices only, computed from the (doc_id, n_tok) projection; the
    ``tokens`` column never moves (materializing a chunk is a per-row
    slice, embarrassingly parallel given this manifest).

    Pure vectorized map, zero shuffles: per batch, docs fan out to chunk
    rows through one ``repeat`` + offset-``arange``; no Python loop.
    """
    import pyarrow as pa

    from datafiller_ray.config import EngineValueError

    if max_len < 1:
        raise EngineValueError(f"max_len must be >= 1, got {max_len}")
    if not (0 <= overlap < max_len):
        raise EngineValueError(
            f"overlap must be in [0, max_len), got {overlap} for max_len={max_len}"
        )
    stride = max_len - overlap

    def fan_out(t: "pa.Table") -> "pa.Table":
        n = t["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        k = chunk_counts(n, max_len, overlap)
        row = np.repeat(np.arange(n.size, dtype=np.int64), k)
        # chunk_idx within each doc: global arange minus each doc's offset
        off = np.concatenate([np.zeros(1, np.int64), np.cumsum(k)])[:-1]
        cidx = np.arange(row.size, dtype=np.int64) - off[row]
        start = cidx * stride
        end = np.minimum(start + max_len, n[row])
        return pa.table(
            {
                "doc_id": t["doc_id"].take(pa.array(row, type=pa.int64())),
                "source": t["source"].take(pa.array(row, type=pa.int64())),
                "chunk_idx": pa.array(cidx),
                "tok_start": pa.array(start),
                "tok_end": pa.array(end),
                "chunk_len": pa.array(end - start),
            }
        )

    return ds.map_batches(fan_out, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# exact token-array dedup over the primary table


def _sequence_hash_table(t) -> "pd.DataFrame":
    """Vectorized order-sensitive 64-bit hash of every row's token array
    (position-mixed splitmix64 terms summed mod 2^64 via one cumsum, then
    length-finalized) — zero Python per row; the whole batch is three numpy
    passes over the flattened Arrow values buffer."""
    import pyarrow as pa

    from datafiller_ray.functions.hashing import splitmix64

    arr = t["tokens"].combine_chunks()
    off = np.asarray(arr.offsets).astype(np.int64)
    vals = np.asarray(arr.values).astype(np.int64)[off[0] : off[-1]]
    off = off - off[0]
    lens = np.diff(off)
    pos = np.arange(vals.size, dtype=np.int64) - np.repeat(off[:-1], lens)
    with np.errstate(over="ignore"):
        terms = splitmix64(
            (vals.view(np.uint64) * np.uint64(0x100000001B3))
            + pos.view(np.uint64)
            + np.uint64(1)
        )
        cs = np.concatenate([np.zeros(1, np.uint64), np.cumsum(terms)])
        row = cs[off[1:]] - cs[off[:-1]]
        h = splitmix64(row + lens.view(np.uint64))
    return pd.DataFrame(
        {
            "doc_id": t["doc_id"].to_pandas().to_numpy(dtype=object),
            "source": t["source"].to_pandas().to_numpy(dtype=object),
            "n_tok": t["n_tok"].to_pandas().to_numpy(np.int64),
            "_h": h.view(np.int64),
        }
    )


def _dedup_exact_group(g: "pd.DataFrame") -> "pd.DataFrame":
    """Phase-2 in-bucket byte-exact compare: equal hash, equal bytes ->
    keep min doc_id; equal hash, DIFFERENT bytes (a collision) -> both
    survive. Module-level so the collision-proofness is directly unit
    testable."""
    keep = g.sort_values("doc_id").drop_duplicates("_blob", keep="first")
    return keep[["doc_id", "source", "n_tok"]]


def dedup_sequences(
    input_path, *, n_buckets: int = 256, max_candidates: int = 5_000_000
) -> "Dataset":
    """Exact dedup of the PRIMARY tokenized-sequence table by token-array
    equality (the input contract's per-row invariant): keep the smallest
    doc_id per distinct token array, emitting the surviving manifest
    (doc_id, source, n_tok) — the caller filters the corpus by id, the
    pack/chunk manifest convention.

    Two-phase so the token payload (the 99% of the bytes) never moves for
    the non-duplicated bulk:

    - phase 1: one read computes a vectorized order-sensitive content hash
      per row; only the 24-byte manifest rows shuffle (coarse hash-bucket
      exchange). Hashes appearing once are winners immediately — no
      payload ever moves for them.
    - phase 2: hashes with >= 2 rows (bounded by the DUPLICATE-GROUP
      count, not the corpus; guarded by ``max_candidates``) are broadcast
      as a sorted id set; a second pruned read re-hashes, keeps only
      candidate rows, and ships JUST THOSE payloads through one exchange
      for in-bucket byte-exact comparison (collision-proof: equal hash but
      different bytes stay distinct).

    At duplicate-heavy extremes where candidate hashes exceed the guard,
    fall back to the text-family shape (full-payload single shuffle, see
    ``text.exact_dedup``) — raising here instead of silently materializing
    an unbounded driver set.
    """
    import ray
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.stages.exchange import coarse_map_groups

    if n_buckets < 1:
        raise EngineValueError(f"n_buckets must be >= 1, got {n_buckets}")

    ds = ray.data.read_parquet(input_path)
    man = ds.map_batches(_sequence_hash_table, batch_format="pyarrow")

    def split_bucket(g: pd.DataFrame) -> pd.DataFrame:
        dup = g["_h"].duplicated(keep=False)
        win = g.loc[~dup, ["doc_id", "source", "n_tok"]].copy()
        win["_cand_h"] = np.int64(0)
        win["_is_winner"] = True
        cand = g.loc[dup, ["_h"]].drop_duplicates()
        ch = pd.DataFrame(
            {
                "doc_id": np.full(len(cand), "", dtype=object),
                "source": np.full(len(cand), "", dtype=object),
                "n_tok": np.zeros(len(cand), dtype=np.int64),
                "_cand_h": cand["_h"].to_numpy(np.int64),
                "_is_winner": np.zeros(len(cand), dtype=bool),
            }
        )
        return pd.concat([win, ch], ignore_index=True)

    mixed = coarse_map_groups(
        man, "_h", split_bucket, n_buckets=n_buckets
    ).materialize()
    winners1 = mixed.map_batches(
        lambda df: df.loc[df["_is_winner"], ["doc_id", "source", "n_tok"]],
        batch_format="pandas",
    )
    cand_rows = mixed.map_batches(
        lambda df: df.loc[~df["_is_winner"], ["_cand_h"]],
        batch_format="pandas",
    )
    # guard with a DISTRIBUTED count BEFORE materializing the set — the
    # whole point is that the driver never holds an unbounded array
    n_cand = cand_rows.count()
    if n_cand > max_candidates:
        raise EngineValueError(
            f"{n_cand} candidate duplicate hashes exceed "
            f"max_candidates={max_candidates}; use the full-payload shuffle "
            "fallback (text.exact_dedup shape) for duplicate-heavy corpora"
        )
    if n_cand == 0:
        return winners1
    cand_h = np.sort(
        np.array([r["_cand_h"] for r in cand_rows.take_all()], dtype=np.int64)
    )
    href = ray.put(cand_h)

    def candidate_payloads(t) -> pd.DataFrame:
        m = _sequence_hash_table(t)
        hit = np.isin(m["_h"].to_numpy(np.int64), ray.get(href))
        if not hit.any():
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype=object),
                    "source": pd.Series([], dtype=object),
                    "n_tok": pd.Series([], dtype=np.int64),
                    "_h": pd.Series([], dtype=np.int64),
                    "_blob": pd.Series([], dtype=object),
                }
            )
        arr = t["tokens"].combine_chunks()
        off = np.asarray(arr.offsets).astype(np.int64)
        vals = np.asarray(arr.values).astype(np.int32)
        idx = np.flatnonzero(hit)
        blobs = [vals[off[i] : off[i + 1]].astype("<i4").tobytes() for i in idx]
        out = m.iloc[idx].copy()
        out["_blob"] = np.asarray(blobs, dtype=object)
        return out

    cand = ds.map_batches(candidate_payloads, batch_format="pyarrow")

    winners2 = cand.groupby("_h").map_groups(
        _dedup_exact_group, batch_format="pandas"
    )
    return winners1.union(winners2)

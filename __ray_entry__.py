"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.

Engine queries run over two input families:

- the contract table ``(doc_id, tokens:list<int32>, n_tok, source)`` —
  synthesised deterministically (seed=42) per scale factor into
  ``/tmp/datafiller_ray_fixtures/sf*/input.parquet`` (BASELINE.json
  ``input_hint``; no external data). The matching oracle SQL reads the SAME
  parquet file via ``read_parquet(...)``, so Ray and DuckDB see identical
  bytes.
- the driver's pre-registered views (documents / embeddings / events /
  lineitem) for the training-data operators.

Float-producing queries round to 6 decimals on BOTH sides so IEEE
summation-order differences cannot flip the value hash.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import os

import numpy as np
import pandas as pd

SF_FOR_ORACLE = 0.01  # the driver's correctness scale
_ANN_K = 10
_ANN_NQ = 5
_RETENTION_CUTOFF = 1704067200 + 43200  # keep buckets from 2024-01-01T12:00 on


def _fixture(sf_dir: str) -> str:
    from datafiller_ray.fixtures import ensure_fixture

    return ensure_fixture(sf_dir)


def _read(sf_dir: str, name: str):
    import ray.data

    return ray.data.read_parquet(f"{sf_dir}/{name}.parquet")


# ---------------------------------------------------------------------------
# engine queries (contract table)


def _tier_rollup(sf_dir: str, tier: str, *, min_bucket: int | None = None):
    from datafiller_ray.config import FillConfig, RetentionConfig
    from datafiller_ray.pipelines.rollup import rollup_tiers

    retention = (
        RetentionConfig(windows={tier: (min_bucket, None)}) if min_bucket else None
    )
    ds = rollup_tiers(
        _fixture(sf_dir),
        fill=FillConfig(strategy=None),
        tiers=(tier,),
        retention=retention,
        check_tokens=True,
    )

    def project(batch):
        import pyarrow.compute as pc

        b = batch.filter(pc.greater(batch["count"], 0))
        import pyarrow as pa

        return pa.table(
            {
                "source": b["source"],
                "bucket_ts": b["bucket_ts"],
                "n_obs": b["count"],
                "sum_tok": pc.cast(b["sum"], pa.int64()),
                "min_tok": pc.cast(b["min"], pa.int64()),
                "max_tok": pc.cast(b["max"], pa.int64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def _tier_gapfill(
    sf_dir: str,
    strategy: str,
    max_gap: int | None = None,
    mode: str = "plain",
    rounding: str = "even",
):
    from datafiller_ray.config import FillConfig
    from datafiller_ray.pipelines.rollup import rollup_tiers, rollup_tiers_salted

    cfg = FillConfig(strategy=strategy, max_gap=max_gap)
    if mode == "salted":
        ds = rollup_tiers_salted(
            _fixture(sf_dir), fill=cfg, tiers=("1m",), check_tokens=False,
            salt_span=7200,
        )
    else:
        ds = rollup_tiers(
            _fixture(sf_dir), fill=cfg, tiers=("1m",), check_tokens=False
        )

    def project(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        if rounding == "halfup":
            # floor(x*1e6+0.5)/1e6 — the fixed IEEE op sequence the NumPy
            # fill oracles apply on their side (events precedent:
            # pipelines/events.py:_round6_half_up)
            value = pc.divide(
                pc.floor(pc.add(pc.multiply(batch["value"], 1e6), 0.5)), 1e6
            )
        else:
            value = pc.round(batch["value"], ndigits=6)
        t = pa.table(
            {
                "source": batch["source"],
                "bucket_ts": batch["bucket_ts"],
                "n_obs": batch["count"],
                "fill_value": value,
            }
        )
        keep = pc.fill_null(pc.invert(pc.is_nan(value)), False)
        return t.filter(keep)

    return ds.map_batches(project, batch_format="pyarrow")


def _rollup_bucketed(sf_dir: str):
    """Observed 1m rollup through the explicit hash-shuffle production path
    (rollup_tiers_bucketed) — oracle-identical to rollup_1m."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.config import FillConfig
    from datafiller_ray.pipelines.rollup import rollup_tiers_bucketed

    ds = rollup_tiers_bucketed(
        _fixture(sf_dir), fill=FillConfig(strategy=None), tiers=("1m",),
        check_tokens=False,
    )

    def project(batch):
        b = batch.filter(pc.greater(batch["count"], 0))
        return pa.table(
            {
                "source": b["source"],
                "bucket_ts": b["bucket_ts"],
                "n_obs": b["count"],
                "sum_tok": pc.cast(b["sum"], pa.int64()),
                "min_tok": pc.cast(b["min"], pa.int64()),
                "max_tok": pc.cast(b["max"], pa.int64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def _rollup_inferred(sf_dir: str):
    """Subsample the fixture to a 5-minute stream, then roll up at the
    INFERRED step (engine must discover 300s itself; the oracle hardcodes
    it)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from datafiller_ray.config import FillConfig
    from datafiller_ray.pipelines.rollup import rollup_tiers_inferred

    def five_minute_rows(batch: pa.Table) -> pa.Table:
        minute = pc.cast(pc.utf8_slice_codeunits(batch["doc_id"], -10), pa.int64())
        keep = pc.equal(
            pc.subtract(minute, pc.multiply(pc.divide(minute, 5), 5)), 0
        )
        return batch.filter(keep)

    ds = ray.data.read_parquet(
        _fixture(sf_dir), columns=["doc_id", "tokens", "n_tok", "source"]
    ).map_batches(five_minute_rows, batch_format="pyarrow")
    out = rollup_tiers_inferred(ds, fill=FillConfig(strategy=None))

    def project(batch):
        b = batch.filter(pc.greater(batch["count"], 0))
        return pa.table(
            {
                "source": b["source"],
                "bucket_ts": b["bucket_ts"],
                "n_obs": b["count"],
                "sum_tok": pc.cast(b["sum"], pa.int64()),
                "min_tok": pc.cast(b["min"], pa.int64()),
                "max_tok": pc.cast(b["max"], pa.int64()),
            }
        )

    return out.map_batches(project, batch_format="pyarrow")


def _knn_fill(sf_dir: str):
    from datafiller_ray.pipelines.panel import knn_fill

    ds = knn_fill(_fixture(sf_dir), n_cohorts=4, n_nearest_features=8)

    def project(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        value = pc.divide(
            pc.floor(pc.add(pc.multiply(batch["value"], 1e6), 0.5)), 1e6
        )
        t = pa.table(
            {
                "source": batch["source"],
                "bucket_ts": batch["bucket_ts"],
                "observed": batch["observed"],
                "filled": batch["filled"],
                "fill_value": value,
            }
        )
        return t.filter(pc.fill_null(pc.invert(pc.is_nan(value)), False))

    return ds.map_batches(project, batch_format="pyarrow")


def _token_stats(sf_dir: str):
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    ds = _read_fixture_ds(sf_dir)
    agg = ds.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_tok", alias_name="total_tok"),
        Min("n_tok", alias_name="min_tok"),
        Max("n_tok", alias_name="max_tok"),
        Mean("n_tok", alias_name="avg_tok"),
    )

    def project(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        return pa.table(
            {
                "source": batch["source"],
                "n_docs": pc.cast(batch["n_docs"], pa.int64()),
                "total_tok": pc.cast(batch["total_tok"], pa.int64()),
                "min_tok": pc.cast(batch["min_tok"], pa.int64()),
                "max_tok": pc.cast(batch["max_tok"], pa.int64()),
                "avg_tok": pc.round(batch["avg_tok"], ndigits=6),
            }
        )

    return agg.map_batches(project, batch_format="pyarrow")


def _read_fixture_ds(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(_fixture(sf_dir), columns=["doc_id", "n_tok", "source"])


# ---------------------------------------------------------------------------
# documents / embeddings / events / lineitem queries


def _dedup_exact(sf_dir: str):
    from datafiller_ray.pipelines.text import exact_dedup

    ds = exact_dedup(_read(sf_dir, "documents"))
    return ds.select_columns(["doc_id", "source", "n_chars"])


def _text_stats(sf_dir: str):
    from datafiller_ray.pipelines.text import text_stats

    return text_stats(_read(sf_dir, "documents"))


def _quality_filter(sf_dir: str):
    from datafiller_ray.pipelines.text import quality_filter

    return quality_filter(
        _read(sf_dir, "documents"), min_tok=5, min_alpha_ratio=0.5, max_digit_ratio=0.3
    )


def _corpus_prepare(sf_dir: str):
    """Composed cleaning stack: quality filter -> lang keep -> exact dedup
    in ONE pipeline emitting a per-doc manifest with first-drop-wins reason
    attribution — pipelines/text.corpus_prepare (fused tag pass, rejected
    docs shed their text before the single dedup exchange)."""
    from datafiller_ray.pipelines.text import corpus_prepare

    return corpus_prepare(
        _read(sf_dir, "documents"),
        min_tok=5,
        min_alpha_ratio=0.5,
        max_digit_ratio=0.3,
        keep_langs=("en",),
    )


def _lang_id(sf_dir: str):
    from datafiller_ray.pipelines.text import lang_id

    return lang_id(_read(sf_dir, "documents"))


def _token_counts(sf_dir: str):
    from datafiller_ray.pipelines.text import token_counts

    return token_counts(_read(sf_dir, "documents"))


def _tokenizer_fertility(sf_dir: str):
    """Per-source tokenizer-efficiency census (BPE-ish tokens per
    whitespace word + chars per token; exact integer sums, two pinned
    divisions) — pipelines/text.tokenizer_fertility."""
    from datafiller_ray.pipelines.text import tokenizer_fertility

    return tokenizer_fertility(_read(sf_dir, "documents"))


def _near_dup_jaccard(sf_dir: str):
    """LSH candidates + exact char-5-gram Jaccard verification — the
    verified near-dup edge list (doc_a, doc_b, jaccard)."""
    from datafiller_ray.pipelines.text import minhash_near_dup, verify_near_dup_pairs

    docs = _read(sf_dir, "documents")
    pairs = minhash_near_dup(docs)
    return verify_near_dup_pairs(docs, pairs, threshold=0.5)


def _near_dup_clusters(sf_dir: str):
    """Connected components over the verified near-dup edges via the
    distributed min-label propagation (pipelines/text.py). The oracle is a
    DuckDB RECURSIVE CTE computing the same transitive closure."""
    from datafiller_ray.pipelines.text import (
        minhash_near_dup,
        near_dup_clusters_distributed,
        verify_near_dup_pairs,
    )

    docs = _read(sf_dir, "documents")
    pairs = minhash_near_dup(docs)
    verified = verify_near_dup_pairs(docs, pairs, threshold=0.5)
    return near_dup_clusters_distributed(verified)


def _dedup_near_keep_best(sf_dir: str):
    """Cluster-representative dedup: near-dup clusters (minhash -> exact
    Jaccard verify -> distributed min-label components), then keep only the
    longest doc per cluster (ties -> smallest doc_id) plus every
    un-clustered doc — pipelines/text.near_dup_keep_best."""
    from datafiller_ray.pipelines.text import (
        minhash_near_dup,
        near_dup_clusters_distributed,
        near_dup_keep_best,
        verify_near_dup_pairs,
    )

    docs = _read(sf_dir, "documents")
    pairs = minhash_near_dup(docs)
    verified = verify_near_dup_pairs(docs, pairs, threshold=0.5)
    clusters = near_dup_clusters_distributed(verified)
    return near_dup_keep_best(docs, clusters)


def _embedding_near_dup(sf_dir: str):
    from datafiller_ray.pipelines.ann import embedding_near_dup

    return embedding_near_dup(_read(sf_dir, "embeddings"), threshold=0.4)


def _embedding_near_dup_scale(sf_dir: str):
    """The bounded-memory shard-pair-exchange plan of embedding_near_dup
    (max_broadcast_rows=0 forces the above-the-gate path the engine takes
    at corpus scale) — bit-identical to the brute plan, same SQL oracle."""
    from datafiller_ray.pipelines.ann import embedding_near_dup

    return embedding_near_dup(
        _read(sf_dir, "embeddings"), threshold=0.4, max_broadcast_rows=0
    )


def _mutual_knn_scale(sf_dir: str):
    """mutual_knn through the blockwise directed-edge exchange (the
    above-the-gate plan) — bit-identical to the brute plan, same vendored
    oracle."""
    from datafiller_ray.pipelines.ann import mutual_knn

    return mutual_knn(
        _read(sf_dir, "embeddings"), k=5, max_broadcast_rows=0
    ).select_columns(["vec_a", "vec_b", "sim", "rank_ab", "rank_ba"])


def _knn_outlier_scale(sf_dir: str):
    """knn_outlier through the blockwise directed-edge exchange (the
    above-the-gate plan) — bit-identical to the brute plan, same vendored
    oracle."""
    from datafiller_ray.pipelines.ann import knn_outlier

    return knn_outlier(
        _read(sf_dir, "embeddings"), k=5, max_broadcast_rows=0
    )


def _embedding_near_dup_lsh(sf_dir: str):
    from datafiller_ray.pipelines.ann import embedding_near_dup_lsh

    return embedding_near_dup_lsh(
        _read(sf_dir, "embeddings"), dim=64, threshold=0.4
    )


def _lang_fill(sf_dir: str):
    from datafiller_ray.pipelines.text import lang_fill

    return lang_fill(_read(sf_dir, "documents"))


def _simhash(sf_dir: str):
    from datafiller_ray.pipelines.text import simhash

    return simhash(_read(sf_dir, "documents"))


def _fingerprint(sf_dir: str):
    from datafiller_ray.pipelines.text import fingerprint

    return fingerprint(_read(sf_dir, "documents"))


def _minhash(sf_dir: str):
    from datafiller_ray.pipelines.text import minhash_near_dup

    return minhash_near_dup(_read(sf_dir, "documents"))


def _ann_topk(sf_dir: str):
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.ann import brute_force_topk

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    import pyarrow.compute as pc

    order = pc.sort_indices(qt["vec_id"])[: _ANN_NQ]
    head = qt.take(order)
    qids = np.asarray(head["vec_id"])
    qmat = np.stack(head["embedding"].to_pylist()).astype(np.float64)
    ds = brute_force_topk(_read(sf_dir, "embeddings"), qids, qmat, k=_ANN_K)
    return ds.select_columns(["query_id", "rank", "vec_id"])


def _ann_filtered_topk(sf_dir: str):
    """Label-filtered exact top-k (metadata-filtered vector search): each
    query scores only same-label corpus vectors —
    pipelines/ann.filtered_topk (label-pruned sub-matrix matmuls)."""
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.ann import filtered_topk

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    import pyarrow.compute as pc

    order = pc.sort_indices(qt["vec_id"])[: _ANN_NQ]
    head = qt.take(order)
    qids = np.asarray(head["vec_id"])
    qmat = np.stack(head["embedding"].to_pylist()).astype(np.float64)
    qlab = np.asarray(head["label"], dtype=np.int64)
    ds = filtered_topk(_read(sf_dir, "embeddings"), qids, qmat, qlab, k=_ANN_K)
    return ds.select_columns(["query_id", "rank", "vec_id"])


def _events_rollup(sf_dir: str):
    from datafiller_ray.pipelines.events import events_rollup

    return events_rollup(_read(sf_dir, "events"), step=60)


def _events_rollup_week(sf_dir: str):
    """Calendar-bucket rollup: count/sum/min/max of value per (event_type,
    ISO week) — date_trunc semantics (weeks start Monday, NOT epoch-aligned
    like the fixed-step tiers) via pipelines/events.events_rollup_calendar
    (pc.floor_temporal bucket arithmetic, same partial+final algebra)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.events import events_rollup_calendar

    out = events_rollup_calendar(_read(sf_dir, "events"), unit="week")

    def to_epoch(t: pa.Table) -> pa.Table:
        secs = pc.divide(
            pc.cast(t["bucket_ts"], pa.int64()), pa.scalar(1_000_000, pa.int64())
        )
        return t.set_column(t.schema.get_field_index("bucket_ts"), "bucket_ts", secs)

    return out.map_batches(to_epoch, batch_format="pyarrow")


def _drop_null_fills(ds):
    def drop_leading_nulls(batch):
        import pyarrow.compute as pc

        v = batch["fill_value"]
        keep = pc.and_kleene(pc.is_valid(v), pc.invert(pc.is_nan(v)))
        return batch.filter(pc.fill_null(keep, False))

    return ds.map_batches(drop_leading_nulls, batch_format="pyarrow")


def _events_locf(sf_dir: str):
    from datafiller_ray.pipelines.events import events_gapfill_locf

    return _drop_null_fills(events_gapfill_locf(_read(sf_dir, "events"), step=60))


def _events_linear(sf_dir: str):
    from datafiller_ray.pipelines.events import events_gapfill_linear

    return _drop_null_fills(events_gapfill_linear(_read(sf_dir, "events"), step=60))


def _time_weighted_avg(sf_dir: str):
    """Within-bucket time-weighted (LOCF-span) average of event value per
    (event_type, hour) — pipelines/events.time_weighted_avg: integer
    micro-unit numerators, integer-second weights, one pinned division."""
    from datafiller_ray.pipelines.events import time_weighted_avg

    return time_weighted_avg(_read(sf_dir, "events"), step=3600)


def _events_sessions(sf_dir: str):
    from datafiller_ray.pipelines.events import events_sessions

    return events_sessions(_read(sf_dir, "events"), gap_seconds=1800)


def _typed_events(sf_dir: str, etype: str, *, event_id: bool, value: bool):
    """Pruned projection of one event type: user_id + epoch-us timestamp
    (+ optional event_id / value) — the filter runs inside the read's
    map_batches so only join-relevant columns enter the exchange."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["event_type"], etype))
        cols = {"user_id": t["user_id"]}
        if event_id:
            cols["event_id"] = t["event_id"]
        cols["ts_us"] = pc.cast(t["ts"], pa.int64())
        if value:
            cols["value"] = t["value"]
        return pa.table(cols)

    return _read(sf_dir, "events").map_batches(fn, batch_format="pyarrow")


def _purchase_attribution(sf_dir: str):
    """As-of join: each purchase event matched to the same user's most
    recent click at-or-before it (DuckDB ``ASOF JOIN`` semantics; backward,
    inclusive, inner). One co-partitioning exchange, searchsorted matching
    per user inside map_groups — pipelines/joins.asof_join."""
    from datafiller_ray.pipelines.joins import asof_join

    return asof_join(
        _typed_events(sf_dir, "purchase", event_id=True, value=False),
        _typed_events(sf_dir, "click", event_id=False, value=True),
        key="user_id",
        on="ts_us",
        left_payload={"event_id": "event_id", "user_id": "user_id", "ts_us": "ts_us"},
        right_payload={"click_ts_us": "ts_us", "click_value": "value"},
        how="inner",
    )


def _session_range_join(sf_dir: str):
    """Range join: every event assigned to the session window containing it
    (sessions derived with the same 1800 s gap rule as ``events_sessions``,
    so windows are non-overlapping per user). Point-in-interval matching via
    pipelines/joins.range_join — the big-big case: both sides shuffle once
    on user_id, nothing is broadcast."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.events import events_sessions
    from datafiller_ray.pipelines.joins import range_join

    sessions = events_sessions(_read(sf_dir, "events"), gap_seconds=1800)

    def add_end(t: pa.Table) -> pa.Table:
        return t.append_column(
            "session_end", pc.add(t["session_start"], t["duration_sec"])
        )

    def ev_proj(t: pa.Table) -> pa.Table:
        secs = pc.divide(pc.cast(t["ts"], pa.int64()), pa.scalar(1_000_000, pa.int64()))
        return pa.table(
            {"event_id": t["event_id"], "user_id": t["user_id"], "ts_s": secs}
        )

    return range_join(
        _read(sf_dir, "events").map_batches(ev_proj, batch_format="pyarrow"),
        sessions.map_batches(add_end, batch_format="pyarrow"),
        key="user_id",
        point="ts_s",
        lo="session_start",
        hi="session_end",
        left_payload={"event_id": "event_id", "user_id": "user_id", "ts_s": "ts_s"},
        right_payload={"session_start": "session_start", "session_n_events": "n_events"},
        how="inner",
    )


def _ann_lsh(sf_dir: str):
    """LSH top-k served from the bucket-partitioned index (the scale path:
    only matching partitions are read). Same candidates / ranking as the
    full-scan lsh_topk, so the SQL oracle is shared."""
    import hashlib
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.ann import build_lsh_index, lsh_topk_indexed

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    order = pc.sort_indices(qt["vec_id"])[: _ANN_NQ]
    head = qt.take(order)
    qids = np.asarray(head["vec_id"])
    qmat = np.stack(head["embedding"].to_pylist()).astype(np.float64)
    # cache key covers fixture content (path + mtime + size), so a
    # regenerated fixture can never be served a stale index
    emb_path = f"{sf_dir}/embeddings.parquet"
    st = os.stat(emb_path)
    tag = hashlib.sha1(
        f"{sf_dir}|{st.st_mtime_ns}|{st.st_size}".encode()
    ).hexdigest()[:12]
    index_dir = f"/tmp/datafiller_ray_lsh/{tag}"
    if not os.path.exists(os.path.join(index_dir, "_lsh_manifest.json")):
        # build into a fresh dir and atomically rename: a crashed build that
        # wrote partitions but no manifest can never leave strays behind
        import shutil

        tmp_dir = index_dir + ".building"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        build_lsh_index(_read(sf_dir, "embeddings"), tmp_dir, dim=64, n_planes=6)
        shutil.rmtree(index_dir, ignore_errors=True)
        os.replace(tmp_dir, index_dir)
    ds = lsh_topk_indexed(index_dir, qids, qmat, k=_ANN_K)
    return ds.select_columns(["query_id", "rank", "vec_id"])


def _ann_ivf(sf_dir: str):
    """IVF (k-means coarse quantizer) top-k — the second named scale path
    next to LSH; exact cosine within probed cells."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.ann import ivf_topk

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    order = pc.sort_indices(qt["vec_id"])[: _ANN_NQ]
    head = qt.take(order)
    qids = np.asarray(head["vec_id"])
    qmat = np.stack(head["embedding"].to_pylist()).astype(np.float64)
    ds = ivf_topk(
        _read(sf_dir, "embeddings"), qids, qmat,
        k=_ANN_K, n_cells=16, n_probe=4,
    )
    return ds.select_columns(["query_id", "rank", "vec_id"])


def _ann_ivf_indexed(sf_dir: str):
    """IVF top-k served from the cell-partitioned storage index (probing
    prunes READS, not just compute). Same centroids, candidates and ranking
    as the scan-side ivf_topk, so the SQL oracle is shared."""
    import hashlib
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.ann import build_ivf_index, ivf_topk_indexed

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    order = pc.sort_indices(qt["vec_id"])[: _ANN_NQ]
    head = qt.take(order)
    qids = np.asarray(head["vec_id"])
    qmat = np.stack(head["embedding"].to_pylist()).astype(np.float64)
    emb_path = f"{sf_dir}/embeddings.parquet"
    st = os.stat(emb_path)
    tag = hashlib.sha1(
        f"{sf_dir}|{st.st_mtime_ns}|{st.st_size}".encode()
    ).hexdigest()[:12]
    index_dir = f"/tmp/datafiller_ray_ivf/{tag}"
    if not os.path.exists(os.path.join(index_dir, "_ivf_manifest.json")):
        import shutil

        tmp_dir = index_dir + ".building"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        build_ivf_index(_read(sf_dir, "embeddings"), tmp_dir, n_cells=16)
        shutil.rmtree(index_dir, ignore_errors=True)
        os.replace(tmp_dir, index_dir)
    ds = ivf_topk_indexed(index_dir, qids, qmat, k=_ANN_K, n_probe=4)
    return ds.select_columns(["query_id", "rank", "vec_id"])


# sampling parameters shared by the engine query and its SQL oracle:
# thresholds are integer literals computed ONCE here, so float rate
# representation can never diverge between the two sides.
_SAMPLE_SEED = 7
_SAMPLE_DEFAULT_RATE = 0.5
_SAMPLE_RATES = {"src0": 0.25, "src1": 1.0}


def _sample_stratified(sf_dir: str):
    """Deterministic stratified hash sample of the documents table (keep
    rule: splitmix64(doc_id ^ mix(seed)) under a per-source threshold) —
    pipelines/corpus.stratified_sample, shuffle-free."""
    from datafiller_ray.pipelines.corpus import stratified_sample

    docs = _read(sf_dir, "documents").map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return stratified_sample(
        docs, rate=_SAMPLE_DEFAULT_RATE, rates=_SAMPLE_RATES, seed=_SAMPLE_SEED
    )


def _sample_stratified_sql() -> str:
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64
    from datafiller_ray.pipelines.corpus import sample_threshold

    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    dthr = sample_threshold(_SAMPLE_DEFAULT_RATE)
    ctes, fin = _sql_splitmix_ctes(
        "d", ["doc_id", "source", "n_chars"],
        f"xor(CAST(doc_id AS UBIGINT), {seed_mix})", "smp",
    )
    full, parts = [], []
    for s, r in _SAMPLE_RATES.items():
        t = sample_threshold(r)
        if t >= 1 << 64:
            full.append(f"'{s}'")
        else:
            parts.append(f"(source = '{s}' AND v < {t}::UBIGINT)")
    others = ", ".join(f"'{s}'" for s in _SAMPLE_RATES)
    conds = parts + [f"(source NOT IN ({others}) AND v < {dthr}::UBIGINT)"]
    if full:
        conds.append(f"source IN ({', '.join(full)})")
    return f"""
        WITH d AS (SELECT doc_id, source, n_chars FROM documents),
        {ctes}
        SELECT doc_id, source, n_chars FROM {fin}
        WHERE {" OR ".join(conds)}
    """


_SAMPLE_K = 40


def _sample_fixed_k(sf_dir: str):
    """Exactly-k-per-source deterministic sample (k smallest doc hashes per
    stratum) — pipelines/corpus.sample_fixed_k; distributed bottom-k, the
    full table never shuffles."""
    from datafiller_ray.pipelines.corpus import sample_fixed_k

    docs = _read(sf_dir, "documents").map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return sample_fixed_k(docs, k=_SAMPLE_K, seed=_SAMPLE_SEED)


def _sample_fixed_k_sql() -> str:
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64

    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    ctes, fin = _sql_splitmix_ctes(
        "d", ["doc_id", "source", "n_chars"],
        f"xor(CAST(doc_id AS UBIGINT), {seed_mix})", "sfk",
    )
    return f"""
        WITH d AS (SELECT doc_id, source, n_chars FROM documents),
        {ctes}
        SELECT doc_id, source, n_chars FROM (
          SELECT doc_id, source, n_chars,
                 row_number() OVER (PARTITION BY source ORDER BY v, doc_id) AS rn
          FROM {fin})
        WHERE rn <= {_SAMPLE_K}
    """


def _shuffle_manifest_sql() -> str:
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64

    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    ctes, fin = _sql_splitmix_ctes(
        "d", ["doc_id", "source"],
        f"xor(CAST(doc_id AS UBIGINT), {seed_mix})", "shm",
    )
    return f"""
        WITH d AS (SELECT doc_id, source FROM documents),
        {ctes}
        SELECT CAST(v % {_SHUFFLE_SHARDS} AS BIGINT) AS shard,
               CAST(row_number() OVER (
                   PARTITION BY v % {_SHUFFLE_SHARDS} ORDER BY v, doc_id
               ) - 1 AS BIGINT) AS pos,
               doc_id, source
        FROM {fin}
    """


def _bigram_topk_sql() -> str:
    p = _fixture_sql_path()
    return f"""
        WITH pairs AS (
          SELECT CAST(tokens[i] AS BIGINT) * 50000 + tokens[i + 1] AS pair
          FROM read_parquet('{p}/*.parquet'),
               UNNEST(range(1, len(tokens))) AS u(i)),
        c AS (SELECT pair, COUNT(*)::BIGINT AS cnt FROM pairs GROUP BY 1)
        SELECT CAST(pair // 50000 AS BIGINT) AS tok_a,
               CAST(pair % 50000 AS BIGINT) AS tok_b, cnt
        FROM c ORDER BY cnt DESC, pair ASC LIMIT 100
    """


_BUDGET_DEFAULT = 50_000
_BUDGET_SRC0 = 20_000


def _budget_sample(sf_dir: str):
    """Mixture sampling to per-source char budgets (hash-order prefix,
    int64-exact running totals) — pipelines/corpus.budget_sample."""
    from datafiller_ray.pipelines.corpus import budget_sample

    docs = _read(sf_dir, "documents").map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return budget_sample(
        docs,
        budget=_BUDGET_DEFAULT,
        budgets={"src0": _BUDGET_SRC0},
        weight_col="n_chars",
        seed=_SAMPLE_SEED,
    )


_TEMP_BUDGET = 30_000


def _temperature_sample(sf_dir: str):
    """Temperature-scaled (alpha=0.5) mixture sampling: stratum budgets
    proportional to sqrt of stratum weight, then the budget_sample
    hash-order prefix — pipelines/corpus.temperature_sample (integer-exact
    allocation; sqrt is correctly rounded so the SQL oracle reproduces the
    budgets bit-for-bit)."""
    from datafiller_ray.pipelines.corpus import temperature_sample

    docs = _read(sf_dir, "documents").map_batches(
        lambda t: t.select(["doc_id", "source", "n_chars"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return temperature_sample(
        docs,
        total_budget=_TEMP_BUDGET,
        alpha=0.5,
        weight_col="n_chars",
        seed=_SAMPLE_SEED,
    )


def _temperature_sample_sql() -> str:
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64

    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    ctes, fin = _sql_splitmix_ctes(
        "d", ["doc_id", "source", "n_chars"],
        f"xor(CAST(doc_id AS UBIGINT), {seed_mix})", "tsm",
    )
    return f"""
        WITH d AS (SELECT doc_id, source, n_chars FROM documents),
        tot AS (SELECT source,
                       CAST(FLOOR(SQRT(CAST(SUM(n_chars) AS DOUBLE))) AS BIGINT) AS s
                FROM d GROUP BY 1),
        bud AS (SELECT source,
                       CAST(({_TEMP_BUDGET}::BIGINT * s)
                            // (SELECT SUM(s) FROM tot) AS BIGINT) AS b
                FROM tot),
        {ctes}
        SELECT doc_id, source, n_chars FROM (
          SELECT doc_id, source, n_chars,
                 SUM(n_chars) OVER (PARTITION BY source ORDER BY v, doc_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS run
          FROM {fin}) f JOIN bud USING (source)
        WHERE run <= b
    """


def _budget_sample_sql() -> str:
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64

    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    ctes, fin = _sql_splitmix_ctes(
        "d", ["doc_id", "source", "n_chars"],
        f"xor(CAST(doc_id AS UBIGINT), {seed_mix})", "bsm",
    )
    return f"""
        WITH d AS (SELECT doc_id, source, n_chars FROM documents),
        {ctes}
        SELECT doc_id, source, n_chars FROM (
          SELECT doc_id, source, n_chars,
                 SUM(n_chars) OVER (PARTITION BY source ORDER BY v, doc_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS run
          FROM {fin})
        WHERE run <= CASE WHEN source = 'src0'
                          THEN {_BUDGET_SRC0} ELSE {_BUDGET_DEFAULT} END
    """


def _global_quantiles(sf_dir: str):
    """Exact global n_chars quantiles from the mergeable (value, count)
    histogram — pipelines/corpus.global_quantiles; the shuffle carries at
    most |distinct values| rows per block."""
    from datafiller_ray.pipelines.corpus import global_quantiles

    return global_quantiles(_read(sf_dir, "documents"))


def _equidepth_histogram(sf_dir: str):
    """Equal-count value buckets (boundary table of the NTILE rule) —
    pipelines/corpus.equidepth_histogram."""
    from datafiller_ray.pipelines.corpus import equidepth_histogram

    return equidepth_histogram(_read(sf_dir, "documents"), n_tiles=8)


def _rolling_active_users(sf_dir: str):
    """Trailing-7-day distinct users per observed day (sliding distinct —
    not SQL-window expressible) — pipelines/events.rolling_active_users."""
    from datafiller_ray.pipelines.events import rolling_active_users

    return rolling_active_users(_read(sf_dir, "events"), window_days=7)


def _daily_active_users(sf_dir: str):
    """DAU per UTC day (distinct users + event count) —
    pipelines/events.daily_active_users."""
    from datafiller_ray.pipelines.events import daily_active_users

    return daily_active_users(_read(sf_dir, "events"))


def _source_ks(sf_dir: str):
    """Exact pairwise two-sample KS distance between sources' n_chars
    distributions — pipelines/corpus.source_ks (integer cross numerators
    on the shared value grid, one pinned division)."""
    from datafiller_ray.pipelines.corpus import source_ks

    return source_ks(_read(sf_dir, "documents"))


def _length_ntile(sf_dir: str):
    """Exact global NTILE(8) by (n_chars, doc_id) without a global sort —
    pipelines/corpus.length_ntile (value-count pass + broadcast start
    ranks + per-value rank exchange)."""
    from datafiller_ray.pipelines.corpus import length_ntile

    return length_ntile(_read(sf_dir, "documents"), n_tiles=8)


def _bm25_topk(sf_dir: str):
    """BM25 top-20 docs for a fixed 3-term query — pipelines/corpus.bm25_topk
    (integer df/tf/dl partials through one bounded exchange; one pinned
    float score expression per doc, 6-decimal floor-half-up)."""
    from datafiller_ray.pipelines.corpus import bm25_topk

    return bm25_topk(_read(sf_dir, "documents"), "fast hash join", k=20)


def _hybrid_search_rrf(sf_dir: str):
    """Hybrid BM25 + exact-cosine retrieval fused by reciprocal-rank
    fusion on the exact 1e-12 integer grid (c = 10^12 // (60 + rank) per
    list; fused score is an order-independent integer sum) —
    pipelines/corpus.hybrid_rrf."""
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import hybrid_rrf

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    import pyarrow.compute as pc

    row = qt.take(pc.sort_indices(qt["vec_id"])[:1])
    qvec = np.asarray(row["embedding"].to_pylist()[0], dtype=np.float64)
    return hybrid_rrf(
        _read(sf_dir, "documents"),
        _read(sf_dir, "embeddings"),
        "fast hash join",
        qvec,
        k_list=20,
        k=10,
        query_vec_id=int(row["vec_id"][0].as_py()),
    )


def _text_index_dir(sf_dir: str) -> str:
    """Build (once per fixture state) the inverted text index under /tmp —
    the mtime/size-keyed atomic-rename caching used by the LSH/IVF index
    queries."""
    import hashlib
    import shutil

    from datafiller_ray.pipelines.text_index import build_text_index

    doc_path = f"{sf_dir}/documents.parquet"
    st = os.stat(doc_path)
    tag = hashlib.sha1(
        f"{sf_dir}|{st.st_mtime_ns}|{st.st_size}".encode()
    ).hexdigest()[:12]
    index_dir = f"/tmp/datafiller_ray_textidx/{tag}"
    if not os.path.exists(
        os.path.join(index_dir, "_text_index_manifest.json")
    ):
        tmp_dir = index_dir + ".building"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        build_text_index(_read(sf_dir, "documents"), tmp_dir, n_partitions=64)
        shutil.rmtree(index_dir, ignore_errors=True)
        os.replace(tmp_dir, index_dir)
    return index_dir


def _text_index_and(sf_dir: str):
    """Conjunctive boolean search served from the persisted inverted index
    (pipelines/text_index.build_text_index + text_index_search): docs
    containing ALL of 'fast hash join', with summed tf. Reads only the
    query terms' hash partitions (pruning asserted in tests)."""
    from datafiller_ray.pipelines.text_index import text_index_search

    return text_index_search(_text_index_dir(sf_dir), "fast hash join")


def _text_index_topk(sf_dir: str):
    """Disjunctive (OR) top-20 by total term frequency over the same index
    — integer scores, exact under any merge order
    (pipelines/text_index.text_index_topk)."""
    from datafiller_ray.pipelines.text_index import text_index_topk

    return text_index_topk(_text_index_dir(sf_dir), "fast hash join", k=20)


def _vocab_topk(sf_dir: str):
    """Global top-100 vocabulary (count desc, token asc ties) —
    pipelines/corpus.vocab_topk; heavy text collapses to (token, count)
    partials before the only shuffle."""
    from datafiller_ray.pipelines.corpus import vocab_topk

    return vocab_topk(_read(sf_dir, "documents"), k=100)


def _source_quantiles(sf_dir: str):
    """Exact per-source n_chars quantiles (quantile_cont interpolation,
    6-decimal floor-half-up both sides) — pipelines/corpus.source_quantiles."""
    from datafiller_ray.pipelines.corpus import source_quantiles

    return source_quantiles(_read(sf_dir, "documents"))


def _rolling_window(sf_dir: str):
    """Sliding-window rolling count/sum/min/max/mean over the last 60
    observed 1m buckets per source — pipelines/window.rolling_aggregates
    (ROWS-window semantics; int64-exact sums, one-division mean)."""
    from datafiller_ray.pipelines.window import rolling_aggregates

    return rolling_aggregates(_fixture(sf_dir), window=60, check_tokens=False)


def _topk_buckets(sf_dir: str):
    """Per-source top-5 busiest minutes (sum_tok DESC, bucket_ts ASC rank)
    — pipelines/window.topk_buckets."""
    from datafiller_ray.pipelines.window import topk_buckets

    return topk_buckets(_fixture(sf_dir), k=5, check_tokens=False)


def _rolling_anomaly(sf_dir: str):
    """Buckets whose token sum exceeds 1.5x the 60-bucket rolling mean
    (window >= 10 rows) — pipelines/window.rolling_anomalies."""
    from datafiller_ray.pipelines.window import rolling_anomalies

    return rolling_anomalies(
        _fixture(sf_dir), window=60, factor=1.5, min_window=10, check_tokens=False
    )


def _bucket_deltas(sf_dir: str):
    """Per-source delta + rate between consecutive observed 1m buckets
    (LAG semantics, first bucket omitted) — pipelines/window.bucket_deltas."""
    from datafiller_ray.pipelines.window import bucket_deltas

    return bucket_deltas(_fixture(sf_dir), check_tokens=False)


def _seasonal_anomaly(sf_dir: str):
    """Buckets exceeding 1.5x their source's hour-of-day profile mean
    (hours with >= 5 observed buckets) — pipelines/window.seasonal_anomalies."""
    from datafiller_ray.pipelines.window import seasonal_anomalies

    return seasonal_anomalies(
        _fixture(sf_dir), factor=1.5, min_buckets=5, check_tokens=False
    )


def _ewma_smooth(sf_dir: str):
    """EWMA smoothing (alpha=0.25, unadjusted recursion) of per-minute
    token sums over observed buckets — pipelines/window.ewma_smooth;
    oracled by the vendored independent NumPy recursion."""
    from datafiller_ray.pipelines.window import ewma_smooth

    return ewma_smooth(_fixture(sf_dir), alpha=0.25, check_tokens=False)


def _holt_smooth(sf_dir: str):
    """Brown double-exponential (Holt-equivalent) smoothing: level, trend
    and one-step forecast per observed 1m bucket (alpha=0.25) —
    pipelines/window.holt_smooth; vendored scalar double-recursion
    oracle."""
    from datafiller_ray.pipelines.window import holt_smooth

    return holt_smooth(_fixture(sf_dir), alpha=0.25, check_tokens=False)


def _stl_decompose(sf_dir: str):
    """STL-lite trend/seasonal/residual decomposition (trend = centered
    13-bucket rolling mean, seasonal = hour-of-day detrended mean), in
    exact integer micro-units — pipelines/window.stl_decompose."""
    from datafiller_ray.pipelines.window import stl_decompose

    return stl_decompose(_fixture(sf_dir), trend_window=13, check_tokens=False)


def _m4_downsample(sf_dir: str):
    """M4 min/max-preserving hourly downsample: first/last/min/max token
    sums per (source, hour pixel) with the earliest bucket achieving each
    extremum — pipelines/window.m4_downsample; integer-exact."""
    from datafiller_ray.pipelines.window import m4_downsample

    return m4_downsample(_fixture(sf_dir), px_seconds=3600, check_tokens=False)


def _dominant_period(sf_dir: str):
    """Per-source dominant seasonality period: ROW lag in [2, 24]
    maximizing the exact five-moment ACF (rounded-value argmax, lag-asc
    ties) — pipelines/window.dominant_period."""
    from datafiller_ray.pipelines.window import dominant_period

    return dominant_period(_fixture(sf_dir), max_lag=24, check_tokens=False)


def _staleness_report(sf_dir: str):
    """Per-source feed freshness: last observed 1m bucket + lag behind the
    freshest source — pipelines/window.staleness_report."""
    from datafiller_ray.pipelines.window import staleness_report

    return staleness_report(_fixture(sf_dir), check_tokens=False)


def _rollup_5m(sf_dir: str):
    """Rollup at an ARBITRARY custom step (5 minutes) via the
    {name: step_seconds} tier mapping — pins that the tier cascade is not
    hardwired to 1m/1h/1d (stages/fill.py:200-205)."""
    from datafiller_ray.config import FillConfig
    from datafiller_ray.pipelines.rollup import rollup_tiers

    ds = rollup_tiers(
        _fixture(sf_dir),
        fill=FillConfig(strategy=None),
        tiers={"5m": 300},
        check_tokens=False,
    )

    def project(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        b = batch.filter(pc.greater(batch["count"], 0))
        return pa.table(
            {
                "source": b["source"],
                "bucket_ts": b["bucket_ts"],
                "n_obs": b["count"],
                "sum_tok": pc.cast(b["sum"], pa.int64()),
                "min_tok": pc.cast(b["min"], pa.int64()),
                "max_tok": pc.cast(b["max"], pa.int64()),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def _source_gini(sf_dir: str):
    """Gini coefficient of token volume across sources (exact integer
    rank-weighted moments, one pinned float) —
    pipelines/corpus.source_gini."""
    from datafiller_ray.pipelines.corpus import source_gini
    from datafiller_ray.pipelines.rollup import read_input

    return source_gini(read_input(_fixture(sf_dir), with_tokens=False))


def _zipf_fit(sf_dir: str):
    """OLS Zipf rank-frequency fit over global token-id counts
    (slope/intercept/R^2 of ln(count) on ln(rank)) —
    pipelines/corpus.zipf_fit."""
    from datafiller_ray.pipelines.corpus import zipf_fit
    from datafiller_ray.pipelines.rollup import read_input

    return zipf_fit(read_input(_fixture(sf_dir), with_tokens=True))


def _embedding_clusters(sf_dir: str):
    """K-means cluster id for every corpus vector (quantizer trained on
    the bounded hash sample, centroids broadcast once, assignment
    distributed) — pipelines/ann.embedding_clusters."""
    from datafiller_ray.pipelines.ann import embedding_clusters

    return embedding_clusters(_read(sf_dir, "embeddings"))


def _semantic_dedup(sf_dir: str):
    """SemDeDup-style semantic dedup: quantizer-cell assignment, then
    keep-lowest-vec_id pruning of in-cell pairs with cosine >= tau on the
    1e-6 integer grid (column-blocked lower-triangle matmul per cell;
    the only exchange is the groupby(cell)) —
    pipelines/ann.semantic_dedup (arXiv:2303.09540 recipe)."""
    from datafiller_ray.pipelines.ann import semantic_dedup

    return semantic_dedup(_read(sf_dir, "embeddings"), tau=0.35)


def _embedding_pca(sf_dir: str):
    """Distributed PCA projection onto the top-2 corpus components —
    pipelines/ann.embedding_pca: per-batch exact integer Gram partials
    (quantized 2^-16 grid) through one bounded exchange, driver eigh on the
    tiny d x d covariance, broadcast (mu, W) projection pass."""
    from datafiller_ray.pipelines.ann import embedding_pca

    return embedding_pca(_read(sf_dir, "embeddings"), n_components=2)


def _label_centroid_similarity(sf_dir: str):
    """Pairwise cosine between per-label embedding centroids (exact int
    sums through the exchange) — pipelines/ann.label_centroid_similarity."""
    from datafiller_ray.pipelines.ann import label_centroid_similarity

    return label_centroid_similarity(_read(sf_dir, "embeddings"))


def _kmeans_quality(sf_dir: str):
    """Per-cell k-means member count + inertia (integer micro-unit exact
    sums) — pipelines/ann.kmeans_quality; same trained cells as
    embedding_clusters."""
    from datafiller_ray.pipelines.ann import kmeans_quality

    return kmeans_quality(_read(sf_dir, "embeddings"))


def _interarrival_stats(sf_dir: str):
    """Per-event-type inter-arrival count/mean/quantiles in exact
    microseconds — pipelines/events.interarrival_stats (chunk-sharded
    histograms + boundary gaps; quantile_cont rule)."""
    from datafiller_ray.pipelines.events import interarrival_stats

    return interarrival_stats(_read(sf_dir, "events"))


def _dedup_sequences(sf_dir: str):
    """Exact token-array dedup of the primary table (manifest-only phase 1,
    candidate-payload phase 2) — pipelines/packing.dedup_sequences."""
    from datafiller_ray.pipelines.packing import dedup_sequences

    return dedup_sequences(_fixture(sf_dir))


def _transition_topk(sf_dir: str):
    """Top-20 consecutive event-type transitions across user timelines
    ((ts, event_id) order) — pipelines/events.transition_topk."""
    from datafiller_ray.pipelines.events import transition_topk

    return transition_topk(_read(sf_dir, "events"), k=20)


def _user_lifetime(sf_dir: str):
    """Per-user first/last event, count, distinct active days —
    pipelines/events.user_lifetime (one bounded coarse exchange of
    (user, day) partials)."""
    from datafiller_ray.pipelines.events import user_lifetime

    return user_lifetime(_read(sf_dir, "events"))


def _events_cube(sf_dir: str):
    """GROUPING SETS cube (event_type x hour + margins) with integer
    micro-unit value sums — pipelines/events.events_cube."""
    from datafiller_ray.pipelines.events import events_cube

    return events_cube(_read(sf_dir, "events"), step=3600)


def _user_top_event(sf_dir: str):
    """Per-user modal event type (count desc, type asc ties) —
    pipelines/events.user_top_event: partial (user, type) counts per block,
    ONE bounded coarse exchange, vectorized per-bucket argmax."""
    from datafiller_ray.pipelines.events import user_top_event

    return user_top_event(_read(sf_dir, "events"))


def _anomaly_intervals(sf_dir: str):
    """Contiguous anomaly intervals: grid-adjacent buckets exceeding
    1.25x the 60-bucket trailing mean merged into alert rows with peak +
    earliest peak_ts — pipelines/window.anomaly_intervals (SQL
    gaps-and-islands oracle)."""
    from datafiller_ray.pipelines.window import anomaly_intervals

    return anomaly_intervals(
        _fixture(sf_dir), window=60, factor=1.25, min_window=10,
        check_tokens=False,
    )


def _source_similarity(sf_dir: str):
    """Pairwise cosine similarity of per-source binned token-id histograms
    (256 bins x width 256; int64-exact dots, one pinned division per pair)
    — pipelines/corpus.source_similarity."""
    from datafiller_ray.pipelines.corpus import source_similarity
    from datafiller_ray.pipelines.rollup import read_input

    return source_similarity(
        read_input(_fixture(sf_dir), with_tokens=True), bin_width=256, n_bins=256
    )


def _token_kl_drift(sf_dir: str):
    """Per-source KL divergence of the binned token-id distribution vs the
    global blend (Laplace-smoothed, 256 bins) —
    pipelines/corpus.token_kl_drift."""
    from datafiller_ray.pipelines.corpus import token_kl_drift
    from datafiller_ray.pipelines.rollup import read_input

    return token_kl_drift(
        read_input(_fixture(sf_dir), with_tokens=True), bin_width=256, n_bins=256
    )


_QUOTA_BUDGET = 5000


def _hourly_quota(sf_dir: str):
    """Per-(source, hour) token-budget quota: docs kept in seeded
    hash order while the running n_tok total stays within budget —
    pipelines/corpus.hourly_quota (tokens never read: 3-column
    projection)."""
    from datafiller_ray.pipelines.corpus import hourly_quota
    from datafiller_ray.pipelines.rollup import read_input

    return hourly_quota(
        read_input(_fixture(sf_dir), with_tokens=False),
        budget=_QUOTA_BUDGET,
        seed=_SAMPLE_SEED,
    )


def _oov_rate(sf_dir: str):
    """Per-source out-of-vocabulary token fraction vs the corpus' own
    top-1024 token ids (deterministic count-desc/tok-asc cutoff; sorted id
    array broadcast once) — pipelines/corpus.oov_rate."""
    from datafiller_ray.pipelines.corpus import oov_rate
    from datafiller_ray.pipelines.rollup import read_input

    return oov_rate(read_input(_fixture(sf_dir), with_tokens=True), vocab_size=1024)


def _doc_entropy(sf_dir: str):
    """Per-doc Shannon entropy (nats) of the token-id distribution over
    the pre-tokenized table — pipelines/corpus.doc_entropy; pure map,
    zero shuffles."""
    from datafiller_ray.pipelines.corpus import doc_entropy
    from datafiller_ray.pipelines.rollup import read_input

    return doc_entropy(read_input(_fixture(sf_dir), with_tokens=True))


_SHUFFLE_SHARDS = 64


def _bigram_topk(sf_dir: str):
    """Global top-100 adjacent token-id pairs over the sequence table
    (count desc, pair asc) — pipelines/corpus.bigram_topk; only the
    tokens column is read, only (pair, count) partials shuffle."""
    import ray.data

    from datafiller_ray.pipelines.corpus import bigram_topk

    ds = ray.data.read_parquet(_fixture(sf_dir), columns=["tokens"])
    return bigram_topk(ds, k=100)


def _events_skew_report(sf_dir: str):
    """Shuffle-key skew diagnostics over events.user_id — one summary row
    (key count, per-key count quantiles, max/mean skew ratio, hottest key)
    — pipelines/corpus.skew_report; only (key, cnt) partials shuffle."""
    from datafiller_ray.pipelines.corpus import skew_report

    return skew_report(_read(sf_dir, "events"), key_col="user_id")


def _events_skew_report_sql() -> str:
    q6 = lambda expr, name: (
        f"floor({expr}*1000000 + 0.5)/1000000 AS {name}"
    )
    return f"""
        WITH c AS (SELECT user_id AS k, COUNT(*)::BIGINT AS cnt
                   FROM events GROUP BY 1)
        SELECT COUNT(*)::BIGINT AS n_keys,
               CAST(SUM(cnt) AS BIGINT) AS total_rows,
               MAX(cnt) AS max_rows,
               {q6("quantile_cont(CAST(cnt AS DOUBLE), 0.5)", "q0_5")},
               {q6("quantile_cont(CAST(cnt AS DOUBLE), 0.9)", "q0_9")},
               {q6("quantile_cont(CAST(cnt AS DOUBLE), 0.99)", "q0_99")},
               {q6("CAST(MAX(cnt) * COUNT(*) AS DOUBLE) / CAST(SUM(cnt) AS DOUBLE)", "skew_ratio")},
               (SELECT k FROM c ORDER BY cnt DESC, k ASC LIMIT 1) AS top_key
        FROM c
    """


def _pmi_topk(sf_dir: str):
    """Top-100 word collocations by PMI over documents (min_count=5, 6-dec
    half-even absorber on the single ln expression) —
    pipelines/corpus.pmi_topk; one text pass, unigram table broadcast
    once, only (gram, cnt) partials shuffle."""
    from datafiller_ray.pipelines.corpus import pmi_topk

    return pmi_topk(_read(sf_dir, "documents"), k=100, min_count=5)


def _pmi_topk_sql() -> str:
    return r"""
        WITH t AS (SELECT regexp_extract_all(text, '\S+') AS ws FROM documents),
        uni AS (SELECT UNNEST(ws) AS w FROM t),
        uc AS (SELECT w, COUNT(*)::BIGINT AS c FROM uni GROUP BY 1),
        tt AS (SELECT CAST(SUM(c) AS DOUBLE) AS tok_total FROM uc),
        p AS (SELECT ws[i] AS wa, ws[i + 1] AS wb
              FROM t, UNNEST(range(1, len(ws))) AS u(i)),
        bc AS (SELECT wa, wb, COUNT(*)::BIGINT AS cnt FROM p GROUP BY 1, 2),
        pt AS (SELECT CAST(SUM(cnt) AS DOUBLE) AS pair_total FROM bc),
        scored AS (
          SELECT wa, wb, cnt,
                 round_even(ln(((CAST(cnt AS DOUBLE) * tok_total) * tok_total)
                               / ((pair_total * CAST(a.c AS DOUBLE))
                                  * CAST(b.c AS DOUBLE))), 6) AS pmi
          FROM bc, tt, pt
          JOIN uc a ON bc.wa = a.w
          JOIN uc b ON bc.wb = b.w
          WHERE cnt >= 5)
        SELECT wa, wb, cnt, pmi
        FROM scored ORDER BY pmi DESC, wa ASC, wb ASC LIMIT 100
    """


def _shuffle_manifest(sf_dir: str):
    """Deterministic global training-shuffle manifest of the documents
    table: shard = splitmix64(doc_id ^ mix(seed)) % 64, per-shard rank by
    (hash, id) — pipelines/corpus.shuffle_manifest (no global sort)."""
    from datafiller_ray.pipelines.corpus import shuffle_manifest

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "source"])
    return shuffle_manifest(
        docs, n_shards=_SHUFFLE_SHARDS, seed=_SAMPLE_SEED, carry_cols=("source",)
    )


_CMS_K, _CMS_DEPTH, _CMS_WIDTH, _CMS_SEED = 20, 4, 2048, 9


def _cms_heavy_hitters(sf_dir: str):
    """Top-20 token ids with exact counts + count-min estimates (depth 4,
    width 2048; one tagged-union pass, one groupby of sparse cells) —
    pipelines/sketches.cms_heavy_hitters."""
    import ray.data

    from datafiller_ray.pipelines.sketches import cms_heavy_hitters

    ds = ray.data.read_parquet(_fixture(sf_dir), columns=["tokens"])
    return cms_heavy_hitters(
        ds, k=_CMS_K, depth=_CMS_DEPTH, width=_CMS_WIDTH, seed=_CMS_SEED
    )


def _cms_heavy_hitters_sql() -> str:
    from datafiller_ray.pipelines.sketches import cms_row_mixes

    p = _fixture_sql_path()
    mixes = cms_row_mixes(_CMS_DEPTH, _CMS_SEED)
    chains, selects = [], []
    for i, mix in enumerate(mixes):
        ctes, fin = _sql_splitmix_ctes(
            "counts", ["tok", "cnt"],
            f"xor(CAST(tok AS UBIGINT), {mix})", f"cm{i}",
        )
        chains.append(ctes)
        selects.append(
            f"SELECT tok, cnt, {i} AS row_i, "
            f"CAST(v % {_CMS_WIDTH} AS BIGINT) AS cell FROM {fin}"
        )
    cells_union = "\n              UNION ALL ".join(selects)
    return f"""
        WITH tc AS (
          SELECT UNNEST(tokens) AS tok FROM read_parquet('{p}/*.parquet')),
        counts AS (
          SELECT CAST(tok AS BIGINT) AS tok, COUNT(*)::BIGINT AS cnt
          FROM tc GROUP BY 1),
        {",".join(chains)},
        cells AS ({cells_union}),
        counters AS (
          SELECT row_i, cell, CAST(SUM(cnt) AS BIGINT) AS csum
          FROM cells GROUP BY 1, 2),
        est AS (
          SELECT c.tok, MIN(ct.csum) AS cms_cnt
          FROM cells c JOIN counters ct USING (row_i, cell) GROUP BY 1),
        top AS (
          SELECT tok, cnt AS exact_cnt FROM counts
          ORDER BY cnt DESC, tok ASC LIMIT {_CMS_K})
        SELECT t.tok, t.exact_cnt, e.cms_cnt
        FROM top t JOIN est e USING (tok)
        ORDER BY t.exact_cnt DESC, t.tok ASC
    """


_CORR_REFS = ("src_0000", "src_0001", "src_0002")


def _source_correlation(sf_dir: str):
    """Pearson correlation of every source's observed 1m token sums vs the
    three broadcast reference sources (exact int64 moments; one pinned
    float expression) — pipelines/correlate.source_correlation."""
    from datafiller_ray.pipelines.correlate import source_correlation

    return source_correlation(
        _fixture(sf_dir), ref_sources=_CORR_REFS, min_common=3, check_tokens=False
    )


def _cusum_changepoints(sf_dir: str):
    """Two-sided CUSUM level-shift flags over each source's observed 1m
    token sums (standardized by exact integer moments; drift 0.5, threshold
    5.0) — pipelines/window.cusum_changepoints; vendored scalar-recursion
    oracle (tests/oracle/fills.py cusum_stats)."""
    from datafiller_ray.pipelines.window import cusum_changepoints

    return cusum_changepoints(
        _fixture(sf_dir), drift=0.5, threshold=5.0, min_points=20, check_tokens=False
    )


def _lttb_downsample(sf_dir: str):
    """LTTB visual downsample to 50 points per source —
    pipelines/window.lttb_downsample; vendored loop-LTTB oracle."""
    from datafiller_ray.pipelines.window import lttb_downsample

    return lttb_downsample(_fixture(sf_dir), n_out=50, check_tokens=False)


def _approx_distinct_docs(sf_dir: str):
    """Per-source HyperLogLog distinct doc_id estimate (p=12, mergeable
    register blobs through the shuffle) — pipelines/sketches.approx_distinct;
    vendored independent scalar-HLL oracle."""
    from datafiller_ray.pipelines.rollup import read_input
    from datafiller_ray.pipelines.sketches import approx_distinct

    return approx_distinct(
        read_input(_fixture(sf_dir), with_tokens=False),
        key_col="source",
        value_col="doc_id",
    )


def _pack_sequences(sf_dir: str):
    """Greedy fixed-length sequence-packing manifest (max_len=2048,
    ascending doc_id per source) — pipelines/packing.pack_sequences;
    vendored scalar greedy oracle."""
    from datafiller_ray.pipelines.packing import pack_sequences

    return pack_sequences(_fixture(sf_dir), max_len=2048)


def _pack_tokens(sf_dir: str):
    """Materialized packed sequences — pipelines/packing.pack_tokens; the
    token-array-equality invariant holds through packing (blob == docs'
    arrays concatenated in doc_id order). The driver row carries a blake2b
    digest of each blob rather than raw bytes (digest equality pins byte
    equality; binary columns trip pandas/DuckDB comparators on
    bytes-vs-bytearray representation)."""
    from datafiller_ray.pipelines.packing import pack_tokens

    ds = pack_tokens(_fixture(sf_dir), max_len=2048)

    def digest(df):
        import hashlib

        import pandas as pd

        out = df[["source", "pack_idx", "tok_filled"]].copy()
        out["tokens_sha"] = pd.Series(
            [hashlib.blake2b(b, digest_size=16).hexdigest() for b in df["tokens_blob"]],
            index=df.index,
        )
        return out

    return ds.map_batches(digest, batch_format="pandas")


def _events_rolling(sf_dir: str):
    """Rolling event-rate stats per event type over the generic events
    rollup — pipelines/window.events_rolling_counts (int-exact counts;
    the float value column is deliberately not rolled)."""
    from datafiller_ray.pipelines.window import events_rolling_counts

    return events_rolling_counts(_read(sf_dir, "events"), step=60, window=60)


def _bloom_new_docs(sf_dir: str):
    """Streaming-ingest dedup primitive: Bloom filter built over the
    'history' half (even epoch-minute rows), then the full table filtered
    to rows definitely NOT seen — sketches.build_bloom +
    bloom_filter_absent (history never shuffles; the filter broadcasts
    once). Oracled by the vendored scalar Bloom, false positives and all."""
    import pyarrow as pa

    import ray.data as rd  # noqa: F401  (ray already initialised by driver)

    from datafiller_ray.pipelines.rollup import read_input
    from datafiller_ray.pipelines.sketches import bloom_filter_absent, build_bloom

    ds = read_input(_fixture(sf_dir), with_tokens=False)

    def project(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "source"])

    def evens(t: pa.Table) -> pa.Table:
        import pandas as pd

        minute = (
            pd.Series(t["doc_id"].to_pandas()).str[-10:].astype("int64")
        )
        return t.filter(pa.array((minute % 2 == 0).to_numpy()))

    history = ds.map_batches(evens, batch_format="pyarrow")
    bloom = build_bloom(history, value_col="doc_id", m_bits=1 << 20, k=7)
    out = bloom_filter_absent(ds, bloom, value_col="doc_id", k=7)
    return out.map_batches(project, batch_format="pyarrow")


def _approx_distinct_global(sf_dir: str):
    """Whole-dataset HyperLogLog distinct doc_id estimate —
    pipelines/sketches.approx_distinct_global."""
    from datafiller_ray.pipelines.rollup import read_input
    from datafiller_ray.pipelines.sketches import approx_distinct_global

    return approx_distinct_global(
        read_input(_fixture(sf_dir), with_tokens=False), value_col="doc_id"
    )


def _hourly_profile(sf_dir: str):
    """Per-source hour-of-day count/sum/mean profile —
    pipelines/window.hourly_profile (calendar seasonality baseline)."""
    from datafiller_ray.pipelines.window import hourly_profile

    return hourly_profile(_fixture(sf_dir), check_tokens=False)


def _token_histogram(sf_dir: str):
    """Per-source n_tok histogram, 64-wide bins —
    pipelines/corpus.column_histogram over the sequences table."""
    from datafiller_ray.pipelines.corpus import column_histogram
    from datafiller_ray.pipelines.rollup import read_input

    return column_histogram(
        read_input(_fixture(sf_dir), with_tokens=False),
        key_col="source",
        value_col="n_tok",
        bin_width=64,
    )


def _lineitem_daily(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    def partial(batch: "pa.Table") -> "pa.Table":
        day = pc.cast(
            pc.floor(
                pc.divide(
                    pc.cast(pc.cast(batch["l_shipdate"], pa.int64()), pa.float64()),
                    86_400_000_000.0,
                )
            ),
            pa.int64(),
        )
        slim = pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "ship_day": day,
                "l_quantity": batch["l_quantity"],
            }
        )
        agg = slim.group_by(["l_returnflag", "ship_day"]).aggregate(
            [("l_quantity", "count"), ("l_quantity", "sum")]
        )
        return pa.table(
            {
                "l_returnflag": agg["l_returnflag"],
                "ship_day": agg["ship_day"],
                "n_items": agg["l_quantity_count"],
                "sum_qty": agg["l_quantity_sum"],
            }
        )

    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem").map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    # final combine on the full (flag, day) key — grouping only by
    # l_returnflag caps parallelism at its ~4 distinct values
    agg = ds.groupby(["l_returnflag", "ship_day"]).aggregate(
        Sum("n_items", alias_name="n_items"), Sum("sum_qty", alias_name="sum_qty")
    )

    def project(batch: "pa.Table") -> "pa.Table":
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "ship_day": batch["ship_day"],
                "n_items": pc.cast(batch["n_items"], pa.int64()),
                "sum_qty": pc.round(batch["sum_qty"], ndigits=6),
            }
        )

    return agg.map_batches(project, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# contract functions


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001-scale fixture: full tier
    rollup + linear gap fill. Returns a lazy Dataset of tier rows."""
    from datafiller_ray.config import FillConfig
    from datafiller_ray.pipelines.rollup import rollup_tiers

    from datafiller_ray.fixtures import ensure_fixture

    return rollup_tiers(
        ensure_fixture(0.001), fill=FillConfig(strategy="linear", max_gap=5)
    )


def _priority_demand(sf_dir: str):
    """lineitem JOIN orders on orderkey -> items and total quantity per
    order priority — pipelines/joins.equi_join (tagged-union single
    exchange, integer-exact aggregates)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from datafiller_ray.pipelines.joins import equi_join

    def li_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "okey": t["l_orderkey"],
                "qty": pc.cast(t["l_quantity"], pa.int64()),
            }
        )

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {"okey": t["o_orderkey"], "o_orderpriority": t["o_orderpriority"]}
        )

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders").map_batches(
        ord_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = equi_join(
        li,
        orders,
        key="okey",
        left_payload={"qty": "qty"},
        right_payload={"o_orderpriority": "o_orderpriority"},
    )
    agg = joined.groupby("o_orderpriority").aggregate(Count(), Sum("qty"))
    return agg.map_batches(
        lambda b: b.rename(columns={"count()": "n_items", "sum(qty)": "sum_qty"}),
        batch_format="pandas",
    )


def _orders_by_nation(sf_dir: str):
    """orders -> customer -> nation star join via two BROADCAST joins (the
    map-side small-dimension path; zero shuffles until the final 25-row
    groupby) — pipelines/joins.broadcast_join. Money is integer cents."""
    import numpy as np
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    from datafiller_ray.pipelines.joins import broadcast_join

    def ord_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "ckey": b["o_custkey"].to_numpy(np.int64),
                "cents": np.rint(b["o_totalprice"].to_numpy(np.float64) * 100)
                .astype(np.int64),
            }
        )

    def cust_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "ckey": b["c_custkey"].to_numpy(np.int64),
                "nkey": b["c_nationkey"].to_numpy(np.int64),
            }
        )

    def nat_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"nkey": b["n_nationkey"].to_numpy(np.int64), "n_name": b["n_name"]}
        )

    orders = _read(sf_dir, "orders").map_batches(ord_proj, batch_format="pandas")
    customer = _read(sf_dir, "customer").map_batches(
        cust_proj, batch_format="pandas"
    )
    nation = _read(sf_dir, "nation").map_batches(nat_proj, batch_format="pandas")
    j1 = broadcast_join(orders, customer, key="ckey", small_payload={"nkey": "nkey"})
    j2 = broadcast_join(j1, nation, key="nkey", small_payload={"n_name": "n_name"})
    agg = j2.groupby("n_name").aggregate(Count(), Sum("cents"))
    return agg.map_batches(
        lambda b: b.rename(
            columns={"count()": "n_orders", "sum(cents)": "total_cents"}
        )[["n_name", "n_orders", "total_cents"]],
        batch_format="pandas",
    )


def _funnel_analysis(sf_dir: str):
    """view -> click -> purchase earliest-chain funnel per user —
    pipelines/events.funnel_analysis (strictly increasing timestamps,
    integer microseconds end to end)."""
    from datafiller_ray.pipelines.events import funnel_analysis

    return funnel_analysis(
        _read(sf_dir, "events"), steps=("view", "click", "purchase")
    )


def _cohort_retention(sf_dir: str):
    """Daily cohort-retention matrix (first-active day x day offset x
    distinct active users) — pipelines/events.cohort_retention."""
    from datafiller_ray.pipelines.events import cohort_retention

    return cohort_retention(_read(sf_dir, "events"), period_seconds=86400)


def _completeness_report(sf_dir: str):
    """Per-source x 1h completeness SLO (dense hour grid over each
    source's span; expected minutes clipped at span edges) —
    pipelines/window.completeness_report."""
    from datafiller_ray.pipelines.window import completeness_report

    return completeness_report(_fixture(sf_dir), check_tokens=False)


def _gap_stats(sf_dir: str):
    """Per-source missing-bucket profile (gap count / total / max / mean)
    over the observed 1m grid — pipelines/window.gap_stats."""
    from datafiller_ray.pipelines.window import gap_stats

    return gap_stats(_fixture(sf_dir), check_tokens=False)


def _psi_drift(sf_dir: str):
    """Early-vs-late PSI drift of each source's per-minute token-sum
    distribution (10 equi-width bins, Laplace smoothing) —
    pipelines/window.psi_drift."""
    from datafiller_ray.pipelines.window import psi_drift

    return psi_drift(_fixture(sf_dir), check_tokens=False)


def _decontaminate(sf_dir: str):
    """Benchmark n-gram decontamination: training docs flagged by distinct
    5-gram overlap with the held-out slice (doc_id % 50 == 0) —
    pipelines/hygiene.decontaminate (bench grams aggregated small then
    broadcast; the training corpus is never shuffled)."""
    from datafiller_ray.pipelines.hygiene import decontaminate

    return decontaminate(_read(sf_dir, "documents"), n=5, holdout_mod=50)


def _doc_repetition(sf_dir: str):
    """Gopher-style within-doc duplicate 3-gram fraction —
    pipelines/hygiene.doc_repetition (pure per-doc map, no shuffle)."""
    from datafiller_ray.pipelines.hygiene import doc_repetition

    return doc_repetition(_read(sf_dir, "documents"), n=3)


def _unigram_logprob(sf_dir: str):
    """Unigram-LM quality score: mean -ln p(word) per doc under the
    corpus's own unigram distribution — pipelines/hygiene.unigram_logprob
    (vocab-bounded count pass broadcast to a vectorized scoring pass)."""
    from datafiller_ray.pipelines.hygiene import unigram_logprob

    return unigram_logprob(_read(sf_dir, "documents"))


def _tfidf_topterms(sf_dir: str):
    """Top-10 TF-IDF terms per source, ties (score DESC, w ASC) —
    pipelines/hygiene.tfidf_topterms."""
    from datafiller_ray.pipelines.hygiene import tfidf_topterms

    return tfidf_topterms(_read(sf_dir, "documents"), k=10)


def _pii_scrub(sf_dir: str):
    """Email/phone redaction with per-doc counts —
    pipelines/hygiene.pii_scrub (regexes compiled once per actor)."""
    from datafiller_ray.pipelines.hygiene import pii_scrub

    return pii_scrub(_read(sf_dir, "documents"))


def _substring_dup(sf_dir: str):
    """Cross-doc shared word-8-gram window fraction (RefinedWeb-style
    verbatim passage-reuse signal) — pipelines/hygiene.substring_dup
    (coarse-bucketed gram exchange; equality on the gram string)."""
    from datafiller_ray.pipelines.hygiene import substring_dup

    return substring_dup(_read(sf_dir, "documents"), n=8)


def _token_moments(sf_dir: str):
    """Exact per-source mean/var/skew/kurt of n_tok from mergeable integer
    power sums — pipelines/corpus.token_moments (partials in int64, final
    combine in unbounded Python ints; HUGEINT oracle)."""
    from datafiller_ray.pipelines.corpus import token_moments
    from datafiller_ray.pipelines.rollup import read_input

    return token_moments(read_input(_fixture(sf_dir), with_tokens=False))


def _approx_quantiles(sf_dir: str):
    """Per-source approximate quantiles from the deterministic bottom-k
    splitmix64 hash sample (order-invariant, mergeable) —
    pipelines/corpus.approx_quantiles."""
    from datafiller_ray.pipelines.corpus import approx_quantiles

    return approx_quantiles(
        _read(sf_dir, "documents"), k=_SAMPLE_K, seed=_SAMPLE_SEED,
        value_col="n_chars",
    )


def _acf(sf_dir: str):
    """Per-source autocorrelation of observed 1m token sums at row lags
    1..3 (exact five-moment integers, one pinned float expression) —
    pipelines/window.acf."""
    from datafiller_ray.pipelines.window import acf

    return acf(_fixture(sf_dir), lags=(1, 2, 3), check_tokens=False)


def _ljung_box(sf_dir: str):
    """Per-source Ljung-Box Q over the rounded lag-1..3 row-lag ACF
    (ascending-lag left-associated term sum, exact n(n+2) product) —
    pipelines/window.ljung_box."""
    from datafiller_ray.pipelines.window import ljung_box

    return ljung_box(_fixture(sf_dir), lags=(1, 2, 3))


def _pacf(sf_dir: str):
    """Per-source PACF at lags 1..3 via the Durbin-Levinson recursion
    unrolled over the rounded ACF values — pipelines/window.pacf."""
    from datafiller_ray.pipelines.window import pacf

    return pacf(_fixture(sf_dir))


def _centroid_silhouette(sf_dir: str):
    """Per-cell simplified (centroid-based) silhouette of the k-means
    assignment (pinned quadratic distances, 1e-6 integer grid per vector,
    one bounded exchange) — pipelines/ann.centroid_silhouette."""
    from datafiller_ray.pipelines.ann import centroid_silhouette

    return centroid_silhouette(_read(sf_dir, "embeddings"))


def _kalman_fill_1m(sf_dir: str):
    """Per-source local-level Kalman filter + RTS smoother gap fill over
    the dense 1m grid (lam = q/r = 0.5) — pipelines/window.kalman_fill;
    vendored scalar-recursion oracle (tests/oracle/fills.kalman_rts)."""
    from datafiller_ray.pipelines.window import kalman_fill

    return kalman_fill(_fixture(sf_dir), lam=0.5)


def _binseg_changepoints(sf_dir: str):
    """Per-source top-3 level-shift changepoints by exact-arithmetic
    binary segmentation over hourly sums (bigint/Fraction decisions, one
    division per emitted gain) — pipelines/window.binseg_changepoints;
    vendored oracle fills.binseg_points."""
    from datafiller_ray.pipelines.window import binseg_changepoints

    return binseg_changepoints(_fixture(sf_dir), step=3600, k=3, min_size=2)


def _quality_checks(sf_dir: str):
    """Deequ-style constraint suite over documents (five checks; exact
    integer counters, one bounded exchange + one doc_id-keyed exchange for
    uniqueness) — pipelines/hygiene.quality_checks."""
    from datafiller_ray.pipelines.hygiene import quality_checks

    return quality_checks(_read(sf_dir, "documents"))


def _croston_forecast(sf_dir: str):
    """Per-source Croston intermittent-demand forecast (SES over sizes +
    SES over inter-demand grid intervals, alpha 0.1) —
    pipelines/window.croston_forecast; vendored oracle
    fills.croston_recursion."""
    from datafiller_ray.pipelines.window import croston_forecast

    return croston_forecast(_fixture(sf_dir), alpha=0.1, min_demands=3)


def _forecast_interval_1m(sf_dir: str):
    """Per-source split-conformal interval for the lag-60-rows seasonal
    naive forecast (0.9 quantile of exact integer |residuals| via the
    shared quantile_cont rule + in-sample coverage) —
    pipelines/window.forecast_interval."""
    from datafiller_ray.pipelines.window import forecast_interval

    return forecast_interval(
        _fixture(sf_dir), season=60, level=0.9, min_pairs=10
    )


def _isotonic_fit_1h(sf_dir: str):
    """Per-source non-decreasing PAVA fit of hourly token sums (exact
    integer merge decisions, one division per pool) —
    pipelines/window.isotonic_fit; vendored oracle fills.pava_pools."""
    from datafiller_ray.pipelines.window import isotonic_fit

    return isotonic_fit(_fixture(sf_dir), step=3600)


def _scaling_exponent(sf_dir: str):
    """Per-source Hurst diffusion scaling exponent: log2-var of q-step
    contiguous increments OLS-fit on the exact integer log2-q design —
    pipelines/window.scaling_exponent."""
    from datafiller_ray.pipelines.window import scaling_exponent

    return scaling_exponent(_fixture(sf_dir))


def _seasonal_naive_mase(sf_dir: str):
    """Per-source MASE of the seasonal-naive (lag-60-rows) forecast over
    observed 1m buckets — pipelines/window.seasonal_naive_mase (exact
    integer error sums, one pinned division, round6)."""
    from datafiller_ray.pipelines.window import seasonal_naive_mase

    return seasonal_naive_mase(_fixture(sf_dir), season=60)


def _ohlc_1h(sf_dir: str):
    """Hourly OHLC candles of the per-minute token-sum series: first/last
    observed minute's sum (+ their timestamps), min/max, observed-minute
    count — pipelines/window.ohlc_candles (arg-extreme order statistics
    the tumbling cascade can't express; all-int64, one exchange)."""
    from datafiller_ray.pipelines.window import ohlc_candles

    return ohlc_candles(_fixture(sf_dir), step=3600)


def _coverage_islands(sf_dir: str):
    """Gaps-and-islands interval merge: maximal contiguous runs of observed
    1m buckets per source with length + exact token sum —
    pipelines/window.coverage_islands (vectorized boundary diff +
    cumsum-segment sums)."""
    from datafiller_ray.pipelines.window import coverage_islands

    return coverage_islands(_fixture(sf_dir))


def _session_stats(sf_dir: str):
    """Session-duration distribution by capped session size —
    pipelines/events.session_stats (events_sessions windows, then a tiny
    size-bucket exchange; exact integer sums, pinned mean/median)."""
    from datafiller_ray.pipelines.events import session_stats

    return session_stats(_read(sf_dir, "events"), gap_seconds=1800, cap=10)


def _value_runs(sf_dir: str):
    """RLE compressibility census: maximal contiguous runs of equal
    quantized level (sum_tok // 64) per source —
    pipelines/window.value_runs (runs break on level change OR grid gap;
    O(n) boundary diff)."""
    from datafiller_ray.pipelines.window import value_runs

    return value_runs(_fixture(sf_dir), level_width=64)


def _topk_movers_1h(sf_dir: str):
    """Global top-20 (source, hour) movers by |hour-over-hour change| of
    the hourly token sum — pipelines/window.topk_movers (per-source
    cascade deltas + the shared per-block k-prune ranked reduction)."""
    from datafiller_ray.pipelines.window import topk_movers

    return topk_movers(_fixture(sf_dir), step=3600, k=20)


def _vocab_growth(sf_dir: str):
    """Per-source vocabulary growth curve: first-occurrence token counts
    per hour + running vocab size — pipelines/corpus.vocab_growth (batch
    first-seen partials, min-combine exchange, tiny count/cumsum stages;
    the token payload never shuffles)."""
    from datafiller_ray.pipelines.corpus import vocab_growth

    return vocab_growth(_fixture(sf_dir), step=3600)


def _upsert_maintain_1m(sf_dir: str):
    """Operational upsert proof: checkpoint snapshot A (minute%10 != 2),
    then ONE replace+tombstone update (changed minute%10==1 docs at n_tok+1,
    added minute%10==2 docs, removed minute%10==0 keys) must leave the
    committed 1m tier equal to a fresh rollup of snapshot B —
    pipelines/checkpoint.run_incremental(mode="replace", deletes=...)
    (manifest-ordered reset semantics; only touched buckets refreshed)."""
    import shutil
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from datafiller_ray.config import FillConfig
    from datafiller_ray.pipelines.checkpoint import (
        read_tier_output,
        run_checkpointed,
        run_incremental,
    )
    from datafiller_ray.stages.validate import extract_epoch_minute

    path = _fixture(sf_dir)

    def project(t: pa.Table, which: str) -> pa.Table:
        m = np.asarray(extract_epoch_minute(t["doc_id"])) % 10
        n = np.asarray(pc.cast(t["n_tok"], pa.int64()))
        if which == "a":
            keep = m != 2
            n_out = n[keep]
        elif which == "upd":  # full new state of changed + added minutes
            keep = (m == 1) | (m == 2)
            n_out = n[keep] + (m[keep] == 1)
        else:  # removed keys
            keep = m == 0
            n_out = None
        tt = t.filter(pa.array(keep))
        cols = {"doc_id": tt["doc_id"], "source": tt["source"]}
        if n_out is not None:
            cols["n_tok"] = pa.array(n_out, pa.int64())
        return pa.table(cols)

    work = tempfile.mkdtemp(prefix="dfr_upsert_q_")
    try:
        for which in ("a", "upd", "dels"):
            ray.data.read_parquet(
                path, columns=["doc_id", "source", "n_tok"]
            ).map_batches(
                lambda t, w=which: project(t, w), batch_format="pyarrow"
            ).write_parquet(f"{work}/{which}")
        out = f"{work}/out"
        run_checkpointed(
            f"{work}/a",
            out,
            fill=FillConfig(strategy=None),
            tiers=("1m",),
            check_tokens=False,
            n_buckets=4,
        )
        run_incremental(
            out, f"{work}/upd", mode="replace", deletes=f"{work}/dels"
        )
        rows = read_tier_output(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rows = rows.filter(pc.greater(rows["count"], 0))
    return pa.table(
        {
            "source": rows["source"],
            "bucket_ts": rows["bucket_ts"],
            "n_obs": rows["count"],
            "sum_tok": pc.cast(rows["sum"], pa.int64()),
            "min_tok": pc.cast(rows["min"], pa.int64()),
            "max_tok": pc.cast(rows["max"], pa.int64()),
        }
    )


def _source_top_docs(sf_dir: str):
    """Per-source top-3 docs by (n_tok DESC, doc_id ASC) with payload —
    stages/exchange.grouped_topk (per-BLOCK k-prune before the bounded
    coarse-key exchange, identical prune per group; the shuffle carries
    O(groups_per_block * k) rows, never the corpus)."""
    import ray.data

    from datafiller_ray.stages.exchange import grouped_topk

    ds = ray.data.read_parquet(
        _fixture(sf_dir), columns=["source", "doc_id", "n_tok"]
    )
    return grouped_topk(ds, "source", "n_tok", ["doc_id"], 3)


def _rank_shift(sf_dir: str):
    """Two-period source league table (early-half vs late-half total
    tokens, midpoint of the global bucket range) with rank shift —
    pipelines/window.source_rank_shift (doc_id-only bounds pass, one
    grouped_sum exchange, bounded pivot/rank)."""
    from datafiller_ray.pipelines.window import source_rank_shift

    return source_rank_shift(_fixture(sf_dir))


def _cross_section_1h(sf_dir: str):
    """Per-hour p10/p50/p90 of per-source hourly token sums across all
    active sources — pipelines/window.cross_section_quantiles (per-source
    exchange then a TIME-keyed coarse exchange; quantile_cont
    interpolation, round6-pinned)."""
    from datafiller_ray.pipelines.window import cross_section_quantiles

    return cross_section_quantiles(_fixture(sf_dir), step=3600)


def _dow_hour_profile(sf_dir: str):
    """Weekly seasonality matrix per (source, day-of-week, hour-of-day):
    observed minutes, exact sum, round6 mean — pipelines/window.
    dow_hour_profile (pure epoch arithmetic, one exchange)."""
    from datafiller_ray.pipelines.window import dow_hour_profile

    return dow_hour_profile(_fixture(sf_dir))


def _events_dedupe_window(sf_dir: str):
    """Windowed stream dedup: keep the FIRST event per (user_id,
    event_type, minute) by (ts, event_id) — stages/exchange.grouped_topk
    with k=1 ascending over the composite window key (per-block prune
    before the exchange, the at-least-once-ingestion dedup shape)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.stages.exchange import grouped_topk

    def fn(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(t["ts"], pa.int64())
        minute_ts = pc.multiply(
            pc.divide(ts_us, pa.scalar(60_000_000, pa.int64())),
            pa.scalar(60, pa.int64()),
        )
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "minute_ts": minute_ts,
                "ts_us": ts_us,
                "event_id": t["event_id"],
            }
        )

    ds = _read(sf_dir, "events").map_batches(fn, batch_format="pyarrow")
    out = grouped_topk(
        ds,
        ["user_id", "event_type", "minute_ts"],
        "ts_us",
        ["event_id"],
        1,
        descending=False,
    )
    return out.select_columns(
        ["user_id", "event_type", "minute_ts", "ts_us", "event_id"]
    )


def _snapshot_diff(sf_dir: str):
    """Keyed delta between two deterministic snapshot views of the contract
    table (old = minute%10 != 2; new = minute%10 != 0 with n_tok+1 where
    minute%10 == 1): one row per added/removed/changed doc —
    pipelines/diff.snapshot_diff (slim projection + side tag + ONE bounded
    coarse-key exchange + per-group vectorized outer merge; unchanged rows
    dropped inside the group task)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from datafiller_ray.pipelines.diff import snapshot_diff
    from datafiller_ray.stages.validate import extract_epoch_minute

    path = _fixture(sf_dir)

    def make_snap(side: int):
        def fn(t: pa.Table) -> pa.Table:
            m = np.asarray(extract_epoch_minute(t["doc_id"])) % 10
            n = np.asarray(pc.cast(t["n_tok"], pa.int64()))
            keep = (m != 2) if side == 0 else (m != 0)
            n_out = n[keep] if side == 0 else n[keep] + (m[keep] == 1)
            tt = t.filter(pa.array(keep))
            return pa.table(
                {
                    "doc_id": tt["doc_id"],
                    "source": tt["source"],
                    "n_tok": pa.array(n_out, pa.int64()),
                }
            )

        return fn

    def snap(side: int):
        return ray.data.read_parquet(
            path, columns=["doc_id", "source", "n_tok"]
        ).map_batches(make_snap(side), batch_format="pyarrow")

    return snapshot_diff(snap(0), snap(1), key="doc_id", value="n_tok")


def _mad_outliers(sf_dir: str):
    """Robust per-source outliers: |sum_tok - median| > 3 * MAD over the
    observed 1m buckets (quantile_cont medians — IEEE-exact on integer
    data) — pipelines/window.mad_outliers."""
    from datafiller_ray.pipelines.window import mad_outliers

    return mad_outliers(_fixture(sf_dir), c=3.0, check_tokens=False)


def _rolling_median(sf_dir: str):
    """Rolling median of per-minute token sums over the last 7 observed 1m
    buckets per source (order-statistic sliding window; IEEE-exact on
    integer sums) — pipelines/window.rolling_median."""
    from datafiller_ray.pipelines.window import rolling_median

    return rolling_median(_fixture(sf_dir), window=7, check_tokens=False)


def _source_trend(sf_dir: str):
    """Per-source OLS slope/intercept/R^2 of observed 1m token sums vs the
    grid index (exact integer moments, three pinned float expressions) —
    pipelines/window.source_trend."""
    from datafiller_ray.pipelines.window import source_trend

    return source_trend(_fixture(sf_dir), step=60, check_tokens=False)


def _adf_stat(sf_dir: str):
    """Per-source Dickey-Fuller unit-root t-statistic of the observed 1m
    token sums (drift regression on exact integer pair moments, one
    pinned float chain) — pipelines/window.adf_stat."""
    from datafiller_ray.pipelines.window import adf_stat

    return adf_stat(_fixture(sf_dir))


def _bigram_logprob(sf_dir: str):
    """Per-doc bigram-LM mean NLL over contract-table token ids (MLE
    transition probs trained on the corpus; distinct-bigram count table
    stays a Dataset, vocab-bounded start counts broadcast, one
    coarse-bucket count co-partition + per-doc reduce) —
    pipelines/corpus.bigram_logprob."""
    from datafiller_ray.pipelines.corpus import bigram_logprob

    return bigram_logprob(_fixture(sf_dir))


def _kn_bigram_logprob(sf_dir: str):
    """Per-doc interpolated Kneser-Ney smoothed bigram mean NLL (d=0.75;
    continuation counts N1+(*,b), context fan-outs N1+(a,*) folded from
    the same distinct-bigram dataset and broadcast vocab-bounded) —
    pipelines/corpus.kn_bigram_logprob."""
    from datafiller_ray.pipelines.corpus import kn_bigram_logprob

    return kn_bigram_logprob(_fixture(sf_dir))


def _chao1_richness(sf_dir: str):
    """Per-source Chao1 vocabulary-richness estimate over contract-table
    token ids (exact D/f1/f2 integers through two bounded exchanges, one
    pinned estimator chain) — pipelines/corpus.chao1_richness."""
    from datafiller_ray.pipelines.corpus import chao1_richness

    return chao1_richness(_fixture(sf_dir))


def _doc_lexical_stats(sf_dir: str):
    """Per-doc type-token ratio, hapax fraction and duplicate-bigram
    repetition over contract-table token ids (one zero-shuffle
    map_batches pass, packed-int64 distinct counts, pinned round6
    divisions) — pipelines/corpus.doc_lexical_stats."""
    from datafiller_ray.pipelines.corpus import doc_lexical_stats

    return doc_lexical_stats(_fixture(sf_dir))


def _ppl_tercile(sf_dir: str):
    """CCNet-style per-source perplexity terciles over the KN bigram doc
    scores (doc-level coarse co-partition join + per-source SQL-NTILE
    assignment) — pipelines/corpus.ppl_tercile."""
    from datafiller_ray.pipelines.corpus import ppl_tercile

    return ppl_tercile(_fixture(sf_dir))


def _heaps_fit(sf_dir: str):
    """Per-source Heaps-law exponent: OLS of ln(vocab) on ln(cum tokens)
    over active-hour snapshots (exact-int cumulatives, fsum OLS chain
    mirroring the zipf_fit oracle tree) — pipelines/corpus.heaps_fit."""
    from datafiller_ray.pipelines.corpus import heaps_fit

    return heaps_fit(_fixture(sf_dir))


def _dsir_weights(sf_dir: str):
    """DSIR hashed-bigram importance log-weights per doc (target slice =
    the _CORR_REFS sources): one B-bounded count exchange + a broadcast
    weight vector scored in a shuffle-free map pass —
    pipelines/corpus.dsir_weights."""
    from datafiller_ray.pipelines.corpus import dsir_weights

    return dsir_weights(_fixture(sf_dir), list(_CORR_REFS))


def _source_ngram_overlap(sf_dir: str):
    """Cross-source n-gram contamination matrix (ordered pairs, distinct
    int64-packed n-grams; widest exchange = one row per distinct
    (source, n-gram)) — pipelines/corpus.source_ngram_overlap. Driven at
    n=2: the fixture's tokens are independent 50k-vocab draws, so the
    trigram intersection is empty by construction while bigrams collide
    at birthday rate — the bigram census exercises every stage."""
    from datafiller_ray.pipelines.corpus import source_ngram_overlap

    return source_ngram_overlap(_fixture(sf_dir), n=2)


def _entropy_rate(sf_dir: str):
    """Per-source bigram conditional entropy rate H(B|A) plus context
    entropy H(A) from exact per-source bigram/context counts (one pinned
    float expression per source, round6) —
    pipelines/corpus.entropy_rate."""
    from datafiller_ray.pipelines.corpus import entropy_rate

    return entropy_rate(_fixture(sf_dir))


def _token_burstiness(sf_dir: str):
    """Church-Gale per-token variance-to-mean ratio of per-doc counts
    (zeros included; exact integer moments, one pinned chain) —
    pipelines/corpus.token_burstiness."""
    from datafiller_ray.pipelines.corpus import token_burstiness

    return token_burstiness(_fixture(sf_dir), min_count=3)


def _yule_k(sf_dir: str):
    """Yule's characteristic K per source (1e4 * (sum c^2 - N)/N^2 from
    exact integer moments, one pinned expression) —
    pipelines/corpus.yule_k."""
    from datafiller_ray.pipelines.corpus import yule_k

    return yule_k(_fixture(sf_dir))


def _gt_coverage(sf_dir: str):
    """Per-source simple Good-Turing coverage (unseen mass f1/N from
    exact singleton/total integers, one pinned division) —
    pipelines/corpus.gt_coverage."""
    from datafiller_ray.pipelines.corpus import gt_coverage

    return gt_coverage(_fixture(sf_dir))


def _page_hinkley(sf_dir: str):
    """Per-source Page-Hinkley drift detector (sequential float recursion
    on exact-int cumulative means; vendored scalar oracle bit-for-bit) —
    pipelines/window.page_hinkley."""
    from datafiller_ray.pipelines.window import page_hinkley

    return page_hinkley(_fixture(sf_dir), delta=0.0, lam=1000.0)


def _runs_test(sf_dir: str):
    """Per-source Wald-Wolfowitz runs test vs the series median (exact
    integer run counts, one pinned z chain) — pipelines/window.runs_test."""
    from datafiller_ray.pipelines.window import runs_test

    return runs_test(_fixture(sf_dir))


def _turning_points(sf_dir: str):
    """Per-source turning-points randomness test (exact integer strict
    extrema count, one pinned z chain) —
    pipelines/window.turning_points."""
    from datafiller_ray.pipelines.window import turning_points

    return turning_points(_fixture(sf_dir))


def _cox_stuart(sf_dir: str):
    """Per-source Cox-Stuart sign trend test (all integer — first/second
    half pairing, strict sign counts) — pipelines/window.cox_stuart."""
    from datafiller_ray.pipelines.window import cox_stuart

    return cox_stuart(_fixture(sf_dir))


def _haar_energy(sf_dir: str):
    """Per-source Haar wavelet detail energies over the observed 1m token
    sums (integer-numerator ladder, one pinned division per level) —
    pipelines/window.haar_energy; vendored scalar-loop oracle."""
    from datafiller_ray.pipelines.window import haar_energy

    return haar_energy(_fixture(sf_dir), levels=3)


def _lomb_scargle(sf_dir: str):
    """Per-source Lomb-Scargle periodogram powers at 1h/6h/24h/7d
    candidate periods over the OBSERVED (unevenly spaced) 1m token sums
    (fsum-pinned float chain; int64 ts-mod-period angle reduction) —
    pipelines/window.lomb_scargle; vendored scalar oracle."""
    from datafiller_ray.pipelines.window import lomb_scargle

    return lomb_scargle(_fixture(sf_dir))


def _theta_forecast(sf_dir: str):
    """Theta-method 3-step forecast per source (OLS trend + SES over the
    theta=2 line, 50/50 combination; fsum-pinned chain) —
    pipelines/window.theta_forecast; vendored scalar oracle."""
    from datafiller_ray.pipelines.window import theta_forecast

    return theta_forecast(_fixture(sf_dir))


def _hill_tail(sf_dir: str):
    """Per-source Hill tail-index over the k+1 largest 1m token sums
    (k=20; exact integer order statistics, fsum-pinned LN chain) —
    pipelines/window.hill_tail."""
    from datafiller_ray.pipelines.window import hill_tail

    return hill_tail(_fixture(sf_dir))


def _spectral_entropy(sf_dir: str):
    """Per-source normalized DFT-power spectral entropy + dominant
    harmonic over the dense hourly grid (missing hours exact zeros;
    fsum-pinned angle chain) — pipelines/window.spectral_entropy;
    vendored scalar oracle."""
    from datafiller_ray.pipelines.window import spectral_entropy

    return spectral_entropy(_fixture(sf_dir))


def _matrix_profile(sf_dir: str):
    """Per-source matrix profile (exact STOMP) over the linear-filled
    hourly grid: top motif pair + top discord window by z-normalized
    Euclidean distance (fsum window moments, diagonal recursion pinned
    bit-for-bit with the vendored scalar oracle) —
    pipelines/window.matrix_profile."""
    from datafiller_ray.pipelines.window import matrix_profile

    # w=12 (half-day motif): the sf0.001 fixture spans ~36 hours, so the
    # 24h default would leave no admissible pair at the smallest scale
    return matrix_profile(_fixture(sf_dir), w=12)


def _customers_with_orders(sf_dir: str):
    """Customers with at least one order (SQL EXISTS) —
    pipelines/joins.semi_join: right side ships only distinct keys into
    the exchange; left rows pass through unmultiplied."""
    from datafiller_ray.pipelines.joins import semi_join

    return semi_join(
        _read(sf_dir, "customer"),
        _read(sf_dir, "orders"),
        key="c_custkey",
        left_payload=["c_custkey", "c_name", "c_mktsegment"],
        right_key="o_custkey",
    )


def _customers_no_events(sf_dir: str):
    """Customers with no event activity (SQL NOT EXISTS) —
    pipelines/joins.anti_join (same distinct-key exchange as semi_join)."""
    from datafiller_ray.pipelines.joins import anti_join

    return anti_join(
        _read(sf_dir, "customer"),
        _read(sf_dir, "events"),
        key="c_custkey",
        left_payload=["c_custkey", "c_name", "c_mktsegment"],
        right_key="user_id",
    )


def _supplier_demand_salted(sf_dir: str):
    """lineitem JOIN supplier on suppkey through the SKEW-SALTED exchange
    (pipelines/joins.salted_equi_join): max_group_rows is set below the
    ~600-row per-supplier fan-out so the hot-key census marks EVERY
    supplier hot, left rows scatter across salt sub-groups by a hash of
    l_orderkey, and supplier rows replicate per salt — the bounded-task
    remedy equi_join names. Results are row-identical to the plain join
    (pinned in tests/test_joins.py), aggregated per supplier nation."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import salted_equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def li_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "skey": t["l_suppkey"],
                "lid": t["l_orderkey"],
                "qty": pc.cast(t["l_quantity"], pa.int64()),
            }
        )

    def sup_proj(t: pa.Table) -> pa.Table:
        return pa.table({"skey": t["s_suppkey"], "s_nationkey": t["s_nationkey"]})

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    sup = _read(sf_dir, "supplier").map_batches(
        sup_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = salted_equi_join(
        li,
        sup,
        key="skey",
        salt_by="lid",
        max_group_rows=32,
        left_payload={"qty": "qty"},
        right_payload={"s_nationkey": "s_nationkey"},
    )

    def to_partial(t: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table(
            {
                "s_nationkey": t["s_nationkey"],
                "n_items": pa.array(np.ones(t.num_rows, np.int64)),
                "sum_qty": t["qty"],
            }
        )

    partial = joined.map_batches(
        to_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    return grouped_sum(partial, "s_nationkey", ["n_items", "sum_qty"], n_buckets=8)


def _activity_order_full(sf_dir: str):
    """FULL OUTER join of per-user event counts vs per-customer order
    counts (pipelines/joins.equi_join how='full' — SQL USING(key)
    semantics, null keys never match; the right-unmatched padding branch
    is live: most ordering customers have no events)."""
    import pyarrow as pa

    from datafiller_ray.pipelines.joins import equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def ev_proj(t: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table(
            {"k": t["user_id"], "n_ev": pa.array(np.ones(t.num_rows, np.int64))}
        )

    def ord_proj(t: pa.Table) -> pa.Table:
        import numpy as np

        return pa.table(
            {"k": t["o_custkey"], "n_ord": pa.array(np.ones(t.num_rows, np.int64))}
        )

    ev = grouped_sum(
        _read(sf_dir, "events").map_batches(
            ev_proj, batch_format="pyarrow", zero_copy_batch=True
        ),
        "k",
        "n_ev",
        n_buckets=16,
    )
    orr = grouped_sum(
        _read(sf_dir, "orders").map_batches(
            ord_proj, batch_format="pyarrow", zero_copy_batch=True
        ),
        "k",
        "n_ord",
        n_buckets=16,
    )
    return equi_join(
        ev,
        orr,
        key="k",
        left_payload={"k": "k", "n_ev": "n_ev"},
        right_payload={"n_ord": "n_ord"},
        how="full",
    )


def _dedup_normalized(sf_dir: str):
    """Case/whitespace-normalized near-exact dedup (keep min doc_id per
    normalized-text class) — pipelines/text.normalized_dedup."""
    from datafiller_ray.pipelines.text import normalized_dedup

    ds = normalized_dedup(_read(sf_dir, "documents"))
    return ds.select_columns(["doc_id", "source", "n_chars"])


def _token_diversity(sf_dir: str):
    """Per-doc distinct-token fraction over the pre-tokenized contract
    table (flatten + one (row, token) sort per batch, zero shuffles) —
    pipelines/corpus.token_diversity."""
    from datafiller_ray.pipelines.corpus import token_diversity
    from datafiller_ray.pipelines.rollup import read_input

    return token_diversity(read_input(_fixture(sf_dir), with_tokens=True))


def _winsorize(sf_dir: str):
    """Per-source interquartile winsorization of observed 1m token sums
    (binary-fraction quantiles: IEEE-exact band edges in any op order) —
    pipelines/window.winsorize."""
    from datafiller_ray.pipelines.window import winsorize

    return winsorize(_fixture(sf_dir), q_lo=0.25, q_hi=0.75, check_tokens=False)


def _ntile_volume(sf_dir: str):
    """Per-source NTILE(4) load-quartile labels over observed 1m buckets
    (value asc, bucket_ts asc ties; SQL fill rule) —
    pipelines/window.ntile_volume."""
    from datafiller_ray.pipelines.window import ntile_volume

    return ntile_volume(_fixture(sf_dir), n_tiles=4, check_tokens=False)


def _split_assign(sf_dir: str):
    """Deterministic 90/5/5 train/val/test labels from the seeded doc-id
    hash band (leakage-free, stable under resharding; nested with
    stratified_sample's rate bands) — pipelines/corpus.split_assign."""
    from datafiller_ray.pipelines.corpus import split_assign

    ds = split_assign(
        _read(sf_dir, "documents"), fractions=(0.9, 0.05, 0.05),
        seed=_SAMPLE_SEED,
    )
    return ds.select_columns(["doc_id", "source", "split"])


def _chunk_sequences(sf_dir: str):
    """Fixed-length chunk manifest with overlap (max_len=128, overlap=16)
    over the pre-tokenized contract table — the splitting complement of
    pack_sequences; tokens never move — pipelines/packing.chunk_sequences."""
    from datafiller_ray.pipelines.packing import chunk_sequences
    from datafiller_ray.pipelines.rollup import read_input

    return chunk_sequences(
        read_input(_fixture(sf_dir), with_tokens=False), max_len=128, overlap=16
    )


def _running_records(sf_dir: str):
    """Record-high census: per source, the 1m buckets whose token sum
    strictly exceeds every preceding bucket's (shifted-cummax record
    trail, numbered in time order) — pipelines/window.running_records."""
    from datafiller_ray.pipelines.window import running_records

    return running_records(_fixture(sf_dir))


def _burstiness(sf_dir: str):
    """Per-source burstiness summary (mean/variance/Fano factor/CV of the
    per-minute token-sum series, exact integer power sums) —
    pipelines/window.burstiness."""
    from datafiller_ray.pipelines.window import burstiness

    return burstiness(_fixture(sf_dir))


def _user_entropy(sf_dir: str):
    """Per-user Shannon entropy of the event-type distribution (the
    behavioral-diversity score; doc_entropy's pinned ln(n) - S/n form over
    per-type counts through one coarse user exchange) —
    pipelines/events.user_entropy."""
    from datafiller_ray.pipelines.events import user_entropy

    return user_entropy(_read(sf_dir, "events"))


def _weighted_quantiles(sf_dir: str):
    """Token-mass weighted length quantiles of the contract table (lower
    weighted quantile on the integer 1e6 grid — no floats anywhere) —
    pipelines/corpus.weighted_quantiles."""
    from datafiller_ray.pipelines.corpus import weighted_quantiles
    from datafiller_ray.pipelines.rollup import read_input

    return weighted_quantiles(read_input(_fixture(sf_dir), with_tokens=False))


def _length_percentile(sf_dir: str):
    """Per-document PERCENT_RANK of n_chars within its source (broadcast
    rank LUT, zero per-row shuffles) — pipelines/corpus.length_percentile."""
    from datafiller_ray.pipelines.corpus import length_percentile

    return length_percentile(_read(sf_dir, "documents"))


def _vocab_overlap(sf_dir: str):
    """Pairwise Jaccard overlap of per-source distinct token-id
    vocabularies (token-keyed distinct exchange + bounded pair combine) —
    pipelines/corpus.vocab_overlap."""
    from datafiller_ray.pipelines.corpus import vocab_overlap
    from datafiller_ray.pipelines.rollup import read_input

    return vocab_overlap(read_input(_fixture(sf_dir), with_tokens=True))


def _streaks(sf_dir: str):
    """Per-source longest strictly-increasing / strictly-decreasing streak
    of consecutive 1m buckets (breaks on grid gaps like value_runs) —
    pipelines/window.streaks."""
    from datafiller_ray.pipelines.window import streaks

    return streaks(_fixture(sf_dir))


def _theilsen_trend_1h(sf_dir: str):
    """Per-source Theil–Sen robust trend over hourly token sums (median of
    all pairwise slopes, quantile_cont interpolation) —
    pipelines/window.theilsen_trend."""
    from datafiller_ray.pipelines.window import theilsen_trend

    return theilsen_trend(_fixture(sf_dir), step=3600)


def _first_digit_profile(sf_dir: str):
    """Benford first-digit census of n_tok per source (exact integer digit
    extraction, one bounded exchange) — pipelines/corpus.first_digit_profile."""
    from datafiller_ray.pipelines.corpus import first_digit_profile
    from datafiller_ray.pipelines.rollup import read_input

    return first_digit_profile(read_input(_fixture(sf_dir), with_tokens=False))


def _revenue_by_region(sf_dir: str):
    """TPC-H Q5-style 5-table chain: lineitem ⋈ orders (big-big through
    the ONE equi_join exchange) then customer → nation → region broadcast
    dimension hops (map-side, zero extra shuffles), revenue grouped by
    region. Revenue is INTEGER-exact in 10^-4-dollar units:
    ``cents * (100 - disc_pct)`` with both factors rounded from the
    two-decimal doubles — pipelines/joins.equi_join + broadcast_join."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    from datafiller_ray.pipelines.joins import broadcast_join, equi_join

    def li_proj(t: pa.Table) -> pa.Table:
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.rint(price * 100).astype(np.int64)
        pct = np.rint(disc * 100).astype(np.int64)
        return pa.table(
            {"okey": t["l_orderkey"], "rev": pa.array(cents * (100 - pct))}
        )

    def ord_proj(t: pa.Table) -> pa.Table:
        return pa.table(
            {"okey": t["o_orderkey"], "ckey": pc.cast(t["o_custkey"], pa.int64())}
        )

    def cust_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "ckey": b["c_custkey"].to_numpy(np.int64),
                "nkey": b["c_nationkey"].to_numpy(np.int64),
            }
        )

    def nat_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "nkey": b["n_nationkey"].to_numpy(np.int64),
                "rkey": b["n_regionkey"].to_numpy(np.int64),
            }
        )

    def reg_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"rkey": b["r_regionkey"].to_numpy(np.int64), "r_name": b["r_name"]}
        )

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders").map_batches(
        ord_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    j = equi_join(
        li, orders, key="okey",
        left_payload={"rev": "rev"}, right_payload={"ckey": "ckey"},
    )
    j = broadcast_join(
        j,
        _read(sf_dir, "customer").map_batches(cust_proj, batch_format="pandas"),
        key="ckey", small_payload={"nkey": "nkey"},
    )
    j = broadcast_join(
        j,
        _read(sf_dir, "nation").map_batches(nat_proj, batch_format="pandas"),
        key="nkey", small_payload={"rkey": "rkey"},
    )
    j = broadcast_join(
        j,
        _read(sf_dir, "region").map_batches(reg_proj, batch_format="pandas"),
        key="rkey", small_payload={"r_name": "r_name"},
    )
    agg = j.groupby("r_name").aggregate(Count(), Sum("rev"))
    return agg.map_batches(
        lambda b: b.rename(
            columns={"count()": "n_items", "sum(rev)": "revenue_e4"}
        )[["r_name", "n_items", "revenue_e4"]],
        batch_format="pandas",
    )


def _variance_ratio(sf_dir: str):
    """Per-source Lo–MacKinlay VR(4) of 1m token-sum increments over
    contiguous windows (exact integer power sums, two pinned variance
    chains + one ratio) — pipelines/window.variance_ratio."""
    from datafiller_ray.pipelines.window import variance_ratio

    return variance_ratio(_fixture(sf_dir), q=4)


def _top_customer_by_nation(sf_dir: str):
    """Per-nation top-spending customer (argmax join): orders partial-
    aggregated per batch BEFORE the one ckey exchange (integer cents),
    customer/nation dimension hops broadcast map-side, then a 25-group
    argmax with (spend DESC, custkey ASC) tie-break —
    pipelines/joins.broadcast_join + groupby().map_groups."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from datafiller_ray.pipelines.joins import broadcast_join

    def ord_part(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        tt = pa.table(
            {
                "ckey": pa.array(
                    t["o_custkey"].to_numpy(zero_copy_only=False).astype(np.int64)
                ),
                "cents": pa.array(cents),
            }
        )
        g = tt.group_by("ckey").aggregate([("cents", "sum"), ("ckey", "count")])
        return g.rename_columns(["ckey", "spend_e2", "n_orders"])

    spend = (
        _read(sf_dir, "orders")
        .map_batches(ord_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("ckey")
        .aggregate(Sum("spend_e2"), Sum("n_orders"))
        .map_batches(
            lambda b: b.rename(
                columns={
                    "sum(spend_e2)": "spend_e2",
                    "sum(n_orders)": "n_orders",
                }
            ),
            batch_format="pandas",
        )
    )

    def cust_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "ckey": b["c_custkey"].to_numpy(np.int64),
                "nkey": b["c_nationkey"].to_numpy(np.int64),
            }
        )

    j = broadcast_join(
        spend,
        _read(sf_dir, "customer").map_batches(cust_proj, batch_format="pandas"),
        key="ckey",
        small_payload={"nkey": "nkey"},
    )

    def top1(g: pd.DataFrame) -> pd.DataFrame:
        spend_v = g["spend_e2"].to_numpy(np.int64)
        ck = g["ckey"].to_numpy(np.int64)
        i = np.lexsort((ck, -spend_v))[0]
        return g.iloc[[i]][["nkey", "ckey", "n_orders", "spend_e2"]].rename(
            columns={"ckey": "cust_key"}
        )

    top = j.groupby("nkey").map_groups(top1, batch_format="pandas")

    def nat_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "nkey": b["n_nationkey"].to_numpy(np.int64),
                "n_name": b["n_name"],
            }
        )

    out = broadcast_join(
        top,
        _read(sf_dir, "nation").map_batches(nat_proj, batch_format="pandas"),
        key="nkey",
        small_payload={"n_name": "n_name"},
    )
    return out.map_batches(
        lambda b: b[["n_name", "cust_key", "n_orders", "spend_e2"]],
        batch_format="pandas",
    )


def _harmonic_24h(sf_dir: str):
    """Per-source OLS fit of the 24h harmonic (amplitude / peak hour /
    variance explained); fsum-pinned sums make the distributed result
    bit-equal to the vendored scalar oracle —
    pipelines/window.harmonic_24h."""
    from datafiller_ray.pipelines.window import harmonic_24h

    return harmonic_24h(_fixture(sf_dir))


def _source_profile(sf_dir: str):
    """Fused per-source profile: eight statistics families in ONE
    exchange (dispersion, drawdown, seasonality, permutation entropy,
    AR(2), VR(4), 24h harmonic, busiest burst) —
    pipelines/window.source_profile."""
    from datafiller_ray.pipelines.window import source_profile

    return source_profile(_fixture(sf_dir))


def _sax_motifs(sf_dir: str):
    """Per-source SAX motif census (quartile NTILE symbolization +
    contiguous-triple motif ids, all-integer) —
    pipelines/window.sax_motifs."""
    from datafiller_ray.pipelines.window import sax_motifs

    return sax_motifs(_fixture(sf_dir))


def _busiest_burst(sf_dir: str):
    """Per-source max-sum contiguous burst of mean-centered 1m activity
    (all-integer Kadane via prefix-min; earliest end/start tie-break) —
    pipelines/window.busiest_burst."""
    from datafiller_ray.pipelines.window import busiest_burst

    return busiest_burst(_fixture(sf_dir))


def _readability(sf_dir: str):
    """Per-document Flesch–Kincaid grade from regex-countable word /
    sentence / vowel-group counts (exact integers; one pinned float
    chain) — pipelines/text.readability."""
    from datafiller_ray.pipelines.text import readability

    return readability(_read(sf_dir, "documents"))


_Q3_CUTOFF_US = 896659200000000  # 1998-06-01 00:00:00 UTC in epoch micros


def _top_unshipped_orders(sf_dir: str):
    """TPC-H Q3-style: top-10 orders by open revenue — orders placed
    before the cutoff whose lineitems ship after it; both sides filtered
    AT THE PROJECTION (only qualifying rows enter the one equi_join
    exchange), revenue integer-exact in 1e-4-dollar units, global top-k
    via the shared per-block pruner — pipelines/joins.equi_join +
    stages/exchange.topk_block_fn."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from datafiller_ray.pipelines.joins import equi_join
    from datafiller_ray.stages.exchange import topk_block_fn

    def li_proj(t: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(t["l_shipdate"], pa.timestamp("us")), pa.int64())
        keep = pc.greater(ship, pa.scalar(_Q3_CUTOFF_US, pa.int64()))
        t = t.filter(keep)
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.rint(price * 100).astype(np.int64)
        pct = np.rint(disc * 100).astype(np.int64)
        return pa.table(
            {"okey": t["l_orderkey"], "rev": pa.array(cents * (100 - pct))}
        )

    def ord_proj(t: pa.Table) -> pa.Table:
        od = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
        keep = pc.less(od, pa.scalar(_Q3_CUTOFF_US, pa.int64()))
        t = t.filter(keep)
        od = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
        return pa.table({"okey": t["o_orderkey"], "odate_us": od})

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders").map_batches(
        ord_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    from datafiller_ray.stages.exchange import grouped_sum

    j = equi_join(
        li, orders, key="okey",
        left_payload={"rev": "rev"},
        # the key rides as an explicit payload: equi_join outputs only the
        # requested payload columns
        right_payload={"order_key": "okey", "odate_us": "odate_us"},
    )
    # grouped_sum, not Ray's groupby().aggregate: the join's empty blocks
    # carry no schema, which breaks the native sort-sample (and the
    # aggregate operator's fixed 200-partition plan costs ~25s regardless
    # of size — the standing exchange lesson)
    per_order = grouped_sum(j, ["order_key", "odate_us"], "rev").map_batches(
        lambda b: b.rename(columns={"rev": "revenue_e4"}),
        batch_format="pandas",
    )
    prune = topk_block_fn(10, "revenue_e4", ["order_key"])
    pruned = per_order.map_batches(prune, batch_format="pyarrow")
    final = pruned.repartition(1).map_batches(prune, batch_format="pyarrow")

    def rank(t: pa.Table) -> pa.Table:
        rev = np.asarray(t["revenue_e4"], dtype=np.int64)
        okey = np.asarray(t["order_key"], dtype=np.int64)
        order = np.lexsort((okey, -rev))
        t = t.take(pa.array(order, type=pa.int64()))
        return t.append_column(
            "rnk", pa.array(np.arange(1, t.num_rows + 1), pa.int64())
        )

    return final.map_batches(rank, batch_format="pyarrow")


_Q4_LO_US = 852076800000000  # 1997-01-01 UTC micros
_Q4_HI_US = 859852800000000  # 1997-04-01
_LATE_US = 90 * 86400 * 1000000  # 90-day lateness threshold


def _order_priority_census(sf_dir: str):
    """TPC-H Q4-style: count Q1-1997 orders BY PRIORITY that have at
    least one lineitem shipping > 90 days after the order date (the
    fixture has no commit/receipt dates, so lateness is ship-vs-order
    lag). EXISTS realized as: one equi_join exchange (both sides filtered
    at the projection), the late predicate on the joined row, then a
    distinct-(order, priority) pass and a tiny priority count — all
    through the bounded grouped_sum exchange."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def li_proj(t: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(t["l_shipdate"], pa.timestamp("us")), pa.int64())
        return pa.table({"okey": t["l_orderkey"], "ship_us": ship})

    def ord_proj(t: pa.Table) -> pa.Table:
        od = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
        keep = pc.and_(
            pc.greater_equal(od, pa.scalar(_Q4_LO_US, pa.int64())),
            pc.less(od, pa.scalar(_Q4_HI_US, pa.int64())),
        )
        t = t.filter(keep)
        od = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "okey": t["o_orderkey"],
                "odate_us": od,
                "priority": t["o_orderpriority"],
            }
        )

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders").map_batches(
        ord_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    j = equi_join(
        li, orders, key="okey",
        left_payload={"ship_us": "ship_us"},
        right_payload={
            "order_key": "okey", "odate_us": "odate_us",
            "priority": "priority",
        },
    )

    def late(b):
        b = b[b["ship_us"] - b["odate_us"] > _LATE_US]
        return b[["order_key", "priority"]].assign(one=np.int64(1))

    lt = j.map_batches(late, batch_format="pandas")
    # distinct (order, priority): max of the dummy collapses duplicates
    dedup = grouped_sum(lt, ["order_key", "priority"], "one", how="max")
    out = grouped_sum(dedup, ["priority"], "one").map_batches(
        lambda b: b.rename(columns={"priority": "o_orderpriority", "one": "n_orders"}),
        batch_format="pandas",
    )
    return out


_Q10_LO_US = 852076800000000  # 1997-01-01
_Q10_HI_US = 867715200000000  # 1997-07-01


def _returned_revenue_topk(sf_dir: str):
    """TPC-H Q10-style: top-20 customers by revenue on RETURNED items
    ('R' lineitems of 1997-H1 orders). One lineitem-x-orders equi_join
    exchange with both sides pruned at the projection, revenue exact in
    1e-4-dollar units, per-customer grouped_sum, then two broadcast
    dimension hops (customer, nation) and the shared per-block top-k
    pruner (revenue DESC, custkey ASC)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_join, equi_join
    from datafiller_ray.stages.exchange import grouped_sum, topk_block_fn

    def li_proj(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], pa.scalar("R")))
        price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        disc = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.rint(price * 100).astype(np.int64)
        pct = np.rint(disc * 100).astype(np.int64)
        return pa.table(
            {"okey": t["l_orderkey"], "rev": pa.array(cents * (100 - pct))}
        )

    def ord_proj(t: pa.Table) -> pa.Table:
        od = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
        keep = pc.and_(
            pc.greater_equal(od, pa.scalar(_Q10_LO_US, pa.int64())),
            pc.less(od, pa.scalar(_Q10_HI_US, pa.int64())),
        )
        t = t.filter(keep)
        return pa.table({"okey": t["o_orderkey"], "ckey": t["o_custkey"]})

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders").map_batches(
        ord_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    # size-gated broadcast-vs-shuffle selection (the engine's standing
    # discipline): the date-filtered orders side is a DIMENSION at bench
    # scale (orderkey unique, ~45k rows at sf0.1) so the okey hop runs as
    # a broadcast probe with zero exchanges; above the guard (the 100-TB
    # regime, where H1-1997 orders are themselves huge) the same plan
    # falls back to the equi_join exchange — row-identical either way.
    from datafiller_ray.config import EngineValueError as _EVE

    try:
        j = broadcast_join(
            li, orders, key="okey", small_payload={"ckey": "ckey"}
        )
    except _EVE:
        j = equi_join(
            li, orders, key="okey",
            left_payload={"rev": "rev"}, right_payload={"ckey": "ckey"},
        )
    per_cust = grouped_sum(j, ["ckey"], "rev").map_batches(
        lambda b: b.rename(columns={"rev": "revenue_e4"}),
        batch_format="pandas",
    )
    cust_dim = _read(sf_dir, "customer").map_batches(
        lambda b: b.rename(columns={"c_custkey": "ckey"}),
        batch_format="pandas",
    )
    cust = broadcast_join(
        per_cust, cust_dim, key="ckey",
        small_payload={"c_name": "c_name", "nkey": "c_nationkey"},
    ).map_batches(
        lambda b: b.rename(columns={"ckey": "cust_key"}),
        batch_format="pandas",
    )
    nation_dim = _read(sf_dir, "nation").map_batches(
        lambda b: b.rename(columns={"n_nationkey": "nkey"}),
        batch_format="pandas",
    )
    full = broadcast_join(
        cust, nation_dim, key="nkey",
        small_payload={"n_name": "n_name"},
    )

    def strip(b):
        return b[["cust_key", "c_name", "n_name", "revenue_e4"]]

    full = full.map_batches(strip, batch_format="pandas")
    prune = topk_block_fn(20, "revenue_e4", ["cust_key"])
    pruned = full.map_batches(prune, batch_format="pyarrow")
    final = pruned.repartition(1).map_batches(prune, batch_format="pyarrow")

    def rank(t: pa.Table) -> pa.Table:
        rev = np.asarray(t["revenue_e4"], dtype=np.int64)
        ckey = np.asarray(t["cust_key"], dtype=np.int64)
        order = np.lexsort((ckey, -rev))
        t = t.take(pa.array(order, type=pa.int64()))
        return t.append_column(
            "rnk", pa.array(np.arange(1, t.num_rows + 1), pa.int64())
        )

    return final.map_batches(rank, batch_format="pyarrow")


def _small_quantity_revenue(sf_dir: str):
    """TPC-H Q17-style: average yearly revenue lost if small-quantity
    orders of Brand#23 small parts (p_size < 15) were not filled. The
    per-part quantity threshold (qty < 0.2 * avg qty) is evaluated as the
    EXACT integer cross-multiplication qty * 5 * cnt < sum_qty — no float
    average anywhere. Shape: broadcast the qualifying partkeys into the
    lineitem projection (no part-side shuffle), per-part integer
    aggregates through one bounded grouped_sum, broadcast the tiny
    aggregate table back over the same pruned stream, one final global
    sum; the single float is the closing sum_cents / 700.0."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    part = _read(sf_dir, "part")
    pk = part.map_batches(
        lambda b: b.loc[
            (b["p_brand"] == "Brand#23") & (b["p_size"] < 15), ["p_partkey"]
        ],
        batch_format="pandas",
    ).to_pandas()
    pk_ref = ray.put(frozenset(int(x) for x in pk["p_partkey"]))

    def li_proj(b: pd.DataFrame) -> pd.DataFrame:
        keys = ray.get(pk_ref)
        b = b[b["l_partkey"].isin(keys)]
        qty = np.rint(b["l_quantity"].to_numpy()).astype(np.int64)
        cents = np.rint(b["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        return pd.DataFrame(
            {
                "pkey": b["l_partkey"].to_numpy(),
                "qty": qty,
                "cents": cents,
                "one": np.ones(len(b), np.int64),
            }
        )

    li = _read(sf_dir, "lineitem").map_batches(li_proj, batch_format="pandas")
    agg = grouped_sum(li, ["pkey"], ["qty", "one"]).map_batches(
        lambda b: b.rename(columns={"qty": "sum_qty", "one": "cnt"}),
        batch_format="pandas",
    )
    thresholds = ray.put(
        agg.to_pandas().set_index("pkey")[["sum_qty", "cnt"]].to_dict("index")
    )

    def below(b: pd.DataFrame) -> pd.DataFrame:
        th = ray.get(thresholds)
        sq = b["pkey"].map(lambda k: th[k]["sum_qty"]).to_numpy(np.int64)
        c = b["pkey"].map(lambda k: th[k]["cnt"]).to_numpy(np.int64)
        keep = b["qty"].to_numpy(np.int64) * 5 * c < sq
        kept = b.loc[keep]
        return pd.DataFrame(
            {
                "g": np.zeros(len(kept), np.int64),
                "cents": kept["cents"].to_numpy(np.int64),
                "one": np.ones(len(kept), np.int64),
            }
        )

    qual = li.map_batches(below, batch_format="pandas")
    tot = grouped_sum(qual, ["g"], ["cents", "one"]).to_pandas()
    if len(tot) == 0:
        return pd.DataFrame(
            {
                "n_rows": pd.Series([], dtype=np.int64),
                "avg_yearly": pd.Series([], dtype=np.float64),
            }
        )
    cents = int(tot["cents"].iloc[0])
    n = int(tot["one"].iloc[0])
    avg_yearly = float(cents) / 700.0
    return pd.DataFrame(
        {
            "n_rows": np.array([n], dtype=np.int64),
            "avg_yearly": np.floor(
                np.array([avg_yearly]) * 1000000 + 0.5
            )
            / 1000000.0,
        }
    )


_Q18_MIN_QTY = 220


def _large_orders(sf_dir: str):
    """TPC-H Q18-style: top-20 largest orders by total lineitem quantity
    (> 220), with the buying customer's name. Per-order integer quantity
    sums through one bounded grouped_sum exchange, HAVING filter on the
    aggregate, one equi_join back to orders (the heavy-key side is tiny
    after the filter), a broadcast customer hop, and the shared top-k
    pruner (qty DESC, okey ASC)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_join, equi_join
    from datafiller_ray.stages.exchange import grouped_sum, topk_block_fn

    def li_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "okey": b["l_orderkey"].to_numpy(np.int64),
                "qty": np.rint(b["l_quantity"].to_numpy()).astype(np.int64),
            }
        )

    li = _read(sf_dir, "lineitem").map_batches(li_proj, batch_format="pandas")
    per_order = grouped_sum(li, ["okey"], "qty").map_batches(
        lambda b: b[b["qty"] > _Q18_MIN_QTY].rename(
            columns={"qty": "total_qty"}
        ),
        batch_format="pandas",
    )

    def ord_proj(t: pa.Table) -> pa.Table:
        od = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
        return pa.table(
            {
                "okey": t["o_orderkey"],
                "ckey": t["o_custkey"],
                "odate_us": od,
            }
        )

    orders = _read(sf_dir, "orders").map_batches(
        ord_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    j = equi_join(
        per_order, orders, key="okey",
        left_payload={"order_key": "okey", "total_qty": "total_qty"},
        right_payload={"ckey": "ckey", "odate_us": "odate_us"},
    )
    cust_dim = _read(sf_dir, "customer").map_batches(
        lambda b: b.rename(columns={"c_custkey": "ckey"}),
        batch_format="pandas",
    )
    full = broadcast_join(
        j, cust_dim, key="ckey",
        small_payload={"c_name": "c_name"},
    ).map_batches(
        lambda b: b.rename(columns={"ckey": "cust_key"}),
        batch_format="pandas",
    )
    prune = topk_block_fn(20, "total_qty", ["order_key"])
    pruned = full.map_batches(prune, batch_format="pyarrow")
    final = pruned.repartition(1).map_batches(prune, batch_format="pyarrow")

    def rank(t: pa.Table) -> pa.Table:
        qty = np.asarray(t["total_qty"], dtype=np.int64)
        okey = np.asarray(t["order_key"], dtype=np.int64)
        order = np.lexsort((okey, -qty))
        t = t.take(pa.array(order, type=pa.int64()))
        return t.append_column(
            "rnk", pa.array(np.arange(1, t.num_rows + 1), pa.int64())
        )

    return final.map_batches(rank, batch_format="pyarrow")


_Q7_LO_US = 820454400000000  # 1996-01-01 UTC micros
_Q7_HI_US = 883612800000000  # 1998-01-01
_Q15_LO_US = 820454400000000  # 1996-01-01
_Q15_HI_US = 828316800000000  # 1996-04-01
_Q21_LATE_US = 7_776_000_000_000  # 90 days in micros
# Q22-shaped idle cutoff: a customer is "idle" with no order on/after this
_IDLE_CUTOFF = "2001-01-01"
_HIGH_PRIORITIES = ("1-URGENT", "2-HIGH")
_Q8_NATION = "NATION_3"
_Q8_REGION = "ASIA"
_Q8_PART_TYPE = "ECONOMY"


def _li_money_proj(t, extra=()):
    """Shared lineitem projection: okey + integer 1e-4-dollar revenue
    (cents * (100 - disc_pct), both factors rounded from the two-decimal
    doubles) + any extra raw columns passed through."""
    import numpy as np
    import pyarrow as pa

    price = t["l_extendedprice"].to_numpy(zero_copy_only=False)
    disc = t["l_discount"].to_numpy(zero_copy_only=False)
    cents = np.rint(price * 100).astype(np.int64)
    pct = np.rint(disc * 100).astype(np.int64)
    cols = {"okey": t["l_orderkey"], "rev": pa.array(cents * (100 - pct))}
    for name, src in extra:
        cols[name] = t[src]
    return pa.table(cols)


def _nation_dim(sf_dir: str, key_name: str, out_name: str):
    """nation as a broadcast dimension frame keyed/named per hop."""
    import numpy as np
    import pandas as pd

    def proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                key_name: b["n_nationkey"].to_numpy(np.int64),
                out_name: b["n_name"],
            }
        )

    return _read(sf_dir, "nation").map_batches(proj, batch_format="pandas")


def _nation_trade_volume(sf_dir: str):
    """TPC-H Q7-style shipping volume between nation pairs: 1996-1997
    shipped revenue grouped by (supplier nation, customer nation, ship
    year), cross-nation pairs only. One lineitem x orders equi_join
    exchange; supplier, customer and the two nation lookups are ONE
    broadcast_chain stage; revenue integer-exact in 1e-4-dollar units."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_chain, equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def li_proj(t: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(t["l_shipdate"], pa.timestamp("us")), pa.int64())
        keep = pc.and_(
            pc.greater_equal(ship, pa.scalar(_Q7_LO_US, pa.int64())),
            pc.less(ship, pa.scalar(_Q7_HI_US, pa.int64())),
        )
        t = t.filter(keep)
        out = _li_money_proj(t, extra=[("skey", "l_suppkey")])
        return out.append_column(
            "ship_year", pc.cast(pc.year(t["l_shipdate"]), pa.int64())
        )

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders").map_batches(
        lambda t: pa.table({"okey": t["o_orderkey"], "ckey": t["o_custkey"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j = equi_join(
        li, orders, key="okey",
        left_payload={"skey": "skey", "rev": "rev", "ship_year": "ship_year"},
        right_payload={"ckey": "ckey"},
    )
    supp_dim = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "skey": b["s_suppkey"].to_numpy(np.int64),
                "snat": b["s_nationkey"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
    cust_dim = _read(sf_dir, "customer").map_batches(
        lambda b: pd.DataFrame(
            {
                "ckey": b["c_custkey"].to_numpy(np.int64),
                "cnat": b["c_nationkey"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
    j = broadcast_chain(
        j,
        [
            (supp_dim, "skey", {"snat": "snat"}),
            (cust_dim, "ckey", {"cnat": "cnat"}),
            (
                _nation_dim(sf_dir, "snat", "supp_nation"),
                "snat",
                {"supp_nation": "supp_nation"},
            ),
            (
                _nation_dim(sf_dir, "cnat", "cust_nation"),
                "cnat",
                {"cust_nation": "cust_nation"},
            ),
        ],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["supp_nation"].to_numpy() != b["cust_nation"].to_numpy()]
        out = pd.DataFrame(
            {
                "supp_nation": b["supp_nation"],
                "cust_nation": b["cust_nation"],
                "ship_year": b["ship_year"].to_numpy(np.int64),
                "n_items": np.ones(len(b), dtype=np.int64),
                "revenue_e4": b["rev"].to_numpy(np.int64),
            }
        )
        return out.groupby(
            ["supp_nation", "cust_nation", "ship_year"], as_index=False
        )[["n_items", "revenue_e4"]].sum()

    part = j.map_batches(partial, batch_format="pandas")
    return grouped_sum(
        part, ["supp_nation", "cust_nation", "ship_year"],
        ["n_items", "revenue_e4"],
    )


def _market_share(sf_dir: str):
    """TPC-H Q8-style market share: among 1996-1997 orders of ASIA-region
    customers for ECONOMY-type parts, the revenue share supplied by
    NATION_3, by order year. Numerator/denominator stay integer-exact in
    1e-4-dollar units; the single share division is the identical IEEE
    double op in SQL (CAST/CAST divide), so values hash-match bit-for-bit."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_chain, broadcast_join, equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def li_proj(t: pa.Table) -> pa.Table:
        return _li_money_proj(
            t, extra=[("skey", "l_suppkey"), ("pkey", "l_partkey")]
        )

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    part_dim = _read(sf_dir, "part").map_batches(
        lambda b: pd.DataFrame(
            {"pkey": b.loc[b["p_type"] == _Q8_PART_TYPE, "p_partkey"].to_numpy(np.int64)}
        ),
        batch_format="pandas",
    )
    li = broadcast_join(li, part_dim, key="pkey", small_payload=None)

    def ord_proj(t: pa.Table) -> pa.Table:
        od = pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
        keep = pc.and_(
            pc.greater_equal(od, pa.scalar(_Q7_LO_US, pa.int64())),
            pc.less(od, pa.scalar(_Q7_HI_US, pa.int64())),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "okey": t["o_orderkey"],
                "ckey": t["o_custkey"],
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            }
        )

    orders = _read(sf_dir, "orders").map_batches(
        ord_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    j = equi_join(
        li, orders, key="okey",
        left_payload={"skey": "skey", "rev": "rev"},
        right_payload={"ckey": "ckey", "o_year": "o_year"},
    )
    cust_dim = _read(sf_dir, "customer").map_batches(
        lambda b: pd.DataFrame(
            {
                "ckey": b["c_custkey"].to_numpy(np.int64),
                "cnat": b["c_nationkey"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
    nat_region = _read(sf_dir, "nation").map_batches(
        lambda b: pd.DataFrame(
            {
                "cnat": b["n_nationkey"].to_numpy(np.int64),
                "crkey": b["n_regionkey"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
    region_dim = _read(sf_dir, "region").map_batches(
        lambda b: pd.DataFrame(
            {
                "crkey": b["r_regionkey"].to_numpy(np.int64),
                "r_name": b["r_name"],
            }
        ),
        batch_format="pandas",
    )
    supp_dim = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "skey": b["s_suppkey"].to_numpy(np.int64),
                "snat": b["s_nationkey"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
    j = broadcast_chain(
        j,
        [
            (cust_dim, "ckey", {"cnat": "cnat"}),
            (nat_region, "cnat", {"crkey": "crkey"}),
            (region_dim, "crkey", {"r_name": "r_name"}),
            (supp_dim, "skey", {"snat": "snat"}),
            (
                _nation_dim(sf_dir, "snat", "supp_nation"),
                "snat",
                {"supp_nation": "supp_nation"},
            ),
        ],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["r_name"].to_numpy() == _Q8_REGION]
        rev = b["rev"].to_numpy(np.int64)
        is_nat = b["supp_nation"].to_numpy() == _Q8_NATION
        out = pd.DataFrame(
            {
                "o_year": b["o_year"].to_numpy(np.int64),
                "mkt_rev_e4": rev,
                "nat_rev_e4": np.where(is_nat, rev, 0),
            }
        )
        return out.groupby("o_year", as_index=False)[
            ["mkt_rev_e4", "nat_rev_e4"]
        ].sum()

    part = j.map_batches(partial, batch_format="pandas")
    summed = grouped_sum(part, ["o_year"], ["mkt_rev_e4", "nat_rev_e4"])

    def share(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["mkt_share"] = b["nat_rev_e4"].to_numpy(np.int64).astype(
            np.float64
        ) / b["mkt_rev_e4"].to_numpy(np.int64).astype(np.float64)
        return b

    return summed.map_batches(share, batch_format="pandas")


def _profit_by_nation_year(sf_dir: str):
    """TPC-H Q9-shaped profit census (partsupp-free reshape: unit cost is
    the part's retail price): profit_e4 = revenue_e4 -
    retail_cents * qty * 100, grouped by (supplier nation, order year).
    One lineitem x orders equi_join exchange; part cost and the supplier
    nation chain are broadcast hops; everything integer-exact."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_chain, broadcast_join, equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def li_proj(t: pa.Table) -> pa.Table:
        out = _li_money_proj(
            t, extra=[("skey", "l_suppkey"), ("pkey", "l_partkey")]
        )
        qty = np.rint(t["l_quantity"].to_numpy(zero_copy_only=False)).astype(
            np.int64
        )
        return out.append_column("qty", pa.array(qty))

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    part_dim = _read(sf_dir, "part").map_batches(
        lambda b: pd.DataFrame(
            {
                "pkey": b["p_partkey"].to_numpy(np.int64),
                "retail_cents": np.rint(
                    b["p_retailprice"].to_numpy() * 100
                ).astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    li = broadcast_join(
        li, part_dim, key="pkey", small_payload={"retail_cents": "retail_cents"}
    )

    def with_profit(b: pd.DataFrame) -> pd.DataFrame:
        profit = b["rev"].to_numpy(np.int64) - (
            b["retail_cents"].to_numpy(np.int64) * b["qty"].to_numpy(np.int64) * 100
        )
        return pd.DataFrame(
            {
                "okey": b["okey"].to_numpy(np.int64),
                "skey": b["skey"].to_numpy(np.int64),
                "profit_e4": profit,
            }
        )

    li = li.map_batches(with_profit, batch_format="pandas")
    orders = _read(sf_dir, "orders").map_batches(
        lambda t: pa.table(
            {
                "okey": t["o_orderkey"],
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j = equi_join(
        li, orders, key="okey",
        left_payload={"skey": "skey", "profit_e4": "profit_e4"},
        right_payload={"o_year": "o_year"},
    )
    supp_dim = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "skey": b["s_suppkey"].to_numpy(np.int64),
                "snat": b["s_nationkey"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
    j = broadcast_chain(
        j,
        [
            (supp_dim, "skey", {"snat": "snat"}),
            (_nation_dim(sf_dir, "snat", "nation"), "snat", {"nation": "nation"}),
        ],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "nation": b["nation"],
                "o_year": b["o_year"].to_numpy(np.int64),
                "profit_e4": b["profit_e4"].to_numpy(np.int64),
            }
        )
        return out.groupby(["nation", "o_year"], as_index=False)[
            ["profit_e4"]
        ].sum()

    part = j.map_batches(partial, batch_format="pandas")
    return grouped_sum(part, ["nation", "o_year"], ["profit_e4"])


def _ship_delay_census(sf_dir: str):
    """TPC-H Q12-shaped priority census by ship-delay bucket (shipmode-free
    reshape: the mode column does not exist in this schema, the delay
    between orderdate and shipdate takes its place): integer day delays
    bucketed lt30 / 30_89 / ge90, urgent+high vs lower priority counts per
    bucket. One equi_join exchange, per-batch partial census (<= 3 rows),
    one bounded grouped_sum combine."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    li = _read(sf_dir, "lineitem").map_batches(
        lambda t: pa.table(
            {
                "okey": t["l_orderkey"],
                "ship_us": pc.cast(
                    pc.cast(t["l_shipdate"], pa.timestamp("us")), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = _read(sf_dir, "orders").map_batches(
        lambda t: pa.table(
            {
                "okey": t["o_orderkey"],
                "odate_us": pc.cast(
                    pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
                "prio": t["o_orderpriority"],
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j = equi_join(
        li, orders, key="okey",
        left_payload={"ship_us": "ship_us"},
        right_payload={"odate_us": "odate_us", "prio": "prio"},
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        d = (
            b["ship_us"].to_numpy(np.int64) - b["odate_us"].to_numpy(np.int64)
        ) // 86_400_000_000
        bucket = np.where(d < 30, "lt30", np.where(d < 90, "30_89", "ge90"))
        high = np.isin(b["prio"].to_numpy(), _HIGH_PRIORITIES)
        out = pd.DataFrame(
            {
                "delay_bucket": bucket,
                "high_cnt": high.astype(np.int64),
                "low_cnt": (~high).astype(np.int64),
            }
        )
        return out.groupby("delay_bucket", as_index=False)[
            ["high_cnt", "low_cnt"]
        ].sum()

    part = j.map_batches(partial, batch_format="pandas")
    return grouped_sum(part, ["delay_bucket"], ["high_cnt", "low_cnt"])


def _top_supplier_revenue(sf_dir: str):
    """TPC-H Q15-style top supplier(s): per-supplier revenue over 1996-Q1
    shipments (integer 1e-4-dollar units via grouped_sum), then the
    supplier(s) achieving the maximum — ties all surface, exactly like the
    view + MAX subquery formulation. The per-supplier table is
    dimension-sized, so the final max-filter runs in one block."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_join
    from datafiller_ray.stages.exchange import grouped_sum

    def li_proj(t: pa.Table) -> pa.Table:
        ship = pc.cast(pc.cast(t["l_shipdate"], pa.timestamp("us")), pa.int64())
        keep = pc.and_(
            pc.greater_equal(ship, pa.scalar(_Q15_LO_US, pa.int64())),
            pc.less(ship, pa.scalar(_Q15_HI_US, pa.int64())),
        )
        t = t.filter(keep)
        out = _li_money_proj(t, extra=[("skey", "l_suppkey")])
        return out.drop_columns(["okey"])

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    per_supp = grouped_sum(li, ["skey"], ["rev"]).map_batches(
        lambda b: b.rename(columns={"rev": "revenue_e4", "skey": "supp_key"}),
        batch_format="pandas",
    )

    def keep_max(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b
        return b[b["revenue_e4"].to_numpy() == b["revenue_e4"].to_numpy().max()]

    top = per_supp.repartition(1).map_batches(keep_max, batch_format="pandas")
    supp_dim = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "supp_key": b["s_suppkey"].to_numpy(np.int64),
                "s_name": b["s_name"],
            }
        ),
        batch_format="pandas",
    )
    out = broadcast_join(
        top, supp_dim, key="supp_key", small_payload={"s_name": "s_name"}
    )
    return out.map_batches(
        lambda b: b[["supp_key", "s_name", "revenue_e4"]], batch_format="pandas"
    )


def _brand_supplier_census(sf_dir: str):
    """TPC-H Q16-shaped supplier census (partsupp-free reshape: supply
    relationships come from lineitem; the complaint exclusion becomes a
    low-balance exclusion, s_acctbal < $1000 in exact cents): distinct
    supplier count per (p_brand, p_size). Per-batch distinct triples, one
    dedup exchange, one bounded count combine."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from datafiller_ray.pipelines.joins import broadcast_join
    from datafiller_ray.stages.exchange import grouped_sum

    li = _read(sf_dir, "lineitem").map_batches(
        lambda t: pa.table({"pkey": t["l_partkey"], "skey": t["l_suppkey"]}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    supp_ok = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "skey": b.loc[
                    np.rint(b["s_acctbal"].to_numpy() * 100) >= 100_000,
                    "s_suppkey",
                ].to_numpy(np.int64)
            }
        ),
        batch_format="pandas",
    )
    li = broadcast_join(li, supp_ok, key="skey", small_payload=None)
    part_dim = _read(sf_dir, "part").map_batches(
        lambda b: pd.DataFrame(
            {
                "pkey": b["p_partkey"].to_numpy(np.int64),
                "p_brand": b["p_brand"],
                "p_size": b["p_size"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    )
    li = broadcast_join(
        li, part_dim, key="pkey",
        small_payload={"p_brand": "p_brand", "p_size": "p_size"},
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["p_brand", "p_size", "skey"]].drop_duplicates()
        out = out.copy()
        out["one"] = np.int64(1)
        return out

    triples = grouped_sum(
        li.map_batches(partial, batch_format="pandas"),
        ["p_brand", "p_size", "skey"],
        ["one"],
        how="min",
    )
    counted = grouped_sum(
        triples.map_batches(
            lambda b: b[["p_brand", "p_size", "one"]].rename(
                columns={"one": "supplier_cnt"}
            ),
            batch_format="pandas",
        ),
        ["p_brand", "p_size"],
        ["supplier_cnt"],
    )
    return counted


def _late_only_suppliers(sf_dir: str):
    """TPC-H Q21-shaped sole-late-supplier census (commit/receipt-date-free
    reshape: 'late' means shipped more than 90 days after the order date):
    for multi-supplier orders where EXACTLY ONE supplier shipped late,
    count per supplier how often they were that sole late supplier. One
    equi_join exchange, per-(order, supplier) late flags via a max
    combine, per-order stats via a second bounded combine, the qualifying
    orders re-joined as a semi_join (EXISTS shape), supplier name as a
    broadcast hop."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_join, equi_join, semi_join
    from datafiller_ray.stages.exchange import grouped_sum

    li = _read(sf_dir, "lineitem").map_batches(
        lambda t: pa.table(
            {
                "okey": t["l_orderkey"],
                "skey": t["l_suppkey"],
                "ship_us": pc.cast(
                    pc.cast(t["l_shipdate"], pa.timestamp("us")), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = _read(sf_dir, "orders").map_batches(
        lambda t: pa.table(
            {
                "okey": t["o_orderkey"],
                "odate_us": pc.cast(
                    pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j = equi_join(
        li, orders, key="okey",
        left_payload={"okey": "okey", "skey": "skey", "ship_us": "ship_us"},
        right_payload={"odate_us": "odate_us"},
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        late = (
            b["ship_us"].to_numpy(np.int64)
            > b["odate_us"].to_numpy(np.int64) + _Q21_LATE_US
        ).astype(np.int64)
        out = pd.DataFrame(
            {
                "okey": b["okey"].to_numpy(np.int64),
                "skey": b["skey"].to_numpy(np.int64),
                "late": late,
            }
        )
        return out.groupby(["okey", "skey"], as_index=False)[["late"]].max()

    pairs = grouped_sum(
        j.map_batches(partial, batch_format="pandas"),
        ["okey", "skey"], ["late"], how="max",
    )
    # pairs re-executes per consumer; materialize once (bounded: one row
    # per (order, supplier) pair after the max combine)
    pairs = pairs.materialize()

    def stats_proj(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "okey": b["okey"].to_numpy(np.int64),
                "n_supp": np.ones(len(b), dtype=np.int64),
                "n_late": b["late"].to_numpy(np.int64),
            }
        )

    stats = grouped_sum(
        pairs.map_batches(stats_proj, batch_format="pandas"),
        ["okey"], ["n_supp", "n_late"],
    )
    qual = stats.map_batches(
        lambda b: b.loc[
            (b["n_supp"].to_numpy() >= 2) & (b["n_late"].to_numpy() == 1),
            ["okey"],
        ],
        batch_format="pandas",
    )
    late_rows = pairs.map_batches(
        lambda b: b.loc[b["late"].to_numpy() == 1, ["okey", "skey"]],
        batch_format="pandas",
    )
    sole = semi_join(
        late_rows, qual, key="okey",
        left_payload={"okey": "okey", "skey": "skey"},
    )
    counts = grouped_sum(
        sole.map_batches(
            lambda b: pd.DataFrame(
                {
                    "supp_key": b["skey"].to_numpy(np.int64),
                    "n_orders": np.ones(len(b), dtype=np.int64),
                }
            ),
            batch_format="pandas",
        ),
        ["supp_key"], ["n_orders"],
    )
    supp_dim = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "supp_key": b["s_suppkey"].to_numpy(np.int64),
                "s_name": b["s_name"],
            }
        ),
        batch_format="pandas",
    )
    out = broadcast_join(
        counts, supp_dim, key="supp_key", small_payload={"s_name": "s_name"}
    )
    return out.map_batches(
        lambda b: b[["supp_key", "s_name", "n_orders"]], batch_format="pandas"
    )


def _min_unit_price_supplier(sf_dir: str):
    """TPC-H Q2-shaped min-cost supplier (partsupp-free reshape: the
    supply cost is the observed unit price on lineitem, exact in
    1e-4-dollar units via cents * 100 // qty): for every part, the
    supplier(s) whose minimum observed unit price equals the part's global
    minimum — the correlated-MIN-subquery join shape. The per-part min
    table is dimension-sized and broadcasts back into the scan; the
    surviving (part, supplier) matches dedup through one bounded
    exchange."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from datafiller_ray.pipelines.joins import broadcast_join
    from datafiller_ray.stages.exchange import grouped_sum

    def li_proj(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(b["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        qty = np.rint(b["l_quantity"].to_numpy()).astype(np.int64)
        return pd.DataFrame(
            {
                "part_key": b["l_partkey"].to_numpy(np.int64),
                "supp_key": b["l_suppkey"].to_numpy(np.int64),
                "unit_e4": (cents * 100) // qty,
            }
        )

    li = _read(sf_dir, "lineitem").map_batches(li_proj, batch_format="pandas")

    def partial_min(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("part_key", as_index=False)[["unit_e4"]].min()

    mins = grouped_sum(
        li.map_batches(partial_min, batch_format="pandas"),
        ["part_key"], ["unit_e4"], how="min",
    ).map_batches(
        lambda b: b.rename(columns={"unit_e4": "min_unit_e4"}),
        batch_format="pandas",
    )
    matched = broadcast_join(
        li, mins, key="part_key", small_payload={"min_unit_e4": "min_unit_e4"}
    )

    def keep_min(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["unit_e4"].to_numpy() == b["min_unit_e4"].to_numpy()]
        out = b[["part_key", "supp_key", "unit_e4"]].drop_duplicates().copy()
        out["one"] = np.int64(1)
        return out

    distinct = grouped_sum(
        matched.map_batches(keep_min, batch_format="pandas"),
        ["part_key", "supp_key", "unit_e4"], ["one"], how="min",
    )
    part_dim = _read(sf_dir, "part").map_batches(
        lambda b: pd.DataFrame(
            {
                "part_key": b["p_partkey"].to_numpy(np.int64),
                "p_brand": b["p_brand"],
            }
        ),
        batch_format="pandas",
    )
    supp_dim = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "supp_key": b["s_suppkey"].to_numpy(np.int64),
                "s_name": b["s_name"],
            }
        ),
        batch_format="pandas",
    )
    out = broadcast_join(
        distinct, part_dim, key="part_key", small_payload={"p_brand": "p_brand"}
    )
    out = broadcast_join(
        out, supp_dim, key="supp_key", small_payload={"s_name": "s_name"}
    )
    return out.map_batches(
        lambda b: b[["part_key", "p_brand", "supp_key", "s_name", "unit_e4"]],
        batch_format="pandas",
    )


def _pricing_summary(sf_dir: str):
    """TPC-H Q1-style pricing summary: per (returnflag, linestatus)
    integer-exact quantity/price/charge sums over lineitem with a shipdate
    cutoff. All money stays integer (1e-2 / 1e-4 / 1e-6-dollar units via
    the shared cents*(100-disc)*(100+tax) algebra); the only floats are
    the three per-group avg divisions, floor-half-up-6 absorbed. Physical
    plan: per-batch pandas partial groupby (<= 6 groups per batch) then
    one bounded grouped_sum exchange — the corpus never shuffles."""
    import numpy as np
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    cutoff = np.datetime64("2000-12-01")

    def part(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"].to_numpy() < cutoff]
        if not len(b):
            return pd.DataFrame(
                {
                    "l_returnflag": pd.Series([], dtype=object),
                    "l_linestatus": pd.Series([], dtype=object),
                    "sum_qty": pd.Series([], dtype=np.int64),
                    "sum_base_e2": pd.Series([], dtype=np.int64),
                    "sum_disc_e4": pd.Series([], dtype=np.int64),
                    "sum_charge_e6": pd.Series([], dtype=np.int64),
                    "sum_disc_pct": pd.Series([], dtype=np.int64),
                    "n_items": pd.Series([], dtype=np.int64),
                }
            )
        qty = np.rint(b["l_quantity"].to_numpy()).astype(np.int64)
        cents = np.rint(b["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        dpct = np.rint(b["l_discount"].to_numpy() * 100).astype(np.int64)
        tpct = np.rint(b["l_tax"].to_numpy() * 100).astype(np.int64)
        disc = cents * (100 - dpct)
        part = pd.DataFrame(
            {
                "l_returnflag": b["l_returnflag"].to_numpy(),
                "l_linestatus": b["l_linestatus"].to_numpy(),
                "sum_qty": qty,
                "sum_base_e2": cents,
                "sum_disc_e4": disc,
                "sum_charge_e6": disc * (100 + tpct),
                "sum_disc_pct": dpct,
                "n_items": np.ones(len(b), dtype=np.int64),
            }
        )
        return part.groupby(
            ["l_returnflag", "l_linestatus"], as_index=False, sort=False
        ).sum()

    li = _read(sf_dir, "lineitem").map_batches(part, batch_format="pandas")
    agg = grouped_sum(
        li,
        ["l_returnflag", "l_linestatus"],
        [
            "sum_qty", "sum_base_e2", "sum_disc_e4", "sum_charge_e6",
            "sum_disc_pct", "n_items",
        ],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["n_items"].to_numpy(np.float64)

        def r6(x):
            return np.floor(x * 1e6 + 0.5) / 1e6

        b = b.copy()
        b["avg_qty"] = r6(b["sum_qty"].to_numpy(np.int64).astype(np.float64) / n)
        b["avg_base_e2"] = r6(
            b["sum_base_e2"].to_numpy(np.int64).astype(np.float64) / n
        )
        b["avg_disc_pct"] = r6(
            b["sum_disc_pct"].to_numpy(np.int64).astype(np.float64) / n
        )
        return b.drop(columns=["sum_disc_pct"])

    return agg.map_batches(finish, batch_format="pandas")


def _revenue_delta(sf_dir: str):
    """TPC-H Q6-style forecast-revenue-change: one filtered global sum of
    cents*disc_pct over a one-year shipdate window, discount band 5..7 pct,
    qty < 24. No shuffle at all — per-batch integer partials collapse to a
    single row and the final combine is a one-row grouped_sum."""
    import numpy as np
    import pandas as pd

    from datafiller_ray.stages.exchange import grouped_sum

    lo, hi = np.datetime64("1996-01-01"), np.datetime64("1997-01-01")

    def part(b: pd.DataFrame) -> pd.DataFrame:
        sd = b["l_shipdate"].to_numpy()
        dpct = np.rint(b["l_discount"].to_numpy() * 100).astype(np.int64)
        qty = np.rint(b["l_quantity"].to_numpy()).astype(np.int64)
        keep = (sd >= lo) & (sd < hi) & (dpct >= 5) & (dpct <= 7) & (qty < 24)
        cents = np.rint(
            b["l_extendedprice"].to_numpy()[keep] * 100
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "k": np.zeros(1, dtype=np.int64),
                "n_items": np.array([int(keep.sum())], dtype=np.int64),
                "revenue_e4": np.array(
                    [int((cents * dpct[keep]).sum())], dtype=np.int64
                ),
            }
        )

    li = _read(sf_dir, "lineitem").map_batches(part, batch_format="pandas")
    return grouped_sum(li, ["k"], ["n_items", "revenue_e4"]).map_batches(
        lambda b: b.drop(columns=["k"]), batch_format="pandas"
    )


def _order_count_distribution(sf_dir: str):
    """TPC-H Q13-style customer order-count distribution: orders (minus the
    5-LOW priority band) aggregate to per-customer counts through one
    custkey-keyed grouped_sum, a left equi_join from the customer key list
    fills in the zero-order customers, and a second tiny grouped_sum
    produces (c_count, custdist). Two bounded exchanges, no broadcast of
    the big side."""
    import numpy as np
    import pandas as pd

    from datafiller_ray.pipelines.joins import equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def ord_part(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderpriority"] != "5-LOW"]
        return pd.DataFrame(
            {
                "ckey": b["o_custkey"].to_numpy(np.int64),
                "n_orders": np.ones(len(b), dtype=np.int64),
            }
        )

    counts = grouped_sum(
        _read(sf_dir, "orders").map_batches(ord_part, batch_format="pandas"),
        ["ckey"],
        "n_orders",
    )
    cust = _read(sf_dir, "customer").map_batches(
        lambda b: pd.DataFrame({"ckey": b["c_custkey"].to_numpy(np.int64)}),
        batch_format="pandas",
    )
    j = equi_join(
        cust, counts, key="ckey",
        left_payload={"ckey2": "ckey"},
        right_payload={"n_orders": "n_orders"},
        how="left",
    )

    def dist_part(b: pd.DataFrame) -> pd.DataFrame:
        c = b["n_orders"].fillna(0).to_numpy(np.int64)
        return pd.DataFrame(
            {"c_count": c, "custdist": np.ones(len(b), dtype=np.int64)}
        )

    return grouped_sum(
        j.map_batches(dist_part, batch_format="pandas"), ["c_count"], "custdist"
    )


def _promo_revenue_share(sf_dir: str):
    """TPC-H Q14-style promo revenue share: part's (partkey -> is_promo)
    flag broadcast INTO the lineitem scan (map-side, no part shuffle), one
    month of shipdates, two integer revenue accumulators, share = the one
    float division at the end. The lineitem side never shuffles — partials
    collapse to a single row per batch."""
    import numpy as np
    import pandas as pd
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    promo = _read(sf_dir, "part").map_batches(
        lambda b: pd.DataFrame(
            {
                "pkey": b["p_partkey"].to_numpy(np.int64),
                "is_promo": (b["p_type"].to_numpy() == "PROMO").astype(np.int8),
            }
        ),
        batch_format="pandas",
    ).to_pandas()
    lut = ray.put(
        dict(
            keys=promo["pkey"].to_numpy(np.int64),
            flags=promo["is_promo"].to_numpy(np.int8),
        )
    )
    lo, hi = np.datetime64("1996-03-01"), np.datetime64("1996-04-01")

    def part(b: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(lut)
        sd = b["l_shipdate"].to_numpy()
        keep = (sd >= lo) & (sd < hi)
        b = b[keep]
        cents = np.rint(b["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        dpct = np.rint(b["l_discount"].to_numpy() * 100).astype(np.int64)
        rev = cents * (100 - dpct)
        order = np.argsort(d["keys"], kind="stable")
        pos = np.searchsorted(d["keys"], b["l_partkey"].to_numpy(np.int64),
                              sorter=order)
        is_promo = d["flags"][order[pos]].astype(bool)
        return pd.DataFrame(
            {
                "k": np.zeros(1, dtype=np.int64),
                "promo_revenue_e4": np.array(
                    [int(rev[is_promo].sum())], dtype=np.int64
                ),
                "total_revenue_e4": np.array([int(rev.sum())], dtype=np.int64),
            }
        )

    li = _read(sf_dir, "lineitem").map_batches(part, batch_format="pandas")
    agg = grouped_sum(li, ["k"], ["promo_revenue_e4", "total_revenue_e4"])

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        tot = b["total_revenue_e4"].to_numpy(np.int64).astype(np.float64)
        pr = b["promo_revenue_e4"].to_numpy(np.int64).astype(np.float64)
        share = np.where(tot > 0, 100.0 * pr / tot, 0.0)
        b = b.drop(columns=["k"]).copy()
        b["promo_share"] = np.floor(share * 1e6 + 0.5) / 1e6
        return b

    return agg.map_batches(finish, batch_format="pandas")


def _disjunctive_revenue(sf_dir: str):
    """TPC-H Q19-style disjunctive-predicate revenue (reshaped to this
    part schema: brand + size + quantity bands, no container column): part
    meta broadcast into the lineitem scan, three OR branches evaluated
    vectorized per batch, per-branch integer revenue + counts. Tests that
    multi-branch predicates fuse into ONE corpus pass instead of three."""
    import numpy as np
    import pandas as pd
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    meta = _read(sf_dir, "part").map_batches(
        lambda b: pd.DataFrame(
            {
                "pkey": b["p_partkey"].to_numpy(np.int64),
                "brand": b["p_brand"].to_numpy(),
                "size": b["p_size"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    ).to_pandas().sort_values("pkey")
    lut = ray.put(
        dict(
            keys=meta["pkey"].to_numpy(np.int64),
            brand=meta["brand"].to_numpy(),
            size=meta["size"].to_numpy(np.int64),
        )
    )

    def part(b: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(lut)
        pos = np.searchsorted(d["keys"], b["l_partkey"].to_numpy(np.int64))
        brand, size = d["brand"][pos], d["size"][pos]
        qty = np.rint(b["l_quantity"].to_numpy()).astype(np.int64)
        cents = np.rint(b["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        dpct = np.rint(b["l_discount"].to_numpy() * 100).astype(np.int64)
        rev = cents * (100 - dpct)
        b1 = (brand == "Brand#1") & (size >= 1) & (size <= 15) & (qty <= 11)
        b2 = (
            (brand == "Brand#2") & (size >= 10) & (size <= 30)
            & (qty >= 10) & (qty <= 20)
        )
        b3 = (brand == "Brand#3") & (size >= 25) & (qty >= 20)
        rows = []
        for name, m in (("brand1_small", b1), ("brand2_mid", b2),
                        ("brand3_bulk", b3)):
            rows.append(
                (name, int(m.sum()), int(rev[m].sum()))
            )
        return pd.DataFrame(
            rows, columns=["branch", "n_items", "revenue_e4"]
        ).astype({"n_items": np.int64, "revenue_e4": np.int64})

    li = _read(sf_dir, "lineitem").map_batches(part, batch_format="pandas")
    return grouped_sum(li, ["branch"], ["n_items", "revenue_e4"])


def _idle_capital_by_nation(sf_dir: str):
    """TPC-H Q22-style (reshaped, no phone codes): customers whose balance
    beats the positive-balance average and who placed NO order since the
    recency cutoff, grouped by nation. The average is one tiny global
    aggregate (broadcast scalar); dormancy is the shared anti semi_join —
    the date filter prunes the right side BEFORE the exchange, so only
    recent orders' distinct custkeys ship; nation is a broadcast dim hop.
    Balances stay integer cents end-to-end."""
    import numpy as np
    import pandas as pd

    from datafiller_ray.pipelines.joins import broadcast_join, semi_join
    from datafiller_ray.stages.exchange import grouped_sum

    def bal_part(b: pd.DataFrame) -> pd.DataFrame:
        bal = np.rint(b["c_acctbal"].to_numpy() * 100).astype(np.int64)
        pos = bal > 0
        return pd.DataFrame(
            {
                "k": np.zeros(1, dtype=np.int64),
                "s": np.array([int(bal[pos].sum())], dtype=np.int64),
                "n": np.array([int(pos.sum())], dtype=np.int64),
            }
        )

    cust_raw = _read(sf_dir, "customer")
    tot = grouped_sum(
        cust_raw.map_batches(bal_part, batch_format="pandas"), ["k"], ["s", "n"]
    ).to_pandas()
    # threshold in cents as the exact float DuckDB computes: sum/count
    thresh = float(tot["s"].iloc[0]) / float(tot["n"].iloc[0])

    def cust_proj(b: pd.DataFrame) -> pd.DataFrame:
        bal = np.rint(b["c_acctbal"].to_numpy() * 100).astype(np.int64)
        keep = bal.astype(np.float64) > thresh
        return pd.DataFrame(
            {
                "ckey": b["c_custkey"].to_numpy(np.int64)[keep],
                "nkey": b["c_nationkey"].to_numpy(np.int64)[keep],
                "bal_e2": bal[keep],
            }
        )

    rich = cust_raw.map_batches(cust_proj, batch_format="pandas")
    cutoff = np.datetime64("2000-07-01")

    def ord_proj(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderdate"].to_numpy() >= cutoff]
        return pd.DataFrame({"ckey": b["o_custkey"].to_numpy(np.int64)})

    orders = _read(sf_dir, "orders").map_batches(ord_proj, batch_format="pandas")
    idle = semi_join(
        rich, orders, key="ckey",
        left_payload={"ckey": "ckey", "nkey": "nkey", "bal_e2": "bal_e2"},
        anti=True,
    )
    nat = _read(sf_dir, "nation").map_batches(
        lambda b: pd.DataFrame(
            {
                "nkey": b["n_nationkey"].to_numpy(np.int64),
                "n_name": b["n_name"].to_numpy(),
            }
        ),
        batch_format="pandas",
    )
    named = broadcast_join(idle, nat, key="nkey", small_payload={"n_name": "n_name"})

    def count_part(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_name": b["n_name"].to_numpy(),
                "n_cust": np.ones(len(b), dtype=np.int64),
                "total_bal_e2": b["bal_e2"].to_numpy(np.int64),
            }
        )

    return grouped_sum(
        named.map_batches(count_part, batch_format="pandas"),
        ["n_name"],
        ["n_cust", "total_bal_e2"],
    )


def _sql_ntile(rank0: np.ndarray, n: int, k: int) -> np.ndarray:
    """SQL NTILE(k) from 0-based ranks: the first ``n % k`` tiles take
    ``n // k + 1`` rows, the rest ``n // k`` — exact integers."""
    q, r = divmod(n, k)
    big = r * (q + 1)
    out = np.empty(rank0.size, dtype=np.int64)
    lo = rank0 < big
    out[lo] = rank0[lo] // (q + 1) + 1
    if q:
        out[~lo] = r + (rank0[~lo] - big) // q + 1
    return out


def _rfm_segments(sf_dir: str):
    """RFM customer segmentation over orders: per-customer recency
    (last order day), frequency (order count) and monetary (total cents,
    exact integers) roll up through ONE mixed-reduction exchange
    (stages/exchange.grouped_agg — sum/sum/max per column in the same
    partial+final pass); the per-customer table is dimension-sized, so
    the three NTILE(5) quintile codes (each ordered metric-desc with
    cust_key tiebreak, the SQL NTILE fill rule) assign in a single final
    block. Segment code = r*100 + f*10 + m."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.stages.exchange import grouped_agg

    def o_proj(t: pa.Table) -> pd.DataFrame:
        cents = np.rint(
            t["o_totalprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        day = (
            pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())
            .to_numpy(zero_copy_only=False)
            // 86_400_000_000
        )
        return pd.DataFrame(
            {
                "cust_key": t["o_custkey"].to_numpy(zero_copy_only=False).astype(
                    np.int64
                ),
                "n_orders": np.ones(t.num_rows, dtype=np.int64),
                "total_cents": cents,
                "last_day": day.astype(np.int64),
            }
        )

    per_cust = grouped_agg(
        _read(sf_dir, "orders").map_batches(o_proj, batch_format="pyarrow"),
        ["cust_key"],
        {"n_orders": "sum", "total_cents": "sum", "last_day": "max"},
    )

    def score(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        if not n:
            return b.assign(
                r_score=np.array([], dtype=np.int64),
                f_score=np.array([], dtype=np.int64),
                m_score=np.array([], dtype=np.int64),
                rfm=np.array([], dtype=np.int64),
            )
        ck = b["cust_key"].to_numpy(np.int64)

        def tile(metric: np.ndarray) -> np.ndarray:
            order = np.lexsort((ck, -metric))
            rank0 = np.empty(n, dtype=np.int64)
            rank0[order] = np.arange(n, dtype=np.int64)
            return _sql_ntile(rank0, n, 5)

        out = b.copy()
        out["r_score"] = tile(b["last_day"].to_numpy(np.int64))
        out["f_score"] = tile(b["n_orders"].to_numpy(np.int64))
        out["m_score"] = tile(b["total_cents"].to_numpy(np.int64))
        out["rfm"] = out["r_score"] * 100 + out["f_score"] * 10 + out["m_score"]
        return out

    return per_cust.repartition(1).map_batches(score, batch_format="pandas")


def _important_parts_by_value(sf_dir: str):
    """TPC-H Q11-shaped important-stock census (partsupp-free reshape: a
    part's held value among NATION_3's suppliers is its shipped revenue on
    lineitem, exact 1e-4-dollar units). The national supplier-key set is
    broadcast INTO the lineitem scan (map-side filter, no supplier
    shuffle); one pkey-keyed grouped_sum; the fraction cut is the
    scale-free EXACT integer comparison ``2 * n_parts * value > 3 * total``
    (value above 1.5x the per-part mean), so the threshold needs no
    per-scale-factor constant the way the reference TPC-H fraction does."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from datafiller_ray.stages.exchange import grouped_sum

    supp = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "skey": b["s_suppkey"].to_numpy(np.int64),
                "nkey": b["s_nationkey"].to_numpy(np.int64),
            }
        ),
        batch_format="pandas",
    ).to_pandas()  # supplier is a broadcast dimension
    nat_keys = np.sort(supp.loc[supp["nkey"] == 3, "skey"].to_numpy(np.int64))
    keys_ref = ray.put(nat_keys)

    def li_proj(t: pa.Table) -> pa.Table:
        keys = ray.get(keys_ref)
        sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys, sk)
        pos[pos == len(keys)] = 0
        keep = keys[pos] == sk if len(keys) else np.zeros(len(sk), bool)
        t = t.filter(pa.array(keep))
        out = _li_money_proj(t, extra=[("part_key", "l_partkey")])
        return out.drop_columns(["okey"])

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    per_part = grouped_sum(li, ["part_key"], ["rev"]).map_batches(
        lambda b: b.rename(columns={"rev": "value_e4"}), batch_format="pandas"
    )

    def keep_important(b: pd.DataFrame) -> pd.DataFrame:
        # per-part table is part-dimension-sized: one block after the
        # repartition(1), so total/n_parts are global here
        if not len(b):
            return b
        v = b["value_e4"].to_numpy(np.int64)
        total = int(v.sum())
        return b[2 * len(v) * v > 3 * total]

    return per_part.repartition(1).map_batches(
        keep_important, batch_format="pandas"
    )


def _dominant_part_suppliers(sf_dir: str):
    """TPC-H Q20-shaped dominant-supplier census (partsupp/availqty-free
    reshape: a supplier is 'dominant' for a part when its 1996 shipped
    quantity strictly exceeds half the part's 1996 total — the EXACT
    integer comparison ``2 * qty_sup > qty_part``). One (pkey, skey)
    grouped_sum exchange; per-part totals fold from that bounded table via
    a second dimension-sized exchange and come back map-side as a
    broadcast LUT; supplier names are one broadcast hop."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from datafiller_ray.pipelines.joins import broadcast_join
    from datafiller_ray.stages.exchange import grouped_sum

    lo = np.datetime64("1996-01-01")
    hi = np.datetime64("1997-01-01")

    def li_proj(t: pa.Table) -> pa.Table:
        sd = t["l_shipdate"].to_numpy(zero_copy_only=False)
        keep = (sd >= lo) & (sd < hi)
        t = t.filter(pa.array(keep))
        qty = np.rint(
            t["l_quantity"].to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        return pa.table(
            {"part_key": t["l_partkey"], "supp_key": t["l_suppkey"],
             "qty": pa.array(qty)}
        )

    li = _read(sf_dir, "lineitem").map_batches(
        li_proj, batch_format="pyarrow", zero_copy_batch=True
    )
    pair = grouped_sum(li, ["part_key", "supp_key"], ["qty"])
    # per-part 1996 totals: bounded by the part dimension -> broadcast LUT
    totals = grouped_sum(
        pair.map_batches(
            lambda b: b[["part_key", "qty"]], batch_format="pandas"
        ),
        ["part_key"],
        ["qty"],
    ).to_pandas()
    order = np.argsort(totals["part_key"].to_numpy(np.int64), kind="stable")
    lut = ray.put(
        dict(
            keys=totals["part_key"].to_numpy(np.int64)[order],
            tot=totals["qty"].to_numpy(np.int64)[order],
        )
    )

    def dominant_part(b: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(lut)
        pk = b["part_key"].to_numpy(np.int64)
        qs = b["qty"].to_numpy(np.int64)
        pos = np.searchsorted(d["keys"], pk)
        qt = d["tot"][pos]
        keep = 2 * qs > qt
        return pd.DataFrame(
            {
                "supp_key": b["supp_key"].to_numpy(np.int64)[keep],
                "n_parts_dominated": np.ones(int(keep.sum()), dtype=np.int64),
                "qty_dominated": qs[keep],
            }
        )

    per_supp = grouped_sum(
        pair.map_batches(dominant_part, batch_format="pandas"),
        ["supp_key"],
        ["n_parts_dominated", "qty_dominated"],
    )
    supp_dim = _read(sf_dir, "supplier").map_batches(
        lambda b: pd.DataFrame(
            {
                "supp_key": b["s_suppkey"].to_numpy(np.int64),
                "s_name": b["s_name"].to_numpy(),
            }
        ),
        batch_format="pandas",
    )
    out = broadcast_join(
        per_supp, supp_dim, key="supp_key", small_payload={"s_name": "s_name"}
    )
    return out.map_batches(
        lambda b: b[["supp_key", "s_name", "n_parts_dominated", "qty_dominated"]],
        batch_format="pandas",
    )


def _trimmed_mean(sf_dir: str):
    """Per-source interquartile mean of observed 1m sums (drop outside
    [p25, p75], exact kept sum / count; the winsorize band contract) —
    pipelines/window.trimmed_mean."""
    from datafiller_ray.pipelines.window import trimmed_mean

    return trimmed_mean(_fixture(sf_dir), q_lo=0.25, q_hi=0.75)


def _source_share_1d(sf_dir: str):
    """Per-(source, day) token share of the day's fleet-wide total (mix
    drift monitor; two bounded exchanges) — pipelines/window.source_share."""
    from datafiller_ray.pipelines.window import source_share

    return source_share(_fixture(sf_dir), step=86400)


def _seasonality_strength(sf_dir: str):
    """Per-source eta-squared of the hour-of-day grouping over 1m token
    sums (1 - SS_within_hod / SS_total; exact integer moments, one pinned
    float chain) — pipelines/window.seasonality_strength."""
    from datafiller_ray.pipelines.window import seasonality_strength

    return seasonality_strength(_fixture(sf_dir))


def _max_drawdown(sf_dir: str):
    """Per-source maximum running-peak-to-current decline of 1m token
    sums (all-integer: cummax, diff, first argmax) —
    pipelines/window.max_drawdown."""
    from datafiller_ray.pipelines.window import max_drawdown

    return max_drawdown(_fixture(sf_dir))


def _ar2_fit(sf_dir: str):
    """Per-source AR(2) OLS over contiguous 1m triples; exact bigint
    Cramer determinants, the three D_k/D divisions are the only floats —
    pipelines/window.ar2_fit."""
    from datafiller_ray.pipelines.window import ar2_fit

    return ar2_fit(_fixture(sf_dir))


def _permutation_entropy(sf_dir: str):
    """Per-source order-3 Bandt–Pompe permutation entropy over contiguous
    1m triples (integer ordinal-pattern census, <=6 -p*ln p terms) —
    pipelines/window.permutation_entropy."""
    from datafiller_ray.pipelines.window import permutation_entropy

    return permutation_entropy(_fixture(sf_dir))


def _holt_winters_1m(sf_dir: str):
    """Additive Holt–Winters (level/trend/seasonal, period 60 observed
    minutes) per source — the seasonal extension of holt_smooth_1m;
    vendored scalar triple-recursion oracle —
    pipelines/window.holt_winters."""
    from datafiller_ray.pipelines.window import holt_winters

    return holt_winters(
        _fixture(sf_dir), step=60, season=60, alpha=0.2, beta=0.1, gamma=0.3
    )


def _shipping_priority(sf_dir: str):
    """TPC-H Q3-shaped shipping priority: top-10 not-yet-shipped BUILDING
    orders by discounted revenue at the 1998-01-01 cutoff (revenue in
    exact 1e-4-dollar integers; rank revenue desc, orderdate asc,
    orderkey asc). Broadcast customer-segment hop + one orderkey
    equi_join + a tiny per-order grouped_sum; the top-10 runs on the
    bounded per-order table."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_join, equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    cut = np.datetime64("1998-01-01")
    cut_us = int(cut.astype("datetime64[us]").astype(np.int64))

    cust = _read(sf_dir, "customer").map_batches(
        lambda t: pa.table(
            {"ckey": t["c_custkey"], "seg": t["c_mktsegment"]}
        ).filter(pc.equal(t["c_mktsegment"], "BUILDING")),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = _read(sf_dir, "orders").map_batches(
        lambda t: pa.table(
            {
                "okey": t["o_orderkey"],
                "ckey": t["o_custkey"],
                "odate_us": pc.cast(
                    pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
            }
        ).filter(
            pc.less(
                pc.cast(
                    pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
                cut_us,
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    bo = broadcast_join(
        orders, cust, key="ckey", small_payload={"seg": "seg"}, how="inner"
    )
    li = _read(sf_dir, "lineitem").map_batches(
        lambda t: (
            lambda cents, dpct, keep: pa.table(
                {
                    "okey": pc.array_filter(t["l_orderkey"], keep),
                    "rev_e4": pa.array(
                        (cents * (100 - dpct))[
                            np.asarray(keep, dtype=bool)
                        ]
                    ),
                }
            )
        )(
            np.rint(
                np.asarray(t["l_extendedprice"], dtype=np.float64) * 100
            ).astype(np.int64),
            np.rint(
                np.asarray(t["l_discount"], dtype=np.float64) * 100
            ).astype(np.int64),
            pa.array(
                np.asarray(
                    pc.cast(
                        pc.cast(t["l_shipdate"], pa.timestamp("us")),
                        pa.int64(),
                    )
                )
                > cut_us
            ),
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j = equi_join(
        li,
        bo,
        key="okey",
        left_payload={"okey": "okey", "rev_e4": "rev_e4"},
        right_payload={"odate_us": "odate_us"},
    )

    def part(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:  # an empty join group yields a columnless frame
            return pd.DataFrame(
                {
                    "okey": pd.Series([], dtype=np.int64),
                    "odate_us": pd.Series([], dtype=np.int64),
                    "rev_e4": pd.Series([], dtype=np.int64),
                }
            )
        return b.groupby(["okey", "odate_us"], as_index=False)[
            "rev_e4"
        ].sum()

    per_order = grouped_sum(
        j.map_batches(part, batch_format="pandas"),
        ["okey", "odate_us"],
        "rev_e4",
    ).to_pandas()  # qualifying orders only: dimension-scale
    per_order = per_order.sort_values(
        ["rev_e4", "odate_us", "okey"],
        ascending=[False, True, True],
        kind="mergesort",
    ).head(10)
    import ray.data

    return ray.data.from_pandas(per_order.reset_index(drop=True))


def _late_order_census(sf_dir: str):
    """TPC-H Q4-shaped order-priority census: orders placed in 1996 with
    at least one lineitem shipped more than 60 days after the order date
    (the commit/receipt reshape for this schema), counted per priority.
    The late predicate needs both sides -> one orderkey equi_join;
    qualifying orderkeys dedupe per batch and count through one tiny
    priority-keyed grouped_sum."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import equi_join
    from datafiller_ray.stages.exchange import grouped_sum

    lo = int(
        np.datetime64("1996-01-01", "us").astype(np.int64)
    )
    hi = int(
        np.datetime64("1997-01-01", "us").astype(np.int64)
    )

    orders = _read(sf_dir, "orders").map_batches(
        lambda t: (
            lambda od: pa.table(
                {
                    "okey": t["o_orderkey"],
                    "odate_us": od,
                    "prio": t["o_orderpriority"],
                }
            ).filter(
                pc.and_(pc.greater_equal(od, lo), pc.less(od, hi))
            )
        )(pc.cast(pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64())),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = _read(sf_dir, "lineitem").map_batches(
        lambda t: pa.table(
            {
                "okey": t["l_orderkey"],
                "ship_us": pc.cast(
                    pc.cast(t["l_shipdate"], pa.timestamp("us")), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    j = equi_join(
        li,
        orders,
        key="okey",
        left_payload={"okey": "okey", "ship_us": "ship_us"},
        right_payload={"odate_us": "odate_us", "prio": "prio"},
    )

    def part(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:  # an empty join group yields a columnless frame
            return pd.DataFrame(
                {
                    "okey": pd.Series([], dtype=np.int64),
                    "prio": pd.Series([], dtype="string"),
                }
            )
        late = (
            b["ship_us"].to_numpy(np.int64)
            - b["odate_us"].to_numpy(np.int64)
        ) > 60 * 86_400_000_000
        lf = b[late][["okey", "prio"]].drop_duplicates("okey")
        out = pd.DataFrame(
            {"okey": lf["okey"], "prio": lf["prio"]}
        )
        return out

    # a key's rows co-locate in ONE join group, so the per-batch
    # drop_duplicates is globally exact (equi_join emits each okey's
    # cross product inside a single group task)
    lato = j.map_batches(part, batch_format="pandas")

    def census(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return pd.DataFrame(
                {
                    "prio": pd.Series([], dtype="string"),
                    "n_orders": pd.Series([], dtype=np.int64),
                }
            )
        g = b.groupby("prio", as_index=False).size()
        g["n_orders"] = g["size"].astype(np.int64)
        return g[["prio", "n_orders"]]

    return grouped_sum(
        lato.map_batches(census, batch_format="pandas"), "prio", "n_orders"
    )


def _small_qty_revenue(sf_dir: str):
    """TPC-H Q17-shaped small-quantity revenue: for Brand#2 parts, total
    extended price of lineitems whose quantity is below 20 percent of
    the part's average quantity, divided by 7 (avg yearly). The 0.2*avg
    comparison is evaluated as the EXACT integer cross-multiplication
    ``5 * qty * n_li < sum_qty``; per-part (sum, count) fold through one
    partkey grouped_sum, broadcast once, one shuffle-free scoring pass.
    Output: one row (n_items, revenue_e2, avg_yearly_e2 = revenue//7)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from datafiller_ray.pipelines.joins import broadcast_join
    from datafiller_ray.stages.exchange import grouped_sum

    parts = _read(sf_dir, "part").map_batches(
        lambda t: pa.table({"pkey": t["p_partkey"]}).filter(
            pc.equal(t["p_brand"], "Brand#2")
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    li = _read(sf_dir, "lineitem").map_batches(
        lambda t: pd.DataFrame(
            {
                "pkey": np.asarray(t["l_partkey"], dtype=np.int64),
                "qty": np.rint(
                    np.asarray(t["l_quantity"], dtype=np.float64)
                ).astype(np.int64),
                "cents": np.rint(
                    np.asarray(t["l_extendedprice"], dtype=np.float64) * 100
                ).astype(np.int64),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    brand_li = broadcast_join(
        li, parts, key="pkey", small_payload={}, how="inner"
    )

    def qpart(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("pkey", as_index=False).agg(
            sum_qty=("qty", "sum"), n_li=("qty", "size")
        )
        g["n_li"] = g["n_li"].astype(np.int64)
        return g

    stats = grouped_sum(
        brand_li.map_batches(qpart, batch_format="pandas"),
        "pkey",
        ["sum_qty", "n_li"],
    ).to_pandas()  # brand parts only: dimension-scale
    sref = ray.put(
        {
            int(r.pkey): (int(r.sum_qty), int(r.n_li))
            for r in stats.itertuples()
        }
    )

    def score(b: pd.DataFrame) -> pd.DataFrame:
        sm = ray.get(sref)
        pk = b["pkey"].to_numpy(np.int64)
        qty = b["qty"].to_numpy(np.int64)
        cents = b["cents"].to_numpy(np.int64)
        sq = np.array([sm[int(p)][0] for p in pk], dtype=np.int64)
        nl = np.array([sm[int(p)][1] for p in pk], dtype=np.int64)
        keep = 5 * qty * nl < sq
        return pd.DataFrame(
            {
                "k": np.zeros(1, dtype=np.int64),
                "n_items": np.array([int(keep.sum())], dtype=np.int64),
                "revenue_e2": np.array(
                    [int(cents[keep].sum())], dtype=np.int64
                ),
            }
        )

    tot = grouped_sum(
        brand_li.map_batches(score, batch_format="pandas"),
        "k",
        ["n_items", "revenue_e2"],
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.drop(columns=["k"]).copy()
        b["avg_yearly_e2"] = b["revenue_e2"] // 7
        return b

    return tot.map_batches(finish, batch_format="pandas")


def _large_volume_orders(sf_dir: str):
    """TPC-H Q18-shaped large-volume customers: orders whose total
    lineitem quantity exceeds 250, joined back to the order's customer —
    (ckey, okey, odate_us, total_price_e2, sum_qty), all integers. One
    orderkey grouped_sum (exact int quantities), a filter on the bounded
    per-order table, one broadcast hop to orders+customer attributes."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import broadcast_join
    from datafiller_ray.stages.exchange import grouped_sum

    li = _read(sf_dir, "lineitem").map_batches(
        lambda t: pd.DataFrame(
            {
                "okey": np.asarray(t["l_orderkey"], dtype=np.int64),
                "sum_qty": np.rint(
                    np.asarray(t["l_quantity"], dtype=np.float64)
                ).astype(np.int64),
            }
        ).groupby("okey", as_index=False).sum(),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    per_order = grouped_sum(li, "okey", "sum_qty").map_batches(
        lambda b: b[b["sum_qty"] > 250], batch_format="pandas"
    )
    orders = _read(sf_dir, "orders").map_batches(
        lambda t: pa.table(
            {
                "okey": t["o_orderkey"],
                "ckey": t["o_custkey"],
                "odate_us": pc.cast(
                    pc.cast(t["o_orderdate"], pa.timestamp("us")), pa.int64()
                ),
                "total_price_e2": pa.array(
                    np.rint(
                        np.asarray(t["o_totalprice"], dtype=np.float64) * 100
                    ).astype(np.int64)
                ),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    # the QUALIFYING per-order table is the small side (bounded by the
    # volume filter); the orders table streams
    return broadcast_join(
        orders,
        per_order,
        key="okey",
        small_payload={"sum_qty": "sum_qty"},
        how="inner",
    )


def _survival_km(sf_dir: str):
    """Kaplan-Meier time-to-conversion curve over events (first touch ->
    first purchase, right-censored at last activity; exact-Fraction
    product-limit estimator) — pipelines/events.survival_km; vendored
    independent per-user pandas oracle."""
    from datafiller_ray.pipelines.events import survival_km

    return survival_km(_read(sf_dir, "events"))


def _cdc_merge(sf_dir: str):
    """Last-writer-wins CDC merge (lakehouse MERGE INTO) of three
    deterministic update waves onto the contract snapshot — updates are
    derived from the fixture itself (epoch-minute residue classes), so
    the DuckDB ROW_NUMBER oracle re-derives them identically —
    pipelines/diff.upsert_merge."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from datafiller_ray.pipelines.diff import upsert_merge
    from datafiller_ray.stages.validate import extract_epoch_minute

    fx = _fixture(sf_dir)
    base = ray.data.read_parquet(
        fx, columns=["doc_id", "n_tok", "source"]
    ).map_batches(
        lambda t: pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": pc.cast(t["n_tok"], pa.int64()),
                "source": t["source"],
            }
        ),
        batch_format="pyarrow",
    )

    def wave(mod: int, ver: int, bump: int, is_del: int):
        def fn(t: pa.Table) -> pa.Table:
            import numpy as np

            ts = np.asarray(extract_epoch_minute(t["doc_id"]), dtype=np.int64)
            s = t.filter(pa.array(ts % mod == 0))
            n = s.num_rows
            import numpy as np

            return pa.table(
                {
                    "doc_id": s["doc_id"],
                    "n_tok": pc.add(pc.cast(s["n_tok"], pa.int64()), bump),
                    "source": s["source"],
                    "version": pa.array(np.full(n, ver, np.int64)),
                    "is_delete": pa.array(np.full(n, is_del, np.int64)),
                }
            )

        return fn

    raw = ray.data.read_parquet(fx, columns=["doc_id", "n_tok", "source"])
    updates = (
        raw.map_batches(wave(5, 1, 1000, 0), batch_format="pyarrow")
        .union(raw.map_batches(wave(15, 2, 2000, 0), batch_format="pyarrow"))
        .union(raw.map_batches(wave(35, 3, 0, 1), batch_format="pyarrow"))
    )
    return upsert_merge(base, updates)


def _zorder_layout(sf_dir: str):
    """Z-order (Morton) layout plan over (source-hash, event-minute) with
    exact NTILE file assignment and per-file zone-map spans —
    pipelines/retention.zorder_layout."""
    from datafiller_ray.pipelines.retention import zorder_layout

    return zorder_layout(_fixture(sf_dir), n_files=64)


def _gopher_rules(sf_dir: str):
    """Gopher-style composite quality-rule census per source (word count,
    mean word length, stopword, repetition rules as exact counters) —
    pipelines/hygiene.gopher_rules."""
    from datafiller_ray.pipelines.hygiene import gopher_rules

    return gopher_rules(_read(sf_dir, "documents"))


def _token_pagerank(sf_dir: str):
    """Top-20 tokens by integer PageRank over the corpus bigram digraph
    (8 damped power-iteration steps, bit-reproducible integer recurrence,
    vocabulary-bounded per-iteration folds) —
    pipelines/corpus.token_pagerank; vendored independent pandas/global
    oracle."""
    from datafiller_ray.pipelines.corpus import token_pagerank

    return token_pagerank(_fixture(sf_dir), k=20, n_iter=8)


def _granger_1h(sf_dir: str):
    """Lag-1 Granger causality F statistic of every source's hourly token
    sums against the broadcast reference sources (exact integer ten-moment
    sums, Fraction-exact OLS via Cramer, one correctly-rounded float) —
    pipelines/correlate.granger_causality; vendored independent
    Gram-Schmidt-in-Fractions oracle."""
    from datafiller_ray.pipelines.correlate import granger_causality

    return granger_causality(
        _fixture(sf_dir), ref_sources=_CORR_REFS, step=3600, min_common=8,
        check_tokens=False,
    )


def _holt_damped_1m(sf_dir: str):
    """Damped-trend Holt (Gardner-McKenzie, phi=0.9) per source over the
    observed 1m token sums — the damped member of the exponential family
    between holt_smooth_1m and holt_winters_1m; vendored scalar
    double-recursion oracle — pipelines/window.holt_damped."""
    from datafiller_ray.pipelines.window import holt_damped

    return holt_damped(
        _fixture(sf_dir), step=60, alpha=0.25, beta=0.1, phi=0.9
    )


def _lead_lag_xcorr(sf_dir: str):
    """Best lag in ±6 hours maximizing Pearson correlation of each source
    against the broadcast reference sources (exact integer five-moment
    sums per lag; winner picked on the rounded corr, corr desc / lag asc)
    — pipelines/correlate.lead_lag_xcorr."""
    from datafiller_ray.pipelines.correlate import lead_lag_xcorr

    return lead_lag_xcorr(
        _fixture(sf_dir), ref_sources=_CORR_REFS, max_lag=6, step=3600,
        min_common=3, check_tokens=False,
    )


def _dtw_distance(sf_dir: str):
    """Band-limited DTW shape distance (Sakoe-Chiba w=12h, L1, pinned
    z-norm, normalized by longer length) of each source's hourly series
    vs the broadcast reference sources —
    pipelines/correlate.dtw_distance; vendored oracle fills.dtw_band."""
    from datafiller_ray.pipelines.correlate import dtw_distance

    return dtw_distance(
        _fixture(sf_dir), ref_sources=_CORR_REFS, step=3600, w=12,
        min_len=8, check_tokens=False,
    )


def _rolling_corr_1m(sf_dir: str):
    """Rolling Pearson correlation (trailing 60 common observed buckets)
    of each source vs the broadcast reference sources; exact int64
    rolling five-moment sums, one pinned float per row —
    pipelines/correlate.rolling_corr."""
    from datafiller_ray.pipelines.correlate import rolling_corr

    return rolling_corr(
        _fixture(sf_dir), ref_sources=_CORR_REFS, window=60, check_tokens=False
    )


def _mann_kendall_1h(sf_dir: str):
    """Per-source Mann–Kendall S statistic + Kendall tau over hourly token
    sums (integer-exact pairwise sign sum; theilsen_trend's significance
    companion) — pipelines/window.mann_kendall."""
    from datafiller_ray.pipelines.window import mann_kendall

    return mann_kendall(_fixture(sf_dir), step=3600)


def _hampel_fill_1m(sf_dir: str):
    """Hampel filter (centered rolling median +- 3 * 1.4826 * rolling MAD,
    half-width 5, truncated edges) over observed 1m token sums; outliers
    replaced by their window median — pipelines/window.hampel_fill."""
    from datafiller_ray.pipelines.window import hampel_fill

    return hampel_fill(_fixture(sf_dir), half=5, nsig=3.0)


def _sample_entropy(sf_dir: str):
    """Per-source sample entropy (Richman-Moorman SampEn, m=2,
    r=0.2*pop-std) over 10-minute token sums —
    pipelines/window.sample_entropy; vendored oracle fills.sampen_counts
    (independent full-matrix replica of the match counting)."""
    from datafiller_ray.pipelines.window import sample_entropy

    return sample_entropy(_fixture(sf_dir), step=600, m=2, r_mult=0.2)


def _ann_pq_topk(sf_dir: str):
    """Product-quantization approximate top-k (codebooks trained on the
    bounded hash sample, corpus encoded + LUT-scored distributed) —
    pipelines/ann.pq_topk; vendored independent NumPy oracle."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.ann import pq_topk

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    order = pc.sort_indices(qt["vec_id"])[: _ANN_NQ]
    head = qt.take(order)
    qids = np.asarray(head["vec_id"])
    qmat = np.stack(head["embedding"].to_pylist()).astype(np.float64)
    ds = pq_topk(_read(sf_dir, "embeddings"), qids, qmat, k=_ANN_K)
    return ds.select_columns(["query_id", "rank", "vec_id"])


def _lang_source_contingency(sf_dir: str):
    """Chi-square contingency census of source x lang (observed /
    independence-expected / standardized Pearson residual per cell,
    zero cells included) — pipelines/corpus.lang_source_contingency;
    SQL oracle is the DuckDB margins-cross-join query with the same
    pinned float expressions."""
    from datafiller_ray.pipelines.corpus import lang_source_contingency

    return lang_source_contingency(_read(sf_dir, "documents"))


def _vopt_histogram(sf_dir: str):
    """Per-source V-optimal K=4 histogram of hourly token sums
    (exact-Fraction minimum-SSE DP) — pipelines/window.vopt_histogram;
    vendored independent full-table DP oracle (fills.vopt_breaks)."""
    from datafiller_ray.pipelines.window import vopt_histogram

    return vopt_histogram(_fixture(sf_dir), step=3600, n_buckets=4)


def _spearman_1h(sf_dir: str):
    """Spearman rank correlation of hourly token sums vs the broadcast
    reference sources (exact doubled tie-averaged ranks, pinned
    Pearson-on-ranks float) — pipelines/correlate.spearman_correlation;
    vendored pandas-rank oracle."""
    from datafiller_ray.pipelines.correlate import spearman_correlation

    return spearman_correlation(
        _fixture(sf_dir), ref_sources=_CORR_REFS, step=3600, min_common=8,
        check_tokens=False,
    )


def _engle_granger(sf_dir: str):
    """Engle-Granger cointegration screen of every source's hourly token
    sums against the broadcast reference sources (exact-integer
    residual numerators, drift-free DF(0) pinned float ending) —
    pipelines/correlate.engle_granger; vendored independent
    Fraction-residual oracle (fills.engle_granger_pair)."""
    from datafiller_ray.pipelines.correlate import engle_granger

    return engle_granger(
        _fixture(sf_dir), ref_sources=_CORR_REFS, step=3600, min_common=8,
        check_tokens=False,
    )


def _knn_outlier(sf_dir: str):
    """k-th-NN cosine novelty score per embedding (k=5) —
    pipelines/ann.knn_outlier; vendored independent NumPy oracle."""
    from datafiller_ray.pipelines.ann import knn_outlier

    return knn_outlier(_read(sf_dir, "embeddings"), k=5)


def _wasserstein_drift(sf_dir: str):
    """Per-source exact 1-D Wasserstein-1 distance vs the pooled corpus
    n_chars distribution — pipelines/corpus.wasserstein_drift; SQL oracle
    is the DuckDB HUGEINT cross-numerator CDF-area query."""
    from datafiller_ray.pipelines.corpus import wasserstein_drift

    return wasserstein_drift(_read(sf_dir, "documents"))


def _mutual_knn(sf_dir: str):
    """Mutual cosine-kNN graph (k=5) over the embeddings corpus —
    pipelines/ann.mutual_knn; vendored independent NumPy oracle
    (_build_mutual_knn_oracle, full-matrix replica)."""
    from datafiller_ray.pipelines.ann import mutual_knn

    return mutual_knn(_read(sf_dir, "embeddings"), k=5).select_columns(
        ["vec_a", "vec_b", "sim", "rank_ab", "rank_ba"]
    )


def _logistic_quality(sf_dir: str):
    """Distributed IRLS logistic quality classifier (4 Newton passes of
    fixed-point int64 Gram/gradient partials + bounded exchange, then one
    scoring pass) — pipelines/text.logistic_quality; vendored independent
    NumPy oracle (_build_logit_oracle: re-derived features, whole-matrix
    IRLS replica — identical by the commutative-integer-sum argument)."""
    from datafiller_ray.pipelines.text import logistic_quality

    return logistic_quality(_read(sf_dir, "documents"))


def _mmr_rerank(sf_dir: str):
    """MMR diversified top-k retrieval (lam=0.7, 50 candidates) —
    pipelines/ann.mmr_rerank; vendored independent NumPy oracle
    (_build_mmr_oracle replays the greedy with its own structure)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.ann import mmr_rerank

    qt = pq.read_table(f"{sf_dir}/embeddings.parquet")
    order = pc.sort_indices(qt["vec_id"])[: _ANN_NQ]
    head = qt.take(order)
    qids = np.asarray(head["vec_id"])
    qmat = np.stack(head["embedding"].to_pylist()).astype(np.float64)
    return mmr_rerank(
        _read(sf_dir, "embeddings"), qids, qmat, k=_ANN_K, n_cand=50, lam=0.7
    )


def _pelt_changepoints(sf_dir: str):
    """Per-source optimal level-shift changepoints by exact-Fraction PELT
    over 10-minute token sums (beta = 2x population variance, min_size 2)
    — pipelines/window.pelt_changepoints; vendored oracle
    fills.pelt_points (independent replica of the pruned DP)."""
    from datafiller_ray.pipelines.window import pelt_changepoints

    return pelt_changepoints(_fixture(sf_dir), step=600, pen_mult=2, min_size=2)


def _control_rules_1m(sf_dir: str):
    """Western Electric control-chart rules (r1 3-sigma point, r2 2-of-3
    beyond 2 sigma, r3 4-of-5 beyond 1 sigma, r4 8 consecutive same side)
    per source over observed 1m token sums, standardized against the
    source's exact-integer moments — pipelines/window.control_rules."""
    from datafiller_ray.pipelines.window import control_rules

    return control_rules(_fixture(sf_dir), min_points=8)


def _idle_rich_customers(sf_dir: str):
    """TPC-H Q22-shaped global-sales-opportunity census (ref workload
    family: tests/test_timing.py-style tabular analytics): customers whose
    account balance beats the global mean of POSITIVE balances (strict,
    integer-cents exact: ``cents > s_pos // n_pos`` — for integer cents
    this single floor-division compare is equivalent to the real-valued
    ``cents > s_pos/n_pos`` in both the divisible and non-divisible case,
    so no overflow-prone cross-multiply) and who placed no RECENT order
    (none on/after 2001-01-01 — SQL NOT EXISTS via
    pipelines/joins.anti_join; the right side is pruned to the recent
    window BEFORE its distinct-key projection, so only recent keys enter
    the exchange), counted and totalled per nation. The global cutoff
    comes from exact per-batch integer partials (two ints reach the
    driver, never the table); the final census is one bounded grouped_sum
    exchange."""
    import numpy as np
    import pandas as pd
    import pyarrow.compute as pc

    from datafiller_ray.pipelines.joins import anti_join
    from datafiller_ray.stages.exchange import grouped_sum

    cust = _read(sf_dir, "customer")
    import datetime as _dt

    cutoff_ts = _dt.datetime.fromisoformat(_IDLE_CUTOFF)
    recent = _read(sf_dir, "orders").map_batches(
        lambda t: t.filter(
            pc.greater_equal(t["o_orderdate"], cutoff_ts)
        ).select(["o_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def pos_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["c_acctbal"].to_numpy(np.float64) * 100).astype(
            np.int64
        )
        pos = cents[cents > 0]
        return pd.DataFrame({"n": [int(pos.size)], "s": [int(pos.sum())]})

    parts = cust.map_batches(pos_partial, batch_format="pandas").to_pandas()
    n_pos = int(parts["n"].sum())
    s_pos = int(parts["s"].sum())
    cut = s_pos // n_pos if n_pos else np.iinfo(np.int64).max

    def rich(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(df["c_acctbal"].to_numpy(np.float64) * 100).astype(
            np.int64
        )
        keep = cents > cut
        out = df.loc[keep, ["c_custkey", "c_nationkey"]].copy()
        out["c_nationkey"] = out["c_nationkey"].astype(np.int64)
        out["numcust"] = np.int64(1)
        out["totbal_cents"] = cents[keep]
        return out

    idle = anti_join(
        cust.map_batches(rich, batch_format="pandas"),
        recent,
        key="c_custkey",
        left_payload=["c_nationkey", "numcust", "totbal_cents"],
        right_key="o_custkey",
    )
    return grouped_sum(
        idle, keys="c_nationkey", values=["numcust", "totbal_cents"]
    ).sort("c_nationkey")


def queries() -> dict[str, Callable[[str], Any]]:
    # eagerly materialise the oracle-scale fixture so oracle_sql()'s
    # read_parquet path exists no matter which side the driver runs first
    from datafiller_ray.fixtures import ensure_fixture

    ensure_fixture(SF_FOR_ORACLE)

    return {
        "rollup_1m": lambda d: _tier_rollup(d, "1m"),
        "rollup_1h": lambda d: _tier_rollup(d, "1h"),
        "rollup_1d": lambda d: _tier_rollup(d, "1d"),
        "retention_1h": lambda d: _tier_rollup(d, "1h", min_bucket=_RETENTION_CUTOFF),
        "gapfill_locf_1m": lambda d: _tier_gapfill(d, "locf", rounding="halfup"),
        "gapfill_seasonal_1m": lambda d: _tier_gapfill(
            d, "seasonal", rounding="halfup"
        ),
        "gapfill_nearest_1m": lambda d: _tier_gapfill(
            d, "nearest", max_gap=30, rounding="halfup"
        ),
        "gapfill_bfill_1m": lambda d: _tier_gapfill(
            d, "bfill", max_gap=30, rounding="halfup"
        ),
        "gapfill_linear_1m": lambda d: _tier_gapfill(d, "linear", rounding="halfup"),
        "gapfill_linear_bounded_1m": lambda d: _tier_gapfill(
            d, "linear", max_gap=30, rounding="halfup"
        ),
        "gapfill_linear_salted_1m": lambda d: _tier_gapfill(
            d, "linear", max_gap=30, mode="salted", rounding="halfup"
        ),
        "rollup_1m_bucketed": _rollup_bucketed,
        "rollup_inferred_step": _rollup_inferred,
        # iterative-solver fills: oracled by the vendored independent NumPy
        # oracle (tests/oracle/fills.py) served to DuckDB via read_parquet
        "gapfill_model_1m": lambda d: _tier_gapfill(d, "model", rounding="halfup"),
        "gapfill_spline_1m": lambda d: _tier_gapfill(
            d, "spline", max_gap=30, rounding="halfup"
        ),
        "knn_fill_1m": _knn_fill,
        "token_stats": _token_stats,
        "dedup_exact": _dedup_exact,
        "text_stats": _text_stats,
        "quality_filter": _quality_filter,
        "corpus_prepare": _corpus_prepare,
        "lang_id": _lang_id,
        # categorical fill (classifier) is non-SQL-expressible: rows-only
        "lang_fill": _lang_fill,
        "simhash": _simhash,
        "doc_fingerprint": _fingerprint,
        "minhash_near_dup": _minhash,
        "near_dup_jaccard": _near_dup_jaccard,
        "near_dup_clusters": _near_dup_clusters,
        "dedup_near_keep_best": _dedup_near_keep_best,
        "token_count_bpe": _token_counts,
        "tokenizer_fertility": _tokenizer_fertility,
        "embedding_near_dup": _embedding_near_dup,
        "embedding_near_dup_scale": _embedding_near_dup_scale,
        "mutual_knn_scale": _mutual_knn_scale,
        "knn_outlier_scale": _knn_outlier_scale,
        "embedding_near_dup_lsh": _embedding_near_dup_lsh,
        "ann_topk": _ann_topk,
        "ann_filtered_topk": _ann_filtered_topk,
        "events_rollup_1m": _events_rollup,
        "ppl_tercile": _ppl_tercile,
        "events_gapfill_locf_1m": _events_locf,
        "events_gapfill_linear_1m": _events_linear,
        "events_sessions": _events_sessions,
        "approx_distinct_docs": _approx_distinct_docs,
        "pack_sequences": _pack_sequences,
        "session_range_join": _session_range_join,
        "sample_stratified": _sample_stratified,
        "rolling_window_1m": _rolling_window,
        "returned_revenue_topk": _returned_revenue_topk,
        "dedup_sequences": _dedup_sequences,
        "vocab_topk": _vocab_topk,
        "bm25_topk": _bm25_topk,
        "hybrid_search_rrf": _hybrid_search_rrf,
        "text_index_and": _text_index_and,
        "text_index_topk": _text_index_topk,
        "length_ntile": _length_ntile,
        "source_ks": _source_ks,
        "equidepth_histogram": _equidepth_histogram,
        "daily_active_users": _daily_active_users,
        "rolling_active_users": _rolling_active_users,
        "source_quantiles": _source_quantiles,
        "global_quantiles": _global_quantiles,
        "sample_fixed_k": _sample_fixed_k,
        "topk_buckets": _topk_buckets,
        "rolling_anomaly": _rolling_anomaly,
        "bucket_deltas": _bucket_deltas,
        "token_histogram": _token_histogram,
        "hourly_profile": _hourly_profile,
        "ewma_smooth_1m": _ewma_smooth,
        "holt_smooth_1m": _holt_smooth,
        "stl_decompose_1m": _stl_decompose,
        "m4_downsample": _m4_downsample,
        "dominant_period": _dominant_period,
        "oov_rate": _oov_rate,
        "doc_entropy": _doc_entropy,
        "interarrival_stats": _interarrival_stats,
        "user_top_event": _user_top_event,
        "transition_topk": _transition_topk,
        "events_cube": _events_cube,
        "user_lifetime": _user_lifetime,
        "temperature_sample": _temperature_sample,
        "embedding_pca": _embedding_pca,
        "kmeans_quality": _kmeans_quality,
        "label_centroid_similarity": _label_centroid_similarity,
        "embedding_clusters": _embedding_clusters,
        "semantic_dedup": _semantic_dedup,
        "rollup_5m": _rollup_5m,
        "staleness_report": _staleness_report,
        "source_gini": _source_gini,
        "zipf_fit": _zipf_fit,
        "anomaly_intervals": _anomaly_intervals,
        "source_similarity": _source_similarity,
        "token_kl_drift": _token_kl_drift,
        "hourly_quota": _hourly_quota,
        "cusum_changepoints": _cusum_changepoints,
        "source_correlation": _source_correlation,
        "bigram_topk": _bigram_topk,
        "pmi_topk": _pmi_topk,
        "events_skew_report": _events_skew_report,
        "cms_heavy_hitters": _cms_heavy_hitters,
        "shuffle_manifest": _shuffle_manifest,
        "lttb_downsample": _lttb_downsample,
        "seasonal_anomaly": _seasonal_anomaly,
        "time_weighted_avg_1h": _time_weighted_avg,
        "approx_distinct_global": _approx_distinct_global,
        "bloom_new_docs": _bloom_new_docs,
        "events_rolling_1m": _events_rolling,
        "purchase_attribution": _purchase_attribution,
        "pack_tokens": _pack_tokens,
        "ann_lsh_topk": _ann_lsh,
        "ann_ivf_topk": _ann_ivf,
        "ann_ivf_indexed": _ann_ivf_indexed,
        "lineitem_daily": _lineitem_daily,
        "priority_demand": _priority_demand,
        "orders_by_nation": _orders_by_nation,
        "funnel_analysis": _funnel_analysis,
        "cohort_retention": _cohort_retention,
        "gap_stats": _gap_stats,
        "completeness_report": _completeness_report,
        "psi_drift": _psi_drift,
        "decontaminate": _decontaminate,
        "doc_repetition": _doc_repetition,
        "unigram_logprob": _unigram_logprob,
        "tfidf_topterms": _tfidf_topterms,
        "pii_scrub": _pii_scrub,
        "substring_dup": _substring_dup,
        "token_moments": _token_moments,
        "approx_quantiles": _approx_quantiles,
        "acf_1m": _acf,
        "mad_outliers": _mad_outliers,
        "seasonal_naive_mase": _seasonal_naive_mase,
        "ohlc_1h": _ohlc_1h,
        "coverage_islands": _coverage_islands,
        "snapshot_diff": _snapshot_diff,
        "source_top_docs": _source_top_docs,
        "upsert_maintain_1m": _upsert_maintain_1m,
        "vocab_growth": _vocab_growth,
        "value_runs": _value_runs,
        "topk_movers_1h": _topk_movers_1h,
        "session_stats": _session_stats,
        "rank_shift": _rank_shift,
        "cross_section_1h": _cross_section_1h,
        "dow_hour_profile": _dow_hour_profile,
        "events_dedupe_window": _events_dedupe_window,
        "rolling_median_1m": _rolling_median,
        "source_trend": _source_trend,
        "adf_stat": _adf_stat,
        "haar_energy": _haar_energy,
        "lomb_scargle": _lomb_scargle,
        "spectral_entropy": _spectral_entropy,
        "hill_tail": _hill_tail,
        "theta_forecast": _theta_forecast,
        "matrix_profile": _matrix_profile,
        "bigram_logprob": _bigram_logprob,
        "kn_bigram_logprob": _kn_bigram_logprob,
        "events_rollup_week": _events_rollup_week,
        "chao1_richness": _chao1_richness,
        "gt_coverage": _gt_coverage,
        "doc_lexical_stats": _doc_lexical_stats,
        "heaps_fit": _heaps_fit,
        "entropy_rate": _entropy_rate,
        "yule_k": _yule_k,
        "token_burstiness": _token_burstiness,
        "dsir_weights": _dsir_weights,
        "source_ngram_overlap": _source_ngram_overlap,
        "page_hinkley_1m": _page_hinkley,
        "runs_test": _runs_test,
        "turning_points": _turning_points,
        "cox_stuart": _cox_stuart,
        "customers_with_orders": _customers_with_orders,
        "customers_no_events": _customers_no_events,
        "supplier_demand_salted": _supplier_demand_salted,
        "activity_order_full": _activity_order_full,
        "dedup_normalized": _dedup_normalized,
        "token_diversity": _token_diversity,
        "winsorize_1m": _winsorize,
        "ntile_volume_1m": _ntile_volume,
        "split_assign": _split_assign,
        "chunk_sequences": _chunk_sequences,
        "running_records": _running_records,
        "burstiness": _burstiness,
        "user_entropy": _user_entropy,
        "weighted_quantiles": _weighted_quantiles,
        "length_percentile": _length_percentile,
        "vocab_overlap": _vocab_overlap,
        "streaks": _streaks,
        "theilsen_trend_1h": _theilsen_trend_1h,
        "first_digit_profile": _first_digit_profile,
        "mann_kendall_1h": _mann_kendall_1h,
        "revenue_by_region": _revenue_by_region,
        "idle_rich_customers": _idle_rich_customers,
        "control_rules_1m": _control_rules_1m,
        "hampel_fill_1m": _hampel_fill_1m,
        "pelt_changepoints": _pelt_changepoints,
        "ann_pq_topk": _ann_pq_topk,
        "sample_entropy": _sample_entropy,
        "mmr_rerank": _mmr_rerank,
        "logistic_quality": _logistic_quality,
        "mutual_knn": _mutual_knn,
        "wasserstein_drift": _wasserstein_drift,
        "knn_outlier": _knn_outlier,
        "engle_granger": _engle_granger,
        "spearman_1h": _spearman_1h,
        "vopt_histogram": _vopt_histogram,
        "lang_source_contingency": _lang_source_contingency,
        "lead_lag_xcorr": _lead_lag_xcorr,
        "holt_winters_1m": _holt_winters_1m,
        "holt_damped_1m": _holt_damped_1m,
        "granger_1h": _granger_1h,
        "token_pagerank": _token_pagerank,
        "gopher_rules": _gopher_rules,
        "zorder_layout": _zorder_layout,
        "cdc_merge": _cdc_merge,
        "survival_km": _survival_km,
        "shipping_priority": _shipping_priority,
        "late_order_census": _late_order_census,
        "small_qty_revenue": _small_qty_revenue,
        "large_volume_orders": _large_volume_orders,
        "trimmed_mean_1m": _trimmed_mean,
        "source_share_1d": _source_share_1d,
        "top_unshipped_orders": _top_unshipped_orders,
        "seasonality_strength": _seasonality_strength,
        "max_drawdown": _max_drawdown,
        "ar2_fit": _ar2_fit,
        "permutation_entropy": _permutation_entropy,
        "variance_ratio": _variance_ratio,
        "top_customer_by_nation": _top_customer_by_nation,
        "busiest_burst": _busiest_burst,
        "readability": _readability,
        "harmonic_24h": _harmonic_24h,
        "sax_motifs": _sax_motifs,
        "source_profile": _source_profile,
        "rolling_corr_1m": _rolling_corr_1m,
        "ljung_box": _ljung_box,
        "pacf_1m": _pacf,
        "scaling_exponent": _scaling_exponent,
        "kalman_fill_1m": _kalman_fill_1m,
        "isotonic_fit_1h": _isotonic_fit_1h,
        "binseg_changepoints": _binseg_changepoints,
        "dtw_distance": _dtw_distance,
        "forecast_interval_1m": _forecast_interval_1m,
        "croston_forecast": _croston_forecast,
        "quality_checks": _quality_checks,
        "centroid_silhouette": _centroid_silhouette,
        "order_priority_census": _order_priority_census,
        "budget_sample": _budget_sample,
        "small_quantity_revenue": _small_quantity_revenue,
        "large_orders": _large_orders,
        "nation_trade_volume": _nation_trade_volume,
        "market_share": _market_share,
        "profit_by_nation_year": _profit_by_nation_year,
        "ship_delay_census": _ship_delay_census,
        "top_supplier_revenue": _top_supplier_revenue,
        "brand_supplier_census": _brand_supplier_census,
        "late_only_suppliers": _late_only_suppliers,
        "min_unit_price_supplier": _min_unit_price_supplier,
        "pricing_summary": _pricing_summary,
        "revenue_delta": _revenue_delta,
        "order_count_distribution": _order_count_distribution,
        "promo_revenue_share": _promo_revenue_share,
        "disjunctive_revenue": _disjunctive_revenue,
        "idle_capital_by_nation": _idle_capital_by_nation,
        "important_parts_by_value": _important_parts_by_value,
        "rfm_segments": _rfm_segments,
        "dominant_part_suppliers": _dominant_part_suppliers,
    }


def _approx_quantiles_sql() -> str:
    """Bottom-k splitmix sample per source (the _sample_fixed_k_sql rule,
    same seed/k) feeding the quantile_cont interpolation of
    source_quantiles — mirrors corpus.approx_quantiles exactly."""
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64

    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    ctes, fin = _sql_splitmix_ctes(
        "d", ["doc_id", "source", "n_chars"],
        f"xor(CAST(doc_id AS UBIGINT), {seed_mix})", "aq",
    )
    qcols = ",\n              ".join(
        f"floor(quantile_cont(CAST(n_chars AS DOUBLE), {q})*1000000 + 0.5)"
        f"/1000000 AS q{str(q).replace('.', '_')}"
        for q in (0.25, 0.5, 0.75, 0.9, 0.99)
    )
    return f"""
        WITH d AS (SELECT doc_id, source, n_chars FROM documents),
        {ctes},
        samp AS (
          SELECT source, n_chars FROM (
            SELECT source, n_chars,
                   row_number() OVER (PARTITION BY source
                                      ORDER BY v, doc_id) AS rn
            FROM {fin}) WHERE rn <= {_SAMPLE_K})
        SELECT source,
              {qcols}
        FROM samp GROUP BY source
    """


def _acf_sql(rollup_60: str, lags=(1, 2, 3)) -> str:
    """Exact five-moment ACF per lag: LAG() pairs -> HUGEINT sums ->
    the engine's pinned num / sqrt(d1 * d2) expression."""
    parts = [
        f"""
        SELECT source, CAST({lag} AS BIGINT) AS lag, COUNT(*)::HUGEINT AS n,
               SUM(CAST(x AS HUGEINT)) AS sx, SUM(CAST(y AS HUGEINT)) AS sy,
               SUM(CAST(x AS HUGEINT)*y) AS sxy,
               SUM(CAST(x AS HUGEINT)*x) AS sxx,
               SUM(CAST(y AS HUGEINT)*y) AS syy
        FROM (
          SELECT source, sum_tok AS y,
                 LAG(sum_tok, {lag}) OVER (
                     PARTITION BY source ORDER BY bucket_ts) AS x
          FROM r) WHERE x IS NOT NULL GROUP BY 1"""
        for lag in lags
    ]
    return f"""
        WITH r AS ({rollup_60}),
        m AS ({" UNION ALL ".join(parts)}),
        c AS (
          SELECT source, lag, CAST(n AS BIGINT) AS n_pairs,
                 n*sxy - sx*sy AS num, n*sxx - sx*sx AS d1,
                 n*syy - sy*sy AS d2
          FROM m)
        SELECT source, lag, n_pairs,
               FLOOR((CAST(num AS DOUBLE)
                      / SQRT(CAST(d1 AS DOUBLE) * CAST(d2 AS DOUBLE)))
                     * 1000000 + 0.5) / 1000000.0 AS acf
        FROM c WHERE n_pairs >= 3 AND d1 > 0 AND d2 > 0
    """


def _dominant_period_sql(rollup_60: str, max_lag: int = 24) -> str:
    """ACF table at lags 2..max_lag (the _acf_sql five-moment expression,
    same n_pairs >= 3 / positive-variance filters), then the rounded-value
    argmax pick: ROW_NUMBER OVER (acf DESC, lag ASC) = 1 per source."""
    inner = _acf_sql(rollup_60, lags=tuple(range(2, max_lag + 1)))
    return f"""
        SELECT source, lag AS best_lag, n_pairs, acf FROM (
          SELECT *, ROW_NUMBER() OVER (
              PARTITION BY source ORDER BY acf DESC, lag ASC) AS rn
          FROM ({inner})) WHERE rn = 1
    """


def _hourly_quota_sql() -> str:
    """string_hash64(doc_id) (FNV-1a + splitmix, the simhash-oracle
    derivation) xor the seed mix, splitmix again — then the windowed
    running-sum prefix within each (source, hour) budget, exactly
    corpus.hourly_quota's kept set (ORDER BY v, doc_id on UBIGINT v
    matches the engine's uint64 lexsort)."""
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64

    p = _fixture_sql_path()
    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    cols = ["doc_id", "source", "n_tok", "hour_ts"]
    fnv = (
        f"list_reduce(list_prepend({0xCBF29CE484222325}::UBIGINT, "
        f"list_transform(string_split(doc_id, ''), c -> unicode(c)::UBIGINT)), "
        f"(a, b) -> {_sql_mulmod('xor(a, b)', 0x100000001B3)})"
    )
    sm1, fin1 = _sql_splitmix_ctes("d0", cols, fnv, "qh")
    sm2, fin2 = _sql_splitmix_ctes(fin1, cols, f"xor(v, {seed_mix})", "qv")
    return f"""
        WITH d0 AS (
          SELECT doc_id, source, CAST(n_tok AS BIGINT) AS n_tok,
                 (CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                  * 60 // 3600) * 3600 AS hour_ts
          FROM read_parquet('{p}/*.parquet')),
        {sm1},
        {sm2}
        SELECT doc_id, source, n_tok, hour_ts FROM (
          SELECT doc_id, source, n_tok, hour_ts,
                 SUM(n_tok) OVER (
                     PARTITION BY source, hour_ts ORDER BY v, doc_id
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS run
          FROM {fin2})
        WHERE run <= {_QUOTA_BUDGET}
    """


def _split_assign_sql() -> str:
    """Splitmix CTE chain + CASE over the same cumulative uint64 cut
    literals split_assign embeds (split_thresholds convention)."""
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64
    from datafiller_ray.pipelines.corpus import split_thresholds

    cuts = split_thresholds((0.9, 0.05, 0.05))
    seed_mix = int(splitmix64(np.array([_SAMPLE_SEED], dtype=np.uint64))[0])
    ctes, fin = _sql_splitmix_ctes(
        "d", ["doc_id", "source"],
        f"xor(CAST(doc_id AS UBIGINT), {seed_mix})", "sp",
    )
    return f"""
        WITH d AS (SELECT doc_id, source FROM documents),
        {ctes}
        SELECT doc_id, source,
               CASE WHEN v < {cuts[0]}::UBIGINT THEN 'train'
                    WHEN v < {cuts[1]}::UBIGINT THEN 'val'
                    ELSE 'test' END AS split
        FROM {fin}
    """


def _fixture_sql_path() -> str:
    from datafiller_ray.fixtures import fixture_path

    return fixture_path(SF_FOR_ORACLE)


# -- splitmix64 / FNV-1a in SQL (oracles for the hash-based text sketches) --
# DuckDB integer ops error on overflow instead of wrapping, so 64-bit wrap
# arithmetic runs in HUGEINT with explicit mod 2^64; multiplication splits
# the left operand at 32 bits to stay under HUGEINT's 2^127 ceiling.

_M64 = 18446744073709551616


def _sql_mulmod(a: str, c: int) -> str:
    return (
        f"CAST(((({a}) % 4294967296)::HUGEINT * {c} + "
        f"((((({a}) // 4294967296)::HUGEINT * {c}) % 4294967296) * 4294967296)) "
        f"% {_M64} AS UBIGINT)"
    )


def _sql_addmod(a: str, c: int) -> str:
    return f"CAST((({a})::HUGEINT + {c}) % {_M64} AS UBIGINT)"


def _sql_splitmix_ctes(src_cte: str, key_cols: list[str], val: str, prefix: str):
    """CTE chain computing splitmix64 (functions/hashing.py constants) of
    expression ``val`` — one CTE per mix step so no expression blowup.
    Returns (sql_fragment, final_cte_name); the value column is ``v``."""
    k = ", ".join(key_cols)
    steps = [
        _sql_addmod("v", 0x9E3779B97F4A7C15),
        "xor(v, v >> 30)",
        _sql_mulmod("v", 0xBF58476D1CE4E5B9),
        "xor(v, v >> 27)",
        _sql_mulmod("v", 0x94D049BB133111EB),
        "xor(v, v >> 31)",
    ]
    frags = [f"{prefix}0 AS (SELECT {k}, {val} AS v FROM {src_cte})"]
    for i, s in enumerate(steps):
        frags.append(f"{prefix}{i + 1} AS (SELECT {k}, {s} AS v FROM {prefix}{i})")
    return ",\n        ".join(frags), f"{prefix}{len(steps)}"


def _simhash_sql() -> str:
    """64-bit SimHash over word unigrams, exactly the engine's definition
    (pipelines/text.py SimHash: \\w+ words of lower(text), string_hash64 =
    FNV-1a over code points + splitmix64, majority bit vote). Documents are
    ASCII, so RE2's \\w and codepoints==bytes coincide with the engine."""
    fnv = (
        f"list_reduce(list_prepend({0xCBF29CE484222325}::UBIGINT, "
        f"list_transform(string_split(word, ''), c -> unicode(c)::UBIGINT)), "
        f"(a, b) -> {_sql_mulmod('xor(a, b)', 0x100000001B3)})"
    )
    sm, final = _sql_splitmix_ctes("w", ["doc_id"], fnv, "h")
    bit_sums = ",\n".join(
        f"               SUM(CAST((v >> {b}) & 1 AS HUGEINT)) AS b{b}"
        for b in range(64)
    )
    packed_terms = " + ".join(
        f"(CASE WHEN 2*b{b} > n THEN {1 << b}::HUGEINT ELSE 0::HUGEINT END)"
        for b in range(64)
    )
    return f"""
        WITH w AS (
          SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w+')) AS word
          FROM documents),
        {sm},
        bits AS (
          SELECT doc_id, COUNT(*) AS n,
{bit_sums}
          FROM {final} GROUP BY doc_id),
        packed AS (
          SELECT doc_id, ({packed_terms}) AS u FROM bits)
        SELECT d.doc_id,
               CAST(COALESCE(
                 CASE WHEN p.u >= 9223372036854775808 THEN p.u - {_M64} ELSE p.u END,
                 0) AS BIGINT) AS simhash
        FROM documents d LEFT JOIN packed p USING (doc_id)
    """


def _fingerprint_sql() -> str:
    """Rolling-hash fingerprint, exactly the engine's definition
    (pipelines/text.py Fingerprint): 16-byte windows, polynomial base
    1000003 mod 2^64, splitmix64, min; docs shorter than the window take the
    wrapped sum of per-byte splitmix64. ASCII corpus: codepoints==bytes."""
    powers = [pow(1000003, k, _M64) for k in range(16)]
    terms = " + ".join(f"cps[i+{j}]::HUGEINT * {powers[15 - j]}" for j in range(16))
    sm_l, fin_l = _sql_splitmix_ctes("ph", ["doc_id"], "v", "sl")
    sm_s, fin_s = _sql_splitmix_ctes("sb", ["doc_id"], "b", "ss")
    return f"""
        WITH c AS (
          SELECT doc_id,
                 list_transform(string_split(text, ''), ch -> unicode(ch)::UBIGINT) AS cps
          FROM documents),
        longdoc AS (SELECT doc_id, cps FROM c WHERE len(cps) >= 16),
        w AS (SELECT doc_id, cps, unnest(range(1, len(cps) - 14)) AS i FROM longdoc),
        ph AS (SELECT doc_id, CAST(({terms}) % {_M64} AS UBIGINT) AS v FROM w),
        {sm_l},
        fpl AS (SELECT doc_id, MIN(v) & 9223372036854775807 AS fp
                FROM {fin_l} GROUP BY doc_id),
        sb AS (SELECT doc_id, unnest(cps) AS b FROM c
               WHERE len(cps) BETWEEN 1 AND 15),
        {sm_s},
        fps AS (SELECT doc_id,
                       CAST(SUM(v::HUGEINT) % {_M64} AS UBIGINT)
                       & 9223372036854775807 AS fp
                FROM {fin_s} GROUP BY doc_id)
        SELECT d.doc_id, CAST(COALESCE(l.fp, s.fp, 0) AS BIGINT) AS fingerprint
        FROM documents d
        LEFT JOIN fpl l USING (doc_id)
        LEFT JOIN fps s USING (doc_id)
    """


def _minhash_sql() -> str:
    """MinHash-LSH candidate edges, exactly the engine's pipeline
    (pipelines/text.py MinHasher: 5-byte shingles of lower(text) with poly
    base 257, splitmix64, 128 universal-hash mins with the seed-1234
    constants embedded as literals, 16 bands of 8 rows hashed with base 31,
    bucket-min edges, global dedup). ASCII corpus: codepoints==bytes."""
    rng = np.random.default_rng(1234)
    a = (rng.integers(1, 2**61 - 1, 128, dtype=np.uint64) | np.uint64(1)).tolist()
    b = rng.integers(0, 2**61 - 1, 128, dtype=np.uint64).tolist()
    p = [pow(257, k, _M64) for k in range(5)]
    terms = " + ".join(f"cps[i+{j}]::HUGEINT * {p[j]}" for j in range(5))
    sm, fin = _sql_splitmix_ctes("ph", ["doc_id"], "v", "sh")
    min_cols = ",\n".join(
        f"            MIN({_sql_addmod(_sql_mulmod('v', a[k]), b[k])}) AS m{k}"
        for k in range(128)
    )
    band_rows = " UNION ALL ".join(
        f"SELECT doc_id, {k} AS band, CAST(("
        + " + ".join(f"m{8 * k + j}::HUGEINT * {31 ** j}" for j in range(8))
        + f") % {_M64} AS UBIGINT) AS b FROM mins"
        for k in range(16)
    )
    smb, finb = _sql_splitmix_ctes("bandsums", ["doc_id", "band"], "b", "bh")
    return f"""
        WITH c AS (
          SELECT doc_id,
                 list_transform(string_split(lower(text), ''), ch -> unicode(ch)::UBIGINT) AS cps
          FROM documents),
        longdoc AS (SELECT doc_id, cps FROM c WHERE len(cps) >= 5),
        w AS (SELECT doc_id, cps, unnest(range(1, len(cps) - 3)) AS i FROM longdoc),
        ph AS (SELECT doc_id, CAST(({terms}) % {_M64} AS UBIGINT) AS v FROM w),
        {sm},
        mins AS (
          SELECT doc_id,
{min_cols}
          FROM {fin} GROUP BY doc_id),
        bandsums AS ({band_rows}),
        {smb},
        buckets AS (SELECT band, v AS band_hash, doc_id FROM {finb}),
        edges AS (
          SELECT DISTINCT
                 MIN(doc_id) OVER (PARTITION BY band, band_hash) AS doc_a,
                 doc_id AS doc_b
          FROM buckets)
        SELECT DISTINCT doc_a, doc_b FROM edges WHERE doc_a < doc_b
    """


def _corpus_prepare_sql() -> str:
    """Composition of the quality_filter predicate, the lang_id CTE, and
    the exact-dedup window rule — dedup runs among quality+lang survivors
    only, exactly like the staged pipeline."""
    lang = _lang_id_sql()
    return rf"""
        WITH q AS (
          SELECT doc_id, source, n_chars, text,
                 (len(regexp_extract_all(text, '\S+')) >= 5
                  AND round_even(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                        / GREATEST(length(text), 1)::DOUBLE, 6) >= 0.5
                  AND round_even(length(regexp_replace(text, '[^0-9]', '', 'g'))
                        / GREATEST(length(text), 1)::DOUBLE, 6) <= 0.3) AS pass_q
          FROM documents),
        lp AS ({lang}),
        tagged AS (
          SELECT q.*, lp.lang_pred IN ('en') AS lang_ok
          FROM q JOIN lp USING (doc_id)),
        surv AS (
          SELECT doc_id, source, n_chars,
                 CASE WHEN doc_id = MIN(doc_id) OVER (PARTITION BY text)
                      THEN 'kept' ELSE 'duplicate' END AS reason
          FROM tagged WHERE pass_q AND lang_ok)
        SELECT doc_id, source, n_chars, 'quality' AS reason
          FROM tagged WHERE NOT pass_q
        UNION ALL
        SELECT doc_id, source, n_chars, 'lang' AS reason
          FROM tagged WHERE pass_q AND NOT lang_ok
        UNION ALL
        SELECT doc_id, source, n_chars, reason FROM surv
    """


def _lang_id_sql() -> str:
    """Argmax of stopword hit counts over [a-zà-ÿ]+ words — same tables and
    tie rule ('und' on zero or tied max) as pipelines/text.py LangId."""
    from datafiller_ray.pipelines.text import _STOPWORDS

    langs = sorted(_STOPWORDS)
    counts = ",\n".join(
        "              len(list_filter(ws, x -> list_contains(["
        + ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[lang]))
        + f"], x))) AS {lang}"
        for lang in langs
    )
    win_cases = "\n".join(
        f"              WHEN {lang} > 0 AND "
        + " AND ".join(f"{lang} > {o}" for o in langs if o != lang)
        + f" THEN '{lang}'"
        for lang in langs
    )
    return f"""
        WITH w AS (
          SELECT doc_id, regexp_extract_all(lower(text), '[a-zà-ÿ]+') AS ws
          FROM documents),
        c AS (
          SELECT doc_id,
{counts}
          FROM w)
        SELECT doc_id,
               CASE
{win_cases}
               ELSE 'und' END AS lang_pred
        FROM c
    """


def _ann_lsh_sql() -> str:
    """Sign-bucket LSH top-k with the SAME deterministic hyperplanes as
    pipelines/ann.py (seed 7), embedded as SQL literals."""
    n_planes = 6
    rng = np.random.default_rng(7)
    planes = rng.standard_normal((64, n_planes))
    bucket_terms = " + ".join(
        f"(CASE WHEN list_inner_product(de, ["
        + ", ".join(repr(float(v)) for v in planes[:, j])
        + f"]) > 0 THEN {1 << j} ELSE 0 END)"
        for j in range(n_planes)
    )
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
        b AS (
          SELECT vec_id, de, {bucket_terms} AS bucket FROM e),
        q AS (
          SELECT vec_id AS query_id, de AS qe, bucket AS qbucket
          FROM b ORDER BY vec_id LIMIT {_ANN_NQ}),
        sims AS (
          SELECT q.query_id, b.vec_id,
                 round_even(list_cosine_similarity(q.qe, b.de), 6) AS sim
          FROM q JOIN b ON b.bucket = q.qbucket)
        SELECT query_id, rank, vec_id FROM (
          SELECT query_id, vec_id,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY sim DESC, vec_id) AS rank
          FROM sims)
        WHERE rank <= {_ANN_K}
    """


def _oracle_kmeans(M: np.ndarray, n_cells: int, n_iters: int, seed: int) -> np.ndarray:
    """Independent re-derivation of the deterministic Lloyd trainer (plain
    squared-difference distances instead of the engine's expanded norm
    formula); assignments are discrete, so both converge identically on
    non-degenerate data (verified by the hash compare itself)."""
    rng = np.random.default_rng(seed)
    C = M[np.sort(rng.choice(M.shape[0], size=n_cells, replace=False))].copy()
    for _ in range(n_iters):
        d = ((M[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(n_cells):
            if (assign == c).any():
                C[c] = M[assign == c].mean(axis=0)
    return C


def _oracle_splitmix64(x: np.ndarray) -> np.ndarray:
    """Independent splitmix64 finalizer (public-domain constants) for the
    IVF trainer's hash-sample rule."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _oracle_ivf_centroids(n_cells=16, n_iters=5, seed=7, n_train=1024):
    """Shared oracle-side quantizer derivation: read embeddings, take the
    engine's documented bounded hash sample (splitmix64(vec_id) % 2^16
    under the keep threshold, sorted by vec_id), run deterministic Lloyd.
    Returns (vids, M, C). One copy — _ann_ivf_sql, _embedding_clusters_sql
    and _kmeans_quality_sql previously each re-derived it, a drift risk."""
    import math

    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(_oracle_sf_dir(), "embeddings.parquet"))
    vids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    mod = 1 << 16
    thr = mod if vids.size <= n_train else max(1, math.ceil(n_train * mod / vids.size))
    keep = (_oracle_splitmix64(vids.view(np.uint64)) % np.uint64(mod)) < thr
    ksel = np.flatnonzero(keep)[np.argsort(vids[keep])]
    C = _oracle_kmeans(M[ksel], n_cells, n_iters, seed)
    return vids, M, C


def _centroid_lit(vec) -> str:
    return "[" + ", ".join(repr(float(v)) for v in vec) + "]"


def _centroid_assign_case(C, *, trailing_space: bool) -> str:
    """The literal-centroid nearest-cell CASE shared by every quantizer
    oracle (first-match tie rule = argmin-first, like _assign_cells)."""
    n_cells = C.shape[0]
    dists = [f"list_distance(de, {_centroid_lit(C[c])})" for c in range(n_cells)]
    least = "LEAST(" + ", ".join(dists) + ")"
    sep = " " if trailing_space else ""
    return (
        "CASE "
        + " ".join(
            f"WHEN {dists[c]} = {least} THEN {c}{sep}" for c in range(n_cells)
        )
        + ("END" if trailing_space else " END")
    )


def _ann_ivf_sql() -> str:
    """IVF top-k with the oracle's own k-means centroids (and per-query cell
    probes) embedded as SQL literals — the LSH-hyperplane precedent applied
    to a learned quantizer. The trainer consumes the engine's documented
    bounded hash sample (splitmix64(vec_id) % 2^16 under the keep threshold,
    sorted by vec_id), re-derived here independently."""
    n_probe = 4
    vids, M, C = _oracle_ivf_centroids()
    order = np.argsort(vids)
    qsel = order[:_ANN_NQ]
    qids = vids[qsel]
    Q = M[qsel]
    qd = ((Q[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    probes = np.argsort(qd, axis=1, kind="stable")[:, :n_probe]
    case = _centroid_assign_case(C, trailing_space=False)
    probe_rows = ", ".join(
        f"({int(q)}, {int(c)})" for qi, q in enumerate(qids) for c in probes[qi]
    )
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
        a AS (SELECT vec_id, de, {case} AS cell FROM e),
        probes(query_id, cell) AS (VALUES {probe_rows}),
        q AS (
          SELECT vec_id AS query_id, de AS qe FROM e
          ORDER BY vec_id LIMIT {_ANN_NQ}),
        sims AS (
          SELECT q.query_id, a.vec_id,
                 round_even(list_cosine_similarity(q.qe, a.de), 6) AS sim
          FROM q
          JOIN probes p ON p.query_id = q.query_id
          JOIN a ON a.cell = p.cell)
        SELECT query_id, rank, vec_id FROM (
          SELECT query_id, vec_id,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY sim DESC, vec_id) AS rank
          FROM sims)
        WHERE rank <= {_ANN_K}
    """


def _embedding_clusters_sql() -> str:
    """Cluster assignment for every vector with the oracle's own k-means
    centroids as SQL literals — the shared _oracle_ivf_centroids derivation
    (bounded hash sample -> deterministic Lloyd), assignment CASE only."""
    _, _, C = _oracle_ivf_centroids()
    case = _centroid_assign_case(C, trailing_space=True)
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings)
        SELECT vec_id, CAST({case} AS BIGINT) AS cell FROM e
    """


def _semantic_dedup_sql(tau: float = 0.35) -> str:
    """SemDeDup oracle: the shared literal-centroid assignment CASE, then
    an in-cell smaller-id self-join with the engine's pinned cosine chain
    ``<a,b> / (max(|a|,1e-300) * max(|b|,1e-300))`` floored onto the 1e-6
    grid before the integer threshold compare."""
    _, _, C = _oracle_ivf_centroids()
    case = _centroid_assign_case(C, trailing_space=True)
    tau_micro = int(round(tau * 1e6))
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
        a AS (SELECT vec_id, de, CAST({case} AS BIGINT) AS cell FROM e),
        n AS (SELECT vec_id, cell, de,
                GREATEST(sqrt(list_inner_product(de, de)), 1e-300) AS nrm
              FROM a),
        p AS (SELECT b.vec_id AS vec_id,
                MAX(CASE WHEN FLOOR(list_inner_product(x.de, b.de)
                                    / (x.nrm * b.nrm) * 1000000 + 0.5)
                         >= {tau_micro} THEN 1 ELSE 0 END) AS dup
              FROM n b JOIN n x ON x.cell = b.cell AND x.vec_id < b.vec_id
              GROUP BY 1)
        SELECT a.vec_id, a.cell,
               CAST(COALESCE(p.dup, 0) AS BIGINT) AS is_dup
        FROM a LEFT JOIN p ON p.vec_id = a.vec_id
    """


def _kmeans_quality_sql() -> str:
    """Per-cell inertia with the oracle's own k-means centroids as SQL
    literals: assignment CASE (the _embedding_clusters_sql derivation),
    then the engine's pinned squared-distance expression
    ``<x,x> - 2<x,c> + <c,c>`` floored onto the 1e-6 integer grid per
    vector so the per-cell sum is exact."""
    _, _, C = _oracle_ivf_centroids()
    n_cells = C.shape[0]
    cnorm = (C * C).sum(axis=1)
    case = _centroid_assign_case(C, trailing_space=True)
    case_ip = (
        "CASE cell "
        + " ".join(
            f"WHEN {c} THEN list_inner_product(de, {_centroid_lit(C[c])}) "
            for c in range(n_cells)
        )
        + "END"
    )
    case_cc = (
        "CASE cell "
        + " ".join(f"WHEN {c} THEN {repr(float(cnorm[c]))} " for c in range(n_cells))
        + "END"
    )
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
        a AS (SELECT vec_id, de, CAST({case} AS BIGINT) AS cell FROM e),
        s AS (SELECT cell,
                CAST(floor((list_inner_product(de, de)
                            - 2.0 * ({case_ip}) + ({case_cc})) * 1000000
                           + 0.5) AS BIGINT) AS usq
              FROM a)
        SELECT cell, count(*)::BIGINT AS n_vecs,
               CAST(SUM(usq) AS DOUBLE) / 1000000.0 AS inertia
        FROM s GROUP BY cell
    """


def _centroid_silhouette_sql() -> str:
    """Per-cell simplified silhouette with the oracle's own k-means
    centroids as SQL literals: per-cell pinned quadratic distances
    ``sqrt(greatest(<x,x> - 2<x,c> + <c,c>, 0))``, the two smallest via
    list_sort, s = (b - a)/b floored to 1e-6 micro-units per vector (the
    kmeans_quality grid), exact integer per-cell sums, one closing
    ``(sum/1e6)/n`` chain."""
    _, _, C = _oracle_ivf_centroids()
    n_cells = C.shape[0]
    cnorm = (C * C).sum(axis=1)
    case = _centroid_assign_case(C, trailing_space=True)
    dexprs = ", ".join(
        f"sqrt(greatest(list_inner_product(de, de)"
        f" - 2.0 * list_inner_product(de, {_centroid_lit(C[c])})"
        f" + {repr(float(cnorm[c]))}, 0.0))"
        for c in range(n_cells)
    )
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
        a AS (SELECT vec_id, de, CAST({case} AS BIGINT) AS cell FROM e),
        d AS (SELECT cell, list_sort([{dexprs}]) AS ds FROM a),
        s AS (SELECT cell,
                     CAST(floor((CASE WHEN ds[2] > 0.0
                                      THEN (ds[2] - ds[1]) / ds[2]
                                      ELSE 0.0 END) * 1000000 + 0.5)
                          AS BIGINT) AS us
              FROM d)
        SELECT cell, count(*)::BIGINT AS n_vecs,
               FLOOR((CAST(SUM(us) AS DOUBLE) / 1000000.0)
                     / CAST(count(*) AS DOUBLE) * 1000000 + 0.5)
                   / 1000000.0 AS mean_sil
        FROM s GROUP BY cell
    """


def _near_dup_jaccard_sql() -> str:
    """Exact char-5-gram Jaccard over the minhash-LSH candidate edges (the
    candidate derivation is the already-green ``_minhash_sql``)."""
    return f"""
        WITH cand AS ({_minhash_sql()}),
        g AS (
          SELECT doc_id,
                 list_distinct(list_transform(
                     range(1, GREATEST(length(text) - 3, 1)),
                     i -> substr(text, i, 5))) AS gs
          FROM documents),
        j AS (
          SELECT c.doc_a, c.doc_b,
                 CASE
                   WHEN len(ga.gs) = 0 AND len(gb.gs) = 0 THEN 1.0
                   WHEN len(ga.gs) = 0 OR len(gb.gs) = 0 THEN 0.0
                   ELSE len(list_intersect(ga.gs, gb.gs))::DOUBLE
                        / len(list_distinct(list_concat(ga.gs, gb.gs)))
                 END AS jac
          FROM cand c
          JOIN g ga ON ga.doc_id = c.doc_a
          JOIN g gb ON gb.doc_id = c.doc_b)
        SELECT doc_a, doc_b, round_even(jac, 6) AS jaccard
        FROM j WHERE round_even(jac, 6) >= 0.5
    """


def _near_dup_clusters_sql() -> str:
    """Connected components as a DuckDB RECURSIVE CTE: enumerate every
    (node, reachable-ancestor) pair over the symmetrized verified edge set
    (UNION dedup guarantees termination), then cluster_id = min reachable
    node. Component sizes here are verified near-dup blobs, so the closure
    stays tiny. ``verified`` is MATERIALIZED: inlined, DuckDB would
    recompute the Jaccard verify on every step of the recursive walk
    (sf0.001: 284 s -> 34 s, same rows)."""
    return f"""
        WITH RECURSIVE verified AS MATERIALIZED ({_near_dup_jaccard_sql()}),
        edges AS (
          -- symmetrize inside a derived table: under WITH RECURSIVE a
          -- top-level UNION in ANY cte is parsed as a recursive definition
          SELECT a, b FROM (
            SELECT doc_a AS a, doc_b AS b FROM verified
            UNION ALL
            SELECT doc_b AS a, doc_a AS b FROM verified)),
        walk(node, anc) AS (
          SELECT a, a FROM (SELECT DISTINCT a FROM edges)
          UNION
          SELECT e.a, w.anc FROM edges e JOIN walk w ON w.node = e.b)
        SELECT node AS doc_id, MIN(anc) AS cluster_id
        FROM walk GROUP BY node ORDER BY doc_id
    """


def _embedding_near_dup_lsh_sql() -> str:
    """Multi-table sign-LSH candidates with the engine's deterministic
    hyperplanes (seed 101+t) as SQL literals, then exact cosine verify."""
    n_planes, n_tables, base_seed = 4, 8, 101
    table_ctes = []
    union_parts = []
    for t in range(n_tables):
        rng = np.random.default_rng(base_seed + t)
        planes = rng.standard_normal((64, n_planes))
        terms = " + ".join(
            "(CASE WHEN list_inner_product(de, ["
            + ", ".join(repr(float(v)) for v in planes[:, j])
            + f"]) > 0 THEN {1 << j} ELSE 0 END)"
            for j in range(n_planes)
        )
        table_ctes.append(
            f"b{t} AS (SELECT vec_id, {terms} AS bucket FROM e)"
        )
        union_parts.append(
            f"SELECT x.vec_id AS vec_a, y.vec_id AS vec_b "
            f"FROM b{t} x JOIN b{t} y "
            f"ON x.bucket = y.bucket AND x.vec_id < y.vec_id"
        )
    ctes = ",\n        ".join(table_ctes)
    unions = " UNION ALL ".join(union_parts)
    return f"""
        WITH e AS (
          SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings),
        {ctes},
        cand AS (SELECT DISTINCT vec_a, vec_b
                 FROM ({unions})),
        sims AS (
          SELECT c.vec_a, c.vec_b,
                 round_even(list_cosine_similarity(ea.de, eb.de), 6) AS cosine
          FROM cand c
          JOIN e ea ON ea.vec_id = c.vec_a
          JOIN e eb ON eb.vec_id = c.vec_b)
        SELECT vec_a, vec_b, cosine FROM sims WHERE cosine >= 0.4
    """


# -- vendored NumPy fill oracles (model / spline / kNN / categorical) -------
# The four iterative-solver pipelines have no SQL expression; their oracles
# are the independent implementations in tests/oracle/fills.py, run here at
# oracle-build time on the same fixture and served to DuckDB via
# read_parquet — the literal-embedding precedent of the LSH hyperplanes and
# minhash constants, extended to whole result tables.


def _fills_oracle_module():
    import importlib
    import sys

    tests_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tests")
    if tests_dir not in sys.path:
        sys.path.insert(0, tests_dir)
    return importlib.import_module("oracle.fills")


def _oracle_sf_dir() -> str:
    return f"/root/testdata/sf{SF_FOR_ORACLE:g}"


def _read_fixture_frame() -> "pd.DataFrame":
    import glob

    fx = _fixture_sql_path()
    return pd.concat(
        [
            pd.read_parquet(p, columns=["doc_id", "n_tok", "source"])
            for p in sorted(glob.glob(os.path.join(fx, "*.parquet")))
        ],
        ignore_index=True,
    )


def _source_skeys(sources: list[str]) -> dict[str, int]:
    """string_hash64 of each source string, computed IN SQL with the same
    FNV-1a + splitmix64 derivation the green sketch oracles use (not the
    engine's hashing module)."""
    import duckdb

    con = duckdb.connect()
    con.register("srcs", pd.DataFrame({"source": sources}))
    fnv = (
        f"list_reduce(list_prepend({0xCBF29CE484222325}::UBIGINT, "
        f"list_transform(string_split(source, ''), c -> unicode(c)::UBIGINT)), "
        f"(a, b) -> {_sql_mulmod('xor(a, b)', 0x100000001B3)})"
    )
    sm, final = _sql_splitmix_ctes("s0", ["source"], fnv, "sk")
    q = f"WITH s0 AS (SELECT source FROM srcs),\n {sm}\n SELECT source, v FROM {final}"
    res = con.sql(q).df()
    return {str(r.source): int(r.v) for r in res.itertuples()}


def _build_model_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        filled = o.model_fill(fr["y"].to_numpy(), fr["bucket_ts"].to_numpy())
        keep = ~np.isnan(filled)
        frames.append(
            pd.DataFrame(
                {
                    "source": src,
                    "bucket_ts": fr["bucket_ts"].to_numpy()[keep],
                    "n_obs": fr["n_obs"].to_numpy()[keep],
                    "fill_value": o.round_half_up(filled[keep]),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _build_spline_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        filled = o.spline_fill(fr["y"].to_numpy(), max_gap=30)
        keep = ~np.isnan(filled)
        frames.append(
            pd.DataFrame(
                {
                    "source": src,
                    "bucket_ts": fr["bucket_ts"].to_numpy()[keep],
                    "n_obs": fr["n_obs"].to_numpy()[keep],
                    "fill_value": o.round_half_up(filled[keep]),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _build_knn_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    series = o.minute_series(_read_fixture_frame())
    skeys = _source_skeys(sorted(series))
    cohorts: dict[int, list[str]] = {}
    for s in sorted(series):
        cohorts.setdefault(skeys[s] % 4, []).append(s)
    frames = []
    for c in sorted(cohorts):
        srcs = sorted(cohorts[c])
        lo = min(int(series[s]["bucket_ts"].iloc[0]) for s in srcs)
        hi = max(int(series[s]["bucket_ts"].iloc[-1]) for s in srcs)
        grid = np.arange(lo, hi + 60, 60, dtype=np.int64)
        panel = np.full((grid.size, len(srcs)), np.nan)
        for k, s in enumerate(srcs):
            fr = series[s]
            pos = (fr["bucket_ts"].to_numpy(np.int64) - lo) // 60
            panel[pos, k] = fr["y"].to_numpy()
        imputed, filled = o.knn_panel_fill(panel, n_nearest_features=8)
        for k, s in enumerate(srcs):
            fr = series[s]
            sel = (grid >= int(fr["bucket_ts"].iloc[0])) & (
                grid <= int(fr["bucket_ts"].iloc[-1])
            )
            keep = sel & ~np.isnan(imputed[:, k])
            frames.append(
                pd.DataFrame(
                    {
                        "source": s,
                        "bucket_ts": grid[keep],
                        "observed": ~np.isnan(panel[keep, k]),
                        "filled": filled[keep, k],
                        "fill_value": o.round_half_up(imputed[keep, k]),
                    }
                )
            )
    return pd.concat(frames, ignore_index=True)


def _build_lang_oracle() -> "pd.DataFrame":
    import duckdb

    o = _fills_oracle_module()
    docs = os.path.join(_oracle_sf_dir(), "documents.parquet")
    feats_sql = rf"""
        SELECT doc_id, source, lang,
               len(regexp_extract_all(text, '\S+'))::DOUBLE AS tok_count,
               round_even(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                     / GREATEST(length(text), 1)::DOUBLE, 6) AS alpha_ratio,
               round_even(length(regexp_replace(text, '[^0-9]', '', 'g'))
                     / GREATEST(length(text), 1)::DOUBLE, 6) AS digit_ratio,
               round_even((length(text) - length(replace(text, ' ', '')))
                     / GREATEST(length(text), 1)::DOUBLE, 6) AS space_ratio
        FROM read_parquet('{docs}')
    """
    df = duckdb.sql(feats_sql).df()
    frames = []
    for src, g in df.groupby("source", sort=True):
        g = g.sort_values("doc_id").reset_index(drop=True)
        masked = (g["doc_id"].to_numpy(np.int64) % 7) == 0
        miss = masked | g["lang"].isna().to_numpy()
        filled = o.lang_fill_labels(
            g[["tok_count", "alpha_ratio", "digit_ratio", "space_ratio"]],
            g["lang"].astype(object),
            miss,
            min_samples_train=5,
        )
        frames.append(
            pd.DataFrame(
                {
                    "doc_id": g["doc_id"].to_numpy(np.int64),
                    "lang_orig": g["lang"].astype(object),
                    "lang_filled": filled,
                    "was_masked": masked,
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _build_hll_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    df = _read_fixture_frame()
    out = o.hll_oracle_counts(
        df["source"].to_numpy(), df["doc_id"].to_numpy(), p=12
    )
    return out.rename(columns={"key": "source"})


def _build_pack_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    df = _read_fixture_frame()
    return o.pack_manifest_oracle(
        df["doc_id"].to_numpy(),
        df["n_tok"].to_numpy(),
        df["source"].to_numpy(),
        max_len=2048,
    )


def _build_pack_tokens_oracle() -> "pd.DataFrame":
    import hashlib

    import pyarrow.dataset as pds

    o = _fills_oracle_module()
    df = (
        pds.dataset(_fixture_sql_path())
        .to_table(columns=["doc_id", "tokens", "source"])
        .to_pandas()
    )
    out = o.pack_tokens_oracle(
        df["doc_id"].to_numpy(),
        df["tokens"].to_numpy(),
        df["source"].to_numpy(),
        max_len=2048,
    )
    out["tokens_sha"] = [
        hashlib.blake2b(b, digest_size=16).hexdigest() for b in out["tokens_blob"]
    ]
    return out.drop(columns=["tokens_blob"])


def _build_bloom_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    df = _read_fixture_frame()
    ids = df["doc_id"].to_numpy()
    minute = np.array([int(s[-10:]) for s in ids], dtype=np.int64)
    keep = o.bloom_absent_ids(ids[minute % 2 == 0], ids, m_bits=1 << 20, k=7)
    return df.loc[keep, ["doc_id", "source"]].reset_index(drop=True)


def _build_hll_global_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    df = _read_fixture_frame()
    out = o.hll_oracle_counts(
        np.zeros(len(df), dtype="U1"), df["doc_id"].to_numpy(), p=12
    )
    return out[["approx_n"]]


def _build_ewma_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep]
        frames.append(
            pd.DataFrame(
                {
                    "source": src,
                    "bucket_ts": ts,
                    "sum_tok": y.astype(np.int64),
                    "ewma_tok": o.round_half_up(o.ewma_recursion(y, 0.25)),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _build_holt_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep]
        level, trend, forecast = o.holt_recursion(y, 0.25)
        frames.append(
            pd.DataFrame(
                {
                    "source": src,
                    "bucket_ts": ts,
                    "sum_tok": y.astype(np.int64),
                    "level_tok": o.round_half_up(level),
                    "trend_tok": o.round_half_up(trend),
                    "forecast_tok": o.round_half_up(forecast),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _build_holt_winters_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep]
        res = o.holt_winters_recursion(y, 60, 0.2, 0.1, 0.3)
        if res is None:
            continue
        fc, lv, tr = res
        m = 60
        frames.append(
            pd.DataFrame(
                {
                    "source": src,
                    "bucket_ts": ts[m:],
                    "sum_tok": y[m:].astype(np.int64),
                    "forecast_tok": o.round_half_up(fc),
                    "level_tok": o.round_half_up(lv),
                    "trend_tok": o.round_half_up(tr),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _zorder_sql() -> str:
    """Literal z-order oracle: the in-SQL FNV/splitmix source hash (the
    _source_skeys derivation) embedded as a VALUES table, the 32-term
    Morton interleave as arithmetic, and the layout as one NTILE window."""
    p = _fixture_sql_path()
    srcs = sorted(_read_fixture_frame()["source"].unique())
    sk = _source_skeys(srcs)
    vals = ", ".join(f"('{s}', {sk[s]}::UBIGINT)" for s in srcs)
    terms = " + ".join(
        f"(((s16 >> {i}) & 1) << {2 * i + 1}) + (((t16 >> {i}) & 1) << {2 * i})"
        for i in range(16)
    )
    return f"""
        WITH sk(source, skv) AS (VALUES {vals}),
        base AS (
          SELECT doc_id,
                 CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT) AS ts,
                 skv
          FROM read_parquet('{p}/*.parquet') JOIN sk USING (source)),
        b AS (SELECT MIN(ts) AS tmin,
                     GREATEST(MAX(ts) - MIN(ts), 1) AS span FROM base),
        d AS (
          SELECT doc_id,
                 CAST(skv & 65535 AS BIGINT) AS s16,
                 ((ts - tmin) * 65535) // span AS t16
          FROM base, b),
        z AS (SELECT doc_id, s16, t16, ({terms}) AS zv FROM d),
        f AS (SELECT s16, t16,
                     NTILE(64) OVER (ORDER BY zv, doc_id) AS file_id
              FROM z)
        SELECT CAST(file_id AS BIGINT) AS file_id,
               CAST(COUNT(*) AS BIGINT) AS n_rows,
               MIN(s16) AS s16_min, MAX(s16) AS s16_max,
               MIN(t16) AS t16_min, MAX(t16) AS t16_max,
               MAX(s16) - MIN(s16) AS s_span,
               MAX(t16) - MIN(t16) AS t_span
        FROM f GROUP BY file_id
    """


def _build_km_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    ev = pd.read_parquet(
        os.path.join(_oracle_sf_dir(), "events.parquet"),
        columns=["ts", "user_id", "event_type"],
    )
    return o.km_curve(ev, target_type="purchase")


def _build_pagerank_oracle() -> "pd.DataFrame":
    import glob

    o = _fills_oracle_module()
    fx = _fixture_sql_path()
    toks = []
    for p in sorted(glob.glob(os.path.join(fx, "*.parquet"))):
        toks.extend(pd.read_parquet(p, columns=["tokens"])["tokens"].tolist())
    return o.pagerank_exact(toks, k=20, n_iter=8, d=85)


def _build_granger_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    series = {
        src_: o.hourly_observed(fr)
        for src_, fr in o.minute_series(_read_fixture_frame()).items()
    }
    rows = []
    for src_ in sorted(series):
        x_ts, x_sum = series[src_]
        for ref in _CORR_REFS:
            if ref == src_ or ref not in series:
                continue
            y_ts, y_sum = series[ref]
            yv, av, bv = o.granger_align(x_ts, x_sum, y_ts, y_sum)
            if yv.size < 8:
                continue
            f = o.granger_f_exact(yv, av, bv)
            if f is None:
                continue
            rows.append(
                (
                    src_,
                    ref,
                    int(yv.size),
                    float(o.round_half_up(np.array([f]))[0]),
                )
            )
    out = pd.DataFrame(
        rows, columns=["source", "ref_source", "n_common", "f_stat"]
    )
    out["n_common"] = out["n_common"].astype(np.int64)
    out["f_stat"] = out["f_stat"].astype(np.float64)
    return out


def _build_holt_damped_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src_, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep]
        res = o.holt_damped_recursion(y, 0.25, 0.1, 0.9)
        if res is None:
            continue
        fc, lv, tr = res
        frames.append(
            pd.DataFrame(
                {
                    "source": src_,
                    "bucket_ts": ts[1:],
                    "sum_tok": y[1:].astype(np.int64),
                    "forecast_tok": o.round_half_up(fc),
                    "level_tok": o.round_half_up(lv),
                    "trend_tok": o.round_half_up(tr),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _build_cusum_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep].astype(np.int64)
        stats = o.cusum_stats(y, 0.5, 20)
        if stats is None:
            continue
        for direction, s in zip(("up", "down"), stats):
            flag = s > 5.0
            if flag.any():
                frames.append(
                    pd.DataFrame(
                        {
                            "source": src,
                            "bucket_ts": ts[flag],
                            "direction": direction,
                            "cusum_stat": o.round_half_up(s[flag]),
                        }
                    )
                )
    if not frames:
        return pd.DataFrame(
            {
                "source": pd.Series([], dtype="string"),
                "bucket_ts": pd.Series([], dtype="int64"),
                "direction": pd.Series([], dtype="string"),
                "cusum_stat": pd.Series([], dtype="float64"),
            }
        )
    return pd.concat(frames, ignore_index=True)


def _build_lttb_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep]
        idx = o.lttb_select_loop(ts.astype(np.float64), y, 50)
        frames.append(
            pd.DataFrame(
                {
                    "source": src,
                    "bucket_ts": ts[idx],
                    "sum_tok": y[idx].astype(np.int64),
                }
            )
        )
    return pd.concat(frames, ignore_index=True)


def _build_pca_oracle() -> "pd.DataFrame":
    """Independent distributed-PCA oracle (tests/oracle/fills.py
    embedding_pca_frame): whole-matrix exact Python-int Gram, pinned
    covariance, eigh, sign-fixed top-2 components, 6-dp projection."""
    import pyarrow.parquet as pq

    o = _fills_oracle_module()
    t = pq.read_table(os.path.join(_oracle_sf_dir(), "embeddings.parquet"))
    ids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    return o.embedding_pca_frame(ids, M, n_components=2, scale_bits=16)


def _build_harmonic_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = {
        "source": [],
        "n_buckets": [],
        "amp_tok": [],
        "peak_hour": [],
        "r2": [],
    }
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep]
        res = o.harmonic_fit(ts, y)
        if res is None:
            continue
        amp, peak_hour, r2 = res
        rows["source"].append(src)
        rows["n_buckets"].append(int(ts.size))
        rows["amp_tok"].append(float(o.round_half_up(np.array([amp]))[0]))
        rows["peak_hour"].append(
            float(o.round_half_up(np.array([peak_hour]))[0])
        )
        rows["r2"].append(float(o.round_half_up(np.array([r2]))[0]))
    out = pd.DataFrame(rows)
    out["n_buckets"] = out["n_buckets"].astype(np.int64)
    return out


def _build_isotonic_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = {
        "source": [], "start_ts": [], "end_ts": [],
        "n_steps": [], "pool_sum": [], "fitted": [],
    }
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        yv = fr["y"].to_numpy()[keep].astype(np.int64)
        hb = ts - ts % 3600
        agg: "dict[int, int]" = {}
        for h, v in zip(hb.tolist(), yv.tolist()):
            agg[h] = agg.get(h, 0) + v
        bt = np.array(sorted(agg), dtype=np.int64)
        y = np.array([agg[h] for h in bt.tolist()], dtype=np.int64)
        start, end, ns, psum, fit = o.pava_pools(bt, y)
        k = len(start)
        rows["source"].extend([src] * k)
        rows["start_ts"].extend(start)
        rows["end_ts"].extend(end)
        rows["n_steps"].extend(ns)
        rows["pool_sum"].extend(psum)
        rows["fitted"].extend(
            float(v) for v in o.round_half_up(np.asarray(fit, np.float64))
        )
    out = pd.DataFrame(rows)
    for c in ("start_ts", "end_ts", "n_steps", "pool_sum"):
        out[c] = out[c].astype(np.int64)
    out["fitted"] = out["fitted"].astype(np.float64)
    return out


def _build_binseg_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = {"source": [], "rank": [], "cp_ts": [], "gain": []}
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        yv = fr["y"].to_numpy()[keep].astype(np.int64)
        hb = ts - ts % 3600
        agg: "dict[int, int]" = {}
        for h, v in zip(hb.tolist(), yv.tolist()):
            agg[h] = agg.get(h, 0) + v
        bt = np.array(sorted(agg), dtype=np.int64)
        y = np.array([agg[h] for h in bt.tolist()], dtype=np.int64)
        ranks, idxs, gains = o.binseg_points(y, 3, 2)
        rows["source"].extend([src] * len(ranks))
        rows["rank"].extend(ranks)
        rows["cp_ts"].extend(int(bt[t]) for t in idxs)
        rows["gain"].extend(
            float(v) for v in o.round_half_up(np.asarray(gains, np.float64))
        )
    out = pd.DataFrame(rows)
    for c in ("rank", "cp_ts"):
        out[c] = out[c].astype(np.int64)
    out["gain"] = out["gain"].astype(np.float64)
    return out


def _build_pelt_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = {
        "source": [], "cp_idx": [], "cp_ts": [],
        "left_mean": [], "right_mean": [],
    }
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        yv = fr["y"].to_numpy()[keep].astype(np.int64)
        hb = ts - ts % 600
        agg: "dict[int, int]" = {}
        for h, v in zip(hb.tolist(), yv.tolist()):
            agg[h] = agg.get(h, 0) + v
        bt = np.array(sorted(agg), dtype=np.int64)
        y = np.array([agg[h] for h in bt.tolist()], dtype=np.int64)
        cps = o.pelt_points(y, 2, 2)
        bounds = [0] + cps + [int(y.size)]
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(y)])
        for i, cp in enumerate(cps):
            a, c = bounds[i], bounds[i + 2]
            rows["source"].append(src)
            rows["cp_idx"].append(i + 1)
            rows["cp_ts"].append(int(bt[cp]))
            rows["left_mean"].append(
                float(o.round_half_up(
                    np.array([float(cs[cp] - cs[a]) / float(cp - a)])
                )[0])
            )
            rows["right_mean"].append(
                float(o.round_half_up(
                    np.array([float(cs[c] - cs[cp]) / float(c - cp)])
                )[0])
            )
    out = pd.DataFrame(rows)
    for c in ("cp_idx", "cp_ts"):
        out[c] = out[c].astype(np.int64)
    for c in ("left_mean", "right_mean"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_sampen_oracle() -> "pd.DataFrame":
    import math

    o = _fills_oracle_module()
    rows = {
        "source": [], "n_buckets": [], "r": [],
        "b_count": [], "a_count": [], "sampen": [],
    }
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        yv = fr["y"].to_numpy()[keep].astype(np.int64)
        hb = ts - ts % 600
        agg: "dict[int, int]" = {}
        for h, v in zip(hb.tolist(), yv.tolist()):
            agg[h] = agg.get(h, 0) + v
        y = np.array([agg[h] for h in sorted(agg)], dtype=np.int64)
        n = int(y.size)
        if n - 2 < 2:
            continue
        sv = int(y.sum())
        qv = sum(int(v) * int(v) for v in y.tolist())
        var = float(n * qv - sv * sv) / float(n * n)
        r = 0.2 * math.sqrt(var)
        b, a = o.sampen_counts(y, 2, r)
        if b == 0 or a == 0:
            continue
        rows["source"].append(src)
        rows["n_buckets"].append(n)
        rows["r"].append(float(o.round_half_up(np.array([r]))[0]))
        rows["b_count"].append(b)
        rows["a_count"].append(a)
        rows["sampen"].append(
            float(
                o.round_half_up(
                    np.array([-math.log(float(a) / float(b))])
                )[0]
            )
        )
    out = pd.DataFrame(rows)
    for c in ("n_buckets", "b_count", "a_count"):
        out[c] = out[c].astype(np.int64)
    for c in ("r", "sampen"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_vopt_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        hb, y = o.hourly_observed(fr)
        bounds = o.vopt_breaks(y, 4)
        if bounds is None:
            continue
        cs = np.concatenate([np.zeros(1, np.int64), np.cumsum(y)])
        cq = np.concatenate(
            [np.zeros(1, object), np.cumsum([int(v) * int(v) for v in y])]
        )
        for i in range(4):
            a, c = bounds[i], bounds[i + 1]
            sv = int(cs[c] - cs[a])
            qv = int(cq[c]) - int(cq[a])
            m = c - a
            num = qv * m - sv * sv
            rows.append(
                (
                    src,
                    i + 1,
                    int(hb[a]),
                    int(hb[c - 1]),
                    m,
                    float(
                        o.round_half_up(np.array([float(sv) / float(m)]))[0]
                    ),
                    float(
                        o.round_half_up(
                            np.array([float(num) / float(m)])
                        )[0]
                    ),
                )
            )
    out = pd.DataFrame(
        rows,
        columns=[
            "source", "bucket_idx", "start_ts", "end_ts", "n_points",
            "mean_tok", "sse",
        ],
    )
    for c in ("bucket_idx", "start_ts", "end_ts", "n_points"):
        out[c] = out[c].astype(np.int64)
    for c in ("mean_tok", "sse"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_spearman_oracle() -> "pd.DataFrame":
    """Independent Spearman replica: pandas tie-averaged ranks doubled to
    exact ints (vs the engine's unique-run construction), then the same
    pinned Pearson-on-ranks expression on Python-int moments."""
    import math

    o = _fills_oracle_module()
    series = {
        src_: o.hourly_observed(fr)
        for src_, fr in o.minute_series(_read_fixture_frame()).items()
    }
    rows = []
    for src_ in sorted(series):
        s_ts, s_sum = series[src_]
        for ref in _CORR_REFS:
            if ref == src_ or ref not in series:
                continue
            r_ts, r_sum = series[ref]
            xv, yv = o.coint_align(s_ts, s_sum, r_ts, r_sum)
            n = int(xv.size)
            if n < 8:
                continue
            rx = (pd.Series(xv).rank(method="average") * 2).astype(np.int64)
            ry = (pd.Series(yv).rank(method="average") * 2).astype(np.int64)
            sx, sy = int(rx.sum()), int(ry.sum())
            sxy = int(np.dot(rx, ry))
            sxx, syy = int(np.dot(rx, rx)), int(np.dot(ry, ry))
            num = n * sxy - sx * sy
            d1 = n * sxx - sx * sx
            d2 = n * syy - sy * sy
            if d1 <= 0 or d2 <= 0:
                continue
            rho = float(num) / math.sqrt(float(d1) * float(d2))
            rows.append(
                (src_, ref, n, float(o.round_half_up(np.array([rho]))[0]))
            )
    out = pd.DataFrame(
        rows, columns=["source", "ref_source", "n_common", "rho"]
    )
    out["n_common"] = out["n_common"].astype(np.int64)
    out["rho"] = out["rho"].astype(np.float64)
    return out


def _build_eg_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    series = {
        src_: o.hourly_observed(fr)
        for src_, fr in o.minute_series(_read_fixture_frame()).items()
    }
    rows = []
    for src_ in sorted(series):
        s_ts, s_sum = series[src_]
        for ref in _CORR_REFS:
            if ref == src_ or ref not in series:
                continue
            r_ts, r_sum = series[ref]
            # x = reference, y = source, on the common observed buckets
            xv, yv = o.coint_align(r_ts, r_sum, s_ts, s_sum)
            if xv.size < 8:
                continue
            res = o.engle_granger_pair(
                [int(v) for v in xv], [int(v) for v in yv]
            )
            if res is None:
                continue
            beta, gamma, t = res
            rows.append(
                (
                    src_,
                    ref,
                    int(xv.size),
                    float(o.round_half_up(np.array([beta]))[0]),
                    float(o.round_half_up(np.array([gamma]))[0]),
                    float(o.round_half_up(np.array([t]))[0]),
                )
            )
    out = pd.DataFrame(
        rows,
        columns=[
            "source", "ref_source", "n_common", "beta", "gamma_hat", "eg_t",
        ],
    )
    out["n_common"] = out["n_common"].astype(np.int64)
    for c in ("beta", "gamma_hat", "eg_t"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_knn_outlier_oracle() -> "pd.DataFrame":
    """Independent k-th-NN replica: full similarity matrix, per-row sort
    (vs the engine's batched scan + rank filter)."""
    import pyarrow.parquet as pq

    k = 5
    t = pq.read_table(os.path.join(_oracle_sf_dir(), "embeddings.parquet"))
    vids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    S = np.round(Mn @ Mn.T, 6)
    np.fill_diagonal(S, -np.inf)
    rows = {"vec_id": [], "kth_nn": [], "kth_sim": [], "score": []}
    for i in range(vids.size):
        order = np.lexsort((vids, -S[i]))
        j = order[k - 1]
        rows["vec_id"].append(int(vids[i]))
        rows["kth_nn"].append(int(vids[j]))
        rows["kth_sim"].append(float(S[i, j]))
        rows["score"].append(float(np.round(1.0 - S[i, j], 6)))
    out = pd.DataFrame(rows)
    for c in ("vec_id", "kth_nn"):
        out[c] = out[c].astype(np.int64)
    for c in ("kth_sim", "score"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_mutual_knn_oracle() -> "pd.DataFrame":
    """Independent mutual-kNN replica: one full similarity matrix, diag
    masked, directed top-k per row, set-intersection mutuality (vs the
    engine's batched scan + hash-exchange merge)."""
    import pyarrow.parquet as pq

    k = 5
    t = pq.read_table(os.path.join(_oracle_sf_dir(), "embeddings.parquet"))
    vids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    S = np.round(Mn @ Mn.T, 6)
    n = vids.size
    np.fill_diagonal(S, -np.inf)
    kk = min(k, n - 1)
    tops = [np.lexsort((vids, -S[i]))[:kk] for i in range(n)]
    nbr = {i: {int(p): r + 1 for r, p in enumerate(tops[i])} for i in range(n)}
    rows = {
        "vec_a": [], "vec_b": [], "sim": [], "rank_ab": [], "rank_ba": [],
    }
    for i in range(n):
        for jpos, rank_ij in nbr[i].items():
            if vids[i] >= vids[jpos]:
                continue
            back = nbr[jpos].get(i)
            if back is None:
                continue
            rows["vec_a"].append(int(vids[i]))
            rows["vec_b"].append(int(vids[jpos]))
            rows["sim"].append(float(S[i, jpos]))
            rows["rank_ab"].append(rank_ij)
            rows["rank_ba"].append(back)
    out = pd.DataFrame(rows)
    for c in ("vec_a", "vec_b", "rank_ab", "rank_ba"):
        out[c] = out[c].astype(np.int64)
    out["sim"] = out["sim"].astype(np.float64)
    return out


def _build_logit_oracle() -> "pd.DataFrame":
    """Independent logistic-quality replica: per-doc re.findall feature
    extraction (vs the engine's vectorized pandas-str counts), then
    whole-matrix IRLS with the same per-row fixed-point quantization —
    integer sums are commutative, so the single-shot Gram equals the
    engine's distributed partial sums bit-for-bit."""
    import re

    import pyarrow.parquet as pq

    scale = float(1 << 20)
    n_iters, ridge = 4, 1e-3
    min_tok, min_alpha, max_digit = 5, 0.5, 0.3
    t = pq.read_table(
        os.path.join(_oracle_sf_dir(), "documents.parquet"),
        columns=["doc_id", "text"],
    )
    ids = np.asarray(t["doc_id"], dtype=np.int64)
    texts = t["text"].to_pylist()
    feats, labels = [], []
    for raw in texts:
        s = raw or ""
        n = len(s)
        tok = len(re.findall(r"\S+", s))
        denom = float(max(n, 1))
        alpha = float(np.round(len(re.findall(r"[A-Za-z]", s)) / denom, 6))
        digit = float(np.round(len(re.findall(r"[0-9]", s)) / denom, 6))
        space = float(np.round(s.count(" ") / denom, 6))
        feats.append([1.0, float(np.log1p(float(tok))), alpha, digit, space])
        labels.append(
            int(tok >= min_tok and alpha >= min_alpha and digit <= max_digit)
        )
    X = np.asarray(feats, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)

    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    d = X.shape[1]
    beta = np.zeros(d)
    for _ in range(n_iters):
        p = sigmoid(X @ beta)
        w = p * (1.0 - p)
        U = np.floor(np.sqrt(w)[:, None] * X * scale + 0.5).astype(np.int64)
        V = np.floor(
            (y.astype(np.float64) - p)[:, None] * X * scale + 0.5
        ).astype(np.int64)
        H = (U.T @ U).astype(np.float64) / (scale * scale)
        g = V.sum(axis=0, dtype=np.int64).astype(np.float64) / scale
        beta = beta + np.linalg.solve(H + ridge * np.eye(d), g)
    p = np.round(sigmoid(X @ beta), 6)
    out = pd.DataFrame(
        {
            "doc_id": ids,
            "label": y,
            "prob": p,
            "pred": (p >= 0.5).astype(np.int64),
        }
    )
    return out


def _build_mmr_oracle() -> "pd.DataFrame":
    """Independent MMR replica: full-corpus cosine per query, top-50
    candidates by (round6 sim desc, vec_id asc), then the greedy rerank
    recomputing max-sim-to-selected from scratch each step (vs the
    engine's incremental running max)."""
    import pyarrow.parquet as pq

    k, n_cand, lam = _ANN_K, 50, 0.7
    t = pq.read_table(os.path.join(_oracle_sf_dir(), "embeddings.parquet"))
    vids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    qsel = np.argsort(vids)[:_ANN_NQ]
    rows = {
        "query_id": [], "rank": [], "vec_id": [],
        "relevance": [], "mmr_score": [],
    }
    for qi in qsel:
        sims = np.round(Mn @ Mn[qi], 6)
        cand = np.lexsort((vids, -sims))[:n_cand]
        cvid = vids[cand]
        rel = sims[cand]
        cc = np.round(Mn[cand] @ Mn[cand].T, 6)
        chosen: "list[int]" = []
        for rank in range(1, min(k, cand.size) + 1):
            best_pos, best_key = -1, None
            for pos in range(cand.size):
                if pos in chosen:
                    continue
                pen = max((float(cc[pos][c]) for c in chosen), default=0.0)
                score = float(
                    np.round(lam * rel[pos] - (1.0 - lam) * pen, 6)
                )
                key = (-score, int(cvid[pos]))
                if best_key is None or key < best_key:
                    best_key, best_pos = key, pos
            chosen.append(best_pos)
            rows["query_id"].append(int(vids[qi]))
            rows["rank"].append(rank)
            rows["vec_id"].append(int(cvid[best_pos]))
            rows["relevance"].append(float(rel[best_pos]))
            rows["mmr_score"].append(-best_key[0])
    out = pd.DataFrame(rows)
    for c in ("query_id", "rank", "vec_id"):
        out[c] = out[c].astype(np.int64)
    for c in ("relevance", "mmr_score"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_pq_oracle() -> "pd.DataFrame":
    """Independent PQ top-k oracle: re-derives the bounded hash sample,
    trains per-subspace codebooks with _oracle_kmeans (plain squared-diff
    distances vs the engine's expanded-norm formula — assignments are
    discrete, so both land identically on non-degenerate data), encodes
    the normalized corpus with the same plain distances, and scores via
    the per-subspace LUT sum in the engine's pinned left-to-right order."""
    import math

    import pyarrow.parquet as pq

    n_sub, n_codes, n_iters, seed, n_train = 4, 16, 5, 7, 1024
    t = pq.read_table(os.path.join(_oracle_sf_dir(), "embeddings.parquet"))
    vids = np.asarray(t["vec_id"], dtype=np.int64)
    M = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    mod = 1 << 16
    thr = (
        mod
        if vids.size <= n_train
        else max(1, math.ceil(n_train * mod / vids.size))
    )
    keep = (_oracle_splitmix64(vids.view(np.uint64)) % np.uint64(mod)) < thr
    ksel = np.flatnonzero(keep)[np.argsort(vids[keep])]
    S = M[ksel]
    Sn = S / np.maximum(np.linalg.norm(S, axis=1, keepdims=True), 1e-300)
    dsub = M.shape[1] // n_sub
    books = [
        _oracle_kmeans(
            Sn[:, m * dsub : (m + 1) * dsub], n_codes, n_iters, seed + m
        )
        for m in range(n_sub)
    ]
    order = np.argsort(vids)
    qsel = order[:_ANN_NQ]
    qids = vids[qsel]
    Q = M[qsel]
    Qn = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1e-300)
    Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-300)
    sims = None
    for m, C in enumerate(books):
        sub = Mn[:, m * dsub : (m + 1) * dsub]
        d = ((sub[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        codes = d.argmin(axis=1)
        lut = Qn[:, m * dsub : (m + 1) * dsub] @ C.T
        contrib = lut[:, codes]
        sims = contrib if sims is None else sims + contrib
    rows = {"query_id": [], "rank": [], "vec_id": []}
    for qi in range(qids.size):
        s = np.round(sims[qi], 6)
        top = np.lexsort((vids, -s))[:_ANN_K]
        rows["query_id"].extend([int(qids[qi])] * top.size)
        rows["rank"].extend(range(1, top.size + 1))
        rows["vec_id"].extend(int(v) for v in vids[top])
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def _build_croston_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = {
        "source": [], "n_demands": [], "size_hat": [],
        "interval_hat": [], "forecast": [],
    }
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        yv = fr["y"].to_numpy()[keep].astype(np.int64)
        if ts.size < 3:
            continue
        iv = ((ts[1:] - ts[:-1]) // 60).astype(np.int64)
        z, p = o.croston_recursion(yv, iv, 0.1)
        rows["source"].append(src)
        rows["n_demands"].append(int(ts.size))
        rows["size_hat"].append(float(o.round_half_up(np.array([z]))[0]))
        rows["interval_hat"].append(float(o.round_half_up(np.array([p]))[0]))
        rows["forecast"].append(float(o.round_half_up(np.array([z / p]))[0]))
    out = pd.DataFrame(rows)
    out["n_demands"] = out["n_demands"].astype(np.int64)
    for c in ("size_hat", "interval_hat", "forecast"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_dtw_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    series: "dict[str, np.ndarray]" = {}
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        yv = fr["y"].to_numpy()[keep].astype(np.int64)
        hb = ts - ts % 3600
        agg: "dict[int, int]" = {}
        for h, v in zip(hb.tolist(), yv.tolist()):
            agg[h] = agg.get(h, 0) + v
        series[src] = np.array(
            [agg[h] for h in sorted(agg)], dtype=np.int64
        )
    rows = {"source": [], "ref_source": [], "n_x": [], "n_y": [], "dtw": []}
    for src in sorted(series):
        y = series[src]
        zx = o.znorm_moments(y) if y.size >= 8 else None
        if zx is None:
            continue
        for ref in sorted(_CORR_REFS):
            if ref == src or ref not in series:
                continue
            ry = series[ref]
            if ry.size < 8:
                continue
            zy = o.znorm_moments(ry)
            if zy is None:
                continue
            d = o.dtw_band(zx, zy, 12) / float(max(zx.size, zy.size))
            rows["source"].append(src)
            rows["ref_source"].append(ref)
            rows["n_x"].append(int(zx.size))
            rows["n_y"].append(int(zy.size))
            rows["dtw"].append(
                float(o.round_half_up(np.array([d]))[0])
            )
    out = pd.DataFrame(rows)
    for c in ("n_x", "n_y"):
        out[c] = out[c].astype(np.int64)
    out["dtw"] = out["dtw"].astype(np.float64)
    return out


def _build_kalman_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    frames = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        y = fr["y"].to_numpy()
        mask = fr["n_obs"].to_numpy() > 0
        if int(mask.sum()) < 2:
            continue
        xs = o.kalman_rts(y, 0.5)
        frames.append(
            pd.DataFrame(
                {
                    "source": np.full(y.size, src, dtype=object),
                    "bucket_ts": fr["bucket_ts"].to_numpy(np.int64),
                    "observed": mask.astype(np.int64),
                    "smooth_tok": o.round_half_up(xs),
                }
            )
        )
    if not frames:
        return pd.DataFrame(
            {
                "source": pd.Series([], dtype=object),
                "bucket_ts": pd.Series([], dtype=np.int64),
                "observed": pd.Series([], dtype=np.int64),
                "smooth_tok": pd.Series([], dtype=np.float64),
            }
        )
    return pd.concat(frames, ignore_index=True)


def _build_haar_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        y = fr["y"].to_numpy()[keep].astype(np.int64)
        if y.size < 8:  # engine omits sources shorter than 2^levels
            continue
        for k, n, e in o.haar_levels(y, 3):
            rows.append(
                (src, k, n, float(o.round_half_up(np.array([e]))[0]))
            )
    out = pd.DataFrame(rows, columns=["source", "level", "n_coefs", "energy"])
    out["level"] = out["level"].astype(np.int64)
    out["n_coefs"] = out["n_coefs"].astype(np.int64)
    out["energy"] = out["energy"].astype(np.float64)
    return out


def _build_matprof_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    w = 12
    rows = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep].astype(np.int64)
        dense = o.hourly_linear_filled(ts, y)
        if dense is None:
            continue
        grid, s = dense
        res = o.matrix_profile_brute(s, w, w // 2)
        if res is None:
            continue
        mi, mj, md, di, dd = res
        rows.append(
            (
                src,
                int(grid.size),
                int(grid.size) - w + 1,
                int(grid[mi]),
                int(grid[mj]),
                float(o.round_half_up(np.array([md]))[0]),
                int(grid[di]),
                float(o.round_half_up(np.array([dd]))[0]),
            )
        )
    out = pd.DataFrame(
        rows,
        columns=[
            "source", "n_hours", "n_windows", "motif_i_ts", "motif_j_ts",
            "motif_dist", "discord_ts", "discord_dist",
        ],
    )
    for c in ("n_hours", "n_windows", "motif_i_ts", "motif_j_ts",
              "discord_ts"):
        out[c] = out[c].astype(np.int64)
    for c in ("motif_dist", "discord_dist"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_lomb_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep].astype(np.int64)
        for period in (3600, 21600, 86400, 604800):
            p = o.lomb_scargle_power(ts, y, period)
            if p is None:
                continue
            rows.append(
                (
                    src,
                    period,
                    int(ts.size),
                    float(o.round_half_up(np.array([p]))[0]),
                )
            )
    out = pd.DataFrame(
        rows, columns=["source", "period_s", "n_buckets", "power"]
    )
    out["period_s"] = out["period_s"].astype(np.int64)
    out["n_buckets"] = out["n_buckets"].astype(np.int64)
    out["power"] = out["power"].astype(np.float64)
    return out


def _build_spectral_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep].astype(np.int64)
        st = o.spectral_entropy_stats(ts, y, 12)
        if st is None:
            continue
        n_slots, n_active, peak_k, ent = st
        rows.append(
            (
                src,
                int(n_slots),
                int(n_active),
                int(peak_k),
                float(o.round_half_up(np.array([ent]))[0]),
            )
        )
    out = pd.DataFrame(
        rows,
        columns=["source", "n_slots", "n_active", "peak_k",
                 "spectral_entropy"],
    )
    for c in ("n_slots", "n_active", "peak_k"):
        out[c] = out[c].astype(np.int64)
    out["spectral_entropy"] = out["spectral_entropy"].astype(np.float64)
    return out


def _build_theta_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = []
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        y = fr["y"].to_numpy()[keep].astype(np.int64)
        st = o.theta_forecast_fit(y, 0.5, 3)
        if st is None:
            continue
        b, fc = st
        rows.append(
            (src, int(y.size))
            + tuple(
                float(o.round_half_up(np.array([v]))[0]) for v in [b] + fc
            )
        )
    out = pd.DataFrame(
        rows,
        columns=["source", "n_buckets", "slope",
                 "forecast_1", "forecast_2", "forecast_3"],
    )
    out["n_buckets"] = out["n_buckets"].astype(np.int64)
    for c in ("slope", "forecast_1", "forecast_2", "forecast_3"):
        out[c] = out[c].astype(np.float64)
    return out


def _build_page_hinkley_oracle() -> "pd.DataFrame":
    o = _fills_oracle_module()
    rows = {
        "source": [],
        "n_buckets": [],
        "n_alarms": [],
        "first_alarm_ts": [],
        "max_ph": [],
    }
    for src, fr in o.minute_series(_read_fixture_frame()).items():
        keep = fr["n_obs"].to_numpy() > 0
        ts = fr["bucket_ts"].to_numpy(np.int64)[keep]
        y = fr["y"].to_numpy()[keep].astype(np.int64)
        if y.size == 0:
            continue
        ph = o.page_hinkley_path(y, delta=0.0)
        alarms = ph > 1000.0
        n_al = int(alarms.sum())
        rows["source"].append(src)
        rows["n_buckets"].append(int(y.size))
        rows["n_alarms"].append(n_al)
        rows["first_alarm_ts"].append(
            int(ts[int(np.argmax(alarms))]) if n_al else -1
        )
        rows["max_ph"].append(float(o.round_half_up(np.array([ph.max()]))[0]))
    out = pd.DataFrame(rows)
    for c in ("n_buckets", "n_alarms", "first_alarm_ts"):
        out[c] = out[c].astype(np.int64)
    out["max_ph"] = out["max_ph"].astype(np.float64)
    return out


_FILL_ORACLE_BUILDERS = {
    "gapfill_model_1m": _build_model_oracle,
    "gapfill_spline_1m": _build_spline_oracle,
    "knn_fill_1m": _build_knn_oracle,
    "lang_fill": _build_lang_oracle,
    "ewma_smooth_1m": _build_ewma_oracle,
    "holt_smooth_1m": _build_holt_oracle,
    "holt_winters_1m": _build_holt_winters_oracle,
    "holt_damped_1m": _build_holt_damped_oracle,
    "granger_1h": _build_granger_oracle,
    "token_pagerank": _build_pagerank_oracle,
    "survival_km": _build_km_oracle,
    "harmonic_24h": _build_harmonic_oracle,
    "lttb_downsample": _build_lttb_oracle,
    "cusum_changepoints": _build_cusum_oracle,
    "approx_distinct_docs": _build_hll_oracle,
    "approx_distinct_global": _build_hll_global_oracle,
    "bloom_new_docs": _build_bloom_oracle,
    "pack_sequences": _build_pack_oracle,
    "pack_tokens": _build_pack_tokens_oracle,
    "embedding_pca": _build_pca_oracle,
    "kalman_fill_1m": _build_kalman_oracle,
    "isotonic_fit_1h": _build_isotonic_oracle,
    "binseg_changepoints": _build_binseg_oracle,
    "pelt_changepoints": _build_pelt_oracle,
    "ann_pq_topk": _build_pq_oracle,
    "sample_entropy": _build_sampen_oracle,
    "mmr_rerank": _build_mmr_oracle,
    "logistic_quality": _build_logit_oracle,
    "mutual_knn": _build_mutual_knn_oracle,
    "knn_outlier": _build_knn_outlier_oracle,
    "engle_granger": _build_eg_oracle,
    "spearman_1h": _build_spearman_oracle,
    "vopt_histogram": _build_vopt_oracle,
    "dtw_distance": _build_dtw_oracle,
    "croston_forecast": _build_croston_oracle,
    "haar_energy": _build_haar_oracle,
    "lomb_scargle": _build_lomb_oracle,
    "spectral_entropy": _build_spectral_oracle,
    "theta_forecast": _build_theta_oracle,
    "matrix_profile": _build_matprof_oracle,
    "page_hinkley_1m": _build_page_hinkley_oracle,
}


def _fill_oracle_parquet(name: str) -> str:
    """Path of the vendored-oracle output for ``name``, built on demand from
    the SF_FOR_ORACLE fixture; cache keyed on fixture file content so a
    regenerated fixture always rebuilds."""
    import glob
    import hashlib

    from datafiller_ray.fixtures import ensure_fixture

    ensure_fixture(SF_FOR_ORACLE)
    fx = _fixture_sql_path()
    parts = [
        f"{os.path.basename(p)}:{os.stat(p).st_mtime_ns}:{os.stat(p).st_size}"
        for p in sorted(glob.glob(os.path.join(fx, "*.parquet")))
    ]
    docs = os.path.join(_oracle_sf_dir(), "documents.parquet")
    if os.path.exists(docs):
        st = os.stat(docs)
        parts.append(f"docs:{st.st_mtime_ns}:{st.st_size}")
    # the cache key must also cover the oracle CODE, or an edited oracle
    # silently serves stale tables from /tmp
    fills_py = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "tests", "oracle", "fills.py"
    )
    if os.path.exists(fills_py):
        st = os.stat(fills_py)
        parts.append(f"oracle:{st.st_mtime_ns}:{st.st_size}")
    # ... and the builder code in THIS file (an edited builder otherwise
    # serves a stale cached table)
    st = os.stat(os.path.abspath(__file__))
    parts.append(f"entry:{st.st_mtime_ns}:{st.st_size}")
    tag = hashlib.sha1("|".join(parts).encode()).hexdigest()[:12]
    d = f"/tmp/datafiller_ray_fill_oracle/{tag}"
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, f"{name}.parquet")
    if not os.path.exists(path):
        out = _FILL_ORACLE_BUILDERS[name]()
        tmp = f"{path}.building-{os.getpid()}"
        out.to_parquet(tmp, index=False)
        os.replace(tmp, path)
    return path


def oracle_sql() -> dict[str, str]:
    p = _fixture_sql_path()

    def rollup(step: int, where: str = "") -> str:
        inner = f"""
            SELECT source,
                   (CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT) * 60
                    // {step}) * {step} AS bucket_ts,
                   COUNT(*) AS n_obs,
                   CAST(SUM(n_tok) AS BIGINT) AS sum_tok,
                   CAST(MIN(n_tok) AS BIGINT) AS min_tok,
                   CAST(MAX(n_tok) AS BIGINT) AS max_tok
            FROM read_parquet('{p}/*.parquet')
            GROUP BY 1, 2
        """
        if where:
            return f"SELECT * FROM ({inner}) {where}"
        return inner

    grid_cte = f"""
        WITH obs AS (
          SELECT source,
                 CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT) * 60 AS bucket_ts,
                 COUNT(*) AS n_obs, SUM(n_tok) AS sum_tok
          FROM read_parquet('{p}/*.parquet') GROUP BY 1, 2),
        bounds AS (
          SELECT source, MIN(bucket_ts) lo, MAX(bucket_ts) hi FROM obs GROUP BY 1),
        grid AS (
          SELECT source, UNNEST(generate_series(lo, hi, 60)) AS bucket_ts FROM bounds),
        joined AS (
          SELECT g.source, g.bucket_ts, o.sum_tok, COALESCE(o.n_obs, 0) AS n_obs
          FROM grid g LEFT JOIN obs o USING (source, bucket_ts))
    """

    locf_sql = grid_cte + """
        SELECT source, bucket_ts, n_obs, fill_value FROM (
          SELECT source, bucket_ts, n_obs,
                 CAST(last_value(sum_tok IGNORE NULLS) OVER (
                     PARTITION BY source ORDER BY bucket_ts
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS DOUBLE)
                 AS fill_value
          FROM joined)
        WHERE fill_value IS NOT NULL
    """

    # hour-of-day mean fill: exact integer slot sums, ONE sum/count
    # division per (source, slot), gaps in never-observed slots dropped
    # on both sides (engine leaves them NaN, the LEFT JOIN leaves NULL)
    seasonal_sql = grid_cte + """
        , hod AS (
          SELECT source, (bucket_ts % 86400) // 3600 AS slot,
                 CAST(SUM(sum_tok) AS DOUBLE)
                     / CAST(COUNT(sum_tok) AS DOUBLE) AS slot_mean
          FROM joined WHERE sum_tok IS NOT NULL GROUP BY 1, 2)
        SELECT source, bucket_ts, n_obs,
               FLOOR(fill_value * 1000000 + 0.5) / 1000000.0 AS fill_value
        FROM (
          SELECT j.source, j.bucket_ts, j.n_obs,
                 CASE WHEN j.sum_tok IS NOT NULL
                      THEN CAST(j.sum_tok AS DOUBLE)
                      ELSE h.slot_mean END AS fill_value
          FROM joined j LEFT JOIN hod h
            ON h.source = j.source
           AND h.slot = (j.bucket_ts % 86400) // 3600)
        WHERE fill_value IS NOT NULL
    """

    linear_sql = grid_cte + """
        , win AS (
          SELECT source, bucket_ts, n_obs, sum_tok,
                 last_value(sum_tok IGNORE NULLS) OVER w_prev AS pv,
                 last_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_prev AS pts,
                 first_value(sum_tok IGNORE NULLS) OVER w_next AS nv,
                 first_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_next AS nts
          FROM joined
          WINDOW w_prev AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                 w_next AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING))
        SELECT source, bucket_ts, n_obs,
               -- floor(x*1e6+0.5)/1e6: fixed IEEE op sequence shared with
               -- the engine projection (round_even vs pc.round diverge
               -- within one ulp of half boundaries; bit at sf0.1)
               FLOOR(fill_value * 1000000 + 0.5) / 1000000.0 AS fill_value FROM (
          SELECT source, bucket_ts, n_obs,
                 CASE WHEN sum_tok IS NOT NULL THEN CAST(sum_tok AS DOUBLE)
                      WHEN pv IS NULL THEN NULL
                      WHEN nv IS NULL THEN CAST(pv AS DOUBLE)
                      ELSE pv + (CAST(nv AS DOUBLE) - pv)
                           * (bucket_ts - pts) / (nts - pts)
                 END AS fill_value
          FROM win)
        WHERE fill_value IS NOT NULL
    """

    bounded_linear_sql = grid_cte + """
        , win AS (
          SELECT source, bucket_ts, n_obs, sum_tok,
                 MAX(bucket_ts) OVER (PARTITION BY source) AS src_hi,
                 last_value(sum_tok IGNORE NULLS) OVER w_prev AS pv,
                 last_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_prev AS pts,
                 first_value(sum_tok IGNORE NULLS) OVER w_next AS nv,
                 first_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_next AS nts
          FROM joined
          WINDOW w_prev AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                 w_next AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING))
        SELECT source, bucket_ts, n_obs,
               -- floor(x*1e6+0.5)/1e6: fixed IEEE op sequence shared with
               -- the engine projection (round_even vs pc.round diverge
               -- within one ulp of half boundaries; bit at sf0.1)
               FLOOR(fill_value * 1000000 + 0.5) / 1000000.0 AS fill_value FROM (
          SELECT source, bucket_ts, n_obs,
                 CASE WHEN sum_tok IS NOT NULL THEN CAST(sum_tok AS DOUBLE)
                      WHEN pv IS NULL THEN NULL
                      -- NaN-run length; runs longer than max_gap stay unfilled
                      WHEN ((COALESCE(nts, src_hi + 60) - pts) / 60 - 1) > 30 THEN NULL
                      WHEN nv IS NULL THEN CAST(pv AS DOUBLE)
                      ELSE pv + (CAST(nv AS DOUBLE) - pv)
                           * (bucket_ts - pts) / (nts - pts)
                 END AS fill_value
          FROM win)
        WHERE fill_value IS NOT NULL
    """

    # nearest-neighbor fill (ties -> LEFT anchor), same bounded-run rule and
    # edge contract as the bounded linear oracle (leading NULL, trailing
    # clamps to pv); fill values are integer sums so the halfup absorber is
    # exact on both sides
    nearest_sql = grid_cte + """
        , win AS (
          SELECT source, bucket_ts, n_obs, sum_tok,
                 MAX(bucket_ts) OVER (PARTITION BY source) AS src_hi,
                 last_value(sum_tok IGNORE NULLS) OVER w_prev AS pv,
                 last_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_prev AS pts,
                 first_value(sum_tok IGNORE NULLS) OVER w_next AS nv,
                 first_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_next AS nts
          FROM joined
          WINDOW w_prev AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                 w_next AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING))
        SELECT source, bucket_ts, n_obs,
               FLOOR(fill_value * 1000000 + 0.5) / 1000000.0 AS fill_value FROM (
          SELECT source, bucket_ts, n_obs,
                 CASE WHEN sum_tok IS NOT NULL THEN CAST(sum_tok AS DOUBLE)
                      WHEN pv IS NULL THEN NULL
                      WHEN ((COALESCE(nts, src_hi + 60) - pts) / 60 - 1) > 30 THEN NULL
                      WHEN nv IS NULL THEN CAST(pv AS DOUBLE)
                      WHEN (bucket_ts - pts) <= (nts - bucket_ts)
                           THEN CAST(pv AS DOUBLE)
                      ELSE CAST(nv AS DOUBLE)
                 END AS fill_value
          FROM win)
        WHERE fill_value IS NOT NULL
    """

    # backward fill: next observed value anchors the run; LEADING runs are
    # fillable (length measured from the grid start), trailing runs drop
    bfill_sql = grid_cte + """
        , win AS (
          SELECT source, bucket_ts, n_obs, sum_tok,
                 MIN(bucket_ts) OVER (PARTITION BY source) AS src_lo,
                 last_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_prev AS pts,
                 first_value(sum_tok IGNORE NULLS) OVER w_next AS nv,
                 first_value(CASE WHEN sum_tok IS NOT NULL THEN bucket_ts END IGNORE NULLS)
                     OVER w_next AS nts
          FROM joined
          WINDOW w_prev AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                 w_next AS (PARTITION BY source ORDER BY bucket_ts
                            ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING))
        SELECT source, bucket_ts, n_obs,
               FLOOR(fill_value * 1000000 + 0.5) / 1000000.0 AS fill_value FROM (
          SELECT source, bucket_ts, n_obs,
                 CASE WHEN sum_tok IS NOT NULL THEN CAST(sum_tok AS DOUBLE)
                      WHEN nv IS NULL THEN NULL
                      WHEN ((nts - COALESCE(pts, src_lo - 60)) / 60 - 1) > 30 THEN NULL
                      ELSE CAST(nv AS DOUBLE)
                 END AS fill_value
          FROM win)
        WHERE fill_value IS NOT NULL
    """

    # interpolated Kneser-Ney doc scoring — shared by kn_bigram_logprob
    # and the ppl_tercile partition built on top of it; the per-term
    # probability expression mirrors the engine's numpy tree exactly
    # (GREATEST <-> maximum, left-assoc 0.75*na/c1, nb/tt grouped); only
    # AVG's summation order differs, absorbed by the shared 6-dp
    # round-even
    kn_sql = f"""
        WITH d AS (SELECT doc_id, tokens
                   FROM read_parquet('{p}/*.parquet')),
        e AS (SELECT doc_id, tokens,
                     unnest(generate_series(1, len(tokens) - 1)) AS i
              FROM d),
        b AS (SELECT doc_id,
                     CAST(tokens[i] AS BIGINT) AS a,
                     CAST(tokens[i + 1] AS BIGINT) AS bb
              FROM e),
        c2 AS (SELECT a, bb, COUNT(*)::BIGINT AS c2 FROM b GROUP BY 1, 2),
        at AS (SELECT a, CAST(SUM(c2) AS BIGINT) AS c1,
                      COUNT(*)::BIGINT AS na
               FROM c2 GROUP BY 1),
        bt AS (SELECT bb, COUNT(*)::BIGINT AS nb FROM c2 GROUP BY 1),
        t AS (SELECT CAST(COUNT(*) AS DOUBLE) AS tt FROM c2)
        SELECT b.doc_id, COUNT(*)::BIGINT AS n_bigrams,
               round_even(AVG(-LN(
                   GREATEST(CAST(c2.c2 AS DOUBLE) - 0.75, 0.0) / at.c1
                   + (0.75 * at.na / at.c1) * (bt.nb / t.tt))), 6)
                 AS mean_nll
        FROM b
        JOIN c2 ON c2.a = b.a AND c2.bb = b.bb
        JOIN at ON at.a = b.a
        JOIN bt ON bt.bb = b.bb
        CROSS JOIN t
        GROUP BY 1
    """

    # DSIR importance weights: splitmix64 feature hashing mirrored in
    # HUGEINT-mod CTEs; weight expression shaped exactly like the
    # engine's (ln(ct+1) - ln(T+B) - ln(cr+1) + ln(R+B)), round6 absorbs
    _dsir_B = 8192
    _dsir_ctes, _dsir_fin = _sql_splitmix_ctes(
        "dsir_bg", ["doc_id", "source"], "CAST(key AS UBIGINT)", "dsr"
    )
    dsir_sql = f"""
        WITH dsir_e AS (
          SELECT doc_id, source, tokens,
                 unnest(generate_series(1, len(tokens) - 1)) AS i
          FROM read_parquet('{p}/*.parquet')),
        dsir_bg AS (
          SELECT doc_id, source,
                 CAST(tokens[i] AS BIGINT) * 4294967296
                 + CAST(tokens[i + 1] AS BIGINT) AS key
          FROM dsir_e),
        {_dsir_ctes},
        occ AS (SELECT doc_id, source,
                       CAST(v % {_dsir_B} AS BIGINT) AS f
                FROM {_dsir_fin}),
        c AS (SELECT f, COUNT(*)::BIGINT AS cr,
                     SUM(CASE WHEN source IN {_CORR_REFS!r}
                              THEN 1 ELSE 0 END)::BIGINT AS ct
              FROM occ GROUP BY 1),
        tot AS (SELECT CAST(SUM(cr) AS DOUBLE) AS r,
                       CAST(SUM(ct) AS DOUBLE) AS t
                FROM c),
        w AS (SELECT f,
                     LN(CAST(ct AS DOUBLE) + 1.0) - LN(t + {_dsir_B})
                     - (LN(CAST(cr AS DOUBLE) + 1.0) - LN(r + {_dsir_B}))
                       AS w
              FROM c CROSS JOIN tot)
        SELECT occ.doc_id, COUNT(*)::BIGINT AS n_feats,
               FLOOR(SUM(w.w) * 1000000 + 0.5) / 1000000.0 AS log_weight
        FROM occ JOIN w USING (f)
        GROUP BY 1
    """

    out = {
        "rollup_1m": rollup(60),
        "rollup_1h": rollup(3600),
        "rollup_1d": rollup(86400),
        "rollup_1m_bucketed": rollup(60),
        "rollup_inferred_step": f"""
            SELECT source,
                   (CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT) * 60
                    // 300) * 300 AS bucket_ts,
                   COUNT(*) AS n_obs,
                   CAST(SUM(n_tok) AS BIGINT) AS sum_tok,
                   CAST(MIN(n_tok) AS BIGINT) AS min_tok,
                   CAST(MAX(n_tok) AS BIGINT) AS max_tok
            FROM read_parquet('{p}/*.parquet')
            WHERE CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT) % 5 = 0
            GROUP BY 1, 2
        """,
        # Hill tail index: exact-integer top-(k+1) order statistics per
        # source, per-term LN chain mirrored, round6 absorbs term order
        "hill_tail": f"""
            WITH obs AS (
              SELECT source, CAST(SUM(n_tok) AS BIGINT) AS s
              FROM read_parquet('{p}/*.parquet')
              GROUP BY source,
                       CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)),
            r AS (SELECT source, CAST(s AS DOUBLE) AS s,
                         ROW_NUMBER() OVER (
                             PARTITION BY source ORDER BY s DESC) AS rn,
                         COUNT(*) OVER (PARTITION BY source) AS n
                  FROM obs),
            k1 AS (SELECT source, s AS xk1, n FROM r
                   WHERE rn = 21 AND s > 0),
            h AS (SELECT r.source, MAX(k1.n) AS n_buckets,
                         SUM(LN(r.s) - LN(k1.xk1)) / 20.0 AS hill
                  FROM r JOIN k1 USING (source) WHERE r.rn <= 20
                  GROUP BY 1)
            SELECT source, CAST(n_buckets AS BIGINT) AS n_buckets,
                   FLOOR(hill * 1000000 + 0.5) / 1000000.0 AS hill,
                   FLOOR(1.0 / hill * 1000000 + 0.5) / 1000000.0
                     AS tail_index
            FROM h WHERE hill > 0
        """,
        "source_correlation": f"""
            WITH obs AS (
              SELECT source,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT) * 60
                         AS bucket_ts,
                     CAST(SUM(n_tok) AS BIGINT) AS s
              FROM read_parquet('{p}/*.parquet') GROUP BY 1, 2),
            refs AS (
              SELECT source AS ref_source, bucket_ts, s AS rs FROM obs
              WHERE source IN {_CORR_REFS!r}),
            j AS (
              SELECT o.source, r.ref_source, o.s AS x, r.rs AS y
              FROM obs o JOIN refs r USING (bucket_ts)
              WHERE o.source <> r.ref_source),
            m AS (
              SELECT source, ref_source,
                     COUNT(*)::HUGEINT AS n,
                     SUM(x)::HUGEINT AS sx, SUM(y)::HUGEINT AS sy,
                     SUM(x * y)::HUGEINT AS sxy,
                     SUM(x * x)::HUGEINT AS sxx,
                     SUM(y * y)::HUGEINT AS syy
              FROM j GROUP BY 1, 2),
            c AS (
              SELECT source, ref_source, CAST(n AS BIGINT) AS n_common,
                     (n * sxy - sx * sy) AS num,
                     (n * sxx - sx * sx) AS d1,
                     (n * syy - sy * sy) AS d2
              FROM m)
            SELECT source, ref_source, n_common,
                   -- exact integer moments feed ONE pinned float expression
                   -- (same op order as the engine), then the engine-wide
                   -- floor-half-up 6-decimal absorber
                   FLOOR((CAST(num AS DOUBLE)
                          / SQRT(CAST(d1 AS DOUBLE) * CAST(d2 AS DOUBLE)))
                         * 1000000 + 0.5) / 1000000.0 AS corr
            FROM c WHERE n_common >= 3 AND d1 > 0 AND d2 > 0
        """,
        "gapfill_linear_bounded_1m": bounded_linear_sql,
        "gapfill_linear_salted_1m": bounded_linear_sql,
        "retention_1h": rollup(3600, f"WHERE bucket_ts >= {_RETENTION_CUTOFF}"),
        "gapfill_locf_1m": locf_sql,
        "gapfill_seasonal_1m": seasonal_sql,
        "gapfill_nearest_1m": nearest_sql,
        "gapfill_bfill_1m": bfill_sql,
        "gapfill_linear_1m": linear_sql,
        "token_stats": f"""
            SELECT source, COUNT(*) AS n_docs,
                   CAST(SUM(n_tok) AS BIGINT) AS total_tok,
                   CAST(MIN(n_tok) AS BIGINT) AS min_tok,
                   CAST(MAX(n_tok) AS BIGINT) AS max_tok,
                   round_even(SUM(CAST(n_tok AS DOUBLE)) / COUNT(*), 6) AS avg_tok
            FROM read_parquet('{p}/*.parquet') GROUP BY 1
        """,
        "dedup_exact": """
            SELECT doc_id, source, n_chars FROM documents
            WHERE doc_id IN (SELECT MIN(doc_id) FROM documents GROUP BY text)
        """,
        "text_stats": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '\S+')) AS tok_count,
                   length(text) AS n_chars,
                   round_even(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                         / GREATEST(length(text), 1)::DOUBLE, 6) AS alpha_ratio,
                   round_even(length(regexp_replace(text, '[^0-9]', '', 'g'))
                         / GREATEST(length(text), 1)::DOUBLE, 6) AS digit_ratio,
                   round_even((length(text) - length(replace(text, ' ', '')))
                         / GREATEST(length(text), 1)::DOUBLE, 6) AS space_ratio
            FROM documents
        """,
        "quality_filter": r"""
            SELECT doc_id, source, n_chars FROM documents
            WHERE len(regexp_extract_all(text, '\S+')) >= 5
              AND round_even(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                             / GREATEST(length(text), 1)::DOUBLE, 6) >= 0.5
              AND round_even(length(regexp_replace(text, '[^0-9]', '', 'g'))
                             / GREATEST(length(text), 1)::DOUBLE, 6) <= 0.3
        """,
        "corpus_prepare": _corpus_prepare_sql(),
        # Deequ-style constraint suite: all-integer counters
        "quality_checks": """
            WITH n AS (SELECT CAST(COUNT(*) AS BIGINT) AS n_rows
                       FROM documents),
            checks AS (
              SELECT 'text_nonempty' AS check_name,
                     (SELECT n_rows FROM n) AS n_rows,
                     CAST(SUM(CASE WHEN text IS NULL OR length(text) = 0
                                   THEN 1 ELSE 0 END) AS BIGINT)
                         AS n_violations
              FROM documents
              UNION ALL
              SELECT 'nchars_consistent', (SELECT n_rows FROM n),
                     CAST(SUM(CASE WHEN text IS NULL OR n_chars IS NULL
                                        OR n_chars <> length(text)
                                   THEN 1 ELSE 0 END) AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'lang_present', (SELECT n_rows FROM n),
                     CAST(SUM(CASE WHEN lang IS NULL OR length(lang) = 0
                                   THEN 1 ELSE 0 END) AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'nchars_range', (SELECT n_rows FROM n),
                     CAST(SUM(CASE WHEN n_chars IS NULL OR n_chars < 1
                                        OR n_chars > 100000
                                   THEN 1 ELSE 0 END) AS BIGINT)
              FROM documents
              UNION ALL
              SELECT 'doc_id_unique', (SELECT n_rows FROM n),
                     (SELECT n_rows FROM n)
                         - CAST(COUNT(DISTINCT doc_id) AS BIGINT)
              FROM documents)
            SELECT check_name, n_rows, n_violations,
                   CAST(CASE WHEN n_violations = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS passed
            FROM checks
        """,
        "ann_topk": f"""
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qe
              FROM embeddings ORDER BY vec_id LIMIT {_ANN_NQ}),
            sims AS (
              SELECT q.query_id, e.vec_id,
                     round_even(list_cosine_similarity(q.qe, e.embedding), 6) AS sim
              FROM q CROSS JOIN embeddings e)
            SELECT query_id, rank, vec_id FROM (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, vec_id) AS rank
              FROM sims)
            WHERE rank <= {_ANN_K}
        """,
        "ann_filtered_topk": f"""
            WITH q AS (
              SELECT vec_id AS query_id, embedding AS qe, label AS ql
              FROM embeddings ORDER BY vec_id LIMIT {_ANN_NQ}),
            sims AS (
              SELECT q.query_id, e.vec_id,
                     round_even(list_cosine_similarity(q.qe, e.embedding), 6) AS sim
              FROM q JOIN embeddings e ON e.label = q.ql)
            SELECT query_id, rank, vec_id FROM (
              SELECT query_id, vec_id,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, vec_id) AS rank
              FROM sims)
            WHERE rank <= {_ANN_K}
        """,
        "events_rollup_1m": """
            SELECT event_type,
                   (epoch_us(ts) // 1000000 // 60) * 60 AS bucket_ts,
                   COUNT(*) AS n_events,
                   round_even(SUM(value), 6) AS sum_value,
                   MIN(value) AS min_value,
                   MAX(value) AS max_value
            FROM events GROUP BY 1, 2
        """,
        "events_rollup_week": """
            SELECT event_type,
                   epoch_us(CAST(date_trunc('week', ts) AS TIMESTAMP))
                     // 1000000 AS bucket_ts,
                   COUNT(*) AS n_events,
                   round_even(SUM(value), 6) AS sum_value,
                   MIN(value) AS min_value,
                   MAX(value) AS max_value
            FROM events GROUP BY 1, 2
        """,
        "time_weighted_avg_1h": """
            WITH e AS (
              SELECT event_type, event_id,
                     epoch_us(ts) // 1000000 AS ts_s,
                     (epoch_us(ts) // 1000000 // 3600) * 3600 AS bucket_ts,
                     CAST(FLOOR(value * 1000000 + 0.5) AS BIGINT) AS v_int
              FROM events),
            w AS (
              SELECT event_type, bucket_ts, v_int,
                     COALESCE(LEAD(ts_s) OVER (PARTITION BY event_type, bucket_ts
                                               ORDER BY ts_s, event_id),
                              bucket_ts + 3600) - ts_s AS w
              FROM e)
            SELECT event_type, bucket_ts,
                   COUNT(*) AS n_obs,
                   CAST(SUM(w) AS BIGINT) AS wsum,
                   CAST(SUM(v_int * w) AS DOUBLE)
                     / (1000000.0 * CAST(SUM(w) AS DOUBLE)) AS twa
            FROM w GROUP BY 1, 2
        """,
        "events_rolling_1m": """
            WITH r AS (
              SELECT event_type,
                     (epoch_us(ts) // 1000000 // 60) * 60 AS bucket_ts,
                     COUNT(*) AS n_events
              FROM events GROUP BY 1, 2)
            SELECT event_type, bucket_ts, n_events,
                   COUNT(*) OVER w AS roll_cnt,
                   CAST(SUM(n_events) OVER w AS BIGINT) AS roll_n_events,
                   CAST(MIN(n_events) OVER w AS BIGINT) AS roll_min_events,
                   CAST(MAX(n_events) OVER w AS BIGINT) AS roll_max_events,
                   FLOOR(CAST(SUM(n_events) OVER w AS DOUBLE) / COUNT(*) OVER w
                         * 1000000 + 0.5) / 1000000.0 AS roll_mean_events
            FROM r
            WINDOW w AS (PARTITION BY event_type ORDER BY bucket_ts
                         ROWS BETWEEN 59 PRECEDING AND CURRENT ROW)
        """,
        "events_gapfill_locf_1m": """
            WITH obs AS (
              SELECT event_type,
                     (epoch_us(ts) // 1000000 // 60) * 60 AS bucket_ts,
                     COUNT(*) AS n_events, round_even(SUM(value), 6) AS sum_value
              FROM events GROUP BY 1, 2),
            bounds AS (
              SELECT event_type, MIN(bucket_ts) lo, MAX(bucket_ts) hi
              FROM obs GROUP BY 1),
            grid AS (
              SELECT event_type, UNNEST(generate_series(lo, hi, 60)) AS bucket_ts
              FROM bounds),
            joined AS (
              SELECT g.event_type, g.bucket_ts, o.sum_value,
                     COALESCE(o.n_events, 0) AS n_events
              FROM grid g LEFT JOIN obs o USING (event_type, bucket_ts))
            SELECT event_type, bucket_ts, n_events, fill_value FROM (
              SELECT event_type, bucket_ts, n_events,
                     last_value(sum_value IGNORE NULLS) OVER (
                         PARTITION BY event_type ORDER BY bucket_ts
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS fill_value
              FROM joined)
            WHERE fill_value IS NOT NULL
        """,
        # The engine evaluates the interpolation with this expression's
        # exact op order (pv + (nv - pv) * (t - pts) / (nts - pts)), so the
        # pre-round doubles are bit-identical on both sides and the round-6
        # cannot split on half-ulp boundaries (the round-1 rows-only cause).
        "events_gapfill_linear_1m": """
            WITH obs AS (
              SELECT event_type,
                     (epoch_us(ts) // 1000000 // 60) * 60 AS bucket_ts,
                     COUNT(*) AS n_events, round_even(SUM(value), 6) AS sum_value
              FROM events GROUP BY 1, 2),
            bounds AS (
              SELECT event_type, MIN(bucket_ts) lo, MAX(bucket_ts) hi
              FROM obs GROUP BY 1),
            grid AS (
              SELECT event_type, UNNEST(generate_series(lo, hi, 60)) AS bucket_ts
              FROM bounds),
            joined AS (
              SELECT g.event_type, g.bucket_ts, o.sum_value,
                     COALESCE(o.n_events, 0) AS n_events
              FROM grid g LEFT JOIN obs o USING (event_type, bucket_ts)),
            win AS (
              SELECT event_type, bucket_ts, n_events, sum_value,
                     last_value(sum_value IGNORE NULLS) OVER w_prev AS pv,
                     last_value(CASE WHEN sum_value IS NOT NULL THEN bucket_ts END
                                IGNORE NULLS) OVER w_prev AS pts,
                     first_value(sum_value IGNORE NULLS) OVER w_next AS nv,
                     first_value(CASE WHEN sum_value IS NOT NULL THEN bucket_ts END
                                 IGNORE NULLS) OVER w_next AS nts
              FROM joined
              WINDOW w_prev AS (PARTITION BY event_type ORDER BY bucket_ts
                                ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
                     w_next AS (PARTITION BY event_type ORDER BY bucket_ts
                                ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING))
            SELECT event_type, bucket_ts, n_events,
                   -- floor(x*1e6+0.5)/1e6: fixed IEEE op sequence shared
                   -- with the engine (np.round / round_even implementations
                   -- disagree within a ulp of half boundaries)
                   FLOOR(fill_value * 1000000 + 0.5) / 1000000.0 AS fill_value
            FROM (
              SELECT event_type, bucket_ts, n_events,
                     CASE WHEN sum_value IS NOT NULL THEN sum_value
                          WHEN pv IS NULL THEN NULL
                          WHEN nv IS NULL THEN pv
                          ELSE pv + (nv - pv) * (bucket_ts - pts) / (nts - pts)
                     END AS fill_value
              FROM win)
            WHERE fill_value IS NOT NULL
        """,
        "events_sessions": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) // 1000000 AS s FROM events),
            marked AS (
              SELECT user_id, s,
                     CASE WHEN s - lag(s) OVER (PARTITION BY user_id ORDER BY s)
                               > 1800
                          OR lag(s) OVER (PARTITION BY user_id ORDER BY s) IS NULL
                          THEN 1 ELSE 0 END AS brk
              FROM e),
            sess AS (
              SELECT user_id, s,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY s
                                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS sid
              FROM marked)
            SELECT user_id,
                   MIN(s) AS session_start,
                   COUNT(*) AS n_events,
                   MAX(s) - MIN(s) AS duration_sec
            FROM sess GROUP BY user_id, sid
        """,
        "purchase_attribution": """
            WITH p AS (
              SELECT event_id, user_id, epoch_us(ts) AS ts_us
              FROM events WHERE event_type = 'purchase'),
            c AS (
              SELECT user_id, epoch_us(ts) AS ts_us, value
              FROM events WHERE event_type = 'click')
            SELECT p.event_id, p.user_id, p.ts_us,
                   c.ts_us AS click_ts_us, c.value AS click_value
            FROM p ASOF JOIN c
              ON p.user_id = c.user_id AND p.ts_us >= c.ts_us
        """,
        "session_range_join": """
            WITH e AS (
              SELECT event_id, user_id, epoch_us(ts) // 1000000 AS ts_s
              FROM events),
            marked AS (
              SELECT user_id, ts_s AS s,
                     CASE WHEN s - lag(s) OVER (PARTITION BY user_id ORDER BY s)
                               > 1800
                          OR lag(s) OVER (PARTITION BY user_id ORDER BY s) IS NULL
                          THEN 1 ELSE 0 END AS brk
              FROM e),
            sess AS (
              SELECT user_id, s,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY s
                                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                     AS sid
              FROM marked),
            windows AS (
              SELECT user_id, MIN(s) AS session_start, MAX(s) AS session_end,
                     COUNT(*) AS session_n_events
              FROM sess GROUP BY user_id, sid)
            SELECT e.event_id, e.user_id, e.ts_s,
                   w.session_start, w.session_n_events
            FROM e JOIN windows w
              ON e.user_id = w.user_id
             AND e.ts_s BETWEEN w.session_start AND w.session_end
        """,
        "sample_stratified": _sample_stratified_sql(),
        "sample_fixed_k": _sample_fixed_k_sql(),
        "shuffle_manifest": _shuffle_manifest_sql(),
        "bigram_topk": _bigram_topk_sql(),
        "pmi_topk": _pmi_topk_sql(),
        "events_skew_report": _events_skew_report_sql(),
        "cms_heavy_hitters": _cms_heavy_hitters_sql(),
        "budget_sample": _budget_sample_sql(),
        "temperature_sample": _temperature_sample_sql(),
        "global_quantiles": """
            SELECT
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.25)*1000000 + 0.5)/1000000 AS q0_25,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.5)*1000000 + 0.5)/1000000 AS q0_5,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.75)*1000000 + 0.5)/1000000 AS q0_75,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.9)*1000000 + 0.5)/1000000 AS q0_9,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.99)*1000000 + 0.5)/1000000 AS q0_99
            FROM documents
        """,
        # BM25 (k1=1.2, b=0.75, query "fast hash join"): integer tf/df/dl
        # from the shared \w+|[^\w\s] tokenizer; the float score is the
        # same expression tree as the engine's, rounded 6-dp floor-half-up
        # (SUM over <= 3 terms: op-order drift « 1e-6)
        "text_index_and": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\w+|[^\w\s]')) AS tok
              FROM documents),
            tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM toks
                   WHERE tok IN ('fast','hash','join') GROUP BY doc_id, tok)
            SELECT doc_id, SUM(tf)::BIGINT AS total_tf
            FROM tf GROUP BY doc_id HAVING count(*) = 3
            ORDER BY doc_id
        """,
        "text_index_topk": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\w+|[^\w\s]')) AS tok
              FROM documents),
            tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM toks
                   WHERE tok IN ('fast','hash','join') GROUP BY doc_id, tok),
            sums AS (SELECT doc_id, SUM(tf)::BIGINT AS total_tf
                     FROM tf GROUP BY doc_id)
            SELECT doc_id, total_tf,
                   ROW_NUMBER() OVER (ORDER BY total_tf DESC, doc_id)::BIGINT
                     AS rank
            FROM sums ORDER BY total_tf DESC, doc_id LIMIT 20
        """,
        "bm25_topk": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\w+|[^\w\s]')) AS tok
              FROM documents),
            dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY doc_id),
            g AS (SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
                         (SELECT count(*) FROM toks)::BIGINT AS total_dl),
            tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM toks
                   WHERE tok IN ('fast','hash','join') GROUP BY doc_id, tok),
            df AS (SELECT tok, count(DISTINCT doc_id)::BIGINT AS df FROM toks
                   WHERE tok IN ('fast','hash','join') GROUP BY tok),
            scored AS (
              SELECT tf.doc_id,
                     SUM( ln(1.0 + (g.n_docs - df.df + 0.5) / (df.df + 0.5))
                          * (tf.tf * (1.2 + 1.0))
                          / (tf.tf + 1.2 * (1.0 - 0.75
                               + 0.75 * dl.dl
                                 / (CAST(g.total_dl AS DOUBLE) / g.n_docs))) ) AS raw
              FROM tf JOIN df USING (tok) JOIN dl USING (doc_id) CROSS JOIN g
              GROUP BY tf.doc_id)
            SELECT doc_id, floor(raw * 1000000 + 0.5) / 1000000 AS score
            FROM scored ORDER BY score DESC, doc_id LIMIT 20
        """,
        "hybrid_search_rrf": r"""
            WITH toks AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\w+|[^\w\s]')) AS tok
              FROM documents),
            dl AS (SELECT doc_id, count(*)::BIGINT AS dl FROM toks GROUP BY doc_id),
            g AS (SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
                         (SELECT count(*) FROM toks)::BIGINT AS total_dl),
            tf AS (SELECT doc_id, tok, count(*)::BIGINT AS tf FROM toks
                   WHERE tok IN ('fast','hash','join') GROUP BY doc_id, tok),
            df AS (SELECT tok, count(DISTINCT doc_id)::BIGINT AS df FROM toks
                   WHERE tok IN ('fast','hash','join') GROUP BY tok),
            scored AS (
              SELECT tf.doc_id,
                     SUM( ln(1.0 + (g.n_docs - df.df + 0.5) / (df.df + 0.5))
                          * (tf.tf * (1.2 + 1.0))
                          / (tf.tf + 1.2 * (1.0 - 0.75
                               + 0.75 * dl.dl
                                 / (CAST(g.total_dl AS DOUBLE) / g.n_docs))) ) AS raw
              FROM tf JOIN df USING (tok) JOIN dl USING (doc_id) CROSS JOIN g
              GROUP BY tf.doc_id),
            bm_top AS (
              SELECT doc_id, floor(raw * 1000000 + 0.5) / 1000000 AS score
              FROM scored ORDER BY score DESC, doc_id LIMIT 20),
            bm AS (
              SELECT doc_id,
                     1000000000000 // (60 + CAST(row_number() OVER (
                         ORDER BY score DESC, doc_id) AS BIGINT)) AS c
              FROM bm_top),
            q AS (SELECT embedding AS qe FROM embeddings
                  ORDER BY vec_id LIMIT 1),
            sims AS (
              SELECT e.vec_id,
                     round_even(list_cosine_similarity(q.qe, e.embedding), 6)
                       AS sim
              FROM q CROSS JOIN embeddings e),
            ann_top AS (
              SELECT vec_id,
                     CAST(row_number() OVER (ORDER BY sim DESC, vec_id)
                          AS BIGINT) AS r
              FROM sims QUALIFY r <= 20),
            ann AS (SELECT vec_id AS doc_id, 1000000000000 // (60 + r) AS c
                    FROM ann_top),
            u AS (SELECT doc_id, CAST(SUM(c) AS BIGINT) AS rrf_e12
                  FROM (SELECT * FROM bm UNION ALL SELECT * FROM ann)
                  GROUP BY 1)
            SELECT CAST(row_number() OVER (ORDER BY rrf_e12 DESC, doc_id)
                        AS BIGINT) AS rank,
                   doc_id, rrf_e12
            FROM u QUALIFY rank <= 10
        """,
        "equidepth_histogram": """
            SELECT tile, MIN(n_chars) AS lo, MAX(n_chars) AS hi,
                   count(*)::BIGINT AS n_rows
            FROM (SELECT n_chars,
                         CAST(NTILE(8) OVER (ORDER BY n_chars, doc_id)
                              AS BIGINT) AS tile
                  FROM documents)
            GROUP BY tile
        """,
        "daily_active_users": """
            SELECT epoch_us(ts) // 86400000000 AS day,
                   count(DISTINCT user_id)::BIGINT AS dau,
                   count(*)::BIGINT AS n_events
            FROM events GROUP BY 1
        """,
        "rolling_active_users": """
            WITH du AS (
              SELECT DISTINCT epoch_us(ts) // 86400000000 AS day, user_id
              FROM events),
            days AS (SELECT DISTINCT day FROM du)
            SELECT d.day, count(DISTINCT du.user_id)::BIGINT AS wau
            FROM days d JOIN du
              ON du.day BETWEEN d.day - 6 AND d.day
            GROUP BY d.day
        """,
        "source_ks": """
            WITH c AS (SELECT source, n_chars AS v, count(*)::BIGINT AS cnt
                       FROM documents GROUP BY 1, 2),
            n AS (SELECT source, count(*)::BIGINT AS n
                  FROM documents GROUP BY 1),
            grid AS (SELECT DISTINCT v FROM c),
            gc AS (SELECT s.source, g.v
                   FROM (SELECT DISTINCT source FROM c) s CROSS JOIN grid g),
            cum AS (SELECT gc.source, gc.v,
                           SUM(COALESCE(c.cnt, 0)) OVER (
                               PARTITION BY gc.source ORDER BY gc.v) AS cum
                    FROM gc LEFT JOIN c
                      ON c.source = gc.source AND c.v = gc.v)
            SELECT a.source AS src_a, b.source AS src_b,
                   na.n AS n_a, nb.n AS n_b,
                   floor(CAST(MAX(ABS(CAST(a.cum AS HUGEINT) * nb.n
                                     - CAST(b.cum AS HUGEINT) * na.n))
                              AS DOUBLE)
                         / (na.n * nb.n) * 1000000 + 0.5) / 1000000.0 AS ks
            FROM cum a
            JOIN cum b ON a.v = b.v AND a.source < b.source
            JOIN n na ON na.source = a.source
            JOIN n nb ON nb.source = b.source
            GROUP BY a.source, b.source, na.n, nb.n
        """,
        "lang_source_contingency": """
            WITH c AS (SELECT source, lang, count(*)::BIGINT AS cnt
                       FROM documents GROUP BY 1, 2),
            r AS (SELECT source, count(*)::BIGINT AS rn
                  FROM documents GROUP BY 1),
            l AS (SELECT lang, count(*)::BIGINT AS cn
                  FROM documents GROUP BY 1),
            n AS (SELECT count(*)::BIGINT AS nn FROM documents)
            SELECT r.source, l.lang,
                   COALESCE(c.cnt, 0)::BIGINT AS observed,
                   floor(CAST(r.rn AS DOUBLE) * l.cn / n.nn
                         * 1000000 + 0.5) / 1000000.0 AS expected,
                   floor((COALESCE(c.cnt, 0)
                          - CAST(r.rn AS DOUBLE) * l.cn / n.nn)
                         / sqrt(CAST(r.rn AS DOUBLE) * l.cn / n.nn)
                         * 1000000 + 0.5) / 1000000.0 AS std_resid
            FROM r CROSS JOIN l CROSS JOIN n
            LEFT JOIN c ON c.source = r.source AND c.lang = l.lang
        """,
        "wasserstein_drift": """
            WITH c AS (SELECT source, n_chars AS v, count(*)::BIGINT AS cnt
                       FROM documents GROUP BY 1, 2),
            n AS (SELECT source, count(*)::BIGINT AS n
                  FROM documents GROUP BY 1),
            tot AS (SELECT count(*)::BIGINT AS nn FROM documents),
            grid AS (SELECT DISTINCT v FROM c),
            gv AS (SELECT v, LEAD(v) OVER (ORDER BY v) - v AS dv FROM grid),
            gc AS (SELECT s.source, g.v
                   FROM (SELECT DISTINCT source FROM c) s CROSS JOIN grid g),
            cum AS (SELECT gc.source, gc.v,
                           SUM(COALESCE(c.cnt, 0)) OVER (
                               PARTITION BY gc.source ORDER BY gc.v) AS cum
                    FROM gc LEFT JOIN c
                      ON c.source = gc.source AND c.v = gc.v),
            pool AS (SELECT v, SUM(cnt) OVER (ORDER BY v) AS cum
                     FROM (SELECT v, SUM(cnt)::BIGINT AS cnt
                           FROM c GROUP BY v))
            SELECT a.source, n.n AS n_rows,
                   floor(CAST(SUM(ABS(CAST(a.cum AS HUGEINT) * tot.nn
                                      - CAST(p.cum AS HUGEINT) * n.n)
                                  * gv.dv) AS DOUBLE)
                         / (n.n * tot.nn) * 1000000 + 0.5) / 1000000.0
                       AS w1
            FROM cum a
            JOIN pool p ON p.v = a.v
            JOIN gv ON gv.v = a.v
            JOIN n ON n.source = a.source
            CROSS JOIN tot
            WHERE gv.dv IS NOT NULL
            GROUP BY a.source, n.n, tot.nn
        """,
        "length_ntile": """
            SELECT doc_id, n_chars,
                   CAST(NTILE(8) OVER (ORDER BY n_chars, doc_id) AS BIGINT)
                       AS tile
            FROM documents
        """,
        "vocab_topk": r"""
            SELECT tok, cnt FROM (
              SELECT tok, count(*)::BIGINT AS cnt FROM (
                SELECT unnest(regexp_extract_all(text, '\w+|[^\w\s]')) AS tok
                FROM documents)
              GROUP BY tok)
            ORDER BY cnt DESC, tok LIMIT 100
        """,
        "source_quantiles": """
            SELECT source,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.25)*1000000 + 0.5)/1000000 AS q0_25,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.5)*1000000 + 0.5)/1000000 AS q0_5,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.75)*1000000 + 0.5)/1000000 AS q0_75,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.9)*1000000 + 0.5)/1000000 AS q0_9,
              floor(quantile_cont(CAST(n_chars AS DOUBLE), 0.99)*1000000 + 0.5)/1000000 AS q0_99
            FROM documents GROUP BY source
        """,
        # sliding-window family over the rollup_1m result (ROWS windows over
        # observed buckets; int64-exact sums, one-division half-up mean —
        # the engine computes the identical IEEE expression tree)
        "rolling_window_1m": f"""
            SELECT source, bucket_ts, sum_tok,
                   COUNT(*) OVER w AS roll_cnt,
                   CAST(SUM(sum_tok) OVER w AS BIGINT) AS roll_sum_tok,
                   CAST(MIN(sum_tok) OVER w AS BIGINT) AS roll_min_tok,
                   CAST(MAX(sum_tok) OVER w AS BIGINT) AS roll_max_tok,
                   FLOOR(CAST(SUM(sum_tok) OVER w AS DOUBLE) / COUNT(*) OVER w
                         * 1000000 + 0.5) / 1000000.0 AS roll_mean_tok
            FROM ({rollup(60)})
            WINDOW w AS (PARTITION BY source ORDER BY bucket_ts
                         ROWS BETWEEN 59 PRECEDING AND CURRENT ROW)
        """,
        "topk_buckets": f"""
            SELECT source, bucket_ts, sum_tok, rnk FROM (
              SELECT source, bucket_ts, sum_tok,
                     ROW_NUMBER() OVER (PARTITION BY source
                         ORDER BY sum_tok DESC, bucket_ts ASC) AS rnk
              FROM ({rollup(60)}))
            WHERE rnk <= 5
        """,
        "rolling_anomaly": f"""
            SELECT source, bucket_ts, sum_tok, roll_cnt, roll_sum_tok,
                   roll_min_tok, roll_max_tok, roll_mean_tok
            FROM (
              SELECT source, bucket_ts, sum_tok,
                     COUNT(*) OVER w AS roll_cnt,
                     CAST(SUM(sum_tok) OVER w AS BIGINT) AS roll_sum_tok,
                     CAST(MIN(sum_tok) OVER w AS BIGINT) AS roll_min_tok,
                     CAST(MAX(sum_tok) OVER w AS BIGINT) AS roll_max_tok,
                     FLOOR(CAST(SUM(sum_tok) OVER w AS DOUBLE) / COUNT(*) OVER w
                           * 1000000 + 0.5) / 1000000.0 AS roll_mean_tok,
                     CAST(SUM(sum_tok) OVER w AS DOUBLE) / COUNT(*) OVER w
                         AS mean_raw
              FROM ({rollup(60)})
              WINDOW w AS (PARTITION BY source ORDER BY bucket_ts
                           ROWS BETWEEN 59 PRECEDING AND CURRENT ROW))
            WHERE roll_cnt >= 10 AND CAST(sum_tok AS DOUBLE) > 1.5 * mean_raw
        """,
        "bucket_deltas": f"""
            SELECT source, bucket_ts, sum_tok, delta_tok, dt_sec,
                   FLOOR(CAST(delta_tok AS DOUBLE) / dt_sec
                         * 1000000 + 0.5) / 1000000.0 AS rate_tok_s
            FROM (
              SELECT source, bucket_ts, sum_tok,
                     sum_tok - LAG(sum_tok) OVER w AS delta_tok,
                     bucket_ts - LAG(bucket_ts) OVER w AS dt_sec
              FROM ({rollup(60)})
              WINDOW w AS (PARTITION BY source ORDER BY bucket_ts))
            WHERE delta_tok IS NOT NULL
        """,
        "hourly_profile": f"""
            SELECT source, (bucket_ts % 86400) // 3600 AS hod,
                   COUNT(*) AS n_buckets,
                   CAST(SUM(sum_tok) AS BIGINT) AS sum_tok,
                   FLOOR(CAST(SUM(sum_tok) AS DOUBLE) / COUNT(*)
                         * 1000000 + 0.5) / 1000000.0 AS mean_tok
            FROM ({rollup(60)})
            GROUP BY 1, 2
        """,
        "seasonal_anomaly": f"""
            WITH r AS ({rollup(60)}),
            hodr AS (
              SELECT source, bucket_ts, sum_tok,
                     (bucket_ts % 86400) // 3600 AS hod FROM r),
            prof AS (
              SELECT source, hod, COUNT(*) AS n_buckets,
                     CAST(SUM(sum_tok) AS DOUBLE) / COUNT(*) AS mean_raw
              FROM hodr GROUP BY 1, 2)
            SELECT h.source, h.bucket_ts, h.hod, h.sum_tok,
                   FLOOR(p.mean_raw * 1000000 + 0.5) / 1000000.0
                       AS hod_mean_tok
            FROM hodr h JOIN prof p USING (source, hod)
            WHERE p.n_buckets >= 5
              AND CAST(h.sum_tok AS DOUBLE) > 1.5 * p.mean_raw
        """,
        "token_histogram": f"""
            SELECT source, CAST(n_tok // 64 AS BIGINT) AS bin,
                   CAST((n_tok // 64) * 64 AS BIGINT) AS bin_lo,
                   COUNT(*) AS n_rows
            FROM read_parquet('{p}/*.parquet')
            GROUP BY 1, 2, 3
        """,
        "lang_id": _lang_id_sql(),
        "token_count_bpe": r"""
            SELECT doc_id,
                   CASE WHEN length(trim(text)) = 0 THEN 0
                        ELSE len(regexp_extract_all(trim(text), '\S+'))
                   END AS tok_ws,
                   len(regexp_extract_all(text, '\w+|[^\w\s]')) AS tok_bpe
            FROM documents
        """,
        "tokenizer_fertility": r"""
            WITH per_doc AS (
              SELECT source,
                     CASE WHEN length(trim(text)) = 0 THEN 0
                          ELSE len(regexp_extract_all(trim(text), '\S+'))
                     END AS words,
                     len(regexp_extract_all(text, '\w+|[^\w\s]')) AS toks,
                     n_chars
              FROM documents),
            s AS (SELECT source,
                         COUNT(*)::BIGINT AS n_docs,
                         CAST(SUM(toks) AS BIGINT) AS sum_tok,
                         CAST(SUM(words) AS BIGINT) AS sum_words,
                         CAST(SUM(n_chars) AS BIGINT) AS sum_chars
                  FROM per_doc GROUP BY 1)
            SELECT source, n_docs, sum_tok, sum_words, sum_chars,
                   FLOOR(CAST(sum_tok AS DOUBLE)
                         / GREATEST(sum_words, 1) * 1000000 + 0.5)
                     / 1000000.0 AS fertility,
                   FLOOR(CAST(sum_chars AS DOUBLE)
                         / GREATEST(sum_tok, 1) * 1000000 + 0.5)
                     / 1000000.0 AS chars_per_tok
            FROM s
        """,
        "near_dup_jaccard": _near_dup_jaccard_sql(),
        "near_dup_clusters": _near_dup_clusters_sql(),
        "dedup_near_keep_best": f"""
            WITH clusters AS MATERIALIZED (
              SELECT * FROM ({_near_dup_clusters_sql()})),
            winners AS (
              SELECT doc_id FROM (
                SELECT c.doc_id,
                       row_number() OVER (
                           PARTITION BY c.cluster_id
                           ORDER BY d.n_chars DESC, c.doc_id) AS rn
                FROM clusters c JOIN documents d USING (doc_id))
              WHERE rn = 1),
            losers AS (
              SELECT doc_id FROM clusters
              EXCEPT SELECT doc_id FROM winners)
            SELECT doc_id, source, n_chars FROM documents
            WHERE doc_id NOT IN (SELECT doc_id FROM losers)
        """,
        "embedding_near_dup": """
            WITH e AS (
              SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings)
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round_even(list_cosine_similarity(a.de, b.de), 6) AS cosine
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE round_even(list_cosine_similarity(a.de, b.de), 6) >= 0.4
        """,
        # the blockwise (above-the-gate) plan is bit-identical: same oracle
        "embedding_near_dup_scale": """
            WITH e AS (
              SELECT vec_id, CAST(embedding AS DOUBLE[]) AS de FROM embeddings)
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   round_even(list_cosine_similarity(a.de, b.de), 6) AS cosine
            FROM e a JOIN e b ON a.vec_id < b.vec_id
            WHERE round_even(list_cosine_similarity(a.de, b.de), 6) >= 0.4
        """,
        "embedding_near_dup_lsh": _embedding_near_dup_lsh_sql(),
        "simhash": _simhash_sql(),
        "doc_fingerprint": _fingerprint_sql(),
        "minhash_near_dup": _minhash_sql(),
        "ann_lsh_topk": _ann_lsh_sql(),
        "ann_ivf_topk": _ann_ivf_sql(),
        # indexed serving shares the scan path's centroids + ranking exactly
        "ann_ivf_indexed": _ann_ivf_sql(),
        "embedding_clusters": _embedding_clusters_sql(),
        "semantic_dedup": _semantic_dedup_sql(),
        "lineitem_daily": """
            SELECT l_returnflag,
                   epoch_us(l_shipdate) // 86400000000 AS ship_day,
                   COUNT(*) AS n_items,
                   round_even(SUM(l_quantity), 6) AS sum_qty
            FROM lineitem GROUP BY 1, 2
        """,
        # iterative-solver fills: vendored independent NumPy oracle output
        # (tests/oracle/fills.py), built at oracle-time from the same fixture
        "gapfill_model_1m": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('gapfill_model_1m')}')"
        ),
        "gapfill_spline_1m": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('gapfill_spline_1m')}')"
        ),
        "knn_fill_1m": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('knn_fill_1m')}')"
        ),
        "lang_fill": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('lang_fill')}')"
        ),
        # non-SQL scans (EWMA recursion, LTTB selection): vendored
        # independent NumPy oracles, same read_parquet route
        "ewma_smooth_1m": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('ewma_smooth_1m')}')"
        ),
        "holt_winters_1m": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('holt_winters_1m')}')"
        ),
        "kalman_fill_1m": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('kalman_fill_1m')}')"
        ),
        "isotonic_fit_1h": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('isotonic_fit_1h')}')"
        ),
        "binseg_changepoints": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('binseg_changepoints')}')"
        ),
        "pelt_changepoints": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('pelt_changepoints')}')"
        ),
        "ann_pq_topk": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('ann_pq_topk')}')"
        ),
        "sample_entropy": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('sample_entropy')}')"
        ),
        "mmr_rerank": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('mmr_rerank')}')"
        ),
        "logistic_quality": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('logistic_quality')}')"
        ),
        "mutual_knn": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('mutual_knn')}')"
        ),
        "knn_outlier": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('knn_outlier')}')"
        ),
        # the blockwise (above-the-gate) plans are bit-identical to the
        # brute plans, so they share the vendored oracles verbatim
        "mutual_knn_scale": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('mutual_knn')}')"
        ),
        "knn_outlier_scale": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('knn_outlier')}')"
        ),
        "engle_granger": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('engle_granger')}')"
        ),
        "spearman_1h": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('spearman_1h')}')"
        ),
        "vopt_histogram": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('vopt_histogram')}')"
        ),
        "dtw_distance": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('dtw_distance')}')"
        ),
        "page_hinkley_1m": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('page_hinkley_1m')}')"
        ),
        "haar_energy": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('haar_energy')}')"
        ),
        "spectral_entropy": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('spectral_entropy')}')"
        ),
        "theta_forecast": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('theta_forecast')}')"
        ),
        "lomb_scargle": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('lomb_scargle')}')"
        ),
        "matrix_profile": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('matrix_profile')}')"
        ),
        "croston_forecast": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('croston_forecast')}')"
        ),
        "harmonic_24h": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('harmonic_24h')}')"
        ),
        "holt_smooth_1m": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('holt_smooth_1m')}')"
        ),
        "holt_damped_1m": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('holt_damped_1m')}')"
        ),
        "granger_1h": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('granger_1h')}')"
        ),
        "token_pagerank": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('token_pagerank')}')"
        ),
        "zorder_layout": _zorder_sql(),
        "survival_km": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('survival_km')}')"
        ),
        # Q3 shape: top-10 unshipped BUILDING orders by discounted revenue
        "shipping_priority": """
            WITH o AS (
              SELECT o.o_orderkey AS okey,
                     epoch_us(o.o_orderdate) AS odate_us
              FROM orders o
              JOIN customer c ON o.o_custkey = c.c_custkey
              WHERE c.c_mktsegment = 'BUILDING'
                AND o.o_orderdate < TIMESTAMP '1998-01-01'),
            l AS (
              SELECT l_orderkey AS okey,
                     CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                         AS rev
              FROM lineitem
              WHERE l_shipdate > TIMESTAMP '1998-01-01')
            SELECT okey, odate_us, CAST(SUM(rev) AS BIGINT) AS rev_e4
            FROM l JOIN o USING (okey)
            GROUP BY okey, odate_us
            ORDER BY rev_e4 DESC, odate_us, okey
            LIMIT 10
        """,
        # Q4 shape: 1996 orders with any lineitem shipped > 60 days late
        "late_order_census": """
            SELECT o.o_orderpriority AS prio,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders o
            WHERE o.o_orderdate >= TIMESTAMP '1996-01-01'
              AND o.o_orderdate < TIMESTAMP '1997-01-01'
              AND EXISTS (
                SELECT 1 FROM lineitem l
                WHERE l.l_orderkey = o.o_orderkey
                  AND epoch_us(l.l_shipdate) - epoch_us(o.o_orderdate)
                      > 60 * 86400000000)
            GROUP BY o.o_orderpriority
        """,
        # Q17 shape: Brand#2 small-quantity revenue, exact integer
        # cross-multiplied 0.2*avg comparison, avg yearly = // 7
        "small_qty_revenue": """
            WITH b AS (
              SELECT l.l_partkey,
                     CAST(ROUND(l.l_quantity) AS BIGINT) AS qty,
                     CAST(ROUND(l.l_extendedprice * 100) AS BIGINT) AS cents
              FROM lineitem l
              JOIN part p ON l.l_partkey = p.p_partkey
              WHERE p.p_brand = 'Brand#2'),
            s AS (
              SELECT l_partkey,
                     CAST(SUM(qty) AS BIGINT) AS sum_qty,
                     CAST(COUNT(*) AS BIGINT) AS n_li
              FROM b GROUP BY l_partkey)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
                   CAST(COALESCE(SUM(b.cents), 0) AS BIGINT) AS revenue_e2,
                   CAST(COALESCE(SUM(b.cents), 0) // 7 AS BIGINT)
                       AS avg_yearly_e2
            FROM b JOIN s USING (l_partkey)
            WHERE 5 * b.qty * s.n_li < s.sum_qty
        """,
        # Q18 shape: orders whose total quantity exceeds 250
        "large_volume_orders": """
            WITH q AS (
              SELECT l_orderkey AS okey,
                     CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT)
                         AS sum_qty
              FROM lineitem GROUP BY l_orderkey
              HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > 250)
            SELECT o.o_orderkey AS okey,
                   o.o_custkey AS ckey,
                   epoch_us(o.o_orderdate) AS odate_us,
                   CAST(ROUND(o.o_totalprice * 100) AS BIGINT)
                       AS total_price_e2,
                   q.sum_qty
            FROM orders o JOIN q ON o.o_orderkey = q.okey
        """,
        # CDC merge: base snapshot (version 0) + three update waves keyed
        # by epoch-minute residues; winner = highest (version, side), a
        # winning delete drops the key
        "cdc_merge": f"""
            WITH b AS (
              SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok, source,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                         AS ts
              FROM read_parquet('{{p}}/*.parquet')),
            u AS (
              SELECT doc_id, n_tok + 1000 AS n_tok, source,
                     1 AS version, 0 AS is_delete FROM b WHERE ts % 5 = 0
              UNION ALL
              SELECT doc_id, n_tok + 2000, source, 2, 0 FROM b
              WHERE ts % 15 = 0
              UNION ALL
              SELECT doc_id, n_tok, source, 3, 1 FROM b WHERE ts % 35 = 0),
            allr AS (
              SELECT doc_id, n_tok, source, 0 AS version, 0 AS is_delete,
                     0 AS side FROM b
              UNION ALL
              SELECT doc_id, n_tok, source, version, is_delete, 1 FROM u),
            w AS (
              SELECT *, ROW_NUMBER() OVER (
                  PARTITION BY doc_id ORDER BY version DESC, side DESC
              ) AS rn FROM allr)
            SELECT doc_id, n_tok, source, CAST(version AS BIGINT) AS version
            FROM w WHERE rn = 1 AND is_delete = 0
        """.replace("{p}", _fixture_sql_path()),
        # Gopher-rules census: the same ' '-split word model as the engine
        # (wc via space counting, empty/null text -> 0 words), float rules
        # on the shared round_even 6-dp ratios
        "gopher_rules": r"""
            WITH d AS (
              SELECT source,
                     CASE WHEN text IS NULL OR length(text) = 0 THEN 0
                          ELSE length(text) - length(replace(text, ' ', ''))
                               + 1 END AS wc,
                     length(text) AS chars,
                     string_split(text, ' ') AS words
              FROM documents),
            r AS (
              SELECT source, wc,
                     round_even((chars - (wc - 1))
                                / GREATEST(wc, 1)::DOUBLE, 6) AS mean_wl,
                     len(list_filter(words, w -> w IN
                         ('the','and','of','to','a','in','is','that','it',
                          'for'))) AS stop_hits,
                     round_even(len(list_distinct(list_filter(words,
                                w -> length(w) > 0)))
                                / GREATEST(wc, 1)::DOUBLE, 6) AS dr
              FROM d)
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(CASE WHEN wc < 20 OR wc > 90
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_fail_words,
                   CAST(SUM(CASE WHEN mean_wl < 4.3 OR mean_wl > 4.7
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_fail_wordlen,
                   CAST(SUM(CASE WHEN stop_hits < 2
                                 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_fail_stop,
                   CAST(SUM(CASE WHEN dr < 0.4 THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_fail_rep,
                   CAST(SUM(CASE WHEN NOT (wc < 20 OR wc > 90)
                                  AND NOT (mean_wl < 4.3 OR mean_wl > 4.7)
                                  AND stop_hits >= 2 AND dr >= 0.4
                                 THEN 1 ELSE 0 END) AS BIGINT) AS n_pass
            FROM r GROUP BY source
        """,
        # STL-lite decomposition, exact integer micro-units: trend via the
        # pure-integer half-up division (nonneg operands, so DuckDB's //
        # and numpy's floor-div agree), seasonal via the one pinned
        # floor(x + 0.5) double division per (source, hour) bin
        "stl_decompose_1m": f"""
            WITH r AS ({rollup(60)}),
            w AS (
              SELECT source, bucket_ts, sum_tok,
                     SUM(CAST(sum_tok AS HUGEINT)) OVER (
                         PARTITION BY source ORDER BY bucket_ts
                         ROWS BETWEEN 6 PRECEDING AND 6 FOLLOWING) AS ws,
                     COUNT(*) OVER (
                         PARTITION BY source ORDER BY bucket_ts
                         ROWS BETWEEN 6 PRECEDING AND 6 FOLLOWING) AS wc
              FROM r),
            d AS (
              SELECT source, bucket_ts, sum_tok,
                     CAST((2 * ws * 1000000 + wc) // (2 * wc) AS BIGINT)
                       AS trend_u,
                     CAST(sum_tok AS BIGINT) * 1000000
                       - CAST((2 * ws * 1000000 + wc) // (2 * wc) AS BIGINT)
                       AS detr_u,
                     (bucket_ts // 3600) % 24 AS hr
              FROM w),
            s AS (
              SELECT source, hr,
                     CAST(FLOOR(CAST(SUM(CAST(detr_u AS HUGEINT)) AS DOUBLE)
                                / COUNT(*) + 0.5) AS BIGINT) AS seasonal_u
              FROM d GROUP BY 1, 2)
            SELECT d.source, d.bucket_ts, d.sum_tok, d.trend_u,
                   s.seasonal_u, d.detr_u - s.seasonal_u AS resid_u
            FROM d JOIN s ON d.source = s.source AND d.hr = s.hr
        """,
        # M4 (Jugel et al.) pixel aggregates: first/last by time via
        # arg_min/arg_max on the unique-per-pixel bucket_ts, extremum
        # timestamps as the EARLIEST matching bucket (deterministic ties)
        "m4_downsample": f"""
            WITH r AS ({rollup(60)}),
            px AS (
              SELECT source, (bucket_ts // 3600) * 3600 AS px_ts,
                     bucket_ts, sum_tok
              FROM r),
            a AS (
              SELECT source, px_ts, COUNT(*)::BIGINT AS n_buckets,
                     arg_min(sum_tok, bucket_ts) AS first_tok,
                     arg_max(sum_tok, bucket_ts) AS last_tok,
                     MIN(sum_tok) AS min_tok, MAX(sum_tok) AS max_tok
              FROM px GROUP BY 1, 2),
            m AS (
              SELECT p.source, p.px_ts,
                     MIN(CASE WHEN p.sum_tok = a.min_tok
                              THEN p.bucket_ts END) AS min_ts,
                     MIN(CASE WHEN p.sum_tok = a.max_tok
                              THEN p.bucket_ts END) AS max_ts
              FROM px p JOIN a USING (source, px_ts) GROUP BY 1, 2)
            SELECT a.source, a.px_ts, a.n_buckets, a.first_tok, a.last_tok,
                   a.min_tok, m.min_ts, a.max_tok, m.max_ts
            FROM a JOIN m USING (source, px_ts)
        """,
        "dominant_period": _dominant_period_sql(rollup(60), 24),
        # OOV rate vs the corpus' own top-1024 token ids (count desc, tok
        # asc cutoff — deterministic under uniform-count ties)
        "oov_rate": f"""
            WITH flat AS (
              SELECT source, UNNEST(tokens) AS tok
              FROM read_parquet('{p}/*.parquet')),
            v AS (
              SELECT tok FROM (
                SELECT tok, COUNT(*) AS c FROM flat GROUP BY 1)
              ORDER BY c DESC, tok ASC LIMIT 1024),
            agg AS (
              SELECT source, COUNT(*)::BIGINT AS total_tok,
                     CAST(SUM(CASE WHEN tok IN (SELECT tok FROM v)
                                   THEN 0 ELSE 1 END) AS BIGINT) AS oov_tok
              FROM flat GROUP BY 1)
            SELECT source, total_tok, oov_tok,
                   FLOOR(CAST(oov_tok AS DOUBLE) / total_tok * 1000000
                         + 0.5) / 1000000.0 AS oov_rate
            FROM agg
        """,
        # LAG() gaps in exact microseconds; quantile_cont shares the
        # engine's pos = q*(n-1) interpolation rule (source_quantiles
        # precedent), mean is the one pinned division
        "embedding_pca": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('embedding_pca')}')"
        ),
        "kmeans_quality": _kmeans_quality_sql(),
        "centroid_silhouette": _centroid_silhouette_sql(),
        "label_centroid_similarity": """
            WITH x AS (
              SELECT label,
                     unnest(CAST(embedding AS DOUBLE[])) AS v,
                     unnest(range(len(embedding))) AS i
              FROM embeddings),
            s AS (SELECT label, i,
                         SUM(CAST(floor(v * 65536 + 0.5) AS BIGINT)) AS s
                  FROM x GROUP BY label, i),
            n AS (SELECT label, count(*)::BIGINT AS n
                  FROM embeddings GROUP BY label),
            c AS (SELECT s.label, s.i,
                         CAST(s.s AS DOUBLE) / (n.n * 65536.0) AS c
                  FROM s JOIN n USING (label)),
            p AS (SELECT a.label AS label_a, b.label AS label_b,
                         SUM(a.c * b.c) AS dot
                  FROM c a JOIN c b ON a.i = b.i AND a.label < b.label
                  GROUP BY a.label, b.label),
            nn AS (SELECT label, SUM(c * c) AS nsq FROM c GROUP BY label)
            SELECT CAST(p.label_a AS BIGINT) AS label_a,
                   CAST(p.label_b AS BIGINT) AS label_b,
                   na.n AS n_a, nb.n AS n_b,
                   floor(p.dot / (sqrt(nna.nsq) * sqrt(nnb.nsq))
                         * 1000000 + 0.5) / 1000000.0 AS cos_sim
            FROM p
            JOIN nn nna ON nna.label = p.label_a
            JOIN nn nnb ON nnb.label = p.label_b
            JOIN n na ON na.label = p.label_a
            JOIN n nb ON nb.label = p.label_b
            WHERE nna.nsq > 0 AND nnb.nsq > 0
        """,
        "dedup_sequences": f"""
            SELECT doc_id, source, CAST(n_tok AS BIGINT) AS n_tok FROM (
              SELECT doc_id, source, n_tok,
                     row_number() OVER (
                         PARTITION BY tokens ORDER BY doc_id) AS rn
              FROM read_parquet('{p}/*.parquet'))
            WHERE rn = 1
        """,
        "user_lifetime": """
            SELECT user_id,
                   MIN(epoch_us(ts)) AS first_us,
                   MAX(epoch_us(ts)) AS last_us,
                   count(*)::BIGINT AS n_events,
                   count(DISTINCT epoch_us(ts) // 86400000000)::BIGINT
                       AS active_days
            FROM events GROUP BY user_id
        """,
        "events_cube": """
            WITH e AS (
              SELECT event_type,
                     (epoch_us(ts) // 1000000 // 3600) * 3600 AS hr,
                     CAST(floor(value * 1000000 + 0.5) AS BIGINT) AS val_u
              FROM events)
            SELECT COALESCE(event_type, '<ALL>') AS event_type,
                   COALESCE(hr, -1) AS bucket_ts,
                   count(*)::BIGINT AS n_events,
                   CAST(SUM(val_u) AS DOUBLE) / 1000000.0 AS sum_value
            FROM e
            GROUP BY GROUPING SETS ((event_type, hr), (event_type), (hr), ())
        """,
        "transition_topk": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) AS ts_us, event_id, event_type
              FROM events),
            p AS (
              SELECT event_type AS nxt,
                     LAG(event_type) OVER (
                         PARTITION BY user_id
                         ORDER BY ts_us, event_id) AS prev
              FROM e)
            SELECT prev, nxt, count(*)::BIGINT AS cnt FROM p
            WHERE prev IS NOT NULL
            GROUP BY prev, nxt ORDER BY cnt DESC, prev, nxt LIMIT 20
        """,
        "user_top_event": """
            SELECT user_id, event_type AS top_event, cnt FROM (
              SELECT user_id, event_type, count(*)::BIGINT AS cnt,
                     row_number() OVER (
                         PARTITION BY user_id
                         ORDER BY count(*) DESC, event_type) AS rn
              FROM events GROUP BY user_id, event_type)
            WHERE rn = 1
        """,
        "interarrival_stats": """
            WITH e AS (
              SELECT event_type, epoch_us(ts) AS ts_us, event_id
              FROM events),
            d AS (
              SELECT event_type,
                     ts_us - LAG(ts_us) OVER (
                         PARTITION BY event_type
                         ORDER BY ts_us, event_id) AS dt
              FROM e)
            SELECT event_type, COUNT(dt)::BIGINT AS n_intervals,
                   FLOOR(CAST(SUM(dt) AS DOUBLE) / COUNT(dt) / 1000000
                         * 1000000 + 0.5) / 1000000.0 AS mean_s,
                   FLOOR(quantile_cont(CAST(dt AS DOUBLE), 0.5) / 1000000
                         * 1000000 + 0.5) / 1000000.0 AS p0_5_s,
                   FLOOR(quantile_cont(CAST(dt AS DOUBLE), 0.9) / 1000000
                         * 1000000 + 0.5) / 1000000.0 AS p0_9_s,
                   FLOOR(quantile_cont(CAST(dt AS DOUBLE), 0.99) / 1000000
                         * 1000000 + 0.5) / 1000000.0 AS p0_99_s
            FROM d WHERE dt IS NOT NULL GROUP BY 1
        """,
        # gaps-and-islands over the rolling-anomaly flag rule: island id =
        # grid index minus ROW_NUMBER; peak_ts joined back as the earliest
        # bucket achieving the island max (m4 precedent)
        "anomaly_intervals": f"""
            WITH r AS ({rollup(60)}),
            w AS (
              SELECT source, bucket_ts, sum_tok,
                     COUNT(*) OVER w AS roll_cnt,
                     CAST(SUM(sum_tok) OVER w AS DOUBLE) / COUNT(*) OVER w
                         AS mean_raw
              FROM r
              WINDOW w AS (PARTITION BY source ORDER BY bucket_ts
                           ROWS BETWEEN 59 PRECEDING AND CURRENT ROW)),
            f AS (
              SELECT source, bucket_ts, sum_tok FROM w
              WHERE roll_cnt >= 10
                AND CAST(sum_tok AS DOUBLE) > 1.25 * mean_raw),
            i AS (
              SELECT source, bucket_ts, sum_tok,
                     bucket_ts // 60 - ROW_NUMBER() OVER (
                         PARTITION BY source ORDER BY bucket_ts) AS isl
              FROM f),
            a AS (
              SELECT source, isl, MIN(bucket_ts) AS start_ts,
                     MAX(bucket_ts) AS end_ts, COUNT(*)::BIGINT AS n_buckets,
                     MAX(sum_tok) AS peak_tok
              FROM i GROUP BY 1, 2),
            m AS (
              SELECT i.source, i.isl,
                     MIN(CASE WHEN i.sum_tok = a.peak_tok
                              THEN i.bucket_ts END) AS peak_ts
              FROM i JOIN a USING (source, isl) GROUP BY 1, 2)
            SELECT a.source, a.start_ts, a.end_ts, a.n_buckets, a.peak_tok,
                   m.peak_ts
            FROM a JOIN m USING (source, isl)
        """,
        # pairwise cosine of binned token-id histograms: HUGEINT dots via
        # a bin self-join, every pair emitted through the norms cross join
        "source_similarity": f"""
            WITH flat AS (
              SELECT source, UNNEST(tokens) AS tok
              FROM read_parquet('{p}/*.parquet')),
            h AS (
              SELECT source, tok // 256 AS bin, COUNT(*)::HUGEINT AS c
              FROM flat GROUP BY 1, 2),
            n AS (SELECT source, SUM(c * c) AS nrm FROM h GROUP BY 1),
            d AS (
              SELECT a.source AS sa, b.source AS sb, SUM(a.c * b.c) AS dot
              FROM h a JOIN h b ON a.bin = b.bin AND a.source < b.source
              GROUP BY 1, 2)
            SELECT na.source AS src_a, nb.source AS src_b,
                   FLOOR(CAST(COALESCE(d.dot, 0) AS DOUBLE)
                         / (SQRT(CAST(na.nrm AS DOUBLE))
                            * SQRT(CAST(nb.nrm AS DOUBLE)))
                         * 1000000 + 0.5) / 1000000.0 AS cos_sim
            FROM n na JOIN n nb ON na.source < nb.source
            LEFT JOIN d ON d.sa = na.source AND d.sb = nb.source
        """,
        # per-source KL vs the global blend over ALL 256 Laplace-smoothed
        # bins (generate_series grid so empty bins contribute both sides);
        # SUM order differs from the engine's bin-ascending reduce by
        # ~1e-15 relative — absorbed by the shared round6
        "token_kl_drift": f"""
            WITH flat AS (
              SELECT source, UNNEST(tokens) AS tok
              FROM read_parquet('{p}/*.parquet')),
            h AS (
              SELECT source, tok // 256 AS bin, COUNT(*)::BIGINT AS c
              FROM flat GROUP BY 1, 2),
            srcs AS (SELECT source, SUM(c) AS n FROM h GROUP BY 1),
            bins AS (SELECT UNNEST(generate_series(0, 255)) AS bin),
            g AS (SELECT bin, SUM(c) AS gc FROM h GROUP BY 1),
            gt AS (SELECT SUM(c) AS t FROM h),
            grid AS (
              SELECT s.source, s.n, b.bin, COALESCE(h.c, 0) AS c,
                     COALESCE(g.gc, 0) AS gc, (SELECT t FROM gt) AS t
              FROM srcs s CROSS JOIN bins b
              LEFT JOIN h ON h.source = s.source AND h.bin = b.bin
              LEFT JOIN g ON g.bin = b.bin)
            SELECT source, CAST(n AS BIGINT) AS total_tok,
                   FLOOR(SUM(
                     (CAST(c + 1 AS DOUBLE) / (n + 256))
                     * LN((CAST(c + 1 AS DOUBLE) / (n + 256))
                          / (CAST(gc + 1 AS DOUBLE) / (t + 256)))
                   ) * 1000000 + 0.5) / 1000000.0 AS kl
            FROM grid GROUP BY source, n
        """,
        "hourly_quota": _hourly_quota_sql(),
        "rollup_5m": rollup(300),
        "staleness_report": f"""
            WITH r AS ({rollup(60)}),
            s AS (
              SELECT source, MAX(bucket_ts) AS last_bucket_ts,
                     COUNT(*)::BIGINT AS n_buckets,
                     CAST(SUM(n_obs) AS BIGINT) AS n_docs
              FROM r GROUP BY 1)
            SELECT source, last_bucket_ts, n_buckets, n_docs,
                   (SELECT MAX(last_bucket_ts) FROM s) - last_bucket_ts
                       AS lag_s
            FROM s
        """,
        # exact integer rank-weighted Gini, one pinned float expression
        "source_gini": f"""
            WITH s AS (
              SELECT source, CAST(SUM(n_tok) AS BIGINT) AS x
              FROM read_parquet('{p}/*.parquet') GROUP BY 1),
            r AS (
              SELECT x, ROW_NUMBER() OVER (ORDER BY x, source) AS i FROM s),
            a AS (
              SELECT COUNT(*)::BIGINT AS n, SUM(CAST(x AS HUGEINT)) AS sx,
                     SUM(CAST(i AS HUGEINT) * x) AS six
              FROM r)
            SELECT n AS n_sources, CAST(sx AS BIGINT) AS total_tok,
                   FLOOR(((2.0 * CAST(six AS DOUBLE))
                          / (CAST(n AS DOUBLE) * CAST(sx AS DOUBLE))
                          - CAST(n + 1 AS DOUBLE) / CAST(n AS DOUBLE))
                         * 1000000 + 0.5) / 1000000.0 AS gini
            FROM a
        """,
        # ln-ln OLS over the deterministic (cnt desc, tok asc) rank; SUM
        # order drift ~1e-13 relative, absorbed by round6 on the three
        # pinned source_trend expressions
        "zipf_fit": f"""
            WITH flat AS (
              SELECT UNNEST(tokens) AS tok FROM read_parquet('{p}/*.parquet')),
            c AS (SELECT tok, COUNT(*)::BIGINT AS cnt FROM flat GROUP BY 1),
            l AS (
              SELECT LN(CAST(ROW_NUMBER() OVER (
                         ORDER BY cnt DESC, tok ASC) AS DOUBLE)) AS lx,
                     LN(CAST(cnt AS DOUBLE)) AS ly
              FROM c),
            m AS (
              SELECT COUNT(*)::BIGINT AS n, SUM(lx) AS sx, SUM(ly) AS sy,
                     SUM(lx * ly) AS sxy, SUM(lx * lx) AS sxx,
                     SUM(ly * ly) AS syy
              FROM l)
            SELECT n AS n_types,
                   FLOOR((n * sxy - sx * sy) / (n * sxx - sx * sx)
                         * 1000000 + 0.5) / 1000000.0 AS slope,
                   FLOOR((sy * sxx - sx * sxy) / (n * sxx - sx * sx)
                         * 1000000 + 0.5) / 1000000.0 AS intercept,
                   FLOOR(CASE WHEN n * syy - sy * sy > 0
                              THEN ((n * sxy - sx * sy) * (n * sxy - sx * sy))
                                   / ((n * sxx - sx * sx) * (n * syy - sy * sy))
                              ELSE 1.0 END * 1000000 + 0.5) / 1000000.0 AS r2
            FROM m
            WHERE n >= 2 AND n * sxx - sx * sx > 0
        """,
        # per-doc token entropy ln(n) - SUM(c*ln(c))/n; the float SUM
        # order differs from the engine's token-ascending reduce by
        # ~1e-13 relative — absorbed by the shared round6 (pmi precedent)
        "doc_entropy": f"""
            WITH f AS (
              SELECT doc_id, UNNEST(tokens) AS tok
              FROM read_parquet('{p}/*.parquet')),
            c AS (
              SELECT doc_id, tok, CAST(COUNT(*) AS DOUBLE) AS c
              FROM f GROUP BY 1, 2),
            s AS (
              SELECT doc_id, SUM(c * LN(c)) AS sterm FROM c GROUP BY 1)
            SELECT d.doc_id, d.source, CAST(d.n_tok AS BIGINT) AS n_tok,
                   FLOOR((LN(CAST(d.n_tok AS DOUBLE))
                          - s.sterm / CAST(d.n_tok AS DOUBLE)) * 1000000
                         + 0.5) / 1000000.0 AS entropy
            FROM read_parquet('{p}/*.parquet') d JOIN s USING (doc_id)
        """,
        "lttb_downsample": (
            f"SELECT * FROM read_parquet('{_fill_oracle_parquet('lttb_downsample')}')"
        ),
        "cusum_changepoints": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('cusum_changepoints')}')"
        ),
        "approx_distinct_docs": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('approx_distinct_docs')}')"
        ),
        "approx_distinct_global": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('approx_distinct_global')}')"
        ),
        "bloom_new_docs": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('bloom_new_docs')}')"
        ),
        "pack_sequences": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('pack_sequences')}')"
        ),
        "pack_tokens": (
            "SELECT * FROM read_parquet("
            f"'{_fill_oracle_parquet('pack_tokens')}')"
        ),
        "priority_demand": """
            SELECT o.o_orderpriority,
                   COUNT(*) AS n_items,
                   CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY 1
        """,
        "orders_by_nation": """
            SELECT n.n_name,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY 1
        """,
        "funnel_analysis": """
            WITH e AS (
              SELECT user_id, event_type, epoch_us(ts) AS t FROM events),
            users AS (SELECT DISTINCT user_id FROM e),
            s1 AS (
              SELECT user_id, MIN(t) AS t1 FROM e
              WHERE event_type = 'view' GROUP BY 1),
            s2 AS (
              SELECT e.user_id, MIN(e.t) AS t2
              FROM e JOIN s1 USING (user_id)
              WHERE e.event_type = 'click' AND e.t > s1.t1 GROUP BY 1),
            s3 AS (
              SELECT e.user_id, MIN(e.t) AS t3
              FROM e JOIN s2 USING (user_id)
              WHERE e.event_type = 'purchase' AND e.t > s2.t2 GROUP BY 1)
            SELECT u.user_id,
                   CAST(CASE WHEN s1.t1 IS NOT NULL THEN 1 ELSE 0 END
                        + CASE WHEN s2.t2 IS NOT NULL THEN 1 ELSE 0 END
                        + CASE WHEN s3.t3 IS NOT NULL THEN 1 ELSE 0 END
                        AS BIGINT) AS reached_step,
                   COALESCE(s3.t3, -1) AS completed_ts
            FROM users u
            LEFT JOIN s1 USING (user_id)
            LEFT JOIN s2 USING (user_id)
            LEFT JOIN s3 USING (user_id)
        """,
        "cohort_retention": """
            WITH act AS (
              SELECT DISTINCT user_id,
                     epoch_us(ts) // 1000000 // 86400 AS day
              FROM events),
            first AS (
              SELECT user_id, MIN(day) AS cohort FROM act GROUP BY 1)
            SELECT f.cohort AS cohort_period,
                   a.day - f.cohort AS period_offset,
                   COUNT(*) AS n_active
            FROM act a JOIN first f USING (user_id)
            GROUP BY 1, 2
        """,
        "completeness_report": f"""
            WITH obs AS (
              SELECT source, bucket_ts FROM ({rollup(60)})),
            s AS (
              SELECT source, MIN(bucket_ts) // 60 AS mn,
                     MAX(bucket_ts) // 60 AS mx
              FROM obs GROUP BY 1),
            h AS (
              SELECT source, mn, mx,
                     UNNEST(generate_series(mn // 60, mx // 60)) AS hr
              FROM s),
            o AS (
              SELECT source, bucket_ts // 3600 AS hr, COUNT(*) AS obs_m
              FROM obs GROUP BY 1, 2)
            SELECT h.source, h.hr * 3600 AS bucket_ts,
                   COALESCE(o.obs_m, 0) AS observed_minutes,
                   (LEAST(h.hr * 60 + 60, h.mx + 1)
                    - GREATEST(h.hr * 60, h.mn)) AS expected_minutes,
                   FLOOR(COALESCE(o.obs_m, 0)::DOUBLE
                         / (LEAST(h.hr * 60 + 60, h.mx + 1)
                            - GREATEST(h.hr * 60, h.mn))
                         * 1000000 + 0.5) / 1000000.0 AS completeness
            FROM h LEFT JOIN o ON h.source = o.source AND h.hr = o.hr
        """,
        "gap_stats": f"""
            WITH obs AS (
              SELECT source, bucket_ts FROM ({rollup(60)})),
            d AS (
              SELECT source, bucket_ts,
                     lead(bucket_ts) OVER (PARTITION BY source
                                           ORDER BY bucket_ts) AS nxt
              FROM obs),
            g AS (
              SELECT source, (nxt - bucket_ts) // 60 - 1 AS gap
              FROM d WHERE nxt IS NOT NULL AND nxt > bucket_ts + 60),
            per AS (
              SELECT source, COUNT(*) AS n_buckets,
                     (MAX(bucket_ts) - MIN(bucket_ts)) // 60 + 1 AS span_buckets
              FROM obs GROUP BY 1),
            gg AS (
              SELECT source, COUNT(*) AS n_gaps, SUM(gap) AS missing_total,
                     MAX(gap) AS max_gap
              FROM g GROUP BY 1)
            SELECT per.source, per.n_buckets, per.span_buckets,
                   COALESCE(gg.n_gaps, 0) AS n_gaps,
                   CAST(COALESCE(gg.missing_total, 0) AS BIGINT) AS missing_total,
                   COALESCE(gg.max_gap, 0) AS max_gap,
                   CASE WHEN gg.n_gaps > 0
                        THEN FLOOR(gg.missing_total::DOUBLE / gg.n_gaps
                                   * 1000000 + 0.5) / 1000000.0
                        ELSE 0.0 END AS mean_gap
            FROM per LEFT JOIN gg USING (source)
        """,
        "psi_drift": f"""
            WITH obs AS (
              SELECT source, bucket_ts, sum_tok AS v FROM ({rollup(60)})),
            rng AS (
              SELECT source, MIN(bucket_ts) AS mn, MAX(bucket_ts) AS mx,
                     MIN(v) AS lo, MAX(v) AS hi
              FROM obs GROUP BY 1),
            binned AS (
              SELECT o.source,
                     CASE WHEN o.bucket_ts <= (r.mn + r.mx) // 2
                          THEN 0 ELSE 1 END AS half,
                     LEAST(9, ((o.v - r.lo) * 10) // (r.hi - r.lo + 1)) AS bin
              FROM obs o JOIN rng r USING (source)),
            halves AS (
              SELECT source,
                     COUNT(*) FILTER (WHERE half = 0) AS n_early,
                     COUNT(*) FILTER (WHERE half = 1) AS n_late
              FROM binned GROUP BY 1),
            cnts AS (
              SELECT source, bin,
                     COUNT(*) FILTER (WHERE half = 0) AS ce,
                     COUNT(*) FILTER (WHERE half = 1) AS cl
              FROM binned GROUP BY 1, 2),
            grid AS (
              SELECT r.source, b.bin
              FROM rng r, UNNEST(generate_series(0, 9)) AS b(bin)),
            terms AS (
              SELECT g.source,
                     (COALESCE(c.ce, 0) + 1)::DOUBLE / (h.n_early + 10) AS p,
                     (COALESCE(c.cl, 0) + 1)::DOUBLE / (h.n_late + 10) AS q
              FROM grid g
              LEFT JOIN cnts c USING (source, bin)
              JOIN halves h USING (source))
            SELECT t.source, h.n_early, h.n_late,
                   FLOOR(SUM((t.p - t.q) * LN(t.p / t.q))
                         * 1000000 + 0.5) / 1000000.0 AS psi
            FROM terms t JOIN halves h USING (source)
            GROUP BY 1, 2, 3
        """,
        "decontaminate": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents),
            grams AS (
              SELECT doc_id, array_to_string(w[i:i+4], ' ') AS g
              FROM toks, UNNEST(generate_series(1, len(w) - 4)) AS t(i)),
            bench AS (SELECT DISTINCT g FROM grams WHERE doc_id % 50 = 0),
            hits AS (
              SELECT g.doc_id, COUNT(DISTINCT g.g) AS n_hits
              FROM grams g JOIN bench b USING (g)
              WHERE g.doc_id % 50 != 0 GROUP BY 1)
            SELECT d.doc_id, COALESCE(h.n_hits, 0) AS n_hits
            FROM documents d LEFT JOIN hits h USING (doc_id)
            WHERE d.doc_id % 50 != 0
        """,
        "doc_repetition": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents),
            grams AS (
              SELECT doc_id, array_to_string(w[i:i+2], ' ') AS g
              FROM toks, UNNEST(generate_series(1, len(w) - 2)) AS t(i)),
            per AS (
              SELECT doc_id, COUNT(*) AS n_grams, COUNT(DISTINCT g) AS n_distinct
              FROM grams GROUP BY 1)
            SELECT d.doc_id, COALESCE(p.n_grams, 0) AS n_grams,
                   COALESCE(p.n_distinct, 0) AS n_distinct,
                   CASE WHEN p.n_grams > 0
                        THEN round_even(1.0 - p.n_distinct::DOUBLE / p.n_grams, 6)
                        ELSE 0.0 END AS dup_ratio
            FROM documents d LEFT JOIN per p USING (doc_id)
        """,
        "unigram_logprob": r"""
            WITH toks AS (
              SELECT doc_id, UNNEST(regexp_extract_all(text, '\S+')) AS w
              FROM documents),
            freq AS (
              SELECT w, COUNT(*)::DOUBLE / (SELECT COUNT(*) FROM toks) AS p
              FROM toks GROUP BY 1)
            SELECT t.doc_id, COUNT(*) AS n_words,
                   round_even(AVG(-LN(f.p)), 6) AS mean_nll
            FROM toks t JOIN freq f USING (w) GROUP BY 1
        """,
        "tfidf_topterms": r"""
            WITH toks AS (
              SELECT source, UNNEST(regexp_extract_all(text, '\S+')) AS w
              FROM documents),
            tf AS (SELECT source, w, COUNT(*) AS tf FROM toks GROUP BY 1, 2),
            df AS (SELECT w, COUNT(DISTINCT source) AS df FROM tf GROUP BY 1),
            n AS (SELECT COUNT(DISTINCT source) AS n_src FROM tf),
            scored AS (
              SELECT tf.source, tf.w, tf.tf,
                     round_even(tf.tf * LN(n.n_src::DOUBLE / df.df), 6) AS score
              FROM tf JOIN df USING (w) CROSS JOIN n)
            SELECT source, w, tf, score, rank FROM (
              SELECT source, w, tf, score,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY score DESC, w) AS rank
              FROM scored) WHERE rank <= 10
        """,
        "pii_scrub": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text,
                       '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS n_emails,
                   len(regexp_extract_all(
                       regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g'),
                       '\+?[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}')) AS n_phones,
                   regexp_replace(
                       regexp_replace(text,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g'),
                       '\+?[0-9]{3}[-. ][0-9]{3}[-. ][0-9]{4}',
                       '<PHONE>', 'g') AS clean_text
            FROM documents
        """,
        "substring_dup": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS w
              FROM documents),
            grams AS (
              SELECT doc_id, array_to_string(w[i:i+7], ' ') AS g
              FROM toks, UNNEST(generate_series(1, len(w) - 7)) AS t(i)),
            pg AS (SELECT g, COUNT(DISTINCT doc_id) AS nd FROM grams GROUP BY 1),
            per AS (
              SELECT doc_id, COUNT(*) AS nw,
                     SUM(CASE WHEN pg.nd > 1 THEN 1 ELSE 0 END) AS ns
              FROM grams JOIN pg USING (g) GROUP BY 1)
            SELECT d.doc_id, COALESCE(per.nw, 0)::BIGINT AS n_windows,
                   COALESCE(per.ns, 0)::BIGINT AS n_shared,
                   CASE WHEN per.nw > 0
                        THEN round_even(per.ns::DOUBLE / per.nw, 6)
                        ELSE 0.0 END AS shared_frac
            FROM documents d LEFT JOIN per USING (doc_id)
        """,
        # exact mergeable power-sum moments: every integer below is exact
        # (HUGEINT mirrors the engine's unbounded Python ints); the shape
        # statistics are single divisions of exact integers — the n-powers
        # cancel, so there is no float cancellation to diverge on
        "token_moments": f"""
            WITH m AS (
              SELECT source, COUNT(*)::HUGEINT AS n,
                     SUM(CAST(n_tok AS HUGEINT)) AS s1,
                     SUM(CAST(n_tok AS HUGEINT)*n_tok) AS s2,
                     SUM(CAST(n_tok AS HUGEINT)*n_tok*n_tok) AS s3,
                     SUM(CAST(n_tok AS HUGEINT)*n_tok*n_tok*n_tok) AS s4
              FROM read_parquet('{p}/*.parquet') GROUP BY 1),
            c AS (
              SELECT source, n, s1,
                     n*s2 - s1*s1 AS m2num,
                     n*n*s3 - 3*n*s2*s1 + 2*s1*s1*s1 AS num3,
                     n*n*n*s4 - 4*n*n*s3*s1 + 6*n*s2*s1*s1
                         - 3*s1*s1*s1*s1 AS num4
              FROM m)
            SELECT source, CAST(n AS BIGINT) AS n_rows,
                   CAST(s1 AS BIGINT) AS sum_tok,
                   FLOOR(CAST(s1 AS DOUBLE)/CAST(n AS DOUBLE)
                         * 1000000 + 0.5)/1000000.0 AS mean_tok,
                   FLOOR(CAST(m2num AS DOUBLE)/CAST(n*n AS DOUBLE)
                         * 1000000 + 0.5)/1000000.0 AS var_tok,
                   FLOOR(CAST(num3 AS DOUBLE)/POWER(CAST(m2num AS DOUBLE), 1.5)
                         * 1000000 + 0.5)/1000000.0 AS skew_tok,
                   FLOOR((CAST(num4 AS DOUBLE)
                          /(CAST(m2num AS DOUBLE)*CAST(m2num AS DOUBLE)) - 3.0)
                         * 1000000 + 0.5)/1000000.0 AS kurt_tok
            FROM c WHERE n >= 2 AND m2num > 0
        """,
        "approx_quantiles": _approx_quantiles_sql(),
        "acf_1m": _acf_sql(rollup(60)),
        # Ljung-Box over the ROUNDED acf_1m values: terms accumulate in
        # ascending lag, left-associated ((t1+t2)+t3); n(n+2) is one exact
        # integer product cast once — mirrors window._ljung_box_one_source
        "ljung_box": f"""
            WITH a AS ({_acf_sql(rollup(60))}),
            nb AS (SELECT source, COUNT(*)::BIGINT AS n_buckets
                   FROM ({rollup(60)}) GROUP BY source),
            piv AS (
              SELECT source,
                     MAX(CASE WHEN lag = 1 THEN acf END) AS r1,
                     MAX(CASE WHEN lag = 2 THEN acf END) AS r2,
                     MAX(CASE WHEN lag = 3 THEN acf END) AS r3
              FROM a GROUP BY source HAVING COUNT(*) = 3)
            SELECT source, n_buckets, CAST(3 AS BIGINT) AS df,
                   FLOOR(CAST(n_buckets * (n_buckets + 2) AS DOUBLE)
                         * (((r1*r1) / CAST(n_buckets - 1 AS DOUBLE)
                             + (r2*r2) / CAST(n_buckets - 2 AS DOUBLE))
                            + (r3*r3) / CAST(n_buckets - 3 AS DOUBLE))
                         * 1000000 + 0.5) / 1000000.0 AS q_stat
            FROM piv JOIN nb USING (source)
        """,
        # Durbin-Levinson unrolled to depth 3 over the ROUNDED acf values;
        # every chain parenthesized exactly as window._pacf_one_source
        "pacf_1m": f"""
            WITH a AS ({_acf_sql(rollup(60))}),
            nb AS (SELECT source, COUNT(*)::BIGINT AS n_buckets
                   FROM ({rollup(60)}) GROUP BY source),
            piv AS (
              SELECT source,
                     MAX(CASE WHEN lag = 1 THEN acf END) AS r1,
                     MAX(CASE WHEN lag = 2 THEN acf END) AS r2,
                     MAX(CASE WHEN lag = 3 THEN acf END) AS r3
              FROM a GROUP BY source HAVING COUNT(*) = 3),
            s2 AS (
              SELECT source, r1, r2, r3, 1.0 - r1*r1 AS d2
              FROM piv WHERE 1.0 - r1*r1 <> 0),
            s3 AS (
              SELECT source, r1, r2, r3, (r2 - r1*r1) / d2 AS phi22
              FROM s2),
            s4 AS (
              SELECT source, r1, r2, r3, phi22,
                     r1 - phi22*r1 AS phi21
              FROM s3),
            s5 AS (
              SELECT source, r1, r2, r3, phi22, phi21,
                     (1.0 - phi21*r1) - phi22*r2 AS d3
              FROM s4 WHERE (1.0 - phi21*r1) - phi22*r2 <> 0),
            f AS (
              SELECT source, r1 AS phi11, phi22,
                     ((r3 - phi21*r2) - phi22*r1) / d3 AS phi33
              FROM s5),
            u AS (
              SELECT source, 1 AS lag, phi11 AS v FROM f
              UNION ALL SELECT source, 2, phi22 FROM f
              UNION ALL SELECT source, 3, phi33 FROM f)
            SELECT source, CAST(lag AS BIGINT) AS lag, n_buckets,
                   FLOOR(v * 1000000 + 0.5) / 1000000.0 AS pacf
            FROM u JOIN nb USING (source)
        """,
        # medians via quantile_cont: on integer-valued sums every
        # intermediate (median, |x - med|, MAD, 3 * MAD) is IEEE-exact,
        # so the flag comparison is identical on both sides
        "seasonal_naive_mase": f"""
            WITH r AS ({rollup(60)}),
            d AS (SELECT source, sum_tok,
                         LAG(sum_tok, 1) OVER w AS l1,
                         LAG(sum_tok, 60) OVER w AS ls
                  FROM r
                  WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            agg AS (SELECT source, COUNT(*)::BIGINT AS n_obs,
                           SUM(ABS(sum_tok - ls)) AS num,
                           COUNT(ls)::BIGINT AS cnt_num,
                           SUM(ABS(sum_tok - l1)) AS den,
                           COUNT(l1)::BIGINT AS cnt_den
                    FROM d GROUP BY source)
            SELECT source, n_obs,
                   FLOOR(CAST(num * cnt_den AS DOUBLE) / (den * cnt_num)
                         * 1000000 + 0.5) / 1000000.0 AS mase
            FROM agg WHERE cnt_num > 0 AND den > 0
        """,
        # open/close are FIRST/LAST_VALUE over the full-bucket frame —
        # constants per (source, hour), so grouping by them is exact; all
        # columns integer (no rounding surface)
        "ohlc_1h": f"""
            WITH r AS ({rollup(60)}),
            w AS (
              SELECT source, bucket_ts - bucket_ts % 3600 AS hb, sum_tok,
                     FIRST_VALUE(bucket_ts) OVER win AS open_ts,
                     FIRST_VALUE(sum_tok) OVER win AS open_tok,
                     LAST_VALUE(bucket_ts) OVER win AS close_ts,
                     LAST_VALUE(sum_tok) OVER win AS close_tok
              FROM r
              WINDOW win AS (
                PARTITION BY source, bucket_ts - bucket_ts % 3600
                ORDER BY bucket_ts
                ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING))
            SELECT source, hb AS bucket_ts, COUNT(*)::BIGINT AS n_minutes,
                   open_ts, open_tok,
                   CAST(MAX(sum_tok) AS BIGINT) AS high_tok,
                   CAST(MIN(sum_tok) AS BIGINT) AS low_tok,
                   close_ts, close_tok
            FROM w
            GROUP BY source, hb, open_ts, open_tok, close_ts, close_tok
        """,
        # sessionization in SQL: LAG-gap break flags, running-sum session
        # ids (ROWS frame so ts ties stay per-row), then group; duration
        # medians of integer seconds are IEEE-exact (no absorber needed)
        "session_stats": """
            WITH e AS (
              SELECT user_id, epoch_us(ts) // 1000000 AS ts_s FROM events),
            d AS (
              SELECT user_id, ts_s,
                     CASE WHEN LAG(ts_s) OVER w IS NULL
                           OR ts_s - LAG(ts_s) OVER w > 1800
                          THEN 1 ELSE 0 END AS brk
              FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts_s)),
            s AS (
              SELECT user_id, ts_s,
                     SUM(brk) OVER (PARTITION BY user_id ORDER BY ts_s
                                    ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND CURRENT ROW) AS sid
              FROM d),
            sess AS (
              SELECT user_id, sid, COUNT(*) AS n,
                     MAX(ts_s) - MIN(ts_s) AS dur
              FROM s GROUP BY 1, 2)
            SELECT CAST(LEAST(n, 10) AS BIGINT) AS n_bucket,
                   COUNT(*)::BIGINT AS n_sessions,
                   CAST(SUM(dur) AS BIGINT) AS total_dur,
                   FLOOR(CAST(SUM(dur) AS DOUBLE) / COUNT(*)
                         * 1000000 + 0.5) / 1000000.0 AS mean_dur,
                   quantile_cont(CAST(dur AS DOUBLE), 0.5) AS p50_dur
            FROM sess GROUP BY 1
        """,
        # runs break on level change OR a minute-grid gap; level is
        # constant within a run so it joins the GROUP BY
        "value_runs": f"""
            WITH r AS ({rollup(60)}),
            d AS (
              SELECT source, bucket_ts, sum_tok // 64 AS level,
                     CASE WHEN LAG(bucket_ts) OVER w = bucket_ts - 60
                           AND LAG(sum_tok // 64) OVER w = sum_tok // 64
                          THEN 0 ELSE 1 END AS brk
              FROM r WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            g AS (
              SELECT source, bucket_ts, level,
                     SUM(brk) OVER (PARTITION BY source
                                    ORDER BY bucket_ts) AS grp
              FROM d)
            SELECT source, MIN(bucket_ts) AS run_start,
                   MAX(bucket_ts) AS run_end,
                   CAST(level AS BIGINT) AS level,
                   COUNT(*)::BIGINT AS run_len
            FROM g GROUP BY source, grp, level
        """,
        # deltas only between CONSECUTIVE hour buckets (prev_ts check);
        # all-integer, ROW_NUMBER ties broken by (source, bucket_ts)
        "topk_movers_1h": f"""
            WITH r AS ({rollup(60)}),
            h AS (
              SELECT source, (bucket_ts // 3600) * 3600 AS bucket_ts,
                     SUM(sum_tok) AS tok
              FROM r GROUP BY 1, 2),
            d AS (
              SELECT source, bucket_ts, tok,
                     LAG(tok) OVER w AS prev_tok,
                     LAG(bucket_ts) OVER w AS prev_ts
              FROM h WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            m AS (
              SELECT source, bucket_ts, CAST(tok AS BIGINT) AS tok,
                     CAST(prev_tok AS BIGINT) AS prev_tok,
                     CAST(tok - prev_tok AS BIGINT) AS delta,
                     CAST(ABS(tok - prev_tok) AS BIGINT) AS delta_abs
              FROM d WHERE prev_ts = bucket_ts - 3600)
            SELECT * FROM (
              SELECT source, bucket_ts, tok, prev_tok, delta, delta_abs,
                     ROW_NUMBER() OVER (ORDER BY delta_abs DESC, source,
                                        bucket_ts) AS rnk
              FROM m)
            WHERE rnk <= 20
        """,
        # first-occurrence per (source, token id), bucketed to the hour;
        # cumulative vocab via a window sum (the UNNEST sees the same int32
        # token ids the engine flattens zero-copy)
        "vocab_growth": f"""
            WITH tok AS (
              SELECT source,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                     * 60 AS ts,
                     UNNEST(tokens) AS token
              FROM read_parquet('{p}/*.parquet')),
            first AS (
              SELECT source, token, MIN(ts) AS first_ts
              FROM tok GROUP BY 1, 2),
            hb AS (
              SELECT source, first_ts - first_ts % 3600 AS bucket_ts,
                     COUNT(*)::BIGINT AS new_tokens
              FROM first GROUP BY 1, 2)
            SELECT source, bucket_ts, new_tokens,
                   CAST(SUM(new_tokens) OVER (
                       PARTITION BY source ORDER BY bucket_ts) AS BIGINT)
                   AS vocab_size
            FROM hb
        """,
        # the oracle never sees the checkpoint machinery: it just rolls up
        # snapshot B directly — equality proves the upsert engine
        "upsert_maintain_1m": f"""
            WITH base AS (
              SELECT doc_id, source, n_tok,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                     AS minute
              FROM read_parquet('{p}/*.parquet')),
            b AS (
              SELECT source, minute * 60 AS bucket_ts,
                     CASE WHEN minute % 10 = 1 THEN n_tok + 1
                          ELSE n_tok END AS n_tok
              FROM base WHERE minute % 10 != 0)
            SELECT source, bucket_ts, COUNT(*) AS n_obs,
                   CAST(SUM(n_tok) AS BIGINT) AS sum_tok,
                   CAST(MIN(n_tok) AS BIGINT) AS min_tok,
                   CAST(MAX(n_tok) AS BIGINT) AS max_tok
            FROM b GROUP BY 1, 2
        """,
        "source_top_docs": f"""
            SELECT source, doc_id, n_tok, rnk FROM (
              SELECT source, doc_id, n_tok,
                     ROW_NUMBER() OVER (PARTITION BY source
                                        ORDER BY n_tok DESC, doc_id) AS rnk
              FROM read_parquet('{p}/*.parquet'))
            WHERE rnk <= 3
        """,
        # midpoint of the global [min, max] bucket range splits the halves;
        # ROW_NUMBER ties broken by source name on both sides
        "rank_shift": f"""
            WITH r AS ({rollup(60)}),
            g AS (SELECT (MIN(bucket_ts) + MAX(bucket_ts)) // 2 AS mid FROM r),
            t AS (
              SELECT source,
                     SUM(CASE WHEN bucket_ts <= g.mid THEN sum_tok
                              ELSE 0 END) AS tok_early,
                     SUM(CASE WHEN bucket_ts > g.mid THEN sum_tok
                              ELSE 0 END) AS tok_late
              FROM r, g GROUP BY 1),
            ranked AS (
              SELECT source,
                     CAST(tok_early AS BIGINT) AS tok_early,
                     CAST(tok_late AS BIGINT) AS tok_late,
                     ROW_NUMBER() OVER (ORDER BY tok_early DESC, source)
                       AS rank_early,
                     ROW_NUMBER() OVER (ORDER BY tok_late DESC, source)
                       AS rank_late
              FROM t)
            SELECT source, tok_early, tok_late, rank_early, rank_late,
                   rank_early - rank_late AS rank_shift
            FROM ranked
        """,
        # cross-sectional dispersion: quantile_cont over per-source hourly
        # sums, grouped by the hour bucket (the time axis, not the source
        # axis); integer sums keep the interpolation IEEE-exact before the
        # shared round6 absorber
        "cross_section_1h": f"""
            WITH h AS (
              SELECT source, (bucket_ts // 3600) * 3600 AS bucket_ts,
                     SUM(sum_tok) AS tok
              FROM ({rollup(60)}) GROUP BY 1, 2)
            SELECT bucket_ts, COUNT(*)::BIGINT AS n_sources,
                   FLOOR(quantile_cont(CAST(tok AS DOUBLE), 0.1)
                         * 1000000 + 0.5) / 1000000.0 AS p10_tok,
                   FLOOR(quantile_cont(CAST(tok AS DOUBLE), 0.5)
                         * 1000000 + 0.5) / 1000000.0 AS p50_tok,
                   FLOOR(quantile_cont(CAST(tok AS DOUBLE), 0.9)
                         * 1000000 + 0.5) / 1000000.0 AS p90_tok
            FROM h GROUP BY 1
        """,
        # epoch arithmetic dow (1970-01-01 = Thursday -> +4), no tz casts
        "dow_hour_profile": f"""
            WITH r AS ({rollup(60)})
            SELECT source,
                   (bucket_ts // 86400 + 4) % 7 AS dow,
                   (bucket_ts % 86400) // 3600 AS hour,
                   COUNT(*)::BIGINT AS n_minutes,
                   CAST(SUM(sum_tok) AS BIGINT) AS sum_tok,
                   FLOOR(CAST(SUM(sum_tok) AS DOUBLE) / COUNT(*)
                         * 1000000 + 0.5) / 1000000.0 AS mean_tok
            FROM r GROUP BY 1, 2, 3
        """,
        "events_dedupe_window": """
            SELECT user_id, event_type, minute_ts, ts_us, event_id FROM (
              SELECT user_id, event_type,
                     (epoch_us(ts) // 60000000) * 60 AS minute_ts,
                     epoch_us(ts) AS ts_us, event_id,
                     ROW_NUMBER() OVER (
                         PARTITION BY user_id, event_type,
                                      epoch_us(ts) // 60000000
                         ORDER BY ts, event_id) AS rn
              FROM events)
            WHERE rn = 1
        """,
        # full outer join on doc_id between the two deterministic snapshot
        # views; -1 sentinel keeps the value columns BIGINT (no null-hash
        # surface); unchanged rows filtered out like the engine
        "snapshot_diff": f"""
            WITH base AS (
              SELECT doc_id, source, n_tok,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                     % 10 AS m
              FROM read_parquet('{p}/*.parquet')),
            a AS (SELECT doc_id, source, n_tok FROM base WHERE m != 2),
            b AS (SELECT doc_id, source,
                         CASE WHEN m = 1 THEN n_tok + 1 ELSE n_tok END AS n_tok
                  FROM base WHERE m != 0)
            SELECT COALESCE(b.doc_id, a.doc_id) AS doc_id,
                   COALESCE(b.source, a.source) AS source,
                   CASE WHEN a.doc_id IS NULL THEN 'added'
                        WHEN b.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS status,
                   CAST(COALESCE(a.n_tok, -1) AS BIGINT) AS old_n_tok,
                   CAST(COALESCE(b.n_tok, -1) AS BIGINT) AS new_n_tok
            FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
            WHERE a.doc_id IS NULL OR b.doc_id IS NULL
               OR a.n_tok != b.n_tok
        """,
        # classic gaps-and-islands: minute index minus row_number is
        # constant within each contiguous run
        "coverage_islands": f"""
            WITH r AS ({rollup(60)}),
            g AS (
              SELECT source, bucket_ts, sum_tok,
                     bucket_ts // 60
                     - ROW_NUMBER() OVER (PARTITION BY source
                                          ORDER BY bucket_ts) AS grp
              FROM r)
            SELECT source, MIN(bucket_ts) AS island_start,
                   MAX(bucket_ts) AS island_end,
                   COUNT(*)::BIGINT AS n_buckets,
                   CAST(SUM(sum_tok) AS BIGINT) AS sum_tok
            FROM g GROUP BY source, grp
        """,
        "mad_outliers": f"""
            WITH r AS ({rollup(60)}),
            med AS (
              SELECT source, quantile_cont(CAST(sum_tok AS DOUBLE), 0.5) AS med
              FROM r GROUP BY 1),
            mad AS (
              SELECT r.source,
                     quantile_cont(ABS(CAST(r.sum_tok AS DOUBLE) - m.med),
                                   0.5) AS mad
              FROM r JOIN med m USING (source) GROUP BY 1)
            SELECT r.source, r.bucket_ts, r.sum_tok,
                   FLOOR(m.med * 1000000 + 0.5)/1000000.0 AS med_tok,
                   FLOOR(d.mad * 1000000 + 0.5)/1000000.0 AS mad_tok
            FROM r JOIN med m USING (source) JOIN mad d USING (source)
            WHERE d.mad > 0
              AND ABS(CAST(r.sum_tok AS DOUBLE) - m.med) > 3.0 * d.mad
        """,
        # median() over ROWS window == quantile_cont(0.5): on integer sums
        # each median is an integer or .5 midpoint below 2^52, IEEE-exact
        # on both sides with no rounding absorber
        "rolling_median_1m": f"""
            WITH r AS ({rollup(60)})
            SELECT source, bucket_ts, sum_tok,
                   median(CAST(sum_tok AS DOUBLE)) OVER (
                       PARTITION BY source ORDER BY bucket_ts
                       ROWS BETWEEN 6 PRECEDING AND CURRENT ROW
                   ) AS roll_med_tok
            FROM r
        """,
        # exact integer moments over the grid index x = (ts - min_ts)/60;
        # slope/intercept are single divisions, r2 the cast-then-multiply
        # num^2/(d1*d2) — same pinned op order as the engine
        "source_trend": f"""
            WITH r AS ({rollup(60)}),
            x AS (
              SELECT source, sum_tok AS y,
                     (bucket_ts - MIN(bucket_ts) OVER (PARTITION BY source))
                         // 60 AS xi
              FROM r),
            m AS (
              SELECT source, COUNT(*)::HUGEINT AS n,
                     SUM(CAST(xi AS HUGEINT)) AS sx,
                     SUM(CAST(y AS HUGEINT)) AS sy,
                     SUM(CAST(xi AS HUGEINT)*xi) AS sxx,
                     SUM(CAST(xi AS HUGEINT)*y) AS sxy,
                     SUM(CAST(y AS HUGEINT)*y) AS syy
              FROM x GROUP BY 1),
            c AS (
              SELECT source, CAST(n AS BIGINT) AS n_obs,
                     n*sxy - sx*sy AS num, n*sxx - sx*sx AS d1,
                     n*syy - sy*sy AS d2, sy*sxx - sx*sxy AS inum
              FROM m)
            SELECT source, n_obs,
                   FLOOR(CAST(num AS DOUBLE)/CAST(d1 AS DOUBLE)
                         * 1000000 + 0.5)/1000000.0 AS slope_tok,
                   FLOOR(CAST(inum AS DOUBLE)/CAST(d1 AS DOUBLE)
                         * 1000000 + 0.5)/1000000.0 AS intercept_tok,
                   FLOOR(CASE WHEN d2 > 0
                              THEN (CAST(num AS DOUBLE)*CAST(num AS DOUBLE))
                                   /(CAST(d1 AS DOUBLE)*CAST(d2 AS DOUBLE))
                              ELSE 0.0 END * 1000000 + 0.5)/1000000.0 AS r2
            FROM c WHERE n_obs >= 2 AND d1 > 0
        """,
        # DF(0) unit-root t-stat: exact HUGEINT pair moments; the residual
        # cross term d2*d1 - num^2 is evaluated in DOUBLES on BOTH sides
        # (the exact product exceeds HUGEINT at corpus scale)
        "bigram_logprob": f"""
            WITH d AS (SELECT doc_id, tokens
                       FROM read_parquet('{p}/*.parquet')),
            e AS (SELECT doc_id, tokens,
                         unnest(generate_series(1, len(tokens) - 1)) AS i
                  FROM d),
            b AS (SELECT doc_id,
                         CAST(tokens[i] AS BIGINT) AS a,
                         CAST(tokens[i + 1] AS BIGINT) AS bb
                  FROM e),
            c2 AS (SELECT a, bb, COUNT(*)::BIGINT AS c2 FROM b GROUP BY 1, 2),
            c1 AS (SELECT a, CAST(SUM(c2) AS BIGINT) AS c1 FROM c2 GROUP BY 1)
            SELECT b.doc_id, COUNT(*)::BIGINT AS n_bigrams,
                   round_even(AVG(LN(CAST(c1.c1 AS DOUBLE))
                                  - LN(CAST(c2.c2 AS DOUBLE))), 6)
                     AS mean_nll
            FROM b
            JOIN c2 ON c2.a = b.a AND c2.bb = b.bb
            JOIN c1 ON c1.a = b.a
            GROUP BY 1
        """,
        "kn_bigram_logprob": kn_sql,
        "dsir_weights": dsir_sql,
        # CCNet-style per-source perplexity terciles on the KN scores;
        # NTILE ties break on doc_id (mean_nll is 6-dp pinned), matching
        # the engine's (mean_nll, doc_id) mergesort + SQL-NTILE fill rule
        "ppl_tercile": f"""
            WITH kn AS ({kn_sql}),
            src AS (SELECT doc_id, source
                    FROM read_parquet('{p}/*.parquet'))
            SELECT kn.doc_id, src.source, kn.n_bigrams, kn.mean_nll,
                   NTILE(3) OVER (PARTITION BY src.source
                                  ORDER BY kn.mean_nll, kn.doc_id)::BIGINT
                     AS ppl_tile
            FROM kn
            JOIN src USING (doc_id)
        """,
        "chao1_richness": f"""
            WITH u AS (SELECT source, unnest(tokens) AS t
                       FROM read_parquet('{p}/*.parquet')),
            c AS (SELECT source, t, COUNT(*)::BIGINT AS cnt
                  FROM u GROUP BY 1, 2),
            s AS (SELECT source, COUNT(*)::BIGINT AS n_distinct,
                         SUM(CASE WHEN cnt = 1 THEN 1 ELSE 0 END)::BIGINT
                           AS f1,
                         SUM(CASE WHEN cnt = 2 THEN 1 ELSE 0 END)::BIGINT
                           AS f2
                  FROM c GROUP BY 1)
            SELECT source, n_distinct, f1, f2,
                   FLOOR((n_distinct + f1 * (f1 - 1) / (2.0 * (f2 + 1)))
                         * 1000000 + 0.5) / 1000000.0 AS chao1
            FROM s
        """,
        "doc_lexical_stats": f"""
            WITH d AS (SELECT doc_id, tokens
                       FROM read_parquet('{p}/*.parquet')),
            base AS (SELECT doc_id, len(tokens)::BIGINT AS n_tok FROM d),
            u AS (SELECT doc_id, t, COUNT(*)::BIGINT AS c
                  FROM (SELECT doc_id, unnest(tokens) AS t FROM d)
                  GROUP BY 1, 2),
            ty AS (SELECT doc_id, COUNT(*)::BIGINT AS n_types,
                          SUM(CASE WHEN c = 1 THEN 1 ELSE 0 END)::BIGINT
                            AS n_hapax
                   FROM u GROUP BY 1),
            bg AS (SELECT doc_id,
                          CAST(tokens[i] AS BIGINT) * 4294967296
                            + CAST(tokens[i + 1] AS BIGINT) AS v
                   FROM (SELECT doc_id, tokens,
                                unnest(generate_series(1, len(tokens) - 1))
                                  AS i
                         FROM d)),
            bgc AS (SELECT doc_id, COUNT(*)::BIGINT AS n_bigrams,
                           COUNT(DISTINCT v)::BIGINT AS n_distinct
                    FROM bg GROUP BY 1)
            SELECT base.doc_id, base.n_tok,
                   COALESCE(ty.n_types, 0)::BIGINT AS n_types,
                   COALESCE(ty.n_hapax, 0)::BIGINT AS n_hapax,
                   CASE WHEN base.n_tok = 0 THEN 0.0
                        ELSE FLOOR(CAST(ty.n_types AS DOUBLE) / base.n_tok
                                   * 1000000 + 0.5) / 1000000.0 END AS ttr,
                   CASE WHEN COALESCE(ty.n_types, 0) = 0 THEN 0.0
                        ELSE FLOOR(CAST(ty.n_hapax AS DOUBLE) / ty.n_types
                                   * 1000000 + 0.5) / 1000000.0 END
                     AS hapax_frac,
                   CASE WHEN COALESCE(bgc.n_bigrams, 0) = 0 THEN 0.0
                        ELSE FLOOR(CAST(bgc.n_bigrams - bgc.n_distinct
                                        AS DOUBLE) / bgc.n_bigrams
                                   * 1000000 + 0.5) / 1000000.0 END
                     AS dup_bigram_frac
            FROM base
            LEFT JOIN ty USING (doc_id)
            LEFT JOIN bgc USING (doc_id)
        """,
        # Heaps fit: engine fsum sums vs SQL SUM differ by ulps in the
        # OLS moments; the shared round6 floor-half-up absorbs (zipf_fit
        # precedent); V carries forward by running MAX on both sides
        "heaps_fit": f"""
            WITH tok AS (
              SELECT source,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                     * 60 AS ts,
                     UNNEST(tokens) AS token
              FROM read_parquet('{p}/*.parquet')),
            first AS (
              SELECT source, token, MIN(ts) AS first_ts
              FROM tok GROUP BY 1, 2),
            hb AS (
              SELECT source, first_ts - first_ts % 3600 AS bucket_ts,
                     COUNT(*)::BIGINT AS new_tokens
              FROM first GROUP BY 1, 2),
            v AS (
              SELECT source, bucket_ts,
                     CAST(SUM(new_tokens) OVER (
                         PARTITION BY source ORDER BY bucket_ts) AS BIGINT)
                       AS vocab_size
              FROM hb),
            nb AS (
              SELECT source,
                     (CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                      * 60) - (CAST(substr(doc_id, length(doc_id) - 9, 10)
                                    AS BIGINT) * 60) % 3600 AS bucket_ts,
                     CAST(SUM(n_tok) AS BIGINT) AS tok_cnt
              FROM read_parquet('{p}/*.parquet') GROUP BY 1, 2),
            pts AS (
              SELECT nb.source, nb.bucket_ts,
                     CAST(SUM(nb.tok_cnt) OVER (
                         PARTITION BY nb.source ORDER BY nb.bucket_ts)
                       AS BIGINT) AS cum_n,
                     MAX(v.vocab_size) OVER (
                         PARTITION BY nb.source ORDER BY nb.bucket_ts) AS vz
              FROM nb
              LEFT JOIN v ON v.source = nb.source
                         AND v.bucket_ts = nb.bucket_ts),
            l AS (
              SELECT source, LN(CAST(cum_n AS DOUBLE)) AS lx,
                     LN(CAST(vz AS DOUBLE)) AS ly
              FROM pts),
            m AS (
              SELECT source, COUNT(*)::BIGINT AS n, SUM(lx) AS sx,
                     SUM(ly) AS sy, SUM(lx * ly) AS sxy,
                     SUM(lx * lx) AS sxx, SUM(ly * ly) AS syy
              FROM l GROUP BY 1)
            SELECT source, n AS n_points,
                   FLOOR((n * sxy - sx * sy) / (n * sxx - sx * sx)
                         * 1000000 + 0.5) / 1000000.0 AS beta,
                   FLOOR((sy * sxx - sx * sxy) / (n * sxx - sx * sx)
                         * 1000000 + 0.5) / 1000000.0 AS log_k,
                   FLOOR(CASE WHEN n * syy - sy * sy > 0
                              THEN ((n * sxy - sx * sy) * (n * sxy - sx * sy))
                                   / ((n * sxx - sx * sx)
                                      * (n * syy - sy * sy))
                              ELSE 1.0 END * 1000000 + 0.5) / 1000000.0 AS r2
            FROM m
            WHERE n >= 2 AND n * sxx - sx * sx > 0
        """,
        # n-gram contamination (driven at n=2): DISTINCT packed bigrams
        # per source, pairwise intersection via self-join, one pinned
        # division
        "source_ngram_overlap": f"""
            WITH e AS (
              SELECT source, tokens,
                     unnest(generate_series(1, len(tokens) - 1)) AS i
              FROM read_parquet('{p}/*.parquet')),
            g AS (SELECT DISTINCT source,
                         CAST(tokens[i] AS BIGINT) * 65536
                         + CAST(tokens[i + 1] AS BIGINT) AS key
                  FROM e),
            na AS (SELECT source, COUNT(*)::BIGINT AS n_a FROM g GROUP BY 1),
            pr AS (SELECT a.source AS source_a, b.source AS source_b,
                          COUNT(*)::BIGINT AS n_common
                   FROM g a JOIN g b USING (key)
                   WHERE a.source <> b.source
                   GROUP BY 1, 2)
            SELECT source_a, source_b, na.n_a, n_common,
                   FLOOR(CAST(n_common AS DOUBLE) / na.n_a * 1000000 + 0.5)
                     / 1000000.0 AS overlap
            FROM pr JOIN na ON na.source = pr.source_a
        """,
        # Bigram conditional entropy: exact integer counts feed one float
        # expression per source; engine exchange-order sums vs SQL SUM
        # differ by ulps, round6 floor-half-up absorbs (heaps precedent)
        "entropy_rate": f"""
            WITH e AS (
              SELECT source, tokens,
                     unnest(generate_series(1, len(tokens) - 1)) AS i
              FROM read_parquet('{p}/*.parquet')),
            b AS (SELECT source,
                         CAST(tokens[i] AS BIGINT) AS a,
                         CAST(tokens[i + 1] AS BIGINT) AS bb
                  FROM e),
            c2 AS (SELECT source, a, bb, COUNT(*)::BIGINT AS c2
                   FROM b GROUP BY 1, 2, 3),
            ct AS (SELECT source, a, CAST(SUM(c2) AS BIGINT) AS c1,
                          COUNT(*)::BIGINT AS nd,
                          SUM(CAST(c2 AS DOUBLE)
                              * LN(CAST(c2 AS DOUBLE))) AS s2
                   FROM c2 GROUP BY 1, 2),
            s AS (SELECT source, CAST(SUM(c1) AS BIGINT) AS n_bigrams,
                         CAST(SUM(nd) AS BIGINT) AS n_distinct,
                         SUM(s2) AS s2,
                         SUM(CAST(c1 AS DOUBLE)
                             * LN(CAST(c1 AS DOUBLE))) AS s1
                  FROM ct GROUP BY 1)
            SELECT source, n_bigrams, n_distinct,
                   FLOOR((s1 - s2) / n_bigrams * 1000000 + 0.5)
                     / 1000000.0 AS cond_entropy,
                   FLOOR((LN(CAST(n_bigrams AS DOUBLE)) - s1 / n_bigrams)
                         * 1000000 + 0.5) / 1000000.0 AS context_entropy
            FROM s
        """,
        "token_burstiness": f"""
            WITH u AS (SELECT source, doc_id, unnest(tokens) AS t
                       FROM read_parquet('{p}/*.parquet')),
            pdc AS (SELECT source, CAST(t AS BIGINT) AS token, doc_id,
                           COUNT(*)::BIGINT AS c
                    FROM u GROUP BY 1, 2, 3),
            st AS (SELECT source, token,
                          CAST(SUM(c) AS BIGINT) AS total_cnt,
                          CAST(SUM(c * c) AS BIGINT) AS csq,
                          COUNT(*)::BIGINT AS df_docs
                   FROM pdc GROUP BY 1, 2),
            d AS (SELECT source, COUNT(*)::BIGINT AS nd
                  FROM read_parquet('{p}/*.parquet') GROUP BY 1)
            SELECT st.source, token, total_cnt, df_docs,
                   FLOOR((CAST(csq AS DOUBLE) / nd
                          - (CAST(total_cnt AS DOUBLE) / nd)
                            * (CAST(total_cnt AS DOUBLE) / nd))
                         / (CAST(total_cnt AS DOUBLE) / nd)
                         * 1000000 + 0.5) / 1000000.0 AS vmr
            FROM st JOIN d USING (source)
            WHERE total_cnt >= 3
        """,
        "yule_k": f"""
            WITH u AS (SELECT source, unnest(tokens) AS t
                       FROM read_parquet('{p}/*.parquet')),
            c AS (SELECT source, t, COUNT(*)::BIGINT AS cnt
                  FROM u GROUP BY 1, 2),
            s AS (SELECT source, CAST(SUM(cnt) AS BIGINT) AS n_tokens,
                         COUNT(*)::BIGINT AS n_types,
                         CAST(SUM(cnt * cnt) AS BIGINT) AS sq
                  FROM c GROUP BY 1)
            SELECT source, n_tokens, n_types,
                   FLOOR(10000.0 * (CAST(sq AS DOUBLE) - n_tokens)
                         / (CAST(n_tokens AS DOUBLE) * n_tokens)
                         * 1000000 + 0.5) / 1000000.0 AS yule_k
            FROM s
        """,
        "gt_coverage": f"""
            WITH u AS (SELECT source, unnest(tokens) AS t
                       FROM read_parquet('{p}/*.parquet')),
            c AS (SELECT source, t, COUNT(*)::BIGINT AS cnt
                  FROM u GROUP BY 1, 2),
            s AS (SELECT source, CAST(SUM(cnt) AS BIGINT) AS n_tokens,
                         SUM(CASE WHEN cnt = 1 THEN 1 ELSE 0 END)::BIGINT
                           AS f1
                  FROM c GROUP BY 1)
            SELECT source, n_tokens, f1,
                   FLOOR(CAST(f1 AS DOUBLE) / n_tokens * 1000000 + 0.5)
                     / 1000000.0 AS unseen_mass,
                   FLOOR((1.0 - CAST(f1 AS DOUBLE) / n_tokens)
                         * 1000000 + 0.5) / 1000000.0 AS coverage
            FROM s
        """,
        "runs_test": f"""
            WITH r AS ({rollup(60)}),
            m AS (SELECT source, median(sum_tok) AS med FROM r GROUP BY 1),
            k AS (SELECT r.source, r.bucket_ts,
                         CASE WHEN CAST(r.sum_tok AS DOUBLE) > m.med
                              THEN 1 ELSE 0 END AS s
                  FROM r JOIN m ON m.source = r.source
                  WHERE CAST(r.sum_tok AS DOUBLE) <> m.med),
            c AS (SELECT source, s,
                         LAG(s) OVER (PARTITION BY source
                                      ORDER BY bucket_ts) AS prev
                  FROM k),
            agg AS (SELECT source,
                           COUNT(*)::BIGINT AS n_kept,
                           SUM(s)::BIGINT AS n_above,
                           (COUNT(*) - SUM(s))::BIGINT AS n_below,
                           (1 + SUM(CASE WHEN prev IS NOT NULL AND s <> prev
                                         THEN 1 ELSE 0 END))::BIGINT AS n_runs
                    FROM c GROUP BY 1),
            f AS (SELECT source, n_kept, n_above, n_below, n_runs,
                         2.0 * n_above * n_below
                           * (2.0 * n_above * n_below - n_kept)
                           / (n_kept * n_kept * (n_kept - 1.0)) AS v
                  FROM agg
                  WHERE n_above >= 1 AND n_below >= 1 AND n_kept >= 2)
            SELECT source, n_kept, n_above, n_below, n_runs,
                   FLOOR((n_runs - (1.0 + 2.0 * n_above * n_below / n_kept))
                         / sqrt(v) * 1000000 + 0.5) / 1000000.0 AS z
            FROM f WHERE v > 0.0
        """,
        "turning_points": f"""
            WITH r AS ({rollup(60)}),
            w AS (SELECT source, bucket_ts, sum_tok AS v,
                         LAG(sum_tok) OVER (PARTITION BY source
                                            ORDER BY bucket_ts) AS pv,
                         LEAD(sum_tok) OVER (PARTITION BY source
                                             ORDER BY bucket_ts) AS nv
                  FROM r),
            t AS (SELECT source, COUNT(*)::BIGINT AS n,
                         SUM(CASE WHEN pv IS NOT NULL AND nv IS NOT NULL
                                  AND (v - pv) * (nv - v) < 0
                                  THEN 1 ELSE 0 END)::BIGINT AS n_turning
                  FROM w GROUP BY 1)
            SELECT source, n AS n_buckets, n_turning,
                   FLOOR((n_turning - 2.0 * (n - 2) / 3.0)
                         / sqrt((16.0 * n - 29.0) / 90.0)
                         * 1000000 + 0.5) / 1000000.0 AS z
            FROM t WHERE n >= 3
        """,
        "cox_stuart": f"""
            WITH r AS ({rollup(60)}),
            idx AS (SELECT source, sum_tok AS v,
                           CAST(row_number() OVER (PARTITION BY source
                                                   ORDER BY bucket_ts)
                                AS BIGINT) - 1 AS rn,
                           COUNT(*) OVER (PARTITION BY source) AS n
                    FROM r),
            p AS (SELECT a.source, b.v - a.v AS d
                  FROM idx a JOIN idx b
                    ON b.source = a.source
                   AND b.rn = a.rn + (a.n - a.n // 2)
                  WHERE a.rn < a.n // 2),
            agg AS (SELECT source, COUNT(*)::BIGINT AS n_pairs,
                           SUM(CASE WHEN d > 0 THEN 1 ELSE 0 END)::BIGINT
                             AS n_pos,
                           SUM(CASE WHEN d < 0 THEN 1 ELSE 0 END)::BIGINT
                             AS n_neg
                    FROM p GROUP BY 1)
            SELECT source, n_pairs, n_pos, n_neg,
                   CAST(CASE WHEN n_pos > n_neg THEN 1
                             WHEN n_pos < n_neg THEN -1
                             ELSE 0 END AS BIGINT) AS trend
            FROM agg
        """,
        "adf_stat": f"""
            WITH r AS ({rollup(60)}),
            p AS (
              SELECT source, sum_tok AS y,
                     LAG(sum_tok) OVER (PARTITION BY source
                                        ORDER BY bucket_ts) AS x
              FROM r),
            d AS (
              SELECT source, CAST(x AS HUGEINT) AS x,
                     CAST(y - x AS HUGEINT) AS dy
              FROM p WHERE x IS NOT NULL),
            m AS (
              SELECT source, COUNT(*)::HUGEINT AS n,
                     SUM(x) AS sx, SUM(dy) AS sd,
                     SUM(x*x) AS sxx, SUM(x*dy) AS sxd, SUM(dy*dy) AS sdd
              FROM d GROUP BY 1),
            c AS (
              SELECT source, CAST(n AS BIGINT) AS n_pairs,
                     n*sxd - sx*sd AS num, n*sxx - sx*sx AS d1,
                     n*sdd - sd*sd AS d2
              FROM m),
            f AS (
              SELECT source, n_pairs, num, d1,
                     CAST(d2 AS DOUBLE)*CAST(d1 AS DOUBLE)
                       - CAST(num AS DOUBLE)*CAST(num AS DOUBLE) AS rrd
              FROM c WHERE n_pairs >= 3 AND d1 > 0)
            SELECT source, n_pairs,
                   FLOOR(CAST(num AS DOUBLE)/CAST(d1 AS DOUBLE)
                         * 1000000 + 0.5)/1000000.0 AS gamma_hat,
                   FLOOR(CAST(num AS DOUBLE)
                         * sqrt(CAST(n_pairs - 2 AS DOUBLE)) / sqrt(rrd)
                         * 1000000 + 0.5)/1000000.0 AS adf_t
            FROM f WHERE rrd > 0.0
        """,
        "customers_with_orders": """
            SELECT c_custkey, c_name, c_mktsegment FROM customer c
            WHERE EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_custkey = c.c_custkey)
        """,
        "customers_no_events": """
            SELECT c_custkey, c_name, c_mktsegment FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM events e
                              WHERE e.user_id = c.c_custkey)
        """,
        "supplier_demand_salted": """
            SELECT s.s_nationkey,
                   COUNT(*) AS n_items,
                   CAST(SUM(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty
            FROM lineitem l JOIN supplier s ON l.l_suppkey = s.s_suppkey
            GROUP BY 1
        """,
        "activity_order_full": """
            WITH e AS (SELECT user_id AS k, COUNT(*) AS n_ev
                       FROM events GROUP BY 1),
                 o AS (SELECT o_custkey AS k, COUNT(*) AS n_ord
                       FROM orders GROUP BY 1)
            SELECT k, e.n_ev, o.n_ord FROM e FULL JOIN o USING (k)
        """,
        "token_diversity": f"""
            SELECT doc_id, source, CAST(n_tok AS BIGINT) AS n_tok,
                   CAST(len(list_distinct(tokens)) AS BIGINT) AS n_distinct,
                   CASE WHEN n_tok > 0
                        THEN FLOOR(CAST(len(list_distinct(tokens)) AS DOUBLE)
                                   / n_tok * 1000000 + 0.5)/1000000.0
                        ELSE 0.0 END AS diversity
            FROM read_parquet('{p}/*.parquet')
        """,
        # binary-fraction quantiles (0.25/0.75): q*(n-1) and the interp
        # weights are IEEE-exact in any op order, so band edges and clip
        # comparisons match bit-for-bit with no absorber
        "winsorize_1m": f"""
            WITH r AS ({rollup(60)}),
            band AS (
              SELECT source,
                     quantile_cont(CAST(sum_tok AS DOUBLE), 0.25) AS lo_tok,
                     quantile_cont(CAST(sum_tok AS DOUBLE), 0.75) AS hi_tok
              FROM r GROUP BY 1)
            SELECT r.source, r.bucket_ts, r.sum_tok, b.lo_tok, b.hi_tok,
                   LEAST(GREATEST(CAST(r.sum_tok AS DOUBLE), b.lo_tok),
                         b.hi_tok) AS wins_tok
            FROM r JOIN band b USING (source)
        """,
        "ntile_volume_1m": f"""
            WITH r AS ({rollup(60)})
            SELECT source, bucket_ts, sum_tok,
                   CAST(NTILE(4) OVER (
                       PARTITION BY source ORDER BY sum_tok, bucket_ts
                   ) AS BIGINT) AS tile
            FROM r
        """,
        "split_assign": _split_assign_sql(),
        # integer chunk-count rule shared with chunk_counts:
        # 1 + (n - max_len + stride - 1) // stride, stride = 128 - 16
        "chunk_sequences": f"""
            WITH d AS (
              SELECT doc_id, source, CAST(n_tok AS BIGINT) AS n
              FROM read_parquet('{p}/*.parquet')),
            c AS (
              SELECT doc_id, source, n,
                     CASE WHEN n <= 128 THEN 1
                          ELSE 1 + (n - 128 + 111) // 112 END AS k
              FROM d)
            SELECT doc_id, source, i AS chunk_idx, i*112 AS tok_start,
                   LEAST(i*112 + 128, n) AS tok_end,
                   LEAST(i*112 + 128, n) - i*112 AS chunk_len
            FROM c, UNNEST(generate_series(0, k - 1)) AS t(i)
        """,
        "dedup_normalized": r"""
            WITH norm AS (
              SELECT doc_id, source, n_chars,
                     trim(regexp_replace(lower(text), '[ \t\n\r\f\v]+',
                                         ' ', 'g')) AS nt
              FROM documents)
            SELECT doc_id, source, n_chars FROM norm
            WHERE doc_id IN (SELECT MIN(doc_id) FROM norm GROUP BY nt)
        """,
        # strict record highs: MAX over all PRECEDING rows (NULL on the
        # first row keeps it), numbered in time order
        "running_records": f"""
            WITH r AS ({rollup(60)})
            SELECT source, bucket_ts, sum_tok,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY source ORDER BY bucket_ts
                   ) AS BIGINT) AS record_no
            FROM (
              SELECT source, bucket_ts, sum_tok,
                     MAX(sum_tok) OVER (
                         PARTITION BY source ORDER BY bucket_ts
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ) AS pm
              FROM r)
            WHERE pm IS NULL OR sum_tok > pm
        """,
        # population variance via the integer cross-multiplied form
        # (HUGEINT sums are exact like the engine's Python ints); each
        # float output is one pinned expression + floor-half-up
        "burstiness": f"""
            WITH r AS ({rollup(60)})
            SELECT source, COUNT(*)::BIGINT AS n_buckets,
                   CAST(SUM(sum_tok) AS BIGINT) AS sum_tok,
                   FLOOR(CAST(SUM(sum_tok) AS DOUBLE) / COUNT(*)
                         * 1000000 + 0.5) / 1000000.0 AS mean_tok,
                   FLOOR(CAST(COUNT(*) * SUM(sum_tok * sum_tok)
                              - SUM(sum_tok) * SUM(sum_tok) AS DOUBLE)
                         / (COUNT(*) * COUNT(*))
                         * 1000000 + 0.5) / 1000000.0 AS var_tok,
                   FLOOR((CAST(COUNT(*) * SUM(sum_tok * sum_tok)
                               - SUM(sum_tok) * SUM(sum_tok) AS DOUBLE)
                          / (COUNT(*) * COUNT(*)))
                         / (CAST(SUM(sum_tok) AS DOUBLE) / COUNT(*))
                         * 1000000 + 0.5) / 1000000.0 AS fano,
                   FLOOR(SQRT(CAST(COUNT(*) * SUM(sum_tok * sum_tok)
                                   - SUM(sum_tok) * SUM(sum_tok) AS DOUBLE)
                              / (COUNT(*) * COUNT(*)))
                         / (CAST(SUM(sum_tok) AS DOUBLE) / COUNT(*))
                         * 1000000 + 0.5) / 1000000.0 AS cv
            FROM r GROUP BY source HAVING SUM(sum_tok) > 0
        """,
        # per-user event-type entropy: integer counts are exact; the
        # SUM(c*ln(c)) float order difference (~1e-13 rel) is absorbed by
        # the shared 6-decimal floor-half-up (doc_entropy discipline)
        "user_entropy": """
            WITH c AS (
              SELECT user_id, event_type, COUNT(*)::BIGINT AS c
              FROM events GROUP BY 1, 2)
            SELECT user_id, CAST(SUM(c) AS BIGINT) AS n_events,
                   COUNT(*)::BIGINT AS n_types,
                   FLOOR((ln(SUM(c)) - SUM(c * ln(c)) / SUM(c))
                         * 1000000 + 0.5) / 1000000.0 AS entropy
            FROM c GROUP BY user_id
        """,
        # lower weighted quantile on the exact integer grid:
        # smallest value with 1e6 * cumweight >= q6 * totalweight
        "weighted_quantiles": f"""
            WITH c AS (
              SELECT n_tok AS value, CAST(SUM(n_tok) AS BIGINT) AS w
              FROM read_parquet('{p}/*.parquet') GROUP BY 1),
            cum AS (
              SELECT value, SUM(w) OVER (ORDER BY value) AS cw,
                     SUM(w) OVER () AS tw
              FROM c)
            SELECT
              CAST((SELECT MIN(value) FROM cum
                    WHERE 1000000*cw >= 250000*tw) AS BIGINT) AS wq0_25,
              CAST((SELECT MIN(value) FROM cum
                    WHERE 1000000*cw >= 500000*tw) AS BIGINT) AS wq0_5,
              CAST((SELECT MIN(value) FROM cum
                    WHERE 1000000*cw >= 750000*tw) AS BIGINT) AS wq0_75,
              CAST((SELECT MIN(value) FROM cum
                    WHERE 1000000*cw >= 900000*tw) AS BIGINT) AS wq0_9,
              CAST((SELECT MIN(value) FROM cum
                    WHERE 1000000*cw >= 990000*tw) AS BIGINT) AS wq0_99
        """,
        # PERCENT_RANK = (rank-1)/(n-1), RANK tie semantics; single-row
        # groups emit exact 0.0 (the SQL rule)
        "length_percentile": """
            SELECT doc_id, source, n_chars,
                   FLOOR(PERCENT_RANK() OVER (
                       PARTITION BY source ORDER BY n_chars
                   ) * 1000000 + 0.5) / 1000000.0 AS pct_rank
            FROM documents
        """,
        # distinct vocab per source; pair overlap by token self-join;
        # one pinned Jaccard division + floor-half-up
        "vocab_overlap": f"""
            WITH st AS (
              SELECT DISTINCT * FROM (
                SELECT source, UNNEST(tokens) AS token
                FROM read_parquet('{p}/*.parquet'))),
            cnt AS (SELECT source, COUNT(*)::BIGINT AS n FROM st GROUP BY 1),
            com AS (
              SELECT a.source AS sa, b.source AS sb, COUNT(*)::BIGINT AS c
              FROM st a JOIN st b USING (token)
              WHERE a.source < b.source GROUP BY 1, 2)
            SELECT sa AS source_a, sb AS source_b, ca.n AS n_a, cb.n AS n_b,
                   c AS n_common,
                   FLOOR(CAST(c AS DOUBLE) / (ca.n + cb.n - c)
                         * 1000000 + 0.5) / 1000000.0 AS jaccard
            FROM com JOIN cnt ca ON ca.source = sa
                     JOIN cnt cb ON cb.source = sb
        """,
        # gaps-and-islands double cumsum: a streak breaks on a grid gap OR
        # a non-monotone step; single buckets count as streak length 1
        "streaks": f"""
            WITH r AS ({rollup(60)}),
            d AS (
              SELECT source, bucket_ts, sum_tok,
                     CASE WHEN LAG(bucket_ts) OVER w = bucket_ts - 60
                           AND sum_tok > LAG(sum_tok) OVER w
                          THEN 0 ELSE 1 END AS bu,
                     CASE WHEN LAG(bucket_ts) OVER w = bucket_ts - 60
                           AND sum_tok < LAG(sum_tok) OVER w
                          THEN 0 ELSE 1 END AS bd
              FROM r WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            g AS (
              SELECT source,
                     SUM(bu) OVER (PARTITION BY source
                                   ORDER BY bucket_ts) AS gu,
                     SUM(bd) OVER (PARTITION BY source
                                   ORDER BY bucket_ts) AS gd
              FROM d),
            u AS (SELECT source, CAST(MAX(c) AS BIGINT) AS m FROM (
                    SELECT source, gu, COUNT(*) AS c FROM g GROUP BY 1, 2)
                  GROUP BY 1),
            dn AS (SELECT source, CAST(MAX(c) AS BIGINT) AS m FROM (
                    SELECT source, gd, COUNT(*) AS c FROM g GROUP BY 1, 2)
                  GROUP BY 1),
            n AS (SELECT source, COUNT(*)::BIGINT AS n_buckets
                  FROM r GROUP BY 1)
            SELECT n.source, n.n_buckets, u.m AS longest_up,
                   dn.m AS longest_down
            FROM n JOIN u USING (source) JOIN dn USING (source)
        """,
        # pairwise slopes are single IEEE divisions on exact integer hourly
        # sums; the median is the shared quantile_cont interpolation rule
        "theilsen_trend_1h": f"""
            WITH r AS ({rollup(60)}),
            h AS (
              SELECT source, (bucket_ts // 3600) * 3600 AS bt,
                     CAST(SUM(sum_tok) AS BIGINT) AS y
              FROM r GROUP BY 1, 2),
            pr AS (
              SELECT a.source AS source,
                     CAST(b.y - a.y AS DOUBLE) / (b.bt - a.bt) AS slope
              FROM h a JOIN h b ON a.source = b.source AND b.bt > a.bt),
            n AS (SELECT source, COUNT(*)::BIGINT AS n_steps
                  FROM h GROUP BY 1)
            SELECT n.source, n.n_steps, q.n_pairs, q.slope
            FROM n JOIN (
              SELECT source, COUNT(*)::BIGINT AS n_pairs,
                     FLOOR(quantile_cont(slope, 0.5) * 1000000 + 0.5)
                         / 1000000.0 AS slope
              FROM pr GROUP BY 1) q USING (source)
            WHERE n.n_steps >= 2
        """,
        # exact first digit via VARCHAR head (the engine extracts it with
        # integer halving-by-ten — float log10 misrounds near powers of 10)
        "first_digit_profile": f"""
            WITH v AS (
              SELECT source,
                     CAST(substr(CAST(n_tok AS VARCHAR), 1, 1) AS BIGINT)
                         AS digit
              FROM read_parquet('{p}/*.parquet') WHERE n_tok > 0),
            c AS (SELECT source, digit, COUNT(*)::BIGINT AS cnt
                  FROM v GROUP BY 1, 2),
            t AS (SELECT source, SUM(cnt) AS tot FROM c GROUP BY 1)
            SELECT c.source, c.digit, c.cnt,
                   FLOOR(CAST(c.cnt AS DOUBLE) / t.tot * 1000000 + 0.5)
                       / 1000000.0 AS frac
            FROM c JOIN t USING (source)
        """,
        # S is an integer pairwise sign sum (exact); tau one pinned
        # division — the theilsen_trend_1h pair CTE with SIGN instead of
        # the slope division
        "mann_kendall_1h": f"""
            WITH r AS ({rollup(60)}),
            h AS (
              SELECT source, (bucket_ts // 3600) * 3600 AS bt,
                     CAST(SUM(sum_tok) AS BIGINT) AS y
              FROM r GROUP BY 1, 2),
            pr AS (
              SELECT a.source AS source, SIGN(b.y - a.y) AS sg
              FROM h a JOIN h b ON a.source = b.source AND b.bt > a.bt),
            n AS (SELECT source, COUNT(*)::BIGINT AS n_steps
                  FROM h GROUP BY 1)
            SELECT n.source, n.n_steps, q.s_stat,
                   FLOOR(CAST(q.s_stat AS DOUBLE)
                         / (n.n_steps * (n.n_steps - 1) / 2)
                         * 1000000 + 0.5) / 1000000.0 AS tau
            FROM n JOIN (
              SELECT source, CAST(SUM(sg) AS BIGINT) AS s_stat
              FROM pr GROUP BY 1) q USING (source)
            WHERE n.n_steps >= 2
        """,
        # revenue in exact 1e-4-dollar units: cents * (100 - disc_pct),
        # both factors rounded from the two-decimal doubles
        # centered rows-window median/MAD via two bounded self-joins on the
        # per-source row index; quantile_cont matches the engine's shared
        # _quantile_pos rule, and the 3.0 * 1.4826 * mad threshold is the
        # same literal float expression on both sides
        "hampel_fill_1m": f"""
            WITH obs AS (
              SELECT source,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                         * 60 AS bucket_ts,
                     CAST(SUM(n_tok) AS BIGINT) AS s
              FROM read_parquet('{p}/*.parquet') GROUP BY 1, 2),
            idx AS (
              SELECT source, bucket_ts, s,
                     row_number() OVER (PARTITION BY source
                                        ORDER BY bucket_ts) AS rn
              FROM obs),
            med AS (
              SELECT a.source, a.rn,
                     quantile_cont(CAST(b.s AS DOUBLE), 0.5) AS med
              FROM idx a JOIN idx b
                ON b.source = a.source AND b.rn BETWEEN a.rn - 5 AND a.rn + 5
              GROUP BY 1, 2),
            mad AS (
              SELECT a.source, a.rn,
                     quantile_cont(abs(CAST(b.s AS DOUBLE) - m.med), 0.5)
                         AS mad
              FROM idx a
              JOIN med m ON m.source = a.source AND m.rn = a.rn
              JOIN idx b
                ON b.source = a.source AND b.rn BETWEEN a.rn - 5 AND a.rn + 5
              GROUP BY 1, 2)
            SELECT i.source, i.bucket_ts, i.s AS sum_tok,
                   CASE WHEN abs(CAST(i.s AS DOUBLE) - m.med)
                             > 3.0 * 1.4826 * d.mad
                        THEN m.med ELSE CAST(i.s AS DOUBLE) END AS fill_value,
                   abs(CAST(i.s AS DOUBLE) - m.med) > 3.0 * 1.4826 * d.mad
                       AS flagged
            FROM idx i
            JOIN med m ON m.source = i.source AND m.rn = i.rn
            JOIN mad d ON d.source = i.source AND d.rn = i.rn
        """,
        # mean/std from exact integer S, Q with the engine's float op order
        # (mean = S/n, population var = Q/n - mean*mean); the trailing
        # windows are SQL ROWS k-1 PRECEDING, truncating at series start
        # exactly like the engine's cumsum formulation
        "control_rules_1m": f"""
            WITH obs AS (
              SELECT source,
                     CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                         * 60 AS bucket_ts,
                     CAST(SUM(n_tok) AS BIGINT) AS s
              FROM read_parquet('{p}/*.parquet') GROUP BY 1, 2),
            mom AS (
              SELECT source, COUNT(*) AS n,
                     CAST(SUM(s) AS DOUBLE) / COUNT(*) AS mean,
                     CAST(SUM(s * s) AS DOUBLE) / COUNT(*)
                         - (CAST(SUM(s) AS DOUBLE) / COUNT(*))
                           * (CAST(SUM(s) AS DOUBLE) / COUNT(*)) AS var
              FROM obs GROUP BY 1),
            z AS (
              SELECT o.source, o.bucket_ts,
                     (CAST(o.s AS DOUBLE) - m.mean) / sqrt(m.var) AS z
              FROM obs o JOIN mom m USING (source)
              WHERE m.n >= 8 AND m.var > 0),
            sided AS (
              SELECT source, bucket_ts, sd.side,
                     CASE WHEN sd.side = 'up' THEN z ELSE -z END AS sz
              FROM z CROSS JOIN
                   (SELECT 'up' AS side UNION ALL SELECT 'down') sd),
            w AS (
              SELECT source, bucket_ts, side,
                     CASE WHEN sz > 3.0 THEN 1 ELSE 0 END AS b3,
                     CASE WHEN sz > 2.0 THEN 1 ELSE 0 END AS b2,
                     CASE WHEN sz > 1.0 THEN 1 ELSE 0 END AS b1,
                     CASE WHEN sz > 0.0 THEN 1 ELSE 0 END AS b0
              FROM sided),
            r AS (
              SELECT source, bucket_ts, side, b3, b2, b1,
                     SUM(b2) OVER w3 AS c2,
                     SUM(b1) OVER w5 AS c1,
                     SUM(b0) OVER w8 AS c0
              FROM w
              WINDOW
                w3 AS (PARTITION BY source, side ORDER BY bucket_ts
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW),
                w5 AS (PARTITION BY source, side ORDER BY bucket_ts
                       ROWS BETWEEN 4 PRECEDING AND CURRENT ROW),
                w8 AS (PARTITION BY source, side ORDER BY bucket_ts
                       ROWS BETWEEN 7 PRECEDING AND CURRENT ROW))
            SELECT source, bucket_ts, 'r1' AS rule, side FROM r WHERE b3 = 1
            UNION ALL
            SELECT source, bucket_ts, 'r2', side FROM r
            WHERE b2 = 1 AND c2 >= 2
            UNION ALL
            SELECT source, bucket_ts, 'r3', side FROM r
            WHERE b1 = 1 AND c1 >= 4
            UNION ALL
            SELECT source, bucket_ts, 'r4', side FROM r WHERE c0 = 8
        """,
        # integer-cents cutoff: cents > s_pos // n_pos is exactly the
        # real-valued strict mean compare for integer cents (see engine doc)
        "idle_rich_customers": """
            WITH c AS (
              SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS c_nationkey,
                     CAST(ROUND(c_acctbal * 100) AS BIGINT) AS cents
              FROM customer),
            cut AS (
              SELECT CAST(SUM(cents) // COUNT(*) AS BIGINT) AS thr
              FROM c WHERE cents > 0)
            SELECT c.c_nationkey, COUNT(*)::BIGINT AS numcust,
                   CAST(SUM(c.cents) AS BIGINT) AS totbal_cents
            FROM c, cut
            WHERE c.cents > cut.thr
              AND NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderdate >= TIMESTAMP '{_IDLE_CUTOFF}')
            GROUP BY 1
        """.format(_IDLE_CUTOFF=_IDLE_CUTOFF),
        "revenue_by_region": """
            SELECT r.r_name, COUNT(*)::BIGINT AS n_items,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l.l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_e4
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name
        """,
        # per-lag exact HUGEINT five-moment sums feed the pinned corr
        # expression; the winner per pair is picked on the ROUNDED corr
        # (corr desc, lag asc) exactly like the engine
        "lead_lag_xcorr": f"""
            WITH obs AS (
              SELECT source,
                     (CAST(substr(doc_id, length(doc_id) - 9, 10) AS BIGINT)
                      * 60 // 3600) * 3600 AS bt,
                     CAST(SUM(n_tok) AS BIGINT) AS s
              FROM read_parquet('{p}/*.parquet') GROUP BY 1, 2),
            refs AS (
              SELECT source AS ref_source, bt, s AS rs FROM obs
              WHERE source IN {_CORR_REFS!r}),
            lags AS (
              SELECT UNNEST(generate_series(-6, 6)) AS lag),
            j AS (
              SELECT o.source, r.ref_source, l.lag, o.s AS x, r.rs AS y
              FROM obs o CROSS JOIN lags l
              JOIN refs r ON r.bt = o.bt + l.lag * 3600
                         AND o.source <> r.ref_source),
            m AS (
              SELECT source, ref_source, lag,
                     COUNT(*)::HUGEINT AS n,
                     SUM(x)::HUGEINT AS sx, SUM(y)::HUGEINT AS sy,
                     SUM(x * y)::HUGEINT AS sxy,
                     SUM(x * x)::HUGEINT AS sxx,
                     SUM(y * y)::HUGEINT AS syy
              FROM j GROUP BY 1, 2, 3),
            c AS (
              SELECT source, ref_source, CAST(lag AS BIGINT) AS lag,
                     CAST(n AS BIGINT) AS n_common,
                     (n * sxy - sx * sy) AS num,
                     (n * sxx - sx * sx) AS d1,
                     (n * syy - sy * sy) AS d2
              FROM m),
            ranked AS (
              SELECT source, ref_source, lag, n_common,
                     FLOOR((CAST(num AS DOUBLE)
                            / SQRT(CAST(d1 AS DOUBLE) * CAST(d2 AS DOUBLE)))
                           * 1000000 + 0.5) / 1000000.0 AS corr
              FROM c WHERE n_common >= 3 AND d1 > 0 AND d2 > 0)
            SELECT source, ref_source, lag AS best_lag, n_common, corr
            FROM (
              SELECT *, ROW_NUMBER() OVER (
                  PARTITION BY source, ref_source
                  ORDER BY corr DESC, lag ASC) AS rn
              FROM ranked)
            WHERE rn = 1
        """,
        # binary-fraction band edges (quantile_cont at 0.25/0.75) are
        # IEEE-exact on integer data, so in-band comparisons agree
        # bit-for-bit; kept sum/count are integers, mean one pinned
        # division (the winsorize contract)
        "trimmed_mean_1m": f"""
            WITH r AS ({rollup(60)}),
            band AS (
              SELECT source,
                     quantile_cont(CAST(sum_tok AS DOUBLE), 0.25) AS lo,
                     quantile_cont(CAST(sum_tok AS DOUBLE), 0.75) AS hi
              FROM r GROUP BY 1),
            sel AS (
              SELECT r.source, r.sum_tok, b.lo, b.hi,
                     (CAST(r.sum_tok AS DOUBLE) >= b.lo
                      AND CAST(r.sum_tok AS DOUBLE) <= b.hi) AS inband
              FROM r JOIN band b USING (source))
            SELECT source, COUNT(*)::BIGINT AS n_buckets,
                   CAST(SUM(CASE WHEN inband THEN 1 ELSE 0 END) AS BIGINT)
                       AS n_kept,
                   ANY_VALUE(lo) AS lo_tok, ANY_VALUE(hi) AS hi_tok,
                   FLOOR(CAST(SUM(CASE WHEN inband THEN sum_tok ELSE 0 END)
                              AS DOUBLE)
                         / SUM(CASE WHEN inband THEN 1 ELSE 0 END)
                         * 1000000 + 0.5) / 1000000.0 AS trimmed_mean_tok
            FROM sel GROUP BY source
        """,
        # integer day sums; share is the single pinned division (zero-total
        # buckets dropped on both sides)
        "source_share_1d": f"""
            WITH r AS ({rollup(60)}),
            d AS (
              SELECT source, (bucket_ts // 86400) * 86400 AS bucket_ts,
                     CAST(SUM(sum_tok) AS BIGINT) AS tok
              FROM r GROUP BY 1, 2),
            t AS (
              SELECT source, bucket_ts, tok,
                     CAST(SUM(tok) OVER (PARTITION BY bucket_ts) AS BIGINT)
                         AS bucket_tok
              FROM d)
            SELECT source, bucket_ts, tok, bucket_tok,
                   FLOOR(CAST(tok AS DOUBLE) / bucket_tok * 1000000 + 0.5)
                       / 1000000.0 AS share
            FROM t WHERE bucket_tok > 0
        """,
        # eta-squared of the hour-of-day grouping: exact HUGEINT moments;
        # the only floats are one Qh - Sh^2/nh term per hod and the final
        # pinned ratio (SUM over <= 24 doubles; ~1e-15 order diff absorbed
        # by round6)
        "seasonality_strength": f"""
            WITH r AS ({rollup(60)}),
            h AS (
              SELECT source, (bucket_ts % 86400) // 3600 AS hod,
                     CAST(COUNT(*) AS BIGINT) AS nh,
                     CAST(SUM(sum_tok) AS BIGINT) AS sh,
                     CAST(SUM(CAST(sum_tok AS HUGEINT) * sum_tok)
                          AS HUGEINT) AS qh
              FROM r GROUP BY 1, 2),
            agg AS (
              SELECT source,
                     CAST(SUM(nh) AS BIGINT) AS n,
                     CAST(COUNT(*) AS BIGINT) AS n_hods,
                     CAST(SUM(CAST(sh AS HUGEINT)) AS HUGEINT) AS s,
                     CAST(SUM(qh) AS HUGEINT) AS q,
                     SUM(CAST(qh AS DOUBLE)
                         - CAST(CAST(sh AS HUGEINT) * sh AS DOUBLE) / nh)
                         AS ssw
              FROM h GROUP BY source)
            SELECT source, n AS n_buckets, n_hods,
                   FLOOR((1.0 - ssw
                          / (CAST(n * q - s * s AS DOUBLE) / n))
                         * 1000000 + 0.5) / 1000000.0 AS strength
            FROM agg WHERE n >= 2 AND n * q - s * s > 0
        """,
        # all-integer: running peak via MAX OVER, first argmax by
        # (dd DESC, ts ASC) row_number — no rounding absorber needed
        "max_drawdown": f"""
            WITH r AS ({rollup(60)}),
            w AS (
              SELECT source, bucket_ts, sum_tok,
                     CAST(MAX(sum_tok) OVER (
                         PARTITION BY source ORDER BY bucket_ts
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                         AS BIGINT) AS peak,
                     CAST(COUNT(*) OVER (PARTITION BY source) AS BIGINT)
                         AS n_buckets
              FROM r),
            d AS (
              SELECT *, peak - sum_tok AS dd,
                     ROW_NUMBER() OVER (
                         PARTITION BY source
                         ORDER BY peak - sum_tok DESC, bucket_ts ASC) AS rn
              FROM w)
            SELECT source, n_buckets, peak AS peak_tok,
                   sum_tok AS trough_tok, CAST(dd AS BIGINT) AS drawdown_tok,
                   bucket_ts AS trough_ts
            FROM d WHERE rn = 1
        """,
        # AR(2) via exact HUGEINT Cramer determinants over contiguous
        # lag-triples (both gaps exactly 60); the only floats are the
        # three final D_k/D divisions, mirroring the engine bit-for-bit
        "ar2_fit": f"""
            WITH r AS ({rollup(60)}),
            lagged AS (
              SELECT source, sum_tok AS y0,
                     LAG(sum_tok, 1) OVER w AS y1,
                     LAG(sum_tok, 2) OVER w AS y2,
                     bucket_ts - LAG(bucket_ts, 1) OVER w AS g1,
                     LAG(bucket_ts, 1) OVER w
                         - LAG(bucket_ts, 2) OVER w AS g2
              FROM r WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            t AS (
              SELECT source, CAST(y0 AS HUGEINT) AS y0,
                     CAST(y1 AS HUGEINT) AS y1, CAST(y2 AS HUGEINT) AS y2
              FROM lagged WHERE g1 = 60 AND g2 = 60),
            m AS (
              SELECT source, CAST(COUNT(*) AS HUGEINT) AS n,
                     SUM(y1) AS s1, SUM(y2) AS s2, SUM(y0) AS s0,
                     SUM(y1*y1) AS s11, SUM(y2*y2) AS s22,
                     SUM(y1*y2) AS s12, SUM(y0*y1) AS s01,
                     SUM(y0*y2) AS s02
              FROM t GROUP BY source HAVING COUNT(*) >= 3),
            det AS (
              SELECT source, n AS n_triples,
                     n*(s11*s22 - s12*s12) - s1*(s1*s22 - s12*s2)
                         + s2*(s1*s12 - s11*s2) AS d,
                     s0*(s11*s22 - s12*s12) - s1*(s01*s22 - s12*s02)
                         + s2*(s01*s12 - s11*s02) AS d0,
                     n*(s01*s22 - s12*s02) - s0*(s1*s22 - s12*s2)
                         + s2*(s1*s02 - s01*s2) AS d1,
                     n*(s11*s02 - s01*s12) - s1*(s1*s02 - s01*s2)
                         + s0*(s1*s12 - s11*s2) AS d2
              FROM m)
            SELECT source, CAST(n_triples AS BIGINT) AS n_triples,
                   FLOOR(CAST(d0 AS DOUBLE) / CAST(d AS DOUBLE)
                         * 1000000 + 0.5) / 1000000.0 AS c0,
                   FLOOR(CAST(d1 AS DOUBLE) / CAST(d AS DOUBLE)
                         * 1000000 + 0.5) / 1000000.0 AS a1,
                   FLOOR(CAST(d2 AS DOUBLE) / CAST(d AS DOUBLE)
                         * 1000000 + 0.5) / 1000000.0 AS a2
            FROM det WHERE d <> 0
        """,
        # order-3 ordinal-pattern census (position tie-break ranks via
        # CASE), entropy over <= 6 -p*ln p terms (order diff absorbed by
        # round6, the seasonality_strength precedent)
        "permutation_entropy": f"""
            WITH r AS ({rollup(60)}),
            lagged AS (
              SELECT source, sum_tok AS y0,
                     LAG(sum_tok, 1) OVER w AS y1,
                     LAG(sum_tok, 2) OVER w AS y2,
                     bucket_ts - LAG(bucket_ts, 1) OVER w AS g1,
                     LAG(bucket_ts, 1) OVER w
                         - LAG(bucket_ts, 2) OVER w AS g2
              FROM r WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            t AS (
              SELECT source,
                     9*((CASE WHEN y1 < y2 THEN 1 ELSE 0 END)
                        + (CASE WHEN y0 < y2 THEN 1 ELSE 0 END))
                     + 3*((CASE WHEN y2 < y1 THEN 1 ELSE 0 END)
                          + (CASE WHEN y0 < y1 THEN 1 ELSE 0 END)
                          + (CASE WHEN y2 = y1 THEN 1 ELSE 0 END))
                     + (CASE WHEN y2 < y0 THEN 1 ELSE 0 END)
                     + (CASE WHEN y1 < y0 THEN 1 ELSE 0 END)
                     + (CASE WHEN y2 = y0 THEN 1 ELSE 0 END)
                     + (CASE WHEN y1 = y0 THEN 1 ELSE 0 END) AS pat
              FROM lagged WHERE g1 = 60 AND g2 = 60),
            c AS (SELECT source, pat, CAST(COUNT(*) AS BIGINT) AS cnt
                  FROM t GROUP BY 1, 2),
            tot AS (SELECT source, CAST(SUM(cnt) AS BIGINT) AS n,
                           CAST(COUNT(*) AS BIGINT) AS n_patterns
                    FROM c GROUP BY source)
            SELECT c.source, tot.n AS n_triples, tot.n_patterns,
                   FLOOR(SUM(-(CAST(cnt AS DOUBLE) / tot.n)
                             * ln(CAST(cnt AS DOUBLE) / tot.n))
                         / ln(6.0) * 1000000 + 0.5) / 1000000.0
                       AS perm_entropy
            FROM c JOIN tot ON c.source = tot.source
            GROUP BY c.source, tot.n, tot.n_patterns
        """,
        # VR(4): exact HUGEINT power sums of 1-step and 4-step contiguous
        # increments; the two pinned variance chains + one ratio mirror
        # the engine bit-for-bit
        "variance_ratio": f"""
            WITH r AS ({rollup(60)}),
            lagged AS (
              SELECT source,
                     sum_tok - LAG(sum_tok, 1) OVER w AS d1,
                     bucket_ts - LAG(bucket_ts, 1) OVER w AS g1,
                     sum_tok - LAG(sum_tok, 4) OVER w AS d4,
                     bucket_ts - LAG(bucket_ts, 4) OVER w AS g4
              FROM r WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            m1 AS (
              SELECT source, CAST(COUNT(*) AS HUGEINT) AS n1,
                     CAST(SUM(CAST(d1 AS HUGEINT)) AS HUGEINT) AS s1,
                     CAST(SUM(CAST(d1 AS HUGEINT) * d1) AS HUGEINT) AS q1
              FROM lagged WHERE g1 = 60 GROUP BY source
              HAVING COUNT(*) >= 2),
            m4 AS (
              SELECT source, CAST(COUNT(*) AS HUGEINT) AS n4,
                     CAST(SUM(CAST(d4 AS HUGEINT)) AS HUGEINT) AS s4,
                     CAST(SUM(CAST(d4 AS HUGEINT) * d4) AS HUGEINT) AS q4
              FROM lagged WHERE g4 = 240 GROUP BY source
              HAVING COUNT(*) >= 2),
            v AS (
              SELECT m1.source,
                     CAST(n1 AS BIGINT) AS n_diffs,
                     CAST(n4 AS BIGINT) AS n_qdiffs,
                     CAST(n1 * q1 - s1 * s1 AS DOUBLE)
                         / CAST(n1 * n1 AS DOUBLE) AS var1,
                     CAST(n4 * q4 - s4 * s4 AS DOUBLE)
                         / CAST(n4 * n4 AS DOUBLE) AS var4
              FROM m1 JOIN m4 ON m1.source = m4.source)
            SELECT source, n_diffs, n_qdiffs,
                   FLOOR(var4 / (4.0 * var1) * 1000000 + 0.5) / 1000000.0
                       AS vr
            FROM v WHERE var1 <> 0.0
        """,
        # split-conformal band for the lag-60-rows naive forecast: exact
        # integer |residuals|, the shared quantile_cont rule for qhat,
        # coverage counted on the UNROUNDED qhat
        "forecast_interval_1m": f"""
            WITH r AS ({rollup(60)}),
            d AS (
              SELECT source,
                     ABS(sum_tok - LAG(sum_tok, 60) OVER (
                         PARTITION BY source ORDER BY bucket_ts)) AS res
              FROM r),
            v AS (SELECT source, res FROM d WHERE res IS NOT NULL),
            q AS (
              SELECT source, CAST(COUNT(*) AS BIGINT) AS n_pairs,
                     quantile_cont(CAST(res AS DOUBLE), 0.9) AS qh
              FROM v GROUP BY source HAVING COUNT(*) >= 10)
            SELECT source, n_pairs,
                   FLOOR(qh * 1000000 + 0.5) / 1000000.0 AS qhat,
                   FLOOR((CAST(SUM(CASE WHEN CAST(res AS DOUBLE) <= qh
                                        THEN 1 ELSE 0 END) AS DOUBLE)
                          / CAST(n_pairs AS DOUBLE))
                         * 1000000 + 0.5) / 1000000.0 AS coverage
            FROM v JOIN q USING (source)
            GROUP BY source, n_pairs, qh
        """,
        # Hurst diffusion exponent: four variance_ratio-style chains at
        # q=1,2,4,8, LOG2 each, then the exact-integer-design OLS slope
        # ((4*Sxy - 6*Sy)/20, x = 0,1,2,3) halved — chains parenthesized
        # exactly as window._scaling_one_source
        "scaling_exponent": f"""
            WITH r AS ({rollup(60)}),
            lagged AS (
              SELECT source,
                     CAST(COUNT(*) OVER (PARTITION BY source) AS BIGINT)
                         AS n_buckets,
                     sum_tok - LAG(sum_tok, 1) OVER w AS d1,
                     bucket_ts - LAG(bucket_ts, 1) OVER w AS g1,
                     sum_tok - LAG(sum_tok, 2) OVER w AS d2,
                     bucket_ts - LAG(bucket_ts, 2) OVER w AS g2,
                     sum_tok - LAG(sum_tok, 4) OVER w AS d4,
                     bucket_ts - LAG(bucket_ts, 4) OVER w AS g4,
                     sum_tok - LAG(sum_tok, 8) OVER w AS d8,
                     bucket_ts - LAG(bucket_ts, 8) OVER w AS g8
              FROM r WINDOW w AS (PARTITION BY source ORDER BY bucket_ts)),
            m1 AS (
              SELECT source, ANY_VALUE(n_buckets) AS n_buckets,
                     CAST(COUNT(*) AS HUGEINT) AS n,
                     SUM(CAST(d1 AS HUGEINT)) AS s,
                     SUM(CAST(d1 AS HUGEINT) * d1) AS q
              FROM lagged WHERE g1 = 60 GROUP BY source
              HAVING COUNT(*) >= 2),
            m2 AS (
              SELECT source, CAST(COUNT(*) AS HUGEINT) AS n,
                     SUM(CAST(d2 AS HUGEINT)) AS s,
                     SUM(CAST(d2 AS HUGEINT) * d2) AS q
              FROM lagged WHERE g2 = 120 GROUP BY source
              HAVING COUNT(*) >= 2),
            m4 AS (
              SELECT source, CAST(COUNT(*) AS HUGEINT) AS n,
                     SUM(CAST(d4 AS HUGEINT)) AS s,
                     SUM(CAST(d4 AS HUGEINT) * d4) AS q
              FROM lagged WHERE g4 = 240 GROUP BY source
              HAVING COUNT(*) >= 2),
            m8 AS (
              SELECT source, CAST(COUNT(*) AS HUGEINT) AS n,
                     SUM(CAST(d8 AS HUGEINT)) AS s,
                     SUM(CAST(d8 AS HUGEINT) * d8) AS q
              FROM lagged WHERE g8 = 480 GROUP BY source
              HAVING COUNT(*) >= 2),
            v AS (
              SELECT m1.source, m1.n_buckets,
                     CAST(m1.n AS BIGINT) AS n_diffs,
                     CAST(m1.n*m1.q - m1.s*m1.s AS DOUBLE)
                         / CAST(m1.n*m1.n AS DOUBLE) AS v1,
                     CAST(m2.n*m2.q - m2.s*m2.s AS DOUBLE)
                         / CAST(m2.n*m2.n AS DOUBLE) AS v2,
                     CAST(m4.n*m4.q - m4.s*m4.s AS DOUBLE)
                         / CAST(m4.n*m4.n AS DOUBLE) AS v4,
                     CAST(m8.n*m8.q - m8.s*m8.s AS DOUBLE)
                         / CAST(m8.n*m8.n AS DOUBLE) AS v8
              FROM m1
              JOIN m2 ON m1.source = m2.source
              JOIN m4 ON m1.source = m4.source
              JOIN m8 ON m1.source = m8.source
              WHERE m1.n*m1.q - m1.s*m1.s > 0
                AND m2.n*m2.q - m2.s*m2.s > 0
                AND m4.n*m4.q - m4.s*m4.s > 0
                AND m8.n*m8.q - m8.s*m8.s > 0),
            y AS (
              SELECT source, n_buckets, n_diffs,
                     LOG2(v1) AS y1, LOG2(v2) AS y2,
                     LOG2(v4) AS y4, LOG2(v8) AS y8
              FROM v)
            SELECT source, n_buckets, n_diffs,
                   FLOOR(((4.0 * ((y2 + 2.0*y4) + 3.0*y8)
                           - 6.0 * (((y1 + y2) + y4) + y8)) / 20.0) / 2.0
                         * 1000000 + 0.5) / 1000000.0 AS hurst
            FROM y
        """,
        # Q4 shape: EXISTS late lineitem (ship > orderdate + 90d), count
        # by priority — all integer
        "order_priority_census": """
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders o
            WHERE o.o_orderdate >= TIMESTAMP '1997-01-01'
              AND o.o_orderdate <  TIMESTAMP '1997-04-01'
              AND EXISTS (
                SELECT 1 FROM lineitem l
                WHERE l.l_orderkey = o.o_orderkey
                  AND l.l_shipdate > o.o_orderdate + INTERVAL 90 DAY)
            GROUP BY o_orderpriority
        """,
        # Q10 shape: returned-item revenue per customer over 1997-H1
        # orders, integer 1e-4-dollar units, top-20 (rev DESC, ckey ASC)
        "returned_revenue_topk": """
            WITH rev AS (
              SELECT o.o_custkey AS cust_key,
                     SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                         * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
                         AS revenue_e4
              FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
              WHERE l.l_returnflag = 'R'
                AND o.o_orderdate >= TIMESTAMP '1997-01-01'
                AND o.o_orderdate <  TIMESTAMP '1997-07-01'
              GROUP BY 1),
            r AS (
              SELECT cust_key, CAST(revenue_e4 AS BIGINT) AS revenue_e4,
                     c.c_name, n.n_name,
                     ROW_NUMBER() OVER (
                         ORDER BY revenue_e4 DESC, cust_key ASC) AS rnk
              FROM rev
              JOIN customer c ON rev.cust_key = c.c_custkey
              JOIN nation n ON c.c_nationkey = n.n_nationkey)
            SELECT cust_key, c_name, n_name, revenue_e4,
                   CAST(rnk AS BIGINT) AS rnk
            FROM r WHERE rnk <= 20
        """,
        # Q17 shape: qty < 0.2*avg as the EXACT integer cross-multiply
        # qty*5*cnt < sum_qty; single closing division by 700
        "small_quantity_revenue": """
            WITH pk AS (
              SELECT p_partkey FROM part
              WHERE p_brand = 'Brand#23' AND p_size < 15),
            li AS (
              SELECT l_partkey AS pkey,
                     CAST(ROUND(l_quantity) AS BIGINT) AS qty,
                     CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS cents
              FROM lineitem
              WHERE l_partkey IN (SELECT p_partkey FROM pk)),
            ag AS (
              SELECT pkey, SUM(qty) AS sum_qty,
                     CAST(COUNT(*) AS BIGINT) AS cnt
              FROM li GROUP BY 1)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_rows,
                   FLOOR(CAST(SUM(li.cents) AS DOUBLE) / 700.0
                         * 1000000 + 0.5) / 1000000.0 AS avg_yearly
            FROM li JOIN ag ON li.pkey = ag.pkey
            WHERE li.qty * 5 * ag.cnt < ag.sum_qty
            HAVING COUNT(*) > 0
        """,
        # Q18 shape: orders with total qty > 220, customer attached,
        # top-20 (qty DESC, okey ASC) — all integer
        "large_orders": """
            WITH q AS (
              SELECT l_orderkey AS order_key,
                     CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT)
                         AS total_qty
              FROM lineitem GROUP BY 1
              HAVING SUM(CAST(ROUND(l_quantity) AS BIGINT)) > 220),
            j AS (
              SELECT q.order_key, q.total_qty,
                     o.o_custkey AS cust_key, c.c_name,
                     CAST(epoch_us(CAST(o.o_orderdate AS TIMESTAMP))
                          AS BIGINT) AS odate_us,
                     ROW_NUMBER() OVER (
                         ORDER BY q.total_qty DESC, q.order_key ASC) AS rnk
              FROM q
              JOIN orders o ON q.order_key = o.o_orderkey
              JOIN customer c ON o.o_custkey = c.c_custkey)
            SELECT order_key, cust_key, c_name, odate_us, total_qty,
                   CAST(rnk AS BIGINT) AS rnk
            FROM j WHERE rnk <= 20
        """,
        # Q7 shape: nation-pair shipping volume, 1e-4-dollar integer money
        "nation_trade_volume": """
            SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
                   CAST(EXTRACT(YEAR FROM l.l_shipdate) AS BIGINT)
                       AS ship_year,
                   CAST(COUNT(*) AS BIGINT) AS n_items,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l.l_discount * 100)
                                          AS BIGINT))) AS BIGINT)
                       AS revenue_e4
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation ns ON s.s_nationkey = ns.n_nationkey
            JOIN nation nc ON c.c_nationkey = nc.n_nationkey
            WHERE l.l_shipdate >= DATE '1996-01-01'
              AND l.l_shipdate < DATE '1998-01-01'
              AND ns.n_name <> nc.n_name
            GROUP BY 1, 2, 3
        """,
        # Q8 shape: integer numerator/denominator, ONE identical IEEE
        # double division on both sides
        "market_share": """
            WITH j AS (
              SELECT CAST(EXTRACT(YEAR FROM o.o_orderdate) AS BIGINT)
                         AS o_year,
                     CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
                         AS rev,
                     ns.n_name AS supp_nation
              FROM lineitem l
              JOIN part p ON l.l_partkey = p.p_partkey
                         AND p.p_type = 'ECONOMY'
              JOIN orders o ON l.l_orderkey = o.o_orderkey
              JOIN customer c ON o.o_custkey = c.c_custkey
              JOIN nation nc ON c.c_nationkey = nc.n_nationkey
              JOIN region r ON nc.n_regionkey = r.r_regionkey
                           AND r.r_name = 'ASIA'
              JOIN supplier s ON l.l_suppkey = s.s_suppkey
              JOIN nation ns ON s.s_nationkey = ns.n_nationkey
              WHERE o.o_orderdate >= DATE '1996-01-01'
                AND o.o_orderdate < DATE '1998-01-01')
            SELECT o_year,
                   CAST(SUM(rev) AS BIGINT) AS mkt_rev_e4,
                   CAST(SUM(CASE WHEN supp_nation = 'NATION_3'
                                 THEN rev ELSE 0 END) AS BIGINT)
                       AS nat_rev_e4,
                   CAST(CAST(SUM(CASE WHEN supp_nation = 'NATION_3'
                                      THEN rev ELSE 0 END) AS BIGINT)
                        AS DOUBLE)
                     / CAST(CAST(SUM(rev) AS BIGINT) AS DOUBLE) AS mkt_share
            FROM j GROUP BY 1
        """,
        # Q9 shape (partsupp-free): cost = retail cents * qty * 100,
        # profit stays integer end-to-end
        "profit_by_nation_year": """
            SELECT ns.n_name AS nation,
                   CAST(EXTRACT(YEAR FROM o.o_orderdate) AS BIGINT) AS o_year,
                   CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l.l_discount * 100)
                                          AS BIGINT))
                            - CAST(ROUND(p.p_retailprice * 100) AS BIGINT)
                              * CAST(ROUND(l.l_quantity) AS BIGINT) * 100)
                        AS BIGINT) AS profit_e4
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation ns ON s.s_nationkey = ns.n_nationkey
            GROUP BY 1, 2
        """,
        # Q12 shape (shipmode-free): integer day-delay buckets x priority
        "ship_delay_census": """
            WITH j AS (
              SELECT (CAST(epoch_us(CAST(l.l_shipdate AS TIMESTAMP))
                           AS BIGINT)
                      - CAST(epoch_us(CAST(o.o_orderdate AS TIMESTAMP))
                             AS BIGINT)) // 86400000000 AS d,
                     o.o_orderpriority AS prio
              FROM lineitem l
              JOIN orders o ON l.l_orderkey = o.o_orderkey)
            SELECT CASE WHEN d < 30 THEN 'lt30'
                        WHEN d < 90 THEN '30_89'
                        ELSE 'ge90' END AS delay_bucket,
                   CAST(SUM(CASE WHEN prio IN ('1-URGENT', '2-HIGH')
                                 THEN 1 ELSE 0 END) AS BIGINT) AS high_cnt,
                   CAST(SUM(CASE WHEN prio IN ('1-URGENT', '2-HIGH')
                                 THEN 0 ELSE 1 END) AS BIGINT) AS low_cnt
            FROM j GROUP BY 1
        """,
        # Q15 shape: revenue view + MAX subquery, ties all surface
        "top_supplier_revenue": """
            WITH r AS (
              SELECT l_suppkey AS supp_key,
                     CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                              * (100 - CAST(ROUND(l_discount * 100)
                                            AS BIGINT))) AS BIGINT)
                         AS revenue_e4
              FROM lineitem
              WHERE l_shipdate >= DATE '1996-01-01'
                AND l_shipdate < DATE '1996-04-01'
              GROUP BY 1)
            SELECT r.supp_key, s.s_name, r.revenue_e4
            FROM r JOIN supplier s ON r.supp_key = s.s_suppkey
            WHERE r.revenue_e4 = (SELECT MAX(revenue_e4) FROM r)
        """,
        # Q16 shape (partsupp-free): distinct-supplier census, exact-cents
        # low-balance exclusion replacing the complaint filter
        "brand_supplier_census": """
            SELECT p.p_brand, CAST(p.p_size AS BIGINT) AS p_size,
                   CAST(COUNT(DISTINCT l.l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            WHERE CAST(ROUND(s.s_acctbal * 100) AS BIGINT) >= 100000
            GROUP BY 1, 2
        """,
        # Q21 shape (receipt/commit-free): late = shipped > orderdate+90d;
        # multi-supplier orders with EXACTLY ONE late supplier
        "late_only_suppliers": """
            WITH f AS (
              SELECT l.l_orderkey AS okey, l.l_suppkey AS skey,
                     MAX(CASE WHEN CAST(epoch_us(CAST(l.l_shipdate
                                                      AS TIMESTAMP))
                                        AS BIGINT)
                                   > CAST(epoch_us(CAST(o.o_orderdate
                                                        AS TIMESTAMP))
                                          AS BIGINT) + 7776000000000
                              THEN 1 ELSE 0 END) AS late
              FROM lineitem l
              JOIN orders o ON l.l_orderkey = o.o_orderkey
              GROUP BY 1, 2),
            q AS (
              SELECT okey FROM f GROUP BY okey
              HAVING COUNT(*) >= 2 AND SUM(late) = 1)
            SELECT f.skey AS supp_key, s.s_name,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM f
            JOIN q ON f.okey = q.okey
            JOIN supplier s ON f.skey = s.s_suppkey
            WHERE f.late = 1
            GROUP BY 1, 2
        """,
        # Q2 shape (partsupp-free): correlated MIN over observed integer
        # unit prices (cents*100 // qty), joined back, ties all surface
        "min_unit_price_supplier": """
            WITH u AS (
              SELECT l_partkey AS part_key, l_suppkey AS supp_key,
                     (CAST(ROUND(l_extendedprice * 100) AS BIGINT) * 100)
                       // CAST(ROUND(l_quantity) AS BIGINT) AS unit_e4
              FROM lineitem),
            m AS (
              SELECT part_key, MIN(unit_e4) AS min_u FROM u GROUP BY 1)
            SELECT DISTINCT u.part_key, p.p_brand, u.supp_key, s.s_name,
                   u.unit_e4
            FROM u
            JOIN m ON u.part_key = m.part_key AND u.unit_e4 = m.min_u
            JOIN part p ON u.part_key = p.p_partkey
            JOIN supplier s ON u.supp_key = s.s_suppkey
        """,
        # Q1 shape: all-integer money sums (1e-2/1e-4/1e-6 units), three
        # avg divisions floor-half-up-6 absorbed on both sides
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT)) AS BIGINT)
                       AS sum_qty,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT))
                       AS BIGINT) AS sum_base_e2,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l_discount * 100) AS BIGINT)))
                       AS BIGINT) AS sum_disc_e4,
                   CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                            * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))
                            * (100 + CAST(ROUND(l_tax * 100) AS BIGINT)))
                       AS BIGINT) AS sum_charge_e6,
                   CAST(COUNT(*) AS BIGINT) AS n_items,
                   FLOOR(CAST(CAST(SUM(CAST(ROUND(l_quantity) AS BIGINT))
                                   AS BIGINT) AS DOUBLE)
                         / CAST(COUNT(*) AS DOUBLE) * 1000000 + 0.5)
                       / 1000000.0 AS avg_qty,
                   FLOOR(CAST(CAST(SUM(CAST(ROUND(l_extendedprice * 100)
                                            AS BIGINT)) AS BIGINT) AS DOUBLE)
                         / CAST(COUNT(*) AS DOUBLE) * 1000000 + 0.5)
                       / 1000000.0 AS avg_base_e2,
                   FLOOR(CAST(CAST(SUM(CAST(ROUND(l_discount * 100) AS BIGINT))
                                   AS BIGINT) AS DOUBLE)
                         / CAST(COUNT(*) AS DOUBLE) * 1000000 + 0.5)
                       / 1000000.0 AS avg_disc_pct
            FROM lineitem
            WHERE l_shipdate < DATE '2000-12-01'
            GROUP BY 1, 2
        """,
        # Q6 shape: one filtered global integer sum
        "revenue_delta": """
            SELECT CAST(COUNT(*) AS BIGINT) AS n_items,
                   CAST(COALESCE(SUM(
                       CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                       * CAST(ROUND(l_discount * 100) AS BIGINT)), 0)
                       AS BIGINT) AS revenue_e4
            FROM lineitem
            WHERE l_shipdate >= DATE '1996-01-01'
              AND l_shipdate < DATE '1997-01-01'
              AND CAST(ROUND(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
              AND CAST(ROUND(l_quantity) AS BIGINT) < 24
        """,
        # Q13 shape: zero-order customers included via the left join
        "order_count_distribution": """
            WITH oc AS (
              SELECT c.c_custkey,
                     COUNT(o.o_orderkey) AS c_count
              FROM customer c
              LEFT JOIN orders o
                ON o.o_custkey = c.c_custkey
               AND o.o_orderpriority <> '5-LOW'
              GROUP BY 1)
            SELECT CAST(c_count AS BIGINT) AS c_count,
                   CAST(COUNT(*) AS BIGINT) AS custdist
            FROM oc GROUP BY 1
        """,
        # Q14 shape: promo flag from part, one month, one float division
        "promo_revenue_share": """
            WITH r AS (
              SELECT CAST(SUM(CASE WHEN p.p_type = 'PROMO'
                                   THEN CAST(ROUND(l.l_extendedprice * 100)
                                             AS BIGINT)
                                        * (100 - CAST(ROUND(l.l_discount * 100)
                                                      AS BIGINT))
                                   ELSE 0 END) AS BIGINT) AS promo_revenue_e4,
                     CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                              * (100 - CAST(ROUND(l.l_discount * 100)
                                            AS BIGINT))) AS BIGINT)
                         AS total_revenue_e4
              FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
              WHERE l.l_shipdate >= DATE '1996-03-01'
                AND l.l_shipdate < DATE '1996-04-01')
            SELECT promo_revenue_e4, total_revenue_e4,
                   FLOOR(CASE WHEN total_revenue_e4 > 0
                              THEN 100.0 * CAST(promo_revenue_e4 AS DOUBLE)
                                   / CAST(total_revenue_e4 AS DOUBLE)
                              ELSE 0.0 END * 1000000 + 0.5) / 1000000.0
                       AS promo_share
            FROM r
        """,
        # Q19 shape: three OR branches as labeled rows (brand/size/qty bands)
        "disjunctive_revenue": """
            WITH j AS (
              SELECT p.p_brand AS brand, p.p_size AS size,
                     CAST(ROUND(l.l_quantity) AS BIGINT) AS qty,
                     CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
                         AS rev
              FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey),
            b AS (
              SELECT 'brand1_small' AS branch, COUNT(*) n, SUM(rev) s
              FROM j WHERE brand = 'Brand#1' AND size BETWEEN 1 AND 15
                       AND qty <= 11
              UNION ALL
              SELECT 'brand2_mid', COUNT(*), SUM(rev)
              FROM j WHERE brand = 'Brand#2' AND size BETWEEN 10 AND 30
                       AND qty BETWEEN 10 AND 20
              UNION ALL
              SELECT 'brand3_bulk', COUNT(*), SUM(rev)
              FROM j WHERE brand = 'Brand#3' AND size >= 25 AND qty >= 20)
            SELECT branch, CAST(n AS BIGINT) AS n_items,
                   CAST(COALESCE(s, 0) AS BIGINT) AS revenue_e4
            FROM b
        """,
        # RFM segmentation: quintile codes over the per-customer rollup,
        # each NTILE ordered metric-desc with cust_key tiebreak
        "rfm_segments": """
            WITH o AS (
              SELECT o_custkey AS cust_key,
                     COUNT(*)::BIGINT AS n_orders,
                     CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS total_cents,
                     CAST(MAX(epoch_us(CAST(o_orderdate AS TIMESTAMP))
                              // 86400000000) AS BIGINT) AS last_day
              FROM orders GROUP BY 1),
            t AS (SELECT *,
                    CAST(NTILE(5) OVER (ORDER BY last_day DESC, cust_key)
                         AS BIGINT) AS r_score,
                    CAST(NTILE(5) OVER (ORDER BY n_orders DESC, cust_key)
                         AS BIGINT) AS f_score,
                    CAST(NTILE(5) OVER (ORDER BY total_cents DESC, cust_key)
                         AS BIGINT) AS m_score
                  FROM o)
            SELECT cust_key, n_orders, total_cents, last_day,
                   r_score, f_score, m_score,
                   r_score * 100 + f_score * 10 + m_score AS rfm
            FROM t
        """,
        # Q11 shape (partsupp-free reshape): per-part shipped revenue among
        # NATION_3's suppliers; scale-free exact integer fraction cut
        # (value above 1.5x the per-part mean)
        "important_parts_by_value": """
            WITH li AS (
              SELECT l.l_partkey AS part_key,
                     CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT))
                       AS rev
              FROM lineitem l
              JOIN supplier s ON l.l_suppkey = s.s_suppkey
              WHERE s.s_nationkey = 3),
            pp AS (SELECT part_key, CAST(SUM(rev) AS BIGINT) AS value_e4
                   FROM li GROUP BY 1)
            SELECT part_key, value_e4 FROM pp
            WHERE 2 * (SELECT COUNT(*) FROM pp) * value_e4
                  > 3 * (SELECT SUM(value_e4) FROM pp)
        """,
        # Q20 shape (partsupp/availqty-free reshape): suppliers whose 1996
        # shipped qty of a part strictly exceeds half the part's total
        "dominant_part_suppliers": """
            WITH li AS (
              SELECT l_partkey AS part_key, l_suppkey AS supp_key,
                     CAST(ROUND(l_quantity) AS BIGINT) AS q
              FROM lineitem
              WHERE l_shipdate >= DATE '1996-01-01'
                AND l_shipdate < DATE '1997-01-01'),
            ps AS (SELECT part_key, supp_key, SUM(q) AS qs
                   FROM li GROUP BY 1, 2),
            pt AS (SELECT part_key, SUM(qs) AS qt FROM ps GROUP BY 1),
            d AS (SELECT ps.supp_key, ps.qs
                  FROM ps JOIN pt USING (part_key) WHERE 2 * ps.qs > pt.qt)
            SELECT d.supp_key, s.s_name,
                   CAST(COUNT(*) AS BIGINT) AS n_parts_dominated,
                   CAST(SUM(d.qs) AS BIGINT) AS qty_dominated
            FROM d JOIN supplier s ON d.supp_key = s.s_suppkey
            GROUP BY 1, 2
        """,
        # Q22 shape (reshaped): above-positive-average balance, never
        # ordered, per nation; balances integer cents, the threshold is the
        # one float sum/count both engines compute identically
        "idle_capital_by_nation": """
            WITH t AS (
              SELECT CAST(SUM(CAST(ROUND(c_acctbal * 100) AS BIGINT))
                          AS DOUBLE)
                     / CAST(COUNT(*) AS DOUBLE) AS thresh
              FROM customer
              WHERE CAST(ROUND(c_acctbal * 100) AS BIGINT) > 0)
            SELECT n.n_name,
                   CAST(COUNT(*) AS BIGINT) AS n_cust,
                   CAST(SUM(CAST(ROUND(c.c_acctbal * 100) AS BIGINT))
                        AS BIGINT) AS total_bal_e2
            FROM customer c
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            WHERE CAST(CAST(ROUND(c.c_acctbal * 100) AS BIGINT) AS DOUBLE)
                  > (SELECT thresh FROM t)
              AND NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderdate >= DATE '2000-07-01')
            GROUP BY 1
        """,
        # argmax join: per-nation top spender (spend DESC, custkey ASC),
        # integer cents
        "top_customer_by_nation": """
            WITH s AS (
              SELECT o_custkey AS ckey,
                     CAST(COUNT(*) AS BIGINT) AS n_orders,
                     CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT))
                          AS BIGINT) AS spend_e2
              FROM orders GROUP BY 1),
            j AS (
              SELECT n.n_name, c.c_custkey AS cust_key, s.n_orders,
                     s.spend_e2,
                     ROW_NUMBER() OVER (
                         PARTITION BY n.n_nationkey
                         ORDER BY s.spend_e2 DESC, c.c_custkey ASC) AS rn
              FROM s
              JOIN customer c ON s.ckey = c.c_custkey
              JOIN nation n ON c.c_nationkey = n.n_nationkey)
            SELECT n_name, cust_key, n_orders, spend_e2
            FROM j WHERE rn = 1
        """,
        # rolling corr over the inner-joined observed grids: exact
        # HUGEINT rolling five-moment sums (ROWS window), one pinned
        # num/sqrt(d1*d2) per row
        "rolling_corr_1m": f"""
            WITH r AS ({rollup(60)}),
            refs AS (SELECT source, bucket_ts, sum_tok FROM r
                     WHERE source IN ('src_0000','src_0001','src_0002')),
            j AS (
              SELECT x.source, y.source AS ref_source, x.bucket_ts,
                     x.sum_tok AS xv, y.sum_tok AS yv
              FROM r x JOIN refs y USING (bucket_ts)
              WHERE x.source <> y.source),
            w AS (
              SELECT source, ref_source, bucket_ts,
                     CAST(COUNT(*) OVER win AS BIGINT) AS n,
                     CAST(SUM(CAST(xv AS HUGEINT)) OVER win AS HUGEINT)
                         AS sx,
                     CAST(SUM(CAST(yv AS HUGEINT)) OVER win AS HUGEINT)
                         AS sy,
                     CAST(SUM(CAST(xv AS HUGEINT) * yv) OVER win
                          AS HUGEINT) AS sxy,
                     CAST(SUM(CAST(xv AS HUGEINT) * xv) OVER win
                          AS HUGEINT) AS sxx,
                     CAST(SUM(CAST(yv AS HUGEINT) * yv) OVER win
                          AS HUGEINT) AS syy
              FROM j
              WINDOW win AS (PARTITION BY source, ref_source
                             ORDER BY bucket_ts
                             ROWS BETWEEN 59 PRECEDING AND CURRENT ROW))
            SELECT source, ref_source, bucket_ts, n AS n_win,
                   FLOOR(CAST(n * sxy - sx * sy AS DOUBLE)
                         / sqrt(CAST(n * sxx - sx * sx AS DOUBLE)
                                * CAST(n * syy - sy * sy AS DOUBLE))
                         * 1000000 + 0.5) / 1000000.0 AS corr
            FROM w
            WHERE n >= 2 AND n * sxx - sx * sx > 0
              AND n * syy - sy * sy > 0
        """,
        # all-integer SAX census: NTILE(4) quartile symbols (ties by ts),
        # contiguous-triple motif ids
        "sax_motifs": f"""
            WITH r AS ({rollup(60)}),
            sym AS (
              SELECT source, bucket_ts,
                     NTILE(4) OVER (PARTITION BY source
                                    ORDER BY sum_tok, bucket_ts) - 1 AS sym
              FROM r),
            lagged AS (
              SELECT source, sym AS s2,
                     LAG(sym, 1) OVER w AS s1, LAG(sym, 2) OVER w AS s0,
                     bucket_ts - LAG(bucket_ts, 1) OVER w AS g1,
                     LAG(bucket_ts, 1) OVER w
                         - LAG(bucket_ts, 2) OVER w AS g2
              FROM sym WINDOW w AS (PARTITION BY source ORDER BY bucket_ts))
            SELECT source, CAST(16*s0 + 4*s1 + s2 AS BIGINT) AS motif,
                   CAST(COUNT(*) AS BIGINT) AS cnt
            FROM lagged WHERE g1 = 60 AND g2 = 60
            GROUP BY 1, 2
        """,
        # all-integer Kadane via prefix-min window: deviations scaled by
        # n (n*y - tot) keep every prefix exact; earliest-end then
        # earliest-start tie-break; one float division (mean_excess)
        "busiest_burst": f"""
            WITH r AS ({rollup(60)}),
            s AS (
              SELECT source, bucket_ts, sum_tok,
                     CAST(COUNT(*) OVER (PARTITION BY source) AS BIGINT) AS n,
                     CAST(SUM(sum_tok) OVER (PARTITION BY source) AS BIGINT)
                         AS tot
              FROM r),
            p AS (
              SELECT source, bucket_ts, n,
                     SUM(CAST(n AS HUGEINT) * sum_tok - tot) OVER (
                         PARTITION BY source ORDER BY bucket_ts
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
                         AS pref
              FROM s),
            b AS (
              SELECT source, bucket_ts, n, pref,
                     pref - LEAST(COALESCE(MIN(pref) OVER (
                         PARTITION BY source ORDER BY bucket_ts
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                         0), 0) AS best,
                     COALESCE(LAG(pref) OVER (
                         PARTITION BY source ORDER BY bucket_ts), 0)
                         AS lagpref
              FROM p),
            win AS (
              SELECT source, bucket_ts AS end_ts, n, best
              FROM (SELECT *, ROW_NUMBER() OVER (
                        PARTITION BY source
                        ORDER BY best DESC, bucket_ts ASC) AS rn
                    FROM b)
              WHERE rn = 1),
            st AS (
              SELECT w.source, w.end_ts, w.n, w.best,
                     c.bucket_ts AS start_ts,
                     ROW_NUMBER() OVER (
                         PARTITION BY w.source
                         ORDER BY c.lagpref ASC, c.bucket_ts ASC) AS rs
              FROM win w
              JOIN b c ON c.source = w.source AND c.bucket_ts <= w.end_ts),
            pick AS (SELECT * FROM st WHERE rs = 1)
            SELECT p.source, p.n AS n_buckets, p.start_ts, p.end_ts,
                   CAST(COUNT(*) AS BIGINT) AS burst_n,
                   CAST(p.best AS BIGINT) AS burst_dev,
                   FLOOR(CAST(p.best AS DOUBLE)
                         / CAST(p.n * COUNT(*) AS DOUBLE)
                         * 1000000 + 0.5) / 1000000.0 AS mean_excess
            FROM pick p
            JOIN r ON r.source = p.source
                  AND r.bucket_ts BETWEEN p.start_ts AND p.end_ts
            GROUP BY p.source, p.n, p.start_ts, p.end_ts, p.best
        """,
        # FK grade from regexp_extract_all counts (no-terminator docs
        # count as ONE sentence); the grade expression mirrors the
        # engine's pinned float chain
        "readability": r"""
            WITH c AS (
              SELECT doc_id,
                     len(regexp_extract_all(text, '\S+')) AS n_words,
                     GREATEST(len(regexp_extract_all(text, '[.!?]+')), 1)
                         AS n_sents,
                     len(regexp_extract_all(text, '[aeiouyAEIOUY]+'))
                         AS n_syll
              FROM documents)
            SELECT doc_id, n_words, n_sents, n_syll,
                   FLOOR((0.39 * (CAST(n_words AS DOUBLE) / n_sents)
                          + 11.8 * (CAST(n_syll AS DOUBLE) / n_words)
                          - 15.59) * 1000000 + 0.5) / 1000000.0 AS fk_grade
            FROM c WHERE n_words > 0
        """,
        # TPC-H Q3 shape: open revenue per order across the cutoff,
        # integer 1e-4-dollar units, top-10 (revenue desc, okey asc)
        "top_unshipped_orders": """
            SELECT order_key, odate_us, revenue_e4,
                   CAST(ROW_NUMBER() OVER (
                       ORDER BY revenue_e4 DESC, order_key ASC) AS BIGINT)
                       AS rnk
            FROM (
              SELECT o.o_orderkey AS order_key,
                     epoch_us(o.o_orderdate) AS odate_us,
                     CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                              * (100 - CAST(ROUND(l.l_discount * 100)
                                            AS BIGINT))) AS BIGINT)
                         AS revenue_e4
              FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
              WHERE epoch_us(o.o_orderdate) < 896659200000000
                AND epoch_us(l.l_shipdate) > 896659200000000
              GROUP BY 1, 2)
            ORDER BY rnk LIMIT 10
        """,
    }
    # fused per-source profile: inner-join of the component oracles (a
    # source degenerate for ANY stat is omitted on both sides); column
    # names match the engine's source_profile exactly
    out["source_profile"] = f"""
        SELECT b.source, b.n_buckets, b.mean_tok, b.var_tok, b.fano, b.cv,
               d.drawdown_tok, d.trough_ts, ss.strength,
               pe.n_triples, pe.perm_entropy,
               ar.c0, ar.a1, ar.a2, v.vr,
               h.amp_tok, h.peak_hour, h.r2,
               bu.burst_dev, bu.mean_excess
        FROM ({out["burstiness"]}) b
        JOIN ({out["max_drawdown"]}) d USING (source)
        JOIN ({out["seasonality_strength"]}) ss USING (source)
        JOIN ({out["permutation_entropy"]}) pe USING (source)
        JOIN ({out["ar2_fit"]}) ar USING (source)
        JOIN ({out["variance_ratio"]}) v USING (source)
        JOIN ({out["harmonic_24h"]}) h USING (source)
        JOIN ({out["busiest_burst"]}) bu USING (source)
    """
    return out

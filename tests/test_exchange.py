"""The coarse-key exchange (stages/exchange.py): one dtype-stable key hash,
``coarse_map_groups`` and the grouped-aggregate plan on top of it."""

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _null_int_key_blocks():
    # a pandas block of the first table holds k as float64 (5.0, NaN); the
    # second as int64: key 5 must still be one group
    b1 = pa.table({"k": pa.array([5, None], pa.int64()), "v": pa.array([1, 10])})
    b2 = pa.table({"k": pa.array([5, 7], pa.int64()), "v": pa.array([100, 1000])})
    return [b1, b2]


@pytest.mark.parametrize("n_buckets", [1, 3, 64])
@pytest.mark.parametrize("op", ["grouped_sum", "grouped_agg", "grouped_topk"])
def test_null_int_key_is_one_group(ray_session, op, n_buckets):
    import ray.data

    from datafiller_ray.stages.exchange import (
        grouped_agg,
        grouped_sum,
        grouped_topk,
    )

    ds = ray.data.from_arrow(_null_int_key_blocks())
    if op == "grouped_sum":
        out, want = grouped_sum(ds, "k", "v", n_buckets=n_buckets), 101
    elif op == "grouped_agg":
        out, want = grouped_agg(ds, "k", {"v": "sum"}, n_buckets=n_buckets), 101
    else:
        out = grouped_topk(ds, "k", "v", [], 1, n_buckets=n_buckets)
        want = 100
    df = out.to_pandas()
    got = sorted(
        (-1 if pd.isna(k) else int(k), int(v)) for k, v in zip(df["k"], df["v"])
    )
    assert got == [(-1, 10), (5, want), (7, 1000)]


def _two_key_frame(n: int = 3000) -> pd.DataFrame:
    rng = np.random.default_rng(23)
    return pd.DataFrame(
        {
            "k1": rng.integers(0, 12, n).astype(np.int64),
            "k2": pd.Series(rng.choice(["a", "bb", "c", None], n), dtype=object),
            "v": rng.integers(-50, 50, n).astype(np.int64),
        }
    )


def _sorted(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(keys, na_position="last").reset_index(drop=True)


@pytest.mark.parametrize("n_buckets", [1, 3, 64])
@pytest.mark.parametrize("how", ["sum", "min", "max"])
def test_grouped_sum_matches_pandas(ray_session, how, n_buckets):
    import ray.data

    from datafiller_ray.stages.exchange import grouped_sum, key_hash

    df = _two_key_frame()
    want = _sorted(
        df.groupby(["k1", "k2"], dropna=False, as_index=False)["v"].agg(how),
        ["k1", "k2"],
    )
    for nparts in (1, 7):
        ds = ray.data.from_pandas(df).repartition(nparts)
        got = _sorted(
            grouped_sum(ds, ["k1", "k2"], "v", n_buckets=n_buckets, how=how)
            .to_pandas(),
            ["k1", "k2"],
        )
        assert got["v"].dtype == np.int64
        pd.testing.assert_frame_equal(got[["k1", "k2", "v"]], want)
        # swapped key order: the same rows
        swapped = _sorted(
            grouped_sum(ds, ["k2", "k1"], "v", n_buckets=n_buckets, how=how)
            .to_pandas(),
            ["k1", "k2"],
        )
        pd.testing.assert_frame_equal(swapped[["k1", "k2", "v"]], want)

    # ... through different buckets: the mix is order-sensitive, and every
    # key counts (one k1 value spreads over buckets by k2)
    t = pa.Table.from_pandas(df, preserve_index=False)
    a = key_hash(t, ["k1", "k2"]) % np.uint64(64)
    b = key_hash(t, ["k2", "k1"]) % np.uint64(64)
    assert (a != b).any()
    assert np.unique(a[df["k1"].to_numpy() == 0]).size > 1

    empty = ray.data.from_pandas(df.iloc[:0])
    assert grouped_sum(empty, ["k1", "k2"], "v", how=how).count() == 0


def test_grouped_ops_take_pandas_blocks(ray_session):
    """grouped_agg and grouped_topk map native blocks: the same rows as
    pandas blocks and as Arrow blocks give the same output."""
    import ray.data

    from datafiller_ray.stages.exchange import grouped_agg, grouped_topk

    df = _two_key_frame().assign(w=lambda d: d["v"] * 0.5)
    frames = np.array_split(df, 5)
    as_pandas = ray.data.from_pandas(frames)
    as_arrow = ray.data.from_arrow(
        [pa.Table.from_pandas(f, preserve_index=False) for f in frames]
    )
    keys = ["k1", "k2"]

    def agg(ds):
        out = grouped_agg(ds, keys, {"v": "sum", "w": "max"}, n_buckets=3)
        return _sorted(out.to_pandas(), keys)

    def topk(ds):
        out = grouped_topk(ds, keys, "v", ["w"], 2, n_buckets=3).to_pandas()
        return _sorted(out, [*keys, "rnk"])[[*keys, "v", "w", "rnk"]]

    want = _sorted(
        df.groupby(keys, dropna=False, as_index=False).agg({"v": "sum", "w": "max"}),
        keys,
    )
    pd.testing.assert_frame_equal(agg(as_pandas), agg(as_arrow))
    pd.testing.assert_frame_equal(agg(as_pandas)[[*keys, "v", "w"]], want)
    pd.testing.assert_frame_equal(topk(as_pandas), topk(as_arrow))


@pytest.mark.parametrize("batch_format", ["pandas", "pyarrow"])
def test_coarse_map_groups_whole_groups(ray_session, batch_format):
    import ray.data

    from datafiller_ray.stages.exchange import coarse_map_groups

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 50, 2000).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": np.ones(keys.size, np.int64)})
    ds = ray.data.from_pandas(df).repartition(7)

    def fn(g):
        g = g.to_pandas() if batch_format == "pyarrow" else g
        ks = np.unique(g["k"].to_numpy())
        counts = g.groupby("k")["v"].sum().loc[ks].to_numpy()
        return pd.DataFrame(
            {
                "k": ks,
                "n": counts,
                "cols": ",".join(g.columns),
                "call": int(ks[0]),
            }
        )

    out = coarse_map_groups(
        ds, "k", fn, n_buckets=3, batch_format=batch_format
    ).to_pandas()
    # every key reached exactly one fn call, with all of its rows
    assert out["k"].is_unique
    assert sorted(out["k"]) == sorted(np.unique(keys))
    want = df.groupby("k")["v"].sum()
    assert (out.set_index("k")["n"].sort_index() == want.sort_index()).all()
    # keys share calls (3 buckets for 50 keys) and fn never sees the bucket
    assert out["call"].nunique() <= 3
    assert set(out["cols"]) == {"k,v"}


# ---------------------------------------------------------------------------
# the pipeline ops folded onto coarse_map_groups: bucket-count invariance

_DAY_US = 86_400_000_000


def _event_blocks():
    # 3 blocks; user 7, every day and a 4-event session appear in each
    rng = np.random.default_rng(11)
    blocks = []
    for b in range(3):
        n = 40
        uid = rng.integers(0, 12, n)
        ts = rng.integers(0, 3 * _DAY_US, n)
        uid[:4] = 7
        ts[:4] = b * _DAY_US + np.arange(4) * 60_000_000
        types = np.array(["a", "b", "c"], dtype=object)[rng.integers(0, 3, n)]
        blocks.append(
            pa.table(
                {
                    "event_id": pa.array(np.arange(b * n, (b + 1) * n), pa.int64()),
                    "ts": pa.array(ts, pa.timestamp("us")),
                    "user_id": pa.array(uid, pa.int64()),
                    "event_type": pa.array(types, pa.string()),
                    "value": pa.array(rng.uniform(0, 10, n)),
                }
            )
        )
    return blocks


def _corpus_blocks():
    # 3 blocks of contract rows; the sequence [1, 2, 3, 4] (a duplicate
    # for dedup, a shared trigram, a hot token) appears in each
    rng = np.random.default_rng(12)
    blocks = []
    for b in range(3):
        rows = []
        for i in range(20):
            src = f"s{i % 3}"
            toks = [1, 2, 3, 4] if i == 0 else rng.integers(
                0, 16, int(rng.integers(2, 10))
            ).tolist()
            minute = 28_401_120 + b * 100 + i
            rows.append(
                {"doc_id": f"{src}:{minute:010d}", "source": src,
                 "tokens": toks, "n_tok": len(toks)}
            )
        blocks.append(
            pa.Table.from_pylist(rows).cast(
                pa.schema(
                    [("doc_id", pa.string()), ("source", pa.string()),
                     ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
                )
            )
        )
    return blocks


def _length_blocks():
    # n_chars 50 in every block
    rng = np.random.default_rng(13)
    return [
        pa.table(
            {
                "doc_id": pa.array(np.arange(b * 30, (b + 1) * 30), pa.int64()),
                "n_chars": pa.array(
                    np.r_[[50] * 5, rng.integers(10, 90, 25)], pa.int64()
                ),
            }
        )
        for b in range(3)
    ]


def _folded_op(name, corpus_dir, nb):
    import ray.data

    from datafiller_ray.pipelines import corpus, events, packing, retention

    ev = ray.data.from_arrow(_event_blocks())
    docs = ray.data.from_arrow(_corpus_blocks())
    return {
        "user_top_event": lambda: events.user_top_event(ev, n_buckets=nb),
        "transition_topk": lambda: events.transition_topk(ev, k=5, n_buckets=nb),
        "user_lifetime": lambda: events.user_lifetime(ev, n_buckets=nb),
        "daily_active_users": lambda: events.daily_active_users(ev, n_buckets=nb),
        "rolling_active_users": lambda: events.rolling_active_users(
            ev, window_days=2, n_buckets=nb
        ),
        "session_stats": lambda: events.session_stats(ev, n_buckets=nb),
        "user_entropy": lambda: events.user_entropy(ev, n_buckets=nb),
        "length_ntile": lambda: corpus.length_ntile(
            ray.data.from_arrow(_length_blocks()), n_tiles=4, n_buckets=nb
        ),
        "vocab_overlap": lambda: corpus.vocab_overlap(docs, n_buckets=nb),
        "source_ngram_overlap": lambda: corpus.source_ngram_overlap(
            corpus_dir, n_buckets=nb
        ),
        "ppl_tercile": lambda: corpus.ppl_tercile(corpus_dir, n_buckets=nb),
        "zorder_layout": lambda: retention.zorder_layout(
            docs, n_files=4, n_buckets=nb
        ),
        "dedup_sequences": lambda: packing.dedup_sequences(
            corpus_dir, n_buckets=nb
        ),
    }[name]()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("folded_corpus")
    for i, t in enumerate(_corpus_blocks()):
        pq.write_table(t, d / f"part{i}.parquet")
    return str(d)


@pytest.mark.parametrize(
    "op",
    [
        "user_top_event", "transition_topk", "user_lifetime",
        "daily_active_users", "rolling_active_users", "session_stats",
        "user_entropy", "length_ntile", "vocab_overlap",
        "source_ngram_overlap", "ppl_tercile", "zorder_layout",
        "dedup_sequences",
    ],
)
def test_folded_ops_bucket_count_invariant(ray_session, corpus_dir, op):
    """Each op routes its key through coarse_map_groups; the coarse bucket
    count only moves keys between calls, so 1, 3 and 64 buckets give the
    same rows on a 3-block input whose hot key sits in every block."""
    outs = []
    for nb in (1, 3, 64):
        df = _folded_op(op, corpus_dir, nb).to_pandas()
        cols = sorted(df.columns)
        outs.append(df[cols].sort_values(cols).reset_index(drop=True))
    assert len(outs[0]) > 0
    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[0], outs[2])


# Hand-written coarse exchanges (a bucket column plus groupby on it) belong
# in stages/exchange.py. Allowed elsewhere, each with its reason:
_COARSE_EXCHANGE_ALLOWED = {
    # block-nested-loop shard pairs: fn decodes the (q, c) shard pair from
    # the group key, which is a group identity, not a route
    ("pipelines/ann.py", 'groupby("gkey")'): 2,
    # the persisted checkpoint layout: bucket = skey % n names files on disk
    ("pipelines/checkpoint.py", "% np.uint64(n_buckets)"): 1,
}


def test_no_hand_written_coarse_exchange():
    from pathlib import Path

    import datafiller_ray

    root = Path(datafiller_ray.__file__).parent
    patterns = ["% np.uint64(n_buckets)"] + [
        f'groupby("{c}")' for c in ("gkey", "_gk", "_kk", "_bk", "_ub", "gb")
    ]
    hits = {}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "stages/exchange.py":
            continue
        text = path.read_text()
        for p in patterns:
            if p in text:
                hits[(rel, p)] = text.count(p)
    assert hits == _COARSE_EXCHANGE_ALLOWED, (
        "route the exchange through stages.exchange.coarse_map_groups"
    )


# a map_batches call with batch_size=1 (arguments may hold one level of
# parentheses)
_ONE_ROW_MAP = re.compile(
    r"\.map_batches\((?:[^()]|\([^()]*\))*?\bbatch_size\s*=\s*1\b", re.S
)


def test_no_from_items_task_launcher():
    """A ``from_items(ids)`` dataset mapped with ``batch_size=1`` starts a
    streaming executor to launch one task per id; plain Ray tasks do that
    (stages/tasks.map_tasks)."""
    from pathlib import Path

    import datafiller_ray

    root = Path(datafiller_ray.__file__).parent
    hits = [
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if "from_items(" in (text := path.read_text()) and _ONE_ROW_MAP.search(text)
    ]
    assert hits == [], "launch one task per item with ray.remote, not Ray Data"


def test_run_incremental_starts_no_ray_data_pipeline():
    """An update is staged by plain Ray tasks, one per file or block; a Ray
    Data pipeline would start an executor per update."""
    import inspect

    from datafiller_ray.pipelines.checkpoint import run_incremental

    source = inspect.getsource(run_incremental)
    calls = ("write_parquet(", "map_batches(", "partial_aggregates(")
    assert [c for c in calls if c in source] == []

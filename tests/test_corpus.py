"""pipelines/corpus.py unit tests: stratified sampling, vocab top-k,
per-source quantiles."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from datafiller_ray.config import EngineValueError
from datafiller_ray.pipelines.corpus import (
    sample_threshold,
    source_quantiles,
    stratified_sample,
    vocab_topk,
)


def _docs(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "source": rng.choice(["a", "b", "c"], size=n).astype(object),
            "n_chars": rng.integers(10, 5000, size=n),
        }
    )


def test_sample_threshold_contract():
    assert sample_threshold(0.0) == 0
    assert sample_threshold(1.0) == 1 << 64
    assert sample_threshold(0.5) == 1 << 63
    with pytest.raises(EngineValueError, match="between 0 and 1"):
        sample_threshold(1.5)
    with pytest.raises(EngineValueError, match="between 0 and 1"):
        sample_threshold(-0.1)


def test_stratified_sample_rates_and_determinism(ray_session):
    df = _docs()
    ds = ray.data.from_pandas(df)
    out = stratified_sample(ds, rate=0.5, rates={"a": 0.1, "b": 1.0}, seed=3).to_pandas()
    out2 = stratified_sample(ds, rate=0.5, rates={"a": 0.1, "b": 1.0}, seed=3).to_pandas()
    assert sorted(out.doc_id) == sorted(out2.doc_id), "deterministic"
    by = out.groupby("source").size()
    n_by = df.groupby("source").size()
    assert by["b"] == n_by["b"], "rate 1.0 keeps everything"
    assert by["a"] / n_by["a"] == pytest.approx(0.1, abs=0.05)
    assert by["c"] / n_by["c"] == pytest.approx(0.5, abs=0.06)


def test_stratified_sample_nested(ray_session):
    # the sample at rate r1 < r2 must be a SUBSET of the rate-r2 sample
    ds = ray.data.from_pandas(_docs())
    small = set(stratified_sample(ds, rate=0.2, seed=9).to_pandas().doc_id)
    big = set(stratified_sample(ds, rate=0.6, seed=9).to_pandas().doc_id)
    assert small <= big
    assert len(small) < len(big)


def test_stratified_sample_seed_changes_sample(ray_session):
    ds = ray.data.from_pandas(_docs())
    s1 = set(stratified_sample(ds, rate=0.3, seed=1).to_pandas().doc_id)
    s2 = set(stratified_sample(ds, rate=0.3, seed=2).to_pandas().doc_id)
    assert s1 != s2


def test_stratified_sample_requires_rate(ray_session):
    ds = ray.data.from_pandas(_docs(50))
    with pytest.raises(EngineValueError, match="rate"):
        stratified_sample(ds)


def test_vocab_topk_counts_and_ties(ray_session):
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": ["b a a! c b", "a c. b", "z z z z"],
        }
    )
    out = (
        vocab_topk(ray.data.from_pandas(docs), k=3)
        .to_pandas()
        .sort_values(["cnt", "tok"], ascending=[False, True])
        .reset_index(drop=True)
    )
    # counts: z=4, a=3, b=3, c=2, !=1, .=1 -> top3 = z, a, b (tie a<b)
    assert out["tok"].tolist() == ["z", "a", "b"]
    assert out["cnt"].tolist() == [4, 3, 3]


def test_vocab_topk_k_validation(ray_session):
    with pytest.raises(EngineValueError, match="k must be positive"):
        vocab_topk(ray.data.from_pandas(_docs(5)), k=0)


def test_vocab_topk_empty_text(ray_session):
    docs = pd.DataFrame({"doc_id": [0, 1], "text": ["", "   "]})
    out = vocab_topk(ray.data.from_pandas(docs), k=5)
    assert out.count() == 0


def test_source_quantiles_matches_numpy(ray_session):
    df = _docs(500, seed=4)
    out = (
        source_quantiles(ray.data.from_pandas(df))
        .to_pandas()
        .set_index("source")
        .sort_index()
    )
    for src, g in df.groupby("source"):
        for q, col in [(0.25, "q0_25"), (0.5, "q0_5"), (0.99, "q0_99")]:
            exp = np.quantile(g["n_chars"].to_numpy(np.float64), q)
            exp = np.floor(exp * 1e6 + 0.5) / 1e6
            assert out.loc[src, col] == pytest.approx(exp, abs=2e-6)


def test_source_quantiles_single_row_group(ray_session):
    df = pd.DataFrame({"doc_id": [0], "source": ["only"], "n_chars": [42]})
    out = source_quantiles(ray.data.from_pandas(df)).to_pandas()
    assert len(out) == 1
    assert (out[[c for c in out.columns if c.startswith("q")]] == 42.0).all().all()


def test_sample_fixed_k_exact_size_and_determinism(ray_session):
    from datafiller_ray.pipelines.corpus import sample_fixed_k

    df = _docs(1200, seed=8)
    ds = ray.data.from_pandas(df)
    out = sample_fixed_k(ds, k=25, seed=4).to_pandas()
    out2 = sample_fixed_k(ds, k=25, seed=4).to_pandas()
    assert sorted(out.doc_id) == sorted(out2.doc_id)
    sizes = out.groupby("source").size()
    assert (sizes == 25).all(), sizes
    assert "_h" not in out.columns


def test_sample_fixed_k_small_stratum_keeps_all(ray_session):
    from datafiller_ray.pipelines.corpus import sample_fixed_k

    df = _docs(60, seed=2)
    out = sample_fixed_k(ray.data.from_pandas(df), k=1000, seed=0).to_pandas()
    assert len(out) == 60


def test_sample_fixed_k_matches_bruteforce(ray_session):
    from datafiller_ray.functions.hashing import splitmix64
    from datafiller_ray.pipelines.corpus import sample_fixed_k

    df = _docs(800, seed=5)
    k, seed = 10, 3
    out = sample_fixed_k(ray.data.from_pandas(df), k=k, seed=seed).to_pandas()
    seed_mix = int(splitmix64(np.array([seed], dtype=np.uint64))[0])
    h = splitmix64(df.doc_id.to_numpy(np.uint64) ^ np.uint64(seed_mix))
    df2 = df.assign(h=h)
    exp = (
        df2.sort_values(["h", "doc_id"]).groupby("source").head(k).doc_id
    )
    assert sorted(out.doc_id) == sorted(exp)


def test_sample_fixed_k_validation(ray_session):
    from datafiller_ray.pipelines.corpus import sample_fixed_k

    with pytest.raises(EngineValueError, match="k must be positive"):
        sample_fixed_k(ray.data.from_pandas(_docs(5)), k=0)


def test_global_quantiles_matches_numpy(ray_session):
    from datafiller_ray.pipelines.corpus import global_quantiles

    df = _docs(3000, seed=6)
    out = global_quantiles(ray.data.from_pandas(df)).to_pandas()
    assert len(out) == 1
    for q, col in [(0.25, "q0_25"), (0.5, "q0_5"), (0.9, "q0_9"), (0.99, "q0_99")]:
        exp = np.quantile(df.n_chars.to_numpy(np.float64), q)
        exp = np.floor(exp * 1e6 + 0.5) / 1e6
        assert out[col].iloc[0] == pytest.approx(exp, abs=2e-6)


def test_budget_sample_prefix_property(ray_session):
    """Kept set per source = hash-order prefix within budget; totals never
    exceed the budget; adding the next doc in hash order would exceed it."""
    import numpy as np

    from datafiller_ray.functions.hashing import splitmix64
    from datafiller_ray.pipelines.corpus import budget_sample

    full = _docs(1500, seed=4)
    ds = ray.data.from_pandas(full)
    out = budget_sample(
        ds, budget=30_000, weight_col="n_chars", seed=5
    ).to_pandas()
    assert (out.groupby("source")["n_chars"].sum() <= 30_000).all()

    seed_mix = int(splitmix64(np.array([5], dtype=np.uint64))[0])
    for src, g in full.groupby("source"):
        h = splitmix64(
            g["doc_id"].to_numpy().astype(np.uint64) ^ np.uint64(seed_mix)
        )
        order = np.lexsort((g["doc_id"].to_numpy(), h))
        w = g["n_chars"].to_numpy(np.int64)[order]
        run = np.cumsum(w)
        expect_ids = set(g["doc_id"].to_numpy()[order][run <= 30_000])
        got_ids = set(out.loc[out["source"] == src, "doc_id"])
        assert got_ids == expect_ids, src


def test_budget_sample_requires_budget(ray_session):
    import pytest as _pytest

    from datafiller_ray.pipelines.corpus import budget_sample

    with _pytest.raises(EngineValueError):
        budget_sample(ray.data.from_pandas(_docs(50)))


# -- bigram_topk -------------------------------------------------------------


def test_bigram_partial_row_boundaries():
    import pyarrow as pa

    from datafiller_ray.pipelines.corpus import _bigram_partial

    t = pa.table({"tokens": pa.array(
        [[1, 2, 3], [3, 1], [], [7]], pa.list_(pa.int32())
    )})
    out = _bigram_partial(10)(t).to_pydict()
    # pairs: (1,2),(2,3) from row0; (3,1) from row1; none across rows
    got = dict(zip(out["pair"], out["cnt"]))
    assert got == {12: 1, 23: 1, 31: 1}


def test_bigram_topk_matches_bruteforce(ray_session):
    from datafiller_ray.pipelines.corpus import bigram_topk

    rng = np.random.default_rng(4)
    rows = [rng.integers(0, 20, size=rng.integers(0, 30)).astype(np.int32)
            for _ in range(500)]
    from collections import Counter

    brute = Counter()
    for r in rows:
        for a, b in zip(r[:-1], r[1:]):
            brute[(int(a), int(b))] += 1
    ds = ray.data.from_pandas(pd.DataFrame({"tokens": [list(r) for r in rows]}))
    out = bigram_topk(ds, k=15, vocab_size=20).to_pandas()
    expect = sorted(brute.items(), key=lambda kv: (-kv[1], kv[0]))[:15]
    got = list(zip(zip(out["tok_a"], out["tok_b"]), out["cnt"]))
    assert got == expect


def test_bigram_topk_validation(ray_session):
    from datafiller_ray.pipelines.corpus import bigram_topk

    with pytest.raises(EngineValueError):
        bigram_topk(None, k=0)
    with pytest.raises(EngineValueError):
        bigram_topk(None, k=5, vocab_size=1 << 32)


# -- shuffle_manifest --------------------------------------------------------


def test_shuffle_manifest_is_permutation_and_deterministic(ray_session):
    from datafiller_ray.pipelines.corpus import shuffle_manifest

    docs = ray.data.from_pandas(_docs(1500))
    a = shuffle_manifest(docs, n_shards=8, seed=1).to_pandas()
    b = shuffle_manifest(docs, n_shards=8, seed=1).to_pandas()
    norm = lambda df: df.sort_values(["shard", "pos"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(norm(a), norm(b))
    # every doc appears exactly once; pos is dense 0..n_i-1 per shard
    assert sorted(a["doc_id"]) == list(range(1500))
    for _, g in a.groupby("shard"):
        assert sorted(g["pos"]) == list(range(len(g)))
    assert a["shard"].between(0, 7).all()
    # a different seed produces a different permutation of some shard
    c = shuffle_manifest(docs, n_shards=8, seed=2).to_pandas()
    assert not norm(a)[["doc_id"]].equals(norm(c)[["doc_id"]])


def test_shuffle_manifest_validation(ray_session):
    from datafiller_ray.pipelines.corpus import shuffle_manifest

    with pytest.raises(EngineValueError):
        shuffle_manifest(None, n_shards=0)


# ---------------------------------------------------------------------------
# token_moments


def test_token_moments_matches_numpy(ray_session):
    from datafiller_ray.pipelines.corpus import token_moments

    rng = np.random.default_rng(9)
    df = pd.DataFrame(
        {
            "source": rng.choice(["a", "b", "c"], size=3000).astype(object),
            "n_tok": rng.integers(1, 2048, size=3000),
        }
    )
    ds = ray.data.from_pandas(df).repartition(7)
    out = token_moments(ds).to_pandas().set_index("source").sort_index()
    for src, g in df.groupby("source"):
        v = g["n_tok"].to_numpy(np.float64)
        row = out.loc[src]
        assert row["n_rows"] == v.size
        assert row["sum_tok"] == int(v.sum())
        assert abs(row["mean_tok"] - v.mean()) < 1e-6
        assert abs(row["var_tok"] - v.var()) < 1e-5
        m2 = v.var()
        skew = ((v - v.mean()) ** 3).mean() / m2 ** 1.5
        kurt = ((v - v.mean()) ** 4).mean() / m2 ** 2 - 3.0
        assert abs(row["skew_tok"] - skew) < 1e-6
        assert abs(row["kurt_tok"] - kurt) < 1e-6


def test_token_moments_block_layout_invariant(ray_session):
    from datafiller_ray.pipelines.corpus import token_moments

    rng = np.random.default_rng(10)
    df = pd.DataFrame(
        {
            "source": rng.choice(["x", "y"], size=500).astype(object),
            "n_tok": rng.integers(1, 300, size=500),
        }
    )
    a = token_moments(ray.data.from_pandas(df)).to_pandas()
    b = token_moments(ray.data.from_pandas(df).repartition(13)).to_pandas()
    a = a.sort_values("source").reset_index(drop=True)
    b = b.sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_token_moments_bigvalue_slow_path(ray_session):
    from datafiller_ray.pipelines.corpus import token_moments

    # 50_000^4 = 6.25e18 < 2^63, but two such rows in one batch push the
    # vectorized per-batch sum over int64 -> the exact Python-int branch
    df = pd.DataFrame(
        {
            "source": ["a", "b"],
            "n_tok": np.array([50_000, 49_999], dtype=np.int64),
        }
    )
    out = token_moments(ray.data.from_pandas(df)).to_pandas()
    # single-row keys have no variance -> omitted by definition
    assert len(out) == 0

    df2 = pd.DataFrame(
        {
            "source": ["a"] * 3,
            "n_tok": np.array([50_000, 10, 20], dtype=np.int64),
        }
    )
    out2 = token_moments(ray.data.from_pandas(df2)).to_pandas()
    v = df2["n_tok"].to_numpy(np.float64)
    assert len(out2) == 1 and abs(out2["var_tok"].iloc[0] - v.var()) < 1e-4


def test_token_moments_constant_key_omitted(ray_session):
    from datafiller_ray.pipelines.corpus import token_moments

    df = pd.DataFrame({"source": ["c"] * 10, "n_tok": [42] * 10})
    assert len(token_moments(ray.data.from_pandas(df)).to_pandas()) == 0


# ---------------------------------------------------------------------------
# approx_quantiles


def test_approx_quantiles_matches_bruteforce_sample(ray_session):
    from datafiller_ray.functions.hashing import splitmix64
    from datafiller_ray.pipelines.corpus import approx_quantiles

    df = _docs(3000, seed=4)
    out = (
        approx_quantiles(ray.data.from_pandas(df).repartition(5), k=64, seed=3)
        .to_pandas()
        .set_index("source")
        .sort_index()
    )
    seed_mix = int(splitmix64(np.array([3], dtype=np.uint64))[0])
    h = splitmix64(df["doc_id"].to_numpy(np.uint64) ^ np.uint64(seed_mix))
    df = df.assign(h=h)
    for src, g in df.groupby("source"):
        samp = g.sort_values(["h", "doc_id"]).head(64)["n_chars"].to_numpy(np.float64)
        x = np.sort(samp)
        for q, col in [(0.5, "q0_5"), (0.9, "q0_9")]:
            pos = q * (x.size - 1)
            lo = int(np.floor(pos))
            hi = min(lo + 1, x.size - 1)
            v = x[lo] + (x[hi] - x[lo]) * (pos - lo)
            assert abs(out.loc[src, col] - v) < 1e-6


def test_approx_quantiles_block_layout_invariant(ray_session):
    from datafiller_ray.pipelines.corpus import approx_quantiles

    df = _docs(1000, seed=6)
    a = approx_quantiles(ray.data.from_pandas(df), k=32).to_pandas()
    b = approx_quantiles(ray.data.from_pandas(df).repartition(11), k=32).to_pandas()
    a = a.sort_values("source").reset_index(drop=True)
    b = b.sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_token_diversity_matches_python_sets(ray_session):
    import pyarrow as pa

    from datafiller_ray.pipelines.corpus import token_diversity

    rng = np.random.default_rng(33)
    rows = [rng.integers(0, 50, rng.integers(1, 40)).astype(np.int32) for _ in range(200)]
    rows.append(np.array([], dtype=np.int32))  # empty token list
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(len(rows))]),
            "source": pa.array(["s"] * len(rows)),
            "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
            "tokens": pa.array([r.tolist() for r in rows], type=pa.list_(pa.int32())),
        }
    )
    out = (
        token_diversity(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    exp_distinct = np.array([len(set(r.tolist())) for r in rows], dtype=np.int64)
    np.testing.assert_array_equal(out["n_distinct"].to_numpy(), exp_distinct)
    exp_div = np.where(
        np.array([len(r) for r in rows]) > 0,
        np.floor(exp_distinct / np.maximum([len(r) for r in rows], 1) * 1e6 + 0.5) / 1e6,
        0.0,
    )
    np.testing.assert_array_equal(out["diversity"].to_numpy(), exp_div)


def test_split_assign_nested_with_sample_and_guards(ray_session):
    import pyarrow as pa

    from datafiller_ray.pipelines.corpus import (
        split_assign,
        split_thresholds,
        stratified_sample,
    )

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(10_000, dtype=np.int64)),
            "source": pa.array(["s"] * 10_000),
        }
    )
    ds = ray.data.from_arrow(t)
    out = split_assign(ds, fractions=(0.9, 0.05, 0.05), seed=7).to_pandas()
    frac = out["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.9) < 0.02
    assert abs(frac["val"] - 0.05) < 0.01
    assert abs(frac["test"] - 0.05) < 0.01
    # nested-sample property: rate=0.9 sample IS the train split
    samp = set(
        stratified_sample(ds, rate=0.9, seed=7).to_pandas()["doc_id"]
    )
    train = set(out[out["split"] == "train"]["doc_id"])
    assert samp == train
    # determinism across runs
    again = split_assign(ds, fractions=(0.9, 0.05, 0.05), seed=7).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("doc_id").reset_index(drop=True),
        again.sort_values("doc_id").reset_index(drop=True),
    )
    for bad in (
        dict(fractions=(0.9, 0.1, 0.1)),
        dict(fractions=(0.9, 0.05, 0.05), names=("a", "b")),
        dict(fractions=(1.0, 0.0), names=("a", "b")),
    ):
        with pytest.raises(EngineValueError):
            split_assign(ds, **bad)
    assert split_thresholds((0.5, 0.5))[-1] == 1 << 64


def test_token_diversity_rejects_negative_token_ids(ray_session):
    import pyarrow as pa

    from datafiller_ray.pipelines.corpus import token_diversity

    t = pa.table(
        {
            "doc_id": pa.array(["a"]),
            "source": pa.array(["s"]),
            "n_tok": pa.array([2], type=pa.int32()),
            "tokens": pa.array([[1, -1]], type=pa.list_(pa.int32())),
        }
    )
    with pytest.raises(Exception, match="non-negative token ids"):
        token_diversity(ray.data.from_arrow(t)).to_pandas()


def test_temperature_sample_budgets_and_prefix(ray_session):
    """alpha=0.5 budgets equal the integer rule floor(sqrt(n_s)) scaled to
    the total; the kept set is exactly budget_sample with those budgets."""
    import numpy as np
    import pandas as pd
    import ray.data

    from datafiller_ray.pipelines.corpus import budget_sample, temperature_sample

    rng = np.random.default_rng(4)
    n = 400
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "source": rng.choice(["web", "wiki", "code"], n, p=[0.7, 0.2, 0.1]),
            "n_chars": rng.integers(50, 500, n).astype(np.int64),
        }
    )
    B = 20_000
    got = (
        temperature_sample(
            ray.data.from_pandas(docs), total_budget=B, alpha=0.5, seed=7
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    tots = docs.groupby("source")["n_chars"].sum()
    s = {k: int(np.floor(np.sqrt(float(v)))) for k, v in tots.items()}
    T = sum(s.values())
    budgets = {k: (B * v) // T for k, v in s.items()}
    want = (
        budget_sample(ray.data.from_pandas(docs), budgets=budgets, seed=7)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    # sqrt-temperature flattens: the biggest stratum's budget share is
    # smaller than its weight share
    assert budgets["web"] / B < tots["web"] / tots.sum()


def test_temperature_sample_alpha_one_is_proportional(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from datafiller_ray.pipelines.corpus import budget_sample, temperature_sample

    docs = pd.DataFrame(
        {
            "doc_id": np.arange(60, dtype=np.int64),
            "source": ["a"] * 40 + ["b"] * 20,
            "n_chars": np.full(60, 100, dtype=np.int64),
        }
    )
    B = 3000
    got = temperature_sample(
        ray.data.from_pandas(docs), total_budget=B, alpha=1.0, seed=1
    ).to_pandas()
    want = budget_sample(
        ray.data.from_pandas(docs),
        budgets={"a": B * 4000 // 6000, "b": B * 2000 // 6000},
        seed=1,
    ).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("doc_id").reset_index(drop=True),
        want.sort_values("doc_id").reset_index(drop=True),
    )


def test_temperature_sample_validation(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.corpus import temperature_sample

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_id": np.array([1], np.int64), "source": ["a"],
             "n_chars": np.array([10], np.int64)}
        )
    )
    with pytest.raises(EngineValueError, match="alpha"):
        temperature_sample(docs, total_budget=10, alpha=0.0)
    with pytest.raises(EngineValueError, match="alpha"):
        temperature_sample(docs, total_budget=10, alpha=1.5)
    with pytest.raises(EngineValueError, match="total_budget"):
        temperature_sample(docs, total_budget=-1)


def test_pmi_topk_matches_brute_force(ray_session):
    """Scalar brute-force PMI over a tiny Zipf-ish corpus: identical counts,
    identical pinned float expression, identical (pmi desc, wa, wb) rank."""
    import math

    import numpy as np
    import pandas as pd
    import ray.data

    from datafiller_ray.pipelines.corpus import pmi_topk

    rng = np.random.default_rng(8)
    vocab = ["the", "cat", "sat", "on", "mat", "dog", "ran"]
    probs = np.array([0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05])
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(40, dtype=np.int64),
            "text": [
                " ".join(rng.choice(vocab, rng.integers(5, 30), p=probs))
                for _ in range(40)
            ],
        }
    )
    k, mc = 10, 3
    got = pmi_topk(ray.data.from_pandas(docs), k=k, min_count=mc).to_pandas()

    uni, big, P = {}, {}, 0
    for text in docs["text"]:
        ws = text.split()
        for w in ws:
            uni[w] = uni.get(w, 0) + 1
        for a, b in zip(ws, ws[1:]):
            big[(a, b)] = big.get((a, b), 0) + 1
            P += 1
    T = sum(uni.values())
    rows = []
    for (a, b), c in big.items():
        if c < mc:
            continue
        num = (float(c) * float(T)) * float(T)
        den = (float(P) * float(uni[a])) * float(uni[b])
        rows.append((a, b, c, np.round(math.log(num / den), 6)))
    want = (
        pd.DataFrame(rows, columns=["wa", "wb", "cnt", "pmi"])
        .sort_values(["pmi", "wa", "wb"], ascending=[False, True, True])
        .head(k)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_pmi_topk_empty_and_validation(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.corpus import pmi_topk

    empty_docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.array([1], np.int64), "text": [""]})
    )
    out = pmi_topk(empty_docs, k=5)
    # Ray's to_pandas drops columns on empty datasets; assert the schema
    # at the Dataset level instead
    assert out.schema().names == ["wa", "wb", "cnt", "pmi"]
    assert out.count() == 0
    with pytest.raises(EngineValueError, match="k must"):
        pmi_topk(empty_docs, k=0)
    with pytest.raises(EngineValueError, match="min_count"):
        pmi_topk(empty_docs, min_count=0)


def test_skew_report_matches_brute_force(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data

    from datafiller_ray.pipelines.corpus import skew_report

    rng = np.random.default_rng(3)
    keys = np.r_[np.zeros(500, np.int64), rng.integers(1, 50, 800)]
    df = pd.DataFrame({"user_id": keys, "v": np.arange(keys.size)})
    got = skew_report(
        ray.data.from_pandas(df), key_col="user_id"
    ).to_pandas()
    assert len(got) == 1
    cnt = df.groupby("user_id").size().to_numpy(np.float64)
    r = got.iloc[0]
    assert r["n_keys"] == cnt.size
    assert r["total_rows"] == keys.size
    assert r["max_rows"] == 500
    assert r["top_key"] == 0
    x = np.sort(cnt)
    for q, name in [(0.5, "q0_5"), (0.9, "q0_9"), (0.99, "q0_99")]:
        pos = q * (cnt.size - 1)
        lo = int(np.floor(pos))
        hi = min(lo + 1, cnt.size - 1)
        v = x[lo] + (x[hi] - x[lo]) * (pos - lo)
        assert r[name] == np.floor(v * 1e6 + 0.5) / 1e6
    exp_skew = np.floor(500.0 * cnt.size / keys.size * 1e6 + 0.5) / 1e6
    assert r["skew_ratio"] == exp_skew


def test_skew_report_null_keys(ray_session):
    """Regression: a null among string keys crashed the top-key lexsort.
    Null keys are legitimate for a skew probe; ties prefer non-null keys
    (SQL NULLS LAST)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from datafiller_ray.pipelines.corpus import skew_report

    df = pd.DataFrame(
        {
            "source": ["a"] * 5 + ["b"] * 3 + [None] * 7,
            "v": np.arange(15),
        }
    )
    got = skew_report(ray.data.from_pandas(df), key_col="source").to_pandas()
    assert len(got) == 1
    r = got.iloc[0]
    assert r["n_keys"] == 3 and r["total_rows"] == 15 and r["max_rows"] == 7
    assert pd.isna(r["top_key"])  # the null group IS the hottest key


# ---------------------------------------------------------------------------
# oov_rate / doc_entropy (token-id corpus checks)


def _token_table(rows, sources=None):
    import pyarrow as pa

    sources = sources or ["s"] * len(rows)
    return pa.table(
        {
            "doc_id": pa.array([f"d{i:04d}" for i in range(len(rows))]),
            "source": pa.array(sources),
            "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
            "tokens": pa.array(
                [list(map(int, r)) for r in rows], type=pa.list_(pa.int32())
            ),
        }
    )


def test_token_id_vocab_deterministic_cutoff(ray_session):
    from datafiller_ray.pipelines.corpus import token_id_vocab

    # counts: tok 5 x3, toks 1,2,3 x2 each (tie broken tok asc), tok 9 x1
    rows = [[5, 5, 5, 1, 1], [2, 2, 3, 3, 9]]
    ds = ray.data.from_arrow(_token_table(rows))
    np.testing.assert_array_equal(token_id_vocab(ds, k=3), [1, 2, 5])
    np.testing.assert_array_equal(token_id_vocab(ds, k=1), [5])
    with pytest.raises(EngineValueError):
        token_id_vocab(ds, k=0)


def test_oov_rate_matches_python_sets(ray_session):
    from datafiller_ray.pipelines.corpus import oov_rate, token_id_vocab

    rng = np.random.default_rng(41)
    rows = [rng.integers(0, 200, rng.integers(5, 60)) for _ in range(300)]
    srcs = [rng.choice(["a", "b", "c"]) for _ in range(300)]
    ds = ray.data.from_arrow(_token_table(rows, srcs))
    out = oov_rate(ds, vocab_size=50).to_pandas().set_index("source")
    vocab = set(token_id_vocab(ds, k=50).tolist())
    for src in ("a", "b", "c"):
        toks = np.concatenate([r for r, s in zip(rows, srcs) if s == src])
        oov = sum(1 for t in toks for _ in [0] if int(t) not in vocab)
        assert out.loc[src, "total_tok"] == toks.size
        assert out.loc[src, "oov_tok"] == oov
        assert out.loc[src, "oov_rate"] == np.floor(oov / toks.size * 1e6 + 0.5) / 1e6


def test_doc_entropy_matches_scalar(ray_session):
    import math

    from datafiller_ray.pipelines.corpus import doc_entropy

    rng = np.random.default_rng(43)
    rows = [rng.integers(0, 30, rng.integers(1, 50)) for _ in range(200)]
    rows.append(np.array([7, 7, 7, 7], dtype=np.int64))  # single-token doc
    rows.append(np.array([], dtype=np.int64))  # empty doc
    ds = ray.data.from_arrow(_token_table(rows))
    out = (
        doc_entropy(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    for i, r in enumerate(rows):
        n = len(r)
        if n == 0:
            exp = 0.0
        else:
            cnts = np.unique(np.asarray(r), return_counts=True)[1].astype(float)
            s = float(np.sum(cnts * np.log(cnts)))
            exp = np.floor((math.log(n) - s / n) * 1e6 + 0.5) / 1e6
        assert out["entropy"].iloc[i] == pytest.approx(exp, abs=2e-6)
    # all-same-token doc has exactly zero entropy
    assert out["entropy"].iloc[200] == 0.0
    assert (out["entropy"] >= 0).all()


def test_doc_entropy_rejects_negative_token_ids(ray_session):
    import pyarrow as pa

    from datafiller_ray.pipelines.corpus import doc_entropy

    t = pa.table(
        {
            "doc_id": pa.array(["d0"]),
            "source": pa.array(["s"]),
            "n_tok": pa.array([2], type=pa.int32()),
            "tokens": pa.array([[-1, 3]], type=pa.list_(pa.int32())),
        }
    )
    with pytest.raises(Exception, match="non-negative token ids"):
        doc_entropy(ray.data.from_arrow(t)).to_pandas()


# ---------------------------------------------------------------------------
# source_similarity / token_kl_drift / hourly_quota


def test_source_similarity_matches_brute_force(ray_session):
    import math

    from datafiller_ray.pipelines.corpus import source_similarity

    rng = np.random.default_rng(51)
    rows, srcs = [], []
    for src, lo in (("a", 0), ("b", 0), ("c", 500)):
        for _ in range(50):
            rows.append(rng.integers(lo, lo + 400, rng.integers(5, 40)))
            srcs.append(src)
    ds = ray.data.from_arrow(_token_table(rows, srcs))
    out = source_similarity(ds, bin_width=32, n_bins=32).to_pandas()
    assert len(out) == 3  # (a,b) (a,c) (b,c)
    hist = {}
    for src in ("a", "b", "c"):
        toks = np.concatenate([r for r, s in zip(rows, srcs) if s == src])
        hist[src] = np.bincount(toks // 32, minlength=32).astype(np.int64)
    for _, r in out.iterrows():
        ha, hb = hist[r["src_a"]], hist[r["src_b"]]
        exp = float(ha @ hb) / (
            math.sqrt(float(ha @ ha)) * math.sqrt(float(hb @ hb))
        )
        assert r["cos_sim"] == np.floor(exp * 1e6 + 0.5) / 1e6
    # disjoint bins -> ~0; overlapping sources -> high similarity
    ab = out.set_index(["src_a", "src_b"])["cos_sim"]
    assert ab[("a", "b")] > 0.9
    assert ab[("a", "c")] < 0.1 and ab[("b", "c")] < 0.1


def test_source_similarity_token_range_guard(ray_session):
    from datafiller_ray.pipelines.corpus import source_similarity

    ds = ray.data.from_arrow(_token_table([[5, 2000]]))
    with pytest.raises(Exception, match="token id outside"):
        source_similarity(ds, bin_width=32, n_bins=32).to_pandas()


def test_token_kl_drift_matches_scalar(ray_session):
    from datafiller_ray.pipelines.corpus import token_kl_drift

    rng = np.random.default_rng(53)
    rows, srcs = [], []
    for src, hi in (("a", 100), ("b", 1000)):
        for _ in range(80):
            rows.append(rng.integers(0, hi, rng.integers(5, 40)))
            srcs.append(src)
    B = 64
    ds = ray.data.from_arrow(_token_table(rows, srcs))
    out = token_kl_drift(ds, bin_width=16, n_bins=B).to_pandas().set_index("source")
    cnt = {}
    for src in ("a", "b"):
        toks = np.concatenate([r for r, s in zip(rows, srcs) if s == src])
        cnt[src] = np.bincount(toks // 16, minlength=B).astype(np.int64)
    g = cnt["a"] + cnt["b"]
    G = int(g.sum())
    for src in ("a", "b"):
        n = int(cnt[src].sum())
        p = (cnt[src] + 1).astype(float) / float(n + B)
        q = (g + 1).astype(float) / float(G + B)
        exp = np.floor(np.sum(p * np.log(p / q)) * 1e6 + 0.5) / 1e6
        assert out.loc[src, "kl"] == pytest.approx(exp, abs=2e-6)
        assert out.loc[src, "total_tok"] == n
    # the narrow source deviates more from the blend than the broad one
    assert out.loc["b", "kl"] > 0


def test_hourly_quota_budget_and_determinism(ray_session):
    import pyarrow as pa

    from datafiller_ray.pipelines.corpus import hourly_quota

    rng = np.random.default_rng(57)
    n = 500
    minutes = rng.integers(0, 180, size=n)  # 3 hours
    srcs = rng.choice(["a", "b"], size=n)
    ntok = rng.integers(10, 200, size=n).astype(np.int64)
    t = pa.table(
        {
            "doc_id": pa.array(
                [f"{s}:{m:010d}" for s, m in zip(srcs, minutes)]
            ),
            "source": pa.array(srcs.tolist()),
            "n_tok": pa.array(ntok, type=pa.int32()),
        }
    )
    out = hourly_quota(ray.data.from_arrow(t), budget=1500, seed=3).to_pandas()
    grp = out.groupby(["source", "hour_ts"])["n_tok"].sum()
    assert (grp <= 1500).all()
    assert len(out) < n  # something was actually dropped
    # block-layout invariance: same result from a 7-way split input
    outs = hourly_quota(
        ray.data.from_arrow(t).repartition(7), budget=1500, seed=3
    ).to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = outs.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # zero budget keeps nothing; huge budget keeps everything
    assert len(hourly_quota(ray.data.from_arrow(t), budget=0).to_pandas()) == 0
    assert len(hourly_quota(ray.data.from_arrow(t), budget=10**9).to_pandas()) == n
    with pytest.raises(EngineValueError):
        hourly_quota(ray.data.from_arrow(t), budget=-1)


def test_source_gini_brute_force(ray_session):
    import pyarrow as pa

    from datafiller_ray.pipelines.corpus import source_gini

    rng = np.random.default_rng(71)
    n = 400
    srcs = rng.choice([f"s{i}" for i in range(12)], size=n)
    ntok = rng.integers(1, 500, size=n).astype(np.int64)
    t = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "source": pa.array(srcs.tolist()),
            "n_tok": pa.array(ntok, type=pa.int32()),
        }
    )
    out = source_gini(ray.data.from_arrow(t)).to_pandas()
    assert len(out) == 1
    totals = pd.Series(ntok).groupby(pd.Series(srcs)).sum().sort_values().to_numpy()
    nn = totals.size
    six = sum((i + 1) * int(v) for i, v in enumerate(totals))
    g = (2.0 * six) / (nn * float(totals.sum())) - (nn + 1) / nn
    assert out["gini"].iloc[0] == pytest.approx(
        np.floor(g * 1e6 + 0.5) / 1e6, abs=2e-6
    )
    assert out["n_sources"].iloc[0] == nn
    assert out["total_tok"].iloc[0] == int(ntok.sum())
    # equal volumes -> gini 0
    t2 = pa.table(
        {
            "doc_id": pa.array(["a", "b", "c"]),
            "source": pa.array(["x", "y", "z"]),
            "n_tok": pa.array([100, 100, 100], type=pa.int32()),
        }
    )
    eq = source_gini(ray.data.from_arrow(t2)).to_pandas()
    assert eq["gini"].iloc[0] == 0.0


def test_zipf_fit_recovers_planted_exponent(ray_session):
    from datafiller_ray.pipelines.corpus import zipf_fit

    # counts ~ r^-1 exactly: tok r appears ceil(1200/r) times
    rows = []
    stream = []
    for r in range(1, 200):
        stream.extend([r] * (1200 // r))
    stream = np.asarray(stream, dtype=np.int64)
    rng = np.random.default_rng(73)
    rng.shuffle(stream)
    for i in range(0, stream.size, 50):
        rows.append(stream[i : i + 50])
    out = zipf_fit(ray.data.from_arrow(_token_table(rows))).to_pandas()
    assert len(out) == 1
    assert out["n_types"].iloc[0] == 199
    assert out["slope"].iloc[0] == pytest.approx(-1.0, abs=0.05)
    assert out["r2"].iloc[0] > 0.99


def _bm25_docs():
    return pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "fast hash join",          # all 3 terms, short
                "fast fast fast scan",     # one term repeated
                "slow merge sort",         # no terms
                "hash join hash join padding words here",  # 2 terms, longer
            ],
            "lang": ["en"] * 4,
            "source": ["s"] * 4,
            "n_chars": [14, 19, 15, 38],
        }
    )


def test_bm25_topk_reference_values(ray_session):
    """Pin against an independent literal BM25 computation."""
    import math

    from datafiller_ray.pipelines.corpus import bm25_topk

    docs = _bm25_docs()
    out = bm25_topk(ray.data.from_pandas(docs), "fast hash join", k=10).to_pandas()
    # independent recomputation
    import re as _re

    tok = lambda s: _re.compile(r"\w+|[^\w\s]", _re.ASCII).findall(s)
    corpus = {int(r.doc_id): tok(r.text) for r in docs.itertuples()}
    N = len(corpus)
    avgdl = sum(len(v) for v in corpus.values()) / N
    want = {}
    for did, toks in corpus.items():
        s = 0.0
        for q in sorted({"fast", "hash", "join"}):
            tf = toks.count(q)
            if not tf:
                continue
            df = sum(q in set(v) for v in corpus.values())
            idf = math.log(1.0 + (N - df + 0.5) / (df + 0.5))
            s += idf * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * len(toks) / avgdl))
        if s > 0:
            want[did] = math.floor(s * 1e6 + 0.5) / 1e6
    got = dict(zip(out["doc_id"], out["score"]))
    assert got == want
    # doc 3 has no query terms -> absent
    assert 3 not in got


def test_bm25_topk_layout_invariance_and_validation(ray_session):
    from datafiller_ray.pipelines.corpus import bm25_topk

    docs = _bm25_docs()
    one = bm25_topk(ray.data.from_pandas(docs), "fast hash join", k=2).to_pandas()
    many = bm25_topk(
        ray.data.from_pandas(docs).repartition(4), "fast hash join", k=2
    ).to_pandas()
    pd.testing.assert_frame_equal(
        one.reset_index(drop=True), many.reset_index(drop=True)
    )
    assert len(one) == 2
    with pytest.raises(EngineValueError):
        bm25_topk(ray.data.from_pandas(docs), "   ", k=2)
    with pytest.raises(EngineValueError):
        bm25_topk(ray.data.from_pandas(docs), "fast", k=0)
    with pytest.raises(EngineValueError):
        bm25_topk(ray.data.from_pandas(docs), "fast", b=1.5)


def test_length_ntile_matches_duckdb(ray_session):
    import duckdb

    from datafiller_ray.pipelines.corpus import length_ntile

    rng = np.random.default_rng(7)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(137, dtype=np.int64),
            "text": "x",
            "lang": "en",
            "source": "s",
            # heavy ties: only 9 distinct lengths over 137 docs
            "n_chars": rng.integers(10, 19, 137),
        }
    )
    out = (
        length_ntile(ray.data.from_pandas(df).repartition(11), n_tiles=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = (
        con.sql(
            "SELECT doc_id, n_chars, CAST(NTILE(8) OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS tile FROM documents"
        )
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, want.astype({"n_chars": "int64"}))

    # n < k: each row its own tile
    small = df.head(3)
    out2 = (
        length_ntile(ray.data.from_pandas(small), n_tiles=8)
        .to_pandas()
        .sort_values("tile")
    )
    assert out2["tile"].tolist() == [1, 2, 3]


def test_source_ks_matches_scipy_style_literal(ray_session):
    """Pin against the literal two-sample KS definition."""
    from datafiller_ray.pipelines.corpus import source_ks

    rng = np.random.default_rng(21)
    a = rng.integers(10, 40, 200)
    b = rng.integers(20, 50, 300)   # shifted distribution
    c = rng.integers(10, 40, 150)   # same family as a
    df = pd.DataFrame(
        {
            "doc_id": np.arange(650, dtype=np.int64),
            "text": "x",
            "lang": "en",
            "source": ["a"] * 200 + ["b"] * 300 + ["c"] * 150,
            "n_chars": np.concatenate([a, b, c]),
        }
    )
    out = (
        source_ks(ray.data.from_pandas(df).repartition(7))
        .to_pandas()
        .set_index(["src_a", "src_b"])
    )

    def literal_ks(x, y):
        grid = np.union1d(x, y)
        fa = np.searchsorted(np.sort(x), grid, side="right") / x.size
        fb = np.searchsorted(np.sort(y), grid, side="right") / y.size
        return np.abs(fa - fb).max()

    for pair, (x, y) in {
        ("a", "b"): (a, b),
        ("a", "c"): (a, c),
        ("b", "c"): (b, c),
    }.items():
        got = float(out.loc[pair, "ks"])
        assert abs(got - literal_ks(x, y)) < 1e-6, pair
    # shifted pair is farther than the same-family pair
    assert out.loc[("a", "b"), "ks"] > out.loc[("a", "c"), "ks"]
    assert out.loc[("a", "b"), "n_a"] == 200


def test_equidepth_histogram_covers_all_rows(ray_session):
    from datafiller_ray.pipelines.corpus import equidepth_histogram, length_ntile

    rng = np.random.default_rng(4)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(100, dtype=np.int64),
            "text": "x",
            "lang": "en",
            "source": "s",
            "n_chars": rng.integers(5, 12, 100),
        }
    )
    ds = ray.data.from_pandas(df)
    hist = equidepth_histogram(ds, n_tiles=8).to_pandas().sort_values("tile")
    assert hist["n_rows"].sum() == 100
    # equal-depth: sizes differ by at most 1, first tiles take the extra
    assert hist["n_rows"].max() - hist["n_rows"].min() <= 1
    assert (hist["lo"] <= hist["hi"]).all()
    # boundaries are non-decreasing across tiles
    assert (hist["lo"].to_numpy()[1:] >= hist["lo"].to_numpy()[:-1]).all()

    # agreement with the per-row assignment
    assign = length_ntile(ds, n_tiles=8).to_pandas()
    per_tile = assign.groupby("tile").agg(
        lo=("n_chars", "min"), hi=("n_chars", "max"), n_rows=("tile", "size")
    )
    got = hist.set_index("tile")[["lo", "hi", "n_rows"]]
    pd.testing.assert_frame_equal(
        got, per_tile.astype({"n_rows": "int64"}), check_names=False
    )


def test_vocab_growth_literal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import vocab_growth

    # source s: hour 0 sees tokens {1,2,3}; hour 1 adds {4} (2,3 repeat)
    rows = [
        {"doc_id": "s:0000000000", "source": "s", "tokens": [1, 2, 2]},
        {"doc_id": "s:0000000005", "source": "s", "tokens": [3]},
        {"doc_id": "s:0000000060", "source": "s", "tokens": [2, 3, 4]},
        {"doc_id": "t:0000000060", "source": "t", "tokens": [1]},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32()))]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        vocab_growth(str(path), step=3600)
        .to_pandas()
        .sort_values(["source", "bucket_ts"])
        .reset_index(drop=True)
    )
    assert out["source"].tolist() == ["s", "s", "t"]
    assert out["bucket_ts"].tolist() == [0, 3600, 3600]
    assert out["new_tokens"].tolist() == [3, 1, 1]
    assert out["vocab_size"].tolist() == [3, 4, 1]


def test_vocab_growth_total_equals_distinct(ray_session, small_docs_fixture=None):
    import pyarrow.parquet as pq

    from datafiller_ray.fixtures import generate_input_table
    from datafiller_ray.pipelines.corpus import vocab_growth

    import tempfile, os
    d = tempfile.mkdtemp(prefix="vg_")
    path = os.path.join(d, "in.parquet")
    pq.write_table(generate_input_table(2000, 5, seed=13), path)
    out = vocab_growth(str(path), step=3600).to_pandas()

    import duckdb

    want = duckdb.sql(
        f"""SELECT source, COUNT(DISTINCT token) AS v FROM (
              SELECT source, UNNEST(tokens) AS token
              FROM read_parquet('{path}')) GROUP BY 1 ORDER BY 1"""
    ).df()
    got = (
        out.groupby("source", as_index=False)["new_tokens"].sum()
        .sort_values("source").reset_index(drop=True)
    )
    assert got["new_tokens"].astype("int64").tolist() == want["v"].astype("int64").tolist()
    # vocab_size is the running sum of new_tokens within each source
    for _, g in out.sort_values(["source", "bucket_ts"]).groupby("source"):
        assert (g["vocab_size"].to_numpy() == g["new_tokens"].cumsum().to_numpy()).all()


def test_weighted_quantiles_literal(ray_session):
    import pyarrow as pa
    import ray.data

    from datafiller_ray.pipelines.corpus import weighted_quantiles

    # values 1(w1), 2(w2), 3(w3): W=6, cum = 1,3,6
    t = pa.table({"n_tok": pa.array([1, 2, 3, 2], type=pa.int32()),
                  "w": pa.array([1, 1, 3, 1], type=pa.int32())})
    out = weighted_quantiles(
        ray.data.from_arrow(t), value_col="n_tok", weight_col="w",
        qs=(0.25, 0.5, 1.0),
    ).to_pandas()
    # q=0.25: smallest v with cw >= 1.5 -> 2; q=0.5: cw >= 3 -> 2 (exact
    # boundary included); q=1.0: 3
    assert out.iloc[0].tolist() == [2, 2, 3]


def test_weighted_quantiles_weight_equals_value(ray_session):
    import pyarrow as pa
    import ray.data

    from datafiller_ray.pipelines.corpus import weighted_quantiles

    t = pa.table({"n_tok": pa.array([10, 20, 30], type=pa.int32())})
    out = weighted_quantiles(ray.data.from_arrow(t), qs=(0.5,)).to_pandas()
    # W=60, cum 10,30,60: q=.5 -> smallest v with cw>=30 -> 20
    assert out["wq0_5"].tolist() == [20]


def test_length_percentile_literal(ray_session):
    import ray.data

    from datafiller_ray.pipelines.corpus import length_percentile

    df = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "source": ["a", "a", "a", "a", "b", "c"],
            "n_chars": np.array([5, 5, 7, 9, 3, 4], dtype=np.int64),
        }
    )
    out = (
        length_percentile(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # source a (n=4): ranks 1,1,3,4 -> pct (r-1)/3 = 0, 0, 2/3, 1
    # source b, c single rows -> 0.0
    exp = [0.0, 0.0, np.floor(2 / 3 * 1e6 + 0.5) / 1e6, 1.0, 0.0, 0.0]
    assert out["pct_rank"].tolist() == exp


def test_vocab_overlap_literal(ray_session):
    import pyarrow as pa
    import ray.data

    from datafiller_ray.pipelines.corpus import vocab_overlap

    t = pa.table(
        {
            "source": ["a", "a", "b", "c"],
            "tokens": pa.array(
                [[1, 2, 3, 1], [2], [2, 3, 4], [9]],
                type=pa.list_(pa.int32()),
            ),
        }
    )
    out = (
        vocab_overlap(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )
    # vocab a={1,2,3}, b={2,3,4}, c={9}: only (a,b) share, common 2,
    # jaccard 2/(3+3-2) = 0.5; c pairs with nothing
    assert out["source_a"].tolist() == ["a"]
    assert out["source_b"].tolist() == ["b"]
    assert out["n_a"].tolist() == [3]
    assert out["n_b"].tolist() == [3]
    assert out["n_common"].tolist() == [2]
    assert out["jaccard"].tolist() == [0.5]


def test_first_digit_profile_literal(ray_session):
    import pyarrow as pa
    import ray.data

    from datafiller_ray.pipelines.corpus import first_digit_profile

    t = pa.table(
        {
            "source": ["a", "a", "a", "a", "b"],
            "n_tok": pa.array([1, 19, 190, 900, 0], type=pa.int32()),
        }
    )
    out = (
        first_digit_profile(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values(["source", "digit"])
        .reset_index(drop=True)
    )
    # source a: digits 1,1,1,9 -> (1: 3, 9: 1); b's only row has n_tok=0
    # and is excluded entirely
    assert out["source"].tolist() == ["a", "a"]
    assert out["digit"].tolist() == [1, 9]
    assert out["cnt"].tolist() == [3, 1]
    assert out["frac"].tolist() == [0.75, 0.25]


def test_first_digit_exact_near_powers_of_ten(ray_session):
    import pyarrow as pa
    import ray.data

    from datafiller_ray.pipelines.corpus import first_digit_profile

    # values where float log10 extraction misrounds: 10^k and 10^k - 1
    vals = [10, 9, 100, 99, 1000, 999, 1000000, 999999]
    t = pa.table({"source": ["s"] * len(vals),
                  "n_tok": pa.array(vals, type=pa.int64())})
    out = first_digit_profile(ray.data.from_arrow(t)).to_pandas()
    got = dict(zip(out["digit"], out["cnt"]))
    assert got == {1: 4, 9: 4}


def test_hybrid_rrf_fuses_both_lists(ray_session):
    from datafiller_ray.pipelines.corpus import RRF_SCALE, hybrid_rrf

    # doc 0: matches the query text AND is the query vector's nearest
    # neighbor -> two contributions; docs 1/2 lexical-only; doc 10
    # vector-only (identical direction, no query terms in text)
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(12, dtype=np.int64),
            "text": ["alpha beta gamma"] * 12,
        }
    )
    docs.loc[0, "text"] = "alpha beta alpha"
    docs.loc[1, "text"] = "alpha zzz"
    docs.loc[2, "text"] = "beta zzz"
    rng = np.random.default_rng(0)
    M = rng.standard_normal((12, 8))
    M[0] = np.array([1.0, 0, 0, 0, 0, 0, 0, 0])
    M[10] = np.array([0.9, 0, 0, 0, 0, 0, 0, 0])  # same direction as doc 0
    emb = pd.DataFrame({"vec_id": np.arange(12, dtype=np.int64)})
    emb["embedding"] = list(M.astype(np.float32))

    out = hybrid_rrf(
        ray.data.from_pandas(docs),
        ray.data.from_pandas(emb),
        "alpha beta",
        M[0],
        k_list=5,
        k=6,
        query_vec_id=0,
    ).to_pandas()
    assert list(out.columns) == ["rank", "doc_id", "rrf_e12"]
    assert len(out) == 6
    # doc 0 leads both lists -> rank 1 with the two-list fused score
    assert out.iloc[0]["doc_id"] == 0
    assert out.iloc[0]["rrf_e12"] == 2 * (RRF_SCALE // 61)
    # every fused score is a sum of exact per-rank grid values
    grid = {RRF_SCALE // (60 + r) for r in range(1, 6)}
    pair_sums = {a + b for a in grid for b in grid}
    for s in out["rrf_e12"]:
        assert int(s) in grid | pair_sums
    # vector-only doc 10 is present (rank 2 in the ANN list)
    assert 10 in set(out["doc_id"])


def test_hybrid_rrf_validation(ray_session):
    from datafiller_ray.pipelines.corpus import hybrid_rrf

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [0], "text": ["x"]})
    )
    emb = pd.DataFrame({"vec_id": [0]})
    emb["embedding"] = [[1.0, 0.0]]
    emb = ray.data.from_pandas(emb)
    with pytest.raises(EngineValueError):
        hybrid_rrf(docs, emb, "x", [1.0, 0.0], k=0)
    with pytest.raises(EngineValueError):
        hybrid_rrf(docs, emb, "x", [1.0, 0.0], rrf_k=-1)


def test_chao1_richness_literal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import chao1_richness

    # source s: token counts 1->2, 2->1, 3->1  => D=3, f1=2, f2=1
    # source t: token 5->2                     => D=1, f1=0, f2=1
    rows = [
        {"doc_id": "s:0000000000", "source": "s", "tokens": [1, 2, 1]},
        {"doc_id": "s:0000000060", "source": "s", "tokens": [3]},
        {"doc_id": "t:0000000000", "source": "t", "tokens": [5, 5]},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32()))]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        chao1_richness(str(path))
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    assert out["source"].tolist() == ["s", "t"]
    assert out["n_distinct"].tolist() == [3, 1]
    assert out["f1"].tolist() == [2, 0]
    assert out["f2"].tolist() == [1, 1]
    # chao1 = D + f1(f1-1)/(2(f2+1)): s -> 3 + 2/4 = 3.5, t -> 1 + 0 = 1
    assert out["chao1"].tolist() == [3.5, 1.0]


def test_tokenizer_fertility_literal(ray_session):
    from datafiller_ray.pipelines.text import tokenizer_fertility

    docs = pd.DataFrame(
        {
            "doc_id": np.array([0, 1, 2], dtype=np.int64),
            "source": np.array(["a", "a", "b"], dtype=object),
            "text": ["one two", "three four five!", "x"],
            "n_chars": np.array([7, 16, 1], dtype=np.int64),
        }
    )
    out = (
        tokenizer_fertility(ray.data.from_pandas(docs))
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    # a: words 2+3=5, bpe toks 2+4=6 ('!' is its own token), chars 23
    assert out.loc[0, ["n_docs", "sum_tok", "sum_words", "sum_chars"]].tolist() == [
        2, 6, 5, 23
    ]
    assert out.loc[0, "fertility"] == np.floor(6 / 5 * 1e6 + 0.5) / 1e6
    assert out.loc[0, "chars_per_tok"] == np.floor(23 / 6 * 1e6 + 0.5) / 1e6
    assert out.loc[1, ["n_docs", "sum_tok", "sum_words", "sum_chars"]].tolist() == [
        1, 1, 1, 1
    ]


def test_bigram_logprob_literal(ray_session, tmp_path):
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import bigram_logprob

    # corpus bigrams: (1,2)x2 [d0,d1], (2,3)x1 [d0], (2,2)x1 [d2]
    # c1: 1->2, 2->2; NLL(1,2)=ln(2/2)=0, NLL(2,3)=NLL(2,2)=ln 2
    rows = [
        {"doc_id": "a:0000000000", "tokens": [1, 2, 3]},
        {"doc_id": "a:0000000060", "tokens": [1, 2]},
        {"doc_id": "b:0000000000", "tokens": [2, 2]},
        {"doc_id": "b:0000000060", "tokens": [7]},  # no bigram -> absent
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema([("doc_id", pa.string()), ("tokens", pa.list_(pa.int32()))])
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        bigram_logprob(str(path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [
        "a:0000000000", "a:0000000060", "b:0000000000"
    ]
    assert out["n_bigrams"].tolist() == [2, 1, 1]
    ln2 = math.log(2.0)
    assert out["mean_nll"].tolist() == [
        np.round(ln2 / 2, 6), 0.0, np.round(ln2, 6)
    ]


def test_kn_bigram_logprob_literal(ray_session, tmp_path):
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import kn_bigram_logprob

    # c2: (1,2)=2, (2,3)=1, (2,2)=1; at: a=1 (c1=2,na=1), a=2 (c1=2,na=2)
    # bt: b=2 nb=2, b=3 nb=1; N1+(*,*) = 3 distinct bigram types
    rows = [
        {"doc_id": "a:0000000000", "tokens": [1, 2, 3]},
        {"doc_id": "a:0000000060", "tokens": [1, 2]},
        {"doc_id": "b:0000000000", "tokens": [2, 2]},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema([("doc_id", pa.string()), ("tokens", pa.list_(pa.int32()))])
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        kn_bigram_logprob(str(path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # per-term probabilities, same expression tree as the engine kernel
    p12 = max(2 - 0.75, 0.0) / 2 + (0.75 * 1 / 2) * (2 / 3)
    p23 = max(1 - 0.75, 0.0) / 2 + (0.75 * 2 / 2) * (1 / 3)
    p22 = max(1 - 0.75, 0.0) / 2 + (0.75 * 2 / 2) * (2 / 3)
    assert out["n_bigrams"].tolist() == [2, 1, 1]
    assert out["mean_nll"].tolist() == [
        np.round((-math.log(p12) - math.log(p23)) / 2, 6),
        np.round(-math.log(p12), 6),
        np.round(-math.log(p22), 6),
    ]


def test_bigram_scorers_broadcast_equals_copartition(ray_session, tmp_path):
    """The size-gated broadcast join (shuffle-free scoring pass) and the
    co-partition exchange must agree row-for-row under the shared 6-dp
    absorber — same invariant for both the MLE and the KN scorer."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import (
        bigram_logprob,
        kn_bigram_logprob,
    )

    rng = np.random.default_rng(7)
    rows = []
    for i in range(200):
        n = int(rng.integers(0, 14))
        rows.append(
            {
                "doc_id": f"s{i % 5}:{i:010d}",
                "tokens": rng.integers(0, 40, size=n).tolist(),
            }
        )
    t = pa.Table.from_pylist(rows).cast(
        pa.schema([("doc_id", pa.string()), ("tokens", pa.list_(pa.int32()))])
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)

    for fn in (bigram_logprob, kn_bigram_logprob):
        fast = (
            fn(str(path))
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        slow = (
            fn(str(path), broadcast_rows=0)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(fast, slow)


def test_kn_bigram_logprob_validation(ray_session):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.corpus import kn_bigram_logprob

    with pytest.raises(EngineValueError):
        kn_bigram_logprob("/tmp/nope.parquet", discount=1.0)


def test_gt_coverage_literal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import gt_coverage

    # source s: counts 1->2, 2->1, 3->1 => N=4, f1=2 -> unseen 0.5
    # source t: 5->2                    => N=2, f1=0 -> unseen 0.0
    rows = [
        {"doc_id": "s:0000000000", "source": "s", "tokens": [1, 2, 1]},
        {"doc_id": "s:0000000060", "source": "s", "tokens": [3]},
        {"doc_id": "t:0000000000", "source": "t", "tokens": [5, 5]},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32()))]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        gt_coverage(str(path))
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    assert out["source"].tolist() == ["s", "t"]
    assert out["n_tokens"].tolist() == [4, 2]
    assert out["f1"].tolist() == [2, 0]
    assert out["unseen_mass"].tolist() == [0.5, 0.0]
    assert out["coverage"].tolist() == [0.5, 1.0]


def test_doc_lexical_stats_literal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import doc_lexical_stats

    rows = [
        # types {1,2,3}, hapax {3}; bigrams (1,2),(2,1),(1,2),(2,3): 3
        # distinct of 4 -> dup frac 1/4
        {"doc_id": "a", "tokens": [1, 2, 1, 2, 3]},
        # single token: 1 type, 1 hapax, no bigrams
        {"doc_id": "b", "tokens": [7]},
        # all same: 1 type, 0 hapax, bigrams all duplicate after first
        {"doc_id": "c", "tokens": [4, 4, 4, 4]},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema([("doc_id", pa.string()), ("tokens", pa.list_(pa.int32()))])
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        doc_lexical_stats(str(path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["n_tok"].tolist() == [5, 1, 4]
    assert out["n_types"].tolist() == [3, 1, 1]
    assert out["n_hapax"].tolist() == [1, 1, 0]
    assert out["ttr"].tolist() == [0.6, 1.0, 0.25]
    assert out["hapax_frac"].tolist() == [
        np.floor(1 / 3 * 1e6 + 0.5) / 1e6, 1.0, 0.0
    ]
    assert out["dup_bigram_frac"].tolist() == [0.25, 0.0,
                                               np.floor(2 / 3 * 1e6 + 0.5) / 1e6]


def test_ppl_tercile_literal(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import ppl_tercile

    # 5 scored docs in source s (one per NLL rank), 1 in t; doc "x" has
    # no bigram and must be absent
    rows = [
        {"doc_id": "s:1", "source": "s", "tokens": [1, 2, 3]},
        {"doc_id": "s:2", "source": "s", "tokens": [1, 2]},
        {"doc_id": "s:3", "source": "s", "tokens": [2, 2]},
        {"doc_id": "s:4", "source": "s", "tokens": [1, 2, 1, 2]},
        {"doc_id": "s:5", "source": "s", "tokens": [3, 1]},
        {"doc_id": "t:1", "source": "t", "tokens": [9, 9]},
        {"doc_id": "x:1", "source": "t", "tokens": [4]},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32()))]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        ppl_tercile(str(path))
        .to_pandas()
        .sort_values(["source", "mean_nll", "doc_id"])
        .reset_index(drop=True)
    )
    assert "x:1" not in set(out["doc_id"])
    s = out[out["source"] == "s"]
    # SQL NTILE(3) over 5 rows: sizes 2, 2, 1 in score order
    assert s["ppl_tile"].tolist() == [1, 1, 2, 2, 3]
    t_rows = out[out["source"] == "t"]
    assert t_rows["ppl_tile"].tolist() == [1]


def test_ppl_tercile_validation(ray_session):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.corpus import ppl_tercile

    with pytest.raises(EngineValueError):
        ppl_tercile("/tmp/nope.parquet", n_tiles=0)


def test_heaps_fit_literal(ray_session, tmp_path):
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import heaps_fit

    # source s: three active hours; cum tokens 2, 5, 9; vocab 2, 3, 3
    # (hour 3 mints nothing -> carried forward by running max)
    rows = [
        {"doc_id": "s:0000000000", "source": "s", "tokens": [1, 2],
         "n_tok": 2},
        {"doc_id": "s:0000000060", "source": "s", "tokens": [1, 2, 3],
         "n_tok": 3},
        {"doc_id": "s:0000000120", "source": "s", "tokens": [2, 3, 1, 1],
         "n_tok": 4},
    ]
    # push rows into three distinct hours: minute 0, 60, 120
    rows[1]["doc_id"] = "s:" + str(3600 // 60).zfill(10)
    rows[2]["doc_id"] = "s:" + str(7200 // 60).zfill(10)
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = heaps_fit(str(path)).to_pandas()
    assert len(out) == 1
    lx = np.log(np.array([2.0, 5.0, 9.0]))
    ly = np.log(np.array([2.0, 3.0, 3.0]))
    fs = math.fsum
    n = 3.0
    sx, sy = fs(lx), fs(ly)
    sxy, sxx = fs(lx * ly), fs(lx * lx)
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    assert out.loc[0, "n_points"] == 3
    assert out.loc[0, "beta"] == np.floor(beta * 1e6 + 0.5) / 1e6


def test_entropy_rate_literal(ray_session, tmp_path):
    """Hand-computed bigram conditional entropy on a two-source table;
    the all-short source (no bigrams) must be omitted."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import entropy_rate

    rows = [
        {"doc_id": "s:0000000000", "source": "s", "tokens": [1, 2, 1, 2],
         "n_tok": 4},
        {"doc_id": "s:0000000001", "source": "s", "tokens": [1, 3],
         "n_tok": 2},
        {"doc_id": "t:0000000000", "source": "t", "tokens": [5], "n_tok": 1},
        {"doc_id": "t:0000000001", "source": "t", "tokens": [7], "n_tok": 1},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = entropy_rate(str(path)).to_pandas().sort_values("source")
    # bigrams of s: (1,2)x2, (2,1), (1,3) -> N=4, 3 distinct
    # contexts: a=1 c1=3, a=2 c1=1; s2 = 2ln2; s1 = 3ln3
    assert list(out["source"]) == ["s"]
    r = out.iloc[0]
    assert r["n_bigrams"] == 4 and r["n_distinct"] == 3
    s1, s2 = 3 * math.log(3.0), 2 * math.log(2.0)
    assert r["cond_entropy"] == np.floor((s1 - s2) / 4 * 1e6 + 0.5) / 1e6
    assert r["context_entropy"] == (
        np.floor((math.log(4.0) - s1 / 4) * 1e6 + 0.5) / 1e6
    )


def test_entropy_rate_partition_invariance(ray_session, tmp_path):
    """Result independent of file sharding (exchange reorders floats only
    inside the absorber)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import entropy_rate

    rng = np.random.default_rng(11)
    rows = []
    for i in range(300):
        n = int(rng.integers(0, 12))
        rows.append(
            {
                "doc_id": f"s{i % 4}:{i:010d}",
                "source": f"s{i % 4}",
                "tokens": rng.integers(0, 25, size=n).tolist(),
                "n_tok": n,
            }
        )
    schema = pa.schema(
        [("doc_id", pa.string()), ("source", pa.string()),
         ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
    )
    one = tmp_path / "one"
    many = tmp_path / "many"
    one.mkdir(); many.mkdir()
    t = pa.Table.from_pylist(rows).cast(schema)
    pq.write_table(t, one / "all.parquet")
    for j in range(7):
        pq.write_table(
            pa.Table.from_pylist(rows[j::7]).cast(schema),
            many / f"part{j}.parquet",
        )
    a = entropy_rate(str(one)).to_pandas().sort_values("source").reset_index(drop=True)
    b = entropy_rate(str(many)).to_pandas().sort_values("source").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def _sm64(x: int) -> int:
    """Scalar splitmix64 mirror (independent of functions.hashing)."""
    m = (1 << 64) - 1
    x = (x + 0x9E3779B97F4A7C15) & m
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & m
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & m
    x ^= x >> 31
    return x


def test_dsir_weights_literal(ray_session, tmp_path):
    """Brute-force scalar recomputation of the hashed-bigram importance
    weights on a tiny two-source table (target = source t)."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import dsir_weights

    rows = [
        {"doc_id": "s:0000000000", "source": "s",
         "tokens": [1, 2, 3, 1, 2], "n_tok": 5},
        {"doc_id": "s:0000000001", "source": "s", "tokens": [4], "n_tok": 1},
        {"doc_id": "t:0000000000", "source": "t", "tokens": [1, 2, 4],
         "n_tok": 3},
        {"doc_id": "t:0000000001", "source": "t", "tokens": [2, 3],
         "n_tok": 2},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    B = 64
    out = (
        dsir_weights(str(path), ["t"], n_feat_buckets=B)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # brute force
    ct = [0] * B
    cr = [0] * B
    feats = {}
    for r in rows:
        fs = [
            _sm64((a << 32) | b) % B
            for a, b in zip(r["tokens"], r["tokens"][1:])
        ]
        feats[r["doc_id"]] = fs
        for f in fs:
            cr[f] += 1
            if r["source"] == "t":
                ct[f] += 1
    T, R = sum(ct), sum(cr)
    expect = []
    for did in sorted(feats):
        fs = feats[did]
        if not fs:
            continue
        lw = sum(
            math.log((ct[f] + 1) / (T + B)) - math.log((cr[f] + 1) / (R + B))
            for f in fs
        )
        expect.append((did, len(fs), np.floor(lw * 1e6 + 0.5) / 1e6))
    assert list(out["doc_id"]) == [e[0] for e in expect]
    assert list(out["n_feats"]) == [e[1] for e in expect]
    np.testing.assert_allclose(
        out["log_weight"].to_numpy(), [e[2] for e in expect], atol=1.1e-6
    )
    # target docs should look more target-like than the raw-only docs
    tw = out[out["doc_id"].str.startswith("t")]["log_weight"].mean()
    sw = out[out["doc_id"].str.startswith("s")]["log_weight"].mean()
    assert tw > sw


def test_dsir_weights_validation(ray_session):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.corpus import dsir_weights

    with pytest.raises(EngineValueError):
        dsir_weights("/tmp/nope", [])
    with pytest.raises(EngineValueError):
        dsir_weights("/tmp/nope", ["s"], n_feat_buckets=1)


def test_source_ngram_overlap_literal(ray_session, tmp_path):
    """Hand-computed trigram sets on three tiny sources."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import source_ngram_overlap

    rows = [
        # s: trigrams {(1,2,3), (2,3,4)}
        {"doc_id": "s:0000000000", "source": "s", "tokens": [1, 2, 3, 4],
         "n_tok": 4},
        # t: trigrams {(1,2,3), (9,9,9)} ((1,2,3) repeated across docs)
        {"doc_id": "t:0000000000", "source": "t", "tokens": [1, 2, 3],
         "n_tok": 3},
        {"doc_id": "t:0000000001", "source": "t", "tokens": [9, 9, 9],
         "n_tok": 3},
        {"doc_id": "t:0000000002", "source": "t", "tokens": [1, 2, 3],
         "n_tok": 3},
        # u: no trigrams (too short) -> absent everywhere
        {"doc_id": "u:0000000000", "source": "u", "tokens": [1, 2],
         "n_tok": 2},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        source_ngram_overlap(str(path))
        .to_pandas()
        .sort_values(["source_a", "source_b"])
        .reset_index(drop=True)
    )
    assert out[["source_a", "source_b"]].values.tolist() == [
        ["s", "t"], ["t", "s"],
    ]
    s_row = out.iloc[0]
    assert (s_row["n_a"], s_row["n_common"]) == (2, 1)
    assert s_row["overlap"] == 0.5
    t_row = out.iloc[1]
    assert (t_row["n_a"], t_row["n_common"]) == (2, 1)
    assert t_row["overlap"] == 0.5


def test_source_ngram_overlap_validation(ray_session):
    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.corpus import source_ngram_overlap

    with pytest.raises(EngineValueError):
        source_ngram_overlap("/tmp/nope", n=4)


def test_yule_k_literal(ray_session, tmp_path):
    """Hand-computed K on a tiny source: counts {a:3, b:1} -> N=4,
    sum c^2 = 10, K = 1e4 * 6 / 16 = 3750."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.pipelines.corpus import yule_k

    rows = [
        {"doc_id": "s:0000000000", "source": "s", "tokens": [7, 7, 9],
         "n_tok": 3},
        {"doc_id": "s:0000000001", "source": "s", "tokens": [7], "n_tok": 1},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = yule_k(str(path)).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["n_tokens"], r["n_types"]) == (4, 2)
    assert r["yule_k"] == 3750.0


def test_token_burstiness_literal(ray_session, tmp_path):
    """Hand-computed VMR: token 7 appears [3, 0, 1] over source s's three
    docs -> mean 4/3, ex2 10/3, vmr = (10/3 - 16/9)/(4/3)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from datafiller_ray.config import EngineValueError
    from datafiller_ray.pipelines.corpus import token_burstiness

    rows = [
        {"doc_id": "s:0000000000", "source": "s", "tokens": [7, 7, 7, 9],
         "n_tok": 4},
        {"doc_id": "s:0000000001", "source": "s", "tokens": [9], "n_tok": 1},
        {"doc_id": "s:0000000002", "source": "s", "tokens": [7, 9],
         "n_tok": 2},
    ]
    t = pa.Table.from_pylist(rows).cast(
        pa.schema(
            [("doc_id", pa.string()), ("source", pa.string()),
             ("tokens", pa.list_(pa.int32())), ("n_tok", pa.int32())]
        )
    )
    path = tmp_path / "in.parquet"
    pq.write_table(t, path)
    out = (
        token_burstiness(str(path), min_count=3)
        .to_pandas()
        .sort_values("token")
        .reset_index(drop=True)
    )
    assert out["token"].tolist() == [7, 9]
    r7 = out.iloc[0]
    assert (r7["total_cnt"], r7["df_docs"]) == (4, 2)
    mean, ex2 = 4.0 / 3.0, 10.0 / 3.0
    assert r7["vmr"] == np.floor((ex2 - mean * mean) / mean * 1e6 + 0.5) / 1e6
    r9 = out.iloc[1]  # 9 appears once per doc: VMR = 0 (uniform)
    assert (r9["total_cnt"], r9["df_docs"]) == (3, 3)
    assert r9["vmr"] == 0.0
    with pytest.raises(EngineValueError):
        token_burstiness("/tmp/nope", min_count=0)


# ---------------------------------------------------------------------------
# token_pagerank


def _pagerank_table(rows):
    import pyarrow as pa

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([f"d{i:04d}" for i in range(len(rows))]),
                "source": pa.array(["s"] * len(rows)),
                "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
                "tokens": pa.array(
                    [list(map(int, r)) for r in rows], type=pa.list_(pa.int32())
                ),
            }
        )
    )


def test_token_pagerank_matches_oracle_and_paths_agree():
    import importlib.util
    import os as _os

    from datafiller_ray.pipelines.corpus import token_pagerank

    p = _os.path.join(_os.path.dirname(__file__), "oracle", "fills.py")
    spec = importlib.util.spec_from_file_location("oracle_fills_pr", p)
    o = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(o)

    rng = np.random.default_rng(7)
    rows = [
        rng.integers(0, 40, rng.integers(1, 30)).astype(np.int32)
        for _ in range(150)
    ]
    rows.append(np.array([], dtype=np.int32))
    ds = _pagerank_table(rows)
    got_bc = token_pagerank(ds, k=15, n_iter=8).to_pandas()
    got_ex = token_pagerank(ds, k=15, n_iter=8, broadcast_rows=0).to_pandas()
    pd.testing.assert_frame_equal(got_bc, got_ex)  # size-gate equality
    exp = o.pagerank_exact([r.tolist() for r in rows], k=15, n_iter=8)
    pd.testing.assert_frame_equal(got_bc, exp)


def test_token_pagerank_hub_wins():
    from datafiller_ray.pipelines.corpus import token_pagerank

    # every doc funnels into token 7: it must rank first
    rows = [np.array([i, 7], dtype=np.int32) for i in range(1, 30)]
    out = token_pagerank(_pagerank_table(rows), k=3).to_pandas()
    assert out["token"].iloc[0] == 7
    assert out["pr_mass"].iloc[0] > out["pr_mass"].iloc[1]


def test_token_pagerank_no_bigrams_is_empty():
    from datafiller_ray.pipelines.corpus import token_pagerank

    rows = [np.array([3], dtype=np.int32), np.array([], dtype=np.int32)]
    out = token_pagerank(_pagerank_table(rows), k=5)
    # schema survives at the Dataset level (Ray's to_pandas drops columns
    # of a zero-row dataset, so assert on the Arrow schema)
    assert out.schema().names == ["rank", "token", "pr_mass", "out_occ"]
    assert out.count() == 0


def test_token_pagerank_validates_params():
    from datafiller_ray.pipelines.corpus import token_pagerank

    with pytest.raises(EngineValueError):
        token_pagerank("/tmp/x", k=0)
    with pytest.raises(EngineValueError):
        token_pagerank("/tmp/x", n_iter=0)
    with pytest.raises(EngineValueError):
        token_pagerank("/tmp/x", damping_pct=100)


def test_wasserstein_drift_matches_literal_cdf_area(ray_session):
    """Pin against the literal CDF-area W1 definition on the union grid."""
    from datafiller_ray.pipelines.corpus import wasserstein_drift

    rng = np.random.default_rng(33)
    a = rng.integers(10, 40, 200)
    b = rng.integers(25, 55, 300)  # shifted distribution
    df = pd.DataFrame(
        {
            "doc_id": np.arange(500, dtype=np.int64),
            "text": "x",
            "lang": "en",
            "source": ["a"] * 200 + ["b"] * 300,
            "n_chars": np.concatenate([a, b]),
        }
    )
    out = (
        wasserstein_drift(ray.data.from_pandas(df).repartition(7))
        .to_pandas()
        .set_index("source")
    )
    pooled = np.concatenate([a, b])

    def literal_w1(x, y):
        grid = np.union1d(x, y).astype(np.float64)
        fx = np.searchsorted(np.sort(x), grid, side="right") / x.size
        fy = np.searchsorted(np.sort(y), grid, side="right") / y.size
        return float(np.sum(np.abs(fx - fy)[:-1] * np.diff(grid)))

    for src, vals in {"a": a, "b": b}.items():
        got = float(out.loc[src, "w1"])
        assert abs(got - literal_w1(vals, pooled)) < 1e-6, src
    assert out.loc["a", "n_rows"] == 200
    # the shifted source drifts from the pool at least as much as its
    # complement weighted by size (sanity: both strictly positive)
    assert (out["w1"] > 0).all()


def test_wasserstein_drift_single_source_is_zero(ray_session):
    # one source: pooled distribution IS the source -> W1 exactly 0
    from datafiller_ray.pipelines.corpus import wasserstein_drift

    df = pd.DataFrame(
        {
            "doc_id": np.arange(50, dtype=np.int64),
            "text": "x",
            "lang": "en",
            "source": "only",
            "n_chars": np.arange(50, dtype=np.int64) % 7 + 3,
        }
    )
    out = wasserstein_drift(ray.data.from_pandas(df)).to_pandas()
    assert len(out) == 1
    assert out["w1"].iloc[0] == 0.0


def test_wasserstein_drift_degenerate_grid_empty(ray_session):
    # a single distinct value has no width: documented empty result
    from datafiller_ray.pipelines.corpus import wasserstein_drift

    df = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": "x",
            "lang": "en",
            "source": ["a", "a", "b", "b"],
            "n_chars": np.full(4, 9, dtype=np.int64),
        }
    )
    out = wasserstein_drift(ray.data.from_pandas(df)).to_pandas()
    assert len(out) == 0


def test_lang_source_contingency_literal(ray_session):
    from datafiller_ray.pipelines.corpus import lang_source_contingency

    df = pd.DataFrame(
        {
            "doc_id": np.arange(12, dtype=np.int64),
            "text": "x",
            "n_chars": 1,
            "source": ["a"] * 6 + ["b"] * 6,
            # a is all-en; b is mixed -> en over-represented in a
            "lang": ["en"] * 6 + ["en", "fr", "fr", "fr", "de", "de"],
        }
    )
    out = (
        lang_source_contingency(ray.data.from_pandas(df).repartition(5))
        .to_pandas()
        .set_index(["source", "lang"])
        .sort_index()
    )
    # full grid including zero cells: 2 sources x 3 langs
    assert len(out) == 6
    assert out.loc[("a", "fr"), "observed"] == 0
    # margins: row a = 6, col en = 7, n = 12 -> e = 3.5
    assert out.loc[("a", "en"), "expected"] == 3.5
    exp_resid = (6 - 3.5) / np.sqrt(3.5)
    got = out.loc[("a", "en"), "std_resid"]
    assert abs(got - exp_resid) < 1e-6
    # residuals of a column sum to ~0 when weighted by sqrt(e)... spot
    # check the mirror cell instead: b/en is under-represented
    assert out.loc[("b", "en"), "std_resid"] < 0
    # observed margin conservation
    assert int(out["observed"].sum()) == 12


class _OutOfMemoryDataset:
    """Stands in for a Dataset whose collect exhausts the object store."""

    def map_batches(self, fn, **kw):
        return self

    def materialize(self):
        return self

    def count(self):
        from ray.exceptions import ObjectStoreFullError

        raise ObjectStoreFullError("object store full")


def test_broadcast_collects_fall_back_only_when_out_of_memory(caplog):
    import logging

    from datafiller_ray.pipelines.corpus import (
        _broadcast_table,
        _collect_nonsingleton_counts,
    )

    with caplog.at_level(logging.WARNING, logger="datafiller_ray.pipelines.corpus"):
        assert _broadcast_table(_OutOfMemoryDataset(), 10) is None
        assert _collect_nonsingleton_counts(_OutOfMemoryDataset(), 10) is None
    msgs = [r.getMessage() for r in caplog.records]
    assert len(msgs) == 2
    assert all("ObjectStoreFullError" in m and "co-partition" in m for m in msgs)


def test_broadcast_collects_surface_a_failing_map_fn(ray_session):
    """A real failure upstream of the size gate must raise, not silently
    switch the plan to the co-partition path."""
    from datafiller_ray.pipelines.corpus import (
        _broadcast_table,
        _collect_nonsingleton_counts,
    )

    def boom(batch):
        raise RuntimeError("map fn failed on purpose")

    rows = [{"kind": 0, "key": 1, "v1": 2, "v2": 0}]
    tables = ray.data.from_items(rows).map_batches(boom, batch_format="pyarrow")
    with pytest.raises(Exception, match="map fn failed on purpose"):
        _collect_nonsingleton_counts(tables, 10)
    c2 = ray.data.from_items([{"key": 1, "c2": 2}]).map_batches(
        boom, batch_format="pyarrow"
    )
    with pytest.raises(Exception, match="map fn failed on purpose"):
        _broadcast_table(c2, 10)

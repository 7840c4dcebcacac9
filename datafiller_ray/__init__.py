"""datafiller_ray — a Ray-Data-native time-series rollup + gap-fill + retention engine.

A from-scratch engine (NOT a port) with the imputation semantics of
CyrilJl/datafiller (reference at /root/reference), re-expressed as
``ray.data.Dataset`` pipelines:

- input: Parquet tables of pre-tokenized training sequences
  ``(doc_id: string, tokens: list<int32>, n_tok: int32, source: string)``;
- ``map_batches`` over zero-copy Arrow batches for validation, bucketization
  and partial aggregation; one ``groupby(source)`` shuffle over the (small)
  partial-aggregate rows; per-source grid densification + gap-fill kernels
  (LOCF / bounded linear / local cubic spline / mean / ridge-model fill)
  reproducing datafiller's ``interpolate_small_gaps`` / ``FastRidge`` /
  time-feature semantics exactly;
- tier cascade 1m -> 1h -> 1d as exact combines of (count, sum, min, max);
- Gorilla-style delta-of-delta + XOR compression of tier chunks;
- per-partition lineage records and resumable checkpointed runs.

No code is copied from the reference; docstrings cite reference file:line so
semantic parity can be audited.
"""

from datafiller_ray.config import (
    EngineError,
    EngineTypeError,
    EngineValueError,
    FillConfig,
    RetentionConfig,
    TIER_STEPS,
)

__all__ = [
    "EngineError",
    "EngineTypeError",
    "EngineValueError",
    "FillConfig",
    "RetentionConfig",
    "TIER_STEPS",
    "rollup_tiers",
    "rollup_tiers_bucketed",
    "rollup_tiers_auto",
    "rollup_tiers_inferred",
    "rollup_tiers_salted",
    "infer_step",
    "impute_mixed",
    "TimeSeriesFiller",
    "MultivariateFiller",
    "write_tiers",
    "add_mar",
    "add_contiguous_missing",
    "load_titanic",
    "load_pems_bay",
    "synthetic_titanic",
    "synthetic_pems_bay",
]


def __getattr__(name):  # lazy: keep `import datafiller_ray` ray-free
    if name in (
        "rollup_tiers",
        "rollup_tiers_bucketed",
        "rollup_tiers_auto",
        "rollup_tiers_inferred",
        "rollup_tiers_salted",
        "write_tiers",
    ):
        from datafiller_ray.pipelines import rollup

        return getattr(rollup, name)
    if name == "infer_step":
        from datafiller_ray.stages.infer_freq import infer_step

        return infer_step
    if name == "impute_mixed":
        from datafiller_ray.functions.categorical import impute_mixed

        return impute_mixed
    if name in ("TimeSeriesFiller", "MultivariateFiller"):
        from datafiller_ray import frame

        return getattr(frame, name)
    if name in (
        "add_mar",
        "add_contiguous_missing",
        "load_titanic",
        "load_pems_bay",
        "synthetic_titanic",
        "synthetic_pems_bay",
    ):
        from datafiller_ray import datasets

        return getattr(datasets, name)
    raise AttributeError(name)

__version__ = "0.1.0"

"""Plain Ray tasks: the one launcher and retry policy behind the engine's
work that runs outside Ray Data's executor — the Parquet scan, the ``skey``
exchange and the tier sink of ``pipelines/rollup.py``, and the checkpoint
phases of ``pipelines/checkpoint.py``.

The policy is Ray Data's for its map tasks (``ray/data/_internal/
remote_fn.py``): a task whose worker dies is retried without limit; an
exception the task raises is not retried and reaches the caller as its own
type (Ray's ``RayTaskError`` subclasses it).
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import ray

if TYPE_CHECKING:
    from ray.data import Dataset

POLICY = {"max_retries": -1, "scheduling_strategy": "DEFAULT"}


def remote(**options):
    """``ray.remote`` with the engine's task policy plus ``options``."""
    return ray.remote(**POLICY, **options)


@remote()
def _record_task(fn, i: int) -> dict:
    t0 = time.perf_counter()
    record = fn(i)
    return {"id": i, **record, "wall_sec": round(time.perf_counter() - t0, 3)}


def map_tasks(fn, ids) -> list:
    """Run ``fn(i)`` once per id (a bucket, or an update's work item) as one
    plain Ray task and return its records in the order of ``ids``, each a
    dict with ``id`` and the task's ``wall_sec`` added. ``fn`` is put in the
    object store once.

    The task functions are idempotent (stage, then rename over the bucket;
    or write one named file), so a retried attempt is safe. An exception
    raised by ``fn`` reaches the caller once every task has settled, so no
    task still writes after this returns or raises. The collect is one
    small record per id, so it is bounded by the id count."""
    if not ids:
        return []
    fn_ref = ray.put(fn)
    refs = [_record_task.remote(fn_ref, int(i)) for i in ids]
    ray.wait(refs, num_returns=len(refs))
    return ray.get(refs)


def block_pairs(ds: "Dataset"):
    """Yield a Dataset's blocks as ``(ref, metadata)`` pairs. A lazy
    Dataset streams them as its executor produces them; a materialized one
    gives its computed blocks without starting an executor."""
    from ray.data.dataset import MaterializedDataset

    if isinstance(ds, MaterializedDataset):
        ds = ds.materialize()  # a computed snapshot: iterating it is a list
    for bundle in ds.iter_internal_ref_bundles():
        yield from bundle.blocks

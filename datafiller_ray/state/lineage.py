"""Per-partition lineage records + manifest-commit checkpointing.

Write-audit-publish (SURVEY.md §4 "Checkpoint/resume"): each unit of work
writes to a temp directory, is audited (row count + order-independent
checksum), atomically renamed into place, and only then recorded in the
manifest. On resume, manifest entries are trusted and their partitions
skipped. The reference has no equivalent (single-process, RAM-bound); this
is the engine-side design the north rule requires.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from datafiller_ray.functions.hashing import splitmix64

MANIFEST_NAME = "manifest.jsonl"


@dataclass
class LineageRecord:
    kind: str  # "partials" | "bucket"
    partition_id: int  # -1 for the partials phase
    row_count: int
    checksum: str  # hex, order-independent
    output_path: str
    input_fragments: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def manifest_path(out_dir: str) -> str:
    return os.path.join(out_dir, MANIFEST_NAME)


def read_manifest(out_dir: str) -> list[LineageRecord]:
    path = manifest_path(out_dir)
    if not os.path.exists(path):
        return []
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(LineageRecord(**json.loads(line)))
    return records


def append_record(out_dir: str, record: LineageRecord) -> None:
    """Atomic-enough append: a single O_APPEND write of one line + fsync."""
    os.makedirs(out_dir, exist_ok=True)
    line = json.dumps(asdict(record), sort_keys=True) + "\n"
    fd = os.open(manifest_path(out_dir), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode())
        os.fsync(fd)
    finally:
        os.close(fd)


def completed(out_dir: str, kind: str) -> set[int]:
    return {r.partition_id for r in read_manifest(out_dir) if r.kind == kind}


def merge_checksums(parts: "list[str]") -> str:
    """Combine per-chunk ``rows_checksum`` values: the checksum is a sum of
    per-row mixes mod 2^64, so chunked computation merges exactly."""
    total = np.uint64(0)
    with np.errstate(over="ignore"):
        for h in parts:
            total += np.uint64(int(h, 16))
    return f"{int(total):016x}"


def rows_checksum(columns: dict[str, np.ndarray]) -> str:
    """Order-independent 64-bit checksum of a row set: per-row mix of the
    named columns, summed mod 2^64 (so block/order layout cannot change it)."""
    row_mix = None
    with np.errstate(over="ignore"):
        for i, (name, col) in enumerate(sorted(columns.items())):
            arr = np.asarray(col)
            if arr.dtype.kind == "f":
                bits = arr.astype(np.float64).view(np.uint64)
            elif arr.dtype.kind in "iub":
                bits = arr.astype(np.int64).view(np.uint64)
            else:  # strings: hash each distinct value once, then take
                import pandas as pd

                from datafiller_ray.functions.hashing import string_hash64

                codes, uniques = pd.factorize(arr)
                bits = string_hash64(np.asarray(uniques, dtype="U"))[codes]
                na = codes < 0  # None and NaN keep their own str() hashes
                if na.any():
                    bits[na] = string_hash64(np.asarray(arr[na], dtype="U"))
            mixed = splitmix64(bits ^ np.uint64(0x9E37_79B9 * (i + 1)))
            row_mix = mixed if row_mix is None else row_mix ^ mixed
        if row_mix is None:
            return f"{0:016x}"
        per_row = splitmix64(row_mix)  # mix columns per row, then sum rows
    return f"{int(np.sum(per_row, dtype=np.uint64)):016x}"

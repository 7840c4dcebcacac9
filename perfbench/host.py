"""Host-side measurements: the host's speed, process memory, on-disk sizes,
shuffle-dir leaks and the shutdown of every process a run started. Linux
``/proc`` only."""

from __future__ import annotations

import glob
import math
import os
import shutil
import signal
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

SHUFFLE_PREFIX = "datafiller_ray_shuffle_"


#: seconds each speed probe takes on the reference host (4 shared vCPUs of
#: a Linux VM); they only fix the scale of the host factor. A pure
#: interpreter loop was tried as a fifth probe and widened the spread of
#: every set of runs it was tried on, so it is not one.
PROBE_REF_S = {"blas": 0.13, "arrow": 0.17, "ray_rpc": 0.14, "raydata": 0.2}
PROBE_PARTS, PROBE_ROWS = 8, 32_768


def _probe_agg(batch: pa.Table) -> pa.Table:
    return batch.group_by("k").aggregate([("v", "sum"), ("v", "max")])


class SpeedProbe:
    """Fixed substrate work that no engine code runs: a float64 matmul, an
    Arrow group-by and sort, Ray no-op task round trips and a small Ray Data
    read -> map_batches -> write_parquet pipeline. On a shared host these
    slow down with the jobs (other tenants, SMT siblings, vCPU wake-ups), so
    dividing a job's time by the host factor measured around it removes
    most of the host's drift. ``work_dir`` holds the pipeline's fixed input
    and its output."""

    def __init__(self, work_dir: str):
        import pyarrow.parquet as pq
        import ray

        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((300, 300))
        self._t = pa.table({"k": rng.integers(0, 1000, 300_000),
                            "v": rng.standard_normal(300_000)})
        self._noop = ray.remote(num_cpus=1)(lambda i: i)
        self._ray = ray
        self._in = os.path.join(work_dir, "probe-in")
        self._out = os.path.join(work_dir, "probe-out")
        os.makedirs(self._in)
        for i in range(PROBE_PARTS):
            pq.write_table(self._t.slice(i * PROBE_ROWS, PROBE_ROWS),
                           os.path.join(self._in, f"part-{i}.parquet"))

    def _blas(self) -> None:
        for _ in range(20):
            self._m @ self._m

    def _arrow(self) -> None:
        for _ in range(3):
            self._t.group_by("k").aggregate([("v", "sum")])
            pc.sort_indices(self._t["v"])

    def _ray_rpc(self) -> None:
        for i in range(60):
            self._ray.get(self._noop.remote(i))

    def _raydata(self) -> None:
        import ray.data

        ray.data.read_parquet(self._in).map_batches(
            _probe_agg, batch_format="pyarrow").write_parquet(self._out)
        shutil.rmtree(self._out)

    def sample(self) -> dict[str, float]:
        """Seconds each probe took now."""
        out = {}
        for name in PROBE_REF_S:
            t0 = time.perf_counter()
            getattr(self, "_" + name)()
            out[name] = time.perf_counter() - t0
        return out


def host_factor(before: dict[str, float], after: dict[str, float]) -> float:
    """How much slower than the reference host the host ran between two
    samples: the geometric mean over the probes of their mean time divided
    by the reference time."""
    logs = [math.log((before[k] + after[k]) / 2 / ref) for k, ref in PROBE_REF_S.items()]
    return math.exp(sum(logs) / len(logs))


def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after the last ')'
        out[int(d)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for p, pp in _ppid_map().items():
        children.setdefault(pp, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def cpu_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of the machine so far, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def peak_rss_mb() -> float:
    """Summed peak resident memory (VmHWM) of this driver and its Ray
    worker processes (command lines starting ``ray::``)."""
    me = os.getpid()
    pids = [me] + [p for p in descendants(me) if _cmdline(p).startswith("ray::")]
    return sum(_vm_hwm_kb(p) for p in pids) / 1024.0


def tree_bytes(path: str) -> tuple[int, int]:
    """(bytes, regular files) under ``path``."""
    total = files = 0
    for root, _dirs, names in os.walk(path):
        for n in names:
            p = os.path.join(root, n)
            if os.path.isfile(p) and not os.path.islink(p):
                total += os.path.getsize(p)
                files += 1
    return total, files


def shuffle_dirs(tmp_dir: str) -> set[str]:
    return set(glob.glob(os.path.join(tmp_dir, SHUFFLE_PREFIX + "*")))


def reap_shuffle_dirs(tmp_dir: str, before: set[str]) -> tuple[int, int]:
    """Count and delete the shuffle dirs created since ``before``; returns
    (dirs, bytes) so the leak is measured, not hidden."""
    new = sorted(shuffle_dirs(tmp_dir) - before)
    size = sum(tree_bytes(d)[0] for d in new)
    for d in new:
        shutil.rmtree(d, ignore_errors=True)
    return len(new), size


def stop_processes(pids: list[int], timeout_s: float = 20.0) -> list[int]:
    """Wait for ``pids`` to exit; SIGKILL what outlives ``timeout_s`` and wait
    again. Returns the pids that were still alive at the deadline."""
    me = os.getpid()

    def alive() -> list[int]:
        # zombies of this process are reaped; other zombies count as gone
        out = []
        for p in pids:
            try:
                with open(f"/proc/{p}/stat") as f:
                    state = f.read().rsplit(")", 1)[1].split()[0]
            except OSError:
                continue
            if state == "Z":
                try:
                    os.waitpid(p, os.WNOHANG)
                except ChildProcessError:
                    pass
                continue
            out.append(p)
        return [p for p in out if p != me]

    deadline = time.monotonic() + timeout_s
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    stuck = alive()
    for p in stuck:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 5.0
    while alive() and time.monotonic() < deadline:
        time.sleep(0.05)
    return stuck

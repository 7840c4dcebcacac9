"""Benchmark of the engine's rollup, Gorilla-blob and incremental-ingest paths.

Run from the repository root:

    python3 perfbench/run.py --workload rollup_tokens --seed 1 --seconds 25 --trace 0

Set-up starts Ray once with ``num_cpus`` equal to the usable core count,
generates the workload's inputs from the seed (and, for ``ingest_updates``,
checkpoints the base) several times, and reports the median as ``setup_s``.
Jobs then repeat until their timed work reaches ``--seconds``; the set-up
reps have already started Ray's workers and warmed the read path. Every
job's output is checked against an oracle outside the timed span; a
mismatch counts as a failed job. A speed probe runs between set-up reps and
between jobs, and every end-to-end time is divided by the host factor
measured around it (see ``host.SpeedProbe``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced jobs with traced ones, probes the layers a workload's job does not
use, prints the per-layer metrics and writes spans, counts and a per-layer
self-time table to ``.perfbench/traces/``. The last stdout line is one JSON
object; the exit code is 1 if any job failed its check, 2 if the engine
cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOAD_NAMES = ("rollup_tokens", "ingest_updates")
#: runnable by name, but left out of BENCHMARK.json: with it, the set's
#: runs no longer fit their time limit at a run length that keeps them steady
EXTRA_WORKLOADS = ("model_blobs",)
SETUP_REPS = 3
OBJECT_STORE_BYTES = 768 * 1024**2
#: Ray's plasma socket path must stay under the 107-byte AF_UNIX limit;
#: its session dir name and socket file add about 62 bytes to the root
RAY_ROOT_MAX_LEN = 44

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "seq_per_s": "seq/s",
    "update_s": "s",
    "update_tail_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes_per_seq": "B/seq",
    "ok_ratio": "share",
}

PER_LAYER = {
    "validate.task_s": "s",
    "validate.kernel_s": "s",
    "validate.rows_in": "count",
    "validate.rows_out": "count",
    "validate.reduction": "ratio",
    "exchange.map_s": "s",
    "exchange.reduce_s": "s",
    "exchange.scratch_bytes": "B",
    "exchange.files": "count",
    "exchange.bucket_skew": "ratio",
    "exchange.leaked_dirs": "count",
    "exchange.leaked_bytes": "B",
    "fill.kernel_s": "s",
    "fill.grid_cells": "count",
    "fill.gap_cells": "count",
    "fill.filled_ratio": "share",
    "compress.encode_s": "s",
    "compress.decode_s": "s",
    "compress.points": "count",
    "compress.ratio": "ratio",
    "sink.write_s": "s",
    "sink.bytes": "B",
    "sink.files": "count",
    "checkpoint.base_s": "s",
    "checkpoint.update_s": "s",
    "checkpoint.touched_buckets": "count",
    "checkpoint.touched_ratio": "share",
    "checkpoint.compact_s": "s",
    "checkpoint.manifest_records": "count",
    "retention.enforce_s": "s",
    "retention.files_rewritten": "count",
    "retention.files_deleted": "count",
    "retention.rows_dropped": "count",
    "pipeline.orchestration_s": "s",
    "pipeline.traced_job_s": "s",
    "trace.overhead_s": "s",
    "raydata.wall_s": "s",
    "raydata.cpu_s": "s",
    "raydata.rows": "count",
    "raydata.bytes": "B",
    "host.probe_gflops": "GFLOP/s",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """Nearest-rank percentile with at least two samples above it (never
    below the median): the highest one the sample count supports."""
    xs = sorted(samples)
    q = max(0.5, 1.0 - 2.0 / len(xs))
    return xs[max(0, math.ceil(q * len(xs)) - 1)], q


def usable_cpus() -> int:
    """What ``nproc`` prints: it honours OMP_NUM_THREADS and the affinity mask."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


class Session:
    """Ray started once for the process, and everything it leaves behind."""

    def __init__(self, bench_dir: str, sys_tmp: str):
        import ray
        from ray.data import DataContext

        root = os.path.join(bench_dir, "ray")
        if len(root) > RAY_ROOT_MAX_LEN:  # checkout path too deep for sockets
            root = os.path.join(sys_tmp, "ray")
        self.ray_root = root
        self.cpus = usable_cpus()
        t0 = time.perf_counter()
        ray.init(
            address="local", num_cpus=self.cpus, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False, _temp_dir=root,
            object_store_memory=OBJECT_STORE_BYTES,
        )
        self.init_s = time.perf_counter() - t0
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def close(self) -> None:
        import ray

        from perfbench import host

        pids = host.descendants(os.getpid())
        ray.shutdown()
        stuck = host.stop_processes(pids)
        if stuck:
            print(f"perfbench: killed {len(stuck)} processes that outlived shutdown",
                  file=sys.stderr)
        shutil.rmtree(self.session_dir, ignore_errors=True)
        latest = os.path.join(self.ray_root, "session_latest")
        if os.path.islink(latest) and not os.path.exists(latest):
            os.unlink(latest)
        try:
            os.rmdir(self.ray_root)
        except OSError:
            pass


def measure(args, session: Session, run_dir: str, tmp_dir: str, bench_dir: str) -> int:
    from perfbench import host
    from perfbench import workloads as W
    from perfbench.trace import Tracer

    wl = W.WORKLOADS[args.workload]
    ingest = wl.name == "ingest_updates"

    probe = host.SpeedProbe(run_dir)
    probe.sample()  # starts the Ray worker the probe's round trips use
    samples = [probe.sample()]
    before = samples[0]
    init_factor = host.host_factor(before, before)
    setup_reps, setup_factors, base_reps = [], [], []
    for k in range(SETUP_REPS):
        d = tempfile.mkdtemp(prefix="inputs-", dir=run_dir)
        t0 = time.perf_counter()
        inputs = W.make_inputs(wl.name, args.seed, d)
        W.warm_read(inputs)
        if ingest:
            t1 = time.perf_counter()
            W.build_base(inputs, d)
            base_reps.append(time.perf_counter() - t1)
        setup_reps.append(time.perf_counter() - t0)
        after = probe.sample()
        samples.append(after)
        setup_factors.append(host.host_factor(before, after))
        before = after
        if k < SETUP_REPS - 1:
            shutil.rmtree(d)
    setup_s = session.init_s / init_factor + statistics.median(
        t / f for t, f in zip(setup_reps, setup_factors))

    r = W.Runner(wl, inputs, run_dir, tmp_dir)
    problems: list[str] = []
    rss: list[float] = []
    attempted = 0
    ticks = [0, 0]  # (stolen, total) during jobs: how noisy the host was

    def checked(fn):
        nonlocal attempted
        out = r.out_dir("out")
        gc.collect()  # the last job's garbage is not collected inside this one
        t0 = host.cpu_ticks()
        res = fn(out)
        t1 = host.cpu_ticks()
        ticks[0] += t1[0] - t0[0]
        ticks[1] += t1[1] - t0[1]
        attempted += 1
        problem = r.check(out)
        if problem:
            problems.append(problem)
        rss.append(host.peak_rss_mb())
        shutil.rmtree(out, ignore_errors=True)
        return res

    files = [p for _k, p, _kw in inputs.batches if p] if ingest \
        else W.input_files(inputs.input_dir)
    jobs, traced, raydata = [], [], []
    tracer = Tracer()
    timed = 0.0
    while not jobs or timed < args.seconds:
        jobs.append(checked(r.job))
        timed += jobs[-1]["job_s"]
        if not args.trace:
            after = probe.sample()
            samples.append(after)
            jobs[-1]["factor"] = host.host_factor(before, after)
            before = after
            continue
        if not ingest:
            raydata.append(W.raydata_stats(r.last_ds))
            m, rows = checked(lambda out: r.decomposed(tracer, files, out, "job"))
        else:
            m = checked(lambda out: r.job(out, tracer))["layers"]
        m["trace.overhead_s"] = m["pipeline.traced_job_s"] - jobs[-1]["job_s"]
        traced.append(m)
        timed += m["pipeline.traced_job_s"]

    failed = len(problems)
    context = {
        "workload": wl.name, "seed": args.seed, "cpus": session.cpus,
        "rows": W.N_ROWS, "sources": W.N_SOURCES, "seq_per_job": inputs.n_seq,
        "jobs": len(jobs), "setup_reps_s": setup_reps, "ray_init_s": session.init_s,
        "job_wall_s": [j["job_s"] for j in jobs],
        "steal_share": ticks[0] / max(1, ticks[1]),
    }

    if not args.trace:
        # every time is divided by the host factor measured around it
        batch = [b / j["factor"] for j in jobs for b in j["batch_s"]]
        tail_s, tail_q = tail(batch)
        job_s = statistics.median(j["job_s"] / j["factor"] for j in jobs)
        context.update({
            "batches": len(batch), "update_tail_q": round(tail_q, 4),
            "probe_samples_s": [{k: round(v, 5) for k, v in p.items()} for p in samples],
            "setup_factors": [init_factor, *setup_factors],
            "job_factors": [j["factor"] for j in jobs],
        })
        values = {
            "setup_s": setup_s,
            "job_s": job_s,
            "seq_per_s": inputs.n_seq / job_s,
            "update_s": statistics.median(batch),
            "update_tail_s": tail_s,
            "peak_rss_mb": max(rss),
            "output_bytes_per_seq": statistics.median(j["bytes"] for j in jobs)
            / inputs.expected.num_rows,
            "ok_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        from bench import substrate_probe

        values = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
        values["validate.kernel_s"] = r.validate_kernel_s(tracer, files)
        if ingest:
            # the layers below the checkpoint runner, over the update rows
            out = r.out_dir("probe")
            probe, rows = r.decomposed(tracer, files, out, "probe")
            shutil.rmtree(out, ignore_errors=True)
            for k, v in probe.items():
                values.setdefault(k, v)
            raydata.append(W.raydata_stats(r.last_ds))
            values["checkpoint.base_s"] = statistics.median(base_reps)
        else:
            values.update(r.checkpoint_probe(tracer))
        if wl.emit == "rows":
            values.update(r.compress_probe(tracer, rows))
        ops = [op for stats in raydata for op in stats]
        for key in ("wall_s", "cpu_s", "rows", "bytes"):
            values[f"raydata.{key}"] = sum(op[key] for op in ops) / len(raydata)
        values["host.probe_gflops"] = substrate_probe()
        values["exchange.leaked_dirs"] = statistics.median(d for d, _b in r.leaks)
        values["exchange.leaked_bytes"] = statistics.median(b for _d, b in r.leaks)
        units = PER_LAYER
        missing = sorted(set(PER_LAYER) - set(values))
        if missing:
            raise RuntimeError(f"traced run did not measure {missing}")
        report = {"context": context, "metrics": values,
                  "raydata_operators": raydata, **tracer.report()}
        trace_dir = os.path.join(bench_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{wl.name}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump(report, f, indent=1, default=str)
        context["trace_file"] = os.path.relpath(path)
        for tid, table in report["self_time_s"].items():
            print(f"self time, trace {tid}: "
                  + ", ".join(f"{k}={v:.3f}s" for k, v in table.items()), file=sys.stderr)

    for p in problems:
        print(f"perfbench: oracle mismatch: {p}", file=sys.stderr)
    print(json.dumps({"perfbench": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + EXTRA_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    sys.path.insert(0, root)
    try:
        import datafiller_ray  # noqa: F401
        import perfbench.workloads  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import the engine from {root}: {e}", file=sys.stderr)
        return 2

    bench_dir = os.path.join(root, ".perfbench")
    os.makedirs(bench_dir, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=bench_dir)
    tmp_dir = os.path.join(run_dir, "tmp")
    os.makedirs(tmp_dir)
    sys_tmp = tempfile.gettempdir()
    # the engine's default shuffle scratch (tempfile.mkdtemp) and the Ray
    # workers' temp files land in this run's directory
    os.environ["TMPDIR"] = tmp_dir
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p
    )
    session = None
    try:
        session = Session(bench_dir, sys_tmp)
        return measure(args, session, run_dir, tmp_dir, bench_dir)
    finally:
        if session is not None:
            session.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(bench_dir)  # left only when a traced run wrote a report
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

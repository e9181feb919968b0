"""The repository benchmark: one command, three workloads, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 12 --trace 0

``--seed`` drives the traffic (user mix, shuffles, arrival stream); the
data is the ``beijing-small`` preset with its own seed, which
``--data-seed`` can override.

``--trace 0`` sets up twice (``setup_s`` is the median), measures for
``--seconds`` with tracing off and prints the end-to-end metrics.
``--trace 1`` measures once untraced and once traced (program tracer and
profilers on, benchmark-side wrappers installed) and prints the
per-layer metrics, including the tracing overhead per end-to-end metric.
Every answer is checked against a float64 oracle; the last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}`` and
the exit code is non-zero when a check fails.  ``perfbench/README.md``
describes the workloads and what each metric slot measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

#: BLAS/OpenMP pools pinned to one thread: the benchmark's own worker
#: threads are the only parallelism, so runs compare like with like.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

WORKLOADS = ("serve", "bulk", "ingest")

#: (name, unit) of every end-to-end metric, reported on every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("quality", "ratio"),
)

#: (name, unit) of every per-layer metric; layers a workload does not
#: call report zero.
PER_LAYER = (
    ("data.generate_s", "s"),
    ("ebsn.split_bundle_s", "s"),
    ("core.trainer.graph_draw_s", "s"),
    ("core.trainer.edge_draw_s", "s"),
    ("core.trainer.adaptive_refresh_s", "s"),
    ("core.trainer.negative_sampling_s", "s"),
    ("core.trainer.adjacency_reject_s", "s"),
    ("core.trainer.sgd_s", "s"),
    ("core.trainer.reject_cap_hits", "count"),
    ("core.trainer.adaptive_refreshes", "count"),
    ("core.parallel.worker_busy_share", "ratio"),
    ("core.parallel.steps_imbalance", "ratio"),
    ("core.store.freeze_s", "s"),
    ("core.store.open_s", "s"),
    ("core.fold_in.fold_s", "s"),
    ("core.fold_in.events", "count"),
    ("online.transform.build_s", "s"),
    ("online.transform.pairs", "count"),
    ("online.pruning.build_s", "s"),
    ("online.ta.build_s", "s"),
    ("online.ta.extend_s", "s"),
    ("online.ta.query_s", "s"),
    ("online.ta.fraction_examined", "ratio"),
    ("online.ta.sorted_accesses", "count"),
    ("online.bruteforce.query_batch_s", "s"),
    ("online.bruteforce.pairs_scored", "count"),
    ("serving.lifecycle.queue_wait_p99_s", "s"),
    ("serving.lifecycle.sheds.queue_full", "count"),
    ("serving.lifecycle.sheds.deadline_expired", "count"),
    ("serving.lifecycle.rung_share.full", "ratio"),
    ("serving.lifecycle.rung_share.pruned", "ratio"),
    ("serving.lifecycle.rung_share.truncated", "ratio"),
    ("serving.lifecycle.rung_share.stale_cache", "ratio"),
    ("serving.engine.retrieval_s.full", "s"),
    ("serving.engine.retrieval_s.pruned", "s"),
    ("serving.engine.retrieval_s.truncated", "s"),
    ("serving.engine.retrieval_s.stale_cache", "s"),
    ("serving.engine.request_self_s", "s"),
    ("serving.engine.cache_hit_share", "ratio"),
    ("serving.engine.refresh_s", "s"),
    ("serving.sharded.merge_s", "s"),
    ("serving.sharded.fanout_wait_s", "s"),
    ("serving.streaming.swap_s", "s"),
    ("serving.streaming.batches", "count"),
    ("serving.streaming.batch_events_mean", "count"),
    ("serving.streaming.retries", "count"),
    ("serving.streaming.dropped", "count"),
    ("serving.telemetry.records_resident", "count"),
    ("obs.scrape_s", "s"),
    ("obs.scrape_bytes", "bytes"),
) + tuple(
    (f"obs.tracing_overhead.{name}", unit) for name, unit in END_TO_END
)

#: Layer spans whose mean self seconds per call become ``<metric>``.
SELF_TIME_SPANS = {
    "data.generate_s": "data.generate",
    "ebsn.split_bundle_s": "ebsn.split_bundle",
    "core.store.freeze_s": "core.store.freeze",
    "core.store.open_s": "core.store.open",
    "core.fold_in.fold_s": "core.fold_in.fold",
    "online.transform.build_s": "online.transform.build",
    "online.pruning.build_s": "online.pruning.build",
    "online.ta.build_s": "online.ta.build",
    "online.ta.extend_s": "online.ta.extend",
    "online.ta.query_s": "online.ta.query",
    "online.bruteforce.query_batch_s": "online.bruteforce.query_batch",
    "serving.engine.request_self_s": "serving.engine.request",
    "serving.sharded.merge_s": "serving.sharded.merge",
    "serving.streaming.swap_s": "serving.streaming.refresh",
}


def host_stamp(args: argparse.Namespace, env_before: dict[str, str | None]) -> dict:
    """Where and how the run happened."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(Path.cwd()),
        "workload": args.workload,
        "seed": args.seed,
        "data_seed": args.data_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env_before": env_before,
        "thread_pinning": dict(PINNED_THREADS),
        "worker_threads": os.cpu_count(),
    }


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside a clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_times() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``, if readable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(f) for f in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def make_workload(name: str, work_dir: Path, data_seed: int | None):
    import workloads

    nproc = os.cpu_count() or 1
    if name == "serve":
        return workloads.ServeWorkload(data_seed)
    if name == "bulk":
        return workloads.BulkWorkload(nproc, work_dir, data_seed)
    return workloads.IngestWorkload(data_seed)


def end_to_end(phase, setup_s: float) -> dict[str, float]:
    import workloads

    values = dict(phase.metrics)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = workloads.peak_rss_mb()
    return {name: float(values[name]) for name, _unit in END_TO_END}


def timed_run(workload, seed: int, seconds: float):
    """Set up :data:`workloads.SETUPS` times, measure once, tracing off."""
    import workloads
    from layers import NULL_CLOCK
    from measure import median

    setups = []
    world = None
    for _ in range(workloads.SETUPS):
        if world is not None:
            workload.close(world)
            world = None
        start = time.perf_counter()
        world = workload.setup(NULL_CLOCK, traced=False)
        setups.append(time.perf_counter() - start)
    try:
        phase = workload.measure(world, seed, seconds, NULL_CLOCK)
    finally:
        workload.close(world)
    return phase, setups, end_to_end(phase, median(setups))


def traced_run(workload, seed: int, seconds: float):
    """One untraced and one traced set-up and phase; per-layer metrics."""
    from layers import NULL_CLOCK, LayerClock, install_program_wrappers

    start = time.perf_counter()
    world = workload.setup(NULL_CLOCK, traced=False)
    setup_plain = time.perf_counter() - start
    try:
        plain = workload.measure(world, seed, seconds, NULL_CLOCK)
    finally:
        workload.close(world)
    plain_e2e = end_to_end(plain, setup_plain)

    clock = LayerClock()
    install_program_wrappers(clock)
    try:
        start = time.perf_counter()
        world = workload.setup(clock, traced=True)
        setup_traced = time.perf_counter() - start
        try:
            traced = workload.measure(world, seed, seconds, clock)
        finally:
            workload.close(world)
    finally:
        clock.restore()
    traced_e2e = end_to_end(traced, setup_traced)

    layers = {name: 0.0 for name, _unit in PER_LAYER}
    for metric, span in SELF_TIME_SPANS.items():
        calls = clock.calls.get(span, 0)
        if calls:
            layers[metric] = clock.self_s[span] / calls
    if clock.calls.get("serving.engine.refresh"):
        layers["serving.engine.refresh_s"] = (
            clock.total_s["serving.engine.refresh"]
            / clock.calls["serving.engine.refresh"]
        )
    layers["online.transform.pairs"] = clock.counts.get("online.transform.pairs", 0.0)
    layers["core.fold_in.events"] = clock.counts.get("core.fold_in.events", 0.0)
    layers["online.bruteforce.pairs_scored"] = clock.counts.get(
        "online.bruteforce.pairs_scored", 0.0
    )
    if clock.counts.get("online.ta.candidates"):
        layers["online.ta.fraction_examined"] = (
            clock.counts["online.ta.examined"] / clock.counts["online.ta.candidates"]
        )
        layers["online.ta.sorted_accesses"] = (
            clock.counts["online.ta.sorted_accesses"] / clock.calls["online.ta.query"]
        )
    layers.update(traced.layers)
    for name, _unit in END_TO_END:
        layers[f"obs.tracing_overhead.{name}"] = traced_e2e[name] - plain_e2e[name]
    return plain, traced, plain_e2e, traced_e2e, layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--data-seed",
        type=int,
        default=None,
        help="seed of the generated dataset (default: the preset's own)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    env_before = {name: os.environ.get(name) for name in PINNED_THREADS}
    os.environ.update(PINNED_THREADS)
    sys.path.insert(0, str(root / "src"))

    # Temporary stores (the bulk memmap store) stay in the checkout.
    work_dir = root / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    (work_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    tempfile.tempdir = str(work_dir / "tmp")
    before = cpu_times()
    try:
        print("host " + json.dumps(host_stamp(args, env_before), sort_keys=True))
        workload = make_workload(args.workload, work_dir, args.data_seed)
        if args.trace:
            plain, phase, plain_e2e, e2e, layers = traced_run(
                workload, args.seed, args.seconds
            )
            problems = plain.problems + phase.problems
            reported = {name: (layers[name], unit) for name, unit in PER_LAYER}
            print("untraced " + json.dumps(plain_e2e, sort_keys=True))
        else:
            phase, setups, e2e = timed_run(workload, args.seed, args.seconds)
            problems = phase.problems
            reported = {name: (e2e[name], unit) for name, unit in END_TO_END}
            print("setup_runs_s " + json.dumps(setups))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    after = cpu_times()
    if before and after and after[1] > before[1]:
        # CPU time the hypervisor gave to other guests during this run.
        phase.notes["host_steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    attempted = len(phase.attempts)
    print(f"attempted {attempted} failed {phase.failed}")
    for name, value in sorted(phase.notes.items()):
        print(f"note {name} = {value}")
    for name, (value, unit) in reported.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

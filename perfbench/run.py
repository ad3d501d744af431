"""Benchmark: host time of whole sparsefuel experiments, and where it goes.

    python3 perfbench/run.py --workload quadrant --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One experiment is what `sparsefuel run` does: harness.run_experiment_result
on the workload's config with the seed as master seed, then
harness.metrics_csv_text.  A run repeats experiments one after another in
this one process until --seconds is used up (at least two, so the metrics
CSVs can be compared) and checks each one's output.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced experiments and prints the per-module metrics of the traced ones (see
tracing.py), plus trace.overhead_ratio, the untraced over the traced
throughput.  The last stdout line is the result JSON; the line before it
holds the run details: the metrics-CSV sha256, the environment stamp and
failed_run_ratio.  The spans of a traced run go to perfbench/out/spans-<workload>.tsv.
`--workload all` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from sparsefuel import harness  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_EXPERIMENTS = 2


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for the "end_to_end" or "per_layer" metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def check_output(wl: workloads.Workload, records, csv_text: str) -> list[str]:
    """Problems with one experiment's output; empty when it is correct."""
    n, rounds = wl.cfg.environment.n, wl.cfg.protocol.rounds
    problems = []
    if len(records) != rounds:
        problems.append(f"{len(records)} records for {rounds} rounds")
    running = 0
    for r in records:
        running += r.bytes_round
        if r.bytes_total != running:
            problems.append(f"round {r.round_index}: bytes_total {r.bytes_total} != sum {running}")
        split = r.bytes_broadcast + r.bytes_collect + r.bytes_disseminate
        if r.bytes_round != split:
            problems.append(f"round {r.round_index}: bytes_round {r.bytes_round} != split {split}")
        members = sorted(u for fed in r.partition.federations for u in fed.members)
        if members != list(range(n)):
            problems.append(f"round {r.round_index}: partition does not cover {n} uids disjointly")
        if not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in r.region_accuracy):
            problems.append(f"round {r.round_index}: accuracy outside [0, 1]")
    lines = csv_text.count("\n")
    if lines != rounds + 1:
        problems.append(f"metrics CSV has {lines} lines, expected {rounds + 1}")
    if records[-1].federation_count < wl.min_final_federations:
        problems.append(
            f"ended with {records[-1].federation_count} federation(s), "
            f"expected at least {wl.min_final_federations}"
        )
    return problems


def experiment(wl: workloads.Workload, seed: int, tracer: tracing.Tracer | None) -> dict:
    """Run and check one experiment; `problems` is non-empty if it failed."""
    gc.collect()  # start each experiment from a heap without the last one's garbage
    started = time.perf_counter()
    try:
        with contextlib.nullcontext() if tracer is None else tracing.installed(tracer):
            result = harness.run_experiment_result(wl.cfg, wl.arm, seed)
            csv_text = harness.metrics_csv_text(result.records)
    except Exception:
        traceback.print_exc()
        return {"traced": tracer is not None, "problems": ["raised"], "seconds": time.perf_counter() - started}
    seconds = time.perf_counter() - started
    records = result.records
    round_s = sum(r.wall_ms for r in records) / 1e3
    last = records[-1]
    return {
        "traced": tracer is not None,
        "problems": check_output(wl, records, csv_text),
        "seconds": seconds,
        "digest": hashlib.sha256(csv_text.encode()).hexdigest(),
        "setup_s": seconds - round_s,
        "device_rounds_per_s": wl.cfg.environment.n * len(records) / round_s,
        "wall_ms": [r.wall_ms for r in records],
        "final_accuracy": statistics.fmean(last.region_accuracy),
        "wire_kb_per_round": last.bytes_total / len(records) / 1024,
        "layers": None if tracer is None else tracing.summarize(tracer.spans, records),
    }


def blas_stamp() -> tuple[str, int | str]:
    """The BLAS numpy was built with and how many threads it runs."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return name, fn()
    return name, "unknown"


def git_commit() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    blas, threads = blas_stamp()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": threads,
        "commit": git_commit(),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl, pool_sha = workloads.load(name, seed, OUT_DIR)
    deadline = time.perf_counter() + seconds
    runs: list[dict] = []
    traced_spans: list[list[list]] = []
    while True:
        tracer = tracing.Tracer() if trace and len(runs) % 2 == 1 else None
        runs.append(experiment(wl, seed, tracer))
        if tracer is not None:
            traced_spans.append(tracer.spans)
        typical = statistics.median(r["seconds"] for r in runs)
        if len(runs) >= MIN_EXPERIMENTS and time.perf_counter() + typical > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every experiment of one workload and seed must write the same CSV
    digests = [r["digest"] for r in runs if "digest" in r]
    reference = digests[0] if digests else None
    for r in runs:
        if "digest" in r and r["digest"] != reference:
            r["problems"].append(f"metrics CSV sha256 {r['digest']} != {reference}")
        for problem in r["problems"]:
            print(f"{name} seed {seed}: {problem}", file=sys.stderr)
    good = [r for r in runs if not r["problems"]]
    failed = len(runs) - len(good)
    # when every experiment failed its check, time the ones that completed
    timed = good or [r for r in runs if "digest" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (trace and not traced):
        print(f"{name} seed {seed}: no experiment completed", file=sys.stderr)
        return 1

    if trace:
        metrics = tracing.median_metrics([r["layers"] for r in traced])
        metrics["trace.overhead_ratio"] = statistics.median(
            r["device_rounds_per_s"] for r in plain
        ) / statistics.median(r["device_rounds_per_s"] for r in traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracing.write_spans(os.path.join(OUT_DIR, f"spans-{name}.tsv"), traced_spans)
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "device_rounds_per_s": statistics.median(r["device_rounds_per_s"] for r in plain),
            "round_ms_p50": statistics.median(ms for r in plain for ms in r["wall_ms"]),
            "peak_rss_mb": peak_rss_mb,
            "final_accuracy": plain[0]["final_accuracy"],
            "wire_kb_per_round": plain[0]["wire_kb_per_round"],
        }
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} not both measured and declared")

    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "csv_sha256": reference,
        "idx_pool_sha256": pool_sha,
        "experiments": len(runs),
        "rounds_timed": sum(len(r["wall_ms"]) for r in plain),
        "experiment_seconds": [(r["traced"], r["seconds"]) for r in runs],
        "failed_run_ratio": failed / len(runs),
        "stamp": stamp(),
    }
    for key, value in metrics.items():
        print(f"{name:>10} {key:<38} {value:>14.6g} {units[key]}", file=sys.stderr)
    print(f"{name:>10} {'failed_run_ratio':<38} {failed / len(runs):>14.6g} ratio", file=sys.stderr)
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in a fresh process so memory is its own."""
    status = 0
    for name in workloads.NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(done.stdout)
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

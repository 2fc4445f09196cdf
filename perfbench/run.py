"""braidops benchmark: one workload, end-to-end metrics or per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload assoc-solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics of untraced runs, timed in
reference seconds (see speed.py) with the raw seconds beside them; ``--trace 1``
runs the workload once untraced and once traced and prints the per-layer
metrics.  Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 20
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def launch(job: dict, deadline: float) -> tuple[tuple[float, float], dict]:
    """Start a fresh interpreter, time it to ready, run ``job``.

    Returns ((raw set-up seconds, reference set-up seconds), reply); the
    reference scale is sampled just before the start (see speed.py).
    """
    # bytecode is cached as for an installed package; the first start writes it
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    scale = speed.scale_now()
    start = time.perf_counter()
    # -S: site-packages processing is outside the repository and only adds noise
    proc = subprocess.Popen([sys.executable, "-S", str(HERE / "worker.py"), "src"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            raise BenchError("worker failed to import braidops.cli from src/")
        out, _ = proc.communicate(json.dumps(job) + "\n",
                                  timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return (setup, setup * scale), json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; below 100/(100-q) samples it is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def fraction_reference_s() -> float:
    """Time of a fixed pure-Python Fraction loop (machine-speed diagnostic only)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 50001):
        acc += Fraction((-1) ** k, k * k + 1)
        if k % 1000 == 0:
            acc = Fraction(acc.numerator % 10**12, acc.denominator % 10**12 + 1)
    return time.perf_counter() - start


def git_commit() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = Path(".git") / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def machine_record(seed: int) -> dict:
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(), "seed": seed,
            "loadavg_start": loadavg, "fraction_loop_s": round(fraction_reference_s(), 4)}


class Run:
    """Outcome of one workload run: correctness tally plus metrics."""

    def __init__(self, plan: workloads.Plan):
        self.plan = plan
        self.attempted = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float | None, str]] = {}
        self.notes: list[str] = []

    def verify(self, record: dict) -> None:
        self.attempted += len(record["codes"])
        self.problems += self.plan.failures(record)

    @property
    def failed(self) -> int:
        return len(self.problems)


def merge_records(parts: list[dict]) -> dict:
    """One repetition's record from the records of the interpreters it ran in."""
    merged = {key: sum(p[key] for p in parts) for key in ("wall_s", "raw_wall_s")}
    for key in ("latencies", "raw_latencies", "codes", "digests", "outputs"):
        if key in parts[0]:
            merged[key] = [x for p in parts for x in p[key]]
    return merged


def end_to_end(plan: workloads.Plan, seconds: int, deadline: float) -> Run:
    run = Run(plan)
    # import-only starts before and after the workload sample two machine states
    setups = [launch({}, deadline)[0] for _ in range(SETUP_PROBES // 2)]
    passes, rss, kernel_times = [], [], []
    job = {"requests": plan.job_requests(), "outputs": plan.cold, "ref_clock": True}
    if plan.cold:
        start = time.perf_counter()
        while True:
            parts = []
            for requests in plan.interpreters():
                setup, reply = launch(dict(job, requests=requests, passes=1), deadline)
                setups.append(setup)
                parts += reply["passes"]
                rss.append(reply["rss_mb"])
                kernel_times += reply["kernel_times"]
            passes.append(merge_records(parts))
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["raw_wall_s"] > seconds:
                break
    else:
        setup, reply = launch(dict(job, warmup=True, passes=None, seconds=seconds),
                              deadline)
        setups.append(setup)
        passes += reply["passes"]
        rss.append(reply["rss_mb"])
        kernel_times += reply["kernel_times"]
    setups += [launch({}, deadline)[0] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    for record in passes:
        run.verify(record)
    latencies = [s * 1000 for record in passes for s in record["latencies"]]
    raw_latencies = [s * 1000 for record in passes for s in record["raw_latencies"]]
    run.metrics = {
        "setup_s": (statistics.median(ref for _raw, ref in setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "req_p50_ms": (statistics.median(latencies), "ms"),
        "req_p99_ms": (percentile(latencies, 99), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    above = len(latencies) - math.ceil(0.99 * len(latencies))
    unit = "cold repetitions" if plan.cold else "warm passes"
    run.notes += [
        f"{len(setups)} interpreter starts, {len(passes)} {unit}, "
        f"{len(latencies)} requests, {above} of them above req_p99_ms",
        f"times are reference seconds; speed kernel median "
        f"{statistics.median(kernel_times) * 1000:.2f} ms over {len(kernel_times)} samples "
        f"(nominal {speed.NOMINAL_KERNEL_S * 1000:g} ms)",
        f"raw: setup_s {statistics.median(raw for raw, _ref in setups):.5g} s, "
        f"wall_s {statistics.median(r['raw_wall_s'] for r in passes):.5g} s, "
        f"req_p50_ms {statistics.median(raw_latencies):.5g} ms, "
        f"req_p99_ms {percentile(raw_latencies, 99):.5g} ms"]
    return run


def per_layer(plan: workloads.Plan, spans_prefix: Path, deadline: float) -> Run:
    run = Run(plan)
    untraced, traced, summaries = [], [], []
    for k, requests in enumerate(plan.interpreters()):
        job = {"requests": requests, "outputs": plan.cold, "trace": True,
               "spans_path": f"{spans_prefix}.{k}.spans.tsv.gz"}
        if plan.cold:
            _, plain = launch(dict(job, passes=1, trace=False), deadline)
            _, reply = launch(dict(job, passes=0), deadline)
            untraced.append(plain["passes"][0])
        else:
            _, reply = launch(dict(job, warmup=True, passes=1), deadline)
            untraced.append(reply["passes"][0])
        traced.append(reply["traced"])
        summaries.append(reply["summary"])
    untraced, traced = merge_records(untraced), merge_records(traced)
    for record in (untraced, traced):
        run.verify(record)
    summary = tracer.merge(summaries)
    metrics, na = tracer.layer_metrics(summary)
    run.metrics = dict(metrics)
    overhead = traced["wall_s"] - untraced["wall_s"]
    run.metrics["trace.overhead_s"] = (overhead, "s")
    run.notes += [
        f"untraced wall {untraced['wall_s']:.4f} s, traced wall {traced['wall_s']:.4f} s, "
        f"overhead {overhead:.4f} s ({overhead / untraced['wall_s']:+.1%}), "
        f"{summary['spans']} spans written to {spans_prefix}.<interpreter>.spans.tsv.gz",
        "n/a (not exercised by this workload, reported as 0): " + (", ".join(na) or "none"),
        "missing on this commit (reported as null): "
        + (", ".join(sorted(summary["missing"])) or "none"),
        "solve_exact (rows, cols, nullity) per call: " + json.dumps(summary["solver_shapes"]),
    ]
    return run


def report(name: str, run: Run) -> None:
    print(f"== {name}: {run.plan.note}")
    for line in run.notes:
        print(f"   {line}")
    for metric, (value, unit) in run.metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else ("null" if value is None else value)
        print(f"   {metric:<40} {shown} {unit}")
    ratio = run.failed / run.attempted if run.attempted else float("nan")
    print(f"   failed_ratio {run.failed}/{run.attempted} = {ratio:.4g}")
    for problem in run.problems[:20]:
        print(f"   FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("assoc-solve", "chord-dims", "cli-mix", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/braidops/cli.py").is_file():
        print("error: run from the root of a braidops checkout (src/braidops not found)",
              file=sys.stderr)
        return 2
    names = ["assoc-solve", "chord-dims", "cli-mix"] if args.workload == "all" else [args.workload]
    out_dir = Path(".perfbench")
    out_dir.mkdir(exist_ok=True)
    print("machine: " + json.dumps(machine_record(args.seed)))
    runs = {}
    try:
        for name in names:
            deadline = time.perf_counter() + WORKER_TIMEOUT_S
            plan = workloads.Plan(name, args.seed)
            if args.trace:
                runs[name] = per_layer(plan, out_dir / name, deadline)
            else:
                runs[name] = end_to_end(plan, args.seconds, deadline)
            report(name, runs[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(names) > 1
    metrics = {(f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
               for name, run in runs.items() for metric, (value, unit) in run.metrics.items()}
    failed = sum(r.failed for r in runs.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r.attempted for r in runs.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

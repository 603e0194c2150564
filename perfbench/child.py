"""Run one workload in this process and print one JSON result line.

Started by ``run.py``, never imported.  The time from this interpreter's
start until the first timed call is the workload's set-up time, so
everything before ``t_ready`` below is set-up work: importing rislink,
building the first call's argv and plan, and loading the references.

Modes:

- default: a closed loop of calls for ``--seconds``; reports the median
  over calls of realizations (or closed-form points) per second of call
  time at the nominal host speed of ``hostspeed``, and the process's peak
  resident memory at the end of the loop.
- ``--trace``: the workload's first ``trace_calls`` calls, once untraced
  and twice traced; reports per-function calls, self time and counts.
- ``--setup-only``: stop at the first timed call.

Outside ``--trace`` the result also carries ``host_factor``, the nominal
host-speed sample over the median of three taken right after set-up;
``run.py`` scales set-up time by it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import rislink  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, CheckTally, check_repeats  # noqa: E402

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _openblas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_revision() -> str | None:
    """HEAD of the checkout, read without starting git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "openblas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_revision": _git_revision(),
        "rislink": rislink.__version__,
        "seed": seed,
        "workload": workload.name,
        "parameters": workload.parameters(),
    }


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def timed_loop(
    workload, seed: int, seconds: float, out_dir: str, call: dict, reference, tally,
    speed: float,
) -> dict:
    """Calls alternate with host-speed samples: ``speed`` is the one
    before the first call, and one follows each call.  Each call's wall
    time is scaled to the nominal host by the mean of the two samples
    around it; the throughput is the median over calls."""
    calls, durations, speeds = [], [], [speed]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs = workload.execute(call)
        durations.append(time.perf_counter() - t0)
        speeds.append(hostspeed.sample())
        workload.store(call, outputs)
        calls.append(call)
        if time.perf_counter() - start >= seconds:
            break
        call = workload.prepare(seed, len(calls), out_dir)
    peak = _peak_rss_mib()
    workload.check(calls, reference, tally, seed)
    items = workload.items()
    nominal = [
        d * hostspeed.NOMINAL_S / ((a + b) / 2) for d, a, b in zip(durations, speeds, speeds[1:])
    ]
    return {
        "metrics": {
            "items_per_s": {"value": items / statistics.median(nominal), "unit": "1/s"},
            "peak_rss_mib": {"value": peak, "unit": "MiB"},
        },
        "report": [
            f"calls {len(calls)}, {items} items each, "
            f"call time median {statistics.median(durations):.4f} s "
            f"min {min(durations):.4f} s max {max(durations):.4f} s",
            f"wall throughput {items * len(calls) / sum(durations):.6g} 1/s; host-speed "
            f"sample median {statistics.median(speeds):.5f} s (nominal {hostspeed.NOMINAL_S} s), "
            f"min {min(speeds):.5f} s max {max(speeds):.5f} s",
        ],
    }


def _one_pass(workload, seed: int, out_dir: str, tracer=None) -> tuple[list, float]:
    """The first ``trace_calls`` calls; returns them and their busy time."""
    os.makedirs(out_dir, exist_ok=True)
    calls, busy = [], 0.0
    for index in range(workload.trace_calls):
        call = workload.prepare(seed, index, out_dir)
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            outputs = workload.execute(call)
        finally:
            busy += time.perf_counter() - t0
            if tracer:
                tracer.uninstall()
        workload.store(call, outputs)
        calls.append(call)
    return calls, busy


def traced_run(workload, seed: int, out_dir: str, reference, tally) -> dict:
    untraced_calls, untraced = _one_pass(workload, seed, os.path.join(out_dir, "plain"))
    first, second = tracing.Tracer(), tracing.Tracer()
    traced_calls, traced = _one_pass(workload, seed, os.path.join(out_dir, "t1"), first)
    repeat_calls, _ = _one_pass(workload, seed, os.path.join(out_dir, "t2"), second)
    for calls in (untraced_calls, traced_calls, repeat_calls):
        workload.check(calls, reference, tally, seed)
    check_repeats(workload, untraced_calls + traced_calls + repeat_calls, tally)
    tally.record(
        first.counts == second.counts and first.absent == second.absent,
        f"computed counts differ between two traced runs: {first.counts} {second.counts}",
    )

    metrics, report = {}, []
    self_times = first.self_times()
    module_self = {module: 0.0 for module in tracing.MODULES}
    for name, (calls, self_s) in self_times.items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
        module_self[name.split(".")[0]] += self_s
        status = "absent" if name in first.absent else f"calls {calls:>8d} self {self_s:10.6f} s"
        report.append(f"layer {name:<40s} {status}")
    for name in tracing.count_names():
        unit = "bytes" if name.endswith("bytes") else "count"
        metrics[name] = {"value": first.counts[name], "unit": unit}
        status = "absent" if name in first.absent else str(first.counts[name])
        report.append(f"count {name:<50s} {status}")
    for module, self_s in module_self.items():
        metrics[f"{module}.self_s"] = {"value": self_s, "unit": "s"}
        report.append(f"module {module:<12s} self {self_s:10.6f} s  ({self_s / traced:6.1%})")
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    metrics["trace.covered_fraction"] = {
        "value": first.covered_seconds() / traced,
        "unit": "ratio",
    }
    report.append(f"trace: untraced {untraced:.4f} s, traced {traced:.4f} s")
    return {"metrics": metrics, "report": report}


def load_reference(workload, seed: int) -> list[str] | None:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return workload.reference(json.load(fh), seed)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if Path(rislink.__file__).resolve().parent != ROOT / "src" / "rislink":
        print(f"rislink imported from {rislink.__file__}, not this checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_reference(workload, args.seed)
    out_dir = str(ROOT / ".perfbench_out" / str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        first_call = workload.prepare(args.seed, 0, out_dir)
        t_ready = time.monotonic()
        if not args.trace:
            hostspeed.sample()  # warm-up
            speed = statistics.median(hostspeed.sample() for _ in range(3))
        if args.setup_only:
            result = {"t_ready": t_ready, "host_factor": hostspeed.NOMINAL_S / speed}
        else:
            tally = CheckTally()
            if args.trace:
                result = traced_run(workload, args.seed, out_dir, reference, tally)
            else:
                result = timed_loop(
                    workload, args.seed, args.seconds, out_dir, first_call, reference, tally,
                    speed,
                )
                result["host_factor"] = hostspeed.NOMINAL_S / speed
            result.update(
                t_ready=t_ready,
                attempted=tally.attempted,
                failed=tally.failed,
                problems=tally.problems,
                provenance=provenance(workload, args.seed),
            )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""rislink benchmark entry point.

    python3 perfbench/run.py --workload se-hop --seed 1 --seconds 10 --trace 0

Runs one workload (see README.md) in child processes, single-threaded,
and prints human-readable lines followed by one JSON result line:

- ``--trace 0``: end-to-end metrics ``items_per_s``, ``peak_rss_mib`` and
  ``setup_s``.  Set-up time is the median over ``SETUP_PROBES`` fresh
  interpreters plus the measuring one, each timed from spawn until its
  first timed call.  Both times are scaled to a nominal host speed
  measured by ``hostspeed.py`` in the child, since the host's CPU speed
  drifts by up to a factor of two.
- ``--trace 1``: per-layer metrics from a separate traced run.

This process never imports rislink; the package is taken from ``src/``
of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("se-hop", "se-select", "ber-hop", "closed-form")
SETUP_PROBES = 5
BLAS_THREADS = "1"
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """Single-threaded BLAS, no worker override and a fixed string hash,
    for every child."""
    env = dict(os.environ)
    env.pop("RISLINK_WORKERS", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one child to completion; returns its result and spawn time."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="default: the reference seed")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "rislink" / "__init__.py").is_file():
        print(f"error: no rislink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    try:
        if args.trace:
            result, _ = spawn(common + ["--trace"], deadline)
            metrics = result["metrics"]
        else:
            probes = [spawn(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
            result, spawned = spawn(common + ["--seconds", str(args.seconds)], deadline)
            walls, setups = [], []
            for probe, started in probes + [(result, spawned)]:
                walls.append(probe["t_ready"] - started)
                setups.append(walls[-1] * probe["host_factor"])
            metrics = dict(result["metrics"])
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
            result["report"].append("setup_s wall samples " + " ".join(f"{s:.4f}" for s in walls))
            result["report"].append("setup_s nominal samples " + " ".join(f"{s:.4f}" for s in setups))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(ROOT / ".perfbench_out")
        except OSError:
            pass

    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    for line in result["report"]:
        print(line)
    for problem in result["problems"]:
        print("FAILED " + problem)
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_ops_fraction = {failed / attempted if attempted else 1.0!r} "
          f"({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

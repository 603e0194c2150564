"""Regenerate ``reference.json``: the CSVs of the first calls of every
Monte Carlo workload at the recorded default seed, and the ``analyze``
CSV of the closed-form workload (the same for every seed and call).

Run from the root of a checkout whose outputs are the ones to freeze:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, WORKLOADS, SweepWorkload  # noqa: E402

CALLS_PER_WORKLOAD = 8


def main() -> int:
    stored = {"seed": DEFAULT_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as out_dir:
        for workload in WORKLOADS.values():
            texts = []
            calls = CALLS_PER_WORKLOAD if isinstance(workload, SweepWorkload) else 1
            for index in range(calls):
                call = workload.prepare(DEFAULT_SEED, index, out_dir)
                outputs = workload.execute(call)
                if outputs["status"] != 0:
                    print(f"{workload.name} call {index} failed: {outputs['error']}",
                          file=sys.stderr)
                    return 1
                with open(call["output"], encoding="utf-8") as fh:
                    texts.append(fh.read())
            stored["workloads"][workload.name] = texts
    path = Path(__file__).resolve().parent / "reference.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

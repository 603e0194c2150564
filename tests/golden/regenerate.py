"""Rewrite the golden CSVs that ``tests/test_golden.py`` compares against.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --check

The golden files freeze the simulator's output bytes at a fixed seed, so a
refactor that moves any simulated number fails the golden test.  Rerunning
this script changes what counts as correct: review the diff of every
rewritten file and record the reason in CHANGES.md.  With ``--check`` it
rewrites nothing: it reruns every command in memory, names each file and
column whose bytes would change, and exits 1 if any would.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path
from unittest import mock

GOLDEN_DIR = Path(__file__).resolve().parent

# Golden file name -> ``rislink`` arguments, without ``--output``.  Every
# sweep runs at the CLI's default seed.
COMMANDS: dict[str, list[str]] = {
    "se-hop.csv": [
        "se-sweep", "--scheme", "sm,bf,ds,db", "--axis", "E_dBm=0:20:40",
        "--set", "n_slots=2", "--angle-epochs", "3", "--fading-epochs", "3",
    ],
    "se-mismatch.csv": [
        "se-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=10:20:30",
        "--set", "n_slots=2", "--set", "angle_error_std=0.05",
        "--angle-epochs", "3", "--fading-epochs", "2",
    ],
    "outage-hop.csv": [
        "outage-sweep", "--scheme", "sm,bf,ds,db", "--axis", "E_dBm=0:20:40",
        "--set", "n_slots=2", "--angle-epochs", "3", "--fading-epochs", "3",
    ],
    "ber-hop.csv": [
        "ber-sweep", "--scheme", "sm,bf,ds,db", "--axis", "E_dBm=0:15:30",
        "--set", "n_slots=2", "--angle-epochs", "2", "--fading-epochs", "2",
        "--min-bits", "20000",
    ],
    "closed-form-power.csv": ["analyze", "--axis", "E_dBm=0:1:40"],
    "closed-form-kappa.csv": [
        "analyze", "--axis", "kappa_dB=0:2.5:15", "--set", "n_slots=3",
    ],
    # The two sweeps of acceptance criterion 10.
    "criterion10-se.csv": [
        "se-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=0:20:20",
        "--angle-epochs", "2", "--fading-epochs", "2",
    ],
    "criterion10-ber.csv": [
        "ber-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=0:20:20",
        "--angle-epochs", "2", "--fading-epochs", "2", "--min-bits", "2000",
    ],
    # README figure commands at full size, one pin each (the README test in
    # ``tests/test_golden.py`` checks that README runs exactly these).
    "figure4a.csv": ["se-sweep", "--scheme", "sm", "--axis", "E_dBm=0:5:40"],
    "figure4b.csv": ["se-sweep", "--scheme", "bf", "--axis", "E_dBm=0:5:40"],
    "figure5.csv": [
        "se-sweep", "--scheme", "sm,bf", "--axis", "kappa_dB=0:2.5:15",
        "--set", "transmit_power=0.1",
    ],
    "figure7-clean.csv": ["se-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=0:5:40"],
    # Figures 6 and 7 with angle error run the bounded path search (Figure 6
    # from L_R=15 up) over many chunks of angle epochs.
    "figure6.csv": [
        "se-sweep", "--scheme", "sm,bf", "--axis", "L_R=5:5:30",
        "--set", "transmit_power=0.1",
    ],
    "figure7-mismatched.csv": [
        "se-sweep", "--scheme", "sm,bf", "--axis", "E_dBm=0:5:40",
        "--set", "angle_error_std=0.05",
    ],
    # README figure commands at full size: hopping slots (Figure 8) and BER
    # payloads (Figure 9) over chunks that cross grid-point edges.
    "figure8.csv": [
        "se-sweep", "--scheme", "sm,bf,ds,db", "--axis", "E_dBm=0:5:40",
        "--set", "n_slots=2",
    ],
    "figure9.csv": [
        "ber-sweep", "--scheme", "sm,bf,ds,db", "--axis", "E_dBm=0:5:30",
        "--set", "n_slots=2", "--min-bits", "1000000",
    ],
}


def write(name: str, path: Path) -> None:
    """Run the named command in-process, writing its CSV to ``path``."""
    from rislink import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main([*COMMANDS[name], "--output", str(path)])
        except SystemExit as exc:
            if exc.code != cli.EXIT_OK:
                raise RuntimeError(f"{name}: rislink exited {exc.code}") from exc


def render(name: str) -> str:
    """Run the named command in-process and return its CSV text, writing
    no file."""
    from rislink import cli

    texts = []

    def capture(result, path) -> None:
        texts.append(cli.format_csv(result))

    with mock.patch.object(cli, "write_csv", capture):
        write(name, GOLDEN_DIR / name)
    return texts[0]


def differences(expected: str, got: str) -> str | None:
    """Which columns of a CSV differ (with their row numbers), or None."""
    if expected == got:
        return None
    old, new = (text.splitlines() for text in (expected, got))
    if not old or old[0] != new[0] or len(old) != len(new):
        return f"header or row count differs ({len(old)} vs {len(new)} lines)"
    header = old[0].split(",")
    rows: dict[str, list[int]] = {}
    for number, (a, b) in enumerate(zip(old[1:], new[1:]), 1):
        a, b = a.split(","), b.split(",")
        if len(a) != len(b):
            rows.setdefault("(field count)", []).append(number)
            continue
        for column, x, y in zip(header, a, b):
            if x != y:
                rows.setdefault(column, []).append(number)
    if not rows:
        return "line endings or trailing bytes differ"
    return "; ".join(
        f"column {column} differs in rows {numbers}" for column, numbers in rows.items()
    )


def check(golden_dir: Path = GOLDEN_DIR, names=None) -> list[str]:
    """One line per golden file whose bytes the commands would change, over
    ``names`` (by default every command of the table as it stands)."""
    problems = []
    for name in COMMANDS if names is None else names:
        path = golden_dir / name
        if not path.is_file():
            problems.append(f"{path}: missing")
            continue
        diff = differences(path.read_bytes().decode("utf-8"), render(name))
        if diff:
            problems.append(f"{path}: {diff}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare in memory against the golden files, writing nothing",
    )
    args = parser.parse_args(argv)
    if args.check:
        problems = check()
        for problem in problems:
            print(problem, file=sys.stderr)
        if problems:
            return 1
        print(f"all {len(COMMANDS)} golden files unchanged", file=sys.stderr)
        return 0
    for name in COMMANDS:
        write(name, GOLDEN_DIR / name)
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

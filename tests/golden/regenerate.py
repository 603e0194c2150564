"""Rewrite the golden CSVs that ``tests/test_golden.py`` compares against.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

The golden files freeze the simulator's output bytes at a fixed seed, so a
refactor that moves any simulated number fails the golden test.  Rerunning
this script changes what counts as correct: review the diff of every
rewritten file and record the reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

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


def main() -> None:
    for name in COMMANDS:
        write(name, GOLDEN_DIR / name)
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""Frozen outputs: every golden command must rewrite its CSV byte for byte.

The command table lives in ``tests/golden/regenerate.py``, the script that
wrote the golden files, so the two cannot drift apart.
"""

from __future__ import annotations

import importlib.util
import re
import shlex
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).resolve().parent / "golden" / "regenerate.py"
)
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)


@pytest.mark.parametrize("name", sorted(regenerate.COMMANDS))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    regenerate.write(name, out)
    assert out.read_bytes() == (regenerate.GOLDEN_DIR / name).read_bytes()


def _readme_figure_commands() -> list[list[str]]:
    """The ``rislink ... --output`` commands of README's "Reproducing the
    reference figures" section, without ``rislink`` and the ``--output``
    pair, with the backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Reproducing the reference figures", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["rislink"] and "--output" in words:
                at = words.index("--output")
                commands.append(words[1:at] + words[at + 2:])
    return commands


def test_readme_figure_commands_are_pinned():
    # Every README figure command that writes a CSV is a golden command, and
    # every figure pin is a README command: editing, adding or dropping one
    # in README fails here until the table and its pin are regenerated.
    commands = _readme_figure_commands()
    pinned = {name: argv for name, argv in regenerate.COMMANDS.items() if argv in commands}
    assert all(argv in regenerate.COMMANDS.values() for argv in commands), commands
    assert len(pinned) == len(commands)
    assert {name for name in regenerate.COMMANDS if name.startswith("figure")} <= set(pinned)


# ``test_output_matches_golden`` compares every golden file byte for byte,
# so the check's report is tested on the two cheapest commands.
_CHEAP = ("closed-form-power.csv", "closed-form-kappa.csv")


def test_check_passes_on_the_golden_files(monkeypatch, capsys):
    monkeypatch.setattr(regenerate, "COMMANDS", {n: regenerate.COMMANDS[n] for n in _CHEAP})
    assert regenerate.main(["--check"]) == 0
    assert capsys.readouterr().err == "all 2 golden files unchanged\n"


def test_check_fails_on_a_missing_golden_file(monkeypatch, capsys):
    commands = {n: regenerate.COMMANDS[n] for n in _CHEAP}
    monkeypatch.setattr(regenerate, "COMMANDS", {**commands, "absent.csv": []})
    assert regenerate.main(["--check"]) == 1
    assert capsys.readouterr().err == f"{regenerate.GOLDEN_DIR / 'absent.csv'}: missing\n"


def test_check_names_a_changed_file_and_column(tmp_path):
    # A one-byte change to a copy is reported by file and column, and the
    # check rewrites nothing.
    name = "closed-form-power.csv"
    data = bytearray((regenerate.GOLDEN_DIR / name).read_bytes())
    first_row = data.index(b"\n") + 1
    metric = first_row + data[first_row:].index(b",sm,") + len(b",sm,")
    data[metric] = ord("7") if data[metric] != ord("7") else ord("8")
    (tmp_path / name).write_bytes(bytes(data))
    problems = regenerate.check(tmp_path, [name])
    assert len(problems) == 1
    assert name in problems[0] and "column metric differs in rows [1]" in problems[0]
    assert (tmp_path / name).read_bytes() == bytes(data)
    assert regenerate.check(regenerate.GOLDEN_DIR, [name]) == []

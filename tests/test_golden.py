"""Frozen outputs: every golden command must rewrite its CSV byte for byte.

The command table lives in ``tests/golden/regenerate.py``, the script that
wrote the golden files, so the two cannot drift apart.
"""

from __future__ import annotations

import importlib.util
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

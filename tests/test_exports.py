"""The package's export list matches what its namespace binds, and the
names README cites exist."""

from __future__ import annotations

import importlib
import pkgutil
import re
import types
from pathlib import Path

import rislink as rl


def test_all_lists_exactly_the_public_names():
    public = {
        name for name, value in vars(rl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(rl.__all__) == sorted(public)
    assert len(set(rl.__all__)) == len(rl.__all__)
    for name in rl.__all__:
        assert getattr(rl, name) is not None


# The public surface, sorted.  A name added to or dropped from the package
# must be added to or dropped from this list on purpose.
PUBLIC_NAMES = [
    "ClosedFormParams",
    "ConfigurationError",
    "ConvergenceError",
    "NoCrossingError",
    "PlacementError",
    "RislinkError",
    "SamplingError",
    "SearchSpaceError",
    "SelectionInfeasibleError",
    "SweepResult",
    "SystemConfig",
    "TrialPlan",
    "apply_axis",
    "crossing_point",
    "crossing_point_three_stream",
    "crossing_point_two_stream",
    "db2lin",
    "dbm2watt",
    "dump_config",
    "estimate_ber",
    "estimate_ergodic_se",
    "estimate_outage",
    "exp_integral_ei",
    "load_config",
    "parse_config_value",
    "path_loss",
    "ris_element_count",
    "scaled_ei_neg",
    "se_bf_upper",
    "se_db_upper",
    "se_sm_approx",
    "se_sm_upper",
    "substream",
    "watt2dbm",
    "wilson_half_width",
]


def test_all_is_the_pinned_public_surface():
    assert sorted(rl.__all__) == PUBLIC_NAMES


_MODULES = {info.name for info in pkgutil.iter_modules(rl.__path__)}


def _readme_names() -> set[str]:
    """Every backticked dotted name in README.md that starts with
    ``rislink.`` or with one of the package's modules, without the
    ``rislink.`` prefix."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text)
    return {name.removeprefix("rislink.") for name in names
            if name.startswith("rislink.") or name.split(".")[0] in _MODULES}


def test_readme_dotted_names_resolve():
    names = _readme_names()
    assert {"montecarlo.CHUNK_ROWS", "selftest.dense_composite"} <= names
    missing = []
    for name in sorted(names):
        parts = name.split(".")
        target = rl
        if parts[0] in _MODULES:
            target = importlib.import_module(f"rislink.{parts.pop(0)}")
        for part in parts:
            target = getattr(target, part, None)
        if target is None:
            missing.append(name)
    assert missing == []

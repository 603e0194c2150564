"""The package's export list matches what its namespace binds."""

from __future__ import annotations

import types

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

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


# The public surface, sorted.  A name added to or dropped from the package
# must be added to or dropped from this list on purpose.
PUBLIC_NAMES = [
    "ClosedFormParams",
    "ConfigurationError",
    "ConvergenceError",
    "Deployment",
    "MultipathChannel",
    "NoCrossingError",
    "PathSelection",
    "PlacementError",
    "RisConfiguration",
    "RislinkError",
    "SamplingError",
    "SchemeResult",
    "SearchSpaceError",
    "SelectionInfeasibleError",
    "SweepResult",
    "SystemConfig",
    "TrialPlan",
    "align_phases",
    "apply_axis",
    "array_response",
    "common_phase_refinement",
    "crossing_point",
    "crossing_point_three_stream",
    "crossing_point_two_stream",
    "db2lin",
    "dbm2watt",
    "draw_ris_rx_channel",
    "draw_tx_ris_channel",
    "dump_config",
    "estimate_ber",
    "estimate_ergodic_se",
    "estimate_outage",
    "exp_integral_ei",
    "inject_angle_error",
    "lin2db",
    "load_config",
    "min_angle_separation",
    "parse_config_value",
    "path_loss",
    "place_deployment",
    "redraw_fading",
    "ris_element_count",
    "scaled_ei_neg",
    "se_bf_upper",
    "se_db_upper",
    "se_sm_approx",
    "se_sm_upper",
    "substream",
    "sym_func",
    "watt2dbm",
    "wilson_half_width",
]


def test_all_is_the_pinned_public_surface():
    assert sorted(rl.__all__) == PUBLIC_NAMES

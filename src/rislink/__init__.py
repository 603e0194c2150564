"""Link-level simulator for multipath MIMO channels shaped by phase-only
reflecting surfaces: exact channel synthesis, path selection, four
transceive schemes, closed-form benchmarks, and Monte Carlo sweeps."""

from .analysis import (
    ClosedFormParams,
    crossing_point,
    crossing_point_three_stream,
    crossing_point_two_stream,
    exp_integral_ei,
    scaled_ei_neg,
    se_bf_upper,
    se_db_upper,
    se_sm_approx,
    se_sm_upper,
)
from .config import (
    SystemConfig,
    db2lin,
    dbm2watt,
    dump_config,
    load_config,
    parse_config_value,
    path_loss,
    ris_element_count,
    watt2dbm,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    NoCrossingError,
    PlacementError,
    RislinkError,
    SamplingError,
    SearchSpaceError,
    SelectionInfeasibleError,
)
from .montecarlo import (
    SweepResult,
    TrialPlan,
    apply_axis,
    estimate_ber,
    estimate_ergodic_se,
    estimate_outage,
    substream,
    wilson_half_width,
)

__version__ = "0.1.0"

__all__ = [
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

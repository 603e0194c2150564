"""Ergodic estimation engine.

Two nested randomness levels mirror the link's coherence structure: an
angle epoch redraws every direction (and the receiver drop) and triggers a
fresh path selection from statistical knowledge; fading epochs inside it
redraw only the scattered gains and refine the phase design from instant
knowledge.  Slot hopping for the diversity schemes happens inside a single
fading epoch.

The schemes come in two families, multiplexing (``sm``/``ds``) and
beamforming (``bf``/``db``), and the hopping scheme of a family is its
single-configuration scheme plus more slots.  Each family runs one
pipeline per angle epoch: one selection, one design per slot, and one
pass of its runner, from which ``sm``/``bf`` read the one-slot prefix and
``ds``/``db`` every slot.  Every angle-only part of a design (profile
slopes, surface kernels, steering responses) is built once, and the F
fading epochs' gains ride along a leading epoch axis through the designs
and the runners.  Draws stay per fading epoch: every random draw comes
from a counter-based stream keyed by ``(base_seed, grid index, epoch
indices, purpose)``, so a rerun at the same seed reproduces every result
bit for bit.  Every scheme of a fading epoch reads that epoch's one
payload stream, so one payload pass per family serves both its schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (
    TX_RIS,
    MultipathChannel,
    draw_ris_rx_channel,
    draw_tx_ris_channel,
    min_angle_separation,
    redraw_fading,
)
from .config import SystemConfig, db2lin, dbm2watt, place_deployment
from .customize import (
    SCHEME_TAGS,
    build_customized_channel,
    select_paths_bf,
    select_paths_diversity,
    select_paths_sm,
)
from .errors import ConfigurationError
from .transceive import (
    DEFAULT_OUTAGE_THRESHOLD,
    SchemeResult,
    _run_beamform,
    _run_multiplex,
    payload_errors,
)
from . import analysis

_GEOMETRY, _ANGLES, _FADING, _MISMATCH, _PAYLOAD = range(5)

_WILSON_Z = 1.959963984540054  # two-sided 95%
_NO_FORM = (math.nan, math.nan)


def substream(base_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one (grid, epoch, purpose) cell."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def _axis_appliers():
    def integral(value: float) -> int:
        if not math.isfinite(value) or abs(value - round(value)) > 1e-9:
            raise ConfigurationError(f"axis value {value} must be an integer")
        return int(round(value))

    return {
        "E_dBm": lambda cfg, v: cfg.replace(transmit_power=dbm2watt(v)),
        "kappa_dB": lambda cfg, v: cfg.replace(rician_factor=db2lin(v)),
        "L_R": lambda cfg, v: cfg.replace(n_ris_rx_paths=integral(v)),
        "L_T": lambda cfg, v: cfg.replace(n_nlos_tx_paths=integral(v)),
        "M_R": lambda cfg, v: cfg.replace(n_slots=integral(v)),
        "N_T": lambda cfg, v: cfg.replace(n_tx=integral(v)),
        "N_R": lambda cfg, v: cfg.replace(n_rx=integral(v)),
        "K": lambda cfg, v: cfg.replace(n_ris=integral(v)),
        "C": lambda cfg, v: cfg.replace(gain_target=v),
        "sigma_e": lambda cfg, v: cfg.replace(angle_error_std=v),
    }


AXIS_NAMES = tuple(_axis_appliers().keys())


def apply_axis(config: SystemConfig, axis_name: str, value: float) -> SystemConfig:
    """Return the config with one swept parameter replaced (display units)."""
    appliers = _axis_appliers()
    if axis_name not in appliers:
        raise ConfigurationError(
            f"unknown sweep axis {axis_name!r}; expected one of {', '.join(AXIS_NAMES)}"
        )
    try:
        return appliers[axis_name](config, value)
    except OverflowError as exc:
        raise ConfigurationError(f"axis value {axis_name}={value} is out of range") from exc


def check_axis_grid(axis_values: tuple[float, ...]) -> None:
    """Reject an empty sweep grid, or one that is not strictly ascending
    (a step below the values' resolution repeats a value)."""
    if not axis_values:
        raise ConfigurationError("sweep grid must be non-empty")
    if any(a >= b for a, b in zip(axis_values, axis_values[1:])):
        raise ConfigurationError("sweep grid must be strictly ascending (no repeated value)")


@dataclass(frozen=True)
class TrialPlan:
    """What to estimate: schemes, sweep axis, epoch counts, seed."""

    axis_name: str
    axis_values: tuple[float, ...]
    schemes: tuple[str, ...]
    n_angle_epochs: int
    n_fading_epochs: int
    base_seed: int
    gamma_th: float = DEFAULT_OUTAGE_THRESHOLD

    def __post_init__(self) -> None:
        if self.axis_name not in AXIS_NAMES:
            raise ConfigurationError(
                f"unknown sweep axis {self.axis_name!r}; "
                f"expected one of {', '.join(AXIS_NAMES)}"
            )
        if self.n_angle_epochs < 1 or self.n_fading_epochs < 1:
            raise ConfigurationError("epoch counts must be at least 1")
        check_axis_grid(self.axis_values)
        if not self.schemes:
            raise ConfigurationError("need at least one scheme")
        for scheme in self.schemes:
            if scheme not in SCHEME_TAGS:
                raise ConfigurationError(
                    f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEME_TAGS)}"
                )
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigurationError(f"duplicate scheme in {','.join(self.schemes)}")
        if self.base_seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if not math.isfinite(self.gamma_th) or self.gamma_th < 0:
            raise ConfigurationError("outage threshold must be finite and non-negative")


@dataclass
class SweepResult:
    """Aggregated sweep statistics plus closed-form companion columns.

    ``closed_form[scheme][i]`` is an (approximation, upper bound) pair for
    grid point ``i``; entries are NaN where no closed form applies.
    """

    metric: str
    axis_name: str
    axis_values: tuple[float, ...]
    schemes: tuple[str, ...]
    means: dict[str, tuple[float, ...]] = field(default_factory=dict)
    stderrs: dict[str, tuple[float, ...]] = field(default_factory=dict)
    closed_form: dict[str, tuple[tuple[float, float], ...]] = field(default_factory=dict)
    n_trials: dict[str, tuple[int, ...]] = field(default_factory=dict)


def inject_angle_error(
    channel: MultipathChannel, sigma_e: float, rng: np.random.Generator
) -> MultipathChannel:
    """Perturbed copy modeling imperfect surface-to-receiver angle estimates.

    Every spatial frequency of a surface-to-receiver hop gains independent
    real Gaussian noise of standard deviation ``sigma_e``; transmitter-side
    hops are returned untouched (their geometry is known exactly).  The
    perturbed copy is meant for selection and phase design only, never for
    realizing the channel the link actually sees.
    """
    if sigma_e < 0:
        raise ValueError("sigma_e must be non-negative")
    if sigma_e == 0 or channel.link == TX_RIS:
        return channel
    n = channel.arrival_freqs.size
    return replace(
        channel,
        arrival_freqs=channel.arrival_freqs + sigma_e * rng.standard_normal(n),
        departure_freqs=channel.departure_freqs + sigma_e * rng.standard_normal(n),
    )


# Scheme family -> (single-configuration scheme, path-hopping scheme).  The
# hopping scheme extends the single one: its selection and designs begin
# with the single scheme's, and its results continue the same slot sums.
_FAMILIES = {"multiplex": ("sm", "ds"), "beamform": ("bf", "db")}


def _angle_epoch(
    config: SystemConfig,
    schemes: tuple[str, ...],
    grid_index: int,
    epoch_index: int,
    n_fading_epochs: int,
    base_seed: int,
    gamma_th: float,
    payload_symbols: dict[str, int] | None = None,
) -> dict[str, list[SchemeResult]]:
    """Evaluate every scheme over one angle epoch's fading epochs.

    Each fading epoch keeps its own substream and draw order (per surface:
    transmit-side gains, then receive-side gains); the draws are stacked
    into (F, L) gain arrays per hop.  Each scheme family runs once: one
    selection (the hopping one when its hopping scheme is requested), one
    design per slot for all F epochs, and one pass of the runner, where
    ``sm``/``bf`` read the one-slot prefix and ``ds``/``db`` all slots.
    With ``payload_symbols`` (family -> symbols per fading epoch), each
    family also runs one payload pass per fading epoch, and each scheme
    takes the bit errors after its slots.
    """
    rng = substream(base_seed, grid_index, epoch_index, _ANGLES)
    deployment = place_deployment(config, rng)
    separation = min_angle_separation(deployment)
    base_tx: list[MultipathChannel] = []
    base_rx: list[MultipathChannel] = []
    for k in range(config.n_ris):
        down = draw_tx_ris_channel(config, deployment, k, rng, separation)
        up = draw_ris_rx_channel(
            config, deployment, k, rng, separation, keep_away=down.arrival_freqs
        )
        base_tx.append(down)
        base_rx.append(up)

    mismatched = config.angle_error_std > 0
    if mismatched:
        err_rng = substream(base_seed, grid_index, epoch_index, _MISMATCH)
        template_rx = [
            inject_angle_error(ch, config.angle_error_std, err_rng) for ch in base_rx
        ]
    else:
        template_rx = base_rx

    candidates = np.array([ch.arrival_freqs for ch in template_rx])

    # Each epoch's generator sees the draws in the order of a single-epoch
    # redraw: per surface, transmit-side gains, then receive-side gains.
    fading_rngs = [
        substream(base_seed, grid_index, epoch_index, fading_index, _FADING)
        for fading_index in range(n_fading_epochs)
    ]
    cur_tx, cur_rx = [], []
    for down, up in zip(base_tx, base_rx):
        cur_tx.append(redraw_fading(down, config, deployment, fading_rngs))
        cur_rx.append(redraw_fading(up, config, deployment, fading_rngs))
    est_rx = cur_rx
    if mismatched:
        est_rx = [replace(t, gains=s.gains) for t, s in zip(template_rx, cur_rx)]

    out: dict[str, list[SchemeResult]] = {}
    for family, (single, hopping) in _FAMILIES.items():
        multiplex = family == "multiplex"
        if hopping in schemes:
            selection = select_paths_diversity(candidates, hopping, config.n_slots, config.n_rx)
        elif single in schemes:
            select = select_paths_sm if multiplex else select_paths_bf
            selection = select(candidates, config.n_rx)
        else:
            continue
        customs = [
            build_customized_channel(
                selection,
                (cur_tx, est_rx),
                deployment,
                slot=m,
                refine=not multiplex,
                exact_subchannels=(cur_tx, cur_rx) if mismatched else None,
            )
            for m in range(selection.n_slots)
        ]
        slots = {
            scheme: n_slots
            for scheme, n_slots in ((single, 1), (hopping, selection.n_slots))
            if scheme in schemes
        }
        run = _run_multiplex if multiplex else _run_beamform
        out.update(run(customs, config, slots, gamma_th))
        if payload_symbols is None:
            continue
        for fading_index in range(n_fading_epochs):
            sent, errors = payload_errors(
                [custom.epoch(fading_index) for custom in customs],
                config,
                payload_symbols[family],
                substream(base_seed, grid_index, epoch_index, fading_index, _PAYLOAD),
                multiplex=multiplex,
            )
            for scheme, n_slots in slots.items():
                results = out[scheme]
                results[fading_index] = replace(
                    results[fading_index], bit_errors=errors[n_slots - 1], bits_sent=sent
                )
    return out


def _collect_epochs(
    plan: TrialPlan,
    config: SystemConfig,
    grid_index: int,
    payload_symbols: dict[str, int] | None = None,
) -> list[dict[str, list[SchemeResult]]]:
    """Run all angle epochs of one grid point, in order."""
    return [
        _angle_epoch(config, plan.schemes, grid_index, epoch_index, plan.n_fading_epochs,
                     plan.base_seed, plan.gamma_th, payload_symbols)
        for epoch_index in range(plan.n_angle_epochs)
    ]


def _grid_config(plan: TrialPlan, config: SystemConfig, grid_index: int) -> SystemConfig:
    return apply_axis(config, plan.axis_name, plan.axis_values[grid_index])


def closed_form_companions(
    schemes: tuple[str, ...], configs: list[SystemConfig]
) -> dict[str, tuple[tuple[float, float], ...]]:
    """Closed-form (approximation, upper bound) SE columns of every scheme
    at every configuration of a grid; NaN where no closed form applies.

    Every configuration's parameter bundle is validated, whatever the
    schemes; the grid's stream constants share one Ei kernel call.
    """
    params = [analysis.ClosedFormParams.from_config(cfg) for cfg in configs]
    out = {}
    for scheme in schemes:
        if scheme == "sm":
            c_rows = [p.c_values() for p in params]
            uppers = [analysis.se_sm_upper(c) for c in c_rows]
            out[scheme] = tuple(zip(analysis.se_sm_approx(c_rows), uppers))
        elif scheme == "bf":
            out[scheme] = tuple((math.nan, analysis.se_bf_upper(p)) for p in params)
        elif scheme == "db":
            out[scheme] = tuple(
                (math.nan, analysis.se_db_upper(p, cfg.n_slots)) for p, cfg in zip(params, configs)
            )
        else:
            out[scheme] = (_NO_FORM,) * len(configs)
    return out


def _mean_and_stderr(values: list[float]) -> tuple[float, float, int]:
    samples = np.array(values)
    stderr = samples.std(ddof=1) / math.sqrt(samples.size) if samples.size > 1 else 0.0
    return float(samples.mean()), float(stderr), samples.size


def wilson_half_width(errors: int, total: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("need at least one observation")
    p = errors / total
    denom = 1.0 + z * z / total
    return z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom


def _pooled_error_rate(results: list[SchemeResult]) -> tuple[float, float, int]:
    errors = sum(r.bit_errors for r in results)
    bits = sum(r.bits_sent for r in results)
    return errors / bits, wilson_half_width(errors, bits), bits


# Metric -> (metric, stderr, n_trials) columns from one scheme's pooled results.
_REDUCERS = {
    "se": lambda rs: _mean_and_stderr([r.se_bits_per_hz for r in rs]),
    "se_model": lambda rs: _mean_and_stderr([r.se_model_bits_per_hz for r in rs]),
    "outage": lambda rs: _mean_and_stderr([float(r.outage) for r in rs]),
    "ber": _pooled_error_rate,
}


def _sweep(
    plan: TrialPlan, config: SystemConfig, metric: str, min_bits: int | None = None
) -> SweepResult:
    """Walk the sweep grid, reducing each scheme's pooled realizations per
    grid point.  ``min_bits`` sends symbol-level payloads instead, splitting
    the bit budget evenly over the plan's epochs."""
    if min_bits is not None and min_bits < 1:
        raise ConfigurationError(f"need at least one payload bit, got min_bits={min_bits}")
    reduce = _REDUCERS[metric]
    n_epochs = plan.n_angle_epochs * plan.n_fading_epochs
    # Every grid point's config and closed forms first, so bad input fails
    # before any simulation.
    configs = [_grid_config(plan, config, i) for i in range(len(plan.axis_values))]
    if metric in ("se", "se_model"):
        companions = closed_form_companions(plan.schemes, configs)
    else:
        companions = {scheme: (_NO_FORM,) * len(configs) for scheme in plan.schemes}
    rows: dict[str, list[tuple]] = {scheme: [] for scheme in plan.schemes}
    for grid_index, cfg in enumerate(configs):
        payload_symbols = None
        if min_bits is not None:
            # Bits per channel use: one QPSK symbol per stream, or one in all.
            payload_symbols = {
                family: max(1, math.ceil(min_bits / (n_epochs * 2 * streams)))
                for family, streams in (("multiplex", cfg.n_rx), ("beamform", 1))
            }
        epochs = _collect_epochs(plan, cfg, grid_index, payload_symbols)
        for scheme in plan.schemes:
            mean, err, n = reduce([r for epoch in epochs for r in epoch[scheme]])
            rows[scheme].append((mean, err, companions[scheme][grid_index], n))
    result = SweepResult(metric, plan.axis_name, plan.axis_values, plan.schemes)
    for scheme, columns in rows.items():
        (result.means[scheme], result.stderrs[scheme],
         result.closed_form[scheme], result.n_trials[scheme]) = zip(*columns)
    return result


def estimate_ergodic_se(
    plan: TrialPlan,
    config: SystemConfig,
    *,
    use_model: bool = False,
) -> SweepResult:
    """Monte Carlo ergodic SE per scheme over the sweep grid.

    Means and standard errors pool every (angle, fading) realization;
    companion columns carry the matching closed forms evaluated on the
    equal-gain-target profile.  With ``use_model=True`` the aggregated
    quantity is the selection-model rate (built from the designed
    cascade gains alone), i.e. the random variable whose expectation the
    closed-form approximation and upper bounds address; the exact
    log-det rate additionally carries inter-path leakage.
    """
    return _sweep(plan, config, "se_model" if use_model else "se")


def estimate_outage(plan: TrialPlan, config: SystemConfig) -> SweepResult:
    """Empirical outage frequency per scheme over the sweep grid."""
    return _sweep(plan, config, "outage")


def estimate_ber(
    plan: TrialPlan,
    config: SystemConfig,
    min_bits: int = 1_000_000,
) -> SweepResult:
    """Symbol-level bit error rate per scheme over the sweep grid.

    The bit budget is split evenly over the plan's epochs; the stderr
    column holds the 95% Wilson-interval half-width.
    """
    return _sweep(plan, config, "ber", min_bits)

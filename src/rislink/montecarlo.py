"""Ergodic estimation engine.

Two nested randomness levels mirror the link's coherence structure: an
angle epoch redraws every direction (and the receiver drop) and triggers a
fresh path selection from statistical knowledge; fading epochs inside it
redraw only the scattered gains and refine the phase design from instant
knowledge.  Slot hopping for the diversity schemes happens inside a single
fading epoch.

The schemes come in the two families of
:data:`rislink.customize.FAMILIES`, multiplexing (``sm``/``ds``) and
beamforming (``bf``/``db``), and the hopping scheme of a family is its
single-configuration scheme plus more slots.  Each family runs one
pipeline: one selection at its largest requested slot count, one design
per slot, and one pass of its runner, from which ``sm``/``bf`` read the
one-slot prefix and ``ds``/``db`` every slot.

A grid point's realizations are rows, one per (angle epoch, fading
epoch).  A sweep's grid comes in through one intake, :func:`sweep_grid`,
and its axis name through one check, :func:`sweep_axis`; then the sweep
plans, runs and reduces.  The plan lists its jobs up front: chunks of at
most ``CHUNK_ROWS`` rows, as many whole angle epochs as fit, across the
grid points of a power group (configs that differ only in transmit
power, a column the runners read), or one angle epoch whose fading
epochs run in pieces.  Jobs run in table order; the sweep cuts their
columns at grid-point edges and passes each grid point, once its last
angle epoch has run, to the one reducer, :func:`_reduce`; one builder,
:func:`_sweep_result`, makes the table, as in :func:`closed_form_sweep`.
Draws stay per epoch: every random draw comes
from a counter-based stream keyed by ``(base_seed, grid index, epoch
indices, purpose)`` and is made in the order of a single-epoch run, so a
rerun at the same seed reproduces every result bit for bit, however the
rows are chunked or grouped.  One implementation of numpy's SeedSequence
hash, in uint64 array passes, derives every key: a chunk hashes its
rows' key prefixes into the cached pool of the seed and then the Philox
keys of all its cells, and each draw re-keys one generator before each
row instead of building one per cell; :func:`substream` is the same
hash on one cell.  Above the draws a chunk runs stacked: one set of
selection terms (Gram matrices) serves both families, one selection call
runs each selection slot of both families over all the angle epochs as
one stacked search and returns one array stack per family, each slot
design covers every row, with the angle-only parts
(steering responses, surface kernels) built once per angle epoch and the
gain-dependent parts carrying the rows, and each family's runner makes
one pass over all the rows, each row at its own power.  Results stay
columns over (angle epoch, fading epoch) from the runners to the
reducer, one :class:`SchemeResult` per scheme and block of rows.
Bit-error payloads ride on each family's runner pass, every row on its
fading epoch's own substream; every scheme of a fading epoch reads that
one payload stream, whose key is derived once for both families, so one
pass per family serves both its schemes.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import HopStack, draw_angle_epochs, draw_fading_gains, rekey
from .config import SurfaceGeometry, SystemConfig, db2lin, dbm2watt, integer_field
from .config import receiver_losses, surface_geometry
from .customize import (
    FAMILIES,
    SCHEME_TAGS,
    check_selection,
    design_slots,
    select_paths_stack,
)
from .errors import ConfigurationError
from .transceive import DEFAULT_OUTAGE_THRESHOLD, SchemeResult, _run_beamform, _run_multiplex
from . import analysis

_GEOMETRY, _ANGLES, _FADING, _MISMATCH, _PAYLOAD = range(5)

_WILSON_Z = 1.959963984540054  # two-sided 95%
# Largest payload one fading epoch may send, in bits.  A fading epoch's
# payload is held in memory at once, at about 94 (multiplexing) to 102
# (beamforming) bytes per bit with the default arrays (tracemalloc peak of
# one pass), so this keeps a payload pass near 100 MiB.
MAX_PAYLOAD_BITS = 1 << 20


# numpy's SeedSequence hash (O'Neill's seed_seq mixing), as uint64 arrays
# with 32-bit words in the low halves: the entropy hash's initial constant
# and multiplier, the pool mix, and generate_state's (XOR, multiplier) per
# pool word.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _MIX_L, _MIX_R = 0x43B0D7E5, 0x931E8875, 0xCA01F9DD, 0x4973F715
_STATE_XOR, _STATE_MULT = np.array(
    [(0x8B51F9DD * 0x58F38DED**i & _MASK32, 0x8B51F9DD * 0x58F38DED**(i + 1) & _MASK32)
     for i in range(4)], dtype=np.uint64).T
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)  # Philox converts an int counter in Python.


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative integer, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


@functools.lru_cache(maxsize=256)
def _seed_state(base_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's SeedSequence pool of ``base_seed``, shape (4,), and the hash
    constant after it (16 hashes, and 4 per seed word past the fourth)."""
    pool = np.random.SeedSequence(base_seed).pool.astype(np.uint64)
    const = _INIT_A * _MULT_A**(16 + 4 * max(len(_words(base_seed)) - 4, 0)) & _MASK32
    return pool, np.array(const, dtype=np.uint64)


def _absorb(pool: np.ndarray, const: np.ndarray, cells) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's (pool, hash constant) after mixing every word of each
    key tuple in ``cells`` into every state of a stack of pools (..., 4)
    and hash constants (...): arrays (..., C, 4) and (..., C).

    The hash constant advances once per hashed word, so only cells of the
    same word count share a pass; each count gets its own.
    """
    words = [[w for n in cell for w in _words(operator.index(n))] for cell in cells]
    pools = np.empty((*const.shape, len(words), 4), dtype=np.uint64)
    consts = np.empty((*const.shape, len(words)), dtype=np.uint64)
    for size in set(map(len, words)):
        group = [c for c, cell in enumerate(words) if len(cell) == size]
        # The pass's hash constants, four per word and the one after: the
        # constant times the multiplier's powers, wrapped to 32 bits.
        powers = np.uint64(_MULT_A) ** np.arange(4 * size + 1, dtype=np.uint64)
        hashes = const[..., None, None] * powers & _MASK32
        # Each word hashed once per pool word, then mixed in word by word.
        column = np.repeat(np.array([words[c] for c in group], dtype=np.uint64), 4, axis=1)
        values = (column ^ hashes[..., :-1]) * hashes[..., 1:] & _MASK32
        values = _MIX_R * (values ^ values >> 16)
        mixed = pool[..., None, :]
        for start in range(0, 4 * size, 4):
            mixed = _MIX_L * mixed - values[..., start:start + 4] & _MASK32
            mixed ^= mixed >> 16
        pools[..., group, :] = mixed
        consts[..., group] = hashes[..., -1]
    return pools, consts


def _philox(key: np.ndarray) -> np.random.Generator:
    """A Philox generator at counter zero on ``key`` (two uint64 words)."""
    return np.random.Generator(np.random.Philox(key=key, counter=_ZERO_COUNTER))


def substream(base_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one (grid, epoch, purpose) cell.

    It is ``Philox(SeedSequence(base_seed, spawn_key=key))``, its key
    derived by the block path's hash (:func:`_stream_keys`) as a block of
    one cell.  A counter-based stream is fixed by its key alone (Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so every
    draw is SeedSequence's, bit for bit.  Negative integers raise
    ``ValueError``, a seed or key word that is not one ``TypeError``.
    """
    return _philox(_stream_keys(_stream_pools(operator.index(base_seed), [()]), [key])[0, 0])


def _stream_pools(base_seed: int, prefixes) -> tuple[np.ndarray, np.ndarray]:
    """SeedSequence's (pool, hash constant) after ``base_seed`` and each key
    prefix, as uint64 arrays (P, 4) and (P,)."""
    return _absorb(*_seed_state(base_seed), prefixes)


def _stream_keys(pools: tuple[np.ndarray, np.ndarray], tails) -> np.ndarray:
    """Philox keys of ``substream(base_seed, *prefix, *tail)`` for every
    prefix of ``pools`` (see :func:`_stream_pools`) and every key ``tail``,
    shape (P, T, 2): each tail's words mixed in, then generate_state's
    finalisation of the pool into two uint64 words."""
    mixed, _ = _absorb(*pools, tails)
    out = (mixed ^ _STATE_XOR) * _STATE_MULT & _MASK32
    out ^= out >> 16
    return out[..., 0::2] | out[..., 1::2] << 32


def _integral(value: float) -> int:
    if not math.isfinite(value) or abs(value - round(value)) > 1e-9:
        raise ConfigurationError(f"axis value {value} must be an integer")
    return int(round(value))


# Sweep axis -> (config field it sets, conversion from display units).
_AXES = {
    "E_dBm": ("transmit_power", dbm2watt),
    "kappa_dB": ("rician_factor", db2lin),
    "L_R": ("n_ris_rx_paths", _integral),
    "L_T": ("n_nlos_tx_paths", _integral),
    "M_R": ("n_slots", _integral),
    "N_T": ("n_tx", _integral),
    "N_R": ("n_rx", _integral),
    "K": ("n_ris", _integral),
    "C": ("gain_target", float),
    "sigma_e": ("angle_error_std", float),
}
AXIS_NAMES = tuple(_AXES)


def sweep_axis(axis_name: str):
    """The (config field, conversion) pair of a sweep axis, by its name."""
    if axis_name not in AXIS_NAMES:  # by equality, so an unhashable name is unknown too
        raise ConfigurationError(f"unknown sweep axis {axis_name!r}; "
                                 f"expected one of {', '.join(AXIS_NAMES)}")
    return _AXES[axis_name]


def _axis_setting(axis_name: str, value: float) -> tuple[str, float | int]:
    """The config field one swept value sets, and its value there."""
    name, convert = sweep_axis(axis_name)
    try:
        return name, convert(value)
    except OverflowError as exc:
        raise ConfigurationError(f"axis value {axis_name}={value} is out of range") from exc


def apply_axis(config: SystemConfig, axis_name: str, value: float) -> SystemConfig:
    """Return the config with one swept parameter replaced (display units)."""
    return config.replace(**dict([_axis_setting(axis_name, value)]))


def power_groups(
    config: SystemConfig, axis_name: str, axis_values: tuple[float, ...]
) -> list[tuple[SystemConfig, np.ndarray]]:
    """A sweep grid, checked in grid order, as groups of consecutive points
    that differ only in transmit power: each group's config (its transmit
    power unread) and its points' powers.  A power axis is one group and
    builds no config per point; any other axis gives one group per value."""
    if sweep_axis(axis_name)[0] == "transmit_power":
        return [(config, np.array([_axis_setting(axis_name, v)[1] for v in axis_values]))]
    configs = [apply_axis(config, axis_name, value) for value in axis_values]
    return [(cfg, np.array([cfg.transmit_power])) for cfg in configs]


def sweep_grid(axis_name: str, axis_values) -> tuple[float, ...]:
    """The one intake of a sweep grid, a sequence or 1-D array of numbers:
    its values as a tuple of floats.  Rejects anything else (text, a 2-D
    array), an empty grid, a non-finite value, a grid that is not strictly
    ascending (a step below the values' resolution repeats a value), then an
    unknown axis."""
    try:
        grid = np.asarray(axis_values).astype(float, casting="same_kind")
    except (TypeError, ValueError):  # text, objects, complex, a ragged nesting
        grid = None
    if grid is None or grid.ndim != 1:
        raise ConfigurationError(f"sweep grid must be a sequence of numbers, got {axis_values!r}")
    if not grid.size:
        raise ConfigurationError("sweep grid must be non-empty")
    if not np.isfinite(grid).all():
        raise ConfigurationError(f"sweep grid {tuple(grid.tolist())} must be finite")
    if not (grid[1:] > grid[:-1]).all():
        raise ConfigurationError("sweep grid must be strictly ascending (no repeated value)")
    sweep_axis(axis_name)
    return tuple(grid.tolist())


@dataclass(frozen=True)
class TrialPlan:
    """What to estimate: schemes, sweep axis, epoch counts, seed.  The grid
    is stored as :func:`sweep_grid` returns it and the schemes as a tuple."""

    axis_name: str
    axis_values: tuple[float, ...]
    schemes: tuple[str, ...]
    n_angle_epochs: int
    n_fading_epochs: int
    base_seed: int
    gamma_th: float = DEFAULT_OUTAGE_THRESHOLD

    def __post_init__(self) -> None:
        for name in ("n_angle_epochs", "n_fading_epochs", "base_seed"):
            object.__setattr__(self, name, integer_field(name, getattr(self, name)))
        object.__setattr__(self, "axis_values", sweep_grid(self.axis_name, self.axis_values))
        if isinstance(self.schemes, (str, bytes)):
            raise ConfigurationError(f"schemes must be a sequence of names, got {self.schemes!r}")
        object.__setattr__(self, "schemes", tuple(self.schemes))
        if self.n_angle_epochs < 1 or self.n_fading_epochs < 1:
            raise ConfigurationError("epoch counts must be at least 1")
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


def _angle_errors(
    sigma_e: float, arrivals: np.ndarray, departures: np.ndarray, keys: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimates of the surface-to-receiver frequencies of a block of angle
    epochs, shape (A, K, L), for selection and phase design only: every
    frequency gains independent real Gaussian noise of standard deviation
    ``sigma_e``.  Angle epoch ``a`` draws on Philox key ``keys[a]``, shape
    (A, 2), with ``rng`` re-keyed to it (:func:`rislink.channel.rekey`):
    one normal draw holds, surface by surface, the arrivals' errors and
    then the departures'.  Transmit-side angles are known exactly and
    never perturbed."""
    errors = np.empty((len(arrivals), arrivals.shape[1], 2, arrivals.shape[-1]))
    for out, key in zip(errors, keys.tolist()):
        rekey(rng, key).standard_normal(out=out)
    errors *= sigma_e
    return arrivals + errors[:, :, 0], departures + errors[:, :, 1]


def _family_runs(schemes: tuple[str, ...], config: SystemConfig) -> dict[str, dict[str, int]]:
    """{requested scheme: slots it reads} of every family of
    :data:`~rislink.customize.FAMILIES` with a requested scheme."""
    runs = {}
    for family, (single, hopping) in FAMILIES.items():
        slots = {s: n for s, n in ((single, 1), (hopping, config.n_slots)) if s in schemes}
        if slots:
            runs[family] = slots
    return runs


def _join(parts: list[SchemeResult], axis: int) -> SchemeResult:
    """Results of consecutive row blocks as one, joined along ``axis`` (1:
    fading epochs of one block of angle epochs, 0: angle epochs)."""
    return SchemeResult(*(np.concatenate([getattr(part, f.name) for part in parts], axis=axis)
                          for f in fields(SchemeResult)))


def _angle_rows(result: SchemeResult, block) -> SchemeResult:
    """A result's columns over a block of its angle epochs."""
    return SchemeResult(*(getattr(result, f.name)[block] for f in fields(SchemeResult)))


# Rows (one angle epoch by one fading epoch each) designed and run at a
# time.  A chunk holds as many whole angle epochs as fit, of one or more
# grid points of a power sweep, or one angle epoch's fading epochs in
# pieces of this many, so a sweep's peak memory grows neither with its
# epoch counts nor with its grid.
CHUNK_ROWS = 128


def _run_chunk(
    config: SystemConfig,
    surfaces: SurfaceGeometry,
    schemes: tuple[str, ...],
    rows: list[tuple[int, int]],
    powers: np.ndarray,
    n_fading_epochs: int,
    base_seed: int,
    gamma_th: float,
    payload: dict[str, int] | None = None,
) -> dict[str, SchemeResult]:
    """Evaluate every scheme over the rows of a chunk of angle epochs.

    ``rows`` holds the chunk's (grid index, angle epoch) keys, which pick
    only the substreams, and ``powers`` each row's transmit power.  The
    rows share ``config``, whose transmit power nothing here reads, and
    its surface geometry ``surfaces``.  The chunk derives its substreams'
    keys once, draws its angle epochs (with angle error, their estimates),
    and selects each family once, at its largest requested slot count.
    Then, for at most ``CHUNK_ROWS`` rows of fading epochs at a time, it
    draws their gains, and each family designs each slot once and makes
    one runner pass, from which each scheme reads its own slot prefix.
    With ``payload`` (family -> symbols per fading epoch), each pass also
    carries the family's payload, every row on its fading epoch's payload
    key.  Returns each scheme's result, its columns over the chunk's
    (angle epoch, fading epoch) rows.
    """
    mismatched = config.angle_error_std > 0
    pools = _stream_pools(base_seed, rows)
    epoch_keys = _stream_keys(pools, [(_ANGLES,), (_MISMATCH,)] if mismatched else [(_ANGLES,)])
    rng = _philox(epoch_keys[0, 0])
    angles, los_gains = draw_angle_epochs(config, surfaces, epoch_keys[:, 0], rng)
    estimated = {}
    if mismatched:
        estimated["rx_arrival"], estimated["rx_departure"] = _angle_errors(
            config.angle_error_std, angles["rx_arrival"], angles["rx_departure"],
            epoch_keys[:, 1], rng,
        )
    runs = _family_runs(schemes, config)
    selected = select_paths_stack(estimated.get("rx_arrival", angles["rx_arrival"]), config.n_rx,
                                  {family: max(slots.values()) for family, slots in runs.items()})
    pieces = {scheme: [] for scheme in schemes}
    purposes = (_FADING, _PAYLOAD) if payload else (_FADING,)
    step = max(1, CHUNK_ROWS // len(rows))
    for start in range(0, n_fading_epochs, step):
        fading_indices = range(start, min(start + step, n_fading_epochs))
        keys = _stream_keys(pools, [(f, purpose) for purpose in purposes for f in fading_indices])
        keys = keys.reshape(len(rows), len(purposes), len(fading_indices), 2)
        tx_gains, rx_gains = draw_fading_gains(config, angles["n_elements"], los_gains,
                                               keys[:, 0], rng)
        exact = HopStack(tx_gains=tx_gains, rx_gains=rx_gains, **angles)
        estimate = replace(exact, **estimated) if mismatched else exact
        for family, slots in runs.items():
            multiplex = family == "multiplex"
            designs = [
                design_slots(selected[family], m, estimate, exact, refine=not multiplex)[0]
                for m in range(selected[family].n_slots)
            ]
            run_payload = (payload[family], keys[:, 1], rng) if payload else None
            run = _run_multiplex if multiplex else _run_beamform
            results = run(designs, powers, config.noise_power, slots, gamma_th, run_payload)
            for scheme, result in results.items():
                pieces[scheme].append(result)
    return {scheme: _join(parts, axis=1) for scheme, parts in pieces.items()}


# Schemes with a closed form: ``sm`` has an approximation and an upper
# bound, the beamforming schemes an upper bound each.
_BOUNDS = {"bf": analysis.se_bf_upper, "db": analysis.se_db_upper}
CLOSED_FORM_SCHEMES = ("sm", *_BOUNDS)


def closed_form_companions(
    schemes: tuple[str, ...], groups: list[tuple[SystemConfig, np.ndarray]]
) -> dict[str, tuple[tuple[float, float], ...]]:
    """Closed-form (approximation, upper bound) SE columns of every scheme
    over a grid of :func:`power_groups`; NaN where no closed form applies.

    Every group's parameter bundle on its power column is validated first,
    whatever the schemes; each bound then runs once per group.
    Consecutive groups' stream constants of one width stack into one block
    per width, and each block takes one Ei kernel call.
    """
    params = [analysis.ClosedFormParams.from_config(cfg, powers) for cfg, powers in groups]
    nans = [np.full(sum(len(powers) for _, powers in groups), math.nan)]
    out = {}
    for scheme in schemes:
        approx = upper = nans
        if scheme == "sm":
            c_rows = [p.c_values() for p in params]
            widths = itertools.groupby(c_rows, key=lambda c: c.shape[-1])
            blocks = [np.vstack(list(rows)) for _, rows in widths]
            approx = list(map(analysis.se_sm_approx, blocks))
            upper = list(map(analysis.se_sm_upper, blocks))
        elif scheme in _BOUNDS:
            upper = [_BOUNDS[scheme](p) for p in params]
        out[scheme] = tuple(zip(np.hstack(approx).tolist(), np.hstack(upper).tolist()))
    return out


def wilson_half_width(errors: int, total: int, z: float = _WILSON_Z) -> float:
    """Half-width of the Wilson score interval for a binomial proportion."""
    if total < 1:
        raise ValueError("need at least one observation")
    if not 0 <= errors <= total:
        raise ValueError(f"need 0 <= errors <= total, got {errors} errors in {total}")
    p = errors / total
    denom = 1.0 + z * z / total
    return z * math.sqrt(p * (1.0 - p) / total + z * z / (4.0 * total * total)) / denom


# Metric -> the SchemeResult column it averages; "ber" pools bit counters.
_SAMPLES = {"se": "se_bits_per_hz", "se_model": "se_model_bits_per_hz", "outage": "outage"}


def _reduce(metric: str, point: dict[str, SchemeResult]) -> dict[str, tuple[float, float, int]]:
    """Each scheme's (metric, stderr, n_trials) at one grid point, over its
    (angle epoch, fading epoch) rows: the rows' mean and standard error, or
    for ``ber`` the pooled bit error rate and its Wilson half-width."""
    out = {}
    for scheme, result in point.items():
        if metric == "ber":
            errors, bits = int(result.bit_errors.sum()), int(result.bits_sent.sum())
            out[scheme] = errors / bits, wilson_half_width(errors, bits), bits
        else:
            samples = getattr(result, _SAMPLES[metric]).ravel().astype(float)
            stderr = samples.std(ddof=1) / math.sqrt(samples.size) if samples.size > 1 else 0.0
            out[scheme] = float(samples.mean()), float(stderr), samples.size
    return out


def _sweep_result(metric: str, axis_name: str, axis_values, reduced, companions) -> SweepResult:
    """The sweep table of each scheme's grid-point reductions (see
    :func:`_reduce`) in ``reduced`` and its ``companions`` closed-form
    column, in the companions' order."""
    result = SweepResult(metric, axis_name, axis_values, tuple(companions))
    for s, pairs in companions.items():
        result.means[s], result.stderrs[s], result.n_trials[s] = zip(*reduced[s])
        result.closed_form[s] = pairs
    return result


def _payload_sizes(
    plan: TrialPlan, configs: list[SystemConfig], min_bits: int
) -> list[dict[str, int]]:
    """QPSK symbols per fading epoch of each requested family at every
    config of a grid.

    The bit budget is split evenly over the plan's epochs, at one QPSK
    symbol per stream and channel use (one stream for beamforming).  A
    plan whose payload of one fading epoch would exceed
    ``MAX_PAYLOAD_BITS`` is rejected.
    """
    n_epochs = plan.n_angle_epochs * plan.n_fading_epochs
    sizes = []
    for cfg in configs:
        symbols = {}
        for family in _family_runs(plan.schemes, cfg):
            per_use = 2 * (cfg.n_rx if family == "multiplex" else 1)
            symbols[family] = max(1, -(-min_bits // (n_epochs * per_use)))
            if symbols[family] * per_use > MAX_PAYLOAD_BITS:
                raise ConfigurationError(
                    f"min_bits={min_bits} over {n_epochs} epochs sends "
                    f"{symbols[family] * per_use} bits per fading epoch, above the "
                    f"limit of {MAX_PAYLOAD_BITS}; use more epochs or fewer bits"
                )
        sizes.append(symbols)
    return sizes


def _check_geometry(config: SystemConfig) -> SurfaceGeometry:
    """The config's surface geometry, sized for a receiver at the centre
    and at the four extreme points of its drop disk, so that a deployment
    which leaves the floating-point range fails before any simulation (as
    it would in the first angle epoch).  Only the array sizes, carrier,
    gain target and distances enter the geometry."""
    surfaces = surface_geometry(config)
    centre, radius = config.rx_center_distance, config.rx_disk_radius
    points = [(centre, 0.0), (centre + radius, 0.0), (centre - radius, 0.0),
              (centre, radius), (centre, -radius)]
    for point in points:
        receiver_losses(config, surfaces, np.array(point))
    return surfaces


def _jobs(plan: TrialPlan, groups, geometries, payloads) -> list[dict]:
    """A sweep's jobs in run order: the ``_run_chunk`` arguments that vary
    by chunk, over its :func:`power_groups`, geometries and payload sizes.
    A group's rows run grid-major, grid indices counted from its offset in
    the grid, in chunks of ``max(1, CHUNK_ROWS // F)`` angle epochs."""
    per_chunk = max(1, CHUNK_ROWS // plan.n_fading_epochs)
    jobs, offset = [], 0
    for (cfg, powers), surfaces, payload in zip(groups, geometries, payloads):
        grid = range(offset, offset + len(powers))
        rows = list(itertools.product(grid, range(plan.n_angle_epochs)))
        for chunk in (rows[i:i + per_chunk] for i in range(0, len(rows), per_chunk)):
            jobs.append(dict(config=cfg, surfaces=surfaces, payload=payload, rows=chunk,
                             powers=powers[[g - offset for g, _ in chunk]]))
        offset += len(powers)
    return jobs


def _sweep(
    plan: TrialPlan, config: SystemConfig, metric: str, min_bits: int | None = None
) -> SweepResult:
    """Walk the sweep grid, reducing each scheme's pooled realizations per
    grid point.  ``min_bits`` sends symbol-level payloads instead, splitting
    the bit budget evenly over the plan's epochs."""
    if min_bits is not None and integer_field("min_bits", min_bits) < 1:
        raise ConfigurationError(f"need at least one payload bit, got min_bits={min_bits}")
    # Plan: check every grid point's inputs and every group's geometry,
    # then list the jobs, so bad input fails before any simulation.
    groups = power_groups(config, plan.axis_name, plan.axis_values)
    configs = [cfg for cfg, _ in groups]
    geometries = [_check_geometry(cfg) for cfg in configs]
    payloads = (_payload_sizes(plan, configs, min_bits) if min_bits is not None
                else [None] * len(groups))
    if metric in ("se", "se_model"):
        companions = closed_form_companions(plan.schemes, groups)
    else:
        companions = dict.fromkeys(plan.schemes, ((math.nan, math.nan),) * len(plan.axis_values))
    for cfg in configs:
        for family, slots in _family_runs(plan.schemes, cfg).items():
            check_selection(cfg.n_ris_rx_paths, cfg.n_ris, cfg.n_rx, family, max(slots.values()))
    reduced, parts = {scheme: [] for scheme in plan.schemes}, []
    for job in _jobs(plan, groups, geometries, payloads):
        # Run each job in table order, cut its columns where the rows' grid
        # index changes, and reduce a grid point once its last angle epoch
        # has run, so memory does not grow with the grid.
        chunk = _run_chunk(schemes=plan.schemes, n_fading_epochs=plan.n_fading_epochs,
                           base_seed=plan.base_seed, gamma_th=plan.gamma_th, **job)
        grid, epochs = np.array(job["rows"]).T
        cuts = [0, *np.flatnonzero(np.diff(grid)) + 1, len(grid)]
        for lo, hi in zip(cuts, cuts[1:]):
            parts.append({s: _angle_rows(r, slice(lo, hi)) for s, r in chunk.items()})
            if epochs[hi - 1] == plan.n_angle_epochs - 1:
                point = {s: _join([part[s] for part in parts], axis=0) for s in plan.schemes}
                for scheme, stats in _reduce(metric, point).items():
                    reduced[scheme].append(stats)
                parts = []
    return _sweep_result(metric, plan.axis_name, plan.axis_values, reduced, companions)


def closed_form_sweep(config: SystemConfig, axis_name: str, axis_values) -> SweepResult:
    """Closed-form-only sweep of :data:`CLOSED_FORM_SCHEMES`: the metric is
    each scheme's approximation, or its bound where it has none, stderr 0
    and no trials.  Checks :func:`sweep_grid`, each point's config, the closed forms."""
    axis_values = sweep_grid(axis_name, axis_values)
    companions = closed_form_companions(CLOSED_FORM_SCHEMES,
                                        power_groups(config, axis_name, axis_values))
    reduced = {s: [(upper if math.isnan(approx) else approx, 0.0, 0) for approx, upper in pairs]
               for s, pairs in companions.items()}
    return _sweep_result("closed_form", axis_name, axis_values, reduced, companions)


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

"""System parameters, deployment geometry, and configuration file I/O.

The simulated link is a transmit array at the origin, a set of
reconfigurable surfaces placed on the broadside directions of the transmit
array's DFT grid, and a receive array dropped uniformly at random on a
disk further down range.  All arrays are uniform-linear with half-wavelength
spacing and lie parallel to the y-axis, so a direction cosine ``u`` maps to
the spatial frequency ``pi * u``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PlacementError

SPEED_OF_LIGHT = 299792458.0

# Spatial frequencies have a period of 2 pi, so an angle error spread of pi
# already scatters an estimate over most of it; far larger spreads
# overflow the phase design.
MAX_ANGLE_ERROR_STD = math.pi


def db2lin(value_db: float) -> float:
    """Convert a power ratio from dB to linear scale."""
    return 10.0 ** (value_db / 10.0)


def dbm2watt(value_dbm: float) -> float:
    """Convert a power level from dBm to watts."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def watt2dbm(value_watt: float) -> float:
    """Convert a power level from watts to dBm."""
    return 10.0 * math.log10(value_watt) + 30.0


def integer_field(name: str, value) -> int:
    """``value`` of the integer field ``name`` as a Python int (a numpy
    integer included); what ``operator.index`` refuses raises
    :class:`ConfigurationError`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None


def real_field(name: str, value) -> float:
    """``value`` of the real field ``name`` as a Python float (a numpy real
    included); text, None, a complex or an integer beyond the float range
    raises :class:`ConfigurationError`."""
    if not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError(f"{name} must be finite") from None


@dataclass(frozen=True)
class SystemConfig:
    """Static link parameters.

    Parameters
    ----------
    carrier_frequency:
        Carrier frequency in Hz.
    n_tx, n_rx:
        Antenna counts of the transmit and receive uniform linear arrays.
    n_ris:
        Number of deployed reconfigurable surfaces.
    rician_factor:
        Linear-scale Rician factor of every transmitter-to-surface link.
    n_nlos_tx_paths:
        Number of non-line-of-sight paths per transmitter-to-surface link
        (each such link carries one deterministic line-of-sight path on top).
    n_ris_rx_paths:
        Number of Rayleigh paths per surface-to-receiver link.
    noise_power:
        Receiver noise power in watts.
    transmit_power:
        Total transmit power budget in watts.
    gain_target:
        Target product of surface element count and cascaded amplitude path
        loss; element counts are sized so every surface hits this product.
    dft_offset:
        Phase offset of the transmit DFT grid used for surface placement.
    n_slots:
        Surface reconfigurations per symbol (1 = no intra-symbol diversity).
    angle_error_std:
        Standard deviation of the estimation error added to surface-to-
        receiver spatial frequencies before transceiver design (0 = ideal),
        at most :data:`MAX_ANGLE_ERROR_STD`.
    ris_axis_distance:
        Down-range distance (m) of the vertical line holding the surfaces.
    rx_center_distance:
        Down-range distance (m) of the receiver drop-disk center.
    rx_disk_radius:
        Radius (m) of the receiver drop disk.
    """

    carrier_frequency: float = 3.5e9
    n_tx: int = 16
    n_rx: int = 4
    n_ris: int = 4
    rician_factor: float = 10.0
    n_nlos_tx_paths: int = 2
    n_ris_rx_paths: int = 10
    noise_power: float = 1e-13
    transmit_power: float = 1.0
    gain_target: float = 1e-6
    dft_offset: float = 0.0
    n_slots: int = 1
    angle_error_std: float = 0.0
    ris_axis_distance: float = 150.0
    rx_center_distance: float = 200.0
    rx_disk_radius: float = 50.0

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            object.__setattr__(self, name, integer_field(name, getattr(self, name)))
        for name in _FLOAT_FIELDS:
            if not math.isfinite(real_field(name, getattr(self, name))):
                raise ConfigurationError(f"{name} must be finite")
        if self.carrier_frequency <= 0:
            raise ConfigurationError("carrier_frequency must be positive")
        if not (self.n_tx >= self.n_rx >= 1):
            raise ConfigurationError("need n_tx >= n_rx >= 1")
        if self.n_ris < self.n_rx:
            raise ConfigurationError("need at least n_rx surfaces (n_ris >= n_rx)")
        if self.rician_factor <= 0:
            raise ConfigurationError("rician_factor must be positive")
        if self.n_nlos_tx_paths < 0:
            raise ConfigurationError("n_nlos_tx_paths must be non-negative")
        if self.n_ris_rx_paths < 1:
            raise ConfigurationError("n_ris_rx_paths must be at least 1")
        if self.noise_power <= 0:
            raise ConfigurationError("noise_power must be positive")
        if self.transmit_power < 0:
            raise ConfigurationError("transmit_power must be non-negative")
        if self.gain_target <= 0:
            raise ConfigurationError("gain_target must be positive")
        if self.n_slots < 1:
            raise ConfigurationError("n_slots must be at least 1")
        if not 0 <= self.angle_error_std <= MAX_ANGLE_ERROR_STD:
            raise ConfigurationError("angle_error_std must lie in [0, pi]")
        if min(self.ris_axis_distance, self.rx_center_distance, self.rx_disk_radius) <= 0:
            raise ConfigurationError("deployment distances must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)


_FLOAT_FIELDS = tuple(f.name for f in dataclasses.fields(SystemConfig) if f.type == "float")
_INT_FIELDS = tuple(f.name for f in dataclasses.fields(SystemConfig) if f.type == "int")


def path_loss(dist_tx_ris: float, dist_ris_rx: float, wavelength: float) -> float:
    """Cascaded free-space amplitude loss of a two-hop reflected path.

    Each hop contributes ``wavelength / (4 * pi * distance)``; the cascade
    is their product.
    """
    if dist_tx_ris <= 0 or dist_ris_rx <= 0 or wavelength <= 0:
        raise ConfigurationError("distances and wavelength must be positive")
    return (wavelength / (4.0 * math.pi * dist_tx_ris)) * (
        wavelength / (4.0 * math.pi * dist_ris_rx)
    )


def ris_element_count(gain_target: float, loss: float) -> int:
    """Element count that compensates a cascaded loss to the gain target.

    Rounds ``gain_target / loss`` half away from zero and never returns
    fewer than one element.
    """
    if gain_target <= 0 or loss <= 0:
        raise ConfigurationError("gain_target and loss must be positive")
    return max(1, math.floor(gain_target / loss + 0.5))


def _los_arrival_freq(tx_position: np.ndarray, ris_position: np.ndarray) -> float:
    delta = tx_position - ris_position
    return math.pi * float(delta[1] / np.linalg.norm(delta))


def _dft_direction_cosines(n_tx: int, dft_offset: float) -> np.ndarray:
    """Direction cosines of the n_tx-point DFT beams, wrapped to [-1, 1)."""
    n = np.arange(n_tx)
    v = (2.0 * n / n_tx + dft_offset / math.pi) % 2.0
    return np.where(v >= 1.0, v - 2.0, v)


def _deployment(config: SystemConfig) -> str:
    return (
        f"carrier_frequency={config.carrier_frequency!r}, "
        f"ris_axis_distance={config.ris_axis_distance!r}, "
        f"rx_center_distance={config.rx_center_distance!r}, "
        f"rx_disk_radius={config.rx_disk_radius!r}"
    )


@dataclass(frozen=True, eq=False)
class SurfaceGeometry:
    """The part of a deployment that does not depend on the receiver drop.

    Holds the transmitter and surface positions, the transmit-array
    direction cosine of each surface (surfaces are ordered by decreasing
    y-coordinate), each surface's distance from the transmitter, and the
    spatial frequencies of its line of sight: ``los_arrival`` at the
    surface, ``los_departure`` at the transmitter (``pi`` times the
    direction cosine).  An angle epoch adds the receiver drop
    (:func:`drop_receiver`), from which :func:`receiver_losses` sizes the
    surfaces.
    """

    tx_position: np.ndarray
    ris_positions: np.ndarray
    direction_cosines: np.ndarray
    tx_distances: np.ndarray
    los_arrival: np.ndarray
    los_departure: np.ndarray


def surface_geometry(config: SystemConfig) -> SurfaceGeometry:
    """Place one surface per selected DFT beam.

    The ``n_ris`` usable beams closest to broadside are kept (positive
    direction cosine wins ties), and each surface sits on the vertical line
    ``x = ris_axis_distance`` along its beam.

    Raises
    ------
    PlacementError
        If fewer than ``n_ris`` DFT beams intersect the surface line.
    ConfigurationError
        If a transmitter-to-surface distance overflows or underflows to 0.
    """
    cosines = _dft_direction_cosines(config.n_tx, config.dft_offset)
    usable = [u for u in cosines if 1e-12 < abs(u) < 1.0 - 1e-12]
    if len(usable) < config.n_ris:
        raise PlacementError(
            f"only {len(usable)} usable DFT beams for {config.n_ris} surfaces"
        )
    usable.sort(key=lambda u: (abs(u), u < 0))
    chosen = sorted(usable[: config.n_ris], reverse=True)

    x = config.ris_axis_distance
    ris_positions = np.array([[x, x * u / math.sqrt(1.0 - u * u)] for u in chosen])
    tx_position = np.zeros(2)
    with np.errstate(over="ignore", invalid="ignore"):
        d_tx = np.linalg.norm(ris_positions - tx_position, axis=1)
    if not np.all((d_tx > 0) & (d_tx < math.inf)):
        raise ConfigurationError(
            f"deployment distances leave the floating-point range: {_deployment(config)}"
        )
    return SurfaceGeometry(
        tx_position=tx_position,
        ris_positions=ris_positions,
        direction_cosines=np.array(chosen),
        tx_distances=d_tx,
        los_arrival=np.array([_los_arrival_freq(tx_position, p) for p in ris_positions]),
        los_departure=np.array([math.pi * float(u) for u in chosen]),
    )


def drop_receiver(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """A receiver position drawn uniformly on the drop disk: one
    ``rng.uniform()`` for the radius, then one for the azimuth."""
    radius = config.rx_disk_radius * math.sqrt(rng.uniform())
    azimuth = rng.uniform(0.0, 2.0 * math.pi)
    return np.array(
        [
            config.rx_center_distance + radius * math.cos(azimuth),
            radius * math.sin(azimuth),
        ]
    )


def receiver_losses(
    config: SystemConfig, surfaces: SurfaceGeometry, rx_position: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each surface's cascaded loss to a receiver at ``rx_position`` and the
    element count sized from it, rejecting a loss that overflows or
    underflows to 0 (Python floats, so numpy warns of neither; a distance
    ``sqrt(dx*dx + dy*dy)`` rounds as ``np.linalg.norm`` of the offset)."""
    rx, ry = map(float, rx_position)
    d_rx = [math.sqrt((x - rx) * (x - rx) + (y - ry) * (y - ry))
            for x, y in surfaces.ris_positions.tolist()]
    if not all(map(math.isfinite, d_rx)):
        raise ConfigurationError(
            f"deployment distances leave the floating-point range: {_deployment(config)}"
        )
    wavelength = config.wavelength
    losses = [path_loss(a, b, wavelength) for a, b in zip(surfaces.tx_distances.tolist(), d_rx)]
    if not all(0.0 < loss < math.inf for loss in losses):
        raise ConfigurationError(
            f"cascaded path losses leave the floating-point range: {_deployment(config)}"
        )
    try:
        counts = np.array([ris_element_count(config.gain_target, loss) for loss in losses],
                          dtype=np.int64)
    except OverflowError as exc:
        raise ConfigurationError(
            f"surface element counts overflow: gain_target={config.gain_target!r} "
            f"is too large for {_deployment(config)}"
        ) from exc
    return np.array(losses), counts


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(SystemConfig)}


def dump_config(config: SystemConfig, path) -> None:
    """Write a flat ``key = value`` configuration file."""
    lines = []
    for field in dataclasses.fields(SystemConfig):
        value = getattr(config, field.name)
        lines.append(f"{field.name} = {value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_config_value(key: str, raw: str):
    """Convert the textual value of a configuration key to its field type."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigurationError(f"unknown configuration key {key!r}")
    try:
        return int(raw) if kind == "int" else float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for {key!r}: {raw!r}") from exc


def load_config(path) -> SystemConfig:
    """Read a flat ``key = value`` configuration file.

    Blank lines and lines starting with ``#`` are ignored.  Unknown keys,
    keys given twice and malformed values raise :class:`ConfigurationError`.
    """
    overrides = {}
    seen = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key in seen:
                raise ConfigurationError(
                    f"{path}:{lineno}: key {key!r} already set on line {seen[key]}"
                )
            seen[key] = lineno
            overrides[key] = parse_config_value(key, raw.strip())
    return SystemConfig(**overrides)

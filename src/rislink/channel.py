"""Multipath channel model of the two-hop surface-assisted link.

Every transmitter-to-surface link is Rician (one deterministic
line-of-sight path plus a few scattered paths); every surface-to-receiver
link is pure Rayleigh scattering.  Each hop holds one read-only array per
path attribute (gains, arrival and departure frequencies), so the
composite end-to-end matrix can also be written exactly as a product of a
receive steering factor, a block-diagonal core of per-path effective
gains, and a transmit steering factor.  A fading epoch swaps only the
gains array; the angle arrays are shared for the whole angle epoch.  The
gains of several fading epochs can be stacked on a leading epoch axis,
and the factorization then carries that axis through to one composite
matrix per epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import Deployment, SystemConfig
from .errors import SamplingError

TX_RIS = "tx-ris"
RIS_RX = "ris-rx"


def array_response(n_elements: int, spatial_freq: float) -> np.ndarray:
    """Unit-norm uniform-linear-array response at a spatial frequency.

    Element ``i`` contributes ``exp(1j * i * spatial_freq) / sqrt(n)``.
    """
    return np.exp(1j * spatial_freq * np.arange(n_elements)) / math.sqrt(n_elements)


@dataclass(frozen=True, eq=False)
class MultipathChannel:
    """One hop of the link as per-path arrays.

    ``link`` is either ``"tx-ris"`` (matrix shape: surface elements by
    transmit antennas, path 0 is the line of sight) or ``"ris-rx"``
    (receive antennas by surface elements, all paths scattered).
    Entry ``l`` of ``gains``, ``arrival_freqs`` (output side) and
    ``departure_freqs`` (input side) describes path ``l``.  ``gains`` may
    carry a leading fading-epoch axis, shape (F, L), over the same angles.
    The arrays are read-only, so channels can share them and nobody can
    write through one; a writable array passed in is copied first.
    """

    link: str
    ris_index: int
    n_out: int
    n_in: int
    gains: np.ndarray
    arrival_freqs: np.ndarray
    departure_freqs: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (("gains", complex), ("arrival_freqs", float),
                            ("departure_freqs", float)):
            values = np.asarray(getattr(self, name), dtype=dtype)
            if values.flags.writeable:
                values = values.copy()
                values.flags.writeable = False
            object.__setattr__(self, name, values)
        if (
            self.arrival_freqs.ndim != 1
            or self.gains.ndim not in (1, 2)
            or not self.gains.shape[-1:] == self.arrival_freqs.shape == self.departure_freqs.shape
        ):
            raise ValueError(
                "frequencies must be 1-D arrays of one length, and gains must match "
                "them, optionally with a leading epoch axis"
            )


def _response_matrix(n_elements: int, freqs: np.ndarray) -> np.ndarray:
    """Stack array responses as columns: shape (n_elements, len(freqs))."""
    phases = np.outer(np.arange(n_elements), freqs)
    return np.exp(1j * phases) / math.sqrt(n_elements)


def _circular_gap(a: np.ndarray, b: float) -> np.ndarray:
    """Distance between spatial frequencies on the 2*pi circle."""
    return np.abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def _draw_separated_freqs(
    rng: np.random.Generator,
    count: int,
    keep_away: np.ndarray,
    separation: float,
    max_attempts: int = 100_000,
) -> np.ndarray:
    """Draw spatial frequencies of uniform physical angles on (0, pi),
    rejecting any draw closer than ``separation`` to an earlier one or to
    the ``keep_away`` set.

    The threshold is capped at half the packing density of the full circle
    so a near-degenerate geometry (a surface with very few elements) slows
    the draw down instead of deadlocking it.
    """
    taken = list(np.atleast_1d(np.asarray(keep_away, dtype=float)))
    total = count + len(taken)
    separation = min(separation, 2.0 * math.pi / (2.0 * total))
    out = []
    for _ in range(count):
        for _ in range(max_attempts):
            freq = math.pi * math.cos(rng.uniform(0.0, math.pi))
            if not taken or _circular_gap(np.array(taken), freq).min() >= separation:
                out.append(freq)
                taken.append(freq)
                break
        else:
            raise SamplingError(f"angle sampling failed after {max_attempts} attempts")
    return np.array(out)


def _complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly-symmetric unit-variance complex Gaussian samples."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def _scattered_gains(
    config: SystemConfig, link: str, n_s: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Fresh gains of a hop's ``count`` scattered paths, sharing the hop's
    non-line-of-sight power equally (an empty draw when ``count`` is 0)."""
    if not count:
        scale = 0.0
    elif link == TX_RIS:
        scale = math.sqrt(config.n_tx * n_s / ((config.rician_factor + 1.0) * count))
    else:
        scale = math.sqrt(config.n_rx * n_s / count)
    return scale * _complex_normal(rng, count)


def min_angle_separation(deployment: Deployment) -> float:
    """Smallest allowed spacing of surface-side spatial frequencies.

    Tied to the largest beam width in the deployment: one full mainlobe of
    the smallest surface.
    """
    return 2.0 * math.pi / float(deployment.ris_element_counts.min())


def draw_tx_ris_channel(
    config: SystemConfig,
    deployment: Deployment,
    k: int,
    rng: np.random.Generator,
    separation: float | None = None,
) -> MultipathChannel:
    """Draw the Rician transmitter-to-surface hop for surface ``k``.

    Path 0 is the deterministic line of sight fixed by the geometry with a
    real positive gain carrying the whole Rician-factor weight; the
    scattered paths get i.i.d. complex-Gaussian gains.  Scattered arrival
    frequencies at the surface are rejection-sampled to stay ``separation``
    away from the line of sight and from each other.
    """
    if separation is None:
        separation = min_angle_separation(deployment)
    n_s = int(deployment.ris_element_counts[k])
    n_nlos = config.n_nlos_tx_paths
    kappa = config.rician_factor

    los_arrival = deployment.los_arrival_freq(k)
    los_departure = deployment.los_departure_freq(k)
    arrivals = _draw_separated_freqs(rng, n_nlos, np.array([los_arrival]), separation)
    departures = math.pi * np.cos(rng.uniform(0.0, math.pi, size=n_nlos))

    los_gain = math.sqrt(kappa * config.n_tx * n_s / (kappa + 1.0))
    return MultipathChannel(
        TX_RIS, k, n_s, config.n_tx,
        gains=np.concatenate(([los_gain], _scattered_gains(config, TX_RIS, n_s, n_nlos, rng))),
        arrival_freqs=np.concatenate(([los_arrival], arrivals)),
        departure_freqs=np.concatenate(([los_departure], departures)),
    )


def draw_ris_rx_channel(
    config: SystemConfig,
    deployment: Deployment,
    k: int,
    rng: np.random.Generator,
    separation: float | None = None,
    keep_away: np.ndarray | Sequence[float] = (),
) -> MultipathChannel:
    """Draw the Rayleigh surface-to-receiver hop for surface ``k``.

    Departure frequencies at the surface are rejection-sampled to stay
    ``separation`` away from each other and from ``keep_away`` (typically
    the arrival frequencies already in use on the same surface).
    """
    if separation is None:
        separation = min_angle_separation(deployment)
    n_s = int(deployment.ris_element_counts[k])
    n_paths = config.n_ris_rx_paths

    departures = _draw_separated_freqs(rng, n_paths, np.asarray(keep_away), separation)
    arrivals = math.pi * np.cos(rng.uniform(0.0, math.pi, size=n_paths))
    gains = _scattered_gains(config, RIS_RX, n_s, n_paths, rng)
    return MultipathChannel(RIS_RX, k, config.n_rx, n_s, gains, arrivals, departures)


def redraw_fading(
    channel: MultipathChannel,
    config: SystemConfig,
    deployment: Deployment,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> MultipathChannel:
    """Redraw the scattered path gains of a hop, keeping every angle.

    Models a new small-scale fading epoch inside one angle-coherence
    interval; the deterministic line of sight is untouched.  ``channel``
    holds the gains of a single epoch.  Given a sequence of generators,
    one per fading epoch, the result stacks one redraw per generator on a
    leading epoch axis: gains of shape (F, L).
    """
    n_s = int(deployment.ris_element_counts[channel.ris_index])
    n_kept = 1 if channel.link == TX_RIS else 0
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else rng
    gains = np.empty((len(rngs), channel.gains.size), dtype=complex)
    gains[:, :n_kept] = channel.gains[:n_kept]
    for row, epoch_rng in zip(gains, rngs):
        row[n_kept:] = _scattered_gains(config, channel.link, n_s, row.size - n_kept, epoch_rng)
    gains.flags.writeable = False
    return replace(channel, gains=gains[0] if single else gains)


def dirichlet_kernel(delta, n_elements):
    """``(1/n) * sum_{i<n} exp(1j * i * delta)`` in closed form, broadcasting.

    ``delta`` is wrapped into [-pi, pi) first and halved to ``x``.  Where
    ``n * |x|`` is below 1e-4 the ratio ``sin(n*x) / (n*sin(x))`` is replaced
    by its second-order series, whose first dropped term is under 1e-17.
    """
    half = 0.5 * ((np.asarray(delta, dtype=float) + math.pi) % (2.0 * math.pi) - math.pi)
    n = np.asarray(n_elements, dtype=float)
    small = np.abs(n * half) < 1e-4
    series = 1.0 - (n * n - 1.0) * half * half / 6.0
    ratio = np.where(small, series, np.sin(n * half) / np.where(small, 1.0, n * np.sin(half)))
    return np.exp(1j * (n - 1.0) * half) * ratio


def surface_inner_products(
    gammas: Sequence, out_freqs: np.ndarray, in_freqs: np.ndarray, n_elements: np.ndarray
) -> np.ndarray:
    """``a(out_l)^H diag(gamma_k) a(in_j)`` per surface, shape (K, L_out, L_in).

    Linear profiles (``RisConfiguration``) give ``exp(1j*c) * D(slope + in_j -
    out_l)`` without touching the elements; common phases with a leading
    epoch axis give shape (F, K, L_out, L_in), with the kernel evaluated
    once.  A list holding any raw vector (the oracle that only tests and
    ``selftest`` pass) takes the element sum.
    """
    if all(hasattr(gamma, "slope") for gamma in gammas):
        slopes = np.array([gamma.slope for gamma in gammas])[:, None, None]
        common = np.stack(np.broadcast_arrays(*(gamma.common_phase for gamma in gammas)), axis=-1)
        delta = slopes + in_freqs[:, None, :] - out_freqs[:, :, None]
        kernel = dirichlet_kernel(delta, n_elements[:, None, None])
        return np.exp(1j * common[..., None, None]) * kernel
    vectors = [
        g.phase_vector() if hasattr(g, "slope") else np.asarray(g, dtype=complex) for g in gammas
    ]
    return np.stack([
        _response_matrix(n, out_f).conj().T @ (gamma[:, None] * _response_matrix(n, in_f))
        for gamma, out_f, in_f, n in zip(vectors, out_freqs, in_freqs, n_elements)
    ])


def assemble_composite(
    tx_ris: Sequence[MultipathChannel],
    gammas: Sequence,
    ris_rx: Sequence[MultipathChannel],
    deployment: Deployment,
) -> np.ndarray:
    """End-to-end matrix ``sum_k loss_k * H_rx_k @ diag(gamma_k) @ H_tx_k``,
    evaluated through its exact factorization (:func:`cascaded_decomposition`),
    so its cost scales with path counts, not surface sizes."""
    return cascaded_decomposition(tx_ris, gammas, ris_rx, deployment).composite()


@dataclass(frozen=True, eq=False)
class CascadedDecomposition:
    """Exact factorization of the composite channel.

    ``composite == rx_factor @ core @ tx_factor.conj().T`` holds to
    numerical precision.  Columns of ``rx_factor`` are receive responses of
    the surface-to-receiver paths (surface-major order), columns of
    ``tx_factor`` are transmit responses of the transmitter-to-surface
    paths, and ``core`` is block-diagonal with one block per surface
    holding every per-path-pair effective gain through that surface.
    Stacked gains give ``core`` (and the composite) a leading epoch axis;
    the steering factors depend on angles only and have none.
    """

    rx_factor: np.ndarray
    tx_factor: np.ndarray
    core: np.ndarray
    n_rx_paths_per_ris: int
    n_tx_paths_per_ris: int

    def gain(self, k: int, rx_path: int, tx_path: int) -> complex:
        """Effective gain of (surface k, receiver-side path, transmit-side path).

        ``tx_path`` 0 is the line of sight.
        """
        row = k * self.n_rx_paths_per_ris + rx_path
        col = k * self.n_tx_paths_per_ris + tx_path
        return complex(self.core[row, col])

    def composite(self) -> np.ndarray:
        return self.rx_factor @ self.core @ self.tx_factor.conj().T


def cascaded_decomposition(
    tx_ris: Sequence[MultipathChannel],
    gammas: Sequence,
    ris_rx: Sequence[MultipathChannel],
    deployment: Deployment,
) -> CascadedDecomposition:
    """Factor the composite channel into steering factors and a gain core.

    The (rx_path, tx_path) entry of block ``k`` is the product of the two
    path gains, the cascaded loss, and the surface's phase-profile inner
    product between the departing and arriving surface responses.  Gains
    stacked over F fading epochs (and common phases with an epoch axis)
    give a core of shape (F, K*L_rx, K*L_tx).
    """
    k_total = len(tx_ris)
    l_rx = ris_rx[0].arrival_freqs.size
    l_tx = tx_ris[0].arrival_freqs.size

    inner = surface_inner_products(
        gammas,
        np.array([up.departure_freqs for up in ris_rx]),
        np.array([down.arrival_freqs for down in tx_ris]),
        np.array([up.n_in for up in ris_rx]),
    )
    rx_gains = np.stack([up.gains for up in ris_rx], axis=-2)
    tx_gains = np.stack([down.gains for down in tx_ris], axis=-2)
    losses = deployment.path_losses[:k_total, None, None]
    blocks = losses * (rx_gains[..., :, None] * tx_gains[..., None, :]) * inner
    epochs = blocks.shape[:-3]
    core = np.zeros(epochs + (k_total, l_rx, k_total, l_tx), dtype=complex)
    for k in range(k_total):
        core[..., k, :, k, :] = blocks[..., k, :, :]
    rx_freqs = np.concatenate([up.arrival_freqs for up in ris_rx])
    tx_freqs = np.concatenate([down.departure_freqs for down in tx_ris])
    return CascadedDecomposition(
        rx_factor=_response_matrix(ris_rx[0].n_out, rx_freqs),
        tx_factor=_response_matrix(tx_ris[0].n_in, tx_freqs),
        core=core.reshape(epochs + (k_total * l_rx, k_total * l_tx)),
        n_rx_paths_per_ris=l_rx,
        n_tx_paths_per_ris=l_tx,
    )

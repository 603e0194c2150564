"""Multipath channel model of the two-hop surface-assisted link.

Every transmitter-to-surface link is Rician (one deterministic
line-of-sight path plus a few scattered paths); every surface-to-receiver
link is pure Rayleigh scattering.  Each hop holds one read-only array per
path attribute (gains, arrival and departure frequencies).  A fading epoch
swaps only the gains array; the angle arrays are shared for the whole
angle epoch, and the gains of several fading epochs can be stacked on a
leading epoch axis.  A :class:`HopStack` holds both hops of every surface
for a block of angle epochs as arrays, with a leading angle axis on the
angles and (angle, fading) axes on the gains.  :func:`composite` builds
the end-to-end matrices of every row of a stack from these arrays and the
surfaces' linear phase profiles alone: every surface inner product is a
Dirichlet kernel, so no hop matrix is ever materialized
(``rislink.selftest.dense_composite`` is the dense oracle).  One angle
epoch's per-surface hops make a stack of one
(:meth:`HopStack.from_channels`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import Deployment, SurfaceGeometry, SystemConfig, drop_receiver, receiver_losses
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
    """Stack array responses as columns: shape (n_elements, len(freqs)),
    after any leading axes of ``freqs``."""
    phases = np.arange(n_elements)[:, None] * np.asarray(freqs)[..., None, :]
    return np.exp(1j * phases) / math.sqrt(n_elements)


# Slack above the separation threshold that the two nearest frequencies
# must leave before a draw is taken without testing every frequency: the
# computed circular gap of two frequencies in [-pi, pi] is within 3e-15 of
# the exact one.
_GAP_MARGIN = 1e-12


def _draw_separated_freqs(
    rng: np.random.Generator,
    count: int,
    keep_away: np.ndarray,
    separation: float,
    max_attempts: int = 100_000,
) -> np.ndarray:
    """Draw spatial frequencies of uniform physical angles on (0, pi),
    rejecting any draw closer than ``separation`` to an earlier one or to
    the ``keep_away`` set.  A draw of no frequency returns an empty array
    and leaves the generator untouched.

    The threshold is capped at half the packing density of the full circle
    so a near-degenerate geometry (a surface with very few elements) slows
    the draw down instead of deadlocking it.

    Every try consumes one ``rng.uniform(0.0, pi)``, in order.  The uniforms
    are drawn in batches: the first ``count`` are always consumed; beyond
    them the generator state is saved, and once done it is restored and
    exactly the consumed number redrawn, so the generator ends where one
    scalar draw per try leaves it (after a ``SamplingError`` its state is
    unspecified).  Each try is first tested against its two neighbours in
    sorted order, which on the circle are the nearest taken frequencies:
    a neighbour that is too close rejects it, as the full gap test would.
    When every frequency lies in [-pi, pi] and both neighbours clear the
    threshold by ``_GAP_MARGIN``, far above the few-ulp error of the gap
    arithmetic, every other frequency clears it too and the try is taken;
    otherwise the full gap test decides.
    """
    if not count:
        return np.empty(0)
    taken = np.atleast_1d(np.asarray(keep_away, dtype=float)).tolist()
    total = count + len(taken)
    separation = min(separation, 2.0 * math.pi / (2.0 * total))
    pi, two_pi = math.pi, 2.0 * math.pi

    on_circle = all(-pi <= t <= pi for t in taken)
    ordered = sorted(taken)
    out: list[float] = []
    attempts = 0
    saved = None
    consumed = 0
    batch = count
    while len(out) < count:
        if out or attempts:
            if saved is None:
                saved = rng.bit_generator.state
            batch = max(32, 4 * (count - len(out)))
        for u in rng.uniform(0.0, pi, size=batch).tolist():
            consumed += saved is not None
            freq = pi * math.cos(u)
            attempts += 1
            i = bisect.bisect(ordered, freq)
            # Python's float % is numpy's remainder (fmod plus a sign fix),
            # so these gaps decide as their numpy array form does, bit for bit.
            near = math.inf
            if ordered:
                near = min(abs((ordered[i - 1] - freq + pi) % two_pi - pi),
                           abs((ordered[i % len(ordered)] - freq + pi) % two_pi - pi))
            if near >= separation and (
                (on_circle and near >= separation + _GAP_MARGIN)
                or all(abs((t - freq + pi) % two_pi - pi) >= separation for t in taken)
            ):
                out.append(freq)
                taken.append(freq)
                ordered.insert(i, freq)
                attempts = 0
                if len(out) == count:
                    break
            elif attempts == max_attempts:
                raise SamplingError(f"angle sampling failed after {max_attempts} attempts")
    if saved is not None:
        rng.bit_generator.state = saved
        rng.uniform(0.0, pi, size=consumed)
    return np.array(out)


def _complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    """Circularly-symmetric unit-variance complex Gaussian samples."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)


def _scatter_scale(config: SystemConfig, link: str, n_s: int, count: int) -> float:
    """Amplitude of each of a hop's ``count`` scattered paths, which share
    the hop's non-line-of-sight power equally (0 when there are none)."""
    if not count:
        return 0.0
    if link == TX_RIS:
        return math.sqrt(config.n_tx * n_s / ((config.rician_factor + 1.0) * count))
    return math.sqrt(config.n_rx * n_s / count)


def _scattered_gains(
    config: SystemConfig, link: str, n_s: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Fresh gains of a hop's ``count`` scattered paths (an empty draw when
    ``count`` is 0)."""
    return _scatter_scale(config, link, n_s, count) * _complex_normal(rng, count)


def min_angle_separation(deployment: Deployment) -> float:
    """Smallest allowed spacing of surface-side spatial frequencies.

    Tied to the largest beam width in the deployment: one full mainlobe of
    the smallest surface.
    """
    return _separation(deployment.ris_element_counts)


def _separation(n_elements: np.ndarray) -> float:
    return 2.0 * math.pi / float(np.min(n_elements))


def _los_gain(config: SystemConfig, n_elements):
    """Line-of-sight gain of a transmitter-to-surface hop: real, positive,
    and carrying the whole Rician-factor weight (elementwise on arrays)."""
    kappa = config.rician_factor
    return np.sqrt(kappa * config.n_tx * n_elements / (kappa + 1.0))


def _scattered_paths(
    config: SystemConfig, link: str, n_s: int, keep_away: np.ndarray,
    rng: np.random.Generator, separation: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scattered paths of one hop, drawn in this order: frequencies at
    the surface (kept ``separation`` away from each other and from
    ``keep_away``), frequencies at the far end, gains."""
    count = config.n_nlos_tx_paths if link == TX_RIS else config.n_ris_rx_paths
    at_surface = _draw_separated_freqs(rng, count, keep_away, separation)
    far = math.pi * np.cos(rng.uniform(0.0, math.pi, size=count))
    return at_surface, far, _scattered_gains(config, link, n_s, count, rng)


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
    los_arrival = deployment.los_arrival_freq(k)
    arrivals, departures, gains = _scattered_paths(
        config, TX_RIS, n_s, np.array([los_arrival]), rng, separation
    )
    return MultipathChannel(
        TX_RIS, k, n_s, config.n_tx,
        gains=np.concatenate(([_los_gain(config, n_s)], gains)),
        arrival_freqs=np.concatenate(([los_arrival], arrivals)),
        departure_freqs=np.concatenate(([deployment.los_departure_freq(k)], departures)),
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
    departures, arrivals, gains = _scattered_paths(
        config, RIS_RX, n_s, np.asarray(keep_away), rng, separation
    )
    return MultipathChannel(RIS_RX, k, config.n_rx, n_s, gains, arrivals, departures)


def draw_angle_epochs(
    config: SystemConfig, surfaces: SurfaceGeometry, rngs: Sequence[np.random.Generator]
) -> tuple[dict, np.ndarray]:
    """Every angle epoch's receiver drop and path angles, straight into arrays.

    ``rngs[a]`` is angle epoch ``a``'s generator.  An epoch drops the
    receiver and sizes the surfaces, then draws per surface the
    transmitter-to-surface hop and the surface-to-receiver hop (kept away
    from the first hop's arrivals): the calls of :func:`place_deployment`,
    :func:`draw_tx_ris_channel` and :func:`draw_ris_rx_channel` in that
    order, so every value and the generator's state after equal theirs bit
    for bit.  The scattered gains are drawn and dropped; fading epochs
    redraw them.  Returns the angle fields of a :class:`HopStack`
    (frequencies (A, K, L), element counts and losses (A, K)) and the
    line-of-sight gains (A, K).
    """
    n_angle, n_ris = len(rngs), config.n_ris
    tx_arrival = np.empty((n_angle, n_ris, 1 + config.n_nlos_tx_paths))
    tx_departure = np.empty_like(tx_arrival)
    tx_arrival[..., 0] = surfaces.los_arrival
    tx_departure[..., 0] = surfaces.los_departure
    rx_arrival = np.empty((n_angle, n_ris, config.n_ris_rx_paths))
    rx_departure = np.empty_like(rx_arrival)
    losses = np.empty((n_angle, n_ris))
    n_elements = np.empty((n_angle, n_ris), dtype=np.int64)
    for a, rng in enumerate(rngs):
        losses[a], n_elements[a] = receiver_losses(config, surfaces, drop_receiver(config, rng))
        separation = _separation(n_elements[a])
        for k, n_s in enumerate(n_elements[a].tolist()):
            tx_arrival[a, k, 1:], tx_departure[a, k, 1:], _ = _scattered_paths(
                config, TX_RIS, n_s, tx_arrival[a, k, :1], rng, separation
            )
            rx_departure[a, k], rx_arrival[a, k], _ = _scattered_paths(
                config, RIS_RX, n_s, tx_arrival[a, k], rng, separation
            )
    angles = dict(
        n_rx=config.n_rx,
        n_tx=config.n_tx,
        tx_arrival=tx_arrival,
        tx_departure=tx_departure,
        rx_arrival=rx_arrival,
        rx_departure=rx_departure,
        n_elements=n_elements,
        losses=losses,
    )
    return angles, _los_gain(config, n_elements)


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


def draw_fading_gains(
    config: SystemConfig,
    n_elements: np.ndarray,
    los_gains: np.ndarray,
    rngs: Sequence[Sequence[np.random.Generator]],
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh gains of both hops of every surface for a grid of fading epochs.

    ``rngs[a][f]`` is the generator of fading epoch ``f`` of angle epoch
    ``a``, whose surfaces have ``n_elements[a]`` elements and line-of-sight
    gains ``los_gains[a]``.  Each generator makes one normal draw for all
    surfaces, sliced in the order of :func:`redraw_fading` surface by
    surface (transmit-side gains, then receive-side gains; real parts,
    then imaginary parts), so every gain equals that redraw's bit for bit.
    Returns (A, F, K, 1 + L_T) transmit-side and (A, F, K, L_R)
    receive-side gains.
    """
    n_tx_paths, n_rx_paths = config.n_nlos_tx_paths, config.n_ris_rx_paths
    n_angle, n_ris = n_elements.shape
    width = 2 * (n_tx_paths + n_rx_paths)
    normals = np.empty((n_angle, len(rngs[0]), n_ris * width))
    for row, epoch_rngs in zip(normals, rngs):
        for out, rng in zip(row, epoch_rngs):
            rng.standard_normal(out=out)
    normals = normals.reshape(normals.shape[:2] + (n_ris, width))
    split = np.cumsum([n_tx_paths, n_tx_paths, n_rx_paths])
    tx_re, tx_im, rx_re, rx_im = np.split(normals, split, axis=-1)

    def scales(link: str, count: int) -> np.ndarray:
        return np.array([
            [_scatter_scale(config, link, int(n_s), count) for n_s in row] for row in n_elements
        ])[:, None, :, None]

    tx_gains = np.empty(normals.shape[:3] + (1 + n_tx_paths,), dtype=complex)
    tx_gains[..., 0] = los_gains[:, None, :]
    tx_gains[..., 1:] = scales(TX_RIS, n_tx_paths) * ((tx_re + 1j * tx_im) / math.sqrt(2.0))
    rx_gains = scales(RIS_RX, n_rx_paths) * ((rx_re + 1j * rx_im) / math.sqrt(2.0))
    return tx_gains, rx_gains


@dataclass(frozen=True, eq=False)
class HopStack:
    """Both hops of every surface over a block of angle epochs, as arrays.

    Frequencies have shape (A, K, L): ``tx_*`` describe the transmitter-to-
    surface hops (path 0 the line of sight, arrivals at the surface) and
    ``rx_*`` the surface-to-receiver hops (departures at the surface).
    Gains have shape (A, F, K, L) over F fading epochs of the same angles.
    ``n_elements`` and ``losses`` hold each surface's element count and
    cascaded loss, shape (A, K).  The receive and transmit steering
    factors depend on the angles only and are built once per stack.
    """

    n_rx: int
    n_tx: int
    tx_arrival: np.ndarray
    tx_departure: np.ndarray
    tx_gains: np.ndarray
    rx_arrival: np.ndarray
    rx_departure: np.ndarray
    rx_gains: np.ndarray
    n_elements: np.ndarray
    losses: np.ndarray

    @classmethod
    def from_channels(
        cls,
        tx_ris: Sequence[MultipathChannel],
        ris_rx: Sequence[MultipathChannel],
        deployment: Deployment,
    ) -> "HopStack":
        """One angle epoch's hops; single-epoch gains get an F axis of 1."""

        def stacked(hops, name):
            return np.array([getattr(hop, name) for hop in hops])[None]

        def gains(hops):
            values = np.stack([hop.gains for hop in hops], axis=-2)
            return values.reshape((1, -1) + values.shape[-2:])

        return cls(
            n_rx=ris_rx[0].n_out,
            n_tx=tx_ris[0].n_in,
            tx_arrival=stacked(tx_ris, "arrival_freqs"),
            tx_departure=stacked(tx_ris, "departure_freqs"),
            tx_gains=gains(tx_ris),
            rx_arrival=stacked(ris_rx, "arrival_freqs"),
            rx_departure=stacked(ris_rx, "departure_freqs"),
            rx_gains=gains(ris_rx),
            n_elements=stacked(ris_rx, "n_in"),
            losses=deployment.path_losses[None, :len(tx_ris)],
        )

    @cached_property
    def rx_steering(self) -> np.ndarray:
        """Receive responses of every path, surface-major: (A, n_rx, K L_R)."""
        return _response_matrix(self.n_rx, self.rx_arrival.reshape(len(self.rx_arrival), -1))

    @cached_property
    def tx_steering_h(self) -> np.ndarray:
        """Conjugate transpose of the transmit responses: (A, K L_T, n_tx)."""
        freqs = self.tx_departure.reshape(len(self.tx_departure), -1)
        return np.swapaxes(_response_matrix(self.n_tx, freqs).conj(), -1, -2)


def _inner_products(slopes, commons, out_freqs, in_freqs, n_elements) -> np.ndarray:
    """``exp(1j*c) * D(slope + in_j - out_l)`` per surface: slopes and
    element counts (A, K), common phases (A, F, K), frequencies (A, K, L);
    shape (A, F, K, L_out, L_in), with the kernel evaluated once per angle
    epoch."""
    delta = slopes[..., None, None] + in_freqs[..., None, :] - out_freqs[..., :, None]
    kernel = dirichlet_kernel(delta, n_elements[..., None, None])
    return np.exp(1j * commons[..., None, None]) * kernel[:, None]


def composite(hops: HopStack, slopes: np.ndarray, commons: np.ndarray) -> np.ndarray:
    """End-to-end matrices of every (angle, fading) epoch of a stack under
    linear profiles of slopes (A, K) and common phases (A, F or 1, K):
    shape (A, F, n_rx, n_tx).

    Built as ``R @ core @ T^H`` from the path arrays alone, so its cost
    scales with path counts, not surface sizes: ``R`` / ``T`` hold the
    receive / transmit responses of every path (surface-major), and block
    ``k`` of the block-diagonal ``core`` holds loss * rx gain * tx gain *
    surface inner product per path pair.
    """
    n_ris, l_rx = hops.rx_arrival.shape[1:]
    l_tx = hops.tx_arrival.shape[-1]
    inner = _inner_products(
        slopes, commons, hops.rx_departure, hops.tx_arrival, hops.n_elements
    )
    losses = hops.losses[:, None, :, None, None]
    blocks = losses * (hops.rx_gains[..., :, None] * hops.tx_gains[..., None, :]) * inner
    epochs = blocks.shape[:-3]
    core = np.zeros(epochs + (n_ris, l_rx, n_ris, l_tx), dtype=complex)
    for k in range(n_ris):
        core[..., k, :, k, :] = blocks[..., k, :, :]
    core = core.reshape(epochs + (n_ris * l_rx, n_ris * l_tx))
    return hops.rx_steering[:, None] @ core @ hops.tx_steering_h[:, None]

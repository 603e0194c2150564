"""Multipath channel model of the two-hop surface-assisted link.

Every transmitter-to-surface link is Rician (one deterministic
line-of-sight path plus a few scattered paths); every surface-to-receiver
link is pure Rayleigh scattering.  The two timescales of the link are two
draws.  :func:`draw_angle_epochs` draws what stays fixed over an angle
epoch (the receiver drop, which sizes the surfaces, and every path's
angles); :func:`draw_fading_gains` draws what changes every fading epoch
(the scattered path gains).  A :class:`HopStack` holds both hops of every
surface for a block of angle epochs as arrays, with a leading angle axis
on the angles and (angle, fading) axes on the gains, so the fading epochs
of one angle epoch share its angle arrays.  :func:`composite` builds the
end-to-end matrices of every row of a stack from these arrays and the
surfaces' linear phase profiles alone: every surface inner product is a
Dirichlet kernel, so no hop matrix is ever materialized
(``rislink.selftest.dense_composite`` is the dense oracle).

Every angle epoch and fading epoch draws from its own counter-based
Philox stream.  The draws take their rows' Philox keys and one generator,
which :func:`rekey` restarts on each row's key before that row's draws.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SurfaceGeometry, SystemConfig, drop_receiver, receiver_losses
from .errors import SamplingError

TX_RIS = "tx-ris"
RIS_RX = "ris-rx"


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """Restart the Philox generator ``rng`` on ``key`` (two 64-bit words):
    a zero counter, an empty buffer and no stored 32-bit half.  A
    counter-based stream is fixed by its key alone, so ``rng`` then draws
    what a new Philox generator on ``key`` draws, whatever it drew before."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


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
    keep_away: list[float] | np.ndarray,
    separation: float,
    max_attempts: int = 100_000,
) -> np.ndarray:
    """Draw spatial frequencies of uniform physical angles on (0, pi),
    rejecting any draw closer than ``separation`` to an earlier one or to
    the ``keep_away`` frequencies (a list or 1-D array).  A draw of no
    frequency returns an empty array and leaves the generator untouched.

    The threshold is capped at half the packing density of the full circle
    so a near-degenerate geometry (a surface with very few elements) slows
    the draw down instead of deadlocking it.

    Every try consumes one ``pi * rng.random()``, which rounds as
    ``rng.uniform(0.0, pi)`` on the same word, in order.  The uniforms
    are drawn in rounds of as many as there are frequencies still missing.
    A round can complete the draw only on its last try, so every uniform
    it draws is consumed, and the generator ends where one scalar draw per
    try leaves it (after a ``SamplingError`` its state is unspecified).
    Each try is first tested against its two neighbours in
    sorted order, which on the circle are the nearest taken frequencies:
    a neighbour that is too close rejects it, as the full gap test would.
    When every frequency lies in [-pi, pi] and both neighbours clear the
    threshold by ``_GAP_MARGIN``, far above the few-ulp error of the gap
    arithmetic, every other frequency clears it too and the try is taken;
    otherwise the full gap test decides.  The plain differences to the
    neighbours decide first where they clear ``separation`` by ``2 *
    _GAP_MARGIN``, as the gaps would.  Off the wrap they are within an ulp
    of the gaps.  At the wrap (a try below the least or above the greatest
    taken frequency) they run across it, ``freq - (ordered[-1] - 2 pi)`` and
    ``ordered[0] + 2 pi - freq``: two roundings of results below 4 pi, each
    within 9e-16, so within 2e-15 of the gaps on the same ``2 pi``.
    """
    if not count:
        return np.empty(0)
    taken = list(map(float, keep_away))
    total = count + len(taken)
    separation = min(separation, 2.0 * math.pi / (2.0 * total))
    pi, two_pi = math.pi, 2.0 * math.pi
    low, high = separation - 2.0 * _GAP_MARGIN, separation + 2.0 * _GAP_MARGIN
    random, cos, bisect = rng.random, math.cos, bisect_right

    on_circle = all(-pi <= t <= pi for t in taken)
    ordered = sorted(taken)
    out: list[float] = []
    attempts = 0
    while len(out) < count:
        for u in random(count - len(out)).tolist():
            freq = pi * cos(pi * u)
            attempts += 1
            i = bisect(ordered, freq)
            if plain := on_circle and len(ordered) > 0:
                below = freq - ordered[i - 1] if i else freq - (ordered[-1] - two_pi)
                above = ordered[i] - freq if i < len(ordered) else ordered[0] + two_pi - freq
            if plain and (below < low or above < low):
                take = False
            elif plain and below > high and above > high:
                # They sum to at most 2 pi: neither neighbour is nearer the other way.
                take = True
            else:
                # Python's float % is numpy's remainder (fmod plus a sign fix),
                # so these gaps decide as their numpy array form does, bit for bit.
                near = math.inf
                if ordered:
                    near = min(abs((ordered[i - 1] - freq + pi) % two_pi - pi),
                               abs((ordered[i % len(ordered)] - freq + pi) % two_pi - pi))
                take = near >= separation and (
                    (on_circle and near >= separation + _GAP_MARGIN)
                    or all(abs((t - freq + pi) % two_pi - pi) >= separation for t in taken)
                )
            if take:
                out.append(freq)
                taken.append(freq)
                ordered.insert(i, freq)
                attempts = 0
            elif attempts == max_attempts:
                raise SamplingError(f"angle sampling failed after {max_attempts} attempts")
    return np.array(out)


def _scatter_scale(config: SystemConfig, link: str, n_s: int, count: int) -> float:
    """Amplitude of each of a hop's ``count`` scattered paths, which share
    the hop's non-line-of-sight power equally (0 when there are none)."""
    if not count:
        return 0.0
    if link == TX_RIS:
        return math.sqrt(config.n_tx * n_s / ((config.rician_factor + 1.0) * count))
    return math.sqrt(config.n_rx * n_s / count)


def _separation(n_elements: np.ndarray) -> float:
    """Smallest allowed spacing of surface-side spatial frequencies: one
    full mainlobe of the smallest surface."""
    return 2.0 * math.pi / min(n_elements.tolist())


def _los_gain(config: SystemConfig, n_elements):
    """Line-of-sight gain of a transmitter-to-surface hop: real, positive,
    and carrying the whole Rician-factor weight (elementwise on arrays)."""
    kappa = config.rician_factor
    return np.sqrt(kappa * config.n_tx * n_elements / (kappa + 1.0))


def _scattered_paths(
    config: SystemConfig, link: str, keep_away: list[float], rng: np.random.Generator,
    separation: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The angles of one hop's scattered paths: frequencies at the surface
    (kept ``separation`` away from each other and from ``keep_away``),
    then frequencies at the far end.  The normals of the paths' gains
    follow in one call and are dropped, since fading epochs redraw the
    gains."""
    count = config.n_nlos_tx_paths if link == TX_RIS else config.n_ris_rx_paths
    at_surface = _draw_separated_freqs(rng, count, keep_away, separation)
    far = math.pi * np.cos(rng.uniform(0.0, math.pi, size=count))
    rng.standard_normal(2 * count)
    return at_surface, far


def draw_angle_epochs(
    config: SystemConfig, surfaces: SurfaceGeometry, keys: np.ndarray, rng: np.random.Generator
) -> tuple[dict, np.ndarray]:
    """Every angle epoch's receiver drop and path angles, straight into arrays.

    ``keys[a]`` is angle epoch ``a``'s Philox key, shape (A, 2), and ``rng``
    a Philox generator re-keyed to each in turn (:func:`rekey`), so it ends
    where the last epoch's draws leave its stream.  An epoch drops the
    receiver (:func:`rislink.config.drop_receiver`), which sizes the
    surfaces, then draws surface by surface the scattered paths of the
    transmitter-to-surface hop (arrivals kept away from the line of sight)
    and then those of the surface-to-receiver hop (departures kept away
    from every transmit-side arrival at that surface), all at the spacing
    of the smallest surface.  Each hop draws (:func:`_scattered_paths`)
    its surface-side frequencies, its far-side frequencies and the normals
    of its scattered gains, in that order; the normals are dropped, since
    fading epochs redraw the gains.
    ``tests/test_channel.py`` pins every value and each epoch's final
    stream state by digest.  Returns the angle fields of a :class:`HopStack`
    (frequencies (A, K, L), element counts and losses (A, K)) and the
    line-of-sight gains (A, K).
    """
    n_angle, n_ris = len(keys), config.n_ris
    tx_arrival = np.empty((n_angle, n_ris, 1 + config.n_nlos_tx_paths))
    tx_departure = np.empty_like(tx_arrival)
    tx_arrival[..., 0] = surfaces.los_arrival
    tx_departure[..., 0] = surfaces.los_departure
    rx_arrival = np.empty((n_angle, n_ris, config.n_ris_rx_paths))
    rx_departure = np.empty_like(rx_arrival)
    losses = np.empty((n_angle, n_ris))
    n_elements = np.empty((n_angle, n_ris), dtype=np.int64)
    for a, key in enumerate(keys.tolist()):
        rekey(rng, key)
        losses[a], n_elements[a] = receiver_losses(config, surfaces, drop_receiver(config, rng))
        separation = _separation(n_elements[a])
        for k, los in enumerate(surfaces.los_arrival.tolist()):
            tx_arrival[a, k, 1:], tx_departure[a, k, 1:] = _scattered_paths(
                config, TX_RIS, [los], rng, separation
            )
            rx_departure[a, k], rx_arrival[a, k] = _scattered_paths(
                config, RIS_RX, tx_arrival[a, k].tolist(), rng, separation
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
    keys: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh gains of both hops of every surface for a grid of fading epochs.

    ``keys[a, f]`` is the Philox key of fading epoch ``f`` of angle epoch
    ``a``, shape (A, F, 2), whose surfaces have ``n_elements[a]`` elements
    and line-of-sight gains ``los_gains[a]``; ``rng`` is re-keyed to each
    in turn (:func:`rekey`).  Each fading epoch makes one normal draw for
    all surfaces, sliced surface by surface into the real parts and then the
    imaginary parts of the transmit-side scattered gains, then the same
    for the receive-side gains.  The line-of-sight gains are copied in
    unchanged.  Returns (A, F, K, 1 + L_T) transmit-side and (A, F, K, L_R)
    receive-side gains.
    """
    n_tx_paths, n_rx_paths = config.n_nlos_tx_paths, config.n_ris_rx_paths
    n_angle, n_ris = n_elements.shape
    width = 2 * (n_tx_paths + n_rx_paths)
    normals = np.empty((n_angle, keys.shape[1], n_ris * width))
    for row, row_keys in zip(normals, keys.tolist()):
        for out, key in zip(row, row_keys):
            rekey(rng, key).standard_normal(out=out)
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

"""Shared helpers for the test suite."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

import rislink as rl
from rislink.channel import (
    RIS_RX,
    TX_RIS,
    HopStack,
    _los_gain,
    _scattered_paths,
    _separation,
    draw_fading_gains,
)
from rislink.config import drop_receiver, receiver_losses, surface_geometry

BASE_SEED = 20240601


def small_config(**overrides) -> rl.SystemConfig:
    """A compact system that keeps per-test channel draws cheap."""
    defaults = dict(n_tx=8, n_rx=2, n_ris=3, n_ris_rx_paths=4, gain_target=2e-7)
    defaults.update(overrides)
    return rl.SystemConfig(**defaults)


def draw_scene(config: rl.SystemConfig, seed: int = BASE_SEED, *key: int) -> HopStack:
    """One angle epoch's hops with their gains, a stack of one row.

    One generator draws, in this order: the receiver drop, every surface's
    transmit-side hop, then every surface's receive-side hop (kept away from
    that surface's transmit-side arrivals); each hop draws its surface-side
    frequencies, far-side frequencies and scattered gains.  The engine
    instead interleaves the two hops of each surface and draws the gains
    from separate fading generators.
    """
    rng = rl.substream(seed, *key) if key else rl.substream(seed, 0)
    surfaces = surface_geometry(config)
    losses, counts = receiver_losses(config, surfaces, drop_receiver(config, rng))
    separation = _separation(counts)
    tx = [_scattered_paths(config, TX_RIS, n_s, surfaces.los_arrival[k:k + 1], rng, separation)
          for k, n_s in enumerate(counts.tolist())]

    def with_los(i, los):
        return np.array([np.concatenate(([los[k]], paths[i])) for k, paths in enumerate(tx)])

    tx_arrival = with_los(0, surfaces.los_arrival)
    rx = [_scattered_paths(config, RIS_RX, n_s, tx_arrival[k], rng, separation)
          for k, n_s in enumerate(counts.tolist())]
    return HopStack(
        n_rx=config.n_rx, n_tx=config.n_tx,
        tx_arrival=tx_arrival[None], tx_departure=with_los(1, surfaces.los_departure)[None],
        tx_gains=with_los(2, _los_gain(config, counts)).astype(complex)[None, None],
        rx_arrival=np.array([paths[1] for paths in rx])[None],
        rx_departure=np.array([paths[0] for paths in rx])[None],
        rx_gains=np.array([paths[2] for paths in rx], dtype=complex)[None, None],
        n_elements=counts[None], losses=losses[None],
    )


def with_fading(config: rl.SystemConfig, hops: HopStack, rngs) -> HopStack:
    """A stack of one angle epoch with the gains of one fading epoch per
    generator in ``rngs``, on the same angle arrays."""
    tx_gains, rx_gains = draw_fading_gains(
        config, hops.n_elements, hops.tx_gains[:, 0, :, 0].real, [rngs]
    )
    return replace(hops, tx_gains=tx_gains, rx_gains=rx_gains)


def model_channel(design) -> np.ndarray:
    """The activated-paths model of one row's design,
    ``(r_active * xi_active) @ t_active^H``: what the leakage leaves out."""
    return (design.r_active * design.xi_active) @ design.t_active.conj().T


def random_profiles(hops: HopStack, rng: np.random.Generator):
    """Linear phase profiles of a stack of one with independent uniform
    slopes (1, K) and common phases (1, 1, K)."""
    slopes, commons = rng.uniform(-np.pi, np.pi, (2, hops.n_elements.shape[1]))
    return slopes[None], commons[None, None]
